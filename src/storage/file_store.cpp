#include "storage/file_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <sstream>

namespace dtx::storage {

namespace fs = std::filesystem;

FileStore::FileStore(fs::path directory) : directory_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
}

FileStore::~FileStore() {
  sync::MutexLock lock(mutex_);
  for (const auto& entry : append_fds_) ::close(entry.second);
}

fs::path FileStore::path_of(const std::string& name) const {
  return directory_ / (name + ".xml");
}

int FileStore::append_fd_locked(const std::string& name) {
  const auto it = append_fds_.find(name);
  if (it != append_fds_.end()) return it->second;
  const int fd = ::open(path_of(name).c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return -1;
  if (append_fds_.size() >= kMaxOpenAppendFiles) {
    ::close(append_fds_.begin()->second);
    append_fds_.erase(append_fds_.begin());
  }
  append_fds_.emplace(name, fd);
  return fd;
}

void FileStore::close_append_fd_locked(const std::string& name) {
  const auto it = append_fds_.find(name);
  if (it == append_fds_.end()) return;
  ::close(it->second);
  append_fds_.erase(it);
}

util::Result<std::string> FileStore::load(const std::string& name) {
  sync::MutexLock lock(mutex_);
  std::ifstream in(path_of(name), std::ios::binary);
  if (!in) {
    return util::Status(util::Code::kNotFound,
                        "document '" + name + "' not in " + directory_.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

util::Status FileStore::store(const std::string& name, const std::string& xml) {
  // Write-then-rename for atomicity against crashes; the mutex keeps two
  // writers of one document from clobbering each other's .tmp staging file.
  sync::MutexLock lock(mutex_);
  close_append_fd_locked(name);
  const fs::path final_path = path_of(name);
  const fs::path temp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::Status(util::Code::kUnavailable,
                          "cannot write " + temp_path.string());
    }
    out << xml;
    if (!out) {
      return util::Status(util::Code::kUnavailable,
                          "short write to " + temp_path.string());
    }
  }
  std::error_code ec;
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    return util::Status(util::Code::kUnavailable,
                        "rename failed: " + ec.message());
  }
  return util::Status::ok();
}

util::Status FileStore::append(const std::string& name,
                               const std::string& data) {
  sync::MutexLock lock(mutex_);
  const int fd = append_fd_locked(name);
  if (fd < 0) {
    return util::Status(util::Code::kUnavailable,
                        "cannot append to " + path_of(name).string());
  }
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // Reopen on the next append rather than keep a failing descriptor.
      close_append_fd_locked(name);
      return util::Status(util::Code::kUnavailable,
                          "short append to " + path_of(name).string());
    }
    written += static_cast<std::size_t>(n);
  }
  return util::Status::ok();
}

util::Result<std::string> FileStore::read_log(const std::string& name) {
  sync::MutexLock lock(mutex_);
  std::ifstream in(path_of(name), std::ios::binary);
  if (!in) {
    // Only true absence reads as an empty log; any other open failure
    // (permissions, fd exhaustion, I/O error) must surface — treating it
    // as empty would silently drop the log tail from recovery.
    std::error_code ec;
    if (!fs::exists(path_of(name), ec) && !ec) return std::string();
    return util::Status(util::Code::kUnavailable,
                        "cannot read log " + path_of(name).string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

util::Status FileStore::truncate(const std::string& name) {
  sync::MutexLock lock(mutex_);
  close_append_fd_locked(name);
  std::ofstream out(path_of(name), std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status(util::Code::kUnavailable,
                        "cannot truncate " + path_of(name).string());
  }
  return util::Status::ok();
}

bool FileStore::exists(const std::string& name) {
  sync::MutexLock lock(mutex_);
  std::error_code ec;
  return fs::exists(path_of(name), ec);
}

std::vector<std::string> FileStore::list() {
  sync::MutexLock lock(mutex_);
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (entry.path().extension() == ".xml") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

util::Status FileStore::remove(const std::string& name) {
  sync::MutexLock lock(mutex_);
  close_append_fd_locked(name);
  std::error_code ec;
  if (!fs::remove(path_of(name), ec) || ec) {
    return util::Status(util::Code::kNotFound,
                        "document '" + name + "' not in " + directory_.string());
  }
  return util::Status::ok();
}

}  // namespace dtx::storage
