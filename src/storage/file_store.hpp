// File-system storage backend: one "<name>.xml" file per document inside a
// directory (the paper's Fig. 2 shows a DTX instance backed by a plain file
// system next to DBMS-backed instances).
//
// Appends (the redo logs and the commit log) reuse one open O_APPEND
// descriptor per appended key, so a log record costs one write() instead
// of an open, a write and a close. store(), truncate() and remove() of a
// key close its descriptor first — store() replaces the file by a rename,
// which an open descriptor would not follow. At most
// kMaxOpenAppendFiles stay open; appending to one more key closes another.
// Nothing calls fsync: appended bytes are in the page cache, safe across a
// process crash but not across power loss.
#pragma once

#include <filesystem>
#include <map>
#include <string>

#include "storage/storage.hpp"
#include "util/sync.hpp"

namespace dtx::storage {

class FileStore final : public StorageBackend {
 public:
  /// Creates the directory when missing.
  explicit FileStore(std::filesystem::path directory);
  ~FileStore() override;

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  /// Bound on the append descriptors kept open at once.
  static constexpr std::size_t kMaxOpenAppendFiles = 64;

  [[nodiscard]] const char* kind() const noexcept override { return "file"; }

  util::Result<std::string> load(const std::string& name) override;
  util::Status store(const std::string& name, const std::string& xml) override;
  util::Status append(const std::string& name,
                      const std::string& data) override;
  util::Result<std::string> read_log(const std::string& name) override;
  util::Status truncate(const std::string& name) override;
  bool exists(const std::string& name) override;
  std::vector<std::string> list() override;
  util::Status remove(const std::string& name) override;

  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return directory_;
  }

 private:
  [[nodiscard]] std::filesystem::path path_of(const std::string& name) const;
  /// The open append descriptor of `name`, opened on first use; -1 when
  /// the file cannot be opened.
  int append_fd_locked(const std::string& name) DTX_REQUIRES(mutex_);
  void close_append_fd_locked(const std::string& name) DTX_REQUIRES(mutex_);

  // Serializes every filesystem operation and the descriptor map. The
  // annotation sweep surfaced that FileStore, unlike MemoryStore, had no
  // internal synchronization at all, yet is called concurrently (WAL
  // appends under the data latch, commit-log appends from coordinator
  // workers, recovery reads from the dispatcher thread): two store() calls
  // for one document raced on the shared "<name>.xml.tmp" staging file, so
  // the rename could publish a torn snapshot. The interface contract
  // ("appends are atomic per call at the backend's synchronization
  // granularity") also requires appends not to interleave. storage_test
  // covers the regression.
  mutable sync::Mutex mutex_{sync::LockRank::kStorage};
  const std::filesystem::path directory_;
  /// Open O_APPEND descriptors by key, at most kMaxOpenAppendFiles.
  std::map<std::string, int> append_fds_ DTX_GUARDED_BY(mutex_);
};

}  // namespace dtx::storage
