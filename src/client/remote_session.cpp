#include "client/remote_session.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <random>
#include <utility>

#include "net/tcp_network.hpp"

namespace dtx::client {

using util::Code;
using util::Result;
using util::Status;

namespace {

/// A fresh endpoint id in the client range. Collisions between concurrent
/// sessions against the same daemon are the only hazard; 31 bits of
/// entropy makes them negligible for test- and shell-scale client counts.
net::SiteId random_client_id() {
  std::random_device rd;
  std::uint32_t id = (rd() ^ (static_cast<std::uint32_t>(::getpid()) << 16));
  return net::kClientIdBase | (id & 0x7fff'ffffu);
}

/// Blocking connect to "host:port" (see net::resolve_hostport).
Result<int> dial(const std::string& address,
                 std::chrono::milliseconds timeout) {
  const Result<sockaddr_in> addr = net::resolve_hostport(address);
  if (!addr) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status(Code::kUnavailable,
                  std::string("socket: ") + std::strerror(errno));
  }
  timeval tv{};
  tv.tv_sec = timeout.count() / 1000;
  tv.tv_usec = static_cast<long>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
                sizeof(sockaddr_in)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status(Code::kUnavailable,
                  "cannot connect to " + address + ": " + error);
  }
  net::set_nodelay(fd);
  return fd;
}

RemoteResult from_reply(net::ClientReply&& reply) {
  RemoteResult out;
  out.accepted = reply.accepted;
  out.txn = reply.txn;
  out.state = static_cast<txn::TxnState>(reply.state);
  out.reason = static_cast<txn::AbortReason>(reply.reason);
  out.deadlock_victim = reply.deadlock_victim;
  out.wait_episodes = reply.wait_episodes;
  out.response_ms = reply.response_ms;
  out.detail = std::move(reply.detail);
  out.rows = std::move(reply.rows);
  return out;
}

}  // namespace

RemoteSession::~RemoteSession() { close(); }

void RemoteSession::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = net::codec::FrameReader();
  ready_.clear();
}

Status RemoteSession::connect(const std::string& address,
                              std::chrono::milliseconds timeout) {
  if (fd_ >= 0) return Status(Code::kInternal, "session already connected");
  auto fd = dial(address, timeout);
  if (!fd) return fd.status();
  fd_ = fd.value();
  id_ = random_client_id();

  // Hello both ways: ours announces the client id replies route back to;
  // the server's tells us which site we are talking to (and that the
  // protocol versions agree — the daemon drops mismatched connections).
  net::Message hello;
  hello.from = id_;
  hello.to = 0;
  hello.payload = net::Hello{id_, net::codec::kProtocolVersion};
  if (Status sent = send_frame(hello); !sent) {
    close();
    return sent;
  }

  bool greeted = false;
  Status pumped = pump(
      std::chrono::steady_clock::now() + timeout, [&](net::Message& message) {
        const auto* server_hello = std::get_if<net::Hello>(&message.payload);
        if (server_hello == nullptr) return false;  // not ours; drop
        if (server_hello->protocol != net::codec::kProtocolVersion) {
          return false;
        }
        server_ = server_hello->id;
        greeted = true;
        return true;
      });
  if (!pumped) {
    close();
    return pumped;
  }
  if (!greeted) {
    close();
    return Status(Code::kUnavailable, "server sent no Hello");
  }
  return Status::ok();
}

Status RemoteSession::send_frame(const net::Message& message) {
  if (fd_ < 0) return Status(Code::kUnavailable, "session not connected");
  const std::string frame = net::codec::encode(message);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status(Code::kUnavailable,
                  std::string("send failed: ") + std::strerror(errno));
  }
  return Status::ok();
}

Status RemoteSession::pump(
    std::chrono::steady_clock::time_point deadline,
    const std::function<bool(net::Message&)>& done) {
  while (true) {
    // Drain already-buffered frames first.
    while (true) {
      auto next = reader_.next();
      if (!next) {
        return Status(Code::kInternal,
                      "corrupt frame from server: " + next.status().message());
      }
      if (!next.value().has_value()) break;
      net::Message message = std::move(*next.value());
      if (done(message)) return Status::ok();
    }

    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return Status(Code::kTimeout, "reply timed out");
    const auto wait_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();

    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(
        &pfd, 1, static_cast<int>(std::min<long long>(wait_ms, 60'000)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status(Code::kUnavailable,
                    std::string("poll failed: ") + std::strerror(errno));
    }
    if (ready == 0) continue;  // re-check deadline

    char buffer[64 * 1024];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      reader_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    return Status(Code::kUnavailable, n == 0 ? "server closed the connection"
                                             : std::string("recv failed: ") +
                                                   std::strerror(errno));
  }
}

Result<std::uint64_t> RemoteSession::submit(std::vector<txn::Operation> ops) {
  if (fd_ < 0) return Status(Code::kUnavailable, "session not connected");
  if (ops.empty()) {
    return Status(Code::kInvalidArgument,
                  "transaction needs at least one operation");
  }
  const std::uint64_t seq = next_seq_++;
  net::Message message;
  message.from = id_;
  message.to = server_;
  message.payload = net::ClientSubmit{seq, std::move(ops)};
  if (Status sent = send_frame(message); !sent) return sent;
  return seq;
}

Result<RemoteResult> RemoteSession::await(std::uint64_t seq,
                                          std::chrono::milliseconds timeout) {
  if (auto parked = ready_.find(seq); parked != ready_.end()) {
    RemoteResult out = std::move(parked->second);
    ready_.erase(parked);
    return out;
  }
  std::optional<RemoteResult> result;
  Status pumped = pump(
      std::chrono::steady_clock::now() + timeout, [&](net::Message& message) {
        auto* reply = std::get_if<net::ClientReply>(&message.payload);
        if (reply == nullptr) return false;  // stray frame; ignore
        if (reply->seq == seq) {
          result = from_reply(std::move(*reply));
          return true;
        }
        ready_.emplace(reply->seq, from_reply(std::move(*reply)));
        return false;
      });
  if (!pumped) return pumped;
  return std::move(*result);
}

Result<RemoteResult> RemoteSession::execute(std::vector<txn::Operation> ops,
                                            std::chrono::milliseconds timeout) {
  auto seq = submit(std::move(ops));
  if (!seq) return seq.status();
  return await(seq.value(), timeout);
}

Result<RemoteResult> RemoteSession::execute_text(
    const std::vector<std::string>& op_texts,
    std::chrono::milliseconds timeout) {
  std::vector<txn::Operation> ops;
  ops.reserve(op_texts.size());
  for (const std::string& text : op_texts) {
    auto op = txn::parse_operation(text);
    if (!op) return op.status();
    ops.push_back(std::move(op).value());
  }
  return execute(std::move(ops), timeout);
}

}  // namespace dtx::client
