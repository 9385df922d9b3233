#include "net/tcp_network.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/codec.hpp"
#include "util/log.hpp"

namespace dtx::net {

using util::Code;
using util::Status;

namespace {

using Clock = std::chrono::steady_clock;

Status errno_status(const char* what) {
  return Status(Code::kUnavailable,
                std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

util::Result<sockaddr_in> resolve_hostport(const std::string& address) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon + 1 == address.size()) {
    return Status(Code::kInvalidArgument,
                  "address '" + address + "' is not host:port");
  }
  const std::string host = address.substr(0, colon);
  const std::string port = address.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &found);
  if (rc != 0 || found == nullptr) {
    return Status(Code::kInvalidArgument, "cannot resolve '" + address +
                                              "': " + ::gai_strerror(rc));
  }
  sockaddr_in out{};
  std::memcpy(&out, found->ai_addr, sizeof(sockaddr_in));
  ::freeaddrinfo(found);
  return out;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// One TCP connection, dialed or accepted. Owned by conns_ (keyed by fd);
/// routed to by dialed_/accepted_ once bound to a peer.
struct TcpNetwork::Conn {
  int fd = -1;
  bool dialed = false;
  bool connecting = false;      ///< non-blocking connect() in flight
  bool hello_received = false;  ///< peer identified; frames may route
  SiteId peer = 0;              ///< dialed: target upfront; accepted: Hello
  codec::FrameReader reader;
  std::string out;              ///< encoded frames awaiting the socket
  std::size_t out_offset = 0;
  std::uint32_t interest = 0;   ///< epoll events currently armed
};

TcpNetwork::TcpNetwork(SiteId local, TcpOptions options)
    : local_(local), options_(std::move(options)), peers_(options_.peers) {}

TcpNetwork::~TcpNetwork() {
  if (running_.exchange(false)) {
    wake();
    thread_.join();
  }
  sync::MutexLock lock(mutex_);
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status TcpNetwork::start() {
  sync::MutexLock lock(mutex_);
  if (started_) return Status::ok();

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return errno_status("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return errno_status("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  if (!options_.listen.empty()) {
    const util::Result<sockaddr_in> addr = resolve_hostport(options_.listen);
    if (!addr) return addr.status();
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (listen_fd_ < 0) return errno_status("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr.value()),
               sizeof(sockaddr_in)) != 0) {
      return errno_status("bind");
    }
    if (::listen(listen_fd_, 64) != 0) return errno_status("listen");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    listen_port_ = ntohs(bound.sin_port);
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }

  const auto now = Clock::now();
  for (const auto& [peer, address] : peers_) {
    (void)address;
    if (peer == local_) continue;  // never dial self
    dial_state_[peer] = DialState{options_.reconnect_min, now, false};
  }

  started_ = true;
  running_.store(true);
  thread_ = std::thread([this] { loop(); });
  return Status::ok();
}

std::uint16_t TcpNetwork::listen_port() const {
  sync::MutexLock lock(mutex_);
  return listen_port_;
}

void TcpNetwork::add_peer(SiteId site, const std::string& address) {
  bool need_wake = false;
  {
    sync::MutexLock lock(mutex_);
    auto [it, inserted] = peers_.emplace(site, address);
    if (!inserted) it->second = address;  // rejoin with a new endpoint
    if (site != local_ && started_ && dial_state_.count(site) == 0) {
      dial_state_[site] = DialState{options_.reconnect_min, Clock::now(),
                                    false};
      need_wake = true;
    }
  }
  if (need_wake) wake();
}

Mailbox& TcpNetwork::register_site(SiteId site) {
  sync::MutexLock lock(mutex_);
  auto& slot = mailboxes_[site];
  if (slot == nullptr) slot = std::make_unique<Mailbox>();
  return *slot;
}

std::vector<SiteId> TcpNetwork::sites() const {
  sync::MutexLock lock(mutex_);
  std::vector<SiteId> out;
  for (const auto& [site, mailbox] : mailboxes_) {
    (void)mailbox;
    if (!is_client_id(site)) out.push_back(site);
  }
  for (const auto& [peer, address] : peers_) {
    (void)address;
    if (!is_client_id(peer)) out.push_back(peer);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void TcpNetwork::send(Message message) {
  // Local endpoints short-circuit the sockets entirely (a site's
  // coordinator messaging its own participant). Mailboxes are never
  // unregistered, so the pointer stays valid after the lock; the bytes are
  // counted outside it.
  Mailbox* local = nullptr;
  {
    sync::MutexLock lock(mutex_);
    const auto it = mailboxes_.find(message.to);
    if (it != mailboxes_.end()) {
      local = it->second.get();
    } else {
      int fd = -1;
      const auto dialed = dialed_.find(message.to);
      if (dialed != dialed_.end()) {
        fd = dialed->second;
      } else {
        const auto accepted = accepted_.find(message.to);
        if (accepted != accepted_.end()) fd = accepted->second;
      }
      if (fd < 0) {
        ++stats_.messages_dropped;
        return;
      }
      Conn& conn = *conns_.at(fd);
      // With the connection up and nothing queued ahead (its Hello has left
      // too), the frame leaves from this thread.
      const bool idle = !conn.connecting && conn.out_offset == conn.out.size();
      const std::size_t before = conn.out.size();
      codec::encode(message, conn.out);
      ++stats_.messages_sent;
      ++stats_.sent_by_kind[message.payload.index()];
      stats_.bytes_sent += conn.out.size() - before;
      if (idle) {
        write_inline_locked(conn);
      } else {
        update_interest_locked(conn);
      }
    }
  }
  if (local != nullptr) {
    const std::size_t bytes = payload_wire_size(message.payload);
    {
      sync::MutexLock lock(mutex_);
      ++stats_.messages_sent;
      ++stats_.sent_by_kind[message.payload.index()];
      stats_.bytes_sent += bytes;
    }
    local->push(std::move(message), Mailbox::Clock::now());
  }
}

void TcpNetwork::write_inline_locked(Conn& conn) {
  // One non-blocking attempt. Whatever it leaves — a short write, EAGAIN,
  // or an error — waits for EPOLLOUT: the loop thread writes the rest, or
  // meets the error itself and closes the connection.
  const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                           conn.out.size() - conn.out_offset,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
  if (n > 0) conn.out_offset += static_cast<std::size_t>(n);
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  update_interest_locked(conn);
}

NetworkStats TcpNetwork::stats() const {
  sync::MutexLock lock(mutex_);
  return stats_;
}

TcpStats TcpNetwork::tcp_stats() const {
  sync::MutexLock lock(mutex_);
  return tcp_stats_;
}

bool TcpNetwork::peer_connected(SiteId peer) const {
  sync::MutexLock lock(mutex_);
  const auto it = dialed_.find(peer);
  if (it == dialed_.end()) return false;
  const Conn& conn = *conns_.at(it->second);
  return !conn.connecting && conn.hello_received;
}

void TcpNetwork::drop_connections() {
  {
    sync::MutexLock lock(mutex_);
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) {
      (void)conn;
      fds.push_back(fd);
    }
    for (const int fd : fds) close_conn_locked(fd, true);
  }
  wake();
}

void TcpNetwork::interrupt_all() {
  sync::MutexLock lock(mutex_);
  for (auto& [site, mailbox] : mailboxes_) {
    (void)site;
    mailbox->interrupt();
  }
}

// --- event loop --------------------------------------------------------------

void TcpNetwork::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void TcpNetwork::loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load()) {
    int timeout_ms = 200;  // upper bound; dial deadlines shorten it
    {
      sync::MutexLock lock(mutex_);
      const auto now = Clock::now();
      maybe_dial_locked(now);
      for (auto& [fd, conn] : conns_) {
        (void)fd;
        update_interest_locked(*conn);
      }
      for (const auto& [peer, dial] : dial_state_) {
        (void)peer;
        if (dialed_.count(peer) != 0) continue;
        const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
            dial.next_at - now);
        timeout_ms = std::clamp(static_cast<int>(wait.count()), 0, timeout_ms);
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    sync::MutexLock lock(mutex_);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
      } else if (fd == listen_fd_) {
        accept_all_locked();
      } else {
        handle_event_locked(fd, events[i].events);
      }
    }
  }
}

void TcpNetwork::maybe_dial_locked(Clock::time_point now) {
  for (auto& [peer, dial] : dial_state_) {
    if (dialed_.count(peer) != 0) continue;  // already live / in flight
    if (dial.next_at > now) continue;
    dial_locked(peer);
  }
}

void TcpNetwork::dial_locked(SiteId peer) {
  DialState& dial = dial_state_.at(peer);
  // Pre-schedule the next attempt; a successful connect resets the backoff.
  dial.next_at = Clock::now() + dial.backoff;
  dial.backoff = std::min(dial.backoff * 2, options_.reconnect_max);

  const util::Result<sockaddr_in> addr = resolve_hostport(peers_.at(peer));
  if (!addr) return;
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  set_nodelay(fd);
  ++tcp_stats_.dials;
  if (dial.was_established) ++tcp_stats_.reconnects;
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
                sizeof(sockaddr_in));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return;
  }

  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->dialed = true;
  conn->connecting = rc != 0;
  conn->peer = peer;
  // Hello goes out first on every connection, before anything send()
  // queued; it waits in the buffer until the connect completes.
  codec::encode(Message{local_, peer, Hello{local_, codec::kProtocolVersion}},
                conn->out);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  conn->interest = ev.events;
  dialed_[peer] = fd;
  conns_[fd] = std::move(conn);
}

void TcpNetwork::accept_all_locked() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: nothing more to take
    set_nodelay(fd);
    ++tcp_stats_.accepts;
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    // Identify ourselves; the peer id binds when their Hello arrives.
    codec::encode(Message{local_, 0, Hello{local_, codec::kProtocolVersion}},
                  conn->out);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conn->interest = ev.events;
    conns_[fd] = std::move(conn);
  }
}

void TcpNetwork::handle_event_locked(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // already closed this round
  Conn& conn = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_conn_locked(fd, true);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    handle_writable_locked(conn);
    if (conns_.count(fd) == 0) return;
  }
  if ((events & EPOLLIN) != 0) handle_readable_locked(conn);
}

void TcpNetwork::handle_writable_locked(Conn& conn) {
  if (conn.connecting) {
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0) {
      close_conn_locked(conn.fd, false);
      return;
    }
    conn.connecting = false;
    ++tcp_stats_.connects;
    dial_state_.at(conn.peer).backoff = options_.reconnect_min;
    dial_state_.at(conn.peer).was_established = true;
  }
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn_locked(conn.fd, true);
    return;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  } else if (conn.out_offset > 4096 && conn.out_offset * 2 > conn.out.size()) {
    conn.out.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
  update_interest_locked(conn);
}

void TcpNetwork::handle_readable_locked(Conn& conn) {
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // 0 = orderly shutdown by the peer; <0 = error. Either way the
    // connection is gone once the buffered frames are drained below.
    close_conn_locked(conn.fd, true);
    return;
  }
  for (;;) {
    auto next = conn.reader.next();
    if (!next) {
      ++tcp_stats_.frames_rejected;
      DTX_WARN() << "tcp: dropping connection on corrupt frame: " +
                         next.status().to_string();
      close_conn_locked(conn.fd, true);
      return;
    }
    if (!next.value().has_value()) return;  // need more bytes
    Message message = std::move(next.value()).value();
    if (!conn.hello_received) {
      if (!handshake_locked(conn, message)) {
        close_conn_locked(conn.fd, false);
        return;
      }
      continue;
    }
    deliver_locked(std::move(message));
  }
}

bool TcpNetwork::handshake_locked(Conn& conn, const Message& message) {
  const Hello* hello = std::get_if<Hello>(&message.payload);
  if (hello == nullptr || hello->protocol != codec::kProtocolVersion) {
    DTX_WARN() << (hello == nullptr
                       ? std::string("tcp: first frame is not a Hello")
                       : "tcp: protocol mismatch: peer speaks v" +
                             std::to_string(hello->protocol));
    return false;
  }
  if (conn.dialed) {
    // The address book said this endpoint is `conn.peer`; believe the
    // socket, not the book.
    if (hello->id != conn.peer) {
      DTX_WARN() << "tcp: dialed peer " + std::to_string(conn.peer) +
                         " but it identifies as " + std::to_string(hello->id);
      return false;
    }
  } else {
    conn.peer = hello->id;
    // First accepted connection per peer wins the reply route; a newer one
    // replaces it (the peer reconnected — its old socket is dead or dying).
    accepted_[conn.peer] = conn.fd;
  }
  conn.hello_received = true;
  return true;
}

void TcpNetwork::deliver_locked(Message message) {
  const auto it = mailboxes_.find(message.to);
  if (it == mailboxes_.end()) {
    ++stats_.messages_dropped;
    return;
  }
  it->second->push(std::move(message), Mailbox::Clock::now());
}

void TcpNetwork::close_conn_locked(int fd, bool lost) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if (lost && !conn.connecting) ++tcp_stats_.disconnects;
  if (conn.dialed) {
    const auto route = dialed_.find(conn.peer);
    if (route != dialed_.end() && route->second == fd) dialed_.erase(route);
    // Queued bytes die with the socket (lossy contract): resuming the
    // buffer on a fresh connection could emit a torn frame.
  } else if (conn.hello_received) {
    const auto route = accepted_.find(conn.peer);
    if (route != accepted_.end() && route->second == fd) {
      accepted_.erase(route);
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
}

void TcpNetwork::update_interest_locked(Conn& conn) {
  std::uint32_t want = EPOLLIN;
  if (conn.connecting || conn.out_offset < conn.out.size()) {
    want |= EPOLLOUT;
  }
  if (want == conn.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.interest = want;
}

}  // namespace dtx::net
