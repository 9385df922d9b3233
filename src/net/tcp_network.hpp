// TcpNetwork: the real transport — a net::Network over non-blocking TCP
// sockets driven by one epoll event-loop thread, speaking the binary codec
// (codec.hpp). The loop thread dials, accepts, reads and delivers; a frame
// sent on an established connection with nothing queued ahead is written
// by the sending thread itself (one non-blocking send()), and only what
// that write leaves waits for EPOLLOUT on the loop. Every write happens
// under the network mutex in queue order, so each link stays FIFO and the
// Hello stays first.
//
// Topology: every endpoint may listen (sites do, clients don't) and eagerly
// dials every peer in its address book, so a pair of sites typically holds
// two connections (one dialed by each side) — normal and harmless; each
// side prefers its own dialed connection for sending and falls back to an
// accepted one. The first frame on every connection, in both directions, is
// a Hello identifying the sender endpoint and its protocol version; it is
// consumed internally to bind the connection to its peer id (this is how
// replies reach remote clients: their accepted connection is bound to the
// client id from their Hello).
//
// Delivery contract (matches SimNetwork-with-faults, so the engine's
// timeout/recovery paths need no transport-specific cases): send() is
// fire-and-forget and *lossy* — no reachable connection means the message
// is dropped and counted, and a connection loss discards its queued bytes
// (a partial frame must never be followed by a fresh one). Dialed
// connections reconnect with capped exponential backoff; a corrupt frame
// (codec poison) drops the connection.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/network.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace dtx::net {

/// Resolves "host:port" (split at the last colon; IPv4, the host numeric or
/// resolvable, the port numeric): the one parser of TcpNetwork's listen and
/// peer addresses and client::RemoteSession's dials. kInvalidArgument when
/// the address is malformed or does not resolve.
util::Result<sockaddr_in> resolve_hostport(const std::string& address);

/// Disables Nagle on a TCP socket: frames are small and latency-bound.
void set_nodelay(int fd);

struct TcpOptions {
  /// Listen address "host:port" (port 0 = kernel-assigned, see
  /// listen_port()). Empty = no listener (a pure client endpoint).
  std::string listen;
  /// Address book: peer site id -> "host:port". Dialed eagerly and
  /// redialed forever with backoff.
  std::map<SiteId, std::string> peers;
  std::chrono::milliseconds reconnect_min{50};
  std::chrono::milliseconds reconnect_max{2000};
};

/// Transport-level counters (the logical ones — messages/bytes/drops — are
/// NetworkStats via stats()).
struct TcpStats {
  std::uint64_t dials = 0;        ///< connection attempts started
  std::uint64_t connects = 0;     ///< dialed connections established
  std::uint64_t accepts = 0;      ///< inbound connections accepted
  std::uint64_t disconnects = 0;  ///< established connections lost
  std::uint64_t reconnects = 0;   ///< re-dials after an established loss
  std::uint64_t frames_rejected = 0;  ///< corrupt frames (connection dropped)
};

class TcpNetwork final : public Network {
 public:
  TcpNetwork(SiteId local, TcpOptions options);
  ~TcpNetwork() override;

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  /// Binds the listener (when configured) and spawns the event loop.
  /// Must be called (successfully) before send(); returns the bind /
  /// socket error otherwise.
  [[nodiscard]] util::Status start();

  /// Port actually bound (resolves a port-0 listen). 0 when not listening.
  [[nodiscard]] std::uint16_t listen_port() const;

  Mailbox& register_site(SiteId site) override;
  [[nodiscard]] std::vector<SiteId> sites() const override;
  void send(Message message) override;
  [[nodiscard]] NetworkStats stats() const override;
  void interrupt_all() override;

  /// Grows the address book at runtime (a joined member) and starts
  /// dialing. Re-adding an existing peer updates its address (a rejoin at
  /// a new endpoint — takes effect on the next redial).
  void add_peer(SiteId site, const std::string& address) override;

  [[nodiscard]] TcpStats tcp_stats() const;

  /// True when the dialed connection to `peer` is established (handshake
  /// done in both directions).
  [[nodiscard]] bool peer_connected(SiteId peer) const;

  /// Test hook: severs every live connection (as a network blip would).
  /// Dialed peers re-enter the backoff/reconnect path.
  void drop_connections();

 private:
  struct Conn;
  struct DialState {
    std::chrono::milliseconds backoff;
    std::chrono::steady_clock::time_point next_at;
    bool was_established = false;
  };

  void loop();
  void wake();
  void maybe_dial_locked(std::chrono::steady_clock::time_point now)
      DTX_REQUIRES(mutex_);
  void dial_locked(SiteId peer) DTX_REQUIRES(mutex_);
  void accept_all_locked() DTX_REQUIRES(mutex_);
  void handle_event_locked(int fd, std::uint32_t events) DTX_REQUIRES(mutex_);
  void handle_readable_locked(Conn& conn) DTX_REQUIRES(mutex_);
  void handle_writable_locked(Conn& conn) DTX_REQUIRES(mutex_);
  /// Writes a frame queued on an idle connection from the sending thread.
  void write_inline_locked(Conn& conn) DTX_REQUIRES(mutex_);
  void deliver_locked(Message message) DTX_REQUIRES(mutex_);
  bool handshake_locked(Conn& conn, const Message& message)
      DTX_REQUIRES(mutex_);
  void close_conn_locked(int fd, bool lost) DTX_REQUIRES(mutex_);
  void update_interest_locked(Conn& conn) DTX_REQUIRES(mutex_);

  const SiteId local_;
  const TcpOptions options_;

  mutable sync::Mutex mutex_{sync::LockRank::kNetwork};
  /// Live address book (options_.peers + runtime add_peer joins).
  std::map<SiteId, std::string> peers_ DTX_GUARDED_BY(mutex_);
  std::map<SiteId, std::unique_ptr<Mailbox>> mailboxes_
      DTX_GUARDED_BY(mutex_);
  std::map<int, std::unique_ptr<Conn>> conns_
      DTX_GUARDED_BY(mutex_);  // keyed by fd
  std::map<SiteId, int> dialed_
      DTX_GUARDED_BY(mutex_);  // peer -> fd (alive, maybe connecting)
  std::map<SiteId, int> accepted_
      DTX_GUARDED_BY(mutex_);  // peer/client -> fd (post-Hello)
  std::map<SiteId, DialState> dial_state_ DTX_GUARDED_BY(mutex_);
  NetworkStats stats_ DTX_GUARDED_BY(mutex_);
  TcpStats tcp_stats_ DTX_GUARDED_BY(mutex_);

  // Set once in start() before the loop thread exists, then read by the
  // loop thread and wake() without the lock — effectively const while the
  // thread runs, so deliberately not guarded.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ DTX_GUARDED_BY(mutex_) = 0;
  bool started_ DTX_GUARDED_BY(mutex_) = false;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace dtx::net
