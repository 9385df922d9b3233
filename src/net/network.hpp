// The transport abstraction of the DTX engine. Every scheduler component
// (Site dispatcher, Coordinator, Participant, deadlock detector) talks to a
// net::Network: register a mailbox, send messages, observe counters. Two
// substrates implement the contract:
//
//   * net::SimNetwork  (sim_network.hpp) — the deterministic in-process
//     stand-in for the paper's LAN: latency/bandwidth model, composable
//     fault injection. The default for tests, benches and chaos soaks.
//   * net::TcpNetwork  (tcp_network.hpp) — the real thing: an epoll event
//     loop over non-blocking TCP connections speaking the binary codec
//     (codec.hpp). What `dtxd` daemons and remote clients run on.
//
// Endpoint ids share one 32-bit space: sites occupy the low range (they
// also index the catalog and the transaction-id site bits), while remote
// *clients* — connections that submit transactions but host no replicas —
// identify with ids at or above kClientIdBase. Engine fan-outs (deadlock
// probes, commit broadcasts) must never target client ids; is_client_id()
// is the filter.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "net/message.hpp"
#include "util/sync.hpp"

namespace dtx::net {

/// First endpoint id of the client range. Everything below is a site.
inline constexpr SiteId kClientIdBase = 0x8000'0000u;

[[nodiscard]] inline constexpr bool is_client_id(SiteId id) noexcept {
  return id >= kClientIdBase;
}

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_dropped = 0;
  /// messages_sent split by payload kind, indexed by Payload::index().
  std::array<std::uint64_t, std::variant_size_v<Payload>> sent_by_kind{};
};

/// Per-endpoint delivery queue. The receiving site's dispatcher blocks on
/// pop(); senders (the network substrate) push with a delivery timestamp —
/// SimNetwork stamps its latency/bandwidth model, TcpNetwork stamps now().
class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Enqueues a message due at `deliver_at`.
  void push(Message message, Clock::time_point deliver_at);

  /// Blocks until a message is deliverable or `timeout` elapses.
  std::optional<Message> pop(std::chrono::microseconds timeout);

  /// Non-blocking variant.
  std::optional<Message> try_pop();

  /// Wakes all blocked poppers (shutdown).
  void interrupt();

  /// Drops every queued message and clears the interrupted flag — a site
  /// restart begins with an empty, serviceable mailbox (a real crash loses
  /// the socket buffers with the process).
  void reset();

  [[nodiscard]] std::size_t pending() const;

 private:
  struct Timed {
    Clock::time_point deliver_at;
    std::uint64_t sequence;  // tie-break keeps per-link FIFO
    Message message;
  };
  struct Later {
    bool operator()(const Timed& a, const Timed& b) const {
      return a.deliver_at != b.deliver_at ? a.deliver_at > b.deliver_at
                                          : a.sequence > b.sequence;
    }
  };

  mutable sync::Mutex mutex_{sync::LockRank::kMailbox};
  sync::CondVar available_;
  std::priority_queue<Timed, std::vector<Timed>, Later> queue_
      DTX_GUARDED_BY(mutex_);
  std::uint64_t next_sequence_ DTX_GUARDED_BY(mutex_) = 0;
  bool interrupted_ DTX_GUARDED_BY(mutex_) = false;
};

/// The substrate contract. Implementations are internally synchronized:
/// send() and register_site() may be called from any engine thread.
class Network {
 public:
  virtual ~Network() = default;

  /// Registers a local endpoint and returns its mailbox (stable address;
  /// idempotent — re-registering returns the same mailbox).
  virtual Mailbox& register_site(SiteId site) = 0;

  /// Every *site* endpoint this substrate knows how to reach, local ones
  /// included (the deadlock detector's fan-out set). Client endpoints are
  /// never listed.
  [[nodiscard]] virtual std::vector<SiteId> sites() const = 0;

  /// Sends a message toward `message.to`. Fire-and-forget: delivery may
  /// fail silently (faults, a dead connection) — the engine's timeout and
  /// recovery paths own that case.
  virtual void send(Message message) = 0;

  /// Simulated-crash hook: while down, a site's traffic is discarded in
  /// both directions. Only SimNetwork implements it (chaos drives real
  /// processes with kill -9 instead); the default is a no-op.
  virtual void set_site_down(SiteId site, bool down);

  /// Membership hook: makes `site` reachable at `address` from now on
  /// (a joined peer). TcpNetwork grows its address book and starts
  /// dialing; SimNetwork needs nothing — registration creates mailboxes —
  /// so the default is a no-op. Idempotent.
  virtual void add_peer(SiteId site, const std::string& address);

  [[nodiscard]] virtual NetworkStats stats() const = 0;

  /// Wakes every blocked receiver (shutdown).
  virtual void interrupt_all() = 0;
};

inline void Network::set_site_down(SiteId /*site*/, bool /*down*/) {}

inline void Network::add_peer(SiteId /*site*/, const std::string& /*address*/) {
}

}  // namespace dtx::net
