// Distributed deadlock detection bookkeeping (Algorithm 4). A site's
// scheduler periodically starts a *probe*: it snapshots its own wait-for
// graph, requests every other site's graph, unions the replies and — if the
// union contains a cycle — selects the newest transaction on it as the
// victim. The Site owns the messaging; this class owns probe state.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <vector>

#include "net/message.hpp"
#include "wfg/wait_for_graph.hpp"

namespace dtx::core {

using net::SiteId;

class DeadlockDetector {
 public:
  using Clock = std::chrono::steady_clock;

  /// The reply timeout every site's detector uses.
  static constexpr std::chrono::microseconds kDefaultReplyTimeout{200'000};

  /// `period`: how often a probe starts; `reply_timeout`: how long to wait
  /// for all graphs before resolving with what arrived (a slow site must not
  /// wedge detection).
  explicit DeadlockDetector(
      std::chrono::microseconds period,
      std::chrono::microseconds reply_timeout = kDefaultReplyTimeout);

  /// True when a new probe should start now (period elapsed, none active).
  [[nodiscard]] bool should_start(Clock::time_point now) const;

  /// Starts a probe seeded with the local graph; returns its id.
  std::uint64_t begin_probe(const std::vector<wfg::Edge>& local_edges,
                            const std::vector<SiteId>& other_sites,
                            Clock::time_point now);

  /// Integrates one site's reply. Returns the victim transaction when the
  /// probe just completed and found a cycle; 0 when it completed clean;
  /// nullopt while still collecting.
  std::optional<lock::TxnId> add_reply(std::uint64_t probe, SiteId from,
                                       const std::vector<wfg::Edge>& edges);

  /// Resolves an overdue probe with the replies collected so far. Same
  /// return convention as add_reply, and nullopt when no probe is overdue.
  std::optional<lock::TxnId> resolve_if_expired(Clock::time_point now);

  [[nodiscard]] bool probe_active() const noexcept { return active_; }

  /// Number of probes that found a cycle (readable from any thread).
  [[nodiscard]] std::uint64_t cycles_found() const noexcept {
    return cycles_found_.load(std::memory_order_relaxed);
  }

 private:
  lock::TxnId resolve();

  std::chrono::microseconds period_;
  std::chrono::microseconds reply_timeout_;
  Clock::time_point last_probe_{};
  bool active_ = false;
  std::uint64_t next_probe_id_ = 1;
  std::uint64_t probe_id_ = 0;
  Clock::time_point probe_started_{};
  std::set<SiteId> awaiting_;
  wfg::WaitForGraph merged_;
  std::atomic<std::uint64_t> cycles_found_{0};
};

}  // namespace dtx::core
