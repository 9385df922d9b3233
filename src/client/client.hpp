// The DTX client layer: the canonical way programs talk to a cluster.
//
// The paper's client model is "the client makes a connection with an
// instance of DTX and sends the transaction", with re-submission after a
// deadlock abort left to the application. This layer packages both ends of
// that contract as typed objects:
//
//   * Client  — process-wide handle on a Cluster; holds the default
//               SessionOptions and the shared round-robin cursor. Safe to
//               share across threads.
//   * Session — one application conversation: a routing policy (which site
//               coordinates each transaction), a retry policy (which abort
//               reasons are resubmitted, how often, with what backoff) and
//               an optional await deadline. One session per client thread.
//   * TxnHandle — future-like handle for an in-flight transaction:
//               await_for(deadline) bounds the wait (fixing the unbounded
//               Transaction::await()), pipelined submission returns one
//               handle per transaction.
//
// Transactions are built once with TxnBuilder (txn_builder.hpp) and the
// resulting PreparedTxn is reused across retry attempts — operations are
// never re-parsed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "client/txn_builder.hpp"
#include "dtx/cluster.hpp"

namespace dtx::client {

using core::Cluster;
using net::SiteId;

/// How a session picks the coordinator site of each submission.
struct RoutingPolicy {
  enum class Kind : std::uint8_t {
    kExplicit,         ///< always the configured site (the paper's model)
    kRoundRobin,       ///< rotate over all sites (cursor shared per Client)
    kCatalogAffinity,  ///< site hosting the most operations' documents —
                       ///< keeps the most operations in the local slice
  };
  Kind kind = Kind::kExplicit;
  SiteId site = 0;  ///< kExplicit only

  static RoutingPolicy explicit_site(SiteId site) noexcept {
    return {Kind::kExplicit, site};
  }
  static RoutingPolicy round_robin() noexcept {
    return {Kind::kRoundRobin, 0};
  }
  static RoutingPolicy catalog_affinity() noexcept {
    return {Kind::kCatalogAffinity, 0};
  }
};

const char* routing_kind_name(RoutingPolicy::Kind kind) noexcept;

/// Parses a routing-kind name ("explicit", "round-robin"/"rr",
/// "affinity"/"catalog-affinity") — the shared `--routing=` flag syntax.
util::Result<RoutingPolicy::Kind> parse_routing_kind(std::string_view name);

/// Automatic re-submission after an abort. Deadlock-victim aborts and the
/// other *transient* abort reasons (lock-wait exhausted, site failure) have
/// independent budgets: `max_deadlock_retries` only governs deadlock
/// victims, `max_retries` only the other retryable reasons — the two never
/// gate each other. Deterministic aborts (parse/validation, unprocessable
/// update) are never retried regardless of either budget.
struct RetryPolicy {
  /// Max automatic re-submissions after a deadlock abort (0 = never).
  std::uint32_t max_deadlock_retries = 0;
  /// Max automatic re-submissions after non-deadlock *retryable* aborts
  /// (0 = never). Independent of max_deadlock_retries.
  std::uint32_t max_retries = 0;
  /// Linear backoff between attempts (attempt N sleeps N * backoff).
  /// Essential under the paper's newest-transaction victim rule: an
  /// immediately resubmitted victim re-enters as the newest transaction
  /// and loses every subsequent cycle against a steady stream of older
  /// competitors (victim starvation); backing off lets it land in a gap.
  std::chrono::microseconds backoff{2'000};
};

struct SessionOptions {
  RoutingPolicy routing;
  RetryPolicy retry;
  /// Upper bound on each blocking execute() attempt (0 = wait forever).
  /// On expiry execute() returns util::Code::kTimeout; the transaction
  /// keeps running in the cluster.
  std::chrono::microseconds await_timeout{0};
  /// Route *read-only* transactions by catalog affinity regardless of the
  /// routing policy. A read-only transaction coordinated at a site hosting
  /// its documents is served from that site's MVCC snapshots in a single
  /// local round — no SnapshotReadRequest fan-out at all. Update
  /// transactions keep the configured policy.
  bool read_only_affinity = false;
};

/// Future-like handle on one submitted transaction.
class TxnHandle {
 public:
  TxnHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return txn_ != nullptr; }
  [[nodiscard]] lock::TxnId id() const noexcept {
    return valid() ? txn_->id() : 0;
  }
  /// The site the transaction was routed to (its coordinator).
  [[nodiscard]] SiteId coordinator() const noexcept { return site_; }
  [[nodiscard]] bool done() const { return valid() && txn_->completed(); }

  /// Bounded wait: the result, or kTimeout when the deadline elapses first
  /// (the transaction keeps running; call again or abandon the handle).
  util::Result<txn::TxnResult> await_for(std::chrono::microseconds timeout);
  /// Unbounded wait. Prefer await_for in anything user-facing.
  txn::TxnResult await();

 private:
  friend class Session;
  TxnHandle(std::shared_ptr<txn::Transaction> txn, SiteId site)
      : txn_(std::move(txn)), site_(site) {}

  std::shared_ptr<txn::Transaction> txn_;
  SiteId site_ = 0;
};

class Client;

/// One application conversation with the cluster. Not thread-safe — open
/// one session per client thread (sessions are cheap; the Client is the
/// shared object).
class Session {
 public:
  /// Blocking execution with automatic retries per the retry policy. The
  /// returned result is the final attempt's outcome; retries() reports the
  /// re-submissions the last execute() consumed.
  util::Result<txn::TxnResult> execute(const PreparedTxn& txn);

  /// Async submission (no retry handling). The handle's await_for bounds
  /// the wait.
  util::Result<TxnHandle> submit(const PreparedTxn& txn);

  /// Pipelined submission: every transaction is in flight before the first
  /// result is awaited. One handle per transaction, in input order.
  util::Result<std::vector<TxnHandle>> submit_all(
      const std::vector<PreparedTxn>& txns);

  /// The site the routing policy picks for `txn` right now (round-robin
  /// advances its cursor on submission, not here).
  [[nodiscard]] SiteId route(const PreparedTxn& txn) const;

  [[nodiscard]] std::uint32_t retries() const noexcept { return retries_; }
  [[nodiscard]] const SessionOptions& options() const noexcept {
    return options_;
  }

 private:
  friend class Client;
  Session(Client& client, SessionOptions options)
      : client_(client), options_(options) {}

  [[nodiscard]] SiteId route_impl(const PreparedTxn& txn,
                                  bool advance_cursor) const;
  [[nodiscard]] SiteId route_for_submit(const PreparedTxn& txn);

  Client& client_;
  SessionOptions options_;
  std::uint32_t retries_ = 0;
};

/// Process-wide client over one Cluster. Thread-safe; hand each thread its
/// own Session.
class Client {
 public:
  explicit Client(Cluster& cluster, SessionOptions defaults = {})
      : cluster_(cluster), defaults_(defaults) {}

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] Session session() { return Session(*this, defaults_); }
  [[nodiscard]] Session session(SessionOptions options) {
    return Session(*this, options);
  }

  [[nodiscard]] Cluster& cluster() noexcept { return cluster_; }

 private:
  friend class Session;

  Cluster& cluster_;
  SessionOptions defaults_;
  /// Round-robin cursor shared by every session of this client, so
  /// concurrent sessions spread over sites instead of marching in step.
  std::atomic<std::uint64_t> round_robin_{0};
};

}  // namespace dtx::client
