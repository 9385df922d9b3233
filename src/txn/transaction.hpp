// Coordinator-side transaction record and the client-facing result type.
//
// Transaction ids encode the begin instant: id = (begin_micros << 10) | site.
// Begin instants are taken from a monotonic clock shared by the in-process
// cluster, so the paper's victim rule — "the most recent transaction
// involved in the circle is rolled back" — reduces to picking the maximum
// id on the cycle (wfg::WaitForGraph::newest_on_cycle).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lock/lock_table.hpp"
#include "net/message.hpp"
#include "txn/abort_reason.hpp"
#include "txn/operation.hpp"
#include "util/sync.hpp"

namespace dtx::txn {

using lock::TxnId;
using net::SiteId;

/// Builds a transaction id from a begin timestamp and the coordinator site.
TxnId make_txn_id(std::uint64_t begin_micros, SiteId site) noexcept;
SiteId txn_coordinator(TxnId id) noexcept;
std::uint64_t txn_begin_micros(TxnId id) noexcept;

/// Paper §2.2: "one can always say that a transaction either commits,
/// aborts or fails", plus the transient active / wait states.
enum class TxnState : std::uint8_t {
  kActive,
  kWaiting,     ///< blocked on a lock conflict
  kCommitted,
  kAborted,     ///< rolled back (deadlock victim or unprocessable)
  kFailed,      ///< abort could not be completed at some site
};

const char* txn_state_name(TxnState state) noexcept;

/// What the client receives when the transaction terminates.
struct TxnResult {
  TxnId id = 0;
  TxnState state = TxnState::kAborted;
  /// Per-operation query rows (empty vectors for updates).
  std::vector<std::vector<std::string>> rows;
  /// Client-observed response time.
  double response_ms = 0.0;
  /// True when the transaction was the victim of deadlock resolution.
  bool deadlock_victim = false;
  /// How many times an operation entered wait mode before acquiring locks.
  std::uint32_t wait_episodes = 0;
  /// Why the transaction did not commit (kNone when committed). Clients
  /// branch on this code; `detail` is the human-readable context only.
  AbortReason reason = AbortReason::kNone;
  /// Failure detail for aborted / failed transactions (diagnostics only —
  /// never string-match this; use `reason`).
  std::string detail;
};

/// Coordinator-side record. Owned by the coordinator site; the embedded
/// latch hands the result back to the waiting client thread.
class Transaction {
 public:
  Transaction(TxnId id, std::vector<Operation> ops)
      : id_(id), ops_(std::move(ops)), states_(ops_.size()) {}

  [[nodiscard]] TxnId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<Operation>& ops() const noexcept {
    return ops_;
  }
  [[nodiscard]] std::size_t op_count() const noexcept { return ops_.size(); }

  [[nodiscard]] OperationState& state_of(std::size_t index) {
    return states_.at(index);
  }

  /// True when no operation is an update — eligible for the MVCC
  /// snapshot-read path (the engine-side mirror of the client's
  /// PreparedTxn::read_only()).
  [[nodiscard]] bool read_only() const noexcept {
    for (const Operation& op : ops_) {
      if (op.is_update()) return false;
    }
    return true;
  }

  /// Index of the first non-executed operation, or op_count() when done
  /// (the paper's transaction.next_operation()).
  [[nodiscard]] std::size_t next_operation() const;

  [[nodiscard]] TxnState state() const noexcept { return state_; }
  void set_state(TxnState state) noexcept { state_ = state; }

  /// Sites that executed at least one operation (commit/abort fan-out,
  /// Alg. 5/6 l. 2: transaction.get_sites()).
  [[nodiscard]] const std::set<SiteId>& sites() const noexcept {
    return sites_;
  }
  void add_sites(const std::vector<SiteId>& sites) {
    sites_.insert(sites.begin(), sites.end());
  }

  void note_wait_episode() noexcept { ++wait_episodes_; }
  [[nodiscard]] std::uint32_t wait_episodes() const noexcept {
    return wait_episodes_;
  }

  void mark_deadlock_victim() noexcept { deadlock_victim_ = true; }
  [[nodiscard]] bool deadlock_victim() const noexcept {
    return deadlock_victim_;
  }

  /// Catalog epoch the coordinator routed this transaction under. Stamped
  /// once at claim time; the coordinator re-validates it before commit and
  /// the catalog drain waits for older-epoch transactions to terminate.
  void set_catalog_epoch(std::uint64_t epoch) noexcept {
    catalog_epoch_ = epoch;
  }
  [[nodiscard]] std::uint64_t catalog_epoch() const noexcept {
    return catalog_epoch_;
  }

  /// Records why the transaction is being aborted; the first recorded
  /// reason wins (the root cause, not a cascading cleanup failure). Like
  /// the other scheduler-side fields, only the claiming coordinator worker
  /// touches this.
  void set_abort_reason(AbortReason reason) noexcept {
    if (abort_reason_ == AbortReason::kNone) abort_reason_ = reason;
  }
  [[nodiscard]] AbortReason abort_reason() const noexcept {
    return abort_reason_;
  }

  // --- completion latch ------------------------------------------------------
  /// Publishes the final result and wakes the client. The result is stored
  /// once, as an immutable shared object: every reader below shares it, so
  /// its rows are never copied on the way out.
  void complete(TxnResult result);
  /// Registers a hook fired once, with the final result, when the
  /// transaction terminates — the push-style counterpart of await() (the
  /// remote-client path: the dispatcher turns the result into a
  /// ClientReply without parking a thread). Fires immediately when the
  /// transaction already completed. At most one hook; it runs on the
  /// completing thread, outside the latch, so it may call back into the
  /// engine but must not block.
  void set_on_complete(std::function<void(const TxnResult&)> hook);
  /// Blocks the client until the transaction terminates; returns a copy of
  /// the result.
  TxnResult await();
  /// Bounded wait: the published result, or nullptr when `timeout`
  /// elapses first (the transaction keeps running; call again or abandon
  /// the handle). Every call after completion returns the same object.
  /// Prefer this over await() in anything user-facing.
  std::shared_ptr<const TxnResult> await_for(
      std::chrono::microseconds timeout);
  [[nodiscard]] bool completed() const;

 private:
  TxnId id_;
  std::vector<Operation> ops_;
  std::vector<OperationState> states_;
  TxnState state_ = TxnState::kActive;
  std::set<SiteId> sites_;
  std::uint32_t wait_episodes_ = 0;
  bool deadlock_victim_ = false;
  std::uint64_t catalog_epoch_ = 0;
  AbortReason abort_reason_ = AbortReason::kNone;

  mutable sync::Mutex latch_mutex_{sync::LockRank::kTxnLatch};
  sync::CondVar latch_cv_;
  // Null until complete() sets it, once; immutable afterwards, so readers
  // share it without the latch once they hold the pointer.
  std::shared_ptr<const TxnResult> result_ DTX_GUARDED_BY(latch_mutex_);
  std::function<void(const TxnResult&)> on_complete_
      DTX_GUARDED_BY(latch_mutex_);
};

}  // namespace dtx::txn
