// The site LockManager (paper §2.1): owns the lock table, the data /
// DataGuide representation and the lock-granting rules, and implements
// Algorithm 3 (process_operation): compute the protocol's lock set, acquire
// all-or-nothing, execute on success; on conflict record the wait-for edges
// and undo any partial effects.
//
// It additionally keeps:
//  * per-(transaction, operation) acquisition journals + undo checkpoints so
//    the operations from one that failed to lock at another site on can be
//    undone here alone (Alg. 1 l. 16);
//  * wake subscriptions: who must be notified when a blocking transaction
//    releases its locks (paper §2.2: waiting transactions "start executing
//    again" when the holder commits).
//
// Synchronization (multi-worker engine): the historical single monitor is
// gone. The lock table synchronizes itself (sharded — see
// lock/lock_table.hpp); this class adds three narrower locks:
//  * data_latch_   — reader/writer latch over the DataManager. Queries hold
//                    it shared across {lock-set computation + execution}, so
//                    compatible reads of the same site run in parallel;
//                    updates, undo, commit-persist (an O(delta) redo-log
//                    append) and abort hold it exclusive (the XML trees and
//                    DataGuides are not thread-safe under mutation).
//                    Checkpoint compaction — the only whole-document
//                    serialization left — runs under the *shared* latch
//                    (updates excluded, readers not), ordered internally by
//                    the DataManager's checkpoint mutex.
//  * wfg_mutex_    — wait-for graph + wake subscriptions.
//  * records_mutex_ — per-operation acquisition journals / undo tokens.
// Lock order when nested: data_latch_ -> (table shards) -> wfg_mutex_ /
// records_mutex_; the two leaf mutexes are never held together. The order
// is enforced by the lock-rank lattice in util/sync.hpp (ranks 50, 80, 90,
// 100).
//
// One semantic relaxation vs. the monitor: a release may interleave between
// a waiter's conflict detection and its wake subscription, losing that wake.
// The scheduler's retry backstop (SiteOptions::retry_interval) bounds the
// resulting stall; correctness is unaffected.
//
// MVCC bypass: read-only transactions never reach this class at all. The
// coordinator routes them to the snapshot path (dtx/snapshot_store.hpp),
// which serves immutable versioned trees published at commit — no lock-set
// computation, no table entries, no wait-for edges, so a read-only
// transaction can neither block an update nor appear in a deadlock cycle.
// Everything below concerns update transactions (and read-only ones only
// when SiteOptions::snapshot_reads is off).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dtx/data_manager.hpp"
#include "lock/lock_table.hpp"
#include "lock/protocol.hpp"
#include "query/plan.hpp"
#include "txn/operation.hpp"
#include "txn/transaction.hpp"
#include "util/sync.hpp"
#include "wfg/wait_for_graph.hpp"

namespace dtx::core {

using net::SiteId;

/// Outcome of Alg. 3 for one operation at one site.
struct OpOutcome {
  enum class Kind {
    kExecuted,  ///< locks granted, operation applied
    kConflict,  ///< blocked; wait-for edges recorded (transaction waits)
    kDeadlock,  ///< granting would close a local wait-for cycle
    kFailed,    ///< structural error (bad op, missing doc, apply failure)
  };
  Kind kind = Kind::kFailed;
  std::vector<std::string> rows;     ///< query results when executed
  std::vector<lock::TxnId> blockers; ///< conflicting transactions
  std::string error;                 ///< failure detail
};

/// Notification to send after a release: wake `waiter` at its coordinator.
struct WakeNotice {
  lock::TxnId waiter = 0;
  SiteId coordinator = 0;
};

struct LockManagerStats {
  std::uint64_t operations_executed = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t local_deadlocks = 0;
  std::uint64_t lock_acquisitions = 0;  // mirrors LockTable counter
};

class LockManager {
 public:
  /// `lock_shards` sizes the sharded lock table (1 = historical behavior).
  LockManager(lock::ProtocolKind protocol, DataManager& data,
              std::size_t lock_shards = 1);

  /// Algorithm 3, driven by a compiled plan (the caller resolves the
  /// operation through the site PlanCache, so retries and wait-mode
  /// re-executions never re-parse). `waiter_coordinator` is the coordinator
  /// site of the transaction (wake messages go there on conflict). A query
  /// takes its locks either way but is evaluated only when `want_rows` is
  /// set (this site is its rows source, CatalogEpoch::rows_source);
  /// otherwise it executes with no rows.
  /// Thread-safe; any number of scheduler workers may call it concurrently.
  OpOutcome process_operation(lock::TxnId txn, std::uint32_t op_index,
                              const query::Plan& plan,
                              SiteId waiter_coordinator,
                              bool want_rows = true);

  /// Undoes the effects of every operation of `txn` from `first_op` on that
  /// executed here, newest first, and releases the locks they acquired
  /// (Alg. 1 l. 16). Earlier operations keep their effects and locks.
  void undo_from(lock::TxnId txn, std::uint32_t first_op);

  /// Commit at this site: persist, drop undo logs, release locks, clear
  /// wait-for state (Alg. 5 l. 10-11). Returns who to wake.
  util::Status commit(lock::TxnId txn, std::vector<WakeNotice>& wakes);

  /// Abort at this site: undo everything, release locks, clear wait-for
  /// state (Alg. 6 l. 13-14). Returns who to wake.
  void abort(lock::TxnId txn, std::vector<WakeNotice>& wakes);

  /// Drops the transaction's wait-for edges and wake subscriptions (called
  /// when it retries or terminates elsewhere).
  void clear_waiter(lock::TxnId txn);

  /// Snapshot of the local wait-for graph (Alg. 4 l. 4).
  [[nodiscard]] std::vector<wfg::Edge> wfg_edges();

  [[nodiscard]] LockManagerStats stats();

  /// Current lock-table entry count (diagnostics).
  [[nodiscard]] std::size_t lock_entries();

  /// Live undo logs in the DataManager, read under the data latch — safe
  /// at any time (the chaos invariant "undo logs drained": both this and
  /// lock_entries() must be 0 on a quiescent site).
  [[nodiscard]] std::size_t undo_log_count();

  /// The sharded lock table (internally synchronized; benches read its
  /// per-shard stats).
  [[nodiscard]] const lock::LockTable& table() const noexcept {
    return table_;
  }

  /// Exclusive hold on the data latch, for replica migration: adopting or
  /// dropping a document mutates the DataManager's document map, which no
  /// query or update may observe mid-change. The document itself is fenced
  /// (SiteContext::importing_docs) so no transaction state exists on it;
  /// the latch only excludes concurrent access to the shared containers.
  [[nodiscard]] sync::MovableExclusiveLock exclusive_data_latch() {
    return sync::MovableExclusiveLock(data_latch_);
  }

  [[nodiscard]] const char* protocol_name() const noexcept {
    return protocol_->name();
  }

 private:
  struct OpRecord {
    lock::AcquisitionJournal journal;
    std::string doc;
    std::size_t undo_token = 0;
    bool did_update = false;
  };

  std::unique_ptr<lock::LockProtocol> protocol_;
  DataManager& data_;
  lock::LockTable table_;

  /// Reader/writer latch over data_ (see file comment). The DataManager
  /// is guarded by convention, not GUARDED_BY: it is a separate class that
  /// cannot name this latch. The rank checker still orders it.
  sync::SharedMutex data_latch_{sync::LockRank::kDataLatch};

  sync::Mutex wfg_mutex_{sync::LockRank::kWaitForGraph};
  wfg::WaitForGraph graph_ DTX_GUARDED_BY(wfg_mutex_);
  // blocker -> subscribers waiting for its release.
  std::multimap<lock::TxnId, WakeNotice> wake_subscriptions_
      DTX_GUARDED_BY(wfg_mutex_);

  sync::Mutex records_mutex_{sync::LockRank::kLockRecords};
  std::map<std::pair<lock::TxnId, std::uint32_t>, OpRecord> op_records_
      DTX_GUARDED_BY(records_mutex_);

  std::atomic<std::uint64_t> operations_executed_{0};
  std::atomic<std::uint64_t> conflicts_{0};
  std::atomic<std::uint64_t> local_deadlocks_{0};

  void drop_op_records(lock::TxnId txn);
  void collect_wakes_locked(lock::TxnId released,
                            std::vector<WakeNotice>& wakes)
      DTX_REQUIRES(wfg_mutex_);
  void unsubscribe_waiter_locked(lock::TxnId waiter)
      DTX_REQUIRES(wfg_mutex_);
};

}  // namespace dtx::core
