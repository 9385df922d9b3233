// Coordinator (paper Alg. 1): the scheduler of locally-submitted
// transactions. A transaction arrives whole, so it executes one-shot: each
// round sends every hosting site its ordered slice of the remaining
// operations in one ExecuteOperation and waits once for every reply
// (H-Store / Calvin style). A lock conflict parks the transaction and the
// next round resends from the conflicting operation. The Site runs
// `SiteOptions::coordinator_workers` threads over one shared Coordinator, so
// several local transactions progress concurrently while each transaction
// is driven by exactly one worker at a time (the `executing` claim in
// SiteContext).
#pragma once

#include <map>
#include <memory>
#include <set>

#include "dtx/site_context.hpp"

namespace dtx::core {

class Coordinator {
 public:
  explicit Coordinator(SiteContext& ctx) : ctx_(ctx) {}

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Worker body. Any number of threads may run it concurrently; every
  /// shared-state transition goes through ctx_.coord_mutex.
  void run();

 private:
  using Clock = SiteContext::Clock;
  using TransactionPtr = std::shared_ptr<txn::Transaction>;

  /// Drains victim aborts (Alg. 4 hands them to the scheduler). Victims
  /// claimed by another worker are parked in deferred_victims. Unlocks /
  /// relocks `lock` around each abort (coord_mutex is held again on
  /// return, which is all the REQUIRES clause promises).
  void process_victims(sync::UniqueLock& lock)
      DTX_REQUIRES(ctx_.coord_mutex);

  /// Lost-wakeup backstop: re-readies waiting transactions whose retry
  /// interval elapsed.
  void retry_overdue_waiters() DTX_REQUIRES(ctx_.coord_mutex);

  /// One execution round (Alg. 1 l. 12-22, one-shot): sends every hosting
  /// site its ordered slice of the remaining operations in one
  /// ExecuteOperation, waits once for all replies, adopts the prefix that
  /// executed at every replica and lets the first operation that did not
  /// decide — abort (failed / deadlock) or undo and wait (conflict). With
  /// nothing left to execute it commits.
  void execute_slices(const TransactionPtr& txn);

  /// MVCC fast path for read-only transactions: every operation is a
  /// query, so the whole transaction executes in one round against
  /// versioned snapshots — zero locks, zero wait-for entries, no 2PC
  /// (nothing was written anywhere, so commit is trivial and abort
  /// requires no remote cleanup). See dtx/snapshot_store.hpp.
  void execute_snapshot(const TransactionPtr& txn);

  void commit_transaction(const TransactionPtr& txn);
  void abort_transaction(const TransactionPtr& txn, bool deadlock_victim);
  /// Retryable abort because the catalog moved under the transaction (or a
  /// replica it needs is still importing); counts stale_catalog_aborts.
  void abort_stale_catalog(const TransactionPtr& txn);
  void fail_transaction(const TransactionPtr& txn);
  void finish_transaction(const TransactionPtr& txn, txn::TxnState state);

  /// Hands the worker's claim back, parking the transaction as waiting. A
  /// pending wake re-readies it instead; a deferred victim abort runs now.
  void enter_wait(const TransactionPtr& txn);

  /// Hands the worker's claim back, re-queueing the transaction. A deferred
  /// victim abort runs now instead.
  void requeue(const TransactionPtr& txn);

  /// The one claim-handback sequence both of the above go through: consume
  /// a parked victim abort (claim retained, abort runs), else release the
  /// claim and park (`park`, unless a wake overtook us) or re-queue.
  void hand_back_claim(const TransactionPtr& txn, bool park);

  /// Blocks until `expected` sites answered round `attempt` of `txn` or
  /// the response timeout elapsed, then drops the transaction's response
  /// slot and moves out the replies it collected.
  std::map<SiteId, net::OperationResult> take_responses(
      lock::TxnId txn, std::uint32_t attempt, std::size_t expected);

  /// Blocks for commit/abort acks from `expected`. Returns site -> ok.
  std::map<SiteId, bool> await_acks(lock::TxnId txn,
                                    const std::set<SiteId>& expected,
                                    bool commit);

  /// Blocks until `expected` serving sites answered the snapshot read of
  /// `txn` or the response timeout elapsed, then drops the transaction's
  /// reply slot and moves out the replies it collected.
  std::map<SiteId, net::SnapshotReadReply> await_snapshot_replies(
      lock::TxnId txn, std::size_t expected);

  SiteContext& ctx_;
};

}  // namespace dtx::core
