#include "dtx/lock_manager.hpp"

#include <cassert>

#include "util/log.hpp"

namespace dtx::core {

using lock::TxnId;
using util::Code;
using util::Status;

LockManager::LockManager(lock::ProtocolKind protocol, DataManager& data,
                         std::size_t lock_shards)
    : protocol_(lock::make_protocol(protocol)),
      data_(data),
      table_(lock_shards) {}

OpOutcome LockManager::process_operation(TxnId txn, std::uint32_t op_index,
                                         const query::Plan& plan,
                                         SiteId waiter_coordinator,
                                         bool want_rows) {
  OpOutcome outcome;

  // A fresh attempt supersedes any recorded wait state of this transaction.
  {
    sync::MutexLock wfg_lock(wfg_mutex_);
    graph_.clear_waiter(txn);
    unsubscribe_waiter_locked(txn);
  }

  // Queries latch the data shared (parallel reads); updates exclusive —
  // the latch spans lock-set computation AND execution so the tree the
  // protocol walked is the tree the operation runs on.
  const sync::ConditionalLatch latch(
      data_latch_, plan.is_update() ? sync::ConditionalLatch::Mode::kExclusive
                                    : sync::ConditionalLatch::Mode::kShared);

  auto context = data_.context_of(plan.doc());
  if (!context) {
    outcome.kind = OpOutcome::Kind::kFailed;
    outcome.error = context.status().to_string();
    return outcome;
  }

  // Compute the lock set under the protocol's rules. The plan's pre-match
  // hook spares insert lock-sets the per-execution fragment parse.
  auto requests =
      plan.is_update()
          ? protocol_->locks_for_update(plan.update(), context.value(),
                                        plan.prematch())
          : protocol_->locks_for_query(plan.query(), context.value());
  if (!requests) {
    outcome.kind = OpOutcome::Kind::kFailed;
    outcome.error = requests.status().to_string();
    return outcome;
  }

  // Acquire all-or-nothing (Alg. 3 l. 4). The table synchronizes itself.
  OpRecord record;
  record.doc = plan.doc();
  lock::AcquireOutcome acquired =
      table_.try_acquire_all(txn, requests.value(), &record.journal);
  if (!acquired.granted) {
    // Alg. 3 l. 8-13: record the wait-for edges; deadlock check; undo.
    conflicts_.fetch_add(1, std::memory_order_relaxed);
    sync::MutexLock wfg_lock(wfg_mutex_);
    graph_.add_edges(txn, acquired.conflicts);
    if (graph_.has_cycle()) {
      // Granting would deadlock locally; the operation reports it and the
      // scheduler aborts the transaction (Alg. 1 l. 19-20).
      local_deadlocks_.fetch_add(1, std::memory_order_relaxed);
      graph_.clear_waiter(txn);
      outcome.kind = OpOutcome::Kind::kDeadlock;
      outcome.blockers = std::move(acquired.conflicts);
      return outcome;
    }
    for (TxnId blocker : acquired.conflicts) {
      wake_subscriptions_.emplace(blocker,
                                  WakeNotice{txn, waiter_coordinator});
    }
    outcome.kind = OpOutcome::Kind::kConflict;
    outcome.blockers = std::move(acquired.conflicts);
    return outcome;
  }

  // Locks held: execute (Alg. 3 l. 6).
  if (plan.is_update()) {
    record.undo_token = data_.undo_checkpoint(txn, plan.doc());
    auto applied = data_.run_update(txn, plan);
    if (!applied) {
      // Structural failure: release this operation's locks and report.
      table_.rollback(txn, record.journal);
      outcome.kind = OpOutcome::Kind::kFailed;
      outcome.error = applied.status().to_string();
      return outcome;
    }
    record.did_update = true;
  } else if (want_rows) {
    auto rows = data_.run_query(plan);
    if (!rows) {
      table_.rollback(txn, record.journal);
      outcome.kind = OpOutcome::Kind::kFailed;
      outcome.error = rows.status().to_string();
      return outcome;
    }
    outcome.rows = std::move(rows).value();
  }
  {
    sync::MutexLock records_lock(records_mutex_);
    op_records_[{txn, op_index}] = std::move(record);
  }
  operations_executed_.fetch_add(1, std::memory_order_relaxed);
  outcome.kind = OpOutcome::Kind::kExecuted;
  return outcome;
}

void LockManager::undo_from(TxnId txn, std::uint32_t first_op) {
  std::vector<OpRecord> undone;
  {
    sync::MutexLock records_lock(records_mutex_);
    const auto begin = op_records_.lower_bound({txn, first_op});
    auto end = begin;
    for (; end != op_records_.end() && end->first.first == txn; ++end) {
      undone.push_back(std::move(end->second));
    }
    op_records_.erase(begin, end);
  }
  // Newest first: each undo token rewinds its document's undo log to
  // before that operation, so later operations must already be gone.
  for (auto it = undone.rbegin(); it != undone.rend(); ++it) {
    if (it->did_update) {
      sync::ExclusiveLock write_latch(data_latch_);
      data_.undo_to(txn, it->doc, it->undo_token);
    }
    table_.rollback(txn, it->journal);
  }
}

Status LockManager::commit(TxnId txn, std::vector<WakeNotice>& wakes) {
  std::vector<std::string> checkpoints;
  {
    sync::ExclusiveLock write_latch(data_latch_);
    Status status = data_.persist(txn, &checkpoints);
    if (!status) return status;
  }
  if (!checkpoints.empty()) {
    // Compaction runs under the *shared* latch: updates are excluded (the
    // committed tree is stable while it serializes) but same-site readers
    // proceed — the commit hot path itself stays O(delta).
    sync::SharedLock read_latch(data_latch_);
    data_.run_checkpoints(checkpoints);
  }
  table_.release_all(txn);
  drop_op_records(txn);
  sync::MutexLock wfg_lock(wfg_mutex_);
  graph_.remove_txn(txn);
  unsubscribe_waiter_locked(txn);
  collect_wakes_locked(txn, wakes);
  return Status::ok();
}

void LockManager::abort(TxnId txn, std::vector<WakeNotice>& wakes) {
  std::vector<std::string> checkpoints;
  {
    sync::ExclusiveLock write_latch(data_latch_);
    data_.undo_all(txn, &checkpoints);
  }
  if (!checkpoints.empty()) {
    // This rollback may have been the last live writer blocking a
    // deferred compaction.
    sync::SharedLock read_latch(data_latch_);
    data_.run_checkpoints(checkpoints);
  }
  table_.release_all(txn);
  drop_op_records(txn);
  sync::MutexLock wfg_lock(wfg_mutex_);
  graph_.remove_txn(txn);
  unsubscribe_waiter_locked(txn);
  collect_wakes_locked(txn, wakes);
}

void LockManager::clear_waiter(TxnId txn) {
  sync::MutexLock wfg_lock(wfg_mutex_);
  graph_.clear_waiter(txn);
  unsubscribe_waiter_locked(txn);
}

std::vector<wfg::Edge> LockManager::wfg_edges() {
  sync::MutexLock wfg_lock(wfg_mutex_);
  return graph_.edges();
}

LockManagerStats LockManager::stats() {
  LockManagerStats out;
  out.operations_executed =
      operations_executed_.load(std::memory_order_relaxed);
  out.conflicts = conflicts_.load(std::memory_order_relaxed);
  out.local_deadlocks = local_deadlocks_.load(std::memory_order_relaxed);
  out.lock_acquisitions = table_.acquisition_count();
  return out;
}

std::size_t LockManager::lock_entries() { return table_.entry_count(); }

std::size_t LockManager::undo_log_count() {
  sync::SharedLock latch(data_latch_);
  return data_.undo_log_count();
}

void LockManager::drop_op_records(TxnId txn) {
  sync::MutexLock records_lock(records_mutex_);
  // Keyed (txn, op_index): the transaction's records are one contiguous
  // range — O(log + own ops), not a scan of every live record.
  const auto begin = op_records_.lower_bound({txn, 0});
  auto end = begin;
  while (end != op_records_.end() && end->first.first == txn) ++end;
  op_records_.erase(begin, end);
}

void LockManager::collect_wakes_locked(TxnId released,
                                       std::vector<WakeNotice>& wakes) {
  const auto [begin, end] = wake_subscriptions_.equal_range(released);
  for (auto it = begin; it != end; ++it) wakes.push_back(it->second);
  wake_subscriptions_.erase(begin, end);
}

void LockManager::unsubscribe_waiter_locked(TxnId waiter) {
  for (auto it = wake_subscriptions_.begin();
       it != wake_subscriptions_.end();) {
    if (it->second.waiter == waiter) {
      it = wake_subscriptions_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dtx::core
