#include "dtx/coordinator.hpp"

#include <algorithm>
#include <chrono>

#include "dtx/snapshot_read.hpp"
#include "util/log.hpp"

namespace dtx::core {

using lock::TxnId;
using txn::Transaction;
using txn::TxnState;

namespace {

void drop_from_ready(std::deque<std::shared_ptr<Transaction>>& ready,
                     const std::shared_ptr<Transaction>& txn) {
  ready.erase(std::remove(ready.begin(), ready.end(), txn), ready.end());
}

}  // namespace

void Coordinator::run() {
  while (ctx_.running.load()) {
    TransactionPtr next;
    {
      sync::UniqueLock lock(ctx_.coord_mutex);
      ctx_.coord_cv.wait_for(ctx_.coord_mutex, ctx_.options.poll_interval, [&] {
        return !ctx_.running.load() || !ctx_.ready.empty() ||
               !ctx_.victim_aborts.empty();
      });
      if (!ctx_.running.load()) return;

      // Victim aborts first (Alg. 4 hands them to the scheduler).
      process_victims(lock);
      retry_overdue_waiters();

      if (ctx_.ready.empty()) continue;
      next = ctx_.ready.front();
      ctx_.ready.pop_front();
      if (next->completed() || next->state() != TxnState::kActive) continue;
      ctx_.executing.insert(next->id());
    }
    if (ctx_.options.snapshot_reads && next->read_only()) {
      execute_snapshot(next);
    } else {
      execute_slices(next);
    }
  }
}

void Coordinator::process_victims(sync::UniqueLock& lock) {
  while (!ctx_.victim_aborts.empty()) {
    const TxnId victim = ctx_.victim_aborts.front();
    ctx_.victim_aborts.pop_front();
    const auto it = ctx_.transactions.find(victim);
    if (it == ctx_.transactions.end() || it->second->completed()) continue;
    if (ctx_.executing.count(victim) != 0) {
      // Another worker is mid-operation on the victim: park the abort; that
      // worker applies it the moment it hands its claim back.
      ctx_.deferred_victims.insert(victim);
      continue;
    }
    TransactionPtr txn = it->second;
    ctx_.waiting.erase(victim);
    drop_from_ready(ctx_.ready, txn);
    ctx_.executing.insert(victim);  // claim for the duration of the abort
    lock.unlock();
    abort_transaction(txn, /*deadlock_victim=*/true);
    lock.lock();
  }
}

void Coordinator::retry_overdue_waiters() {
  const auto now = Clock::now();
  for (auto it = ctx_.waiting.begin(); it != ctx_.waiting.end();) {
    const auto txn_it = ctx_.transactions.find(it->first);
    if (txn_it == ctx_.transactions.end()) {
      it = ctx_.waiting.erase(it);
      continue;
    }
    if (now - it->second >= ctx_.options.retry_interval) {
      txn_it->second->set_state(TxnState::kActive);
      ctx_.ready.push_back(txn_it->second);
      it = ctx_.waiting.erase(it);
    } else {
      ++it;
    }
  }
}

void Coordinator::execute_slices(const TransactionPtr& txn) {
  const std::size_t first = txn->next_operation();
  if (first == txn->op_count()) {
    // Alg. 1 l. 24-26: no operation left -> commit.
    commit_transaction(txn);
    return;
  }
  // Pin the catalog for this routing decision. The transaction was stamped
  // with the epoch current at submit; if the catalog moved since, its
  // earlier operations executed at old-epoch replicas — abort retryably
  // (kStaleCatalog) so the client resubmits routed under the new epoch.
  // This is also what makes the membership drain fast: no old-epoch
  // transaction starts new work after the flip.
  const Catalog::View view = ctx_.catalog.view();
  if (view->epoch != txn->catalog_epoch()) {
    abort_stale_catalog(txn);
    return;
  }

  // Alg. 1 l. 12-13, one-shot: every remaining operation leaves now, as one
  // ordered slice per hosting site — this site's own slice included, served
  // by its participant workers through the network's local delivery.
  std::map<SiteId, net::ExecuteOperation> slices;
  for (std::size_t i = first; i < txn->op_count(); ++i) {
    const txn::Operation& op = txn->ops()[i];
    txn::OperationState& state = txn->state_of(i);
    const std::vector<SiteId>& sites = view->sites_of(op.doc);
    if (sites.empty()) {
      state.failed = true;
      state.reason = txn::AbortReason::kParseError;
      state.error = "document '" + op.doc + "' is not in the catalog";
      txn->set_abort_reason(txn::AbortReason::kParseError);
      abort_transaction(txn, false);
      return;
    }
    ++state.attempts;
    state.reset_attempt();
    for (SiteId site : sites) {
      net::ExecuteOperation& slice = slices[site];
      slice.op_indices.push_back(static_cast<std::uint32_t>(i));
      slice.ops.push_back(op);
    }
  }
  // Every round covers the operations from `first` to the end, so the
  // attempt count of `first` numbers the round — the same at every site.
  const std::uint32_t attempt = txn->state_of(first).attempts;

  {
    sync::MutexLock lock(ctx_.resp_mutex);
    SiteContext::ResponseSlot& slot = ctx_.responses[txn->id()];
    slot.attempt = attempt;
    slot.replies.clear();
  }
  std::vector<SiteId> targets;
  for (auto& [site, slice] : slices) {
    targets.push_back(site);
    slice.txn = txn->id();
    slice.attempt = attempt;
    slice.coordinator = ctx_.options.id;
    slice.epoch = txn->catalog_epoch();
    ctx_.send(site, std::move(slice));
  }

  std::map<SiteId, net::OperationResult> replies =
      take_responses(txn->id(), attempt, targets.size());
  if (!ctx_.running.load()) return;
  // Every site that answered joins the transaction before anything else
  // happens, whatever it answered: what it executed is then consolidated by
  // the commit or rolled back by the abort fan-out, even after a later
  // round undid and re-parked the transaction. A site that never answered
  // is left to its presumed-abort orphan sweep, as a crashed site must be.
  for (const auto& [site, reply] : replies) txn->add_sites({site});

  const auto executed_at = [&](SiteId site, std::size_t op_index) {
    const auto it = replies.find(site);
    if (it == replies.end()) return false;
    const std::vector<std::uint32_t>& done = it->second.op_indices;
    return std::binary_search(done.begin(), done.end(), op_index);
  };
  // Adopt the prefix of operations that executed at every replica, with
  // the rows of each operation's rows source (every other replica of a
  // query answered it with no rows).
  std::size_t stop = first;
  for (; stop < txn->op_count(); ++stop) {
    const std::string& doc = txn->ops()[stop].doc;
    const std::vector<SiteId>& sites = view->sites_of(doc);
    if (!std::all_of(sites.begin(), sites.end(),
                     [&](SiteId site) { return executed_at(site, stop); })) {
      break;
    }
    txn::OperationState& state = txn->state_of(stop);
    state.executed = true;
    net::OperationResult& reply =
        replies.at(view->rows_source(doc, ctx_.options.id));
    const auto pos = std::lower_bound(reply.op_indices.begin(),
                                      reply.op_indices.end(), stop);
    state.rows = std::move(reply.rows[static_cast<std::size_t>(
        pos - reply.op_indices.begin())]);
  }
  if (stop == txn->op_count()) {
    requeue(txn);  // the next claim commits
    return;
  }

  // The first operation that did not execute everywhere decides the round,
  // as if it had been sent alone. Each of its replicas either executed it
  // or stopped its slice at it (everything before it executed everywhere).
  // A target that never answered aborts the round whatever that operation
  // is: what the silent site ran is unknown, and it is not one of the
  // transaction's sites, so neither an undo nor a later abort fan-out is
  // sure to reach it — its orphan sweep rolls it back, as for a lost reply
  // to a single operation.
  txn::OperationState& state = txn->state_of(stop);
  const std::vector<SiteId>& stop_sites =
      view->sites_of(txn->ops()[stop].doc);
  const auto silent =
      std::find_if(targets.begin(), targets.end(),
                   [&](SiteId site) { return replies.count(site) == 0; });
  const bool timed_out = silent != targets.end();
  bool any_failed = false;
  bool any_deadlock = false;
  txn::AbortReason participant_reason = txn::AbortReason::kNone;
  std::string participant_error;
  for (SiteId site : stop_sites) {
    const auto it = replies.find(site);
    if (it == replies.end()) continue;
    if (executed_at(site, stop)) continue;
    const net::OperationResult& reply = it->second;
    any_failed |= reply.failed;
    any_deadlock |= reply.deadlock;
    if (reply.failed && participant_reason == txn::AbortReason::kNone) {
      participant_reason = reply.reason;
      participant_error =
          reply.error + " (site " + std::to_string(site) + ")";
    }
  }
  any_failed |= timed_out;

  if (any_failed || any_deadlock) {
    // Alg. 1 l. 19-21. The abort broadcast reaches every site that
    // answered, so it cleans up wherever anything executed.
    state.failed = any_failed;
    state.deadlock = any_deadlock;
    if (participant_reason != txn::AbortReason::kNone) {
      state.reason = participant_reason;
      state.error = std::move(participant_error);
    } else if (timed_out) {
      state.reason = txn::AbortReason::kSiteFailure;
      state.error =
          "participant response timeout (site " + std::to_string(*silent) + ")";
    } else if (any_failed) {
      state.reason = txn::AbortReason::kSiteFailure;
      state.error = "operation failed at a participant site";
    }
    if (any_failed) txn->set_abort_reason(state.reason);
    abort_transaction(txn, any_deadlock);
    return;
  }
  // Otherwise a lock conflict, and every target answered. Alg. 1 l. 15-17:
  // undo the operation and everything after it wherever it ran; wait. A
  // site that stopped exactly at it keeps its wait-for edges (the
  // transaction is blocked there); every other site whose slice reached
  // past it undoes and drops its edges, which describe waits the
  // transaction is not blocked on.
  for (const auto& [site, reply] : replies) {
    const bool ran_past =
        !reply.op_indices.empty() && reply.op_indices.back() >= stop;
    const bool stopped_later =
        (reply.lock_conflict || reply.failed || reply.deadlock) &&
        std::find(stop_sites.begin(), stop_sites.end(), site) ==
            stop_sites.end();
    if (!ran_past && !stopped_later) continue;
    ctx_.send(site, net::UndoOperation{
                        txn->id(), static_cast<std::uint32_t>(stop), attempt});
  }
  enter_wait(txn);
}

void Coordinator::abort_stale_catalog(const TransactionPtr& txn) {
  txn->set_abort_reason(txn::AbortReason::kStaleCatalog);
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.stale_catalog_aborts;
  }
  abort_transaction(txn, false);
}

void Coordinator::execute_snapshot(const TransactionPtr& txn) {
  // The snapshot path never touches the LockManager and never populates
  // txn->sites(), so every exit is a bare finish_transaction: there are no
  // locks to release, no undo logs, no abort fan-out, no durable outcome
  // record needed (nothing a crash could leave half-applied).
  //
  // Operations are grouped per serving site — each one's rows source
  // (CatalogEpoch::rows_source), as on the locked path — and each site
  // evaluates its whole group against one consistent cut, so a
  // transaction's view is consistent per serving site (the per-replica
  // version semantics of dtx/wal.hpp; cross-site cuts are independent).
  const Catalog::View view = ctx_.catalog.view();
  if (view->epoch != txn->catalog_epoch()) {
    // Snapshot reads hold no locks; a bare stale-catalog finish suffices.
    txn->set_abort_reason(txn::AbortReason::kStaleCatalog);
    {
      sync::MutexLock lock(ctx_.stats_mutex);
      ++ctx_.stats.stale_catalog_aborts;
    }
    finish_transaction(txn, TxnState::kAborted);
    return;
  }
  std::map<SiteId, net::SnapshotReadRequest> groups;
  for (std::size_t i = 0; i < txn->op_count(); ++i) {
    const txn::Operation& op = txn->ops()[i];
    txn::OperationState& state = txn->state_of(i);
    ++state.attempts;
    const std::vector<SiteId>& sites = view->sites_of(op.doc);
    if (sites.empty()) {
      state.failed = true;
      state.reason = txn::AbortReason::kParseError;
      state.error = "document '" + op.doc + "' is not in the catalog";
      txn->set_abort_reason(txn::AbortReason::kParseError);
      finish_transaction(txn, TxnState::kAborted);
      return;
    }
    net::SnapshotReadRequest& request =
        groups[view->rows_source(op.doc, ctx_.options.id)];
    request.txn = txn->id();
    request.coordinator = ctx_.options.id;
    request.epoch = view->epoch;
    request.op_indices.push_back(static_cast<std::uint32_t>(i));
    request.ops.push_back(op);
  }

  // Remote requests move into the network; each leaves behind the index of
  // its first operation, which names it in a timeout error.
  std::map<SiteId, std::uint32_t> remote;
  for (const auto& [site, request] : groups) {
    if (site != ctx_.options.id) {
      remote.emplace(site, request.op_indices.front());
    }
  }
  if (!remote.empty()) {
    sync::MutexLock lock(ctx_.resp_mutex);
    ctx_.snapshot_replies[txn->id()].clear();
  }
  for (auto& [site, request] : groups) {
    if (site != ctx_.options.id) ctx_.send(site, std::move(request));
  }

  // Serve the local group inline while remote sites work in parallel.
  std::vector<net::SnapshotReadReply> replies;
  const auto local_group = groups.find(ctx_.options.id);
  if (local_group != groups.end()) {
    replies.push_back(serve_snapshot_read(ctx_, txn->id(), view->epoch,
                                          local_group->second.op_indices,
                                          local_group->second.ops));
  }
  if (!remote.empty()) {
    std::map<SiteId, net::SnapshotReadReply> collected =
        await_snapshot_replies(txn->id(), remote.size());
    if (!ctx_.running.load()) return;  // halt() completes the txn
    if (collected.size() != remote.size()) {
      txn->set_abort_reason(txn::AbortReason::kSiteFailure);
      for (const auto& [site, first_op] : remote) {
        if (collected.count(site) == 0) {
          txn::OperationState& state = txn->state_of(first_op);
          state.failed = true;
          state.reason = txn::AbortReason::kSiteFailure;
          state.error = "snapshot-read timeout (site " +
                        std::to_string(site) + ")";
          break;
        }
      }
      finish_transaction(txn, TxnState::kAborted);
      return;
    }
    for (auto& [site, reply] : collected) {
      (void)site;
      replies.push_back(std::move(reply));
    }
  }

  for (net::SnapshotReadReply& reply : replies) {
    if (!reply.ok) {
      const txn::AbortReason reason = reply.reason != txn::AbortReason::kNone
                                          ? reply.reason
                                          : txn::AbortReason::kSiteFailure;
      txn->set_abort_reason(reason);
      if (!reply.op_indices.empty()) {
        txn::OperationState& state = txn->state_of(reply.op_indices.front());
        state.failed = true;
        state.reason = reason;
        state.error = std::move(reply.error);
      }
      finish_transaction(txn, TxnState::kAborted);
      return;
    }
    for (std::size_t k = 0; k < reply.op_indices.size(); ++k) {
      txn::OperationState& state = txn->state_of(reply.op_indices[k]);
      state.executed = true;
      state.rows = std::move(reply.rows[k]);
    }
  }
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.snapshot_txns;
  }
  finish_transaction(txn, TxnState::kCommitted);
}

void Coordinator::enter_wait(const TransactionPtr& txn) {
  txn->note_wait_episode();
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.wait_episodes;
  }
  if (ctx_.options.max_wait_episodes != 0 &&
      txn->wait_episodes() > ctx_.options.max_wait_episodes) {
    // The transaction keeps losing its locks; give up instead of letting
    // the client wait unboundedly. The claim is still ours, so a plain
    // abort is safe (finish_transaction clears any deferred victim mark).
    txn->set_abort_reason(txn::AbortReason::kLockWaitExhausted);
    abort_transaction(txn, /*deadlock_victim=*/false);
    return;
  }
  hand_back_claim(txn, /*park=*/true);
}

void Coordinator::requeue(const TransactionPtr& txn) {
  hand_back_claim(txn, /*park=*/false);
}

void Coordinator::hand_back_claim(const TransactionPtr& txn, bool park) {
  bool abort_now = false;
  bool requeued = false;
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    if (ctx_.deferred_victims.erase(txn->id()) != 0) {
      abort_now = true;  // claim retained; abort below
    } else if (park && ctx_.pending_wakes.erase(txn->id()) == 0) {
      txn->set_state(TxnState::kWaiting);
      ctx_.executing.erase(txn->id());
      ctx_.waiting[txn->id()] = Clock::now();
    } else {
      // Plain requeue — or a wake overtook the park; retry immediately.
      txn->set_state(TxnState::kActive);
      ctx_.executing.erase(txn->id());
      ctx_.ready.push_back(txn);
      requeued = true;
    }
  }
  if (abort_now) {
    abort_transaction(txn, /*deadlock_victim=*/true);
  } else if (requeued) {
    ctx_.coord_cv.notify_all();
  }
}

std::map<SiteId, net::OperationResult> Coordinator::take_responses(
    TxnId txn, std::uint32_t attempt, std::size_t expected) {
  const auto deadline = Clock::now() + ctx_.options.response_timeout;
  sync::MutexLock lock(ctx_.resp_mutex);
  for (;;) {
    const auto it = ctx_.responses.find(txn);
    if (it == ctx_.responses.end()) return {};
    SiteContext::ResponseSlot& slot = it->second;
    const bool ours = slot.attempt == attempt;
    // Partial replies on timeout or shutdown.
    if (!ours || slot.replies.size() >= expected || !ctx_.running.load() ||
        Clock::now() >= deadline) {
      std::map<SiteId, net::OperationResult> replies;
      if (ours) replies = std::move(slot.replies);
      ctx_.responses.erase(it);
      return replies;
    }
    ctx_.resp_cv.wait_until(ctx_.resp_mutex, deadline);
  }
}

std::map<SiteId, bool> Coordinator::await_acks(TxnId txn,
                                               const std::set<SiteId>& expected,
                                               bool commit) {
  (void)commit;
  const auto deadline = Clock::now() + ctx_.options.response_timeout;
  sync::MutexLock lock(ctx_.ack_mutex);
  for (;;) {
    const auto it = ctx_.acks.find(txn);
    if (it == ctx_.acks.end()) return {};
    if (it->second.acks.size() >= expected.size()) return it->second.acks;
    if (!ctx_.running.load() || Clock::now() >= deadline) {
      return it->second.acks;
    }
    ctx_.ack_cv.wait_until(ctx_.ack_mutex, deadline);
  }
}

std::map<SiteId, net::SnapshotReadReply> Coordinator::await_snapshot_replies(
    TxnId txn, std::size_t expected) {
  const auto deadline = Clock::now() + ctx_.options.response_timeout;
  sync::MutexLock lock(ctx_.resp_mutex);
  for (;;) {
    const auto it = ctx_.snapshot_replies.find(txn);
    if (it == ctx_.snapshot_replies.end()) return {};
    // Partial replies on timeout or shutdown.
    if (it->second.size() >= expected || !ctx_.running.load() ||
        Clock::now() >= deadline) {
      std::map<SiteId, net::SnapshotReadReply> replies = std::move(it->second);
      ctx_.snapshot_replies.erase(it);
      return replies;
    }
    ctx_.resp_cv.wait_until(ctx_.resp_mutex, deadline);
  }
}

void Coordinator::commit_transaction(const TransactionPtr& txn) {
  // Algorithm 5, hardened for partial failure (presumed-abort style).
  // Every operation executed at every replica, so the coordinator now
  // takes the commit decision by persisting *locally first* and appending
  // the durable commit record — then broadcasts. From the decision on,
  // the transaction is never rolled back anywhere (the seed aborted on a
  // missing ack, which left replicas that had already persisted diverged):
  //
  //  1. local persist + release (a failure here still aborts cleanly —
  //     nothing was sent yet);
  //  2. durable commit record (answers status probes across a crash);
  //  3. CommitRequest fan-out with bounded resends for unacked sites.
  //
  // Coordinator-first ordering also means a participant that crashes
  // around the decision finds the committed bytes at the coordinator's
  // store the moment it rejoins (Cluster recovery sync); sites that miss
  // the request — partitioned, or briefly down — are served by the
  // resends and, past those, by the presumed-abort status probe their
  // orphan sweep sends (answered "committed" from the record of step 2).
  // Epoch re-validation: never take a commit decision under a catalog the
  // cluster has moved past. Participants fence new-epoch executes, but
  // CommitRequests carry no epoch — this check is what keeps a flip from
  // racing a commit into a replica that is being migrated away, and it
  // bounds the membership drain (see Site::epoch_drained).
  if (ctx_.catalog.epoch() != txn->catalog_epoch()) {
    abort_stale_catalog(txn);
    return;
  }
  std::set<SiteId> remote = txn->sites();
  remote.erase(ctx_.options.id);

  // Step 1 — Alg. 5 l. 10-11: persist and release locally.
  std::vector<WakeNotice> wakes;
  util::Status status = ctx_.locks().commit(txn->id(), wakes);
  ctx_.send_wakes(wakes);
  if (!status) {
    // Nothing persisted and nothing broadcast: a plain abort is sound.
    txn->set_abort_reason(txn::AbortReason::kSiteFailure);
    abort_transaction(txn, false);
    return;
  }
  if (remote.empty()) {
    finish_transaction(txn, TxnState::kCommitted);
    return;
  }

  // Step 2 — the decision outlives this worker and this site. The file
  // write stays outside coord_mutex (submissions, wakes and status probes
  // wait on it); the record is durable before the cache can answer a probe
  // "committed" and before any CommitRequest leaves.
  const util::Status logged = ctx_.append_commit_record(txn->id());
  if (!logged) {
    DTX_ERROR() << "txn " << txn->id()
                << ": commit log append failed: " << logged.to_string();
  }
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    ctx_.record_outcome(txn->id(), /*committed=*/true);
  }

  // Step 3 — fan-out with resends.
  {
    sync::MutexLock lock(ctx_.ack_mutex);
    SiteContext::AckSlot& slot = ctx_.acks[txn->id()];
    slot.commit = true;
    slot.acks.clear();
  }
  const std::uint32_t rounds =
      std::max<std::uint32_t>(1, ctx_.options.commit_ack_rounds);
  std::set<SiteId> pending = remote;
  std::map<SiteId, bool> acks;
  for (std::uint32_t round = 0; round < rounds && !pending.empty();
       ++round) {
    if (round > 0) {
      sync::MutexLock lock(ctx_.stats_mutex);
      ctx_.stats.commit_resends += pending.size();
    }
    for (SiteId site : pending) {
      ctx_.send(site, net::CommitRequest{txn->id()});
    }
    acks = await_acks(txn->id(), remote, /*commit=*/true);
    for (const auto& [site, ok] : acks) {
      (void)ok;
      pending.erase(site);
    }
    if (!ctx_.running.load()) break;
  }
  {
    sync::MutexLock lock(ctx_.ack_mutex);
    ctx_.acks.erase(txn->id());
  }
  // Unacked or not-ok sites hold a stale replica until their orphan probe
  // (answered from the outcome record) or the next recovery sync catches
  // them up; the decision stands regardless.
  for (SiteId site : pending) {
    DTX_WARN() << "txn " << txn->id() << ": commit unacked at site " << site
               << " after " << rounds << " rounds";
  }
  for (const auto& [site, ok] : acks) {
    if (!ok) {
      DTX_WARN() << "txn " << txn->id() << ": commit not served at site "
                 << site;
    }
  }
  finish_transaction(txn, TxnState::kCommitted);
}

void Coordinator::abort_transaction(const TransactionPtr& txn,
                                    bool deadlock_victim) {
  // Algorithm 6.
  if (deadlock_victim) txn->mark_deadlock_victim();
  std::set<SiteId> remote = txn->sites();
  remote.erase(ctx_.options.id);
  if (!remote.empty()) {
    {
      sync::MutexLock lock(ctx_.ack_mutex);
      SiteContext::AckSlot& slot = ctx_.acks[txn->id()];
      slot.commit = false;
      slot.acks.clear();
    }
    for (SiteId site : remote) {
      ctx_.send(site, net::AbortRequest{txn->id()});
    }
    const std::map<SiteId, bool> acks =
        await_acks(txn->id(), remote, /*commit=*/false);
    {
      sync::MutexLock lock(ctx_.ack_mutex);
      ctx_.acks.erase(txn->id());
    }
    bool all_ok = acks.size() == remote.size();
    for (const auto& [site, ok] : acks) all_ok &= ok;
    if (!all_ok && ctx_.running.load()) {
      // Alg. 6 l. 5-10: the cancellation itself failed somewhere -> the
      // transaction *fails*; every site is told so.
      for (SiteId site : remote) {
        ctx_.send(site, net::FailNotice{txn->id()});
      }
      fail_transaction(txn);
      return;
    }
  }
  // Alg. 6 l. 13-14: undo and release locally.
  std::vector<WakeNotice> wakes;
  ctx_.locks().abort(txn->id(), wakes);
  ctx_.send_wakes(wakes);
  finish_transaction(txn, TxnState::kAborted);
}

void Coordinator::fail_transaction(const TransactionPtr& txn) {
  // Local best-effort cleanup so this site's locks do not leak, then report
  // failure to the application (paper §2.2: "In case of failure, DTX alerts
  // the application stating that the transaction has failed").
  txn->set_abort_reason(txn::AbortReason::kSiteFailure);
  std::vector<WakeNotice> wakes;
  ctx_.locks().abort(txn->id(), wakes);
  ctx_.send_wakes(wakes);
  finish_transaction(txn, TxnState::kFailed);
}

void Coordinator::finish_transaction(const TransactionPtr& txn,
                                     TxnState state) {
  txn->set_state(state);
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    ctx_.waiting.erase(txn->id());
    ctx_.pending_wakes.erase(txn->id());
    ctx_.deferred_victims.erase(txn->id());
    ctx_.executing.erase(txn->id());
    drop_from_ready(ctx_.ready, txn);
    ctx_.transactions.erase(txn->id());
    // Feed the presumed-abort status probes: participants that lost
    // contact ask for exactly this record (first write wins, so a commit
    // decision recorded in commit_transaction is never downgraded).
    ctx_.record_outcome(txn->id(), state == TxnState::kCommitted);
  }
  {
    // This site's own slices were served by its participant, which tracks
    // them like a remote transaction's. The local commit or abort above
    // already ended them, and no Commit/AbortRequest comes to the own site
    // to drop the record — drop it here, or the orphan sweep would probe
    // this site about it and the catalog drain would wait for it. A late
    // copy of an own slice finds no record and no awaiting round, and is
    // dropped (Participant::coordinator_awaits).
    sync::MutexLock lock(ctx_.part_mutex);
    ctx_.remote_txns.erase(txn->id());
  }
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    switch (state) {
      case TxnState::kCommitted: ++ctx_.stats.committed; break;
      case TxnState::kAborted: ++ctx_.stats.aborted; break;
      case TxnState::kFailed: ++ctx_.stats.failed; break;
      default: break;
    }
    if (txn->deadlock_victim()) ++ctx_.stats.deadlock_aborts;
  }

  txn::TxnResult result;
  result.id = txn->id();
  result.state = state;
  result.deadlock_victim = txn->deadlock_victim();
  result.wait_episodes = txn->wait_episodes();
  result.response_ms =
      static_cast<double>(steady_now_micros() -
                          txn::txn_begin_micros(txn->id())) /
      1000.0;
  if (state != TxnState::kCommitted) {
    result.reason = txn->deadlock_victim()
                        ? txn::AbortReason::kDeadlockVictim
                        : txn->abort_reason();
    if (result.reason == txn::AbortReason::kNone) {
      // Audited unreachable: every abort path records a reason first —
      // local/remote structural failures and parse errors set it inline,
      // deadlock outcomes mark the victim flag, lock-wait exhaustion and
      // every commit/ack failure set kSiteFailure, and stop()/crash()
      // complete transactions without passing through here. Keep a typed
      // fallback rather than asserting (a silent misclassification beats
      // a crash in release), but count it so the regression test in
      // chaos_test.cpp can prove the path stays dead.
      result.reason = txn::AbortReason::kSiteFailure;
      DTX_ERROR() << "txn " << txn->id() << ": abort without a recorded "
                  << "reason (state " << txn::txn_state_name(state) << ")";
      sync::MutexLock lock(ctx_.stats_mutex);
      ++ctx_.stats.unclassified_aborts;
    }
  }
  result.rows.reserve(txn->op_count());
  for (std::size_t i = 0; i < txn->op_count(); ++i) {
    // The transaction is over: its rows move to the client, uncopied.
    result.rows.push_back(std::move(txn->state_of(i).rows));
    if (result.detail.empty() && !txn->state_of(i).error.empty()) {
      result.detail = "operation " + std::to_string(i) + ": " +
                      txn->state_of(i).error;
    }
  }
  if (result.detail.empty() && state != TxnState::kCommitted) {
    result.detail = txn::abort_reason_name(result.reason);
  }
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ctx_.stats.response_ms.add(result.response_ms);
  }
  txn->complete(std::move(result));
}

}  // namespace dtx::core
