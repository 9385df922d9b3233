#include "dtx/participant.hpp"

#include <algorithm>

#include "dtx/snapshot_read.hpp"
#include "util/log.hpp"

namespace dtx::core {

using net::Message;

namespace {

/// Transaction a participant request belongs to (all six request kinds
/// carry one).
lock::TxnId request_txn(const Message& message) {
  return std::visit(
      [](const auto& payload) -> lock::TxnId {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, net::ExecuteOperation> ||
                      std::is_same_v<T, net::SnapshotReadRequest> ||
                      std::is_same_v<T, net::UndoOperation> ||
                      std::is_same_v<T, net::CommitRequest> ||
                      std::is_same_v<T, net::AbortRequest> ||
                      std::is_same_v<T, net::FailNotice> ||
                      std::is_same_v<T, net::TxnStatusReply>) {
          return payload.txn;
        } else {
          return 0;
        }
      },
      message.payload);
}

}  // namespace

void Participant::run() {
  while (ctx_.running.load()) {
    Message message;
    lock::TxnId txn = 0;
    {
      sync::UniqueLock lock(ctx_.part_mutex);
      // First message whose transaction no other worker is on: serving in
      // this order keeps per-transaction requests serial and in arrival
      // order (see SiteContext::participant_active).
      const auto serviceable = [&] {
        auto it = ctx_.participant_queue.begin();
        for (; it != ctx_.participant_queue.end(); ++it) {
          if (ctx_.participant_active.count(request_txn(*it)) == 0) break;
        }
        return it;
      };
      ctx_.part_cv.wait_for(ctx_.part_mutex, ctx_.options.poll_interval, [&] {
        return !ctx_.running.load() ||
               serviceable() != ctx_.participant_queue.end();
      });
      if (!ctx_.running.load()) return;
      const auto it = serviceable();
      if (it == ctx_.participant_queue.end()) continue;
      txn = request_txn(*it);
      message = std::move(*it);
      ctx_.participant_queue.erase(it);
      ctx_.participant_active.insert(txn);
    }
    std::visit(
        [&](auto&& payload) {
          using T = std::decay_t<decltype(payload)>;
          if constexpr (std::is_same_v<T, net::ExecuteOperation>) {
            handle_execute(payload);
          } else if constexpr (std::is_same_v<T, net::SnapshotReadRequest>) {
            handle_snapshot_read(payload);
          } else if constexpr (std::is_same_v<T, net::UndoOperation>) {
            handle_undo(payload);
          } else if constexpr (std::is_same_v<T, net::CommitRequest>) {
            handle_commit(payload, message.from);
          } else if constexpr (std::is_same_v<T, net::AbortRequest>) {
            handle_abort(payload, message.from);
          } else if constexpr (std::is_same_v<T, net::FailNotice>) {
            handle_fail(payload);
          } else if constexpr (std::is_same_v<T, net::TxnStatusReply>) {
            handle_status_reply(payload);
          }
        },
        message.payload);
    {
      sync::MutexLock lock(ctx_.part_mutex);
      ctx_.participant_active.erase(txn);
    }
    ctx_.part_cv.notify_all();
  }
}

void Participant::handle_snapshot_read(const net::SnapshotReadRequest& request) {
  gossip_catalog(request.coordinator, request.epoch);
  // No remote_txns entry and no reply cache: the read leaves no state at
  // this site, so there is nothing for a lost reply to double-apply — the
  // coordinator simply times out and aborts (retryable, kSiteFailure).
  ctx_.send(request.coordinator,
            serve_snapshot_read(ctx_, request.txn, request.epoch,
                                request.op_indices, request.ops));
}

void Participant::gossip_catalog(SiteId peer, std::uint64_t peer_epoch) {
  const std::uint64_t local = ctx_.catalog.epoch();
  if (peer_epoch == local || net::is_client_id(peer) ||
      peer == ctx_.options.id) {
    return;
  }
  if (peer_epoch < local) {
    const Catalog::View view = ctx_.catalog.view();
    ctx_.send(peer, net::CatalogUpdate{view->epoch, view->to_text(),
                                       ctx_.options.id});
  } else {
    ctx_.send(peer, net::JoinRequest{ctx_.options.id, ""});
  }
}

void Participant::handle_execute(const net::ExecuteOperation& request) {
  // Alg. 2 l. 4-13, once per slice: the operations run in transaction
  // order under the same XDGL locks, and the first one that does not
  // execute ends the slice.
  net::OperationResult reply;
  reply.txn = request.txn;
  reply.attempt = request.attempt;
  // Membership fence first, before any state is created for the
  // transaction: a request routed under a different catalog epoch — or one
  // targeting a replica this site is still importing — is rejected
  // retryably, leaving nothing for the orphan sweep to clean up. The view
  // that passes the fence also names each query's rows source: it is the
  // epoch the coordinator routed under, so both read one placement.
  const Catalog::View view = ctx_.catalog.view();
  const auto importing = std::find_if(
      request.ops.begin(), request.ops.end(),
      [&](const txn::Operation& op) { return ctx_.is_importing(op.doc); });
  if (request.epoch != view->epoch || importing != request.ops.end()) {
    reply.failed = true;
    reply.reason = txn::AbortReason::kStaleCatalog;
    reply.error = "catalog epoch " + std::to_string(request.epoch) +
                  " is stale at site " + std::to_string(ctx_.options.id);
    {
      sync::MutexLock lock(ctx_.stats_mutex);
      ++ctx_.stats.stale_catalog_aborts;
    }
    ctx_.send(request.coordinator, std::move(reply));
    gossip_catalog(request.coordinator, request.epoch);
    return;
  }
  {
    // Answer duplicated deliveries (FaultPlan duplication) from the reply
    // cache: re-running an already-executed update would apply its effects
    // twice. Only a *newer* attempt (a wait-mode resend) reaches the lock
    // manager again.
    sync::MutexLock lock(ctx_.part_mutex);
    const auto it = ctx_.remote_txns.find(request.txn);
    if (it != ctx_.remote_txns.end() &&
        it->second.last_reply.attempt >= request.attempt) {
      it->second.last_seen = SiteContext::Clock::now();
      it->second.unanswered_probes = 0;
      ctx_.send(request.coordinator, it->second.last_reply);
      return;
    }
  }
  // A slice of this site's own transaction that the coordinator no longer
  // awaits — a late copy of a transaction that already ended (its record
  // is gone with it) or a round it timed out on — must not run: nothing
  // would ever end what it leaves here.
  if (!coordinator_awaits(request)) return;
  {
    // Track the transaction for the presumed-abort orphan sweep.
    sync::MutexLock lock(ctx_.part_mutex);
    SiteContext::RemoteTxn& record = ctx_.remote_txns[request.txn];
    record.coordinator = request.coordinator;
    record.epoch = request.epoch;
    record.last_seen = SiteContext::Clock::now();
    record.unanswered_probes = 0;
  }
  // A newer attempt supersedes whatever earlier ones left here from its
  // first operation on. The coordinator does send UndoOperation before
  // resending (Alg. 1 l. 16), but that message can be lost — re-applying
  // on top of the un-undone first attempt would double the operations'
  // effects at this replica only.
  if (!request.op_indices.empty()) {
    ctx_.locks().undo_from(request.txn, request.op_indices.front());
  }
  std::size_t processed = 0;
  for (; processed < request.ops.size(); ++processed) {
    const std::uint32_t op_index = request.op_indices[processed];
    const txn::Operation& op = request.ops[processed];
    // Resolve the typed operation through the site plan cache: wait-mode
    // resends and repeated workload operations run the cached plan, keyed
    // by the operation's canonical text.
    auto plan = ctx_.plans().resolve(op);
    if (!plan) {
      reply.failed = true;
      reply.reason = txn::AbortReason::kParseError;
      reply.error = plan.status().to_string();
      break;
    }
    OpOutcome outcome = ctx_.locks().process_operation(
        request.txn, op_index, *plan.value(), request.coordinator,
        view->rows_source(op.doc, request.coordinator) == ctx_.options.id);
    if (outcome.kind == OpOutcome::Kind::kExecuted) {
      reply.op_indices.push_back(op_index);
      reply.rows.push_back(std::move(outcome.rows));
      continue;
    }
    reply.lock_conflict = outcome.kind == OpOutcome::Kind::kConflict;
    reply.deadlock = outcome.kind == OpOutcome::Kind::kDeadlock;
    if (outcome.kind == OpOutcome::Kind::kFailed) {
      reply.failed = true;
      reply.reason = txn::AbortReason::kUnprocessableUpdate;
      reply.error = std::move(outcome.error);
    }
    break;
  }
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ctx_.stats.remote_ops_processed +=
        std::min(processed + 1, request.ops.size());
  }
  if (!coordinator_awaits(request)) {
    // This site's coordinator timed out on the round while the slice ran
    // and aborts the transaction itself; its local abort may have run
    // before these operations did. Roll them back here too.
    std::vector<WakeNotice> wakes;
    ctx_.locks().abort(request.txn, wakes);
    ctx_.send_wakes(wakes);
    forget_remote_txn(request.txn);
    return;
  }
  {
    sync::MutexLock lock(ctx_.part_mutex);
    const auto it = ctx_.remote_txns.find(request.txn);
    if (it != ctx_.remote_txns.end()) {
      it->second.last_seen = SiteContext::Clock::now();
      it->second.last_reply = reply;
    }
  }
  ctx_.send(request.coordinator, std::move(reply));
}

bool Participant::coordinator_awaits(const net::ExecuteOperation& request) {
  if (request.coordinator != ctx_.options.id) return true;
  sync::MutexLock lock(ctx_.resp_mutex);
  const auto it = ctx_.responses.find(request.txn);
  return it != ctx_.responses.end() && it->second.attempt == request.attempt;
}

void Participant::handle_undo(const net::UndoOperation& request) {
  {
    sync::MutexLock lock(ctx_.part_mutex);
    const auto it = ctx_.remote_txns.find(request.txn);
    if (it == ctx_.remote_txns.end()) return;  // nothing executed here
    if (it->second.last_reply.attempt > request.attempt) return;  // stale
    it->second.last_seen = SiteContext::Clock::now();
  }
  ctx_.locks().undo_from(request.txn, request.op_index);
  ctx_.locks().clear_waiter(request.txn);
}

void Participant::handle_commit(const net::CommitRequest& request,
                                SiteId from) {
  // Idempotent: a duplicated or resent CommitRequest for a transaction
  // with no state here (already committed, or lost to a crash+restart)
  // persists nothing and acks ok — the coordinator's commit decision is
  // final either way.
  std::vector<WakeNotice> wakes;
  const util::Status status = ctx_.locks().commit(request.txn, wakes);
  ctx_.send(from, net::CommitAck{request.txn, status.is_ok()});
  ctx_.send_wakes(wakes);
  if (status.is_ok()) {
    forget_remote_txn(request.txn);
  } else {
    // Persist failed: locks and undo log are still held. Keep the
    // tracking record so the orphan sweep retries the consolidation
    // (probe -> kCommitted -> commit again) instead of leaking them.
    touch_remote_txn(request.txn);
  }
}

void Participant::handle_abort(const net::AbortRequest& request, SiteId from) {
  std::vector<WakeNotice> wakes;
  ctx_.locks().abort(request.txn, wakes);
  ctx_.send(from, net::AbortAck{request.txn, true});
  ctx_.send_wakes(wakes);
  forget_remote_txn(request.txn);
}

void Participant::handle_fail(const net::FailNotice& request) {
  std::vector<WakeNotice> wakes;
  ctx_.locks().abort(request.txn, wakes);
  ctx_.send_wakes(wakes);
  forget_remote_txn(request.txn);
}

void Participant::handle_status_reply(const net::TxnStatusReply& reply) {
  // Presumed-abort resolution for an orphaned transaction. Ignore replies
  // for transactions no longer tracked (the real commit / abort arrived
  // while the probe was in flight — those paths already cleaned up).
  {
    sync::MutexLock lock(ctx_.part_mutex);
    const auto it = ctx_.remote_txns.find(reply.txn);
    if (it == ctx_.remote_txns.end()) return;
    if (reply.outcome == net::TxnOutcome::kActive) {
      // Coordinator is alive and still working: reset the orphan clock.
      it->second.last_seen = SiteContext::Clock::now();
      it->second.unanswered_probes = 0;
      return;
    }
  }
  std::vector<WakeNotice> wakes;
  if (reply.outcome == net::TxnOutcome::kCommitted) {
    // The decision was commit and this site missed the CommitRequest:
    // consolidate now (persist + release), exactly what the lost message
    // would have done.
    const util::Status status = ctx_.locks().commit(reply.txn, wakes);
    if (!status) {
      DTX_ERROR() << "orphan commit failed: " << status.to_string();
    }
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.orphans_committed;
  } else {
    // kAborted or kUnknown (coordinator lost its state): presumed abort —
    // undo-log rollback and lock release.
    ctx_.locks().abort(reply.txn, wakes);
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.orphans_aborted;
  }
  ctx_.send_wakes(wakes);
  forget_remote_txn(reply.txn);
}

void Participant::touch_remote_txn(lock::TxnId txn) {
  sync::MutexLock lock(ctx_.part_mutex);
  const auto it = ctx_.remote_txns.find(txn);
  if (it != ctx_.remote_txns.end()) {
    it->second.last_seen = SiteContext::Clock::now();
  }
}

void Participant::forget_remote_txn(lock::TxnId txn) {
  sync::MutexLock lock(ctx_.part_mutex);
  ctx_.remote_txns.erase(txn);
}

}  // namespace dtx::core
