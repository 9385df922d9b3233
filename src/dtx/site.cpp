#include "dtx/site.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "dtx/recovery.hpp"
#include "util/log.hpp"

namespace dtx::core {

using lock::TxnId;
using net::Message;
using net::Payload;
using txn::Transaction;
using txn::TxnState;

Site::Site(SiteOptions options, net::Network& network,
           Catalog& catalog, storage::StorageBackend& store)
    : ctx_(options, network, catalog, store),
      coordinator_(ctx_),
      participant_(ctx_) {}

Site::~Site() { stop(); }

util::Status Site::start(Startup startup) {
  if (ctx_.running.load()) {
    return util::Status(util::Code::kInternal, "site is running");
  }
  // Membership resume: the durable ~catalog record wins over the configured
  // bootstrap catalog, and an interrupted departure continues (leaving_).
  // Everything else of the membership machinery is derived fresh — ship
  // states reappear through the reconcile scan, fences through the
  // hosted-but-absent check below. A leave order dies with the process.
  pending_acks_.clear();
  pending_join_.reset();
  ship_states_.clear();
  last_pull_.clear();
  leave_requested_.store(false);
  decommissioned_.store(false);
  load_durable_catalog();
  {
    // Importing fence: documents this epoch hosts here whose replica never
    // arrived (join, or a kill -9 before the migration push landed) reject
    // traffic until adopted via MigrateDoc / a recovery pull.
    const Catalog::View view = ctx_.catalog.view();
    sync::MutexLock lock(ctx_.part_mutex);
    ctx_.importing_docs.clear();
    for (const std::string& doc : view->documents_at(ctx_.options.id)) {
      if (!ctx_.store.exists(doc)) ctx_.importing_docs.insert(doc);
    }
  }
  if (startup == Startup::kRecover) {
    util::Status recovered = recover_replicas();
    if (!recovered) return recovered;
  }
  util::Status status = ctx_.data().load_all();
  if (!status) return status;
  // Presumed-abort commit log: repopulate the outcome cache with the
  // durable commit decisions (no-op on a fresh store).
  ctx_.load_commit_log();
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ctx_.stats.catalog_epoch = ctx_.catalog.epoch();
  }
  // Traffic the startup loops parked goes to the dispatcher first, in
  // arrival order: stamped due at the clock's epoch, it sorts ahead of
  // everything that reached the mailbox since (per-link FIFO holds).
  for (net::Message& message : parked_) {
    ctx_.mailbox.push(std::move(message), Clock::time_point{});
  }
  parked_.clear();
  ctx_.running.store(true);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  const std::size_t coordinators =
      std::max<std::size_t>(1, ctx_.options.coordinator_workers);
  coordinator_threads_.reserve(coordinators);
  for (std::size_t i = 0; i < coordinators; ++i) {
    coordinator_threads_.emplace_back([this] { coordinator_.run(); });
  }
  const std::size_t participants =
      std::max<std::size_t>(1, ctx_.options.participant_workers);
  participant_threads_.reserve(participants);
  for (std::size_t i = 0; i < participants; ++i) {
    participant_threads_.emplace_back([this] { participant_.run(); });
  }
  return util::Status::ok();
}

util::Status Site::join(SiteId seed, const std::string& address) {
  if (ctx_.running.load()) {
    return util::Status(util::Code::kInternal, "site is running");
  }
  // The seed drains the old epoch for up to four response timeouts per
  // admission attempt; allow four attempts.
  const Clock::time_point deadline =
      Clock::now() + 16 * ctx_.options.response_timeout;
  std::string failure = "no JoinReply from seed site " + std::to_string(seed);
  Clock::time_point next_send{};
  while (Clock::now() < deadline) {
    if (Clock::now() >= next_send) {
      // Resend until admitted: the request, the reply or the seed's drain
      // round trips may be lost, and a refusal (another change in flight)
      // clears once the seed's previous change settles.
      ctx_.send(seed, net::JoinRequest{ctx_.options.id, address});
      next_send = Clock::now() + pull_retry();
    }
    std::optional<net::Message> message = pop_startup_message();
    if (!message) continue;
    const auto* reply = std::get_if<net::JoinReply>(&message->payload);
    if (reply == nullptr) {
      // Early migration pushes and client traffic, for the dispatcher.
      parked_.push_back(std::move(*message));
      continue;
    }
    if (!reply->ok) {
      failure = "seed refused: " + reply->error;
      continue;
    }
    auto admitted = placement::CatalogEpoch::parse(reply->catalog);
    if (!admitted) {
      return util::Status(util::Code::kInternal,
                          "join reply catalog unreadable: " +
                              admitted.status().message());
    }
    if (!admitted.value().is_member(ctx_.options.id)) {
      return util::Status(util::Code::kInternal,
                          "join reply catalog omits this site");
    }
    // Persisted and dialed before serving: a crash from here on restarts
    // as a member instead of joining again.
    install_epoch(std::move(admitted).value());
    return start();
  }
  return util::Status(util::Code::kUnavailable, "join timed out: " + failure);
}

std::optional<net::Message> Site::pop_startup_message() {
  std::optional<net::Message> message =
      ctx_.mailbox.pop(ctx_.options.poll_interval);
  if (message) {
    if (const auto* pull =
            std::get_if<net::RecoveryPullRequest>(&message->payload)) {
      answer_recovery_pull(*pull);
      return std::nullopt;
    }
  }
  return message;
}

SiteContext::Clock::duration Site::pull_retry() const {
  return std::min<Clock::duration>(ctx_.options.response_timeout,
                                   std::chrono::milliseconds(250));
}

util::Status Site::recover_replicas() {
  const Catalog::View view = ctx_.catalog.view();
  std::vector<std::string> stored;
  std::map<std::string, std::set<SiteId>> unanswered;  // doc -> hosts
  for (const std::string& doc : view->documents_at(ctx_.options.id)) {
    if (!ctx_.store.exists(doc)) continue;  // fenced: the import pull adopts
    stored.push_back(doc);
    for (SiteId host : view->sites_of(doc)) {
      if (host != ctx_.options.id) unanswered[doc].insert(host);
    }
  }
  std::map<std::string, std::vector<wal::DurableDoc>> states;
  const Clock::time_point deadline =
      Clock::now() + ctx_.options.response_timeout;
  Clock::time_point next_send{};
  while (!unanswered.empty() && Clock::now() < deadline) {
    if (Clock::now() >= next_send) {
      // Re-pull on a timer: the transport is lossy, and a peer booting
      // alongside this site may not be reachable yet. A peer that stays
      // down contributes nothing; it catches up from us when it restarts.
      for (const auto& [doc, hosts] : unanswered) {
        for (SiteId host : hosts) {
          ctx_.send(host, net::RecoveryPullRequest{doc, ctx_.options.id});
        }
      }
      next_send = Clock::now() + pull_retry();
    }
    std::optional<net::Message> message = pop_startup_message();
    if (!message) continue;
    const auto* reply = std::get_if<net::RecoveryPullReply>(&message->payload);
    if (reply == nullptr) {
      parked_.push_back(std::move(*message));
      continue;
    }
    const auto pending = unanswered.find(reply->doc);
    if (pending == unanswered.end() ||
        pending->second.erase(message->from) == 0) {
      continue;  // duplicate
    }
    if (pending->second.empty()) unanswered.erase(pending);
    if (!reply->ok) continue;  // no servable copy there
    auto durable = recovery::from_wire(reply->doc, reply->snapshot, reply->log);
    if (!durable) {
      DTX_WARN() << "site " << ctx_.options.id << ": discarding recovery pull"
                 << " of '" << reply->doc << "' from site " << message->from
                 << ": " << durable.status().to_string();
      continue;
    }
    states[reply->doc].push_back(std::move(durable).value());
  }
  recovery::SyncStats synced;
  for (const std::string& doc : stored) {
    util::Status status =
        recovery::sync_document(ctx_.store, doc, states[doc], synced);
    if (!status) return status;
  }
  sync::MutexLock lock(ctx_.stats_mutex);
  ctx_.stats.log_suffix_syncs += synced.log_suffix_syncs;
  ctx_.stats.full_syncs += synced.full_syncs;
  return util::Status::ok();
}

void Site::halt() {
  ctx_.mailbox.interrupt();
  ctx_.coord_cv.notify_all();
  ctx_.part_cv.notify_all();
  ctx_.resp_cv.notify_all();
  ctx_.ack_cv.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  for (std::thread& worker : coordinator_threads_) {
    if (worker.joinable()) worker.join();
  }
  coordinator_threads_.clear();
  for (std::thread& worker : participant_threads_) {
    if (worker.joinable()) worker.join();
  }
  participant_threads_.clear();
  // Unblock any clients still waiting on unfinished transactions. Their
  // outcome is indeterminate: a transaction may have passed its commit
  // decision moments before the site went down, so callers must treat
  // kSiteFailure as "maybe committed", not "rolled back".
  sync::MutexLock lock(ctx_.coord_mutex);
  for (auto& [id, txn] : ctx_.transactions) {
    if (!txn->completed()) {
      txn::TxnResult result;
      result.id = id;
      result.state = TxnState::kAborted;
      result.reason = txn::AbortReason::kSiteFailure;
      result.detail = "site shut down";
      txn->complete(std::move(result));
    }
  }
}

void Site::stop() {
  if (!ctx_.running.exchange(false)) return;
  halt();
}

void Site::wipe_volatile_state() {
  // Scheduler queues, response/ack collection, participant tracking and
  // the outcome cache — everything a process crash loses (the durable
  // commit log is reloaded by start()). Also run before a restart after a
  // graceful stop(): the queues may still hold transactions that halt()
  // completed, and new workers must never re-execute those.
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    ctx_.ready.clear();
    ctx_.transactions.clear();
    ctx_.waiting.clear();
    ctx_.pending_wakes.clear();
    ctx_.victim_aborts.clear();
    ctx_.executing.clear();
    ctx_.deferred_victims.clear();
    ctx_.recent_outcomes.clear();
    ctx_.outcome_fifo.clear();
    draining_ = false;
  }
  {
    sync::MutexLock lock(ctx_.part_mutex);
    ctx_.participant_queue.clear();
    ctx_.participant_active.clear();
    ctx_.remote_txns.clear();
    ctx_.importing_docs.clear();  // recomputed from the store by start()
  }
  {
    sync::MutexLock lock(ctx_.resp_mutex);
    ctx_.responses.clear();
    ctx_.snapshot_replies.clear();
  }
  {
    sync::MutexLock lock(ctx_.ack_mutex);
    ctx_.acks.clear();
  }
}

void Site::crash() {
  // Drop off the network first: anything sent from now on is lost, as are
  // the messages still queued in the mailbox.
  ctx_.network.set_site_down(ctx_.options.id, true);
  if (ctx_.running.exchange(false)) halt();
  ctx_.mailbox.reset();
  ctx_.mailbox.interrupt();  // stay un-poppable until restart()
  // Committed state lives only in the storage backend.
  wipe_volatile_state();
  ctx_.rebuild_engine();
}

util::Status Site::restart() {
  if (ctx_.running.load()) {
    return util::Status(util::Code::kInternal, "site is running");
  }
  // Rebuild from the storage backend: committed documents only (a graceful
  // stop() restart takes the same path — the engine is always rebuilt and
  // stale queue entries are dropped, exactly as after a crash).
  wipe_volatile_state();
  ctx_.rebuild_engine();
  ctx_.mailbox.reset();
  parked_.clear();
  ctx_.network.set_site_down(ctx_.options.id, false);
  util::Status status = start(Startup::kRecover);
  if (status) {
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.restarts;
  }
  return status;
}

TxnId Site::next_txn_id() {
  std::uint64_t begin = steady_now_micros();
  if (begin <= ctx_.last_begin_micros) begin = ctx_.last_begin_micros + 1;
  ctx_.last_begin_micros = begin;
  return txn::make_txn_id(begin, ctx_.options.id);
}

std::shared_ptr<Transaction> Site::submit(std::vector<txn::Operation> ops) {
  std::shared_ptr<Transaction> txn;
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    txn = std::make_shared<Transaction>(next_txn_id(), std::move(ops));
    // The routing generation is fixed at admission and never re-stamped: a
    // catalog flip mid-transaction aborts it (kStaleCatalog, retryable)
    // rather than tearing it across two placements.
    txn->set_catalog_epoch(ctx_.catalog.epoch());
    const bool down = !ctx_.running.load();
    if (down || draining_) {
      // A down site (stopped or crashed) refuses instead of parking the
      // transaction on a queue no worker will ever drain. A departing site
      // whose replicas are all gone refuses so its own transactions drain:
      // the host stops it once decommissioned(), and a commit fan-out cut
      // short there would leave the participants to presume abort of a
      // committed transaction.
      txn::TxnResult result;
      result.id = txn->id();
      result.state = TxnState::kAborted;
      result.reason = down ? txn::AbortReason::kSiteFailure
                           : txn::AbortReason::kStaleCatalog;
      result.detail = down ? "site is down" : "site left the cluster";
      txn->complete(std::move(result));
      return txn;
    }
    ctx_.transactions[txn->id()] = txn;
    ctx_.ready.push_back(txn);
  }
  ctx_.coord_cv.notify_all();
  return txn;
}

SiteStats Site::stats() {
  sync::MutexLock lock(ctx_.stats_mutex);
  SiteStats out = ctx_.stats;
  out.lock_manager = ctx_.locks().stats();
  out.plan_cache = ctx_.plans().stats();
  out.snapshots = ctx_.snaps().stats();
  out.distributed_cycles_found = ctx_.detector.cycles_found();
  return out;
}

// ---------------------------------------------------------------------------
// Dispatcher: mailbox routing, deadlock-detector cadence and the
// presumed-abort orphan sweep.
// ---------------------------------------------------------------------------

void Site::dispatcher_loop() {
  while (ctx_.running.load()) {
    std::optional<Message> message =
        ctx_.mailbox.pop(ctx_.options.poll_interval);
    const auto now = Clock::now();
    if (message.has_value()) {
      Message& m = *message;
      std::visit(
          [&](auto&& payload) {
            using T = std::decay_t<decltype(payload)>;
            if constexpr (std::is_same_v<T, net::ExecuteOperation> ||
                          std::is_same_v<T, net::SnapshotReadRequest> ||
                          std::is_same_v<T, net::UndoOperation> ||
                          std::is_same_v<T, net::CommitRequest> ||
                          std::is_same_v<T, net::AbortRequest> ||
                          std::is_same_v<T, net::FailNotice> ||
                          std::is_same_v<T, net::TxnStatusReply>) {
              {
                sync::MutexLock lock(ctx_.part_mutex);
                ctx_.participant_queue.push_back(std::move(m));
              }
              ctx_.part_cv.notify_all();
            } else if constexpr (std::is_same_v<T, net::OperationResult>) {
              {
                sync::MutexLock lock(ctx_.resp_mutex);
                const auto it = ctx_.responses.find(payload.txn);
                if (it != ctx_.responses.end() &&
                    it->second.attempt == payload.attempt) {
                  it->second.replies[m.from] = std::move(payload);
                }
              }
              ctx_.resp_cv.notify_all();
            } else if constexpr (std::is_same_v<T, net::SnapshotReadReply>) {
              {
                sync::MutexLock lock(ctx_.resp_mutex);
                const auto it = ctx_.snapshot_replies.find(payload.txn);
                if (it != ctx_.snapshot_replies.end()) {
                  it->second[m.from] = std::move(payload);
                }
              }
              ctx_.resp_cv.notify_all();
            } else if constexpr (std::is_same_v<T, net::CommitAck> ||
                                 std::is_same_v<T, net::AbortAck>) {
              {
                sync::MutexLock lock(ctx_.ack_mutex);
                const auto it = ctx_.acks.find(payload.txn);
                if (it != ctx_.acks.end()) {
                  it->second.acks[m.from] = payload.ok;
                }
              }
              ctx_.ack_cv.notify_all();
            } else if constexpr (std::is_same_v<T, net::ClientSubmit>) {
              handle_client_submit(m.from, std::move(payload));
            } else if constexpr (std::is_same_v<T, net::RecoveryPullRequest>) {
              answer_recovery_pull(payload);
            } else if constexpr (std::is_same_v<T, net::TxnStatusRequest>) {
              answer_status_request(payload);
            } else if constexpr (std::is_same_v<T, net::WfgRequest>) {
              ctx_.send(payload.requester,
                        net::WfgReply{payload.probe, ctx_.locks().wfg_edges()});
            } else if constexpr (std::is_same_v<T, net::WfgReply>) {
              const auto victim = ctx_.detector.add_reply(payload.probe,
                                                          m.from,
                                                          payload.edges);
              if (victim.has_value() && *victim != 0) act_on_victim(*victim);
            } else if constexpr (std::is_same_v<T, net::VictimAbort>) {
              {
                sync::MutexLock lock(ctx_.coord_mutex);
                ctx_.victim_aborts.push_back(payload.txn);
              }
              ctx_.coord_cv.notify_all();
            } else if constexpr (std::is_same_v<T, net::CatalogUpdate>) {
              handle_catalog_update(payload);
            } else if constexpr (std::is_same_v<T, net::CatalogAck>) {
              handle_catalog_ack(payload);
            } else if constexpr (std::is_same_v<T, net::JoinRequest>) {
              handle_join_request(m.from, payload);
            } else if constexpr (std::is_same_v<T, net::JoinReply>) {
              // Anti-entropy: a catalog fetched from a fresher member (see
              // Participant::gossip_catalog). Joins proper consume their
              // JoinReply in join(), before the dispatcher runs.
              if (payload.ok && payload.epoch > ctx_.catalog.epoch()) {
                auto parsed = placement::CatalogEpoch::parse(payload.catalog);
                if (parsed) install_epoch(std::move(parsed).value());
              }
            } else if constexpr (std::is_same_v<T, net::MigrateDoc>) {
              handle_migrate_doc(m.from, payload);
            } else if constexpr (std::is_same_v<T, net::MigrateAck>) {
              handle_migrate_ack(payload);
            } else if constexpr (std::is_same_v<T, net::DropDoc>) {
              handle_drop_doc(payload);
            } else if constexpr (std::is_same_v<T, net::RecoveryPullReply>) {
              // Import pull answered: adopt if the fence is still up (a
              // concurrent MigrateDoc push may have won — idempotent).
              if (payload.ok && ctx_.is_importing(payload.doc)) {
                adopt_replica(payload.doc, payload.version, payload.snapshot,
                              payload.log);
              }
            } else if constexpr (std::is_same_v<T, net::WakeTxn>) {
              {
                sync::MutexLock lock(ctx_.coord_mutex);
                const auto it = ctx_.transactions.find(payload.txn);
                if (it != ctx_.transactions.end() &&
                    ctx_.waiting.count(payload.txn) != 0) {
                  ctx_.waiting.erase(payload.txn);
                  it->second->set_state(TxnState::kActive);
                  ctx_.ready.push_back(it->second);
                } else {
                  // Wake raced the conflict reply: remember it so the
                  // transaction re-queues instead of parking.
                  ctx_.pending_wakes.insert(payload.txn);
                }
              }
              ctx_.coord_cv.notify_all();
            }
          },
          m.payload);
    }
    run_deadlock_detection(now);
    sweep_orphans(now);
    membership_tick(now);
  }
}

void Site::handle_client_submit(SiteId client, net::ClientSubmit submit) {
  const std::uint64_t seq = submit.seq;
  if (submit.ops.empty()) {
    net::ClientReply reply;
    reply.seq = seq;
    reply.accepted = false;
    reply.detail = "transaction needs at least one operation";
    ctx_.send(client, std::move(reply));
    return;
  }
  std::shared_ptr<Transaction> txn = this->submit(std::move(submit.ops));
  // The hook fires on whichever thread completes the transaction (a
  // coordinator worker, or halt() on shutdown) — ctx_ outlives every
  // transaction, so capturing it is safe.
  SiteContext* ctx = &ctx_;
  txn->set_on_complete([ctx, client, seq](const txn::TxnResult& result) {
    net::ClientReply reply;
    reply.seq = seq;
    reply.accepted = true;
    reply.txn = result.id;
    reply.state = static_cast<std::uint8_t>(result.state);
    reply.reason = static_cast<std::uint8_t>(result.reason);
    reply.deadlock_victim = result.deadlock_victim;
    reply.wait_episodes = result.wait_episodes;
    reply.response_ms = result.response_ms;
    reply.detail = result.detail;
    reply.rows = result.rows;
    ctx->send(client, std::move(reply));
  });
}

void Site::answer_recovery_pull(const net::RecoveryPullRequest& request) {
  net::RecoveryPullReply reply;
  reply.doc = request.doc;
  // Serve from the store, not the catalog: after a placement flip the old
  // hosts keep their bytes until every gaining replica acked — exactly the
  // copies a mid-migration puller needs. A fenced import never serves (its
  // bytes, if any, are the stale pre-adoption ones).
  if (ctx_.store.exists(request.doc) && !ctx_.is_importing(request.doc)) {
    auto durable = recovery::read_stable(ctx_.store, request.doc);
    if (durable) {
      reply.ok = true;
      reply.version = durable.value().version;
      reply.snapshot = std::move(durable.value().snapshot);
      reply.log = recovery::flatten_log(durable.value());
    }
  }
  ctx_.send(request.requester, std::move(reply));
}

void Site::answer_status_request(const net::TxnStatusRequest& request) {
  net::TxnOutcome outcome = net::TxnOutcome::kUnknown;
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    if (ctx_.transactions.count(request.txn) != 0) {
      outcome = net::TxnOutcome::kActive;
    } else {
      const auto it = ctx_.recent_outcomes.find(request.txn);
      if (it != ctx_.recent_outcomes.end()) {
        outcome = it->second ? net::TxnOutcome::kCommitted
                             : net::TxnOutcome::kAborted;
      }
      // else: no record — never coordinated here, or the record died with
      // a crash. kUnknown; the participant presumes abort.
    }
  }
  ctx_.send(request.requester, net::TxnStatusReply{request.txn, outcome});
}

void Site::sweep_orphans(Clock::time_point now) {
  if (ctx_.options.orphan_txn_timeout.count() == 0) return;
  std::vector<std::pair<TxnId, SiteId>> probes;
  std::size_t rollbacks = 0;
  {
    sync::MutexLock lock(ctx_.part_mutex);
    for (auto& [txn, record] : ctx_.remote_txns) {
      if (ctx_.participant_active.count(txn) != 0) continue;  // in service
      if (now - record.last_seen < ctx_.options.orphan_txn_timeout) continue;
      if (record.unanswered_probes >= ctx_.options.orphan_query_limit) {
        // Presumed abort: enqueue a local FailNotice so the rollback runs
        // on a participant worker under the per-transaction serialization
        // rule (never concurrently with a late Execute / Commit of the
        // same transaction).
        record.last_seen = now;  // don't re-enqueue while this one is queued
        ctx_.participant_queue.push_back(Message{
            ctx_.options.id, ctx_.options.id, net::FailNotice{txn}});
        ++rollbacks;
      } else {
        ++record.unanswered_probes;
        record.last_seen = now;  // next probe one orphan timeout from now
        probes.push_back({txn, record.coordinator});
      }
    }
  }
  if (rollbacks != 0) {
    {
      sync::MutexLock lock(ctx_.stats_mutex);
      ctx_.stats.orphans_aborted += rollbacks;
    }
    ctx_.part_cv.notify_all();
  }
  for (const auto& [txn, coordinator] : probes) {
    ctx_.send(coordinator, net::TxnStatusRequest{txn, ctx_.options.id});
  }
}

void Site::run_deadlock_detection(Clock::time_point now) {
  if (const auto victim = ctx_.detector.resolve_if_expired(now);
      victim.has_value() && *victim != 0) {
    act_on_victim(*victim);
  }
  if (!ctx_.detector.should_start(now)) return;
  std::vector<SiteId> others;
  for (SiteId site : ctx_.network.sites()) {
    if (site != ctx_.options.id) others.push_back(site);
  }
  const std::uint64_t probe =
      ctx_.detector.begin_probe(ctx_.locks().wfg_edges(), others, now);
  if (others.empty()) {
    // Single-site system: the probe resolves on the local graph alone.
    const auto victim = ctx_.detector.add_reply(probe, ctx_.options.id, {});
    if (victim.has_value() && *victim != 0) act_on_victim(*victim);
    return;
  }
  for (SiteId site : others) {
    ctx_.send(site, net::WfgRequest{probe, ctx_.options.id});
  }
}

// ---------------------------------------------------------------------------
// Placement & membership (src/placement). Dispatcher thread only.
//
// Correctness rests on two orderings:
//  * Epoch fences — every remote request carries the epoch its coordinator
//    routed under, participants reject mismatches, and newly-gained
//    replicas stay fenced until adopted. So no transaction's effects ever
//    straddle two placements.
//  * Local drain before shipping — a source ships a replica only once no
//    transaction of an older epoch still has state *at this site*
//    (pending_acks_ empty). That local condition suffices: any commit
//    reaching this replica must first execute here (creating remote_txns
//    state the drain observes), new old-epoch executes are fenced out, and
//    new-epoch writes also land on the gaining hosts (which are fenced
//    until they adopt a shipped state at least this fresh).
// ---------------------------------------------------------------------------

void Site::load_durable_catalog() {
  leaving_ = false;
  auto text = ctx_.store.load(SiteContext::kCatalogKey);
  if (!text) return;  // fresh store — the configured bootstrap catalog stands
  auto parsed = placement::CatalogEpoch::parse(text.value());
  if (!parsed) {
    DTX_ERROR() << "site " << ctx_.options.id << ": durable catalog unreadable: "
                << parsed.status().to_string();
    return;
  }
  placement::CatalogEpoch durable = std::move(parsed).value();
  // The durable address book supersedes and extends the boot peers:
  // members admitted after this site was configured are only known here.
  for (const auto& [site, address] : durable.addresses) {
    if (site != ctx_.options.id && !address.empty()) {
      ctx_.network.add_peer(site, address);
    }
  }
  const bool member = durable.is_member(ctx_.options.id);
  const bool empty = durable.members.empty();
  ctx_.catalog.install(std::move(durable));  // no-op if the bootstrap is newer
  // A durable epoch that excludes this site is a departure that a crash
  // interrupted: resume shipping replicas away instead of serving.
  leaving_ = !member && !empty;
}

void Site::install_epoch(placement::CatalogEpoch next) {
  const Catalog::View before = ctx_.catalog.view();
  if (!ctx_.catalog.install(std::move(next))) return;  // not strictly newer
  const Catalog::View view = ctx_.catalog.view();
  if (util::Status saved =
          ctx_.store.store(SiteContext::kCatalogKey, view->to_text());
      !saved) {
    DTX_ERROR() << "site " << ctx_.options.id
                << ": persisting catalog epoch " << view->epoch
                << " failed: " << saved.to_string();
  }
  for (const auto& [site, address] : view->addresses) {
    if (site != ctx_.options.id && !address.empty()) {
      ctx_.network.add_peer(site, address);
    }
  }
  const placement::MigrationPlan plan = placement::plan_migration(*before,
                                                                 *view);
  for (const placement::MigrationPlan::Move& move : plan.moves) {
    const bool gaining =
        std::find(move.gains.begin(), move.gains.end(), ctx_.options.id) !=
        move.gains.end();
    const bool source =
        std::find(move.sources.begin(), move.sources.end(), ctx_.options.id) !=
        move.sources.end();
    const bool dropping =
        std::find(move.drops.begin(), move.drops.end(), ctx_.options.id) !=
        move.drops.end();
    if (gaining) {
      // Fence unconditionally, even over lingering local bytes: only an
      // adoption (which merges any local-unique commits) may unfence.
      sync::MutexLock lock(ctx_.part_mutex);
      ctx_.importing_docs.insert(move.doc);
    }
    if (source && (dropping || !move.gains.empty())) {
      ShipState& state = ship_states_[move.doc];
      state.drop_when_done = dropping;
      for (SiteId gain : move.gains) state.pending.insert(gain);
    }
  }
  if (leaving_ && view->is_member(ctx_.options.id)) {
    // Re-admitted while departing (an operator reversal): serve again.
    leaving_ = false;
  }
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ctx_.stats.catalog_epoch = view->epoch;
  }
}

void Site::handle_catalog_update(const net::CatalogUpdate& update) {
  auto parsed = placement::CatalogEpoch::parse(update.catalog);
  if (!parsed) {
    DTX_ERROR() << "site " << ctx_.options.id << ": bad catalog update: "
                << parsed.status().to_string();
    return;
  }
  // Record the ack debt before installing: duplicates re-ack (the admin
  // resends updates it never got an ack for), and the ack only leaves once
  // every older-epoch transaction at this site terminated.
  pending_acks_[update.epoch] = update.admin;
  install_epoch(std::move(parsed).value());
}

bool Site::epoch_drained(std::uint64_t epoch) {
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    for (const auto& [id, txn] : ctx_.transactions) {
      if (!txn->completed() && txn->catalog_epoch() < epoch) return false;
    }
  }
  {
    sync::MutexLock lock(ctx_.part_mutex);
    for (const auto& [id, record] : ctx_.remote_txns) {
      if (record.epoch < epoch) return false;
    }
  }
  return true;
}

void Site::maybe_send_catalog_acks() {
  for (auto it = pending_acks_.begin(); it != pending_acks_.end();) {
    if (epoch_drained(it->first)) {
      ctx_.send(it->second, net::CatalogAck{it->first, ctx_.options.id});
      it = pending_acks_.erase(it);
    } else {
      ++it;
    }
  }
}

void Site::handle_catalog_ack(const net::CatalogAck& ack) {
  if (!pending_join_ || ack.epoch != pending_join_->epoch) return;
  pending_join_->waiting.erase(ack.site);
  if (!pending_join_->waiting.empty()) return;
  // Every old member drained the pre-join epoch: admit the joiner. The
  // JoinReply carries the catalog — the joiner installs it and pulls any
  // replica the migration pushes have not delivered yet.
  const Catalog::View view = ctx_.catalog.view();
  ctx_.send(pending_join_->reply_to,
            net::JoinReply{true, view->epoch, view->to_text(), ""});
  pending_join_.reset();
}

void Site::handle_join_request(net::SiteId from,
                               const net::JoinRequest& request) {
  if (pending_join_ && pending_join_->joiner == request.site) {
    // The joiner's own retry while its admission drains — the eventual
    // JoinReply answers it. Checked before membership: once this site has
    // installed the new epoch the joiner already counts as a member, but
    // the other members may not have drained yet.
    pending_join_->reply_to = from;
    return;
  }
  const Catalog::View view = ctx_.catalog.view();
  if (view->is_member(request.site)) {
    // Idempotent admit — also the catalog-fetch path of a lagging member
    // (Participant::gossip_catalog sends JoinRequest{self} to refresh).
    if (!request.address.empty()) {
      ctx_.network.add_peer(request.site, request.address);
    }
    ctx_.send(from, net::JoinReply{true, view->epoch, view->to_text(), ""});
    return;
  }
  const auto refuse = [&](const char* why) {
    ctx_.send(from, net::JoinReply{false, view->epoch, "", why});
  };
  if (leaving_) return refuse("seed site is decommissioning");
  if (pending_join_) return refuse("another membership change is in flight");
  std::vector<SiteId> members = view->members;
  members.push_back(request.site);
  std::map<SiteId, std::string> addresses;
  if (!request.address.empty()) addresses[request.site] = request.address;
  const placement::CatalogEpoch next =
      placement::rebalance(*view, std::move(members), addresses,
                           ctx_.options.placement_policy,
                           ctx_.options.replication);
  const std::string text = next.to_text();
  PendingJoin pending;
  pending.epoch = next.epoch;
  pending.joiner = request.site;
  pending.reply_to = from;
  pending.catalog = text;
  pending.deadline = Clock::now() + 4 * ctx_.options.response_timeout;
  pending.next_resend = Clock::now() + ctx_.options.response_timeout;
  // This site drains too, member or not: with nothing placed yet the old
  // epoch has no members, and the admission would wait on nobody.
  pending.waiting.insert(view->members.begin(), view->members.end());
  pending.waiting.insert(ctx_.options.id);
  pending_join_ = std::move(pending);
  if (!request.address.empty()) {
    ctx_.network.add_peer(request.site, request.address);
  }
  // Broadcast to every OLD member and this site (the self-send keeps the
  // install path uniform). The joiner is told via the JoinReply once
  // the old epoch drained everywhere.
  for (SiteId member : pending_join_->waiting) {
    ctx_.send(member, net::CatalogUpdate{next.epoch, text, ctx_.options.id});
  }
}

void Site::leave() {
  if (leaving_) return;
  const Catalog::View view = ctx_.catalog.view();
  if (!view->is_member(ctx_.options.id)) {
    leaving_ = true;  // epoch already excludes us — just finish shipping
    return;
  }
  if (view->members.size() <= 1) {
    DTX_ERROR() << "site " << ctx_.options.id
                << ": refusing to decommission the last member";
    return;
  }
  std::vector<SiteId> members;
  for (SiteId member : view->members) {
    if (member != ctx_.options.id) members.push_back(member);
  }
  const placement::CatalogEpoch next =
      placement::rebalance(*view, std::move(members), {},
                           ctx_.options.placement_policy,
                           ctx_.options.replication);
  leaving_ = true;
  const net::CatalogUpdate update{next.epoch, next.to_text(), ctx_.options.id};
  for (SiteId member : view->members) {
    if (member != ctx_.options.id) ctx_.send(member, update);
  }
  // Installed here directly, never over the lossy transport: a lost
  // self-update would leave nothing to ship and, with clients already
  // routed away, no traffic to gossip the epoch back.
  handle_catalog_update(update);
}

std::optional<std::uint64_t> Site::adopt_replica(const std::string& doc,
                                                 std::uint64_t /*version*/,
                                                 const std::string& snapshot,
                                                 const std::string& log) {
  const Catalog::View view = ctx_.catalog.view();
  if (!view->hosts(ctx_.options.id, doc)) return std::nullopt;
  if (!ctx_.is_importing(doc) && ctx_.data().has_document(doc)) {
    // Already serving a replica (duplicate ship) — durable as-is.
    return wal::durable_version(ctx_.store, doc);
  }
  auto shipped = recovery::from_wire(doc, snapshot, log);
  if (!shipped) {
    DTX_ERROR() << "site " << ctx_.options.id << ": shipped replica of '"
                << doc << "' invalid: " << shipped.status().to_string();
    return std::nullopt;
  }
  util::Status durable = util::Status::ok();
  if (ctx_.store.exists(doc)) {
    // Lingering pre-migration bytes: merge by committed-id set, so any
    // local-unique commit survives the adoption.
    recovery::SyncStats sync_stats;
    durable = recovery::sync_document(ctx_.store, doc, {shipped.value()},
                                      sync_stats);
  } else {
    // Fresh replica. Log before snapshot: a crash between the two leaves
    // no document key, which restart re-fences and re-pulls — never a
    // snapshot whose log (and thus version identity) is missing.
    durable = ctx_.store.truncate(wal::log_key(doc));
    if (durable) durable = ctx_.store.append(wal::log_key(doc), log);
    if (durable) durable = ctx_.store.store(doc, snapshot);
  }
  if (!durable) {
    DTX_ERROR() << "site " << ctx_.options.id << ": adopting '" << doc
                << "' failed: " << durable.to_string();
    return std::nullopt;
  }
  {
    // The fence guarantees no engine activity on the document; the
    // exclusive latch orders the (re)load against concurrent readers of
    // *other* documents walking the DataManager.
    auto latch = ctx_.locks().exclusive_data_latch();
    if (util::Status loaded = ctx_.data().load_document(doc); !loaded) {
      DTX_ERROR() << "site " << ctx_.options.id << ": loading adopted '"
                  << doc << "' failed: " << loaded.to_string();
      return std::nullopt;
    }
  }
  {
    sync::MutexLock lock(ctx_.part_mutex);
    ctx_.importing_docs.erase(doc);
  }
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.migrations;
    ctx_.stats.migrated_bytes += snapshot.size() + log.size();
  }
  last_pull_.erase(doc);
  return wal::durable_version(ctx_.store, doc);
}

void Site::handle_migrate_doc(net::SiteId from, const net::MigrateDoc& migrate) {
  net::MigrateAck ack;
  ack.doc = migrate.doc;
  ack.site = ctx_.options.id;
  if (const auto adopted = adopt_replica(migrate.doc, migrate.version,
                                         migrate.snapshot, migrate.log)) {
    ack.ok = true;
    ack.version = *adopted;
  }
  ctx_.send(from, std::move(ack));
}

void Site::handle_migrate_ack(const net::MigrateAck& ack) {
  const auto it = ship_states_.find(ack.doc);
  if (it == ship_states_.end() || !ack.ok) return;
  it->second.pending.erase(ack.site);
  // An empty pending set is resolved by the next reconcile pass (drop the
  // replica if this site left the hosting set).
}

void Site::handle_drop_doc(const net::DropDoc& drop) {
  const Catalog::View view = ctx_.catalog.view();
  if (drop.epoch != view->epoch) return;
  if (view->hosts(ctx_.options.id, drop.doc)) return;
  ship_states_.erase(drop.doc);
  drop_replica(drop.doc);
}

void Site::drop_replica(const std::string& doc) {
  {
    auto latch = ctx_.locks().exclusive_data_latch();
    ctx_.data().drop_document(doc);
  }
  ctx_.snaps().drop_doc(doc);
  if (ctx_.store.exists(doc)) {
    if (util::Status removed = ctx_.store.remove(doc); !removed) {
      DTX_ERROR() << "site " << ctx_.options.id << ": dropping '" << doc
                  << "' failed: " << removed.to_string();
    }
  }
  if (ctx_.store.exists(wal::log_key(doc))) {
    (void)ctx_.store.remove(wal::log_key(doc));
  }
  sync::MutexLock lock(ctx_.part_mutex);
  ctx_.importing_docs.erase(doc);
}

void Site::reconcile_replicas(Clock::time_point now) {
  // Local drain gates every ship (see the block comment above): while an
  // older-epoch transaction still has state here, this replica may yet
  // change.
  if (!pending_acks_.empty()) return;
  if (now - last_reconcile_ < std::chrono::milliseconds(25)) return;
  last_reconcile_ = now;
  const Clock::duration retry = pull_retry();
  const Catalog::View view = ctx_.catalog.view();

  // Restart resume / lingering cleanup: any stored replica this epoch
  // hosts elsewhere must be shipped to the current hosts, even when the
  // install-time diff died with the process.
  for (const std::string& key : ctx_.store.list()) {
    if (DataManager::is_internal_key(key)) continue;
    if (!view->has_document(key)) continue;
    if (view->hosts(ctx_.options.id, key)) continue;
    if (ship_states_.count(key) != 0) continue;
    ShipState state;
    state.drop_when_done = true;
    for (SiteId host : view->sites_of(key)) state.pending.insert(host);
    ship_states_.emplace(key, std::move(state));
  }

  for (auto it = ship_states_.begin(); it != ship_states_.end();) {
    const std::string& doc = it->first;
    ShipState& state = it->second;
    // Targets that left the hosting set in a later epoch never ack.
    for (auto target = state.pending.begin(); target != state.pending.end();) {
      if (view->hosts(*target, doc)) {
        ++target;
      } else {
        target = state.pending.erase(target);
      }
    }
    if (state.pending.empty()) {
      if (state.drop_when_done && !view->hosts(ctx_.options.id, doc)) {
        drop_replica(doc);
      }
      it = ship_states_.erase(it);
      continue;
    }
    if (!ctx_.store.exists(doc)) {  // bytes already gone — nothing to ship
      it = ship_states_.erase(it);
      continue;
    }
    auto durable = recovery::read_stable(ctx_.store, doc);
    if (durable) {
      const std::string log = recovery::flatten_log(durable.value());
      for (SiteId target : state.pending) {
        Clock::time_point& last = state.last_sent[target];
        if (now - last < retry) continue;
        last = now;
        ctx_.send(target, net::MigrateDoc{doc, view->epoch,
                                          durable.value().version,
                                          durable.value().snapshot, log});
      }
    }
    ++it;
  }

  // Fenced imports pull from the other current hosts — the push may have
  // died with a crashed source, and either side alone completes the move.
  std::vector<std::string> importing;
  {
    sync::MutexLock lock(ctx_.part_mutex);
    importing.assign(ctx_.importing_docs.begin(), ctx_.importing_docs.end());
  }
  for (const std::string& doc : importing) {
    Clock::time_point& last = last_pull_[doc];
    if (now - last < retry) continue;
    last = now;
    for (SiteId host : view->sites_of(doc)) {
      if (host != ctx_.options.id) {
        ctx_.send(host, net::RecoveryPullRequest{doc, ctx_.options.id});
      }
    }
  }

  if (leaving_ && ship_states_.empty() && !decommissioned_.load()) {
    // Departure complete once no catalog document remains in the store and
    // every transaction coordinated here terminated. Until the replicas
    // are gone the site keeps coordinating: its new-epoch requests carry
    // the departure epoch to members that missed the broadcast (stale-epoch
    // gossip), which a gaining host needs before it can adopt.
    bool replicas_left = false;
    for (const std::string& key : ctx_.store.list()) {
      if (!DataManager::is_internal_key(key) && view->has_document(key)) {
        replicas_left = true;
        break;
      }
    }
    if (!replicas_left) {
      sync::MutexLock lock(ctx_.coord_mutex);
      draining_ = true;  // submit() admits nothing from here on
      if (ctx_.transactions.empty()) decommissioned_.store(true);
    }
  }
}

void Site::membership_tick(Clock::time_point now) {
  if (leave_requested_.exchange(false)) leave();
  if (!pending_acks_.empty()) maybe_send_catalog_acks();
  if (pending_join_ && now >= pending_join_->deadline) {
    ctx_.send(pending_join_->reply_to,
              net::JoinReply{false, ctx_.catalog.epoch(), "",
                             "catalog drain timed out"});
    pending_join_.reset();
  }
  if (pending_join_ && now >= pending_join_->next_resend) {
    // The update and its acks travel over the lossy transport with no
    // other retry path — re-push to every member still owing a drain ack
    // (handle_catalog_update re-acks duplicates).
    pending_join_->next_resend = now + ctx_.options.response_timeout;
    for (const SiteId member : pending_join_->waiting) {
      ctx_.send(member, net::CatalogUpdate{pending_join_->epoch,
                                           pending_join_->catalog,
                                           ctx_.options.id});
    }
  }
  reconcile_replicas(now);
}

void Site::act_on_victim(TxnId victim) {
  // Alg. 4 l. 7-8: the newest transaction on the cycle is rolled back by
  // its coordinator.
  const SiteId coordinator = txn::txn_coordinator(victim);
  if (coordinator == ctx_.options.id) {
    {
      sync::MutexLock lock(ctx_.coord_mutex);
      ctx_.victim_aborts.push_back(victim);
    }
    ctx_.coord_cv.notify_all();
  } else {
    ctx_.send(coordinator, net::VictimAbort{victim});
  }
}

}  // namespace dtx::core
