// Participant (paper Alg. 2): executes slices of distributed transactions
// and their commit / abort / fail messages ("this procedure is also common
// to the coordinator" — every site runs both roles, and a coordinator's own
// slice is served here too). A slice is every remaining operation of one
// transaction that this site hosts: it runs in transaction order under the
// XDGL locks, stops at the first operation that does not execute, and is
// answered with one OperationResult. The Site runs
// `SiteOptions::participant_workers` threads over one shared Participant.
// Workers only pick up a request when no other worker is serving the same
// transaction (SiteContext::participant_active), so per-transaction
// requests are processed serially and in arrival order — the ordering the
// seed's single participant thread provided; requests of *different*
// transactions run concurrently.
#pragma once

#include "dtx/site_context.hpp"

namespace dtx::core {

class Participant {
 public:
  explicit Participant(SiteContext& ctx) : ctx_(ctx) {}

  Participant(const Participant&) = delete;
  Participant& operator=(const Participant&) = delete;

  /// Worker body: pops the participant queue and serves requests. Any
  /// number of threads may run it concurrently.
  void run();

 private:
  /// Runs one slice. A newer attempt first undoes, newest first, every
  /// operation from the slice's first one on that an earlier attempt left
  /// here; a duplicated delivery is answered from the reply cache. A slice
  /// of this site's own transaction runs only while the coordinator awaits
  /// its round.
  void handle_execute(const net::ExecuteOperation& request);
  /// MVCC serving path: evaluates a read-only transaction's queries
  /// against this site's versioned snapshots. Stateless single round — no
  /// locks, no undo logs, no remote-transaction tracking, so the orphan
  /// sweep and the commit/abort fan-out never see these transactions.
  void handle_snapshot_read(const net::SnapshotReadRequest& request);
  void handle_undo(const net::UndoOperation& request);
  void handle_commit(const net::CommitRequest& request, SiteId from);
  void handle_abort(const net::AbortRequest& request, SiteId from);
  void handle_fail(const net::FailNotice& request);
  /// Presumed-abort resolution of an orphaned remote transaction: commit
  /// it (the coordinator decided commit and the CommitRequest was lost) or
  /// roll it back via the undo log (aborted / coordinator lost its state).
  void handle_status_reply(const net::TxnStatusReply& reply);

  /// Catalog anti-entropy, piggybacked on epoch-mismatched requests: a
  /// peer behind this site's epoch is sent the current catalog
  /// (CatalogUpdate); a peer ahead is asked for its catalog
  /// (JoinRequest{self} — answered with a JoinReply by the idempotent
  /// already-member path). No-op when the epochs agree.
  void gossip_catalog(SiteId peer, std::uint64_t peer_epoch);

  /// False for a slice of a transaction this site coordinates whose round
  /// the coordinator no longer awaits (it ended or timed out); true for
  /// every other slice.
  bool coordinator_awaits(const net::ExecuteOperation& request);
  /// Refreshes the orphan-sweep clock of a tracked remote transaction.
  void touch_remote_txn(lock::TxnId txn);
  /// Drops the tracking record (transaction terminated at this site).
  void forget_remote_txn(lock::TxnId txn);

  SiteContext& ctx_;
};

}  // namespace dtx::core
