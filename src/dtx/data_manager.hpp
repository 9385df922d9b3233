// The DataManager (paper §2.1): "the component used by DTX to interact with
// the XML data storage structure. It is responsible for recovering XML data
// from the storage structure, converting it into a proper representation
// structure, and providing means for updating the data in the storage
// structure."
//
// Per document it keeps the in-memory tree plus its DataGuide, and per
// (transaction, document) an undo log + the transaction's committed *redo*
// operations. Durability is log-structured (dtx/wal.hpp): commit appends
// one framed record of the transaction's update operations to the
// document's redo log — O(delta) in the transaction, never O(document) —
// and a checkpoint policy (SiteOptions::checkpoint_interval /
// checkpoint_log_bytes) periodically compacts log + snapshot. The
// per-document commit version (record numbering) is replica-comparable
// under strict 2PL, which is what lets a restarting Site pull a log
// suffix from its peers when it rejoins (recovery sync).
//
// Only committed operations ever reach the store, so no snapshot can
// capture a concurrent transaction's uncommitted changes: checkpoints are
// deferred while any live transaction holds an undo log on the document
// (the abort-time snapshot scrub this replaced is gone).
//
// NOT thread-safe on its own — the owning LockManager guards it behind a
// reader/writer latch (queries shared, updates / undo / persist exclusive;
// run_checkpoints is the one *shared*-latch mutator: it serializes a
// stable committed tree while readers proceed, internally ordered by a
// checkpoint mutex); see the synchronization note in dtx/lock_manager.hpp.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dataguide/dataguide.hpp"
#include "dtx/wal.hpp"
#include "lock/protocol.hpp"
#include "query/plan.hpp"
#include "storage/storage.hpp"
#include "txn/operation.hpp"
#include "txn/transaction.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"
#include "xml/document.hpp"
#include "xupdate/undo_log.hpp"

namespace dtx::core {

using lock::TxnId;

class SnapshotStore;

class DataManager {
 public:
  /// `checkpoint_interval` / `checkpoint_log_bytes`: compact a document's
  /// redo log into a fresh snapshot after this many logged update
  /// operations / appended log bytes (0 disables that trigger; both 0 =
  /// never checkpoint, recovery replays the whole log). `snapshots`, when
  /// given, is the site's MVCC read layer: persist publishes every
  /// committed delta into it and checkpoints prune its version chains
  /// (dtx/snapshot_store.hpp).
  explicit DataManager(storage::StorageBackend& store,
                       std::size_t checkpoint_interval = 64,
                       std::size_t checkpoint_log_bytes = 1 << 20,
                       SnapshotStore* snapshots = nullptr);

  /// True for internal store keys (redo logs, the commit log, legacy
  /// version sidecars) — skipped by load_all / replica diffs.
  [[nodiscard]] static bool is_internal_key(const std::string& name);

  /// Recovers every document in the storage backend: repairs + parses the
  /// checkpoint snapshot, replays the redo-log tail (wal::read_durable_doc
  /// resolves every checkpoint crash window), builds the DataGuides.
  util::Status load_all();

  /// (Re)loads one document from the storage backend — the replica-adoption
  /// hook of the migration protocol. Same recovery path as load_all for a
  /// single name; an already-loaded entry is replaced (stale bytes from a
  /// pre-migration epoch). Call under the exclusive data latch with no live
  /// transaction state on the document (it must be fenced).
  util::Status load_document(const std::string& name);

  /// Drops one document from memory (replica dropped after migration).
  /// Same preconditions as load_document. The storage keys are the
  /// caller's to remove.
  void drop_document(const std::string& name);

  [[nodiscard]] bool has_document(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> documents() const;

  /// Lock-protocol view of one document (scope id, tree, guide).
  [[nodiscard]] util::Result<lock::DocContext> context_of(
      const std::string& name);

  /// Runs a compiled query plan; returns the matched string values.
  util::Result<std::vector<std::string>> run_query(const query::Plan& plan);

  /// Applies a compiled update plan on behalf of `txn`, maintaining the
  /// DataGuide, the transaction's undo log and its redo operation list.
  /// Returns the number of affected nodes.
  util::Result<std::size_t> run_update(TxnId txn, const query::Plan& plan);

  /// Checkpoint token of txn's undo log on `doc` (for per-operation undo).
  [[nodiscard]] std::size_t undo_checkpoint(TxnId txn, const std::string& doc);

  /// Rolls txn's changes on `doc` back to `token` (undo log + redo list).
  void undo_to(TxnId txn, const std::string& doc, std::size_t token);

  /// Rolls back everything txn changed at this site (Alg. 6 l. 13). Purely
  /// in-memory — no store write can contain uncommitted state. Documents
  /// whose deferred checkpoint became runnable are appended to
  /// `checkpoint_due` (run them via run_checkpoints under a shared latch).
  void undo_all(TxnId txn, std::vector<std::string>* checkpoint_due = nullptr);

  /// Commit durability (Alg. 5 l. 10): appends one redo-log record per
  /// touched document — the transaction's committed update operations,
  /// O(delta) — bumps the commit versions and drops the undo logs.
  /// Documents due for a checkpoint are appended to `checkpoint_due`.
  util::Status persist(TxnId txn,
                       std::vector<std::string>* checkpoint_due = nullptr);

  /// Compacts the named documents' logs into fresh snapshots. Call under a
  /// *shared* data latch: updates are excluded (the committed tree is
  /// stable) while same-site readers proceed — whole-document
  /// serialization never blocks queries. A document some live transaction
  /// is writing is skipped and retried at that transaction's finish.
  void run_checkpoints(const std::vector<std::string>& docs);

  /// Total number of live document nodes at this site (sizing metric).
  [[nodiscard]] std::size_t total_nodes() const;

  /// Total number of DataGuide nodes at this site.
  [[nodiscard]] std::size_t total_guide_nodes() const;

  /// Commit version of a loaded document (0 when unknown).
  [[nodiscard]] std::uint64_t version_of(const std::string& doc) const;

  /// Number of live undo logs — the chaos invariant "undo logs drained"
  /// (every one belongs to an in-flight transaction; 0 when quiescent).
  [[nodiscard]] std::size_t undo_log_count() const {
    return txn_states_.size();
  }

 private:
  struct DocEntry {
    std::uint64_t scope = 0;
    std::uint64_t version = 0;  ///< commits persisted (count; per-replica)
    /// Transaction ids of every persisted commit, in this replica's
    /// commit order — written into checkpoint markers so compaction never
    /// erases commit identity (the recovery sync compares replicas by
    /// this set, not by version position).
    std::vector<TxnId> history;
    /// Redo-log growth since the last checkpoint (the compaction policy).
    std::size_t log_ops = 0;
    std::size_t log_bytes = 0;
    /// Compaction due but deferred (store failure or live writers at the
    /// time); retried at the next commit / abort touching the document.
    bool checkpoint_pending = false;
    std::unique_ptr<xml::Document> document;
    std::unique_ptr<dataguide::DataGuide> guide;
  };

  /// Per-(transaction, document) execution state: the undo log, the redo
  /// operations committed so far (their textual form — the wire format,
  /// re-parsed on replay), and the undo-token -> redo-length marks that
  /// keep the two aligned when a single operation is undone (Alg. 1
  /// l. 16).
  struct TxnDocState {
    xupdate::UndoLog undo;
    std::vector<std::string> redo;
    std::map<std::size_t, std::size_t> redo_marks;
  };

  DocEntry* entry_of(const std::string& name);
  /// Empties every undo log on `doc` before its tree goes away: the
  /// subtrees they hold live in that tree's node pool. Callers fence the
  /// document first, so there are normally none.
  void drop_undo_of(const std::string& doc);
  /// The (txn, doc) state, created on first use (tracked in docs_of_txn_
  /// and live_writers_ so per-transaction cleanup is O(touched docs) and
  /// checkpoints know which documents carry uncommitted changes).
  TxnDocState& state_of(TxnId txn, const std::string& doc);
  /// Serialize + checkpoint one entry (marker append, snapshot replace,
  /// log compaction). Caller must hold checkpoint_mutex_ or be
  /// single-threaded (load_all).
  void checkpoint_doc(const std::string& doc, DocEntry& entry);
  /// Flags the entry when the compaction policy triggers; appends to
  /// `due` when the checkpoint can run now (no live writers).
  void note_checkpoint_policy(const std::string& doc, DocEntry& entry,
                              std::vector<std::string>* due);

  storage::StorageBackend& store_;
  const std::size_t checkpoint_interval_;
  const std::size_t checkpoint_log_bytes_;
  SnapshotStore* const snapshots_;  ///< MVCC read layer; may be null
  std::map<std::string, DocEntry> documents_;
  std::uint64_t next_scope_ = 1;
  std::map<std::pair<TxnId, std::string>, TxnDocState> txn_states_;
  /// Reverse indexes of txn_states_: by transaction (O(touched-docs)
  /// cleanup at commit / abort) and by document (live-writer counts — a
  /// document with any is not checkpointable yet).
  std::map<TxnId, std::set<std::string>> docs_of_txn_;
  std::map<std::string, std::size_t> live_writers_;
  /// Orders concurrent run_checkpoints callers (each holds the data latch
  /// shared). Storage and snapshot-store mutexes are acquired under it
  /// (checkpoint_doc compacts the log and prunes the version chains).
  sync::Mutex checkpoint_mutex_{sync::LockRank::kCheckpoint};
};

}  // namespace dtx::core
