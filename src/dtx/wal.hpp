// Per-document redo log (WAL) with checkpoint markers — the durability
// format of the DataManager.
//
// Storage layout per document `d`:
//
//   d       — checkpoint snapshot: serialized XML of some committed version
//             (initially the bytes load_document placed = version 0).
//   d.~log  — append-only redo log. Two entry kinds:
//
//               R <version> <txn> <op_count> <payload_len> <payload_hash>\n
//               <payload>                  (one commit's update operations)
//
//               C <version> <snapshot_hash> <id_count> <id...>\n
//                                                  (checkpoint marker)
//
//             A commit record's payload is `<len> <op_text>\n` per
//             operation (the txn::Operation textual form, round-trippable
//             through txn::parse_operation); payload_len/payload_hash
//             frame it so a torn append is detected and dropped. A marker
//             carries the transaction ids of *every* commit inside the
//             snapshot, so compaction never erases commit identity.
//
// There is deliberately NO separate version sidecar: the version of the
// snapshot bytes is resolved by hashing them and finding the *last*
// checkpoint marker in the log with that hash. A checkpoint therefore is
// three ordered writes — append C marker, atomically replace the
// snapshot, compact the log down to the marker — and a crash between any
// two of them leaves a state this module resolves exactly:
//
//   * after the marker, before the snapshot: the bytes still hash to an
//     older marker (or to no marker = the initial version-0 load), so the
//     records between that older version and the log tail replay;
//   * after the snapshot, before compaction: the bytes hash to the new
//     marker; every record at or below it is skipped and the next repair
//     compacts them away.
//
// Commit durability is a single append of one R record — O(delta), never
// O(document) — and only *committed* operations are ever written, so no
// store state can capture a concurrent transaction's uncommitted changes
// (the bug class the former abort-time snapshot scrub existed to undo).
//
// The committed state of a document is snapshot + replayed log tail.
// Commits of *conflicting* transactions are ordered identically at every
// replica by strict 2PL; commits of non-conflicting ones (disjoint lock
// sets on the same document — their operations commute) may land in
// different orders, so a record's version number is a per-replica
// position, NOT a cross-replica identity. Cross-replica comparison is by
// committed-transaction-id *set*: the marker ids plus the tail record
// ids enumerate exactly which commits a replica holds, and recovery sync
// ships the records a rejoining replica is missing (renumbered onto its
// own tail — recovery::sync_document, run by Site::restart).
//
// Known scale trade-off: a marker carries the document's full commit-id
// history, so marker size grows linearly with lifetime commits (8-20
// bytes per commit). Exact set membership is what makes full adoption
// able to re-apply a local-unique record without double-applying it; a
// production deployment would bound this with a pruning horizon (ids
// older than any replica could be lagging) and fall back to full
// adoption across the horizon. At this reproduction's scale (thousands
// of commits per document) the exact history is the right simplicity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataguide/dataguide.hpp"
#include "lock/lock_table.hpp"
#include "storage/storage.hpp"
#include "util/status.hpp"
#include "xml/document.hpp"

namespace dtx::core::wal {

/// Storage key of a document's redo log.
[[nodiscard]] inline std::string log_key(const std::string& doc) {
  return doc + ".~log";
}

/// Deterministic FNV-1a 64 of a byte string (snapshot + payload hashes).
[[nodiscard]] std::uint64_t fnv1a(const std::string& text) noexcept;

/// One parsed log entry: a commit record (kind kRecord, carrying the
/// committed update operations) or a checkpoint marker (kind kCheckpoint,
/// carrying the snapshot hash).
struct LogEntry {
  enum class Kind : std::uint8_t { kRecord, kCheckpoint };
  Kind kind = Kind::kRecord;
  std::uint64_t version = 0;  ///< post-commit / snapshot version
  std::uint64_t hash = 0;     ///< kCheckpoint: snapshot-bytes hash
  lock::TxnId txn = 0;        ///< kRecord: committing transaction
  std::vector<std::string> ops;  ///< kRecord: serialized update operations
  std::vector<lock::TxnId> ids;  ///< kCheckpoint: commits in the snapshot
  std::string raw;  ///< exact encoded bytes (repair / adoption re-writes)
};

/// Encodes a commit record (one append = one commit).
[[nodiscard]] std::string encode_record(std::uint64_t version,
                                        lock::TxnId txn,
                                        const std::vector<std::string>& ops);

/// Encodes a checkpoint marker line; `ids` are the transaction ids of
/// every commit the snapshot contains, in this replica's commit order.
[[nodiscard]] std::string encode_checkpoint(
    std::uint64_t version, std::uint64_t snapshot_hash,
    const std::vector<lock::TxnId>& ids);

/// Result of validating a raw log: the longest valid entry prefix. `torn`
/// is true when trailing bytes failed validation (torn append / garbage);
/// they are excluded and `valid_bytes` marks where the good prefix ends.
struct LogScan {
  std::vector<LogEntry> entries;
  std::size_t valid_bytes = 0;
  bool torn = false;
};
[[nodiscard]] LogScan scan_log(const std::string& raw);

/// The resolved durable state of one document: snapshot + the record tail
/// that replays on top of it.
struct DurableDoc {
  std::string snapshot;  ///< checkpoint bytes (version `checkpoint_version`)
  std::uint64_t checkpoint_version = 0;
  /// Transaction ids of the commits inside the snapshot (marker ids).
  std::vector<lock::TxnId> checkpoint_ids;
  std::string marker_raw;      ///< matched marker's exact bytes ("" = none)
  std::vector<LogEntry> tail;  ///< records checkpoint_version+1.., in order
  std::uint64_t version = 0;   ///< checkpoint_version + tail.size()
  bool torn_tail = false;      ///< log ended in a torn / invalid append
  /// Log holds entries the snapshot already covers (interrupted
  /// checkpoint) or invalid bytes — repair() compacts them away.
  bool needs_repair = false;
  /// False when snapshot and log disagree (bytes match no marker but the
  /// log starts past version 1) — only observable when racing a live
  /// writer's checkpoint; re-read.
  bool consistent = true;
};

/// Loads snapshot + log and resolves the crash windows documented above.
/// kNotFound when the document was never stored.
[[nodiscard]] util::Result<DurableDoc> read_durable_doc(
    storage::StorageBackend& store, const std::string& doc);

/// Rewrites the log to exactly match the resolved view: the checkpoint
/// marker (when one exists) followed by the valid record tail. Drops torn
/// bytes and already-checkpointed entries. No-op when nothing needs it.
util::Status repair(storage::StorageBackend& store, const std::string& doc,
                    const DurableDoc& durable);

/// Replays record operations onto a document through the normal update
/// applier, maintaining `guide` when given (the DataManager passes its
/// incrementally-maintained one; nullptr rebuilds none). Non-update
/// operations in a record are skipped — queries are never logged, and a
/// stray one has no effect to redo. `doc` labels error messages.
util::Status apply_records(const std::vector<LogEntry>& records,
                           xml::Document& document,
                           dataguide::DataGuide* guide,
                           const std::string& doc);

/// Parses the snapshot and replays the record tail: the committed
/// document. The parsed tree is what a restarted DataManager rebuilds.
[[nodiscard]] util::Result<std::unique_ptr<xml::Document>> replay(
    const DurableDoc& durable, const std::string& doc);

/// Committed document, materialized from the store (snapshot + replayed
/// tail) and re-serialized. The read-side counterpart of the O(delta)
/// commit path — used by replica audits and tests.
[[nodiscard]] util::Result<std::string> materialize(
    storage::StorageBackend& store, const std::string& doc);

/// Like replay(), but stops at commit `version`: parses the snapshot and
/// replays only the tail records at or below it — the document exactly as
/// it stood after that commit. kNotFound when the state is no longer
/// durable: a checkpoint compacted past `version`, or `version` is ahead
/// of the log head (stale read of a live log).
[[nodiscard]] util::Result<std::unique_ptr<xml::Document>> replay_to(
    const DurableDoc& durable, std::uint64_t version, const std::string& doc);

/// One historical committed version rebuilt from the store: snapshot +
/// replayed records up to `version`. The MVCC fallback for snapshot reads
/// whose target aged out of the in-memory version chain
/// (dtx/snapshot_store.hpp).
[[nodiscard]] util::Result<std::unique_ptr<xml::Document>> materialize_at(
    storage::StorageBackend& store, const std::string& doc,
    std::uint64_t version);

/// Durable commit version of `doc` in `store` (0 when absent) — the
/// replica-freshness comparison of the recovery sync.
[[nodiscard]] std::uint64_t durable_version(storage::StorageBackend& store,
                                            const std::string& doc);

}  // namespace dtx::core::wal
