// Replica recovery sync: catching a restarting site's redo logs up to the
// freshest peer replica of each document it hosts. Site::start (with
// Startup::kRecover) pulls every other host's durable state over
// net::Network (RecoveryPullRequest/Reply, answered only by
// Site::answer_recovery_pull) and merges each document's answers with one
// sync_document() call — the same code on SimNetwork and in dtxd.
//
// A record's version number is a per-replica position (commits of
// non-conflicting transactions may land in different orders at different
// replicas), so replicas are compared by committed-transaction-id *set*:
// checkpoint-marker ids plus tail record ids enumerate exactly which
// commits a replica holds. The normal path appends the peer records this
// replica is missing, renumbered onto the local tail — O(missed commits),
// not O(document); their operations commute with everything already here
// (conflicting commits are identically ordered everywhere). Only when the
// freshest peer compacted a missing commit into its snapshot is its whole
// checkpoint + log adopted, with local-unique tail records re-appended on
// top so no durable commit decision is lost.
#pragma once

#include <string>
#include <vector>

#include "dtx/wal.hpp"
#include "storage/storage.hpp"
#include "util/status.hpp"

namespace dtx::core::recovery {

struct SyncStats {
  /// Documents caught up by appending a peer's record suffix.
  std::uint64_t log_suffix_syncs = 0;
  /// Documents that adopted a whole peer checkpoint + log.
  std::uint64_t full_syncs = 0;
};

/// Reads a stable durable state of `doc`, retrying reads that straddled a
/// live writer's checkpoint (wal::read_durable_doc flags those via
/// `consistent`). Errors out after `attempts` unstable reads.
util::Result<wal::DurableDoc> read_stable(storage::StorageBackend& store,
                                          const std::string& doc,
                                          int attempts = 50);

/// The serialized log of a durable state — exactly the bytes a repaired
/// replica stores under wal::log_key (checkpoint marker + record tail).
/// This is what RecoveryPullReply ships.
std::string flatten_log(const wal::DurableDoc& durable);

/// Reconstructs a durable state from its wire form (snapshot bytes + the
/// flattened log) — the receiving side of a recovery pull.
util::Result<wal::DurableDoc> from_wire(const std::string& doc,
                                        const std::string& snapshot,
                                        const std::string& log);

/// Catches the local replica of `doc` in `store` up to the freshest of
/// `peers` (each a stable durable state of the same document; empty =
/// unreplicated, no-op). Repairs the local log first (torn tails,
/// interrupted checkpoints), then ships the missing record suffix or
/// adopts the best peer's checkpoint as described above. Call only while
/// the local site is down.
util::Status sync_document(storage::StorageBackend& store,
                           const std::string& doc,
                           const std::vector<wal::DurableDoc>& peers,
                           SyncStats& stats);

}  // namespace dtx::core::recovery
