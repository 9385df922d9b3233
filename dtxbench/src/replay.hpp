// Single-threaded layer replay: the workload's operations run once more,
// outside the engine, through each layer's public entry point on a
// DataManager loaded with the same fragments —
//   query::compile, LockProtocol::locks_for_query / locks_for_update,
//   DataManager::run_query / run_update / undo_all,
// and net::codec::encode / decode on messages recorded by the traced run.
// It gives per-operation costs the engine's own counters do not have, and
// the expected query rows of the read-only correctness check.
#pragma once

#include <string>
#include <vector>

#include "inputs.hpp"
#include "net/message.hpp"

namespace dtxbench {

struct ReplayTotals {
  double compile_us = 0, lockset_us = 0, eval_point_us = 0, eval_scan_us = 0,
         apply_us = 0, undo_us = 0;
  std::uint64_t ops = 0, point_queries = 0, scan_queries = 0, updates = 0,
                update_txns = 0, txns = 0;
  /// Self time of the layers each transaction runs inside the engine
  /// (lock sets only on the locked path, updates at every replica),
  /// compile excluded — it runs only on a plan-cache miss.
  double engine_path_us = 0;
};

/// Hash of one operation's result rows (FNV-1a, order-sensitive).
std::uint64_t op_rows_hash(const std::vector<std::string>& rows);

/// Hash of a transaction's results: its operations' row hashes, in order
/// (updates contribute the hash of no rows).
std::uint64_t txn_rows_hash(const std::vector<std::uint64_t>& op_hashes);
std::uint64_t txn_rows_hash(const std::vector<std::vector<std::string>>& rows);

/// Expected result hash of every transaction, [client][txn].
using ExpectedRows = std::vector<std::vector<std::uint64_t>>;

/// Replays every transaction of `inputs`. Fills `rows` with the expected
/// result hashes when non-null.
/// Queries of read-only transactions run against the base data, so each
/// distinct query text runs once and its result and timings are reused
/// for its repeats. Returns false (with `error`) when an operation fails
/// to replay.
bool replay_layers(const Inputs& inputs, ReplayTotals& totals,
                   ExpectedRows* rows, std::string& error);

/// Encodes then decodes each message; returns µs per message (encode +
/// decode), 0 for none. Sets `error` on a round-trip mismatch.
double replay_codec(const std::vector<dtx::net::Message>& messages,
                    std::string& error);

}  // namespace dtxbench
