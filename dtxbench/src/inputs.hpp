// Workload definitions and input generation. Every input comes from the
// engine's own generators in src/workload/ (generate_xmark, fragment_xmark,
// place_fragments, WorkloadGenerator), driven by the run's seed; the
// benchmark only chooses their parameters. The inputs are hashed into a
// fingerprint so a change to what the benchmark runs cannot pass silently.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "txn/operation.hpp"
#include "workload/fragmentation.hpp"

namespace dtxbench {

inline constexpr std::size_t kSites = 4;
inline constexpr std::size_t kClients = 4;  // one per site, homed there
inline constexpr std::size_t kReplicas = 2;
inline constexpr std::size_t kFragments = 8;  // requested; see README
inline constexpr std::size_t kOpsPerTxn = 5;
inline constexpr double kUpdateOpFraction = 0.2;
/// Each client's list holds kSlices rounds' worth of transactions; a run's
/// n-th round of a kind executes slice n mod kSlices. Rotating slices
/// spreads a run over 4x as many distinct transactions, so a seed's
/// particular mix (how many scan-heavy transactions sit in the tail)
/// weighs less on the figures.
inline constexpr std::size_t kSlices = 4;

struct WorkloadSpec {
  std::string name;
  std::size_t base_bytes = 0;
  /// Share of update transactions (the rest are read-only).
  double update_txn_fraction = 0.0;
  /// Sites talk over loopback TCP, clients use RemoteSession, and every
  /// site stores into a FileStore; otherwise SimNetwork + MemoryStore +
  /// in-process submission.
  bool production_wire = false;
  /// Client c draws only from fragments whose index mod kClients == c.
  bool disjoint_clients = false;
  /// Transactions each client executes per round (fixed work).
  std::size_t txns_per_client = 0;
};

/// The three workloads; nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

struct TxnInput {
  std::vector<std::string> texts;          ///< the workload-file form
  std::vector<dtx::txn::Operation> ops;    ///< parsed once
  bool update = false;
  std::size_t update_text_bytes = 0;       ///< text of its update ops
};

struct Inputs {
  std::vector<dtx::workload::Fragment> fragments;
  std::vector<dtx::workload::Placement> placement;
  std::vector<std::vector<TxnInput>> clients;  ///< [client][txn], kSlices
                                               ///< slices of txns_per_client
  std::uint64_t fingerprint = 0;
};

/// Deterministic in (spec, seed). Fails only on a generator bug.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Fingerprint alone (same hash as make_inputs().fingerprint).
std::uint64_t input_fingerprint(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace dtxbench
