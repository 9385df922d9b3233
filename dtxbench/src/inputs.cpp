#include "inputs.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/rng.hpp"
#include "workload/workload_gen.hpp"
#include "workload/xmark.hpp"

namespace dtxbench {

namespace {

const WorkloadSpec kWorkloads[] = {
    {"read-snapshot", 4'000'000, 0.0, false, false, 300},
    {"write-2pc", 1'000'000, 1.0, true, true, 300},
    {"mixed-contended", 1'000'000, 0.5, false, false, 300},
};

/// Incremental FNV-1a 64 (the engine's checksum, util/hash.hpp), with a
/// separator after every field so field boundaries are part of the hash.
struct Fnv {
  std::uint64_t hash = 1469598103934665603ULL;
  void add(std::string_view text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    hash ^= 0xffu;
    hash *= 1099511628211ULL;
  }
};

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  namespace wl = dtx::workload;
  Inputs inputs;
  wl::XmarkOptions xmark;
  xmark.target_bytes = spec.base_bytes;
  xmark.seed = seed;
  const wl::XmarkData data = wl::generate_xmark(xmark);
  inputs.fragments = wl::fragment_xmark(data, kFragments);
  inputs.placement = wl::place_fragments(inputs.fragments, kSites,
                                         wl::Replication::kPartial, kReplicas);

  Fnv fnv;
  fnv.add(spec.name);
  fnv.add(std::to_string(spec.base_bytes));
  for (const wl::Fragment& fragment : inputs.fragments) {
    fnv.add(fragment.doc_name);
    fnv.add(fragment.xml);
  }
  for (const wl::Placement& placement : inputs.placement) {
    fnv.add(placement.doc);
    for (const auto site : placement.sites) fnv.add(std::to_string(site));
  }

  wl::WorkloadOptions options;
  options.ops_per_transaction = kOpsPerTxn;
  options.update_txn_fraction = spec.update_txn_fraction;
  options.update_op_fraction = kUpdateOpFraction;
  dtx::util::Rng root(seed ^ 0x5eedb0a7c0ffeeULL);
  inputs.clients.resize(kClients);
  for (std::size_t client = 0; client < kClients; ++client) {
    std::vector<wl::Fragment> pool;
    for (std::size_t i = 0; i < inputs.fragments.size(); ++i) {
      if (!spec.disjoint_clients || i % kClients == client) {
        pool.push_back(inputs.fragments[i]);
      }
    }
    wl::WorkloadGenerator generator(pool, options);
    dtx::util::Rng rng = root.split();
    auto& txns = inputs.clients[client];
    txns.reserve(kSlices * spec.txns_per_client);
    for (std::size_t t = 0; t < kSlices * spec.txns_per_client; ++t) {
      TxnInput txn;
      txn.texts = generator.make_transaction(rng, &txn.update);
      for (const std::string& text : txn.texts) {
        fnv.add(text);
        auto op = dtx::txn::parse_operation(text);
        if (!op) {
          std::fprintf(stderr, "dtxbench: generated operation does not parse: %s\n",
                       text.c_str());
          std::exit(3);
        }
        if (op.value().is_update()) txn.update_text_bytes += text.size();
        txn.ops.push_back(std::move(op).value());
      }
      txns.push_back(std::move(txn));
    }
  }
  inputs.fingerprint = fnv.hash;
  return inputs;
}

std::uint64_t input_fingerprint(const WorkloadSpec& spec, std::uint64_t seed) {
  return make_inputs(spec, seed).fingerprint;
}

}  // namespace dtxbench
