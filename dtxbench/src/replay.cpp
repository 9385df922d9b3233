#include "replay.hpp"

#include <unordered_map>

#include "dtx/data_manager.hpp"
#include "lock/protocol.hpp"
#include "net/codec.hpp"
#include "query/plan.hpp"
#include "storage/memory_store.hpp"
#include "trace.hpp"

namespace dtxbench {

namespace {

/// Times `call` as a span named `name`; returns its duration in µs.
template <typename F>
double timed(std::uint16_t name, std::uint64_t txn, F&& call) {
  SpanScope span(name, txn);
  const std::int64_t start = now_ns();
  call();
  return static_cast<double>(now_ns() - start) / 1e3;
}

bool is_point_query(const std::string& text) {
  return text.find("[@id=") != std::string::npos;
}

/// A base-data query already replayed: its rows' hash and timings.
struct Replayed {
  std::uint64_t rows_hash = 0;
  double compile_us = 0, lockset_us = 0, eval_us = 0;
};

void fnv_add(std::uint64_t& hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
}

}  // namespace

std::uint64_t op_rows_hash(const std::vector<std::string>& rows) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const std::string& row : rows) {
    fnv_add(hash, std::to_string(row.size()));
    fnv_add(hash, ":");
    fnv_add(hash, row);
  }
  return hash;
}

std::uint64_t txn_rows_hash(const std::vector<std::uint64_t>& op_hashes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const std::uint64_t op : op_hashes) {
    fnv_add(hash, std::string_view(reinterpret_cast<const char*>(&op), sizeof op));
  }
  return hash;
}

std::uint64_t txn_rows_hash(const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::uint64_t> op_hashes;
  op_hashes.reserve(rows.size());
  for (const auto& op : rows) op_hashes.push_back(op_rows_hash(op));
  return txn_rows_hash(op_hashes);
}

namespace {

}  // namespace

bool replay_layers(const Inputs& inputs, ReplayTotals& totals,
                   ExpectedRows* rows, std::string& error) {
  Tracer& tracer = Tracer::instance();
  const std::uint16_t kCompile = tracer.intern("replay.query.compile");
  const std::uint16_t kLockset = tracer.intern("replay.lock.lockset");
  const std::uint16_t kPoint = tracer.intern("replay.xpath.eval.point");
  const std::uint16_t kScan = tracer.intern("replay.xpath.eval.scan");
  const std::uint16_t kApply = tracer.intern("replay.xupdate.apply");
  const std::uint16_t kUndo = tracer.intern("replay.xupdate.undo");

  dtx::storage::MemoryStore store;
  for (const auto& fragment : inputs.fragments) {
    if (auto stored = store.store(fragment.doc_name, fragment.xml); !stored) {
      error = "replay store: " + stored.to_string();
      return false;
    }
  }
  // No checkpoints: the replay never persists, and undo_all rolls every
  // update back, so each transaction sees the base data.
  dtx::core::DataManager data(store, 0, 0);
  if (auto loaded = data.load_all(); !loaded) {
    error = "replay load: " + loaded.to_string();
    return false;
  }
  auto protocol = dtx::lock::make_protocol(dtx::lock::ProtocolKind::kXdgl);

  if (rows != nullptr) rows->assign(inputs.clients.size(), {});
  std::unordered_map<std::string, Replayed> base_queries;
  std::uint64_t txn_id = 0;
  for (std::size_t c = 0; c < inputs.clients.size(); ++c) {
    for (const TxnInput& txn : inputs.clients[c]) {
      ++txn_id;
      ++totals.txns;
      std::vector<std::uint64_t> txn_rows;
      for (std::size_t i = 0; i < txn.ops.size(); ++i) {
        ++totals.ops;
        if (!txn.update) {
          const auto hit = base_queries.find(txn.texts[i]);
          if (hit != base_queries.end()) {
            const Replayed& seen = hit->second;
            const bool point = is_point_query(txn.texts[i]);
            ++(point ? totals.point_queries : totals.scan_queries);
            totals.compile_us += seen.compile_us;
            totals.lockset_us += seen.lockset_us;
            (point ? totals.eval_point_us : totals.eval_scan_us) += seen.eval_us;
            totals.engine_path_us += seen.eval_us;
            txn_rows.push_back(seen.rows_hash);
            continue;
          }
        }
        double compile_us = 0;
        dtx::util::Result<dtx::query::Plan> plan =
            dtx::util::Status(dtx::util::Code::kInternal, "not compiled");
        compile_us = timed(kCompile, txn_id, [&] {
          plan = dtx::query::compile(txn.ops[i]);
        });
        totals.compile_us += compile_us;
        if (!plan) {
          error = "replay compile: " + plan.status().to_string();
          return false;
        }
        auto context = data.context_of(plan.value().doc());
        if (!context) {
          error = "replay context: " + context.status().to_string();
          return false;
        }
        bool ok = true;
        if (plan.value().is_update()) {
          ++totals.updates;
          const double lockset_us = timed(kLockset, txn_id, [&] {
            ok = protocol
                     ->locks_for_update(plan.value().update(), context.value(),
                                        plan.value().prematch())
                     .is_ok();
          });
          const double apply_us = timed(kApply, txn_id, [&] {
            ok = ok && data.run_update(txn_id, plan.value()).is_ok();
          });
          totals.lockset_us += lockset_us;
          totals.apply_us += apply_us;
          totals.engine_path_us +=
              (lockset_us + apply_us) * static_cast<double>(kReplicas);
          txn_rows.push_back(op_rows_hash({}));
        } else {
          const bool point = is_point_query(txn.texts[i]);
          ++(point ? totals.point_queries : totals.scan_queries);
          const double lockset_us = timed(kLockset, txn_id, [&] {
            ok = protocol->locks_for_query(plan.value().query(), context.value())
                     .is_ok();
          });
          dtx::util::Result<std::vector<std::string>> result =
              std::vector<std::string>{};
          const double eval_us = timed(point ? kPoint : kScan, txn_id, [&] {
            result = data.run_query(plan.value());
          });
          ok = ok && result.is_ok();
          totals.lockset_us += lockset_us;
          (point ? totals.eval_point_us : totals.eval_scan_us) += eval_us;
          // Read-only transactions take the snapshot path: no lock set.
          totals.engine_path_us += eval_us + (txn.update ? lockset_us : 0.0);
          if (result) {
            const std::uint64_t rows_hash = op_rows_hash(result.value());
            if (!txn.update) {
              base_queries.emplace(txn.texts[i],
                                   Replayed{rows_hash, compile_us, lockset_us, eval_us});
            }
            txn_rows.push_back(rows_hash);
          }
        }
        if (!ok) {
          error = "replay failed on: " + txn.texts[i];
          return false;
        }
      }
      if (txn.update) {
        ++totals.update_txns;
        totals.undo_us += timed(kUndo, txn_id, [&] { data.undo_all(txn_id); });
      }
      if (rows != nullptr) (*rows)[c].push_back(txn_rows_hash(txn_rows));
    }
  }
  if (data.undo_log_count() != 0) {
    error = "replay left undo logs behind";
    return false;
  }
  return true;
}

double replay_codec(const std::vector<dtx::net::Message>& messages,
                    std::string& error) {
  if (messages.empty()) return 0.0;
  Tracer& tracer = Tracer::instance();
  const std::uint16_t kEncode = tracer.intern("replay.net.codec.encode");
  const std::uint16_t kDecode = tracer.intern("replay.net.codec.decode");
  double total_us = 0.0;
  std::string frame;
  for (const dtx::net::Message& message : messages) {
    total_us += timed(kEncode, 0, [&] { frame = dtx::net::codec::encode(message); });
    bool same = false;
    total_us += timed(kDecode, 0, [&] {
      auto decoded = dtx::net::codec::decode(frame);
      same = decoded.is_ok() &&
             decoded.value().payload.index() == message.payload.index();
    });
    if (!same && error.empty()) {
      error = std::string("codec round trip failed for ") +
              dtx::net::payload_name(message.payload);
    }
  }
  return total_us / static_cast<double>(messages.size());
}

}  // namespace dtxbench
