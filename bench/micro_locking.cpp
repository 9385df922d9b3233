// Micro-benchmarks for the locking layer: lock-table throughput, the
// per-operation lock-set sizes of the three protocols (the paper's "lock
// management overhead" argument in numbers), and wait-for-graph cycle
// detection.
#include <benchmark/benchmark.h>

#include "dataguide/dataguide.hpp"
#include "lock/lock_table.hpp"
#include "lock/protocol.hpp"
#include "util/rng.hpp"
#include "wfg/wait_for_graph.hpp"
#include "workload/xmark.hpp"
#include "xpath/parser.hpp"
#include "xupdate/applier.hpp"
#include "xupdate/update_op.hpp"

namespace {

using namespace dtx;

void BM_LockTableAcquireRelease(benchmark::State& state) {
  lock::LockTable table;
  const auto targets = static_cast<std::uint64_t>(state.range(0));
  std::vector<lock::LockRequest> requests;
  for (std::uint64_t i = 0; i < targets; ++i) {
    requests.push_back({lock::LockTarget{1, i}, lock::LockMode::kIS});
  }
  for (auto _ : state) {
    auto outcome = table.try_acquire_all(1, requests);
    benchmark::DoNotOptimize(outcome);
    table.release_all(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(targets));
}
BENCHMARK(BM_LockTableAcquireRelease)->Arg(8)->Arg(64)->Arg(1024);

// The sharded table under true multi-threaded load: each benchmark thread
// drives its own transactions over a shared target space, so shard mutexes
// (not one monitor) are what is measured. Arg0 = shard count; compare
// shards=1 (the historical single monitor) against sharded runs at the
// same thread count.
void BM_ShardedLockTableThreaded(benchmark::State& state) {
  static lock::LockTable* table = nullptr;
  if (state.thread_index() == 0) {
    table = new lock::LockTable(static_cast<std::size_t>(state.range(0)));
  }
  constexpr std::uint64_t kNodeSpace = 256;
  const auto base =
      static_cast<lock::TxnId>(state.thread_index()) * 1'000'000 + 1;
  lock::TxnId txn = base;
  std::uint64_t node = static_cast<std::uint64_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    std::vector<lock::LockRequest> requests;
    requests.reserve(8);
    for (int i = 0; i < 8; ++i) {
      node = (node * 2862933555777941757ULL + 3037000493ULL);
      requests.push_back(
          {lock::LockTarget{1, node % kNodeSpace}, lock::LockMode::kIS});
    }
    auto outcome = table->try_acquire_all(txn, requests);
    benchmark::DoNotOptimize(outcome);
    table->release_all(txn);
    ++txn;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
  if (state.thread_index() == 0) {
    state.SetLabel("shards=" + std::to_string(state.range(0)));
    delete table;
    table = nullptr;
  }
}
BENCHMARK(BM_ShardedLockTableThreaded)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Threads(1)
    ->Threads(4);

void BM_LockTableContendedCheck(benchmark::State& state) {
  lock::LockTable table;
  // 16 readers hold ST on one target; measure the denied X probe.
  for (lock::TxnId txn = 1; txn <= 16; ++txn) {
    (void)table.try_acquire(txn, {lock::LockTarget{1, 7}, lock::LockMode::kST});
  }
  for (auto _ : state) {
    auto outcome =
        table.try_acquire(99, {lock::LockTarget{1, 7}, lock::LockMode::kX});
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_LockTableContendedCheck);

struct ProtocolFixtureData {
  workload::XmarkData data;
  std::unique_ptr<dataguide::DataGuide> guide;
  ProtocolFixtureData() {
    workload::XmarkOptions options;
    options.target_bytes = 200'000;
    data = workload::generate_xmark(options);
    guide = dataguide::DataGuide::build(*data.document);
  }
  lock::DocContext context() {
    return lock::DocContext{1, *data.document, *guide};
  }
};

ProtocolFixtureData& fixture() {
  static ProtocolFixtureData instance;
  return instance;
}

void BM_LockSetQuery(benchmark::State& state) {
  const auto kind = static_cast<lock::ProtocolKind>(state.range(0));
  auto protocol = lock::make_protocol(kind);
  auto context = fixture().context();
  auto path = xpath::parse("/site/people/person/name");  // scan
  std::size_t lock_count = 0;
  for (auto _ : state) {
    auto locks = protocol->locks_for_query(path.value(), context);
    lock_count = locks.value().size();
    benchmark::DoNotOptimize(locks);
  }
  // The paper's central overhead claim, quantified: locks per scan.
  state.counters["locks_per_op"] = static_cast<double>(lock_count);
  state.SetLabel(protocol->name());
}
BENCHMARK(BM_LockSetQuery)
    ->Arg(static_cast<int>(lock::ProtocolKind::kXdgl))
    ->Arg(static_cast<int>(lock::ProtocolKind::kNode2pl))
    ->Arg(static_cast<int>(lock::ProtocolKind::kDocLock2pl));

void BM_LockSetInsert(benchmark::State& state) {
  const auto kind = static_cast<lock::ProtocolKind>(state.range(0));
  auto protocol = lock::make_protocol(kind);
  auto context = fixture().context();
  auto op = xupdate::make_insert("/site/people",
                                 "<person id=\"bench\"><name>b</name></person>");
  std::size_t lock_count = 0;
  for (auto _ : state) {
    auto locks = protocol->locks_for_update(op.value(), context);
    lock_count = locks.value().size();
    benchmark::DoNotOptimize(locks);
  }
  state.counters["locks_per_op"] = static_cast<double>(lock_count);
  state.SetLabel(protocol->name());
}
BENCHMARK(BM_LockSetInsert)
    ->Arg(static_cast<int>(lock::ProtocolKind::kXdgl))
    ->Arg(static_cast<int>(lock::ProtocolKind::kNode2pl))
    ->Arg(static_cast<int>(lock::ProtocolKind::kDocLock2pl));

void BM_WfgCycleDetection(benchmark::State& state) {
  const auto txns = static_cast<std::uint64_t>(state.range(0));
  util::Rng rng(11);
  wfg::WaitForGraph graph;
  // Sparse random waits plus one planted cycle.
  for (std::uint64_t i = 0; i < txns; ++i) {
    graph.add_edge(1 + rng.next_below(txns), 1 + rng.next_below(txns));
  }
  graph.add_edge(txns + 1, txns + 2);
  graph.add_edge(txns + 2, txns + 1);
  for (auto _ : state) {
    auto victim = graph.newest_on_cycle();
    benchmark::DoNotOptimize(victim);
  }
}
BENCHMARK(BM_WfgCycleDetection)->Arg(16)->Arg(128)->Arg(1024);

void BM_WfgUnion(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<wfg::WaitForGraph> site_graphs(8);
  for (auto& graph : site_graphs) {
    for (int i = 0; i < 32; ++i) {
      graph.add_edge(1 + rng.next_below(64), 1 + rng.next_below(64));
    }
  }
  for (auto _ : state) {
    wfg::WaitForGraph merged;
    for (const auto& graph : site_graphs) merged.merge(graph);
    benchmark::DoNotOptimize(merged.newest_on_cycle());
  }
}
BENCHMARK(BM_WfgUnion);


void BM_UpdateApplyUndo(benchmark::State& state) {
  // The undo-log round trip of one insert (apply + roll back), including
  // incremental DataGuide maintenance — the cost every aborted operation
  // pays at every replica.
  workload::XmarkOptions options;
  options.target_bytes = 100'000;
  workload::XmarkData data = workload::generate_xmark(options);
  auto guide = dataguide::DataGuide::build(*data.document);
  auto op = xupdate::make_insert(
      "/site/people", "<person id=\"bench\"><name>b</name></person>");
  for (auto _ : state) {
    xupdate::UndoLog undo;
    auto applied =
        xupdate::apply(op.value(), *data.document, undo, guide.get());
    benchmark::DoNotOptimize(applied);
    undo.undo_all(*data.document, guide.get());
  }
}
BENCHMARK(BM_UpdateApplyUndo);

void BM_ChangeApplyCommit(benchmark::State& state) {
  workload::XmarkOptions options;
  options.target_bytes = 100'000;
  workload::XmarkData data = workload::generate_xmark(options);
  auto guide = dataguide::DataGuide::build(*data.document);
  const std::string id = data.person_ids.front();
  auto op = xupdate::make_change(
      "/site/people/person[@id='" + id + "']/phone", "+1 5550000");
  for (auto _ : state) {
    xupdate::UndoLog undo;
    auto applied =
        xupdate::apply(op.value(), *data.document, undo, guide.get());
    benchmark::DoNotOptimize(applied);
    undo.commit();
  }
}
BENCHMARK(BM_ChangeApplyCommit);

}  // namespace

BENCHMARK_MAIN();
