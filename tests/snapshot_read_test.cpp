// MVCC snapshot-read correctness (src/dtx/snapshot_store.*,
// snapshot_read.*, the coordinator fast path):
//
//  * visibility — a read-only transaction sees the latest committed state,
//    including across the remote (SnapshotReadRequest) serving path;
//  * isolation — the lock-free path acquires zero locks and adds zero
//    wait-for entries (asserted by counters, not by construction);
//  * consistent cuts — a transaction updating several documents is seen
//    either entirely or not at all by concurrent multi-document readers;
//  * chain lifecycle — a handed-out snapshot stays valid (pinned by its
//    shared_ptr) across later commits, checkpoints and pruning; bounded
//    chains fall back to wal::materialize instead of failing;
//  * the locked baseline (SiteOptions::snapshot_reads = false) still
//    routes read-only transactions through the lock manager.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "client/txn_builder.hpp"
#include "dtx/cluster.hpp"
#include "dtx/data_manager.hpp"
#include "dtx/snapshot_store.hpp"
#include "query/plan.hpp"
#include "storage/memory_store.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"

namespace dtx::core {
namespace {

using namespace std::chrono_literals;
using txn::TxnState;

constexpr const char* kPeopleXml =
    "<site><people>"
    "<person id=\"p1\"><name>Ana</name><phone>111</phone></person>"
    "<person id=\"p2\"><name>Bruno</name><phone>222</phone></person>"
    "</people></site>";

ClusterOptions fast_options(std::size_t sites) {
  ClusterOptions options;
  options.site_count = sites;
  options.network.latency = std::chrono::microseconds(50);
  options.site.detect_period = std::chrono::microseconds(5'000);
  options.site.retry_interval = std::chrono::microseconds(10'000);
  options.site.poll_interval = std::chrono::microseconds(500);
  return options;
}

std::vector<std::string> eval(const SnapshotStore::DocView& view,
                              const std::string& path_text) {
  auto path = xpath::parse(path_text);
  EXPECT_TRUE(path.is_ok()) << path.status().to_string();
  return xpath::evaluate_strings(path.value(), *view.tree);
}

// --- cluster-level visibility / isolation ------------------------------------

TEST(SnapshotReadTest, ReadOnlyTxnSeesLatestCommittedState) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  auto updated = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 999"});
  ASSERT_TRUE(updated.is_ok());
  ASSERT_EQ(updated.value().state, TxnState::kCommitted);

  auto read = cluster.execute_text(
      0, {"query d1 /site/people/person[@id='p1']/phone"});
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().state, TxnState::kCommitted);
  ASSERT_EQ(read.value().rows.size(), 1u);
  ASSERT_EQ(read.value().rows[0].size(), 1u);
  EXPECT_EQ(read.value().rows[0][0], "999");
  EXPECT_GE(cluster.stats().snapshot_txns, 1u);
}

TEST(SnapshotReadTest, RemoteServingPathAnswersForUnhostedDocuments) {
  // d2 lives only on site 1; a read-only transaction submitted at site 0
  // must be served through a SnapshotReadRequest round to site 1.
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kPeopleXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  auto read = cluster.execute_text(
      0, {"query d1 /site/people/person/name",
          "query d2 /site/people/person/name"});
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().state, TxnState::kCommitted);
  ASSERT_EQ(read.value().rows.size(), 2u);
  EXPECT_EQ(read.value().rows[0].size(), 2u);
  EXPECT_EQ(read.value().rows[1].size(), 2u);
  EXPECT_GE(cluster.stats().snapshot_txns, 1u);
}

TEST(SnapshotReadTest, ForeignCoordinatorsSpreadOverReplicas) {
  // d1 lives at sites 0 and 1 of four. Sites 2 and 3 host nothing, so each
  // reads d1 from a remote replica — a different one each, so both copies
  // of d1 serve reads (CatalogEpoch::rows_source).
  Cluster cluster(fast_options(4));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  std::vector<std::uint64_t> before;
  for (net::SiteId site = 0; site < 4; ++site) {
    before.push_back(cluster.site(site).stats().snapshots.reads);
  }
  for (int round = 0; round < 3; ++round) {
    for (net::SiteId coordinator : {2u, 3u}) {
      auto read = cluster.execute_text(
          coordinator, {"query d1 /site/people/person/name"});
      ASSERT_TRUE(read.is_ok());
      ASSERT_EQ(read.value().state, TxnState::kCommitted);
      EXPECT_EQ(read.value().rows,
                (std::vector<std::vector<std::string>>{{"Ana", "Bruno"}}));
    }
  }
  for (net::SiteId site = 0; site < 4; ++site) {
    const std::uint64_t served =
        cluster.site(site).stats().snapshots.reads - before[site];
    if (site < 2) {
      EXPECT_GT(served, 0u) << "replica " << site << " served no read";
    } else {
      EXPECT_EQ(served, 0u) << "site " << site << " hosts nothing";
    }
  }
}

TEST(SnapshotReadTest, ReadOnlyTxnsAcquireZeroLocksAndNoWfgEntries) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kPeopleXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  const std::uint64_t locks_before = cluster.stats().lock_acquisitions;
  constexpr std::size_t kReads = 5;
  for (std::size_t i = 0; i < kReads; ++i) {
    auto read = cluster.execute_text(
        0, {"query d1 /site/people/person/phone",
            "query d2 /site/people/person/name"});
    ASSERT_TRUE(read.is_ok());
    ASSERT_EQ(read.value().state, TxnState::kCommitted);
  }
  const ClusterStats after = cluster.stats();
  EXPECT_EQ(after.lock_acquisitions, locks_before)
      << "read-only transactions must not touch the lock manager";
  EXPECT_EQ(after.snapshot_txns, kReads);
  EXPECT_GE(after.snapshots.reads, kReads);
  for (net::SiteId site = 0; site < 2; ++site) {
    EXPECT_TRUE(cluster.site(site).lock_manager().wfg_edges().empty())
        << "site " << site;
  }
}

TEST(SnapshotReadTest, LockedBaselineStillServesReadsThroughLockManager) {
  ClusterOptions options = fast_options(2);
  options.site.snapshot_reads = false;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  const std::uint64_t locks_before = cluster.stats().lock_acquisitions;
  auto read =
      cluster.execute_text(0, {"query d1 /site/people/person/phone"});
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().state, TxnState::kCommitted);
  const ClusterStats after = cluster.stats();
  EXPECT_EQ(after.snapshot_txns, 0u);
  EXPECT_EQ(after.snapshots.reads, 0u);
  EXPECT_GT(after.lock_acquisitions, locks_before);
}

TEST(SnapshotReadTest, MultiDocumentCutIsNeverTorn) {
  // One writer commits {d1.phone = vi, d2.phone = vi} atomically; readers
  // snapshot both documents in one transaction. A consistent cut must show
  // the same vi on both sides — seeing d1 at vi and d2 at v(i-1) would be
  // a torn read across the atomic commit batch.
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  // Align the two documents before the race starts (the seeds differ only
  // in the base XML's phone, which is already equal).
  client::Client client(cluster);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  std::thread writer([&] {
    client::SessionOptions session_options;
    session_options.retry.max_deadlock_retries = 3;
    client::Session session = client.session(session_options);
    for (int i = 1; i <= 40 && !stop.load(); ++i) {
      const std::string value = "v" + std::to_string(i);
      auto prepared =
          client::TxnBuilder()
              .change("d1", "/site/people/person[@id='p1']/phone", value)
              .change("d2", "/site/people/person[@id='p1']/phone", value)
              .build();
      ASSERT_TRUE(prepared.is_ok());
      auto result = session.execute(prepared.value());
      ASSERT_TRUE(result.is_ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 2; ++reader) {
    readers.emplace_back([&] {
      client::Session session = client.session();
      auto prepared =
          client::TxnBuilder()
              .query("d1", "/site/people/person[@id='p1']/phone")
              .query("d2", "/site/people/person[@id='p1']/phone")
              .build();
      ASSERT_TRUE(prepared.is_ok());
      while (!stop.load()) {
        auto result = session.execute(prepared.value());
        ASSERT_TRUE(result.is_ok());
        if (result.value().state != TxnState::kCommitted) continue;
        ASSERT_EQ(result.value().rows.size(), 2u);
        if (result.value().rows[0] != result.value().rows[1]) ++torn;
      }
    });
  }
  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(cluster.stats().snapshot_txns, 0u);
}

// --- SnapshotStore unit behavior ---------------------------------------------

struct StoreFixture {
  storage::MemoryStore store;
  SnapshotStore snaps;
  DataManager manager;

  explicit StoreFixture(std::size_t checkpoint_interval = 1 << 16,
                        std::size_t chain_depth = 32)
      : snaps(store, /*enabled=*/true, chain_depth, /*chain_bytes=*/0),
        manager(store, checkpoint_interval, /*checkpoint_log_bytes=*/0,
                &snaps) {
    EXPECT_TRUE(store.store("d", kPeopleXml).is_ok());
    EXPECT_TRUE(manager.load_all().is_ok());
  }

  /// One committed phone change; returns the checkpoint-due list.
  void commit_change(TxnId txn, const std::string& value) {
    auto plan = query::compile_text(
        "update d change /site/people/person[@id='p1']/phone ::= " + value);
    ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
    ASSERT_TRUE(manager.run_update(txn, plan.value()).is_ok());
    std::vector<std::string> due;
    ASSERT_TRUE(manager.persist(txn, &due).is_ok());
    manager.run_checkpoints(due);
  }
};

TEST(SnapshotStoreTest, EarlyCutStaysPinnedAcrossCommitsAndCheckpoints) {
  // checkpoint_interval=2 compacts (and prunes the chain) constantly; the
  // handed-out shared_ptr is the pin, so the old view must keep serving
  // its original content regardless.
  StoreFixture fx(/*checkpoint_interval=*/2, /*chain_depth=*/2);
  auto early = fx.snaps.snapshot({"d"});
  ASSERT_TRUE(early.is_ok()) << early.status().to_string();
  const auto early_view = early.value().at("d");

  for (TxnId txn = 100; txn < 120; ++txn) {
    fx.commit_change(txn, "n" + std::to_string(txn));
  }

  const auto phones =
      eval(early_view, "/site/people/person[@id='p1']/phone");
  ASSERT_EQ(phones.size(), 1u);
  EXPECT_EQ(phones[0], "111") << "pinned snapshot changed under the reader";

  auto fresh = fx.snaps.snapshot({"d"});
  ASSERT_TRUE(fresh.is_ok());
  const auto now =
      eval(fresh.value().at("d"), "/site/people/person[@id='p1']/phone");
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now[0], "n119");
  EXPECT_GT(fresh.value().at("d").version, early_view.version);
}

TEST(SnapshotStoreTest, DeltaChainAdvancesWithoutMaterializing) {
  StoreFixture fx;
  // The very first cut has no cached tree and must materialize the base.
  ASSERT_TRUE(fx.snaps.snapshot({"d"}).is_ok());
  const std::uint64_t base_materializes = fx.snaps.stats().materializes;
  for (TxnId txn = 200; txn < 205; ++txn) {
    fx.commit_change(txn, "m" + std::to_string(txn));
    auto cut = fx.snaps.snapshot({"d"});
    ASSERT_TRUE(cut.is_ok());
  }
  const SnapshotStats stats = fx.snaps.stats();
  EXPECT_EQ(stats.materializes, base_materializes)
      << "an unbroken delta chain must never re-read the store";
  EXPECT_GT(stats.chain_bytes_peak, 0u);
}

TEST(SnapshotStoreTest, PrunedChainFallsBackToMaterialize) {
  // chain_depth=1 keeps at most one delta: after several commits with no
  // intervening reads the cached tree is too old to roll forward, so the
  // next cut must rebuild from the durable log (and count it).
  StoreFixture fx(/*checkpoint_interval=*/1 << 16, /*chain_depth=*/1);
  ASSERT_TRUE(fx.snaps.snapshot({"d"}).is_ok());
  for (TxnId txn = 300; txn < 306; ++txn) {
    fx.commit_change(txn, "q" + std::to_string(txn));
  }
  auto cut = fx.snaps.snapshot({"d"});
  ASSERT_TRUE(cut.is_ok()) << cut.status().to_string();
  const auto phones =
      eval(cut.value().at("d"), "/site/people/person[@id='p1']/phone");
  ASSERT_EQ(phones.size(), 1u);
  EXPECT_EQ(phones[0], "q305");
  EXPECT_GE(fx.snaps.stats().materializes, 1u);
}

TEST(SnapshotStoreTest, UnknownDocumentIsRejected) {
  StoreFixture fx;
  auto cut = fx.snaps.snapshot({"nope"});
  EXPECT_FALSE(cut.is_ok());
}

TEST(SnapshotStoreTest, ReleasedPinsHappenBeforeInPlaceAdvance) {
  // TSAN target. Readers evaluate XPath on a pinned version and drop the
  // pin; meanwhile a commit lands and the next version is resolved, which
  // advances that same cached tree in place once no reader pins it. The
  // readers report their release through a relaxed counter, which orders
  // the events without adding a happens-before edge, so only the store's
  // own pin protocol can order the readers' reads before the rewrite.
  constexpr int kReaders = 3;
  StoreFixture fx;
  SnapshotStore::DocView view;
  {
    auto first = fx.snaps.snapshot({"d"});
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    view = first.value().at("d");
  }
  std::string expected = "111";
  for (TxnId txn = 400; txn < 440; ++txn) {
    std::atomic<int> released{0};
    std::vector<std::thread> readers;
    for (int reader = 0; reader < kReaders; ++reader) {
      readers.emplace_back([copy = view, &released, expected]() mutable {
        const auto phones =
            eval(copy, "/site/people/person[@id='p1']/phone");
        EXPECT_EQ(phones, std::vector<std::string>{expected});
        copy.tree.reset();
        released.fetch_add(1, std::memory_order_relaxed);
      });
    }
    view.tree.reset();
    expected = "r" + std::to_string(txn);
    fx.commit_change(txn, expected);
    while (released.load(std::memory_order_relaxed) < kReaders) {
      std::this_thread::yield();
    }
    auto next = fx.snaps.snapshot({"d"});
    for (std::thread& thread : readers) thread.join();
    ASSERT_TRUE(next.is_ok()) << next.status().to_string();
    view = next.value().at("d");
    EXPECT_EQ(eval(view, "/site/people/person[@id='p1']/phone"),
              std::vector<std::string>{expected});
  }
  // Every version was resolved from an unpinned tree: advanced in place,
  // never cloned, never rebuilt from the log.
  EXPECT_EQ(fx.snaps.stats().clones, 0u);
  EXPECT_EQ(fx.snaps.stats().materializes, 1u);
}

TEST(SnapshotStoreTest, StressReadersVsWritersVsCheckpoints) {
  // TSAN target: concurrent cuts race commits and checkpoint pruning.
  // Every cut must parse as a consistent document version — monotone
  // versions per reader, content matching the version's committed value.
  ClusterOptions options = fast_options(2);
  options.site.checkpoint_interval = 2;   // prune / compact constantly
  options.site.snapshot_chain_depth = 2;  // force materialize fallbacks too
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  client::Client client(cluster);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    client::SessionOptions session_options;
    session_options.retry.max_deadlock_retries = 3;
    client::Session session = client.session(session_options);
    for (int i = 0; i < 30; ++i) {
      auto prepared =
          client::TxnBuilder()
              .change("d1", "/site/people/person[@id='p2']/phone",
                      "w" + std::to_string(i))
              .build();
      ASSERT_TRUE(prepared.is_ok());
      auto result = session.execute(prepared.value());
      ASSERT_TRUE(result.is_ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 3; ++reader) {
    readers.emplace_back([&] {
      client::Session session = client.session();
      auto prepared = client::TxnBuilder()
                          .query("d1", "/site/people/person/phone")
                          .build();
      ASSERT_TRUE(prepared.is_ok());
      while (!stop.load()) {
        auto result = session.execute(prepared.value());
        ASSERT_TRUE(result.is_ok());
        if (result.value().state == TxnState::kCommitted) {
          ASSERT_EQ(result.value().rows.size(), 1u);
          ASSERT_EQ(result.value().rows[0].size(), 2u);
        }
      }
    });
  }
  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_GT(cluster.stats().snapshot_txns, 0u);
}

}  // namespace
}  // namespace dtx::core
