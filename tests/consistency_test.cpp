// End-to-end consistency properties of the DTX runtime:
//
//  * reference equivalence — a serial stream of transactions through a
//    cluster must leave every document byte-identical to applying the same
//    committed operations directly to a reference copy;
//  * accounting invariants under concurrency — the number of entities in
//    the final state equals the base plus exactly the committed inserts
//    (aborted transactions leave no trace, committed ones never lose work);
//  * replica agreement under total replication and across protocols.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "dtx/cluster.hpp"
#include "dtx/wal.hpp"
#include "util/rng.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"
#include "xupdate/applier.hpp"

namespace dtx::core {
namespace {

using txn::TxnState;

constexpr const char* kBaseXml =
    "<site><people>"
    "<person id=\"p1\"><name>Ana</name><phone>111</phone></person>"
    "<person id=\"p2\"><name>Bruno</name><phone>222</phone></person>"
    "<person id=\"p3\"><name>Carla</name><phone>333</phone></person>"
    "</people></site>";

ClusterOptions fast_options(std::size_t sites, lock::ProtocolKind protocol) {
  ClusterOptions options;
  options.site_count = sites;
  options.protocol = protocol;
  options.network.latency = std::chrono::microseconds(50);
  options.site.detect_period = std::chrono::microseconds(5'000);
  options.site.retry_interval = std::chrono::microseconds(10'000);
  options.site.poll_interval = std::chrono::microseconds(500);
  return options;
}

/// Serial random workload through the cluster == direct application to a
/// reference document, operation for operation.
class SerialEquivalence
    : public ::testing::TestWithParam<std::tuple<lock::ProtocolKind, int>> {};

TEST_P(SerialEquivalence, ClusterMatchesReferenceEngine) {
  const auto [protocol, seed] = GetParam();
  Cluster cluster(fast_options(2, protocol));
  ASSERT_TRUE(cluster.load_document("d1", kBaseXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  auto reference_result = xml::parse(kBaseXml, "d1");
  ASSERT_TRUE(reference_result.is_ok());
  auto reference = std::move(reference_result).value();

  util::Rng rng(static_cast<std::uint64_t>(seed));
  for (int round = 0; round < 30; ++round) {
    // One random update op per transaction, serial submission.
    std::string update;
    const double roll = rng.next_double();
    const std::string id = "p" + std::to_string(rng.next_between(1, 9));
    if (roll < 0.4) {
      update = "insert into /site/people ::= <person id=\"q" +
               std::to_string(round) + "\"><name>" + rng.next_word(3, 8) +
               "</name></person>";
    } else if (roll < 0.7) {
      update = "change /site/people/person[@id='" + id + "']/phone ::= " +
               std::to_string(rng.next_below(1000));
    } else if (roll < 0.85) {
      update = "remove /site/people/person[@id='q" +
               std::to_string(rng.next_below(static_cast<std::uint64_t>(
                   std::max(round, 1)))) +
               "']";
    } else {
      update = "rename /site/people/person[@id='" + id + "'] ::= vip";
    }

    auto result = cluster.execute_text(round % 2, {"update d1 " + update});
    ASSERT_TRUE(result.is_ok());
    if (result.value().state != TxnState::kCommitted) continue;

    // Mirror the committed operation on the reference document.
    auto op = xupdate::parse_update(update);
    ASSERT_TRUE(op.is_ok()) << update;
    xupdate::UndoLog undo;
    auto applied = xupdate::apply(op.value(), *reference, undo);
    ASSERT_TRUE(applied.is_ok()) << update;
    undo.commit();
  }

  cluster.stop();
  const std::string expected = xml::serialize(*reference);
  for (net::SiteId site : {0u, 1u}) {
    auto stored = wal::materialize(cluster.store_of(site), "d1");
    ASSERT_TRUE(stored.is_ok());
    EXPECT_EQ(stored.value(), expected) << "site " << site << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsAndSeeds, SerialEquivalence,
    ::testing::Combine(::testing::Values(lock::ProtocolKind::kXdgl,
                                         lock::ProtocolKind::kXdglPlain,
                                         lock::ProtocolKind::kNode2pl,
                                         lock::ProtocolKind::kDocLock2pl),
                       ::testing::Values(1, 2, 3)));

/// Concurrent unique inserts: the final entity count must equal the base
/// count plus exactly the committed inserts, at every replica.
class InsertAccounting
    : public ::testing::TestWithParam<lock::ProtocolKind> {};

TEST_P(InsertAccounting, CommittedInsertsAllPresentAbortedAbsent) {
  Cluster cluster(fast_options(3, GetParam()));
  ASSERT_TRUE(cluster.load_document("d1", kBaseXml, {0, 1, 2}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  constexpr int kClients = 6;
  constexpr int kTxnsPerClient = 5;
  std::mutex mutex;
  std::set<std::string> committed_ids;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int t = 0; t < kTxnsPerClient; ++t) {
        const std::string id =
            "n" + std::to_string(c) + "_" + std::to_string(t);
        // A read plus the insert: the read makes wait cycles possible.
        auto result = cluster.execute_text(
            static_cast<net::SiteId>(c % 3),
            {"query d1 /site/people/person/name",
             "update d1 insert into /site/people ::= <person id=\"" + id +
                 "\"><name>x</name></person>"});
        ASSERT_TRUE(result.is_ok());
        if (result.value().state == TxnState::kCommitted) {
          std::lock_guard<std::mutex> lock(mutex);
          committed_ids.insert(id);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  cluster.stop();

  for (net::SiteId site : {0u, 1u, 2u}) {
    auto stored = wal::materialize(cluster.store_of(site), "d1");
    ASSERT_TRUE(stored.is_ok());
    auto parsed = xml::parse(stored.value(), "d1");
    ASSERT_TRUE(parsed.is_ok());
    auto path = xpath::parse("/site/people/person/@id");
    ASSERT_TRUE(path.is_ok());
    const auto ids = xpath::evaluate_strings(path.value(), *parsed.value());
    const std::set<std::string> found(ids.begin(), ids.end());

    // Base entities survived.
    for (const char* base_id : {"p1", "p2", "p3"}) {
      EXPECT_EQ(found.count(base_id), 1u) << "site " << site;
    }
    // Exactly the committed inserts are present.
    EXPECT_EQ(found.size(), 3 + committed_ids.size()) << "site " << site;
    for (const std::string& id : committed_ids) {
      EXPECT_EQ(found.count(id), 1u)
          << "committed insert " << id << " missing at site " << site;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, InsertAccounting,
                         ::testing::Values(lock::ProtocolKind::kXdgl,
                                           lock::ProtocolKind::kXdglPlain,
                                           lock::ProtocolKind::kNode2pl,
                                           lock::ProtocolKind::kDocLock2pl));

/// Concurrent counter-like writes to one element: after the run, every
/// replica must agree on the final value, and it must be one of the
/// committed writes (last-committer-wins under Strict 2PL).
TEST(ConsistencyTest, SingleElementWritersConvergeAcrossReplicas) {
  Cluster cluster(fast_options(2, lock::ProtocolKind::kXdgl));
  ASSERT_TRUE(cluster.load_document("d1", kBaseXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  std::mutex mutex;
  std::set<std::string> committed_values;
  std::vector<std::thread> writers;
  for (int w = 0; w < 8; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 4; ++i) {
        const std::string value = std::to_string(w * 100 + i);
        auto result = cluster.execute_text(
            static_cast<net::SiteId>(w % 2),
            {"update d1 change /site/people/person[@id='p1']/phone ::= " +
             value});
        ASSERT_TRUE(result.is_ok());
        if (result.value().state == TxnState::kCommitted) {
          std::lock_guard<std::mutex> lock(mutex);
          committed_values.insert(value);
        }
      }
    });
  }
  for (auto& writer : writers) writer.join();
  cluster.stop();

  std::string final_value;
  for (net::SiteId site : {0u, 1u}) {
    auto stored = wal::materialize(cluster.store_of(site), "d1");
    ASSERT_TRUE(stored.is_ok());
    auto parsed = xml::parse(stored.value(), "d1");
    ASSERT_TRUE(parsed.is_ok());
    auto path = xpath::parse("/site/people/person[@id='p1']/phone");
    ASSERT_TRUE(path.is_ok());
    const auto values = xpath::evaluate_strings(path.value(), *parsed.value());
    ASSERT_EQ(values.size(), 1u);
    if (final_value.empty()) {
      final_value = values[0];
    } else {
      EXPECT_EQ(values[0], final_value) << "replicas disagree";
    }
  }
  EXPECT_EQ(committed_values.count(final_value), 1u)
      << "final value '" << final_value << "' was never committed";
}

/// Read-committed isolation: a reader transaction must never observe a
/// value that no committed transaction wrote (dirty read). Writers write
/// marker values and abort; readers poll concurrently.
TEST(ConsistencyTest, NoDirtyReads) {
  Cluster cluster(fast_options(2, lock::ProtocolKind::kXdgl));
  ASSERT_TRUE(cluster.load_document("d1", kBaseXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      // The change succeeds, then the transaction aborts on a structural
      // error: the dirty value 'DIRTY...' must never escape.
      auto result = cluster.execute_text(
          0, {"update d1 change /site/people/person[@id='p2']/phone ::= "
              "DIRTY" + std::to_string(i++),
              "update d1 insert after /site ::= <bad/>"});
      ASSERT_TRUE(result.is_ok());
      ASSERT_EQ(result.value().state, TxnState::kAborted);
    }
  });

  for (int i = 0; i < 40; ++i) {
    auto result = cluster.execute_text(
        1, {"query d1 /site/people/person[@id='p2']/phone"});
    ASSERT_TRUE(result.is_ok());
    if (result.value().state != TxnState::kCommitted) continue;
    ASSERT_EQ(result.value().rows[0].size(), 1u);
    EXPECT_EQ(result.value().rows[0][0], "222")
        << "dirty value leaked to a committed reader";
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace dtx::core
