#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "dtx/cluster.hpp"
#include "dtx/wal.hpp"
#include "dtx/lock_manager.hpp"
#include "util/rng.hpp"
#include "xml/parser.hpp"

namespace dtx::core {
namespace {

using namespace std::chrono_literals;
using txn::TxnState;

constexpr const char* kPeopleXml =
    "<site><people>"
    "<person id=\"p1\"><name>Ana</name><phone>111</phone></person>"
    "<person id=\"p2\"><name>Bruno</name><phone>222</phone></person>"
    "</people></site>";

constexpr const char* kProductsXml =
    "<site><regions><europe>"
    "<item id=\"i1\"><name>Clock</name><price>10.30</price></item>"
    "<item id=\"i2\"><name>Vase</name><price>99.00</price></item>"
    "</europe></regions></site>";

ClusterOptions fast_options(std::size_t sites,
                            lock::ProtocolKind protocol =
                                lock::ProtocolKind::kXdgl) {
  ClusterOptions options;
  options.site_count = sites;
  options.protocol = protocol;
  options.network.latency = std::chrono::microseconds(50);
  options.site.detect_period = std::chrono::microseconds(5'000);
  options.site.retry_interval = std::chrono::microseconds(10'000);
  options.site.poll_interval = std::chrono::microseconds(500);
  return options;
}

/// Order-insensitive structural fingerprint: XDGL's SI lock deliberately
/// lets independent transactions insert under the same node concurrently,
/// so replicas may interleave siblings differently; content must agree as a
/// multiset at every level.
std::string fingerprint(const xml::Node& node) {
  std::string out = node.is_element() ? "<" + node.name() : "#t:" + node.value();
  if (node.is_element()) {
    auto attributes = node.attributes();
    std::sort(attributes.begin(), attributes.end());
    for (const auto& [k, v] : attributes) out += " " + k + "=" + v;
    std::vector<std::string> children;
    children.reserve(node.child_count());
    for (const auto& child : node.children()) {
      children.push_back(fingerprint(*child));
    }
    std::sort(children.begin(), children.end());
    out += "{";
    for (const auto& child : children) out += child + ",";
    out += "}>";
  }
  return out;
}

/// After stop(), all replicas of every document must agree.
void expect_replicas_consistent(Cluster& cluster) {
  for (const std::string& doc : cluster.catalog().documents()) {
    std::string reference;
    for (net::SiteId site : cluster.catalog().sites_of(doc)) {
      auto xml_text = wal::materialize(cluster.store_of(site), doc);
      ASSERT_TRUE(xml_text.is_ok());
      auto parsed = xml::parse(xml_text.value(), doc);
      ASSERT_TRUE(parsed.is_ok());
      const std::string print = fingerprint(*parsed.value()->root());
      if (reference.empty()) {
        reference = print;
      } else {
        EXPECT_EQ(print, reference)
            << "replica divergence for " << doc << " at site " << site;
      }
    }
  }
}

// --- single-site basics ---------------------------------------------------------

TEST(ClusterTest, SingleSiteQueryCommits) {
  Cluster cluster(fast_options(1));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(
      0, {"query d1 /site/people/person[@id='p1']/name"});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  ASSERT_EQ(result.value().rows.size(), 1u);
  ASSERT_EQ(result.value().rows[0].size(), 1u);
  EXPECT_EQ(result.value().rows[0][0], "Ana");
}

TEST(ClusterTest, MultiOperationTransaction) {
  Cluster cluster(fast_options(1));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(
      0, {"query d1 /site/people/person[@id='p1']/name",
          "query d1 /site/people/person[@id='p2']/phone",
          "query d1 /site/people/person/name"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  ASSERT_EQ(result.value().rows.size(), 3u);
  EXPECT_EQ(result.value().rows[1][0], "222");
  EXPECT_EQ(result.value().rows[2].size(), 2u);
}

TEST(ClusterTest, UpdatePersistsToStorage) {
  Cluster cluster(fast_options(1));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(
      0, {"update d1 insert into /site/people ::= "
          "<person id=\"p9\"><name>Zoe</name></person>",
          "query d1 /site/people/person[@id='p9']/name"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_EQ(result.value().rows[1][0], "Zoe");  // own write visible
  cluster.stop();
  auto stored = wal::materialize(cluster.store_of(0), "d1");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_NE(stored.value().find("Zoe"), std::string::npos);
}

TEST(ClusterTest, FailedOperationAbortsAndRollsBack) {
  Cluster cluster(fast_options(1));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(
      0, {"update d1 insert into /site/people ::= "
          "<person id=\"p9\"><name>Zoe</name></person>",
          // Insert beside the root is a structural error -> abort.
          "update d1 insert after /site ::= <oops/>"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kAborted);
  // The first op's effects must be gone.
  auto check =
      cluster.execute_text(0, {"query d1 /site/people/person[@id='p9']/name"});
  ASSERT_TRUE(check.is_ok());
  EXPECT_EQ(check.value().state, TxnState::kCommitted);
  EXPECT_TRUE(check.value().rows[0].empty());
  cluster.stop();
  auto stored = wal::materialize(cluster.store_of(0), "d1");
  EXPECT_EQ(stored.value().find("Zoe"), std::string::npos);
}

TEST(ClusterTest, UnknownDocumentAborts) {
  Cluster cluster(fast_options(1));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(0, {"query ghost /site/people"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kAborted);
}

TEST(ClusterTest, MalformedOperationRejectedAtSubmit) {
  Cluster cluster(fast_options(1));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  EXPECT_FALSE(cluster.execute_text(0, {"explode d1 /site"}).is_ok());
  EXPECT_FALSE(cluster.execute_text(0, {"query d1 not-a-path"}).is_ok());
}

// --- distributed execution --------------------------------------------------------

TEST(ClusterTest, DistributedQueryOnReplicatedDocument) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(
      0, {"query d1 /site/people/person[@id='p2']/name"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_EQ(result.value().rows[0][0], "Bruno");
}

TEST(ClusterTest, QueryOnRemoteOnlyDocument) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d2", kProductsXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  // Client connects to site 0; the data lives only at site 1.
  auto result = cluster.execute_text(
      0, {"query d2 /site/regions/europe/item[@id='i1']/price"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_EQ(result.value().rows[0][0], "10.30");
}

TEST(ClusterTest, DistributedUpdateReachesAllReplicas) {
  Cluster cluster(fast_options(3));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1, 2}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(
      1, {"update d1 change /site/people/person[@id='p1']/phone ::= 999"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  cluster.stop();
  for (net::SiteId site : {0u, 1u, 2u}) {
    auto stored = wal::materialize(cluster.store_of(site), "d1");
    ASSERT_TRUE(stored.is_ok());
    EXPECT_NE(stored.value().find("999"), std::string::npos)
        << "site " << site << " missed the update";
  }
  expect_replicas_consistent(cluster);
}

TEST(ClusterTest, CrossDocumentTransaction) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kProductsXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(
      0, {"query d1 /site/people/person[@id='p1']/name",
          "update d2 change /site/regions/europe/item[@id='i1']/price "
          "::= 42.00",
          "query d2 /site/regions/europe/item[@id='i1']/price"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_EQ(result.value().rows[0][0], "Ana");
  EXPECT_EQ(result.value().rows[2][0], "42.00");
}

TEST(ClusterTest, AbortUndoesAcrossSites) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(
      0, {"update d1 insert into /site/people ::= <person id=\"px\"/>",
          "update d1 insert after /site ::= <bad/>"});  // forces abort
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kAborted);
  cluster.stop();
  for (net::SiteId site : {0u, 1u}) {
    auto stored = wal::materialize(cluster.store_of(site), "d1");
    EXPECT_EQ(stored.value().find("px"), std::string::npos)
        << "aborted insert leaked at site " << site;
  }
  expect_replicas_consistent(cluster);
}

// --- concurrency ---------------------------------------------------------------------

TEST(ClusterTest, ConcurrentDisjointUpdatesAllCommit) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kProductsXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  auto t1 = cluster.submit_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 100"});
  auto t2 = cluster.submit_text(
      1, {"update d2 change /site/regions/europe/item[@id='i1']/price "
          "::= 1.00"});
  ASSERT_TRUE(t1.is_ok() && t2.is_ok());
  EXPECT_EQ(t1.value()->await().state, TxnState::kCommitted);
  EXPECT_EQ(t2.value()->await().state, TxnState::kCommitted);
}

TEST(ClusterTest, ConflictingTransactionsSerializeViaWait) {
  // Many concurrent single-op writers on the same element: every one
  // conflicts with every other (X on the same guide path). They must all
  // terminate — the lock release wake-up path gets exercised hard.
  Cluster cluster(fast_options(1));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  constexpr int kWriters = 12;
  std::vector<std::shared_ptr<txn::Transaction>> handles;
  for (int i = 0; i < kWriters; ++i) {
    auto handle = cluster.submit_text(
        0, {"update d1 change /site/people/person[@id='p1']/phone ::= " +
            std::to_string(i)});
    ASSERT_TRUE(handle.is_ok());
    handles.push_back(handle.value());
  }
  int committed = 0;
  for (auto& handle : handles) {
    const auto result = handle->await();
    if (result.state == TxnState::kCommitted) ++committed;
  }
  // Single-path writers never deadlock (one lock target): all must commit.
  EXPECT_EQ(committed, kWriters);
}

TEST(ClusterTest, DistributedDeadlockResolvedByVictimAbort) {
  // The §2.4 shape: two transactions at two sites acquire locks on the two
  // documents in opposite orders. Each document has two replicas and no
  // site hosts both, so neither transaction's slices meet the other's at
  // one site. Links out of the coordinators are slower than the rest, so
  // each transaction's first operation (a query) locks at both replicas
  // before the other's second (an update) arrives there: both keep their
  // first operation and wait on the other — a distributed deadlock in
  // every round. Every transaction must terminate either way.
  Cluster cluster(fast_options(4));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 2}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kProductsXml, {1, 3}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    for (net::SiteId to : {1, 3}) {
      plan.set_link_fault(0, to, {.extra_delay = std::chrono::milliseconds(5)});
    }
    for (net::SiteId to : {0, 2}) {
      plan.set_link_fault(1, to, {.extra_delay = std::chrono::milliseconds(5)});
    }
  });

  std::uint64_t deadlocks = 0;
  for (int round = 0; round < 20 && deadlocks == 0; ++round) {
    auto t1 = cluster.submit_text(
        0, {"query d1 /site/people/person/name",
            "update d2 insert into /site/regions/europe ::= "
            "<item id=\"a" + std::to_string(round) + "\"/>"});
    auto t2 = cluster.submit_text(
        1, {"query d2 /site/regions/europe/item/name",
            "update d1 insert into /site/people ::= "
            "<person id=\"b" + std::to_string(round) + "\"/>"});
    ASSERT_TRUE(t1.is_ok() && t2.is_ok());
    const auto r1 = t1.value()->await();
    const auto r2 = t2.value()->await();
    EXPECT_NE(r1.state, TxnState::kActive);
    EXPECT_NE(r2.state, TxnState::kActive);
    deadlocks = cluster.stats().deadlock_aborts;
  }
  EXPECT_GT(deadlocks, 0u) << "no deadlock arose in 20 adversarial rounds";
  cluster.stop();
  expect_replicas_consistent(cluster);
}

TEST(ClusterTest, OppositeOrderOverSharedReplicasTerminates) {
  // The same two transactions over documents replicated at both sites.
  // One-shot execution cannot deadlock here: each site runs one
  // transaction's whole slice before the other's, so the transaction that
  // reaches a site second conflicts at its first operation. A transaction
  // that conflicts anywhere is undone from that operation at every replica
  // before it waits, so the waiter holds nothing the other needs — it
  // resumes once the other commits or once it is undone in turn. Every
  // round must end with at least one commit (no undo/wake livelock).
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kProductsXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  for (int round = 0; round < 20; ++round) {
    auto t1 = cluster.submit_text(
        0, {"query d1 /site/people/person/name",
            "update d2 insert into /site/regions/europe ::= "
            "<item id=\"a" + std::to_string(round) + "\"/>"});
    auto t2 = cluster.submit_text(
        1, {"query d2 /site/regions/europe/item/name",
            "update d1 insert into /site/people ::= "
            "<person id=\"b" + std::to_string(round) + "\"/>"});
    ASSERT_TRUE(t1.is_ok() && t2.is_ok());
    const auto r1 = t1.value()->await();
    const auto r2 = t2.value()->await();
    EXPECT_NE(r1.state, TxnState::kActive);
    EXPECT_NE(r2.state, TxnState::kActive);
    EXPECT_TRUE(r1.state == TxnState::kCommitted ||
                r2.state == TxnState::kCommitted)
        << "round " << round << " committed neither transaction";
  }
  cluster.stop();
  expect_replicas_consistent(cluster);
}

TEST(ClusterTest, MixedStressKeepsReplicasConsistent) {
  Cluster cluster(fast_options(3));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kProductsXml, {1, 2}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  constexpr int kClients = 9;
  constexpr int kTxnsPerClient = 6;
  std::vector<std::thread> clients;
  std::atomic<int> terminated{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(static_cast<std::uint64_t>(c) + 77);
      for (int t = 0; t < kTxnsPerClient; ++t) {
        std::vector<std::string> ops;
        for (int o = 0; o < 3; ++o) {
          const bool on_d1 = rng.next_bool(0.5);
          if (rng.next_bool(0.4)) {
            ops.push_back(
                on_d1 ? "update d1 insert into /site/people ::= <person id=\"s" +
                            std::to_string(c * 1000 + t * 10 + o) + "\"/>"
                      : "update d2 change "
                        "/site/regions/europe/item[@id='i1']/price ::= " +
                            std::to_string(rng.next_below(100)) + ".00");
          } else {
            ops.push_back(on_d1 ? "query d1 /site/people/person/name"
                                : "query d2 /site/regions/europe/item/name");
          }
        }
        auto result =
            cluster.execute_text(static_cast<net::SiteId>(c % 3), ops);
        ASSERT_TRUE(result.is_ok());
        ++terminated;
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(terminated.load(), kClients * kTxnsPerClient);
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.committed + stats.aborted + stats.failed,
            static_cast<std::uint64_t>(kClients * kTxnsPerClient));
  EXPECT_GT(stats.committed, 0u);
  cluster.stop();
  expect_replicas_consistent(cluster);
}

// --- protocol swap ("DTX proved quite flexible to changes") --------------------------

class ProtocolSwapTest
    : public ::testing::TestWithParam<lock::ProtocolKind> {};

TEST_P(ProtocolSwapTest, BasicWorkloadCommitsUnderEveryProtocol) {
  Cluster cluster(fast_options(2, GetParam()));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto read = cluster.execute_text(0, {"query d1 /site/people/person/name"});
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().state, TxnState::kCommitted);
  auto write = cluster.execute_text(
      1, {"update d1 change /site/people/person[@id='p2']/phone ::= 321"});
  ASSERT_TRUE(write.is_ok());
  EXPECT_EQ(write.value().state, TxnState::kCommitted);
  cluster.stop();
  expect_replicas_consistent(cluster);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolSwapTest,
                         ::testing::Values(lock::ProtocolKind::kXdgl,
                                           lock::ProtocolKind::kNode2pl,
                                           lock::ProtocolKind::kDocLock2pl));

// --- failure injection ------------------------------------------------------------------

TEST(ClusterTest, DroppedAbortAckFailsTransaction) {
  ClusterOptions options = fast_options(2);
  options.site.response_timeout = std::chrono::microseconds(150'000);
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return std::holds_alternative<net::AbortAck>(message.payload);
    });
  });
  // op0 executes remotely; op1 fails structurally -> abort; the abort ack
  // never arrives -> Alg. 6 l. 5-10: the transaction *fails*.
  auto result = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 7",
          "update d1 insert after /site ::= <bad/>"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kFailed);
}

TEST(ClusterTest, DroppedCommitAckStillCommitsConsistently) {
  ClusterOptions options = fast_options(2);
  options.site.response_timeout = std::chrono::microseconds(150'000);
  options.site.commit_ack_rounds = 2;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return std::holds_alternative<net::CommitAck>(message.payload);
    });
  });
  auto result = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 7"});
  ASSERT_TRUE(result.is_ok());
  // The first CommitRequest broadcast is the commit decision: the remote
  // participant persisted (only its ack is lost), so the coordinator must
  // NOT roll back — the seed's abort here left replica 1 with the update
  // and replica 0 without it. Presumed abort ends at the decision.
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_GE(cluster.stats().commit_resends, 1u);
  cluster.stop();
  expect_replicas_consistent(cluster);
}

// --- stats ---------------------------------------------------------------------------------

TEST(ClusterTest, StatsAccumulate) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  for (int i = 0; i < 4; ++i) {
    auto result =
        cluster.execute_text(i % 2, {"query d1 /site/people/person/name"});
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().state, TxnState::kCommitted);
  }
  // Read-only transactions ride the MVCC snapshot path: no locks, no
  // remote operations. A replicated update exercises the locked pipeline.
  auto update = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 7"});
  ASSERT_TRUE(update.is_ok());
  EXPECT_EQ(update.value().state, TxnState::kCommitted);
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.committed, 5u);
  EXPECT_EQ(stats.snapshot_txns, 4u);
  EXPECT_GE(stats.snapshots.reads, 4u);
  EXPECT_GT(stats.lock_acquisitions, 0u);
  EXPECT_GT(stats.remote_ops, 0u);
  EXPECT_GT(stats.network.messages_sent, 0u);
}

}  // namespace
}  // namespace dtx::core
