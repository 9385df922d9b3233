// Tests for the typed client layer (src/client): TxnBuilder validation,
// PreparedTxn reuse, each routing policy, the structured abort taxonomy,
// await_for deadlines and session-level retries.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "client/client.hpp"
#include "client/txn_builder.hpp"
#include "dtx/cluster.hpp"

namespace dtx::client {
namespace {

using namespace std::chrono_literals;
using core::Cluster;
using core::ClusterOptions;
using txn::AbortReason;
using txn::TxnState;

constexpr const char* kPeopleXml =
    "<site><people>"
    "<person id=\"p1\"><name>Ana</name><phone>111</phone></person>"
    "<person id=\"p2\"><name>Bruno</name><phone>222</phone></person>"
    "</people></site>";

ClusterOptions small_options(std::size_t sites = 2) {
  ClusterOptions options;
  options.site_count = sites;
  options.network.latency = std::chrono::microseconds(50);
  options.site.detect_period = std::chrono::microseconds(5'000);
  options.site.retry_interval = std::chrono::microseconds(10'000);
  options.site.poll_interval = std::chrono::microseconds(500);
  return options;
}

// --- TxnBuilder / PreparedTxn ------------------------------------------------

TEST(TxnBuilderTest, BuildsTypedOperations) {
  auto txn = TxnBuilder()
                 .query("d1", "/site/people/person[@id='p1']/name")
                 .change("d1", "/site/people/person[@id='p1']/phone", "999")
                 .insert("d1", "/site/people", "<person id=\"p9\"/>")
                 .remove("d1", "/site/people/person[@id='p9']")
                 .build();
  ASSERT_TRUE(txn.is_ok()) << txn.status().to_string();
  EXPECT_EQ(txn.value().size(), 4u);
  EXPECT_FALSE(txn.value().read_only());
  EXPECT_EQ(txn.value().ops()[0].type, txn::OpType::kQuery);
  EXPECT_EQ(txn.value().ops()[1].update.kind, xupdate::UpdateKind::kChange);
}

TEST(TxnBuilderTest, ReportsFirstErrorWithOperationIndex) {
  auto txn = TxnBuilder()
                 .query("d1", "/site/people")
                 .query("d1", "not-absolute")  // op 1: invalid xpath
                 .query("d1", "also bad")      // later error is shadowed
                 .build();
  ASSERT_FALSE(txn.is_ok());
  EXPECT_EQ(txn.status().code(), util::Code::kInvalidArgument);
  EXPECT_NE(txn.status().message().find("operation 1"), std::string::npos)
      << txn.status().message();
}

TEST(TxnBuilderTest, RejectsEmptyTransaction) {
  auto txn = TxnBuilder().build();
  ASSERT_FALSE(txn.is_ok());
  EXPECT_EQ(txn.status().code(), util::Code::kInvalidArgument);
}

TEST(TxnBuilderTest, BuilderIsReusableAfterBuild) {
  TxnBuilder builder;
  auto first = builder.query("d1", "/site/people").build();
  ASSERT_TRUE(first.is_ok());
  auto second = builder.query("d2", "/site/regions").build();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().ops()[0].doc, "d2");
  EXPECT_EQ(first.value().ops()[0].doc, "d1");  // untouched by the reuse
}

TEST(TxnBuilderTest, TextualAdapterRoundTrips) {
  const std::vector<std::string> texts = {
      "query d1 /site/people/person[@id='p1']/name",
      "update d1 change /site/people/person[@id='p1']/phone ::= 999"};
  auto txn = PreparedTxn::parse(texts);
  ASSERT_TRUE(txn.is_ok()) << txn.status().to_string();
  auto reparsed = PreparedTxn::parse(txn.value().to_text());
  ASSERT_TRUE(reparsed.is_ok());
  EXPECT_EQ(reparsed.value().to_text(), txn.value().to_text());

  auto bad = PreparedTxn::parse({"scan d1 /site"});
  EXPECT_FALSE(bad.is_ok());
}

// --- routing -----------------------------------------------------------------

TEST(RoutingTest, ExplicitSiteCoordinates) {
  Cluster cluster(small_options());
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  Client client(cluster);

  auto txn = TxnBuilder().query("d1", "/site/people/person/name").build();
  ASSERT_TRUE(txn.is_ok());
  for (net::SiteId site = 0; site < 2; ++site) {
    SessionOptions options;
    options.routing = RoutingPolicy::explicit_site(site);
    Session session = client.session(options);
    EXPECT_EQ(session.route(txn.value()), site);
    auto handle = session.submit(txn.value());
    ASSERT_TRUE(handle.is_ok());
    EXPECT_EQ(handle.value().coordinator(), site);
    EXPECT_EQ(txn::txn_coordinator(handle.value().id()), site);
    EXPECT_EQ(handle.value().await().state, TxnState::kCommitted);
  }
}

TEST(RoutingTest, RoundRobinCyclesOverSites) {
  Cluster cluster(small_options(3));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1, 2}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  Client client(cluster);

  SessionOptions options;
  options.routing = RoutingPolicy::round_robin();
  Session session = client.session(options);
  auto txn = TxnBuilder().query("d1", "/site/people/person/name").build();
  ASSERT_TRUE(txn.is_ok());

  std::set<net::SiteId> coordinators;
  std::vector<TxnHandle> handles;
  for (int i = 0; i < 6; ++i) {
    auto handle = session.submit(txn.value());
    ASSERT_TRUE(handle.is_ok());
    coordinators.insert(handle.value().coordinator());
    handles.push_back(std::move(handle).value());
  }
  for (TxnHandle& handle : handles) {
    EXPECT_EQ(handle.await().state, TxnState::kCommitted);
  }
  EXPECT_EQ(coordinators, (std::set<net::SiteId>{0, 1, 2}));
}

TEST(RoutingTest, CatalogAffinityPicksHostingSite) {
  // d_hot lives only at site 2; a transaction dominated by d_hot must be
  // coordinated there (every operation is then local — no remote fan-out).
  Cluster cluster(small_options(3));
  ASSERT_TRUE(cluster.load_document("d0", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.load_document("d_hot", kPeopleXml, {2}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  Client client(cluster);

  SessionOptions options;
  options.routing = RoutingPolicy::catalog_affinity();
  Session session = client.session(options);

  auto txn = TxnBuilder()
                 .query("d_hot", "/site/people/person[@id='p1']/name")
                 .change("d_hot", "/site/people/person[@id='p1']/phone", "9")
                 .query("d0", "/site/people/person/name")
                 .build();
  ASSERT_TRUE(txn.is_ok());
  EXPECT_EQ(session.route(txn.value()), 2u);
  auto handle = session.submit(txn.value());
  ASSERT_TRUE(handle.is_ok());
  EXPECT_EQ(handle.value().coordinator(), 2u);
  EXPECT_EQ(handle.value().await().state, TxnState::kCommitted);

  // All-local transaction: affinity routing leaves remote_ops untouched.
  const std::uint64_t remote_before = cluster.stats().remote_ops;
  auto local = TxnBuilder()
                   .query("d_hot", "/site/people/person/name")
                   .build();
  ASSERT_TRUE(local.is_ok());
  auto result = session.execute(local.value());
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_EQ(cluster.stats().remote_ops, remote_before);
}

// --- abort taxonomy ----------------------------------------------------------

TEST(AbortReasonTest, UnprocessableUpdateIsTypedAndNotRetried) {
  Cluster cluster(small_options());
  ASSERT_TRUE(cluster.load_document("d1", "<site><people/></site>", {0, 1})
                  .is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  Client client(cluster);

  SessionOptions options;
  options.retry.max_retries = 5;  // must NOT apply: deterministic failure
  options.retry.max_deadlock_retries = 5;
  options.retry.backoff = std::chrono::microseconds(0);
  Session session = client.session(options);

  // Inserting relative to the root is structurally impossible.
  auto txn = TxnBuilder()
                 .insert("d1", "/site", "<bad/>", xupdate::InsertWhere::kAfter)
                 .build();
  ASSERT_TRUE(txn.is_ok());
  auto result = session.execute(txn.value());
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kAborted);
  EXPECT_EQ(result.value().reason, AbortReason::kUnprocessableUpdate);
  EXPECT_FALSE(result.value().detail.empty());
  EXPECT_EQ(session.retries(), 0u);  // deterministic aborts are final
}

TEST(AbortReasonTest, UnknownDocumentIsParseError) {
  Cluster cluster(small_options());
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  Client client(cluster);
  Session session = client.session();

  auto txn = TxnBuilder().query("ghost", "/site/people").build();
  ASSERT_TRUE(txn.is_ok());  // validation against the catalog is server-side
  auto result = session.execute(txn.value());
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kAborted);
  EXPECT_EQ(result.value().reason, AbortReason::kParseError);
  EXPECT_FALSE(txn::abort_reason_retryable(result.value().reason));
}

TEST(AbortReasonTest, LockWaitExhaustionIsTyped) {
  // One slow *holder* (its second operation runs at site 1, whose replies
  // reach site 0 100 ms late, so it keeps document a's locks for > 100 ms
  // after taking them) and one bounded *waiter* (max_wait_episodes = 1,
  // fast retry backstop). The waiter holds nothing else, so no wait-for
  // cycle can ever exist — the only way it terminates early is the
  // lock-wait bound, typed kLockWaitExhausted. Two coordinator workers so
  // the waiter is scheduled while the holder's worker awaits its replies.
  ClusterOptions options = small_options();
  options.protocol = lock::ProtocolKind::kXdglPlain;
  options.network.latency = std::chrono::milliseconds(30);
  options.site.coordinator_workers = 2;
  options.site.detect_period = std::chrono::hours(1);
  options.site.retry_interval = std::chrono::microseconds(2'000);
  options.site.max_wait_episodes = 1;
  // The holder must take read locks for the waiter to block on: force the
  // read-only transaction down the locked path (MVCC would serve it from
  // a snapshot and never conflict).
  options.site.snapshot_reads = false;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("a", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.load_document("r", kPeopleXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  // Both holder slices leave together, so only a slow answer from site 1
  // keeps the holder's lock on a held while the waiter retries.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_link_fault(1, 0, {.extra_delay = std::chrono::milliseconds(100)});
  });
  Client client(cluster);
  Session session = client.session(
      SessionOptions{RoutingPolicy::explicit_site(0), {}, 0us});

  auto holder_txn = TxnBuilder()
                        .query("a", "/site/people/person/name")  // ST on a
                        .query("r", "/site/people/person/name")  // slow remote
                        .build();
  auto waiter_txn = TxnBuilder()
                        .insert("a", "/site/people", "<person id=\"w\"/>")
                        .build();
  ASSERT_TRUE(holder_txn.is_ok() && waiter_txn.is_ok());

  bool saw_exhaustion = false;
  for (int round = 0; round < 10 && !saw_exhaustion; ++round) {
    auto holder = session.submit(holder_txn.value());
    ASSERT_TRUE(holder.is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto waiter = session.execute(waiter_txn.value());
    ASSERT_TRUE(waiter.is_ok());
    if (waiter.value().state == TxnState::kAborted) {
      EXPECT_EQ(waiter.value().reason, AbortReason::kLockWaitExhausted)
          << txn::abort_reason_name(waiter.value().reason);
      EXPECT_FALSE(waiter.value().deadlock_victim);
      EXPECT_GT(waiter.value().wait_episodes, 1u);
      saw_exhaustion = true;
    }
    EXPECT_EQ(holder.value().await().state, TxnState::kCommitted);
  }
  // The 10 ms head start makes the collision all but certain every round.
  EXPECT_TRUE(saw_exhaustion);
}

TEST(AbortReasonTest, DeadlockVictimIsTypedAndSessionRetriesIt) {
  ClusterOptions options = small_options();
  options.protocol = lock::ProtocolKind::kXdglPlain;
  Cluster cluster(options);
  ASSERT_TRUE(cluster
                  .load_document(
                      "a", "<site><people><person id=\"1\"/></people></site>",
                      {0})
                  .is_ok());
  ASSERT_TRUE(cluster
                  .load_document(
                      "b", "<site><people><person id=\"2\"/></people></site>",
                      {1})
                  .is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  Client client(cluster);

  SessionOptions session_options;
  session_options.retry.max_deadlock_retries = 50;
  session_options.retry.backoff = std::chrono::microseconds(2'000);
  std::atomic<int> committed{0};
  std::atomic<std::uint32_t> retries_seen{0};
  auto run_adversary = [&](net::SiteId home, const std::string& first,
                           const std::string& second, const char* tag) {
    SessionOptions adversary_options = session_options;
    adversary_options.routing = RoutingPolicy::explicit_site(home);
    Session session = client.session(adversary_options);
    for (int i = 0; i < 10; ++i) {
      auto txn = TxnBuilder()
                     .query(first, "/site/people/person/@id")
                     .insert(second, "/site/people",
                             "<person id=\"" + std::string(tag) +
                                 std::to_string(i) + "\"/>")
                     .build();
      ASSERT_TRUE(txn.is_ok());
      auto result = session.execute(txn.value());
      ASSERT_TRUE(result.is_ok());
      if (result.value().state == TxnState::kCommitted) ++committed;
      retries_seen += session.retries();
    }
  };
  std::thread adversary([&] { run_adversary(0, "a", "b", "w"); });
  run_adversary(1, "b", "a", "m");
  adversary.join();
  // With deadlock retries every transaction eventually commits.
  EXPECT_EQ(committed.load(), 20);
}

// --- await_for ---------------------------------------------------------------

TEST(TxnHandleTest, AwaitForReturnsResultWithinDeadline) {
  Cluster cluster(small_options());
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  Client client(cluster);
  Session session = client.session();

  auto txn = TxnBuilder().query("d1", "/site/people/person/name").build();
  ASSERT_TRUE(txn.is_ok());
  auto handle = session.submit(txn.value());
  ASSERT_TRUE(handle.is_ok());
  auto result = handle.value().await_for(5s);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_TRUE(handle.value().done());
}

TEST(TxnHandleTest, AwaitForTimesOutOnBlockedTransaction) {
  // Detector off and an hour-long lock-wait backstop: a conflicting pair
  // blocks indefinitely, so a short await_for must report kTimeout instead
  // of hanging (the old await() would never return here).
  ClusterOptions options = small_options();
  options.protocol = lock::ProtocolKind::kXdglPlain;
  options.site.detect_period = std::chrono::hours(1);
  options.site.retry_interval = std::chrono::hours(1);
  Cluster cluster(options);
  ASSERT_TRUE(cluster
                  .load_document(
                      "a", "<site><people><person id=\"1\"/></people></site>",
                      {0})
                  .is_ok());
  ASSERT_TRUE(cluster
                  .load_document(
                      "b", "<site><people><person id=\"2\"/></people></site>",
                      {1})
                  .is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  Client client(cluster);

  Session at0 = client.session(
      SessionOptions{RoutingPolicy::explicit_site(0), {}, 0us});
  Session at1 = client.session(
      SessionOptions{RoutingPolicy::explicit_site(1), {}, 0us});
  auto t1 = TxnBuilder()
                .query("a", "/site/people/person/@id")
                .insert("b", "/site/people", "<person id=\"x\"/>")
                .build();
  auto t2 = TxnBuilder()
                .query("b", "/site/people/person/@id")
                .insert("a", "/site/people", "<person id=\"y\"/>")
                .build();
  ASSERT_TRUE(t1.is_ok() && t2.is_ok());

  auto h1 = at0.submit(t1.value());
  auto h2 = at1.submit(t2.value());
  ASSERT_TRUE(h1.is_ok() && h2.is_ok());

  // At least one of the two must still be in flight after a short
  // deadline whenever they truly collided; in every case await_for
  // returns promptly (bounded), which is the property under test.
  auto r1 = h1.value().await_for(150ms);
  auto r2 = h2.value().await_for(150ms);
  if (!r1.is_ok()) {
    EXPECT_EQ(r1.status().code(), util::Code::kTimeout);
  }
  if (!r2.is_ok()) {
    EXPECT_EQ(r2.status().code(), util::Code::kTimeout);
  }

  // Shutdown completes the stragglers ("site shut down" = kSiteFailure).
  cluster.stop();
  auto final1 = h1.value().await_for(5s);
  auto final2 = h2.value().await_for(5s);
  ASSERT_TRUE(final1.is_ok() && final2.is_ok());
}

// --- pipelined submission ----------------------------------------------------

TEST(SessionTest, SubmitAllPipelinesTransactions) {
  Cluster cluster(small_options());
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  Client client(cluster);
  Session session = client.session(
      SessionOptions{RoutingPolicy::round_robin(), {}, 0us});

  std::vector<PreparedTxn> txns;
  for (int i = 0; i < 8; ++i) {
    auto txn = TxnBuilder()
                   .query("d1", "/site/people/person[@id='p1']/name")
                   .build();
    ASSERT_TRUE(txn.is_ok());
    txns.push_back(std::move(txn).value());
  }
  auto handles = session.submit_all(txns);
  ASSERT_TRUE(handles.is_ok());
  ASSERT_EQ(handles.value().size(), txns.size());
  for (TxnHandle& handle : handles.value()) {
    auto result = handle.await_for(10s);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().state, TxnState::kCommitted);
    EXPECT_EQ(result.value().rows[0][0], "Ana");
  }
  EXPECT_EQ(cluster.stats().committed, 8u);
}

}  // namespace
}  // namespace dtx::client
