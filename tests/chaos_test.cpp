// Fault-injection and crash/recovery behavior of the DTX runtime:
//
//  * site crash semantics — in-flight transactions abort with
//    kSiteFailure, submissions to a down site are refused, restart
//    rebuilds the engine from the store and serves again;
//  * presumed-abort orphan handling — a participant holding locks for a
//    transaction whose coordinator went silent probes for the outcome and
//    either consolidates (commit decision recorded, durably across a
//    coordinator crash) or rolls back via its undo log;
//  * exactly-once effects under at-least-once delivery — duplicated
//    ExecuteOperations are answered from the reply cache, duplicated
//    commit/abort requests are idempotent;
//  * one-shot slices — a conflict at one replica undoes the others from
//    the conflicting operation on and the transaction resumes there; every
//    replica that answered gets the abort of a victim that was waiting;
//  * recovery sync — a replica that missed a commit while crashed is
//    caught up from the freshest peer on restart (commit versions), also
//    when two crashed replicas restart together and pull from each other;
//  * recovery pull answers — what a site serves depends on its replica
//    state (recovering: yes; fenced import or no copy: ok=false);
//  * abort taxonomy — every non-committed outcome carries a typed reason
//    (the "defensive default" in Coordinator::finish_transaction is
//    audited unreachable: unclassified_aborts stays 0 everywhere);
//  * a miniature chaos soak (workload::ChaosRunner) holding its
//    invariants end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <thread>

#include "dtx/cluster.hpp"
#include "dtx/wal.hpp"
#include "storage/memory_store.hpp"
#include "workload/chaos.hpp"
#include "xml/parser.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"

namespace dtx::core {
namespace {

using namespace std::chrono_literals;
using txn::AbortReason;
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
  options.site.response_timeout = std::chrono::microseconds(150'000);
  options.site.orphan_txn_timeout = std::chrono::microseconds(50'000);
  options.site.orphan_query_limit = 2;
  options.site.commit_ack_rounds = 2;
  return options;
}

/// Polls until the site holds no locks and no undo logs (or fails).
::testing::AssertionResult drained(Site& site,
                                   std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    const std::size_t locks = site.lock_manager().lock_entries();
    const std::size_t undo = site.lock_manager().undo_log_count();
    if (locks == 0 && undo == 0) return ::testing::AssertionSuccess();
    if (std::chrono::steady_clock::now() >= until) {
      return ::testing::AssertionFailure()
             << "site " << site.id() << " not drained: " << locks
             << " locks, " << undo << " undo logs";
    }
    std::this_thread::sleep_for(5ms);
  }
}

/// String values of `path` in the durable state of `doc` at `site`.
std::vector<std::string> stored_values(Cluster& cluster, net::SiteId site,
                                       const std::string& doc,
                                       const std::string& path) {
  auto stored = wal::materialize(cluster.store_of(site), doc);
  EXPECT_TRUE(stored.is_ok()) << doc << " at site " << site;
  if (!stored.is_ok()) return {};
  auto parsed = xml::parse(stored.value(), doc);
  EXPECT_TRUE(parsed.is_ok());
  auto compiled = xpath::parse(path);
  EXPECT_TRUE(compiled.is_ok());
  return xpath::evaluate_strings(compiled.value(), *parsed.value());
}

std::string stored_phone(Cluster& cluster, net::SiteId site,
                         const std::string& person) {
  const auto values = stored_values(
      cluster, site, "d1",
      "/site/people/person[@id='" + person + "']/phone");
  return values.size() == 1 ? values[0] : "<missing>";
}

std::uint64_t total_unclassified(Cluster& cluster) {
  return cluster.stats().unclassified_aborts;
}

// --- crash / restart lifecycle ------------------------------------------------

TEST(SiteCrashTest, DownSiteRefusesSubmissionsAndRestartServes) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  ASSERT_TRUE(cluster.crash_site(1).is_ok());
  EXPECT_FALSE(cluster.site_running(1));

  // Submitting at the crashed site is refused with a typed reason.
  auto at_down = cluster.execute_text(1, {"query d1 /site/people/person"});
  ASSERT_TRUE(at_down.is_ok());
  EXPECT_EQ(at_down.value().state, TxnState::kAborted);
  EXPECT_EQ(at_down.value().reason, AbortReason::kSiteFailure);

  // A replicated update from the healthy site cannot reach the down
  // replica: participant timeout -> kSiteFailure abort.
  auto through = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 9"});
  ASSERT_TRUE(through.is_ok());
  EXPECT_EQ(through.value().state, TxnState::kAborted);
  EXPECT_EQ(through.value().reason, AbortReason::kSiteFailure);

  ASSERT_TRUE(cluster.restart_site(1).is_ok());
  EXPECT_TRUE(cluster.site_running(1));
  auto after = cluster.execute_text(
      1, {"update d1 change /site/people/person[@id='p1']/phone ::= 777"});
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after.value().state, TxnState::kCommitted);
  EXPECT_EQ(stored_phone(cluster, 0, "p1"), "777");
  EXPECT_EQ(stored_phone(cluster, 1, "p1"), "777");
  EXPECT_EQ(cluster.stats().restarts, 1u);
  EXPECT_EQ(total_unclassified(cluster), 0u);
}

TEST(SiteCrashTest, CrashFailsInFlightTransactionsWithSiteFailure) {
  ClusterOptions options = fast_options(2);
  // Long response timeout: the transaction is guaranteed to still be in
  // flight (waiting on the dead participant) when the coordinator crashes.
  options.site.response_timeout = std::chrono::microseconds(5'000'000);
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  // Stall the transaction by cutting all replies to the coordinator.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return std::holds_alternative<net::OperationResult>(message.payload);
    });
  });
  auto handle = cluster.submit_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 5"});
  ASSERT_TRUE(handle.is_ok());
  std::this_thread::sleep_for(20ms);  // let it reach the participant wait
  ASSERT_TRUE(cluster.crash_site(0).is_ok());

  const txn::TxnResult result = handle.value()->await();
  EXPECT_NE(result.state, TxnState::kCommitted);
  EXPECT_EQ(result.reason, AbortReason::kSiteFailure);
}

// --- presumed-abort orphan resolution ----------------------------------------

TEST(OrphanTest, ParticipantRollsBackWhenCoordinatorReportsAbort) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  // The participant executes and replies, but the reply and the
  // subsequent abort fan-out never arrive: the coordinator aborts on
  // timeout while site 1 still holds the operation's locks and undo log.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return message.from == 1 && message.to == 0 &&
             (std::holds_alternative<net::OperationResult>(message.payload) ||
              std::holds_alternative<net::AbortAck>(message.payload));
    });
  });
  auto result = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 42"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_NE(result.value().state, TxnState::kCommitted);

  // The orphan sweep probes the (live) coordinator, learns the abort and
  // rolls back via the undo log; the dirty value never reaches the store.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter(nullptr);
  });
  EXPECT_TRUE(drained(cluster.site(1), 2000ms));
  EXPECT_EQ(stored_phone(cluster, 1, "p1"), "111");
  EXPECT_GE(cluster.site(1).stats().orphans_aborted, 1u);
  EXPECT_EQ(total_unclassified(cluster), 0u);
}

TEST(OrphanTest, ParticipantConsolidatesWhenCommitDecisionRecorded) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  // Cut every CommitRequest: the coordinator decides commit (persists
  // locally, durable record) and reports kCommitted, but site 1 never
  // hears it and keeps holding the locks.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return std::holds_alternative<net::CommitRequest>(message.payload);
    });
  });
  auto result = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 88"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_EQ(stored_phone(cluster, 0, "p1"), "88");

  // Orphan probe -> kCommitted -> the participant consolidates: persists
  // and releases, exactly what the lost CommitRequest would have done.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter(nullptr);
  });
  EXPECT_TRUE(drained(cluster.site(1), 2000ms));
  EXPECT_EQ(stored_phone(cluster, 1, "p1"), "88");
  EXPECT_GE(cluster.site(1).stats().orphans_committed, 1u);
}

TEST(OrphanTest, CommitDecisionSurvivesCoordinatorCrash) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return std::holds_alternative<net::CommitRequest>(message.payload);
    });
  });
  auto result = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 99"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);

  // Crash the coordinator after the decision: the in-memory outcome cache
  // dies with it. The durable commit log must answer the probe after the
  // restart — a kUnknown reply here would roll back a committed
  // transaction at site 1 and diverge the replicas forever.
  ASSERT_TRUE(cluster.crash_site(0).is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter(nullptr);
  });
  ASSERT_TRUE(cluster.restart_site(0).is_ok());
  EXPECT_TRUE(drained(cluster.site(1), 3000ms));
  EXPECT_EQ(stored_phone(cluster, 1, "p1"), "99");
  EXPECT_EQ(stored_phone(cluster, 0, "p1"), "99");
  EXPECT_GE(cluster.site(1).stats().orphans_committed, 1u);
}

TEST(OrphanTest, CoordinatorKeepsNoParticipantRecordOfItsOwnTransactions) {
  // The coordinator's own slices run through its participant, which tracks
  // them like any remote transaction's. No Commit/AbortRequest ever comes
  // to the own site — the coordinator commits and aborts there itself — so
  // it must drop that record when the transaction ends. A record left
  // behind is swept as an orphan (the site probes itself) and holds back
  // the catalog drain of the next membership change.
  ClusterOptions options = fast_options(2);
  options.site.orphan_txn_timeout = std::chrono::microseconds(20'000);
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto status_probes = std::make_shared<std::atomic<int>>(0);
  cluster.network().faults([status_probes](net::FaultPlan& plan) {
    plan.set_message_filter([status_probes](const net::Message& message) {
      if (std::holds_alternative<net::TxnStatusRequest>(message.payload)) {
        ++*status_probes;
      }
      return false;
    });
  });

  auto committed = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 5"});
  ASSERT_TRUE(committed.is_ok());
  EXPECT_EQ(committed.value().state, TxnState::kCommitted);
  auto aborted = cluster.execute_text(
      0, {"update d1 insert into /site/people ::= <person id=\"x\"/>",
          "update d1 insert after /site ::= <x/>"});
  ASSERT_TRUE(aborted.is_ok());
  EXPECT_EQ(aborted.value().state, TxnState::kAborted);

  // Ten orphan timeouts later nothing was swept anywhere.
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(status_probes->load(), 0);
  for (net::SiteId site : {0u, 1u}) {
    EXPECT_EQ(cluster.site(site).stats().orphans_committed, 0u);
    EXPECT_EQ(cluster.site(site).stats().orphans_aborted, 0u);
    EXPECT_TRUE(drained(cluster.site(site), 0ms));
  }
}

TEST(OrphanTest, OwnTransactionsDoNotHoldBackTheCatalogDrain) {
  // The same record would make the coordinator's site report an
  // older-epoch transaction in progress until its orphan sweep (disabled
  // here by a long timeout): as a leaver it would never ship its replicas
  // away, so its decommission would never complete.
  ClusterOptions options = fast_options(3);
  options.site.orphan_txn_timeout = std::chrono::hours(1);
  options.site.placement_policy = placement::PlacementPolicy::kHashRing;
  options.site.replication = 2;
  Cluster cluster(options);
  std::string hosted;
  for (std::size_t index = 0; index < 6; ++index) {
    const std::string doc = "d" + std::to_string(index);
    const std::vector<net::SiteId> hosts = placement::assign_sites(
        placement::PlacementPolicy::kHashRing, index, doc, {0, 1, 2}, 2);
    ASSERT_TRUE(cluster.load_document(doc, kPeopleXml, hosts).is_ok());
    if (hosted.empty() &&
        std::find(hosts.begin(), hosts.end(), 2u) != hosts.end()) {
      hosted = doc;
    }
  }
  ASSERT_FALSE(hosted.empty());
  ASSERT_TRUE(cluster.start().is_ok());

  auto committed = cluster.execute_text(
      2, {"update " + hosted +
          " change /site/people/person[@id='p1']/phone ::= 5"});
  ASSERT_TRUE(committed.is_ok());
  EXPECT_EQ(committed.value().state, TxnState::kCommitted);
  auto aborted =
      cluster.execute_text(2, {"update " + hosted + " insert after /site ::= <x/>"});
  ASSERT_TRUE(aborted.is_ok());
  EXPECT_EQ(aborted.value().state, TxnState::kAborted);

  const auto begin = std::chrono::steady_clock::now();
  ASSERT_TRUE(cluster.remove_site(2).is_ok());
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 5s);
  EXPECT_EQ(cluster.stats().orphans_aborted, 0u);
}

// --- at-least-once delivery --------------------------------------------------

TEST(DuplicationTest, DuplicatedDeliveryIsIdempotent) {
  ClusterOptions options = fast_options(2);
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  // Every message on every link delivered twice: executes must not apply
  // twice (reply cache), commits/aborts must ack idempotently.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.seed(11);
    plan.set_default_fault({.duplicate_probability = 1.0});
  });
  for (int i = 0; i < 5; ++i) {
    auto result = cluster.execute_text(
        i % 2,
        {"update d1 insert into /site/people ::= <person id=\"dup" +
         std::to_string(i) + "\"><name>n</name></person>"});
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().state, TxnState::kCommitted) << i;
  }
  EXPECT_GT(cluster.stats().faults.duplicated, 0u);

  for (net::SiteId site : {0u, 1u}) {
    const auto ids =
        stored_values(cluster, site, "d1", "/site/people/person/@id");
    for (int i = 0; i < 5; ++i) {
      const std::string id = "dup" + std::to_string(i);
      EXPECT_EQ(std::count(ids.begin(), ids.end(), id), 1)
          << id << " applied " << std::count(ids.begin(), ids.end(), id)
          << " times at site " << site;
    }
  }
}

// --- one-shot slices ---------------------------------------------------------
//
// The coordinator sends each hosting site its whole ordered slice of the
// remaining operations in one ExecuteOperation. The cases below pin what a
// slice promises: a conflict at one replica rolls the others back from the
// conflicting operation on and the transaction resumes there; duplicated
// slices apply once; a lost slice reply aborts like a lost single reply.

/// Polls until the coordinator at `site` has parked a transaction on a lock
/// conflict at least `episodes` times.
::testing::AssertionResult waited(Site& site, std::uint64_t episodes,
                                  std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (site.stats().wait_episodes < episodes) {
    if (std::chrono::steady_clock::now() >= until) {
      return ::testing::AssertionFailure()
             << "site " << site.id() << " saw no wait episode";
    }
    std::this_thread::sleep_for(1ms);
  }
  return ::testing::AssertionSuccess();
}

TEST(SliceTest, ConflictAtOneReplicaUndoesTheOthersAndResumesThere) {
  // d1 lives at sites 0 and 1, d2 at site 1 only; transaction T runs from
  // site 2. U, from site 0, locks d1's p1 at site 0, and its slice for
  // site 1 is lost, so U holds that lock until its response timeout aborts
  // it. T = [insert into d2, change p1, insert into d1]: site 1 executes
  // all three, site 0 stops at op 1 (U holds p1). So op 0 is adopted, site
  // 1 undoes ops 2 and 1 (newest first), T waits, U's abort wakes it, and T
  // resumes at op 1 at both replicas.
  Cluster cluster(fast_options(3));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kPeopleXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return message.from == 0 && message.to == 1 &&
             std::holds_alternative<net::ExecuteOperation>(message.payload);
    });
  });

  auto u = cluster.submit_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= u"});
  ASSERT_TRUE(u.is_ok());
  const auto locked_by = std::chrono::steady_clock::now() + 1s;
  while (cluster.site(0).lock_manager().lock_entries() == 0 &&
         std::chrono::steady_clock::now() < locked_by) {
    std::this_thread::sleep_for(1ms);
  }
  auto t = cluster.submit_text(
      2, {"update d2 insert into /site/people ::= <person id=\"t0\"/>",
          "update d1 change /site/people/person[@id='p1']/phone ::= t",
          "update d1 insert into /site/people ::= <person id=\"t2\"/>"});
  ASSERT_TRUE(t.is_ok());

  const txn::TxnResult u_result = u.value()->await();
  EXPECT_EQ(u_result.state, TxnState::kAborted);
  EXPECT_EQ(u_result.reason, AbortReason::kSiteFailure);
  const txn::TxnResult result = t.value()->await();
  EXPECT_EQ(result.state, TxnState::kCommitted) << result.detail;
  EXPECT_GE(result.wait_episodes, 1u);
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter(nullptr);
  });
  for (net::SiteId site : {0u, 1u, 2u}) {
    EXPECT_TRUE(drained(cluster.site(site), 2000ms));
  }

  // Serial execution of T alone: its change, each insert exactly once.
  for (net::SiteId site : {0u, 1u}) {
    EXPECT_EQ(stored_phone(cluster, site, "p1"), "t") << "site " << site;
    const auto ids =
        stored_values(cluster, site, "d1", "/site/people/person/@id");
    EXPECT_EQ(std::count(ids.begin(), ids.end(), "t2"), 1) << "site " << site;
  }
  const auto d2_ids =
      stored_values(cluster, 1, "d2", "/site/people/person/@id");
  EXPECT_EQ(std::count(d2_ids.begin(), d2_ids.end(), "t0"), 1);
  EXPECT_EQ(stored_values(cluster, 0, "d1", "/site/people/person/@id"),
            stored_values(cluster, 1, "d1", "/site/people/person/@id"));
}

TEST(SliceTest, VictimAbortWhileWaitingReleasesEveryAnsweringReplica) {
  // Regression for the orphaned undo log: T (from site 2) executes its
  // update at site 1 and conflicts at site 0, so site 1 undoes it and T
  // waits. T is then aborted as a deadlock victim while waiting. Site 1
  // answered T's slice, so it is one of T's sites and gets the abort: its
  // undo logs and lock entries are 0 at once, not after an orphan sweep
  // (disabled here by a long timeout).
  ClusterOptions options = fast_options(3);
  options.site.response_timeout = std::chrono::microseconds(5'000'000);
  options.site.orphan_txn_timeout = std::chrono::hours(1);
  options.site.retry_interval = std::chrono::hours(1);
  options.site.detect_period = std::chrono::hours(1);
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  // U's slice for site 1 arrives long after everything below is over.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_link_fault(0, 1, {.extra_delay = 1500ms});
  });

  auto u = cluster.submit_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= u"});
  ASSERT_TRUE(u.is_ok());
  const auto locked_by = std::chrono::steady_clock::now() + 1s;
  while (cluster.site(0).lock_manager().lock_entries() == 0 &&
         std::chrono::steady_clock::now() < locked_by) {
    std::this_thread::sleep_for(1ms);
  }
  auto t = cluster.submit_text(
      2, {"update d1 change /site/people/person[@id='p1']/phone ::= t"});
  ASSERT_TRUE(t.is_ok());
  ASSERT_TRUE(waited(cluster.site(2), 1, 1000ms));
  EXPECT_GE(cluster.site(1).stats().remote_ops_processed, 1u);

  // The detector's verdict, delivered the way Alg. 4 delivers it.
  cluster.network().send(
      net::Message{2, 2, net::VictimAbort{t.value()->id()}});
  const txn::TxnResult result = t.value()->await();
  EXPECT_EQ(result.state, TxnState::kAborted);
  EXPECT_TRUE(result.deadlock_victim);
  // Right after the abort — U's slice for site 1 is still on the wire.
  EXPECT_EQ(cluster.site(1).lock_manager().undo_log_count(), 0u);
  EXPECT_EQ(cluster.site(1).lock_manager().lock_entries(), 0u);
  EXPECT_EQ(cluster.stats().orphans_aborted, 0u);

  cluster.network().faults([](net::FaultPlan& plan) {
    plan.clear_link_faults();
  });
  EXPECT_EQ(u.value()->await().state, TxnState::kCommitted);
  for (net::SiteId site : {0u, 1u}) {
    EXPECT_TRUE(drained(cluster.site(site), 2000ms));
    EXPECT_EQ(stored_phone(cluster, site, "p1"), "u");
  }
}

TEST(SliceTest, DuplicatedSliceAppliesItsEffectsOnce) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  // Every slice is delivered twice; the second copy must be answered from
  // the reply cache, not run again.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.seed(5);
    plan.set_default_fault({.duplicate_probability = 1.0});
  });
  auto result = cluster.execute_text(
      0, {"update d1 insert into /site/people ::= <person id=\"s0\"/>",
          "update d1 change /site/people/person[@id='p1']/phone ::= 7",
          "update d1 insert into /site/people ::= <person id=\"s2\"/>"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_GT(cluster.stats().faults.duplicated, 0u);

  for (net::SiteId site : {0u, 1u}) {
    EXPECT_TRUE(drained(cluster.site(site), 2000ms));
    const auto ids =
        stored_values(cluster, site, "d1", "/site/people/person/@id");
    EXPECT_EQ(std::count(ids.begin(), ids.end(), "s0"), 1) << "site " << site;
    EXPECT_EQ(std::count(ids.begin(), ids.end(), "s2"), 1) << "site " << site;
    EXPECT_EQ(stored_phone(cluster, site, "p1"), "7");
  }
}

TEST(SliceTest, DroppedSliceReplyAbortsWithSiteFailure) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return message.from == 1 &&
             std::holds_alternative<net::OperationResult>(message.payload);
    });
  });
  auto result = cluster.execute_text(
      0, {"update d1 insert into /site/people ::= <person id=\"x0\"/>",
          "update d1 change /site/people/person[@id='p1']/phone ::= 9"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kAborted);
  EXPECT_EQ(result.value().reason, AbortReason::kSiteFailure);
  EXPECT_TRUE(txn::abort_reason_retryable(result.value().reason));

  // Site 1 ran the slice; its orphan sweep rolls it back.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter(nullptr);
  });
  for (net::SiteId site : {0u, 1u}) {
    EXPECT_TRUE(drained(cluster.site(site), 2000ms));
    EXPECT_EQ(stored_phone(cluster, site, "p1"), "111");
  }
}

TEST(SliceTest, SilentSiteOfALaterOperationAbortsARoundThatConflicted) {
  // T (from site 2) = [change d1's p1, insert into d2]; d1 lives at sites 0
  // and 2, d2 at site 1 only. U, from site 0, holds p1 at site 0 (its slice
  // for site 2 is lost, so it runs into its response timeout), so T's round
  // stops on a conflict at op 0. Site 1 ran op 1, but its reply is lost.
  // The round must abort with kSiteFailure, not wait: site 1 never answered,
  // so it is not one of T's sites and no undo or abort of T is sure to
  // reach it.
  Cluster cluster(fast_options(3));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 2}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kPeopleXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return (message.from == 0 && message.to == 2 &&
              std::holds_alternative<net::ExecuteOperation>(
                  message.payload)) ||
             (message.from == 1 && message.to == 2 &&
              std::holds_alternative<net::OperationResult>(message.payload));
    });
  });

  auto u = cluster.submit_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= u"});
  ASSERT_TRUE(u.is_ok());
  const auto locked_by = std::chrono::steady_clock::now() + 1s;
  while (cluster.site(0).lock_manager().lock_entries() == 0 &&
         std::chrono::steady_clock::now() < locked_by) {
    std::this_thread::sleep_for(1ms);
  }
  auto t = cluster.submit_text(
      2, {"update d1 change /site/people/person[@id='p1']/phone ::= t",
          "update d2 insert into /site/people ::= <person id=\"t1\"/>"});
  ASSERT_TRUE(t.is_ok());

  const txn::TxnResult result = t.value()->await();
  EXPECT_EQ(result.state, TxnState::kAborted);
  EXPECT_EQ(result.reason, AbortReason::kSiteFailure);
  EXPECT_EQ(result.wait_episodes, 0u);
  EXPECT_NE(u.value()->await().state, TxnState::kCommitted);

  // Site 1's orphan sweep rolls back the insert it ran.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter(nullptr);
  });
  for (net::SiteId site : {0u, 1u, 2u}) {
    EXPECT_TRUE(drained(cluster.site(site), 2000ms));
  }
  const auto ids = stored_values(cluster, 1, "d2", "/site/people/person/@id");
  EXPECT_EQ(std::count(ids.begin(), ids.end(), "t1"), 0);
}

TEST(SliceTest, OneReplicaEvaluatesEachQuery) {
  // d1 lives at sites 0 and 1. Both replicas take a query's locks, but only
  // its rows source evaluates it: the coordinator's own replica when it
  // hosts d1 (site 1 for a transaction from site 1, not the lowest-id
  // replica), else the replica at index coordinator % 2 of {0, 1} (site 0
  // for one from site 2, site 1 for one from site 3). The other replica
  // answers with no rows. Snapshot reads are off, so the read-only
  // transactions take the locked path; CommitRequests are held back until
  // the test has seen each remote replica hold the locks.
  // Declared before the cluster, which calls the filter below until it
  // is destroyed.
  std::mutex mutex;
  std::vector<net::Message> replies;
  std::atomic<bool> hold_commits{true};

  ClusterOptions options = fast_options(4);
  options.site.snapshot_reads = false;
  options.site.orphan_txn_timeout = std::chrono::hours(1);
  options.site.commit_ack_rounds = 100;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  cluster.network().faults([&](net::FaultPlan& plan) {
    plan.set_message_filter([&](const net::Message& message) {
      if (std::holds_alternative<net::OperationResult>(message.payload)) {
        std::lock_guard<std::mutex> lock(mutex);
        replies.push_back(message);
      }
      return hold_commits.load() &&
             std::holds_alternative<net::CommitRequest>(message.payload);
    });
  });
  const auto reply_of = [&](lock::TxnId txn,
                            net::SiteId from) -> std::optional<net::Message> {
    std::lock_guard<std::mutex> lock(mutex);
    for (const net::Message& message : replies) {
      if (message.from == from &&
          std::get<net::OperationResult>(message.payload).txn == txn) {
        return message;
      }
    }
    return std::nullopt;
  };
  const std::vector<std::vector<std::string>> expected = {{"111", "222"},
                                                          {"Ana", "Bruno"}};

  for (const auto& [coordinator, source] :
       {std::pair<net::SiteId, net::SiteId>{2, 0}, {3, 1}, {1, 1}}) {
    SCOPED_TRACE("coordinator " + std::to_string(coordinator));
    hold_commits = true;
    auto t = cluster.submit_text(coordinator,
                                 {"query d1 /site/people/person/phone",
                                  "query d1 /site/people/person/name"});
    ASSERT_TRUE(t.is_ok());
    const lock::TxnId id = t.value()->id();
    const auto answered_by = std::chrono::steady_clock::now() + 2s;
    while ((!reply_of(id, 0) || !reply_of(id, 1)) &&
           std::chrono::steady_clock::now() < answered_by) {
      std::this_thread::sleep_for(1ms);
    }
    for (net::SiteId site : {0u, 1u}) {
      const std::optional<net::Message> message = reply_of(id, site);
      ASSERT_TRUE(message.has_value()) << "site " << site;
      const auto& reply = std::get<net::OperationResult>(message->payload);
      EXPECT_EQ(reply.op_indices, (std::vector<std::uint32_t>{0, 1}));
      if (site == source) {
        EXPECT_EQ(reply.rows, expected) << "site " << site;
      } else {
        EXPECT_EQ(reply.rows, (std::vector<std::vector<std::string>>{{}, {}}))
            << "site " << site;
      }
      // Every replica that is not the coordinator's own still holds the
      // queries' locks: no CommitRequest has reached it.
      if (site != coordinator) {
        EXPECT_GT(cluster.site(site).lock_manager().lock_entries(), 0u)
            << "site " << site;
      }
    }
    hold_commits = false;
    const txn::TxnResult result = t.value()->await();
    EXPECT_EQ(result.state, TxnState::kCommitted) << result.detail;
    EXPECT_EQ(result.rows, expected);
    for (net::SiteId site : {0u, 1u, 2u, 3u}) {
      EXPECT_TRUE(drained(cluster.site(site), 2000ms));
    }
  }
}

// --- recovery sync -----------------------------------------------------------

TEST(RecoverySyncTest, RestartCatchesUpReplicaFromFreshestPeer) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  // Site 1 misses the commit (CommitRequests cut), then crashes — its
  // executed state and locks are gone, nothing left to probe with.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return std::holds_alternative<net::CommitRequest>(message.payload);
    });
  });
  auto result = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p2']/phone ::= 654"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  ASSERT_TRUE(cluster.crash_site(1).is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter(nullptr);
  });
  EXPECT_EQ(stored_phone(cluster, 1, "p2"), "222");  // stale store

  // Restart: the recovery sync sees the commit missing from site 1's log
  // and ships site 0's record *suffix* — not the whole document — before
  // the engine reloads and replays it.
  ASSERT_TRUE(cluster.restart_site(1).is_ok());
  EXPECT_EQ(cluster.stats().log_suffix_syncs, 1u);
  EXPECT_EQ(cluster.stats().full_syncs, 0u);
  EXPECT_EQ(stored_phone(cluster, 1, "p2"), "654");
  auto read = cluster.execute_text(
      1, {"query d1 /site/people/person[@id='p2']/phone"});
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().state, TxnState::kCommitted);
  ASSERT_EQ(read.value().rows[0].size(), 1u);
  EXPECT_EQ(read.value().rows[0][0], "654");
}

TEST(RecoverySyncTest, FullAdoptionWhenPeerCompactedPastLocalVersion) {
  // The peer checkpoints aggressively (every commit), so by restart time
  // the record site 1 is missing has been compacted into the peer's
  // snapshot — the sync must fall back to whole checkpoint + log
  // adoption.
  ClusterOptions options = fast_options(2);
  options.site.checkpoint_interval = 1;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return std::holds_alternative<net::CommitRequest>(message.payload);
    });
  });
  auto result = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 777"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  ASSERT_TRUE(cluster.crash_site(1).is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter(nullptr);
  });
  ASSERT_TRUE(cluster.restart_site(1).is_ok());
  EXPECT_EQ(cluster.stats().full_syncs, 1u);
  EXPECT_EQ(stored_phone(cluster, 1, "p1"), "777");
}

TEST(RecoverySyncTest, DivergentCheckpointAdoptionKeepsLocalUniqueCommits) {
  // The nasty corner: the peer compacted a commit this replica is missing
  // (its record is unrecoverable) while this replica's log holds a commit
  // the peer never saw. Equal version counts — position comparison is
  // useless. The sync must adopt the peer's checkpoint AND re-apply the
  // local-unique record on top (the marker ids prove the adopted snapshot
  // cannot already contain it).
  ClusterOptions options = fast_options(2);
  options.site.checkpoint_interval = 1;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  // Site 0 commits + compacts alone (CommitRequests to site 1 cut).
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return std::holds_alternative<net::CommitRequest>(message.payload);
    });
  });
  auto result = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 777"});
  ASSERT_TRUE(result.is_ok());
  ASSERT_EQ(result.value().state, TxnState::kCommitted);
  ASSERT_TRUE(cluster.crash_site(1).is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter(nullptr);
  });
  // Manufacture site 1's local-unique durable commit (as if it persisted
  // a commit whose CommitRequest never reached site 0 before the crash).
  ASSERT_TRUE(
      cluster.store_of(1)
          .append(wal::log_key("d1"),
                  wal::encode_record(
                      1, 12345,
                      {"update d1 change "
                       "/site/people/person[@id='p2']/phone ::= 888"}))
          .is_ok());

  ASSERT_TRUE(cluster.restart_site(1).is_ok());
  EXPECT_EQ(cluster.stats().full_syncs, 1u);
  // Site 1 holds the union: the peer's compacted commit AND its own.
  EXPECT_EQ(stored_phone(cluster, 1, "p1"), "777");
  EXPECT_EQ(stored_phone(cluster, 1, "p2"), "888");
}

TEST(RecoverySyncTest, CrashMidCheckpointRecoversAndAgrees) {
  // Manufacture the checkpoint crash windows on a crashed site's store —
  // a marker appended without its snapshot, plus a torn record append —
  // then restart and require the replicas to agree.
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 42"});
  ASSERT_TRUE(result.is_ok());
  ASSERT_EQ(result.value().state, TxnState::kCommitted);
  ASSERT_TRUE(cluster.crash_site(1).is_ok());

  // Crash window 1: checkpoint marker appended, snapshot never written.
  storage::StorageBackend& store = cluster.store_of(1);
  ASSERT_TRUE(store
                  .append(wal::log_key("d1"),
                          wal::encode_checkpoint(
                              1, wal::fnv1a("<never-written/>"), {99}))
                  .is_ok());
  // Crash window 2: a torn record append behind it.
  const std::string torn =
      wal::encode_record(2, 77, {"update d1 change /site/a ::= x"});
  ASSERT_TRUE(store
                  .append(wal::log_key("d1"),
                          torn.substr(0, torn.size() / 2))
                  .is_ok());

  ASSERT_TRUE(cluster.restart_site(1).is_ok());
  for (net::SiteId site : {0u, 1u}) {
    EXPECT_EQ(stored_phone(cluster, site, "p1"), "42") << "site " << site;
  }
  auto read = cluster.execute_text(
      1, {"query d1 /site/people/person[@id='p1']/phone"});
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().state, TxnState::kCommitted);
  EXPECT_EQ(read.value().rows[0][0], "42");
}

TEST(ConcurrentRestartTest, TwoCrashedSitesRestartTogetherAndAgree) {
  // Each replica holds a durable commit the other never saw, and both are
  // down: each restart can only catch up from the other, which is itself
  // restarting. The recovering sites must answer each other's pulls while
  // they wait, or both would give up at the deadline and stay divergent.
  ClusterOptions options = fast_options(2);
  options.site.response_timeout = std::chrono::microseconds(2'000'000);
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.crash_site(0).is_ok());
  ASSERT_TRUE(cluster.crash_site(1).is_ok());
  ASSERT_TRUE(
      cluster.store_of(0)
          .append(wal::log_key("d1"),
                  wal::encode_record(
                      1, 1001,
                      {"update d1 change "
                       "/site/people/person[@id='p1']/phone ::= 500"}))
          .is_ok());
  ASSERT_TRUE(
      cluster.store_of(1)
          .append(wal::log_key("d1"),
                  wal::encode_record(
                      1, 1002,
                      {"update d1 change "
                       "/site/people/person[@id='p2']/phone ::= 600"}))
          .is_ok());

  util::Status restarted_1 = util::Status::ok();
  std::thread other([&] { restarted_1 = cluster.restart_site(1); });
  const util::Status restarted_0 = cluster.restart_site(0);
  other.join();
  ASSERT_TRUE(restarted_0.is_ok()) << restarted_0.to_string();
  ASSERT_TRUE(restarted_1.is_ok()) << restarted_1.to_string();

  EXPECT_EQ(cluster.stats().log_suffix_syncs, 2u);
  for (net::SiteId site : {0u, 1u}) {
    EXPECT_EQ(stored_phone(cluster, site, "p1"), "500") << "site " << site;
    EXPECT_EQ(stored_phone(cluster, site, "p2"), "600") << "site " << site;
    auto read = cluster.execute_text(
        site, {"query d1 /site/people/person[@id='p2']/phone"});
    ASSERT_TRUE(read.is_ok());
    ASSERT_EQ(read.value().state, TxnState::kCommitted);
    EXPECT_EQ(read.value().rows[0][0], "600") << "site " << site;
  }
}

TEST(RecoveryPullTest, AnswerFollowsReplicaState) {
  // One site, one endpoint pulling from it. Peer site 1 is registered but
  // never runs, so the site's recovering start waits out its whole response
  // timeout — the window in which the first row is asked.
  net::SimNetwork network;
  (void)network.register_site(1);
  Catalog catalog;
  ASSERT_TRUE(catalog.add_document("held", {0, 1}).is_ok());
  ASSERT_TRUE(catalog.add_document("fenced", {0, 1}).is_ok());
  ASSERT_TRUE(catalog.add_document("absent", {1}).is_ok());
  storage::MemoryStore store;
  ASSERT_TRUE(store.store("held", kPeopleXml).is_ok());
  SiteOptions options;
  options.poll_interval = std::chrono::microseconds(500);
  options.response_timeout = std::chrono::microseconds(1'000'000);
  Site site(options, network, catalog, store);

  const net::SiteId puller = net::kClientIdBase + 1;
  net::Mailbox& inbox = network.register_site(puller);
  const auto pull = [&](const std::string& doc) {
    std::optional<net::RecoveryPullReply> answer;
    network.send(net::Message{puller, 0, net::RecoveryPullRequest{doc, puller}});
    while (!answer) {
      std::optional<net::Message> message = inbox.pop(500'000us);
      if (!message) break;
      const auto* reply = std::get_if<net::RecoveryPullReply>(&message->payload);
      if (reply != nullptr && reply->doc == doc) answer = *reply;
    }
    return answer;
  };

  util::Status started = util::Status::ok();
  std::thread starter(
      [&] { started = site.start(Site::Startup::kRecover); });
  const auto serve = [&] {
    starter.join();
    ASSERT_TRUE(started.is_ok()) << started.to_string();
    // Stale pre-adoption bytes under the fence: start() fenced "fenced"
    // (hosted here, not stored) and no host ever ships it.
    ASSERT_TRUE(store.store("fenced", kPeopleXml).is_ok());
  };

  struct Case {
    const char* doc;
    bool while_recovering;
    bool served;
  };
  const Case cases[] = {
      {"held", true, true},      // a recovering replica serves its state
      {"fenced", false, false},  // a fenced import never serves
      {"absent", false, false},  // no stored copy
      {"held", false, true},     // ... and the running site still serves
  };
  for (const Case& row : cases) {
    SCOPED_TRACE(std::string(row.doc) +
                 (row.while_recovering ? " (recovering)" : " (running)"));
    if (!row.while_recovering && starter.joinable()) {
      serve();
      if (::testing::Test::HasFatalFailure()) return;
    }
    const std::optional<net::RecoveryPullReply> reply = pull(row.doc);
    if (!reply) {
      ADD_FAILURE() << "no answer";
      continue;
    }
    EXPECT_EQ(reply->ok, row.served);
    if (row.while_recovering) {
      EXPECT_FALSE(site.running());
    }
    if (row.served) {
      EXPECT_EQ(reply->snapshot, kPeopleXml);
    }
  }
  if (starter.joinable()) starter.join();
}

// --- abort taxonomy (regression for the audited defensive default) -----------

TEST(AbortTaxonomyTest, EveryAbortPathYieldsTypedReason) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  // Unknown document -> parse-error class.
  auto unknown = cluster.execute_text(0, {"query nope /a"});
  ASSERT_TRUE(unknown.is_ok());
  EXPECT_EQ(unknown.value().reason, AbortReason::kParseError);

  // Structurally impossible update -> unprocessable.
  auto bad = cluster.execute_text(
      0, {"update d1 insert after /site ::= <x/>"});
  ASSERT_TRUE(bad.is_ok());
  EXPECT_EQ(bad.value().reason, AbortReason::kUnprocessableUpdate);

  // Down participant -> site failure.
  ASSERT_TRUE(cluster.crash_site(1).is_ok());
  auto down = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 1"});
  ASSERT_TRUE(down.is_ok());
  EXPECT_EQ(down.value().reason, AbortReason::kSiteFailure);
  ASSERT_TRUE(cluster.restart_site(1).is_ok());

  // The coordinator's "defensive default" (finish_transaction) is audited
  // unreachable: nothing above (or in any other suite) may take it.
  EXPECT_EQ(total_unclassified(cluster), 0u);
}

// --- miniature soak ----------------------------------------------------------

TEST(ChaosRunnerTest, MiniSoakHoldsInvariants) {
  workload::ChaosOptions options;
  options.seed = 5;
  options.sites = 3;
  options.clients = 3;
  options.rounds = 2;
  options.traffic_window = std::chrono::milliseconds(100);
  options.fault_hold = std::chrono::milliseconds(100);
  options.background_fault.drop_probability = 0.01;
  options.background_fault.duplicate_probability = 0.01;
  const workload::ChaosReport report = workload::run_chaos(options);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(report.invariants_ok);
  EXPECT_GT(report.submitted, 0u);
  EXPECT_EQ(report.cluster.unclassified_aborts, 0u);
}

TEST(ChaosRunnerTest, MiniSoakHoldsInvariantsUnderAggressiveCheckpoints) {
  // checkpoint_interval=2 keeps a compaction in flight almost every
  // commit, so crashes land inside and around the checkpoint write
  // sequence; the replicas must still agree after log-suffix recovery.
  workload::ChaosOptions options;
  options.seed = 11;
  options.sites = 3;
  options.clients = 3;
  options.rounds = 2;
  options.checkpoint_interval = 2;
  options.traffic_window = std::chrono::milliseconds(100);
  options.fault_hold = std::chrono::milliseconds(100);
  options.background_fault.drop_probability = 0.01;
  options.background_fault.duplicate_probability = 0.01;
  const workload::ChaosReport report = workload::run_chaos(options);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(report.invariants_ok);
  EXPECT_GT(report.submitted, 0u);
}

TEST(ChaosRunnerTest, SnapshotReadsStayConsistentAcrossCrashRecovery) {
  // Read-heavy mix over the MVCC snapshot path while sites crash, restart
  // and checkpoint. Every read-only transaction runs its query twice and
  // the runner asserts both executions saw identical rows (one consistent
  // cut, never torn) — any mismatch lands in report.violations. The
  // frequent checkpoints additionally force version-chain pruning and
  // wal::materialize fallbacks concurrently with the readers.
  workload::ChaosOptions options;
  options.seed = 23;
  options.sites = 3;
  options.clients = 4;
  options.rounds = 2;
  options.read_fraction = 0.8;
  options.checkpoint_interval = 2;
  options.traffic_window = std::chrono::milliseconds(100);
  options.fault_hold = std::chrono::milliseconds(100);
  options.background_fault.drop_probability = 0.01;
  options.background_fault.duplicate_probability = 0.01;
  const workload::ChaosReport report = workload::run_chaos(options);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(report.invariants_ok);
  EXPECT_GT(report.submitted, 0u);
  // The read-heavy mix must actually exercise the snapshot path.
  EXPECT_GT(report.cluster.snapshot_txns, 0u);
  EXPECT_EQ(report.cluster.unclassified_aborts, 0u);
}

}  // namespace
}  // namespace dtx::core
