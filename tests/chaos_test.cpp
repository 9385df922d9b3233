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

std::string stored_phone(Cluster& cluster, net::SiteId site,
                         const std::string& person) {
  auto stored = wal::materialize(cluster.store_of(site), "d1");
  EXPECT_TRUE(stored.is_ok());
  auto parsed = xml::parse(stored.value(), "d1");
  EXPECT_TRUE(parsed.is_ok());
  auto path =
      xpath::parse("/site/people/person[@id='" + person + "']/phone");
  EXPECT_TRUE(path.is_ok());
  const auto values = xpath::evaluate_strings(path.value(), *parsed.value());
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
  EXPECT_GE(cluster.stats().orphans_aborted, 1u);
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
  EXPECT_GE(cluster.stats().orphans_committed, 1u);
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
  EXPECT_GE(cluster.stats().orphans_committed, 1u);
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
    auto stored = wal::materialize(cluster.store_of(site), "d1");
    ASSERT_TRUE(stored.is_ok());
    auto parsed = xml::parse(stored.value(), "d1");
    ASSERT_TRUE(parsed.is_ok());
    auto path = xpath::parse("/site/people/person/@id");
    ASSERT_TRUE(path.is_ok());
    const auto ids = xpath::evaluate_strings(path.value(), *parsed.value());
    for (int i = 0; i < 5; ++i) {
      const std::string id = "dup" + std::to_string(i);
      EXPECT_EQ(std::count(ids.begin(), ids.end(), id), 1)
          << id << " applied " << std::count(ids.begin(), ids.end(), id)
          << " times at site " << site;
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
