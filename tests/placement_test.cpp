// Placement & membership subsystem (src/placement + the Site/Cluster
// membership protocol):
//
//  * placement policies — hosting-set assignment invariants, hash-ring
//    movement minimality under rebalance, migration planning;
//  * catalog epochs — text round-trip, strictly-newer install;
//  * partial replication routing — transactions touch ONLY hosting sites
//    (message counters at the bystander stay zero);
//  * epoch fencing — a transaction routed under a stale epoch aborts with
//    the retryable kStaleCatalog, the lagging coordinator catches up via
//    catalog anti-entropy, and the retry commits;
//  * elastic membership — add_site migrates replicas onto the joiner and
//    remove_site drains it, under a seeded chaotic network, ending with
//    byte-identical replicas and no dangling locks;
//  * decommission drain — a leaving site reports done only after the
//    transactions it coordinates ended, refusing new ones meanwhile.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "dtx/cluster.hpp"
#include "dtx/wal.hpp"
#include "placement/placement.hpp"

namespace dtx::core {
namespace {

using namespace std::chrono_literals;
using placement::CatalogEpoch;
using placement::PlacementPolicy;
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
  options.site.commit_ack_rounds = 2;
  return options;
}

/// Retries a transaction through transient aborts until it commits (or the
/// attempt budget runs out) — what a real client does with a retryable
/// reason like kStaleCatalog.
txn::TxnResult execute_retrying(Cluster& cluster, net::SiteId site,
                                const std::vector<std::string>& ops,
                                int attempts = 50) {
  txn::TxnResult last;
  for (int i = 0; i < attempts; ++i) {
    auto result = cluster.execute_text(site, ops);
    if (!result.is_ok()) {
      std::this_thread::sleep_for(2ms);
      continue;
    }
    last = std::move(result).value();
    if (last.state == TxnState::kCommitted) return last;
    if (!txn::abort_reason_retryable(last.reason)) return last;
    std::this_thread::sleep_for(2ms);
  }
  return last;
}

/// Replica agreement: every hosting site's durable state of `doc`
/// materializes to the same bytes.
void expect_replicas_agree(Cluster& cluster, const std::string& doc,
                           const std::vector<net::SiteId>& hosts) {
  ASSERT_FALSE(hosts.empty());
  auto reference = wal::materialize(cluster.store_of(hosts.front()), doc);
  ASSERT_TRUE(reference.is_ok()) << reference.status().to_string();
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    auto replica = wal::materialize(cluster.store_of(hosts[i]), doc);
    ASSERT_TRUE(replica.is_ok()) << replica.status().to_string();
    EXPECT_EQ(reference.value(), replica.value())
        << doc << " diverges between site " << hosts.front() << " and site "
        << hosts[i];
  }
}

// --- placement policies ------------------------------------------------------

TEST(PlacementPolicy, AssignSitesInvariants) {
  const std::vector<net::SiteId> members{0, 1, 2, 3, 4};
  for (const PlacementPolicy policy :
       {PlacementPolicy::kFixed, PlacementPolicy::kRoundRobin,
        PlacementPolicy::kHashRing}) {
    for (std::size_t replication : {std::size_t{1}, std::size_t{3}}) {
      const std::vector<net::SiteId> hosts = placement::assign_sites(
          policy, 7, "doc7", members, replication);
      EXPECT_EQ(hosts.size(), replication);
      EXPECT_TRUE(std::is_sorted(hosts.begin(), hosts.end()));
      EXPECT_EQ(std::set<net::SiteId>(hosts.begin(), hosts.end()).size(),
                hosts.size());
      for (const net::SiteId host : hosts) {
        EXPECT_TRUE(std::find(members.begin(), members.end(), host) !=
                    members.end());
      }
    }
    // 0 (and anything >= member count) means full replication.
    EXPECT_EQ(placement::assign_sites(policy, 0, "d", members, 0).size(),
              members.size());
    EXPECT_EQ(placement::assign_sites(policy, 0, "d", members, 9).size(),
              members.size());
  }
}

TEST(PlacementPolicy, RoundRobinSpreadsByIndex) {
  const std::vector<net::SiteId> members{0, 1, 2};
  std::set<net::SiteId> first_choices;
  for (std::size_t doc = 0; doc < 3; ++doc) {
    const auto hosts = placement::assign_sites(
        PlacementPolicy::kRoundRobin, doc, "doc", members, 1);
    ASSERT_EQ(hosts.size(), 1u);
    first_choices.insert(hosts.front());
  }
  EXPECT_EQ(first_choices.size(), 3u) << "striping must hit every member";
}

TEST(PlacementPolicy, HashRingRebalanceMovesFewReplicas) {
  CatalogEpoch current;
  current.epoch = 3;
  current.members = {0, 1, 2, 3};
  for (int d = 0; d < 32; ++d) {
    const std::string name = "doc" + std::to_string(d);
    current.placement[name] = placement::assign_sites(
        PlacementPolicy::kHashRing, static_cast<std::size_t>(d), name,
        current.members, 2);
  }
  const CatalogEpoch next = placement::rebalance(
      current, {0, 1, 2, 3, 4}, {{4, "127.0.0.1:7104"}},
      PlacementPolicy::kHashRing, 2);
  EXPECT_EQ(next.epoch, 4u);
  ASSERT_TRUE(next.is_member(4));
  EXPECT_EQ(next.addresses.at(4), "127.0.0.1:7104");
  std::size_t moved = 0;
  for (const auto& [doc, hosts] : next.placement) {
    EXPECT_EQ(hosts.size(), 2u);
    if (hosts != current.sites_of(doc)) ++moved;
  }
  // Consistent hashing: roughly replication/members of the replicas move;
  // anything under half the documents proves we are not reshuffling
  // everything (round-robin or fixed would).
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 16u) << "hash ring moved " << moved << "/32 documents";
}

TEST(PlacementPolicy, PlanMigrationListsSourcesGainsDrops) {
  CatalogEpoch from;
  from.epoch = 1;
  from.members = {0, 1, 2};
  from.placement["a"] = {0, 1};
  from.placement["b"] = {1, 2};
  CatalogEpoch to = from;
  to.epoch = 2;
  to.members = {1, 2, 3};
  to.placement["a"] = {1, 3};
  const placement::MigrationPlan plan = placement::plan_migration(from, to);
  ASSERT_EQ(plan.moves.size(), 1u);  // only "a" changed hosts
  EXPECT_EQ(plan.moves[0].doc, "a");
  EXPECT_EQ(plan.moves[0].sources, (std::vector<net::SiteId>{0, 1}));
  EXPECT_EQ(plan.moves[0].gains, (std::vector<net::SiteId>{3}));
  EXPECT_EQ(plan.moves[0].drops, (std::vector<net::SiteId>{0}));
}

// --- catalog epochs ----------------------------------------------------------

TEST(CatalogEpochTest, TextRoundTrip) {
  CatalogEpoch epoch;
  epoch.epoch = 42;
  epoch.members = {0, 2, 5};
  epoch.addresses = {{0, "127.0.0.1:7100"}, {5, "10.0.0.5:7105"}};
  epoch.placement["d1"] = {0, 2};
  epoch.placement["weird name"] = {5};
  auto parsed = CatalogEpoch::parse(epoch.to_text());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const CatalogEpoch& round = parsed.value();
  EXPECT_EQ(round.epoch, epoch.epoch);
  EXPECT_EQ(round.members, epoch.members);
  EXPECT_EQ(round.addresses, epoch.addresses);
  EXPECT_EQ(round.placement, epoch.placement);
}

TEST(CatalogEpochTest, InstallRequiresStrictlyNewer) {
  Catalog catalog;
  ASSERT_TRUE(catalog.add_document("d1", {0, 1}).is_ok());
  CatalogEpoch next(*catalog.view());
  next.epoch = 1;
  EXPECT_TRUE(catalog.install(next));
  EXPECT_FALSE(catalog.install(next)) << "duplicate epoch must be a no-op";
  next.epoch = 0;
  EXPECT_FALSE(catalog.install(next));
  EXPECT_EQ(catalog.epoch(), 1u);
}

// --- partial replication routing ---------------------------------------------

TEST(PartialReplication, TransactionsTouchOnlyHostingSites) {
  Cluster cluster(fast_options(3));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  for (int i = 0; i < 10; ++i) {
    auto result = cluster.execute_text(
        0, {"update d1 change /site/people/person[@id='p1']/phone ::= " +
                std::to_string(900 + i),
            "query d1 /site/people/person[@id='p1']/phone"});
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    ASSERT_EQ(result.value().state, TxnState::kCommitted)
        << result.value().detail;
  }

  // The bystander site hosts nothing of d1: no remote operation, no lock,
  // no migration may ever reach it.
  SiteStats bystander = cluster.site(2).stats();
  EXPECT_EQ(bystander.remote_ops_processed, 0u);
  EXPECT_EQ(bystander.lock_manager.lock_acquisitions, 0u);
  EXPECT_EQ(bystander.migrations, 0u);
  // The hosting replica pair did all the work and agrees.
  SiteStats host = cluster.site(1).stats();
  EXPECT_GT(host.remote_ops_processed, 0u);
  cluster.stop();
  expect_replicas_agree(cluster, "d1", {0, 1});
}

// --- epoch fencing + anti-entropy --------------------------------------------

TEST(CatalogEpochFencing, StaleCoordinatorAbortsRetriesAndCatchesUp) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  // Flip ONLY site 1 to a newer epoch (same placement — pure fence): the
  // admin never tells site 0.
  const net::SiteId admin = net::kClientIdBase + 0x200u;
  net::Mailbox& admin_mailbox = cluster.network().register_site(admin);
  CatalogEpoch next(*cluster.catalog().view());
  next.epoch = cluster.catalog().epoch() + 1;
  cluster.network().send(net::Message{
      admin, 1, net::CatalogUpdate{next.epoch, next.to_text(), admin}});
  // Site 1 installs and, once its old-epoch transactions drained, acks.
  const auto ack = admin_mailbox.pop(std::chrono::microseconds(2'000'000));
  ASSERT_TRUE(ack.has_value()) << "site 1 never acked the catalog update";
  ASSERT_TRUE(std::holds_alternative<net::CatalogAck>(ack->payload));
  EXPECT_EQ(std::get<net::CatalogAck>(ack->payload).epoch, next.epoch);

  // A transaction coordinated at lagging site 0 routes its remote
  // operation under the old epoch; site 1 fences it with the retryable
  // kStaleCatalog and gossips the new catalog back. The retry commits.
  const std::vector<std::string> ops{
      "update d1 change /site/people/person[@id='p2']/phone ::= 333"};
  const txn::TxnResult result = execute_retrying(cluster, 0, ops);
  EXPECT_EQ(result.state, TxnState::kCommitted) << result.detail;

  ClusterStats stats = cluster.stats();
  EXPECT_GE(stats.stale_catalog_aborts, 1u);
  EXPECT_EQ(stats.catalog_epoch, next.epoch);
  // Anti-entropy delivered the epoch to the lagging coordinator itself.
  EXPECT_EQ(cluster.site(0).stats().catalog_epoch, next.epoch);
  cluster.stop();
  expect_replicas_agree(cluster, "d1", {0, 1});
}

// --- elastic membership ------------------------------------------------------

class MembershipTest : public ::testing::Test {
 protected:
  static ClusterOptions membership_options(std::size_t sites) {
    ClusterOptions options = fast_options(sites);
    options.site.placement_policy = PlacementPolicy::kHashRing;
    options.site.replication = 2;
    return options;
  }

  static std::vector<std::string> doc_names() {
    return {"d0", "d1", "d2", "d3", "d4", "d5"};
  }

  void load_all(Cluster& cluster, const std::vector<net::SiteId>& members) {
    // Initial placement mirrors what the policy would choose so the first
    // rebalance moves little.
    std::size_t index = 0;
    for (const std::string& doc : doc_names()) {
      const auto hosts = placement::assign_sites(
          PlacementPolicy::kHashRing, index++, doc, members, 2);
      ASSERT_TRUE(cluster.load_document(doc, kPeopleXml, hosts).is_ok());
    }
  }

  static std::vector<std::string> update_ops(int value) {
    return {"update d" + std::to_string(value % 6) +
            " change /site/people/person[@id='p1']/phone ::= " +
            std::to_string(value)};
  }
};

TEST_F(MembershipTest, AddAndRemoveSiteUnderChaosKeepsReplicasConsistent) {
  ClusterOptions options = membership_options(3);
  Cluster cluster(options);
  load_all(cluster, {0, 1, 2});
  ASSERT_TRUE(cluster.start().is_ok());

  // Seeded low-grade chaos on every link: drops and duplicates while the
  // membership changes run. (Kept mild so the test stays fast — the
  // protocol-level resends and idempotence must absorb it.)
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.seed(7);
    net::LinkFault fault;
    fault.drop_probability = 0.02;
    fault.duplicate_probability = 0.02;
    plan.set_default_fault(fault);
  });

  std::atomic<bool> stop_load{false};
  std::atomic<int> committed{0};
  std::thread load([&] {
    int value = 0;
    while (!stop_load.load()) {
      const txn::TxnResult result = execute_retrying(
          cluster, static_cast<net::SiteId>(value % 3), update_ops(value), 8);
      if (result.state == TxnState::kCommitted) ++committed;
      ++value;
    }
  });

  // Grow 3 -> 4: the joiner must end up hosting its hash-ring share.
  auto added = cluster.add_site();
  ASSERT_TRUE(added.is_ok()) << added.status().to_string();
  const net::SiteId joiner = added.value();
  EXPECT_EQ(joiner, 3u);
  const std::vector<std::string> gained =
      cluster.catalog().documents_at(joiner);
  EXPECT_FALSE(gained.empty()) << "hash ring assigned nothing to the joiner";

  // Shrink: decommission site 0; its replicas must migrate away first.
  ASSERT_TRUE(cluster.remove_site(0).is_ok());
  EXPECT_FALSE(cluster.site_running(0));

  stop_load.store(true);
  load.join();
  cluster.network().heal();
  EXPECT_GT(committed.load(), 0);

  // Drain the survivors, then check the invariants.
  std::this_thread::sleep_for(200ms);
  const Catalog::View view = cluster.catalog().view();
  EXPECT_FALSE(view->is_member(0));
  for (const std::string& doc : doc_names()) {
    const std::vector<net::SiteId>& hosts = view->sites_of(doc);
    ASSERT_EQ(hosts.size(), 2u) << doc << " lost replication";
    for (const net::SiteId host : hosts) {
      EXPECT_NE(host, 0u) << doc << " still placed at the removed site";
    }
  }
  for (const net::SiteId site : {1u, 2u, 3u}) {
    EXPECT_EQ(cluster.site(site).lock_manager().lock_entries(), 0u)
        << "dangling locks at site " << site;
  }
  ClusterStats stats = cluster.stats();
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_GT(stats.migrated_bytes, 0u);
  EXPECT_GE(stats.catalog_epoch, 2u);  // one join + one leave
  cluster.stop();
  for (const std::string& doc : doc_names()) {
    expect_replicas_agree(cluster, doc, view->sites_of(doc));
  }
  // The decommissioned site's store holds no document replicas anymore
  // (internal records like the durable catalog may remain).
  for (const std::string& doc : doc_names()) {
    EXPECT_FALSE(cluster.store_of(0).exists(doc))
        << doc << " still stored at the removed site";
  }
}

TEST_F(MembershipTest, AddSiteServesNewTrafficOnJoiner) {
  Cluster cluster(membership_options(2));
  load_all(cluster, {0, 1});
  ASSERT_TRUE(cluster.start().is_ok());

  auto added = cluster.add_site();
  ASSERT_TRUE(added.is_ok()) << added.status().to_string();
  const net::SiteId joiner = added.value();

  // The joiner coordinates transactions immediately — including ones that
  // touch documents it does not host (pure remote routing).
  for (int i = 0; i < 6; ++i) {
    const txn::TxnResult result =
        execute_retrying(cluster, joiner, update_ops(i));
    EXPECT_EQ(result.state, TxnState::kCommitted) << result.detail;
  }
  cluster.stop();
  const Catalog::View view = cluster.catalog().view();
  for (const std::string& doc : doc_names()) {
    expect_replicas_agree(cluster, doc, view->sites_of(doc));
  }
}

TEST(DecommissionTest, DrainsOwnTransactionsBeforeReportingDone) {
  // The host stops a site the moment it reports decommissioned(); a commit
  // fan-out still running there would be cut short, and its participants
  // would presume abort of a committed transaction. So a leaving site with
  // no replicas left refuses new work and reports done only once the
  // transactions it coordinates have ended.
  ClusterOptions options = fast_options(3);
  options.site.response_timeout = std::chrono::microseconds(600'000);
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {1, 2}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  // Site 0 hosts nothing. Its transaction stalls: the participants'
  // replies never reach it, so it runs until its response timeout.
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return message.to == 0 &&
             std::holds_alternative<net::OperationResult>(message.payload);
    });
  });
  auto stalled = cluster.submit_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 5"});
  ASSERT_TRUE(stalled.is_ok());
  Site& leaver = cluster.site(0);
  leaver.begin_leave();

  // With no replica left to ship, the leaver soon refuses new work — at
  // submission, before anything runs. (Probes admitted earlier queue
  // behind the stalled transaction on the one coordinator worker.)
  txn::TxnResult refused;
  const auto refuse_by = std::chrono::steady_clock::now() + 2s;
  while (refused.reason != AbortReason::kStaleCatalog &&
         std::chrono::steady_clock::now() < refuse_by) {
    auto probe = cluster.submit_text(0, {"query d1 /site/people/person"});
    ASSERT_TRUE(probe.is_ok());
    if (probe.value()->completed()) {
      refused = probe.value()->await();
    } else {
      std::this_thread::sleep_for(5ms);
    }
  }
  EXPECT_EQ(refused.reason, AbortReason::kStaleCatalog) << refused.detail;
  EXPECT_FALSE(leaver.decommissioned())
      << "reported done while a transaction it coordinates still runs";

  EXPECT_NE(stalled.value()->await().state, TxnState::kCommitted);
  const auto done_by = std::chrono::steady_clock::now() + 2s;
  while (!leaver.decommissioned() &&
         std::chrono::steady_clock::now() < done_by) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(leaver.decommissioned());
}

}  // namespace
}  // namespace dtx::core
