#include "workload/chaos.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "client/client.hpp"
#include "dtx/wal.hpp"
#include "util/rng.hpp"
#include "xml/parser.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"

namespace dtx::workload {

namespace {

using core::Cluster;
using core::ClusterOptions;
using net::SiteId;
using txn::TxnState;
namespace wal = core::wal;

constexpr const char* kSharedDoc = "d0";
constexpr const char* kBaseXml =
    "<site><people>"
    "<person id=\"p1\"><name>Ana</name><phone>111</phone></person>"
    "<person id=\"p2\"><name>Bruno</name><phone>222</phone></person>"
    "<person id=\"p3\"><name>Carla</name><phone>333</phone></person>"
    "</people></site>";

/// One round of the precomputed fault schedule.
struct RoundPlan {
  bool crash = false;
  SiteId crash_site = 0;
  bool partition = false;
  SiteId partition_a = 0;
  SiteId partition_b = 0;
};

/// Shared outcome bookkeeping. An effect lands in `committed` when the
/// client saw kCommitted, in `indeterminate` when the abort reason was
/// kSiteFailure (or the state kFailed) — the fault may have hit after the
/// commit decision — and nowhere when the rollback was deterministic.
struct Tracker {
  std::mutex mutex;
  std::set<std::string> committed_inserts;
  std::set<std::string> indeterminate_inserts;
  std::set<std::string> committed_values;
  std::set<std::string> indeterminate_values;
  std::size_t submitted = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t indeterminate = 0;
  /// Snapshot-consistency failures observed by read-only clients (the
  /// repeated query of one transaction returned different rows).
  std::vector<std::string> torn_reads;
};

/// Traffic gate: clients run only while open; pause() blocks until every
/// client finished its in-flight transaction.
struct TrafficGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  bool shutdown = false;
  std::size_t in_flight = 0;

  /// Returns false when the runner is shutting down.
  bool enter() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return open || shutdown; });
    if (shutdown) return false;
    ++in_flight;
    return true;
  }
  void leave() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      --in_flight;
    }
    cv.notify_all();
  }
  void resume() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void pause() {
    std::unique_lock<std::mutex> lock(mutex);
    open = false;
    cv.wait(lock, [&] { return in_flight == 0; });
  }
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      shutdown = true;
      open = false;
    }
    cv.notify_all();
  }
};

/// Which sites are currently up (clients route around crashed sites).
struct UpSites {
  std::mutex mutex;
  std::set<SiteId> up;

  void set(SiteId site, bool is_up) {
    std::lock_guard<std::mutex> lock(mutex);
    if (is_up) {
      up.insert(site);
    } else {
      up.erase(site);
    }
  }
  SiteId pick(util::Rng& rng, std::size_t sites) {
    std::lock_guard<std::mutex> lock(mutex);
    if (up.empty()) return static_cast<SiteId>(rng.next_index(sites));
    auto it = up.begin();
    std::advance(it, static_cast<long>(rng.next_index(up.size())));
    return *it;
  }
};

void emit(std::FILE* jsonl, const std::string& line) {
  if (jsonl == nullptr) return;
  std::fprintf(jsonl, "%s\n", line.c_str());
  std::fflush(jsonl);
}

std::string bool_str(bool value) { return value ? "true" : "false"; }

/// Client worker: generates transactions from its own seeded stream while
/// the gate is open; classifies every outcome into the tracker.
void client_loop(std::size_t index, const ChaosOptions& options,
                 Cluster& cluster, client::Client& client, TrafficGate& gate,
                 UpSites& up_sites, Tracker& tracker, std::FILE* trace) {
  util::Rng rng(options.seed * 7919 + index * 104'729 + 17);
  std::uint64_t counter = 0;
  while (gate.enter()) {
    const std::uint64_t serial = counter++;
    const double roll = rng.next_double();
    client::TxnBuilder builder;
    std::string insert_id;
    std::string change_value;
    bool read_only = false;
    // Write share split 62.5 / 37.5 into inserts / changes, so the default
    // read_fraction of 0.2 reproduces the historical 0.5 / 0.3 / 0.2 mix.
    const double write_span = 1.0 - options.read_fraction;
    if (roll < write_span * 0.625) {
      insert_id = "c" + std::to_string(index) + "_" + std::to_string(serial);
      builder.query(kSharedDoc, "/site/people/person/name")
          .insert(kSharedDoc, "/site/people",
                  "<person id=\"" + insert_id + "\"><name>x</name></person>");
    } else if (roll < write_span) {
      const std::string person =
          "p" + std::to_string(1 + rng.next_index(3));
      change_value =
          "v" + std::to_string(index) + "_" + std::to_string(serial);
      builder.change(kSharedDoc,
                     "/site/people/person[@id='" + person + "']/phone",
                     change_value);
    } else {
      // Torn-read probe: the same query twice in one read-only
      // transaction. Both executions must see the identical rows — the
      // snapshot path serves one consistent cut, the locked path holds
      // the read locks across the transaction.
      read_only = true;
      builder.query(kSharedDoc, "/site/people/person/phone")
          .query(kSharedDoc, "/site/people/person/phone");
    }
    auto prepared = builder.build();
    const SiteId site = up_sites.pick(rng, cluster.site_count());

    client::SessionOptions session_options;
    session_options.routing = client::RoutingPolicy::explicit_site(site);
    // The paper leaves deadlock resubmission to the application; the
    // typed client automates it (RetryPolicy). Site failures are NOT
    // auto-retried here: their outcome is indeterminate and a blind
    // resubmit could double-apply.
    session_options.retry.max_deadlock_retries = 2;
    session_options.retry.backoff = std::chrono::microseconds(500);
    client::Session session = client.session(session_options);
    auto result = prepared ? session.execute(prepared.value())
                           : util::Result<txn::TxnResult>(prepared.status());

    if (trace != nullptr) {
      std::lock_guard<std::mutex> lock(tracker.mutex);
      std::fprintf(
          trace,
          "{\"event\":\"txn\",\"site\":%u,\"insert\":\"%s\",\"change\":"
          "\"%s\",\"state\":\"%s\",\"reason\":\"%s\",\"id\":%llu}\n",
          site, insert_id.c_str(), change_value.c_str(),
          result ? txn::txn_state_name(result.value().state) : "rejected",
          result ? txn::abort_reason_name(result.value().reason) : "-",
          result ? static_cast<unsigned long long>(result.value().id) : 0ULL);
      std::fflush(trace);
    }
    std::lock_guard<std::mutex> lock(tracker.mutex);
    ++tracker.submitted;
    if (!result) {
      ++tracker.aborted;  // rejected before submission (cluster down etc.)
    } else if (result.value().state == TxnState::kCommitted) {
      ++tracker.committed;
      if (!insert_id.empty()) tracker.committed_inserts.insert(insert_id);
      if (!change_value.empty()) tracker.committed_values.insert(change_value);
      if (read_only && result.value().rows.size() == 2 &&
          result.value().rows[0] != result.value().rows[1]) {
        tracker.torn_reads.push_back(
            "torn read: txn " + std::to_string(result.value().id) +
            " saw different rows for the same query (" +
            std::to_string(result.value().rows[0].size()) + " vs " +
            std::to_string(result.value().rows[1].size()) + " rows)");
      }
    } else if (result.value().state == TxnState::kFailed ||
               result.value().reason == txn::AbortReason::kSiteFailure) {
      ++tracker.indeterminate;
      if (!insert_id.empty()) {
        tracker.indeterminate_inserts.insert(insert_id);
      }
      if (!change_value.empty()) {
        tracker.indeterminate_values.insert(change_value);
      }
    } else {
      ++tracker.aborted;  // deterministic rollback (deadlock, parse, ...)
    }
    gate.leave();
  }
}

/// Polls until every site is idle (no locks, no undo logs) or the deadline
/// passes. Returns the violation text, empty when drained.
std::string await_drain(Cluster& cluster, std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  std::string last;
  for (;;) {
    last.clear();
    for (SiteId site = 0; site < cluster.site_count(); ++site) {
      // Decommissioned joiners (membership churn) stay stopped; their
      // lock tables were drained as part of the leave.
      if (!cluster.site_running(site)) continue;
      const std::size_t locks = cluster.site(site).lock_manager().lock_entries();
      const std::size_t undo =
          cluster.site(site).lock_manager().undo_log_count();
      if (locks != 0 || undo != 0) {
        last = "site " + std::to_string(site) + ": " +
               std::to_string(locks) + " dangling locks, " +
               std::to_string(undo) + " live undo logs";
        break;
      }
    }
    if (last.empty()) return last;
    if (std::chrono::steady_clock::now() >= until) return last;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Order-insensitive structural fingerprint: XDGL's SI lock deliberately
/// lets independent transactions insert under the same node concurrently,
/// so replicas may interleave siblings differently; content must agree as
/// a multiset at every level (the dtx_test replica invariant).
std::string fingerprint(const xml::Node& node) {
  std::string out =
      node.is_element() ? "<" + node.name() : "#t:" + node.value();
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

/// Compares every replica of every document structurally. The committed
/// truth of a replica is its checkpoint snapshot + replayed redo-log tail
/// (wal::materialize); callers ensure quiescence.
std::string check_replica_agreement(Cluster& cluster) {
  for (const std::string& doc : cluster.catalog().documents()) {
    std::string reference;
    SiteId reference_site = 0;
    for (SiteId site : cluster.catalog().sites_of(doc)) {
      auto xml_text = wal::materialize(cluster.store_of(site), doc);
      auto parsed = xml_text
                        ? xml::parse(xml_text.value(), doc)
                        : util::Result<std::unique_ptr<xml::Document>>(
                              xml_text.status());
      if (!parsed) {
        return "replica of " + doc + " unreadable at site " +
               std::to_string(site);
      }
      const std::string print = fingerprint(*parsed.value()->root());
      if (reference.empty()) {
        reference = print;
        reference_site = site;
      } else if (print != reference) {
        std::string detail = "replica divergence on " + doc + ": site " +
                             std::to_string(site) + " != site " +
                             std::to_string(reference_site) + " (versions";
        for (SiteId peer : cluster.catalog().sites_of(doc)) {
          detail += " s" + std::to_string(peer) + "=v" +
                    std::to_string(
                        wal::durable_version(cluster.store_of(peer), doc));
        }
        detail += ")";
        if (const char* dump = std::getenv("DTX_CHAOS_DUMP")) {
          for (SiteId peer : cluster.catalog().sites_of(doc)) {
            auto bytes = wal::materialize(cluster.store_of(peer), doc);
            if (!bytes) continue;
            const std::string path = std::string(dump) + "/chaos_" + doc +
                                     "_s" + std::to_string(peer) + ".xml";
            if (std::FILE* file = std::fopen(path.c_str(), "w")) {
              std::fwrite(bytes.value().data(), 1, bytes.value().size(),
                          file);
              std::fclose(file);
            }
          }
        }
        return detail;
      }
    }
  }
  return "";
}

}  // namespace

ChaosReport run_chaos(const ChaosOptions& options) {
  ChaosReport report;
  report.rounds = options.rounds;

  // --- deterministic fault schedule ----------------------------------------
  util::Rng schedule_rng(options.seed);
  std::vector<RoundPlan> schedule;
  schedule.reserve(options.rounds);
  for (std::size_t round = 0; round < options.rounds; ++round) {
    RoundPlan plan;
    plan.crash = schedule_rng.next_bool(options.crash_probability);
    plan.crash_site =
        static_cast<SiteId>(schedule_rng.next_index(options.sites));
    if (options.sites >= 2) {
      plan.partition = schedule_rng.next_bool(options.partition_probability);
      plan.partition_a =
          static_cast<SiteId>(schedule_rng.next_index(options.sites));
      plan.partition_b = static_cast<SiteId>(
          (plan.partition_a + 1 + schedule_rng.next_index(options.sites - 1)) %
          options.sites);
    }
    schedule.push_back(plan);
  }

  // --- cluster --------------------------------------------------------------
  ClusterOptions cluster_options;
  cluster_options.site_count = options.sites;
  cluster_options.protocol = options.protocol;
  cluster_options.network.latency = options.latency;
  cluster_options.site.poll_interval = std::chrono::microseconds(500);
  cluster_options.site.detect_period = std::chrono::microseconds(5'000);
  cluster_options.site.retry_interval = std::chrono::microseconds(10'000);
  cluster_options.site.max_wait_episodes = 50;
  cluster_options.site.response_timeout = options.response_timeout;
  cluster_options.site.orphan_txn_timeout = options.orphan_txn_timeout;
  cluster_options.site.orphan_query_limit = options.orphan_query_limit;
  cluster_options.site.commit_ack_rounds = options.commit_ack_rounds;
  cluster_options.site.checkpoint_interval = options.checkpoint_interval;
  cluster_options.site.snapshot_reads = options.snapshot_reads;
  Cluster cluster(cluster_options);

  std::vector<SiteId> all_sites;
  for (std::size_t site = 0; site < options.sites; ++site) {
    all_sites.push_back(static_cast<SiteId>(site));
  }
  if (!cluster.load_document(kSharedDoc, kBaseXml, all_sites).is_ok() ||
      !cluster.start().is_ok()) {
    report.invariants_ok = false;
    report.violations.push_back("cluster failed to start");
    return report;
  }
  if (!options.background_fault.benign()) {
    cluster.network().faults([&](net::FaultPlan& plan) {
      plan.seed(options.seed ^ 0x9e3779b97f4a7c15ULL);
      plan.set_default_fault(options.background_fault);
    });
  }

  emit(options.jsonl,
       "{\"event\":\"start\",\"seed\":" + std::to_string(options.seed) +
           ",\"sites\":" + std::to_string(options.sites) +
           ",\"rounds\":" + std::to_string(options.rounds) +
           ",\"clients\":" + std::to_string(options.clients) + "}");

  Tracker tracker;
  TrafficGate gate;
  UpSites up_sites;
  for (SiteId site : all_sites) up_sites.set(site, true);

  client::Client client(cluster);
  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  std::FILE* trace =
      std::getenv("DTX_CHAOS_DUMP") != nullptr ? options.jsonl : nullptr;
  for (std::size_t index = 0; index < options.clients; ++index) {
    clients.emplace_back([&, index] {
      client_loop(index, options, cluster, client, gate, up_sites, tracker,
                  trace);
    });
  }

  const auto record_violation = [&](std::string text) {
    report.invariants_ok = false;
    emit(options.jsonl, "{\"event\":\"violation\",\"detail\":\"" + text +
                            "\"}");
    report.violations.push_back(std::move(text));
  };

  // --- rounds ---------------------------------------------------------------
  std::vector<SiteId> joiners;  // membership churn: joiners still in
  for (std::size_t round = 0; round < schedule.size(); ++round) {
    const RoundPlan& plan = schedule[round];
    gate.resume();

    // Membership churn runs at the start of the traffic window, while
    // clients write and the background link faults apply — but before this
    // round's crash / partition land, so the blocking join / decommission
    // protocols face lossy links, not dead members.
    if (options.membership_churn) {
      if (round % 2 == 0) {
        auto added = cluster.add_site();
        if (added.is_ok()) {
          joiners.push_back(added.value());
          up_sites.set(added.value(), true);
          ++report.joins;
          emit(options.jsonl,
               "{\"event\":\"join\",\"round\":" + std::to_string(round) +
                   ",\"site\":" + std::to_string(added.value()) + "}");
        } else {
          record_violation("round " + std::to_string(round) + ": add_site: " +
                           added.status().to_string());
        }
      } else if (!joiners.empty()) {
        const SiteId leaver = joiners.back();
        joiners.pop_back();
        up_sites.set(leaver, false);
        const util::Status removed = cluster.remove_site(leaver);
        if (removed.is_ok()) {
          ++report.leaves;
          emit(options.jsonl,
               "{\"event\":\"leave\",\"round\":" + std::to_string(round) +
                   ",\"site\":" + std::to_string(leaver) + "}");
        } else {
          record_violation("round " + std::to_string(round) +
                           ": remove_site(" + std::to_string(leaver) +
                           "): " + removed.to_string());
        }
      }
    }
    std::this_thread::sleep_for(options.traffic_window);

    // Inject.
    if (plan.crash) {
      up_sites.set(plan.crash_site, false);
      cluster.crash_site(plan.crash_site);
      ++report.crashes;
    }
    if (plan.partition) {
      cluster.network().partition_for(
          plan.partition_a, plan.partition_b,
          std::chrono::duration_cast<std::chrono::microseconds>(
              options.fault_hold));
      ++report.partitions;
    }
    emit(options.jsonl,
         "{\"event\":\"inject\",\"round\":" + std::to_string(round) +
             ",\"crash\":" + bool_str(plan.crash) + ",\"crash_site\":" +
             std::to_string(plan.crash_site) + ",\"partition\":" +
             bool_str(plan.partition) + ",\"partition_a\":" +
             std::to_string(plan.partition_a) + ",\"partition_b\":" +
             std::to_string(plan.partition_b) + "}");

    std::this_thread::sleep_for(options.fault_hold);

    // Recover: lift partitions, restart the crashed site (its store is
    // caught up from the freshest peer replica first — the Site recovery
    // sync dtxd runs), then drain and check the hygiene invariants.
    cluster.network().heal();
    if (plan.crash) {
      const util::Status restarted = cluster.restart_site(plan.crash_site);
      if (!restarted.is_ok()) {
        record_violation("restart of site " +
                         std::to_string(plan.crash_site) + " failed: " +
                         restarted.to_string());
      }
      up_sites.set(plan.crash_site, true);
    }
    gate.pause();

    std::string drain = await_drain(cluster, options.drain_deadline);
    if (!drain.empty()) {
      record_violation("round " + std::to_string(round) + ": " + drain);
    }
    if (plan.crash && drain.empty()) {
      // Catch-up pass: the mid-traffic restart may have adopted a store
      // snapshot containing changes of then-live transactions; now that
      // everything drained, a quiescent restart re-syncs the site against
      // the fully resolved peer state.
      cluster.crash_site(plan.crash_site);
      const util::Status resync = cluster.restart_site(plan.crash_site);
      if (!resync.is_ok()) {
        record_violation("round " + std::to_string(round) +
                         ": catch-up restart failed: " + resync.to_string());
      }
    }
    std::string agreement = check_replica_agreement(cluster);
    if (!agreement.empty()) {
      record_violation("round " + std::to_string(round) + ": " + agreement);
    }
    emit(options.jsonl,
         "{\"event\":\"recovered\",\"round\":" + std::to_string(round) +
             ",\"drained\":" + bool_str(drain.empty()) +
             ",\"replicas_agree\":" + bool_str(agreement.empty()) + "}");
  }

  gate.stop();
  for (std::thread& thread : clients) thread.join();

  {
    std::lock_guard<std::mutex> lock(tracker.mutex);
    for (const std::string& torn : tracker.torn_reads) {
      record_violation(torn);
    }
  }

  // --- final recovery sweep + strong invariants ------------------------------
  // Restarting every site one at a time runs the recovery sync for each,
  // converging any replica that a fault left stale (e.g. a participant
  // whose CommitAck round was cut short) before the final audit.
  for (SiteId site : all_sites) {
    cluster.crash_site(site);
    const util::Status restarted = cluster.restart_site(site);
    if (!restarted.is_ok()) {
      record_violation("final sweep: restart of site " +
                       std::to_string(site) + " failed: " +
                       restarted.to_string());
    }
  }
  std::string drain = await_drain(cluster, options.drain_deadline);
  if (!drain.empty()) record_violation("final: " + drain);
  std::string agreement = check_replica_agreement(cluster);
  if (!agreement.empty()) record_violation("final: " + agreement);

  // Insert / change accounting against the (now agreed) replica state.
  {
    auto stored = wal::materialize(cluster.store_of(0), kSharedDoc);
    auto parsed = stored ? xml::parse(stored.value(), kSharedDoc)
                         : util::Result<std::unique_ptr<xml::Document>>(
                               stored.status());
    if (!parsed) {
      record_violation("final: " + std::string(kSharedDoc) + " unreadable");
    } else {
      std::lock_guard<std::mutex> lock(tracker.mutex);
      auto id_path = xpath::parse("/site/people/person/@id");
      const auto ids =
          xpath::evaluate_strings(id_path.value(), *parsed.value());
      const std::set<std::string> present(ids.begin(), ids.end());
      for (const char* base : {"p1", "p2", "p3"}) {
        if (present.count(base) == 0) {
          record_violation("final: base person " + std::string(base) +
                           " lost");
        }
      }
      for (const std::string& id : tracker.committed_inserts) {
        if (present.count(id) == 0) {
          record_violation("lost update: committed insert " + id +
                           " absent");
        }
      }
      for (const std::string& id : present) {
        if (id.empty() || id.front() != 'c') continue;  // workload inserts
        if (tracker.committed_inserts.count(id) == 0 &&
            tracker.indeterminate_inserts.count(id) == 0) {
          record_violation("phantom insert: " + id +
                           " present but never reported committed");
        }
      }
      auto phone_path = xpath::parse("/site/people/person/phone");
      const auto phones =
          xpath::evaluate_strings(phone_path.value(), *parsed.value());
      for (const std::string& phone : phones) {
        const bool initial =
            phone == "111" || phone == "222" || phone == "333";
        if (!initial && tracker.committed_values.count(phone) == 0 &&
            tracker.indeterminate_values.count(phone) == 0) {
          record_violation("phantom change: phone value " + phone +
                           " was never reported committed");
        }
      }
    }
  }

  report.cluster = cluster.stats();
  {
    std::lock_guard<std::mutex> lock(tracker.mutex);
    report.submitted = tracker.submitted;
    report.committed = tracker.committed;
    report.aborted = tracker.aborted;
    report.indeterminate = tracker.indeterminate;
  }
  cluster.stop();

  emit(options.jsonl,
       "{\"event\":\"summary\",\"seed\":" + std::to_string(options.seed) +
           ",\"submitted\":" + std::to_string(report.submitted) +
           ",\"committed\":" + std::to_string(report.committed) +
           ",\"aborted\":" + std::to_string(report.aborted) +
           ",\"indeterminate\":" + std::to_string(report.indeterminate) +
           ",\"crashes\":" + std::to_string(report.crashes) +
           ",\"partitions\":" + std::to_string(report.partitions) +
           ",\"joins\":" + std::to_string(report.joins) +
           ",\"leaves\":" + std::to_string(report.leaves) +
           ",\"catalog_epoch\":" +
           std::to_string(report.cluster.catalog_epoch) +
           ",\"stale_catalog_aborts\":" +
           std::to_string(report.cluster.stale_catalog_aborts) +
           ",\"migrations\":" + std::to_string(report.cluster.migrations) +
           ",\"migrated_bytes\":" +
           std::to_string(report.cluster.migrated_bytes) +
           ",\"restarts\":" + std::to_string(report.cluster.restarts) +
           ",\"orphans_committed\":" +
           std::to_string(report.cluster.orphans_committed) +
           ",\"orphans_aborted\":" +
           std::to_string(report.cluster.orphans_aborted) +
           ",\"commit_resends\":" +
           std::to_string(report.cluster.commit_resends) +
           ",\"snapshot_txns\":" +
           std::to_string(report.cluster.snapshot_txns) +
           ",\"snapshot_chain_hits\":" +
           std::to_string(report.cluster.snapshots.chain_hits) +
           ",\"snapshot_materializes\":" +
           std::to_string(report.cluster.snapshots.materializes) +
           ",\"log_suffix_syncs\":" +
           std::to_string(report.cluster.log_suffix_syncs) +
           ",\"full_syncs\":" + std::to_string(report.cluster.full_syncs) +
           ",\"unclassified_aborts\":" +
           std::to_string(report.cluster.unclassified_aborts) +
           ",\"messages_dropped\":" +
           std::to_string(report.cluster.network.messages_dropped) +
           ",\"invariants_ok\":" + bool_str(report.invariants_ok) + "}");
  return report;
}

}  // namespace dtx::workload
