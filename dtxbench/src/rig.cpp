#include "rig.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>

#include "client/remote_session.hpp"
#include "decorators.hpp"
#include "dtx/catalog.hpp"
#include "dtx/site.hpp"
#include "dtx/wal.hpp"
#include "net/sim_network.hpp"
#include "net/tcp_network.hpp"
#include "storage/file_store.hpp"
#include "storage/memory_store.hpp"
#include "xml/parser.hpp"

namespace dtxbench {

namespace {

using namespace std::chrono_literals;
namespace core = dtx::core;
namespace net = dtx::net;
namespace txn = dtx::txn;

constexpr std::size_t kSampledMessages = 4096;
constexpr auto kAwaitTimeout = 30s;
// Quiescence may include the engine's presumed-abort sweep: a participant
// can be left holding the undo log of a transaction whose abort it missed,
// and it rolls that back only after SiteOptions::orphan_txn_timeout (30 s
// by default) plus one status probe. The wait covers that window; a round
// still unsettled after the grace is parked (see Rig).
constexpr auto kQuiesceTimeout = 45s;
constexpr auto kQuiesceGrace = 1s;
// Resubmissions of a transiently aborted transaction, and the backoff step
// (attempt n sleeps n steps), client::RetryPolicy's default.
constexpr std::uint32_t kMaxRetries = 20;
constexpr std::size_t kWarmupTxns = 25;  // per client and round
constexpr auto kRetryBackoff = 2ms;

struct Outcome {
  txn::TxnState state = txn::TxnState::kFailed;
  txn::AbortReason reason = txn::AbortReason::kNone;
  bool victim = false;  ///< of the last attempt
  std::uint32_t victims = 0;  ///< attempts lost as a deadlock victim
  std::map<std::string, std::uint64_t> retried;  ///< resubmissions by reason
  std::size_t index = 0;  ///< in the client's transaction list
  bool warmup = false;
  double latency_ms = 0;  ///< first submission to final reply
  double submit_us = 0;  ///< inside the submit calls, all attempts
  std::uint64_t rows_hash = 0;  ///< txn_rows_hash of the result rows
  std::string error;  ///< the client call itself failed
};

/// Order-insensitive structural form of a replica. XDGL lets independent
/// transactions insert under one node concurrently, so sibling order may
/// legitimately differ between replicas; content must agree as a multiset
/// at every level.
std::string canonical(const dtx::xml::Node& node) {
  if (!node.is_element()) return "#" + node.value();
  std::string out = "<" + node.name();
  auto attributes = node.attributes();
  std::sort(attributes.begin(), attributes.end());
  for (const auto& [key, value] : attributes) out += " " + key + "=" + value;
  std::vector<std::string> children;
  children.reserve(node.children().size());
  for (const auto& child : node.children()) children.push_back(canonical(*child));
  std::sort(children.begin(), children.end());
  out += "{";
  for (const std::string& child : children) out += child + ",";
  return out + "}>";
}

std::string replica_form(dtx::storage::StorageBackend& store,
                         const std::string& doc) {
  auto text = core::wal::materialize(store, doc);
  if (!text) return "!" + text.status().to_string();
  auto parsed = dtx::xml::parse(text.value(), doc);
  if (!parsed) return "!" + parsed.status().to_string();
  return canonical(*parsed.value()->root());
}

void add_delta(EngineCounters& sum, const core::SiteStats& before,
               const core::SiteStats& after) {
  sum.committed += after.committed - before.committed;
  sum.distributed_cycles +=
      after.distributed_cycles_found - before.distributed_cycles_found;
  sum.wait_episodes += after.wait_episodes - before.wait_episodes;
  sum.remote_ops += after.remote_ops_processed - before.remote_ops_processed;
  sum.snapshot_txns += after.snapshot_txns - before.snapshot_txns;
  sum.orphans_aborted += after.orphans_aborted - before.orphans_aborted;
  sum.lock_acquisitions += after.lock_manager.lock_acquisitions -
                           before.lock_manager.lock_acquisitions;
  sum.lock_conflicts +=
      after.lock_manager.conflicts - before.lock_manager.conflicts;
  sum.plan_hits += after.plan_cache.hits - before.plan_cache.hits;
  sum.plan_misses += after.plan_cache.misses - before.plan_cache.misses;
  sum.snap_reads += after.snapshots.reads - before.snapshots.reads;
  sum.snap_chain_hits += after.snapshots.chain_hits - before.snapshots.chain_hits;
  sum.snap_materializes +=
      after.snapshots.materializes - before.snapshots.materializes;
  sum.snap_clones += after.snapshots.clones - before.snapshots.clones;
  sum.snap_cut_retries +=
      after.snapshots.cut_retries - before.snapshots.cut_retries;
  sum.snap_chain_bytes_peak =
      std::max(sum.snap_chain_bytes_peak, after.snapshots.chain_bytes_peak);
}

std::string outcome_key(const Outcome& outcome) {
  if (!outcome.error.empty()) return "client-error";
  if (outcome.state == txn::TxnState::kAborted) {
    return txn::abort_reason_name(outcome.reason);
  }
  if (outcome.state == txn::TxnState::kFailed) {
    return std::string("failed:") + txn::abort_reason_name(outcome.reason);
  }
  return std::string("non-terminal:") + txn::txn_state_name(outcome.state);
}

}  // namespace

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

namespace {

/// Ids of the process's threads (/proc/self/task).
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> tids;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename())));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

/// CPU seconds of one thread of this process: the per-thread CPU clock
/// that pthread_getcpuclockid() would name (MAKE_THREAD_CPUCLOCK(tid,
/// CPUCLOCK_SCHED) of the kernel ABI), 0 once the thread has gone.
double thread_cpu_s(pid_t tid) {
  const auto clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3U) | 6U);
  timespec now{};
  if (clock_gettime(clock, &now) != 0) return 0.0;
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

/// Cumulative {steal, total} jiffies of all CPUs (/proc/stat).
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0, total = 0, steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

}  // namespace

struct Rig::Impl {
  Impl(const WorkloadSpec& spec_in, const Inputs& inputs_in, RoundOptions options_in)
      : spec(spec_in), inputs(inputs_in), options(std::move(options_in)),
        wire(spec_in.production_wire),
        first(options.slice * spec_in.txns_per_client) {}

  bool set_up();
  /// CPU seconds used so far by the engines of options.parked.
  double parked_cpu_s() const;
  void idle_window();
  void timed_phase();
  void count_outcomes();
  std::string drain_state();
  void check_replicas();
  void teardown();

  const WorkloadSpec& spec;
  const Inputs& inputs;
  const RoundOptions options;
  const bool wire;
  const std::size_t first;  ///< index of the slice's first transaction
  RoundResult out;
  bool finished = false;

  std::filesystem::path dir;
  std::vector<std::unique_ptr<dtx::storage::StorageBackend>> stores;
  std::vector<std::unique_ptr<TracedStore>> traced_stores;
  std::unique_ptr<net::SimNetwork> sim;
  std::vector<std::unique_ptr<net::TcpNetwork>> tcps;
  std::vector<std::unique_ptr<TracedNetwork>> traced_nets;
  std::vector<net::Network*> nets = std::vector<net::Network*>(kSites, nullptr);
  std::vector<std::unique_ptr<core::Catalog>> catalogs;
  std::vector<std::unique_ptr<core::Site>> sites;
  std::vector<std::unique_ptr<dtx::client::RemoteSession>> sessions;

  std::vector<pid_t> engine_tids;  ///< threads started by set_up()
  std::vector<core::SiteStats> before;
  std::vector<std::vector<Outcome>> outcomes =
      std::vector<std::vector<Outcome>>(kClients);
  Clock::time_point timed_end;
};

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

// --- set-up: stores, fragments, networks, sites, connections --------------
bool Rig::Impl::set_up() {
  static std::atomic<int> round_counter{0};
  const std::vector<pid_t> tids_before = thread_ids();
  const Clock::time_point setup_start = Clock::now();
  std::error_code ignored;  // a leftover directory is harmless
  if (wire) {
    dir = std::filesystem::path(options.work_dir) /
          ("round-" + std::to_string(::getpid()) + "-" +
           std::to_string(round_counter++));
    std::filesystem::remove_all(dir, ignored);
  }
  for (std::size_t i = 0; i < kSites; ++i) {
    if (wire) {
      stores.push_back(std::make_unique<dtx::storage::FileStore>(
          dir / ("site" + std::to_string(i))));
    } else {
      stores.push_back(std::make_unique<dtx::storage::MemoryStore>());
    }
    if (options.traced) {
      traced_stores.push_back(std::make_unique<TracedStore>(*stores.back()));
    }
  }
  core::Catalog master;
  for (std::size_t k = 0; k < inputs.placement.size(); ++k) {
    const auto& placement = inputs.placement[k];
    if (auto added = master.add_document(placement.doc, placement.sites);
        !added) {
      out.violations.push_back("catalog: " + added.to_string());
      return false;
    }
    for (const auto site : placement.sites) {
      if (auto stored = stores[site]->store(placement.doc,
                                            inputs.fragments[k].xml);
          !stored) {
        out.violations.push_back("store: " + stored.to_string());
        return false;
      }
    }
  }

  std::vector<std::uint16_t> ports(kSites, 0);
  if (wire) {
    for (std::size_t i = 0; i < kSites; ++i) {
      net::TcpOptions tcp_options;
      tcp_options.listen = "127.0.0.1:0";
      tcps.push_back(std::make_unique<net::TcpNetwork>(
          static_cast<net::SiteId>(i), tcp_options));
      if (auto started = tcps.back()->start(); !started) {
        out.violations.push_back("tcp start: " + started.to_string());
        return false;
      }
      ports[i] = tcps.back()->listen_port();
    }
    for (std::size_t i = 0; i < kSites; ++i) {
      for (std::size_t j = 0; j < kSites; ++j) {
        if (i != j) {
          tcps[i]->add_peer(static_cast<net::SiteId>(j),
                            "127.0.0.1:" + std::to_string(ports[j]));
        }
      }
      nets[i] = tcps[i].get();
    }
  } else {
    net::NetworkOptions sim_options;
    sim_options.latency = 0us;
    sim_options.bandwidth_bytes_per_sec = 0;  // unlimited
    sim = std::make_unique<net::SimNetwork>(sim_options);
    std::fill(nets.begin(), nets.end(), sim.get());
  }
  if (options.traced) {
    for (std::size_t i = 0; i < kSites; ++i) {
      if (i == 0 || wire) {
        traced_nets.push_back(
            std::make_unique<TracedNetwork>(*nets[i], kSampledMessages));
      }
      nets[i] = traced_nets.back().get();
    }
  }

  for (std::size_t i = 0; i < kSites; ++i) {
    core::SiteOptions site_options;  // dtxd's defaults
    site_options.id = static_cast<net::SiteId>(i);
    catalogs.push_back(std::make_unique<core::Catalog>(master));
    dtx::storage::StorageBackend& store =
        options.traced ? static_cast<dtx::storage::StorageBackend&>(
                             *traced_stores[i])
                       : *stores[i];
    sites.push_back(std::make_unique<core::Site>(site_options, *nets[i],
                                                 *catalogs[i], store));
  }
  for (auto& site : sites) {
    if (auto started = site->start(); !started) {
      out.violations.push_back("site start: " + started.to_string());
      return false;
    }
  }
  if (wire) {
    const Clock::time_point deadline = Clock::now() + 10s;
    auto meshed = [&] {
      for (std::size_t i = 0; i < kSites; ++i) {
        for (std::size_t j = 0; j < kSites; ++j) {
          if (i != j && !tcps[i]->peer_connected(static_cast<net::SiteId>(j))) {
            return false;
          }
        }
      }
      return true;
    };
    while (!meshed() && Clock::now() < deadline) std::this_thread::sleep_for(1ms);
    if (!meshed()) {
      out.violations.push_back("tcp mesh not established in 10 s");
      return false;
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      sessions.push_back(std::make_unique<dtx::client::RemoteSession>());
      if (auto connected =
              sessions.back()->connect("127.0.0.1:" + std::to_string(ports[c]));
          !connected) {
        out.violations.push_back("client connect: " + connected.to_string());
        return false;
      }
    }
  }
  out.setup_s = seconds_since(setup_start);
  const std::vector<pid_t> tids_after = thread_ids();
  std::set_difference(tids_after.begin(), tids_after.end(), tids_before.begin(),
                      tids_before.end(), std::back_inserter(engine_tids));
  return true;
}

double Rig::Impl::parked_cpu_s() const {
  double sum = 0;
  for (const Rig* rig : options.parked) sum += rig->engine_cpu_s();
  return sum;
}

// --- idle window: what the engine burns with no load ----------------------
void Rig::Impl::idle_window() {
  Tracer& tracer = Tracer::instance();
  tracer.drain();
  tracer.enable(true);
  const double parked_start = parked_cpu_s();
  const double cpu_start = process_cpu_s();
  const Clock::time_point idle_start = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(options.idle_window_ms));
  const double idle_s = seconds_since(idle_start);
  const double cpu_s = process_cpu_s() - cpu_start;
  out.idle_cpu_cores = (cpu_s - (parked_cpu_s() - parked_start)) / idle_s;
  tracer.enable(false);
  std::uint64_t probes = 0;
  for (const auto& [name, agg] : tracer.aggregate(tracer.drain())) {
    if (name == "net.send.wfg-request" || name == "net.send.wfg-reply") {
      probes += agg.count;
    }
  }
  out.idle_probe_msgs_per_s = static_cast<double>(probes) / idle_s;
  for (auto& traced : traced_nets) traced->take_samples();
}

// --- timed phase -------------------------------------------------------------
void Rig::Impl::timed_phase() {
  Tracer& tracer = Tracer::instance();
  for (auto& site : sites) before.push_back(site->stats());
  std::atomic<bool> go{false};
  std::atomic<std::size_t> ready{0};
  const std::uint16_t kTxnSpan = tracer.intern("client.txn");
  const std::uint16_t kSubmitSpan = tracer.intern("client.submit");

  // One attempt: submit, await, fill in the outcome's terminal state.
  auto attempt = [&](std::size_t c, std::vector<txn::Operation> ops,
                     Outcome& outcome, SpanScope& txn_span) {
    const std::int64_t start = now_ns();
    auto record = [&](std::uint64_t id, txn::TxnState state,
                      txn::AbortReason reason, bool victim,
                      const std::vector<std::vector<std::string>>& rows) {
      txn_span.set_txn(id);
      outcome.state = state;
      outcome.reason = reason;
      outcome.victim = victim;
      if (options.expected != nullptr) outcome.rows_hash = txn_rows_hash(rows);
    };
    if (!wire) {
      std::shared_ptr<txn::Transaction> handle;
      {
        SpanScope submit_span(kSubmitSpan);
        handle = sites[c]->submit(std::move(ops));
      }
      outcome.submit_us += static_cast<double>(now_ns() - start) / 1e3;
      auto result = handle->await_for(kAwaitTimeout);
      if (result) {
        record(result->id, result->state, result->reason,
               result->deadlock_victim, result->rows);
      } else {
        outcome.error = "no result in 30 s";
      }
    } else {
      dtx::util::Result<std::uint64_t> seq =
          dtx::util::Status(dtx::util::Code::kInternal, "not submitted");
      {
        SpanScope submit_span(kSubmitSpan);
        seq = sessions[c]->submit(std::move(ops));
      }
      outcome.submit_us += static_cast<double>(now_ns() - start) / 1e3;
      auto result = seq ? sessions[c]->await(seq.value(), kAwaitTimeout)
                        : dtx::util::Result<dtx::client::RemoteResult>(
                              seq.status());
      if (result) {
        const dtx::client::RemoteResult& r = result.value();
        record(r.txn, r.state, r.reason, r.deadlock_victim, r.rows);
      } else {
        outcome.error = result.status().to_string();
      }
    }
  };

  // A transaction aborted for a transient reason (deadlock victim, lock
  // wait exhausted, ...) is resubmitted after a linear backoff, as
  // client::RetryPolicy does; its latency runs from the first submission
  // to the final reply.
  auto execute = [&](std::size_t c, std::size_t index, bool warmup) {
    Outcome outcome;
    outcome.index = index;
    outcome.warmup = warmup;
    const std::int64_t start = now_ns();
    for (std::uint32_t retry = 0;; ++retry) {
      SpanScope txn_span(kTxnSpan);
      outcome.state = txn::TxnState::kFailed;
      outcome.reason = txn::AbortReason::kNone;
      attempt(c, inputs.clients[c][index].ops, outcome, txn_span);
      if (outcome.victim) ++outcome.victims;
      if (!outcome.error.empty() || outcome.state != txn::TxnState::kAborted ||
          !txn::abort_reason_retryable(outcome.reason) || retry == kMaxRetries) {
        break;
      }
      ++outcome.retried[txn::abort_reason_name(outcome.reason)];
      std::this_thread::sleep_for((retry + 1) * kRetryBackoff);
    }
    outcome.latency_ms = static_cast<double>(now_ns() - start) / 1e6;
    outcomes[c].push_back(std::move(outcome));
  };

  // Every client first warms the fresh engine up with the first
  // kWarmupTxns transactions of the next slice, untimed: a cold engine
  // (empty plan cache, first-touch allocations) takes up to 20 times as
  // long for the first few transactions of each client, and those would
  // otherwise make up about 1 % of a round, right at its 99th percentile.
  const std::size_t warmup_first =
      ((options.slice + 1) % kSlices) * spec.txns_per_client;
  auto run_client = [&](std::size_t c) {
    outcomes[c].reserve(kWarmupTxns + spec.txns_per_client);
    for (std::size_t t = 0; t < kWarmupTxns; ++t) execute(c, warmup_first + t, true);
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    for (std::size_t t = 0; t < spec.txns_per_client; ++t) execute(c, first + t, false);
  };

  std::atomic<bool> sampling{options.traced};
  std::thread sampler;
  if (options.traced) {
    std::vector<net::Mailbox*> mailboxes;
    for (std::size_t i = 0; i < kSites; ++i) {
      mailboxes.push_back(&nets[i]->register_site(static_cast<net::SiteId>(i)));
    }
    sampler = std::thread([this, &sampling, mailboxes] {
      while (sampling.load()) {
        for (net::Mailbox* mailbox : mailboxes) {
          out.mailbox_samples.push_back(
              static_cast<std::uint32_t>(mailbox->pending()));
        }
        std::this_thread::sleep_for(1ms);
      }
    });
    tracer.drain();
    tracer.enable(true);
  }
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(run_client, c);
  while (ready.load() < kClients) std::this_thread::yield();
  const auto steal_start = cpu_steal_jiffies();
  const double parked_start = parked_cpu_s();
  const double cpu_start = process_cpu_s();
  const Clock::time_point wall_start = Clock::now();
  go.store(true);
  for (auto& client : clients) client.join();
  timed_end = Clock::now();
  out.wall_s = std::chrono::duration<double>(timed_end - wall_start).count();
  out.cpu_s = process_cpu_s() - cpu_start;
  out.parked_engines = options.parked.size();
  out.parked_cpu_s = parked_cpu_s() - parked_start;
  out.cpu_s -= out.parked_cpu_s;
  const auto steal_end = cpu_steal_jiffies();
  out.steal_share = (steal_end.first - steal_start.first) /
                    std::max(1.0, steal_end.second - steal_start.second);

  // The trace ends with a short wait for quiescence (the commit acks and
  // lock releases that follow the last reply), not with the sweep.
  const Clock::time_point grace_end = timed_end + kQuiesceGrace;
  while (!drain_state().empty() && Clock::now() < grace_end) {
    std::this_thread::sleep_for(2ms);
  }
  if (options.traced) {
    tracer.enable(false);
    sampling.store(false);
    sampler.join();
    out.spans_raw = tracer.drain();
    out.spans = tracer.aggregate(out.spans_raw);
    for (auto& traced : traced_stores) traced->stop_recording();
    for (auto& traced : traced_nets) {
      traced->stop_recording();
      auto samples = traced->take_samples();
      out.sampled_messages.insert(out.sampled_messages.end(),
                                  std::make_move_iterator(samples.begin()),
                                  std::make_move_iterator(samples.end()));
    }
  }
}

void Rig::Impl::count_outcomes() {
  std::size_t row_mismatches = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (const Outcome& outcome : outcomes[c]) {
      const TxnInput& input = inputs.clients[c][outcome.index];
      ++out.attempted;
      out.submit_us_total += outcome.submit_us;
      out.deadlock_victims += outcome.victims;
      for (const auto& [reason, n] : outcome.retried) out.retried[reason] += n;
      if (outcome.error.empty() && outcome.state == txn::TxnState::kCommitted) {
        ++out.committed;
        out.committed_update_text_bytes += input.update_text_bytes;
        if (!outcome.warmup) {
          ++out.timed_committed;
          out.latency_ms.push_back(outcome.latency_ms);
        }
        if (options.expected != nullptr && !input.update &&
            outcome.rows_hash != (*options.expected)[c][outcome.index]) {
          if (row_mismatches++ < 3) {
            out.violations.push_back("rows differ from the replay: client " +
                                     std::to_string(c) + " txn " +
                                     std::to_string(outcome.index));
          }
        }
      } else {
        const std::string key = outcome_key(outcome);
        ++out.not_committed[key];
        if (key == "client-error" || key.rfind("non-terminal", 0) == 0) {
          out.violations.push_back("client " + std::to_string(c) + ": " + key +
                                   " " + outcome.error);
        }
      }
    }
  }
  if (row_mismatches > 3) {
    out.violations.push_back(std::to_string(row_mismatches) +
                             " transactions' rows differ in total");
  }
  outcomes.clear();
}

std::string Rig::Impl::drain_state() {
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const std::size_t locks = sites[i]->lock_manager().lock_entries();
    const std::size_t undo = sites[i]->lock_manager().undo_log_count();
    if (locks != 0 || undo != 0) {
      return "site " + std::to_string(i) + ": " + std::to_string(locks) +
             " lock entries, " + std::to_string(undo) +
             " undo logs after quiescence";
    }
  }
  return "";
}

void Rig::Impl::check_replicas() {
  for (const auto& placement : inputs.placement) {
    std::string reference;
    for (const auto site : placement.sites) {
      std::string form = replica_form(*stores[site], placement.doc);
      if (reference.empty()) {
        reference = std::move(form);
      } else if (form != reference) {
        out.violations.push_back("replicas of " + placement.doc + " differ");
      }
    }
  }
}

void Rig::Impl::teardown() {
  for (auto& session : sessions) session->close();
  sessions.clear();
  for (auto& site : sites) site->stop();
  sites.clear();
  for (auto& tcp : tcps) tcp->interrupt_all();
  traced_nets.clear();
  tcps.clear();
  sim.reset();
  traced_stores.clear();
  stores.clear();
  catalogs.clear();
  std::error_code ignored;
  if (wire) std::filesystem::remove_all(dir, ignored);
  // Hand the round's freed heap back to the OS, so every round starts
  // from the same resident baseline and the peak does not creep with the
  // number of rounds a run happens to fit.
  malloc_trim(0);
  finished = true;
}

Rig::Rig(const WorkloadSpec& spec, const Inputs& inputs, RoundOptions options)
    : impl_(std::make_unique<Impl>(spec, inputs, std::move(options))) {}

Rig::~Rig() {
  if (!impl_->finished) impl_->teardown();
}

void Rig::run() {
  if (!impl_->set_up()) {
    impl_->teardown();  // attempted stays 0: the run stops
    return;
  }
  if (impl_->options.idle_window_ms > 0) impl_->idle_window();
  impl_->timed_phase();
  impl_->count_outcomes();
}

bool Rig::quiesced() {
  return impl_->finished || impl_->drain_state().empty();
}

Clock::time_point Rig::quiesce_deadline() const {
  return impl_->timed_end + kQuiesceTimeout;
}

bool Rig::finished() const { return impl_->finished; }

RoundResult& Rig::result() { return impl_->out; }

double Rig::engine_cpu_s() const {
  double sum = 0;
  for (const pid_t tid : impl_->engine_tids) sum += thread_cpu_s(tid);
  return sum;
}

// --- quiescence and checks ---------------------------------------------------
void Rig::finish() {
  Impl& rig = *impl_;
  if (rig.finished) return;
  RoundResult& out = rig.out;
  out.quiesce_s = seconds_since(rig.timed_end);
  if (const std::string state = rig.drain_state(); !state.empty()) {
    out.violations.push_back(state);
  }
  for (std::size_t i = 0; i < kSites; ++i) {
    add_delta(out.engine, rig.before[i], rig.sites[i]->stats());
  }
  if (out.engine.committed != out.committed) {
    out.violations.push_back(
        "sites count " + std::to_string(out.engine.committed) +
        " commits, clients saw " + std::to_string(out.committed));
  }
  if (rig.spec.update_txn_fraction > 0) rig.check_replicas();
  for (const auto& tcp : rig.tcps) {
    const net::TcpStats stats = tcp->tcp_stats();
    out.tcp_reconnects += stats.reconnects;
    out.tcp_frames_rejected += stats.frames_rejected;
  }
  if (out.tcp_reconnects != 0 || out.tcp_frames_rejected != 0) {
    out.violations.push_back("tcp: " + std::to_string(out.tcp_reconnects) +
                             " reconnects, " +
                             std::to_string(out.tcp_frames_rejected) +
                             " frames rejected");
  }
  rig.teardown();
}

}  // namespace dtxbench
