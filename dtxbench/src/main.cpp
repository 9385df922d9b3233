// dtxbench — the DTX benchmark driver (see README.md).
//
//   dtxbench --workload=read-snapshot|write-2pc|mixed-contended --seed=N
//            --seconds=S [--trace=0|1] [--work_dir=DIR] [--trace_out=FILE]
//            [--reference_seed=N]
//   dtxbench --fingerprints=WORKLOAD --seeds=A-B
//
// A run repeats rounds of the workload's fixed transaction list (fresh
// engine each round) until S seconds have passed, and prints one JSON
// record as the last line of standard output. End-to-end metrics are
// medians over untraced rounds; a traced run alternates untraced and
// traced rounds and reports per-layer metrics from the traced ones.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "replay.hpp"
#include "rig.hpp"
#include "trace.hpp"
#include "util/flags.hpp"

namespace dtxbench {
namespace {

constexpr int kIdleWindowMs = 1000;
// No round starts after this many seconds, so a run that keeps waiting on
// the presumed-abort sweep still ends well inside three minutes.
constexpr double kHardCapSeconds = 90.0;
constexpr double kMaxSteal = 0.02;
/// The 100M-iteration host probe on a typical period of the 4-vCPU KVM
/// guest the benchmark was defined on; reported time-based figures are
/// scaled to this host speed.
constexpr double kReferenceProbeS = 0.150;
constexpr std::ptrdiff_t kMinRounds = 3;  // per kind (untraced / traced)

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile, q in [0, 1].
template <typename T>
double percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::max<std::size_t>(rank, 1) - 1]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Fixed single-thread integer loop: host speed, not engine speed.
double host_probe_s(std::uint64_t iterations = 100'000'000) {
  const std::int64_t start = now_ns();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - start) / 1e9;
}

/// A /proc/self/status memory field ("VmHWM", "VmRSS") in MiB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Restarts VmHWM at the current resident set (/proc/self/clear_refs "5").
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return buffer;
}

std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ",";
    out += quote(key) + ":" + num(value);
  }
  return out + "}";
}

using Metrics = std::map<std::string, double>;

Metrics end_to_end(const RoundResult& round) {
  Metrics m;
  m["txn_per_s"] = ratio(static_cast<double>(round.timed_committed), round.wall_s);
  m["lat_p50_ms"] = percentile(round.latency_ms, 0.50);
  m["lat_p99_ms"] = percentile(round.latency_ms, 0.99);
  m["cpu_ms_per_txn"] =
      ratio(round.cpu_s * 1000.0, static_cast<double>(round.timed_committed));
  m["setup_s"] = round.setup_s;
  return m;
}

const SpanAgg& span(const RoundResult& round, const std::string& name) {
  static const SpanAgg kNone;
  const auto it = round.spans.find(name);
  return it == round.spans.end() ? kNone : it->second;
}

Metrics per_layer(const RoundResult& round) {
  const auto& e = round.engine;
  const double txns = static_cast<double>(round.attempted);
  const double commits = static_cast<double>(round.committed);
  Metrics m;
  m["client.submit_us"] = ratio(round.submit_us_total, txns);
  m["query.plan_hit_ratio"] = ratio(static_cast<double>(e.plan_hits),
                                    static_cast<double>(e.plan_hits + e.plan_misses));
  m["snapshot.chain_hit_ratio"] = ratio(static_cast<double>(e.snap_chain_hits),
                                        static_cast<double>(e.snap_reads));
  m["snapshot.materializes_per_1k_reads"] =
      ratio(1000.0 * static_cast<double>(e.snap_materializes),
            static_cast<double>(e.snap_reads));
  m["snapshot.clones"] = static_cast<double>(e.snap_clones);
  m["snapshot.cut_retries"] = static_cast<double>(e.snap_cut_retries);
  m["snapshot.chain_bytes_peak"] = static_cast<double>(e.snap_chain_bytes_peak);
  m["lock.acqs_per_txn"] = ratio(static_cast<double>(e.lock_acquisitions), txns);
  m["lock.conflicts_per_txn"] = ratio(static_cast<double>(e.lock_conflicts), txns);
  m["dtx.wait_episodes_per_txn"] = ratio(static_cast<double>(e.wait_episodes), txns);
  m["dtx.deadlock_victims_per_1k"] =
      ratio(1000.0 * static_cast<double>(round.deadlock_victims), txns);
  m["dtx.distributed_cycles"] = static_cast<double>(e.distributed_cycles);
  m["dtx.remote_ops_per_txn"] = ratio(static_cast<double>(e.remote_ops), txns);
  m["dtx.snapshot_txn_share"] = ratio(static_cast<double>(e.snapshot_txns), commits);

  const SpanAgg& append = span(round, "storage.append");
  const SpanAgg& checkpoint = span(round, "storage.checkpoint");
  const SpanAgg& store = span(round, "storage.store");
  const double written =
      static_cast<double>(append.bytes + checkpoint.bytes + store.bytes);
  m["storage.appends_per_commit"] = ratio(static_cast<double>(append.count), commits);
  m["storage.append_us"] = ratio(append.total_us, static_cast<double>(append.count));
  m["storage.bytes_per_commit"] = ratio(written, commits);
  m["storage.checkpoints_per_1k_txn"] =
      ratio(1000.0 * static_cast<double>(checkpoint.count), txns);
  m["storage.checkpoint_ms"] =
      ratio(checkpoint.total_us / 1000.0, static_cast<double>(checkpoint.count));
  m["storage.write_amp"] =
      ratio(written, static_cast<double>(round.committed_update_text_bytes));

  // Payload kinds of the engine's conversations. The commit protocol has no
  // separate prepare message (participants hold the executed operations;
  // CommitRequest/CommitAck is the one round), so `prepare` reads 0.
  const std::map<std::string, std::vector<std::string>> kinds = {
      {"execute", {"execute"}},
      {"reply", {"result"}},
      {"prepare", {}},
      {"commit", {"commit"}},
      {"ack", {"commit-ack", "abort-ack"}},
      {"snapshot_read", {"snapshot-read", "snapshot-reply"}},
      {"wake", {"wake"}},
  };
  double msgs = 0, bytes = 0, send_us = 0, named = 0;
  for (const auto& [name, agg] : round.spans) {
    if (name.rfind("net.send.", 0) != 0) continue;
    msgs += static_cast<double>(agg.count);
    bytes += static_cast<double>(agg.bytes);
    send_us += agg.total_us;
  }
  for (const auto& [kind, payloads] : kinds) {
    double count = 0;
    for (const std::string& payload : payloads) {
      count += static_cast<double>(span(round, "net.send." + payload).count);
    }
    named += count;
    m["net.msgs_per_txn." + kind] = ratio(count, txns);
  }
  m["net.msgs_per_txn.other"] = ratio(msgs - named, txns);
  m["net.msgs_per_txn"] = ratio(msgs, txns);
  m["net.bytes_per_txn"] = ratio(bytes, txns);
  m["net.send_us"] = ratio(send_us, msgs);
  m["tcp.reconnects"] = static_cast<double>(round.tcp_reconnects);
  m["tcp.frames_rejected"] = static_cast<double>(round.tcp_frames_rejected);
  m["site.mailbox_depth_p99"] = percentile(round.mailbox_samples, 0.99);
  return m;
}

/// Per-metric median over a set of per-round metric maps.
Metrics median_of(const std::vector<Metrics>& rounds) {
  std::map<std::string, std::vector<double>> columns;
  for (const Metrics& round : rounds) {
    for (const auto& [name, value] : round) columns[name].push_back(value);
  }
  Metrics out;
  for (auto& [name, values] : columns) out[name] = median(std::move(values));
  return out;
}

int print_fingerprints(const WorkloadSpec& spec, const std::string& range) {
  const std::size_t dash = range.find('-');
  const std::uint64_t first = std::stoull(range.substr(0, dash));
  const std::uint64_t last =
      dash == std::string::npos ? first : std::stoull(range.substr(dash + 1));
  std::string out = "{";
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    if (out.size() > 1) out += ",";
    out += quote(std::to_string(seed)) + ":" +
           quote(hex(input_fingerprint(spec, seed)));
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

int run(int argc, char** argv) {
  const dtx::util::Flags flags(argc, argv);
  const std::string workload =
      flags.get_string("workload", flags.get_string("fingerprints", ""));
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "dtxbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (flags.has("fingerprints")) {
    return print_fingerprints(*spec, flags.get_string("seeds", "1"));
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = static_cast<double>(flags.get_int("seconds", 10));
  const bool traced = flags.get_int("trace", 0) != 0;
  const std::string work_dir = flags.get_string("work_dir", ".bench_build/work");
  const std::string trace_out = flags.get_string("trace_out", "");

  const double probe_before = host_probe_s();
  Tracer& tracer = Tracer::instance();

  const Clock::time_point inputs_start = Clock::now();
  const Inputs inputs = make_inputs(*spec, seed);
  std::string reference;
  if (flags.has("reference_seed")) {
    const auto reference_seed =
        static_cast<std::uint64_t>(flags.get_int("reference_seed", 1));
    reference = "{\"seed\":" + std::to_string(reference_seed) + ",\"hash\":" +
                quote(hex(input_fingerprint(*spec, reference_seed))) + "}";
  }

  std::vector<std::string> violations;
  std::vector<Span> all_spans;
  ReplayTotals replay;
  ExpectedRows expected;
  const bool static_data = spec->update_txn_fraction == 0.0;
  if (traced || static_data) {
    std::string error;
    tracer.enable(traced);
    if (!replay_layers(inputs, replay, static_data ? &expected : nullptr, error)) {
      violations.push_back(error);
    }
    tracer.enable(false);
    auto spans = tracer.drain();
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }
  malloc_trim(0);  // what is left is what the rounds start from
  const double inputs_mb = status_mb("VmRSS");
  const double inputs_s =
      std::chrono::duration<double>(Clock::now() - inputs_start).count();

  // --- rounds ---------------------------------------------------------------
  // The hypervisor of this kind of host takes whole vCPUs away for minutes
  // at a time (steal time, /proc/stat), which halves throughput and has
  // nothing to do with the engine. A round is clean when at most kMaxSteal
  // of the machine's CPU time was stolen during its timed phase; the run
  // keeps going (up to 1.25 times its budget) until it has enough clean rounds
  // of each kind, and the figures are medians over clean rounds only. When
  // the host never calms down, the least-stolen rounds stand in.
  //
  // The first round of a run is a warm-up: it is checked like every other
  // round but never used. It runs cold (heap growth, first-touch page
  // faults) and its tail latency is a third longer than the later rounds'.
  //
  // A round that has not quiesced a second after its timed phase is parked
  // (see Rig): its engine waits for the presumed-abort sweep while later
  // rounds run, and is checked and torn down between rounds once it has
  // quiesced. Its memory is not counted against later rounds (mem_mb is a
  // per-round figure, below), nor is the CPU its idle background threads
  // use (see RoundOptions::parked), though they do share the machine.
  struct Round {
    std::unique_ptr<Rig> rig;
    bool warmup = false;
    bool traced = false;
    double host_probe_s = 0, start_rss_mb = 0, hwm_mb = 0;
    bool used = false;
    [[nodiscard]] RoundResult& result() const { return rig->result(); }
  };
  std::vector<Round> rounds;
  const Clock::time_point run_start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - run_start).count();
  };
  auto count = [&](bool kind, bool clean_only) {
    return std::count_if(rounds.begin(), rounds.end(), [&](const Round& r) {
      return !r.warmup && r.traced == kind && r.result().attempted > 0 &&
             (!clean_only || r.result().steal_share <= kMaxSteal);
    });
  };
  auto have = [&](bool clean_only) {
    return count(false, clean_only) >= kMinRounds &&
           (!traced || count(true, clean_only) >= kMinRounds);
  };
  // Finishes the parked rounds that have quiesced (or are overdue); with
  // `wait`, polls until none is left. Returns the engines still parked.
  auto finish_parked = [&](bool wait) {
    for (;;) {
      std::vector<Rig*> parked;
      for (Round& round : rounds) {
        if (round.rig->finished()) continue;
        if (round.rig->quiesced() ||
            Clock::now() >= round.rig->quiesce_deadline()) {
          round.rig->finish();
        } else {
          parked.push_back(round.rig.get());
        }
      }
      if (parked.empty() || !wait) return parked;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  double idle_cpu_cores = 0, idle_probe_msgs_per_s = 0;
  bool setup_failed = false;
  while (!setup_failed && elapsed() < kHardCapSeconds) {
    const double spent = elapsed();
    if (have(false) && spent >= seconds && (have(true) || spent >= 1.25 * seconds)) {
      break;
    }
    std::vector<Rig*> parked = finish_parked(false);
    Round round;
    round.warmup = rounds.empty();
    round.traced = traced && rounds.size() % 2 == 1;
    RoundOptions options;
    options.traced = round.traced;
    options.slice = static_cast<std::size_t>(count(round.traced, false)) % kSlices;
    options.idle_window_ms =
        round.traced && idle_cpu_cores == 0 ? kIdleWindowMs : 0;
    options.work_dir = work_dir;
    options.expected = static_data ? &expected : nullptr;
    options.parked = std::move(parked);
    round.host_probe_s = host_probe_s(50'000'000) * 2;
    reset_peak_rss();
    round.start_rss_mb = status_mb("VmRSS");
    round.rig = std::make_unique<Rig>(*spec, inputs, options);
    round.rig->run();
    round.hwm_mb = status_mb("VmHWM");
    RoundResult& result = round.result();
    if (round.rig->quiesced()) round.rig->finish();
    if (options.idle_window_ms > 0) {
      idle_cpu_cores = result.idle_cpu_cores;
      idle_probe_msgs_per_s = result.idle_probe_msgs_per_s;
    }
    if (round.traced) {
      all_spans.insert(all_spans.end(), result.spans_raw.begin(),
                       result.spans_raw.end());
      result.spans_raw.clear();
    }
    setup_failed = result.attempted == 0;
    rounds.push_back(std::move(round));
  }
  const double measured_s = elapsed();
  finish_parked(true);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    for (const std::string& violation : rounds[i].result().violations) {
      violations.push_back("round " + std::to_string(i) + ": " + violation);
    }
  }
  for (const bool kind : {false, true}) {
    std::vector<Round*> candidates;
    for (Round& round : rounds) {
      if (!round.warmup && round.traced == kind && round.result().attempted > 0) {
        candidates.push_back(&round);
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Round* a, const Round* b) {
                       return a->result().steal_share < b->result().steal_share;
                     });
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      candidates[i]->used = i < kMinRounds ||
                            candidates[i]->result().steal_share <= kMaxSteal;
    }
  }

  // --- metrics --------------------------------------------------------------
  std::vector<Metrics> plain, with_trace;
  std::uint64_t attempted = 0, committed = 0;
  std::map<std::string, double> not_committed, retried;
  std::string round_json;
  for (const Round& entry : rounds) {
    const RoundResult& round = entry.result();
    attempted += round.attempted;
    committed += round.committed;
    for (const auto& [key, n] : round.not_committed) {
      not_committed[key] += static_cast<double>(n);
    }
    for (const auto& [key, n] : round.retried) {
      retried[key] += static_cast<double>(n);
    }
    Metrics e2e = end_to_end(round);
    if (!round_json.empty()) round_json += ",";
    round_json += "{\"warmup\":" + std::string(entry.warmup ? "true" : "false") +
                  ",\"traced\":" + std::string(entry.traced ? "true" : "false") +
                  ",\"used\":" + std::string(entry.used ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(round.attempted) +
                  ",\"committed\":" + std::to_string(round.committed) +
                  ",\"wall_s\":" + num(round.wall_s) +
                  ",\"quiesce_s\":" + num(round.quiesce_s) +
                  ",\"steal\":" + num(round.steal_share) +
                  ",\"host_probe_s\":" + num(entry.host_probe_s) +
                  ",\"start_rss_mb\":" + num(entry.start_rss_mb) +
                  ",\"hwm_mb\":" + num(entry.hwm_mb) +
                  ",\"parked_engines\":" + std::to_string(round.parked_engines) +
                  ",\"parked_cpu_s\":" + num(round.parked_cpu_s) +
                  ",\"orphans_aborted\":" +
                  std::to_string(round.engine.orphans_aborted) +
                  ",\"metrics\":" + object(e2e) + "}";
    if (!entry.used) continue;
    e2e["mem_mb"] = inputs_mb + (entry.hwm_mb - entry.start_rss_mb);
    if (entry.traced) {
      Metrics layer = per_layer(round);
      layer["cpu_ms_per_txn"] = e2e["cpu_ms_per_txn"];
      layer["txn_per_s"] = e2e["txn_per_s"];
      with_trace.push_back(std::move(layer));
    } else {
      plain.push_back(std::move(e2e));
    }
  }

  // mem_mb is the resident set after input generation plus the median of
  // what a round adds at its peak (VmHWM, restarted before each round, over
  // the resident set the round started from). A parked engine is already
  // in the starting figure, so it does not count twice.
  Metrics e2e = median_of(plain);
  // Latency percentiles pool the used rounds' samples: one round's 99th
  // percentile rests on twelve samples and moves by ±15 % from round to
  // round, while the pooled one rests on all of them and spans every slice.
  std::vector<double> latencies;
  for (const Round& entry : rounds) {
    if (entry.traced || !entry.used) continue;
    latencies.insert(latencies.end(), entry.result().latency_ms.begin(),
                     entry.result().latency_ms.end());
  }
  e2e["lat_p50_ms"] = percentile(latencies, 0.50);
  e2e["lat_p99_ms"] = percentile(latencies, 0.99);

  // Host-speed scaling. Between runs the host's CPU speed drifts by ±10 %
  // for minutes at a time with no steal to show for it, and the engine's
  // figures follow (run medians of the probe and of txn_per_s correlate at
  // -0.9). The time-based figures are therefore reported at a reference
  // host speed: scaled by the median host probe of the rounds used over
  // kReferenceProbeS. The raw figures stay in the record.
  std::vector<double> probes;
  for (const Round& entry : rounds) {
    if (!entry.traced && entry.used) probes.push_back(entry.host_probe_s);
  }
  const double host_probe = median(probes);
  const double slowdown = host_probe > 0 ? host_probe / kReferenceProbeS : 1.0;
  const Metrics raw = e2e;
  e2e["txn_per_s"] *= slowdown;
  for (const char* time : {"lat_p50_ms", "lat_p99_ms", "cpu_ms_per_txn", "setup_s"}) {
    e2e[time] /= slowdown;
  }

  Metrics layers;
  if (traced) {
    layers = median_of(with_trace);
    layers["engine.idle_cpu_cores"] = idle_cpu_cores;
    layers["wfg.probe_msgs_per_s"] = idle_probe_msgs_per_s;
    layers["query.compile_us"] = ratio(replay.compile_us, static_cast<double>(replay.ops));
    layers["xpath.eval_us.point"] =
        ratio(replay.eval_point_us, static_cast<double>(replay.point_queries));
    layers["xpath.eval_us.scan"] =
        ratio(replay.eval_scan_us, static_cast<double>(replay.scan_queries));
    layers["lock.lockset_us_per_op"] =
        ratio(replay.lockset_us, static_cast<double>(replay.ops));
    layers["xupdate.apply_us"] =
        ratio(replay.apply_us, static_cast<double>(replay.updates));
    layers["xupdate.undo_us"] =
        ratio(replay.undo_us, static_cast<double>(replay.update_txns));

    std::vector<dtx::net::Message> messages;
    for (Round& round : rounds) {
      for (auto& message : round.result().sampled_messages) {
        if (messages.size() < 4096) messages.push_back(std::move(message));
      }
    }
    std::string codec_error;
    tracer.enable(true);
    layers["net.codec_us_per_msg"] = replay_codec(messages, codec_error);
    tracer.enable(false);
    auto codec_spans = tracer.drain();
    all_spans.insert(all_spans.end(), codec_spans.begin(), codec_spans.end());
    if (!codec_error.empty()) violations.push_back(codec_error);

    // Replay self time of the layers a transaction runs, ÷ the CPU the
    // engine spent per transaction in the traced rounds.
    const double miss_ratio = 1.0 - layers["query.plan_hit_ratio"];
    const double attributed_us =
        ratio(replay.engine_path_us + replay.compile_us * miss_ratio,
              static_cast<double>(replay.txns));
    layers["trace.attributed_share"] =
        ratio(attributed_us / 1000.0, layers["cpu_ms_per_txn"]);
    layers["trace.overhead_pct"] =
        (ratio(raw.at("txn_per_s"), layers["txn_per_s"]) - 1.0) * 100.0;
    layers.erase("cpu_ms_per_txn");
    layers.erase("txn_per_s");
    if (!trace_out.empty() && !tracer.write_tsv(trace_out, all_spans)) {
      violations.push_back("cannot write " + trace_out);
    }
  }

  const double probe_after = host_probe_s();
  std::string violations_json;
  for (const std::string& violation : violations) {
    if (!violations_json.empty()) violations_json += ",";
    violations_json += quote(violation);
  }
  std::string fragments_json;
  for (std::size_t k = 0; k < inputs.fragments.size(); ++k) {
    const auto& fragment = inputs.fragments[k];
    if (!fragments_json.empty()) fragments_json += ",";
    fragments_json += "{\"doc\":" + quote(fragment.doc_name) + ",\"section\":" +
                      quote(fragment.section + fragment.continent) +
                      ",\"bytes\":" + std::to_string(fragment.bytes) + ",\"sites\":[";
    for (std::size_t r = 0; r < inputs.placement[k].sites.size(); ++r) {
      fragments_json += (r == 0 ? "" : ",") + std::to_string(inputs.placement[k].sites[r]);
    }
    fragments_json += "]}";
  }
  std::ostringstream record;
  record << "{\"workload\":" << quote(spec->name) << ",\"seed\":" << seed
         << ",\"traced\":" << (traced ? "true" : "false")
         << ",\"params\":{\"sites\":" << kSites << ",\"clients\":" << kClients
         << ",\"replicas\":" << kReplicas
         << ",\"fragments\":" << inputs.fragments.size()
         << ",\"base_bytes\":" << spec->base_bytes
         << ",\"ops_per_txn\":" << kOpsPerTxn
         << ",\"update_txn_fraction\":" << num(spec->update_txn_fraction)
         << ",\"update_op_fraction\":" << num(kUpdateOpFraction)
         << ",\"txns_per_round\":" << kClients * spec->txns_per_client
         << ",\"slices\":" << kSlices
         << ",\"network\":"
         << quote(spec->production_wire ? "tcp-loopback" : "sim-zero-latency")
         << ",\"store\":" << quote(spec->production_wire ? "file" : "memory")
         << ",\"flush_policy\":"
         << quote(spec->production_wire ? "no-fsync" : "in-memory")
         << ",\"client\":"
         << quote(spec->production_wire ? "RemoteSession" : "Site::submit")
         << ",\"placement\":[" << fragments_json << "]"
         << "},\"fingerprint\":" << quote(hex(inputs.fingerprint))
         << ",\"reference_fingerprint\":" << (reference.empty() ? "null" : reference)
         << ",\"host_probe_s\":{\"before\":" << num(probe_before)
         << ",\"after\":" << num(probe_after) << "}"
         << ",\"inputs_s\":" << num(inputs_s) << ",\"inputs_rss_mb\":" << num(inputs_mb) << ",\"measured_s\":" << num(measured_s)
         << ",\"rounds\":[" << round_json << "]"
         << ",\"attempted\":" << attempted << ",\"committed\":" << committed
         << ",\"not_committed\":" << object(not_committed)
         << ",\"retried\":" << object(retried)
         << ",\"lat_samples\":" << latencies.size()
         << ",\"violations\":[" << violations_json << "]"
         << ",\"end_to_end\":" << object(e2e)
         << ",\"end_to_end_raw\":" << object(raw)
         << ",\"host_probe_used_s\":" << num(host_probe)
         << ",\"per_layer\":" << object(layers) << "}";
  std::printf("%s\n", record.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace dtxbench

int main(int argc, char** argv) { return dtxbench::run(argc, argv); }
