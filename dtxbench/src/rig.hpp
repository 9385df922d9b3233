// One round of a workload: assemble four DTX sites from the engine's public
// constructors, run the fixed transaction list with four closed-loop
// clients (one per site, one transaction in flight, transient aborts
// resubmitted), wait for quiescence, check the outcome, tear everything
// down.
//
// Sites run SiteOptions defaults — what dtxd ships. Two substrates:
//   * in-process: one SimNetwork at zero latency and unlimited bandwidth,
//     a MemoryStore per site, Site::submit from the client threads (what a
//     client::Session with explicit home-site routing does; Session needs a
//     core::Cluster, which hard-wires its own network and stores);
//   * production wire: one TcpNetwork per site on loopback, a FileStore
//     per site in a fresh directory (no fsync: FileStore does not sync),
//     one client::RemoteSession per site.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "net/message.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace dtxbench {

class Rig;

struct RoundOptions {
  bool traced = false;
  /// Before the timed phase, measure an idle window of this many ms
  /// (engine background CPU and probe traffic). 0 = none.
  int idle_window_ms = 0;
  /// Parent directory for FileStore directories.
  std::string work_dir;
  /// Which slice of every client's list this round executes.
  std::size_t slice = 0;
  /// Expected rows of read-only transactions (static data only).
  const ExpectedRows* expected = nullptr;
  /// Earlier rounds' engines still waiting for quiescence. What their
  /// threads burn during the timed phase is not this round's CPU.
  std::vector<Rig*> parked;
};

/// Counter deltas summed over the four sites (Site::stats()).
struct EngineCounters {
  std::uint64_t committed = 0, distributed_cycles = 0, wait_episodes = 0, remote_ops = 0,
                snapshot_txns = 0, orphans_aborted = 0, lock_acquisitions = 0, lock_conflicts = 0,
                plan_hits = 0, plan_misses = 0, snap_reads = 0,
                snap_chain_hits = 0, snap_materializes = 0, snap_clones = 0,
                snap_cut_retries = 0, snap_chain_bytes_peak = 0;
};

struct RoundResult {
  double setup_s = 0, wall_s = 0, cpu_s = 0;
  /// Time from the last client reply until no site held a lock or an undo
  /// log (long only when the presumed-abort sweep had to roll back).
  double quiesce_s = 0;
  /// Engines of earlier rounds still waiting for quiescence while this
  /// round's timed phase ran, and the CPU their threads used meanwhile
  /// (taken out of cpu_s; they still share the machine).
  std::size_t parked_engines = 0;
  double parked_cpu_s = 0;
  /// Share of the machine's CPU time stolen by the hypervisor during the
  /// timed phase (/proc/stat), a host diagnostic.
  double steal_share = 0;
  /// Every transaction of the round, warm-up included (accounting and
  /// per-layer ratios), and the commits of the timed phase alone.
  std::uint64_t attempted = 0, committed = 0, timed_committed = 0;
  std::map<std::string, std::uint64_t> not_committed;  ///< by reason
  std::map<std::string, std::uint64_t> retried;  ///< resubmissions by reason
  std::uint64_t deadlock_victims = 0;
  std::vector<double> latency_ms;  ///< committed timed transactions
  double submit_us_total = 0;
  std::uint64_t committed_update_text_bytes = 0;
  EngineCounters engine;
  std::uint64_t tcp_reconnects = 0, tcp_frames_rejected = 0;
  std::vector<std::string> violations;

  // Traced rounds only.
  std::vector<std::uint32_t> mailbox_samples;
  double idle_cpu_cores = 0, idle_probe_msgs_per_s = 0;
  std::vector<Span> spans_raw;
  std::map<std::string, SpanAgg> spans;
  std::vector<dtx::net::Message> sampled_messages;
};

/// One round's engine, from set-up to tear-down.
///
/// run() does the set-up, the idle window and the timed phase, and fills
/// in everything the clients saw. The round then has to quiesce before it
/// can be checked, and that can take the engine's presumed-abort sweep
/// (SiteOptions::orphan_txn_timeout, 30 s): now and then a participant is
/// left holding the undo log of a deadlock victim whose abort it processed
/// before a late request of the same transaction. So a round that has not
/// quiesced shortly after its timed phase can be parked, its engine kept
/// alive while later rounds run, and finished once quiesced() says so.
/// finish() adds the engine's counters and the post-quiescence checks to
/// result(), then tears the engine down.
class Rig {
 public:
  Rig(const WorkloadSpec& spec, const Inputs& inputs, RoundOptions options);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void run();
  /// No site holds a lock or an undo log.
  bool quiesced();
  /// When quiescence is overdue: 45 s after the timed phase.
  Clock::time_point quiesce_deadline() const;
  void finish();
  bool finished() const;
  RoundResult& result();
  /// CPU seconds used so far by the threads the engine started.
  double engine_cpu_s() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// User+system CPU seconds of the whole process.
double process_cpu_s();

}  // namespace dtxbench
