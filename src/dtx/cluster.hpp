// Cluster: builds a complete DTX deployment — N sites, the simulated LAN,
// the placement catalog and per-site storage backends — and exposes the
// client API (connect to a site, submit a transaction, await the result).
// This is the top-level object examples, tests and benches instantiate; a
// paper deployment would run one Site per machine instead (dtxd). Like the
// daemon, the cluster is a thin host: crash, restart, join and leave are
// calls into the Site lifecycle, so in-process tests run the code dtxd runs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dtx/catalog.hpp"
#include "dtx/site.hpp"
#include "net/sim_network.hpp"
#include "query/plan_cache.hpp"
#include "storage/memory_store.hpp"
#include "util/histogram.hpp"
#include "util/sync.hpp"

namespace dtx::core {

struct ClusterOptions {
  std::size_t site_count = 2;
  lock::ProtocolKind protocol = lock::ProtocolKind::kXdgl;
  net::NetworkOptions network;
  /// Per-site scheduler knobs (id is filled in per site).
  SiteOptions site;
  /// When non-empty, each site persists its documents to
  /// `<storage_dir>/site<N>/` (storage::FileStore) instead of memory —
  /// committed state then survives cluster restarts (see
  /// declare_document()).
  std::string storage_dir;
};

struct ClusterStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadlock_aborts = 0;
  std::uint64_t wait_episodes = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_conflicts = 0;
  std::uint64_t remote_ops = 0;
  /// Crash-recovery accounting summed over all sites (presumed-abort
  /// orphan resolutions, commit-request resends, completed restarts).
  std::uint64_t orphans_committed = 0;
  std::uint64_t orphans_aborted = 0;
  std::uint64_t commit_resends = 0;
  std::uint64_t restarts = 0;
  std::uint64_t unclassified_aborts = 0;
  /// Placement & membership: the newest installed catalog epoch across
  /// sites, retryable stale-catalog rejections, and replica migrations
  /// (adoptions + bytes shipped) summed over all sites.
  std::uint64_t catalog_epoch = 0;
  std::uint64_t stale_catalog_aborts = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migrated_bytes = 0;
  /// Recovery-sync accounting: documents caught up by shipping a peer's
  /// redo-log suffix (the O(missed commits) path) vs. by adopting a whole
  /// peer checkpoint (the peer had compacted past the local version).
  std::uint64_t log_suffix_syncs = 0;
  std::uint64_t full_syncs = 0;
  /// Fault-injection counters of the simulated network.
  net::FaultStats faults;
  /// Plan-cache counters summed over all sites (compiled-operation reuse).
  query::PlanCacheStats plan_cache;
  /// Read-only transactions served by the MVCC snapshot path (no locks, no
  /// wait-for entries, no 2PC), summed over all coordinators.
  std::uint64_t snapshot_txns = 0;
  /// Snapshot-store counters summed over all sites; the byte gauges add up
  /// to the cluster-wide version-chain memory (see dtx/snapshot_store.hpp).
  SnapshotStats snapshots;
  /// Client-observed response times across all sites (every terminated
  /// transaction); percentile() gives p50/p95/p99.
  util::Histogram response_ms;
  net::NetworkStats network;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Places a document: the XML is stored at every listed site and entered
  /// into the catalog. Must be called before start().
  util::Status load_document(const std::string& name, const std::string& xml,
                             const std::vector<SiteId>& sites);

  /// Registers an *already stored* document (file-backed clusters being
  /// restarted): verifies each listed site's store holds it and enters the
  /// placement into the catalog. Must be called before start().
  util::Status declare_document(const std::string& name,
                                const std::vector<SiteId>& sites);

  /// Spawns every site's threads. Call after all documents are loaded.
  util::Status start();

  /// Stops all sites (idempotent; also run by the destructor).
  void stop();

  /// Crashes one site (see Site::crash): it drops off the network and
  /// loses all volatile state. Traffic to the remaining sites continues;
  /// transactions touching this site abort with kSiteFailure until it
  /// restarts.
  util::Status crash_site(SiteId site);

  /// Restarts a stopped / crashed site (Site::restart). Before the site
  /// serves, it pulls the durable state of every document it hosts from
  /// the other running hosts over the network and catches its redo logs up
  /// (recovery::sync_document): normally by appending the missing record
  /// *suffix* (O(missed commits)), falling back to whole checkpoint + log
  /// adoption only when a peer already compacted past it. A host that is
  /// down contributes nothing, exactly as for dtxd.
  util::Status restart_site(SiteId site);

  /// True when the site's engine threads are running.
  [[nodiscard]] bool site_running(SiteId site) const;

  /// Elastic membership: admits a brand-new site into the running cluster.
  /// Creates its store and Site, runs Site::join against a seed member
  /// (catalog rebalance under SiteOptions::placement_policy / replication,
  /// drain of the old epoch, replica migration) and blocks until every
  /// document the new epoch hosts at the joiner is durable there. Returns
  /// the new site's id.
  util::Result<SiteId> add_site();

  /// Decommissions a member: orders it to leave (Site::begin_leave —
  /// rebalance without it), blocks until every replica it held migrated to
  /// the surviving hosts and its own transactions ended, then stops it. The
  /// slot stays (site ids are stable); the site can not be restarted.
  util::Status remove_site(SiteId site);

  [[nodiscard]] std::size_t site_count() const {
    sync::SharedLock lock(membership_mutex_);
    return sites_.size();
  }
  [[nodiscard]] Site& site(SiteId id) {
    sync::SharedLock lock(membership_mutex_);
    return *sites_.at(id);
  }
  [[nodiscard]] const Catalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] net::SimNetwork& network() noexcept { return network_; }
  [[nodiscard]] storage::StorageBackend& store_of(SiteId id) {
    sync::SharedLock lock(membership_mutex_);
    return *stores_.at(id);
  }

  /// Submits pre-parsed operations at `site` (the Listener) and returns the
  /// transaction handle. This is the canonical entry point — the typed
  /// client layer (dtx::client) parses once via TxnBuilder and feeds
  /// operations here, so retries never re-parse text.
  util::Result<std::shared_ptr<txn::Transaction>> submit(
      SiteId site, std::vector<txn::Operation> ops);

  /// Blocking convenience over submit(): awaits the result.
  util::Result<txn::TxnResult> execute(SiteId site,
                                       std::vector<txn::Operation> ops);

  /// Textual adapters ("query d1 /people/..."): parse each operation, then
  /// delegate to the typed entry points. Kept for dtxsh, workload files and
  /// legacy call sites — application code should use dtx::client instead.
  /// (Distinct names, not overloads: a braced list of exactly two string
  /// literals would otherwise ambiguously match vector<Operation>'s
  /// iterator-pair constructor.)
  util::Result<txn::TxnResult> execute_text(
      SiteId site, const std::vector<std::string>& op_texts);
  util::Result<std::shared_ptr<txn::Transaction>> submit_text(
      SiteId site, const std::vector<std::string>& op_texts);

  [[nodiscard]] ClusterStats stats();

 private:
  /// Site pointer by id, or nullptr when out of range or before start().
  /// The membership lock only covers the vector lookup — the Site itself is
  /// internally synchronized and lives until the Cluster dies (remove_site
  /// stops a site but keeps the slot), so the returned pointer stays valid.
  [[nodiscard]] Site* site_ptr(SiteId site) const;

  ClusterOptions options_;
  net::SimNetwork network_;
  /// The admin's own view: seeded by load_document/declare_document,
  /// refreshed after every membership change. Site routing never reads it —
  /// each site owns a replica in catalogs_ (membership changes evolve the
  /// replicas independently, exactly like real daemons).
  Catalog catalog_;
  /// Guards the three membership vectors below: add_site() grows them at
  /// runtime (exclusive) while client threads resolve site ids (shared).
  /// Elements themselves never move or die before the Cluster does.
  mutable sync::SharedMutex membership_mutex_{
      sync::LockRank::kClusterMembership};
  std::vector<std::unique_ptr<storage::StorageBackend>> stores_
      DTX_GUARDED_BY(membership_mutex_);
  /// Per-site catalog replicas; must outlive sites_ (declared before it).
  std::vector<std::unique_ptr<Catalog>> catalogs_
      DTX_GUARDED_BY(membership_mutex_);
  std::vector<std::unique_ptr<Site>> sites_
      DTX_GUARDED_BY(membership_mutex_);
  bool started_ DTX_GUARDED_BY(membership_mutex_) = false;
};

}  // namespace dtx::core
