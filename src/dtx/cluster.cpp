#include "dtx/cluster.hpp"

#include <algorithm>
#include <thread>

#include "storage/file_store.hpp"

namespace dtx::core {

using util::Code;
using util::Result;
using util::Status;

namespace {

Status out_of_range(SiteId site) {
  return Status(Code::kInvalidArgument,
                "site " + std::to_string(site) + " out of range");
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)), network_(options_.network) {
  stores_.reserve(options_.site_count);
  for (std::size_t i = 0; i < options_.site_count; ++i) {
    if (options_.storage_dir.empty()) {
      stores_.push_back(std::make_unique<storage::MemoryStore>());
    } else {
      stores_.push_back(std::make_unique<storage::FileStore>(
          std::filesystem::path(options_.storage_dir) /
          ("site" + std::to_string(i))));
    }
  }
}

Cluster::~Cluster() { stop(); }

Status Cluster::load_document(const std::string& name, const std::string& xml,
                              const std::vector<SiteId>& sites) {
  sync::ExclusiveLock lock(membership_mutex_);
  if (started_) {
    return Status(Code::kInternal, "load documents before start()");
  }
  for (SiteId site : sites) {
    if (site >= stores_.size()) return out_of_range(site);
  }
  Status placed = catalog_.add_document(name, sites);
  if (!placed) return placed;
  for (SiteId site : sites) {
    Status stored = stores_[site]->store(name, xml);
    if (!stored) return stored;
  }
  return Status::ok();
}

Status Cluster::declare_document(const std::string& name,
                                 const std::vector<SiteId>& sites) {
  sync::ExclusiveLock lock(membership_mutex_);
  if (started_) {
    return Status(Code::kInternal, "declare documents before start()");
  }
  for (SiteId site : sites) {
    if (site >= stores_.size()) return out_of_range(site);
    if (!stores_[site]->exists(name)) {
      return Status(Code::kNotFound, "document '" + name +
                                         "' not stored at site " +
                                         std::to_string(site));
    }
  }
  return catalog_.add_document(name, sites);
}

Status Cluster::start() {
  sync::ExclusiveLock lock(membership_mutex_);
  if (started_) return Status::ok();
  sites_.reserve(options_.site_count);
  catalogs_.reserve(options_.site_count);
  for (std::size_t i = 0; i < options_.site_count; ++i) {
    SiteOptions site_options = options_.site;
    site_options.id = static_cast<SiteId>(i);
    site_options.protocol = options_.protocol;
    // Each site evolves its own catalog replica (membership installs),
    // exactly like real daemons — the configured placement is the seed.
    catalogs_.push_back(std::make_unique<Catalog>(catalog_));
    sites_.push_back(std::make_unique<Site>(site_options, network_,
                                            *catalogs_[i], *stores_[i]));
  }
  for (auto& site : sites_) {
    Status status = site->start();
    if (!status) return status;
  }
  started_ = true;
  return Status::ok();
}

void Cluster::stop() {
  sync::SharedLock lock(membership_mutex_);
  for (auto& site : sites_) {
    if (site != nullptr) site->stop();
  }
}

Site* Cluster::site_ptr(SiteId site) const {
  sync::SharedLock lock(membership_mutex_);
  return started_ && site < sites_.size() ? sites_[site].get() : nullptr;
}

Status Cluster::crash_site(SiteId site) {
  Site* target = site_ptr(site);
  if (target == nullptr) return out_of_range(site);
  target->crash();
  return Status::ok();
}

Status Cluster::restart_site(SiteId site) {
  Site* target = site_ptr(site);
  if (target == nullptr) return out_of_range(site);
  return target->restart();
}

bool Cluster::site_running(SiteId site) const {
  Site* target = site_ptr(site);
  return target != nullptr && target->running();
}

Result<SiteId> Cluster::add_site() {
  // Grow the membership vectors under the exclusive lock, then run the
  // join protocol on raw element pointers — elements never move again, so
  // client threads resolving site ids (shared lock) are unaffected by the
  // wait below.
  SiteId id = 0;
  SiteId seed = 0;
  Site* joiner = nullptr;
  Catalog* joiner_catalog = nullptr;
  storage::StorageBackend* joiner_store = nullptr;
  {
    sync::ExclusiveLock lock(membership_mutex_);
    if (!started_) return Status(Code::kInternal, "cluster not started");
    bool have_seed = false;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (sites_[i] != nullptr && sites_[i]->running()) {
        seed = static_cast<SiteId>(i);
        have_seed = true;
        break;
      }
    }
    if (!have_seed) return Status(Code::kInternal, "no running seed site");

    id = static_cast<SiteId>(sites_.size());
    if (options_.storage_dir.empty()) {
      stores_.push_back(std::make_unique<storage::MemoryStore>());
    } else {
      stores_.push_back(std::make_unique<storage::FileStore>(
          std::filesystem::path(options_.storage_dir) /
          ("site" + std::to_string(id))));
    }
    // The joiner bootstraps from the seed's current view (it is not a member
    // of that epoch — the join flip admits it) and is constructed before the
    // JoinRequest so migration pushes queue in its mailbox.
    catalogs_.push_back(std::make_unique<Catalog>(*catalogs_[seed]));
    SiteOptions site_options = options_.site;
    site_options.id = id;
    site_options.protocol = options_.protocol;
    sites_.push_back(std::make_unique<Site>(site_options, network_,
                                            *catalogs_[id], *stores_[id]));
    joiner = sites_[id].get();
    joiner_catalog = catalogs_[id].get();
    joiner_store = stores_[id].get();
  }

  Status joined = joiner->join(seed, "");
  if (!joined) return joined;
  catalog_.install(placement::CatalogEpoch(*joiner_catalog->view()));

  // Block until every replica the new epoch hosts at the joiner is durable
  // there (adopted from a migration push or its own pull).
  const Catalog::View view = joiner_catalog->view();
  const std::vector<std::string> gained = view->documents_at(id);
  const auto migrated = [&] {
    for (const std::string& doc : gained) {
      if (!joiner_store->exists(doc)) return false;
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + 8 * options_.site.response_timeout;
  while (!migrated()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status(Code::kInternal, "replica migration to joiner timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return id;
}

Status Cluster::remove_site(SiteId site) {
  Site* victim = site_ptr(site);
  if (victim == nullptr) return out_of_range(site);
  if (!victim->running()) {
    return Status(Code::kInternal, "site is not running");
  }
  // The victim computes the post-departure epoch, broadcasts it, ships
  // every replica it holds to the new hosts and flips decommissioned().
  victim->begin_leave();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30) +
                        4 * options_.site.response_timeout;
  while (!victim->decommissioned()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status(Code::kInternal, "decommission timed out");
    }
    if (!victim->running()) {
      return Status(Code::kInternal, "site stopped before draining");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  victim->stop();
  // Refresh the admin view from a survivor's replica.
  sync::SharedLock lock(membership_mutex_);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (i != site && sites_[i] != nullptr && sites_[i]->running()) {
      catalog_.install(placement::CatalogEpoch(*catalogs_[i]->view()));
      break;
    }
  }
  return Status::ok();
}

Result<std::shared_ptr<txn::Transaction>> Cluster::submit(
    SiteId site, std::vector<txn::Operation> ops) {
  Site* target = site_ptr(site);
  if (target == nullptr) return out_of_range(site);
  if (ops.empty()) {
    return Status(Code::kInvalidArgument,
                  "transaction needs at least one operation");
  }
  return target->submit(std::move(ops));
}

Result<txn::TxnResult> Cluster::execute(SiteId site,
                                        std::vector<txn::Operation> ops) {
  auto handle = submit(site, std::move(ops));
  if (!handle) return handle.status();
  return handle.value()->await();
}

Result<std::shared_ptr<txn::Transaction>> Cluster::submit_text(
    SiteId site, const std::vector<std::string>& op_texts) {
  std::vector<txn::Operation> ops;
  ops.reserve(op_texts.size());
  for (const std::string& text : op_texts) {
    auto op = txn::parse_operation(text);
    if (!op) return op.status();
    ops.push_back(std::move(op).value());
  }
  return submit(site, std::move(ops));
}

Result<txn::TxnResult> Cluster::execute_text(
    SiteId site, const std::vector<std::string>& op_texts) {
  auto handle = submit_text(site, op_texts);
  if (!handle) return handle.status();
  return handle.value()->await();
}

ClusterStats Cluster::stats() {
  ClusterStats out;
  sync::SharedLock lock(membership_mutex_);
  for (auto& site : sites_) {
    if (site == nullptr) continue;
    const SiteStats s = site->stats();
    out.committed += s.committed;
    out.aborted += s.aborted;
    out.failed += s.failed;
    out.deadlock_aborts += s.deadlock_aborts;
    out.wait_episodes += s.wait_episodes;
    out.lock_acquisitions += s.lock_manager.lock_acquisitions;
    out.lock_conflicts += s.lock_manager.conflicts;
    out.remote_ops += s.remote_ops_processed;
    out.orphans_committed += s.orphans_committed;
    out.orphans_aborted += s.orphans_aborted;
    out.commit_resends += s.commit_resends;
    out.restarts += s.restarts;
    out.log_suffix_syncs += s.log_suffix_syncs;
    out.full_syncs += s.full_syncs;
    out.unclassified_aborts += s.unclassified_aborts;
    out.catalog_epoch = std::max(out.catalog_epoch, s.catalog_epoch);
    out.stale_catalog_aborts += s.stale_catalog_aborts;
    out.migrations += s.migrations;
    out.migrated_bytes += s.migrated_bytes;
    out.plan_cache.merge(s.plan_cache);
    out.snapshot_txns += s.snapshot_txns;
    out.snapshots.merge(s.snapshots);
    out.response_ms.merge(s.response_ms);
  }
  out.network = network_.stats();
  out.faults = network_.fault_stats();
  return out;
}

}  // namespace dtx::core
