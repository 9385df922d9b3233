// dtxd: one DTX site as a standalone OS process. The daemon is a thin host:
// it wires the real transport (net::TcpNetwork) under the unchanged engine
// (core::Site) with a FileStore for durability and a boot catalog parsed
// from flags, seeds --load documents on first boot, and hands everything
// else to the Site lifecycle the in-process Cluster runs too — startup
// recovery over the wire (Site::start with Startup::kRecover), the --join
// handshake (Site::join) and decommission (Site::begin_leave). Remote
// clients (client::RemoteSession, `dtxsh --connect`) submit transactions
// over the same connections the sites use among themselves.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dtx/site.hpp"
#include "net/tcp_network.hpp"
#include "storage/file_store.hpp"
#include "util/flags.hpp"
#include "util/status.hpp"

namespace dtx::daemon {

struct DaemonConfig {
  /// Engine knobs; `site.id` is this daemon's site id. `placement_policy`
  /// and `replication` (flags --policy / --replication) govern every
  /// rebalance this daemon seeds.
  core::SiteOptions site;
  /// Listen address "host:port" (port 0 = kernel-assigned).
  std::string listen;
  /// Address other members should dial; defaults to `listen` with the
  /// actually-bound port substituted (resolves port 0).
  std::string advertise;
  /// Peer address book: site id -> "host:port" (own id ignored).
  std::map<net::SiteId, std::string> peers;
  /// FileStore root for this site's replicas, logs and commit log.
  std::string store_dir;
  /// Catalog: document name -> hosting sites (identical on every daemon).
  /// Ignored when the store holds a durable `~catalog` record — a
  /// membership-managed cluster's own epoch always wins over boot flags.
  std::vector<std::pair<std::string, std::vector<net::SiteId>>> docs;
  /// Seed data: document name -> XML file, stored only when the local
  /// store does not already hold the document (first boot, not restart).
  std::vector<std::pair<std::string, std::string>> loads;
  /// --join=ID=host:port: boot as a NEW member. The daemon dials the seed
  /// site and runs Site::join (JoinRequest/JoinReply), which installs the
  /// rebalanced catalog and lets the engine's migration machinery pull its
  /// replicas. A restart with a durable catalog skips the handshake.
  /// Startup waits (join, recovery pulls) scale with
  /// site.response_timeout.
  bool join = false;
  net::SiteId join_seed = 0;
  std::string join_seed_address;
};

/// Builds a config from --key=value flags:
///   --site=N --listen=host:port --store=DIR           (required)
///   --peers=0=host:port,1=host:port                   (other sites)
///   --docs=name:0,1,2;name2:0,2                       (the catalog)
///   --load=name:/path.xml;name2:/path2.xml            (first-boot seeds)
///   --join=ID=host:port                               (join via seed site)
///   --advertise=host:port                             (dialable address)
///   --policy=fixed|round_robin|hash_ring --replication=N
/// plus engine knobs: --protocol=xdgl|node2pl|doclock, --coordinator_workers,
/// --participant_workers, --lock_shards, --checkpoint_interval,
/// --max_wait_episodes, --snapshot_reads, --orphan_timeout_ms,
/// --response_timeout_ms, --commit_ack_rounds, --detect_period_us.
util::Result<DaemonConfig> config_from_flags(const util::Flags& flags);

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Full startup: transport, then either Site::join (first boot with
  /// --join) or the seed loads (first boot) and Site::start with recovery
  /// pulls from live peers. Returns the first failure.
  util::Status start();

  /// Stops the site and the transport. Idempotent.
  void stop();

  /// Starts an orderly leave (SIGUSR1) via Site::begin_leave: the site
  /// rebalances the catalog without itself and migrates its replicas away.
  /// Poll decommissioned() for completion, then stop().
  void begin_decommission();
  [[nodiscard]] bool decommissioned() const noexcept {
    return site_ != nullptr && site_->decommissioned();
  }

  [[nodiscard]] bool running() const noexcept {
    return site_ != nullptr && site_->running();
  }
  [[nodiscard]] core::Site& site() { return *site_; }
  [[nodiscard]] net::TcpNetwork& network() noexcept { return network_; }
  [[nodiscard]] std::uint16_t listen_port() const {
    return network_.listen_port();
  }

 private:
  /// Stores --load seeds that are hosted here and not yet present.
  util::Status seed_documents();
  /// --advertise, else the listen host with the actually-bound port.
  [[nodiscard]] std::string advertise_address() const;

  DaemonConfig config_;
  storage::FileStore store_;
  core::Catalog catalog_;
  net::TcpNetwork network_;
  std::unique_ptr<core::Site> site_;
  bool stopped_ = false;
};

}  // namespace dtx::daemon
