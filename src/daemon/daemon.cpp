#include "daemon/daemon.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "dtx/inspector.hpp"
#include "lock/protocol.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dtx::daemon {

using util::Code;
using util::Result;
using util::Status;

namespace {

Result<net::SiteId> parse_site_id(const std::string& text) {
  try {
    const unsigned long value = std::stoul(text);
    if (value >= net::kClientIdBase) {
      return Status(Code::kInvalidArgument,
                    "site id " + text + " is in the client range");
    }
    return static_cast<net::SiteId>(value);
  } catch (const std::exception&) {
    return Status(Code::kInvalidArgument, "bad site id '" + text + "'");
  }
}

/// "0=host:port,1=host:port" -> address book.
Result<std::map<net::SiteId, std::string>> parse_peers(
    const std::string& text) {
  std::map<net::SiteId, std::string> out;
  for (const std::string& entry : util::split(text, ',')) {
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq + 1 == entry.size()) {
      return Status(Code::kInvalidArgument,
                    "--peers entry must be id=host:port, got '" + entry + "'");
    }
    auto id = parse_site_id(entry.substr(0, eq));
    if (!id) return id.status();
    out[id.value()] = entry.substr(eq + 1);
  }
  return out;
}

/// "d1:0,1,2;d2:0,2" -> catalog entries.
Result<std::vector<std::pair<std::string, std::vector<net::SiteId>>>>
parse_docs(const std::string& text) {
  std::vector<std::pair<std::string, std::vector<net::SiteId>>> out;
  for (const std::string& entry : util::split(text, ';')) {
    if (entry.empty()) continue;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == entry.size()) {
      return Status(Code::kInvalidArgument,
                    "--docs entry must be name:site,site..., got '" + entry +
                        "'");
    }
    std::vector<net::SiteId> sites;
    for (const std::string& id_text :
         util::split(entry.substr(colon + 1), ',')) {
      if (id_text.empty()) continue;
      auto id = parse_site_id(id_text);
      if (!id) return id.status();
      sites.push_back(id.value());
    }
    if (sites.empty()) {
      return Status(Code::kInvalidArgument,
                    "--docs entry '" + entry + "' lists no sites");
    }
    out.emplace_back(entry.substr(0, colon), std::move(sites));
  }
  return out;
}

/// "d1:/path.xml;d2:/other.xml" -> seed list (first ':' separates).
Result<std::vector<std::pair<std::string, std::string>>> parse_loads(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& entry : util::split(text, ';')) {
    if (entry.empty()) continue;
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == entry.size()) {
      return Status(Code::kInvalidArgument,
                    "--load entry must be name:path, got '" + entry + "'");
    }
    out.emplace_back(entry.substr(0, colon), entry.substr(colon + 1));
  }
  return out;
}

net::TcpOptions make_tcp_options(const DaemonConfig& config) {
  net::TcpOptions options;  // keep the default reconnect backoff window
  options.listen = config.listen;
  options.peers = config.peers;
  if (config.join) options.peers[config.join_seed] = config.join_seed_address;
  return options;
}

/// Boot-flag catalog: the --docs placement plus the flag address book, at
/// epoch 0 so any membership-managed epoch (durable record, CatalogUpdate,
/// JoinReply) strictly wins.
placement::CatalogEpoch boot_epoch(const DaemonConfig& config) {
  placement::CatalogEpoch epoch;
  auto add_member = [&epoch](net::SiteId site) {
    if (!epoch.is_member(site)) epoch.members.push_back(site);
  };
  for (const auto& [name, sites] : config.docs) {
    std::vector<net::SiteId> sorted = sites;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (const net::SiteId site : sorted) add_member(site);
    epoch.placement[name] = std::move(sorted);
  }
  for (const auto& [site, address] : config.peers) {
    add_member(site);
    epoch.addresses[site] = address;
  }
  if (!config.join) {
    // A joiner is NOT a boot member — it enters via the join protocol.
    add_member(config.site.id);
    // Own dialable address, when knowable before the listener binds
    // (explicit --advertise, or a --listen with a real port). Rebalances
    // carry it into every distributed epoch.
    std::string advertise = config.advertise;
    if (advertise.empty() && config.listen.rfind(":0") !=
                                 config.listen.size() - 2) {
      advertise = config.listen;
    }
    if (!advertise.empty()) epoch.addresses[config.site.id] = advertise;
  }
  std::sort(epoch.members.begin(), epoch.members.end());
  return epoch;
}

}  // namespace

Result<DaemonConfig> config_from_flags(const util::Flags& flags) {
  DaemonConfig config;
  if (!flags.has("site") || !flags.has("listen") || !flags.has("store")) {
    return Status(Code::kInvalidArgument,
                  "dtxd needs --site=N --listen=host:port --store=DIR");
  }
  auto site_id = parse_site_id(flags.get_string("site", "0"));
  if (!site_id) return site_id.status();
  config.site.id = site_id.value();
  config.listen = flags.get_string("listen", "");
  config.store_dir = flags.get_string("store", "");

  auto peers = parse_peers(flags.get_string("peers", ""));
  if (!peers) return peers.status();
  config.peers = std::move(peers).value();
  config.peers.erase(config.site.id);

  auto docs = parse_docs(flags.get_string("docs", ""));
  if (!docs) return docs.status();
  config.docs = std::move(docs).value();

  auto loads = parse_loads(flags.get_string("load", ""));
  if (!loads) return loads.status();
  config.loads = std::move(loads).value();

  config.advertise = flags.get_string("advertise", "");
  const std::string join = flags.get_string("join", "");
  if (!join.empty()) {
    const std::size_t eq = join.find('=');
    if (eq == std::string::npos || eq + 1 == join.size()) {
      return Status(Code::kInvalidArgument,
                    "--join must be seed_id=host:port, got '" + join + "'");
    }
    auto seed = parse_site_id(join.substr(0, eq));
    if (!seed) return seed.status();
    if (seed.value() == config.site.id) {
      return Status(Code::kInvalidArgument,
                    "--join seed must be another site");
    }
    config.join = true;
    config.join_seed = seed.value();
    config.join_seed_address = join.substr(eq + 1);
  }

  auto policy = placement::parse_placement_policy(
      flags.get_string("policy",
                       placement::placement_policy_name(
                           config.site.placement_policy)));
  if (!policy) return policy.status();
  config.site.placement_policy = policy.value();
  config.site.replication = static_cast<std::size_t>(flags.get_int(
      "replication", static_cast<std::int64_t>(config.site.replication)));

  auto protocol =
      lock::parse_protocol_kind(flags.get_string("protocol", "xdgl"));
  if (!protocol) return protocol.status();
  config.site.protocol = protocol.value();
  config.site.coordinator_workers = static_cast<std::size_t>(flags.get_int(
      "coordinator_workers",
      static_cast<std::int64_t>(config.site.coordinator_workers)));
  config.site.participant_workers = static_cast<std::size_t>(flags.get_int(
      "participant_workers",
      static_cast<std::int64_t>(config.site.participant_workers)));
  config.site.lock_shards = static_cast<std::size_t>(flags.get_int(
      "lock_shards", static_cast<std::int64_t>(config.site.lock_shards)));
  config.site.checkpoint_interval = static_cast<std::size_t>(
      flags.get_int("checkpoint_interval",
                    static_cast<std::int64_t>(config.site.checkpoint_interval)));
  config.site.max_wait_episodes = static_cast<std::uint32_t>(flags.get_int(
      "max_wait_episodes",
      static_cast<std::int64_t>(config.site.max_wait_episodes)));
  config.site.snapshot_reads =
      flags.get_bool("snapshot_reads", config.site.snapshot_reads);
  config.site.orphan_txn_timeout = std::chrono::microseconds(
      flags.get_int("orphan_timeout_ms",
                    config.site.orphan_txn_timeout.count() / 1000) *
      1000);
  config.site.response_timeout = std::chrono::microseconds(
      flags.get_int("response_timeout_ms",
                    config.site.response_timeout.count() / 1000) *
      1000);
  config.site.commit_ack_rounds = static_cast<std::uint32_t>(flags.get_int(
      "commit_ack_rounds",
      static_cast<std::int64_t>(config.site.commit_ack_rounds)));
  config.site.detect_period = std::chrono::microseconds(
      flags.get_int("detect_period_us", config.site.detect_period.count()));
  return config;
}

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      store_(std::filesystem::path(config_.store_dir)),
      catalog_(boot_epoch(config_)),
      network_(config_.site.id, make_tcp_options(config_)) {}

Daemon::~Daemon() { stop(); }

Status Daemon::start() {
  Status up = network_.start();
  if (!up) return up;
  site_ = std::make_unique<core::Site>(config_.site, network_, catalog_,
                                       store_);
  Status started = Status::ok();
  if (store_.exists(core::SiteContext::kCatalogKey)) {
    // A membership-managed restart: the durable epoch governs, the boot
    // flags (--join, --load) are history.
    started = site_->start(core::Site::Startup::kRecover);
  } else if (config_.join) {
    started = site_->join(config_.join_seed, advertise_address());
  } else {
    started = seed_documents();
    if (started) started = site_->start(core::Site::Startup::kRecover);
  }
  if (!started) return started;
  DTX_INFO() << "dtxd: site " + std::to_string(config_.site.id) +
                     " serving on port " +
                     std::to_string(network_.listen_port()) +
                     " at catalog epoch " + std::to_string(catalog_.epoch());
  return Status::ok();
}

void Daemon::stop() {
  if (site_ != nullptr && !stopped_) {
    stopped_ = true;
    site_->stop();
    const core::SiteStats stats = site_->stats();
    DTX_INFO() << "dtxd: site " + std::to_string(config_.site.id) + " " +
                      core::describe_tcp(network_.tcp_stats()) +
                      " | recovery: log_suffix_syncs=" +
                      std::to_string(stats.log_suffix_syncs) +
                      " full_syncs=" + std::to_string(stats.full_syncs) +
                      " | placement: catalog_epoch=" +
                      std::to_string(stats.catalog_epoch) +
                      " stale_catalog_aborts=" +
                      std::to_string(stats.stale_catalog_aborts) +
                      " migrations=" + std::to_string(stats.migrations) +
                      " migrated_bytes=" + std::to_string(stats.migrated_bytes);
  }
  network_.interrupt_all();
}

void Daemon::begin_decommission() {
  if (site_ != nullptr) site_->begin_leave();
}

std::string Daemon::advertise_address() const {
  if (!config_.advertise.empty()) return config_.advertise;
  // The listen host with the actually-bound port (resolves a port-0 listen).
  const std::size_t colon = config_.listen.rfind(':');
  return config_.listen.substr(0, colon) + ":" +
         std::to_string(network_.listen_port());
}

Status Daemon::seed_documents() {
  for (const auto& [name, path] : config_.loads) {
    if (!catalog_.has_document(name)) {
      return Status(Code::kInvalidArgument,
                    "--load document '" + name + "' is not in --docs");
    }
    const std::vector<net::SiteId> hosts = catalog_.sites_of(name);
    if (std::find(hosts.begin(), hosts.end(), config_.site.id) ==
        hosts.end()) {
      continue;  // seeded by its hosting daemons
    }
    if (store_.exists(name)) continue;  // restart — durable state wins
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status(Code::kNotFound,
                    "cannot read --load file '" + path + "'");
    }
    std::ostringstream xml;
    xml << in.rdbuf();
    Status stored = store_.store(name, xml.str());
    if (!stored) return stored;
  }
  return Status::ok();
}

}  // namespace dtx::daemon
