#include "placement/placement.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/strings.hpp"

namespace dtx::placement {

namespace {

const std::vector<SiteId> kNoSites;

}  // namespace

const char* placement_policy_name(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kFixed:
      return "fixed";
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kHashRing:
      return "hash-ring";
  }
  return "?";
}

util::Result<PlacementPolicy> parse_placement_policy(const std::string& text) {
  if (text == "fixed") return PlacementPolicy::kFixed;
  if (text == "round-robin" || text == "rr") return PlacementPolicy::kRoundRobin;
  if (text == "hash-ring" || text == "ring") return PlacementPolicy::kHashRing;
  return util::Status(util::Code::kInvalidArgument,
                      "unknown placement policy '" + text +
                          "' (fixed | round-robin | hash-ring)");
}

std::uint64_t hash64(const std::string& text) noexcept {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char byte : text) {
    hash ^= static_cast<std::uint8_t>(byte);
    hash *= 1099511628211ULL;
  }
  // FNV-1a alone clusters short near-identical names ("doc0", "doc1", ...)
  // into one narrow band of the ring; a fmix64-style finalizer spreads them
  // across the full 64-bit space.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ULL;
  hash ^= hash >> 33;
  return hash;
}

std::vector<SiteId> assign_sites(PlacementPolicy policy,
                                 std::size_t doc_index,
                                 const std::string& doc_name,
                                 const std::vector<SiteId>& members,
                                 std::size_t replication) {
  std::vector<SiteId> ordered = members;
  std::sort(ordered.begin(), ordered.end());
  ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());
  if (ordered.empty()) return ordered;
  std::size_t copies = replication;
  if (copies == 0 || copies > ordered.size()) copies = ordered.size();
  if (copies == ordered.size()) return ordered;  // full replication

  std::size_t start = 0;
  switch (policy) {
    case PlacementPolicy::kFixed:
      start = 0;
      break;
    case PlacementPolicy::kRoundRobin:
      start = doc_index % ordered.size();
      break;
    case PlacementPolicy::kHashRing: {
      // Classic consistent hashing: each member owns several virtual points
      // on the ring; the document lands on the successor of its own hash and
      // replicas on the next DISTINCT members clockwise. Adding a member
      // moves only the documents whose ring segments its points split.
      constexpr std::size_t kVirtualNodes = 64;
      std::vector<std::pair<std::uint64_t, std::size_t>> ring;
      ring.reserve(ordered.size() * kVirtualNodes);
      for (std::size_t i = 0; i < ordered.size(); ++i) {
        const std::string base = "site:" + std::to_string(ordered[i]) + "#";
        for (std::size_t v = 0; v < kVirtualNodes; ++v) {
          ring.emplace_back(hash64(base + std::to_string(v)), i);
        }
      }
      std::sort(ring.begin(), ring.end());
      const std::uint64_t point = hash64(doc_name);
      std::size_t slot = 0;
      while (slot < ring.size() && ring[slot].first < point) ++slot;
      if (slot == ring.size()) slot = 0;
      // Walk clockwise collecting distinct members.
      std::vector<SiteId> chosen;
      chosen.reserve(copies);
      for (std::size_t step = 0;
           step < ring.size() && chosen.size() < copies; ++step) {
        const SiteId candidate = ordered[ring[(slot + step) % ring.size()].second];
        if (std::find(chosen.begin(), chosen.end(), candidate) ==
            chosen.end()) {
          chosen.push_back(candidate);
        }
      }
      std::sort(chosen.begin(), chosen.end());
      return chosen;
    }
  }
  std::vector<SiteId> chosen;
  chosen.reserve(copies);
  for (std::size_t i = 0; i < copies; ++i) {
    chosen.push_back(ordered[(start + i) % ordered.size()]);
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

const std::vector<SiteId>& CatalogEpoch::sites_of(
    const std::string& name) const noexcept {
  const auto it = placement.find(name);
  return it == placement.end() ? kNoSites : it->second;
}

SiteId CatalogEpoch::rows_source(const std::string& name,
                                 SiteId coordinator) const noexcept {
  const std::vector<SiteId>& sites = sites_of(name);
  if (sites.empty() ||
      std::find(sites.begin(), sites.end(), coordinator) != sites.end()) {
    return coordinator;
  }
  // The replica of rank coordinator % |sites| in ascending id order,
  // whatever order the hosting set was written in (sets are a few sites).
  const std::size_t rank = coordinator % sites.size();
  for (SiteId site : sites) {
    const auto below = std::count_if(
        sites.begin(), sites.end(), [&](SiteId other) { return other < site; });
    if (static_cast<std::size_t>(below) == rank) return site;
  }
  return sites.front();  // unreachable for a set of distinct sites
}

bool CatalogEpoch::has_document(const std::string& name) const {
  return placement.count(name) != 0;
}

bool CatalogEpoch::hosts(SiteId site, const std::string& name) const {
  const std::vector<SiteId>& sites = sites_of(name);
  return std::find(sites.begin(), sites.end(), site) != sites.end();
}

bool CatalogEpoch::is_member(SiteId site) const {
  return std::find(members.begin(), members.end(), site) != members.end();
}

std::vector<std::string> CatalogEpoch::documents() const {
  std::vector<std::string> names;
  names.reserve(placement.size());
  for (const auto& [name, sites] : placement) {
    (void)sites;
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> CatalogEpoch::documents_at(SiteId site) const {
  std::vector<std::string> names;
  for (const auto& [name, sites] : placement) {
    if (std::find(sites.begin(), sites.end(), site) != sites.end()) {
      names.push_back(name);
    }
  }
  return names;
}

std::string CatalogEpoch::to_text() const {
  // `epoch N` / `member ID [addr]` / `doc S1,S2 NAME` — name last so it may
  // contain spaces; addresses never do (host:port).
  std::string out = "epoch " + std::to_string(epoch) + "\n";
  for (const SiteId member : members) {
    out += "member " + std::to_string(member);
    const auto it = addresses.find(member);
    if (it != addresses.end() && !it->second.empty()) out += " " + it->second;
    out += "\n";
  }
  for (const auto& [name, sites] : placement) {
    out += "doc ";
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(sites[i]);
    }
    out += " " + name + "\n";
  }
  return out;
}

util::Result<CatalogEpoch> CatalogEpoch::parse(const std::string& text) {
  CatalogEpoch result;
  bool saw_epoch = false;
  for (const std::string& raw : util::split(text, '\n')) {
    const std::string_view line = util::trim(raw);
    if (line.empty()) continue;
    const auto space = line.find(' ');
    const std::string_view kind = line.substr(0, space);
    const std::string_view rest =
        space == std::string_view::npos ? std::string_view{}
                                        : line.substr(space + 1);
    if (kind == "epoch") {
      result.epoch = std::strtoull(std::string(rest).c_str(), nullptr, 10);
      saw_epoch = true;
    } else if (kind == "member") {
      const auto gap = rest.find(' ');
      const std::string id_text(rest.substr(0, gap));
      char* end = nullptr;
      const unsigned long id = std::strtoul(id_text.c_str(), &end, 10);
      if (end == id_text.c_str()) {
        return util::Status(util::Code::kInvalidArgument,
                            "catalog: bad member line '" + std::string(line) +
                                "'");
      }
      result.members.push_back(static_cast<SiteId>(id));
      if (gap != std::string_view::npos) {
        result.addresses[static_cast<SiteId>(id)] =
            std::string(util::trim(rest.substr(gap + 1)));
      }
    } else if (kind == "doc") {
      const auto gap = rest.find(' ');
      if (gap == std::string_view::npos) {
        return util::Status(util::Code::kInvalidArgument,
                            "catalog: bad doc line '" + std::string(line) +
                                "'");
      }
      std::vector<SiteId> sites;
      for (const std::string& piece :
           util::split(rest.substr(0, gap), ',')) {
        if (piece.empty()) continue;
        sites.push_back(
            static_cast<SiteId>(std::strtoul(piece.c_str(), nullptr, 10)));
      }
      const std::string name(util::trim(rest.substr(gap + 1)));
      if (name.empty() || sites.empty()) {
        return util::Status(util::Code::kInvalidArgument,
                            "catalog: bad doc line '" + std::string(line) +
                                "'");
      }
      std::sort(sites.begin(), sites.end());
      sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
      result.placement[name] = std::move(sites);
    } else {
      return util::Status(util::Code::kInvalidArgument,
                          "catalog: unknown line '" + std::string(line) + "'");
    }
  }
  if (!saw_epoch) {
    return util::Status(util::Code::kInvalidArgument,
                        "catalog: missing epoch line");
  }
  std::sort(result.members.begin(), result.members.end());
  result.members.erase(
      std::unique(result.members.begin(), result.members.end()),
      result.members.end());
  return result;
}

CatalogEpoch rebalance(const CatalogEpoch& current,
                       std::vector<SiteId> members,
                       const std::map<SiteId, std::string>& addresses,
                       PlacementPolicy policy, std::size_t replication) {
  CatalogEpoch next;
  next.epoch = current.epoch + 1;
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  next.members = std::move(members);
  for (const SiteId member : next.members) {
    const auto fresh = addresses.find(member);
    if (fresh != addresses.end()) {
      next.addresses[member] = fresh->second;
      continue;
    }
    const auto kept = current.addresses.find(member);
    if (kept != current.addresses.end()) next.addresses[member] = kept->second;
  }
  std::size_t index = 0;
  for (const auto& [name, sites] : current.placement) {
    (void)sites;
    next.placement[name] =
        assign_sites(policy, index++, name, next.members, replication);
  }
  return next;
}

MigrationPlan plan_migration(const CatalogEpoch& from, const CatalogEpoch& to) {
  MigrationPlan plan;
  for (const auto& [name, new_sites] : to.placement) {
    const std::vector<SiteId>& old_sites = from.sites_of(name);
    MigrationPlan::Move move;
    move.doc = name;
    move.sources = old_sites;
    for (const SiteId site : new_sites) {
      if (std::find(old_sites.begin(), old_sites.end(), site) ==
          old_sites.end()) {
        move.gains.push_back(site);
      }
    }
    for (const SiteId site : old_sites) {
      if (std::find(new_sites.begin(), new_sites.end(), site) ==
          new_sites.end()) {
        move.drops.push_back(site);
      }
    }
    if (!move.gains.empty() || !move.drops.empty()) {
      plan.moves.push_back(std::move(move));
    }
  }
  return plan;
}

}  // namespace dtx::placement
