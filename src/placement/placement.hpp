// Placement & membership: which sites host which documents, as a versioned
// value. A `CatalogEpoch` is an immutable snapshot of the cluster layout —
// member list (with transport addresses for real clusters), one hosting set
// per document, and a monotonically increasing epoch number. Epochs are the
// unit of catalog distribution (`CatalogUpdate` wire messages) and of
// consistency: coordinators stamp every remote request with the epoch they
// routed under, and participants reject mismatches with the retryable
// `AbortReason::kStaleCatalog`, so a transaction is never torn across a
// placement change.
//
// `PlacementPolicy` decides hosting sets. `kFixed` keeps the lowest member
// ids (stable, but a new site hosts nothing); `kRoundRobin` stripes
// documents across members by index; `kHashRing` places each document on
// the ring successors of its name hash, which minimises replica movement
// when members join or leave — the policy the migration protocol is built
// for.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "util/status.hpp"

namespace dtx::placement {

using net::SiteId;

enum class PlacementPolicy {
  kFixed,       ///< first `replication` members in id order
  kRoundRobin,  ///< stripe by document index across members
  kHashRing,    ///< ring successors of hash(document name)
};

const char* placement_policy_name(PlacementPolicy policy) noexcept;
util::Result<PlacementPolicy> parse_placement_policy(const std::string& text);

/// FNV-1a — the ring hash. Stable across platforms and runs.
std::uint64_t hash64(const std::string& text) noexcept;

/// Hosting set for one document: `replication` distinct members chosen by
/// `policy`. `replication == 0` (or >= member count) means full replication.
/// Members must be non-empty; the result is sorted.
std::vector<SiteId> assign_sites(PlacementPolicy policy,
                                 std::size_t doc_index,
                                 const std::string& doc_name,
                                 const std::vector<SiteId>& members,
                                 std::size_t replication);

/// One immutable version of the cluster layout.
struct CatalogEpoch {
  std::uint64_t epoch = 0;
  std::vector<SiteId> members;                  ///< sorted, unique
  std::map<SiteId, std::string> addresses;      ///< host:port; empty for sim
  std::map<std::string, std::vector<SiteId>> placement;

  /// Hosting sites of a document; a reference to an empty vector when
  /// unknown. Valid as long as this epoch object lives — hot paths hold a
  /// `shared_ptr<const CatalogEpoch>` view and never copy the vector.
  [[nodiscard]] const std::vector<SiteId>& sites_of(
      const std::string& name) const noexcept;

  /// The rows source of a query on `name` in a transaction coordinated by
  /// `coordinator`: the coordinator's own replica when it hosts the
  /// document, else the replica at index `coordinator % hosting.size()` of
  /// the hosting set in ascending site order (`coordinator` when no site
  /// hosts it). Foreign coordinators thus spread their reads over every
  /// replica, while each one reads a given document from one fixed replica
  /// per epoch (monotonic reads). Every replica takes the query's locks;
  /// only this one evaluates it, and every other replica answers with no
  /// rows. Locked slices and snapshot reads both route by it, at the
  /// coordinator and at the participant, so both sides agree.
  [[nodiscard]] SiteId rows_source(const std::string& name,
                                   SiteId coordinator) const noexcept;

  [[nodiscard]] bool has_document(const std::string& name) const;
  [[nodiscard]] bool hosts(SiteId site, const std::string& name) const;
  [[nodiscard]] bool is_member(SiteId site) const;

  /// All registered document names, sorted (map order).
  [[nodiscard]] std::vector<std::string> documents() const;

  /// Documents hosted by one site, sorted.
  [[nodiscard]] std::vector<std::string> documents_at(SiteId site) const;

  /// Line-based text form — the wire payload of `CatalogUpdate` and the
  /// durable `~catalog` record. Round-trips through `parse`.
  [[nodiscard]] std::string to_text() const;
  static util::Result<CatalogEpoch> parse(const std::string& text);
};

/// The next epoch after a membership change: epoch+1, `members` replaces the
/// old member list, every document reassigned under `policy`/`replication`
/// (document index = rank of its sorted name, so assignment is stable).
/// Addresses carry over for surviving members; `addresses` adds/overrides
/// entries for new ones.
CatalogEpoch rebalance(const CatalogEpoch& current,
                       std::vector<SiteId> members,
                       const std::map<SiteId, std::string>& addresses,
                       PlacementPolicy policy, std::size_t replication);

/// Replica movement between two epochs, the migration work list.
struct MigrationPlan {
  struct Move {
    std::string doc;
    std::vector<SiteId> sources;  ///< hosts in `from` (ship from any)
    std::vector<SiteId> gains;    ///< hosts in `to` but not in `from`
    std::vector<SiteId> drops;    ///< hosts in `from` but not in `to`
  };
  std::vector<Move> moves;  ///< only documents whose hosting set changed
};

MigrationPlan plan_migration(const CatalogEpoch& from, const CatalogEpoch& to);

}  // namespace dtx::placement
