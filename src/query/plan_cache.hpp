// Site-wide cache of compiled operation plans: a sharded LRU keyed by the
// operation's canonical text, shared across transactions and workers. The
// participant and the coordinator's local-execution path both resolve
// operations here, so a hot operation is compiled once per site and every
// re-execution — wait-mode retries, deadlock-retry resubmissions, repeated
// workload queries — runs the cached plan without touching the XPath lexer
// or parser again.
//
// Capacity 0 disables caching entirely (every resolve compiles a private
// plan); the abl_plan_cache bench uses that as the parse-per-execute
// baseline. Each shard is an independently-locked LRU list; compilation
// happens outside the shard lock, so two workers missing different keys of
// the same shard never serialize their parses (a racing double-compile of
// the same key is benign: the loser adopts the winner's entry).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "query/plan.hpp"
#include "util/sync.hpp"

namespace dtx::query {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;  ///< plans resident right now

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }

  /// Accumulates another cache's counters (cluster-level aggregation).
  void merge(const PlanCacheStats& other) noexcept {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    entries += other.entries;
  }
};

class PlanCache {
 public:
  /// The shard count every site's plan cache uses.
  static constexpr std::size_t kDefaultShards = 8;

  /// `capacity` sizes the cache (0 = caching off); `shards`
  /// independently-locked LRU segments (clamped to capacity). The bound is
  /// enforced per shard at ceil(capacity / shards), so a skewed key
  /// distribution may hold up to shards-1 plans above `capacity` in total
  /// while a hot shard evicts earlier — the usual sharded-LRU tradeoff for
  /// not taking a global lock.
  explicit PlanCache(std::size_t capacity,
                     std::size_t shards = kDefaultShards);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Resolves an already-parsed operation, keyed by its canonical text.
  /// Never re-parses: a miss compiles straight from the typed form.
  util::Result<PlanPtr> resolve(const txn::Operation& op);

  /// Resolves a textual operation, keyed by the (trimmed) text itself. A
  /// hit skips the parse entirely; a miss parses + compiles once.
  util::Result<PlanPtr> resolve_text(std::string_view text);

  /// Aggregated counters over all shards.
  [[nodiscard]] PlanCacheStats stats() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Drops every cached plan (counters are kept).
  void clear();

 private:
  struct Shard {
    mutable sync::Mutex mutex{sync::LockRank::kPlanCacheShard};
    /// Front = most recently used. The map indexes list entries by key.
    std::list<std::pair<std::string, PlanPtr>> lru DTX_GUARDED_BY(mutex);
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, PlanPtr>>::iterator>
        index DTX_GUARDED_BY(mutex);
    std::uint64_t hits DTX_GUARDED_BY(mutex) = 0;
    std::uint64_t misses DTX_GUARDED_BY(mutex) = 0;
    std::uint64_t evictions DTX_GUARDED_BY(mutex) = 0;
  };

  template <typename CompileFn>
  util::Result<PlanPtr> resolve_key(std::string key, CompileFn&& compile_fn);

  Shard& shard_of(const std::string& key);

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dtx::query
