// The site-local lock table. Targets are opaque (scope, node) pairs:
//  * XDGL        -> (document id, DataGuide node id)
//  * Node2PL     -> (document id, instance node id)
//  * DocLock2PL  -> (document id, 0)
//
// Acquisition is immediate-or-conflict: DTX never queues a request inside
// the table — a conflicting operation is undone and its transaction enters
// wait mode (Alg. 1 l. 9 / l. 17), to be retried after the blockers release.
//
// Concurrency: the table is split into `shard_count` independently-locked
// shards keyed by NodeKeyHash. Single-target calls touch one shard mutex;
// batch calls (try_acquire_all / rollback) lock every involved shard in
// ascending index order, so concurrent cross-shard batches stay
// all-or-nothing without self-deadlock. Counters are kept per shard and
// aggregated on read — a LockTable is safe to call from any number of
// threads. The default of one shard reproduces the historical
// single-monitor behavior exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "lock/lock_modes.hpp"
#include "util/sync.hpp"

namespace dtx::lock {

/// Transaction identifier. Globally unique across sites (the DTX runtime
/// packs the coordinator site id into the high bits).
using TxnId = std::uint64_t;

/// Value condition of a logical lock. XDGL locks DataGuide nodes, which
/// summarize *every* instance with a label path — so a lock may carry a
/// value annotation restricting it to instances matching an equality
/// predicate (e.g. person[@id='4']). Two locks on the same guide node whose
/// conditions name different values cannot touch the same instance and are
/// therefore compatible even when their modes conflict. 0 means
/// unconditioned ("any instance"), which conflicts by mode alone.
using ValueCondition = std::uint64_t;
inline constexpr ValueCondition kAnyValue = 0;

/// Hashes a predicate literal into a condition (never returns kAnyValue;
/// a hash collision merely merges two conditions — a safe over-conflict).
ValueCondition value_condition_of(std::string_view literal) noexcept;

struct LockTarget {
  std::uint64_t scope = 0;  ///< site-local document id
  std::uint64_t node = 0;   ///< guide / instance node id (0 = whole scope)
  ValueCondition value = kAnyValue;

  bool operator==(const LockTarget&) const = default;
};

/// Conflicts are detected per (scope, node); the value takes part only in
/// the compatibility rule above.
struct NodeKey {
  std::uint64_t scope = 0;
  std::uint64_t node = 0;
  bool operator==(const NodeKey&) const = default;
};

struct NodeKeyHash {
  std::size_t operator()(const NodeKey& key) const noexcept {
    // splitmix-style mix of the two words.
    std::uint64_t x = key.scope * 0x9e3779b97f4a7c15ULL + key.node;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

struct LockRequest {
  LockTarget target;
  LockMode mode = LockMode::kIS;
};

/// Outcome of a single-target acquisition attempt.
struct AcquireOutcome {
  bool granted = false;
  /// Transactions whose held locks block the request (empty when granted).
  std::vector<TxnId> conflicts;
};

/// Record of what a successful batch acquisition changed. DTX keeps one per
/// (transaction, operation) so when an operation fails to lock at a
/// *different* site, the operations from it on release exactly the locks
/// they took here (Alg. 1 l. 16: LockManager::undo_from) without touching
/// locks earlier operations of the same transaction still hold under
/// Strict 2PL.
struct AcquisitionJournal {
  struct Item {
    LockTarget target;
    bool new_entry = false;  ///< false = mode upgrade of an existing entry
    ModeMask old_mask = 0;   ///< prior mask for upgrades
  };
  std::vector<Item> items;

  [[nodiscard]] bool empty() const noexcept { return items.empty(); }
};

class LockTable {
 public:
  /// `shard_count` independently-locked shards; 0 is clamped to 1.
  explicit LockTable(std::size_t shard_count = 1);
  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// Attempts to acquire one lock. Same-transaction re-requests are granted
  /// (and skipped entirely when an already-held mode covers the request).
  AcquireOutcome try_acquire(TxnId txn, const LockRequest& request);

  /// Attempts a batch all-or-nothing: on the first conflict every lock newly
  /// acquired by this call is released and the conflict set is returned.
  /// On success, `journal` (when non-null) records the changes so rollback()
  /// can revert this batch alone later. Every shard the batch touches is
  /// held for the duration, so concurrent batches observe it atomically.
  AcquireOutcome try_acquire_all(TxnId txn,
                                 const std::vector<LockRequest>& requests,
                                 AcquisitionJournal* journal = nullptr);

  /// Reverts a previously successful batch (newest item first).
  void rollback(TxnId txn, const AcquisitionJournal& journal);

  /// Releases everything the transaction holds (commit / abort — Strict
  /// 2PL releases only at transaction end). Shards are drained one at a
  /// time; under Strict 2PL a monotone release needs no cross-shard atomicity.
  void release_all(TxnId txn);

  /// True when the transaction holds `mode` (or a covering mode) on exactly
  /// this target (scope, node and value condition).
  [[nodiscard]] bool holds(TxnId txn, const LockTarget& target,
                           LockMode mode) const;

  /// All transactions currently holding any lock.
  [[nodiscard]] std::vector<TxnId> holders() const;

  /// Number of (transaction, target) lock entries currently held
  /// (aggregated over shards).
  [[nodiscard]] std::size_t entry_count() const;

  /// Total successful acquisitions since construction — the "lock
  /// management overhead" counter reported by the benches.
  [[nodiscard]] std::uint64_t acquisition_count() const;
  /// Total conflicted (denied) acquisition attempts since construction.
  [[nodiscard]] std::uint64_t conflict_count() const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Shard a target's conflict state lives in (tests / diagnostics).
  [[nodiscard]] std::size_t shard_of(const LockTarget& target) const noexcept {
    return shard_index(NodeKey{target.scope, target.node});
  }

  /// Per-shard counter snapshot (load-balance diagnostics).
  struct ShardStats {
    std::size_t entries = 0;
    std::uint64_t acquisitions = 0;
    std::uint64_t conflicts = 0;
  };
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;

  /// Diagnostic dump ("doc 1 guide 56: t3=ST t7=IX").
  [[nodiscard]] std::string dump() const;

 private:
  struct Holder {
    TxnId txn = 0;
    ValueCondition value = kAnyValue;
    ModeMask mask = 0;
  };
  struct TargetState {
    // Few holders per target in practice; linear scan beats a map.
    std::vector<Holder> holders;
  };
  struct Shard {
    /// Multi-acquire: batch calls hold several shard mutexes at once, all
    /// at the same rank, ordered by ascending shard index (lock_shards).
    mutable sync::Mutex mutex{sync::LockRank::kLockTableShard,
                              sync::kMultiAcquire};
    std::unordered_map<NodeKey, TargetState, NodeKeyHash> targets
        DTX_GUARDED_BY(mutex);
    std::unordered_map<TxnId, std::vector<LockTarget>> by_txn
        DTX_GUARDED_BY(mutex);
    std::size_t entry_count DTX_GUARDED_BY(mutex) = 0;
    std::uint64_t acquisitions DTX_GUARDED_BY(mutex) = 0;
    std::uint64_t conflict_attempts DTX_GUARDED_BY(mutex) = 0;
  };

  /// What a successful acquisition changed, for batch unwinding.
  enum class Change { kNone, kNewEntry, kUpgrade };

  [[nodiscard]] std::size_t shard_index(const NodeKey& key) const noexcept {
    return NodeKeyHash{}(key) % shards_.size();
  }

  /// Core acquisition against one shard; the caller holds its mutex.
  AcquireOutcome acquire_in(Shard& shard, TxnId txn,
                            const LockRequest& request, Change& change,
                            ModeMask& old_mask) DTX_REQUIRES(shard.mutex);

  /// Reverts journal items; the caller holds every involved shard's mutex.
  /// The hold set is data-dependent, so it is re-established per item with
  /// AssertHeld rather than a REQUIRES clause.
  void rollback_locked(TxnId txn, const AcquisitionJournal& journal);

  /// Locks the given shard indices (duplicates fine) in ascending order —
  /// the one shard-ordering rule every cross-shard batch goes through.
  /// The guards travel through the returned vector, which the static
  /// analysis cannot follow; callers AssertHeld per shard they touch.
  [[nodiscard]] std::vector<sync::MovableMutexLock> lock_shards(
      std::vector<std::size_t> involved) const;

  // Shards are heap-allocated so the table stays movable-free but the
  // mutexes have stable addresses.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dtx::lock
