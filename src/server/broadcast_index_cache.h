#ifndef CLOUDJOIN_SERVER_BROADCAST_INDEX_CACHE_H_
#define CLOUDJOIN_SERVER_BROADCAST_INDEX_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace cloudjoin::server {

/// Memory-budgeted, sharded LRU cache of built broadcast structures —
/// the serving-layer optimization the paper's one-shot runs cannot
/// express: a right-side R-tree (plus parsed/prepared geometry) built for
/// one query is retained and handed to later queries with the same build
/// fingerprint, so only the first query of a working set pays the build.
///
/// Entries are type-erased (`shared_ptr<const void>`); the key namespace
/// prefix ("sql|" for the SQL engine's `impala::BroadcastRight`,
/// "stream|" for a continuous query's `exec::BuiltRight`) determines the
/// concrete type, and `LookupAs<T>` casts back. Keys from
/// `BroadcastFingerprint::Key()` et al. are injective over everything that
/// affects the built bytes, so a hit is always safe to reuse.
///
/// Each shard owns 1/num_shards of the byte budget and enforces it
/// independently under its own mutex, so the total resident size never
/// exceeds `capacity_bytes` at any instant and shards never contend.
class BroadcastIndexCache {
 public:
  struct Options {
    /// Total byte budget across all shards (the broadcast-memory ceiling
    /// the service is willing to spend on retained indexes).
    int64_t capacity_bytes = 256LL << 20;
    /// Number of independently locked shards (rounded up to at least 1).
    int num_shards = 8;
  };

  /// Aggregated over all shards. Monotonic counters except `bytes` /
  /// `entries` (gauges). `hits + misses` equals the number of Lookup
  /// calls; `insertions - evictions - invalidations` equals `entries`.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    int64_t invalidations = 0;
    /// Inserts refused because the value alone exceeds a shard's budget.
    int64_t rejected_oversize = 0;
    int64_t bytes = 0;
    /// Sum of per-shard peaks — an upper bound on the instantaneous
    /// global peak (shards peak at different times).
    int64_t peak_bytes = 0;
    int64_t entries = 0;

    double HitRatio() const {
      const int64_t lookups = hits + misses;
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  explicit BroadcastIndexCache(const Options& options);

  /// Returns the cached value for `key` (promoting it to most-recently
  /// used) or nullptr. Counts one hit or one miss.
  std::shared_ptr<const void> Lookup(const std::string& key);

  /// Typed convenience wrapper; `T` must match the key's namespace.
  template <typename T>
  std::shared_ptr<const T> LookupAs(const std::string& key) {
    return std::static_pointer_cast<const T>(Lookup(key));
  }

  /// Single-flight resolution of `key`: returns the cached value (`*hit`
  /// true), or runs `build` — once per key across concurrent callers —
  /// and inserts its value linked to `table`, charged at its
  /// MemoryBytes() (`*hit` false). A caller that waited for another's
  /// build finds the inserted value and reports a hit. Each call counts
  /// one Lookup, plus a second one after taking the key's build lock on
  /// a miss. The build lock lives only while some caller holds or awaits
  /// it. `T` must match the key's namespace; `build()` returns
  /// `Result<std::shared_ptr<const T>>`, and an error is returned as is,
  /// caching nothing.
  template <typename T, typename Build>
  Result<std::shared_ptr<const T>> GetOrBuild(const std::string& key,
                                              const std::string& table,
                                              const Build& build, bool* hit) {
    if (auto cached = LookupAs<T>(key)) {
      *hit = true;
      return cached;
    }
    const BuildLock lock(this, key);
    if (auto cached = LookupAs<T>(key)) {
      *hit = true;
      return cached;
    }
    std::shared_ptr<const T> built;
    CLOUDJOIN_ASSIGN_OR_RETURN(built, build());
    Insert(key, table, built->MemoryBytes(), built);
    *hit = false;
    return built;
  }

  /// Keys whose build lock some GetOrBuild caller holds or awaits.
  int64_t NumBuildLocks() const;

  /// Inserts (or replaces) `key` with a value of `bytes` resident size,
  /// evicting least-recently-used entries of the same shard as needed.
  /// Returns false — and caches nothing — when `bytes` alone exceeds the
  /// shard budget. `table` links the entry to a catalog table for
  /// `InvalidateTable`; pass "" for entries with no table.
  bool Insert(const std::string& key, const std::string& table, int64_t bytes,
              std::shared_ptr<const void> value);

  /// Drops every entry built from `table` (call on re-registration).
  /// Returns the number of entries dropped.
  int64_t InvalidateTable(const std::string& table);

  /// Drops everything (counted as invalidations).
  void Clear();

  Stats GetStats() const;

  const Options& options() const { return options_; }

  /// Byte budget each shard enforces.
  int64_t shard_capacity_bytes() const { return shard_capacity_; }

 private:
  struct Entry {
    std::string key;
    std::string table;
    int64_t bytes = 0;
    std::shared_ptr<const void> value;
  };

  /// One LRU domain: `lru` front = most recent; map points into the list.
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    int64_t bytes = 0;
    int64_t peak_bytes = 0;
    Stats stats;  // per-shard slice; aggregated by GetStats()
  };

  /// One key's build lock: misses on the key serialize on `mu`; `users`
  /// counts the callers holding or awaiting it, and the last one out
  /// erases the entry.
  struct KeyLock {
    std::mutex mu;
    int users = 0;
  };

  /// Holds `key`'s build lock for its lifetime.
  class BuildLock {
   public:
    BuildLock(BroadcastIndexCache* cache, const std::string& key);
    ~BuildLock();
    BuildLock(const BuildLock&) = delete;
    BuildLock& operator=(const BuildLock&) = delete;

   private:
    BroadcastIndexCache* cache_;
    std::string key_;
    KeyLock* lock_;
  };

  Shard& ShardFor(const std::string& key);

  const Options options_;
  const int64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex build_locks_mu_;
  std::unordered_map<std::string, KeyLock> build_locks_;
};

}  // namespace cloudjoin::server

#endif  // CLOUDJOIN_SERVER_BROADCAST_INDEX_CACHE_H_
