#include "server/broadcast_index_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "exec/built_right.h"

namespace cloudjoin::server {
namespace {

std::shared_ptr<const void> Payload(int id) {
  return std::make_shared<int>(id);
}

TEST(BroadcastIndexCacheTest, LookupMissThenHit) {
  BroadcastIndexCache cache({/*capacity_bytes=*/1024, /*num_shards=*/1});
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_TRUE(cache.Insert("a", "t", 100, Payload(1)));
  auto hit = cache.LookupAs<int>("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);

  BroadcastIndexCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, 100);
}

TEST(BroadcastIndexCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard so LRU order is global: capacity holds three 100-byte
  // entries; touching `a` makes `b` the coldest, so inserting `d` must
  // evict `b` (and only `b`).
  BroadcastIndexCache cache({/*capacity_bytes=*/300, /*num_shards=*/1});
  ASSERT_TRUE(cache.Insert("a", "t", 100, Payload(1)));
  ASSERT_TRUE(cache.Insert("b", "t", 100, Payload(2)));
  ASSERT_TRUE(cache.Insert("c", "t", 100, Payload(3)));
  ASSERT_NE(cache.Lookup("a"), nullptr);
  ASSERT_TRUE(cache.Insert("d", "t", 100, Payload(4)));

  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 1);
  EXPECT_EQ(cache.GetStats().bytes, 300);
}

TEST(BroadcastIndexCacheTest, ReplacingKeyUpdatesBytes) {
  BroadcastIndexCache cache({/*capacity_bytes=*/1000, /*num_shards=*/1});
  ASSERT_TRUE(cache.Insert("a", "t", 100, Payload(1)));
  ASSERT_TRUE(cache.Insert("a", "t", 250, Payload(2)));
  BroadcastIndexCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, 250);
  auto hit = cache.LookupAs<int>("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 2);
}

TEST(BroadcastIndexCacheTest, RejectsOversizeValue) {
  BroadcastIndexCache cache({/*capacity_bytes=*/400, /*num_shards=*/4});
  // Per-shard budget is 100 bytes; a 150-byte value can never fit.
  EXPECT_FALSE(cache.Insert("big", "t", 150, Payload(1)));
  BroadcastIndexCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.rejected_oversize, 1);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
}

TEST(BroadcastIndexCacheTest, InvalidateTableDropsOnlyThatTable) {
  BroadcastIndexCache cache({/*capacity_bytes=*/4096, /*num_shards=*/2});
  ASSERT_TRUE(cache.Insert("k1", "nycb", 10, Payload(1)));
  ASSERT_TRUE(cache.Insert("k2", "nycb", 10, Payload(2)));
  ASSERT_TRUE(cache.Insert("k3", "lion", 10, Payload(3)));

  EXPECT_EQ(cache.InvalidateTable("nycb"), 2);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.Lookup("k2"), nullptr);
  EXPECT_NE(cache.Lookup("k3"), nullptr);
  BroadcastIndexCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.invalidations, 2);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, 10);
}

TEST(BroadcastIndexCacheTest, ClearEmptiesEverything) {
  BroadcastIndexCache cache({/*capacity_bytes=*/4096, /*num_shards=*/4});
  for (int i = 0; i < 16; ++i) {
    const std::string index = std::to_string(i);
    ASSERT_TRUE(cache.Insert("k" + index, "t", 8, Payload(i)));
  }
  cache.Clear();
  BroadcastIndexCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.invalidations, 16);
}

/// A GetOrBuild builder returning the given artifact, counting calls.
std::function<Result<std::shared_ptr<const exec::BuiltRight>>()> Builder(
    std::shared_ptr<const exec::BuiltRight> built, std::atomic<int>* builds) {
  return [built, builds]() {
    ++*builds;
    return Result<std::shared_ptr<const exec::BuiltRight>>(built);
  };
}

TEST(BroadcastIndexCacheTest, GetOrBuildCachesAndSingleFlightsConcurrentBuilds) {
  BroadcastIndexCache cache({/*capacity_bytes=*/1 << 20, /*num_shards=*/1});
  auto built = std::make_shared<const exec::BuiltRight>();
  std::atomic<int> builds{0};
  const auto builder = Builder(built, &builds);

  // Many threads race the same key: the key's build lock plus the
  // re-lookup under it must collapse them into a single build.
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&]() {
      bool hit = false;
      auto result =
          cache.GetOrBuild<exec::BuiltRight>("k", "t", builder, &hit);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result.value().get(), built.get());
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);

  bool hit = false;
  ASSERT_TRUE(cache.GetOrBuild<exec::BuiltRight>("k", "t", builder, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds.load(), 1);

  // Invalidation reaps by table: the next resolve rebuilds.
  EXPECT_EQ(cache.InvalidateTable("t"), 1);
  ASSERT_TRUE(cache.GetOrBuild<exec::BuiltRight>("k", "t", builder, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds.load(), 2);
}

TEST(BroadcastIndexCacheTest, GetOrBuildDropsEachKeysBuildLock) {
  // Every re-registration of a table mints a new generation-fenced key;
  // the build lock of each key must go once its build is done, or the
  // service keeps one per key for its whole life.
  BroadcastIndexCache cache({/*capacity_bytes=*/1 << 20, /*num_shards=*/2});
  auto built = std::make_shared<const exec::BuiltRight>();
  std::atomic<int> builds{0};
  const auto builder = Builder(built, &builds);
  for (int gen = 0; gen < 100; ++gen) {
    bool hit = true;
    ASSERT_TRUE(cache
                    .GetOrBuild<exec::BuiltRight>(
                        "stream|t|gen=" + std::to_string(gen), "t", builder,
                        &hit)
                    .ok());
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(builds.load(), 100);
  EXPECT_EQ(cache.NumBuildLocks(), 0);

  // A failed build caches nothing and releases its lock too.
  bool hit = true;
  auto failed = cache.GetOrBuild<exec::BuiltRight>(
      "bad", "t",
      []() -> Result<std::shared_ptr<const exec::BuiltRight>> {
        return Status::NotFound("gone");
      },
      &hit);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(cache.Lookup("bad"), nullptr);
  EXPECT_EQ(cache.NumBuildLocks(), 0);
}

/// InvalidateTable landing in the middle of a single-flight build: the
/// builder is gated on a promise (no sleeps — every ordering below is
/// forced, in the spirit of the fake-clock admission tests), the
/// invalidation runs while the build is provably in flight, and the build
/// then completes and inserts. The stale artifact may linger under its
/// OLD generation-fenced key — that is the documented benign race — but a
/// caller keyed on the table's new generation never serves it, and a
/// second invalidation reaps it.
TEST(BroadcastIndexCacheTest, InvalidateTableRacingSingleFlightBuild) {
  BroadcastIndexCache cache({/*capacity_bytes=*/1 << 20, /*num_shards=*/1});

  auto stale = std::make_shared<const exec::BuiltRight>();
  auto fresh = std::make_shared<const exec::BuiltRight>();
  std::promise<void> build_started;
  std::promise<void> release_build;
  std::shared_future<void> release = release_build.get_future().share();
  std::atomic<int> builds{0};

  // Generation-fenced keys, as ContinuousQueryRegistry::ResolveRight
  // derives them from Catalog::TableGeneration.
  const std::string old_key = "stream|t|gen=1|within";
  const std::string new_key = "stream|t|gen=2|within";

  std::thread racer([&]() {
    bool hit = true;
    auto result = cache.GetOrBuild<exec::BuiltRight>(
        old_key, "t",
        [&]() {
          ++builds;
          build_started.set_value();
          release.wait();  // hold the build open while we invalidate
          return Result<std::shared_ptr<const exec::BuiltRight>>(stale);
        },
        &hit);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(hit);
    EXPECT_EQ(result.value().get(), stale.get());
  });

  build_started.get_future().wait();
  // The table is dropped/replaced while the old build is mid-flight;
  // nothing is resident yet, so there is nothing to reap.
  EXPECT_EQ(cache.InvalidateTable("t"), 0);
  release_build.set_value();
  racer.join();

  // The straggler insert landed under the old-generation key: present,
  // but unreachable by any caller using the post-invalidation key.
  EXPECT_NE(cache.Lookup(old_key), nullptr);

  bool hit = true;
  auto rebuilt = cache.GetOrBuild<exec::BuiltRight>(
      new_key, "t",
      [&]() {
        ++builds;
        return Result<std::shared_ptr<const exec::BuiltRight>>(fresh);
      },
      &hit);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(hit);  // new generation never sees the stale artifact
  EXPECT_EQ(rebuilt.value().get(), fresh.get());
  EXPECT_EQ(builds.load(), 2);

  // The next invalidation reaps both generations' entries.
  EXPECT_EQ(cache.InvalidateTable("t"), 2);
  EXPECT_EQ(cache.Lookup(old_key), nullptr);
  EXPECT_EQ(cache.Lookup(new_key), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 0);
}

/// 8 threads hammer a shared cache with a hot set (mostly hits) and a
/// cold tail (misses + inserts + evictions). The budget must hold at
/// every instant any thread observes, and the counters must reconcile.
TEST(BroadcastIndexCacheTest, ConcurrentStressHoldsBudgetAndReconciles) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int64_t kCapacity = 64 * 1024;
  BroadcastIndexCache cache({kCapacity, /*num_shards=*/4});

  std::atomic<int64_t> lookups{0};
  std::atomic<bool> budget_violated{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &lookups, &budget_violated, t] {
      std::mt19937 rng(static_cast<uint32_t>(17 + t));
      std::uniform_int_distribution<int> hot_or_cold(0, 9);
      std::uniform_int_distribution<int> hot_key(0, 3);
      std::uniform_int_distribution<int> cold_key(0, 499);
      std::uniform_int_distribution<int> size(64, 2048);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const bool hot = hot_or_cold(rng) < 8;
        const std::string key =
            hot ? "hot" + std::to_string(hot_key(rng))
                : "cold" + std::to_string(cold_key(rng));
        lookups.fetch_add(1);
        if (cache.Lookup(key) == nullptr) {
          cache.Insert(key, hot ? "hot_table" : "cold_table", size(rng),
                       Payload(i));
        }
        if (cache.GetStats().bytes > kCapacity) budget_violated.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(budget_violated.load());
  BroadcastIndexCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, kCapacity);
  EXPECT_LE(stats.bytes, stats.peak_bytes);
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_EQ(stats.insertions - stats.evictions - stats.invalidations,
            stats.entries);
  // The hot set is tiny and touched 80% of the time: most lookups hit.
  EXPECT_GT(stats.hits, stats.misses);
}

}  // namespace
}  // namespace cloudjoin::server
