#include "server/broadcast_index_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.h"

namespace cloudjoin::server {

BroadcastIndexCache::BroadcastIndexCache(const Options& options)
    : options_(options),
      shard_capacity_(options.capacity_bytes /
                      std::max(1, options.num_shards)) {
  CLOUDJOIN_CHECK(options_.capacity_bytes >= 0);
  const int num_shards = std::max(1, options_.num_shards);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BroadcastIndexCache::Shard& BroadcastIndexCache::ShardFor(
    const std::string& key) {
  const size_t hash = std::hash<std::string>()(key);
  return *shards_[hash % shards_.size()];
}

std::shared_ptr<const void> BroadcastIndexCache::Lookup(
    const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

bool BroadcastIndexCache::Insert(const std::string& key,
                                 const std::string& table, int64_t bytes,
                                 std::shared_ptr<const void> value) {
  CLOUDJOIN_CHECK(bytes >= 0);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (bytes > shard_capacity_) {
    ++shard.stats.rejected_oversize;
    return false;
  }
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Replace in place: same key, possibly new bytes/value.
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.stats.evictions;
  }
  // Evict from the cold end until the new entry fits.
  while (shard.bytes + bytes > shard_capacity_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
  shard.lru.push_front(Entry{key, table, bytes, std::move(value)});
  shard.index[key] = shard.lru.begin();
  shard.bytes += bytes;
  shard.peak_bytes = std::max(shard.peak_bytes, shard.bytes);
  ++shard.stats.insertions;
  return true;
}

int64_t BroadcastIndexCache::InvalidateTable(const std::string& table) {
  int64_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->table == table) {
        shard.bytes -= it->bytes;
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
        ++shard.stats.invalidations;
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

void BroadcastIndexCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats.invalidations += static_cast<int64_t>(shard.lru.size());
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

BroadcastIndexCache::BuildLock::BuildLock(BroadcastIndexCache* cache,
                                          const std::string& key)
    : cache_(cache), key_(key) {
  {
    std::lock_guard<std::mutex> guard(cache_->build_locks_mu_);
    lock_ = &cache_->build_locks_[key_];
    ++lock_->users;
  }
  lock_->mu.lock();
}

BroadcastIndexCache::BuildLock::~BuildLock() {
  lock_->mu.unlock();
  std::lock_guard<std::mutex> guard(cache_->build_locks_mu_);
  if (--lock_->users == 0) cache_->build_locks_.erase(key_);
}

int64_t BroadcastIndexCache::NumBuildLocks() const {
  std::lock_guard<std::mutex> guard(build_locks_mu_);
  return static_cast<int64_t>(build_locks_.size());
}

BroadcastIndexCache::Stats BroadcastIndexCache::GetStats() const {
  Stats total;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.insertions += shard.stats.insertions;
    total.evictions += shard.stats.evictions;
    total.invalidations += shard.stats.invalidations;
    total.rejected_oversize += shard.stats.rejected_oversize;
    total.bytes += shard.bytes;
    total.peak_bytes += shard.peak_bytes;
    total.entries += static_cast<int64_t>(shard.lru.size());
  }
  return total;
}

}  // namespace cloudjoin::server
