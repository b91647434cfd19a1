#include "server/broadcast_index_cache.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace cloudjoin::server {

BroadcastIndexCache::BroadcastIndexCache(const Options& options)
    : options_(options) {
  CLOUDJOIN_CHECK(options_.capacity_bytes >= 0);
}

std::shared_ptr<const void> BroadcastIndexCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

bool BroadcastIndexCache::Insert(const std::string& key,
                                 const std::string& table, int64_t bytes,
                                 std::shared_ptr<const void> value) {
  CLOUDJOIN_CHECK(bytes >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes > options_.capacity_bytes) {
    ++stats_.rejected_oversize;
    return false;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Replace in place: same key, possibly new bytes/value.
    stats_.bytes -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.evictions;
  }
  // Evict from the cold end until the new entry fits.
  while (stats_.bytes + bytes > options_.capacity_bytes && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{key, table, bytes, std::move(value)});
  index_[key] = lru_.begin();
  stats_.bytes += bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes);
  ++stats_.insertions;
  return true;
}

int64_t BroadcastIndexCache::InvalidateTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->table == table) {
      stats_.bytes -= it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  return dropped;
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
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.entries = static_cast<int64_t>(lru_.size());
  return stats;
}

}  // namespace cloudjoin::server
