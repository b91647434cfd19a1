#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cloudjoin {

std::string FormatDuration(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  }
  return buf;
}

int LatencyHistogram::BucketFor(double seconds) {
  if (seconds <= kMinSeconds) return 0;
  int bucket = static_cast<int>(
                   std::ceil(std::log(seconds / kMinSeconds) /
                             std::log(kGrowth))) ;
  return std::min(bucket, kNumBuckets - 1);
}

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  if (data_.count == 0 || seconds < data_.min_seconds) {
    data_.min_seconds = seconds;
  }
  if (seconds > data_.max_seconds) data_.max_seconds = seconds;
  ++data_.count;
  data_.sum_seconds += seconds;
  ++data_.buckets[static_cast<size_t>(BucketFor(seconds))];
}

void LatencyHistogram::MergeLocked(const Snapshot& theirs) {
  if (theirs.count != 0) {
    if (data_.count == 0 || theirs.min_seconds < data_.min_seconds) {
      data_.min_seconds = theirs.min_seconds;
    }
    data_.max_seconds = std::max(data_.max_seconds, theirs.max_seconds);
  }
  data_.count += theirs.count;
  data_.sum_seconds += theirs.sum_seconds;
  for (int i = 0; i < kNumBuckets; ++i) data_.buckets[i] += theirs.buckets[i];
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  Snapshot theirs = other.TakeSnapshot();
  std::lock_guard<std::mutex> lock(mu_);
  MergeLocked(theirs);
}

void LatencyHistogram::Merge(const Snapshot& other) {
  std::lock_guard<std::mutex> lock(mu_);
  MergeLocked(other);
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

double LatencyHistogram::Snapshot::PercentileSeconds(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the quantile sample, 1-based (nearest-rank definition).
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count))));
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= rank) {
      // Interpolate inside bucket i between its lower and upper bound by
      // the quantile sample's rank within the bucket (midpoint-rank
      // convention). Reporting the bucket's upper bound instead would
      // overstate tight distributions by up to a full kGrowth factor.
      const double upper = kMinSeconds * std::pow(kGrowth, i);
      const double lower = i == 0 ? 0.0 : kMinSeconds * std::pow(kGrowth, i - 1);
      const double in_bucket_rank =
          (static_cast<double>(rank - seen) - 0.5) /
          static_cast<double>(buckets[i]);
      const double estimate = lower + in_bucket_rank * (upper - lower);
      return std::clamp(estimate, min_seconds, max_seconds);
    }
    seen += buckets[i];
  }
  return max_seconds;
}

std::string LatencyHistogram::Snapshot::ToString() const {
  std::string out = "n=" + std::to_string(count);
  if (count == 0) return out;
  out += " mean=" + FormatDuration(MeanSeconds());
  out += " p50=" + FormatDuration(PercentileSeconds(0.50));
  out += " p95=" + FormatDuration(PercentileSeconds(0.95));
  out += " p99=" + FormatDuration(PercentileSeconds(0.99));
  out += " max=" + FormatDuration(max_seconds);
  return out;
}

}  // namespace cloudjoin
