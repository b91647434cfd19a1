#ifndef CLOUDJOIN_COMMON_HISTOGRAM_H_
#define CLOUDJOIN_COMMON_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

namespace cloudjoin {

/// Thread-safe log-bucketed latency accumulator for the serving tier.
///
/// Samples are seconds; buckets grow geometrically from 1 microsecond to
/// beyond 1 hour, so any query latency this codebase can produce lands in
/// a bucket with < 20 % relative resolution. Percentile estimates
/// rank-interpolate between the containing bucket's lower and upper bound
/// (deterministic for tests, and free of the systematic upper-bound bias).
/// `Counters` stays the home of additive event counts; this type is the
/// companion for duration distributions.
class LatencyHistogram {
 public:
  /// Bucket i covers (kMinSeconds * kGrowth^(i-1), kMinSeconds * kGrowth^i].
  static constexpr int kNumBuckets = 128;
  static constexpr double kMinSeconds = 1e-6;
  static constexpr double kGrowth = 1.2;

  /// A consistent point-in-time copy of the distribution.
  struct Snapshot {
    int64_t count = 0;
    double sum_seconds = 0.0;
    double min_seconds = 0.0;
    double max_seconds = 0.0;
    std::array<int64_t, kNumBuckets> buckets{};

    double MeanSeconds() const {
      return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
    }
    /// Rank-interpolated estimate within the bucket holding the
    /// `q`-quantile sample (q in [0, 1]), clamped to the observed
    /// [min_seconds, max_seconds]; 0 when empty.
    double PercentileSeconds(double q) const;
    /// "n=12 mean=1.2ms p50=0.9ms p95=3.1ms p99=3.1ms max=3.0ms".
    std::string ToString() const;
  };

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample. Negative samples clamp to zero (clock skew guard).
  void Record(double seconds);

  void MergeFrom(const LatencyHistogram& other);

  /// Adds a previously taken snapshot into this accumulator — the
  /// per-window → stream-lifetime rollup. Bucket counts add elementwise
  /// (both sides use the fixed compile-time bucket layout), min/max widen.
  void Merge(const Snapshot& other);

  Snapshot TakeSnapshot() const;

 private:
  /// Bucket index for `seconds` (monotone in its argument).
  static int BucketFor(double seconds);

  /// Merge body shared by MergeFrom/Merge; caller holds mu_.
  void MergeLocked(const Snapshot& theirs);

  mutable std::mutex mu_;
  Snapshot data_;
};

/// Renders a duration with an auto-picked unit ("741us", "12.3ms", "4.1s").
std::string FormatDuration(double seconds);

}  // namespace cloudjoin

#endif  // CLOUDJOIN_COMMON_HISTOGRAM_H_
