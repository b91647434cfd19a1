#ifndef CLOUDJOIN_PERFBENCH_BENCH_H_
#define CLOUDJOIN_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cloudjoin::perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  /// Seeds every generated input; the program only ever sees the result.
  uint64_t seed = 2015;
  double seconds = 30.0;
  /// When set, the run also replays the workload with spans recorded and
  /// reports the per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Directory the traced run writes its spans to (empty: not written).
  std::string trace_dir;
  /// The span file of the workload being run, inside trace_dir.
  std::string trace_out;

  /// Length of each timed phase: a traced run splits --seconds between
  /// an untraced and a traced phase, so it lasts as long as an untraced
  /// run.
  double PhaseSeconds() const { return trace ? seconds / 2 : seconds; }
};

/// Nearest-rank percentile of raw samples: the smallest sample with at
/// least q * n samples at or below it.
struct Quantile {
  double value = 0.0;
  int64_t samples = 0;
  /// Samples that lie strictly beyond the reported rank.
  int64_t beyond = 0;

  /// A percentile is only reported when at least ten samples lie beyond
  /// it; with fewer, one slow sample decides the value.
  bool Supported() const { return beyond >= 10; }
};
Quantile NearestRank(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Order-independent digest of a multiset of (left id, right id) pairs.
struct PairDigest {
  uint64_t sum = 0;
  int64_t count = 0;

  void Add(int64_t left, int64_t right);
  bool operator==(const PairDigest&) const = default;
};

/// Order-sensitive digest: equal only for the same pairs in the same order.
uint64_t MixOrdered(uint64_t h, int64_t left, int64_t right);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (-1: a count or ratio, not a sample
  /// statistic).
  int64_t samples = -1;
  /// A percentile with fewer than ten samples beyond it: reported as 0.
  bool withheld = false;
};

/// Collects metrics in report order.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1);
  /// Adds a percentile in `unit` (`scale` converts the raw seconds).
  /// Returns false, and adds nothing, when the percentile is unsupported.
  bool AddQuantile(const std::string& name, const Quantile& q, double scale,
                   const std::string& unit);
  /// Per-layer form: an unsupported percentile keeps its name (the traced
  /// run reports every per-layer metric) but is withheld as 0.
  void AddLayerQuantile(const std::string& name, std::vector<double> samples,
                        double q, double scale, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// What one workload run hands back to `main`.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Refused by admission control (kResourceExhausted).
  int64_t rejected = 0;
  /// Completed, but with a result that differs from the reference.
  int64_t wrong = 0;
  MetricList end_to_end;
  MetricList per_layer;
  /// Non-empty when the run cannot report (e.g. an unsupported
  /// percentile); `main` then exits non-zero without a result line.
  std::string error;
};

/// Prints `metrics` as an aligned table under `title`.
void PrintTable(const std::string& title, const MetricList& metrics);
/// Prints two metric lists side by side (untraced vs traced phase).
void PrintSideBySide(const std::string& title, const MetricList& untraced,
                     const MetricList& traced);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One traced interval. `op` is shared by every span of one operation;
/// `parent` indexes the enclosing span in the same buffer (-1 at a root).
struct Span {
  const char* name = nullptr;
  int64_t op = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded, in-memory span recorder: each client thread owns one,
/// and buffers are merged after the timed phase. Nothing is written while
/// measuring.
class SpanBuffer {
 public:
  explicit SpanBuffer(Clock::time_point epoch) : epoch_(epoch) {}

  int32_t Begin(const char* name, int64_t op, int32_t parent = -1);
  void End(int32_t span);
  /// Records an already-measured interval.
  int32_t Add(const char* name, int64_t op, int32_t parent,
              Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Nanos(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  /// A null `buffer` records nothing (tracing off).
  ScopedSpan(SpanBuffer* buffer, const char* name, int64_t op,
             int32_t parent = -1)
      : buffer_(buffer),
        index_(buffer == nullptr ? -1 : buffer->Begin(name, op, parent)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

/// Per span name: count, total duration, and self time (duration minus
/// the part of it covered by child spans).
struct SpanSummary {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SpanSummary> Summarize(const std::vector<const SpanBuffer*>& bufs);
void PrintSpanSummary(const std::vector<SpanSummary>& summary);

/// Writes every span as one CSV row (buffer, span, parent, op, name,
/// start_ns, end_ns). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers);

}  // namespace cloudjoin::perfbench

#endif  // CLOUDJOIN_PERFBENCH_BENCH_H_
