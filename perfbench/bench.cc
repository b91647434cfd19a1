#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace cloudjoin::perfbench {

Quantile NearestRank(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const int64_t n = out.samples;
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  out.value = samples[static_cast<size_t>(rank - 1)];
  out.beyond = n - rank;
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t PairHash(int64_t left, int64_t right) {
  return Mix64(static_cast<uint64_t>(left) * 0x9E3779B97F4A7C15ULL ^
               Mix64(static_cast<uint64_t>(right) + 0x632BE59BD9B4E019ULL));
}

}  // namespace

void PairDigest::Add(int64_t left, int64_t right) {
  sum += PairHash(left, right);
  ++count;
}

uint64_t MixOrdered(uint64_t h, int64_t left, int64_t right) {
  return Mix64(h ^ PairHash(left, right)) + 0x9E3779B97F4A7C15ULL;
}

void MetricList::Add(const std::string& name, double value,
                     const std::string& unit, int64_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

bool MetricList::AddQuantile(const std::string& name, const Quantile& q,
                             double scale, const std::string& unit) {
  if (!q.Supported()) return false;
  Add(name, q.value * scale, unit, q.samples);
  return true;
}

void MetricList::AddLayerQuantile(const std::string& name,
                                  std::vector<double> samples, double q,
                                  double scale, const std::string& unit) {
  const Quantile quantile = NearestRank(std::move(samples), q);
  if (AddQuantile(name, quantile, scale, unit)) return;
  Add(name, 0.0, unit, quantile.samples);
  metrics_.back().withheld = true;
}

const Metric* MetricList::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

std::string SampleNote(const Metric& m) {
  std::string note =
      m.samples < 0 ? std::string() : "n=" + std::to_string(m.samples);
  if (m.withheld) note += " (withheld: fewer than 10 samples beyond it)";
  return note;
}

}  // namespace

void PrintTable(const std::string& title, const MetricList& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics.metrics()) {
    std::printf("  %-28s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), SampleNote(m).c_str());
  }
}

void PrintSideBySide(const std::string& title, const MetricList& untraced,
                     const MetricList& traced) {
  std::printf("%s\n  %-28s %14s %14s %-6s\n", title.c_str(), "metric",
              "untraced", "traced", "unit");
  for (const Metric& m : untraced.metrics()) {
    const Metric* t = traced.Find(m.name);
    std::printf("  %-28s %14.4f %14.4f %-6s %s\n", m.name.c_str(), m.value,
                t == nullptr ? 0.0 : t->value, m.unit.c_str(),
                SampleNote(m).c_str());
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t SpanBuffer::Nanos(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int32_t SpanBuffer::Begin(const char* name, int64_t op, int32_t parent) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.start_ns = Nanos(Clock::now());
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanBuffer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = Nanos(Clock::now());
}

int32_t SpanBuffer::Add(const char* name, int64_t op, int32_t parent,
                        Clock::time_point start, Clock::time_point end) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.start_ns = Nanos(start);
  span.end_ns = Nanos(end);
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<SpanSummary> Summarize(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, SpanSummary> by_name;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    // Children of one span run one after another on the buffer's thread,
    // so the part of a span they cover is the sum of their durations.
    std::vector<int64_t> covered(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        covered[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanSummary& s = by_name[spans[i].name];
      s.name = spans[i].name;
      const int64_t duration = spans[i].end_ns - spans[i].start_ns;
      ++s.count;
      s.total_ms += static_cast<double>(duration) * 1e-6;
      s.self_ms += static_cast<double>(duration - covered[i]) * 1e-6;
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, summary] : by_name) out.push_back(summary);
  return out;
}

void PrintSpanSummary(const std::vector<SpanSummary>& summary) {
  std::printf("spans (traced phase and replay)\n  %-22s %9s %12s %12s\n",
              "name", "count", "total_ms", "self_ms");
  for (const SpanSummary& s : summary) {
    std::printf("  %-22s %9lld %12.2f %12.2f\n", s.name.c_str(),
                static_cast<long long>(s.count), s.total_ms, s.self_ms);
  }
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "buffer,span,parent,op,name,start_ns,end_ns\n");
  for (size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<Span>& spans = buffers[b]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%zu,%zu,%d,%lld,%s,%lld,%lld\n", b, i, s.parent,
                   static_cast<long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace cloudjoin::perfbench
