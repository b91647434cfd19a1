// Filter-phase microbenchmark: the columnar probe pipeline (batched, in
// arrival order, over the packed SoA tree) versus a per-record
// StrTree::VisitQuery walk, measured in isolation — no parsing, no
// refinement — on synthetic point probes against polygon-sized entry
// boxes.
//
// The grid is the batch size; the baseline is one pointer tree walk per
// probe. Every configuration is validated to produce the
// same candidate count before any timing is reported, and the measured
// table is emitted as BENCH_filter.json for the experiment tooling.
//
// Flags: --points (probes, default 1e6), --entries (right boxes, default
// 1e5), --repeat (timed reps, best-of, default 3), --out (JSON path).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "geom/envelope.h"
#include "index/batch_prober.h"
#include "index/packed_str_tree.h"
#include "index/probe_options.h"
#include "index/str_tree.h"

namespace cloudjoin::bench {
namespace {

constexpr double kExtent = 10000.0;

struct Measurement {
  std::string label;
  /// The per-record pointer walk (the baseline) rather than the packed
  /// batch pipeline.
  bool pointer_walk = false;
  int batch_size = 1;
  double seconds = 0.0;
  int64_t candidates = 0;
  int64_t simd_lanes = 0;
  double speedup = 1.0;  // vs the per-record pointer walk
};

std::vector<index::StrTree::Entry> MakeEntries(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<index::StrTree::Entry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double x = rng.Uniform(0, kExtent);
    double y = rng.Uniform(0, kExtent);
    double w = rng.Uniform(1, 25);
    entries.push_back(
        index::StrTree::Entry{geom::Envelope(x, y, x + w, y + w), i});
  }
  return entries;
}

std::vector<geom::Envelope> MakeProbes(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Envelope> probes;
  probes.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double x = rng.Uniform(0, kExtent);
    double y = rng.Uniform(0, kExtent);
    probes.push_back(geom::Envelope(x, y, x, y));  // point probes
  }
  return probes;
}

/// Best-of-`repeat` timing of `run(&checksum, &stats)` into `m`.
template <typename Run>
void TimeBestOf(int repeat, Measurement* m, Run&& run) {
  for (int rep = 0; rep < repeat; ++rep) {
    int64_t checksum = 0;
    index::BatchStats stats;
    Stopwatch watch;
    run(&checksum, &stats);
    double seconds = watch.ElapsedSeconds();
    // Fold the checksum into a side effect the optimizer must keep.
    if (checksum == 0x7fffffffffffffff) std::printf("\n");
    if (rep == 0 || seconds < m->seconds) m->seconds = seconds;
    m->candidates = stats.candidates;
    m->simd_lanes = stats.simd_lanes;
  }
}

/// The baseline: one StrTree::VisitQuery walk per probe, in probe order.
Measurement MeasurePerRecord(const index::StrTree& tree,
                             const std::vector<geom::Envelope>& probes,
                             int repeat) {
  Measurement m;
  m.label = "per-record pointer walk";
  m.pointer_walk = true;
  TimeBestOf(repeat, &m, [&](int64_t* checksum, index::BatchStats* stats) {
    for (size_t i = 0; i < probes.size(); ++i) {
      tree.VisitQuery(probes[i], [&](int64_t id) {
        *checksum += static_cast<int64_t>(i) ^ id;
        ++stats->candidates;
      });
    }
  });
  return m;
}

/// One batch size of the packed batch pipeline.
Measurement MeasureBatched(const index::PackedStrTree& packed,
                           const std::vector<geom::Envelope>& probes,
                           const index::ProbeOptions& options, int repeat) {
  Measurement m;
  m.label = "batch=" + std::to_string(options.batch_size);
  m.batch_size = options.batch_size;
  auto envelope_at = [&](int64_t i) { return probes[static_cast<size_t>(i)]; };
  TimeBestOf(repeat, &m, [&](int64_t* checksum, index::BatchStats* stats) {
    index::RunBatchedProbes(
        static_cast<int64_t>(probes.size()), packed, options,
        envelope_at, [&](int64_t i, int64_t id) { *checksum += i ^ id; },
        stats);
  });
  return m;
}

void WriteJson(const std::string& path, int64_t points, int64_t entries,
               bool simd_active, const std::vector<Measurement>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  CLOUDJOIN_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_filter\",\n");
  std::fprintf(f, "  \"points\": %lld,\n", static_cast<long long>(points));
  std::fprintf(f, "  \"entries\": %lld,\n", static_cast<long long>(entries));
  std::fprintf(f, "  \"simd_kernel_active\": %s,\n",
               simd_active ? "true" : "false");
  std::fprintf(f, "  \"configs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"pointer_walk\": %s, "
                 "\"batch_size\": %d, "
                 "\"seconds\": %.6f, \"candidates\": %lld, "
                 "\"simd_lanes\": %lld, \"speedup_vs_pointer\": %.3f}%s\n",
                 m.label.c_str(), m.pointer_walk ? "true" : "false",
                 m.batch_size, m.seconds,
                 static_cast<long long>(m.candidates),
                 static_cast<long long>(m.simd_lanes), m.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void Run(const Flags& flags) {
  const int64_t num_points = flags.GetInt("points", 1000000);
  const int64_t num_entries = flags.GetInt("entries", 100000);
  const int repeat = static_cast<int>(flags.GetInt("repeat", 3));
  const std::string out = flags.GetString("out", "BENCH_filter.json");

  std::printf("micro_filter: %lld point probes vs %lld entry boxes\n",
              static_cast<long long>(num_points),
              static_cast<long long>(num_entries));
  index::StrTree tree(MakeEntries(num_entries, 2015));
  index::PackedStrTree packed(tree);
  auto probes = MakeProbes(num_points, 42);
  std::printf("explicit SIMD kernel: %s\n",
              packed.simd_active() ? "active" : "scalar fallback");

  std::vector<Measurement> rows;
  rows.push_back(MeasurePerRecord(tree, probes, repeat));
  const Measurement baseline = rows[0];
  for (int batch_size : {1, 64, 1024}) {
    index::ProbeOptions options;
    options.batch_size = batch_size;
    rows.push_back(MeasureBatched(packed, probes, options, repeat));
  }

  // Identical candidate counts across every configuration, or the timing
  // comparison is meaningless.
  for (const Measurement& m : rows) {
    CLOUDJOIN_CHECK(m.candidates == baseline.candidates)
        << m.label << ": " << m.candidates << " candidates vs baseline "
        << baseline.candidates;
  }

  std::printf("%-32s %10s %12s %9s\n", "config", "seconds", "candidates",
              "speedup");
  double best_batched = 0.0;
  for (Measurement& m : rows) {
    m.speedup = baseline.seconds / m.seconds;
    std::printf("%-32s %10.4f %12lld %8.2fx\n", m.label.c_str(), m.seconds,
                static_cast<long long>(m.candidates), m.speedup);
    if (!m.pointer_walk && m.batch_size > 1) {
      best_batched = std::max(best_batched, m.speedup);
    }
  }
  std::printf(
      "\nbest packed+batched speedup vs pointer per-record: %.2fx "
      "(acceptance bar: 1.5x at >= 1M points)\n",
      best_batched);

  WriteJson(out, num_points, num_entries, packed.simd_active(), rows);
  std::printf("wrote %s\n", out.c_str());
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(argc, argv, {"points", "entries", "repeat", "out"});
  cloudjoin::bench::Run(flags);
  return 0;
}
