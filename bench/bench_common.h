#ifndef CLOUDJOIN_BENCH_BENCH_COMMON_H_
#define CLOUDJOIN_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/strings.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "geom/wkt.h"
#include "join/broadcast_spatial_join.h"
#include "join/isp_mc_system.h"
#include "join/spatial_spark_system.h"
#include "join/standalone_mc.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "sim/run_report.h"

namespace cloudjoin::bench {

/// The flags a bench built on PaperBench accepts: PaperBench's own plus
/// `own`, the ones the bench reads itself.
inline std::vector<std::string> PaperBenchFlags(
    std::vector<std::string> own) {
  own.insert(own.end(),
             {"scale", "seed", "partitions", "block_kb", "probe_batch"});
  return own;
}

/// Shared harness for the paper-artifact benchmarks: materializes the §V.A
/// workload suite once, runs each prototype system for real (measuring
/// per-task compute), and replays the measurements on the paper's cluster
/// specs.
class PaperBench {
 public:
  /// Flags: --scale (default 1.0), --seed, --partitions (Spark),
  /// --block_kb, and --probe_batch (the columnar filter's batch size,
  /// defaulting to the engines' default).
  explicit PaperBench(const Flags& flags)
      : scale_(flags.GetDouble("scale", 1.0)),
        seed_(static_cast<uint64_t>(flags.GetInt("seed", 2015))),
        num_partitions_(static_cast<int>(flags.GetInt("partitions", 64))),
        fs_(/*num_nodes=*/10, /*block_size=*/
            flags.GetInt("block_kb", 32) * 1024) {
    probe_.batch_size = static_cast<int>(
        flags.GetInt("probe_batch", probe_.batch_size));
    auto suite = data::MaterializeWorkloads(&fs_, scale_, seed_);
    CLOUDJOIN_CHECK(suite.ok()) << suite.status();
    suite_ = std::move(suite).value();
  }

  const data::WorkloadSuite& suite() const { return suite_; }
  dfs::SimFileSystem* fs() { return &fs_; }
  double scale() const { return scale_; }
  int num_partitions() const { return num_partitions_; }
  const sim::CostModel& cost() const { return cost_; }
  const join::ProbeOptions& probe() const { return probe_; }

  std::vector<data::Workload> AllWorkloads() const {
    return {suite_.taxi_nycb, suite_.taxi_lion_100, suite_.taxi_lion_500,
            suite_.g10m_wwf};
  }

  /// Runs SpatialSpark once on `workload` (real execution + metering).
  /// `prepare` opts the broadcast index into prepared-geometry refinement.
  join::SparkJoinRun RunSpark(
      const data::Workload& workload,
      const join::PrepareOptions& prepare = join::PrepareOptions()) {
    join::SpatialSparkSystem system(&fs_, num_partitions_, prepare, probe_);
    auto run = system.Join(workload.left, workload.right, workload.predicate);
    CLOUDJOIN_CHECK(run.ok()) << run.status();
    return std::move(run).value();
  }

  /// Runs ISP-MC once (SQL path, faithful re-parsing refinement unless
  /// `cache_parsed`; `prepare_geometries` turns on prepared refinement).
  join::IspMcJoinRun RunIspMc(const data::Workload& workload,
                              bool cache_parsed = false,
                              bool prepare_geometries = false) {
    impala::QueryOptions options;
    options.cache_parsed_geometries = cache_parsed;
    options.prepare_geometries = prepare_geometries;
    options.probe = probe_;
    return RunIspMc(workload, options);
  }

  /// Runs ISP-MC with fully caller-controlled query options (strategy
  /// forcing, tile counts, sFilter ablation, ...). `options.probe` is the
  /// caller's responsibility — seed it from `probe()` to honour the
  /// bench's probe flags.
  join::IspMcJoinRun RunIspMc(const data::Workload& workload,
                              const impala::QueryOptions& options) {
    join::IspMcSystem system(&fs_);
    auto run = system.Join(workload.left, workload.right, workload.predicate,
                           options);
    CLOUDJOIN_CHECK(run.ok()) << run.status();
    return std::move(run).value();
  }

  /// Runs the standalone ISP-MC implementation once.
  join::StandaloneRun RunStandalone(
      const data::Workload& workload,
      const join::PrepareOptions& prepare = join::PrepareOptions()) {
    join::StandaloneMc system(&fs_);
    auto run = system.Join(workload.left, workload.right, workload.predicate,
                           prepare, /*prebuilt=*/nullptr, probe_);
    CLOUDJOIN_CHECK(run.ok()) << run.status();
    return std::move(run).value();
  }

  /// Extrapolation factor from the materialized point count to the paper's
  /// cardinality (170M taxi pickups / 10M GBIF occurrences). Point-side
  /// per-record work (parse, probe, refine) is independent across records,
  /// so measured left-side task durations extrapolate linearly; the right
  /// sides are materialized at full size (scale >= 1), so index builds and
  /// broadcasts are not extrapolated.
  double LeftExtrapolation(const data::Workload& workload) const {
    if (workload.left.path == suite_.g10m_wwf.left.path &&
        workload.name == suite_.g10m_wwf.name) {
      return 10e6 / static_cast<double>(suite_.gbif_count);
    }
    return 170e6 / static_cast<double>(suite_.taxi_count);
  }

  /// Simulates a SpatialSpark run with left-side stages extrapolated to
  /// paper cardinality (stages are matched by the left path in their name).
  sim::RunReport SimulateSpark(const join::SparkJoinRun& run,
                               const data::Workload& workload,
                               const sim::ClusterSpec& cluster) const {
    join::SparkJoinRun scaled = run;
    const double factor = LeftExtrapolation(workload);
    for (spark::StageMetrics& stage : scaled.stages) {
      if (stage.name.find(workload.left.path) != std::string::npos) {
        for (double& s : stage.task_seconds) s *= factor;
      }
    }
    return join::SpatialSparkSystem::Simulate(scaled, cluster, cost_,
                                              workload.name);
  }

  /// Simulates an ISP-MC run with all left scan ranges extrapolated.
  sim::RunReport SimulateIspMc(const join::IspMcJoinRun& run,
                               const data::Workload& workload,
                               const sim::ClusterSpec& cluster) const {
    join::IspMcJoinRun scaled = run;
    const double factor = LeftExtrapolation(workload);
    for (impala::ScanRangeTiming& task : scaled.metrics.scan_tasks) {
      task.seconds *= factor;
    }
    // Partitioned-plan tile tasks are probe work over left rows, so they
    // extrapolate with the left side exactly like the scan ranges.
    for (double& s : scaled.metrics.join_task_seconds) s *= factor;
    return join::IspMcSystem::Simulate(scaled, cluster, cost_, workload.name);
  }

  /// Simulates a standalone run with all left blocks extrapolated.
  sim::RunReport SimulateStandalone(const join::StandaloneRun& run,
                                    const data::Workload& workload,
                                    const sim::ClusterSpec& cluster) const {
    join::StandaloneRun scaled = run;
    const double factor = LeftExtrapolation(workload);
    for (double& s : scaled.block_seconds) s *= factor;
    return join::StandaloneMc::Simulate(scaled, cluster, workload.name);
  }

  void PrintHeader(const char* artifact, const char* paper_summary) const {
    std::printf("=====================================================\n");
    std::printf("%s\n", artifact);
    std::printf("  paper: %s\n", paper_summary);
    std::printf(
        "  reproduction scale: %.3g (taxi=%lld pts, gbif=%lld pts, "
        "nycb=%lld, lion=%lld, wwf=%lld)\n",
        scale_, static_cast<long long>(suite_.taxi_count),
        static_cast<long long>(suite_.gbif_count),
        static_cast<long long>(suite_.nycb_count),
        static_cast<long long>(suite_.lion_count),
        static_cast<long long>(suite_.wwf_count));
    std::printf(
        "  note: simulated from measured per-task compute, point-side work "
        "extrapolated to paper cardinality (170M taxi / 10M GBIF);\n  compare RATIOS and CURVE SHAPES with the paper, not "
        "magnitudes.\n");
    std::printf("=====================================================\n");
  }

 private:
  double scale_;
  uint64_t seed_;
  int num_partitions_;
  join::ProbeOptions probe_;
  dfs::SimFileSystem fs_;
  data::WorkloadSuite suite_;
  sim::CostModel cost_;
};

/// Parses one materialized table into (id, geometry) records outside any
/// engine — the input shape for kernel-level ablations that benchmark the
/// join core (BroadcastIndex::Probe, ParallelBroadcastSpatialJoin)
/// without scan/parse overheads in the measured section.
inline std::vector<join::IdGeometry> LoadIdGeometries(
    dfs::SimFileSystem* fs, const join::TableInput& input) {
  auto file = fs->GetFile(input.path);
  CLOUDJOIN_CHECK(file.ok()) << file.status();
  std::vector<join::IdGeometry> out;
  dfs::LineRecordReader lines((*file)->data(), 0, (*file)->size());
  std::string_view line;
  while (lines.Next(&line)) {
    std::vector<std::string_view> fields = StrSplit(line, input.separator);
    if (static_cast<int>(fields.size()) <= input.geometry_column ||
        static_cast<int>(fields.size()) <= input.id_column) {
      continue;
    }
    auto id = ParseInt64(fields[input.id_column]);
    auto parsed = geom::ReadWkt(fields[input.geometry_column]);
    if (!id.ok() || !parsed.ok()) continue;
    out.push_back(join::IdGeometry{*id, std::move(parsed).value()});
  }
  return out;
}

/// CHECK-fails unless `a` and `b` hold the same pairs, order aside: arms
/// that must agree pair-for-pair are compared as sorted vectors, since
/// two different pair sets can have the same size. `what` names the arms
/// in the failure message.
inline void CheckSamePairs(std::vector<join::IdPair> a,
                           std::vector<join::IdPair> b,
                           const std::string& what) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  CLOUDJOIN_CHECK(a == b) << what << " disagree: " << a.size() << " vs "
                          << b.size() << " pairs";
}

/// Prints one table row: name + per-system simulated seconds.
inline void PrintRow(const std::string& name,
                     const std::vector<double>& values) {
  std::printf("%-16s", name.c_str());
  for (double v : values) std::printf(" %12.2f", v);
  std::printf("\n");
}

inline void PrintRowHeader(const std::string& name,
                           const std::vector<std::string>& columns) {
  std::printf("%-16s", name.c_str());
  for (const auto& c : columns) std::printf(" %12s", c.c_str());
  std::printf("\n");
}

}  // namespace cloudjoin::bench

#endif  // CLOUDJOIN_BENCH_BENCH_COMMON_H_
