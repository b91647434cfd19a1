// Ablation for the paper's §III observation: Spark reconstructs an actor
// system and exchanges partition metadata for every job stage, so the
// partition count trades parallelism (more is better) against per-stage
// metadata overhead (less is better).
//
// Sweeps the RDD partition count for taxi-nycb on a 10-node cluster and
// prints the simulated runtime split into compute vs engine overhead —
// the sweet spot sits where the curves cross.

#include <cstdio>

#include "bench/bench_common.h"
#include "exec/counter_names.h"
#include "plan/planner.h"

namespace cloudjoin::bench {
namespace {

/// `--skew=hotspot`: sweep the tile count of the partitioned ISP-MC plan
/// on the Zipf-clustered hotspot workload, static vs adaptive tiling.
/// Static tiling needs many more tiles to dilute the hot region; adaptive
/// splitting reaches the balanced schedule at a small base tile count.
void RunSkewSweep(const Flags& flags) {
  PaperBench bench(flags);
  bench.PrintHeader(
      "Ablation: partitioned-join tile-count sweep under skew (ISP-MC)",
      "hot-tile splitting substitutes for a high static tile count");

  sim::ClusterSpec cluster =
      sim::ClusterSpec::Ec2(static_cast<int>(flags.GetInt("nodes", 10)));
  const data::Workload& workload = bench.suite().hotspot_nycb;
  std::printf("cluster: %s, workload: %s\n\n", cluster.ToString().c_str(),
              workload.name.c_str());
  PrintRowHeader("tiles", {"static(s)", "adaptive(s)", "adapt-tiles",
                           "split-events"});

  for (int tiles : {16, 32, 64, 128, 256}) {
    impala::QueryOptions options;
    options.probe = bench.probe();
    options.join_strategy = plan::JoinStrategy::kPartitioned;
    options.partitioned_tiles = tiles;

    options.adaptive_partitioning = false;
    join::IspMcJoinRun st = bench.RunIspMc(workload, options);
    options.adaptive_partitioning = true;
    join::IspMcJoinRun ad = bench.RunIspMc(workload, options);
    CheckSamePairs(st.pairs, ad.pairs, "static and adaptive tiling");

    sim::RunReport rs = bench.SimulateIspMc(st, workload, cluster);
    sim::RunReport ra = bench.SimulateIspMc(ad, workload, cluster);
    std::printf("%-16d %12.2f %12.2f %12zu %12lld\n", tiles,
                rs.simulated_seconds, ra.simulated_seconds,
                ad.metrics.join_task_seconds.size(),
                static_cast<long long>(ad.metrics.counters.Get(
                    exec::counter::kHotTilesSplit)));
  }
  std::printf(
      "\nexpected shape: the static curve needs a large tile count before "
      "the hot tile\nstops dominating the makespan; adaptive reaches the "
      "balanced schedule already\nat small base tile counts (and converges "
      "with static once tiles are tiny).\n");
}

void Run(const Flags& flags) {
  if (flags.GetString("skew", "") == "hotspot") {
    RunSkewSweep(flags);
    return;
  }
  PaperBench bench(flags);
  bench.PrintHeader(
      "Ablation: SpatialSpark partition-count sweep (paper Sec III)",
      "overheads grow with #partitions; parallelism needs enough of them");

  sim::ClusterSpec cluster =
      sim::ClusterSpec::Ec2(static_cast<int>(flags.GetInt("nodes", 10)));
  std::printf("cluster: %s, workload: taxi-nycb\n\n",
              cluster.ToString().c_str());
  PrintRowHeader("partitions", {"total(s)", "compute(s)", "overhead(s)",
                                "other(s)"});

  for (int partitions : {4, 8, 16, 32, 64, 128, 256, 512}) {
    join::SpatialSparkSystem system(bench.fs(), partitions);
    const data::Workload& workload = bench.suite().taxi_nycb;
    auto run = system.Join(workload.left, workload.right, workload.predicate);
    CLOUDJOIN_CHECK(run.ok()) << run.status();
    sim::RunReport report = bench.SimulateSpark(*run, workload, cluster);
    double compute = report.breakdown.at("stage compute");
    double overhead = report.breakdown.at("engine overhead");
    double other = report.simulated_seconds - compute - overhead;
    std::printf("%-16d %12.2f %12.2f %12.2f %12.2f\n", partitions,
                report.simulated_seconds, compute, overhead, other);
  }
  std::printf(
      "\nexpected shape: compute falls then plateaus as partitions exceed "
      "total cores;\noverhead rises linearly; total is U-shaped\n");
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(
      argc, argv, cloudjoin::bench::PaperBenchFlags({"nodes", "skew"}));
  cloudjoin::bench::Run(flags);
  return 0;
}
