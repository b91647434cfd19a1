// Ablation: broadcast join (the paper's design for both prototypes)
// versus the SpatialHadoop-style partitioned join (the scale-out
// alternative discussed in the paper's related work, and the mode real
// SpatialSpark grew for right sides that exceed worker memory).
//
// Runs both modes of the Spark engine on taxi-nycb and taxi-lion-500 and
// replays them on a 10-node cluster. Broadcast pays index build + network
// fan-out; partitioned pays a two-sided shuffle and boundary replication.

#include <cstdio>

#include "bench/bench_common.h"
#include "exec/counter_names.h"
#include "plan/planner.h"

namespace cloudjoin::bench {
namespace {

void RunCase(PaperBench* bench, const data::Workload& workload,
             int num_tiles) {
  join::SpatialSparkSystem spark(bench->fs(), bench->num_partitions());
  auto broadcast =
      spark.Join(workload.left, workload.right, workload.predicate);
  CLOUDJOIN_CHECK(broadcast.ok()) << broadcast.status();
  auto partitioned = spark.PartitionedJoin(workload.left, workload.right,
                                           workload.predicate, num_tiles);
  CLOUDJOIN_CHECK(partitioned.ok()) << partitioned.status();
  CheckSamePairs(broadcast->pairs, partitioned->pairs,
                 "broadcast and partitioned modes");

  sim::ClusterSpec cluster = sim::ClusterSpec::Ec2(10);
  sim::RunReport b =
      bench->SimulateSpark(*broadcast, workload, cluster);
  sim::RunReport p =
      bench->SimulateSpark(*partitioned, workload, cluster);
  std::printf(
      "%-16s broadcast %8.2fs (bcast %6.2fs)  partitioned(%3d tiles) "
      "%8.2fs  -> %5.2fx  (%zu pairs)\n",
      workload.name.c_str(), b.simulated_seconds, b.breakdown.at("broadcast"),
      num_tiles, p.simulated_seconds,
      p.simulated_seconds / b.simulated_seconds, broadcast->pairs.size());
}

/// `--skew=hotspot`: the skew-aware execution ablation on the ISP-MC
/// engine — forced broadcast vs partitioned with static tiles vs
/// partitioned with hot-tile splitting, on the Zipf-clustered hotspot
/// workload. All three arms must produce the same match set.
void RunSkewCase(PaperBench* bench, const data::Workload& workload,
                 int num_tiles) {
  impala::QueryOptions base;
  base.probe = bench->probe();

  impala::QueryOptions forced_broadcast = base;
  forced_broadcast.join_strategy = plan::JoinStrategy::kBroadcast;

  impala::QueryOptions partitioned_static = base;
  partitioned_static.join_strategy = plan::JoinStrategy::kPartitioned;
  partitioned_static.partitioned_tiles = num_tiles;
  partitioned_static.adaptive_partitioning = false;

  impala::QueryOptions partitioned_adaptive = partitioned_static;
  partitioned_adaptive.adaptive_partitioning = true;

  join::IspMcJoinRun b = bench->RunIspMc(workload, forced_broadcast);
  join::IspMcJoinRun ps = bench->RunIspMc(workload, partitioned_static);
  join::IspMcJoinRun pa = bench->RunIspMc(workload, partitioned_adaptive);
  CheckSamePairs(b.pairs, ps.pairs, "broadcast and static partitioned");
  CheckSamePairs(b.pairs, pa.pairs, "broadcast and adaptive partitioned");

  sim::ClusterSpec cluster = sim::ClusterSpec::Ec2(10);
  sim::RunReport rb = bench->SimulateIspMc(b, workload, cluster);
  sim::RunReport rs = bench->SimulateIspMc(ps, workload, cluster);
  sim::RunReport ra = bench->SimulateIspMc(pa, workload, cluster);
  std::printf(
      "%-16s broadcast %8.2fs  partitioned-static(%3d) %8.2fs  "
      "partitioned-adaptive %8.2fs  (static/adaptive %5.2fx)\n",
      workload.name.c_str(), rb.simulated_seconds, num_tiles,
      rs.simulated_seconds, ra.simulated_seconds,
      rs.simulated_seconds / ra.simulated_seconds);
  std::printf(
      "%-16s   %zu pairs; sfilter_skipped=%lld  hot_tiles_split=%lld  "
      "tile tasks static=%zu adaptive=%zu\n",
      "", b.pairs.size(),
      static_cast<long long>(
          pa.metrics.counters.Get(exec::counter::kSfilterSkipped)),
      static_cast<long long>(
          pa.metrics.counters.Get(exec::counter::kHotTilesSplit)),
      ps.metrics.join_task_seconds.size(),
      pa.metrics.join_task_seconds.size());
}

void Run(const Flags& flags) {
  PaperBench bench(flags);
  int tiles = static_cast<int>(flags.GetInt("tiles", 64));
  if (flags.GetString("skew", "") == "hotspot") {
    bench.PrintHeader(
        "Skew-aware execution: broadcast vs static vs adaptive partitioned "
        "(ISP-MC engine)",
        "LocationSpark-style skew cure: hot-tile splitting keeps any one "
        "tile off the critical path");
    RunSkewCase(&bench, bench.suite().hotspot_nycb, tiles);
    RunSkewCase(&bench, bench.suite().taxi_nycb, tiles);
    std::printf(
        "\nexpected shape: on the hotspot workload static tiling leaves one "
        "dominant tile\n(makespan pinned by a single task); adaptive "
        "splitting divides it until the\nschedule balances, so "
        "partitioned-adaptive < partitioned-static.\n");
    return;
  }
  bench.PrintHeader(
      "Ablation: broadcast vs partitioned spatial join (Spark engine)",
      "the paper broadcasts the (small) right side; partitioning is the "
      "scale-out path");
  RunCase(&bench, bench.suite().taxi_nycb, tiles);
  RunCase(&bench, bench.suite().taxi_lion_500, tiles);
  std::printf(
      "\nexpected shape: with paper-sized (memory-resident) right sides the "
      "broadcast\njoin wins — the shuffle re-materializes BOTH sides and "
      "replicates boundary\nrecords; partitioning pays off only when the "
      "right side outgrows memory\n(which the cluster spec's 15 GB/node "
      "would hit near ~100M-polygon right sides).\n");
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(
      argc, argv, cloudjoin::bench::PaperBenchFlags({"skew", "tiles"}));
  cloudjoin::bench::Run(flags);
  return 0;
}
