// Reproduces Fig. 4 of the paper: SpatialSpark runtime (seconds) as the
// EC2 cluster grows from 4 to 10 nodes, one curve per workload.
//
// Paper shape: all four curves decrease monotonically; speedup from 4 to
// 10 nodes (2.5x more nodes) is ~1.97x-2.06x, i.e. ~80 % parallel
// efficiency — the shortfall comes from per-stage driver/metadata
// overheads, not load imbalance (scheduling is dynamic).

#include <cstdio>

#include "bench/bench_common.h"

namespace cloudjoin::bench {
namespace {

void Run(const Flags& flags) {
  PaperBench bench(flags);
  bench.PrintHeader(
      "Fig 4: SpatialSpark scalability (runtime vs #nodes)",
      "4->10 nodes gives 1.97x-2.06x speedup (~80% parallel efficiency)");

  const std::vector<int> node_counts = {4, 6, 8, 10};
  PrintRowHeader("experiment", {"4 nodes", "6 nodes", "8 nodes", "10 nodes",
                                "speedup", "par.eff"});
  for (const data::Workload& workload : bench.AllWorkloads()) {
    // One real measured run, replayed on each cluster size.
    join::SparkJoinRun run = bench.RunSpark(workload);
    std::vector<double> seconds;
    for (int nodes : node_counts) {
      sim::RunReport report =
          bench.SimulateSpark(run, workload, sim::ClusterSpec::Ec2(nodes));
      seconds.push_back(report.simulated_seconds);
    }
    double speedup = seconds.back() > 0 ? seconds.front() / seconds.back()
                                        : 0.0;
    double efficiency = speedup / 2.5 * 100.0;
    std::printf("%-16s %12.2f %12.2f %12.2f %12.2f %11.2fx %10.1f%%\n",
                workload.name.c_str(), seconds[0], seconds[1], seconds[2],
                seconds[3], speedup, efficiency);
  }
  std::printf(
      "\npaper shape: monotone decrease; speedup(4->10) ~2x; "
      "efficiency ~80%%\n");
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(
      argc, argv, cloudjoin::bench::PaperBenchFlags({}));
  cloudjoin::bench::Run(flags);
  return 0;
}
