// Reproduces Table 2 of the paper: runtimes (seconds) of SpatialSpark and
// ISP-MC on a 10-node EC2 g2.2xlarge cluster.
//
// Paper values (seconds):
//                 SpatialSpark   ISP-MC     ratio
//   taxi-nycb            110       758       6.9x
//   taxi-lion-100         65       307       4.7x
//   taxi-lion-500        249      1785       7.2x
//   G10M-wwf             735      7728      10.5x
//
// Shape to check: SpatialSpark wins every workload by ~4.7-10.5x — the gap
// widens versus Table 1 because ISP-MC adds inter-node static-scheduling
// imbalance on top of the GEOS refinement penalty.

#include <cstdio>

#include "bench/bench_common.h"

namespace cloudjoin::bench {
namespace {

void Run(const Flags& flags) {
  PaperBench bench(flags);
  bench.PrintHeader("Table 2: runtimes (s) on 10 EC2 nodes",
                    "SpatialSpark 110/65/249/735, ISP-MC 758/307/1785/7728 "
                    "(4.7x-10.5x)");

  int nodes = static_cast<int>(flags.GetInt("nodes", 10));
  sim::ClusterSpec cluster = sim::ClusterSpec::Ec2(nodes);
  std::printf("cluster: %s\n\n", cluster.ToString().c_str());
  PrintRowHeader("experiment", {"SpatialSpark", "ISP-MC", "ISP/SS"});

  for (const data::Workload& workload : bench.AllWorkloads()) {
    join::SparkJoinRun spark = bench.RunSpark(workload);
    join::IspMcJoinRun isp = bench.RunIspMc(workload);
    CLOUDJOIN_CHECK(spark.pairs.size() == isp.pairs.size());

    sim::RunReport ss = bench.SimulateSpark(spark, workload, cluster);
    sim::RunReport im = bench.SimulateIspMc(isp, workload, cluster);
    double ratio = ss.simulated_seconds > 0
                       ? im.simulated_seconds / ss.simulated_seconds
                       : 0.0;
    std::printf("%-16s %12.2f %12.2f %11.1fx\n", workload.name.c_str(),
                ss.simulated_seconds, im.simulated_seconds, ratio);
    if (flags.GetBool("breakdown", false)) {
      std::printf("%s\n%s\n", ss.ToString().c_str(), im.ToString().c_str());
    }
  }
  std::printf("\npaper shape: ISP-MC/SS = 6.9x, 4.7x, 7.2x, 10.5x\n");
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(
      argc, argv, cloudjoin::bench::PaperBenchFlags({"breakdown", "nodes"}));
  cloudjoin::bench::Run(flags);
  return 0;
}
