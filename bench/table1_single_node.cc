// Reproduces Table 1 of the paper: single-node runtimes (seconds) of
// SpatialSpark, ISP-MC, and standalone ISP-MC on the four §V.A workloads,
// on the 16-core in-house machine spec.
//
// Paper values (seconds):
//                 SpatialSpark   ISP-MC   Standalone
//   taxi-nycb            682       588         507
//   taxi-lion-100        696      1061         983
//   taxi-lion-500        825      5720        4922
//   G10M-wwf            2445     12736       11634
//
// Shape to check: ISP-MC slightly beats SpatialSpark on the cheap-
// refinement taxi-nycb; SpatialSpark wins everywhere refinement dominates
// (up to ~7x on taxi-lion-500); standalone is 7-14 % under ISP-MC.

#include <cstdio>

#include "bench/bench_common.h"

namespace cloudjoin::bench {
namespace {

void Run(const Flags& flags) {
  PaperBench bench(flags);
  bench.PrintHeader("Table 1: runtimes (s) on a single node",
                    "SpatialSpark 682/696/825/2445, ISP-MC 588/1061/5720/"
                    "12736, standalone 507/983/4922/11634");

  // --prepared=1 switches every system onto prepared-geometry refinement
  // (identical results, faster probe phase); the paper's faithful exact
  // refinement is the default. --probe_batch tunes the columnar filter
  // pipeline the same way across all three systems.
  const bool prepared = flags.GetBool("prepared", false);
  join::PrepareOptions prepare;
  prepare.enabled = prepared;

  sim::ClusterSpec node = sim::ClusterSpec::InHouseSingleNode();
  std::printf(
      "cluster: %s\nprepared refinement: %s\nprobe pipeline: batch=%d "
      "sfilter=%d\n\n",
      node.ToString().c_str(), prepared ? "on" : "off",
      bench.probe().batch_size, bench.probe().sfilter ? 1 : 0);
  PrintRowHeader("experiment",
                 {"SpatialSpark", "ISP-MC", "Standalone", "SS/ISP", "infra%"});

  for (const data::Workload& workload : bench.AllWorkloads()) {
    join::SparkJoinRun spark = bench.RunSpark(workload, prepare);
    join::IspMcJoinRun isp =
        bench.RunIspMc(workload, /*cache_parsed=*/false, prepared);
    join::StandaloneRun standalone = bench.RunStandalone(workload, prepare);
    CLOUDJOIN_CHECK(spark.pairs.size() == isp.pairs.size());
    CLOUDJOIN_CHECK(spark.pairs.size() == standalone.pairs.size());

    sim::RunReport ss = bench.SimulateSpark(spark, workload, node);
    sim::RunReport im = bench.SimulateIspMc(isp, workload, node);
    sim::RunReport sa = bench.SimulateStandalone(standalone, workload, node);

    double ratio = ss.simulated_seconds > 0
                       ? im.simulated_seconds / ss.simulated_seconds
                       : 0.0;
    double infra = sa.simulated_seconds > 0
                       ? 100.0 * (im.simulated_seconds - sa.simulated_seconds) /
                             sa.simulated_seconds
                       : 0.0;
    std::printf("%-16s %12.2f %12.2f %12.2f %12.2f %11.1f%%\n",
                workload.name.c_str(), ss.simulated_seconds,
                im.simulated_seconds, sa.simulated_seconds, ratio, infra);
  }
  std::printf(
      "\npaper shape: ISP-MC/SS ratio ~0.86 (taxi-nycb), 1.5, 6.9, 5.2;\n"
      "             infra overhead 13.7%%, 7.3%%, 13.9%%, 8.7%% "
      "(ISP-MC vs standalone)\n");
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(
      argc, argv, cloudjoin::bench::PaperBenchFlags({"prepared"}));
  cloudjoin::bench::Run(flags);
  return 0;
}
