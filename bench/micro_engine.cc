// Ablation for the paper's §VI discussion: per-record functional execution
// (the Spark RDD path, one type-erased closure hop per record) versus
// row-batch vectorized execution (the Impala path, per-call costs
// amortized over 1024 rows).
//
// Both engines scan the same taxi table and count rows with
// passengers > 3; the work is trivial, so the engine overhead dominates —
// this is why ISP-MC wins the refinement-light taxi-nycb case in Table 1.
//
// Also reproduces the re-parse ablation: ISP-MC's faithful per-pair WKT
// re-parsing vs the cached-geometry variant the paper leaves to future
// work.

#include <cstdio>
#include <span>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "spark/rdd.h"

namespace cloudjoin::bench {
namespace {

void Run(const Flags& flags) {
  PaperBench bench(flags);
  bench.PrintHeader(
      "Ablation: per-record (Spark) vs row-batch (Impala) execution",
      "Sec VI: batch execution wins when per-tuple work is cheap");

  const data::Workload& workload = bench.suite().taxi_nycb;
  const int64_t rows = bench.suite().taxi_count;

  // Spark path: textFile -> split -> filter -> count.
  double spark_seconds;
  {
    spark::SparkContext ctx(bench.fs(), bench.num_partitions());
    CpuTimer watch;
    int64_t hits =
        ctx.TextFile(workload.left.path, bench.num_partitions())
            .Map<std::vector<std::string>>([](const std::string& line) {
              std::vector<std::string> fields;
              for (std::string_view f : StrSplit(line, '\t')) {
                fields.emplace_back(f);
              }
              return fields;
            })
            .Filter([](const std::vector<std::string>& fields) {
              auto v = ParseInt64(fields[2]);
              return v.ok() && *v > 3;
            })
            .Count();
    spark_seconds = watch.ElapsedSeconds();
    std::printf("spark RDD scan+filter+count:  %8.4fs (%lld hits, %.0f "
                "records/s)\n",
                spark_seconds, static_cast<long long>(hits),
                rows / spark_seconds);
  }

  // Impala path: same predicate through the row-batch backend.
  double impala_seconds;
  {
    join::IspMcSystem isp(bench.fs());
    CLOUDJOIN_CHECK_OK(isp.RegisterTable("taxi", workload.left).status());
    CpuTimer watch;
    auto result = isp.runtime()->Execute(
        "SELECT COUNT(*) FROM taxi WHERE c2 > '3'");
    CLOUDJOIN_CHECK(result.ok()) << result.status();
    impala_seconds = watch.ElapsedSeconds();
    std::printf("impala row-batch scan+count:  %8.4fs (%.0f records/s)\n",
                impala_seconds, rows / impala_seconds);
  }
  std::printf("per-record / row-batch ratio: %8.2fx\n\n",
              spark_seconds / impala_seconds);

  // Re-parse ablation on the heavy-refinement workload.
  const data::Workload& heavy = bench.suite().g10m_wwf;
  CpuTimer faithful_watch;
  join::IspMcJoinRun faithful = bench.RunIspMc(heavy, /*cache_parsed=*/false);
  double faithful_s = faithful_watch.ElapsedSeconds();
  CpuTimer cached_watch;
  join::IspMcJoinRun cached = bench.RunIspMc(heavy, /*cache_parsed=*/true);
  double cached_s = cached_watch.ElapsedSeconds();
  CLOUDJOIN_CHECK(faithful.pairs.size() == cached.pairs.size());
  std::printf(
      "ISP-MC G10M-wwf refinement: faithful re-parse %8.3fs, cached "
      "geometries %8.3fs -> %5.2fx\n",
      faithful_s, cached_s, faithful_s / cached_s);
  std::printf(
      "(the cached variant is the paper's future-work optimization; the "
      "gap is the price of WKT-in-UDF refinement)\n");

  // ---- Prepared-refinement ablation (kernel-level): the same
  // BroadcastIndex probe phase with exact refinement vs prepared
  // point-in-polygon grids. --prepared=0 or --prepared=1 pins one
  // variant; the default runs both and reports the speedup.
  const int64_t prepared_flag = flags.GetInt("prepared", -1);
  std::printf(
      "\nPrepared-refinement ablation (probe phase only, CPU seconds)\n");
  for (const data::Workload* w :
       {&bench.suite().taxi_nycb, &bench.suite().g10m_wwf}) {
    auto left_records = LoadIdGeometries(bench.fs(), w->left);
    auto right_records = LoadIdGeometries(bench.fs(), w->right);
    const std::span<const join::IdGeometry> probes(left_records.data(),
                                                   left_records.size());
    double exact_seconds = 0.0;
    size_t exact_pairs = 0;
    if (prepared_flag != 1) {
      join::BroadcastIndex index(right_records, w->predicate.FilterRadius());
      std::vector<join::IdPair> pairs;
      join::ProbeStats stats;
      CpuTimer watch;
      index.Probe(probes, w->predicate, join::ProbeOptions(),
                  [&pairs](int64_t, const join::IdPair& pair) {
                    pairs.push_back(pair);
                  },
                  &stats);
      exact_seconds = watch.ElapsedSeconds();
      exact_pairs = pairs.size();
      std::printf("%-14s prepared=0: probe %8.4fs (%zu pairs)\n",
                  w->name.c_str(), exact_seconds, pairs.size());
    }
    if (prepared_flag != 0) {
      join::BroadcastIndex index(right_records, w->predicate.FilterRadius(),
                                 join::PrepareOptions::Prepared());
      std::vector<join::IdPair> pairs;
      join::ProbeStats stats;
      CpuTimer watch;
      index.Probe(probes, w->predicate, join::ProbeOptions(),
                  [&pairs](int64_t, const join::IdPair& pair) {
                    pairs.push_back(pair);
                  },
                  &stats);
      double prepared_seconds = watch.ElapsedSeconds();
      std::printf(
          "%-14s prepared=1: probe %8.4fs (%zu pairs, %lld grids in "
          "%.4fs, %lld/%lld boundary fallbacks)\n",
          w->name.c_str(), prepared_seconds, pairs.size(),
          static_cast<long long>(index.num_prepared()),
          index.prepare_seconds(),
          static_cast<long long>(stats.Get(exec::Stat::kBoundaryFallbacks)),
          static_cast<long long>(stats.Get(exec::Stat::kPreparedHits)));
      if (prepared_flag == -1) {
        CLOUDJOIN_CHECK(pairs.size() == exact_pairs)
            << "prepared refinement changed the result";
        std::printf("%-14s probe-phase speedup: %14.2fx\n", w->name.c_str(),
                    exact_seconds / prepared_seconds);
      }
    }
  }

  // ---- Parallel probe engine: byte-identical output at every thread
  // count (contiguous shards concatenated in order), measured wall-clock.
  std::printf(
      "\nParallel probe engine on G10M-wwf (prepared=1, wall seconds)\n");
  {
    auto left_records = LoadIdGeometries(bench.fs(), heavy.left);
    auto right_records = LoadIdGeometries(bench.fs(), heavy.right);
    const auto serial = join::BroadcastSpatialJoin(
        left_records, right_records, heavy.predicate, nullptr,
        join::PrepareOptions::Prepared());
    for (int threads : {1, 2, 4, 8}) {
      Stopwatch watch;
      auto parallel = join::ParallelBroadcastSpatialJoin(
          left_records, right_records, heavy.predicate, threads,
          join::PrepareOptions::Prepared());
      double seconds = watch.ElapsedSeconds();
      CLOUDJOIN_CHECK(parallel == serial)
          << "parallel output diverged at " << threads << " threads";
      std::printf(
          "  threads=%d: %8.4fs, %zu pairs, byte-identical to serial\n",
          threads, seconds, parallel.size());
    }
  }
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(
      argc, argv, cloudjoin::bench::PaperBenchFlags({"prepared"}));
  cloudjoin::bench::Run(flags);
  return 0;
}
