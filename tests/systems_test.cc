#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "exec/counter_names.h"
#include "join/isp_mc_system.h"
#include "plan/planner.h"
#include "join/spatial_spark_system.h"
#include "join/standalone_mc.h"

namespace cloudjoin::join {
namespace {

std::vector<IdPair> Sorted(std::vector<IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// End-to-end cross-system equivalence on a miniature version of every
/// paper workload: SpatialSpark (fast kernel), ISP-MC (SQL + GEOS-role
/// kernel, both refinement modes), and standalone all produce the same
/// pair set — the load-bearing correctness property of the reproduction.
class SystemsTest : public ::testing::Test {
 protected:
  SystemsTest() : fs_(4, /*block_size=*/16 * 1024) {
    auto suite = data::MaterializeWorkloads(&fs_, /*scale=*/0.02, /*seed=*/7);
    CLOUDJOIN_CHECK(suite.ok()) << suite.status();
    suite_ = std::move(suite).value();
  }

  void CheckWorkload(const data::Workload& workload) {
    SpatialSparkSystem spark(&fs_, /*num_partitions=*/8);
    auto spark_run = spark.Join(workload.left, workload.right,
                                workload.predicate);
    ASSERT_TRUE(spark_run.ok()) << spark_run.status();

    IspMcSystem isp(&fs_);
    auto isp_run = isp.Join(workload.left, workload.right,
                            workload.predicate);
    ASSERT_TRUE(isp_run.ok()) << isp_run.status();

    impala::QueryOptions cached;
    cached.cache_parsed_geometries = true;
    IspMcSystem isp_cached(&fs_);
    auto isp_cached_run = isp_cached.Join(workload.left, workload.right,
                                          workload.predicate, cached);
    ASSERT_TRUE(isp_cached_run.ok()) << isp_cached_run.status();

    StandaloneMc standalone(&fs_);
    auto standalone_run = standalone.Join(workload.left, workload.right,
                                          workload.predicate);
    ASSERT_TRUE(standalone_run.ok()) << standalone_run.status();

    // Prepared-refinement variants of each engine must be bit-equal too.
    SpatialSparkSystem spark_prepared(&fs_, /*num_partitions=*/8,
                                      PrepareOptions::Prepared());
    auto spark_prepared_run = spark_prepared.Join(
        workload.left, workload.right, workload.predicate);
    ASSERT_TRUE(spark_prepared_run.ok()) << spark_prepared_run.status();

    impala::QueryOptions prepared;
    prepared.prepare_geometries = true;
    IspMcSystem isp_prepared(&fs_);
    auto isp_prepared_run = isp_prepared.Join(
        workload.left, workload.right, workload.predicate, prepared);
    ASSERT_TRUE(isp_prepared_run.ok()) << isp_prepared_run.status();

    auto standalone_prepared_run =
        standalone.Join(workload.left, workload.right, workload.predicate,
                        PrepareOptions::Prepared());
    ASSERT_TRUE(standalone_prepared_run.ok())
        << standalone_prepared_run.status();

    auto expected = Sorted(spark_run->pairs);
    EXPECT_FALSE(expected.empty())
        << workload.name << ": degenerate (no matches)";
    EXPECT_EQ(Sorted(isp_run->pairs), expected) << workload.name;
    EXPECT_EQ(Sorted(isp_cached_run->pairs), expected) << workload.name;
    EXPECT_EQ(Sorted(standalone_run->pairs), expected) << workload.name;
    EXPECT_EQ(Sorted(spark_prepared_run->pairs), expected) << workload.name;
    EXPECT_EQ(Sorted(isp_prepared_run->pairs), expected) << workload.name;
    EXPECT_EQ(Sorted(standalone_prepared_run->pairs), expected)
        << workload.name;
  }

  dfs::SimFileSystem fs_;
  data::WorkloadSuite suite_;
};

TEST_F(SystemsTest, TaxiNycbAllSystemsAgree) { CheckWorkload(suite_.taxi_nycb); }

TEST_F(SystemsTest, TaxiLion100AllSystemsAgree) {
  CheckWorkload(suite_.taxi_lion_100);
}

TEST_F(SystemsTest, TaxiLion500AllSystemsAgree) {
  CheckWorkload(suite_.taxi_lion_500);
}

TEST_F(SystemsTest, G10mWwfAllSystemsAgree) { CheckWorkload(suite_.g10m_wwf); }

TEST_F(SystemsTest, EveryEngineReportsTheSameProbeCounts) {
  // SpatialSpark, standalone and ISP-MC (broadcast) all probe through the
  // one exec::RunProbes driver, so the sFilter drops, filter candidates
  // and refinement matches are counted identically whatever the geometry
  // kernel or execution layout. The partitioned paths probe per tile and
  // refine a replicated candidate only in the tile that owns it, so they
  // count the same candidates and matches too (ISP-MC's sFilter runs once
  // over the whole right side; SpatialSpark's is per tile, so its skip
  // count differs). Values pinned at scale 0.02, seed 7.
  struct Expected {
    const data::Workload* workload;
    int64_t candidates;
    int64_t matches;
    int64_t sfilter_skipped;
  };
  const Expected expected[] = {
      {&suite_.taxi_nycb, 3115, 2364, 36},
      {&suite_.taxi_lion_100, 289, 231, 1395},
      {&suite_.taxi_lion_500, 1909, 1780, 734},
      {&suite_.g10m_wwf, 74, 43, 827},
      {&suite_.hotspot_nycb, 3183, 2322, 78},
  };
  for (const Expected& e : expected) {
    const data::Workload& w = *e.workload;
    SpatialSparkSystem spark(&fs_, /*num_partitions=*/8);
    auto spark_run = spark.Join(w.left, w.right, w.predicate);
    ASSERT_TRUE(spark_run.ok()) << spark_run.status();
    StandaloneMc standalone(&fs_);
    auto standalone_run = standalone.Join(w.left, w.right, w.predicate);
    ASSERT_TRUE(standalone_run.ok()) << standalone_run.status();
    impala::QueryOptions broadcast;
    broadcast.join_strategy = plan::JoinStrategy::kBroadcast;
    IspMcSystem isp(&fs_);
    auto isp_run = isp.Join(w.left, w.right, w.predicate, broadcast);
    ASSERT_TRUE(isp_run.ok()) << isp_run.status();
    impala::QueryOptions partitioned;
    partitioned.join_strategy = plan::JoinStrategy::kPartitioned;
    partitioned.partitioned_tiles = 5;
    auto isp_tiled = isp.Join(w.left, w.right, w.predicate, partitioned);
    ASSERT_TRUE(isp_tiled.ok()) << isp_tiled.status();
    auto spark_tiled =
        spark.PartitionedJoin(w.left, w.right, w.predicate, /*num_tiles=*/5);
    ASSERT_TRUE(spark_tiled.ok()) << spark_tiled.status();

    const std::pair<const char*, const Counters*> engines[] = {
        {"spark", &spark_run->counters},
        {"standalone", &standalone_run->counters},
        {"ispmc", &isp_run->metrics.counters},
        {"ispmc_partitioned", &isp_tiled->metrics.counters},
        {"spark_partitioned", &spark_tiled->counters},
    };
    for (const auto& [engine, counters] : engines) {
      EXPECT_EQ(counters->Get(exec::counter::kCandidates), e.candidates)
          << w.name << " " << engine;
      EXPECT_EQ(counters->Get(exec::counter::kMatches), e.matches)
          << w.name << " " << engine;
      // SpatialSpark's partitioned sFilter is per tile.
      if (std::string_view(engine) == "spark_partitioned") continue;
      EXPECT_EQ(counters->Get(exec::counter::kSfilterSkipped),
                e.sfilter_skipped)
          << w.name << " " << engine;
    }
  }
}

TEST_F(SystemsTest, SparkRunRecordsMetrics) {
  SpatialSparkSystem spark(&fs_, 8);
  auto run = spark.Join(suite_.taxi_nycb.left, suite_.taxi_nycb.right,
                        suite_.taxi_nycb.predicate);
  ASSERT_TRUE(run.ok());
  EXPECT_GE(run->stages.size(), 4u);  // 2 count stages + 2 collects
  EXPECT_GT(run->broadcast_bytes, 0);
  EXPECT_GT(run->driver_build_seconds, 0.0);
  for (const auto& stage : run->stages) {
    EXPECT_EQ(stage.task_seconds.size(), 8u);
  }
}

TEST_F(SystemsTest, SparkRunPopulatesJoinCounters) {
  // The probe path threads the run's Counters through, so join.* metrics
  // land in the run and in the simulated RunReport.
  SpatialSparkSystem spark(&fs_, 8, PrepareOptions::Prepared());
  auto run = spark.Join(suite_.taxi_nycb.left, suite_.taxi_nycb.right,
                        suite_.taxi_nycb.predicate);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->counters.Get("join.candidates"), 0);
  EXPECT_EQ(run->counters.Get("join.matches"),
            static_cast<int64_t>(run->pairs.size()));
  EXPECT_GT(run->counters.Get("join.prepared_records"), 0);
  EXPECT_GT(run->counters.Get("join.prepared_hits"), 0);
  sim::RunReport report = SpatialSparkSystem::Simulate(
      *run, sim::ClusterSpec::InHouseSingleNode(), sim::CostModel(),
      "taxi-nycb");
  EXPECT_EQ(report.counters.Get("join.candidates"),
            run->counters.Get("join.candidates"));

  // PartitionedJoin threads the same counters through its tile joins.
  auto tiled = spark.PartitionedJoin(suite_.taxi_nycb.left,
                                     suite_.taxi_nycb.right,
                                     suite_.taxi_nycb.predicate, 4);
  ASSERT_TRUE(tiled.ok());
  EXPECT_GT(tiled->counters.Get("join.candidates"), 0);
  EXPECT_EQ(tiled->counters.Get("join.matches"),
            static_cast<int64_t>(tiled->pairs.size()));
}

TEST_F(SystemsTest, SimulatedReportsAreConsistent) {
  SpatialSparkSystem spark(&fs_, 8);
  auto run = spark.Join(suite_.taxi_nycb.left, suite_.taxi_nycb.right,
                        suite_.taxi_nycb.predicate);
  ASSERT_TRUE(run.ok());
  sim::CostModel cost;
  sim::RunReport single = SpatialSparkSystem::Simulate(
      *run, sim::ClusterSpec::InHouseSingleNode(), cost, "taxi-nycb");
  EXPECT_EQ(single.result_count, static_cast<int64_t>(run->pairs.size()));
  // Breakdown sums to the headline number.
  double sum = 0;
  for (const auto& [name, seconds] : single.breakdown) sum += seconds;
  EXPECT_NEAR(sum, single.simulated_seconds, 1e-9);
  // Compute shrinks with more nodes.
  sim::RunReport n4 =
      SpatialSparkSystem::Simulate(*run, sim::ClusterSpec::Ec2(4), cost,
                                   "taxi-nycb");
  sim::RunReport n10 =
      SpatialSparkSystem::Simulate(*run, sim::ClusterSpec::Ec2(10), cost,
                                   "taxi-nycb");
  EXPECT_LE(n10.breakdown.at("stage compute"),
            n4.breakdown.at("stage compute") + 1e-9);
}

TEST_F(SystemsTest, IspMcScalesNearLinearly) {
  // A fixed task bag, one scan task per taxi-nycb scan range, so the
  // replay never depends on how loaded the host was during a live run.
  auto left_file = fs_.GetFile(suite_.taxi_nycb.left.path);
  ASSERT_TRUE(left_file.ok()) << left_file.status();
  IspMcJoinRun run;
  for (size_t i = 0; i < (*left_file)->blocks().size(); ++i) {
    impala::ScanRangeTiming task;
    task.seconds = 0.02 + 0.005 * static_cast<double>(i % 3);
    run.metrics.scan_tasks.push_back(task);
  }
  ASSERT_GE(run.metrics.scan_tasks.size(), 2u);
  sim::CostModel cost;
  sim::RunReport n4 =
      IspMcSystem::Simulate(run, sim::ClusterSpec::Ec2(4), cost, "x");
  sim::RunReport n10 =
      IspMcSystem::Simulate(run, sim::ClusterSpec::Ec2(10), cost, "x");
  // At this miniature scale there are only a handful of scan-range tasks,
  // so node-speed heterogeneity can make the 10-node makespan tie or
  // slightly exceed the 4-node one; allow a small tolerance (the paper-
  // scale benches use ~170 tasks where scaling is clean).
  EXPECT_LT(n10.breakdown.at("scan+join compute"),
            n4.breakdown.at("scan+join compute") * 1.10 + 1e-9);
}

TEST_F(SystemsTest, StandaloneFasterOrEqualInfrastructure) {
  // The ISP-MC backend runs the same work through row batches and
  // expression evaluation; standalone runs bare loops. Local compute time
  // of ISP-MC should therefore be >= standalone's (the paper's Table 1
  // infrastructure overhead, 7-14 % there).
  IspMcSystem isp(&fs_);
  auto isp_run = isp.Join(suite_.g10m_wwf.left, suite_.g10m_wwf.right,
                          suite_.g10m_wwf.predicate);
  ASSERT_TRUE(isp_run.ok());
  StandaloneMc standalone(&fs_);
  auto sa_run = standalone.Join(suite_.g10m_wwf.left, suite_.g10m_wwf.right,
                                suite_.g10m_wwf.predicate);
  ASSERT_TRUE(sa_run.ok());
  double isp_compute = 0;
  for (const auto& t : isp_run->metrics.scan_tasks) isp_compute += t.seconds;
  double sa_compute = 0;
  for (double s : sa_run->block_seconds) sa_compute += s;
  // Allow generous noise margin on a 1-core CI box; the invariant is
  // "not dramatically faster".
  EXPECT_GT(isp_compute, 0.5 * sa_compute);
}

TEST_F(SystemsTest, ForcedStrategiesProduceIdenticalPairs) {
  // The planner's strategy choice must be invisible in the result set:
  // forced broadcast, forced partitioned (static and adaptive), and the
  // sFilter ablation all emit the same pairs for every mini workload.
  const data::Workload* workloads[] = {&suite_.taxi_nycb, &suite_.g10m_wwf,
                                       &suite_.hotspot_nycb};
  for (const data::Workload* w : workloads) {
    auto run_with = [&](impala::QueryOptions options) {
      IspMcSystem isp(&fs_);
      auto run = isp.Join(w->left, w->right, w->predicate, options);
      CLOUDJOIN_CHECK(run.ok()) << run.status();
      return std::move(run).value();
    };
    impala::QueryOptions broadcast;
    broadcast.join_strategy = plan::JoinStrategy::kBroadcast;
    impala::QueryOptions partitioned_static;
    partitioned_static.join_strategy = plan::JoinStrategy::kPartitioned;
    partitioned_static.partitioned_tiles = 16;
    partitioned_static.adaptive_partitioning = false;
    impala::QueryOptions partitioned_adaptive;
    partitioned_adaptive.join_strategy = plan::JoinStrategy::kPartitioned;
    partitioned_adaptive.partitioned_tiles = 16;
    impala::QueryOptions no_sfilter;
    no_sfilter.probe.sfilter = false;

    auto b = run_with(broadcast);
    auto ps = run_with(partitioned_static);
    auto pa = run_with(partitioned_adaptive);
    auto ns = run_with(no_sfilter);
    auto expected = Sorted(b.pairs);
    EXPECT_FALSE(expected.empty()) << w->name;
    EXPECT_EQ(Sorted(ps.pairs), expected) << w->name;
    EXPECT_EQ(Sorted(pa.pairs), expected) << w->name;
    EXPECT_EQ(Sorted(ns.pairs), expected) << w->name;

    // Plan metadata: the decision string and exactly one plan.* strategy
    // counter are recorded on every spatial join.
    for (const IspMcJoinRun* run : {&b, &ps, &pa, &ns}) {
      EXPECT_FALSE(run->metrics.plan_decision.empty()) << w->name;
      const int64_t chose_broadcast =
          run->metrics.counters.Get(exec::counter::kPlanStrategyBroadcast);
      const int64_t chose_partitioned =
          run->metrics.counters.Get(exec::counter::kPlanStrategyPartitioned);
      EXPECT_EQ(chose_broadcast + chose_partitioned, 1) << w->name;
    }
    EXPECT_EQ(b.metrics.counters.Get(exec::counter::kPlanStrategyBroadcast),
              1);
    EXPECT_EQ(
        ps.metrics.counters.Get(exec::counter::kPlanStrategyPartitioned), 1);

    // Partitioned runs carry the per-tile task population the cluster
    // replay schedules separately from scan ranges.
    EXPECT_TRUE(b.metrics.join_task_seconds.empty()) << w->name;
    EXPECT_FALSE(ps.metrics.join_task_seconds.empty()) << w->name;
    EXPECT_FALSE(pa.metrics.join_task_seconds.empty()) << w->name;
    EXPECT_EQ(ps.metrics.join_task_seconds.size(), 16u) << w->name;
  }
}

TEST_F(SystemsTest, HotspotWorkloadTriggersAdaptiveSplitting) {
  // On the skewed workload the adaptive partitioned plan must actually
  // split hot tiles (and record it), growing the tile task population.
  impala::QueryOptions options;
  options.join_strategy = plan::JoinStrategy::kPartitioned;
  options.partitioned_tiles = 16;
  IspMcSystem isp(&fs_);
  auto run = isp.Join(suite_.hotspot_nycb.left, suite_.hotspot_nycb.right,
                      suite_.hotspot_nycb.predicate, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->metrics.counters.Get(exec::counter::kHotTilesSplit), 0);
  EXPECT_GT(run->metrics.join_task_seconds.size(), 16u);
}

TEST_F(SystemsTest, MissingInputIsNotFound) {
  SpatialSparkSystem spark(&fs_, 4);
  TableInput missing{"/data/nope.tsv", '\t', 0, 1};
  EXPECT_FALSE(
      spark.Join(missing, suite_.taxi_nycb.right, SpatialPredicate::Within())
          .ok());
  IspMcSystem isp(&fs_);
  EXPECT_FALSE(
      isp.Join(missing, suite_.taxi_nycb.right, SpatialPredicate::Within())
          .ok());
  StandaloneMc standalone(&fs_);
  EXPECT_FALSE(standalone
                   .Join(missing, suite_.taxi_nycb.right,
                         SpatialPredicate::Within())
                   .ok());
}

}  // namespace
}  // namespace cloudjoin::join

namespace cloudjoin::join {
namespace {

class PartitionedSparkTest : public ::testing::Test {
 protected:
  PartitionedSparkTest() : fs_(4, 16 * 1024) {
    auto suite = data::MaterializeWorkloads(&fs_, 0.02, 11);
    CLOUDJOIN_CHECK(suite.ok()) << suite.status();
    suite_ = std::move(suite).value();
  }

  dfs::SimFileSystem fs_;
  data::WorkloadSuite suite_;
};

TEST_F(PartitionedSparkTest, MatchesBroadcastJoinOnWithin) {
  SpatialSparkSystem spark(&fs_, 8);
  const data::Workload& w = suite_.taxi_nycb;
  auto broadcast = spark.Join(w.left, w.right, w.predicate);
  ASSERT_TRUE(broadcast.ok()) << broadcast.status();
  for (int tiles : {1, 4, 16}) {
    auto partitioned = spark.PartitionedJoin(w.left, w.right, w.predicate,
                                             tiles);
    ASSERT_TRUE(partitioned.ok()) << partitioned.status();
    auto a = broadcast->pairs;
    auto b = partitioned->pairs;
    std::sort(a.begin(), a.end());
    EXPECT_EQ(a, b) << "tiles=" << tiles;  // partitioned output is sorted
  }
}

TEST_F(PartitionedSparkTest, MatchesBroadcastJoinOnNearestD) {
  SpatialSparkSystem spark(&fs_, 8);
  const data::Workload& w = suite_.taxi_lion_500;
  auto broadcast = spark.Join(w.left, w.right, w.predicate);
  ASSERT_TRUE(broadcast.ok()) << broadcast.status();
  auto partitioned =
      spark.PartitionedJoin(w.left, w.right, w.predicate, 12);
  ASSERT_TRUE(partitioned.ok()) << partitioned.status();
  auto a = broadcast->pairs;
  std::sort(a.begin(), a.end());
  EXPECT_EQ(a, partitioned->pairs);
  EXPECT_FALSE(partitioned->pairs.empty());
}

TEST_F(PartitionedSparkTest, RecordsShuffleStages) {
  SpatialSparkSystem spark(&fs_, 8);
  const data::Workload& w = suite_.taxi_nycb;
  auto run = spark.PartitionedJoin(w.left, w.right, w.predicate, 8);
  ASSERT_TRUE(run.ok());
  int shuffle_stages = 0;
  for (const auto& stage : run->stages) {
    if (stage.name.find("shuffleWrite") != std::string::npos) {
      ++shuffle_stages;
    }
  }
  EXPECT_EQ(shuffle_stages, 2);  // both sides shuffled
  EXPECT_EQ(run->broadcast_bytes, 0);  // nothing broadcast in this mode
}

TEST_F(PartitionedSparkTest, InvalidArguments) {
  SpatialSparkSystem spark(&fs_, 4);
  const data::Workload& w = suite_.taxi_nycb;
  EXPECT_FALSE(spark.PartitionedJoin(w.left, w.right, w.predicate, 0).ok());
  TableInput missing{"/nope", '\t', 0, 1};
  EXPECT_FALSE(
      spark.PartitionedJoin(missing, w.right, w.predicate, 4).ok());
}

/// Serving-layer hook: a `BuildRight` artifact injected back into `Join`
/// must skip the build (reporting it as free) without changing a single
/// output pair — the contract the broadcast-index cache relies on.
TEST_F(PartitionedSparkTest, StandalonePrebuiltRightMatchesInlineBuild) {
  StandaloneMc standalone(&fs_);
  const data::Workload& w = suite_.taxi_nycb;

  auto inline_run = standalone.Join(w.left, w.right, w.predicate);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status();
  EXPECT_GT(inline_run->build_seconds, 0.0);

  auto built = standalone.BuildRight(w.right, w.predicate);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_GT((*built)->MemoryBytes(), 0);
  auto cached_run =
      standalone.Join(w.left, w.right, w.predicate, PrepareOptions(), *built);
  ASSERT_TRUE(cached_run.ok()) << cached_run.status();

  EXPECT_EQ(cached_run->pairs, inline_run->pairs);
  EXPECT_EQ(cached_run->build_seconds, 0.0);
  EXPECT_EQ(cached_run->counters.Get("join.index_cache_hit"), 1);
  EXPECT_EQ(cached_run->counters.Get("join.right_rows"), 0);
}

}  // namespace
}  // namespace cloudjoin::join
