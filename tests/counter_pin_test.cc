#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "data/convert.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "exec/counter_names.h"
#include "geom/wkt.h"
#include "join/broadcast_spatial_join.h"
#include "join/isp_mc_system.h"
#include "join/partitioned_spatial_join.h"
#include "join/spatial_spark_system.h"
#include "join/standalone_mc.h"
#include "server/query_service.h"

namespace cloudjoin::join {
namespace {

/// Renders a run's counters as sorted "name=value" words, minus the two
/// names whose value is not a count of the run's work:
/// join.prepare_micros is a timer, and join.filter_simd_lanes_used is
/// absent on scalar builds.
std::string Render(const Counters& counters) {
  std::ostringstream os;
  for (const auto& [name, value] : counters.Snapshot()) {
    if (name == "join.prepare_micros" ||
        name == exec::counter::kFilterSimdLanes) {
      continue;
    }
    if (os.tellp() > 0) os << ' ';
    os << name << '=' << value;
  }
  return os.str();
}

/// A text table with one malformed line, one unparseable geometry and
/// four points far outside the polygons, placed so that the columnar copy
/// (4 rows per block, the two bad lines dropped) has one whole block
/// outside the right side's extent.
const std::vector<std::string> kMiniLeft = {
    "1\tPOINT (1 1)",       "2\tPOINT (5 5)",       "3\tPOINT (25 5)",
    "4\tPOINT (15 5)",      "99",                   "5\tPOINT (5 25)",
    "6\tPOINT (oops)",      "7\tPOINT (9 9)",       "12\tPOINT (29 9)",
    "13\tPOINT (3 3)",      "8\tPOINT (1000 1000)", "9\tPOINT (1001 1001)",
    "10\tPOINT (1002 1002)", "11\tPOINT (1003 1003)",
};
const std::vector<std::string> kMiniRight = {
    "1\tPOLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
    "2\tPOLYGON ((20 0, 30 0, 30 10, 20 10, 20 0))",
    "3\tPOLYGON ((0 20, 10 20, 10 30, 0 30, 0 20))",
};

/// One join input set: text left and right, plus a columnar copy of the
/// left side.
struct Dataset {
  std::string name;
  TableInput left;
  TableInput right;
  TableInput left_columnar;
  SpatialPredicate predicate;
};

/// Pins every engine's full counter snapshot on a hand-made table pair
/// (which supplies the rare names: malformed lines, bad geometries, a
/// pruned columnar block) and on taxi-nycb at scale 0.02, seed 7. A
/// change to how counts are collected must leave every name and value
/// as it is.
class CounterPinTest : public ::testing::Test {
 protected:
  CounterPinTest() : fs_(4, /*block_size=*/16 * 1024) {
    auto suite = data::MaterializeWorkloads(&fs_, /*scale=*/0.02, /*seed=*/7);
    CLOUDJOIN_CHECK(suite.ok()) << suite.status();
    CLOUDJOIN_CHECK(fs_.WriteTextFile("/mini/left.txt", kMiniLeft).ok());
    CLOUDJOIN_CHECK(fs_.WriteTextFile("/mini/right.txt", kMiniRight).ok());
    Dataset mini;
    mini.name = "mini";
    mini.left.path = "/mini/left.txt";
    mini.right.path = "/mini/right.txt";
    mini.predicate = SpatialPredicate::Within();
    mini.left_columnar = Columnar(mini.left, "/mini/left.col", 4);
    Dataset taxi;
    taxi.name = "taxi_nycb";
    taxi.left = suite->taxi_nycb.left;
    taxi.right = suite->taxi_nycb.right;
    taxi.predicate = suite->taxi_nycb.predicate;
    taxi.left_columnar = Columnar(taxi.left, "/taxi/left.col", 64);
    datasets_ = {mini, taxi};
  }

  TableInput Columnar(const TableInput& text, const std::string& path,
                      int64_t block_rows) {
    auto columnar =
        data::ConvertTextTableToColumnar(&fs_, text, path, block_rows);
    CLOUDJOIN_CHECK(columnar.ok()) << columnar.status();
    return *columnar;
  }

  /// Well-formed (id, geometry) records of a text table, for the
  /// in-memory joins.
  std::vector<IdGeometry> Records(const TableInput& input) {
    auto file = fs_.GetFile(input.path);
    CLOUDJOIN_CHECK(file.ok()) << file.status();
    std::vector<IdGeometry> records;
    for (std::string_view line : StrSplit((*file)->data(), '\n')) {
      std::vector<std::string_view> fields = StrSplit(line, '\t');
      if (fields.size() < 2) continue;
      auto id = ParseInt64(fields[0]);
      auto geometry = geom::ReadWkt(std::string(fields[1]));
      if (!id.ok() || !geometry.ok()) continue;
      records.push_back({*id, std::move(geometry).value()});
    }
    return records;
  }

  /// Every engine arm's rendered counters on `d`, keyed by arm name.
  std::map<std::string, std::string> RunArms(const Dataset& d) {
    std::map<std::string, std::string> arms;
    auto ispmc = [&](const std::string& arm, const TableInput& left,
                     impala::QueryOptions options) {
      IspMcSystem isp(&fs_);
      auto run = isp.Join(left, d.right, d.predicate, options);
      ASSERT_TRUE(run.ok()) << arm << ": " << run.status();
      arms[arm] = Render(run->metrics.counters);
    };
    impala::QueryOptions broadcast;
    broadcast.join_strategy = plan::JoinStrategy::kBroadcast;
    impala::QueryOptions partitioned;
    partitioned.join_strategy = plan::JoinStrategy::kPartitioned;
    partitioned.partitioned_tiles = 5;
    ispmc("ispmc.broadcast", d.left, broadcast);
    ispmc("ispmc.partitioned", d.left, partitioned);
    ispmc("ispmc.columnar", d.left_columnar, broadcast);

    if (d.name == "mini") {
      IspMcSystem isp(&fs_);
      EXPECT_TRUE(isp.RegisterTable("pnt", d.left).ok());
      EXPECT_TRUE(isp.RegisterTable("poly", d.right).ok());
      auto cross = isp.runtime()->Execute(
          "SELECT pnt.id, poly.id FROM pnt CROSS JOIN poly "
          "WHERE ST_WITHIN(pnt.geom, poly.geom)");
      EXPECT_TRUE(cross.ok()) << cross.status();
      if (cross.ok()) arms["ispmc.cross"] = Render(cross->metrics.counters);
    }

    StandaloneMc standalone(&fs_);
    auto text = standalone.Join(d.left, d.right, d.predicate);
    EXPECT_TRUE(text.ok()) << text.status();
    if (text.ok()) arms["standalone.text"] = Render(text->counters);
    auto columnar =
        standalone.Join(d.left_columnar, d.right, d.predicate);
    EXPECT_TRUE(columnar.ok()) << columnar.status();
    if (columnar.ok()) arms["standalone.columnar"] = Render(columnar->counters);

    SpatialSparkSystem spark(&fs_, /*num_partitions=*/8);
    auto spark_run = spark.Join(d.left, d.right, d.predicate);
    EXPECT_TRUE(spark_run.ok()) << spark_run.status();
    if (spark_run.ok()) arms["spark.join"] = Render(spark_run->counters);
    SpatialSparkSystem spark_prepared(&fs_, /*num_partitions=*/8,
                                      PrepareOptions::Prepared());
    auto spark_tiled =
        spark_prepared.PartitionedJoin(d.left, d.right, d.predicate, 5);
    EXPECT_TRUE(spark_tiled.ok()) << spark_tiled.status();
    if (spark_tiled.ok()) {
      arms["spark.partitioned_prepared"] = Render(spark_tiled->counters);
    }

    const std::vector<IdGeometry> left = Records(d.left);
    const std::vector<IdGeometry> right = Records(d.right);
    Counters serial;
    BroadcastSpatialJoin(left, right, d.predicate, &serial);
    arms["mem.broadcast"] = Render(serial);
    Counters parallel;
    ParallelBroadcastSpatialJoin(left, right, d.predicate, /*num_threads=*/3,
                                 PrepareOptions(), &parallel);
    arms["mem.parallel"] = Render(parallel);
    Counters tiled;
    PartitionedSpatialJoin(left, right, d.predicate, /*num_tiles=*/4, &tiled);
    arms["mem.partitioned"] = Render(tiled);

    server::QueryService service(&fs_);
    EXPECT_TRUE(service.RegisterTable("lt", d.left).ok());
    EXPECT_TRUE(service.RegisterTable("rt", d.right).ok());
    server::Session* session = service.CreateSession();
    const std::string sql = "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt "
                            "WHERE " + PredicateSql(d.predicate, "lt", "rt");
    EXPECT_TRUE(service.Execute(session, sql).ok());
    auto warm = service.Execute(session, sql);
    EXPECT_TRUE(warm.ok()) << warm.status();
    if (warm.ok()) arms["service.warm"] = Render(warm->result.metrics.counters);
    return arms;
  }

  dfs::SimFileSystem fs_;
  std::vector<Dataset> datasets_;
};

TEST_F(CounterPinTest, EveryRunKeepsItsCounterSnapshot) {
  const std::map<std::string, std::string> expected = {
      {"mini/ispmc.broadcast",
       "join.candidates=7 join.filter_batches=1 "
       "join.filter_candidates=7 join.left_bad_geom=1 join.matches=7 "
       "join.refinements=7 join.right_rows=3 join.sfilter_skipped=5 "
       "plan.strategy_broadcast=1 scan.lines=17 scan.malformed=1"},
      {"mini/ispmc.columnar",
       "join.candidates=7 join.filter_batches=1 "
       "join.filter_candidates=7 join.matches=7 join.refinements=7 "
       "join.right_rows=3 join.sfilter_skipped=1 "
       "plan.strategy_broadcast=1 scan.blocks_pruned=1 "
       "scan.blocks_total=3 scan.lines=3 scan.rows_materialized=8 "
       "scan.rows_scanned=8"},
      {"mini/ispmc.cross",
       "join.pairs=39 join.right_rows=3 scan.lines=17 scan.malformed=1"},
      {"mini/ispmc.partitioned",
       "join.candidates=7 join.filter_batches=7 "
       "join.filter_candidates=13 join.hot_tiles_split=1 "
       "join.left_bad_geom=1 join.matches=7 join.refinements=7 "
       "join.right_rows=3 join.sfilter_skipped=5 "
       "plan.strategy_partitioned=1 scan.lines=17 scan.malformed=1"},
      {"mini/mem.broadcast",
       "join.candidates=7 join.filter_batches=1 "
       "join.filter_candidates=7 join.matches=7 join.sfilter_skipped=5"},
      {"mini/mem.parallel",
       "join.candidates=7 join.filter_batches=7 "
       "join.filter_candidates=7 join.matches=7 join.sfilter_skipped=5"},
      {"mini/mem.partitioned",
       "join.candidates=7 join.filter_batches=4 "
       "join.filter_candidates=11 join.matches=7 "
       "join.sfilter_skipped=5"},
      {"mini/service.warm",
       "join.candidates=7 join.filter_batches=1 "
       "join.filter_candidates=7 join.index_cache_hit=1 "
       "join.left_bad_geom=1 join.matches=7 join.refinements=7 "
       "join.sfilter_skipped=5 plan.strategy_broadcast=1 scan.lines=14 "
       "scan.malformed=1"},
      {"mini/spark.join",
       "join.candidates=7 join.filter_batches=4 "
       "join.filter_candidates=7 join.matches=7 join.sfilter_skipped=5"},
      {"mini/spark.partitioned_prepared",
       "join.candidates=7 join.filter_batches=5 "
       "join.filter_candidates=12 join.matches=7 "
       "join.sfilter_skipped=2"},
      {"mini/standalone.columnar",
       "join.candidates=7 join.filter_batches=2 "
       "join.filter_candidates=7 join.matches=7 join.right_rows=3 "
       "join.sfilter_skipped=1 scan.blocks_pruned=1 "
       "scan.blocks_total=3 scan.rows_materialized=7 "
       "scan.rows_scanned=8"},
      {"mini/standalone.text",
       "join.candidates=7 join.filter_batches=1 "
       "join.filter_candidates=7 join.left_bad_geom=1 "
       "join.left_malformed=1 join.matches=7 join.right_rows=3 "
       "join.sfilter_skipped=5"},
      {"taxi_nycb/ispmc.broadcast",
       "join.candidates=3115 join.filter_batches=11 "
       "join.filter_candidates=3115 join.matches=2364 "
       "join.refinements=3115 join.right_rows=784 "
       "join.sfilter_skipped=36 plan.strategy_broadcast=1 "
       "scan.lines=3184"},
      {"taxi_nycb/ispmc.columnar",
       "join.candidates=3115 join.filter_batches=11 "
       "join.filter_candidates=3115 join.matches=2364 "
       "join.refinements=3115 join.right_rows=784 "
       "join.sfilter_skipped=36 plan.strategy_broadcast=1 "
       "scan.blocks_total=38 scan.lines=784 "
       "scan.rows_materialized=2400 scan.rows_scanned=2400"},
      {"taxi_nycb/ispmc.partitioned",
       "join.candidates=3115 join.filter_batches=48 "
       "join.filter_candidates=3117 join.hot_tiles_split=1 "
       "join.matches=2364 join.refinements=3115 join.right_rows=784 "
       "join.sfilter_skipped=36 plan.strategy_partitioned=1 "
       "scan.lines=3184"},
      {"taxi_nycb/mem.broadcast",
       "join.candidates=3115 join.filter_batches=10 "
       "join.filter_candidates=3115 join.matches=2364 "
       "join.sfilter_skipped=36"},
      {"taxi_nycb/mem.parallel",
       "join.candidates=3115 join.filter_batches=24 "
       "join.filter_candidates=3115 join.matches=2364 "
       "join.sfilter_skipped=36"},
      {"taxi_nycb/mem.partitioned",
       "join.candidates=3115 join.filter_batches=11 "
       "join.filter_candidates=3115 join.matches=2364 "
       "join.sfilter_skipped=36"},
      {"taxi_nycb/service.warm",
       "join.candidates=3115 join.filter_batches=11 "
       "join.filter_candidates=3115 join.index_cache_hit=1 "
       "join.matches=2364 join.refinements=3115 "
       "join.sfilter_skipped=36 plan.strategy_broadcast=1 "
       "scan.lines=2400"},
      {"taxi_nycb/spark.join",
       "join.candidates=3115 join.filter_batches=16 "
       "join.filter_candidates=3115 join.matches=2364 "
       "join.sfilter_skipped=36"},
      {"taxi_nycb/spark.partitioned_prepared",
       "join.boundary_fallbacks=396 join.candidates=3115 "
       "join.filter_batches=12 join.filter_candidates=3115 "
       "join.matches=2364 join.prepared_hits=3115 "
       "join.prepared_records=856"},
      {"taxi_nycb/standalone.columnar",
       "join.candidates=3115 join.filter_batches=38 "
       "join.filter_candidates=3115 join.matches=2364 "
       "join.right_rows=784 join.sfilter_skipped=36 "
       "scan.blocks_total=38 scan.rows_materialized=2364 "
       "scan.rows_scanned=2400"},
      {"taxi_nycb/standalone.text",
       "join.candidates=3115 join.filter_batches=11 "
       "join.filter_candidates=3115 join.matches=2364 "
       "join.right_rows=784 join.sfilter_skipped=36"},
  };
  std::set<std::string> nonzero;
  for (const Dataset& d : datasets_) {
    for (const auto& [arm, actual] : RunArms(d)) {
      const std::string key = d.name + "/" + arm;
      auto it = expected.find(key);
      EXPECT_TRUE(it != expected.end() && it->second == actual)
          << "{\"" << key << "\",\n \"" << actual << "\"},";
      std::istringstream words(actual);
      std::string word;
      while (words >> word) {
        if (word.substr(word.find('=')) != "=0") {
          nonzero.insert(word.substr(0, word.find('=')));
        }
      }
    }
  }
  // The arms between them exercise every probe and scan count.
  for (const char* name :
       {"join.candidates", "join.matches", "join.filter_batches",
        "join.sfilter_skipped", "join.prepared_hits", "join.left_malformed",
        "join.left_bad_geom", "join.refinements", "join.pairs", "scan.lines",
        "scan.malformed", "scan.blocks_total", "scan.blocks_pruned",
        "scan.rows_scanned", "scan.rows_materialized"}) {
    EXPECT_TRUE(nonzero.count(name) == 1) << name;
  }
}

}  // namespace
}  // namespace cloudjoin::join
