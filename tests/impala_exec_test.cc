#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>

#include "common/thread_pool.h"
#include "data/convert.h"
#include "dfs/columnar_block.h"
#include "dfs/sim_file_system.h"
#include "exec/counter_names.h"
#include "impala/runtime.h"

namespace cloudjoin::impala {
namespace {

class ImpalaExecTest : public ::testing::Test {
 protected:
  ImpalaExecTest() : fs_(4, /*block_size=*/256), runtime_(&fs_, Catalog()) {
    // Points table: 3 inside the 10x10 square, 2 outside.
    CLOUDJOIN_CHECK_OK(fs_.WriteTextFile(
        "/pnt.tsv", {
                        "0\tPOINT (1 1)\t2",
                        "1\tPOINT (5 5)\t1",
                        "2\tPOINT (9 9)\t4",
                        "3\tPOINT (20 20)\t1",
                        "4\tPOINT (-3 4)\t6",
                    }));
    // Polygons: the unit-10 square and a far square.
    CLOUDJOIN_CHECK_OK(fs_.WriteTextFile(
        "/poly.tsv",
        {
            "0\tPOLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))\tnear",
            "1\tPOLYGON ((100 100, 110 100, 110 110, 100 110, 100 100))\tfar",
        }));
    TableDef pnt;
    pnt.name = "pnt";
    pnt.dfs_path = "/pnt.tsv";
    pnt.columns = {{"id", ColumnType::kInt64},
                   {"geom", ColumnType::kString},
                   {"passengers", ColumnType::kInt64}};
    TableDef poly;
    poly.name = "poly";
    poly.dfs_path = "/poly.tsv";
    poly.columns = {{"id", ColumnType::kInt64},
                    {"geom", ColumnType::kString},
                    {"label", ColumnType::kString}};
    CLOUDJOIN_CHECK_OK(runtime_.catalog()->RegisterTable(pnt));
    CLOUDJOIN_CHECK_OK(runtime_.catalog()->RegisterTable(poly));
  }

  QueryResult MustExecute(const std::string& sql,
                          const QueryOptions& options = QueryOptions()) {
    auto result = runtime_.Execute(sql, options);
    CLOUDJOIN_CHECK(result.ok()) << result.status();
    return std::move(result).value();
  }

  dfs::SimFileSystem fs_;
  ImpalaRuntime runtime_;
};

TEST_F(ImpalaExecTest, FullScan) {
  QueryResult r = MustExecute("SELECT id, passengers FROM pnt");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.column_names, (std::vector<std::string>{"id", "passengers"}));
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 0);
}

TEST_F(ImpalaExecTest, WhereFilterAndProjection) {
  QueryResult r = MustExecute(
      "SELECT id FROM pnt WHERE passengers > 1 AND id < 4");
  ASSERT_EQ(r.rows.size(), 2u);  // ids 0 (2 pax) and 2 (4 pax)
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 0);
  EXPECT_EQ(std::get<int64_t>(r.rows[1][0]), 2);
}

TEST_F(ImpalaExecTest, ArithmeticInProjection) {
  QueryResult r =
      MustExecute("SELECT id + 100, passengers * 2 FROM pnt WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 101);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][1]), 2);
}

TEST_F(ImpalaExecTest, StringComparison) {
  QueryResult r = MustExecute("SELECT id FROM poly WHERE label = 'near'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 0);
}

TEST_F(ImpalaExecTest, CountStarAggregate) {
  QueryResult r = MustExecute("SELECT COUNT(*) FROM pnt");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 5);
}

TEST_F(ImpalaExecTest, GroupByWithAggregates) {
  QueryResult r = MustExecute(
      "SELECT passengers, COUNT(*) AS n FROM pnt GROUP BY passengers");
  // passengers values: 2,1,4,1,6 -> groups {1:2, 2:1, 4:1, 6:1}.
  ASSERT_EQ(r.rows.size(), 4u);
  bool found_pair = false;
  for (const Row& row : r.rows) {
    if (std::get<int64_t>(row[0]) == 1) {
      EXPECT_EQ(std::get<int64_t>(row[1]), 2);
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST_F(ImpalaExecTest, SumMinMaxAvg) {
  QueryResult r = MustExecute(
      "SELECT SUM(passengers), MIN(passengers), MAX(passengers), "
      "AVG(passengers) FROM pnt");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][0]), 14.0);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][1]), 1);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][2]), 6);
  EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][3]), 2.8);
}

TEST_F(ImpalaExecTest, Limit) {
  QueryResult r = MustExecute("SELECT id FROM pnt LIMIT 2");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ImpalaExecTest, SpatialJoinWithin) {
  QueryResult r = MustExecute(
      "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
      "WHERE ST_WITHIN(pnt.geom, poly.geom)");
  ASSERT_EQ(r.rows.size(), 3u);
  for (const Row& row : r.rows) {
    EXPECT_LT(std::get<int64_t>(row[0]), 3);  // points 0,1,2
    EXPECT_EQ(std::get<int64_t>(row[1]), 0);  // all in polygon 0
  }
}

TEST_F(ImpalaExecTest, SpatialJoinCachedGeometriesSameResult) {
  QueryOptions options;
  options.cache_parsed_geometries = true;
  QueryResult cached = MustExecute(
      "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
      "WHERE ST_WITHIN(pnt.geom, poly.geom)",
      options);
  EXPECT_EQ(cached.rows.size(), 3u);
}

TEST_F(ImpalaExecTest, SpatialJoinNearestD) {
  // Point 3 at (20,20) is ~14.14 from the near square's corner (10,10).
  QueryResult r = MustExecute(
      "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
      "WHERE ST_NEARESTD(pnt.geom, poly.geom, 15)");
  // All five points are within 15 of the near square except... compute:
  // p0,p1,p2 inside (0); p3 at 14.14 (0); p4 (-3,4) at 3 (0).
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(ImpalaExecTest, SpatialJoinWithExtraConjunct) {
  QueryResult r = MustExecute(
      "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
      "WHERE ST_WITHIN(pnt.geom, poly.geom) AND pnt.passengers > 1");
  ASSERT_EQ(r.rows.size(), 2u);  // points 0 (2 pax) and 2 (4 pax)
}

TEST_F(ImpalaExecTest, CrossJoinAsNaiveSpatialBaseline) {
  // The naive baseline of the paper's §II: cross join + predicate filter
  // must produce exactly the indexed join's result.
  QueryResult naive = MustExecute(
      "SELECT pnt.id, poly.id FROM pnt CROSS JOIN poly "
      "WHERE ST_WITHIN(pnt.geom, poly.geom)");
  QueryResult indexed = MustExecute(
      "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
      "WHERE ST_WITHIN(pnt.geom, poly.geom)");
  auto key = [](const Row& row) {
    return std::make_pair(std::get<int64_t>(row[0]),
                          std::get<int64_t>(row[1]));
  };
  std::vector<std::pair<int64_t, int64_t>> a, b;
  for (const Row& row : naive.rows) a.push_back(key(row));
  for (const Row& row : indexed.rows) b.push_back(key(row));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(ImpalaExecTest, SpatialJoinGroupByCount) {
  QueryResult r = MustExecute(
      "SELECT poly.label, COUNT(*) AS hits FROM pnt SPATIAL JOIN poly "
      "WHERE ST_WITHIN(pnt.geom, poly.geom) GROUP BY poly.label");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(r.rows[0][0]), "near");
  EXPECT_EQ(std::get<int64_t>(r.rows[0][1]), 3);
}

TEST_F(ImpalaExecTest, ScalarSpatialUdfsInScan) {
  QueryResult r = MustExecute(
      "SELECT id, ST_X(geom), ST_Y(geom) FROM pnt WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][1]), 9.0);
  EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][2]), 9.0);
}

TEST_F(ImpalaExecTest, StDistanceUdf) {
  QueryResult r = MustExecute(
      "SELECT id FROM pnt WHERE ST_DISTANCE(geom, 'POINT (0 0)') < 6");
  // p0 (1,1) d=1.41; p4 (-3,4) d=5. Others farther.
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ImpalaExecTest, MalformedLinesAreCountedAndSkipped) {
  CLOUDJOIN_CHECK_OK(fs_.WriteTextFile(
      "/bad.tsv", {"0\tPOINT (1 1)\tok", "not a row", "2\tJUNK WKT\tx",
                   "3\tPOINT (2 2)\tok"}));
  TableDef bad;
  bad.name = "bad";
  bad.dfs_path = "/bad.tsv";
  bad.columns = {{"id", ColumnType::kInt64},
                 {"geom", ColumnType::kString},
                 {"note", ColumnType::kString}};
  CLOUDJOIN_CHECK_OK(runtime_.catalog()->RegisterTable(bad));
  // The malformed line is dropped at scan; the bad WKT row survives the
  // scan (its geom is just a string) but fails the spatial predicate.
  QueryResult r = MustExecute(
      "SELECT bad.id, poly.id FROM bad SPATIAL JOIN poly "
      "WHERE ST_WITHIN(bad.geom, poly.geom)");
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_GE(r.metrics.counters.Get("scan.malformed"), 1);
}

TEST_F(ImpalaExecTest, MetricsPopulated) {
  QueryResult r = MustExecute(
      "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
      "WHERE ST_WITHIN(pnt.geom, poly.geom)");
  EXPECT_GT(r.metrics.frontend_seconds, 0.0);
  EXPECT_GT(r.metrics.right_build_seconds, 0.0);
  EXPECT_GT(r.metrics.broadcast_bytes, 0);
  EXPECT_FALSE(r.metrics.scan_tasks.empty());
  EXPECT_EQ(r.metrics.num_fragments, 3);
  EXPECT_NE(r.metrics.explain.find("SPATIAL JOIN"), std::string::npos);
  EXPECT_GT(r.metrics.counters.Get("join.refinements"), 0);
}

TEST_F(ImpalaExecTest, ExplainWithoutExecution) {
  auto explain = runtime_.Explain(
      "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
      "WHERE ST_WITHIN(pnt.geom, poly.geom)");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("HDFS SCAN"), std::string::npos);
}

TEST_F(ImpalaExecTest, ErrorsSurfaceAsStatus) {
  EXPECT_FALSE(runtime_.Execute("SELECT * FROM missing").ok());
  EXPECT_FALSE(runtime_.Execute("garbage").ok());
  EXPECT_FALSE(
      runtime_.Execute("SELECT nope FROM pnt").ok());
}

TEST_F(ImpalaExecTest, ScanRangesFollowBlocks) {
  // /pnt.tsv is ~100 bytes with 256-byte blocks -> 1 block; write a bigger
  // file to check multi-range scans.
  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    lines.push_back(std::to_string(i) + "\tPOINT (1 1)\t1");
  }
  CLOUDJOIN_CHECK_OK(fs_.WriteTextFile("/many.tsv", lines));
  TableDef many;
  many.name = "many";
  many.dfs_path = "/many.tsv";
  many.columns = {{"id", ColumnType::kInt64},
                  {"geom", ColumnType::kString},
                  {"x", ColumnType::kString}};
  CLOUDJOIN_CHECK_OK(runtime_.catalog()->RegisterTable(many));
  QueryResult r = MustExecute("SELECT COUNT(*) FROM many");
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 64);
  EXPECT_GT(r.metrics.scan_tasks.size(), 1u);
  for (const auto& task : r.metrics.scan_tasks) {
    EXPECT_GE(task.preferred_node, 0);
    EXPECT_LT(task.preferred_node, 4);
  }
}

}  // namespace
}  // namespace cloudjoin::impala

namespace cloudjoin::impala {
namespace {

class SqlFeaturesTest : public ::testing::Test {
 protected:
  SqlFeaturesTest() : fs_(2, /*block_size=*/256), runtime_(&fs_, Catalog()) {
    CLOUDJOIN_CHECK_OK(fs_.WriteTextFile(
        "/sales.tsv", {
                          "0\teast\t10\tapple",
                          "1\twest\t20\tpear",
                          "2\teast\t5\tapple",
                          "3\teast\t7\tplum",
                          "4\twest\t20\tapple",
                          "5\tnorth\t1\tpear",
                      }));
    TableDef sales;
    sales.name = "sales";
    sales.dfs_path = "/sales.tsv";
    sales.columns = {{"id", ColumnType::kInt64},
                     {"region", ColumnType::kString},
                     {"amount", ColumnType::kInt64},
                     {"product", ColumnType::kString}};
    CLOUDJOIN_CHECK_OK(runtime_.catalog()->RegisterTable(sales));
  }

  QueryResult MustExecute(const std::string& sql) {
    auto result = runtime_.Execute(sql);
    CLOUDJOIN_CHECK(result.ok()) << result.status();
    return std::move(result).value();
  }

  dfs::SimFileSystem fs_;
  ImpalaRuntime runtime_;
};

TEST_F(SqlFeaturesTest, OrderByAscendingAndDescending) {
  QueryResult asc = MustExecute("SELECT id FROM sales ORDER BY amount");
  ASSERT_EQ(asc.rows.size(), 6u);
  EXPECT_EQ(std::get<int64_t>(asc.rows.front()[0]), 5);  // amount 1
  // Hidden sort column must not leak into the result.
  EXPECT_EQ(asc.rows.front().size(), 1u);
  EXPECT_EQ(asc.column_names, (std::vector<std::string>{"id"}));

  QueryResult desc =
      MustExecute("SELECT id FROM sales ORDER BY amount DESC, id ASC");
  // amounts 20,20 tie -> id ascending breaks it.
  EXPECT_EQ(std::get<int64_t>(desc.rows[0][0]), 1);
  EXPECT_EQ(std::get<int64_t>(desc.rows[1][0]), 4);
}

TEST_F(SqlFeaturesTest, OrderByWithLimitIsTopN) {
  QueryResult top = MustExecute(
      "SELECT id, amount FROM sales ORDER BY amount DESC LIMIT 2");
  ASSERT_EQ(top.rows.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(top.rows[0][1]), 20);
  EXPECT_EQ(std::get<int64_t>(top.rows[1][1]), 20);
}

TEST_F(SqlFeaturesTest, OrderByStringColumn) {
  QueryResult r = MustExecute("SELECT region FROM sales ORDER BY region");
  EXPECT_EQ(std::get<std::string>(r.rows.front()[0]), "east");
  EXPECT_EQ(std::get<std::string>(r.rows.back()[0]), "west");
}

TEST_F(SqlFeaturesTest, GroupByOrderByAggregate) {
  QueryResult r = MustExecute(
      "SELECT region, SUM(amount) AS total FROM sales GROUP BY region "
      "ORDER BY SUM(amount) DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(std::get<std::string>(r.rows[0][0]), "west");   // 40
  EXPECT_EQ(std::get<std::string>(r.rows[1][0]), "east");   // 22
  EXPECT_EQ(std::get<std::string>(r.rows[2][0]), "north");  // 1
  // Only the two visible columns survive.
  EXPECT_EQ(r.rows[0].size(), 2u);
}

TEST_F(SqlFeaturesTest, HavingFiltersGroups) {
  QueryResult r = MustExecute(
      "SELECT region, COUNT(*) AS n FROM sales GROUP BY region "
      "HAVING COUNT(*) > 1 ORDER BY region");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(r.rows[0][0]), "east");
  EXPECT_EQ(std::get<int64_t>(r.rows[0][1]), 3);
  EXPECT_EQ(std::get<std::string>(r.rows[1][0]), "west");
}

TEST_F(SqlFeaturesTest, HavingOnGroupColumn) {
  QueryResult r = MustExecute(
      "SELECT region, COUNT(*) FROM sales GROUP BY region "
      "HAVING region <> 'north'");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlFeaturesTest, HavingAggregateNotInSelectList) {
  // SUM(amount) is computed as a hidden aggregate.
  QueryResult r = MustExecute(
      "SELECT region FROM sales GROUP BY region HAVING SUM(amount) > 10 "
      "ORDER BY region");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.column_names, (std::vector<std::string>{"region"}));
  EXPECT_EQ(r.rows[0].size(), 1u);
}

TEST_F(SqlFeaturesTest, CountDistinct) {
  QueryResult r = MustExecute(
      "SELECT region, COUNT(DISTINCT product) AS kinds FROM sales "
      "GROUP BY region ORDER BY region");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][1]), 2);  // east: apple, plum
  EXPECT_EQ(std::get<int64_t>(r.rows[1][1]), 1);  // north: pear
  EXPECT_EQ(std::get<int64_t>(r.rows[2][1]), 2);  // west: pear, apple
}

TEST_F(SqlFeaturesTest, CountDistinctGlobal) {
  QueryResult r =
      MustExecute("SELECT COUNT(DISTINCT product) FROM sales");
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 3);
}

TEST_F(SqlFeaturesTest, FeatureErrors) {
  EXPECT_FALSE(runtime_.Execute("SELECT id FROM sales HAVING id > 1").ok());
  EXPECT_FALSE(
      runtime_.Execute("SELECT SUM(DISTINCT amount) FROM sales").ok());
  EXPECT_FALSE(runtime_.Execute("SELECT COUNT(DISTINCT *) FROM sales").ok());
  EXPECT_FALSE(runtime_.Execute(
                        "SELECT region, COUNT(*) FROM sales GROUP BY region "
                        "ORDER BY amount")
                   .ok());  // not grouped, not aggregate
}

TEST_F(SqlFeaturesTest, OrderByExpression) {
  QueryResult r = MustExecute(
      "SELECT id FROM sales ORDER BY amount * 2 + id DESC LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 4);  // 20*2+4=44
}

}  // namespace
}  // namespace cloudjoin::impala

namespace cloudjoin::impala {
namespace {

/// Each value's type and exact bytes, row by row: equal renderings mean
/// byte-identical rows in the same order.
std::string RenderRows(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) {
      out += std::to_string(v.index()) + ':';
      if (const auto* d = std::get_if<double>(&v)) {
        uint64_t bits = 0;
        std::memcpy(&bits, d, sizeof(bits));
        out += std::to_string(bits);
      } else if (const auto* str = std::get_if<std::string>(&v)) {
        out += std::to_string(str->size()) + ':' + *str;
      } else {
        out += ValueToString(v);
      }
      out += '|';
    }
    out += '\n';
  }
  return out;
}

/// A counter snapshot minus the timers, whose values are not counts.
std::map<std::string, int64_t> CountsOf(const QueryResult& result) {
  std::map<std::string, int64_t> counts = result.metrics.counters.Snapshot();
  counts.erase(exec::counter::kPrepareMicros);
  return counts;
}

/// Runs every query with its scan ranges on a 3-thread pool and without
/// one: the coordinator must merge the concurrent fragment instances into
/// exactly what the serial run returns.
class PooledExecutionTest : public ::testing::Test {
 protected:
  PooledExecutionTest()
      : fs_(4, /*block_size=*/2 * 1024), runtime_(&fs_, Catalog()), pool_(3) {
    // 600 points over the zones' square, then 200 far outside it, so the
    // columnar copy has whole blocks that zone-map pruning drops.
    std::mt19937 rng(19);
    std::vector<std::string> points;
    for (int i = 0; i < 800; ++i) {
      const double offset = i < 600 ? 0.0 : 200.0;
      const double x = offset + static_cast<double>(rng() % 10000) / 100.0;
      const double y = offset + static_cast<double>(rng() % 10000) / 100.0;
      points.push_back(std::to_string(i) + "\tPOINT (" + std::to_string(x) +
                       " " + std::to_string(y) + ")\t" +
                       std::to_string(rng() % 5));
    }
    CLOUDJOIN_CHECK_OK(fs_.WriteTextFile("/pts.tsv", points));
    // A 4x4 grid of 20-unit squares, five labels.
    std::vector<std::string> zones;
    for (int i = 0; i < 16; ++i) {
      const int x = 2 + 25 * (i % 4);
      const int y = 2 + 25 * (i / 4);
      const std::string x1 = std::to_string(x + 20);
      const std::string y1 = std::to_string(y + 20);
      zones.push_back(std::to_string(i) + "\tPOLYGON ((" +
                      std::to_string(x) + " " + std::to_string(y) + ", " +
                      x1 + " " + std::to_string(y) + ", " + x1 + " " + y1 +
                      ", " + std::to_string(x) + " " + y1 + ", " +
                      std::to_string(x) + " " + std::to_string(y) +
                      "))\tz" + std::to_string(i % 5));
    }
    CLOUDJOIN_CHECK_OK(fs_.WriteTextFile("/zones.tsv", zones));
    RegisterText("pts", "/pts.tsv", {"passengers", ColumnType::kInt64});
    RegisterText("zones", "/zones.tsv", {"label", ColumnType::kString});

    join::TableInput text;
    text.path = "/pts.tsv";
    auto columnar = data::ConvertTextTableToColumnar(&fs_, text, "/cpts.col",
                                                     /*block_rows=*/16);
    CLOUDJOIN_CHECK(columnar.ok()) << columnar.status();
    RegisterColumnar("cpts", "/cpts.col");
  }

  void RegisterText(const std::string& name, const std::string& path,
                    const ColumnDef& extra) {
    TableDef table;
    table.name = name;
    table.dfs_path = path;
    table.columns = {{"id", ColumnType::kInt64},
                     {"geom", ColumnType::kString},
                     extra};
    CLOUDJOIN_CHECK_OK(runtime_.catalog()->RegisterTable(table));
  }

  void RegisterColumnar(const std::string& name, const std::string& path) {
    TableDef table;
    table.name = name;
    table.dfs_path = path;
    table.format = exec::TableFormat::kColumnar;
    table.columns = {{"id", ColumnType::kInt64},
                     {"geom", ColumnType::kString}};
    CLOUDJOIN_CHECK_OK(runtime_.catalog()->RegisterTable(table));
  }

  /// Runs `sql` serially and pooled, checks that both agree, and returns
  /// the serial result.
  Result<QueryResult> ExpectPooledMatchesSerial(
      const std::string& sql, const QueryOptions& options = QueryOptions()) {
    Result<QueryResult> serial = runtime_.Execute(sql, options);
    Result<QueryResult> pooled = runtime_.Execute(sql, options, &pool_);
    EXPECT_EQ(serial.status(), pooled.status()) << sql;
    if (!serial.ok() || !pooled.ok()) return serial;
    EXPECT_GE(serial->metrics.scan_tasks.size(), 8u) << sql;
    EXPECT_EQ(RenderRows(serial->rows), RenderRows(pooled->rows)) << sql;
    EXPECT_EQ(CountsOf(*serial), CountsOf(*pooled)) << sql;
    const auto& a = serial->metrics.scan_tasks;
    const auto& b = pooled->metrics.scan_tasks;
    EXPECT_EQ(a.size(), b.size()) << sql;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      EXPECT_EQ(a[i].bytes, b[i].bytes) << sql << " range " << i;
      EXPECT_EQ(a[i].preferred_node, b[i].preferred_node)
          << sql << " range " << i;
    }
    EXPECT_EQ(serial->metrics.join_task_seconds.size(),
              pooled->metrics.join_task_seconds.size())
        << sql;
    return serial;
  }

  dfs::SimFileSystem fs_;
  ImpalaRuntime runtime_;
  ThreadPool pool_;
};

TEST_F(PooledExecutionTest, BroadcastWithinAndNearestD) {
  auto within = ExpectPooledMatchesSerial(
      "SELECT pts.id, zones.id FROM pts SPATIAL JOIN zones "
      "WHERE ST_WITHIN(pts.geom, zones.geom)");
  ASSERT_TRUE(within.ok()) << within.status();
  EXPECT_FALSE(within->rows.empty());

  // Cached parses: the ranges share the right side's parsed geometries.
  QueryOptions cached;
  cached.cache_parsed_geometries = true;
  auto nearest = ExpectPooledMatchesSerial(
      "SELECT pts.id, zones.id FROM pts SPATIAL JOIN zones "
      "WHERE ST_NEARESTD(pts.geom, zones.geom, 3)",
      cached);
  ASSERT_TRUE(nearest.ok()) << nearest.status();
  EXPECT_GT(nearest->rows.size(), within->rows.size());
}

TEST_F(PooledExecutionTest, ForcedPartitionedAtFiveTiles) {
  QueryOptions options;
  options.join_strategy = plan::JoinStrategy::kPartitioned;
  options.partitioned_tiles = 5;
  auto result = ExpectPooledMatchesSerial(
      "SELECT pts.id, zones.id FROM pts SPATIAL JOIN zones "
      "WHERE ST_WITHIN(pts.geom, zones.geom)",
      options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->rows.empty());
  EXPECT_GE(result->metrics.join_task_seconds.size(), 5u);
}

TEST_F(PooledExecutionTest, ColumnarLeftWithZoneMapPruning) {
  auto result = ExpectPooledMatchesSerial(
      "SELECT cpts.id, zones.id FROM cpts SPATIAL JOIN zones "
      "WHERE ST_WITHIN(cpts.geom, zones.geom)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->rows.empty());
  EXPECT_GT(result->metrics.counters.Get(exec::counter::kScanBlocksPruned),
            0);
}

TEST_F(PooledExecutionTest, CrossJoinWithPostFilter) {
  auto result = ExpectPooledMatchesSerial(
      "SELECT pts.id, zones.id FROM pts CROSS JOIN zones "
      "WHERE ST_WITHIN(pts.geom, zones.geom) AND pts.passengers > 2");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->rows.empty());
}

TEST_F(PooledExecutionTest, GroupByHavingOrderByLimit) {
  auto result = ExpectPooledMatchesSerial(
      "SELECT zones.label, COUNT(*) AS n FROM pts SPATIAL JOIN zones "
      "WHERE ST_WITHIN(pts.geom, zones.geom) GROUP BY zones.label "
      "HAVING COUNT(*) > 10 ORDER BY COUNT(*) DESC LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST_F(PooledExecutionTest, FirstFailingRangeInBlockOrderDecides) {
  // Corrupt the WKT offsets of two blocks in different scan ranges: the
  // reader accepts the file, and only the scans of those blocks fail.
  const dfs::SimFile* file = fs_.GetFile("/cpts.col").value();
  auto reader = dfs::ColumnarTableReader::Open(*file);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const int64_t first = reader->num_blocks() / 3;
  const int64_t second = 2 * reader->num_blocks() / 3;
  ASSERT_GT(reader->block_offset(second) - reader->block_offset(first),
            fs_.block_size());
  std::string bytes(file->data());
  for (int64_t b : {first, second}) {
    // A 40-byte block header, then five 8-byte columns, then the WKT
    // offsets, whose first entry must be 0.
    bytes[static_cast<size_t>(reader->block_offset(b) + 40 +
                              40 * reader->block_rows(b))] = 1;
  }
  CLOUDJOIN_CHECK_OK(fs_.WriteFile("/bad.col", std::move(bytes)));
  RegisterColumnar("bad", "/bad.col");

  auto result = ExpectPooledMatchesSerial("SELECT id FROM bad");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "(block " + std::to_string(first) + ")"),
            std::string::npos)
      << result.status();
}

}  // namespace
}  // namespace cloudjoin::impala
