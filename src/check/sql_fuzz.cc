#include "check/sql_fuzz.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "dfs/sim_file_system.h"
#include "impala/plan_serialization.h"
#include "impala/runtime.h"
#include "join/isp_mc_system.h"
#include "join/table_input.h"
#include "server/query_service.h"

namespace cloudjoin::check {
namespace {

std::string FormatG17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Seeded tables. `lt` is a point table (id, POINT WKT, categorical tag in
// c2); `rt` is a polygon table that always contains the serialization edge
// cases: POLYGON EMPTY, an extreme-coordinate sliver, and one huge polygon
// so broadcast/partitioned strategies both see matches.

std::vector<std::string> MakePointLines(Rng& rng) {
  const int n = 20 + static_cast<int>(rng.UniformInt(9));
  std::vector<std::string> lines;
  lines.reserve(n);
  for (int i = 0; i < n; ++i) {
    double x;
    double y;
    if (i == 0) {
      // Full-precision coordinates that only survive %.17g round-trips.
      x = 1.0 / 3.0;
      y = 2.0 / 3.0e3;
    } else if (rng.Bernoulli(0.2)) {
      x = static_cast<double>(rng.UniformInt(100));
      y = static_cast<double>(rng.UniformInt(100));
    } else {
      x = rng.Uniform(0.0, 100.0);
      y = rng.Uniform(0.0, 100.0);
    }
    const char tag = static_cast<char>('a' + (i % 5));
    lines.push_back(std::to_string(i) + "\tPOINT (" + FormatG17(x) + " " +
                    FormatG17(y) + ")\t" + tag);
  }
  return lines;
}

std::string SquareWkt(double cx, double cy, double half) {
  const std::string x0 = FormatG17(cx - half);
  const std::string x1 = FormatG17(cx + half);
  const std::string y0 = FormatG17(cy - half);
  const std::string y1 = FormatG17(cy + half);
  return "POLYGON ((" + x0 + " " + y0 + ", " + x1 + " " + y0 + ", " + x1 +
         " " + y1 + ", " + x0 + " " + y1 + ", " + x0 + " " + y0 + "))";
}

std::vector<std::string> MakePolygonLines(Rng& rng) {
  const int n = 10 + static_cast<int>(rng.UniformInt(5));
  std::vector<std::string> lines;
  lines.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::string wkt;
    if (i == 0) {
      wkt = "POLYGON EMPTY";
    } else if (i == 1) {
      wkt = SquareWkt(50.0, 50.0, 1000.0);  // covers every point
    } else if (i == 2) {
      wkt = SquareWkt(1.0 / 3.0, 2.0 / 3.0e3, 0.1234567890123456789);
    } else {
      wkt = SquareWkt(rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0),
                      rng.Uniform(1.0, 12.0));
    }
    lines.push_back(std::to_string(i) + "\t" + wkt);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Grammar. Every production returns SQL text over tables `lt` (columns id,
// geom, c2) and `rt` (columns id, geom). `prefix` qualifies columns in join
// queries ("lt." / "rt.") and is empty for single-table queries.

std::string NumExpr(Rng& rng, const std::string& prefix, int depth) {
  switch (rng.UniformInt(depth > 0 ? 4 : 2)) {
    case 0:
      return prefix + "id";
    case 1:
      return std::to_string(rng.UniformInt(20));
    case 2:
      return "(" + NumExpr(rng, prefix, depth - 1) + " + " +
             NumExpr(rng, prefix, depth - 1) + ")";
    default:
      return "(" + NumExpr(rng, prefix, depth - 1) + " * " +
             NumExpr(rng, prefix, depth - 1) + ")";
  }
}

std::string Comparison(Rng& rng, const std::string& prefix, bool has_tag) {
  static const char* kOps[] = {"<", "<=", ">", ">=", "=", "<>", "!="};
  if (has_tag && rng.Bernoulli(0.25)) {
    const char tag = static_cast<char>('a' + rng.UniformInt(5));
    return prefix + "c2 " + (rng.Bernoulli(0.5) ? "=" : "<>") + " '" + tag +
           "'";
  }
  if (has_tag && prefix.empty() && rng.Bernoulli(0.15)) {
    // Scalar spatial function in a plain filter.
    return "ST_DISTANCE(geom, 'POINT (50 50)') " + std::string(kOps[rng.UniformInt(4)]) +
           " " + FormatG17(rng.Uniform(5.0, 80.0));
  }
  return NumExpr(rng, prefix, 1) + " " + kOps[rng.UniformInt(7)] + " " +
         NumExpr(rng, prefix, 1);
}

std::string BoolExpr(Rng& rng, const std::string& prefix, bool has_tag,
                     int depth) {
  if (depth > 0 && rng.Bernoulli(0.4)) {
    return "(" + BoolExpr(rng, prefix, has_tag, depth - 1) +
           (rng.Bernoulli(0.5) ? " AND " : " OR ") +
           BoolExpr(rng, prefix, has_tag, depth - 1) + ")";
  }
  return Comparison(rng, prefix, has_tag);
}

std::string SpatialPred(Rng& rng) {
  switch (rng.UniformInt(3)) {
    case 0:
      return "ST_WITHIN(lt.geom, rt.geom)";
    case 1:
      return "ST_INTERSECTS(lt.geom, rt.geom)";
    default: {
      // Occasionally a full-precision distance to stress %.17g round-trips.
      const double d = rng.Bernoulli(0.3) ? rng.Uniform(0.0, 1.0) * 1e-3
                                          : rng.Uniform(0.5, 30.0);
      return "ST_NEARESTD(lt.geom, rt.geom, " + FormatG17(d) + ")";
    }
  }
}

std::string OrderLimitSuffix(Rng& rng, const std::vector<std::string>& keys) {
  std::string sql;
  if (!keys.empty() && rng.Bernoulli(0.6)) {
    sql += " ORDER BY ";
    const size_t first = rng.UniformInt(keys.size());
    sql += keys[first];
    if (rng.Bernoulli(0.4)) sql += rng.Bernoulli(0.5) ? " DESC" : " ASC";
    if (keys.size() > 1 && rng.Bernoulli(0.4)) {
      const size_t second = (first + 1) % keys.size();
      sql += ", " + keys[second];
      if (rng.Bernoulli(0.3)) sql += " DESC";
    }
  }
  if (rng.Bernoulli(0.4)) {
    sql += " LIMIT " + std::to_string(1 + rng.UniformInt(20));
  }
  return sql;
}

std::string SingleTableQuery(Rng& rng) {
  std::string sql = "SELECT ";
  switch (rng.UniformInt(3)) {
    case 0:
      sql += "id, c2";
      break;
    case 1:
      sql += "id, " + NumExpr(rng, "", 2) + " AS d";
      break;
    default:
      sql += "id, c2, " + NumExpr(rng, "", 1) + " AS d0, " +
             NumExpr(rng, "", 1) + " AS d1";
      break;
  }
  sql += " FROM lt";
  if (rng.Bernoulli(0.7)) sql += " WHERE " + BoolExpr(rng, "", true, 2);
  sql += OrderLimitSuffix(rng, {"id", "c2"});
  return sql;
}

std::string AggregateQuery(Rng& rng) {
  std::string sql = "SELECT c2, COUNT(*) AS cnt";
  switch (rng.UniformInt(4)) {
    case 0:
      sql += ", SUM(id) AS s";
      break;
    case 1:
      sql += ", MIN(id) AS lo, MAX(id) AS hi";
      break;
    case 2:
      sql += ", AVG(id) AS a, COUNT(DISTINCT id) AS u";
      break;
    default:
      break;
  }
  sql += " FROM lt";
  if (rng.Bernoulli(0.5)) sql += " WHERE " + BoolExpr(rng, "", true, 1);
  sql += " GROUP BY c2";
  if (rng.Bernoulli(0.4)) {
    sql += " HAVING COUNT(*) > " + std::to_string(rng.UniformInt(4));
  }
  sql += OrderLimitSuffix(rng, {"c2"});
  return sql;
}

std::string SpatialJoinQuery(Rng& rng, bool aggregate) {
  std::string sql;
  if (aggregate) {
    sql = "SELECT rt.id, COUNT(*) AS hits FROM lt SPATIAL JOIN rt WHERE " +
          SpatialPred(rng);
    if (rng.Bernoulli(0.4)) sql += " AND " + BoolExpr(rng, "lt.", true, 1);
    sql += " GROUP BY rt.id";
    if (rng.Bernoulli(0.3)) sql += " HAVING COUNT(*) > 1";
    sql += OrderLimitSuffix(rng, {"rt.id"});
    return sql;
  }
  sql = "SELECT lt.id, rt.id";
  if (rng.Bernoulli(0.3)) {
    sql += ", (lt.id + rt.id) AS s";
  } else if (rng.Bernoulli(0.3)) {
    sql += ", lt.c2";
  }
  sql += " FROM lt SPATIAL JOIN rt WHERE " + SpatialPred(rng);
  if (rng.Bernoulli(0.4)) sql += " AND " + BoolExpr(rng, "lt.", true, 1);
  if (rng.Bernoulli(0.3)) sql += " AND rt.id " +
                                 std::string(rng.Bernoulli(0.5) ? "<" : ">") +
                                 " " + std::to_string(rng.UniformInt(12));
  sql += OrderLimitSuffix(rng, {"lt.id", "rt.id"});
  return sql;
}

std::string EquiJoinQuery(Rng& rng) {
  if (rng.Bernoulli(0.5)) {
    std::string sql =
        "SELECT lt.id, rt.id FROM lt INNER JOIN rt ON lt.id = rt.id";
    if (rng.Bernoulli(0.4)) sql += " WHERE lt.id > " +
                                   std::to_string(rng.UniformInt(8));
    sql += OrderLimitSuffix(rng, {"lt.id"});
    return sql;
  }
  std::string sql =
      "SELECT lt.id, rt.id FROM lt CROSS JOIN rt WHERE " +
      BoolExpr(rng, rng.Bernoulli(0.5) ? "lt." : "rt.", false, 1);
  sql += OrderLimitSuffix(rng, {"lt.id", "rt.id"});
  return sql;
}

std::vector<std::string> GenerateQueries(Rng& rng) {
  std::vector<std::string> queries;
  queries.push_back(SingleTableQuery(rng));
  queries.push_back(AggregateQuery(rng));
  queries.push_back(SpatialJoinQuery(rng, /*aggregate=*/false));
  queries.push_back(SpatialJoinQuery(rng, /*aggregate=*/true));
  queries.push_back(EquiJoinQuery(rng));
  queries.push_back(SpatialJoinQuery(rng, rng.Bernoulli(0.5)));
  return queries;
}

// ---------------------------------------------------------------------------
// Mutators. Mutated SQL may or may not still parse — the oracle is "no
// crash, and anything that does plan still round-trips".

std::string MutateSql(Rng& rng, const std::string& sql) {
  std::string s = sql;
  switch (rng.UniformInt(5)) {
    case 0: {  // drop a span
      if (s.empty()) return s;
      const size_t pos = rng.UniformInt(s.size());
      const size_t len = 1 + rng.UniformInt(8);
      s.erase(pos, len);
      return s;
    }
    case 1: {  // duplicate a span
      if (s.empty()) return s;
      const size_t pos = rng.UniformInt(s.size());
      const size_t len = std::min<size_t>(1 + rng.UniformInt(6),
                                          s.size() - pos);
      s.insert(pos, s.substr(pos, len));
      return s;
    }
    case 2: {  // misspell a keyword
      static const char* kKeywords[] = {"SELECT", "FROM", "WHERE",
                                        "GROUP",  "JOIN", "ORDER"};
      const char* kw = kKeywords[rng.UniformInt(6)];
      const size_t pos = s.find(kw);
      if (pos != std::string::npos) s.erase(pos + 1, 1);
      return s;
    }
    case 3: {  // unbalance parentheses
      const size_t pos = s.find_last_of("()");
      if (pos != std::string::npos) {
        s.erase(pos, 1);
      } else {
        s.insert(rng.UniformInt(s.size() + 1), "(");
      }
      return s;
    }
    default: {  // illegal character (the lexer rejects '@')
      s.insert(rng.UniformInt(s.size() + 1), "@");
      return s;
    }
  }
}

std::string MutatePlanText(Rng& rng, const std::string& text) {
  std::string s = text;
  switch (rng.UniformInt(4)) {
    case 0: {  // unknown attribute line inside the tree
      const size_t pos = s.find("\nend");
      if (pos != std::string::npos) s.insert(pos, "\nzzz_unknown 1");
      return s;
    }
    case 1: {  // wrong version
      const size_t pos = s.find("version=");
      if (pos != std::string::npos) s[pos + 8] = '9';
      return s;
    }
    case 2: {  // flip one byte (never a newline, to keep line structure)
      if (s.empty()) return s;
      size_t pos = rng.UniformInt(s.size());
      for (size_t tries = 0; tries < 8 && s[pos] == '\n'; ++tries) {
        pos = rng.UniformInt(s.size());
      }
      if (s[pos] != '\n') s[pos] = static_cast<char>('a' + rng.UniformInt(26));
      return s;
    }
    default: {  // trailing garbage
      s += "garbage\n";
      return s;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracles.

std::string DescribeRows(const impala::QueryResult& r) {
  std::string out = "[";
  for (size_t i = 0; i < r.column_names.size(); ++i) {
    if (i) out += ",";
    out += r.column_names[i];
  }
  out += "]";
  const size_t show = std::min<size_t>(r.rows.size(), 4);
  for (size_t i = 0; i < show; ++i) {
    out += " (";
    for (size_t j = 0; j < r.rows[i].size(); ++j) {
      if (j) out += ",";
      out += impala::ValueToString(r.rows[i][j]);
    }
    out += ")";
  }
  if (r.rows.size() > show) {
    out += " ...+" + std::to_string(r.rows.size() - show);
  }
  return out;
}

/// Empty string when identical; otherwise a short diff description.
/// Execution is deterministic under a fixed plan, so rows must match
/// exactly — including order, even without ORDER BY.
std::string DiffResults(const impala::QueryResult& a,
                        const impala::QueryResult& b) {
  if (a.column_names != b.column_names) {
    return "column names differ: " + DescribeRows(a) + " vs " +
           DescribeRows(b);
  }
  if (a.rows != b.rows) {
    return "rows differ (" + std::to_string(a.rows.size()) + " vs " +
           std::to_string(b.rows.size()) + "): " + DescribeRows(a) + " vs " +
           DescribeRows(b);
  }
  return "";
}

impala::QueryOptions RandomOptions(Rng& rng) {
  impala::QueryOptions opts;
  opts.cache_parsed_geometries = rng.Bernoulli(0.5);
  opts.prepare_geometries = rng.Bernoulli(0.3);
  static const int kBatches[] = {3, 7, 64, 256};
  opts.probe.batch_size = kBatches[rng.UniformInt(4)];
  opts.probe.sfilter = rng.Bernoulli(0.5);
  opts.scan.zone_map = rng.Bernoulli(0.8);
  switch (rng.UniformInt(4)) {
    case 0:
      opts.join_strategy = plan::JoinStrategy::kBroadcast;
      break;
    case 1: {
      opts.join_strategy = plan::JoinStrategy::kPartitioned;
      static const int kTiles[] = {0, 3, 5};
      opts.partitioned_tiles = kTiles[rng.UniformInt(3)];
      break;
    }
    default:
      opts.join_strategy = plan::JoinStrategy::kAuto;
      break;
  }
  opts.adaptive_partitioning = rng.Bernoulli(0.7);
  return opts;
}

/// Everything one seed needs, so arms share one catalog state.
struct SeedHarness {
  dfs::SimFileSystem fs{4, /*block_size=*/4 * 1024};
  std::unique_ptr<join::IspMcSystem> isp;
  std::unique_ptr<server::QueryService> cache_on;
  std::unique_ptr<server::QueryService> cache_off;
  server::Session* session_on = nullptr;
  server::Session* session_off = nullptr;
  impala::QueryOptions opts;

  Status Init(Rng& rng) {
    CLOUDJOIN_RETURN_IF_ERROR(
        fs.WriteTextFile("/fuzz/lt.tbl", MakePointLines(rng)));
    CLOUDJOIN_RETURN_IF_ERROR(
        fs.WriteTextFile("/fuzz/rt.tbl", MakePolygonLines(rng)));
    opts = RandomOptions(rng);

    join::TableInput lt_in;
    lt_in.path = "/fuzz/lt.tbl";
    join::TableInput rt_in;
    rt_in.path = "/fuzz/rt.tbl";

    isp = std::make_unique<join::IspMcSystem>(&fs);
    CLOUDJOIN_RETURN_IF_ERROR(isp->RegisterTable("lt", lt_in).status());
    CLOUDJOIN_RETURN_IF_ERROR(isp->RegisterTable("rt", rt_in).status());

    server::ServiceOptions on_options;
    on_options.num_threads = 2;
    on_options.admission.max_concurrent = 2;
    cache_on = std::make_unique<server::QueryService>(&fs, on_options);
    server::ServiceOptions off_options = on_options;
    off_options.enable_cache = false;
    cache_off = std::make_unique<server::QueryService>(&fs, off_options);
    for (server::QueryService* service : {cache_on.get(), cache_off.get()}) {
      CLOUDJOIN_RETURN_IF_ERROR(service->RegisterTable("lt", lt_in).status());
      CLOUDJOIN_RETURN_IF_ERROR(service->RegisterTable("rt", rt_in).status());
    }
    session_on = cache_on->CreateSession(opts);
    session_off = cache_off->CreateSession(opts);
    return Status::OK();
  }
};

/// Runs every oracle over one valid query; returns "" or a description.
/// Sets `*rejected` when every arm consistently refused the query.
std::string CheckQuery(SeedHarness& h, const std::string& sql,
                       bool* rejected) {
  *rejected = false;
  impala::ImpalaRuntime* runtime = h.isp->runtime();
  auto direct = runtime->Execute(sql, h.opts);
  auto cold = h.cache_on->Execute(h.session_on, sql);
  auto warm = h.cache_on->Execute(h.session_on, sql);
  auto off = h.cache_off->Execute(h.session_off, sql);

  // Every arm must agree on success/failure.
  if (direct.ok() != cold.ok() || direct.ok() != warm.ok() ||
      direct.ok() != off.ok()) {
    return "ok-ness disagrees: direct=" + direct.status().ToString() +
           " cold=" + cold.status().ToString() +
           " warm=" + warm.status().ToString() +
           " off=" + off.status().ToString();
  }
  if (!direct.ok()) {
    // A consistently rejected query (analyzer limits etc.) is fine; the
    // plan path must reject it too.
    *rejected = true;
    auto plan = runtime->Plan(sql, h.opts);
    if (plan.ok()) {
      return "Execute failed (" + direct.status().ToString() +
             ") but Plan succeeded";
    }
    return "";
  }

  // Oracle 1: serialize -> deserialize -> execute is byte-identical.
  auto plan = runtime->Plan(sql, h.opts);
  if (!plan.ok()) return "Plan failed after Execute ok: " + plan.status().ToString();
  const std::string text = impala::SerializePlan(*plan);
  if (text != direct->metrics.plan_text) {
    return "SerializePlan(Plan(sql)) differs from executed plan_text";
  }
  auto replayed = impala::DeserializePlan(text);
  if (!replayed.ok()) {
    return "DeserializePlan failed: " + replayed.status().ToString();
  }
  if (impala::SerializePlan(*replayed) != text) {
    return "plan serialization round-trip is not byte-identical";
  }
  auto replay_result = runtime->ExecutePlan(*replayed);
  if (!replay_result.ok()) {
    return "ExecutePlan(round-tripped) failed: " +
           replay_result.status().ToString();
  }
  if (std::string diff = DiffResults(*direct, *replay_result); !diff.empty()) {
    return "plan round-trip rows: " + diff;
  }
  if (replay_result->metrics.explain != direct->metrics.explain) {
    return "EXPLAIN differs between direct and round-tripped plan";
  }

  // Oracle 2: service cache on/off/warm all match direct execution.
  if (std::string diff = DiffResults(*direct, cold->result); !diff.empty()) {
    return "service cold rows: " + diff;
  }
  if (std::string diff = DiffResults(*direct, warm->result); !diff.empty()) {
    return "service warm rows: " + diff;
  }
  if (std::string diff = DiffResults(*direct, off->result); !diff.empty()) {
    return "service cache-off rows: " + diff;
  }

  // Oracle 3: replaying the captured plan through the service matches.
  auto replay = h.cache_on->ExecutePlan(h.session_on, warm->plan_text);
  if (!replay.ok()) {
    return "service ExecutePlan failed: " + replay.status().ToString();
  }
  if (std::string diff = DiffResults(*direct, replay->result);
      !diff.empty()) {
    return "service replay rows: " + diff;
  }
  return "";
}

/// Feeds a (possibly malformed) SQL string to the frontend; returns "" or a
/// description. Anything that still plans must round-trip.
std::string CheckMutatedSql(SeedHarness& h, const std::string& sql) {
  auto plan = h.isp->runtime()->Plan(sql, h.opts);
  if (!plan.ok()) return "";  // rejection is the expected outcome
  const std::string text = impala::SerializePlan(*plan);
  auto replayed = impala::DeserializePlan(text);
  if (!replayed.ok()) {
    return "mutant planned but DeserializePlan failed: " +
           replayed.status().ToString();
  }
  if (impala::SerializePlan(*replayed) != text) {
    return "mutant planned but round-trip is not byte-identical";
  }
  return "";
}

/// Feeds mutated plan text to the deserializer; returns "" or a
/// description. Accepting is fine only if serialization reaches a fixed
/// point (deserialize(serialize(p)) == serialize(p) byte-for-byte).
std::string CheckMutatedPlan(const std::string& text) {
  auto plan = impala::DeserializePlan(text);
  if (!plan.ok()) return "";
  const std::string s1 = impala::SerializePlan(*plan);
  auto plan2 = impala::DeserializePlan(s1);
  if (!plan2.ok()) {
    return "accepted mutant reserialization does not parse: " +
           plan2.status().ToString();
  }
  if (impala::SerializePlan(*plan2) != s1) {
    return "accepted mutant serialization is not a fixed point";
  }
  return "";
}

}  // namespace

SqlFuzzReport RunSqlFuzz(uint64_t seed_base, int seeds, bool verbose) {
  SqlFuzzReport report;
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(i);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    SeedHarness harness;
    if (Status init = harness.Init(rng); !init.ok()) {
      report.failures.push_back("seed=" + std::to_string(seed) +
                                " harness init: " + init.ToString());
      continue;
    }
    ++report.seeds;

    const std::vector<std::string> queries = GenerateQueries(rng);
    std::string last_plan_text;
    for (const std::string& sql : queries) {
      ++report.valid_queries;
      bool was_rejected = false;
      if (std::string fail = CheckQuery(harness, sql, &was_rejected);
          !fail.empty()) {
        report.failures.push_back("seed=" + std::to_string(seed) + " sql=\"" +
                                  sql + "\": " + fail);
      } else if (was_rejected) {
        ++report.rejected_queries;
      } else if (auto plan = harness.isp->runtime()->Plan(sql, harness.opts);
                 plan.ok()) {
        last_plan_text = impala::SerializePlan(*plan);
      }
      if (verbose) {
        std::printf("sql-fuzz seed=%" PRIu64 " ok: %s\n", seed, sql.c_str());
      }
    }

    for (int m = 0; m < 3; ++m) {
      const std::string& base = queries[rng.UniformInt(queries.size())];
      const std::string mutant = MutateSql(rng, base);
      ++report.malformed_inputs;
      if (std::string fail = CheckMutatedSql(harness, mutant); !fail.empty()) {
        report.failures.push_back("seed=" + std::to_string(seed) +
                                  " mutant=\"" + mutant + "\": " + fail);
      }
    }

    if (!last_plan_text.empty()) {
      for (int m = 0; m < 2; ++m) {
        const std::string mutant = MutatePlanText(rng, last_plan_text);
        ++report.plan_mutations;
        if (std::string fail = CheckMutatedPlan(mutant); !fail.empty()) {
          report.failures.push_back("seed=" + std::to_string(seed) +
                                    " plan mutant: " + fail);
        }
      }
    }
  }
  return report;
}

}  // namespace cloudjoin::check
