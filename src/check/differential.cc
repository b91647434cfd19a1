#include "check/differential.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "check/shrink.h"
#include "common/stopwatch.h"
#include "data/convert.h"
#include "dfs/columnar_block.h"
#include "dfs/sim_file_system.h"
#include "geom/wkb.h"
#include "impala/plan_serialization.h"
#include "impala/types.h"
#include "join/isp_mc_system.h"
#include "join/partitioned_spatial_join.h"
#include "join/spatial_spark_system.h"
#include "join/standalone_mc.h"
#include "join/table_input.h"
#include "server/query_service.h"

namespace cloudjoin::check {

namespace {

std::vector<join::IdPair> Sorted(std::vector<join::IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

EngineResult Ok(std::string engine, std::vector<join::IdPair> pairs) {
  EngineResult r;
  r.engine = std::move(engine);
  r.ran = true;
  r.pairs = Sorted(std::move(pairs));
  return r;
}

EngineResult Failed(std::string engine, Status status) {
  EngineResult r;
  r.engine = std::move(engine);
  r.ran = true;
  r.status = std::move(status);
  return r;
}

EngineResult Skipped(std::string engine) {
  EngineResult r;
  r.engine = std::move(engine);
  return r;
}

std::string PairToString(const join::IdPair& p) {
  return "(" + std::to_string(p.first) + "," + std::to_string(p.second) + ")";
}

/// Renders up to `limit` elements of `pairs` prefixed with `label`.
std::string PairsPreview(const std::string& label,
                         const std::vector<join::IdPair>& pairs,
                         size_t limit) {
  if (pairs.empty()) return "";
  std::string out = " " + label + std::to_string(pairs.size()) + " [";
  for (size_t i = 0; i < pairs.size() && i < limit; ++i) {
    if (i > 0) out += " ";
    out += PairToString(pairs[i]);
  }
  if (pairs.size() > limit) out += " ...";
  return out + "]";
}

std::vector<join::IdPair> RowsToPairs(const std::vector<impala::Row>& rows) {
  std::vector<join::IdPair> pairs;
  pairs.reserve(rows.size());
  for (const impala::Row& row : rows) {
    pairs.emplace_back(std::get<int64_t>(row[0]), std::get<int64_t>(row[1]));
  }
  return pairs;
}

std::vector<std::string> WkbHexLines(const CaseTable& table) {
  std::vector<std::string> lines;
  lines.reserve(table.records.size());
  for (const join::IdGeometry& r : table.records) {
    lines.push_back(std::to_string(r.id) + "\t" +
                    geom::WriteWkbHex(r.geometry));
  }
  return lines;
}

}  // namespace

CaseOutcome CompareResults(std::vector<EngineResult> results) {
  CaseOutcome outcome;
  outcome.results = std::move(results);
  if (outcome.results.empty() || !outcome.results[0].ran ||
      !outcome.results[0].status.ok()) {
    outcome.mismatch = true;
    outcome.summary = "oracle did not produce a result";
    return outcome;
  }
  const std::vector<join::IdPair>& expected = outcome.results[0].pairs;
  for (size_t i = 1; i < outcome.results.size(); ++i) {
    const EngineResult& r = outcome.results[i];
    if (!r.ran) continue;
    if (!r.status.ok()) {
      outcome.mismatch = true;
      outcome.summary += r.engine + ": ERROR " + r.status.ToString() + "\n";
      continue;
    }
    if (r.pairs == expected) continue;
    outcome.mismatch = true;
    std::vector<join::IdPair> missing;
    std::set_difference(expected.begin(), expected.end(), r.pairs.begin(),
                        r.pairs.end(), std::back_inserter(missing));
    std::vector<join::IdPair> extra;
    std::set_difference(r.pairs.begin(), r.pairs.end(), expected.begin(),
                        expected.end(), std::back_inserter(extra));
    outcome.summary += r.engine + ": " + std::to_string(r.pairs.size()) +
                       " pairs vs oracle " + std::to_string(expected.size()) +
                       PairsPreview("missing ", missing, 5) +
                       PairsPreview("extra ", extra, 5) + "\n";
  }
  return outcome;
}

DifferentialRunner::DifferentialRunner() : DifferentialRunner(Options()) {}

DifferentialRunner::DifferentialRunner(const Options& options)
    : options_(options) {}

CaseOutcome DifferentialRunner::RunCaseQuiet(const DifferentialCase& c) const {
  std::vector<EngineResult> results;

  // -- In-memory engines: run on every case shape, including empty sides.
  results.push_back(Ok("oracle/nested_loop",
                       join::NestedLoopSpatialJoin(c.left.records,
                                                   c.right.records,
                                                   c.predicate)));
  results.push_back(Ok("mem/broadcast",
                       join::BroadcastSpatialJoin(c.left.records,
                                                  c.right.records,
                                                  c.predicate)));
  join::PrepareOptions prepare;
  prepare.enabled = true;
  prepare.min_vertices = options_.prepare_min_vertices;
  results.push_back(
      Ok("mem/broadcast_prepared",
         join::BroadcastSpatialJoin(c.left.records, c.right.records,
                                    c.predicate, nullptr, prepare)));
  results.push_back(
      Ok("mem/parallel_broadcast",
         join::ParallelBroadcastSpatialJoin(c.left.records, c.right.records,
                                            c.predicate,
                                            options_.parallel_threads,
                                            prepare)));
  // A deliberately tiny batch size, so every case exercises partial
  // batches.
  join::ProbeOptions batch7;
  batch7.batch_size = 7;
  results.push_back(
      Ok("mem/broadcast_batch7",
         join::BroadcastSpatialJoin(c.left.records, c.right.records,
                                    c.predicate, nullptr,
                                    join::PrepareOptions(), batch7)));
  for (int tiles : options_.tile_counts) {
    results.push_back(
        Ok("mem/partitioned_t" + std::to_string(tiles),
           join::PartitionedSpatialJoin(c.left.records, c.right.records,
                                        c.predicate, tiles)));
  }

  // -- Text-backed engines parse the same content from DFS files. They are
  // exercised when both sides are non-empty (the Spark partitioned path
  // rejects an empty right side by contract, and empty-table behaviour is
  // already cross-checked by the in-memory engines above).
  const bool text_applicable = options_.run_dfs_engines &&
                               !c.left.records.empty() &&
                               !c.right.records.empty();
  const std::vector<std::string> spark_engines = {
      "spark/wkt", "spark/wkt_prepared", "spark/wkb", "spark/partitioned",
      "ispmc/sql", "ispmc/sql_cached",   "ispmc/sql_prepared",
      "ispmc/sql_forced_broadcast", "ispmc/sql_forced_partitioned",
      "ispmc/sql_nosfilter", "ispmc/sql_planroundtrip",
      "standalone/exact", "standalone/prepared",
      "standalone/columnar", "standalone/columnar_nozonemap",
      "standalone/columnar_prepared", "ispmc/sql_columnar",
      "ispmc/sql_columnar_cached"};
  if (!text_applicable) {
    for (const std::string& engine : spark_engines) {
      results.push_back(Skipped(engine));
    }
  } else {
    dfs::SimFileSystem fs(4, /*block_size=*/4 * 1024);
    CLOUDJOIN_CHECK(fs.WriteTextFile("/check/left.tbl", c.left.lines).ok());
    CLOUDJOIN_CHECK(fs.WriteTextFile("/check/right.tbl", c.right.lines).ok());
    CLOUDJOIN_CHECK(
        fs.WriteTextFile("/check/left.wkb.tbl", WkbHexLines(c.left)).ok());
    CLOUDJOIN_CHECK(
        fs.WriteTextFile("/check/right.wkb.tbl", WkbHexLines(c.right)).ok());

    join::TableInput left_in;
    left_in.path = "/check/left.tbl";
    join::TableInput right_in;
    right_in.path = "/check/right.tbl";
    join::TableInput left_wkb = left_in;
    left_wkb.path = "/check/left.wkb.tbl";
    left_wkb.encoding = join::GeometryEncoding::kWkbHex;
    join::TableInput right_wkb = right_in;
    right_wkb.path = "/check/right.wkb.tbl";
    right_wkb.encoding = join::GeometryEncoding::kWkbHex;

    auto add_spark = [&](const std::string& name,
                         Result<join::SparkJoinRun> run) {
      if (run.ok()) {
        results.push_back(Ok(name, std::move(run->pairs)));
      } else {
        results.push_back(Failed(name, run.status()));
      }
    };
    join::SpatialSparkSystem spark(&fs, options_.spark_partitions);
    add_spark("spark/wkt", spark.Join(left_in, right_in, c.predicate));
    join::SpatialSparkSystem spark_prepared(&fs, options_.spark_partitions,
                                            prepare);
    add_spark("spark/wkt_prepared",
              spark_prepared.Join(left_in, right_in, c.predicate));
    add_spark("spark/wkb", spark.Join(left_wkb, right_wkb, c.predicate));
    add_spark("spark/partitioned",
              spark.PartitionedJoin(left_in, right_in, c.predicate,
                                    options_.spark_tiles));

    auto add_ispmc = [&](const std::string& name,
                         const impala::QueryOptions& query_options) {
      join::IspMcSystem isp(&fs);
      auto run = isp.Join(left_in, right_in, c.predicate, query_options);
      if (run.ok()) {
        results.push_back(Ok(name, std::move(run->pairs)));
      } else {
        results.push_back(Failed(name, run.status()));
      }
    };
    add_ispmc("ispmc/sql", impala::QueryOptions());
    impala::QueryOptions cached;
    cached.cache_parsed_geometries = true;
    add_ispmc("ispmc/sql_cached", cached);
    impala::QueryOptions with_prepare;
    with_prepare.prepare_geometries = true;
    add_ispmc("ispmc/sql_prepared", with_prepare);

    // Planner arms: "ispmc/sql" above is the planner-auto arm; these force
    // each strategy, so a planner flip can never mask a result difference
    // between the broadcast and partitioned execution paths. Tiny tile
    // counts maximize tile-boundary replication (the dedup-sensitive case).
    impala::QueryOptions forced_broadcast;
    forced_broadcast.join_strategy = plan::JoinStrategy::kBroadcast;
    add_ispmc("ispmc/sql_forced_broadcast", forced_broadcast);
    impala::QueryOptions forced_partitioned;
    forced_partitioned.join_strategy = plan::JoinStrategy::kPartitioned;
    forced_partitioned.partitioned_tiles = 5;
    forced_partitioned.adaptive_partitioning = true;
    add_ispmc("ispmc/sql_forced_partitioned", forced_partitioned);
    // sFilter ablation: disabling the probe pre-filter must not change the
    // match set (the filter is conservative — false positives only).
    impala::QueryOptions no_sfilter;
    no_sfilter.probe.sfilter = false;
    add_ispmc("ispmc/sql_nosfilter", no_sfilter);

    // Plan-serialization arm: parse -> plan -> serialize -> deserialize ->
    // execute, asserting the textual round-trip is byte-identical before
    // running. A mismatch here means the serialized plan is not the full
    // execution contract.
    {
      join::IspMcSystem isp(&fs);
      auto lt = isp.RegisterTable("lt", left_in);
      auto rt = isp.RegisterTable("rt", right_in);
      if (!lt.ok() || !rt.ok()) {
        results.push_back(Failed("ispmc/sql_planroundtrip",
                                 lt.ok() ? rt.status() : lt.status()));
      } else {
        const std::string sql =
            "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt WHERE " +
            join::PredicateSql(c.predicate, "lt", "rt");
        auto roundtrip = [&]() -> Result<std::vector<join::IdPair>> {
          CLOUDJOIN_ASSIGN_OR_RETURN(impala::QueryPlan plan,
                                     isp.runtime()->Plan(sql));
          const std::string text = impala::SerializePlan(plan);
          CLOUDJOIN_ASSIGN_OR_RETURN(impala::QueryPlan replayed,
                                     impala::DeserializePlan(text));
          if (impala::SerializePlan(replayed) != text) {
            return Status::Internal(
                "plan serialization round-trip is not byte-identical");
          }
          CLOUDJOIN_ASSIGN_OR_RETURN(impala::QueryResult result,
                                     isp.runtime()->ExecutePlan(replayed));
          return RowsToPairs(result.rows);
        }();
        if (roundtrip.ok()) {
          results.push_back(
              Ok("ispmc/sql_planroundtrip", std::move(*roundtrip)));
        } else {
          results.push_back(
              Failed("ispmc/sql_planroundtrip", roundtrip.status()));
        }
      }
    }

    join::StandaloneMc standalone(&fs);
    auto add_standalone = [&](const std::string& name,
                              const join::PrepareOptions& p) {
      auto run = standalone.Join(left_in, right_in, c.predicate, p);
      if (run.ok()) {
        results.push_back(Ok(name, std::move(run->pairs)));
      } else {
        results.push_back(Failed(name, run.status()));
      }
    };
    add_standalone("standalone/exact", join::PrepareOptions());
    add_standalone("standalone/prepared", prepare);

    // -- Columnar-format arms: transcode the same tables to columnar
    // blocks (tiny blocks, so multi-block files and zone-map pruning are
    // exercised on every case) and diff the columnar scan/build paths
    // against the oracle — and, transitively, against their text twins.
    const std::vector<std::string> columnar_engines = {
        "standalone/columnar", "standalone/columnar_nozonemap",
        "standalone/columnar_prepared", "ispmc/sql_columnar",
        "ispmc/sql_columnar_cached"};
    if (!options_.run_columnar) {
      for (const std::string& engine : columnar_engines) {
        results.push_back(Skipped(engine));
      }
    } else {
      auto left_col = data::ConvertTextTableToColumnar(
          &fs, left_in, "/check/left.col", options_.columnar_block_rows);
      auto right_col = data::ConvertTextTableToColumnar(
          &fs, right_in, "/check/right.col", options_.columnar_block_rows);
      if (!left_col.ok() || !right_col.ok()) {
        const Status& bad =
            left_col.ok() ? right_col.status() : left_col.status();
        for (const std::string& engine : columnar_engines) {
          results.push_back(Failed(engine, bad));
        }
      } else {
        auto add_standalone_columnar = [&](const std::string& name,
                                           const join::PrepareOptions& p,
                                           const dfs::ScanOptions& scan) {
          auto run = standalone.Join(*left_col, *right_col, c.predicate, p,
                                     nullptr, join::ProbeOptions(), scan);
          if (run.ok()) {
            results.push_back(Ok(name, std::move(run->pairs)));
          } else {
            results.push_back(Failed(name, run.status()));
          }
        };
        dfs::ScanOptions no_zone_map;
        no_zone_map.zone_map = false;
        add_standalone_columnar("standalone/columnar", join::PrepareOptions(),
                                dfs::ScanOptions());
        add_standalone_columnar("standalone/columnar_nozonemap",
                                join::PrepareOptions(), no_zone_map);
        add_standalone_columnar("standalone/columnar_prepared", prepare,
                                dfs::ScanOptions());

        auto add_ispmc_columnar = [&](const std::string& name,
                                      const impala::QueryOptions&
                                          query_options) {
          join::IspMcSystem isp(&fs);
          auto run =
              isp.Join(*left_col, *right_col, c.predicate, query_options);
          if (run.ok()) {
            results.push_back(Ok(name, std::move(run->pairs)));
          } else {
            results.push_back(Failed(name, run.status()));
          }
        };
        add_ispmc_columnar("ispmc/sql_columnar", impala::QueryOptions());
        impala::QueryOptions columnar_cached;
        columnar_cached.cache_parsed_geometries = true;
        add_ispmc_columnar("ispmc/sql_columnar_cached", columnar_cached);
      }
    }
  }

  // -- Serving path: the same SQL through QueryService twice, so the warm
  // run diffs the broadcast-index cache arm against the cold build.
  if (!options_.run_service || !text_applicable) {
    results.push_back(Skipped("service/sql_cold"));
    results.push_back(Skipped("service/sql_warm"));
    results.push_back(Skipped("service/sql_replay"));
  } else {
    dfs::SimFileSystem fs(4, /*block_size=*/4 * 1024);
    CLOUDJOIN_CHECK(fs.WriteTextFile("/check/left.tbl", c.left.lines).ok());
    CLOUDJOIN_CHECK(fs.WriteTextFile("/check/right.tbl", c.right.lines).ok());
    join::TableInput left_in;
    left_in.path = "/check/left.tbl";
    join::TableInput right_in;
    right_in.path = "/check/right.tbl";

    server::ServiceOptions service_options;
    service_options.num_threads = 2;
    service_options.admission.max_concurrent = 2;
    server::QueryService service(&fs, service_options);
    auto lt = service.RegisterTable("lt", left_in);
    auto rt = service.RegisterTable("rt", right_in);
    if (!lt.ok() || !rt.ok()) {
      results.push_back(
          Failed("service/sql_cold", lt.ok() ? rt.status() : lt.status()));
      results.push_back(Skipped("service/sql_warm"));
      results.push_back(Skipped("service/sql_replay"));
    } else {
      server::Session* session = service.CreateSession();
      const std::string sql =
          "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt WHERE " +
          join::PredicateSql(c.predicate, "lt", "rt");
      std::string captured_plan;
      for (const char* name : {"service/sql_cold", "service/sql_warm"}) {
        auto response = service.Execute(session, sql);
        if (response.ok()) {
          captured_plan = response->plan_text;
          results.push_back(Ok(name, RowsToPairs(response->result.rows)));
        } else {
          results.push_back(Failed(name, response.status()));
        }
      }
      // Replay arm: the warm run's captured plan goes back through the
      // service's ExecutePlan entry — no SQL parsing, same rows expected.
      if (captured_plan.empty()) {
        results.push_back(Skipped("service/sql_replay"));
      } else {
        auto replay = service.ExecutePlan(session, captured_plan);
        if (replay.ok()) {
          results.push_back(
              Ok("service/sql_replay", RowsToPairs(replay->result.rows)));
        } else {
          results.push_back(Failed("service/sql_replay", replay.status()));
        }
      }
    }
  }

  return CompareResults(std::move(results));
}

CaseOutcome DifferentialRunner::RunCase(const DifferentialCase& c) {
  Stopwatch watch;
  CaseOutcome outcome = RunCaseQuiet(c);
  local_seconds_ += watch.ElapsedSeconds();

  counters_.Add("check.cases", 1);
  if (outcome.mismatch) counters_.Add("check.mismatched_cases", 1);
  if (!outcome.results.empty()) {
    counters_.Add("check.oracle_pairs",
                  static_cast<int64_t>(outcome.results[0].pairs.size()));
  }
  for (const EngineResult& r : outcome.results) {
    counters_.Add(r.ran ? "check.engines_run" : "check.engines_skipped", 1);
    if (r.ran && !r.status.ok()) counters_.Add("check.engine_failures", 1);
  }
  return outcome;
}

std::vector<Failure> DifferentialRunner::RunSeeds(uint64_t base, int count,
                                                  bool shrink) {
  std::vector<Failure> failures;
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    DifferentialCase c = GenerateCase(seed);
    CaseOutcome outcome = RunCase(c);
    if (!outcome.mismatch) continue;

    Failure failure;
    failure.seed = seed;
    if (shrink) {
      failure.minimal = ShrinkCase(
          std::move(c), [this](const DifferentialCase& candidate) {
            return RunCaseQuiet(candidate).mismatch;
          });
      failure.outcome = RunCaseQuiet(failure.minimal);
    } else {
      failure.minimal = std::move(c);
      failure.outcome = std::move(outcome);
    }
    std::string note = failure.outcome.summary;
    if (size_t nl = note.find('\n'); nl != std::string::npos) {
      note.resize(nl);
    }
    failure.repro = FormatRepro(failure.minimal, note);
    failures.push_back(std::move(failure));
  }
  return failures;
}

sim::RunReport DifferentialRunner::BuildReport() const {
  sim::RunReport report;
  report.system = "check-differential";
  report.experiment = "differential";
  report.result_count = counters_.Get("check.oracle_pairs");
  report.local_seconds = local_seconds_;
  report.counters = counters_;
  return report;
}

}  // namespace cloudjoin::check
