// Differential correctness harness: runs seeded edge-case workloads
// through every join path (in-memory, SpatialSpark text/WKB, ISP-MC SQL,
// standalone, query service) and diffs the canonicalized result sets.
// Exits non-zero on any discrepancy, printing a shrunk minimal reproducer
// as a ready-to-paste regression test.
//
// Usage:
//   check_differential [--seeds=N] [--seed-base=B] [--shrink=0]
//                      [--dfs=0] [--service=0] [--columnar=0] [--verbose]
//                      [--stream-seeds=N] [--stream-seed-base=B]
//                      [--sql-seeds=N] [--sql-seed-base=B]
//
// --stream-seeds > 0 additionally runs the streaming differential arm:
// windowed continuous queries (incremental grid + rebuild baseline)
// checked byte-identical against one-shot batch joins per window, with
// the right table re-registered halfway through each feed.
//
// --sql-seeds > 0 additionally runs the grammar-driven SQL fuzzer:
// generated queries over the full dialect executed directly, through the
// serialized-plan round trip, and through the query service with the
// broadcast-index cache on and off — all four must return byte-identical
// rows — plus mutated SQL and mutated plan text fed to the frontend and
// the plan deserializer as crash/consistency probes.

#include <cstdio>

#include "check/differential.h"
#include "check/sql_fuzz.h"
#include "check/stream_differential.h"
#include "common/flags.h"

int main(int argc, char** argv) {
  cloudjoin::Flags flags(
      argc, argv,
      {"seeds", "seed-base", "shrink", "verbose", "dfs", "service", "columnar",
       "stream-seeds", "stream-seed-base", "sql-seeds", "sql-seed-base"});
  const int seeds = static_cast<int>(flags.GetInt("seeds", 50));
  const uint64_t base = static_cast<uint64_t>(flags.GetInt("seed-base", 1));
  const bool shrink = flags.GetBool("shrink", true);
  const bool verbose = flags.GetBool("verbose", false);
  const int stream_seeds = static_cast<int>(flags.GetInt("stream-seeds", 0));
  const uint64_t stream_base =
      static_cast<uint64_t>(flags.GetInt("stream-seed-base", 1));
  const int sql_seeds = static_cast<int>(flags.GetInt("sql-seeds", 0));
  const uint64_t sql_base =
      static_cast<uint64_t>(flags.GetInt("sql-seed-base", 1));

  cloudjoin::check::DifferentialRunner::Options options;
  options.run_dfs_engines = flags.GetBool("dfs", true);
  options.run_service = flags.GetBool("service", true);
  options.run_columnar = flags.GetBool("columnar", true);

  cloudjoin::check::DifferentialRunner runner(options);
  std::vector<cloudjoin::check::Failure> failures =
      runner.RunSeeds(base, seeds, shrink);

  if (verbose || !failures.empty()) {
    std::printf("%s\n", runner.BuildReport().ToString().c_str());
  }
  for (const cloudjoin::check::Failure& failure : failures) {
    std::printf("== MISMATCH seed %llu (left=%zu right=%zu after shrink)\n%s",
                static_cast<unsigned long long>(failure.seed),
                failure.minimal.left.records.size(),
                failure.minimal.right.records.size(),
                failure.outcome.summary.c_str());
    std::printf("-- minimal reproducer --\n%s\n", failure.repro.c_str());
  }

  const auto& counters = runner.counters();
  std::printf(
      "check_differential: %lld cases, %lld engine runs, %lld mismatches\n",
      static_cast<long long>(counters.Get("check.cases")),
      static_cast<long long>(counters.Get("check.engines_run")),
      static_cast<long long>(counters.Get("check.mismatched_cases")));

  bool stream_failed = false;
  if (stream_seeds > 0) {
    cloudjoin::check::StreamCheckReport stream_report =
        cloudjoin::check::RunStreamDifferential(stream_base, stream_seeds,
                                                verbose);
    for (const std::string& failure : stream_report.failures) {
      std::printf("== STREAM MISMATCH %s\n", failure.c_str());
    }
    std::printf(
        "stream_differential: %lld seeds, %lld events, %lld windows, %lld "
        "right-table switches, %zu mismatches\n",
        static_cast<long long>(stream_report.seeds),
        static_cast<long long>(stream_report.events),
        static_cast<long long>(stream_report.windows),
        static_cast<long long>(stream_report.right_switches),
        stream_report.failures.size());
    stream_failed = !stream_report.failures.empty();
  }

  bool sql_failed = false;
  if (sql_seeds > 0) {
    cloudjoin::check::SqlFuzzReport sql_report =
        cloudjoin::check::RunSqlFuzz(sql_base, sql_seeds, verbose);
    for (const std::string& failure : sql_report.failures) {
      std::printf("== SQL FUZZ FAILURE %s\n", failure.c_str());
    }
    std::printf(
        "sql_fuzz: %lld seeds, %lld queries (%lld rejected), %lld sql "
        "mutants, %lld plan mutants, %zu failures\n",
        static_cast<long long>(sql_report.seeds),
        static_cast<long long>(sql_report.valid_queries),
        static_cast<long long>(sql_report.rejected_queries),
        static_cast<long long>(sql_report.malformed_inputs),
        static_cast<long long>(sql_report.plan_mutations),
        sql_report.failures.size());
    sql_failed = !sql_report.failures.empty();
  }
  return failures.empty() && !stream_failed && !sql_failed ? 0 : 1;
}
