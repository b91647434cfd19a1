// End-to-end benchmark of the SQL and streaming spatial-join service.
//
//   cloudjoin_perfbench --workload <paper_warm|paper_refresh|stream_slide|all>
//                       [--seed 2015] [--seconds 30] [--trace 0|1]
//                       [--trace_dir DIR]
//
// Prints human-readable tables, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the five end-to-end ones; with --trace 1 they are the
// per-layer ones of a traced rerun. Exit code 0 on success, 1 when a
// result was wrong, 2 when the run could not report.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/workloads.h"

namespace cloudjoin::perfbench {
namespace {

/// Every per-layer metric, in report order. A traced run reports all of
/// them on every workload; layers a workload does not use read 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"server.queue_ms_p50", "ms"},
    {"server.queue_ms_p95", "ms"},
    {"server.overhead_ms_p50", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.cache_mb", "MB"},
    {"server.register_ms_p50", "ms"},
    {"plan.stats_ms", "ms"},
    {"plan.partitioned_share", "ratio"},
    {"impala.plan_ms_p50", "ms"},
    {"impala.fragment_ms_p50", "ms"},
    {"impala.rows_out", "count"},
    {"exec.build_ms_p50", "ms"},
    {"exec.build_ms", "ms"},
    {"exec.build_mb", "MB"},
    {"exec.builds_per_op", "ratio"},
    {"exec.refine_yield", "ratio"},
    {"exec.uncovered_ms", "ms"},
    {"dfs.scan_ms", "ms"},
    {"dfs.scan_mb", "MB"},
    {"geosim.parse_ms", "ms"},
    {"geosim.refine_ms", "ms"},
    {"index.filter_ms", "ms"},
    {"index.candidates_per_probe", "ratio"},
    {"index.sfilter_skip_ratio", "ratio"},
    {"stream.probe_ms_p50", "ms"},
    {"stream.probe_ms_p95", "ms"},
    {"stream.gather_ms_p50", "ms"},
    {"stream.ingest_us_p50", "us"},
    {"stream.cells_pruned_ratio", "ratio"},
    {"stream.events_pruned_ratio", "ratio"},
    {"stream.right_cache_hit_ratio", "ratio"},
    {"stream.late_dropped", "count"},
    {"stream.windows", "count"},
    {"trace.overhead_pct", "%"},
};

const char* const kWorkloads[] = {"paper_warm", "paper_refresh",
                                  "stream_slide"};

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  options->workload = "all";
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return false;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--trace_dir") {
      options->trace_dir = value;
    } else {
      return false;
    }
  }
  return true;
}

Outcome Run(const std::string& workload, const RunOptions& options) {
  if (workload == "paper_warm") return RunPaperWarm(options);
  if (workload == "paper_refresh") return RunPaperRefresh(options);
  return RunStreamSlide(options);
}

/// Appends `"name": {"value": v, "unit": u}` entries for `outcome`'s
/// reported metric set, prefixing names with `prefix`.
bool AppendMetrics(const Outcome& outcome, bool trace,
                   const std::string& prefix, std::string* json) {
  std::vector<Metric> metrics;
  if (trace) {
    for (const auto& [name, unit] : kPerLayer) {
      const Metric* m = outcome.per_layer.Find(name);
      metrics.push_back(m != nullptr ? *m : Metric{name, 0.0, unit, 0});
    }
    for (const Metric& m : outcome.per_layer.metrics()) {
      bool known = false;
      for (const auto& [name, unit] : kPerLayer) known |= m.name == name;
      if (!known) {
        std::fprintf(stderr, "unlisted per-layer metric %s\n", m.name.c_str());
        return false;
      }
    }
  } else {
    metrics = outcome.end_to_end.metrics();
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (json->back() != '{') *json += ", ";
    *json += "\"" + prefix + m.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + m.unit + "\"}";
  }
  return true;
}

int Main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper_warm|paper_refresh|"
                 "stream_slide|all> [--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace_dir DIR]\n",
                 argv[0]);
    return 2;
  }
  std::vector<std::string> workloads;
  for (const char* w : kWorkloads) {
    if (options.workload == "all" || options.workload == w) {
      workloads.push_back(w);
    }
  }
  if (workloads.empty()) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  const bool all = workloads.size() > 1;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  std::string json = "{";
  for (const std::string& workload : workloads) {
    RunOptions run = options;
    if (!options.trace_dir.empty()) {
      run.trace_out = options.trace_dir + "/spans_" + workload + ".csv";
    }
    const Outcome outcome = Run(workload, run);
    std::printf("%s: attempted %lld, failed %lld, rejected %lld, wrong %lld\n",
                workload.c_str(), static_cast<long long>(outcome.attempted),
                static_cast<long long>(outcome.failed),
                static_cast<long long>(outcome.rejected),
                static_cast<long long>(outcome.wrong));
    std::fflush(stdout);
    if (!outcome.error.empty()) {
      std::fprintf(stderr, "%s: %s\n", workload.c_str(),
                   outcome.error.c_str());
      return 2;
    }
    attempted += outcome.attempted;
    failed += outcome.failed + outcome.rejected + outcome.wrong;
    wrong += outcome.wrong;
    if (!AppendMetrics(outcome, options.trace, all ? workload + "." : "",
                       &json)) {
      return 2;
    }
  }
  json += "}";
  const bool correct = wrong == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cloudjoin::perfbench

int main(int argc, char** argv) {
  return cloudjoin::perfbench::Main(argc, argv);
}
