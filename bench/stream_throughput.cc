// Streaming join throughput: a seeded synthetic point feed (hotspot-
// skewed NYC pings) drives a continuous `SELECT ... SPATIAL JOIN`
// against the census-blocks table, sweeping window size x index mode.
//
// The ablation is GeoFlink's core claim: maintaining a uniform grid
// incrementally — insert each event into its cell on arrival, drop the
// expiring pane after the window fires — beats rebuilding an index from
// the window contents at every firing, and the gap widens as windows
// overlap (sliding mode parses, filters and refines each event size/slide
// times in the rebuild baseline, once in the incremental one, whose grid
// keeps each pane's matches for every window that overlaps it).
//
// Reported per (window, mode) arm: sustained events/sec over
// IngestAll + Flush, windows fired, watermark lag at fire time (mean/max
// over watermark-fired windows), per-window probe latency p50/p99, grid
// cell scan/prune counts, refinements (join.candidates: the incremental
// arm refines each event once, the rebuild arm once per window holding
// it), and an order-sensitive checksum of every emitted pair. The
// checksum must match across modes at each window config, and with
// --check=1 (default) every window is additionally replayed through a
// one-shot batch join (exec::RunGeosProbes over the borrowed window
// contents) and must be byte-identical — the same invariant the
// check_differential --stream-seeds harness sweeps.
//
// Flags:
//   --smoke        small deterministic run for CI (fewer events/configs)
//   --events=N     feed length (default 20000; smoke 2500)
//   --eps=R        feed rate in events/sec of event time (default 5000)
//   --scale=S      right-table workload scale (default 0.05)
//   --check=0|1    per-window batch-oracle differential (default 1)
//   --seed=K       feed + workload seed (default 2015)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "exec/probe_scanner.h"
#include "exec/right_builder.h"
#include "join/isp_mc_system.h"
#include "server/query_service.h"
#include "stream/continuous_query.h"
#include "stream/stream_source.h"
#include "stream/window_manager.h"

namespace cloudjoin::bench {
namespace {

/// One (window spec, index mode) sweep point.
struct ArmConfig {
  stream::WindowSpec window;
  bool incremental = true;
};

struct ArmResult {
  double wall_seconds = 0.0;
  int64_t events = 0;
  int64_t windows = 0;
  int64_t pairs = 0;
  /// Order-SENSITIVE pair digest: any reordering or membership change
  /// across modes shows up here.
  uint64_t checksum = 0;
  int64_t lag_sum_ms = 0;
  int64_t lag_max_ms = 0;
  int64_t lag_windows = 0;
  int64_t cells_scanned = 0;
  int64_t cells_pruned = 0;
  int64_t oracle_mismatches = 0;
  /// Time spent inside the per-window batch-oracle replay; subtracted
  /// from the wall so --check=1 doesn't dilute the mode comparison.
  double oracle_seconds = 0.0;
  stream::StreamStats stream_stats;
  server::ServiceStats interval;

  double EventsPerSecond() const {
    const double work = wall_seconds - oracle_seconds;
    return work <= 0.0 ? 0.0 : events / work;
  }
};

uint64_t MixPair(uint64_t h, const exec::IdPair& pair) {
  h ^= static_cast<uint64_t>(pair.first) + 0x9E3779B97F4A7C15ULL +
       (h << 6) + (h >> 2);
  h ^= static_cast<uint64_t>(pair.second) + 0x9E3779B97F4A7C15ULL +
       (h << 6) + (h >> 2);
  return h;
}

std::string WindowName(const stream::WindowSpec& window) {
  char buf[64];
  if (window.SlideMs() == window.size_ms) {
    std::snprintf(buf, sizeof(buf), "tumble %lldms",
                  static_cast<long long>(window.size_ms));
  } else {
    std::snprintf(buf, sizeof(buf), "slide %lld/%lldms",
                  static_cast<long long>(window.size_ms),
                  static_cast<long long>(window.slide_ms));
  }
  return buf;
}

/// Replays one window through the plain batch driver and diffs the pair
/// list — exactly what re-running the window as a static query returns.
int64_t OracleMismatch(const stream::WindowResult& result,
                       const exec::BuiltRight& right,
                       const exec::SpatialPredicate& predicate) {
  exec::GeosProbeBatch batch;
  for (const stream::StreamEvent* event : *result.events) {
    auto parsed = exec::ParseGeosWkt(event->wkt);
    if (!parsed.ok()) continue;  // streamed arms drop these too
    batch.ids.push_back(event->id);
    batch.wkt.push_back(event->wkt);
    batch.geoms.push_back(std::move(parsed).value());
  }
  std::vector<exec::IdPair> expect;
  exec::ProbeStats stats;
  exec::RunGeosProbes(
      batch, right, predicate, index::ProbeOptions(),
      [&](exec::IdPair pair) { expect.push_back(pair); }, &stats);
  return result.pairs == expect ? 0 : 1;
}

ArmResult RunArm(server::QueryService* service, dfs::SimFileSystem* fs,
                 const std::string& sql, const ArmConfig& config,
                 const stream::SyntheticPointSourceOptions& feed,
                 const exec::BuiltRight* oracle_right,
                 const exec::SpatialPredicate& predicate) {
  stream::ContinuousQueryRegistry registry(service, fs);

  stream::StreamQueryOptions options;
  options.window = config.window;
  options.incremental_index = config.incremental;
  options.grid.cells_per_axis = 32;
  options.grid.extent = feed.extent;

  ArmResult arm;
  auto id = registry.Register(
      sql, options, [&](const stream::WindowResult& result) {
        CLOUDJOIN_CHECK(result.status.ok()) << result.status;
        ++arm.windows;
        arm.pairs += static_cast<int64_t>(result.pairs.size());
        for (const exec::IdPair& pair : result.pairs) {
          arm.checksum = MixPair(arm.checksum, pair);
        }
        if (!result.on_flush) {
          arm.lag_sum_ms += result.watermark_lag_ms;
          arm.lag_max_ms = std::max(arm.lag_max_ms, result.watermark_lag_ms);
          ++arm.lag_windows;
        }
        arm.cells_scanned += result.cells_scanned;
        arm.cells_pruned += result.cells_pruned;
        if (oracle_right != nullptr) {
          Stopwatch oracle_clock;
          arm.oracle_mismatches +=
              OracleMismatch(result, *oracle_right, predicate);
          arm.oracle_seconds += oracle_clock.ElapsedSeconds();
        }
      });
  CLOUDJOIN_CHECK(id.ok()) << id.status();

  stream::SyntheticPointSource source(feed);
  Stopwatch wall;
  arm.events = registry.IngestAll(&source);
  registry.Flush();
  arm.wall_seconds = wall.ElapsedSeconds();
  arm.stream_stats = registry.GetStats();
  // Interval (not lifetime) service stats: the cache traffic THIS arm
  // generated, isolated from earlier arms sharing the service.
  arm.interval = service->TakeIntervalStats();
  return arm;
}

void PrintArm(const ArmConfig& config, const ArmResult& arm, bool check) {
  const LatencyHistogram::Snapshot& lat =
      arm.stream_stats.window_probe_latency;
  const Counters& counters = arm.stream_stats.counters;
  std::printf("  %-11s  %9.0f ev/s  %4lld windows  %7lld pairs\n",
              config.incremental ? "incremental" : "rebuild",
              arm.EventsPerSecond(), static_cast<long long>(arm.windows),
              static_cast<long long>(arm.pairs));
  std::printf("    watermark lag mean %.1fms max %lldms  probe p50 %s  "
              "p99 %s\n",
              arm.lag_windows == 0
                  ? 0.0
                  : static_cast<double>(arm.lag_sum_ms) / arm.lag_windows,
              static_cast<long long>(arm.lag_max_ms),
              FormatDuration(lat.PercentileSeconds(0.50)).c_str(),
              FormatDuration(lat.PercentileSeconds(0.99)).c_str());
  std::printf("    cells scanned %lld pruned %lld  events pruned %lld  "
              "refinements %lld  rebuilds %lld  right cache hit/miss "
              "%lld/%lld\n",
              static_cast<long long>(arm.cells_scanned),
              static_cast<long long>(arm.cells_pruned),
              static_cast<long long>(counters.Get("stream.events_pruned")),
              static_cast<long long>(counters.Get(exec::counter::kCandidates)),
              static_cast<long long>(counters.Get("stream.grid_rebuilds")),
              static_cast<long long>(arm.interval.cache.hits),
              static_cast<long long>(arm.interval.cache.misses));
  std::printf("    checksum %016llx%s\n",
              static_cast<unsigned long long>(arm.checksum),
              check ? (arm.oracle_mismatches == 0
                           ? "  batch-oracle OK"
                           : "  BATCH-ORACLE MISMATCH")
                    : "");
}

int Run(const Flags& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const int64_t events =
      flags.GetInt("events", smoke ? 2500 : 20000);
  const double eps = flags.GetDouble("eps", 5000.0);
  const double scale = flags.GetDouble("scale", smoke ? 0.02 : 0.05);
  const bool check = flags.GetBool("check", true);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2015));

  std::printf("stream_throughput: %lld events @ %.0f ev/s event-time, "
              "scale %.3f, seed %llu%s\n\n",
              static_cast<long long>(events), eps, scale,
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  dfs::SimFileSystem fs(/*num_nodes=*/10, /*block_size=*/32 * 1024);
  auto suite = data::MaterializeWorkloads(&fs, scale, seed);
  CLOUDJOIN_CHECK(suite.ok()) << suite.status();
  const data::Workload& workload = suite->taxi_nycb;

  server::ServiceOptions service_options;
  service_options.num_threads = 2;
  server::QueryService service(&fs, service_options);
  CLOUDJOIN_CHECK(service.RegisterTable("taxi", workload.left).ok());
  CLOUDJOIN_CHECK(service.RegisterTable("nycb", workload.right).ok());
  const std::string sql =
      "SELECT taxi.id, nycb.id FROM taxi SPATIAL JOIN nycb WHERE " +
      join::PredicateSql(workload.predicate, "taxi", "nycb");

  // Feed: hotspot-skewed pings with a 5% late fraction reaching back up
  // to one small window — the watermark/late-policy stressor. The extent
  // is wider than the census-block coverage (GPS noise, trips leaving the
  // city), so grid cells outside the right side's filter region prune:
  // both arms skip those probes, but the rebuild baseline still re-parses
  // every pruned event at each firing.
  stream::SyntheticPointSourceOptions feed;
  feed.num_events = events;
  feed.events_per_second = eps;
  feed.seed = seed;
  feed.extent = data::NycExtent();
  feed.extent.ExpandBy(0.5 * feed.extent.Width());
  feed.out_of_order_fraction = 0.05;
  feed.max_delay_ms = 200;
  // Bursty arrivals (network batching): the watermark advances in
  // burst-sized jumps, so fired windows report a nonzero overshoot lag.
  feed.burst = flags.GetInt("burst", 64);

  // Batch oracle right side, built once outside the cache path.
  Counters oracle_counters;
  std::unique_ptr<exec::BuiltRight> oracle_right;
  if (check) {
    auto file = fs.GetFile(workload.right.path);
    CLOUDJOIN_CHECK(file.ok()) << file.status();
    exec::TableInput right_in;
    right_in.path = workload.right.path;
    auto built = exec::BuildRightFromTable(
        *file.value(), right_in, workload.predicate.FilterRadius(),
        exec::PrepareOptions(), &oracle_counters);
    CLOUDJOIN_CHECK(built.ok()) << built.status();
    oracle_right =
        std::make_unique<exec::BuiltRight>(std::move(built).value());
  }

  std::vector<stream::WindowSpec> windows;
  for (int64_t size_ms : smoke ? std::vector<int64_t>{200, 800}
                               : std::vector<int64_t>{200, 800, 3200}) {
    stream::WindowSpec spec;
    spec.size_ms = size_ms;
    spec.allowed_lateness_ms = 100;
    windows.push_back(spec);
  }
  {
    // One sliding config: 4 panes per window, so the rebuild baseline
    // parses and refines every event 4x.
    stream::WindowSpec spec;
    spec.size_ms = 800;
    spec.slide_ms = 200;
    spec.allowed_lateness_ms = 100;
    windows.push_back(spec);
  }

  service.TakeIntervalStats();  // drop table-registration noise
  int failures = 0;
  for (const stream::WindowSpec& window : windows) {
    std::printf("%s  (lateness %lldms)\n", WindowName(window).c_str(),
                static_cast<long long>(window.allowed_lateness_ms));
    ArmResult results[2];
    for (int mode = 0; mode < 2; ++mode) {
      ArmConfig config;
      config.window = window;
      config.incremental = mode == 0;
      results[mode] = RunArm(&service, &fs, sql, config, feed,
                             oracle_right.get(), workload.predicate);
      PrintArm(config, results[mode], check);
      failures += static_cast<int>(results[mode].oracle_mismatches);
    }
    if (results[0].checksum != results[1].checksum ||
        results[0].windows != results[1].windows) {
      std::printf("  MODE MISMATCH: incremental %016llx/%lld vs rebuild "
                  "%016llx/%lld\n",
                  static_cast<unsigned long long>(results[0].checksum),
                  static_cast<long long>(results[0].windows),
                  static_cast<unsigned long long>(results[1].checksum),
                  static_cast<long long>(results[1].windows));
      ++failures;
    } else {
      const double inc = results[0].wall_seconds - results[0].oracle_seconds;
      const double reb = results[1].wall_seconds - results[1].oracle_seconds;
      std::printf("  incremental/rebuild speedup %.2fx  (modes agree)\n",
                  inc <= 0.0 ? 0.0 : reb / inc);
    }
    std::printf("\n");
  }
  if (failures > 0) {
    std::printf("stream_throughput: %d FAILURES\n", failures);
    return 1;
  }
  std::printf("stream_throughput: all modes agree%s\n",
              check ? ", all windows match the batch oracle" : "");
  return 0;
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(argc, argv, {"scale", "seed", "events", "eps",
                                      "burst", "check", "smoke"});
  return cloudjoin::bench::Run(flags);
}
