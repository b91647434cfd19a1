#include "check/stream_differential.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "check/workload.h"
#include "common/logging.h"
#include "common/rng.h"
#include "dfs/sim_file_system.h"
#include "exec/probe_scanner.h"
#include "exec/right_builder.h"
#include "geom/envelope.h"
#include "join/isp_mc_system.h"
#include "server/query_service.h"
#include "stream/continuous_query.h"
#include "stream/stream_event.h"
#include "stream/window_manager.h"

namespace cloudjoin::check {

namespace {

/// One captured window from either a streamed arm or the batch oracle.
struct CapturedWindow {
  int64_t index = 0;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  std::vector<exec::IdPair> pairs;
};

std::string DescribeMismatch(uint64_t seed, const char* arm, size_t window,
                             const CapturedWindow& got,
                             const CapturedWindow& want) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "seed %llu arm %s window %zu: got [w%lld %lld,%lld) %zu "
                "pairs, batch oracle [w%lld %lld,%lld) %zu pairs",
                static_cast<unsigned long long>(seed), arm, window,
                static_cast<long long>(got.index),
                static_cast<long long>(got.start_ms),
                static_cast<long long>(got.end_ms), got.pairs.size(),
                static_cast<long long>(want.index),
                static_cast<long long>(want.start_ms),
                static_cast<long long>(want.end_ms), want.pairs.size());
  return buf;
}

bool SameWindow(const CapturedWindow& a, const CapturedWindow& b) {
  return a.index == b.index && a.start_ms == b.start_ms &&
         a.end_ms == b.end_ms && a.pairs == b.pairs;
}

}  // namespace

StreamCheckReport RunStreamDifferential(uint64_t seed_base, int seeds,
                                        bool verbose) {
  StreamCheckReport report;

  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(s);
    ++report.seeds;
    const DifferentialCase c = GenerateCase(seed);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5DEECE66DULL);

    // Seeded window spec: tumbling or sliding (pane decomposition), with
    // and without lateness allowance.
    stream::WindowSpec window;
    const int64_t slide = 5 + static_cast<int64_t>(rng.UniformInt(20));
    const int64_t panes = int64_t{1} << rng.UniformInt(3);  // 1, 2, or 4
    window.size_ms = slide * panes;
    window.slide_ms = panes == 1 && rng.Bernoulli(0.5) ? 0 : slide;
    window.allowed_lateness_ms =
        rng.Bernoulli(0.5) ? static_cast<int64_t>(rng.UniformInt(30)) : 0;

    // The left table replayed as a feed: seeded event times, monotone-ish
    // with a late/out-of-order fraction reaching several windows back.
    std::vector<stream::StreamEvent> feed;
    int64_t t = static_cast<int64_t>(rng.UniformInt(10));
    for (const join::IdGeometry& record : c.left.records) {
      stream::StreamEvent event;
      event.id = record.id;
      event.wkt = FormatWkt(record.geometry);
      t += static_cast<int64_t>(rng.UniformInt(7));
      event.event_time_ms =
          rng.Bernoulli(0.3)
              ? t - static_cast<int64_t>(
                        rng.UniformInt(static_cast<uint64_t>(3 * window.size_ms)))
              : t;
      feed.push_back(std::move(event));
    }

    // Service + registry under test. The right table's second version,
    // registered halfway through the feed, holds every other row.
    std::vector<std::string> right2_lines;
    for (size_t i = 1; i < c.right.lines.size(); i += 2) {
      right2_lines.push_back(c.right.lines[i]);
    }
    dfs::SimFileSystem fs(4, /*block_size=*/4 * 1024);
    CLOUDJOIN_CHECK(fs.WriteTextFile("/check/left.tbl", c.left.lines).ok());
    CLOUDJOIN_CHECK(fs.WriteTextFile("/check/right.tbl", c.right.lines).ok());
    CLOUDJOIN_CHECK(fs.WriteTextFile("/check/right2.tbl", right2_lines).ok());
    join::TableInput left_in;
    left_in.path = "/check/left.tbl";
    join::TableInput right_in;
    right_in.path = "/check/right.tbl";
    join::TableInput right2_in;
    right2_in.path = "/check/right2.tbl";

    server::ServiceOptions service_options;
    service_options.num_threads = 2;
    service_options.admission.max_concurrent = 2;
    server::QueryService service(&fs, service_options);
    if (!service.RegisterTable("lt", left_in).ok() ||
        !service.RegisterTable("rt", right_in).ok()) {
      // Degenerate empty-table seeds cannot register (zero columns); the
      // batch sweep skips its SQL arms on these too.
      if (verbose) {
        std::printf("stream seed %llu: skipped (empty table)\n",
                    static_cast<unsigned long long>(seed));
      }
      continue;
    }

    const std::string sql =
        "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt WHERE " +
        join::PredicateSql(c.predicate, "lt", "rt");

    // Grid extent from the feed's geometry (seeded cell resolution), so
    // cell pruning actually engages instead of degrading to one cell.
    stream::WindowGridOptions grid;
    for (const join::IdGeometry& record : c.left.records) {
      grid.extent.ExpandToInclude(record.geometry.envelope());
    }
    grid.cells_per_axis = 1 + static_cast<int>(rng.UniformInt(8));

    stream::ContinuousQueryRegistry registry(&service, &fs);
    std::vector<CapturedWindow> arms[2];
    const char* arm_names[2] = {"incremental", "rebuild"};
    for (int arm = 0; arm < 2; ++arm) {
      stream::StreamQueryOptions options;
      options.window = window;
      options.grid = grid;
      options.incremental_index = arm == 0;
      auto id = registry.Register(
          sql, options, [&arms, arm](const stream::WindowResult& result) {
            CLOUDJOIN_CHECK(result.status.ok());
            CapturedWindow w;
            w.index = result.window_index;
            w.start_ms = result.start_ms;
            w.end_ms = result.end_ms;
            w.pairs = result.pairs;
            arms[arm].push_back(std::move(w));
          });
      CLOUDJOIN_CHECK(id.ok());
    }

    // The batch oracle: an independent WindowManager fed the same events;
    // every fired window is joined one-shot — parse the contents into a
    // GeosProbeBatch in arrival order and run the plain batch driver
    // against a right side built directly (no cache, no grid, no
    // pruning). This is exactly what a user re-running the window as a
    // static query would get.
    Counters oracle_counters;
    const auto build_oracle_right = [&](const std::string& path) {
      auto file = fs.GetFile(path);
      CLOUDJOIN_CHECK(file.ok());
      exec::TableInput input;
      input.path = path;
      auto built = exec::BuildRightFromTable(
          *file.value(), input, c.predicate.FilterRadius(),
          exec::PrepareOptions(), &oracle_counters);
      CLOUDJOIN_CHECK(built.ok());
      return std::move(built).value();
    };
    const exec::BuiltRight oracle_right = build_oracle_right(right_in.path);
    const exec::BuiltRight oracle_right2 = build_oracle_right(right2_in.path);
    const exec::BuiltRight* oracle_side = &oracle_right;

    std::vector<CapturedWindow> oracle;
    stream::WindowManager oracle_manager(window);
    const auto oracle_fire = [&](const stream::ClosedWindow& closed) {
      CapturedWindow w;
      w.index = closed.index;
      w.start_ms = closed.start_ms;
      w.end_ms = closed.end_ms;
      exec::GeosProbeBatch batch;
      for (const stream::StreamEvent* event : closed.events) {
        auto parsed = exec::ParseGeosWkt(event->wkt);
        if (!parsed.ok()) continue;  // same drop the streamed arms apply
        batch.ids.push_back(event->id);
        batch.wkt.push_back(event->wkt);
        batch.geoms.push_back(std::move(parsed).value());
      }
      exec::ProbeStats stats;
      exec::RunGeosProbes(
          batch, *oracle_side, c.predicate, index::ProbeOptions(),
          [&](exec::IdPair pair) { w.pairs.push_back(pair); }, &stats);
      oracle.push_back(std::move(w));
    };

    for (size_t e = 0; e < feed.size(); ++e) {
      if (e == feed.size() / 2 && service.RegisterTable("rt", right2_in).ok()) {
        // Every window fired from here on joins the second version,
        // including the windows that share panes with ones already fired.
        // A one-row table's second version is empty and cannot register;
        // that seed keeps its table.
        oracle_side = &oracle_right2;
        ++report.right_switches;
      }
      registry.Ingest(feed[e]);
      oracle_manager.Observe(feed[e], oracle_fire);
      ++report.events;
    }
    registry.Flush();
    oracle_manager.Flush(oracle_fire);

    report.windows += static_cast<int64_t>(oracle.size());
    for (int arm = 0; arm < 2; ++arm) {
      if (arms[arm].size() != oracle.size()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "seed %llu arm %s: fired %zu windows, batch oracle %zu",
                      static_cast<unsigned long long>(seed), arm_names[arm],
                      arms[arm].size(), oracle.size());
        report.failures.push_back(buf);
        continue;
      }
      for (size_t w = 0; w < oracle.size(); ++w) {
        if (!SameWindow(arms[arm][w], oracle[w])) {
          report.failures.push_back(
              DescribeMismatch(seed, arm_names[arm], w, arms[arm][w],
                               oracle[w]));
        }
      }
    }
    if (verbose) {
      std::printf("stream seed %llu: %zu events, %zu windows (%s)\n",
                  static_cast<unsigned long long>(seed), feed.size(),
                  oracle.size(), window.ToString().c_str());
    }
  }
  return report;
}

}  // namespace cloudjoin::check
