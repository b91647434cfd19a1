#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dfs/sim_file_system.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "exec/table_input.h"
#include "geom/envelope.h"
#include "join/isp_mc_system.h"
#include "server/broadcast_index_cache.h"
#include "server/query_service.h"
#include "stream/continuous_query.h"
#include "stream/counter_names.h"
#include "stream/stream_event.h"
#include "stream/stream_source.h"
#include "stream/window_grid.h"
#include "stream/window_manager.h"

namespace cloudjoin::stream {
namespace {

using IdPair = exec::IdPair;

StreamEvent Event(int64_t id, int64_t t, std::string wkt = "POINT (0 0)") {
  StreamEvent event;
  event.id = id;
  event.event_time_ms = t;
  event.wkt = std::move(wkt);
  return event;
}

// ---------------------------------------------------------------------------
// WindowSpec

TEST(WindowSpecTest, ValidatesTumblingAndSliding) {
  WindowSpec tumbling;
  tumbling.size_ms = 1000;
  EXPECT_TRUE(tumbling.Validate().ok());
  EXPECT_EQ(tumbling.SlideMs(), 1000);
  EXPECT_EQ(tumbling.PanesPerWindow(), 1);

  WindowSpec sliding;
  sliding.size_ms = 1000;
  sliding.slide_ms = 250;
  sliding.allowed_lateness_ms = 50;
  EXPECT_TRUE(sliding.Validate().ok());
  EXPECT_EQ(sliding.PanesPerWindow(), 4);
}

TEST(WindowSpecTest, RejectsDegenerateSpecs) {
  WindowSpec spec;
  spec.size_ms = 0;
  EXPECT_FALSE(spec.Validate().ok());

  spec = WindowSpec();
  spec.size_ms = 1000;
  spec.slide_ms = 300;  // does not divide size
  EXPECT_FALSE(spec.Validate().ok());

  spec = WindowSpec();
  spec.size_ms = 100;
  spec.slide_ms = 200;  // slide > size would leave gaps
  EXPECT_FALSE(spec.Validate().ok());

  spec = WindowSpec();
  spec.allowed_lateness_ms = -1;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(WindowSpecTest, FloorDivIsNegativeSafe) {
  EXPECT_EQ(FloorDiv(7, 10), 0);
  EXPECT_EQ(FloorDiv(10, 10), 1);
  EXPECT_EQ(FloorDiv(-1, 10), -1);
  EXPECT_EQ(FloorDiv(-10, 10), -1);
  EXPECT_EQ(FloorDiv(-11, 10), -2);
}

// ---------------------------------------------------------------------------
// WindowManager

struct FiredWindow {
  int64_t index = 0;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  bool on_flush = false;
  std::vector<int64_t> ids;  // in arrival (seq) order
  int64_t expiring = 0;
};

class WindowRecorder {
 public:
  WindowManager::WindowFn Fn() {
    return [this](const ClosedWindow& closed) {
      FiredWindow fired;
      fired.index = closed.index;
      fired.start_ms = closed.start_ms;
      fired.end_ms = closed.end_ms;
      fired.on_flush = closed.on_flush;
      fired.expiring = closed.expiring_events;
      for (const StreamEvent* event : closed.events) {
        fired.ids.push_back(event->id);
      }
      windows.push_back(std::move(fired));
    };
  }

  std::vector<FiredWindow> windows;
};

TEST(WindowManagerTest, TumblingFiresInOrderWithContents) {
  WindowSpec spec;
  spec.size_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  manager.Observe(Event(1, 1), rec.Fn());
  manager.Observe(Event(2, 5), rec.Fn());
  EXPECT_TRUE(rec.windows.empty());  // watermark 5 < end 10

  manager.Observe(Event(3, 12), rec.Fn());  // watermark 12 closes [0,10)
  ASSERT_EQ(rec.windows.size(), 1u);
  EXPECT_EQ(rec.windows[0].index, 0);
  EXPECT_EQ(rec.windows[0].start_ms, 0);
  EXPECT_EQ(rec.windows[0].end_ms, 10);
  EXPECT_FALSE(rec.windows[0].on_flush);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(rec.windows[0].expiring, 2);

  manager.Observe(Event(4, 25), rec.Fn());  // closes [10,20)
  ASSERT_EQ(rec.windows.size(), 2u);
  EXPECT_EQ(rec.windows[1].ids, (std::vector<int64_t>{3}));

  manager.Flush(rec.Fn());  // [20,30) still holds event 4
  ASSERT_EQ(rec.windows.size(), 3u);
  EXPECT_TRUE(rec.windows[2].on_flush);
  EXPECT_EQ(rec.windows[2].ids, (std::vector<int64_t>{4}));
  EXPECT_EQ(manager.live_events(), 0);
}

TEST(WindowManagerTest, FiresEmptyWindowsBetweenSparseEvents) {
  WindowSpec spec;
  spec.size_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  manager.Observe(Event(1, 5), rec.Fn());
  manager.Observe(Event(2, 45), rec.Fn());
  // Watermark 45 closes [0,10) [10,20) [20,30) [30,40): one full, three
  // empty — subscribers see the silence, not a gap in window indexes.
  ASSERT_EQ(rec.windows.size(), 4u);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1}));
  for (size_t w = 1; w < 4; ++w) {
    EXPECT_TRUE(rec.windows[w].ids.empty());
    EXPECT_EQ(rec.windows[w].index, static_cast<int64_t>(w));
  }
}

TEST(WindowManagerTest, SlidingEventBelongsToAllOverlappingWindows) {
  WindowSpec spec;
  spec.size_ms = 20;
  spec.slide_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  manager.Observe(Event(1, 15), rec.Fn());  // pane 1: windows [0,20),[10,30)
  manager.Observe(Event(2, 40), rec.Fn());
  ASSERT_EQ(rec.windows.size(), 3u);  // ends 20, 30, 40
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1}));
  EXPECT_EQ(rec.windows[0].expiring, 0);  // pane 0 empty
  EXPECT_EQ(rec.windows[1].ids, (std::vector<int64_t>{1}));
  EXPECT_EQ(rec.windows[1].expiring, 1);  // pane 1 expires with window 1
  EXPECT_TRUE(rec.windows[2].ids.empty());
}

TEST(WindowManagerTest, LatenessDelaysFiring) {
  WindowSpec spec;
  spec.size_ms = 10;
  spec.allowed_lateness_ms = 5;
  WindowManager manager(spec);
  WindowRecorder rec;

  manager.Observe(Event(1, 3), rec.Fn());
  manager.Observe(Event(2, 12), rec.Fn());
  EXPECT_TRUE(rec.windows.empty());  // watermark 12 - 5 = 7 < 10

  // A straggler for [0,10) is still accepted...
  WindowManager::Observed late = manager.Observe(Event(3, 8), rec.Fn());
  EXPECT_NE(late.event, nullptr);

  manager.Observe(Event(4, 16), rec.Fn());  // watermark 11 fires [0,10)
  ASSERT_EQ(rec.windows.size(), 1u);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1, 3}));
}

TEST(WindowManagerTest, BoundedLatePolicyDropsOnlyUnwindowedEvents) {
  WindowSpec spec;
  spec.size_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  // First accepted event anchors firing at its own earliest window
  // ([20,30)); there is no back-fill of empty windows before any data.
  manager.Observe(Event(1, 25), rec.Fn());
  ASSERT_EQ(rec.windows.size(), 0u);

  // Every window containing t=15 precedes the anchor: dropped.
  WindowManager::Observed dropped = manager.Observe(Event(2, 15), rec.Fn());
  EXPECT_EQ(dropped.event, nullptr);

  // t=22 falls in the un-fired [20,30): accepted even though it is behind
  // the watermark.
  WindowManager::Observed kept = manager.Observe(Event(3, 22), rec.Fn());
  EXPECT_NE(kept.event, nullptr);

  manager.Flush(rec.Fn());
  ASSERT_EQ(rec.windows.size(), 1u);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1, 3}));
}

TEST(WindowManagerTest, ContentsSortedByArrivalNotEventTime) {
  WindowSpec spec;
  spec.size_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  // Out-of-order event times within one window; contents must come back
  // in arrival order (what a batch scan of the same rows would probe).
  manager.Observe(Event(1, 8), rec.Fn());
  manager.Observe(Event(2, 3), rec.Fn());
  manager.Observe(Event(3, 6), rec.Fn());
  manager.Flush(rec.Fn());
  ASSERT_EQ(rec.windows.size(), 1u);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// WindowGrid

class WindowGridTest : public ::testing::Test {
 protected:
  /// Parses and indexes one point event into `pane`, keeping the backing
  /// StreamEvent alive for the grid's borrowed pointer.
  void Insert(WindowGrid* grid, int64_t pane, int64_t seq, int64_t id,
              double x, double y) {
    char wkt[64];
    std::snprintf(wkt, sizeof(wkt), "POINT (%g %g)", x, y);
    events_.push_back(std::make_unique<StreamEvent>(Event(id, 0, wkt)));
    events_.back()->seq = seq;
    auto parsed = exec::ParseGeosWkt(wkt);
    ASSERT_TRUE(parsed.ok());
    WindowGrid::EventRef ref;
    ref.seq = seq;
    ref.id = id;
    ref.event = events_.back().get();
    ref.geom = std::move(parsed).value();
    grid->Insert(pane, std::move(ref));
  }

  static std::vector<int64_t> GatherSeqs(
      const WindowGrid& grid, int64_t first_pane, int64_t last_pane,
      const geom::Envelope& region, WindowGrid::GatherStats* stats) {
    std::vector<const WindowGrid::EventRef*> refs;
    WindowGrid::GatherStats local;
    grid.Gather(first_pane, last_pane, region, &refs,
                stats != nullptr ? stats : &local);
    std::vector<int64_t> seqs;
    for (const WindowGrid::EventRef* ref : refs) seqs.push_back(ref->seq);
    return seqs;
  }

  std::vector<std::unique_ptr<StreamEvent>> events_;
};

TEST_F(WindowGridTest, GatherRestoresArrivalOrderAcrossCellsAndPanes) {
  WindowGridOptions options;
  options.cells_per_axis = 4;
  options.extent = geom::Envelope(0, 0, 100, 100);
  WindowGrid grid(options);

  // Seqs deliberately scattered over distant cells and two panes.
  Insert(&grid, /*pane=*/1, /*seq=*/4, 40, 90, 90);
  Insert(&grid, /*pane=*/0, /*seq=*/2, 20, 10, 10);
  Insert(&grid, /*pane=*/0, /*seq=*/3, 30, 90, 10);
  Insert(&grid, /*pane=*/1, /*seq=*/1, 10, 10, 90);

  geom::Envelope everywhere(0, 0, 100, 100);
  EXPECT_EQ(GatherSeqs(grid, 0, 1, everywhere, nullptr),
            (std::vector<int64_t>{1, 2, 3, 4}));
  // Pane-bounded gather: only pane 0's refs.
  EXPECT_EQ(GatherSeqs(grid, 0, 0, everywhere, nullptr),
            (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(grid.live_events(), 4);
  EXPECT_EQ(grid.live_panes(), 2);
}

TEST_F(WindowGridTest, GatherPrunesCellsDisjointFromRegion) {
  WindowGridOptions options;
  options.cells_per_axis = 10;
  options.extent = geom::Envelope(0, 0, 100, 100);
  WindowGrid grid(options);

  Insert(&grid, 0, /*seq=*/1, 1, 5, 5);
  Insert(&grid, 0, /*seq=*/2, 2, 95, 95);

  WindowGrid::GatherStats stats;
  EXPECT_EQ(GatherSeqs(grid, 0, 0, geom::Envelope(0, 0, 12, 12), &stats),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(stats.cells_scanned, 2);  // both non-empty cells consulted
  EXPECT_EQ(stats.cells_pruned, 1);
  EXPECT_EQ(stats.events_pruned, 1);

  // An empty region (empty right side) gathers nothing at all.
  EXPECT_TRUE(GatherSeqs(grid, 0, 0, geom::Envelope(), &stats).empty());
}

TEST_F(WindowGridTest, ExpirePaneReleasesOnlyThatPane) {
  WindowGridOptions options;
  options.extent = geom::Envelope(0, 0, 100, 100);
  WindowGrid grid(options);
  Insert(&grid, 0, /*seq=*/1, 1, 5, 5);
  Insert(&grid, 0, /*seq=*/2, 2, 50, 50);
  Insert(&grid, 1, /*seq=*/3, 3, 60, 60);

  EXPECT_EQ(grid.ExpirePane(0), 2);
  EXPECT_EQ(grid.live_events(), 1);
  EXPECT_EQ(GatherSeqs(grid, 0, 1, geom::Envelope(0, 0, 100, 100), nullptr),
            (std::vector<int64_t>{3}));
  EXPECT_EQ(grid.ExpirePane(1), 1);
  EXPECT_EQ(grid.live_panes(), 0);
}

TEST_F(WindowGridTest, StoredMatchesLiveUntilForgottenOrExpired) {
  WindowGridOptions options;
  options.cells_per_axis = 4;
  options.extent = geom::Envelope(0, 0, 100, 100);
  WindowGrid grid(options);
  Insert(&grid, 0, /*seq=*/1, 1, 5, 5);
  Insert(&grid, 1, /*seq=*/2, 2, 90, 90);
  Insert(&grid, 0, /*seq=*/3, 3, 50, 50);

  std::vector<const WindowGrid::EventRef*> refs;
  WindowGrid::GatherStats stats;
  grid.Gather(0, 1, geom::Envelope(0, 0, 100, 100), &refs, &stats);
  ASSERT_EQ(refs.size(), 3u);
  for (const WindowGrid::EventRef* ref : refs) {
    EXPECT_FALSE(grid.StoredMatches(*ref).has_value());
  }
  const std::vector<int64_t> first = {10, 11};
  grid.StoreMatches(*refs[0], first);
  grid.StoreMatches(*refs[1], {});
  grid.StoreMatches(*refs[2], std::vector<int64_t>{12});
  const auto matches_of = [&](const WindowGrid::EventRef& ref) {
    const std::span<const int64_t> ids = *grid.StoredMatches(ref);
    return std::vector<int64_t>(ids.begin(), ids.end());
  };
  EXPECT_EQ(matches_of(*refs[0]), first);
  EXPECT_TRUE(matches_of(*refs[1]).empty());  // probed, no match
  EXPECT_EQ(matches_of(*refs[2]), (std::vector<int64_t>{12}));

  // A late arrival into a probed pane starts unprobed.
  Insert(&grid, 0, /*seq=*/4, 4, 6, 6);
  refs.clear();
  grid.Gather(0, 0, geom::Envelope(0, 0, 100, 100), &refs, &stats);
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[2]->seq, 4);
  EXPECT_FALSE(grid.StoredMatches(*refs[2]).has_value());
  EXPECT_EQ(matches_of(*refs[0]), first);

  // A new right side: every stored match is gone.
  grid.ForgetMatches();
  for (const WindowGrid::EventRef* ref : refs) {
    EXPECT_FALSE(grid.StoredMatches(*ref).has_value());
  }
  EXPECT_EQ(grid.ExpirePane(0), 3);
  EXPECT_EQ(grid.live_events(), 1);
}

TEST_F(WindowGridTest, EmptyExtentDegradesToOneCellWithoutLoss) {
  WindowGrid grid(WindowGridOptions{});  // empty extent -> single cell
  Insert(&grid, 0, /*seq=*/1, 1, -1e9, 1e9);
  Insert(&grid, 0, /*seq=*/2, 2, 7, 7);
  EXPECT_EQ(GatherSeqs(grid, 0, 0, geom::Envelope(0, 0, 10, 10), nullptr),
            (std::vector<int64_t>{1, 2}));
}

// ---------------------------------------------------------------------------
// Sources

TEST(SyntheticPointSourceTest, IdenticalOptionsReplayIdentically) {
  SyntheticPointSourceOptions options;
  options.num_events = 200;
  options.events_per_second = 1000.0;
  options.seed = 42;
  options.out_of_order_fraction = 0.2;
  options.max_delay_ms = 50;
  SyntheticPointSource a(options);
  SyntheticPointSource b(options);

  StreamEvent ea;
  StreamEvent eb;
  int64_t count = 0;
  while (a.Next(&ea)) {
    ASSERT_TRUE(b.Next(&eb));
    EXPECT_EQ(ea.id, eb.id);
    EXPECT_EQ(ea.wkt, eb.wkt);
    EXPECT_EQ(ea.event_time_ms, eb.event_time_ms);
    ++count;
  }
  EXPECT_FALSE(b.Next(&eb));
  EXPECT_EQ(count, 200);
}

TEST(SyntheticPointSourceTest, BurstAdvancesClockInJumps) {
  SyntheticPointSourceOptions options;
  options.num_events = 8;
  options.events_per_second = 1000.0;  // 1ms spacing
  options.burst = 4;
  options.out_of_order_fraction = 0.0;
  SyntheticPointSource source(options);

  std::vector<int64_t> times;
  StreamEvent event;
  while (source.Next(&event)) times.push_back(event.event_time_ms);
  EXPECT_EQ(times, (std::vector<int64_t>{0, 0, 0, 0, 4, 4, 4, 4}));
}

TEST(TableReplaySourceTest, ReplaysRowsInOrderAtConfiguredRate) {
  dfs::SimFileSystem fs(2, 4 * 1024);
  ASSERT_TRUE(fs.WriteTextFile("/t/pts.tbl", {"7\tPOINT (1 1)",
                                              "8\tPOINT (2 2)",
                                              "9\tPOINT (3 3)"})
                  .ok());
  exec::TableInput input;
  input.path = "/t/pts.tbl";
  TableReplaySource::Options options;
  options.events_per_second = 500.0;  // 2ms spacing

  auto source = TableReplaySource::Open(fs, input, options);
  ASSERT_TRUE(source.ok()) << source.status();
  EXPECT_EQ(source->num_rows(), 3);

  StreamEvent event;
  ASSERT_TRUE(source->Next(&event));
  EXPECT_EQ(event.id, 7);
  EXPECT_EQ(event.wkt, "POINT (1 1)");
  EXPECT_EQ(event.event_time_ms, 0);
  ASSERT_TRUE(source->Next(&event));
  EXPECT_EQ(event.id, 8);
  EXPECT_EQ(event.event_time_ms, 2);
  ASSERT_TRUE(source->Next(&event));
  EXPECT_EQ(event.id, 9);
  EXPECT_EQ(event.event_time_ms, 4);
  EXPECT_FALSE(source->Next(&event));
}

TEST(TableReplaySourceTest, CountsTheRowsItsScanDrops) {
  dfs::SimFileSystem fs(2, 4 * 1024);
  ASSERT_TRUE(fs.WriteTextFile("/t/pts.tbl", {"7\tPOINT (1 1)",
                                              "no geometry column",
                                              "8\tPOINT (banana)",
                                              "9\tPOINT (3 3)"})
                  .ok());
  exec::TableInput input;
  input.path = "/t/pts.tbl";

  auto source = TableReplaySource::Open(fs, input, {});
  ASSERT_TRUE(source.ok()) << source.status();
  Counters counters;
  source->scan_stats().FlushTo(&counters);
  EXPECT_EQ(counters.Get(exec::counter::kLeftMalformed), 1);
  EXPECT_EQ(counters.Get(exec::counter::kLeftBadGeom), 1);

  std::vector<int64_t> ids;
  StreamEvent event;
  while (source->Next(&event)) ids.push_back(event.id);
  EXPECT_EQ(ids, (std::vector<int64_t>{7, 9}));
}

// ---------------------------------------------------------------------------
// ContinuousQueryRegistry end-to-end

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : fs_(2, 16 * 1024) {
    // Right side: two unit squares far apart. Left table exists only so
    // the SQL validates; the feed replaces its rows.
    CLOUDJOIN_CHECK(
        fs_.WriteTextFile(
               "/t/right.tbl",
               {"1\tPOLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
                "2\tPOLYGON ((20 20, 30 20, 30 30, 20 30, 20 20))"})
            .ok());
    CLOUDJOIN_CHECK(
        fs_.WriteTextFile("/t/left.tbl", {"0\tPOINT (1 1)"}).ok());
    server::ServiceOptions options;
    options.num_threads = 1;
    service_ = std::make_unique<server::QueryService>(&fs_, options);
    join::TableInput left;
    left.path = "/t/left.tbl";
    join::TableInput right;
    right.path = "/t/right.tbl";
    CLOUDJOIN_CHECK(service_->RegisterTable("lt", left).ok());
    CLOUDJOIN_CHECK(service_->RegisterTable("rt", right).ok());
  }

  static std::string WithinSql() {
    return "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt WHERE " +
           join::PredicateSql(exec::SpatialPredicate::Within(), "lt", "rt");
  }

  StreamQueryOptions TumblingOptions(int64_t size_ms) {
    StreamQueryOptions options;
    options.window.size_ms = size_ms;
    options.grid.extent = geom::Envelope(0, 0, 30, 30);
    options.grid.cells_per_axis = 4;
    return options;
  }

  dfs::SimFileSystem fs_;
  std::unique_ptr<server::QueryService> service_;
};

TEST_F(RegistryTest, WindowedJoinMatchesHandComputedPairs) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  auto id = registry.Register(WithinSql(), TumblingOptions(10),
                              [&](const WindowResult& result) {
                                ASSERT_TRUE(result.status.ok())
                                    << result.status;
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok()) << id.status();

  registry.Ingest(Event(100, 1, "POINT (5 5)"));     // in square 1
  registry.Ingest(Event(101, 3, "POINT (25 25)"));   // in square 2
  registry.Ingest(Event(102, 12, "POINT (15 15)"));  // in neither
  registry.Ingest(Event(103, 14, "POINT (2 2)"));    // in square 1
  registry.Flush();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].window_index, 0);
  EXPECT_EQ(results[0].pairs,
            (std::vector<IdPair>{{100, 1}, {101, 2}}));
  EXPECT_EQ(results[0].window_events, 2);
  EXPECT_FALSE(results[0].on_flush);
  EXPECT_TRUE(results[1].on_flush);
  EXPECT_EQ(results[1].pairs, (std::vector<IdPair>{{103, 1}}));

  // Second window served its right side from the cache.
  EXPECT_TRUE(results[1].right_cache_hit);
  StreamStats stats = registry.GetStats();
  EXPECT_EQ(stats.counters.Get(counter::kEventsIngested), 4);
  EXPECT_EQ(stats.counters.Get(counter::kWindowsFired), 2);
  EXPECT_EQ(stats.counters.Get(counter::kPairsEmitted), 3);
  EXPECT_EQ(stats.counters.Get(counter::kRightCacheHits), 1);
  EXPECT_EQ(stats.window_probe_latency.count, 2);
}

TEST_F(RegistryTest, DisabledCacheBuildsEveryWindow) {
  // A service without a cache: every fired window builds its right side
  // (never a cache hit), and the pairs are the cached run's.
  server::ServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  server::QueryService service(&fs_, options);
  join::TableInput left;
  left.path = "/t/left.tbl";
  join::TableInput right;
  right.path = "/t/right.tbl";
  ASSERT_TRUE(service.RegisterTable("lt", left).ok());
  ASSERT_TRUE(service.RegisterTable("rt", right).ok());
  ContinuousQueryRegistry registry(&service, &fs_);
  std::vector<WindowResult> results;
  auto id = registry.Register(WithinSql(), TumblingOptions(10),
                              [&](const WindowResult& result) {
                                ASSERT_TRUE(result.status.ok())
                                    << result.status;
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok()) << id.status();
  registry.Ingest(Event(100, 1, "POINT (5 5)"));
  registry.Ingest(Event(103, 14, "POINT (2 2)"));
  registry.Flush();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].pairs, (std::vector<IdPair>{{100, 1}}));
  EXPECT_EQ(results[1].pairs, (std::vector<IdPair>{{103, 1}}));
  for (const WindowResult& result : results) {
    EXPECT_FALSE(result.right_cache_hit);
  }
  StreamStats stats = registry.GetStats();
  EXPECT_EQ(stats.counters.Get(counter::kRightCacheHits), 0);
  EXPECT_EQ(stats.counters.Get(counter::kRightCacheMisses), 2);
  EXPECT_EQ(service.cache()->GetStats().entries, 0);
}

TEST_F(RegistryTest, IncrementalAndRebuildModesAgree) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<std::vector<IdPair>> pairs[2];
  for (int arm = 0; arm < 2; ++arm) {
    StreamQueryOptions options = TumblingOptions(10);
    options.window.slide_ms = 5;  // sliding: every event in two windows
    options.incremental_index = arm == 0;
    auto id = registry.Register(WithinSql(), options,
                                [&pairs, arm](const WindowResult& result) {
                                  pairs[arm].push_back(result.pairs);
                                });
    ASSERT_TRUE(id.ok()) << id.status();
  }

  registry.Ingest(Event(100, 2, "POINT (5 5)"));
  registry.Ingest(Event(101, 7, "POINT (25 25)"));
  registry.Ingest(Event(102, 13, "POINT (8 8)"));
  registry.Ingest(Event(103, 30, "POINT (21 29)"));
  registry.Flush();

  EXPECT_GT(pairs[0].size(), 2u);
  EXPECT_EQ(pairs[0], pairs[1]);
  EXPECT_EQ(registry.GetStats().counters.Get(counter::kGridRebuilds),
            static_cast<int64_t>(pairs[1].size()));
}

TEST_F(RegistryTest, SlidingWindowRefinesEachEventOnce) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  StreamQueryOptions options = TumblingOptions(20);
  options.window.slide_ms = 5;  // four panes: every event in four windows
  auto id = registry.Register(WithinSql(), options,
                              [&](const WindowResult& result) {
                                ASSERT_TRUE(result.status.ok())
                                    << result.status;
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok()) << id.status();

  registry.Ingest(Event(100, 1, "POINT (5 5)"));     // square 1
  registry.Ingest(Event(101, 6, "POINT (25 25)"));   // square 2
  registry.Ingest(Event(102, 12, "POINT (15 15)"));  // no candidate
  registry.Ingest(Event(103, 17, "POINT (2 2)"));    // square 1
  registry.Flush();

  // Windows -3..3; window w covers panes [w, w + 3] of 5 ms each.
  const std::vector<std::vector<IdPair>> want = {
      {{100, 1}},
      {{100, 1}, {101, 2}},
      {{100, 1}, {101, 2}},
      {{100, 1}, {101, 2}, {103, 1}},
      {{101, 2}, {103, 1}},
      {{103, 1}},
      {{103, 1}},
  };
  ASSERT_EQ(results.size(), want.size());
  for (size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(results[w].window_index, static_cast<int64_t>(w) - 3);
    EXPECT_EQ(results[w].pairs, want[w]) << "window " << w;
  }
  // Window 0 gathers all four events, although it probes only the one
  // that no earlier window held.
  EXPECT_EQ(results[3].probed_events, 4);

  // One refinement per (event, candidate): three candidates in all, not
  // one per window that holds them.
  const StreamStats stats = registry.GetStats();
  EXPECT_EQ(stats.counters.Get(exec::counter::kCandidates), 3);
  EXPECT_EQ(stats.counters.Get(exec::counter::kMatches), 3);
  EXPECT_EQ(stats.counters.Get(counter::kPairsEmitted), 12);
}

TEST_F(RegistryTest, LateEventIntoProbedPaneJoinsTheNextWindow) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  StreamQueryOptions options = TumblingOptions(20);
  options.window.slide_ms = 10;
  auto id = registry.Register(WithinSql(), options,
                              [&](const WindowResult& result) {
                                ASSERT_TRUE(result.status.ok())
                                    << result.status;
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok()) << id.status();

  registry.Ingest(Event(100, 12, "POINT (5 5)"));    // pane 1
  registry.Ingest(Event(101, 15, "POINT (25 25)"));  // pane 1
  registry.Ingest(Event(102, 22, "POINT (21 21)"));  // pane 2; fires w0
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].pairs, (std::vector<IdPair>{{100, 1}, {101, 2}}));

  // Pane 1 was probed by window 0 and is still live for window 1, so this
  // straggler is accepted into it.
  registry.Ingest(Event(103, 14, "POINT (8 8)"));
  registry.Ingest(Event(104, 25, "POINT (28 22)"));  // pane 2
  registry.Flush();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].window_index, 1);
  EXPECT_EQ(results[1].pairs,
            (std::vector<IdPair>{
                {100, 1}, {101, 2}, {102, 2}, {103, 1}, {104, 2}}));
  EXPECT_EQ(results[2].pairs, (std::vector<IdPair>{{102, 2}, {104, 2}}));
}

TEST_F(RegistryTest, ReregisteredRightTableReachesSharedPane) {
  ASSERT_TRUE(
      fs_.WriteTextFile("/t/right2.tbl",
                        {"9\tPOLYGON ((0 0, 30 0, 30 30, 0 30, 0 0))"})
          .ok());
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  StreamQueryOptions options = TumblingOptions(20);
  options.window.slide_ms = 10;
  auto id = registry.Register(WithinSql(), options,
                              [&](const WindowResult& result) {
                                ASSERT_TRUE(result.status.ok())
                                    << result.status;
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok()) << id.status();

  registry.Ingest(Event(100, 12, "POINT (5 5)"));    // pane 1
  registry.Ingest(Event(101, 15, "POINT (25 25)"));  // pane 1
  registry.Ingest(Event(102, 22, "POINT (15 15)"));  // pane 2; fires w0
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].pairs, (std::vector<IdPair>{{100, 1}, {101, 2}}));

  // Window 1 shares pane 1 with window 0, but joins against the table
  // registered now.
  join::TableInput right2;
  right2.path = "/t/right2.tbl";
  ASSERT_TRUE(service_->RegisterTable("rt", right2).ok());
  registry.Flush();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].window_index, 1);
  EXPECT_FALSE(results[1].right_cache_hit);
  EXPECT_EQ(results[1].pairs,
            (std::vector<IdPair>{{100, 9}, {101, 9}, {102, 9}}));
  EXPECT_EQ(results[2].pairs, (std::vector<IdPair>{{102, 9}}));
}

TEST_F(RegistryTest, BadGeometryEventsAreDroppedNotFatal) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  auto id = registry.Register(WithinSql(), TumblingOptions(10),
                              [&](const WindowResult& result) {
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok());

  registry.Ingest(Event(100, 1, "POINT (5 5)"));
  registry.Ingest(Event(101, 2, "POINT (banana)"));
  registry.Flush();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].pairs, (std::vector<IdPair>{{100, 1}}));
  EXPECT_EQ(results[0].window_events, 2);  // still a window member
  EXPECT_EQ(registry.GetStats().counters.Get(counter::kBadGeom), 1);
}

TEST_F(RegistryTest, LateEventsCountedAndExcluded) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  auto id = registry.Register(WithinSql(), TumblingOptions(10),
                              [&](const WindowResult& result) {
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok());

  registry.Ingest(Event(100, 25, "POINT (5 5)"));  // fires [0,10), [10,20)
  registry.Ingest(Event(101, 3, "POINT (5 5)"));   // all its windows fired
  registry.Flush();

  EXPECT_EQ(registry.GetStats().counters.Get(counter::kLateDropped), 1);
  for (const WindowResult& result : results) {
    for (const IdPair& pair : result.pairs) EXPECT_NE(pair.first, 101);
  }
}

TEST_F(RegistryTest, RegisterRejectsUnsuitableQueries) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  const ContinuousQueryRegistry::Subscriber ignore =
      [](const WindowResult&) {};
  StreamQueryOptions options = TumblingOptions(10);

  // Not a spatial join.
  EXPECT_FALSE(
      registry.Register("SELECT lt.id FROM lt", options, ignore).ok());
  // Unknown table.
  EXPECT_FALSE(registry
                   .Register("SELECT zz.id, rt.id FROM zz SPATIAL JOIN rt "
                             "WHERE ST_WITHIN(zz.geom, rt.geom)",
                             options, ignore)
                   .ok());
  // Aggregation is a batch concern; the stream emits raw pairs.
  EXPECT_FALSE(registry
                   .Register("SELECT COUNT(*) AS n FROM lt SPATIAL JOIN rt "
                             "WHERE ST_WITHIN(lt.geom, rt.geom)",
                             options, ignore)
                   .ok());
  // Invalid window spec.
  options.window.slide_ms = 3;
  EXPECT_FALSE(registry.Register(WithinSql(), options, ignore).ok());
}

TEST_F(RegistryTest, RegisterRejectsBadProbeOptions) {
  // A zero batch size is refused at registration, before any window is
  // probed, and the registry keeps serving well-formed queries.
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  auto collect = [&](const WindowResult& result) {
    results.push_back(result);
  };
  StreamQueryOptions bad = TumblingOptions(10);
  bad.probe.batch_size = 0;
  auto rejected = registry.Register(WithinSql(), bad, collect);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  auto id = registry.Register(WithinSql(), TumblingOptions(10), collect);
  ASSERT_TRUE(id.ok()) << id.status();
  registry.Ingest(Event(100, 1, "POINT (5 5)"));
  registry.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].pairs, (std::vector<IdPair>{{100, 1}}));
}

TEST_F(RegistryTest, RegisterRejectsOversizeGrids) {
  // Both grids allocate their square up front (per live pane, per
  // prepared polygon), so a side above its ceiling is refused at
  // registration, and the registry keeps serving well-formed queries.
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  auto collect = [&](const WindowResult& result) {
    results.push_back(result);
  };
  StreamQueryOptions window_grid = TumblingOptions(10);
  window_grid.grid.cells_per_axis = WindowGridOptions::kMaxCellsPerAxis + 1;
  auto rejected = registry.Register(WithinSql(), window_grid, collect);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  StreamQueryOptions prepared_grid = TumblingOptions(10);
  prepared_grid.prepare = exec::PrepareOptions::Prepared();
  prepared_grid.prepare.grid_side = exec::PrepareOptions::kMaxGridSide + 1;
  rejected = registry.Register(WithinSql(), prepared_grid, collect);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  StreamQueryOptions at_ceiling = TumblingOptions(10);
  at_ceiling.grid.cells_per_axis = WindowGridOptions::kMaxCellsPerAxis;
  at_ceiling.prepare.grid_side = exec::PrepareOptions::kMaxGridSide;
  auto id = registry.Register(WithinSql(), at_ceiling, collect);
  ASSERT_TRUE(id.ok()) << id.status();
  registry.Ingest(Event(100, 1, "POINT (5 5)"));
  registry.Flush();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].pairs, (std::vector<IdPair>{{100, 1}}));
}

TEST_F(RegistryTest, UnregisterStopsDelivery) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  int windows = 0;
  auto id = registry.Register(WithinSql(), TumblingOptions(10),
                              [&](const WindowResult&) { ++windows; });
  ASSERT_TRUE(id.ok());
  registry.Ingest(Event(100, 1, "POINT (5 5)"));
  ASSERT_TRUE(registry.Unregister(id.value()).ok());
  EXPECT_FALSE(registry.Unregister(id.value()).ok());
  registry.Ingest(Event(101, 50, "POINT (5 5)"));
  registry.Flush();
  EXPECT_EQ(windows, 0);
}

}  // namespace
}  // namespace cloudjoin::stream
