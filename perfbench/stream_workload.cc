// stream_slide: one continuous `taxi SPATIAL JOIN nycb ... ST_WITHIN`
// query over a seeded hotspot point feed, sliding 800/200 ms windows over
// the incremental 32x32 WindowGrid. The window manager and grid do most of
// the work; dfs scans and right-side builds do none once set-up has built
// the right side.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "exec/geo_parse.h"
#include "exec/probe_scanner.h"
#include "exec/right_builder.h"
#include "join/isp_mc_system.h"
#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "server/query_service.h"
#include "stream/continuous_query.h"
#include "stream/counter_names.h"
#include "stream/stream_source.h"

namespace cloudjoin::perfbench {
namespace {

/// Feed length: 24 s of event time at 5,000 events/s on average, 123
/// windows.
constexpr int64_t kFeedEvents = 120000;
/// Event time between the feed's rate changes.
constexpr int64_t kSegmentMs = 1600;
/// Set-up ingests this prefix of the feed so that the first window fire
/// builds and caches the right side.
constexpr int64_t kWarmupEvents = 1200;
/// Fresh set-ups per phase; setup_s is their median.
constexpr int kSetups = 10;
/// Windows a timed phase fires at least (whole passes over the feed).
constexpr int64_t kMinWindows = 220;
constexpr double kMaxStretch = 3.0;

struct Inputs {
  dfs::SimFileSystem fs{/*num_nodes=*/10, /*block_size=*/32 * 1024};
  join::TableInput taxi;
  join::TableInput nycb;
  join::SpatialPredicate predicate;
  std::string sql;
  stream::StreamQueryOptions query;
  /// The whole feed, generated before anything is timed. Event ids are
  /// feed positions.
  std::vector<stream::StreamEvent> feed;
};

Status MakeInputs(uint64_t seed, Inputs* in) {
  data::WorkloadSuite suite;
  CLOUDJOIN_RETURN_IF_ERROR(MaterializeSuite(&in->fs, seed, &suite));
  in->taxi = suite.taxi_nycb.left;
  in->nycb = suite.taxi_nycb.right;
  in->predicate = suite.taxi_nycb.predicate;
  in->sql = "SELECT taxi.id, nycb.id FROM taxi SPATIAL JOIN nycb WHERE " +
            join::PredicateSql(in->predicate, "taxi", "nycb");

  // Hotspot-skewed pings, 5 % of them up to 200 ms late, arriving in
  // bursts of 64. The extent reaches a little past the census blocks, so
  // the grid prunes the outer cells. Forty hotspots rather than a handful:
  // with five, whether they landed inside the blocks moved the work per
  // window 2.4x from one seed to the next.
  stream::SyntheticPointSourceOptions feed;
  feed.num_hotspots = 40;
  feed.extent = data::NycExtent();
  feed.extent.ExpandBy(0.05 * feed.extent.Width());
  feed.out_of_order_fraction = 0.05;
  feed.max_delay_ms = 200;
  feed.burst = 64;
  // The rate alternates between 2,500 and 7,500 events/s every 1.6 s of
  // event time (5,000 on average), each segment with its own hotspots, so
  // windows hold 2,000 to 6,000 events. At one constant rate every window
  // cost the same, and the median fire latency jumped between the
  // machine's fast and slow periods instead of moving with them.
  in->feed.reserve(static_cast<size_t>(kFeedEvents));
  stream::StreamEvent event;
  for (int64_t segment = 0; std::ssize(in->feed) < kFeedEvents; ++segment) {
    feed.events_per_second = segment % 2 == 0 ? 2500.0 : 7500.0;
    feed.num_events = std::min<int64_t>(
        kFeedEvents - std::ssize(in->feed),
        std::llround(feed.events_per_second * kSegmentMs / 1000.0));
    feed.seed = seed * 1000 + static_cast<uint64_t>(segment);
    stream::SyntheticPointSource source(feed);
    while (source.Next(&event)) {
      event.id = std::ssize(in->feed);
      event.event_time_ms += segment * kSegmentMs;
      in->feed.push_back(event);
    }
  }

  in->query.window.size_ms = 800;
  in->query.window.slide_ms = 200;
  in->query.window.allowed_lateness_ms = 100;
  in->query.grid.cells_per_axis = 32;
  in->query.grid.extent = feed.extent;
  return Status::OK();
}

/// One fired window as the subscriber saw it.
struct WindowRecord {
  int64_t index = 0;
  /// From the start of the Ingest (or Flush) call that fired the window
  /// to the subscriber.
  double latency = 0.0;
  double probe = 0.0;
  bool on_flush = false;
  bool ok = true;
  bool right_cache_hit = false;
  int64_t window_events = 0;
  int64_t cells_scanned = 0;
  int64_t cells_pruned = 0;
  int64_t pairs = 0;
  /// Order-sensitive digests of the pairs and of the window's event ids.
  uint64_t pairs_digest = 0;
  uint64_t ids_digest = 0;
  /// Index of the Ingest span that fired the window (traced phase only).
  int32_t span = -1;
};

struct Pass {
  double wall = 0.0;
  int64_t events = 0;
  std::vector<WindowRecord> windows;
  int64_t late_dropped = 0;
  int64_t events_pruned = 0;
};

struct Phase {
  std::vector<double> setup_seconds;
  std::vector<double> register_seconds;
  std::vector<Pass> passes;
  /// Event ids of every window of the first pass, for the batch oracle.
  std::vector<std::vector<int64_t>> first_pass_ids;
  server::BroadcastIndexCache::Stats cache_before;
  server::BroadcastIndexCache::Stats cache_after;
  /// Read after the timed passes, before the extra set-ups.
  double peak_rss_mb = 0.0;
  std::unique_ptr<SpanBuffer> trace;
  std::string error;

  double Wall() const {
    double wall = 0.0;
    for (const Pass& p : passes) wall += p.wall;
    return wall;
  }
  int64_t Events() const {
    int64_t events = 0;
    for (const Pass& p : passes) events += p.events;
    return events;
  }
};

/// Program set-up, the part setup_s times: a new service, both tables,
/// the continuous query's Register, and the first right-side build (the
/// first window fire of a short feed prefix builds and caches it).
std::unique_ptr<server::QueryService> SetUp(Inputs& in, SpanBuffer* trace,
                                            int64_t op, Phase* phase) {
  server::ServiceOptions options;
  options.num_threads = 2;
  auto service = std::make_unique<server::QueryService>(&in.fs, options);
  ScopedSpan setup(trace, "setup", op);
  for (const auto& [name, input] :
       {std::pair<std::string, const join::TableInput*>{"taxi", &in.taxi},
        {"nycb", &in.nycb}}) {
    const Clock::time_point t0 = Clock::now();
    Result<const impala::TableDef*> def = service->RegisterTable(name, *input);
    const Clock::time_point t1 = Clock::now();
    if (trace != nullptr) {
      trace->Add("server.RegisterTable", op, setup.index(), t0, t1);
    }
    phase->register_seconds.push_back(SecondsBetween(t0, t1));
    if (!def.ok()) {
      phase->error = "RegisterTable " + name + ": " + def.status().ToString();
      return nullptr;
    }
  }
  stream::ContinuousQueryRegistry registry(service.get(), &in.fs);
  bool ok = true;
  {
    ScopedSpan span(trace, "stream.Register", op, setup.index());
    Result<int64_t> id =
        registry.Register(in.sql, in.query, [&](const stream::WindowResult& w) {
          ok = ok && w.status.ok();
        });
    if (!id.ok()) {
      phase->error = "Register: " + id.status().ToString();
      return nullptr;
    }
  }
  {
    ScopedSpan span(trace, "stream.warmup", op, setup.index());
    for (int64_t i = 0; i < kWarmupEvents; ++i) {
      registry.Ingest(in.feed[static_cast<size_t>(i)]);
    }
    registry.Flush();
  }
  if (!ok) {
    phase->error = "warm-up window failed";
    return nullptr;
  }
  return service;
}

/// Ingests the whole feed through a fresh registration of the query.
Status RunPass(Inputs& in, server::QueryService* service, SpanBuffer* trace,
               int64_t op, bool keep_ids, Phase* phase) {
  stream::ContinuousQueryRegistry registry(service, &in.fs);
  Pass pass;
  Clock::time_point call_start;
  int32_t root = -1;
  Result<int64_t> id = registry.Register(
      in.sql, in.query, [&](const stream::WindowResult& w) {
        const Clock::time_point now = Clock::now();
        WindowRecord r;
        r.index = w.window_index;
        r.latency = SecondsBetween(call_start, now);
        r.probe = w.probe_seconds;
        r.on_flush = w.on_flush;
        r.ok = w.status.ok();
        r.right_cache_hit = w.right_cache_hit;
        r.window_events = w.window_events;
        r.cells_scanned = w.cells_scanned;
        r.cells_pruned = w.cells_pruned;
        r.pairs = static_cast<int64_t>(w.pairs.size());
        for (const exec::IdPair& pair : w.pairs) {
          r.pairs_digest = MixOrdered(r.pairs_digest, pair.first, pair.second);
        }
        std::vector<int64_t> ids;
        if (keep_ids) ids.reserve(w.events->size());
        for (const stream::StreamEvent* event : *w.events) {
          r.ids_digest = MixOrdered(r.ids_digest, event->id, 0);
          if (keep_ids) ids.push_back(event->id);
        }
        if (keep_ids) phase->first_pass_ids.push_back(std::move(ids));
        // The Ingest span is added when the call returns, at this index.
        if (trace != nullptr) {
          r.span = static_cast<int32_t>(trace->spans().size());
        }
        pass.windows.push_back(r);
      });
  CLOUDJOIN_RETURN_IF_ERROR(id.status());
  if (trace != nullptr) root = trace->Begin("pass", op);

  const Clock::time_point start = Clock::now();
  for (const stream::StreamEvent& event : in.feed) {
    call_start = Clock::now();
    registry.Ingest(event);
    if (trace != nullptr) {
      trace->Add("stream.Ingest", op, root, call_start, Clock::now());
    }
  }
  call_start = Clock::now();
  registry.Flush();
  const Clock::time_point end = Clock::now();
  if (trace != nullptr) {
    trace->Add("stream.Flush", op, root, call_start, end);
    trace->End(root);
  }
  pass.wall = SecondsBetween(start, end);
  pass.events = static_cast<int64_t>(in.feed.size());
  const stream::StreamStats stats = registry.GetStats();
  pass.late_dropped = stats.counters.Get(stream::counter::kLateDropped);
  pass.events_pruned = stats.counters.Get(stream::counter::kEventsPruned);
  phase->passes.push_back(std::move(pass));
  return Status::OK();
}

Phase RunPhase(Inputs& in, double seconds, bool traced, bool keep_ids) {
  Phase phase;
  const Clock::time_point epoch = Clock::now();
  if (traced) phase.trace = std::make_unique<SpanBuffer>(epoch);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<server::QueryService> service =
      SetUp(in, phase.trace.get(), -1, &phase);
  if (service == nullptr) return phase;
  phase.setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
  phase.cache_before = service->cache()->GetStats();
  const Clock::time_point start = Clock::now();
  for (int64_t op = 0;; ++op) {
    const double elapsed = SecondsBetween(start, Clock::now());
    int64_t windows = 0;
    for (const Pass& p : phase.passes) {
      windows += static_cast<int64_t>(p.windows.size());
    }
    if (elapsed >= seconds &&
        (windows >= kMinWindows || elapsed >= kMaxStretch * seconds)) {
      break;
    }
    if (Status s = RunPass(in, service.get(), phase.trace.get(), op,
                           keep_ids && op == 0, &phase);
        !s.ok()) {
      phase.error = "pass: " + s.ToString();
      return phase;
    }
  }
  phase.cache_after = service->cache()->GetStats();
  phase.peak_rss_mb = PeakRssMb();
  // The other set-ups only time setup_s. They run after the peak resident
  // set is read, so the garbage their teardowns leave never counts in it.
  for (int i = 1; i < kSetups; ++i) {
    const Clock::time_point s0 = Clock::now();
    std::unique_ptr<server::QueryService> extra =
        SetUp(in, phase.trace.get(), -1 - i, &phase);
    if (extra == nullptr) return phase;
    phase.setup_seconds.push_back(SecondsBetween(s0, Clock::now()));
  }
  return phase;
}

/// Replays every first-pass window through the batch driver
/// (exec::RunGeosProbes over the window's events in arrival order) and
/// counts windows whose pairs differ from the streamed ones.
int64_t OracleMismatches(const Inputs& in, const Phase& phase,
                         const exec::BuiltRight& right) {
  int64_t mismatches = 0;
  const std::vector<WindowRecord>& windows = phase.passes.front().windows;
  for (size_t w = 0; w < windows.size(); ++w) {
    exec::GeosProbeBatch batch;
    for (int64_t id : phase.first_pass_ids[w]) {
      const stream::StreamEvent& event = in.feed[static_cast<size_t>(id)];
      Result<std::unique_ptr<geosim::Geometry>> geom =
          exec::ParseGeosWkt(event.wkt);
      if (!geom.ok()) continue;  // the stream drops these too
      batch.ids.push_back(event.id);
      batch.wkt.push_back(event.wkt);
      batch.geoms.push_back(std::move(geom).value());
    }
    uint64_t digest = 0;
    int64_t pairs = 0;
    exec::ProbeStats stats;
    exec::RunGeosProbes(
        batch, right, in.predicate, index::ProbeOptions(),
        [&](exec::IdPair pair) {
          digest = MixOrdered(digest, pair.first, pair.second);
          ++pairs;
        },
        &stats);
    if (digest != windows[w].pairs_digest || pairs != windows[w].pairs) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Windows of `pass` that differ from the same window of `reference`.
int64_t PassMismatches(const Pass& pass, const Pass& reference) {
  int64_t mismatches = 0;
  const size_t n = std::max(pass.windows.size(), reference.windows.size());
  for (size_t w = 0; w < n; ++w) {
    if (w >= pass.windows.size() || w >= reference.windows.size()) {
      ++mismatches;
      continue;
    }
    const WindowRecord& a = pass.windows[w];
    const WindowRecord& b = reference.windows[w];
    if (a.index != b.index || a.pairs != b.pairs ||
        a.pairs_digest != b.pairs_digest || a.ids_digest != b.ids_digest) {
      ++mismatches;
    }
  }
  if (pass.late_dropped != reference.late_dropped ||
      pass.events_pruned != reference.events_pruned) {
    ++mismatches;
  }
  return mismatches;
}

/// Fire-latency and probe samples of watermark-fired windows.
std::vector<double> Samples(const Phase& phase, double WindowRecord::*field) {
  std::vector<double> out;
  for (const Pass& p : phase.passes) {
    for (const WindowRecord& w : p.windows) {
      if (!w.on_flush) out.push_back(w.*field);
    }
  }
  return out;
}

MetricList EndToEnd(const Phase& phase, std::string* error) {
  MetricList list;
  const std::vector<double> latency = Samples(phase, &WindowRecord::latency);
  list.Add("throughput_per_s", static_cast<double>(phase.Events()) /
                                   phase.Wall(),
           "1/s", phase.Events());
  for (const auto& [name, q] :
       {std::pair{"latency_p50_ms", 0.50}, std::pair{"latency_p95_ms", 0.95}}) {
    const Quantile quantile = NearestRank(latency, q);
    if (!list.AddQuantile(name, quantile, 1e3, "ms") && error->empty()) {
      *error = std::string(name) + " withheld: only " +
               std::to_string(quantile.beyond) + " of " +
               std::to_string(quantile.samples) + " windows lie beyond it";
    }
  }
  list.Add("setup_s", Median(phase.setup_seconds), "s",
           static_cast<int64_t>(phase.setup_seconds.size()));
  list.Add("peak_rss_mb", phase.peak_rss_mb, "MB");
  return list;
}

void PerLayer(const Phase& traced, double untraced_throughput,
              double build_ms, int64_t build_bytes, Outcome* out) {
  MetricList& list = out->per_layer;
  std::vector<double> probe = Samples(traced, &WindowRecord::probe);
  std::vector<double> latency = Samples(traced, &WindowRecord::latency);
  std::vector<double> gather;
  for (size_t i = 0; i < latency.size(); ++i) {
    gather.push_back(latency[i] - probe[i]);
  }
  // Ingest calls that fired no window.
  const std::vector<Span>& spans = traced.trace->spans();
  std::vector<char> fired(spans.size(), 0);
  int64_t windows = 0;
  int64_t hits = 0;
  int64_t cells_scanned = 0;
  int64_t cells_pruned = 0;
  int64_t window_events = 0;
  int64_t events_pruned = 0;
  for (const Pass& p : traced.passes) {
    for (const WindowRecord& w : p.windows) {
      if (w.span >= 0 && static_cast<size_t>(w.span) < fired.size()) {
        fired[static_cast<size_t>(w.span)] = 1;
      }
      ++windows;
      hits += w.right_cache_hit ? 1 : 0;
      cells_scanned += w.cells_scanned;
      cells_pruned += w.cells_pruned;
      window_events += w.window_events;
    }
    events_pruned += p.events_pruned;
  }
  std::vector<double> ingest;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!fired[i] && std::string(spans[i].name) == "stream.Ingest") {
      ingest.push_back(static_cast<double>(spans[i].end_ns -
                                           spans[i].start_ns) *
                       1e-9);
    }
  }
  const server::BroadcastIndexCache::Stats& b = traced.cache_before;
  const server::BroadcastIndexCache::Stats& a = traced.cache_after;
  const int64_t cache_hits = a.hits - b.hits;
  const int64_t lookups = cache_hits + (a.misses - b.misses);
  const Pass& first = traced.passes.front();

  list.Add("server.cache_hit_ratio",
           lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / lookups,
           "ratio", lookups);
  list.Add("server.cache_mb", static_cast<double>(a.bytes) / (1 << 20), "MB");
  list.AddLayerQuantile("server.register_ms_p50", traced.register_seconds,
                        0.50, 1e3, "ms");
  list.Add("exec.build_ms", build_ms, "ms");
  list.Add("exec.build_mb", static_cast<double>(build_bytes) / (1 << 20),
           "MB");
  list.AddLayerQuantile("stream.probe_ms_p50", probe, 0.50, 1e3, "ms");
  list.AddLayerQuantile("stream.probe_ms_p95", probe, 0.95, 1e3, "ms");
  list.AddLayerQuantile("stream.gather_ms_p50", gather, 0.50, 1e3, "ms");
  list.AddLayerQuantile("stream.ingest_us_p50", ingest, 0.50, 1e6, "us");
  list.Add("stream.cells_pruned_ratio",
           static_cast<double>(cells_pruned) /
               static_cast<double>(std::max<int64_t>(cells_scanned, 1)),
           "ratio");
  list.Add("stream.events_pruned_ratio",
           static_cast<double>(events_pruned) /
               static_cast<double>(std::max<int64_t>(window_events, 1)),
           "ratio");
  list.Add("stream.right_cache_hit_ratio",
           static_cast<double>(hits) /
               static_cast<double>(std::max<int64_t>(windows, 1)),
           "ratio", windows);
  list.Add("stream.late_dropped", static_cast<double>(first.late_dropped),
           "count");
  list.Add("stream.windows", static_cast<double>(first.windows.size()),
           "count");
  const double traced_throughput =
      static_cast<double>(traced.Events()) / traced.Wall();
  list.Add("trace.overhead_pct",
           100.0 * (1.0 - traced_throughput / untraced_throughput), "%");
}

void Tally(const Phase& phase, Outcome* out) {
  for (const Pass& p : phase.passes) {
    for (const WindowRecord& w : p.windows) {
      ++out->attempted;
      if (!w.ok) ++out->failed;
    }
  }
}

}  // namespace

Outcome RunStreamSlide(const RunOptions& options) {
  Outcome out;
  Inputs in;
  if (Status s = MakeInputs(options.seed, &in); !s.ok()) {
    out.error = "inputs: " + s.ToString();
    return out;
  }
  std::printf("stream_slide: scale %.2f, seed %llu, %lld-event feed, "
              "window %s, %.1f s per phase\n",
              kScale, static_cast<unsigned long long>(options.seed),
              static_cast<long long>(in.feed.size()),
              in.query.window.ToString().c_str(), options.PhaseSeconds());

  Phase untraced = RunPhase(in, options.PhaseSeconds(), /*traced=*/false,
                            /*keep_ids=*/true);
  if (!untraced.error.empty()) {
    out.error = untraced.error;
    return out;
  }
  Tally(untraced, &out);
  std::string e2e_error;
  out.end_to_end = EndToEnd(untraced, &e2e_error);
  if (!options.trace) out.error = e2e_error;

  // Correctness, outside every timed phase: the first pass against the
  // batch oracle, every later pass against the first, window by window.
  Counters counters;
  const dfs::SimFile* nycb_file = in.fs.GetFile(in.nycb.path).value();
  const Clock::time_point b0 = Clock::now();
  Result<exec::BuiltRight> right = exec::BuildRightFromTable(
      *nycb_file, in.nycb, in.predicate.FilterRadius(),
      exec::PrepareOptions(), &counters);
  const double build_ms = SecondsBetween(b0, Clock::now()) * 1e3;
  if (!right.ok()) {
    out.error = "oracle build: " + right.status().ToString();
    return out;
  }
  out.wrong += OracleMismatches(in, untraced, *right);
  const Pass& reference = untraced.passes.front();
  for (size_t p = 1; p < untraced.passes.size(); ++p) {
    out.wrong += PassMismatches(untraced.passes[p], reference);
  }
  std::printf("checked %zu windows per pass against the batch oracle, "
              "%zu passes, %lld late-dropped events per pass; pass walls:",
              reference.windows.size(), untraced.passes.size(),
              static_cast<long long>(reference.late_dropped));
  for (const Pass& pass : untraced.passes) std::printf(" %.3f", pass.wall);
  std::printf(" s\n");
  if (!options.trace) {
    PrintTable("end to end (tracing off)", out.end_to_end);
    return out;
  }

  Phase traced = RunPhase(in, options.PhaseSeconds(), /*traced=*/true,
                          /*keep_ids=*/false);
  if (!traced.error.empty()) {
    out.error = traced.error;
    return out;
  }
  Tally(traced, &out);
  for (const Pass& pass : traced.passes) {
    out.wrong += PassMismatches(pass, reference);
  }
  // The traced phase's end-to-end figures are only printed; a percentile
  // they cannot support is shown as withheld rather than failing the run.
  std::string unused_error;
  const MetricList traced_e2e = EndToEnd(traced, &unused_error);
  PrintSideBySide("end to end", out.end_to_end, traced_e2e);
  PerLayer(traced, out.end_to_end.metrics().front().value, build_ms,
           right->MemoryBytes(), &out);
  PrintTable("per layer (traced run)", out.per_layer);
  const std::vector<const SpanBuffer*> buffers = {traced.trace.get()};
  PrintSpanSummary(Summarize(buffers));
  if (!options.trace_out.empty() && !WriteSpans(options.trace_out, buffers)) {
    out.error = "cannot write " + options.trace_out;
  }
  return out;
}

}  // namespace cloudjoin::perfbench
