// paper_warm and paper_refresh: the five paper query classes through a
// resident QueryService, end to end (SQL in, rows out).
//
// paper_warm keeps every broadcast index cached, so only probe-side work
// (left scan, WKT parse, sFilter, packed-tree filter, GEOS-role refine) is
// timed. paper_refresh re-registers the class's right table before every
// query, alternating two versions of it, so every op also pays catalog
// stats and a right-side build. A build-side change shows on the second
// and leaves the first flat.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "exec/geo_parse.h"
#include "exec/probe_scanner.h"
#include "exec/refiner.h"
#include "exec/right_builder.h"
#include "impala/types.h"
#include "index/batch_prober.h"
#include "join/isp_mc_system.h"
#include "join/standalone_mc.h"
#include "perfbench/inputs.h"
#include "perfbench/workloads.h"
#include "plan/table_stats.h"
#include "server/query_service.h"

namespace cloudjoin::perfbench {
namespace {

enum class Mode { kWarm, kRefresh };

/// Fresh set-ups per phase; setup_s is their median.
constexpr int kSetups = 5;
/// Ops a timed phase completes at least (whole cycles): with 220 samples,
/// 11 lie beyond the nearest-rank p95.
constexpr int64_t kMinOps = 220;
/// A phase that has not reached kMinOps stops anyway at this multiple of
/// --seconds, and then withholds its p95.
constexpr double kMaxStretch = 3.0;
/// Replays per class in the traced run; the per-layer figures are their
/// medians.
constexpr int kReplays = 3;

struct QueryClass {
  std::string name;
  std::string left;
  std::string right;
  join::SpatialPredicate predicate;
  std::string sql;
  /// Reference digest from the standalone engine, by right-table version.
  std::array<PairDigest, 2> reference;
};

struct Inputs {
  dfs::SimFileSystem fs{/*num_nodes=*/10, /*block_size=*/32 * 1024};
  /// Every table at version 0, in registration order.
  std::vector<std::pair<std::string, join::TableInput>> tables;
  /// Right tables by version. paper_refresh alternates between the two.
  std::map<std::string, std::array<join::TableInput, 2>> versions;
  std::vector<QueryClass> classes;

  const join::TableInput& Table(const std::string& name) const {
    for (const auto& [table, input] : tables) {
      if (table == name) return input;
    }
    CLOUDJOIN_CHECK(false) << "no table " << name;
    return tables.front().second;
  }
};

PairDigest DigestRows(const impala::QueryResult& result) {
  PairDigest digest;
  for (const impala::Row& row : result.rows) {
    digest.Add(std::get<int64_t>(row[0]), std::get<int64_t>(row[1]));
  }
  return digest;
}

/// Generates every input before the program sees any of it, then computes
/// the reference digests with a second engine (the standalone ISP-MC
/// join on the same DFS files).
Status MakeInputs(uint64_t seed, Mode mode, Inputs* in) {
  data::WorkloadSuite suite;
  CLOUDJOIN_RETURN_IF_ERROR(MaterializeSuite(&in->fs, seed, &suite));
  in->tables = {{"taxi", suite.taxi_nycb.left},
                {"nycb", suite.taxi_nycb.right},
                {"lion", suite.taxi_lion_100.right},
                {"g10m", suite.g10m_wwf.left},
                {"wwf", suite.g10m_wwf.right},
                {"hotspot", suite.hotspot_nycb.left}};
  struct Spec {
    const data::Workload* workload;
    const char* left;
    const char* right;
  };
  // Five equal slots per cycle: the class bands sit at 20/40/60/80 % of
  // the samples, so the median lies inside one band, never on a boundary.
  const Spec specs[] = {{&suite.taxi_nycb, "taxi", "nycb"},
                        {&suite.taxi_lion_100, "taxi", "lion"},
                        {&suite.taxi_lion_500, "taxi", "lion"},
                        {&suite.g10m_wwf, "g10m", "wwf"},
                        {&suite.hotspot_nycb, "hotspot", "nycb"}};
  for (const Spec& spec : specs) {
    QueryClass cls;
    cls.name = spec.workload->name;
    cls.left = spec.left;
    cls.right = spec.right;
    cls.predicate = spec.workload->predicate;
    cls.sql = "SELECT " + cls.left + ".id, " + cls.right + ".id FROM " +
              cls.left + " SPATIAL JOIN " + cls.right + " WHERE " +
              join::PredicateSql(cls.predicate, cls.left, cls.right);
    in->classes.push_back(std::move(cls));
  }
  for (const char* name : {"nycb", "lion", "wwf"}) {
    in->versions[name] = {in->Table(name), in->Table(name)};
  }
  const int versions = mode == Mode::kRefresh ? 2 : 1;
  if (mode == Mode::kRefresh) {
    // Second versions: same generators and sizes, other (fixed) seeds, so
    // every reload is a real data change.
    const int side =
        static_cast<int>(std::lround(std::sqrt(suite.nycb_count)));
    const uint64_t v1 = kReferenceSeed + 1000;
    const std::pair<const char*, std::vector<std::string>> alt[] = {
        {"nycb", data::GenerateCensusBlocks(side, side, v1 + 2)},
        {"lion", data::GenerateStreets(suite.lion_count, v1 + 3)},
        {"wwf", data::GenerateEcoregions(static_cast<int>(suite.wwf_count),
                                         v1 + 5)}};
    for (const auto& [name, lines] : alt) {
      join::TableInput input = in->Table(name);
      input.path = std::string("/data/") + name + "_v1.tsv";
      CLOUDJOIN_RETURN_IF_ERROR(in->fs.WriteTextFile(input.path, lines));
      in->versions[name][1] = input;
    }
  }
  join::StandaloneMc reference(&in->fs);
  for (QueryClass& cls : in->classes) {
    for (int v = 0; v < versions; ++v) {
      join::StandaloneRun run;
      CLOUDJOIN_ASSIGN_OR_RETURN(
          run, reference.Join(in->Table(cls.left), in->versions[cls.right][v],
                              cls.predicate));
      for (const join::IdPair& pair : run.pairs) {
        cls.reference[static_cast<size_t>(v)].Add(pair.first, pair.second);
      }
    }
  }
  return Status::OK();
}

/// One timed op as the client saw it, with the engine's own timings.
struct OpRecord {
  int cls = 0;
  double latency = 0.0;
  double queue = 0.0;
  double total = 0.0;
  double frontend = 0.0;
  double build = 0.0;
  double fragment = 0.0;
  bool cache_hit = false;
  bool partitioned = false;
};

/// One set-up plus timed loop, with or without spans.
struct Phase {
  std::vector<double> setup_seconds;
  std::vector<double> register_seconds;
  double wall = 0.0;
  std::vector<OpRecord> ops;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t rejected = 0;
  int64_t wrong = 0;
  server::BroadcastIndexCache::Stats cache_before;
  server::BroadcastIndexCache::Stats cache_after;
  /// Read after the timed loop, before the extra set-ups.
  double peak_rss_mb = 0.0;
  /// Traced phase only: one buffer for set-up and replay, one per client.
  std::vector<std::unique_ptr<SpanBuffer>> traces;
  std::unique_ptr<server::QueryService> service;
  std::string error;
};

/// Program set-up, the part setup_s times: a new service, every table
/// registered, and one warm-up cycle that builds and caches each class's
/// broadcast index.
std::unique_ptr<server::QueryService> SetUp(Inputs& in, SpanBuffer* trace,
                                            int64_t op, Phase* phase) {
  server::ServiceOptions options;
  options.num_threads = 2;
  options.admission.max_concurrent = 2;
  auto service = std::make_unique<server::QueryService>(&in.fs, options);
  ScopedSpan setup(trace, "setup", op);
  for (const auto& [name, input] : in.tables) {
    const Clock::time_point t0 = Clock::now();
    Result<const impala::TableDef*> def = service->RegisterTable(name, input);
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
  server::Session* session = service->CreateSession();
  for (const QueryClass& cls : in.classes) {
    ScopedSpan span(trace, "server.Execute", op, setup.index());
    Result<server::QueryResponse> response = service->Execute(session, cls.sql);
    if (!response.ok()) {
      phase->error = "warm-up " + cls.name + ": " +
                     response.status().ToString();
      return nullptr;
    }
    if (DigestRows(response->result) != cls.reference[0]) ++phase->wrong;
  }
  return service;
}

/// Per-client tallies, merged after the timed loop.
struct ClientResult {
  std::vector<OpRecord> ops;
  std::vector<double> register_seconds;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t rejected = 0;
  int64_t wrong = 0;
};

Phase RunPhase(Inputs& in, Mode mode, double seconds, bool traced) {
  Phase phase;
  const Clock::time_point epoch = Clock::now();
  SpanBuffer* setup_trace = nullptr;
  if (traced) {
    phase.traces.push_back(std::make_unique<SpanBuffer>(epoch));
    setup_trace = phase.traces.back().get();
  }
  const Clock::time_point t0 = Clock::now();
  phase.service = SetUp(in, setup_trace, -1, &phase);
  if (phase.service == nullptr) return phase;
  phase.setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
  server::QueryService* service = phase.service.get();

  const int clients = mode == Mode::kWarm ? 2 : 1;
  const int num_classes = static_cast<int>(in.classes.size());
  std::vector<ClientResult> results(static_cast<size_t>(clients));
  std::vector<SpanBuffer*> client_traces(static_cast<size_t>(clients),
                                         nullptr);
  if (traced) {
    for (int c = 0; c < clients; ++c) {
      phase.traces.push_back(std::make_unique<SpanBuffer>(epoch));
      client_traces[static_cast<size_t>(c)] = phase.traces.back().get();
    }
  }
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> next_op{0};
  phase.cache_before = service->cache()->GetStats();
  const Clock::time_point start = Clock::now();

  auto client = [&](int c) {
    ClientResult& out = results[static_cast<size_t>(c)];
    SpanBuffer* trace = client_traces[static_cast<size_t>(c)];
    server::Session* session = service->CreateSession();
    // Right-table versions this client last registered (refresh only;
    // set-up registered version 0 of every table).
    std::map<std::string, int> version;
    for (;;) {
      const double elapsed = SecondsBetween(start, Clock::now());
      if (elapsed >= seconds &&
          (completed.load() >= kMinOps || elapsed >= kMaxStretch * seconds)) {
        break;
      }
      for (int k = 0; k < num_classes; ++k) {
        // Clients start the cycle at different classes.
        const QueryClass& cls =
            in.classes[static_cast<size_t>((k + 2 * c) % num_classes)];
        const int64_t op = next_op.fetch_add(1);
        int v = 0;
        const Clock::time_point t0 = Clock::now();
        const int32_t root = trace != nullptr ? trace->Begin("op", op) : -1;
        ++out.attempted;
        if (mode == Mode::kRefresh) {
          const int next = version[cls.right] ^ 1;
          const Clock::time_point r0 = Clock::now();
          Result<const impala::TableDef*> def = service->RegisterTable(
              cls.right, in.versions.at(cls.right)[static_cast<size_t>(next)]);
          const Clock::time_point r1 = Clock::now();
          if (trace != nullptr) {
            trace->Add("server.RegisterTable", op, root, r0, r1);
          }
          out.register_seconds.push_back(SecondsBetween(r0, r1));
          if (!def.ok()) {
            ++out.failed;
            if (trace != nullptr) trace->End(root);
            continue;
          }
          v = version[cls.right] = next;
        }
        const Clock::time_point e0 = Clock::now();
        Result<server::QueryResponse> response =
            service->Execute(session, cls.sql);
        const Clock::time_point e1 = Clock::now();
        if (trace != nullptr) trace->Add("server.Execute", op, root, e0, e1);
        if (!response.ok()) {
          if (response.status().code() == StatusCode::kResourceExhausted) {
            ++out.rejected;
          } else {
            ++out.failed;
          }
        } else {
          if (DigestRows(response->result) !=
              cls.reference[static_cast<size_t>(v)]) {
            ++out.wrong;
          }
          const impala::QueryMetrics& metrics = response->result.metrics;
          OpRecord record;
          record.cls = static_cast<int>(&cls - in.classes.data());
          record.latency = SecondsBetween(t0, e1);
          record.queue = response->queue_seconds;
          record.total = response->total_seconds;
          record.frontend = metrics.frontend_seconds;
          record.build = metrics.right_build_seconds;
          for (const impala::ScanRangeTiming& task : metrics.scan_tasks) {
            record.fragment += task.seconds;
          }
          record.cache_hit = response->index_cache_hit;
          record.partitioned = response->plan_choice.strategy ==
                               plan::JoinStrategy::kPartitioned;
          out.ops.push_back(record);
          completed.fetch_add(1);
        }
        if (trace != nullptr) trace->End(root);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& thread : threads) thread.join();
  phase.wall = SecondsBetween(start, Clock::now());
  phase.cache_after = service->cache()->GetStats();
  phase.peak_rss_mb = PeakRssMb();
  // The other set-ups only time setup_s. They run after the peak resident
  // set is read, so the garbage their teardowns leave never counts in it.
  for (int i = 1; i < kSetups; ++i) {
    const Clock::time_point s0 = Clock::now();
    std::unique_ptr<server::QueryService> extra =
        SetUp(in, setup_trace, -1 - i, &phase);
    if (extra == nullptr) return phase;
    phase.setup_seconds.push_back(SecondsBetween(s0, Clock::now()));
  }

  for (ClientResult& r : results) {
    phase.ops.insert(phase.ops.end(), r.ops.begin(), r.ops.end());
    phase.register_seconds.insert(phase.register_seconds.end(),
                                  r.register_seconds.begin(),
                                  r.register_seconds.end());
    phase.attempted += r.attempted;
    phase.failed += r.failed;
    phase.rejected += r.rejected;
    phase.wrong += r.wrong;
  }
  return phase;
}

/// Per-class latency bands of one phase: where the median and p95 fall.
void PrintClasses(const Inputs& in, const Phase& phase) {
  std::printf("  %-14s %6s %10s %10s %10s\n", "class", "ops", "p50_ms",
              "max_ms", "frag_ms");
  for (size_t c = 0; c < in.classes.size(); ++c) {
    std::vector<double> latency;
    std::vector<double> fragment;
    for (const OpRecord& op : phase.ops) {
      if (op.cls != static_cast<int>(c)) continue;
      latency.push_back(op.latency * 1e3);
      fragment.push_back(op.fragment * 1e3);
    }
    std::printf("  %-14s %6zu %10.2f %10.2f %10.2f\n",
                in.classes[c].name.c_str(), latency.size(), Median(latency),
                latency.empty() ? 0.0
                                : *std::max_element(latency.begin(),
                                                    latency.end()),
                Median(fragment));
  }
}

MetricList EndToEnd(const Phase& phase, std::string* error) {
  MetricList list;
  std::vector<double> latency;
  for (const OpRecord& op : phase.ops) latency.push_back(op.latency);
  list.Add("throughput_per_s",
           static_cast<double>(phase.ops.size()) / phase.wall, "1/s",
           static_cast<int64_t>(phase.ops.size()));
  for (const auto& [name, q] :
       {std::pair{"latency_p50_ms", 0.50}, std::pair{"latency_p95_ms", 0.95}}) {
    const Quantile quantile = NearestRank(latency, q);
    if (!list.AddQuantile(name, quantile, 1e3, "ms") && error->empty()) {
      *error = std::string(name) + " withheld: only " +
               std::to_string(quantile.beyond) + " of " +
               std::to_string(quantile.samples) + " ops lie beyond it";
    }
  }
  list.Add("setup_s", Median(phase.setup_seconds), "s",
           static_cast<int64_t>(phase.setup_seconds.size()));
  list.Add("peak_rss_mb", phase.peak_rss_mb, "MB");
  return list;
}

/// One class's inputs pushed through the layer functions the SQL path
/// runs, one layer at a time, so each gets its own span.
struct Replay {
  double plan_ms = 0.0;
  double scan_ms = 0.0;
  double parse_ms = 0.0;
  double build_ms = 0.0;
  double filter_ms = 0.0;
  double refine_ms = 0.0;
  double stats_ms = 0.0;
  int64_t scan_bytes = 0;
  int64_t build_bytes = 0;
  int64_t probes = 0;
  int64_t candidates = 0;
  int64_t sfilter_skipped = 0;
  PairDigest digest;
};

Status ReplayClass(const Inputs& in, server::QueryService* service,
                   const QueryClass& cls, SpanBuffer* trace, int64_t op,
                   Replay* r) {
  const join::TableInput& left = in.Table(cls.left);
  const join::TableInput& right_input = in.versions.at(cls.right)[0];
  const dfs::SimFile* left_file;
  CLOUDJOIN_ASSIGN_OR_RETURN(left_file, in.fs.GetFile(left.path));
  const dfs::SimFile* right_file;
  CLOUDJOIN_ASSIGN_OR_RETURN(right_file, in.fs.GetFile(right_input.path));
  ScopedSpan root(trace, "replay", op);
  auto timed = [&](const char* name, auto&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    trace->Add(name, op, root.index(), t0, t1);
    return SecondsBetween(t0, t1) * 1e3;
  };

  Status status;
  r->plan_ms = timed("impala.Plan", [&] {
    status = service->system()->runtime()->Plan(cls.sql).status();
  });
  CLOUDJOIN_RETURN_IF_ERROR(status);

  std::vector<std::pair<int64_t, std::string_view>> rows;
  r->scan_ms = timed("dfs.scan", [&] {
    dfs::LineRecordReader lines(left_file->data(), 0, left_file->size());
    const size_t width = static_cast<size_t>(
        std::max(left.id_column, left.geometry_column));
    std::string_view line;
    while (lines.Next(&line)) {
      const std::vector<std::string_view> fields =
          StrSplit(line, left.separator);
      if (fields.size() <= width) continue;
      Result<int64_t> id = ParseInt64(fields[left.id_column]);
      if (id.ok()) rows.emplace_back(*id, fields[left.geometry_column]);
    }
  });
  r->scan_bytes = left_file->size();

  exec::GeosProbeBatch batch;
  r->parse_ms = timed("geosim.parse", [&] {
    for (const auto& [id, wkt] : rows) {
      Result<std::unique_ptr<geosim::Geometry>> geom = exec::ParseGeosWkt(wkt);
      if (!geom.ok()) continue;
      batch.ids.push_back(id);
      batch.wkt.emplace_back(wkt);
      batch.geoms.push_back(std::move(geom).value());
    }
  });

  exec::BuiltRight right;
  r->build_ms = timed("exec.build", [&] {
    Result<exec::BuiltRight> built = exec::BuildRightFromTable(
        *right_file, right_input, cls.predicate.FilterRadius(),
        exec::PrepareOptions(), /*counters=*/nullptr);
    status = built.status();
    if (built.ok()) right = std::move(built).value();
  });
  CLOUDJOIN_RETURN_IF_ERROR(status);
  r->build_bytes = right.MemoryBytes();

  // The probe driver's filter half: sFilter, then batched packed-tree
  // descent, collecting (probe, right slot) candidates.
  std::vector<std::pair<int64_t, int64_t>> candidates;
  r->filter_ms = timed("index.filter", [&] {
    const index::ProbeOptions probe;
    std::vector<int64_t> survivors;
    for (int64_t i = 0; i < batch.size(); ++i) {
      const geom::Envelope& envelope =
          batch.geoms[static_cast<size_t>(i)]->getEnvelopeInternal();
      if (!probe.sfilter || right.sfilter == nullptr ||
          right.sfilter->MightIntersect(envelope)) {
        survivors.push_back(i);
      }
    }
    r->sfilter_skipped =
        batch.size() - static_cast<int64_t>(survivors.size());
    index::BatchStats stats;
    index::RunBatchedProbes(
        static_cast<int64_t>(survivors.size()), *right.tree,
        right.packed.get(), probe,
        [&](int64_t i) {
          return batch.geoms[static_cast<size_t>(
                                 survivors[static_cast<size_t>(i)])]
              ->getEnvelopeInternal();
        },
        [&](int64_t i, int64_t slot) {
          candidates.emplace_back(survivors[static_cast<size_t>(i)], slot);
        },
        &stats);
  });
  r->probes = batch.size();
  r->candidates = static_cast<int64_t>(candidates.size());

  r->refine_ms = timed("geosim.refine", [&] {
    const exec::GeosRefiner refiner(&right, &cls.predicate);
    exec::RefineStats stats;
    for (const auto& [i, slot] : candidates) {
      const size_t p = static_cast<size_t>(i);
      const size_t s = static_cast<size_t>(slot);
      if (refiner.Refine(*batch.geoms[p], batch.wkt[p], s, &stats)) {
        r->digest.Add(batch.ids[p], right.ids[s]);
      }
    }
  });

  r->stats_ms = timed("plan.stats", [&] {
    status = plan::ComputeTableStats(*right_file, right_input).status();
  });
  return status;
}

double MedianOf(const std::vector<Replay>& runs, double Replay::*field) {
  std::vector<double> values;
  for (const Replay& r : runs) values.push_back(r.*field);
  return Median(values);
}

/// Per-layer metrics of the traced phase, plus the replay of every class.
Status PerLayer(const Inputs& in, Phase& traced, double untraced_throughput,
                Outcome* out) {
  SpanBuffer* trace = traced.traces.front().get();
  MetricList& list = out->per_layer;
  const std::vector<OpRecord>& ops = traced.ops;
  const double n_ops = static_cast<double>(std::max<size_t>(ops.size(), 1));

  std::vector<double> queue;
  std::vector<double> overhead;
  std::vector<double> frontend;
  std::vector<double> fragment;
  std::vector<double> build;
  std::vector<std::vector<double>> fragment_by_class(in.classes.size());
  int64_t builds = 0;
  int64_t partitioned = 0;
  for (const OpRecord& op : ops) {
    queue.push_back(op.queue);
    overhead.push_back(op.total - op.frontend - op.build - op.fragment);
    frontend.push_back(op.frontend);
    fragment.push_back(op.fragment);
    fragment_by_class[static_cast<size_t>(op.cls)].push_back(op.fragment);
    if (!op.cache_hit) {
      ++builds;
      build.push_back(op.build);
    }
    if (op.partitioned) ++partitioned;
  }
  const server::BroadcastIndexCache::Stats& b = traced.cache_before;
  const server::BroadcastIndexCache::Stats& a = traced.cache_after;
  const int64_t hits = a.hits - b.hits;
  const int64_t lookups = hits + (a.misses - b.misses);

  // Replay every class kReplays times; report per-cycle sums of medians.
  Replay cycle;
  double uncovered_ms = 0.0;
  for (size_t c = 0; c < in.classes.size(); ++c) {
    const QueryClass& cls = in.classes[c];
    std::vector<Replay> runs(kReplays);
    for (int k = 0; k < kReplays; ++k) {
      Replay& r = runs[static_cast<size_t>(k)];
      CLOUDJOIN_RETURN_IF_ERROR(ReplayClass(in, traced.service.get(), cls,
                                            trace, static_cast<int64_t>(c),
                                            &r));
      if (r.digest != cls.reference[0]) ++out->wrong;
    }
    Replay med = runs.front();
    for (double Replay::*field :
         {&Replay::plan_ms, &Replay::scan_ms, &Replay::parse_ms,
          &Replay::build_ms, &Replay::filter_ms, &Replay::refine_ms,
          &Replay::stats_ms}) {
      med.*field = MedianOf(runs, field);
      cycle.*field += med.*field;
    }
    cycle.scan_bytes += med.scan_bytes;
    cycle.build_bytes += med.build_bytes;
    cycle.probes += med.probes;
    cycle.candidates += med.candidates;
    cycle.sfilter_skipped += med.sfilter_skipped;
    cycle.digest.count += med.digest.count;
    uncovered_ms += Median(fragment_by_class[c]) * 1e3 -
                    (med.scan_ms + med.parse_ms + med.filter_ms +
                     med.refine_ms);
  }
  const double probes = static_cast<double>(std::max<int64_t>(cycle.probes, 1));

  list.AddLayerQuantile("server.queue_ms_p50", queue, 0.50, 1e3, "ms");
  list.AddLayerQuantile("server.queue_ms_p95", queue, 0.95, 1e3, "ms");
  list.AddLayerQuantile("server.overhead_ms_p50", overhead, 0.50, 1e3, "ms");
  list.Add("server.cache_hit_ratio",
           lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups, "ratio",
           lookups);
  list.Add("server.cache_mb", static_cast<double>(a.bytes) / (1 << 20), "MB");
  list.AddLayerQuantile("server.register_ms_p50", traced.register_seconds,
                        0.50, 1e3, "ms");
  list.Add("plan.stats_ms", cycle.stats_ms, "ms");
  list.Add("plan.partitioned_share", partitioned / n_ops, "ratio",
           static_cast<int64_t>(ops.size()));
  list.AddLayerQuantile("impala.plan_ms_p50", frontend, 0.50, 1e3, "ms");
  list.AddLayerQuantile("impala.fragment_ms_p50", fragment, 0.50, 1e3, "ms");
  list.Add("impala.rows_out", static_cast<double>(cycle.digest.count),
           "count");
  list.AddLayerQuantile("exec.build_ms_p50", build, 0.50, 1e3, "ms");
  list.Add("exec.build_ms", cycle.build_ms, "ms");
  list.Add("exec.build_mb", static_cast<double>(cycle.build_bytes) / (1 << 20),
           "MB");
  list.Add("exec.builds_per_op", builds / n_ops, "ratio",
           static_cast<int64_t>(ops.size()));
  list.Add("exec.refine_yield",
           static_cast<double>(cycle.digest.count) /
               static_cast<double>(std::max<int64_t>(cycle.candidates, 1)),
           "ratio");
  list.Add("exec.uncovered_ms", uncovered_ms, "ms");
  list.Add("dfs.scan_ms", cycle.scan_ms, "ms");
  list.Add("dfs.scan_mb", static_cast<double>(cycle.scan_bytes) / (1 << 20),
           "MB");
  list.Add("geosim.parse_ms", cycle.parse_ms, "ms");
  list.Add("geosim.refine_ms", cycle.refine_ms, "ms");
  list.Add("index.filter_ms", cycle.filter_ms, "ms");
  list.Add("index.candidates_per_probe",
           static_cast<double>(cycle.candidates) / probes, "ratio");
  list.Add("index.sfilter_skip_ratio",
           static_cast<double>(cycle.sfilter_skipped) / probes, "ratio");
  const double traced_throughput =
      static_cast<double>(ops.size()) / traced.wall;
  list.Add("trace.overhead_pct",
           100.0 * (1.0 - traced_throughput / untraced_throughput), "%");
  return Status::OK();
}

Outcome RunSql(const RunOptions& options, Mode mode) {
  Outcome out;
  Inputs in;
  if (Status s = MakeInputs(options.seed, mode, &in); !s.ok()) {
    out.error = "inputs: " + s.ToString();
    return out;
  }
  const char* title = mode == Mode::kWarm ? "paper_warm" : "paper_refresh";
  std::printf("%s: scale %.2f, seed %llu, %d classes, %.1f s per phase\n",
              title, kScale, static_cast<unsigned long long>(options.seed),
              static_cast<int>(in.classes.size()), options.PhaseSeconds());

  Phase untraced = RunPhase(in, mode, options.PhaseSeconds(), /*traced=*/false);
  if (!untraced.error.empty()) {
    out.error = untraced.error;
    return out;
  }
  out.attempted = untraced.attempted;
  out.failed = untraced.failed;
  out.rejected = untraced.rejected;
  out.wrong = untraced.wrong;
  std::string e2e_error;
  out.end_to_end = EndToEnd(untraced, &e2e_error);
  if (!options.trace) out.error = e2e_error;
  PrintClasses(in, untraced);
  if (!options.trace) {
    PrintTable("end to end (tracing off)", out.end_to_end);
    return out;
  }

  untraced.service.reset();
  Phase traced = RunPhase(in, mode, options.PhaseSeconds(), /*traced=*/true);
  if (!traced.error.empty()) {
    out.error = traced.error;
    return out;
  }
  out.attempted += traced.attempted;
  out.failed += traced.failed;
  out.rejected += traced.rejected;
  out.wrong += traced.wrong;
  // The traced phase's end-to-end figures are only printed; a percentile
  // they cannot support is shown as withheld rather than failing the run.
  std::string unused_error;
  const MetricList traced_e2e = EndToEnd(traced, &unused_error);
  PrintSideBySide("end to end", out.end_to_end, traced_e2e);
  const double untraced_throughput = out.end_to_end.metrics().front().value;
  if (Status s = PerLayer(in, traced, untraced_throughput, &out); !s.ok()) {
    out.error = "replay: " + s.ToString();
    return out;
  }
  PrintTable("per layer (traced run)", out.per_layer);
  std::vector<const SpanBuffer*> buffers;
  for (const auto& buffer : traced.traces) buffers.push_back(buffer.get());
  PrintSpanSummary(Summarize(buffers));
  if (!options.trace_out.empty() && !WriteSpans(options.trace_out, buffers)) {
    out.error = "cannot write " + options.trace_out;
  }
  return out;
}

}  // namespace

Outcome RunPaperWarm(const RunOptions& options) {
  return RunSql(options, Mode::kWarm);
}

Outcome RunPaperRefresh(const RunOptions& options) {
  return RunSql(options, Mode::kRefresh);
}

}  // namespace cloudjoin::perfbench
