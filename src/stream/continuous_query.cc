#include "stream/continuous_query.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "common/stopwatch.h"
#include "exec/geo_parse.h"
#include "exec/probe_scanner.h"
#include "exec/probe_stats.h"
#include "exec/right_builder.h"
#include "exec/table_input.h"
#include "impala/analyzer.h"
#include "impala/catalog.h"
#include "impala/parser.h"
#include "stream/counter_names.h"

namespace cloudjoin::stream {

namespace {

exec::SpatialPredicate ToPredicate(const impala::SpatialJoinSpec& spec) {
  switch (spec.predicate) {
    case impala::SpatialJoinSpec::Predicate::kWithin:
      return exec::SpatialPredicate::Within();
    case impala::SpatialJoinSpec::Predicate::kNearestD:
      return exec::SpatialPredicate::NearestD(spec.distance);
    case impala::SpatialJoinSpec::Predicate::kIntersects:
      return exec::SpatialPredicate::Intersects();
  }
  return exec::SpatialPredicate::Within();
}

}  // namespace

ContinuousQueryRegistry::ContinuousQueryRegistry(server::QueryService* service,
                                                 dfs::SimFileSystem* fs)
    : service_(service),
      fs_(fs),
      cache_(service->options().enable_cache ? service->cache() : nullptr) {}

Result<int64_t> ContinuousQueryRegistry::Register(
    const std::string& sql, const StreamQueryOptions& options,
    Subscriber subscriber) {
  CLOUDJOIN_RETURN_IF_ERROR(options.window.Validate());
  CLOUDJOIN_RETURN_IF_ERROR(options.grid.Validate());
  CLOUDJOIN_RETURN_IF_ERROR(options.probe.Validate());
  CLOUDJOIN_RETURN_IF_ERROR(options.prepare.Validate());

  std::unique_ptr<impala::SelectStatement> stmt;
  CLOUDJOIN_ASSIGN_OR_RETURN(stmt, impala::ParseSelect(sql));
  const impala::Analyzer analyzer(service_->system()->runtime()->catalog());
  std::unique_ptr<impala::AnalyzedQuery> analyzed;
  CLOUDJOIN_ASSIGN_OR_RETURN(analyzed, analyzer.Analyze(*stmt));

  if (!analyzed->spatial_join.has_value() || analyzed->right_table == nullptr) {
    return Status::InvalidArgument(
        "continuous queries must be SPATIAL JOINs (feed joined against a "
        "registered right table): " + sql);
  }
  if (analyzed->has_aggregation) {
    return Status::Unimplemented(
        "continuous queries emit per-window join pairs; aggregation over "
        "windows is not supported: " + sql);
  }

  auto query = std::make_unique<Query>(options.window, options.grid);
  query->sql = sql;
  query->options = options;
  query->predicate = ToPredicate(*analyzed->spatial_join);
  query->right_table = analyzed->right_table->name;
  query->right_geom_slot = analyzed->spatial_join->right_geom_slot;
  query->subscriber = std::move(subscriber);

  std::lock_guard<std::mutex> lock(mu_);
  query->id = next_query_id_++;
  const int64_t id = query->id;
  queries_.push_back(std::move(query));
  return id;
}

Status ContinuousQueryRegistry::Unregister(int64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = queries_.begin(); it != queries_.end(); ++it) {
    if ((*it)->id == query_id) {
      queries_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no continuous query with id " +
                          std::to_string(query_id));
}

void ContinuousQueryRegistry::Ingest(const StreamEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.Add(counter::kEventsIngested, 1);
  for (const std::unique_ptr<Query>& q : queries_) {
    Query& query = *q;
    const WindowManager::Observed observed = query.manager.Observe(
        event,
        [&](const ClosedWindow& closed) { OnClosedWindow(query, closed); });
    if (observed.event == nullptr) {
      counters_.Add(counter::kLateDropped, 1);
      continue;
    }
    counters_.Add(counter::kEventsAccepted, 1);
    if (!query.options.incremental_index) continue;
    // Incremental index: parse once on arrival, place once. (Windows
    // fired by this Observe cannot contain the event itself — see
    // WindowManager::Observe — so indexing after the callback is safe.)
    auto parsed = exec::ParseGeosWkt(observed.event->wkt);
    if (!parsed.ok()) {
      counters_.Add(counter::kBadGeom, 1);
      continue;
    }
    WindowGrid::EventRef ref;
    ref.seq = observed.event->seq;
    ref.id = observed.event->id;
    ref.event = observed.event;
    ref.geom = std::move(parsed).value();
    query.grid.Insert(observed.pane, std::move(ref));
  }
}

int64_t ContinuousQueryRegistry::IngestAll(StreamSource* source) {
  int64_t count = 0;
  StreamEvent event;
  while (source->Next(&event)) {
    Ingest(event);
    ++count;
  }
  return count;
}

void ContinuousQueryRegistry::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Query>& q : queries_) {
    Query& query = *q;
    query.manager.Flush(
        [&](const ClosedWindow& closed) { OnClosedWindow(query, closed); });
  }
}

Result<std::shared_ptr<const exec::BuiltRight>>
ContinuousQueryRegistry::ResolveRight(const Query& query, bool* cache_hit) {
  // The table's current definition, so a right side re-registered from
  // another file is read from that file. The catalog generation fences
  // replaced tables out of the cache: a re-registered right side changes
  // the key, so stale entries are unreachable even if an in-flight build
  // inserts after InvalidateTable.
  impala::Catalog* catalog = service_->system()->runtime()->catalog();
  const impala::TableDef* table;
  CLOUDJOIN_ASSIGN_OR_RETURN(table, catalog->GetTable(query.right_table));
  exec::TableInput input;
  input.path = table->dfs_path;
  input.separator = table->separator;
  input.geometry_column = query.right_geom_slot;
  input.format = table->format;
  const int64_t generation = catalog->TableGeneration(query.right_table);
  const std::string key =
      "stream|" + query.right_table + "|gen=" + std::to_string(generation) +
      "|geom=" + std::to_string(input.geometry_column) + "|" +
      query.predicate.ToString() + "|" + query.options.prepare.Fingerprint();
  auto build = [&]() -> Result<std::shared_ptr<const exec::BuiltRight>> {
    const dfs::SimFile* file;
    CLOUDJOIN_ASSIGN_OR_RETURN(file, fs_->GetFile(input.path));
    exec::BuiltRight built;
    CLOUDJOIN_ASSIGN_OR_RETURN(
        built, exec::BuildRightFromTable(
                   *file, input, query.predicate.FilterRadius(),
                   query.options.prepare, &counters_));
    return std::shared_ptr<const exec::BuiltRight>(
        std::make_shared<exec::BuiltRight>(std::move(built)));
  };
  if (cache_ == nullptr) {
    *cache_hit = false;
    return build();
  }
  return cache_->GetOrBuild<exec::BuiltRight>(key, query.right_table, build,
                                              cache_hit);
}

void ContinuousQueryRegistry::OnClosedWindow(Query& query,
                                             const ClosedWindow& closed) {
  counters_.Add(counter::kWindowsFired, 1);
  if (closed.events.empty()) counters_.Add(counter::kWindowsEmpty, 1);

  WindowResult result;
  result.query_id = query.id;
  result.window_index = closed.index;
  result.start_ms = closed.start_ms;
  result.end_ms = closed.end_ms;
  result.watermark_lag_ms = closed.watermark_ms - closed.end_ms;
  result.on_flush = closed.on_flush;
  result.window_events = static_cast<int64_t>(closed.events.size());
  result.events = &closed.events;

  Stopwatch watch;
  bool cache_hit = false;
  Result<std::shared_ptr<const exec::BuiltRight>> right =
      ResolveRight(query, &cache_hit);
  if (!right.ok()) {
    result.status = right.status();
  } else {
    result.right_cache_hit = cache_hit;
    counters_.Add(cache_hit ? counter::kRightCacheHits
                            : counter::kRightCacheMisses,
                  1);
    const exec::BuiltRight& built = *right.value();
    const geom::Envelope& region = built.tree->bounds();
    // Stored matches hold only for the right side they were probed
    // against. Holding that side keeps a replacement from reusing its
    // address.
    if (right.value() != query.memo_right) {
      query.grid.ForgetMatches();
      query.memo_right = right.value();
    }

    std::vector<const WindowGrid::EventRef*> refs;
    WindowGrid::GatherStats gather_stats;
    // Rebuild-per-window baseline scratch; lives until the pairs are
    // assembled.
    WindowGrid rebuilt(query.options.grid);
    WindowGrid* grid = &query.grid;
    if (query.options.incremental_index) {
      grid->Gather(closed.index,
                   closed.index + query.options.window.PanesPerWindow() - 1,
                   region, &refs, &gather_stats);
    } else {
      // Ablation baseline: parse + index the whole window at firing time,
      // then gather identically (same pruning, same seq order). The
      // scratch grid starts empty, so every event is probed again.
      counters_.Add(counter::kGridRebuilds, 1);
      for (const StreamEvent* event : closed.events) {
        auto parsed = exec::ParseGeosWkt(event->wkt);
        if (!parsed.ok()) {
          counters_.Add(counter::kBadGeom, 1);
          continue;
        }
        WindowGrid::EventRef ref;
        ref.seq = event->seq;
        ref.id = event->id;
        ref.event = event;
        ref.geom = std::move(parsed).value();
        rebuilt.Insert(0, std::move(ref));
      }
      grid = &rebuilt;
      grid->Gather(0, 0, region, &refs, &gather_stats);
    }
    result.probed_events = static_cast<int64_t>(refs.size());
    result.cells_scanned = gather_stats.cells_scanned;
    result.cells_pruned = gather_stats.cells_pruned;
    counters_.Add(counter::kCellsScanned, gather_stats.cells_scanned);
    counters_.Add(counter::kCellsPruned, gather_stats.cells_pruned);
    counters_.Add(counter::kEventsPruned, gather_stats.events_pruned);

    // Filter and refine, in one batch, only the gathered events that no
    // earlier window probed against this right side.
    std::vector<const WindowGrid::EventRef*> unprobed;
    for (const WindowGrid::EventRef* ref : refs) {
      if (!grid->StoredMatches(*ref)) unprobed.push_back(ref);
    }
    // The new matches' right ids, grouped by probe in probe order.
    std::vector<int64_t> new_right_ids;
    std::vector<size_t> match_counts(unprobed.size(), 0);
    exec::ProbeStats probe_stats;
    exec::RunGeosProbes(
        static_cast<int64_t>(unprobed.size()),
        [&](int64_t i) -> const geosim::Geometry& {
          return *unprobed[static_cast<size_t>(i)]->geom;
        },
        [&](int64_t i) -> const std::string& {
          return unprobed[static_cast<size_t>(i)]->event->wkt;
        },
        [&](int64_t i) { return unprobed[static_cast<size_t>(i)]->id; },
        built, query.predicate, query.options.probe,
        [&](int64_t i, exec::IdPair pair) {
          ++match_counts[static_cast<size_t>(i)];
          new_right_ids.push_back(pair.second);
        },
        &probe_stats);
    probe_stats.FlushTo(&counters_);
    const std::span<const int64_t> new_ids(new_right_ids);
    size_t offset = 0;
    for (size_t i = 0; i < unprobed.size(); ++i) {
      grid->StoreMatches(*unprobed[i],
                         new_ids.subspan(offset, match_counts[i]));
      offset += match_counts[i];
    }

    // Every probe's pairs come out in tree emit order whatever batch it
    // ran in, so the window's pairs are its events' stored matches
    // concatenated in seq order: what one probe of the whole window emits.
    for (const WindowGrid::EventRef* ref : refs) {
      const std::span<const int64_t> matches = *grid->StoredMatches(*ref);
      for (int64_t right_id : matches) {
        result.pairs.emplace_back(ref->id, right_id);
      }
    }
    counters_.Add(counter::kPairsEmitted,
                  static_cast<int64_t>(result.pairs.size()));
  }

  result.probe_seconds = watch.ElapsedSeconds();
  query.probe_latency.Record(result.probe_seconds);
  result.probe_latency_to_date = query.probe_latency.TakeSnapshot();

  if (query.subscriber) query.subscriber(result);

  // This window was the last containing its oldest pane: release it from
  // the incremental index (the manager releases its own copy after the
  // fire callback returns).
  if (query.options.incremental_index) query.grid.ExpirePane(closed.index);
  counters_.Add(counter::kEventsExpired, closed.expiring_events);
}

StreamStats ContinuousQueryRegistry::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StreamStats stats;
  stats.counters = counters_;
  LatencyHistogram lifetime;
  for (const std::unique_ptr<Query>& q : queries_) {
    lifetime.Merge(q->probe_latency.TakeSnapshot());
  }
  stats.window_probe_latency = lifetime.TakeSnapshot();
  return stats;
}

std::string StreamStats::ToString() const {
  std::ostringstream os;
  os << "stream: ingested=" << counters.Get(counter::kEventsIngested)
     << " accepted=" << counters.Get(counter::kEventsAccepted)
     << " late_dropped=" << counters.Get(counter::kLateDropped)
     << " bad_geom=" << counters.Get(counter::kBadGeom) << "\n";
  os << "windows: fired=" << counters.Get(counter::kWindowsFired)
     << " empty=" << counters.Get(counter::kWindowsEmpty)
     << " expired_events=" << counters.Get(counter::kEventsExpired)
     << " rebuilds=" << counters.Get(counter::kGridRebuilds) << "\n";
  os << "grid: cells_scanned=" << counters.Get(counter::kCellsScanned)
     << " cells_pruned=" << counters.Get(counter::kCellsPruned)
     << " events_pruned=" << counters.Get(counter::kEventsPruned) << "\n";
  os << "right: cache_hits=" << counters.Get(counter::kRightCacheHits)
     << " cache_misses=" << counters.Get(counter::kRightCacheMisses)
     << " pairs=" << counters.Get(counter::kPairsEmitted) << "\n";
  os << "window probe latency: " << window_probe_latency.ToString();
  return os.str();
}

}  // namespace cloudjoin::stream
