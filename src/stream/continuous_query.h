#ifndef CLOUDJOIN_STREAM_CONTINUOUS_QUERY_H_
#define CLOUDJOIN_STREAM_CONTINUOUS_QUERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/result.h"
#include "dfs/sim_file_system.h"
#include "exec/built_right.h"
#include "exec/id_geometry.h"
#include "exec/prepare_options.h"
#include "exec/spatial_predicate.h"
#include "index/probe_options.h"
#include "server/query_service.h"
#include "stream/stream_event.h"
#include "stream/stream_source.h"
#include "stream/window_grid.h"
#include "stream/window_manager.h"

namespace cloudjoin::stream {

/// Per-continuous-query tuning.
struct StreamQueryOptions {
  WindowSpec window;
  WindowGridOptions grid;
  /// True (default): events are parsed + indexed once on arrival and
  /// expire with their pane (GeoFlink). False: the ablation baseline that
  /// rebuilds the grid from the window contents at every firing.
  bool incremental_index = true;
  index::ProbeOptions probe;
  exec::PrepareOptions prepare;
};

/// One window's join output, pushed to the query's subscriber.
struct WindowResult {
  int64_t query_id = 0;
  int64_t window_index = 0;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  /// Watermark at fire time minus window end — how far behind the stream
  /// this firing ran (>= 0, except flush-fired windows, where the
  /// watermark never reached the end).
  int64_t watermark_lag_ms = 0;
  bool on_flush = false;

  /// Non-OK when the right side could not be resolved (table dropped
  /// mid-stream, file missing); `pairs` is empty then.
  Status status;
  /// Join pairs (left event id, right id) in probe order — byte-identical
  /// to a one-shot batch join over the same window contents.
  std::vector<exec::IdPair> pairs;

  int64_t window_events = 0;
  /// Events gathered for the probe (window_events minus cell-level pruning
  /// and bad geometries). Only those that no earlier window probed against
  /// the same right side were filtered and refined in this window; the
  /// rest contributed their stored matches.
  int64_t probed_events = 0;
  int64_t cells_scanned = 0;
  int64_t cells_pruned = 0;
  bool right_cache_hit = false;
  /// Wall time from resolving the right side to the assembled pairs:
  /// resolve, gather, the probe of the not-yet-probed events, and the
  /// pair assembly.
  double probe_seconds = 0.0;
  /// This query's per-window latency distribution so far (count == number
  /// of windows fired); p99 via PercentileSeconds(0.99).
  LatencyHistogram::Snapshot probe_latency_to_date;

  /// The window's events (arrival order), borrowed from the window
  /// manager: valid ONLY during the subscriber callback. Lets
  /// subscribers replay the window through an independent batch join
  /// (the differential arm) without the registry retaining contents.
  const std::vector<const StreamEvent*>* events = nullptr;
};

/// Stream-lifetime telemetry: the additive stream.* counters plus the
/// per-window probe-latency histograms of every query merged into one
/// distribution (LatencyHistogram::Merge — the satellite this PR adds).
struct StreamStats {
  Counters counters;
  LatencyHistogram::Snapshot window_probe_latency;
  std::string ToString() const;
};

/// The streaming face of the serving layer: standing `SELECT ... SPATIAL
/// JOIN` queries registered through a `QueryService`'s catalog, evaluated
/// once per closed window against the live feed.
///
/// Each registered query owns a WindowManager (windowing + watermarks +
/// late policy) and, in incremental mode, a WindowGrid that indexes
/// events as they arrive. When a window fires, the registry resolves the
/// query's right side through the service's BroadcastIndexCache (built
/// once, reused across windows and queries — the broadcast side of the
/// paper's join, amortized over the stream), gathers the window contents
/// from the grid (pruned against the right side's filter region), runs
/// the shared exec::RunGeosProbes driver over the gathered events that
/// have no stored matches yet, stores their matches in the grid, and
/// pushes a WindowResult whose pairs are every gathered event's stored
/// matches in arrival order. A sliding window's events are thus filtered
/// and refined once per right side, not once per window holding them,
/// and the join.* counters count them once. A different right side (a
/// re-registered table, a cache rebuild, a service without a cache)
/// discards every stored match.
///
/// Thread-safety: Register/Ingest/Flush/GetStats serialize on one mutex;
/// subscribers run under it (keep them cheap). Replacing a table on the
/// service concurrently with Ingest is the caller's race to avoid — the
/// generation-keyed cache makes it safe but not atomic per window.
class ContinuousQueryRegistry {
 public:
  using Subscriber = std::function<void(const WindowResult&)>;

  /// `service` and `fs` must outlive the registry. Tables the queries
  /// reference must be registered on the service.
  ContinuousQueryRegistry(server::QueryService* service,
                          dfs::SimFileSystem* fs);

  /// Validates `sql` against the service catalog (must be a SPATIAL JOIN
  /// without aggregation: left side is the feed, right side the cached
  /// table) and registers it. Returns the query id.
  Result<int64_t> Register(const std::string& sql,
                           const StreamQueryOptions& options,
                           Subscriber subscriber);

  Status Unregister(int64_t query_id);

  /// Offers one event to every registered query; fires any windows the
  /// advancing watermark closes (subscribers run inside this call).
  void Ingest(const StreamEvent& event);

  /// Drains `source` through Ingest; returns events ingested.
  int64_t IngestAll(StreamSource* source);

  /// End of stream: fires every remaining window of every query.
  void Flush();

  StreamStats GetStats() const;

 private:
  struct Query {
    int64_t id = 0;
    std::string sql;
    StreamQueryOptions options;
    exec::SpatialPredicate predicate;
    std::string right_table;
    int right_geom_slot = 0;
    WindowManager manager;
    WindowGrid grid;
    /// The right side `grid`'s stored matches were probed against.
    std::shared_ptr<const exec::BuiltRight> memo_right;
    Subscriber subscriber;
    LatencyHistogram probe_latency;

    Query(const WindowSpec& window, const WindowGridOptions& grid_options)
        : manager(window), grid(grid_options) {}
  };

  void OnClosedWindow(Query& query, const ClosedWindow& closed);
  Result<std::shared_ptr<const exec::BuiltRight>> ResolveRight(
      const Query& query, bool* cache_hit);

  server::QueryService* service_;
  dfs::SimFileSystem* fs_;
  // The service's cache, or null when the service runs without one (every
  // window then builds its right side).
  server::BroadcastIndexCache* cache_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Query>> queries_;
  Counters counters_;
  int64_t next_query_id_ = 1;
};

}  // namespace cloudjoin::stream

#endif  // CLOUDJOIN_STREAM_CONTINUOUS_QUERY_H_
