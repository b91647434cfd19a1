#ifndef CLOUDJOIN_SERVER_QUERY_SERVICE_H_
#define CLOUDJOIN_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "dfs/sim_file_system.h"
#include "impala/runtime.h"
#include "join/isp_mc_system.h"
#include "join/table_input.h"
#include "server/admission_controller.h"
#include "server/broadcast_index_cache.h"

namespace cloudjoin::server {

/// Configuration of one `QueryService`.
struct ServiceOptions {
  /// Fragment workers shared by all queries (at least 1). Each admitted
  /// query runs its coordinator on the calling thread and its scan ranges
  /// on that thread plus these workers, so a busy service keeps up to
  /// `admission.max_concurrent` + `num_threads` threads running.
  int num_threads = 4;
  AdmissionController::Options admission;
  BroadcastIndexCache::Options cache;
  /// When false the broadcast-index cache is bypassed entirely (every
  /// query rebuilds) — the `--cache=0` ablation arm.
  bool enable_cache = true;
};

/// One client's handle on the service: an id plus the default
/// `QueryOptions` applied to its queries (overridable per query).
struct Session {
  int64_t id = 0;
  impala::QueryOptions defaults;
};

/// One finished SQL query: rows plus serving-layer timing.
struct QueryResponse {
  impala::QueryResult result;
  /// Wall-clock spent waiting for admission.
  double queue_seconds = 0.0;
  /// Wall-clock of engine execution (admission to rows).
  double exec_seconds = 0.0;
  /// queue + exec, as the client saw it.
  double total_seconds = 0.0;
  /// True when the broadcast structure came out of the cache.
  bool index_cache_hit = false;
  /// The cost planner's broadcast-vs-partitioned decision for spatial
  /// joins (`plan::PlanDecision::ToString()`; empty otherwise) — the
  /// serving layer's EXPLAIN-style surfacing of the adaptive plan.
  std::string plan_decision;
  /// Structured form of the same decision, surfaced straight from the
  /// executed plan's spatial-join node (strategy, forced flag, tile count,
  /// cost estimates, skew). Zero-valued for non-spatial queries — check
  /// `plan_decision.empty()` to distinguish.
  plan::PlanDecision plan_choice;
  /// Hot tiles recursively split by the adaptive partitioner during this
  /// query (the `join.hot_tiles_split` counter; 0 for broadcast plans).
  int64_t plan_split_tiles = 0;
  /// `SerializePlan` text of the executed plan — feed it back through
  /// `ExecutePlan` to replay this query without re-parsing SQL.
  std::string plan_text;
  int64_t session_id = 0;
  int64_t query_id = 0;
};

/// Point-in-time service telemetry.
struct ServiceStats {
  AdmissionController::Stats admission;
  BroadcastIndexCache::Stats cache;
  int64_t queries_submitted = 0;
  int64_t queries_ok = 0;
  int64_t queries_rejected = 0;
  int64_t queries_failed = 0;
  LatencyHistogram::Snapshot queue_latency;
  LatencyHistogram::Snapshot exec_latency;
  LatencyHistogram::Snapshot total_latency;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// The serving layer in front of the ISP-MC engine: a long-lived,
/// thread-safe service that accepts concurrent SQL spatial-join queries
/// from multiple sessions, bounds concurrency through admission control,
/// runs each admitted query's coordinator on the client's thread and its
/// fragment instances on a shared worker pool, and retains built
/// broadcast indexes across queries so repeated joins against a hot right
/// side skip the build phase entirely.
///
/// The paper's prototypes run one query per process; this module adds the
/// "query service" deployment mode its Cloud setting implies: many
/// clients, one resident engine, broadcast structures amortized across
/// the query stream.
///
/// Thread-safety: every public method may be called from any thread.
/// `RegisterTable` takes the catalog write lock (and invalidates cache
/// entries of the replaced table); queries run under the read lock.
class QueryService {
 public:
  /// `fs` must outlive the service.
  QueryService(dfs::SimFileSystem* fs,
               const ServiceOptions& options = ServiceOptions());
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a session with `defaults` applied to its queries. The returned
  /// pointer is owned by the service and valid for its lifetime.
  Session* CreateSession(
      const impala::QueryOptions& defaults = impala::QueryOptions());

  /// Registers (or replaces) a delimited text table. Replacing a table
  /// invalidates every cached broadcast index built from it.
  Result<const impala::TableDef*> RegisterTable(const std::string& name,
                                                const join::TableInput& input);

  /// Runs `sql` under `session`'s default options. The calling thread
  /// waits for admission, then coordinates the query itself; it returns
  /// when the query finishes, is rejected by admission
  /// (`kResourceExhausted`), or fails in the engine.
  Result<QueryResponse> Execute(Session* session, const std::string& sql);

  /// Same, with per-query options overriding the session defaults.
  /// `options.broadcast_provider` is ignored — the service installs its
  /// own caching provider (or none, when the cache is disabled).
  Result<QueryResponse> Execute(Session* session, const std::string& sql,
                                const impala::QueryOptions& options);

  /// Replays a captured plan (`QueryResponse::plan_text` /
  /// `QueryMetrics::plan_text`) without re-parsing SQL: deserializes,
  /// admits, and executes it exactly as planned. Malformed or
  /// wrong-version plan text fails with `kParseError` before admission;
  /// a plan whose tables have since been replaced fails with
  /// `kInvalidArgument` from the engine.
  Result<QueryResponse> ExecutePlan(Session* session,
                                    const std::string& plan_text);

  ServiceStats GetStats() const;

  /// Stats since the previous `TakeIntervalStats()` call (or since
  /// construction, for the first call): latency histograms restart from
  /// empty and monotone counts are deltas, so per-window / per-interval
  /// reporting needs no process-lifetime subtraction by the caller.
  /// Gauges (running, queued, cache bytes/entries, peaks) stay current
  /// values. `GetStats()` remains lifetime-cumulative and is unaffected.
  ServiceStats TakeIntervalStats();

  AdmissionController* admission() { return &admission_; }
  BroadcastIndexCache* cache() { return &cache_; }
  const ServiceOptions& options() const { return options_; }

  /// The wrapped engine, for introspection (EXPLAIN etc.). Do not run
  /// queries through it directly — that would bypass admission.
  join::IspMcSystem* system() { return &system_; }

 private:
  class CachingProvider;

  /// One unit of engine work: runs on the calling thread against the
  /// runtime under the catalog read lock, with the service's broadcast
  /// provider (null = cache off) and fragment pool.
  using EngineFn = std::function<Result<impala::QueryResult>(
      impala::ImpalaRuntime*, impala::BroadcastProvider*, ThreadPool*)>;

  /// Shared admission/metrics/logging wrapper of `Execute` and
  /// `ExecutePlan`.
  Result<QueryResponse> ExecuteInternal(Session* session,
                                        const EngineFn& run);

  /// Feeds one finished query's timings into both the lifetime and the
  /// interval histograms.
  void RecordLatencies(double queue_seconds, double exec_seconds,
                       double total_seconds);

  ServiceOptions options_;
  join::IspMcSystem system_;
  AdmissionController admission_;
  BroadcastIndexCache cache_;
  ThreadPool pool_;
  std::unique_ptr<CachingProvider> provider_;

  /// Guards the catalog: queries shared, RegisterTable exclusive.
  std::shared_mutex catalog_mu_;

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<int64_t> next_session_id_{1};
  std::atomic<int64_t> next_query_id_{1};

  std::atomic<int64_t> queries_submitted_{0};
  std::atomic<int64_t> queries_ok_{0};
  std::atomic<int64_t> queries_rejected_{0};
  std::atomic<int64_t> queries_failed_{0};
  LatencyHistogram queue_latency_;
  LatencyHistogram exec_latency_;
  LatencyHistogram total_latency_;

  /// Interval twins of the lifetime histograms: Record() feeds both, and
  /// TakeIntervalStats() drains only these.
  LatencyHistogram interval_queue_latency_;
  LatencyHistogram interval_exec_latency_;
  LatencyHistogram interval_total_latency_;
  /// Serializes interval readers and holds the monotone-count baselines
  /// subtracted to produce deltas.
  std::mutex interval_mu_;
  ServiceStats interval_base_;
};

}  // namespace cloudjoin::server

#endif  // CLOUDJOIN_SERVER_QUERY_SERVICE_H_
