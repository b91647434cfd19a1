#ifndef CLOUDJOIN_IMPALA_RUNTIME_H_
#define CLOUDJOIN_IMPALA_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/result.h"
#include "dfs/columnar_block.h"
#include "dfs/sim_file_system.h"
#include "impala/catalog.h"
#include "impala/plan.h"
#include "impala/query_options.h"
#include "impala/types.h"
#include "plan/planner.h"

namespace cloudjoin {
class ThreadPool;
}  // namespace cloudjoin

namespace cloudjoin::impala {

struct BroadcastRight;

/// Canonical identity of one broadcast right-side build: everything
/// `BuildBroadcastRight` consumes that can change its output. Two queries
/// with equal keys would build byte-identical broadcast structures, so a
/// serving layer may hand the second query the first one's build.
struct BroadcastFingerprint {
  std::string table_name;
  /// Catalog generation of the table at plan time — bumped whenever the
  /// definition is (re)registered, so entries built against a replaced
  /// table can never match again.
  int64_t catalog_generation = 0;
  std::string dfs_path;
  /// Size of the backing file (proxy for its content version).
  int64_t file_size = 0;
  /// " AND "-joined canonical renderings of the pushed-down right filters.
  std::string right_filters;
  /// Needed-column bitmask ('1'/'0' per slot): projection pushdown means
  /// two queries touching different right columns materialize different
  /// rows.
  std::string needed_slots;
  int geom_slot = -1;
  double radius = 0.0;
  bool cache_parsed = false;
  bool prepare_geometries = false;
  /// Physical format of the backing file ("columnar", empty for text):
  /// the two formats build through different scan paths, so a table
  /// re-registered under a new format must never reuse the old build.
  std::string format;

  /// Canonical cache-key rendering (injective over the fields above).
  std::string Key() const;
};

/// Serving-layer hook: resolves a broadcast build by fingerprint, building
/// through `build` on a miss. Implementations (e.g. the server module's
/// index cache) decide retention; the runtime only promises that `build`
/// produces the structure `fingerprint` describes. Must be thread-safe —
/// one provider is shared by all concurrent queries of a service.
class BroadcastProvider {
 public:
  using Builder =
      std::function<Result<std::shared_ptr<const BroadcastRight>>()>;

  virtual ~BroadcastProvider() = default;

  /// Returns the broadcast structure for `fingerprint`, invoking `build`
  /// (at most once per call) on a miss. Sets `*cache_hit` to true iff the
  /// returned structure was built by an earlier query.
  virtual Result<std::shared_ptr<const BroadcastRight>> GetOrBuild(
      const BroadcastFingerprint& fingerprint, const Builder& build,
      bool* cache_hit) = 0;
};

/// Measured timing of one left-table scan range (≈ one plan-fragment
/// instance). `preferred_node` is the block's primary replica holder — the
/// node Impala's static scheduler would run this range on.
struct ScanRangeTiming {
  double seconds = 0.0;
  int preferred_node = -1;
  int64_t bytes = 0;
};

/// Everything the cluster simulator and the benchmark harnesses need to
/// replay this query on a modeled cluster.
struct QueryMetrics {
  double frontend_seconds = 0.0;     // parse + analyze + plan (measured)
  double right_build_seconds = 0.0;  // right scan + parse + R-tree build
  int64_t broadcast_bytes = 0;
  std::vector<ScanRangeTiming> scan_tasks;
  /// Partitioned strategy only: measured compute per join tile task.
  /// These seconds are *excluded* from `scan_tasks` (the scan fragments
  /// hand tiles off to separate join tasks), so a cluster replay schedules
  /// scan ranges and tile joins as distinct task populations.
  std::vector<double> join_task_seconds;
  /// `plan::PlanDecision::ToString()` of the spatial-join plan choice
  /// (empty for non-spatial queries).
  std::string plan_decision;
  /// Structured form of the same decision (zero-valued for non-spatial
  /// queries — check `plan_decision.empty()` to distinguish).
  plan::PlanDecision plan_choice;
  /// `SerializePlan` rendering of the executed plan — the exact text that
  /// replays this query through `ExecutePlan` without re-parsing SQL.
  std::string plan_text;
  Counters counters;
  std::string explain;
  int num_fragments = 0;
};

/// Query output: the coordinator-merged result set plus metrics.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  QueryMetrics metrics;
};

/// The end-to-end engine: SQL in, rows out (the ISP-MC coordinator role).
///
/// The coordinator runs on the calling thread: it plans, builds or
/// resolves the broadcast right side, and merges the output. Each left
/// scan range is one fragment instance, run single-threaded; given a
/// `pool`, the instances run concurrently on the caller plus the pool's
/// workers, each into its own slot, and the coordinator concatenates the
/// slots in block order, so rows, their order, counters and task lists
/// equal a serial run's. Each range's thread CPU seconds land in
/// `QueryMetrics::scan_tasks` so `sim::SimulateStatic` can replay them
/// under Impala's static scheduling on any cluster spec.
class ImpalaRuntime {
 public:
  /// `fs` must outlive the runtime.
  ImpalaRuntime(dfs::SimFileSystem* fs, Catalog catalog);

  Catalog* catalog() { return &catalog_; }

  /// Parses, analyzes, and plans `sql` without executing it. The returned
  /// plan is the complete execution contract: `ExecutePlan` consumes it
  /// with no further SQL or QueryOptions input.
  Result<QueryPlan> Plan(const std::string& sql,
                         const QueryOptions& options = QueryOptions()) const;

  /// Executes a physical plan — freshly built or deserialized from a
  /// captured `QueryMetrics::plan_text`. Scan nodes re-resolve their
  /// tables from the catalog by name; a plan captured against a table
  /// whose format or width has since changed fails with
  /// `kInvalidArgument` instead of scanning the wrong layout.
  /// `provider` (optional, not owned) resolves the broadcast build.
  /// `pool` (optional, not owned, may be shared by concurrent queries)
  /// runs the fragment instances alongside the caller; without one they
  /// run one after another. Like `provider`, it names a process-local
  /// resource, so it is never part of the plan.
  Result<QueryResult> ExecutePlan(const QueryPlan& plan,
                                  BroadcastProvider* provider = nullptr,
                                  ThreadPool* pool = nullptr);

  /// Parses, plans, and executes `sql`: `Plan` (timed as
  /// `frontend_seconds`) followed by `ExecutePlan` with
  /// `options.broadcast_provider` and `pool`.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryOptions& options = QueryOptions(),
                              ThreadPool* pool = nullptr);

  /// Returns the EXPLAIN rendering of `sql` without executing it.
  Result<std::string> Explain(const std::string& sql) const;

 private:
  dfs::SimFileSystem* fs_;
  Catalog catalog_;
};

}  // namespace cloudjoin::impala

#endif  // CLOUDJOIN_IMPALA_RUNTIME_H_
