#ifndef CLOUDJOIN_IMPALA_PLAN_H_
#define CLOUDJOIN_IMPALA_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dfs/columnar_block.h"
#include "exec/table_input.h"
#include "impala/analyzer.h"
#include "impala/query_options.h"
#include "index/probe_options.h"
#include "plan/planner.h"

namespace cloudjoin::impala {

/// One aggregate's merge recipe, as carried by the plan's AGGREGATE node.
/// The aggregate *input* expressions live in the leaf node's output list
/// (slots [num_group_keys ...] of the streamed row); this struct tells the
/// coordinator how to fold those slots per group.
struct PlanAggregate {
  AggregateSpec::Kind kind = AggregateSpec::Kind::kCount;
  bool distinct = false;
  /// Computed for HAVING/ORDER BY but not part of the visible result.
  bool hidden = false;
  std::string output_name;
};

/// One resolved ORDER BY key: an expression over the coordinator's final
/// output row (visible or hidden slots).
struct PlanOrderKey {
  std::unique_ptr<Expr> expr;
  bool ascending = true;
};

/// A node of the physical plan tree — the single execution contract. The
/// backend (`exec_node.h`) instantiates one exec object per plan node per
/// fragment instance *from these parameters*; EXPLAIN and the versioned
/// text serialization render the same parameters, so the plan printed,
/// the plan shipped, and the plan executed are one object.
///
/// One struct carries every kind's parameters (tagged by `kind`); unused
/// fields hold their defaults and are neither serialized nor rendered for
/// kinds they don't belong to.
struct PlanNode {
  enum class Kind {
    kHdfsScan,
    kExchange,     // broadcast or merge
    kSpatialJoin,  // the paper's extension node (subclass of BlockJoin)
    kCrossJoin,
    kProject,
    kAggregate,
    kLimit,
  };

  Kind kind = Kind::kProject;
  std::vector<std::unique_ptr<PlanNode>> children;

  // --- kHdfsScan ---
  /// Catalog table this scan reads; resolved (and validated against
  /// `format`) at execution time, so a plan captured against a replaced
  /// table fails loudly instead of scanning the wrong layout.
  std::string table_name;
  /// Which join input this scan feeds: 0 = left/probe, 1 = right/build.
  int side = 0;
  /// Physical layout recorded at plan time.
  exec::TableFormat format = exec::TableFormat::kText;
  /// Pushed-down single-side conjuncts, evaluated inside the scan.
  std::vector<std::unique_ptr<Expr>> filters;
  /// Projection-pushdown mask, one flag per table column; unreferenced
  /// columns are not materialized.
  std::vector<bool> needed_slots;
  /// Columnar-scan tuning (zone-map pruning).
  dfs::ScanOptions scan_options;

  // --- kSpatialJoin ---
  /// The analyzed spatial predicate. `spatial.refine_udf` is re-resolved
  /// from the UDF registry on deserialization (by name), never shipped.
  SpatialJoinSpec spatial;
  bool cache_parsed_geometries = false;
  bool prepare_geometries = false;
  index::ProbeOptions probe;
  /// The cost planner's broadcast-vs-partitioned choice, embedded in the
  /// node (EXPLAIN and QueryResponse surface it from here).
  plan::PlanDecision decision;
  /// Partitioned-strategy tiling parameters (resolved at plan time).
  bool adaptive_partitioning = true;
  double skew_factor = 2.0;
  int max_tiles_factor = 4;

  // --- kSpatialJoin / kCrossJoin ---
  /// Conjuncts over both sides, evaluated after the join.
  std::vector<std::unique_ptr<Expr>> post_filters;

  // --- kSpatialJoin / kCrossJoin / kProject ---
  /// Output expressions the leaf evaluates per emitted row. Aggregating
  /// queries stream [group keys..., aggregate inputs...]; non-aggregating
  /// queries stream [projections..., hidden ORDER BY slots...].
  std::vector<std::unique_ptr<Expr>> outputs;

  // --- kAggregate ---
  int num_group_keys = 0;
  std::vector<PlanAggregate> aggregates;

  // --- kLimit ---
  int64_t limit = -1;
};

const char* PlanNodeKindToString(PlanNode::Kind kind);

/// Serialization/EXPLAIN attribute list of one node: (key, value) pairs in
/// canonical order, values already rendered as serialization tokens. Both
/// `SerializePlan` and `QueryPlan::Explain` consume exactly this list —
/// the one-source-of-truth guarantee that EXPLAIN shows the serialized
/// form.
std::vector<std::pair<std::string, std::string>> PlanNodeAttributes(
    const PlanNode& node);

/// A physical plan: the node tree, its fragmentation, and the coordinator
/// recipe (final column names, HAVING, ORDER BY, visible-column
/// truncation) that runs above the root node's merged output.
struct QueryPlan {
  /// Serialization format version (see DESIGN.md §11).
  int version = 3;
  std::unique_ptr<PlanNode> root;
  int num_fragments = 1;

  /// Final result column names (group keys + visible aggregates, or the
  /// visible projections).
  std::vector<std::string> column_names;
  /// HAVING predicate over the aggregated output row (nullable).
  std::unique_ptr<Expr> having;
  /// ORDER BY keys over the output row (visible or hidden slots).
  std::vector<PlanOrderKey> order_by;
  /// Visible result width; the coordinator truncates rows to this after
  /// HAVING/ORDER BY (hidden ORDER BY slots are dropped here).
  int visible_columns = 0;

  /// Impala-style indented EXPLAIN rendering, generated from
  /// `PlanNodeAttributes` (the serialized representation).
  std::string Explain() const;
};

/// Builds the physical plan for an analyzed query, consuming it (filter /
/// projection / ORDER BY expressions move into the plan nodes):
///
///   scan(right) -> exchange(broadcast) -+
///                                       +-> spatial-join -> [agg] -> [limit]
///   scan(left)  -----------------------+
///
/// Non-join queries plan as scan -> project -> [agg] -> [limit].
///
/// Every option that shapes execution (parsed-geometry caching, probe and
/// scan tuning, the forced-or-chosen join strategy and its tile counts) is
/// resolved here and recorded on the nodes; executing the plan needs no
/// further QueryOptions.
Result<QueryPlan> BuildPlan(AnalyzedQuery&& query,
                            const QueryOptions& options = QueryOptions());

}  // namespace cloudjoin::impala

#endif  // CLOUDJOIN_IMPALA_PLAN_H_
