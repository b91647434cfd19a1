#include "impala/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/counter_names.h"
#include "exec/tiled_right.h"
#include "impala/analyzer.h"
#include "impala/exec_node.h"
#include "impala/parser.h"
#include "impala/plan.h"
#include "impala/plan_serialization.h"

namespace cloudjoin::impala {

namespace {

/// Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool has_value = false;
  Value min;
  Value max;
  std::set<Value> distinct_values;

  void Update(const PlanAggregate& spec, const Value& v) {
    switch (spec.kind) {
      case AggregateSpec::Kind::kCount:
        if (IsNull(v)) return;
        if (spec.distinct) {
          distinct_values.insert(v);
        } else {
          ++count;
        }
        return;
      case AggregateSpec::Kind::kSum:
      case AggregateSpec::Kind::kAvg: {
        if (IsNull(v)) return;
        double d = 0.0;
        if (const auto* i = std::get_if<int64_t>(&v)) {
          d = static_cast<double>(*i);
        } else if (const auto* f = std::get_if<double>(&v)) {
          d = *f;
        } else {
          return;
        }
        sum += d;
        ++count;
        return;
      }
      case AggregateSpec::Kind::kMin:
      case AggregateSpec::Kind::kMax:
        if (IsNull(v)) return;
        if (!has_value) {
          min = v;
          max = v;
          has_value = true;
        } else {
          if (v < min) min = v;
          if (max < v) max = v;
        }
        return;
    }
  }

  Value Final(const PlanAggregate& spec) const {
    switch (spec.kind) {
      case AggregateSpec::Kind::kCount:
        return spec.distinct ? static_cast<int64_t>(distinct_values.size())
                             : count;
      case AggregateSpec::Kind::kSum:
        return sum;
      case AggregateSpec::Kind::kAvg:
        return count == 0 ? Value{} : Value{sum / static_cast<double>(count)};
      case AggregateSpec::Kind::kMin:
        return has_value ? min : Value{};
      case AggregateSpec::Kind::kMax:
        return has_value ? max : Value{};
    }
    return Value{};
  }
};

/// The executable shape of a plan: the coordinator nodes unwrapped from
/// the tree plus the resolved leaf and scan nodes. `ExecutePlan` accepts
/// deserialized plans, so the shape is validated rather than assumed.
struct PlanShape {
  const PlanNode* limit_node = nullptr;  // nullable
  const PlanNode* agg_node = nullptr;    // nullable
  const PlanNode* leaf = nullptr;        // join or project
  const PlanNode* left_scan = nullptr;
  const PlanNode* right_scan = nullptr;  // null without a join
};

Result<PlanShape> ResolveShape(const QueryPlan& plan) {
  PlanShape shape;
  if (plan.root == nullptr) {
    return Status::InvalidArgument("plan has no root node");
  }
  const PlanNode* node = plan.root.get();
  if (node->kind == PlanNode::Kind::kLimit) {
    if (node->children.size() != 1) {
      return Status::InvalidArgument("LIMIT node must have one child");
    }
    shape.limit_node = node;
    node = node->children[0].get();
  }
  if (node->kind == PlanNode::Kind::kAggregate) {
    if (node->children.size() != 1) {
      return Status::InvalidArgument("AGGREGATE node must have one child");
    }
    shape.agg_node = node;
    node = node->children[0].get();
  }
  shape.leaf = node;
  switch (node->kind) {
    case PlanNode::Kind::kProject:
      if (node->children.size() != 1 ||
          node->children[0]->kind != PlanNode::Kind::kHdfsScan) {
        return Status::InvalidArgument("PROJECT node must read one scan");
      }
      shape.left_scan = node->children[0].get();
      break;
    case PlanNode::Kind::kSpatialJoin:
    case PlanNode::Kind::kCrossJoin:
      if (node->children.size() != 2 ||
          node->children[0]->kind != PlanNode::Kind::kHdfsScan ||
          node->children[1]->kind != PlanNode::Kind::kExchange ||
          node->children[1]->children.size() != 1 ||
          node->children[1]->children[0]->kind !=
              PlanNode::Kind::kHdfsScan) {
        return Status::InvalidArgument(
            "join node must read a left scan and a broadcast exchange");
      }
      shape.left_scan = node->children[0].get();
      shape.right_scan = node->children[1]->children[0].get();
      break;
    default:
      return Status::InvalidArgument(std::string("plan leaf cannot be ") +
                                     PlanNodeKindToString(node->kind));
  }
  if (shape.agg_node != nullptr) {
    const size_t expected =
        static_cast<size_t>(shape.agg_node->num_group_keys) +
        shape.agg_node->aggregates.size();
    if (shape.leaf->outputs.size() != expected) {
      return Status::InvalidArgument(
          "AGGREGATE node expects " + std::to_string(expected) +
          " streamed slots, leaf produces " +
          std::to_string(shape.leaf->outputs.size()));
    }
  }
  return shape;
}

/// Resolves a scan's table from the catalog and validates that the
/// definition still matches what the plan was built against — a plan
/// captured before a table was replaced must fail loudly, not scan the
/// wrong layout.
Result<const TableDef*> ResolveScanTable(const Catalog& catalog,
                                         const PlanNode& scan) {
  CLOUDJOIN_ASSIGN_OR_RETURN(const TableDef* table,
                             catalog.GetTable(scan.table_name));
  if (table->format != scan.format) {
    return Status::InvalidArgument(
        "table '" + scan.table_name +
        "' changed physical format since the plan was captured");
  }
  if (table->columns.size() != scan.needed_slots.size()) {
    return Status::InvalidArgument(
        "table '" + scan.table_name + "' changed width since the plan was " +
        "captured (plan expects " +
        std::to_string(scan.needed_slots.size()) + " columns, table has " +
        std::to_string(table->columns.size()) + ")");
  }
  return table;
}

/// The most tiles a partitioned plan may ask the partitioner for
/// (num_tiles x max_tiles_factor): far above the planner's own
/// max(64, 4 x cores) x 4, and far below a tile count whose per-tile work
/// lists would exhaust memory.
constexpr int64_t kMaxPartitionedTiles = 65536;

/// Checks a spatial-join node's numbers before anything is built — plan
/// text is client input: each geometry slot must lie inside its scan's
/// row, a NearestD distance must be finite (a negative one is legal and
/// matches nothing), and a partitioned plan's tiling must be one the
/// partitioner accepts.
Status ValidateSpatialJoin(const PlanNode& join, const TableDef& left,
                           const TableDef& right) {
  const SpatialJoinSpec& spatial = join.spatial;
  if (spatial.left_geom_slot < 0 ||
      static_cast<size_t>(spatial.left_geom_slot) >= left.columns.size() ||
      spatial.right_geom_slot < 0 ||
      static_cast<size_t>(spatial.right_geom_slot) >= right.columns.size()) {
    return Status::InvalidArgument(
        "spatial-join geometry slots (" +
        std::to_string(spatial.left_geom_slot) + ", " +
        std::to_string(spatial.right_geom_slot) + ") lie outside the " +
        "scanned rows (" + std::to_string(left.columns.size()) + " and " +
        std::to_string(right.columns.size()) + " columns)");
  }
  if (spatial.predicate == SpatialJoinSpec::Predicate::kNearestD &&
      !std::isfinite(spatial.distance)) {
    return Status::InvalidArgument("NearestD distance must be finite");
  }
  if (join.decision.strategy != plan::JoinStrategy::kPartitioned) {
    return Status::OK();
  }
  if (join.decision.num_tiles <= 0) {
    return Status::InvalidArgument(
        "partitioned spatial-join plan is missing its tile count");
  }
  if (!std::isfinite(join.skew_factor) || !(join.skew_factor > 0.0)) {
    return Status::InvalidArgument(
        "partitioned skew_factor must be finite and greater than 0");
  }
  if (join.max_tiles_factor < 1) {
    return Status::InvalidArgument(
        "partitioned max_tiles_factor must be at least 1");
  }
  if (int64_t{join.decision.num_tiles} * join.max_tiles_factor >
      kMaxPartitionedTiles) {
    return Status::InvalidArgument(
        "partitioned tiling asks for " +
        std::to_string(join.decision.num_tiles) + " x " +
        std::to_string(join.max_tiles_factor) + " tiles, more than " +
        std::to_string(kMaxPartitionedTiles));
  }
  return Status::OK();
}

}  // namespace

std::string BroadcastFingerprint::Key() const {
  char radius_buf[48];
  std::snprintf(radius_buf, sizeof(radius_buf), "%.17g", radius);
  std::string key = "sql|" + table_name;
  key += "|gen=" + std::to_string(catalog_generation);
  key += "|path=" + dfs_path;
  key += "|size=" + std::to_string(file_size);
  key += "|geom=" + std::to_string(geom_slot);
  key += "|radius=";
  key += radius_buf;
  key += "|need=" + needed_slots;
  if (cache_parsed) key += "|parsed";
  if (prepare_geometries) key += "|prepgrid";
  if (!format.empty()) key += "|fmt=" + format;
  // Free-form text goes last so the fixed fields parse unambiguously.
  key += "|filters=" + right_filters;
  return key;
}

ImpalaRuntime::ImpalaRuntime(dfs::SimFileSystem* fs, Catalog catalog)
    : fs_(fs), catalog_(std::move(catalog)) {
  CLOUDJOIN_CHECK(fs != nullptr);
  RegisterSpatialUdfs();
}

Result<QueryPlan> ImpalaRuntime::Plan(const std::string& sql,
                                      const QueryOptions& options) const {
  CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                             ParseSelect(sql));
  Analyzer analyzer(&catalog_);
  CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AnalyzedQuery> query,
                             analyzer.Analyze(*stmt));
  return BuildPlan(std::move(*query), options);
}

Result<std::string> ImpalaRuntime::Explain(const std::string& sql) const {
  CLOUDJOIN_ASSIGN_OR_RETURN(QueryPlan plan, Plan(sql));
  return plan.Explain();
}

Result<QueryResult> ImpalaRuntime::Execute(const std::string& sql,
                                           const QueryOptions& options,
                                           ThreadPool* pool) {
  CpuTimer frontend_watch;
  CLOUDJOIN_ASSIGN_OR_RETURN(QueryPlan plan, Plan(sql, options));
  const double frontend_seconds = frontend_watch.ElapsedSeconds();
  CLOUDJOIN_ASSIGN_OR_RETURN(
      QueryResult result,
      ExecutePlan(plan, options.broadcast_provider, pool));
  result.metrics.frontend_seconds = frontend_seconds;
  return result;
}

Result<QueryResult> ImpalaRuntime::ExecutePlan(const QueryPlan& plan,
                                               BroadcastProvider* provider,
                                               ThreadPool* pool) {
  QueryResult result;
  CLOUDJOIN_ASSIGN_OR_RETURN(PlanShape shape, ResolveShape(plan));
  CLOUDJOIN_RETURN_IF_ERROR(shape.leaf->probe.Validate());
  result.metrics.explain = plan.Explain();
  result.metrics.num_fragments = plan.num_fragments;
  result.metrics.plan_text = SerializePlan(plan);
  result.column_names = plan.column_names;

  CLOUDJOIN_ASSIGN_OR_RETURN(const TableDef* left_table,
                             ResolveScanTable(catalog_, *shape.left_scan));
  const TableDef* right_table = nullptr;
  if (shape.right_scan != nullptr) {
    CLOUDJOIN_ASSIGN_OR_RETURN(right_table,
                               ResolveScanTable(catalog_, *shape.right_scan));
  }
  const bool is_spatial = shape.leaf->kind == PlanNode::Kind::kSpatialJoin;
  if (is_spatial) {
    CLOUDJOIN_RETURN_IF_ERROR(
        ValidateSpatialJoin(*shape.leaf, *left_table, *right_table));
  }

  // Output expressions the leaf evaluates per emitted row (aggregating
  // plans stream [group keys..., aggregate inputs...]).
  std::vector<const Expr*> output_exprs;
  output_exprs.reserve(shape.leaf->outputs.size());
  for (const auto& expr : shape.leaf->outputs) {
    output_exprs.push_back(expr.get());
  }

  // ---- Broadcast build (right side), once per query — or resolved from
  // a serving-layer provider that retains builds across queries. ----
  std::shared_ptr<const BroadcastRight> right;
  std::unique_ptr<cloudjoin::exec::TiledRight> tiled;
  if (shape.right_scan != nullptr) {
    CLOUDJOIN_ASSIGN_OR_RETURN(const dfs::SimFile* right_file,
                               fs_->GetFile(right_table->dfs_path));
    auto build = [&]() -> Result<std::shared_ptr<const BroadcastRight>> {
      CLOUDJOIN_ASSIGN_OR_RETURN(
          std::unique_ptr<BroadcastRight> built,
          BuildBroadcastRightForPlan(*shape.leaf, *shape.right_scan,
                                     right_table, right_file,
                                     &result.metrics.counters));
      return std::shared_ptr<const BroadcastRight>(std::move(built));
    };
    bool cache_hit = false;
    if (provider != nullptr) {
      BroadcastFingerprint fingerprint;
      fingerprint.table_name = right_table->name;
      fingerprint.catalog_generation =
          catalog_.TableGeneration(right_table->name);
      fingerprint.dfs_path = right_table->dfs_path;
      fingerprint.file_size = right_file->size();
      for (size_t i = 0; i < shape.right_scan->filters.size(); ++i) {
        if (i > 0) fingerprint.right_filters += " AND ";
        fingerprint.right_filters += shape.right_scan->filters[i]->ToString();
      }
      fingerprint.needed_slots.reserve(shape.right_scan->needed_slots.size());
      for (bool needed : shape.right_scan->needed_slots) {
        fingerprint.needed_slots += needed ? '1' : '0';
      }
      if (is_spatial) {
        fingerprint.geom_slot = shape.leaf->spatial.right_geom_slot;
        if (shape.leaf->spatial.predicate ==
            SpatialJoinSpec::Predicate::kNearestD) {
          fingerprint.radius = shape.leaf->spatial.distance;
        }
        fingerprint.cache_parsed = shape.leaf->cache_parsed_geometries;
        fingerprint.prepare_geometries = shape.leaf->prepare_geometries;
      }
      if (right_table->format == exec::TableFormat::kColumnar) {
        fingerprint.format = "columnar";
      }
      CLOUDJOIN_ASSIGN_OR_RETURN(
          right, provider->GetOrBuild(fingerprint, build, &cache_hit));
    } else {
      CLOUDJOIN_ASSIGN_OR_RETURN(right, build());
    }
    if (cache_hit) {
      // The probe side reuses an index built by an earlier query: no build
      // on this query's critical path and nothing new to broadcast.
      result.metrics.right_build_seconds = 0.0;
      result.metrics.broadcast_bytes = 0;
      result.metrics.counters.Add(exec::counter::kIndexCacheHit, 1);
    } else {
      result.metrics.right_build_seconds = right->build_seconds;
      result.metrics.broadcast_bytes = right->bytes;
    }

    // ---- Strategy (spatial joins only): the plan node carries the cost
    // planner's broadcast-vs-partitioned decision and the resolved tiling
    // parameters; execution just realizes them. Match sets are identical
    // under either strategy, only the task layout changes. ----
    if (is_spatial) {
      if (shape.leaf->decision.strategy == plan::JoinStrategy::kPartitioned) {
        cloudjoin::exec::TiledRightOptions topts;
        topts.num_tiles = shape.leaf->decision.num_tiles;
        topts.adaptive = shape.leaf->adaptive_partitioning;
        topts.skew_factor = shape.leaf->skew_factor;
        topts.max_tiles_factor = shape.leaf->max_tiles_factor;
        if (left_table->stats.valid &&
            !left_table->stats.sample_centers.empty()) {
          topts.probe_sample = &left_table->stats.sample_centers;
        }
        // nullptr (empty right side) falls back to the broadcast node.
        tiled = cloudjoin::exec::BuildTiledRight(*right, topts,
                                                 &result.metrics.counters);
      }
      result.metrics.counters.Add(tiled != nullptr
                                      ? exec::counter::kPlanStrategyPartitioned
                                      : exec::counter::kPlanStrategyBroadcast,
                                  1);
      result.metrics.plan_decision = shape.leaf->decision.ToString();
      result.metrics.plan_choice = shape.leaf->decision;
    }
  }

  // ---- Backend: one fragment instance per left scan range, each exec
  // tree instantiated from the plan nodes. ----
  CLOUDJOIN_ASSIGN_OR_RETURN(const dfs::SimFile* left_file,
                             fs_->GetFile(left_table->dfs_path));
  // Columnar left side of a spatial join: the scan node prunes whole
  // blocks whose zone-map misses the broadcast side's overall MBR (tree
  // entries are already radius-expanded, so a pruned block cannot hold a
  // candidate; a spatial join is inner, so it cannot affect the output).
  const geom::Envelope* scan_region = nullptr;
  if (is_spatial && right != nullptr &&
      left_table->format == exec::TableFormat::kColumnar) {
    scan_region = &right->tree->bounds();
  }
  // Each instance fills its own slot, so instances may run concurrently.
  // Under the partitioned strategy its per-tile compute is deducted from
  // its range's timing and reported as separate join tasks (the tile
  // tasks a simulated cluster schedules on its own terms).
  struct Fragment {
    Status status;
    std::vector<Row> rows;
    ScanRangeTiming timing;
    std::vector<double> tile_seconds;
  };
  const size_t num_tiles =
      tiled != nullptr ? static_cast<size_t>(tiled->num_tiles()) : 0;
  auto run_fragment = [&](const dfs::BlockInfo& block,
                          Fragment* fragment) -> Status {
    CpuTimer range_watch;
    fragment->tile_seconds.assign(num_tiles, 0.0);
    std::unique_ptr<ExecNode> scan = MakeScanExecNode(
        *shape.left_scan, left_table, left_file, block.offset, block.length,
        &result.metrics.counters, scan_region);
    std::unique_ptr<ExecNode> tree;
    if (shape.leaf->kind == PlanNode::Kind::kProject) {
      tree = MakeProjectExecNode(std::move(scan), &output_exprs);
    } else {
      tree = MakeJoinExecNode(*shape.leaf, std::move(scan), right.get(),
                              tiled.get(), &output_exprs,
                              &result.metrics.counters,
                              &fragment->tile_seconds);
    }

    CLOUDJOIN_RETURN_IF_ERROR(tree->Open());
    RowBatch batch;
    bool eos = false;
    while (!eos) {
      CLOUDJOIN_RETURN_IF_ERROR(tree->GetNext(&batch, &eos));
      for (Row& row : batch.rows()) {
        fragment->rows.push_back(std::move(row));
      }
    }
    tree->Close();

    double tile_total = 0.0;
    for (double s : fragment->tile_seconds) tile_total += s;
    fragment->timing.seconds =
        std::max(0.0, range_watch.ElapsedSeconds() - tile_total);
    fragment->timing.preferred_node =
        block.replica_nodes.empty() ? -1 : block.replica_nodes[0];
    fragment->timing.bytes = block.length;
    return Status::OK();
  };
  const std::vector<dfs::BlockInfo>& blocks = left_file->blocks();
  std::vector<Fragment> fragments(blocks.size());
  ParallelFor(pool, static_cast<int64_t>(blocks.size()), [&](int64_t b) {
    const size_t i = static_cast<size_t>(b);
    fragments[i].status = run_fragment(blocks[i], &fragments[i]);
  });

  // ---- Coordinator: merge the instances in block order, as a serial run
  // would have produced them; the first failing range decides. ----
  size_t total_rows = 0;
  for (const Fragment& fragment : fragments) {
    CLOUDJOIN_RETURN_IF_ERROR(fragment.status);
    total_rows += fragment.rows.size();
  }
  result.rows.reserve(total_rows);
  result.metrics.scan_tasks.reserve(fragments.size());
  result.metrics.join_task_seconds.assign(num_tiles, 0.0);
  for (Fragment& fragment : fragments) {
    std::move(fragment.rows.begin(), fragment.rows.end(),
              std::back_inserter(result.rows));
    result.metrics.scan_tasks.push_back(fragment.timing);
    for (size_t t = 0; t < num_tiles; ++t) {
      result.metrics.join_task_seconds[t] += fragment.tile_seconds[t];
    }
  }

  // ---- Coordinator: aggregation merge. ----
  if (shape.agg_node != nullptr) {
    const size_t num_keys =
        static_cast<size_t>(shape.agg_node->num_group_keys);
    const std::vector<PlanAggregate>& aggs = shape.agg_node->aggregates;
    const size_t num_aggs = aggs.size();
    std::map<Row, std::vector<AggState>> groups;
    for (const Row& row : result.rows) {
      Row key(row.begin(), row.begin() + static_cast<int64_t>(num_keys));
      auto [it, inserted] =
          groups.try_emplace(std::move(key), std::vector<AggState>(num_aggs));
      for (size_t j = 0; j < num_aggs; ++j) {
        it->second[j].Update(aggs[j], row[num_keys + j]);
      }
    }
    result.rows.clear();
    for (const auto& [key, states] : groups) {
      Row out = key;
      for (size_t j = 0; j < num_aggs; ++j) {
        out.push_back(states[j].Final(aggs[j]));
      }
      result.rows.push_back(std::move(out));
    }
  }

  // ---- Coordinator: HAVING, ORDER BY, hidden-column drop, LIMIT. ----
  if (plan.having != nullptr) {
    std::vector<Row> kept;
    kept.reserve(result.rows.size());
    for (Row& row : result.rows) {
      if (plan.having->EvaluatesTrue(&row, nullptr)) {
        kept.push_back(std::move(row));
      }
    }
    result.rows = std::move(kept);
  }
  if (!plan.order_by.empty()) {
    std::stable_sort(
        result.rows.begin(), result.rows.end(),
        [&plan](const Row& a, const Row& b) {
          for (const PlanOrderKey& key : plan.order_by) {
            Value va = key.expr->Evaluate(&a, nullptr);
            Value vb = key.expr->Evaluate(&b, nullptr);
            if (va == vb) continue;
            bool less = va < vb;  // NULL (monostate) sorts first
            return key.ascending ? less : !less;
          }
          return false;
        });
  }
  const size_t visible =
      plan.visible_columns < 0 ? 0 : static_cast<size_t>(plan.visible_columns);
  for (Row& row : result.rows) {
    if (row.size() > visible) row.resize(visible);
  }
  if (shape.limit_node != nullptr && shape.limit_node->limit >= 0 &&
      static_cast<int64_t>(result.rows.size()) > shape.limit_node->limit) {
    result.rows.resize(static_cast<size_t>(shape.limit_node->limit));
  }
  return result;
}

}  // namespace cloudjoin::impala
