#include "impala/plan.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "impala/plan_serialization.h"

namespace cloudjoin::impala {

const char* PlanNodeKindToString(PlanNode::Kind kind) {
  switch (kind) {
    case PlanNode::Kind::kHdfsScan:
      return "HDFS SCAN";
    case PlanNode::Kind::kExchange:
      return "EXCHANGE";
    case PlanNode::Kind::kSpatialJoin:
      return "SPATIAL JOIN";
    case PlanNode::Kind::kCrossJoin:
      return "CROSS JOIN";
    case PlanNode::Kind::kProject:
      return "PROJECT";
    case PlanNode::Kind::kAggregate:
      return "AGGREGATE";
    case PlanNode::Kind::kLimit:
      return "LIMIT";
  }
  return "?";
}

namespace {

std::string FormatG17(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const char* PredicateToken(SpatialJoinSpec::Predicate predicate) {
  switch (predicate) {
    case SpatialJoinSpec::Predicate::kWithin:
      return "WITHIN";
    case SpatialJoinSpec::Predicate::kNearestD:
      return "NEARESTD";
    case SpatialJoinSpec::Predicate::kIntersects:
      return "INTERSECTS";
  }
  return "?";
}

const char* AggKindToken(AggregateSpec::Kind kind) {
  switch (kind) {
    case AggregateSpec::Kind::kCount:
      return "count";
    case AggregateSpec::Kind::kSum:
      return "sum";
    case AggregateSpec::Kind::kAvg:
      return "avg";
    case AggregateSpec::Kind::kMin:
      return "min";
    case AggregateSpec::Kind::kMax:
      return "max";
  }
  return "?";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> PlanNodeAttributes(
    const PlanNode& node) {
  std::vector<std::pair<std::string, std::string>> attrs;
  auto add = [&attrs](const char* key, std::string value) {
    attrs.emplace_back(key, std::move(value));
  };
  auto add_bool = [&add](const char* key, bool value) {
    add(key, value ? "1" : "0");
  };
  auto add_exprs = [&add](const char* key,
                          const std::vector<std::unique_ptr<Expr>>& exprs) {
    for (const auto& expr : exprs) add(key, SerializeExpr(*expr));
  };

  switch (node.kind) {
    case PlanNode::Kind::kHdfsScan: {
      add("table", PlanQuote(node.table_name));
      add("side", std::to_string(node.side));
      add("format",
          node.format == exec::TableFormat::kColumnar ? "columnar" : "text");
      std::string needed;
      needed.reserve(node.needed_slots.size());
      for (bool b : node.needed_slots) needed += b ? '1' : '0';
      add("needed", std::move(needed));
      add_bool("zonemap", node.scan_options.zone_map);
      add_exprs("filter", node.filters);
      break;
    }
    case PlanNode::Kind::kExchange:
      add("mode", "BROADCAST");
      break;
    case PlanNode::Kind::kSpatialJoin: {
      add("predicate", PredicateToken(node.spatial.predicate));
      add("left_geom", std::to_string(node.spatial.left_geom_slot));
      add("right_geom", std::to_string(node.spatial.right_geom_slot));
      add("distance", FormatG17(node.spatial.distance));
      add("udf", PlanQuote(node.spatial.refine_udf != nullptr
                               ? node.spatial.refine_udf->name
                               : std::string()));
      add_bool("cache_parsed", node.cache_parsed_geometries);
      add_bool("prepare", node.prepare_geometries);
      add("probe_batch", std::to_string(node.probe.batch_size));
      add_bool("probe_sfilter", node.probe.sfilter);
      add("strategy", plan::JoinStrategyName(node.decision.strategy));
      add_bool("forced", node.decision.forced);
      add("tiles", std::to_string(node.decision.num_tiles));
      add("est_broadcast", FormatG17(node.decision.est_broadcast_seconds));
      add("est_partitioned", FormatG17(node.decision.est_partitioned_seconds));
      add("skew", FormatG17(node.decision.skew));
      add_bool("adaptive", node.adaptive_partitioning);
      add("skew_factor", FormatG17(node.skew_factor));
      add("max_tiles_factor", std::to_string(node.max_tiles_factor));
      add_exprs("post_filter", node.post_filters);
      add_exprs("output", node.outputs);
      break;
    }
    case PlanNode::Kind::kCrossJoin:
      add_exprs("post_filter", node.post_filters);
      add_exprs("output", node.outputs);
      break;
    case PlanNode::Kind::kProject:
      add_exprs("output", node.outputs);
      break;
    case PlanNode::Kind::kAggregate:
      add("keys", std::to_string(node.num_group_keys));
      for (const PlanAggregate& agg : node.aggregates) {
        add("agg", std::string(AggKindToken(agg.kind)) +
                       (agg.distinct ? " 1" : " 0") +
                       (agg.hidden ? " 1 " : " 0 ") +
                       PlanQuote(agg.output_name));
      }
      break;
    case PlanNode::Kind::kLimit:
      add("limit", std::to_string(node.limit));
      break;
  }
  return attrs;
}

namespace {

void ExplainNode(const PlanNode& node, int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  *os << PlanNodeKindToString(node.kind);
  const auto attrs = PlanNodeAttributes(node);
  if (!attrs.empty()) {
    *os << " [";
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i > 0) *os << " ";
      *os << attrs[i].first << "=" << attrs[i].second;
    }
    *os << "]";
  }
  *os << "\n";
  for (const auto& child : node.children) {
    ExplainNode(*child, depth + 1, os);
  }
}

}  // namespace

std::string QueryPlan::Explain() const {
  std::ostringstream os;
  os << "fragments: " << num_fragments << "\n";
  if (root != nullptr) ExplainNode(*root, 0, &os);
  return os.str();
}

Result<QueryPlan> BuildPlan(AnalyzedQuery&& query,
                            const QueryOptions& options) {
  QueryPlan plan;
  plan.visible_columns = query.NumVisibleColumns();
  const size_t num_group_keys = query.group_by.size();

  // Final column names, fixed at plan time.
  plan.column_names = query.output_names;
  if (query.has_aggregation) {
    for (const AggregateSpec& agg : query.aggregates) {
      if (!agg.hidden) plan.column_names.push_back(agg.output_name);
    }
  }

  // ---- Output expressions streamed by the leaf executors. ----
  // Aggregating queries stream [group keys..., aggregate inputs...]; the
  // coordinator merges. Non-aggregating queries stream the projections
  // (hidden ORDER BY slots ride along and are dropped after sorting).
  std::vector<std::unique_ptr<Expr>> outputs;
  std::vector<PlanAggregate> plan_aggregates;
  if (query.has_aggregation) {
    for (auto& key : query.group_by) outputs.push_back(std::move(key));
    for (AggregateSpec& agg : query.aggregates) {
      if (agg.arg != nullptr) {
        outputs.push_back(std::move(agg.arg));
      } else {
        outputs.push_back(std::make_unique<LiteralExpr>(Value{int64_t{1}},
                                                        ColumnType::kInt64));
      }
      PlanAggregate pa;
      pa.kind = agg.kind;
      pa.distinct = agg.distinct;
      pa.hidden = agg.hidden;
      pa.output_name = agg.output_name;
      plan_aggregates.push_back(std::move(pa));
    }
  } else {
    for (auto& proj : query.projections) outputs.push_back(std::move(proj));
    for (auto& proj : query.hidden_projections) {
      outputs.push_back(std::move(proj));
    }
  }

  // ---- Projection pushdown: which columns does the query touch? ----
  std::vector<bool> left_needed(query.left_table->columns.size(), false);
  std::vector<bool> right_needed(
      query.right_table != nullptr ? query.right_table->columns.size() : 0,
      false);
  {
    std::vector<std::pair<int, int>> slots;
    for (const auto& expr : outputs) expr->CollectSlots(&slots);
    for (const auto& f : query.left_filters) f->CollectSlots(&slots);
    for (const auto& f : query.right_filters) f->CollectSlots(&slots);
    for (const auto& f : query.post_join_filters) f->CollectSlots(&slots);
    if (query.spatial_join) {
      slots.emplace_back(0, query.spatial_join->left_geom_slot);
      slots.emplace_back(1, query.spatial_join->right_geom_slot);
    }
    for (const auto& [side, slot] : slots) {
      std::vector<bool>& needed = side == 0 ? left_needed : right_needed;
      if (slot >= 0 && slot < static_cast<int>(needed.size())) {
        needed[static_cast<size_t>(slot)] = true;
      }
    }
  }

  auto make_scan = [&options](const TableDef* table, int side,
                              std::vector<std::unique_ptr<Expr>> filters,
                              std::vector<bool> needed) {
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanNode::Kind::kHdfsScan;
    node->table_name = table->name;
    node->side = side;
    node->format = table->format;
    node->filters = std::move(filters);
    node->needed_slots = std::move(needed);
    node->scan_options = options.scan;
    return node;
  };

  std::unique_ptr<PlanNode> current;
  if (query.join_kind == JoinKind::kNone) {
    auto project = std::make_unique<PlanNode>();
    project->kind = PlanNode::Kind::kProject;
    project->outputs = std::move(outputs);
    project->children.push_back(make_scan(query.left_table, 0,
                                          std::move(query.left_filters),
                                          std::move(left_needed)));
    current = std::move(project);
    plan.num_fragments = 2;  // scan fragment + coordinator
  } else {
    auto left_scan =
        make_scan(query.left_table, 0, std::move(query.left_filters),
                  std::move(left_needed));
    auto right_scan =
        make_scan(query.right_table, 1, std::move(query.right_filters),
                  std::move(right_needed));
    auto exchange = std::make_unique<PlanNode>();
    exchange->kind = PlanNode::Kind::kExchange;
    exchange->children.push_back(std::move(right_scan));

    auto join = std::make_unique<PlanNode>();
    if (query.join_kind == JoinKind::kSpatial) {
      join->kind = PlanNode::Kind::kSpatialJoin;
      join->spatial = *query.spatial_join;
      join->cache_parsed_geometries = options.cache_parsed_geometries;
      join->prepare_geometries = options.prepare_geometries;
      join->probe = options.probe;
      // The cost-based strategy choice happens here, at plan time, from
      // the catalog stats — the plan node carries the decision, the
      // backend only follows it.
      plan::CostPlanner planner;
      const double radius = join->spatial.predicate ==
                                    SpatialJoinSpec::Predicate::kNearestD
                                ? join->spatial.distance
                                : 0.0;
      join->decision =
          planner.Choose(query.left_table->stats, query.right_table->stats,
                         radius, options.join_strategy);
      if (join->decision.strategy == plan::JoinStrategy::kPartitioned) {
        join->decision.num_tiles = options.partitioned_tiles > 0
                                       ? options.partitioned_tiles
                                       : planner.options().num_tiles;
      }
      join->adaptive_partitioning = options.adaptive_partitioning;
      join->skew_factor = planner.options().skew_factor;
      join->max_tiles_factor = planner.options().max_tiles_factor;
    } else {
      join->kind = PlanNode::Kind::kCrossJoin;
    }
    join->post_filters = std::move(query.post_join_filters);
    join->outputs = std::move(outputs);
    join->children.push_back(std::move(left_scan));
    join->children.push_back(std::move(exchange));
    current = std::move(join);
    plan.num_fragments = 3;  // right scan, left scan + join, coordinator
  }

  if (query.has_aggregation) {
    auto agg = std::make_unique<PlanNode>();
    agg->kind = PlanNode::Kind::kAggregate;
    agg->num_group_keys = static_cast<int>(num_group_keys);
    agg->aggregates = std::move(plan_aggregates);
    agg->children.push_back(std::move(current));
    current = std::move(agg);
  }
  if (query.limit >= 0) {
    auto limit = std::make_unique<PlanNode>();
    limit->kind = PlanNode::Kind::kLimit;
    limit->limit = query.limit;
    limit->children.push_back(std::move(current));
    current = std::move(limit);
  }
  plan.root = std::move(current);

  // ---- Coordinator recipe. ----
  plan.having = std::move(query.having);
  for (OrderKey& key : query.order_by) {
    PlanOrderKey pk;
    pk.expr = std::move(key.expr);
    pk.ascending = key.ascending;
    plan.order_by.push_back(std::move(pk));
  }
  return plan;
}

}  // namespace cloudjoin::impala
