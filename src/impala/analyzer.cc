#include "impala/analyzer.h"

#include <cctype>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace cloudjoin::impala {

namespace {

/// Name-resolution context: the (up to two) input tables and their aliases.
struct Scope {
  const TableDef* left = nullptr;
  const TableDef* right = nullptr;
  std::string left_name;   // effective (alias or table) name, original case
  std::string right_name;

  static bool NameEquals(const std::string& a, const std::string& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(a[i])) !=
          std::toupper(static_cast<unsigned char>(b[i]))) {
        return false;
      }
    }
    return true;
  }
};

/// The LiteralExpr of an int, double or string literal node. The value is
/// emplaced into a default-constructed Value: g++ 12 with the address and
/// undefined sanitizers warns (-Wmaybe-uninitialized) about the variant's
/// string member when it is brace-initialized from the literal.
std::unique_ptr<Expr> ConvertLiteral(const AstExpr& ast) {
  Value value;
  ColumnType type = ColumnType::kString;
  switch (ast.kind) {
    case AstExpr::Kind::kIntLiteral:
      value.emplace<int64_t>(ast.int_value);
      type = ColumnType::kInt64;
      break;
    case AstExpr::Kind::kDoubleLiteral:
      value.emplace<double>(ast.double_value);
      type = ColumnType::kDouble;
      break;
    default:
      CLOUDJOIN_DCHECK(ast.kind == AstExpr::Kind::kStringLiteral);
      value.emplace<std::string>(ast.string_value);
      break;
  }
  return std::make_unique<LiteralExpr>(std::move(value), type);
}

/// Converts an AST expression into an executable Expr, resolving column
/// refs. `sides_mask` accumulates bit 1 (left) / bit 2 (right) for every
/// slot referenced.
Result<std::unique_ptr<Expr>> ConvertExpr(const AstExpr& ast,
                                          const Scope& scope,
                                          int* sides_mask) {
  switch (ast.kind) {
    case AstExpr::Kind::kIntLiteral:
    case AstExpr::Kind::kDoubleLiteral:
    case AstExpr::Kind::kStringLiteral:
      return ConvertLiteral(ast);
    case AstExpr::Kind::kColumnRef: {
      bool try_left = true;
      bool try_right = scope.right != nullptr;
      if (!ast.table.empty()) {
        try_left = Scope::NameEquals(ast.table, scope.left_name);
        try_right = scope.right != nullptr &&
                    Scope::NameEquals(ast.table, scope.right_name);
        if (!try_left && !try_right) {
          return Status::InvalidArgument("unknown table qualifier: " +
                                         ast.table);
        }
      }
      int left_idx = try_left ? scope.left->ColumnIndex(ast.column) : -1;
      int right_idx = try_right ? scope.right->ColumnIndex(ast.column) : -1;
      if (left_idx >= 0 && right_idx >= 0) {
        return Status::InvalidArgument("ambiguous column: " + ast.column);
      }
      if (left_idx >= 0) {
        *sides_mask |= 1;
        return std::unique_ptr<Expr>(new SlotRef(
            0, left_idx, scope.left->columns[left_idx].type));
      }
      if (right_idx >= 0) {
        *sides_mask |= 2;
        return std::unique_ptr<Expr>(new SlotRef(
            1, right_idx, scope.right->columns[right_idx].type));
      }
      return Status::InvalidArgument("unknown column: " + ast.column);
    }
    case AstExpr::Kind::kFunctionCall: {
      std::vector<std::unique_ptr<Expr>> args;
      for (const auto& arg : ast.args) {
        CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> converted,
                                   ConvertExpr(*arg, scope, sides_mask));
        args.push_back(std::move(converted));
      }
      CLOUDJOIN_ASSIGN_OR_RETURN(
          const ScalarUdf* udf,
          UdfRegistry::Global().Lookup(ast.func_name,
                                       static_cast<int>(args.size())));
      return std::unique_ptr<Expr>(new FunctionCallExpr(udf, std::move(args)));
    }
    case AstExpr::Kind::kBinary: {
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs,
                                 ConvertExpr(*ast.lhs, scope, sides_mask));
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs,
                                 ConvertExpr(*ast.rhs, scope, sides_mask));
      return std::unique_ptr<Expr>(
          new BinaryExpr(ast.op, std::move(lhs), std::move(rhs)));
    }
    case AstExpr::Kind::kStar:
      return Status::InvalidArgument("'*' is only valid in COUNT(*)");
  }
  return Status::Internal("unreachable");
}

/// Flattens an AND tree into conjuncts.
void SplitConjuncts(const AstExpr* expr, std::vector<const AstExpr*>* out) {
  if (expr->kind == AstExpr::Kind::kBinary && expr->op == "AND") {
    SplitConjuncts(expr->lhs.get(), out);
    SplitConjuncts(expr->rhs.get(), out);
  } else {
    out->push_back(expr);
  }
}

/// If `ast` is a spatial predicate call usable as the join condition,
/// fills `spec` and returns true. The geometry arguments must be plain
/// column refs, one per side (paper Fig. 1 style).
Result<bool> TryExtractSpatialPredicate(const AstExpr& ast,
                                        const Scope& scope,
                                        SpatialJoinSpec* spec) {
  if (ast.kind != AstExpr::Kind::kFunctionCall) return false;
  SpatialJoinSpec::Predicate predicate;
  if (ast.func_name == "ST_WITHIN") {
    predicate = SpatialJoinSpec::Predicate::kWithin;
  } else if (ast.func_name == "ST_NEARESTD") {
    predicate = SpatialJoinSpec::Predicate::kNearestD;
  } else if (ast.func_name == "ST_INTERSECTS") {
    predicate = SpatialJoinSpec::Predicate::kIntersects;
  } else {
    return false;
  }
  const size_t geom_args = 2;
  const size_t want_args =
      predicate == SpatialJoinSpec::Predicate::kNearestD ? 3 : 2;
  if (ast.args.size() != want_args) {
    return Status::InvalidArgument(ast.func_name + " expects " +
                                   std::to_string(want_args) + " arguments");
  }
  int slots[2] = {-1, -1};
  int sides[2] = {-1, -1};
  for (size_t i = 0; i < geom_args; ++i) {
    int mask = 0;
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> converted,
                               ConvertExpr(*ast.args[i], scope, &mask));
    auto* slot = dynamic_cast<SlotRef*>(converted.get());
    if (slot == nullptr) {
      return Status::InvalidArgument(
          ast.func_name + " join arguments must be geometry columns");
    }
    slots[i] = slot->slot();
    sides[i] = slot->side();
  }
  if (sides[0] != 0 || sides[1] != 1) {
    return Status::InvalidArgument(
        ast.func_name +
        ": first argument must come from the left (streamed) table and the "
        "second from the right (broadcast) table");
  }
  spec->predicate = predicate;
  spec->left_geom_slot = slots[0];
  spec->right_geom_slot = slots[1];
  if (predicate == SpatialJoinSpec::Predicate::kNearestD) {
    const AstExpr& d = *ast.args[2];
    if (d.kind == AstExpr::Kind::kDoubleLiteral) {
      spec->distance = d.double_value;
    } else if (d.kind == AstExpr::Kind::kIntLiteral) {
      spec->distance = static_cast<double>(d.int_value);
    } else {
      return Status::InvalidArgument(
          "ST_NEARESTD distance must be a numeric literal");
    }
  }
  CLOUDJOIN_ASSIGN_OR_RETURN(
      spec->refine_udf,
      UdfRegistry::Global().Lookup(ast.func_name,
                                   static_cast<int>(want_args)));
  return true;
}

Result<AggregateSpec::Kind> AggregateKind(const std::string& name) {
  if (name == "COUNT") return AggregateSpec::Kind::kCount;
  if (name == "SUM") return AggregateSpec::Kind::kSum;
  if (name == "MIN") return AggregateSpec::Kind::kMin;
  if (name == "MAX") return AggregateSpec::Kind::kMax;
  if (name == "AVG") return AggregateSpec::Kind::kAvg;
  return Status::NotFound("not an aggregate: " + name);
}

bool IsAggregateCall(const AstExpr& ast) {
  if (ast.kind != AstExpr::Kind::kFunctionCall) return false;
  return ast.func_name == "COUNT" || ast.func_name == "SUM" ||
         ast.func_name == "MIN" || ast.func_name == "MAX" ||
         ast.func_name == "AVG";
}

/// Builds an AggregateSpec from an aggregate function call.
Result<AggregateSpec> BuildAggregate(const AstExpr& ast, const Scope& scope) {
  AggregateSpec agg;
  CLOUDJOIN_ASSIGN_OR_RETURN(agg.kind, AggregateKind(ast.func_name));
  agg.distinct = ast.distinct;
  if (agg.distinct && agg.kind != AggregateSpec::Kind::kCount) {
    return Status::InvalidArgument("DISTINCT is only supported with COUNT");
  }
  if (ast.args.size() == 1 && ast.args[0]->kind != AstExpr::Kind::kStar) {
    int mask = 0;
    CLOUDJOIN_ASSIGN_OR_RETURN(agg.arg,
                               ConvertExpr(*ast.args[0], scope, &mask));
  } else if (agg.kind != AggregateSpec::Kind::kCount || agg.distinct) {
    return Status::InvalidArgument(
        agg.distinct ? "COUNT(DISTINCT ...) needs a column argument"
                     : "only COUNT may take '*'");
  }
  return agg;
}

/// Result type of an aggregate, for slot references over the output row.
ColumnType AggregateResultType(const AggregateSpec& agg) {
  switch (agg.kind) {
    case AggregateSpec::Kind::kCount:
      return ColumnType::kInt64;
    case AggregateSpec::Kind::kSum:
    case AggregateSpec::Kind::kAvg:
      return ColumnType::kDouble;
    case AggregateSpec::Kind::kMin:
    case AggregateSpec::Kind::kMax:
      return agg.arg != nullptr ? agg.arg->type() : ColumnType::kInt64;
  }
  return ColumnType::kInt64;
}

/// Converts a HAVING / ORDER BY expression of an aggregating query into an
/// executable expression over the aggregated output row layout
/// [group keys..., aggregates...]. Aggregate calls that are not already
/// being computed are appended to `query->aggregates` as hidden.
Result<std::unique_ptr<Expr>> ConvertAggOutputExpr(
    const AstExpr& ast, const Scope& scope,
    const std::vector<std::pair<int, int>>& group_slots,
    AnalyzedQuery* query) {
  switch (ast.kind) {
    case AstExpr::Kind::kIntLiteral:
    case AstExpr::Kind::kDoubleLiteral:
    case AstExpr::Kind::kStringLiteral:
      return ConvertLiteral(ast);
    case AstExpr::Kind::kBinary: {
      CLOUDJOIN_ASSIGN_OR_RETURN(
          std::unique_ptr<Expr> lhs,
          ConvertAggOutputExpr(*ast.lhs, scope, group_slots, query));
      CLOUDJOIN_ASSIGN_OR_RETURN(
          std::unique_ptr<Expr> rhs,
          ConvertAggOutputExpr(*ast.rhs, scope, group_slots, query));
      return std::unique_ptr<Expr>(
          new BinaryExpr(ast.op, std::move(lhs), std::move(rhs)));
    }
    case AstExpr::Kind::kColumnRef: {
      int mask = 0;
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                                 ConvertExpr(ast, scope, &mask));
      const auto* slot = dynamic_cast<const SlotRef*>(expr.get());
      for (size_t k = 0; k < group_slots.size(); ++k) {
        if (slot != nullptr && slot->side() == group_slots[k].first &&
            slot->slot() == group_slots[k].second) {
          return std::unique_ptr<Expr>(
              new SlotRef(0, static_cast<int>(k), slot->type()));
        }
      }
      return Status::InvalidArgument(
          "HAVING/ORDER BY column '" + ast.column +
          "' must be a GROUP BY column or an aggregate");
    }
    case AstExpr::Kind::kFunctionCall: {
      if (!IsAggregateCall(ast)) {
        return Status::InvalidArgument(
            "scalar functions are not supported in HAVING/ORDER BY of "
            "aggregating queries");
      }
      CLOUDJOIN_ASSIGN_OR_RETURN(AggregateSpec agg,
                                 BuildAggregate(ast, scope));
      agg.hidden = true;
      int slot = static_cast<int>(group_slots.size()) +
                 static_cast<int>(query->aggregates.size());
      ColumnType type = AggregateResultType(agg);
      query->aggregates.push_back(std::move(agg));
      return std::unique_ptr<Expr>(new SlotRef(0, slot, type));
    }
    case AstExpr::Kind::kStar:
      return Status::InvalidArgument("'*' is only valid in COUNT(*)");
  }
  return Status::Internal("unreachable");
}

std::string DefaultOutputName(const AstExpr& ast, int position) {
  if (ast.kind == AstExpr::Kind::kColumnRef) return ast.column;
  if (ast.kind == AstExpr::Kind::kFunctionCall) {
    std::string name = ast.func_name;
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return name;
  }
  return "_col" + std::to_string(position);
}

}  // namespace

Result<std::unique_ptr<AnalyzedQuery>> Analyzer::Analyze(
    const SelectStatement& stmt) const {
  RegisterSpatialUdfs();
  auto query = std::make_unique<AnalyzedQuery>();
  query->join_kind = stmt.join_kind;
  query->limit = stmt.limit;

  Scope scope;
  CLOUDJOIN_ASSIGN_OR_RETURN(scope.left, catalog_->GetTable(stmt.from.table));
  scope.left_name = stmt.from.EffectiveName();
  query->left_table = scope.left;
  if (stmt.join_kind != JoinKind::kNone) {
    CLOUDJOIN_ASSIGN_OR_RETURN(scope.right,
                               catalog_->GetTable(stmt.join_table.table));
    scope.right_name = stmt.join_table.EffectiveName();
    query->right_table = scope.right;
  }

  // WHERE clause: split into conjuncts, extract the spatial predicate for
  // SPATIAL JOIN, and push single-sided filters below the join.
  std::vector<const AstExpr*> conjuncts;
  if (stmt.where != nullptr) SplitConjuncts(stmt.where.get(), &conjuncts);

  for (const AstExpr* conjunct : conjuncts) {
    if (stmt.join_kind == JoinKind::kSpatial && !query->spatial_join) {
      SpatialJoinSpec spec;
      CLOUDJOIN_ASSIGN_OR_RETURN(
          bool is_spatial, TryExtractSpatialPredicate(*conjunct, scope, &spec));
      if (is_spatial) {
        query->spatial_join = spec;
        continue;
      }
    }
    int mask = 0;
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                               ConvertExpr(*conjunct, scope, &mask));
    if (mask == 1) {
      query->left_filters.push_back(std::move(expr));
    } else if (mask == 2) {
      query->right_filters.push_back(std::move(expr));
    } else {
      query->post_join_filters.push_back(std::move(expr));
    }
  }
  if (stmt.join_kind == JoinKind::kSpatial && !query->spatial_join) {
    return Status::InvalidArgument(
        "SPATIAL JOIN requires an ST_WITHIN / ST_NEARESTD / ST_INTERSECTS "
        "predicate in the WHERE clause");
  }
  if (stmt.join_on != nullptr) {
    int mask = 0;
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> on,
                               ConvertExpr(*stmt.join_on, scope, &mask));
    query->post_join_filters.push_back(std::move(on));
  }

  // GROUP BY keys.
  std::vector<std::pair<int, int>> group_slots;
  for (const auto& key : stmt.group_by) {
    int mask = 0;
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                               ConvertExpr(*key, scope, &mask));
    if (const auto* slot = dynamic_cast<const SlotRef*>(expr.get())) {
      group_slots.emplace_back(slot->side(), slot->slot());
    }
    query->group_by.push_back(std::move(expr));
    query->group_by_names.push_back(key->column);
  }

  // SELECT list: aggregates vs plain projections.
  bool any_aggregate = false;
  for (const auto& item : stmt.select_list) {
    if (IsAggregateCall(*item.expr)) any_aggregate = true;
  }
  query->has_aggregation = any_aggregate || !stmt.group_by.empty();

  if (query->has_aggregation) {
    int position = 0;
    for (const auto& item : stmt.select_list) {
      const AstExpr& ast = *item.expr;
      if (IsAggregateCall(ast)) {
        CLOUDJOIN_ASSIGN_OR_RETURN(AggregateSpec agg,
                                   BuildAggregate(ast, scope));
        agg.output_name = item.alias.empty()
                              ? DefaultOutputName(ast, position)
                              : item.alias;
        query->aggregates.push_back(std::move(agg));
      } else {
        // Must be a grouping column.
        if (ast.kind != AstExpr::Kind::kColumnRef) {
          return Status::InvalidArgument(
              "non-aggregate SELECT items must be GROUP BY columns");
        }
        int mask = 0;
        CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                                   ConvertExpr(ast, scope, &mask));
        const auto* slot = dynamic_cast<const SlotRef*>(expr.get());
        bool grouped = false;
        for (const auto& [side, index] : group_slots) {
          if (slot != nullptr && slot->side() == side &&
              slot->slot() == index) {
            grouped = true;
            break;
          }
        }
        if (!grouped) {
          return Status::InvalidArgument("column '" + ast.column +
                                         "' is not in the GROUP BY clause");
        }
        query->projections.push_back(std::move(expr));
        query->output_names.push_back(
            item.alias.empty() ? DefaultOutputName(ast, position)
                               : item.alias);
      }
      ++position;
    }
    // Note: GROUP BY with no visible aggregates is allowed (it behaves as
    // DISTINCT over the keys); HAVING/ORDER BY below may still add hidden
    // aggregates.
    if (stmt.having != nullptr) {
      CLOUDJOIN_ASSIGN_OR_RETURN(
          query->having,
          ConvertAggOutputExpr(*stmt.having, scope, group_slots,
                               query.get()));
    }
    for (const auto& key : stmt.order_by) {
      OrderKey order;
      CLOUDJOIN_ASSIGN_OR_RETURN(
          order.expr, ConvertAggOutputExpr(*key.expr, scope, group_slots,
                                           query.get()));
      order.ascending = key.ascending;
      query->order_by.push_back(std::move(order));
    }
    return query;
  }

  // Plain projections.
  if (stmt.select_list.empty()) {
    // SELECT *: all left columns, then all right columns.
    const TableDef* sides[2] = {scope.left, scope.right};
    for (int side = 0; side < 2; ++side) {
      if (sides[side] == nullptr) continue;
      for (size_t i = 0; i < sides[side]->columns.size(); ++i) {
        query->projections.push_back(std::make_unique<SlotRef>(
            side, static_cast<int>(i), sides[side]->columns[i].type));
        query->output_names.push_back(sides[side]->columns[i].name);
      }
    }
  } else {
    int position = 0;
    for (const auto& item : stmt.select_list) {
      int mask = 0;
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                                 ConvertExpr(*item.expr, scope, &mask));
      query->projections.push_back(std::move(expr));
      query->output_names.push_back(item.alias.empty()
                                        ? DefaultOutputName(*item.expr,
                                                            position)
                                        : item.alias);
      ++position;
    }
  }
  // ORDER BY: each key becomes a hidden output slot; the coordinator
  // sorts on it and then drops it.
  for (const auto& key : stmt.order_by) {
    int mask = 0;
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                               ConvertExpr(*key.expr, scope, &mask));
    int slot = static_cast<int>(query->projections.size() +
                                query->hidden_projections.size());
    OrderKey order;
    order.expr = std::make_unique<SlotRef>(0, slot, expr->type());
    order.ascending = key.ascending;
    query->hidden_projections.push_back(std::move(expr));
    query->order_by.push_back(std::move(order));
  }
  return query;
}

}  // namespace cloudjoin::impala
