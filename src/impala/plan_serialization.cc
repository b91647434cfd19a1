#include "impala/plan_serialization.h"

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace cloudjoin::impala {

namespace {

std::string FormatG17(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

constexpr int64_t kIntMax = std::numeric_limits<int>::max();

/// The one integer parse of plan text: `key`'s value must be a decimal
/// integer in [lo, hi] — by default a non-negative int — checked before
/// the caller narrows it, so an out-of-range value is a kParseError
/// instead of silently becoming another slot or count.
Result<int64_t> ParseIntValue(std::string_view value, std::string_view key,
                              int64_t lo = 0, int64_t hi = kIntMax) {
  auto parsed = ParseInt64(value);
  if (!parsed.ok()) {
    return Status::ParseError("bad integer '" + std::string(value) +
                              "' for " + std::string(key));
  }
  if (*parsed < lo || *parsed > hi) {
    return Status::ParseError(std::string(key) + " out of range [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "]: " + std::string(value));
  }
  return *parsed;
}

const char* TypeToken(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "i64";
    case ColumnType::kDouble:
      return "f64";
    case ColumnType::kString:
      return "str";
    case ColumnType::kBool:
      return "bool";
  }
  return "?";
}

Result<ColumnType> ParseTypeToken(std::string_view token) {
  if (token == "i64") return ColumnType::kInt64;
  if (token == "f64") return ColumnType::kDouble;
  if (token == "str") return ColumnType::kString;
  if (token == "bool") return ColumnType::kBool;
  return Status::ParseError("unknown column type token '" +
                            std::string(token) + "'");
}

bool IsKnownBinaryOp(const std::string& op) {
  return op == "AND" || op == "OR" || op == "=" || op == "<>" || op == "!=" ||
         op == "<" || op == ">" || op == "<=" || op == ">=" || op == "+" ||
         op == "-" || op == "*" || op == "/";
}

// ---------------------------------------------------------------------------
// Expression s-expressions.
// ---------------------------------------------------------------------------

struct SexprToken {
  enum class Kind { kLParen, kRParen, kAtom, kString };
  Kind kind = Kind::kAtom;
  std::string text;  // decoded for kString
};

Result<std::vector<SexprToken>> TokenizeSexpr(std::string_view text) {
  std::vector<SexprToken> tokens;
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ') {
      ++i;
      continue;
    }
    if (c == '(') {
      tokens.push_back({SexprToken::Kind::kLParen, "("});
      ++i;
      continue;
    }
    if (c == ')') {
      tokens.push_back({SexprToken::Kind::kRParen, ")"});
      ++i;
      continue;
    }
    if (c == '\'') {
      std::string decoded;
      ++i;
      bool closed = false;
      while (i < text.size()) {
        const char s = text[i];
        if (s == '\\') {
          if (i + 1 >= text.size()) {
            return Status::ParseError("dangling escape in string literal");
          }
          const char e = text[i + 1];
          if (e == '\\' || e == '\'') {
            decoded += e;
          } else if (e == 'n') {
            decoded += '\n';
          } else if (e == 'r') {
            decoded += '\r';
          } else {
            return Status::ParseError(
                std::string("unknown escape '\\") + e + "' in string literal");
          }
          i += 2;
          continue;
        }
        if (s == '\'') {
          closed = true;
          ++i;
          break;
        }
        decoded += s;
        ++i;
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal");
      }
      tokens.push_back({SexprToken::Kind::kString, std::move(decoded)});
      continue;
    }
    // Atom: everything up to whitespace, paren, or quote.
    size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '(' &&
           text[i] != ')' && text[i] != '\'') {
      ++i;
    }
    tokens.push_back(
        {SexprToken::Kind::kAtom, std::string(text.substr(start, i - start))});
  }
  return tokens;
}

class SexprParser {
 public:
  explicit SexprParser(std::vector<SexprToken> tokens)
      : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Expr>> ParseExpr() {
    CLOUDJOIN_RETURN_IF_ERROR(Expect(SexprToken::Kind::kLParen).status());
    CLOUDJOIN_ASSIGN_OR_RETURN(const SexprToken* head,
                               Expect(SexprToken::Kind::kAtom));
    std::unique_ptr<Expr> expr;
    if (head->text == "lit") {
      CLOUDJOIN_ASSIGN_OR_RETURN(expr, ParseLiteral());
    } else if (head->text == "slot") {
      CLOUDJOIN_ASSIGN_OR_RETURN(expr, ParseSlot());
    } else if (head->text == "bin") {
      CLOUDJOIN_ASSIGN_OR_RETURN(expr, ParseBinary());
    } else if (head->text == "call") {
      CLOUDJOIN_ASSIGN_OR_RETURN(expr, ParseCall());
    } else {
      return Status::ParseError("unknown expression head '" + head->text +
                                "'");
    }
    CLOUDJOIN_RETURN_IF_ERROR(Expect(SexprToken::Kind::kRParen).status());
    return expr;
  }

  bool AtEnd() const { return pos_ >= tokens_.size(); }

 private:
  Result<const SexprToken*> Expect(SexprToken::Kind kind) {
    if (pos_ >= tokens_.size()) {
      return Status::ParseError("truncated expression");
    }
    const SexprToken& token = tokens_[pos_];
    if (token.kind != kind) {
      return Status::ParseError("unexpected token '" + token.text +
                                "' in expression");
    }
    ++pos_;
    return &token;
  }

  Result<std::unique_ptr<Expr>> ParseLiteral() {
    CLOUDJOIN_ASSIGN_OR_RETURN(const SexprToken* type_token,
                               Expect(SexprToken::Kind::kAtom));
    CLOUDJOIN_ASSIGN_OR_RETURN(ColumnType type,
                               ParseTypeToken(type_token->text));
    if (pos_ >= tokens_.size()) {
      return Status::ParseError("truncated literal");
    }
    const SexprToken& value_token = tokens_[pos_];
    ++pos_;
    Value value;
    if (value_token.kind == SexprToken::Kind::kString) {
      if (type != ColumnType::kString) {
        return Status::ParseError("quoted value for non-string literal");
      }
      value = value_token.text;
    } else if (value_token.kind == SexprToken::Kind::kAtom) {
      if (value_token.text == "null") {
        value = Value{};
      } else if (type == ColumnType::kInt64) {
        auto parsed = ParseInt64(value_token.text);
        if (!parsed.ok()) {
          return Status::ParseError("bad int literal '" + value_token.text +
                                    "'");
        }
        value = *parsed;
      } else if (type == ColumnType::kDouble) {
        auto parsed = ParseDouble(value_token.text);
        if (!parsed.ok()) {
          return Status::ParseError("bad double literal '" +
                                    value_token.text + "'");
        }
        value = *parsed;
      } else if (type == ColumnType::kBool) {
        if (value_token.text == "0") {
          value = false;
        } else if (value_token.text == "1") {
          value = true;
        } else {
          return Status::ParseError("bad bool literal '" + value_token.text +
                                    "'");
        }
      } else {
        return Status::ParseError("unquoted value for string literal");
      }
    } else {
      return Status::ParseError("malformed literal value");
    }
    return std::unique_ptr<Expr>(
        std::make_unique<LiteralExpr>(std::move(value), type));
  }

  Result<int64_t> ExpectInt(std::string_view what, int64_t lo, int64_t hi) {
    CLOUDJOIN_ASSIGN_OR_RETURN(const SexprToken* token,
                               Expect(SexprToken::Kind::kAtom));
    return ParseIntValue(token->text, what, lo, hi);
  }

  Result<std::unique_ptr<Expr>> ParseSlot() {
    CLOUDJOIN_ASSIGN_OR_RETURN(int64_t side, ExpectInt("slot side", 0, 1));
    CLOUDJOIN_ASSIGN_OR_RETURN(int64_t slot,
                               ExpectInt("slot index", 0, kIntMax));
    CLOUDJOIN_ASSIGN_OR_RETURN(const SexprToken* type_token,
                               Expect(SexprToken::Kind::kAtom));
    CLOUDJOIN_ASSIGN_OR_RETURN(ColumnType type,
                               ParseTypeToken(type_token->text));
    return std::unique_ptr<Expr>(std::make_unique<SlotRef>(
        static_cast<int>(side), static_cast<int>(slot), type));
  }

  Result<std::unique_ptr<Expr>> ParseBinary() {
    CLOUDJOIN_ASSIGN_OR_RETURN(const SexprToken* op,
                               Expect(SexprToken::Kind::kAtom));
    if (!IsKnownBinaryOp(op->text)) {
      return Status::ParseError("unknown binary operator '" + op->text + "'");
    }
    // Copy the op out before recursing: recursive parses read tokens_ but
    // never mutate it, yet holding a pointer across them invites misuse.
    std::string op_text = op->text;
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseExpr());
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseExpr());
    return std::unique_ptr<Expr>(std::make_unique<BinaryExpr>(
        std::move(op_text), std::move(lhs), std::move(rhs)));
  }

  Result<std::unique_ptr<Expr>> ParseCall() {
    CLOUDJOIN_ASSIGN_OR_RETURN(const SexprToken* name,
                               Expect(SexprToken::Kind::kAtom));
    std::string udf_name = name->text;
    std::vector<std::unique_ptr<Expr>> args;
    while (pos_ < tokens_.size() &&
           tokens_[pos_].kind != SexprToken::Kind::kRParen) {
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExpr());
      args.push_back(std::move(arg));
    }
    auto udf = UdfRegistry::Global().Lookup(udf_name,
                                            static_cast<int>(args.size()));
    if (!udf.ok()) {
      return Status::ParseError("plan references unregistered UDF '" +
                                udf_name + "' (" + udf.status().message() +
                                ")");
    }
    return std::unique_ptr<Expr>(
        std::make_unique<FunctionCallExpr>(*udf, std::move(args)));
  }

  std::vector<SexprToken> tokens_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Plan text format.
// ---------------------------------------------------------------------------

constexpr std::string_view kPlanHeaderPrefix = "cloudjoin-plan version=";
constexpr int kPlanVersion = 3;

const char* KindToken(PlanNode::Kind kind) {
  switch (kind) {
    case PlanNode::Kind::kHdfsScan:
      return "scan";
    case PlanNode::Kind::kExchange:
      return "exchange";
    case PlanNode::Kind::kSpatialJoin:
      return "spatial_join";
    case PlanNode::Kind::kCrossJoin:
      return "cross_join";
    case PlanNode::Kind::kProject:
      return "project";
    case PlanNode::Kind::kAggregate:
      return "aggregate";
    case PlanNode::Kind::kLimit:
      return "limit";
  }
  return "?";
}

Result<PlanNode::Kind> ParseKindToken(std::string_view token) {
  if (token == "scan") return PlanNode::Kind::kHdfsScan;
  if (token == "exchange") return PlanNode::Kind::kExchange;
  if (token == "spatial_join") return PlanNode::Kind::kSpatialJoin;
  if (token == "cross_join") return PlanNode::Kind::kCrossJoin;
  if (token == "project") return PlanNode::Kind::kProject;
  if (token == "aggregate") return PlanNode::Kind::kAggregate;
  if (token == "limit") return PlanNode::Kind::kLimit;
  return Status::ParseError("unknown plan node kind '" + std::string(token) +
                            "'");
}

void WriteNode(const PlanNode& node, std::ostringstream* os) {
  *os << "begin " << KindToken(node.kind) << "\n";
  for (const auto& [key, value] : PlanNodeAttributes(node)) {
    *os << key << " " << value << "\n";
  }
  for (const auto& child : node.children) {
    WriteNode(*child, os);
  }
  *os << "end\n";
}

Result<bool> ParseBoolValue(std::string_view value) {
  if (value == "0") return false;
  if (value == "1") return true;
  return Status::ParseError("expected 0 or 1, got '" + std::string(value) +
                            "'");
}


Result<double> ParseDoubleValue(std::string_view value) {
  auto parsed = ParseDouble(value);
  if (!parsed.ok()) {
    return Status::ParseError("bad double '" + std::string(value) + "'");
  }
  return *parsed;
}

/// Unquotes a `PlanQuote`d value; trailing garbage is rejected.
Result<std::string> ParseQuoted(std::string_view value) {
  CLOUDJOIN_ASSIGN_OR_RETURN(std::vector<SexprToken> tokens,
                             TokenizeSexpr(value));
  if (tokens.size() != 1 || tokens[0].kind != SexprToken::Kind::kString) {
    return Status::ParseError("expected quoted string, got '" +
                              std::string(value) + "'");
  }
  return std::move(tokens[0].text);
}

Result<std::unique_ptr<Expr>> ParseExprValue(std::string_view value) {
  return DeserializeExpr(std::string(value));
}

Result<SpatialJoinSpec::Predicate> ParsePredicateToken(
    std::string_view token) {
  if (token == "WITHIN") return SpatialJoinSpec::Predicate::kWithin;
  if (token == "NEARESTD") return SpatialJoinSpec::Predicate::kNearestD;
  if (token == "INTERSECTS") return SpatialJoinSpec::Predicate::kIntersects;
  return Status::ParseError("unknown spatial predicate '" +
                            std::string(token) + "'");
}

Result<plan::JoinStrategy> ParseStrategyToken(std::string_view token) {
  if (token == "auto") return plan::JoinStrategy::kAuto;
  if (token == "broadcast") return plan::JoinStrategy::kBroadcast;
  if (token == "partitioned") return plan::JoinStrategy::kPartitioned;
  return Status::ParseError("unknown join strategy '" + std::string(token) +
                            "'");
}

Result<AggregateSpec::Kind> ParseAggKindToken(std::string_view token) {
  if (token == "count") return AggregateSpec::Kind::kCount;
  if (token == "sum") return AggregateSpec::Kind::kSum;
  if (token == "avg") return AggregateSpec::Kind::kAvg;
  if (token == "min") return AggregateSpec::Kind::kMin;
  if (token == "max") return AggregateSpec::Kind::kMax;
  return Status::ParseError("unknown aggregate kind '" + std::string(token) +
                            "'");
}

/// Cursor over the serialized plan's lines.
struct LineCursor {
  std::vector<std::string_view> lines;
  size_t pos = 0;

  bool AtEnd() const { return pos >= lines.size(); }
  std::string_view Peek() const { return lines[pos]; }
};

/// Splits "key value..." — key is the first space-delimited token, value
/// the remainder (which may itself contain spaces).
void SplitAttr(std::string_view line, std::string_view* key,
               std::string_view* value) {
  const size_t space = line.find(' ');
  if (space == std::string_view::npos) {
    *key = line;
    *value = std::string_view();
  } else {
    *key = line.substr(0, space);
    *value = line.substr(space + 1);
  }
}

Result<std::unique_ptr<PlanNode>> ParseNode(LineCursor* cursor) {
  if (cursor->AtEnd()) {
    return Status::ParseError("expected a plan node, got end of input");
  }
  std::string_view key;
  std::string_view value;
  SplitAttr(cursor->Peek(), &key, &value);
  if (key != "begin") {
    return Status::ParseError("expected 'begin <kind>', got '" +
                              std::string(cursor->Peek()) + "'");
  }
  ++cursor->pos;
  auto node = std::make_unique<PlanNode>();
  CLOUDJOIN_ASSIGN_OR_RETURN(node->kind, ParseKindToken(value));

  // Deferred spatial-join state: the refinement UDF resolves by name once
  // the predicate (which fixes its arity) is known, i.e. at node close.
  std::string udf_name;
  bool saw_udf = false;

  while (true) {
    if (cursor->AtEnd()) {
      return Status::ParseError("unterminated plan node (missing 'end')");
    }
    const std::string_view line = cursor->Peek();
    if (line == "end") {
      ++cursor->pos;
      break;
    }
    SplitAttr(line, &key, &value);
    if (key == "begin") {
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> child,
                                 ParseNode(cursor));
      node->children.push_back(std::move(child));
      continue;
    }
    ++cursor->pos;
    if (value.empty()) {
      return Status::ParseError("attribute '" + std::string(key) +
                                "' has no value");
    }

    const PlanNode::Kind kind = node->kind;
    bool handled = true;
    switch (kind) {
      case PlanNode::Kind::kHdfsScan: {
        if (key == "table") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->table_name, ParseQuoted(value));
        } else if (key == "side") {
          CLOUDJOIN_ASSIGN_OR_RETURN(int64_t side,
                                     ParseIntValue(value, key, 0, 1));
          node->side = static_cast<int>(side);
        } else if (key == "format") {
          if (value == "text") {
            node->format = exec::TableFormat::kText;
          } else if (value == "columnar") {
            node->format = exec::TableFormat::kColumnar;
          } else {
            return Status::ParseError("unknown table format '" +
                                      std::string(value) + "'");
          }
        } else if (key == "needed") {
          node->needed_slots.clear();
          for (char c : value) {
            if (c != '0' && c != '1') {
              return Status::ParseError("bad needed-slots bitmask");
            }
            node->needed_slots.push_back(c == '1');
          }
        } else if (key == "zonemap") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->scan_options.zone_map,
                                     ParseBoolValue(value));
        } else if (key == "filter") {
          CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                                     ParseExprValue(value));
          node->filters.push_back(std::move(expr));
        } else {
          handled = false;
        }
        break;
      }
      case PlanNode::Kind::kExchange: {
        if (key == "mode") {
          if (value != "BROADCAST") {
            return Status::ParseError("unknown exchange mode '" +
                                      std::string(value) + "'");
          }
        } else {
          handled = false;
        }
        break;
      }
      case PlanNode::Kind::kSpatialJoin: {
        if (key == "predicate") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->spatial.predicate,
                                     ParsePredicateToken(value));
        } else if (key == "left_geom") {
          CLOUDJOIN_ASSIGN_OR_RETURN(int64_t slot, ParseIntValue(value, key));
          node->spatial.left_geom_slot = static_cast<int>(slot);
        } else if (key == "right_geom") {
          CLOUDJOIN_ASSIGN_OR_RETURN(int64_t slot, ParseIntValue(value, key));
          node->spatial.right_geom_slot = static_cast<int>(slot);
        } else if (key == "distance") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->spatial.distance,
                                     ParseDoubleValue(value));
        } else if (key == "udf") {
          CLOUDJOIN_ASSIGN_OR_RETURN(udf_name, ParseQuoted(value));
          saw_udf = true;
        } else if (key == "cache_parsed") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->cache_parsed_geometries,
                                     ParseBoolValue(value));
        } else if (key == "prepare") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->prepare_geometries,
                                     ParseBoolValue(value));
        } else if (key == "probe_batch") {
          CLOUDJOIN_ASSIGN_OR_RETURN(int64_t batch,
                                     ParseIntValue(value, key, 1, kIntMax));
          node->probe.batch_size = static_cast<int>(batch);
        } else if (key == "probe_sfilter") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->probe.sfilter,
                                     ParseBoolValue(value));
        } else if (key == "strategy") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->decision.strategy,
                                     ParseStrategyToken(value));
        } else if (key == "forced") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->decision.forced,
                                     ParseBoolValue(value));
        } else if (key == "tiles") {
          CLOUDJOIN_ASSIGN_OR_RETURN(int64_t tiles, ParseIntValue(value, key));
          node->decision.num_tiles = static_cast<int>(tiles);
        } else if (key == "est_broadcast") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->decision.est_broadcast_seconds,
                                     ParseDoubleValue(value));
        } else if (key == "est_partitioned") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->decision.est_partitioned_seconds,
                                     ParseDoubleValue(value));
        } else if (key == "skew") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->decision.skew,
                                     ParseDoubleValue(value));
        } else if (key == "adaptive") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->adaptive_partitioning,
                                     ParseBoolValue(value));
        } else if (key == "skew_factor") {
          CLOUDJOIN_ASSIGN_OR_RETURN(node->skew_factor,
                                     ParseDoubleValue(value));
        } else if (key == "max_tiles_factor") {
          CLOUDJOIN_ASSIGN_OR_RETURN(int64_t factor,
                                     ParseIntValue(value, key));
          node->max_tiles_factor = static_cast<int>(factor);
        } else if (key == "post_filter") {
          CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                                     ParseExprValue(value));
          node->post_filters.push_back(std::move(expr));
        } else if (key == "output") {
          CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                                     ParseExprValue(value));
          node->outputs.push_back(std::move(expr));
        } else {
          handled = false;
        }
        break;
      }
      case PlanNode::Kind::kCrossJoin: {
        if (key == "post_filter") {
          CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                                     ParseExprValue(value));
          node->post_filters.push_back(std::move(expr));
        } else if (key == "output") {
          CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                                     ParseExprValue(value));
          node->outputs.push_back(std::move(expr));
        } else {
          handled = false;
        }
        break;
      }
      case PlanNode::Kind::kProject: {
        if (key == "output") {
          CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                                     ParseExprValue(value));
          node->outputs.push_back(std::move(expr));
        } else {
          handled = false;
        }
        break;
      }
      case PlanNode::Kind::kAggregate: {
        if (key == "keys") {
          CLOUDJOIN_ASSIGN_OR_RETURN(int64_t keys, ParseIntValue(value, key));
          node->num_group_keys = static_cast<int>(keys);
        } else if (key == "agg") {
          // "<kind> <distinct> <hidden> '<name>'"
          std::string_view rest = value;
          std::string_view kind_token;
          std::string_view distinct_token;
          std::string_view hidden_token;
          SplitAttr(rest, &kind_token, &rest);
          SplitAttr(rest, &distinct_token, &rest);
          SplitAttr(rest, &hidden_token, &rest);
          PlanAggregate agg;
          CLOUDJOIN_ASSIGN_OR_RETURN(agg.kind,
                                     ParseAggKindToken(kind_token));
          CLOUDJOIN_ASSIGN_OR_RETURN(agg.distinct,
                                     ParseBoolValue(distinct_token));
          CLOUDJOIN_ASSIGN_OR_RETURN(agg.hidden,
                                     ParseBoolValue(hidden_token));
          CLOUDJOIN_ASSIGN_OR_RETURN(agg.output_name, ParseQuoted(rest));
          node->aggregates.push_back(std::move(agg));
        } else {
          handled = false;
        }
        break;
      }
      case PlanNode::Kind::kLimit: {
        if (key == "limit") {
          CLOUDJOIN_ASSIGN_OR_RETURN(
              node->limit,
              ParseIntValue(value, key, std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()));
        } else {
          handled = false;
        }
        break;
      }
    }
    if (!handled) {
      return Status::ParseError("unknown attribute '" + std::string(key) +
                                "' for plan node '" + KindToken(kind) + "'");
    }
  }

  if (node->kind == PlanNode::Kind::kSpatialJoin) {
    if (!saw_udf || udf_name.empty()) {
      return Status::ParseError("spatial join node is missing its udf");
    }
    const int arity =
        node->spatial.predicate == SpatialJoinSpec::Predicate::kNearestD ? 3
                                                                         : 2;
    auto udf = UdfRegistry::Global().Lookup(udf_name, arity);
    if (!udf.ok()) {
      return Status::ParseError("plan references unregistered UDF '" +
                                udf_name + "' (" + udf.status().message() +
                                ")");
    }
    node->spatial.refine_udf = *udf;
  }
  return node;
}

}  // namespace

std::string PlanQuote(const std::string& raw) {
  std::string out = "'";
  for (char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\'':
        out += "\\'";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  out += "'";
  return out;
}

std::string SerializeExpr(const Expr& expr) {
  if (const auto* lit = dynamic_cast<const LiteralExpr*>(&expr)) {
    std::string value;
    const Value& v = lit->value();
    if (std::holds_alternative<std::monostate>(v)) {
      value = "null";
    } else if (const auto* i = std::get_if<int64_t>(&v)) {
      value = std::to_string(*i);
    } else if (const auto* d = std::get_if<double>(&v)) {
      value = FormatG17(*d);
    } else if (const auto* s = std::get_if<std::string>(&v)) {
      value = PlanQuote(*s);
    } else if (const auto* b = std::get_if<bool>(&v)) {
      value = *b ? "1" : "0";
    }
    return std::string("(lit ") + TypeToken(lit->type()) + " " + value + ")";
  }
  if (const auto* slot = dynamic_cast<const SlotRef*>(&expr)) {
    return "(slot " + std::to_string(slot->side()) + " " +
           std::to_string(slot->slot()) + " " + TypeToken(slot->type()) + ")";
  }
  if (const auto* bin = dynamic_cast<const BinaryExpr*>(&expr)) {
    return "(bin " + bin->op() + " " + SerializeExpr(*bin->lhs()) + " " +
           SerializeExpr(*bin->rhs()) + ")";
  }
  if (const auto* call = dynamic_cast<const FunctionCallExpr*>(&expr)) {
    std::string out = "(call " + call->udf()->name;
    for (const auto& arg : call->args()) {
      out += " " + SerializeExpr(*arg);
    }
    return out + ")";
  }
  CLOUDJOIN_CHECK(false);  // every Expr subclass is serializable
  return "";
}

Result<std::unique_ptr<Expr>> DeserializeExpr(const std::string& text) {
  CLOUDJOIN_ASSIGN_OR_RETURN(std::vector<SexprToken> tokens,
                             TokenizeSexpr(text));
  SexprParser parser(std::move(tokens));
  CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr, parser.ParseExpr());
  if (!parser.AtEnd()) {
    return Status::ParseError("trailing tokens after expression");
  }
  return expr;
}

std::string SerializePlan(const QueryPlan& plan) {
  std::ostringstream os;
  os << kPlanHeaderPrefix << plan.version << "\n";
  os << "fragments " << plan.num_fragments << "\n";
  os << "visible " << plan.visible_columns << "\n";
  for (const std::string& name : plan.column_names) {
    os << "column " << PlanQuote(name) << "\n";
  }
  if (plan.having != nullptr) {
    os << "having " << SerializeExpr(*plan.having) << "\n";
  }
  for (const PlanOrderKey& key : plan.order_by) {
    os << "order " << (key.ascending ? 1 : 0) << " "
       << SerializeExpr(*key.expr) << "\n";
  }
  if (plan.root != nullptr) WriteNode(*plan.root, &os);
  return os.str();
}

Result<QueryPlan> DeserializePlan(const std::string& text) {
  LineCursor cursor;
  {
    std::string_view remaining = text;
    while (!remaining.empty()) {
      const size_t nl = remaining.find('\n');
      std::string_view line = nl == std::string_view::npos
                                  ? remaining
                                  : remaining.substr(0, nl);
      remaining = nl == std::string_view::npos
                      ? std::string_view()
                      : remaining.substr(nl + 1);
      if (line.empty() && remaining.empty()) break;  // trailing newline
      if (line.empty()) {
        return Status::ParseError("blank line inside serialized plan");
      }
      cursor.lines.push_back(line);
    }
  }
  if (cursor.AtEnd()) return Status::ParseError("empty plan text");

  // Header: magic + version.
  {
    const std::string_view header = cursor.Peek();
    if (header.substr(0, kPlanHeaderPrefix.size()) != kPlanHeaderPrefix) {
      return Status::ParseError("not a serialized plan (bad header)");
    }
    CLOUDJOIN_ASSIGN_OR_RETURN(
        int64_t version,
        ParseIntValue(header.substr(kPlanHeaderPrefix.size()), "version",
                      std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max()));
    if (version != kPlanVersion) {
      return Status::ParseError("unsupported plan version " +
                                std::to_string(version) + " (this build " +
                                "reads version " +
                                std::to_string(kPlanVersion) + ")");
    }
    ++cursor.pos;
  }

  QueryPlan plan;
  plan.version = kPlanVersion;
  bool saw_fragments = false;
  bool saw_visible = false;
  while (!cursor.AtEnd()) {
    std::string_view key;
    std::string_view value;
    SplitAttr(cursor.Peek(), &key, &value);
    if (key == "begin") break;
    ++cursor.pos;
    if (value.empty()) {
      return Status::ParseError("plan attribute '" + std::string(key) +
                                "' has no value");
    }
    if (key == "fragments") {
      CLOUDJOIN_ASSIGN_OR_RETURN(int64_t fragments, ParseIntValue(value, key));
      plan.num_fragments = static_cast<int>(fragments);
      saw_fragments = true;
    } else if (key == "visible") {
      CLOUDJOIN_ASSIGN_OR_RETURN(int64_t visible, ParseIntValue(value, key));
      plan.visible_columns = static_cast<int>(visible);
      saw_visible = true;
    } else if (key == "column") {
      CLOUDJOIN_ASSIGN_OR_RETURN(std::string name, ParseQuoted(value));
      plan.column_names.push_back(std::move(name));
    } else if (key == "having") {
      if (plan.having != nullptr) {
        return Status::ParseError("duplicate having clause");
      }
      CLOUDJOIN_ASSIGN_OR_RETURN(plan.having, ParseExprValue(value));
    } else if (key == "order") {
      std::string_view asc_token;
      std::string_view expr_text;
      SplitAttr(value, &asc_token, &expr_text);
      PlanOrderKey order_key;
      CLOUDJOIN_ASSIGN_OR_RETURN(order_key.ascending,
                                 ParseBoolValue(asc_token));
      CLOUDJOIN_ASSIGN_OR_RETURN(order_key.expr, ParseExprValue(expr_text));
      plan.order_by.push_back(std::move(order_key));
    } else {
      return Status::ParseError("unknown plan attribute '" +
                                std::string(key) + "'");
    }
  }
  if (!saw_fragments || !saw_visible) {
    return Status::ParseError("plan header is missing fragments/visible");
  }
  if (cursor.AtEnd()) {
    return Status::ParseError("plan has no root node");
  }
  CLOUDJOIN_ASSIGN_OR_RETURN(plan.root, ParseNode(&cursor));
  if (!cursor.AtEnd()) {
    return Status::ParseError("trailing content after plan root: '" +
                              std::string(cursor.Peek()) + "'");
  }
  return plan;
}

}  // namespace cloudjoin::impala
