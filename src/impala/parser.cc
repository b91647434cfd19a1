#include "impala/parser.h"

#include "common/strings.h"
#include "impala/lexer.h"

namespace cloudjoin::impala {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<SelectStatement>> ParseStatement() {
    CLOUDJOIN_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStatement>();

    // Select list.
    if (ConsumeSymbol("*")) {
      // SELECT * — leave select_list empty.
    } else {
      do {
        SelectItem item;
        CLOUDJOIN_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("AS")) {
          CLOUDJOIN_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
        }
        stmt->select_list.push_back(std::move(item));
      } while (ConsumeSymbol(","));
    }

    CLOUDJOIN_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    CLOUDJOIN_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());

    // Optional join clause.
    if (ConsumeKeyword("SPATIAL")) {
      CLOUDJOIN_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      stmt->join_kind = JoinKind::kSpatial;
      CLOUDJOIN_ASSIGN_OR_RETURN(stmt->join_table, ParseTableRef());
    } else if (ConsumeKeyword("CROSS")) {
      CLOUDJOIN_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      stmt->join_kind = JoinKind::kCross;
      CLOUDJOIN_ASSIGN_OR_RETURN(stmt->join_table, ParseTableRef());
    } else if (PeekKeyword("INNER") || PeekKeyword("JOIN")) {
      ConsumeKeyword("INNER");
      CLOUDJOIN_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      stmt->join_kind = JoinKind::kInner;
      CLOUDJOIN_ASSIGN_OR_RETURN(stmt->join_table, ParseTableRef());
      if (ConsumeKeyword("ON")) {
        CLOUDJOIN_ASSIGN_OR_RETURN(stmt->join_on, ParseExpr());
      }
    }

    if (ConsumeKeyword("WHERE")) {
      CLOUDJOIN_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }

    if (ConsumeKeyword("GROUP")) {
      CLOUDJOIN_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> col, ParseExpr());
        if (col->kind != AstExpr::Kind::kColumnRef) {
          return Status::ParseError("GROUP BY supports column references");
        }
        stmt->group_by.push_back(std::move(col));
      } while (ConsumeSymbol(","));
    }

    if (ConsumeKeyword("HAVING")) {
      if (stmt->group_by.empty()) {
        return Status::ParseError("HAVING requires GROUP BY");
      }
      CLOUDJOIN_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }

    if (ConsumeKeyword("ORDER")) {
      CLOUDJOIN_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        OrderByItem item;
        CLOUDJOIN_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
      } while (ConsumeSymbol(","));
    }

    if (ConsumeKeyword("LIMIT")) {
      const Token& t = Peek();
      if (t.kind != TokenKind::kNumber) {
        return Status::ParseError("LIMIT expects a number");
      }
      CLOUDJOIN_ASSIGN_OR_RETURN(stmt->limit, ParseInt64(t.text));
      Advance();
    }

    ConsumeSymbol(";");
    if (Peek().kind != TokenKind::kEnd) {
      return Status::ParseError("trailing tokens after statement: '" +
                                Peek().raw + "'");
    }
    return stmt;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool PeekKeyword(const std::string& kw) const {
    const Token& t = Peek();
    return t.kind == TokenKind::kIdentifier && t.text == kw;
  }

  bool ConsumeKeyword(const std::string& kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!ConsumeKeyword(kw)) {
      return Status::ParseError("expected " + kw + ", found '" + Peek().raw +
                                "'");
    }
    return Status::OK();
  }

  bool ConsumeSymbol(const std::string& sym) {
    const Token& t = Peek();
    if (t.kind == TokenKind::kSymbol && t.text == sym) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const std::string& sym) {
    if (!ConsumeSymbol(sym)) {
      return Status::ParseError("expected '" + sym + "', found '" +
                                Peek().raw + "'");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier() {
    const Token& t = Peek();
    if (t.kind != TokenKind::kIdentifier) {
      return Status::ParseError("expected identifier, found '" + t.raw + "'");
    }
    std::string raw = t.raw;
    Advance();
    return raw;
  }

  static bool IsReserved(const std::string& upper) {
    static const char* kReserved[] = {
        "SELECT", "FROM",   "WHERE", "GROUP",    "BY",   "LIMIT",
        "JOIN",   "SPATIAL", "CROSS", "INNER",    "ON",   "AND",
        "OR",     "AS",      "ORDER", "HAVING",   "ASC",  "DESC",
        "DISTINCT"};
    for (const char* kw : kReserved) {
      if (upper == kw) return true;
    }
    return false;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    CLOUDJOIN_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
    const Token& t = Peek();
    if (t.kind == TokenKind::kIdentifier && !IsReserved(t.text)) {
      ref.alias = t.raw;
      Advance();
    }
    return ref;
  }

  // expr := and_expr (OR and_expr)*
  Result<std::unique_ptr<AstExpr>> ParseExpr() { return ParseOr(); }

  Result<std::unique_ptr<AstExpr>> ParseOr() {
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> lhs, ParseAnd());
    while (ConsumeKeyword("OR")) {
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> rhs, ParseAnd());
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExpr::Kind::kBinary;
      node->op = "OR";
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<AstExpr>> ParseAnd() {
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> lhs, ParseCompare());
    while (ConsumeKeyword("AND")) {
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> rhs, ParseCompare());
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExpr::Kind::kBinary;
      node->op = "AND";
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<AstExpr>> ParseCompare() {
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> lhs, ParseAdd());
    static const char* kOps[] = {"=", "<>", "!=", "<=", ">=", "<", ">"};
    for (const char* op : kOps) {
      if (ConsumeSymbol(op)) {
        CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> rhs, ParseAdd());
        auto node = std::make_unique<AstExpr>();
        node->kind = AstExpr::Kind::kBinary;
        node->op = op;
        node->lhs = std::move(lhs);
        node->rhs = std::move(rhs);
        return node;
      }
    }
    return lhs;
  }

  Result<std::unique_ptr<AstExpr>> ParseAdd() {
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> lhs, ParseMul());
    while (true) {
      std::string op;
      if (ConsumeSymbol("+")) op = "+";
      else if (ConsumeSymbol("-")) op = "-";
      else break;
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> rhs, ParseMul());
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExpr::Kind::kBinary;
      node->op = op;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<AstExpr>> ParseMul() {
    CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> lhs, ParsePrimary());
    while (true) {
      std::string op;
      if (ConsumeSymbol("*")) op = "*";
      else if (ConsumeSymbol("/")) op = "/";
      else break;
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> rhs, ParsePrimary());
      auto node = std::make_unique<AstExpr>();
      node->kind = AstExpr::Kind::kBinary;
      node->op = op;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<AstExpr>> ParsePrimary() {
    const Token& t = Peek();
    auto node = std::make_unique<AstExpr>();
    if (t.kind == TokenKind::kNumber) {
      std::string text = t.text;
      Advance();
      if (text.find_first_of(".eE") == std::string::npos) {
        node->kind = AstExpr::Kind::kIntLiteral;
        CLOUDJOIN_ASSIGN_OR_RETURN(node->int_value, ParseInt64(text));
      } else {
        node->kind = AstExpr::Kind::kDoubleLiteral;
        CLOUDJOIN_ASSIGN_OR_RETURN(node->double_value, ParseDouble(text));
      }
      return node;
    }
    if (t.kind == TokenKind::kString) {
      node->kind = AstExpr::Kind::kStringLiteral;
      node->string_value = t.text;
      Advance();
      return node;
    }
    if (ConsumeSymbol("(")) {
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> inner, ParseExpr());
      CLOUDJOIN_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    if (ConsumeSymbol("-")) {
      // Unary minus: fold into literal or build 0 - expr.
      CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> inner,
                                 ParsePrimary());
      if (inner->kind == AstExpr::Kind::kIntLiteral) {
        inner->int_value = -inner->int_value;
        return inner;
      }
      if (inner->kind == AstExpr::Kind::kDoubleLiteral) {
        inner->double_value = -inner->double_value;
        return inner;
      }
      auto zero = std::make_unique<AstExpr>();
      zero->kind = AstExpr::Kind::kIntLiteral;
      zero->int_value = 0;
      node->kind = AstExpr::Kind::kBinary;
      node->op = std::string("-");
      node->lhs = std::move(zero);
      node->rhs = std::move(inner);
      return node;
    }
    if (t.kind == TokenKind::kIdentifier) {
      std::string first_raw = t.raw;
      std::string first_upper = t.text;
      Advance();
      if (ConsumeSymbol("(")) {
        // Function call.
        node->kind = AstExpr::Kind::kFunctionCall;
        node->func_name = first_upper;
        if (!ConsumeSymbol(")")) {
          if (ConsumeKeyword("DISTINCT")) node->distinct = true;
          do {
            if (ConsumeSymbol("*")) {
              auto star = std::make_unique<AstExpr>();
              star->kind = AstExpr::Kind::kStar;
              node->args.push_back(std::move(star));
            } else {
              CLOUDJOIN_ASSIGN_OR_RETURN(std::unique_ptr<AstExpr> arg,
                                         ParseExpr());
              node->args.push_back(std::move(arg));
            }
          } while (ConsumeSymbol(","));
          CLOUDJOIN_RETURN_IF_ERROR(ExpectSymbol(")"));
        }
        return node;
      }
      node->kind = AstExpr::Kind::kColumnRef;
      if (ConsumeSymbol(".")) {
        node->table = first_raw;
        CLOUDJOIN_ASSIGN_OR_RETURN(node->column, ExpectIdentifier());
      } else {
        node->column = first_raw;
      }
      return node;
    }
    return Status::ParseError("unexpected token '" + t.raw + "'");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<SelectStatement>> ParseSelect(const std::string& sql) {
  CLOUDJOIN_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace cloudjoin::impala
