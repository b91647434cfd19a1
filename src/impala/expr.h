#ifndef CLOUDJOIN_IMPALA_EXPR_H_
#define CLOUDJOIN_IMPALA_EXPR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "impala/types.h"

namespace cloudjoin::impala {

/// Analyzed, executable expression. Evaluation receives the current left
/// and right tuples (right is null outside joins).
class Expr {
 public:
  virtual ~Expr() = default;

  virtual Value Evaluate(const Row* left, const Row* right) const = 0;
  virtual ColumnType type() const = 0;

  /// Appends every (side, slot) this expression reads — the planner's
  /// input for scan projection pushdown.
  virtual void CollectSlots(std::vector<std::pair<int, int>>* out) const {
    (void)out;
  }

  /// Canonical rendering: equal strings <=> equal expression trees (slots
  /// render positionally, so the text is stable across alias names). The
  /// serving layer fingerprints pushed-down filters with this to key its
  /// broadcast-index cache.
  virtual std::string ToString() const = 0;

  /// Evaluates to a non-null true boolean?
  bool EvaluatesTrue(const Row* left, const Row* right) const {
    Value v = Evaluate(left, right);
    const bool* b = std::get_if<bool>(&v);
    return b != nullptr && *b;
  }
};

/// Constant.
class LiteralExpr final : public Expr {
 public:
  LiteralExpr(Value value, ColumnType type)
      : value_(std::move(value)), type_(type) {}

  Value Evaluate(const Row*, const Row*) const override { return value_; }
  ColumnType type() const override { return type_; }

  const Value& value() const { return value_; }

  std::string ToString() const override {
    // Strings are quoted so e.g. the literal 3 and the literal '3' render
    // differently.
    if (const auto* s = std::get_if<std::string>(&value_)) {
      return "'" + *s + "'";
    }
    return ValueToString(value_);
  }

 private:
  Value value_;
  ColumnType type_;
};

/// Reference to a slot of the left (side 0) or right (side 1) input tuple.
class SlotRef final : public Expr {
 public:
  SlotRef(int side, int slot, ColumnType type)
      : side_(side), slot_(slot), type_(type) {}

  Value Evaluate(const Row* left, const Row* right) const override {
    const Row* row = side_ == 0 ? left : right;
    if (row == nullptr || slot_ >= static_cast<int>(row->size())) {
      return Value{};
    }
    return (*row)[static_cast<size_t>(slot_)];
  }
  ColumnType type() const override { return type_; }

  int side() const { return side_; }
  int slot() const { return slot_; }

  void CollectSlots(std::vector<std::pair<int, int>>* out) const override {
    out->emplace_back(side_, slot_);
  }

  std::string ToString() const override {
    return (side_ == 0 ? "l[" : "r[") + std::to_string(slot_) + "]";
  }

 private:
  int side_;
  int slot_;
  ColumnType type_;
};

/// AND/OR, comparisons, and arithmetic with int->double promotion.
class BinaryExpr final : public Expr {
 public:
  BinaryExpr(std::string op, std::unique_ptr<Expr> lhs,
             std::unique_ptr<Expr> rhs);

  Value Evaluate(const Row* left, const Row* right) const override;
  ColumnType type() const override { return type_; }

  const std::string& op() const { return op_; }
  const Expr* lhs() const { return lhs_.get(); }
  const Expr* rhs() const { return rhs_.get(); }

  void CollectSlots(std::vector<std::pair<int, int>>* out) const override {
    lhs_->CollectSlots(out);
    rhs_->CollectSlots(out);
  }

  std::string ToString() const override {
    std::string out = "(";
    out.append(lhs_->ToString()).append(" ").append(op_).append(" ");
    out.append(rhs_->ToString()).append(")");
    return out;
  }

 private:
  std::string op_;
  std::unique_ptr<Expr> lhs_;
  std::unique_ptr<Expr> rhs_;
  ColumnType type_;
};

/// A registered scalar function (the ISP-MC UDF mechanism; spatial
/// predicates like ST_WITHIN are registered here as thin wrappers over the
/// geosim/GEOS library, as in the paper).
struct ScalarUdf {
  std::string name;            // uppercase
  int arity = 0;               // -1 = variadic
  ColumnType return_type = ColumnType::kBool;
  std::function<Value(const std::vector<Value>&)> fn;
};

/// Process-wide UDF registry.
class UdfRegistry {
 public:
  static UdfRegistry& Global();

  void Register(ScalarUdf udf);

  /// Finds `name` (uppercase) accepting `argc` arguments.
  Result<const ScalarUdf*> Lookup(const std::string& name, int argc) const;

  std::vector<std::string> ListNames() const;

 private:
  std::map<std::string, ScalarUdf> udfs_;
};

/// Call of a registered UDF.
class FunctionCallExpr final : public Expr {
 public:
  FunctionCallExpr(const ScalarUdf* udf,
                   std::vector<std::unique_ptr<Expr>> args)
      : udf_(udf), args_(std::move(args)) {}

  Value Evaluate(const Row* left, const Row* right) const override {
    std::vector<Value> values;
    values.reserve(args_.size());
    for (const auto& arg : args_) {
      values.push_back(arg->Evaluate(left, right));
    }
    return udf_->fn(values);
  }
  ColumnType type() const override { return udf_->return_type; }

  const ScalarUdf* udf() const { return udf_; }
  const std::vector<std::unique_ptr<Expr>>& args() const { return args_; }

  void CollectSlots(std::vector<std::pair<int, int>>* out) const override {
    for (const auto& arg : args_) arg->CollectSlots(out);
  }

  std::string ToString() const override {
    std::string out = udf_->name + "(";
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) out += ", ";
      out += args_[i]->ToString();
    }
    return out + ")";
  }

 private:
  const ScalarUdf* udf_;
  std::vector<std::unique_ptr<Expr>> args_;
};

/// Registers the ST_* spatial UDFs (idempotent). Called by the runtime at
/// construction; standalone tests may call it directly.
void RegisterSpatialUdfs();

}  // namespace cloudjoin::impala

#endif  // CLOUDJOIN_IMPALA_EXPR_H_
