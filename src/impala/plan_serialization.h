#ifndef CLOUDJOIN_IMPALA_PLAN_SERIALIZATION_H_
#define CLOUDJOIN_IMPALA_PLAN_SERIALIZATION_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "impala/expr.h"
#include "impala/plan.h"

namespace cloudjoin::impala {

/// Versioned, stable text serialization of a physical plan (the ClickHouse
/// `QueryPlan/Serialization` idiom scaled to this engine). The format is
/// line-based and specified in DESIGN.md §11:
///
///   cloudjoin-plan version=3
///   fragments 3
///   visible 2
///   column 'id'
///   begin spatial_join
///   predicate WITHIN
///   ...
///   begin scan
///   ...
///   end
///   end
///
/// Guarantees:
///   - `DeserializePlan(SerializePlan(p))` reconstructs an equivalent plan
///     whose re-serialization is byte-identical to `SerializePlan(p)`.
///   - Unknown versions, unknown node kinds, unknown attribute keys,
///     malformed values, and trailing garbage are rejected as
///     `StatusCode::kParseError` — a plan from a newer build never
///     half-executes.
///   - Executing a deserialized plan produces byte-identical results to
///     executing the original (enforced by the differential harness and
///     the SQL fuzzer across their seed sweeps).
std::string SerializePlan(const QueryPlan& plan);

/// Parses a serialized plan. UDF references (the spatial refinement
/// function and any scalar calls in filters/projections) are re-resolved
/// from the process-wide `UdfRegistry` by name; a plan naming an
/// unregistered UDF is rejected as `kParseError`.
Result<QueryPlan> DeserializePlan(const std::string& text);

/// Canonical single-line s-expression rendering of an executable
/// expression tree, with explicit slot/literal types and `%.17g` doubles
/// (lossless round-trip):
///
///   (lit i64 5)   (lit str 'it\'s')   (slot 0 2 f64)
///   (bin AND (bin > (slot 0 0 i64) (lit i64 3)) (call ST_WITHIN ...))
///
/// Distinct from `Expr::ToString()` (the cache-fingerprint rendering,
/// which elides types and does not escape quotes): this form is the wire
/// contract and parses back exactly.
std::string SerializeExpr(const Expr& expr);

/// Parses `SerializeExpr` output. Binary-expression result types are
/// recomputed by construction; UDF calls re-resolve against the registry.
Result<std::unique_ptr<Expr>> DeserializeExpr(const std::string& text);

/// Single-quoted, backslash-escaped rendering of a raw string — the
/// quoting every string-valued plan attribute and string literal uses.
std::string PlanQuote(const std::string& raw);

}  // namespace cloudjoin::impala

#endif  // CLOUDJOIN_IMPALA_PLAN_SERIALIZATION_H_
