#ifndef CLOUDJOIN_IMPALA_EXEC_NODE_H_
#define CLOUDJOIN_IMPALA_EXEC_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/result.h"
#include "dfs/columnar_block.h"
#include "dfs/sim_file_system.h"
#include "exec/built_right.h"
#include "exec/probe_stats.h"
#include "exec/tiled_right.h"
#include "geosim/geometry.h"
#include "impala/analyzer.h"
#include "impala/catalog.h"
#include "impala/plan.h"
#include "impala/types.h"
#include "index/probe_options.h"

namespace cloudjoin::impala {

/// Pull-based exec operator, as in the Impala backend: Open once, then
/// GetNext fills row batches until `*eos`.
class ExecNode {
 public:
  virtual ~ExecNode() = default;

  virtual Status Open() = 0;
  /// Fills `batch` (cleared first) with up to RowBatch::kCapacity rows.
  virtual Status GetNext(RowBatch* batch, bool* eos) = 0;
  virtual void Close() {}
};

/// Scans one scan range (block-aligned byte range) of a table, producing
/// typed rows; pushed-down conjuncts filter inline. Text tables are read
/// line-by-line with malformed lines counted and dropped (matching the
/// parse-failure filtering in the paper's SpatialSpark listing).
/// Columnar tables are read block-by-block: the range owns every
/// columnar block whose header offset falls inside it, and when
/// `scan_region` is set a block whose envelope zone-map misses the
/// region is skipped whole (gated by `scan_options.zone_map`). Line,
/// block and row counts go into a local ProbeStats, flushed into
/// `counters` once, when the scan reaches eos (Close() is not required:
/// the broadcast build drives a scan without it).
class HdfsScanNode final : public ExecNode {
 public:
  /// `table`, `file`, `filters`, `needed_slots`, `counters`, and
  /// `scan_region` must outlive the node. `needed_slots` (nullable = all)
  /// marks the columns the query references; unreferenced columns are not
  /// materialized (Impala's projection pushdown). `scan_region`
  /// (nullable = no pruning) bounds everything downstream can match —
  /// only safe to set when dropped rows cannot affect the result (inner
  /// spatial join against an index covering `scan_region`).
  HdfsScanNode(const TableDef* table, const dfs::SimFile* file,
               int64_t offset, int64_t length,
               const std::vector<std::unique_ptr<Expr>>* filters,
               const std::vector<bool>* needed_slots, Counters* counters,
               const geom::Envelope* scan_region = nullptr,
               const dfs::ScanOptions& scan_options = dfs::ScanOptions());

  Status Open() override;
  Status GetNext(RowBatch* batch, bool* eos) override;

 private:
  /// Parses one text line into `row`; false on malformed input.
  bool ParseLine(std::string_view line, Row* row) const;

  /// GetNext over a columnar-format table.
  Status ColumnarGetNext(RowBatch* batch, bool* eos);

  const TableDef* table_;
  const dfs::SimFile* file_;
  int64_t offset_;
  int64_t length_;
  const std::vector<std::unique_ptr<Expr>>* filters_;
  const std::vector<bool>* needed_slots_;
  Counters* counters_;
  const geom::Envelope* scan_region_;
  dfs::ScanOptions scan_options_;
  cloudjoin::exec::ProbeStats stats_;
  std::unique_ptr<dfs::LineRecordReader> reader_;
  // Columnar-scan state: the open reader, the decoded current block, and
  // the cursor (next block to consider / next row in the current block).
  std::unique_ptr<dfs::ColumnarTableReader> col_reader_;
  dfs::ColumnarBlock col_block_;
  int64_t col_next_block_ = 0;
  int64_t col_row_ = 0;
  bool col_block_loaded_ = false;
};

/// The broadcast right side of a join, shared (read-only, possibly from
/// several threads at once) by all fragment instances: the execution
/// core's BuiltRight (WKT + STR-tree + optional prepared grids) plus the
/// Impala-specific retentions — the materialized rows the join output
/// projects from, and the parsed-geometry ablation cache.
///
/// This models ISP-MC's behaviour: each Impala instance receives all right
/// row batches and builds an in-memory R-tree before probing starts.
struct BroadcastRight : cloudjoin::exec::BuiltRight {
  std::vector<Row> rows;
  /// Parsed geometries, filled only when geometry caching is enabled (the
  /// reuse-parsed-geometries ablation; off = the paper's faithful re-parse
  /// behaviour).
  std::vector<std::unique_ptr<geosim::Geometry>> parsed;
  /// Estimated serialized size (what the network broadcast ships).
  int64_t bytes = 0;

  /// Approximate resident size of the whole structure (rows + WKT + tree +
  /// cached parses + prepared grids) — what the serving tier's index cache
  /// charges against its memory budget. Contrast with `bytes`, the
  /// serialized payload the network broadcast ships.
  int64_t MemoryBytes() const;
};

/// Builds the broadcast structure by scanning the whole right table.
/// `cache_parsed` enables the geometry-reuse ablation; `prepare_geometries`
/// additionally builds a `geom::PreparedPolygon` per sufficiently complex
/// right polygon so kWithin point probes refine in O(1).
Result<std::unique_ptr<BroadcastRight>> BuildBroadcastRight(
    const TableDef* table, const dfs::SimFile* file,
    const std::vector<std::unique_ptr<Expr>>* filters,
    const std::vector<bool>* needed_slots, int geom_slot, double radius,
    bool cache_parsed, bool prepare_geometries, Counters* counters);

/// The paper's SpatialJoin exec node: streams left batches, probes the
/// broadcast R-tree (spatial filtering), refines candidate pairs with the
/// registered ST_* UDF, applies post-join conjuncts, and emits the
/// evaluated output expressions.
///
/// Under the partitioned strategy (`tiles` non-null) the right side is
/// sharded into spatial tiles (exec::TiledRight) and each left batch is
/// probed tile-major through exec::RunTiledProbes: every probe visits only
/// the tiles its envelope touches, and a replicated candidate is refined
/// only in the one tile that owns it, so the match *set* and the probe
/// counts equal the broadcast probe's (row order differs: tile-major vs
/// row-major — no ORDER BY = no ordering contract). Per-tile compute is
/// metered into `tile_seconds` (one slot per tile, one vector per
/// fragment instance, summed by the coordinator); the runtime reports
/// those as separate join tasks and deducts them from the enclosing scan
/// range's timing, which is what lets a simulated cluster schedule hot
/// tiles independently of the scan ranges that produced them. Probe counts accumulate in one ProbeStats
/// across all left batches, flushed into `counters` once at eos.
class SpatialJoinNode final : public ExecNode {
 public:
  SpatialJoinNode(std::unique_ptr<ExecNode> left_child,
                  const BroadcastRight* right,
                  const cloudjoin::exec::TiledRight* tiles,
                  const SpatialJoinSpec* spec,
                  const std::vector<std::unique_ptr<Expr>>* post_filters,
                  const std::vector<const Expr*>* output_exprs,
                  bool cache_parsed, Counters* counters,
                  const index::ProbeOptions& probe,
                  std::vector<double>* tile_seconds);

  Status Open() override;
  Status GetNext(RowBatch* batch, bool* eos) override;
  void Close() override;

 private:
  /// Probes one whole left row batch through the shared probe driver,
  /// appending join output rows to pending_.
  void ProcessLeftBatch(const RowBatch& left_rows);

  std::unique_ptr<ExecNode> left_child_;
  const BroadcastRight* right_;
  const cloudjoin::exec::TiledRight* tiles_;  // null: broadcast probe
  const SpatialJoinSpec* spec_;
  const std::vector<std::unique_ptr<Expr>>* post_filters_;
  const std::vector<const Expr*>* output_exprs_;
  bool cache_parsed_;
  Counters* counters_;
  cloudjoin::exec::ProbeStats stats_;
  index::ProbeOptions probe_;
  std::vector<double>* tile_seconds_;
  RowBatch left_batch_;
  bool left_eos_ = false;
  // Carry-over rows when a probe batch overflows the output batch.
  std::vector<Row> pending_;
  size_t pending_idx_ = 0;
  // Per-batch probe scratch, reused across batches: the rows that parsed
  // to a geometry, their WKT, and the parsed geometries themselves.
  std::vector<const Row*> probe_rows_;
  std::vector<const std::string*> probe_wkt_;
  std::vector<std::unique_ptr<geosim::Geometry>> probe_geoms_;
};

/// Nested-loop cross join against the broadcast right side (the naive
/// baseline of the paper's §II); post filters make it an inner join. The
/// pairs it evaluates are counted locally and flushed once at eos.
class CrossJoinNode final : public ExecNode {
 public:
  CrossJoinNode(std::unique_ptr<ExecNode> left_child,
                const BroadcastRight* right,
                const std::vector<std::unique_ptr<Expr>>* post_filters,
                const std::vector<const Expr*>* output_exprs,
                Counters* counters);

  Status Open() override;
  Status GetNext(RowBatch* batch, bool* eos) override;
  void Close() override;

 private:
  std::unique_ptr<ExecNode> left_child_;
  const BroadcastRight* right_;
  const std::vector<std::unique_ptr<Expr>>* post_filters_;
  const std::vector<const Expr*>* output_exprs_;
  Counters* counters_;
  cloudjoin::exec::ProbeStats stats_;
  RowBatch left_batch_;
  int left_idx_ = 0;
  bool left_eos_ = false;
  std::vector<Row> pending_;
  size_t pending_idx_ = 0;
};

/// Evaluates output expressions over single-table rows.
class ProjectNode final : public ExecNode {
 public:
  ProjectNode(std::unique_ptr<ExecNode> child,
              const std::vector<const Expr*>* output_exprs);

  Status Open() override;
  Status GetNext(RowBatch* batch, bool* eos) override;
  void Close() override;

 private:
  std::unique_ptr<ExecNode> child_;
  const std::vector<const Expr*>* output_exprs_;
  RowBatch child_batch_;
};

// ---------------------------------------------------------------------------
// Plan-driven factories. Every exec operator is instantiated from its plan
// node through these — no other translation unit constructs one directly
// (enforced by tools/check_no_dup_scan.sh), which keeps the plan tree the
// single execution contract from parser to backend.
// ---------------------------------------------------------------------------

/// Instantiates the scan operator for plan node `scan` (kind kHdfsScan)
/// over one scan range. `table` is the catalog resolution of
/// `scan.table_name` (validated by the caller); `scan_region` is the
/// optional zone-map pruning envelope. All pointers must outlive the node.
std::unique_ptr<ExecNode> MakeScanExecNode(const PlanNode& scan,
                                           const TableDef* table,
                                           const dfs::SimFile* file,
                                           int64_t offset, int64_t length,
                                           Counters* counters,
                                           const geom::Envelope* scan_region);

/// Builds the broadcast right side described by a join plan node (`join`,
/// kind kSpatialJoin or kCrossJoin) and its right scan child
/// (`right_scan`, the exchange's input).
Result<std::unique_ptr<BroadcastRight>> BuildBroadcastRightForPlan(
    const PlanNode& join, const PlanNode& right_scan, const TableDef* table,
    const dfs::SimFile* file, Counters* counters);

/// Instantiates the join operator for plan node `join`: the spatial join
/// for kSpatialJoin (probing tile-major when `tiled` is non-null), the
/// nested-loop cross join for kCrossJoin. `output_exprs` views
/// `join.outputs`; `tile_seconds` (partitioned only) receives per-tile
/// compute.
std::unique_ptr<ExecNode> MakeJoinExecNode(
    const PlanNode& join, std::unique_ptr<ExecNode> left_child,
    const BroadcastRight* right, const cloudjoin::exec::TiledRight* tiled,
    const std::vector<const Expr*>* output_exprs, Counters* counters,
    std::vector<double>* tile_seconds);

/// Instantiates the projection operator (plan kind kProject).
std::unique_ptr<ExecNode> MakeProjectExecNode(
    std::unique_ptr<ExecNode> child,
    const std::vector<const Expr*>* output_exprs);

}  // namespace cloudjoin::impala

#endif  // CLOUDJOIN_IMPALA_EXEC_NODE_H_
