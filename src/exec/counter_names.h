#ifndef CLOUDJOIN_EXEC_COUNTER_NAMES_H_
#define CLOUDJOIN_EXEC_COUNTER_NAMES_H_

#include <cstddef>
#include <iterator>

namespace cloudjoin::exec::counter {

/// The shared join counter taxonomy, emitted by the exec core so every
/// engine reports the same names (see DESIGN.md "Counter taxonomy").
///
/// Input accounting — a row is *malformed* when it cannot be decomposed
/// into (id, geometry) fields at all (too few columns, unparseable id,
/// NULL geometry slot); it is *bad_geom* when the fields were present but
/// the geometry text failed to parse.
inline constexpr char kRightMalformed[] = "join.right_malformed";
inline constexpr char kRightBadGeom[] = "join.right_bad_geom";
inline constexpr char kLeftMalformed[] = "join.left_malformed";
inline constexpr char kLeftBadGeom[] = "join.left_bad_geom";

/// Build accounting: rows retained on the indexed (right) side, and how
/// many of them carry a prepared grid.
inline constexpr char kRightRows[] = "join.right_rows";
inline constexpr char kPreparedRecords[] = "join.prepared_records";
/// Microseconds SpatialSpark spent preparing grids (a timer kept as an
/// integer counter).
inline constexpr char kPrepareMicros[] = "join.prepare_micros";

/// Probe accounting: filter candidates, refinement matches, prepared-grid
/// usage, and the columnar filter phase.
inline constexpr char kCandidates[] = "join.candidates";
inline constexpr char kMatches[] = "join.matches";
inline constexpr char kPreparedHits[] = "join.prepared_hits";
inline constexpr char kBoundaryFallbacks[] = "join.boundary_fallbacks";
inline constexpr char kFilterBatches[] = "join.filter_batches";
inline constexpr char kFilterCandidates[] = "join.filter_candidates";
inline constexpr char kFilterSimdLanes[] = "join.filter_simd_lanes_used";

/// A WKT string that parsed during the build/probe scan but failed to
/// re-parse inside GEOS-role refinement. Previously a silent drop.
inline constexpr char kRefineParseError[] = "join.refine_parse_error";

/// Impala's join nodes: candidate pairs the spatial join refined, and
/// pairs the cross join evaluated.
inline constexpr char kRefinements[] = "join.refinements";
inline constexpr char kPairs[] = "join.pairs";

/// Serving layer: a retained right-side build was reused.
inline constexpr char kIndexCacheHit[] = "join.index_cache_hit";

/// Skew-aware execution: probes dropped by the sFilter membership bitmap
/// before any tree descent (provably zero candidates), and hot tiles the
/// adaptive partitioner quad-split to break up a skewed schedule.
inline constexpr char kSfilterSkipped[] = "join.sfilter_skipped";
inline constexpr char kHotTilesSplit[] = "join.hot_tiles_split";

/// Adaptive planning (src/plan): which join strategy this query resolved
/// to — exactly one of the two is emitted (value 1) per planned spatial
/// join, whether chosen by the cost planner or forced by QueryOptions.
inline constexpr char kPlanStrategyBroadcast[] = "plan.strategy_broadcast";
inline constexpr char kPlanStrategyPartitioned[] = "plan.strategy_partitioned";

/// Impala's text scan: lines read, and lines that did not split into the
/// table's typed columns.
inline constexpr char kScanLines[] = "scan.lines";
inline constexpr char kScanMalformed[] = "scan.malformed";

/// Columnar scan accounting (text scans have no block structure and do
/// not emit these): blocks whose zone-map was tested, blocks skipped
/// entirely by the zone-map, rows whose envelopes entered the filter
/// phase, and rows whose WKT payload was read out of a columnar block.
/// The standalone probe reads the payload only for a row with a filter
/// candidate; Impala's scan node reads it for every row whose WKT slot
/// the query needs.
inline constexpr char kScanBlocksTotal[] = "scan.blocks_total";
inline constexpr char kScanBlocksPruned[] = "scan.blocks_pruned";
inline constexpr char kScanRowsScanned[] = "scan.rows_scanned";
inline constexpr char kScanRowsMaterialized[] = "scan.rows_materialized";

}  // namespace cloudjoin::exec::counter

namespace cloudjoin::exec {

/// The slots of the one probe and scan stats record, exec::ProbeStats:
/// every count an exec node, scanner or refiner takes per row, candidate
/// or batch. kStatNames gives each slot its counter name.
enum class Stat {
  kCandidates,
  kMatches,
  kPreparedHits,
  kBoundaryFallbacks,
  kRefineParseError,
  kFilterBatches,
  kFilterCandidates,
  kFilterSimdLanes,
  kSfilterSkipped,
  kLeftMalformed,
  kLeftBadGeom,
  kRefinements,
  kPairs,
  kScanLines,
  kScanMalformed,
  kScanBlocksTotal,
  kScanBlocksPruned,
  kScanRowsScanned,
  kScanRowsMaterialized,
};

/// Counter name of each Stat, in enum order.
inline constexpr const char* kStatNames[] = {
    counter::kCandidates,        counter::kMatches,
    counter::kPreparedHits,      counter::kBoundaryFallbacks,
    counter::kRefineParseError,  counter::kFilterBatches,
    counter::kFilterCandidates,  counter::kFilterSimdLanes,
    counter::kSfilterSkipped,    counter::kLeftMalformed,
    counter::kLeftBadGeom,       counter::kRefinements,
    counter::kPairs,             counter::kScanLines,
    counter::kScanMalformed,     counter::kScanBlocksTotal,
    counter::kScanBlocksPruned,  counter::kScanRowsScanned,
    counter::kScanRowsMaterialized,
};
inline constexpr size_t kNumStats = std::size(kStatNames);
static_assert(static_cast<size_t>(Stat::kScanRowsMaterialized) + 1 ==
              kNumStats);

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_COUNTER_NAMES_H_
