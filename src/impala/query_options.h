#ifndef CLOUDJOIN_IMPALA_QUERY_OPTIONS_H_
#define CLOUDJOIN_IMPALA_QUERY_OPTIONS_H_

#include "dfs/columnar_block.h"
#include "index/probe_options.h"
#include "plan/planner.h"

namespace cloudjoin::impala {

class BroadcastProvider;

/// Per-query execution knobs. The plan builder folds every knob that
/// shapes execution into the plan nodes themselves (so a serialized plan
/// replays under exactly the options it was planned with); only
/// `broadcast_provider` stays runtime-side — it names a process-local
/// resource, not a plan property.
struct QueryOptions {
  /// When true, the spatial join caches parsed right-side geometries and
  /// reuses the parsed left geometry for refinement instead of re-parsing
  /// WKT in the UDF — the optimization the paper defers to future work
  /// ("implement these functions as LLVM IR ... data parallel designs").
  /// Off by default = faithful ISP-MC behaviour.
  bool cache_parsed_geometries = false;
  /// When true, the broadcast build additionally prepares a point-in-
  /// polygon grid per sufficiently complex right polygon; kWithin point
  /// probes then refine in O(1) outside boundary cells (exact fallback
  /// inside them). Results are identical either way. Off by default.
  bool prepare_geometries = false;
  /// Optional (not owned; may be shared across queries): when set, the
  /// broadcast right side is resolved through this provider instead of
  /// being rebuilt inline. On a provider hit the query reports
  /// `right_build_seconds = 0`, `broadcast_bytes = 0` (the index is
  /// already resident), and a `join.index_cache_hit` counter.
  BroadcastProvider* broadcast_provider = nullptr;
  /// Columnar filter tuning for the spatial join's probe phase (batch
  /// size, sFilter). Results are byte-identical for every combination;
  /// execution rejects options that fail Validate().
  index::ProbeOptions probe;
  /// Columnar-format left-scan tuning (envelope zone-map pruning —
  /// defaults on). Ignored for text-format tables; results are
  /// byte-identical either way.
  dfs::ScanOptions scan;
  /// Spatial-join strategy. kAuto lets the cost planner choose from the
  /// catalog stats (tables registered without stats run broadcast, the
  /// historical behaviour); kBroadcast / kPartitioned force the plan.
  /// Result rows are identical under every strategy up to row order (no
  /// ORDER BY = no ordering contract, exactly as in Impala).
  plan::JoinStrategy join_strategy = plan::JoinStrategy::kAuto;
  /// Base tile count for the partitioned strategy (0 = planner default).
  int partitioned_tiles = 0;
  /// Hot-tile detection and recursive splitting for the partitioned
  /// strategy (LocationSpark's skew repartitioner). Results identical.
  bool adaptive_partitioning = true;
};

}  // namespace cloudjoin::impala

#endif  // CLOUDJOIN_IMPALA_QUERY_OPTIONS_H_
