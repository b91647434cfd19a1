#include "join/partitioned_spatial_join.h"

#include <algorithm>
#include <memory>

#include "exec/probe_driver.h"
#include "exec/tiled_right.h"

namespace cloudjoin::join {

std::vector<IdPair> PartitionedSpatialJoin(const std::vector<IdGeometry>& left,
                                           const std::vector<IdGeometry>& right,
                                           const SpatialPredicate& predicate,
                                           int num_tiles, Counters* counters) {
  // One right-side build, re-sharded into static tiles.
  const BroadcastIndex index(right, predicate.FilterRadius());
  const exec::BuiltRight& built = index.core();
  exec::TiledRightOptions tiling;
  tiling.num_tiles = num_tiles;
  tiling.adaptive = false;
  const std::unique_ptr<exec::TiledRight> tiled =
      exec::BuildTiledRight(built, tiling, counters);
  std::vector<IdPair> out;
  // No tiling: every right geometry is empty, and nothing can match.
  if (tiled == nullptr) return out;

  const exec::JtsRefiner refiner(&built.records, &built.prepared);
  ProbeStats stats;
  exec::RunTiledProbes(
      static_cast<int64_t>(left.size()), *tiled, built.sfilter.get(),
      ProbeOptions(),
      [&](int64_t i) -> const geom::Envelope& {
        return left[static_cast<size_t>(i)].geometry.envelope();
      },
      [&](int64_t i, int64_t row) {
        return refiner.Refine(left[static_cast<size_t>(i)].geometry,
                              static_cast<size_t>(row), predicate,
                              &stats);
      },
      [&](int64_t i, int64_t row) {
        out.emplace_back(left[static_cast<size_t>(i)].id,
                         built.records[static_cast<size_t>(row)].id);
      },
      &stats);
  stats.FlushTo(counters);
  // Canonical (sorted) output order; the owner-tile test already made
  // every pair unique.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cloudjoin::join
