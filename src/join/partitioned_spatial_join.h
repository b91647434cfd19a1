#ifndef CLOUDJOIN_JOIN_PARTITIONED_SPATIAL_JOIN_H_
#define CLOUDJOIN_JOIN_PARTITIONED_SPATIAL_JOIN_H_

#include <vector>

#include "common/counters.h"
#include "join/broadcast_spatial_join.h"

namespace cloudjoin::join {

/// SpatialHadoop-style partitioned spatial join — the alternative to
/// broadcasting that both prototype papers point to when the right side
/// outgrows worker memory (our extension beyond the paper's broadcast-only
/// prototypes).
///
/// The right side is built once and re-sharded into `num_tiles` static
/// BSP tiles over its entry centers (exec::BuildTiledRight); records
/// spanning several tiles are replicated, and each left record is probed
/// against every tile its envelope touches through exec::RunTiledProbes,
/// which refines a replicated candidate only in the tile owning its
/// reference point (the lower-left corner of the envelope intersection),
/// so no global dedup pass is needed. Pairs come back sorted and equal
/// BroadcastSpatialJoin's; so do the join.candidates / join.matches /
/// join.sfilter_skipped counts.
///
/// `num_tiles` controls parallel granularity (≈ number of reduce tasks in
/// the HadoopGIS analogy).
std::vector<IdPair> PartitionedSpatialJoin(const std::vector<IdGeometry>& left,
                                           const std::vector<IdGeometry>& right,
                                           const SpatialPredicate& predicate,
                                           int num_tiles,
                                           Counters* counters = nullptr);

}  // namespace cloudjoin::join

#endif  // CLOUDJOIN_JOIN_PARTITIONED_SPATIAL_JOIN_H_
