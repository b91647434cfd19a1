#ifndef CLOUDJOIN_INDEX_SPATIAL_PARTITIONER_H_
#define CLOUDJOIN_INDEX_SPATIAL_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "geom/envelope.h"
#include "geom/point.h"

namespace cloudjoin::index {

/// Computes balanced spatial tiles from a sample of item centers.
///
/// Used by the partitioned spatial join (the SpatialHadoop-style
/// alternative to broadcast joins that the paper discusses in related work
/// and we provide as the partitioned-join extension): both join sides are
/// bucketed by tile, and only same-tile buckets are joined.
///
/// The algorithm is binary space partitioning on the sample: recursively
/// split the tile with the most samples at its median along its longer
/// axis, until `target_tiles` tiles exist.
class SpatialPartitioner {
 public:
  /// Builds tiles covering `extent` from `sample` centers.
  SpatialPartitioner(const geom::Envelope& extent,
                     std::vector<geom::Point> sample, int target_tiles);

  /// The tile boxes. Tiles exactly cover the extent without overlap.
  const std::vector<geom::Envelope>& tiles() const { return tiles_; }

  /// Index of the tile containing `p` (ties broken toward lower index);
  /// -1 if `p` is outside the extent.
  int TileOf(const geom::Point& p) const;

  /// All tiles intersecting `envelope` (an item spanning several tiles is
  /// replicated into each; the join suppresses replicated pairs via
  /// `OwnerTileOf`).
  std::vector<int> TilesFor(const geom::Envelope& envelope) const;

  /// Hot-tile detection and recursive splitting (LocationSpark's skew
  /// mitigation): estimates each tile's join cost as its probe-sample
  /// count times max(1, the summed fractions of it that the intersecting
  /// build envelopes cover), and while any tile's cost exceeds
  /// `skew_factor x` the mean tile cost (and fewer than `max_tiles` tiles
  /// exist), quad-splits the costliest such tile. Children re-enter the
  /// pool, so a pathological hotspot is split recursively until no single
  /// tile dominates a static schedule. Tiles still exactly cover the
  /// extent, so TileOf / OwnerTileOf semantics (and the reference-point
  /// dedup built on them) are unchanged.
  ///
  /// A tile's build weight counts every envelope INTERSECTING it (i.e.
  /// the replicas the join will actually place there), so a large
  /// geometry spanning many tiles pressures all of them; a build point is
  /// a degenerate envelope. Splits are steered by the probe medians
  /// (probes are the divisible resource — a spanning build envelope
  /// follows every child anyway), falling back to build envelope centers,
  /// then the spatial midpoint.
  ///
  /// Returns the number of split operations performed (each replaces one
  /// tile with four).
  int SplitHotTiles(const std::vector<geom::Point>& probe_sample,
                    const std::vector<geom::Envelope>& build_envelopes,
                    double skew_factor, int max_tiles);

  /// Reference-point duplicate avoidance for replicated candidate pairs:
  /// the owner is the tile containing the lower-left corner of the
  /// intersection of the two (filter-expanded) envelopes. For intersecting
  /// envelopes inside the extent exactly one tile owns the point (`TileOf`
  /// breaks shared-boundary ties toward the lower index), and that tile
  /// holds replicas of both records because the point lies in both
  /// envelopes — so emitting a pair only from its owner tile reports it
  /// exactly once, with no global dedup pass. Returns -1 when the corner
  /// falls outside the extent (possible only for non-intersecting
  /// envelopes).
  int OwnerTileOf(const geom::Envelope& a, const geom::Envelope& b) const;

 private:
  geom::Envelope extent_;
  std::vector<geom::Envelope> tiles_;
};

}  // namespace cloudjoin::index

#endif  // CLOUDJOIN_INDEX_SPATIAL_PARTITIONER_H_
