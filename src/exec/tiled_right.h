#ifndef CLOUDJOIN_EXEC_TILED_RIGHT_H_
#define CLOUDJOIN_EXEC_TILED_RIGHT_H_

#include <memory>
#include <vector>

#include "common/counters.h"
#include "exec/built_right.h"
#include "geom/point.h"
#include "index/packed_str_tree.h"
#include "index/spatial_partitioner.h"

namespace cloudjoin::exec {

struct TiledRightOptions {
  /// Target tiles for the base BSP partitioning.
  int num_tiles = 64;
  /// Enable hot-tile detection and recursive quad-splitting.
  bool adaptive = true;
  /// A tile is hot when its estimated probe x build cost exceeds this
  /// multiple of the mean tile cost.
  double skew_factor = 2.0;
  /// Splitting may grow the tiling to num_tiles * max_tiles_factor tiles.
  int max_tiles_factor = 4;
  /// Probe-side center sample steering hot-tile splits (the left table's
  /// catalog sample). May be null/empty: splitting then steers by the
  /// build sample alone.
  const std::vector<geom::Point>* probe_sample = nullptr;
};

/// The right side of a partitioned spatial join: the broadcast-built
/// record store re-sharded into spatial tiles, each tile carrying its own
/// packed tree over the records whose expanded envelopes intersect it.
/// Records spanning several tiles are replicated into each;
/// RunTiledProbes (exec/probe_driver.h) withdraws replicated candidates
/// with the partitioner's reference-point test before refinement, so
/// results and counts match the broadcast path pair-for-pair.
///
/// Per-tile trees index *slots* (positions in `slot_entries`), each
/// remembering the underlying record row and its expanded envelope — the
/// same (envelope, row) payload the broadcast tree holds, just sharded.
class TiledRight {
 public:
  struct Slot {
    geom::Envelope envelope;  // radius-expanded, as in the broadcast tree
    int64_t row = 0;          // index into the BuiltRight record store
  };

  int num_tiles() const { return static_cast<int>(tiles_.size()); }
  const index::SpatialPartitioner& partitioner() const {
    return *partitioner_;
  }
  const index::PackedStrTree& packed(int tile) const {
    return *tiles_[static_cast<size_t>(tile)].packed;
  }
  const std::vector<Slot>& slots(int tile) const {
    return tiles_[static_cast<size_t>(tile)].slots;
  }
  /// Number of hot-tile split operations applied (0 when not adaptive).
  int hot_tiles_split() const { return hot_tiles_split_; }

 private:
  friend std::unique_ptr<TiledRight> BuildTiledRight(
      const BuiltRight& right, const TiledRightOptions& options,
      Counters* counters);

  struct Tile {
    std::vector<Slot> slots;
    std::unique_ptr<index::PackedStrTree> packed;
  };

  std::unique_ptr<index::SpatialPartitioner> partitioner_;
  std::vector<Tile> tiles_;
  int hot_tiles_split_ = 0;
};

/// Shards `right` (an already-built broadcast side) into a TiledRight.
/// The tiling extent is the broadcast tree's bounds; tile boundaries come
/// from BSP over the entry centers, then — when `options.adaptive` — hot
/// tiles are recursively quad-split, steered by `options.probe_sample`.
/// Emits counter::kHotTilesSplit when any split fires. Returns nullptr
/// when the tree bounds are empty — no entries, or only EMPTY geometries —
/// since nothing can match (the Impala runtime then runs the broadcast
/// probe, which already handles empty builds).
std::unique_ptr<TiledRight> BuildTiledRight(const BuiltRight& right,
                                            const TiledRightOptions& options,
                                            Counters* counters);

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_TILED_RIGHT_H_
