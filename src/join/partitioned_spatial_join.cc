#include "join/partitioned_spatial_join.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/stopwatch.h"
#include "exec/counter_names.h"
#include "index/spatial_partitioner.h"

namespace cloudjoin::join {

std::vector<IdPair> PartitionedSpatialJoin(const std::vector<IdGeometry>& left,
                                           const std::vector<IdGeometry>& right,
                                           const SpatialPredicate& predicate,
                                           int num_tiles, Counters* counters) {
  PartitionedJoinOptions options;
  options.num_tiles = num_tiles;
  return PartitionedSpatialJoin(left, right, predicate, options, counters);
}

std::vector<IdPair> PartitionedSpatialJoin(
    const std::vector<IdGeometry>& left, const std::vector<IdGeometry>& right,
    const SpatialPredicate& predicate, const PartitionedJoinOptions& options,
    Counters* counters) {
  const int num_tiles = options.num_tiles;
  if (left.empty() || right.empty()) return {};

  // Tile layout from the union extent, balanced on right-side centers
  // (the indexed side drives the layout, as in SpatialHadoop).
  geom::Envelope extent;
  for (const IdGeometry& g : left) extent.ExpandToInclude(g.geometry.envelope());
  for (const IdGeometry& g : right) {
    extent.ExpandToInclude(g.geometry.envelope());
  }
  // An empty extent means every geometry on both sides is empty, and empty
  // geometries never satisfy any predicate.
  if (extent.IsEmpty()) return {};
  // Guard against zero-extent inputs (all records at one point).
  if (extent.Width() == 0.0 || extent.Height() == 0.0) {
    extent.ExpandBy(1.0);
  }
  std::vector<geom::Point> sample;
  sample.reserve(right.size());
  for (const IdGeometry& g : right) {
    // Empty geometries (e.g. POLYGON EMPTY) have an empty envelope whose
    // center is NaN; they carry no spatial information for the layout.
    if (!g.geometry.envelope().IsEmpty()) {
      sample.push_back(g.geometry.envelope().Center());
    }
  }
  index::SpatialPartitioner partitioner(extent, sample, num_tiles);
  if (options.adaptive) {
    // Skew mitigation: quad-split tiles whose estimated probe x build cost
    // dominates, so no single tile pins a static schedule's makespan.
    std::vector<geom::Point> probe_sample;
    probe_sample.reserve(left.size());
    for (const IdGeometry& g : left) {
      if (!g.geometry.envelope().IsEmpty()) {
        probe_sample.push_back(g.geometry.envelope().Center());
      }
    }
    std::vector<geom::Envelope> build_envelopes;
    build_envelopes.reserve(right.size());
    for (const IdGeometry& g : right) {
      if (!g.geometry.envelope().IsEmpty()) {
        geom::Envelope env = g.geometry.envelope();
        env.ExpandBy(predicate.FilterRadius());
        build_envelopes.push_back(env);
      }
    }
    const int splits = partitioner.SplitHotTiles(
        probe_sample, build_envelopes, options.skew_factor,
        num_tiles * std::max(1, options.max_tiles_factor));
    if (counters != nullptr && splits > 0) {
      counters->Add(exec::counter::kHotTilesSplit, splits);
    }
  }

  const double radius = predicate.FilterRadius();
  const int tiles = static_cast<int>(partitioner.tiles().size());
  if (options.tile_seconds != nullptr) {
    options.tile_seconds->assign(static_cast<size_t>(tiles), 0.0);
  }

  // Bucket the right side (replicating multi-tile geometries).
  std::vector<std::vector<IdGeometry>> right_buckets(tiles);
  for (const IdGeometry& g : right) {
    geom::Envelope env = g.geometry.envelope();
    env.ExpandBy(radius);
    for (int tile : partitioner.TilesFor(env)) {
      right_buckets[static_cast<size_t>(tile)].push_back(g);
    }
  }

  // Bucket the left side the same way.
  std::vector<std::vector<IdGeometry>> left_buckets(tiles);
  for (const IdGeometry& g : left) {
    for (int tile : partitioner.TilesFor(g.geometry.envelope())) {
      left_buckets[static_cast<size_t>(tile)].push_back(g);
    }
  }

  // Join each tile independently. Replicated pairs are suppressed with the
  // reference-point technique: a pair is emitted only by the tile owning
  // the lower-left corner of the two records' (filter-expanded) envelope
  // intersection. A global sort-unique would instead conflate legitimately
  // repeated pairs and depends on every tile seeing identical duplicates;
  // the reference point makes each pair's reporting tile unique by
  // construction, even for zero-extent and tile-boundary-straddling
  // envelopes. (Right-side ids must be distinct, as every system path's
  // line-number ids are.)
  std::vector<IdPair> out;
  ProbeStats probe_stats;
  int64_t suppressed = 0;
  for (int tile = 0; tile < tiles; ++tile) {
    if (left_buckets[tile].empty() || right_buckets[tile].empty()) continue;
    if (counters != nullptr) counters->Add("partitioned.tiles_joined", 1);
    CpuTimer tile_watch;
    std::unordered_map<int64_t, geom::Envelope> right_envelopes;
    right_envelopes.reserve(right_buckets[tile].size());
    for (const IdGeometry& g : right_buckets[tile]) {
      geom::Envelope env = g.geometry.envelope();
      env.ExpandBy(radius);
      right_envelopes.emplace(g.id, env);
    }
    BroadcastIndex index(std::move(right_buckets[tile]), radius);
    const std::vector<IdGeometry>& probes = left_buckets[tile];
    index.Probe(
        std::span<const IdGeometry>(probes.data(), probes.size()), predicate,
        ProbeOptions(),
        [&](int64_t i, const IdPair& pair) {
          if (partitioner.OwnerTileOf(
                  probes[static_cast<size_t>(i)].geometry.envelope(),
                  right_envelopes.at(pair.second)) == tile) {
            out.push_back(pair);
          } else {
            ++suppressed;
          }
        },
        &probe_stats);
    if (options.tile_seconds != nullptr) {
      (*options.tile_seconds)[static_cast<size_t>(tile)] +=
          tile_watch.ElapsedSeconds();
    }
  }
  probe_stats.FlushTo(counters);

  // Canonical (sorted) output order, matching what the dedup pass used to
  // produce; no uniquing needed.
  std::sort(out.begin(), out.end());
  if (counters != nullptr) {
    counters->Add("partitioned.result_pairs", static_cast<int64_t>(out.size()));
    counters->Add("partitioned.replica_pairs_suppressed", suppressed);
  }
  return out;
}

}  // namespace cloudjoin::join
