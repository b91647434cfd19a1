#include "index/spatial_partitioner.h"

#include <algorithm>

#include "common/logging.h"

namespace cloudjoin::index {

namespace {

struct WorkTile {
  geom::Envelope box;
  std::vector<geom::Point> points;
};

}  // namespace

SpatialPartitioner::SpatialPartitioner(const geom::Envelope& extent,
                                       std::vector<geom::Point> sample,
                                       int target_tiles)
    : extent_(extent) {
  CLOUDJOIN_CHECK(target_tiles >= 1);
  CLOUDJOIN_CHECK(!extent.IsEmpty());

  // Sample points outside the extent (including non-finite coordinates,
  // e.g. the NaN center of an empty envelope) would poison the median
  // selection below — NaN compares false both ways, breaking the strict
  // weak ordering nth_element requires — so only in-extent points steer
  // the splits.
  std::erase_if(sample,
                [&extent](const geom::Point& p) { return !extent.Contains(p); });

  std::vector<WorkTile> work;
  work.push_back(WorkTile{extent, std::move(sample)});
  while (static_cast<int>(work.size()) < target_tiles) {
    // Split the tile with the most sample points.
    size_t victim = 0;
    for (size_t i = 1; i < work.size(); ++i) {
      if (work[i].points.size() > work[victim].points.size()) victim = i;
    }
    WorkTile tile = std::move(work[victim]);
    work.erase(work.begin() + static_cast<int64_t>(victim));

    const bool split_x = tile.box.Width() >= tile.box.Height();
    double cut;
    if (tile.points.size() >= 2) {
      size_t mid = tile.points.size() / 2;
      std::nth_element(tile.points.begin(), tile.points.begin() + mid,
                       tile.points.end(),
                       [split_x](const geom::Point& a, const geom::Point& b) {
                         return split_x ? a.x < b.x : a.y < b.y;
                       });
      cut = split_x ? tile.points[mid].x : tile.points[mid].y;
      // Degenerate medians (all samples at one coordinate) fall back to the
      // spatial midpoint so the split always makes progress.
      double lo = split_x ? tile.box.min_x() : tile.box.min_y();
      double hi = split_x ? tile.box.max_x() : tile.box.max_y();
      if (cut <= lo || cut >= hi) cut = (lo + hi) * 0.5;
    } else {
      cut = split_x ? (tile.box.min_x() + tile.box.max_x()) * 0.5
                    : (tile.box.min_y() + tile.box.max_y()) * 0.5;
    }

    WorkTile left, right;
    if (split_x) {
      left.box = geom::Envelope(tile.box.min_x(), tile.box.min_y(), cut,
                                tile.box.max_y());
      right.box = geom::Envelope(cut, tile.box.min_y(), tile.box.max_x(),
                                 tile.box.max_y());
    } else {
      left.box = geom::Envelope(tile.box.min_x(), tile.box.min_y(),
                                tile.box.max_x(), cut);
      right.box = geom::Envelope(tile.box.min_x(), cut, tile.box.max_x(),
                                 tile.box.max_y());
    }
    for (const geom::Point& p : tile.points) {
      bool go_left = split_x ? p.x < cut : p.y < cut;
      (go_left ? left : right).points.push_back(p);
    }
    work.push_back(std::move(left));
    work.push_back(std::move(right));
  }

  tiles_.reserve(work.size());
  for (const WorkTile& t : work) tiles_.push_back(t.box);
}

int SpatialPartitioner::SplitHotTiles(
    const std::vector<geom::Point>& probe_sample,
    const std::vector<geom::Envelope>& build_envelopes, double skew_factor,
    int max_tiles) {
  CLOUDJOIN_CHECK(skew_factor > 0.0);
  if (static_cast<int>(tiles_.size()) >= max_tiles) return 0;

  struct HotTile {
    geom::Envelope box;
    std::vector<geom::Point> probe;
    // Build envelopes intersecting the tile — the replicas the join will
    // place in it, so a spanning geometry weighs on every tile it covers.
    std::vector<geom::Envelope> build;
    bool splittable = true;
    // Expected candidate pairs in the tile: probes are ~uniform within a
    // tile, so each build replica contributes (its overlap area / tile
    // area) of the tile's probes. Summing those coverage fractions weighs
    // a polygon blanketing the tile at 1.0 and a corner sliver near 0 —
    // the spread the count-based estimate cannot see. The max(1, ...)
    // floor keeps pure index-descent cost for uncovered probe-dense tiles.
    double Cost() const {
      const double box_area = box.Width() * box.Height();
      double coverage = 0.0;
      for (const geom::Envelope& e : build) {
        if (box_area > 0.0) {
          const double ix = std::min(box.max_x(), e.max_x()) -
                            std::max(box.min_x(), e.min_x());
          const double iy = std::min(box.max_y(), e.max_y()) -
                            std::max(box.min_y(), e.min_y());
          coverage += std::max(0.0, ix) * std::max(0.0, iy) / box_area;
        } else {
          coverage += 1.0;
        }
      }
      return static_cast<double>(probe.size()) * std::max(1.0, coverage);
    }
  };

  std::vector<HotTile> work(tiles_.size());
  for (size_t i = 0; i < tiles_.size(); ++i) work[i].box = tiles_[i];
  for (const geom::Point& p : probe_sample) {
    int t = TileOf(p);
    if (t >= 0) work[static_cast<size_t>(t)].probe.push_back(p);
  }
  for (const geom::Envelope& e : build_envelopes) {
    if (e.IsEmpty()) continue;
    for (HotTile& t : work) {
      if (t.box.Intersects(e)) t.build.push_back(e);
    }
  }

  // The skew threshold is fixed from the layout's initial cost profile:
  // a tile is hot when it would run `skew_factor` times longer than the
  // average tile under an even schedule.
  double total_cost = 0.0;
  for (const HotTile& t : work) total_cost += t.Cost();
  const double threshold =
      skew_factor * std::max(1.0, total_cost / static_cast<double>(work.size()));

  // Median coordinate of `points` along one axis; NaN when empty.
  auto median = [](std::vector<geom::Point> points, bool axis_x) {
    const size_t mid = points.size() / 2;
    std::nth_element(points.begin(),
                     points.begin() + static_cast<int64_t>(mid), points.end(),
                     [axis_x](const geom::Point& a, const geom::Point& b) {
                       return axis_x ? a.x < b.x : a.y < b.y;
                     });
    return axis_x ? points[mid].x : points[mid].y;
  };

  int splits = 0;
  while (static_cast<int>(work.size()) + 3 <= max_tiles) {
    // Split the costliest over-threshold tile.
    int victim = -1;
    for (size_t i = 0; i < work.size(); ++i) {
      if (!work[i].splittable || work[i].Cost() <= threshold) continue;
      if (work[i].box.Width() <= 0.0 || work[i].box.Height() <= 0.0) continue;
      if (victim < 0 || work[i].Cost() > work[static_cast<size_t>(victim)].Cost()) {
        victim = static_cast<int>(i);
      }
    }
    if (victim < 0) break;
    HotTile tile = std::move(work[static_cast<size_t>(victim)]);
    work.erase(work.begin() + victim);

    // Quad-split at the sampled medians. The probe sample steers: probes
    // are the divisible resource (each lands in exactly one child) while a
    // spanning build envelope follows every child regardless of the cut.
    // Build envelope centers and the spatial midpoint are fallbacks.
    std::vector<geom::Point> steer = tile.probe;
    if (steer.empty()) {
      steer.reserve(tile.build.size());
      for (const geom::Envelope& e : tile.build) {
        steer.push_back(geom::Point{(e.min_x() + e.max_x()) * 0.5,
                                    (e.min_y() + e.max_y()) * 0.5});
      }
    }
    double cut_x = steer.empty() ? (tile.box.min_x() + tile.box.max_x()) * 0.5
                                 : median(steer, /*axis_x=*/true);
    double cut_y = steer.empty() ? (tile.box.min_y() + tile.box.max_y()) * 0.5
                                 : median(steer, /*axis_x=*/false);
    if (cut_x <= tile.box.min_x() || cut_x >= tile.box.max_x()) {
      cut_x = (tile.box.min_x() + tile.box.max_x()) * 0.5;
    }
    if (cut_y <= tile.box.min_y() || cut_y >= tile.box.max_y()) {
      cut_y = (tile.box.min_y() + tile.box.max_y()) * 0.5;
    }

    HotTile children[4];
    children[0].box = geom::Envelope(tile.box.min_x(), tile.box.min_y(),
                                     cut_x, cut_y);
    children[1].box = geom::Envelope(cut_x, tile.box.min_y(),
                                     tile.box.max_x(), cut_y);
    children[2].box = geom::Envelope(tile.box.min_x(), cut_y, cut_x,
                                     tile.box.max_y());
    children[3].box = geom::Envelope(cut_x, cut_y, tile.box.max_x(),
                                     tile.box.max_y());
    auto child_of = [&](const geom::Point& p) {
      return (p.x < cut_x ? 0 : 1) + (p.y < cut_y ? 0 : 2);
    };
    for (const geom::Point& p : tile.probe) {
      children[child_of(p)].probe.push_back(p);
    }
    for (const geom::Envelope& e : tile.build) {
      for (HotTile& child : children) {
        if (child.box.Intersects(e)) child.build.push_back(e);
      }
    }
    for (HotTile& child : children) {
      // A child that swallowed the whole sample (coincident points) would
      // re-split forever without getting cheaper; freeze it instead.
      if (child.probe.size() == tile.probe.size() &&
          child.build.size() == tile.build.size()) {
        child.splittable = false;
      }
      work.push_back(std::move(child));
    }
    ++splits;
  }

  if (splits > 0) {
    tiles_.clear();
    tiles_.reserve(work.size());
    for (const HotTile& t : work) tiles_.push_back(t.box);
  }
  return splits;
}

int SpatialPartitioner::TileOf(const geom::Point& p) const {
  for (size_t i = 0; i < tiles_.size(); ++i) {
    if (tiles_[i].Contains(p)) return static_cast<int>(i);
  }
  return -1;
}

int SpatialPartitioner::OwnerTileOf(const geom::Envelope& a,
                                    const geom::Envelope& b) const {
  const geom::Point reference{std::max(a.min_x(), b.min_x()),
                              std::max(a.min_y(), b.min_y())};
  return TileOf(reference);
}

std::vector<int> SpatialPartitioner::TilesFor(
    const geom::Envelope& envelope) const {
  std::vector<int> out;
  for (size_t i = 0; i < tiles_.size(); ++i) {
    if (tiles_[i].Intersects(envelope)) out.push_back(static_cast<int>(i));
  }
  return out;
}

}  // namespace cloudjoin::index
