#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "index/packed_str_tree.h"
#include "index/sfilter.h"
#include "index/spatial_partitioner.h"
#include "index/str_tree.h"

namespace cloudjoin::index {
namespace {

using geom::Envelope;
using geom::Point;

std::vector<StrTree::Entry> RandomEntries(Rng* rng, int n, double extent) {
  std::vector<StrTree::Entry> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) {
    double x = rng->Uniform(0, extent);
    double y = rng->Uniform(0, extent);
    double w = rng->Uniform(0, extent / 50);
    double h = rng->Uniform(0, extent / 50);
    entries.push_back(StrTree::Entry{Envelope(x, y, x + w, y + h), i});
  }
  return entries;
}

std::set<int64_t> BruteQuery(const std::vector<StrTree::Entry>& entries,
                             const Envelope& query) {
  std::set<int64_t> out;
  for (const auto& e : entries) {
    if (e.envelope.Intersects(query)) out.insert(e.id);
  }
  return out;
}

std::vector<int64_t> VisitAll(const StrTree& tree, const Envelope& query) {
  std::vector<int64_t> hits;
  tree.VisitQuery(query, [&hits](int64_t id) { hits.push_back(id); });
  return hits;
}

TEST(StrTreeTest, EmptyTree) {
  StrTree tree({});
  EXPECT_TRUE(VisitAll(tree, Envelope(0, 0, 100, 100)).empty());
  EXPECT_EQ(tree.num_entries(), 0);
}

TEST(StrTreeTest, SingleEntry) {
  StrTree tree({StrTree::Entry{Envelope(1, 1, 2, 2), 42}});
  const std::vector<int64_t> hits = VisitAll(tree, Envelope(0, 0, 3, 3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42);
  EXPECT_TRUE(VisitAll(tree, Envelope(5, 5, 6, 6)).empty());
}

TEST(StrTreeTest, HeightGrowsLogarithmically) {
  Rng rng(1);
  StrTree small(RandomEntries(&rng, 9, 100.0));
  EXPECT_EQ(small.height(), 1);
  StrTree big(RandomEntries(&rng, 5000, 100.0));
  EXPECT_GE(big.height(), 3);
  EXPECT_LE(big.height(), 6);
}

TEST(StrTreeTest, MemoryBytesPositive) {
  Rng rng(2);
  StrTree tree(RandomEntries(&rng, 100, 100.0));
  EXPECT_GT(tree.MemoryBytes(), 100 * static_cast<int64_t>(sizeof(StrTree::Entry)));
}

class StrTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(StrTreeProperty, QueryMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 17);
  const int n = 50 + static_cast<int>(rng.UniformInt(2000));
  auto entries = RandomEntries(&rng, n, 1000.0);
  StrTree tree(entries);
  EXPECT_EQ(tree.num_entries(), n);
  for (int trial = 0; trial < 50; ++trial) {
    double x = rng.Uniform(0, 1000);
    double y = rng.Uniform(0, 1000);
    double w = rng.Uniform(0, 200);
    Envelope query(x, y, x + w, y + w);
    const std::vector<int64_t> hits = VisitAll(tree, query);
    std::set<int64_t> got(hits.begin(), hits.end());
    EXPECT_EQ(got.size(), hits.size()) << "duplicate results";
    EXPECT_EQ(got, BruteQuery(entries, query));
  }
}

TEST_P(StrTreeProperty, VisitQueryMatchesQuery) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 37);
  const int n = 50 + static_cast<int>(rng.UniformInt(2000));
  auto entries = RandomEntries(&rng, n, 1000.0);
  StrTree tree(entries);
  PackedStrTree packed(tree);
  for (int trial = 0; trial < 50; ++trial) {
    // Queries may overhang the entries' extent on the low side.
    double x = rng.Uniform(-100, 1000);
    double y = rng.Uniform(-100, 1000);
    double w = rng.Uniform(0, 300);
    Envelope query(x, y, x + w, y + w);
    // The reference walk must visit exactly the entries the probe path's
    // packed query reports, in the same order.
    const std::vector<int64_t> via_visitor = VisitAll(tree, query);
    std::vector<int64_t> via_packed;
    packed.VisitQuery(query, [&via_packed](int64_t id) {
      via_packed.push_back(id);
    });
    EXPECT_EQ(via_visitor, via_packed);
    std::set<int64_t> got(via_visitor.begin(), via_visitor.end());
    EXPECT_EQ(got.size(), via_visitor.size()) << "duplicate results";
    EXPECT_EQ(got, BruteQuery(entries, query));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrTreeProperty, ::testing::Range(1, 9));

TEST(PartitionerTest, TilesCoverExtentWithoutOverlap) {
  Rng rng(7);
  Envelope extent(0, 0, 100, 100);
  std::vector<Point> sample;
  for (int i = 0; i < 1000; ++i) {
    sample.push_back(Point{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  SpatialPartitioner part(extent, sample, 16);
  EXPECT_EQ(part.tiles().size(), 16u);
  // Total area preserved (tiles form a binary space partition).
  double area = 0;
  for (const auto& t : part.tiles()) area += t.Area();
  EXPECT_NEAR(area, extent.Area(), 1e-6);
  // Every interior point lands in at least one tile, and pairwise tile
  // interiors do not overlap (checked via area + membership).
  for (int trial = 0; trial < 500; ++trial) {
    Point p{rng.Uniform(0.001, 99.999), rng.Uniform(0.001, 99.999)};
    EXPECT_GE(part.TileOf(p), 0);
  }
}

TEST(PartitionerTest, BalancesSkewedSample) {
  Rng rng(11);
  Envelope extent(0, 0, 100, 100);
  // 90% of points in a small corner.
  std::vector<Point> sample;
  for (int i = 0; i < 2000; ++i) {
    if (i % 10 != 0) {
      sample.push_back(Point{rng.Uniform(0, 10), rng.Uniform(0, 10)});
    } else {
      sample.push_back(Point{rng.Uniform(0, 100), rng.Uniform(0, 100)});
    }
  }
  SpatialPartitioner part(extent, sample, 8);
  // The hot corner must be split: count tiles intersecting it.
  int corner_tiles = 0;
  for (const auto& t : part.tiles()) {
    if (t.Intersects(Envelope(0, 0, 10, 10))) ++corner_tiles;
  }
  EXPECT_GE(corner_tiles, 3);
}

TEST(PartitionerTest, TilesForReplication) {
  Envelope extent(0, 0, 100, 100);
  std::vector<Point> sample = {{25, 50}, {75, 50}};
  SpatialPartitioner part(extent, sample, 2);
  // An envelope spanning the whole extent hits all tiles.
  EXPECT_EQ(part.TilesFor(Envelope(0, 0, 100, 100)).size(),
            part.tiles().size());
}

/// Each point as a degenerate envelope, the build side SplitHotTiles takes.
std::vector<Envelope> PointEnvelopes(const std::vector<Point>& points) {
  std::vector<Envelope> envelopes;
  envelopes.reserve(points.size());
  for (const Point& p : points) envelopes.emplace_back(p.x, p.y, p.x, p.y);
  return envelopes;
}

TEST(PartitionerTest, SplitHotTilesSplitsTheHotspot) {
  Rng rng(3);
  Envelope extent(0, 0, 100, 100);
  // Build side uniform; probe side packed into a hotspot corner.
  std::vector<Point> build;
  for (int i = 0; i < 500; ++i) {
    build.push_back(Point{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  std::vector<Point> probe;
  for (int i = 0; i < 2000; ++i) {
    probe.push_back(Point{rng.Uniform(0, 5), rng.Uniform(0, 5)});
  }
  SpatialPartitioner part(extent, build, 16);
  const size_t before = part.tiles().size();
  int splits = part.SplitHotTiles(probe, PointEnvelopes(build),
                                  /*skew_factor=*/2.0, /*max_tiles=*/64);
  EXPECT_GT(splits, 0);
  // Each split replaces one tile with four.
  EXPECT_EQ(part.tiles().size(), before + 3 * static_cast<size_t>(splits));
  // Tiles still exactly cover the extent: area preserved, TileOf total.
  double area = 0;
  for (const auto& t : part.tiles()) area += t.Area();
  EXPECT_NEAR(area, extent.Area(), 1e-6);
  for (int trial = 0; trial < 500; ++trial) {
    Point p{rng.Uniform(0.001, 99.999), rng.Uniform(0.001, 99.999)};
    EXPECT_GE(part.TileOf(p), 0);
  }
  // The hotspot now holds several tiles.
  int hot_tiles = 0;
  for (const auto& t : part.tiles()) {
    if (t.Intersects(Envelope(0, 0, 5, 5))) ++hot_tiles;
  }
  EXPECT_GE(hot_tiles, 4);
}

TEST(PartitionerTest, SplitHotTilesUniformSampleDoesNotSplit) {
  Rng rng(5);
  Envelope extent(0, 0, 100, 100);
  std::vector<Point> uniform;
  for (int i = 0; i < 2000; ++i) {
    uniform.push_back(Point{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  SpatialPartitioner part(extent, uniform, 16);
  // With probes spread like the layout sample, no tile crosses a high
  // skew threshold.
  EXPECT_EQ(part.SplitHotTiles(uniform, PointEnvelopes(uniform),
                               /*skew_factor=*/8.0, /*max_tiles=*/256),
            0);
}

TEST(PartitionerTest, SplitHotTilesRespectsMaxTiles) {
  Rng rng(9);
  Envelope extent(0, 0, 100, 100);
  std::vector<Point> build;
  for (int i = 0; i < 200; ++i) {
    build.push_back(Point{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  std::vector<Point> probe;
  for (int i = 0; i < 4000; ++i) {
    probe.push_back(Point{rng.Uniform(0, 2), rng.Uniform(0, 2)});
  }
  SpatialPartitioner part(extent, build, 16);
  part.SplitHotTiles(probe, PointEnvelopes(build), /*skew_factor=*/1.1,
                     /*max_tiles=*/24);
  EXPECT_LE(part.tiles().size(), 24u);

  // Already at (or past) the cap: no-op.
  SpatialPartitioner full(extent, build, 32);
  EXPECT_EQ(full.SplitHotTiles(probe, PointEnvelopes(build), 1.1, 32), 0);
}

TEST(PartitionerTest, SplitHotTilesSeesSpanningBuildEnvelopes) {
  Rng rng(13);
  Envelope extent(0, 0, 100, 100);
  std::vector<Point> layout;
  for (int i = 0; i < 400; ++i) {
    layout.push_back(Point{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  // Probes mildly favor one corner; the build side is a single giant
  // envelope whose CENTER sits far from that corner. The center-based
  // estimate sees zero build weight there, the envelope-aware one sees
  // the replica every covered tile will receive.
  std::vector<Point> probe;
  for (int i = 0; i < 3000; ++i) {
    probe.push_back(Point{rng.Uniform(0, 8), rng.Uniform(0, 8)});
  }
  for (int i = 0; i < 1000; ++i) {
    probe.push_back(Point{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  std::vector<Envelope> spanning = {Envelope(0, 0, 100, 100)};
  SpatialPartitioner part(extent, layout, 16);
  int splits =
      part.SplitHotTiles(probe, spanning, /*skew_factor=*/2.0,
                         /*max_tiles=*/64);
  EXPECT_GT(splits, 0);
  double area = 0;
  for (const auto& t : part.tiles()) area += t.Area();
  EXPECT_NEAR(area, extent.Area(), 1e-6);
}

TEST(SFilterTest, EmptyTreeHasNoFilter) {
  StrTree tree({});
  EXPECT_EQ(BuildSFilter(tree), nullptr);
}

TEST(SFilterTest, NoFalseNegativesAgainstBruteForce) {
  for (int seed = 1; seed <= 6; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    auto entries = RandomEntries(&rng, 300, 1000.0);
    StrTree tree(entries);
    auto filter = BuildSFilter(tree);
    ASSERT_NE(filter, nullptr);
    for (int trial = 0; trial < 2000; ++trial) {
      double x = rng.Uniform(-50, 1050);
      double y = rng.Uniform(-50, 1050);
      Envelope query(x, y, x + rng.Uniform(0, 30), y + rng.Uniform(0, 30));
      if (!BruteQuery(entries, query).empty()) {
        // Conservative contract: a real intersection may never be filtered.
        EXPECT_TRUE(filter->MightIntersect(query))
            << "false negative at seed " << seed << " trial " << trial;
      }
    }
  }
}

TEST(SFilterTest, RejectsEmptyRegions) {
  // All entries in the lower-left quadrant of a large extent (anchor entry
  // at the far corner keeps the extent wide without occupying the middle).
  std::vector<StrTree::Entry> entries;
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    double x = rng.Uniform(0, 100);
    double y = rng.Uniform(0, 100);
    entries.push_back(StrTree::Entry{Envelope(x, y, x + 1, y + 1), i});
  }
  entries.push_back(StrTree::Entry{Envelope(999, 999, 1000, 1000), 200});
  StrTree tree(entries);
  auto filter = BuildSFilter(tree);
  ASSERT_NE(filter, nullptr);
  // The vast middle of the extent holds nothing: probes there are dropped.
  EXPECT_FALSE(filter->MightIntersect(Envelope(480, 480, 520, 520)));
  // Occupied corners pass.
  EXPECT_TRUE(filter->MightIntersect(Envelope(40, 40, 60, 60)));
  EXPECT_TRUE(filter->MightIntersect(Envelope(999.2, 999.2, 999.5, 999.5)));
  EXPECT_GT(filter->FineBitsSet(), 0);
  EXPECT_GT(filter->MemoryBytes(), 8 * 1024);
}

TEST(SFilterTest, DegenerateExtentStaysConservative) {
  // Every entry at one point: the grid has zero width/height, and all
  // coordinates collapse to cell 0 — membership must still never report a
  // false negative.
  std::vector<StrTree::Entry> entries;
  for (int i = 0; i < 4; ++i) {
    entries.push_back(StrTree::Entry{Envelope(5, 5, 5, 5), i});
  }
  StrTree tree(entries);
  auto filter = BuildSFilter(tree);
  ASSERT_NE(filter, nullptr);
  EXPECT_TRUE(filter->MightIntersect(Envelope(5, 5, 5, 5)));
  EXPECT_TRUE(filter->MightIntersect(Envelope(0, 0, 10, 10)));
}

}  // namespace
}  // namespace cloudjoin::index
