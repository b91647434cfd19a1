#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/rng.h"
#include "join/broadcast_spatial_join.h"
#include "join/partitioned_spatial_join.h"

namespace cloudjoin::join {
namespace {

std::vector<IdGeometry> RandomPoints(Rng* rng, int n, double extent) {
  std::vector<IdGeometry> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(IdGeometry{
        i, geom::Geometry::MakePoint(rng->Uniform(0, extent),
                                     rng->Uniform(0, extent))});
  }
  return out;
}

std::vector<IdGeometry> RandomPolygons(Rng* rng, int n, double extent) {
  std::vector<IdGeometry> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    double cx = rng->Uniform(0, extent);
    double cy = rng->Uniform(0, extent);
    int v = 3 + static_cast<int>(rng->UniformInt(9));
    std::vector<geom::Point> ring;
    for (int k = 0; k < v; ++k) {
      double theta = 6.283185307179586 * k / v;
      double r = rng->Uniform(extent / 60, extent / 12);
      ring.push_back(geom::Point{cx + r * std::cos(theta),
                                 cy + r * std::sin(theta)});
    }
    out.push_back(IdGeometry{i, geom::Geometry::MakePolygon({ring})});
  }
  return out;
}

std::vector<IdGeometry> RandomPolylines(Rng* rng, int n, double extent) {
  std::vector<IdGeometry> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::vector<geom::Point> path;
    double x = rng->Uniform(0, extent);
    double y = rng->Uniform(0, extent);
    int v = 2 + static_cast<int>(rng->UniformInt(4));
    for (int k = 0; k < v; ++k) {
      path.push_back(geom::Point{x, y});
      x += rng->Uniform(-extent / 20, extent / 20);
      y += rng->Uniform(-extent / 20, extent / 20);
    }
    out.push_back(IdGeometry{i, geom::Geometry::MakeLineString(path)});
  }
  return out;
}

std::vector<IdPair> Sorted(std::vector<IdPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST(BroadcastIndexTest, EmptySides) {
  EXPECT_TRUE(BroadcastSpatialJoin({}, {}, SpatialPredicate::Within()).empty());
  Rng rng(1);
  auto points = RandomPoints(&rng, 10, 100);
  EXPECT_TRUE(
      BroadcastSpatialJoin(points, {}, SpatialPredicate::Within()).empty());
  auto polys = RandomPolygons(&rng, 5, 100);
  EXPECT_TRUE(
      BroadcastSpatialJoin({}, polys, SpatialPredicate::Within()).empty());
}

TEST(BroadcastIndexTest, SimpleWithin) {
  std::vector<IdGeometry> points = {
      {10, geom::Geometry::MakePoint(5, 5)},
      {11, geom::Geometry::MakePoint(50, 50)},
  };
  std::vector<IdGeometry> polys = {
      {20, geom::Geometry::MakePolygon({{{0, 0}, {10, 0}, {10, 10}, {0, 10}}})},
  };
  auto pairs = BroadcastSpatialJoin(points, polys,
                                    SpatialPredicate::Within());
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (IdPair{10, 20}));
}

TEST(BroadcastIndexTest, CountersAccumulate) {
  Rng rng(3);
  auto points = RandomPoints(&rng, 100, 100);
  auto polys = RandomPolygons(&rng, 20, 100);
  Counters counters;
  BroadcastSpatialJoin(points, polys, SpatialPredicate::Within(), &counters);
  EXPECT_GE(counters.Get("join.candidates"), counters.Get("join.matches"));
}

TEST(BroadcastIndexTest, MemoryBytesScalesWithInput) {
  Rng rng(4);
  BroadcastIndex small(RandomPolygons(&rng, 10, 100), 0);
  BroadcastIndex large(RandomPolygons(&rng, 1000, 100), 0);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

class JoinOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(JoinOracleProperty, WithinMatchesNestedLoop) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 733);
  auto points = RandomPoints(&rng, 200, 1000);
  auto polys = RandomPolygons(&rng, 40, 1000);
  auto indexed = Sorted(
      BroadcastSpatialJoin(points, polys, SpatialPredicate::Within()));
  auto oracle =
      Sorted(NestedLoopSpatialJoin(points, polys, SpatialPredicate::Within()));
  EXPECT_EQ(indexed, oracle);
  EXPECT_FALSE(oracle.empty()) << "degenerate test: no matches at all";
}

TEST_P(JoinOracleProperty, NearestDMatchesNestedLoop) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1409);
  auto points = RandomPoints(&rng, 150, 1000);
  auto lines = RandomPolylines(&rng, 60, 1000);
  SpatialPredicate predicate = SpatialPredicate::NearestD(30.0);
  auto indexed = Sorted(BroadcastSpatialJoin(points, lines, predicate));
  auto oracle = Sorted(NestedLoopSpatialJoin(points, lines, predicate));
  EXPECT_EQ(indexed, oracle);
}

TEST_P(JoinOracleProperty, IntersectsMatchesNestedLoop) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2801);
  auto polys_a = RandomPolygons(&rng, 50, 500);
  auto polys_b = RandomPolygons(&rng, 50, 500);
  SpatialPredicate predicate = SpatialPredicate::Intersects();
  auto indexed = Sorted(BroadcastSpatialJoin(polys_a, polys_b, predicate));
  auto oracle = Sorted(NestedLoopSpatialJoin(polys_a, polys_b, predicate));
  EXPECT_EQ(indexed, oracle);
}

/// The partitioned join refines a replicated candidate only in the tile
/// owning it, so it counts exactly the broadcast join's candidates and
/// matches, whatever the tiling.
void ExpectBroadcastProbeCounts(const Counters& partitioned,
                                const Counters& broadcast) {
  EXPECT_EQ(partitioned.Get("join.candidates"),
            broadcast.Get("join.candidates"));
  EXPECT_EQ(partitioned.Get("join.matches"), broadcast.Get("join.matches"));
}

TEST_P(JoinOracleProperty, PartitionedMatchesBroadcast) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3571);
  auto points = RandomPoints(&rng, 300, 1000);
  auto polys = RandomPolygons(&rng, 50, 1000);
  Counters broadcast_counters;
  auto broadcast = Sorted(BroadcastSpatialJoin(
      points, polys, SpatialPredicate::Within(), &broadcast_counters));
  for (int tiles : {1, 4, 16}) {
    Counters counters;
    auto partitioned = Sorted(PartitionedSpatialJoin(
        points, polys, SpatialPredicate::Within(), tiles, &counters));
    EXPECT_EQ(partitioned, broadcast) << "tiles=" << tiles;
    ExpectBroadcastProbeCounts(counters, broadcast_counters);
  }
}

TEST(PartitionedDegenerateTest, DegenerateEnvelopesMatchBroadcastOracle) {
  // Zero-extent envelopes (points, sliver polygons), envelopes straddling
  // every tile boundary, and verbatim-repeated left records. The broadcast
  // contract emits one pair per matching *record* pair; the old global
  // sort-unique dedup collapsed the pairs contributed by repeated records,
  // which the reference-point technique preserves.
  std::vector<IdGeometry> left;
  int64_t id = 0;
  for (int x = 0; x <= 8; x += 2) {
    for (int y = 0; y <= 8; y += 2) {
      geom::Geometry p = geom::Geometry::MakePoint(x, y);
      left.push_back(IdGeometry{id, p});
      left.push_back(IdGeometry{id, p});  // duplicate observation, same id
      ++id;
    }
  }
  std::vector<IdGeometry> right;
  // Zero-height and zero-width sliver polygons spanning the whole extent
  // (their envelopes straddle every x- or y-cut a tile layout can make).
  right.push_back(IdGeometry{
      0, geom::Geometry::MakePolygon(
             {{{0, 4}, {8, 4}, {8, 4}, {0, 4}}})});
  right.push_back(IdGeometry{
      1, geom::Geometry::MakePolygon(
             {{{2, 0}, {2, 8}, {2, 8}, {2, 0}}})});
  // Whole-extent square and an interior square with boundary on the grid.
  right.push_back(IdGeometry{
      2, geom::Geometry::MakePolygon(
             {{{0, 0}, {8, 0}, {8, 8}, {0, 8}, {0, 0}}})});
  right.push_back(IdGeometry{
      3, geom::Geometry::MakePolygon(
             {{{3, 3}, {5, 3}, {5, 5}, {3, 5}, {3, 3}}})});

  for (const SpatialPredicate& predicate :
       {SpatialPredicate::Within(), SpatialPredicate::NearestD(2.0),
        SpatialPredicate::Intersects()}) {
    Counters broadcast_counters;
    auto broadcast = Sorted(
        BroadcastSpatialJoin(left, right, predicate, &broadcast_counters));
    ASSERT_FALSE(broadcast.empty());
    for (int tiles : {1, 2, 3, 5, 8, 16}) {
      Counters counters;
      auto partitioned = Sorted(
          PartitionedSpatialJoin(left, right, predicate, tiles, &counters));
      EXPECT_EQ(partitioned, broadcast) << "tiles=" << tiles;
      ExpectBroadcastProbeCounts(counters, broadcast_counters);
    }
  }
}

TEST(PartitionedDegenerateTest, AllRecordsAtOnePointMatchBroadcast) {
  // Fully zero-extent workload: every record shares one location, so every
  // tile split falls back to the midpoint and all envelope corners sit on
  // tile boundaries.
  std::vector<IdGeometry> left, right;
  for (int64_t i = 0; i < 6; ++i) {
    left.push_back(IdGeometry{i, geom::Geometry::MakePoint(7.0, -3.0)});
  }
  right.push_back(IdGeometry{
      0, geom::Geometry::MakePolygon(
             {{{7, -3}, {7, -3}, {7, -3}, {7, -3}}})});
  right.push_back(IdGeometry{1, geom::Geometry::MakePoint(7.0, -3.0)});
  SpatialPredicate predicate = SpatialPredicate::NearestD(0.0);
  auto broadcast = Sorted(BroadcastSpatialJoin(left, right, predicate));
  EXPECT_EQ(broadcast.size(), 12u);
  for (int tiles : {1, 4, 9}) {
    auto partitioned =
        Sorted(PartitionedSpatialJoin(left, right, predicate, tiles));
    EXPECT_EQ(partitioned, broadcast) << "tiles=" << tiles;
  }
}

TEST(PartitionedDegenerateTest, EmptyGeometryDoesNotPoisonTileLayout) {
  // Minimal reproducer shrunk from differential seed 42: a POLYGON EMPTY
  // right record has an empty envelope whose center is NaN. Feeding that
  // center into the BSP sample broke nth_element's ordering and could make
  // a cut NaN, yielding NaN-bounded tiles that silently dropped records
  // from replication — here the zero-height sliver at y=5 lost its match.
  std::vector<IdGeometry> left;
  left.push_back({0, geom::Geometry::MakePoint(-7, 5)});
  std::vector<IdGeometry> right;
  right.push_back({0, geom::Geometry(geom::GeometryType::kPolygon)});
  right.push_back({1, geom::Geometry::MakePolygon(
                          {{{-7, 5}, {-6, 5}, {-5, 5}, {-4, 5}, {-7, 5}}})});
  right.push_back({2, geom::Geometry::MakePolygon({{{4.5, 4.25},
                                                    {5.5, 4.25},
                                                    {6.5, 4.25},
                                                    {7.5, 4.25},
                                                    {4.5, 4.25}}})});
  right.push_back({3, geom::Geometry::MakePolygon({{{-1.75, -3.75},
                                                    {1.75, -3.75},
                                                    {1.75, -2.75},
                                                    {-1.75, -2.75},
                                                    {-1.75, -3.75}}})});
  const SpatialPredicate predicate = SpatialPredicate::Within();
  const auto oracle = Sorted(NestedLoopSpatialJoin(left, right, predicate));
  EXPECT_EQ(oracle.size(), 1u);
  for (int tiles : {1, 5}) {
    EXPECT_EQ(Sorted(PartitionedSpatialJoin(left, right, predicate, tiles)),
              oracle)
        << tiles;
  }
}

TEST(PartitionedDegenerateTest, AllEmptyGeometriesYieldNoPairs) {
  // Every geometry empty: the union extent is empty and no predicate can
  // match. The partitioned join must return cleanly instead of asserting
  // on the empty extent.
  std::vector<IdGeometry> left;
  left.push_back({0, geom::Geometry(geom::GeometryType::kPoint)});
  std::vector<IdGeometry> right;
  right.push_back({0, geom::Geometry(geom::GeometryType::kPolygon)});
  for (int tiles : {1, 4}) {
    EXPECT_TRUE(
        PartitionedSpatialJoin(left, right, SpatialPredicate::Intersects(),
                               tiles)
            .empty())
        << tiles;
  }
}

TEST_P(JoinOracleProperty, PartitionedNearestDMatchesBroadcast) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6007);
  auto points = RandomPoints(&rng, 200, 1000);
  auto lines = RandomPolylines(&rng, 50, 1000);
  SpatialPredicate predicate = SpatialPredicate::NearestD(40.0);
  Counters counters;
  auto partitioned =
      Sorted(PartitionedSpatialJoin(points, lines, predicate, 8, &counters));
  Counters broadcast_counters;
  auto broadcast = Sorted(
      BroadcastSpatialJoin(points, lines, predicate, &broadcast_counters));
  EXPECT_EQ(partitioned, broadcast);
  ExpectBroadcastProbeCounts(counters, broadcast_counters);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinOracleProperty, ::testing::Range(1, 9));

TEST_P(JoinOracleProperty, PreparedMatchesExact) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 9293);
  auto points = RandomPoints(&rng, 300, 1000);
  auto polys = RandomPolygons(&rng, 60, 1000);
  auto exact = BroadcastSpatialJoin(points, polys, SpatialPredicate::Within());
  PrepareOptions prepare = PrepareOptions::Prepared();
  prepare.min_vertices = 3;  // prepare every polygon in this mix
  Counters counters;
  auto prepared = BroadcastSpatialJoin(points, polys,
                                       SpatialPredicate::Within(), &counters,
                                       prepare);
  EXPECT_EQ(prepared, exact);  // identical, order included
  EXPECT_GT(counters.Get("join.prepared_hits"), 0);
  EXPECT_LE(counters.Get("join.boundary_fallbacks"),
            counters.Get("join.prepared_hits"));
}

TEST_P(JoinOracleProperty, ParallelIsByteIdenticalToSerial) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 12253);
  auto points = RandomPoints(&rng, 400, 1000);
  auto polys = RandomPolygons(&rng, 60, 1000);
  for (const bool prepared : {false, true}) {
    PrepareOptions prepare;
    prepare.enabled = prepared;
    prepare.min_vertices = 3;
    auto serial = BroadcastSpatialJoin(points, polys,
                                       SpatialPredicate::Within(), nullptr,
                                       prepare);
    for (int threads : {1, 2, 8}) {
      Counters counters;
      auto parallel = ParallelBroadcastSpatialJoin(
          points, polys, SpatialPredicate::Within(), threads, prepare,
          &counters);
      // Exact equality (not sorted): the parallel engine must reproduce
      // the serial left-major output byte for byte at every thread count.
      EXPECT_EQ(parallel, serial)
          << "threads=" << threads << " prepared=" << prepared;
      EXPECT_EQ(counters.Get("join.matches"),
                static_cast<int64_t>(serial.size()));
    }
  }
}

TEST(BroadcastIndexTest, ProbeBatchMatchesPerProbe) {
  // One probe over the whole batch == one probe per record (spans of one):
  // same pairs in the same order, same candidate and match counts.
  Rng rng(17);
  auto points = RandomPoints(&rng, 200, 500);
  auto polys = RandomPolygons(&rng, 30, 500);
  BroadcastIndex index(polys, 0.0);
  auto collect = [](std::vector<IdPair>* out) {
    return [out](int64_t, const IdPair& pair) { out->push_back(pair); };
  };
  ProbeStats per_probe_stats;
  std::vector<IdPair> per_probe;
  for (const IdGeometry& p : points) {
    index.Probe(std::span<const IdGeometry>(&p, 1), SpatialPredicate::Within(),
                ProbeOptions(), collect(&per_probe), &per_probe_stats);
  }
  ProbeStats batch_stats;
  std::vector<IdPair> batched;
  index.Probe(std::span<const IdGeometry>(points.data(), points.size()),
              SpatialPredicate::Within(), ProbeOptions(), collect(&batched),
              &batch_stats);
  EXPECT_EQ(batched, per_probe);
  EXPECT_EQ(batch_stats.Get(exec::Stat::kCandidates),
            per_probe_stats.Get(exec::Stat::kCandidates));
  EXPECT_EQ(batch_stats.Get(exec::Stat::kMatches),
            per_probe_stats.Get(exec::Stat::kMatches));
  EXPECT_EQ(batch_stats.Get(exec::Stat::kMatches),
            static_cast<int64_t>(batched.size()));
}

TEST(BroadcastIndexTest, PreparationRespectsVertexThreshold) {
  Rng rng(23);
  auto polys = RandomPolygons(&rng, 40, 500);  // 3-11 vertices each
  PrepareOptions prepare = PrepareOptions::Prepared();
  prepare.min_vertices = 1000;
  BroadcastIndex none(polys, 0.0, prepare);
  EXPECT_EQ(none.num_prepared(), 0);
  prepare.min_vertices = 3;
  BroadcastIndex all(polys, 0.0, prepare);
  EXPECT_EQ(all.num_prepared(), static_cast<int64_t>(polys.size()));
}

TEST(SpatialPredicateTest, ToStringAndRadius) {
  EXPECT_STREQ(SpatialOperatorToString(SpatialOperator::kWithin), "Within");
  SpatialPredicate nearest = SpatialPredicate::NearestD(500);
  EXPECT_EQ(nearest.FilterRadius(), 500.0);
  EXPECT_EQ(SpatialPredicate::Within().FilterRadius(), 0.0);
  EXPECT_NE(nearest.ToString().find("500"), std::string::npos);
}

}  // namespace
}  // namespace cloudjoin::join
