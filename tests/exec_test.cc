#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/workload.h"
#include "common/counters.h"
#include "common/thread_pool.h"
#include "dfs/sim_file_system.h"
#include "exec/broadcast_index.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "exec/probe_scanner.h"
#include "exec/refiner.h"
#include "exec/right_builder.h"
#include "exec/tiled_right.h"
#include "geom/wkt.h"

namespace cloudjoin::exec {
namespace {

/// Probes one record (a span of one) and returns its matches.
std::vector<IdPair> ProbeOne(const BroadcastIndex& broadcast,
                             const IdGeometry& probe,
                             const SpatialPredicate& predicate) {
  std::vector<IdPair> out;
  ProbeStats stats;
  broadcast.Probe(std::span<const IdGeometry>(&probe, 1), predicate,
                  index::ProbeOptions(),
                  [&out](int64_t, const IdPair& pair) { out.push_back(pair); },
                  &stats);
  return out;
}

constexpr char kRightPath[] = "/tables/right.tbl";

TableInput RightInput() {
  TableInput input;
  input.path = kRightPath;
  return input;
}

Result<BuiltRight> BuildFrom(dfs::SimFileSystem* fs, const std::string& text,
                             const PrepareOptions& prepare,
                             Counters* counters) {
  CLOUDJOIN_CHECK(fs->WriteFile(kRightPath, text).ok());
  auto file = fs->GetFile(kRightPath);
  CLOUDJOIN_CHECK(file.ok());
  return BuildRightFromTable(**file, RightInput(), /*radius=*/0.0, prepare,
                             counters);
}

// A ring with enough vertices to clear the default prepare threshold.
std::string BigPolygonWkt() {
  std::string wkt = "POLYGON ((";
  for (int i = 0; i < 12; ++i) {
    double angle = 2.0 * 3.141592653589793 * i / 12;
    wkt += std::to_string(10.0 + 3.0 * std::cos(angle)) + " " +
           std::to_string(10.0 + 3.0 * std::sin(angle)) + ", ";
  }
  wkt += std::to_string(10.0 + 3.0) + " " + std::to_string(10.0) + "))";
  return wkt;
}

TEST(RightBuilderTest, MalformedAndBadGeomRowsAreCountedAndSkipped) {
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  const std::string text =
      "0\tPOINT (1 1)\n"
      "only-one-field\n"                 // too few columns -> malformed
      "not-a-number\tPOINT (2 2)\n"      // bad id -> malformed
      "1\tPOINT (nonsense\n"             // bad geometry -> bad_geom
      "7\tPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n";
  auto built = BuildFrom(&fs, text, PrepareOptions(), &counters);
  ASSERT_TRUE(built.ok()) << built.status();

  EXPECT_EQ(counters.Get(counter::kRightMalformed), 2);
  EXPECT_EQ(counters.Get(counter::kRightBadGeom), 1);
  EXPECT_EQ(counters.Get(counter::kRightRows), 2);
  // Slots stay dense and aligned: the surviving rows keep their file ids
  // and occupy consecutive slots.
  ASSERT_EQ(built->size(), 2);
  EXPECT_EQ(built->ids[0], 0);
  EXPECT_EQ(built->ids[1], 7);
  EXPECT_EQ(built->wkt[1], "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
}

TEST(RightBuilderTest, EmptyGeometriesFollowTheKernelContract) {
  // GEOS-kernel flavour: the GEOS-role reader rejects EMPTY by design, so
  // the text build drops the row under join.right_bad_geom. This is
  // output-neutral — EMPTY matches nothing in the flat kernel either.
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  const std::string text =
      "0\tPOLYGON EMPTY\n"
      "1\tPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n";
  auto built = BuildFrom(&fs, text, PrepareOptions(), &counters);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_EQ(built->size(), 1);
  EXPECT_EQ(counters.Get(counter::kRightBadGeom), 1);
  EXPECT_EQ(counters.Get(counter::kRightRows), 1);
  EXPECT_EQ(built->ids[0], 1);

  // Geom-kernel flavour: EMPTY records are indexed (empty envelope) but
  // can never appear as a filter candidate, so probes only match the real
  // polygon. Same observable output as the drop above.
  std::vector<IdGeometry> records;
  auto empty_poly = geom::ReadWkt("POLYGON EMPTY");
  ASSERT_TRUE(empty_poly.ok());
  records.push_back(IdGeometry{0, std::move(empty_poly).value()});
  auto square = geom::ReadWkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  ASSERT_TRUE(square.ok());
  records.push_back(IdGeometry{1, std::move(square).value()});
  BroadcastIndex index(std::move(records), /*radius=*/0.0, PrepareOptions());
  EXPECT_EQ(index.size(), 2);

  auto probe_geom = geom::ReadWkt("POINT (2 2)");
  ASSERT_TRUE(probe_geom.ok());
  IdGeometry probe{42, std::move(probe_geom).value()};
  const std::vector<IdPair> out =
      ProbeOne(index, probe, SpatialPredicate::Within());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], IdPair(42, 1));
}

TEST(RightBuilderTest, PrepareThresholdGatesGridConstruction) {
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  const std::string text =
      "0\tPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n"  // 5 points < threshold
      "1\t" + BigPolygonWkt() + "\n"              // 13 points >= threshold
      "2\tPOINT (1 1)\n";                         // not a polygon
  auto built = BuildFrom(&fs, text, PrepareOptions::Prepared(), &counters);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_EQ(built->size(), 3);
  EXPECT_EQ(built->NumPrepared(), 1);
  EXPECT_EQ(counters.Get(counter::kPreparedRecords), 1);
  ASSERT_EQ(built->prepared.size(), 3u);
  EXPECT_EQ(built->prepared[0], nullptr);
  EXPECT_NE(built->prepared[1], nullptr);
  EXPECT_EQ(built->prepared[2], nullptr);

  // Preparation off: no grids at all (not even empty slots).
  Counters exact_counters;
  auto exact = BuildFrom(&fs, text, PrepareOptions(), &exact_counters);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_TRUE(exact->prepared.empty());
  EXPECT_EQ(exact_counters.Get(counter::kPreparedRecords), 0);
}

TEST(RightBuilderTest, GeomAndGeosFlavoursIndexTheSameEnvelopes) {
  // The same records fed through the two ingest paths must produce trees
  // with identical slot counts (the engines rely on slot == record index).
  check::DifferentialCase c = check::GenerateCase(3);
  RightIndexBuilder geos_builder(/*radius=*/0.0, PrepareOptions());
  for (const auto& record : c.right.records) {
    std::string wkt = check::FormatWkt(record.geometry);
    auto parsed = ParseGeosWkt(wkt);
    ASSERT_TRUE(parsed.ok()) << wkt;
    geos_builder.AddGeosRecord(record.id, wkt, **parsed);
  }
  BuiltRight geos_side = geos_builder.Finish();

  RightIndexBuilder geom_builder(/*radius=*/0.0, PrepareOptions());
  geom_builder.AddGeomRecords(c.right.records);
  BuiltRight geom_side = geom_builder.Finish();

  EXPECT_EQ(geos_side.size(), geom_side.size());
  EXPECT_EQ(geos_side.tree->num_entries(), geom_side.tree->num_entries());
}

TEST(BuiltRightTest, MemoryBytesCoversComponentSum) {
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  const std::string text =
      "0\t" + BigPolygonWkt() + "\n" +
      "1\tPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n"
      "2\tPOINT (1 1)\n";
  auto built = BuildFrom(&fs, text, PrepareOptions::Prepared(), &counters);
  ASSERT_TRUE(built.ok()) << built.status();

  int64_t component_sum = 0;
  component_sum += static_cast<int64_t>(built->ids.size() * sizeof(int64_t));
  for (const std::string& s : built->wkt) {
    component_sum += static_cast<int64_t>(s.capacity());
  }
  for (const auto& p : built->prepared) {
    if (p != nullptr) component_sum += p->MemoryBytes();
  }
  component_sum += built->tree->MemoryBytes();
  component_sum += built->packed->MemoryBytes();
  EXPECT_GE(built->MemoryBytes(), component_sum);
  EXPECT_GT(built->NumPrepared(), 0);
}

TEST(RefinerTest, BadWktInRefinementIsCountedNotSilent) {
  ProbeStats stats;
  EXPECT_FALSE(RefineGeosWkt("POINT (1 1)", "POLYGON ((not wkt",
                             SpatialPredicate::Within(), &stats));
  EXPECT_EQ(stats.Get(Stat::kRefineParseError), 1);
  EXPECT_FALSE(RefineGeosWkt("garbage", "POINT (1 1)",
                             SpatialPredicate::Intersects(), &stats));
  EXPECT_EQ(stats.Get(Stat::kRefineParseError), 2);

  Counters counters;
  stats.FlushTo(&counters);
  EXPECT_EQ(counters.Get(counter::kRefineParseError), 2);
}

/// The load-bearing contrast of the paper — JTS-role flat kernel vs
/// GEOS-role re-parsing kernel — must agree on every predicate over the
/// differential edge-case corpus (slivers, boundary points, EMPTY, huge
/// coordinates). This is the single-dispatch-point parity check: both
/// sides of the contrast live in exec/refiner.h.
TEST(RefinerTest, JtsAndGeosKernelsAgreeOnDifferentialCorpus) {
  int64_t pairs_checked = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    check::DifferentialCase c = check::GenerateCase(seed);
    const std::vector<SpatialPredicate> predicates = {
        c.predicate, SpatialPredicate::Within(),
        SpatialPredicate::Intersects(), SpatialPredicate::NearestD(0.5)};
    for (const auto& l : c.left.records) {
      const std::string left_wkt = check::FormatWkt(l.geometry);
      for (const auto& r : c.right.records) {
        const std::string right_wkt = check::FormatWkt(r.geometry);
        const bool has_empty = l.geometry.IsEmpty() || r.geometry.IsEmpty();
        for (const SpatialPredicate& predicate : predicates) {
          const bool jts = RefineGeomPair(l.geometry, r.geometry, predicate);
          ProbeStats stats;
          const bool geos =
              RefineGeosWkt(left_wkt, right_wkt, predicate, &stats);
          if (has_empty) {
            // EMPTY WKT is a parse error in the GEOS-role reader (counted,
            // treated as non-match); the flat kernel must agree it cannot
            // match, or the drop would change join output.
            ASSERT_EQ(stats.Get(Stat::kRefineParseError), 1)
                << left_wkt << " / " << right_wkt;
            ASSERT_FALSE(geos);
            ASSERT_FALSE(jts)
                << "seed=" << seed << " predicate=" << predicate.ToString()
                << "\n  left=" << left_wkt << "\n  right=" << right_wkt;
          } else {
            ASSERT_EQ(stats.Get(Stat::kRefineParseError), 0)
                << left_wkt << " / " << right_wkt;
            ASSERT_EQ(jts, geos)
                << "seed=" << seed << " predicate=" << predicate.ToString()
                << "\n  left=" << left_wkt << "\n  right=" << right_wkt;
          }
          ++pairs_checked;
        }
      }
    }
  }
  // The corpus must actually exercise the contrast.
  EXPECT_GT(pairs_checked, 1000);
}

TEST(ProbeScannerTest, CountsLeftMalformedAndBadGeom) {
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  const std::string text =
      "3\tPOINT (1 1)\n"
      "no-geometry-column\n"              // too few columns -> malformed
      "nan-id\tPOINT (2 2)\n"             // bad id -> malformed
      "4\tPOINT (oops\n"                  // bad geometry -> bad_geom
      "5\tPOINT (2 3)\n";
  CLOUDJOIN_CHECK(fs.WriteFile("/tables/left.tbl", text).ok());
  auto file = fs.GetFile("/tables/left.tbl");
  ASSERT_TRUE(file.ok());

  TableInput left;
  left.path = "/tables/left.tbl";
  ProbeStats stats;
  ProbeScanner scanner(left, &stats);
  GeosProbeBatch batch;
  scanner.ScanBlock(**file, 0, static_cast<int64_t>(text.size()), &batch);

  EXPECT_EQ(stats.Get(Stat::kLeftMalformed), 2);
  EXPECT_EQ(stats.Get(Stat::kLeftBadGeom), 1);
  ASSERT_EQ(batch.size(), 2);
  EXPECT_EQ(batch.ids[0], 3);
  EXPECT_EQ(batch.ids[1], 5);
  EXPECT_EQ(batch.wkt[0], "POINT (1 1)");
  ASSERT_EQ(batch.geoms.size(), 2u);
  EXPECT_NE(batch.geoms[1], nullptr);
}

TEST(ProbeScannerTest, ScanAppendsWithoutClearing) {
  // Callers own the batch lifecycle: a second ScanBlock appends, so an
  // engine can aggregate several DFS blocks into one refinement batch.
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  const std::string text = "1\tPOINT (1 1)\n2\tPOINT (2 2)\n";
  CLOUDJOIN_CHECK(fs.WriteFile("/tables/left.tbl", text).ok());
  auto file = fs.GetFile("/tables/left.tbl");
  ASSERT_TRUE(file.ok());

  TableInput left;
  left.path = "/tables/left.tbl";
  ProbeStats stats;
  ProbeScanner scanner(left, &stats);
  GeosProbeBatch batch;
  scanner.ScanBlock(**file, 0, static_cast<int64_t>(text.size()), &batch);
  scanner.ScanBlock(**file, 0, static_cast<int64_t>(text.size()), &batch);
  EXPECT_EQ(batch.size(), 4);
  batch.Clear();
  EXPECT_EQ(batch.size(), 0);
  EXPECT_TRUE(batch.wkt.empty());
}

TEST(ProbeScannerTest, RunGeosProbesMatchesNestedLoopOracle) {
  // End-to-end through the core only: build the right side, scan the left
  // side, run the shared two-phase driver, and compare against the O(n*m)
  // oracle over the same GEOS-role refinement.
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  const std::string right_text =
      "0\tPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n"
      "1\tPOLYGON ((10 10, 14 10, 14 14, 10 14, 10 10))\n";
  auto right = BuildFrom(&fs, right_text, PrepareOptions(), &counters);
  ASSERT_TRUE(right.ok()) << right.status();

  const std::string left_text =
      "100\tPOINT (1 1)\n"
      "101\tPOINT (12 12)\n"
      "102\tPOINT (7 7)\n"     // in neither polygon
      "103\tPOINT (3 3)\n";
  CLOUDJOIN_CHECK(fs.WriteFile("/tables/left.tbl", left_text).ok());
  auto left_file = fs.GetFile("/tables/left.tbl");
  ASSERT_TRUE(left_file.ok());

  TableInput left;
  left.path = "/tables/left.tbl";
  ProbeStats scan_stats;
  ProbeScanner scanner(left, &scan_stats);
  GeosProbeBatch batch;
  scanner.ScanBlock(**left_file, 0, static_cast<int64_t>(left_text.size()),
                    &batch);
  ASSERT_EQ(batch.size(), 4);

  const SpatialPredicate predicate = SpatialPredicate::Within();
  std::vector<IdPair> pairs;
  ProbeStats stats;
  RunGeosProbes(batch, *right, predicate, index::ProbeOptions(),
                [&](IdPair p) { pairs.push_back(p); }, &stats);

  std::vector<IdPair> oracle;
  for (int64_t i = 0; i < batch.size(); ++i) {
    for (size_t slot = 0; slot < right->wkt.size(); ++slot) {
      ProbeStats scratch;
      if (RefineGeosWkt(batch.wkt[static_cast<size_t>(i)], right->wkt[slot],
                        predicate, &scratch)) {
        oracle.push_back(
            IdPair(batch.ids[static_cast<size_t>(i)], right->ids[slot]));
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  std::sort(oracle.begin(), oracle.end());
  EXPECT_EQ(pairs, oracle);
  EXPECT_EQ(stats.Get(Stat::kMatches),
            static_cast<int64_t>(oracle.size()));
  EXPECT_GE(stats.Get(Stat::kCandidates), stats.Get(Stat::kMatches));
  EXPECT_GT(stats.Get(Stat::kFilterBatches), 0);
}

TEST(PrepareOptionsTest, FingerprintCoversResultRelevantKnobsOnly) {
  EXPECT_EQ(PrepareOptions().Fingerprint(), "exact");
  PrepareOptions a = PrepareOptions::Prepared();
  PrepareOptions b = PrepareOptions::Prepared();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_NE(a.Fingerprint(), PrepareOptions().Fingerprint());

  b.min_vertices = a.min_vertices + 1;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a;
  b.grid_side = a.grid_side * 2;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());

  // The worker pool changes build wall-clock, never the built structure,
  // so it must NOT change cache identity.
  ThreadPool pool(2);
  b = a;
  b.pool = &pool;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(SpatialPredicateTest, FilterRadiusFollowsOperator) {
  EXPECT_EQ(SpatialPredicate::Within().FilterRadius(), 0.0);
  EXPECT_EQ(SpatialPredicate::Intersects().FilterRadius(), 0.0);
  EXPECT_EQ(SpatialPredicate::NearestD(250.0).FilterRadius(), 250.0);
  EXPECT_NE(SpatialPredicate::Within().ToString(),
            SpatialPredicate::Intersects().ToString());
  EXPECT_NE(SpatialPredicate::NearestD(1.0).ToString(),
            SpatialPredicate::NearestD(2.0).ToString());
}

TEST(GeosRefinerTest, TryPreparedAppliesOnlyToPreparedWithinPointProbes) {
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  const std::string text =
      "0\t" + BigPolygonWkt() + "\n" +           // prepared (13 vertices)
      "1\tPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n";  // below threshold
  auto right = BuildFrom(&fs, text, PrepareOptions::Prepared(), &counters);
  ASSERT_TRUE(right.ok()) << right.status();
  ASSERT_EQ(right->NumPrepared(), 1);

  const SpatialPredicate within = SpatialPredicate::Within();
  const GeosRefiner refiner(&*right, &within);
  auto inside = ParseGeosWkt("POINT (10 10)");  // centre of the big ring
  ASSERT_TRUE(inside.ok());

  ProbeStats stats;
  bool match = false;
  // Prepared slot + point probe + kWithin: fast path fires and decides.
  EXPECT_TRUE(refiner.TryPrepared(**inside, 0, &stats, &match));
  EXPECT_TRUE(match);
  EXPECT_EQ(stats.Get(Stat::kPreparedHits), 1);

  // Unprepared slot: fast path declines, caller refines itself.
  EXPECT_FALSE(refiner.TryPrepared(**inside, 1, &stats, &match));
  EXPECT_EQ(stats.Get(Stat::kPreparedHits), 1);

  // Non-point probe: declines even on the prepared slot.
  auto poly_probe = ParseGeosWkt("POLYGON ((9 9, 11 9, 11 11, 9 11, 9 9))");
  ASSERT_TRUE(poly_probe.ok());
  EXPECT_FALSE(refiner.TryPrepared(**poly_probe, 0, &stats, &match));

  // Wrong operator: NearestD never takes the containment grid.
  const SpatialPredicate nearest = SpatialPredicate::NearestD(1.0);
  const GeosRefiner nearest_refiner(&*right, &nearest);
  EXPECT_FALSE(nearest_refiner.TryPrepared(**inside, 0, &stats, &match));
  EXPECT_EQ(stats.Get(Stat::kPreparedHits), 1);

  // Full Refine agrees with the pure WKT path on both slots.
  ProbeStats refine_stats;
  EXPECT_TRUE(refiner.Refine(**inside, "POINT (10 10)", 0, &refine_stats));
  EXPECT_FALSE(refiner.Refine(**inside, "POINT (10 10)", 1, &refine_stats));
}

TEST(ProbeStatsTest, MergeAndFlushAggregateAllFields) {
  // Every slot merges by addition and flushes under its own name; a zero
  // slot is not flushed at all, so a run's counter names stay the ones
  // it actually counted.
  ProbeStats a;
  ProbeStats b;
  for (size_t i = 0; i < kNumStats; ++i) {
    a.Add(static_cast<Stat>(i), static_cast<int64_t>(i) + 1);
    if (i % 2 == 0) b.Add(static_cast<Stat>(i), 100);
  }
  a.MergeFrom(b);
  Counters counters;
  a.FlushTo(&counters);
  EXPECT_EQ(counters.Snapshot().size(), kNumStats);
  for (size_t i = 0; i < kNumStats; ++i) {
    const int64_t expected =
        static_cast<int64_t>(i) + 1 + (i % 2 == 0 ? 100 : 0);
    EXPECT_EQ(a.Get(static_cast<Stat>(i)), expected) << kStatNames[i];
    EXPECT_EQ(counters.Get(kStatNames[i]), expected) << kStatNames[i];
  }
  EXPECT_STREQ(kStatNames[static_cast<size_t>(Stat::kCandidates)],
               counter::kCandidates);
  EXPECT_STREQ(kStatNames[static_cast<size_t>(Stat::kScanRowsMaterialized)],
               counter::kScanRowsMaterialized);

  Counters only_matches;
  ProbeStats c;
  c.Add(Stat::kMatches, 3);
  c.FlushTo(&only_matches);
  EXPECT_EQ(only_matches.Snapshot().size(), 1u);
  EXPECT_EQ(only_matches.Get(counter::kMatches), 3);
  // Flushing to nullptr is the documented no-op.
  a.FlushTo(nullptr);
}

TEST(BroadcastIndexTest, FilterRadiusWidensIndexedEnvelopesForNearestD) {
  // The build radius must match the predicate's FilterRadius(): a
  // NearestD(1.0) probe finds a polygon 0.5 away only when the index was
  // built with that expansion.
  auto make_records = [] {
    std::vector<IdGeometry> records;
    auto square = geom::ReadWkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
    CLOUDJOIN_CHECK(square.ok());
    records.push_back(IdGeometry{1, std::move(square).value()});
    return records;
  };
  const SpatialPredicate nearest = SpatialPredicate::NearestD(1.0);
  auto probe_geom = geom::ReadWkt("POINT (4.5 2)");  // 0.5 from the square
  ASSERT_TRUE(probe_geom.ok());
  IdGeometry probe{7, std::move(probe_geom).value()};

  BroadcastIndex widened(make_records(), nearest.FilterRadius(),
                         PrepareOptions());
  const std::vector<IdPair> out = ProbeOne(widened, probe, nearest);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], IdPair(7, 1));

  BroadcastIndex unwidened(make_records(), /*radius=*/0.0, PrepareOptions());
  EXPECT_TRUE(ProbeOne(unwidened, probe, nearest).empty());
}

TEST(BroadcastIndexTest, CoreExposesSharedBuiltRight) {
  std::vector<IdGeometry> records;
  auto polygon = geom::ReadWkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  ASSERT_TRUE(polygon.ok());
  records.push_back(IdGeometry{5, std::move(polygon).value()});
  BroadcastIndex index(std::move(records), /*radius=*/0.0,
                       PrepareOptions());
  EXPECT_EQ(index.size(), 1);
  EXPECT_EQ(index.core().records.size(), 1u);
  EXPECT_TRUE(index.core().ids.empty());  // geom flavour
  EXPECT_GE(index.MemoryBytes(), index.core().tree->MemoryBytes());

  auto probe_geom = geom::ReadWkt("POINT (1 1)");
  ASSERT_TRUE(probe_geom.ok());
  IdGeometry probe{9, std::move(probe_geom).value()};
  const std::vector<IdPair> out =
      ProbeOne(index, probe, SpatialPredicate::Within());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], IdPair(9, 5));
}

TEST(SFilterProbeTest, SkipsEmptyRegionsWithoutChangingResults) {
  // Right side clustered in the lower-left; probes mostly in the empty
  // upper-right, where the sFilter proves zero candidates before descent.
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  std::string right_text;
  for (int i = 0; i < 16; ++i) {
    double x = (i % 4) * 2.0;
    double y = (i / 4) * 2.0;
    right_text += std::to_string(i) + "\tPOLYGON ((" + std::to_string(x) +
                  " " + std::to_string(y) + ", " + std::to_string(x + 1) +
                  " " + std::to_string(y) + ", " + std::to_string(x + 1) +
                  " " + std::to_string(y + 1) + ", " + std::to_string(x) +
                  " " + std::to_string(y + 1) + ", " + std::to_string(x) +
                  " " + std::to_string(y) + "))\n";
  }
  auto right = BuildFrom(&fs, right_text, PrepareOptions(), &counters);
  ASSERT_TRUE(right.ok()) << right.status();
  ASSERT_NE(right->sfilter, nullptr);
  // The membership bitmap is part of the broadcast payload accounting.
  EXPECT_GE(right->MemoryBytes(), right->sfilter->MemoryBytes());

  std::string left_text;
  for (int i = 0; i < 64; ++i) {
    // Anchor the probe extent at the build cluster, then spread probes over
    // a much larger area so most fall where no build envelope lives.
    double x = 0.5 + (i % 8) * 13.0;
    double y = 0.5 + (i / 8) * 13.0;
    left_text += std::to_string(100 + i) + "\tPOINT (" + std::to_string(x) +
                 " " + std::to_string(y) + ")\n";
  }
  CLOUDJOIN_CHECK(fs.WriteFile("/tables/left.tbl", left_text).ok());
  auto left_file = fs.GetFile("/tables/left.tbl");
  ASSERT_TRUE(left_file.ok());
  TableInput left;
  left.path = "/tables/left.tbl";
  ProbeStats scan_stats;
  ProbeScanner scanner(left, &scan_stats);
  GeosProbeBatch batch;
  scanner.ScanBlock(**left_file, 0, static_cast<int64_t>(left_text.size()),
                    &batch);
  ASSERT_EQ(batch.size(), 64);

  const SpatialPredicate predicate = SpatialPredicate::Within();
  auto run = [&](bool sfilter_on) {
    index::ProbeOptions options;
    options.sfilter = sfilter_on;
    std::vector<IdPair> pairs;
    ProbeStats stats;
    RunGeosProbes(batch, *right, predicate, options,
                  [&](IdPair p) { pairs.push_back(p); }, &stats);
    std::sort(pairs.begin(), pairs.end());
    return std::make_pair(pairs, stats);
  };
  auto [on_pairs, on_stats] = run(true);
  auto [off_pairs, off_stats] = run(false);

  // Byte-identical results; the filter only removes provably-empty work.
  EXPECT_EQ(on_pairs, off_pairs);
  EXPECT_FALSE(on_pairs.empty());
  EXPECT_GT(on_stats.Get(Stat::kSfilterSkipped), 0);
  EXPECT_EQ(off_stats.Get(Stat::kSfilterSkipped), 0);
  EXPECT_EQ(on_stats.Get(Stat::kMatches), off_stats.Get(Stat::kMatches));
  EXPECT_LT(
      on_stats.Get(Stat::kFilterBatches) + on_stats.Get(Stat::kCandidates),
      off_stats.Get(Stat::kFilterBatches) + off_stats.Get(Stat::kCandidates) +
          1);

  Counters flushed;
  on_stats.FlushTo(&flushed);
  EXPECT_EQ(flushed.Get(counter::kSfilterSkipped),
            on_stats.Get(Stat::kSfilterSkipped));
}

TEST(TiledRightTest, ShardsReplicateAndCoverTheBroadcastTree) {
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  std::string right_text;
  for (int i = 0; i < 40; ++i) {
    double x = (i % 8) * 10.0;
    double y = (i / 8) * 10.0;
    right_text += std::to_string(i) + "\tPOLYGON ((" + std::to_string(x) +
                  " " + std::to_string(y) + ", " + std::to_string(x + 3) +
                  " " + std::to_string(y) + ", " + std::to_string(x + 3) +
                  " " + std::to_string(y + 3) + ", " + std::to_string(x) +
                  " " + std::to_string(y + 3) + ", " + std::to_string(x) +
                  " " + std::to_string(y) + "))\n";
  }
  auto right = BuildFrom(&fs, right_text, PrepareOptions(), &counters);
  ASSERT_TRUE(right.ok()) << right.status();

  TiledRightOptions options;
  options.num_tiles = 8;
  options.adaptive = false;
  auto tiled = BuildTiledRight(*right, options, &counters);
  ASSERT_NE(tiled, nullptr);
  EXPECT_EQ(tiled->num_tiles(), 8);
  EXPECT_EQ(tiled->hot_tiles_split(), 0);

  // Every record appears in at least one tile; replication can only add.
  int64_t total_slots = 0;
  std::set<int64_t> rows_seen;
  for (int t = 0; t < tiled->num_tiles(); ++t) {
    EXPECT_EQ(tiled->packed(t).num_entries(),
              static_cast<int64_t>(tiled->slots(t).size()));
    for (const auto& slot : tiled->slots(t)) {
      rows_seen.insert(slot.row);
      ++total_slots;
    }
  }
  EXPECT_EQ(rows_seen.size(), static_cast<size_t>(right->size()));
  EXPECT_GE(total_slots, right->size());
}

TEST(TiledRightTest, AdaptiveSplitsHotTilesAndCountsThem) {
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  // Build records uniform (the BSP layout comes out balanced); the probe
  // hotspot below then lands entirely inside one tile and dominates the
  // cost estimate — the skew case the static layout cannot see.
  std::string right_text;
  for (int i = 0; i < 64; ++i) {
    double x = (i % 8) * 10.0;
    double y = (i / 8) * 10.0;
    right_text += std::to_string(i) + "\tPOLYGON ((" + std::to_string(x) +
                  " " + std::to_string(y) + ", " + std::to_string(x + 3) +
                  " " + std::to_string(y) + ", " + std::to_string(x + 3) +
                  " " + std::to_string(y + 3) + ", " + std::to_string(x) +
                  " " + std::to_string(y + 3) + ", " + std::to_string(x) +
                  " " + std::to_string(y) + "))\n";
  }
  auto right = BuildFrom(&fs, right_text, PrepareOptions(), &counters);
  ASSERT_TRUE(right.ok()) << right.status();

  // Probe sample packed into one corner of the extent.
  std::vector<geom::Point> probe_sample;
  for (int i = 0; i < 400; ++i) {
    probe_sample.push_back(
        geom::Point{(i % 20) * 0.2, (i / 20) * 0.2});
  }
  TiledRightOptions options;
  options.num_tiles = 4;
  options.adaptive = true;
  options.skew_factor = 1.5;
  options.probe_sample = &probe_sample;
  auto tiled = BuildTiledRight(*right, options, &counters);
  ASSERT_NE(tiled, nullptr);
  EXPECT_GT(tiled->hot_tiles_split(), 0);
  EXPECT_GT(tiled->num_tiles(), 4);
  EXPECT_LE(tiled->num_tiles(), 4 * options.max_tiles_factor);
  EXPECT_EQ(counters.Get(counter::kHotTilesSplit), tiled->hot_tiles_split());
}

TEST(TiledRightTest, EmptyRightSideYieldsNoTiling) {
  dfs::SimFileSystem fs(4, /*block_size=*/16 * 1024);
  Counters counters;
  auto right = BuildFrom(&fs, "", PrepareOptions(), &counters);
  ASSERT_TRUE(right.ok()) << right.status();
  EXPECT_EQ(BuildTiledRight(*right, TiledRightOptions(), &counters), nullptr);

  // Entries whose envelopes are all empty (EMPTY geometries through the
  // geom kernel): the tree bounds are empty, and nothing can match.
  RightIndexBuilder builder(/*radius=*/0.0, PrepareOptions());
  builder.AddGeomRecords({{0, geom::Geometry(geom::GeometryType::kPolygon)},
                          {1, geom::Geometry(geom::GeometryType::kPolygon)}});
  const BuiltRight empties = builder.Finish(&counters);
  ASSERT_EQ(empties.tree->num_entries(), 2);
  EXPECT_EQ(BuildTiledRight(empties, TiledRightOptions(), &counters), nullptr);
}

}  // namespace
}  // namespace cloudjoin::exec
