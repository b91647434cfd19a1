#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "geom/envelope_batch.h"
#include "index/batch_prober.h"
#include "index/packed_str_tree.h"
#include "index/probe_options.h"
#include "index/simd_filter.h"
#include "index/str_tree.h"
#include "join/broadcast_spatial_join.h"

namespace cloudjoin::index {
namespace {

using geom::Envelope;
using geom::EnvelopeBatch;
using geom::Point;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::vector<StrTree::Entry> RandomEntries(Rng* rng, int n, double extent) {
  std::vector<StrTree::Entry> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) {
    double x = rng->Uniform(0, extent);
    double y = rng->Uniform(0, extent);
    double w = rng->Uniform(0, extent / 40);
    double h = rng->Uniform(0, extent / 40);
    entries.push_back(StrTree::Entry{Envelope(x, y, x + w, y + h), i});
  }
  return entries;
}

/// Runs one query through both walks and returns (pointer, packed) emit
/// sequences — the packed tree's contract is order equality, not just set
/// equality.
std::pair<std::vector<int64_t>, std::vector<int64_t>> BothWalks(
    const StrTree& tree, const PackedStrTree& packed, const Envelope& query) {
  std::vector<int64_t> from_pointer;
  tree.VisitQuery(query, [&](int64_t id) { from_pointer.push_back(id); });
  std::vector<int64_t> from_packed;
  packed.VisitQuery(query, [&](int64_t id) { from_packed.push_back(id); });
  return {std::move(from_pointer), std::move(from_packed)};
}

// ---------------------------------------------------------------------------
// Kernel-level parity: the branch-free chunk kernel must agree with
// Envelope::Intersects bit for bit, including degenerate entry boxes.
// ---------------------------------------------------------------------------

TEST(SimdFilterTest, KernelMatchesEnvelopeIntersects) {
  // Entry mix: ordinary boxes, zero-extent points, the empty-envelope
  // sentinel (+inf mins / -inf maxes), and NaN boxes (POLYGON EMPTY's
  // envelope when parsed through the GEOS-role reader).
  std::vector<Envelope> boxes = {
      Envelope(0, 0, 10, 10),     Envelope(5, 5, 5, 5),
      Envelope(20, 20, 21, 21),   Envelope(),
      Envelope(kNan, kNan, kNan, kNan),
      Envelope(3, kNan, 7, kNan), Envelope(-4, -4, -1, -1),
      Envelope(9, 9, 9, 9),
  };
  Rng rng(7);
  while (boxes.size() < 61) {  // odd count: exercises the scalar tail
    double x = rng.Uniform(-50, 50);
    double y = rng.Uniform(-50, 50);
    boxes.push_back(
        Envelope(x, y, x + rng.Uniform(0, 5), y + rng.Uniform(0, 5)));
  }
  std::vector<double> min_x, min_y, max_x, max_y;
  for (const Envelope& b : boxes) {
    min_x.push_back(b.min_x());
    min_y.push_back(b.min_y());
    max_x.push_back(b.max_x());
    max_y.push_back(b.max_y());
  }
  const int n = static_cast<int>(boxes.size());
  FilterChunkFn resolved = ResolveFilterChunk();

  std::vector<Envelope> queries = {Envelope(0, 0, 50, 50),
                                   Envelope(4, 4, 6, 6),
                                   Envelope(9, 9, 9, 9),
                                   Envelope(-100, -100, 100, 100),
                                   Envelope(200, 200, 300, 300)};
  for (const Envelope& q : queries) {
    ASSERT_FALSE(q.IsEmpty());  // the tree rejects degenerate queries
    uint64_t scalar =
        FilterChunkScalar(min_x.data(), min_y.data(), max_x.data(),
                          max_y.data(), n, q.min_x(), q.min_y(), q.max_x(),
                          q.max_y());
    uint64_t best = resolved(min_x.data(), min_y.data(), max_x.data(),
                             max_y.data(), n, q.min_x(), q.min_y(), q.max_x(),
                             q.max_y());
    EXPECT_EQ(scalar, best) << "scalar and resolved kernels diverge";
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ((scalar >> i) & 1, boxes[i].Intersects(q) ? 1u : 0u)
          << "entry " << i << " query " << q.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Tree-level parity: packed walk == pointer walk, same ids, same order.
// ---------------------------------------------------------------------------

TEST(PackedStrTreeTest, MatchesPointerTreeInOrder) {
  Rng rng(11);
  auto entries = RandomEntries(&rng, 500, 100.0);
  StrTree tree(entries);
  PackedStrTree packed(tree);
  EXPECT_EQ(packed.num_entries(), tree.num_entries());

  for (int i = 0; i < 200; ++i) {
    double x = rng.Uniform(-10, 110);
    double y = rng.Uniform(-10, 110);
    Envelope query(x, y, x + rng.Uniform(0, 20), y + rng.Uniform(0, 20));
    auto [from_pointer, from_packed] = BothWalks(tree, packed, query);
    EXPECT_EQ(from_pointer, from_packed) << "query " << query.ToString();
  }
}

TEST(PackedStrTreeTest, DegenerateQueriesMatchPointerTree) {
  Rng rng(13);
  auto entries = RandomEntries(&rng, 64, 100.0);
  // A zero-extent entry at a known spot, hit by a zero-extent query.
  entries.push_back(StrTree::Entry{Envelope(50, 50, 50, 50), 1000});
  StrTree tree(entries);
  PackedStrTree packed(tree);

  const std::vector<Envelope> queries = {
      Envelope(),                            // empty sentinel
      Envelope(kNan, kNan, kNan, kNan),      // POLYGON EMPTY envelope
      Envelope(50, 50, 50, 50),              // zero-extent, on an entry
      Envelope(-5, -5, -5, -5),              // zero-extent, off the tree
  };
  for (const Envelope& query : queries) {
    auto [from_pointer, from_packed] = BothWalks(tree, packed, query);
    EXPECT_EQ(from_pointer, from_packed) << "query " << query.ToString();
    if (query.IsEmpty()) {
      EXPECT_TRUE(from_packed.empty());
    }
  }
  // The degenerate zero-extent query on an entry must actually hit it.
  std::vector<int64_t> hits;
  packed.VisitQuery(Envelope(50, 50, 50, 50),
                    [&](int64_t id) { hits.push_back(id); });
  EXPECT_NE(std::find(hits.begin(), hits.end(), 1000), hits.end());
}

TEST(PackedStrTreeTest, EmptyTree) {
  StrTree tree({});
  PackedStrTree packed(tree);
  EXPECT_EQ(packed.num_entries(), 0);
  std::vector<int64_t> hits;
  packed.VisitQuery(Envelope(0, 0, 100, 100),
                    [&](int64_t id) { hits.push_back(id); });
  EXPECT_TRUE(hits.empty());
  EnvelopeBatch batch;
  batch.Add(Envelope(0, 0, 1, 1));
  PairSink sink;
  EXPECT_EQ(packed.BatchQuery(batch, &sink), 0);
  EXPECT_TRUE(sink.empty());
}

TEST(PackedStrTreeTest, BatchQueryGroupsByProbe) {
  Rng rng(17);
  auto entries = RandomEntries(&rng, 300, 100.0);
  StrTree tree(entries);
  PackedStrTree packed(tree);

  EnvelopeBatch batch;
  std::vector<Envelope> queries;
  for (int i = 0; i < 37; ++i) {
    double x = rng.Uniform(0, 100);
    double y = rng.Uniform(0, 100);
    queries.push_back(Envelope(x, y, x + 8, y + 8));
    batch.Add(queries.back());
  }
  PairSink sink;
  packed.BatchQuery(batch, &sink);

  // Candidates arrive probe-ascending; per probe they replay VisitQuery.
  size_t c = 0;
  for (int32_t p = 0; p < 37; ++p) {
    std::vector<int64_t> expected;
    packed.VisitQuery(queries[static_cast<size_t>(p)],
                      [&](int64_t id) { expected.push_back(id); });
    for (int64_t id : expected) {
      ASSERT_LT(c, sink.size());
      EXPECT_EQ(sink.probe(c), p);
      EXPECT_EQ(sink.id(c), id);
      ++c;
    }
  }
  EXPECT_EQ(c, sink.size());
}

TEST(PackedStrTreeTest, MemoryBytesGrowsWithEntries) {
  Rng rng(19);
  StrTree small(RandomEntries(&rng, 10, 100.0));
  StrTree large(RandomEntries(&rng, 1000, 100.0));
  PackedStrTree packed_small(small);
  PackedStrTree packed_large(large);
  EXPECT_GT(packed_small.MemoryBytes(), 0);
  EXPECT_GT(packed_large.MemoryBytes(), packed_small.MemoryBytes());
}

// ---------------------------------------------------------------------------
// Batch driver: every batch size replays the per-record sequence.
// ---------------------------------------------------------------------------

TEST(BatchProberTest, AllKnobCombosReplayPerRecordSequence) {
  Rng rng(23);
  auto entries = RandomEntries(&rng, 400, 100.0);
  StrTree tree(entries);
  PackedStrTree packed(tree);

  std::vector<Envelope> probes;
  for (int i = 0; i < 201; ++i) {  // non-multiple of every batch size
    double x = rng.Uniform(0, 100);
    double y = rng.Uniform(0, 100);
    probes.push_back(Envelope(x, y, x + 6, y + 6));
  }
  auto envelope_at = [&](int64_t i) {
    return probes[static_cast<size_t>(i)];
  };

  auto run = [&](const ProbeOptions& options) {
    std::vector<std::pair<int64_t, int64_t>> sequence;
    BatchStats stats;
    RunBatchedProbes(static_cast<int64_t>(probes.size()), packed, options,
                     envelope_at,
                     [&](int64_t i, int64_t id) { sequence.emplace_back(i, id); },
                     &stats);
    EXPECT_EQ(stats.candidates, static_cast<int64_t>(sequence.size()));
    return sequence;
  };

  // Reference: one pointer-tree walk per probe, in probe order.
  std::vector<std::pair<int64_t, int64_t>> reference;
  for (size_t i = 0; i < probes.size(); ++i) {
    tree.VisitQuery(probes[i], [&](int64_t id) {
      reference.emplace_back(static_cast<int64_t>(i), id);
    });
  }
  ASSERT_FALSE(reference.empty());
  for (int batch_size : {1, 7, 64, 1024}) {
    ProbeOptions options;
    options.batch_size = batch_size;
    EXPECT_EQ(run(options), reference) << "batch=" << batch_size;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the join emits identical pairs for every knob combination,
// counters flow, and parallel == serial.
// ---------------------------------------------------------------------------

std::vector<join::IdGeometry> GridPoints(int n, double extent) {
  std::vector<join::IdGeometry> out;
  const int side = static_cast<int>(std::sqrt(static_cast<double>(n))) + 1;
  for (int i = 0; i < n; ++i) {
    double x = extent * (i % side) / side;
    double y = extent * (i / side) / side;
    out.push_back(join::IdGeometry{i, geom::Geometry::MakePoint(x, y)});
  }
  return out;
}

std::vector<join::IdGeometry> GridCells(int n, double extent) {
  std::vector<join::IdGeometry> out;
  const int side = static_cast<int>(std::sqrt(static_cast<double>(n))) + 1;
  for (int i = 0; i < n; ++i) {
    double x = extent * (i % side) / side;
    double y = extent * (i / side) / side;
    double s = extent / side * 1.5;
    out.push_back(join::IdGeometry{
        1000 + i, geom::Geometry::MakePolygon({{Point{x, y}, Point{x + s, y},
                                                Point{x + s, y + s},
                                                Point{x, y + s}}})});
  }
  return out;
}

/// The per-record reference join: each probe walks a pointer StrTree over
/// the right envelopes with VisitQuery and refines its candidates in emit
/// order.
std::vector<join::IdPair> ReferenceJoin(
    const std::vector<join::IdGeometry>& left,
    const std::vector<join::IdGeometry>& right,
    const join::SpatialPredicate& predicate) {
  std::vector<StrTree::Entry> entries;
  for (size_t i = 0; i < right.size(); ++i) {
    Envelope env = right[i].geometry.envelope();
    env.ExpandBy(predicate.FilterRadius());
    entries.push_back(StrTree::Entry{env, static_cast<int64_t>(i)});
  }
  const StrTree tree(std::move(entries));
  std::vector<join::IdPair> out;
  for (const join::IdGeometry& probe : left) {
    tree.VisitQuery(probe.geometry.envelope(), [&](int64_t slot) {
      const join::IdGeometry& r = right[static_cast<size_t>(slot)];
      if (join::RefinePair(probe.geometry, r.geometry, predicate)) {
        out.emplace_back(probe.id, r.id);
      }
    });
  }
  return out;
}

TEST(ProbeOptionsJoinTest, ByteIdenticalAcrossKnobs) {
  auto left = GridPoints(300, 100.0);
  auto right = GridCells(40, 100.0);
  const auto predicate = join::SpatialPredicate::Within();

  const auto reference = ReferenceJoin(left, right, predicate);
  EXPECT_FALSE(reference.empty());

  for (int batch_size : {1, 7, 256}) {
    for (bool sfilter : {false, true}) {
      ProbeOptions options;
      options.batch_size = batch_size;
      options.sfilter = sfilter;
      Counters counters;
      auto pairs = join::BroadcastSpatialJoin(left, right, predicate,
                                              &counters,
                                              join::PrepareOptions(), options);
      EXPECT_EQ(pairs, reference)
          << "batch=" << batch_size << " sfilter=" << sfilter;
      EXPECT_GT(counters.Get("join.filter_batches"), 0);
      EXPECT_GT(counters.Get("join.filter_candidates"), 0);
    }
  }
}

TEST(ProbeOptionsJoinTest, ParallelMatchesSerialUnderAllKnobs) {
  auto left = GridPoints(257, 100.0);
  auto right = GridCells(30, 100.0);
  const auto predicate = join::SpatialPredicate::Within();
  const auto serial = join::BroadcastSpatialJoin(left, right, predicate);
  EXPECT_EQ(serial, ReferenceJoin(left, right, predicate));

  for (int threads : {1, 3, 8}) {
    ProbeOptions options;
    options.batch_size = 16;
    auto parallel = join::ParallelBroadcastSpatialJoin(
        left, right, predicate, threads, join::PrepareOptions(), nullptr,
        options);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace cloudjoin::index
