#ifndef CLOUDJOIN_EXEC_PROBE_DRIVER_H_
#define CLOUDJOIN_EXEC_PROBE_DRIVER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "exec/built_right.h"
#include "exec/probe_stats.h"
#include "exec/tiled_right.h"
#include "geom/envelope.h"
#include "index/batch_prober.h"
#include "index/packed_str_tree.h"
#include "index/probe_options.h"
#include "index/sfilter.h"
#include "index/spatial_partitioner.h"

namespace cloudjoin::exec {

/// The sFilter survivor pass: calls `keep(i)`, ascending, for every probe
/// i in [0, n) whose envelope `sfilter` cannot rule out, and returns how
/// many probes it dropped. A dropped probe has provably zero candidates
/// (the bitmap has no false negatives), so skipping it never changes
/// output. A null `sfilter` keeps every probe.
template <typename EnvelopeAt, typename Keep>
int64_t ForEachSFilterSurvivor(int64_t n, const index::SFilter* sfilter,
                               EnvelopeAt&& envelope_at, Keep&& keep) {
  int64_t kept = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (sfilter == nullptr || sfilter->MightIntersect(envelope_at(i))) {
      keep(i);
      ++kept;
    }
  }
  return n - kept;
}

/// The one filter -> refine loop every engine runs (RESQUE's single
/// build-then-probe loop): probes [0, n) go through the sFilter survivor
/// pass (under `options.sfilter`, when `sfilter` is non-null), then
/// through index::RunBatchedProbes over `packed` in arrival order, and
/// every candidate is handed to the engine's refiner. Candidate, match,
/// sFilter and filter-phase counts land in `stats` (non-null), so every
/// engine reports the same numbers.
///
/// Engines supply three callables:
///  - `envelope_at(i)`: probe i's query envelope;
///  - `refine(i, slot)`: whether probe i matches right slot `slot`, as a
///    bool — or `std::nullopt` when probe i cannot be refined at all (a
///    lazily materialized geometry failed to parse), which withdraws the
///    candidate uncounted;
///  - `emit(i, slot)`: called for every match, probes ascending and, per
///    probe, in tree emit order — the same sequence for every knob.
template <typename EnvelopeAt, typename Refine, typename Emit>
void RunProbes(int64_t n, const index::PackedStrTree& packed,
               const index::SFilter* sfilter,
               const index::ProbeOptions& options, EnvelopeAt&& envelope_at,
               Refine&& refine, Emit&& emit, ProbeStats* stats) {
  index::BatchStats filter_stats;
  auto run = [&](int64_t count, auto&& probe_of) {
    index::RunBatchedProbes(
        count, packed, options,
        [&](int64_t i) { return envelope_at(probe_of(i)); },
        [&](int64_t i, int64_t slot) {
          const int64_t probe = probe_of(i);
          const std::optional<bool> match = refine(probe, slot);
          if (!match.has_value()) return;
          stats->Add(Stat::kCandidates);
          if (!*match) return;
          stats->Add(Stat::kMatches);
          emit(probe, slot);
        },
        &filter_stats);
  };
  if (options.sfilter && sfilter != nullptr) {
    std::vector<int64_t> survivors;
    survivors.reserve(static_cast<size_t>(n));
    stats->Add(Stat::kSfilterSkipped,
               ForEachSFilterSurvivor(n, sfilter, envelope_at, [&](int64_t i) {
                 survivors.push_back(i);
               }));
    run(static_cast<int64_t>(survivors.size()),
        [&](int64_t i) { return survivors[static_cast<size_t>(i)]; });
  } else {
    run(n, [](int64_t i) { return i; });
  }
  stats->Add(Stat::kFilterBatches, filter_stats.batches);
  stats->Add(Stat::kFilterCandidates, filter_stats.candidates);
  stats->Add(Stat::kFilterSimdLanes, filter_stats.simd_lanes);
}

/// RunProbes against a whole built right side (its packed layout and
/// sFilter).
template <typename EnvelopeAt, typename Refine, typename Emit>
void RunProbes(int64_t n, const BuiltRight& right,
               const index::ProbeOptions& options, EnvelopeAt&& envelope_at,
               Refine&& refine, Emit&& emit, ProbeStats* stats) {
  RunProbes(n, *right.packed, right.sfilter.get(), options, envelope_at,
            refine, emit, stats);
}

/// One tile of a partitioned probe: RunProbes over the tile's packed tree,
/// except that a candidate whose reference point — the lower-left corner
/// of the probe envelope intersected with the right slot's expanded
/// envelope, `slot_envelope(slot)` — lies in another tile of `partitioner`
/// is withdrawn uncounted (`std::nullopt`) before refinement. A replicated
/// pair meets this test in every tile holding both records and exactly one
/// of them owns the point, so each pair is refined, counted and emitted
/// once: candidates and matches equal an untiled probe's.
template <typename EnvelopeAt, typename SlotEnvelope, typename Refine,
          typename Emit>
void RunTileProbes(const index::SpatialPartitioner& partitioner, int tile,
                   int64_t n, const index::PackedStrTree& packed,
                   const index::SFilter* sfilter,
                   const index::ProbeOptions& options,
                   EnvelopeAt&& envelope_at, SlotEnvelope&& slot_envelope,
                   Refine&& refine, Emit&& emit, ProbeStats* stats) {
  RunProbes(
      n, packed, sfilter, options, envelope_at,
      [&](int64_t i, int64_t slot) -> std::optional<bool> {
        if (partitioner.OwnerTileOf(envelope_at(i), slot_envelope(slot)) !=
            tile) {
          return std::nullopt;
        }
        return refine(i, slot);
      },
      emit, stats);
}

/// The partitioned probe: probes [0, n) pass the sFilter survivor pass
/// once (`sfilter` is the whole right side's, under `options.sfilter`),
/// each survivor is routed to every tile its envelope touches, and each
/// tile runs RunTileProbes over its own packed tree — tile-major, probes
/// ascending within a tile. `refine(i, row)` and `emit(i, row)` receive
/// the right *row* (the position in the BuiltRight the tiling was built
/// from), as RunProbes over that BuiltRight does, so one pair of
/// callables serves both. Counts land in `stats` and equal the untiled
/// probe's. When `tile_seconds` is non-null (one slot per tile), each
/// tile's CPU seconds are added to its slot.
template <typename EnvelopeAt, typename Refine, typename Emit>
void RunTiledProbes(int64_t n, const TiledRight& tiled,
                    const index::SFilter* sfilter,
                    const index::ProbeOptions& options,
                    EnvelopeAt&& envelope_at, Refine&& refine, Emit&& emit,
                    ProbeStats* stats,
                    std::vector<double>* tile_seconds = nullptr) {
  const index::SpatialPartitioner& partitioner = tiled.partitioner();
  std::vector<std::vector<int64_t>> tile_probes(
      static_cast<size_t>(tiled.num_tiles()));
  stats->Add(Stat::kSfilterSkipped,
             ForEachSFilterSurvivor(
                 n, options.sfilter ? sfilter : nullptr, envelope_at,
                 [&](int64_t i) {
                   for (int t : partitioner.TilesFor(envelope_at(i))) {
                     tile_probes[static_cast<size_t>(t)].push_back(i);
                   }
                 }));
  for (int t = 0; t < tiled.num_tiles(); ++t) {
    const std::vector<int64_t>& probes = tile_probes[static_cast<size_t>(t)];
    if (probes.empty() || tiled.packed(t).num_entries() == 0) continue;
    CpuTimer tile_watch;
    const std::vector<TiledRight::Slot>& slots = tiled.slots(t);
    auto probe_of = [&](int64_t i) { return probes[static_cast<size_t>(i)]; };
    auto row_of = [&](int64_t slot) {
      return slots[static_cast<size_t>(slot)].row;
    };
    RunTileProbes(
        partitioner, t, static_cast<int64_t>(probes.size()), tiled.packed(t),
        /*sfilter=*/nullptr, options,
        [&](int64_t i) -> decltype(auto) { return envelope_at(probe_of(i)); },
        [&](int64_t slot) -> const geom::Envelope& {
          return slots[static_cast<size_t>(slot)].envelope;
        },
        [&](int64_t i, int64_t slot) {
          return refine(probe_of(i), row_of(slot));
        },
        [&](int64_t i, int64_t slot) { emit(probe_of(i), row_of(slot)); },
        stats);
    if (tile_seconds != nullptr) {
      (*tile_seconds)[static_cast<size_t>(t)] += tile_watch.ElapsedSeconds();
    }
  }
}

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_PROBE_DRIVER_H_
