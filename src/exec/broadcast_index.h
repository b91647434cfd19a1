#ifndef CLOUDJOIN_EXEC_BROADCAST_INDEX_H_
#define CLOUDJOIN_EXEC_BROADCAST_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/built_right.h"
#include "exec/id_geometry.h"
#include "exec/prepare_options.h"
#include "exec/probe_driver.h"
#include "exec/probe_stats.h"
#include "exec/refiner.h"
#include "exec/spatial_predicate.h"
#include "index/probe_options.h"

namespace cloudjoin::exec {

/// The broadcast side of the join: the right-side records plus the STR-tree
/// over their (radius-expanded) envelopes, and — when prepared refinement
/// is enabled — a grid accelerator per sufficiently complex polygon.
/// Build once, probe from anywhere (probes are const and thread-safe).
///
/// This is the flat-kernel (JTS-role) face of the shared core: the build
/// goes through RightIndexBuilder and every candidate refines through
/// JtsRefiner, so engines stacked on top (SpatialSpark stages, partitioned
/// tiles, the kernel serving path) share one build and one refinement.
class BroadcastIndex {
 public:
  /// Builds the index; `radius` expands every envelope (NearestD filter).
  /// `prepare` controls prepared-geometry refinement (off = exact).
  BroadcastIndex(std::vector<IdGeometry> records, double radius,
                 const PrepareOptions& prepare = PrepareOptions());

  /// Probes every record of `probes` through the shared driver
  /// (RunProbes: sFilter, batched packed-tree filter, JtsRefiner), calling
  /// `emit(i, pair)` — `i` the probe's index within `probes` — for every
  /// match, probes ascending and per probe in tree emit order, for every
  /// `options` knob. Probing one record is a span of one. `stats` must be
  /// non-null.
  template <typename Emit>
  void Probe(std::span<const IdGeometry> probes,
             const SpatialPredicate& predicate,
             const index::ProbeOptions& options, Emit&& emit,
             ProbeStats* stats) const {
    RunProbes(
        static_cast<int64_t>(probes.size()), core_, options,
        [&](int64_t i) -> const geom::Envelope& {
          return probes[static_cast<size_t>(i)].geometry.envelope();
        },
        [&](int64_t i, int64_t slot) {
          return refiner_.Refine(probes[static_cast<size_t>(i)].geometry,
                                 static_cast<size_t>(slot), predicate,
                                 stats);
        },
        [&](int64_t i, int64_t slot) {
          emit(i, IdPair(probes[static_cast<size_t>(i)].id,
                         core_.records[static_cast<size_t>(slot)].id));
        },
        stats);
  }

  int64_t size() const { return core_.size(); }

  /// The shared built-right core (records + tree + grids).
  const BuiltRight& core() const { return core_; }

  /// Number of right-side records carrying a prepared grid (0 when
  /// preparation is disabled).
  int64_t num_prepared() const { return num_prepared_; }

  /// Wall-clock spent building prepared grids (0 when disabled).
  double prepare_seconds() const { return prepare_seconds_; }

  /// Approximate broadcast payload size (records + tree).
  int64_t MemoryBytes() const { return core_.MemoryBytes(); }

 private:
  BuiltRight core_;
  JtsRefiner refiner_;
  int64_t num_prepared_ = 0;
  double prepare_seconds_ = 0.0;
};

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_BROADCAST_INDEX_H_
