#ifndef CLOUDJOIN_EXEC_PREPARE_OPTIONS_H_
#define CLOUDJOIN_EXEC_PREPARE_OPTIONS_H_

#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "geom/prepared.h"

namespace cloudjoin::exec {

/// Tuning for prepared-geometry refinement: whether to build a
/// `geom::PreparedPolygon` per right-side polygon record, and when.
///
/// This is the paper's "boosting the performance of geometry operations"
/// future-work direction: when one polygon is refined against many point
/// probes (the broadcast-join access pattern), the grid preparation
/// amortizes and `kWithin` refinement drops from O(vertices) to O(1)
/// outside boundary cells.
struct PrepareOptions {
  /// Off by default: exact refinement, the seed behaviour.
  bool enabled = false;
  /// Only polygons with at least this many vertices are prepared; smaller
  /// ones refine exactly (preparation would cost more than it saves).
  int min_vertices = geom::kDefaultPrepareMinVertices;
  /// Upper bound on grid_side. Every prepared polygon allocates
  /// grid_side^2 one-byte cells and classifies them in
  /// O(grid_side^2 + vertices * grid_side), so 256 caps one polygon's
  /// grid at 64 KB, 64 times the default's.
  static constexpr int kMaxGridSide = 256;

  /// Grid resolution per axis (see PreparedPolygon).
  int grid_side = geom::kDefaultPreparedGridSide;
  /// Optional worker pool: when set, per-record preparation runs in
  /// parallel (records are independent). When null, preparation is serial.
  ThreadPool* pool = nullptr;

  static PrepareOptions Prepared(ThreadPool* pool = nullptr) {
    PrepareOptions options;
    options.enabled = true;
    options.pool = pool;
    return options;
  }

  /// InvalidArgument when grid_side exceeds kMaxGridSide (values below 1
  /// are clamped to one cell). Client-supplied prepare options are
  /// validated with this where they enter.
  Status Validate() const {
    if (grid_side > kMaxGridSide) {
      return Status::InvalidArgument(
          "prepared grid_side must be <= " + std::to_string(kMaxGridSide) +
          ", got " + std::to_string(grid_side));
    }
    return Status::OK();
  }

  /// Canonical rendering of the result-relevant build knobs (the pool only
  /// affects build wall-clock, never the built structure, so it is not
  /// part of the fingerprint). Serving-layer cache keys embed this.
  std::string Fingerprint() const {
    if (!enabled) return "exact";
    return "prepared:minv=" + std::to_string(min_vertices) +
           ":grid=" + std::to_string(grid_side);
  }
};

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_PREPARE_OPTIONS_H_
