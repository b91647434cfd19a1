#ifndef CLOUDJOIN_EXEC_PROBE_SCANNER_H_
#define CLOUDJOIN_EXEC_PROBE_SCANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "dfs/columnar_block.h"
#include "dfs/sim_file_system.h"
#include "exec/built_right.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "exec/id_geometry.h"
#include "exec/probe_driver.h"
#include "exec/probe_stats.h"
#include "exec/refiner.h"
#include "exec/spatial_predicate.h"
#include "exec/table_input.h"
#include "geosim/geometry.h"
#include "index/probe_options.h"

namespace cloudjoin::exec {

/// One row batch of parsed GEOS-kernel probes: ids, retained WKT (for the
/// per-pair re-parse refinement), and the parsed geometries (for the
/// envelope filter). Clear + refill per block; steady state reuses the
/// buffers.
struct GeosProbeBatch {
  std::vector<int64_t> ids;
  std::vector<std::string> wkt;
  std::vector<std::unique_ptr<geosim::Geometry>> geoms;

  void Clear() {
    ids.clear();
    wkt.clear();
    geoms.clear();
  }
  int64_t size() const { return static_cast<int64_t>(ids.size()); }
};

/// The one left-side record scan: splits each line of a block, parses
/// id + WKT, and counts malformed rows and bad geometries in the
/// Stat::kLeftMalformed / Stat::kLeftBadGeom slots of `stats` (non-null;
/// the caller flushes it). Every GEOS-kernel engine shell (standalone
/// blocks, Impala scan ranges) feeds its probe phase through this scan or
/// its row-level equivalent.
class ProbeScanner {
 public:
  ProbeScanner(const TableInput& input, ProbeStats* stats)
      : input_(input), stats_(stats) {}

  /// Appends every well-formed record in file[offset, offset+length) to
  /// `batch` (which is NOT cleared — callers own batch lifecycle).
  void ScanBlock(const dfs::SimFile& file, int64_t offset, int64_t length,
                 GeosProbeBatch* batch) const;

 private:
  TableInput input_;
  ProbeStats* stats_;
};

/// Accessor-based GEOS-kernel probe, for probe sets that are not laid out
/// as a `GeosProbeBatch` (e.g. the streaming window grid, which owns its
/// parsed geometries inside per-cell entries and cannot hand them to a
/// batch without cloning). `get_geom(i)` must return the parsed GEOS-role
/// geometry (convertible to `const geosim::Geometry&`), `get_wkt(i)` the
/// retained WKT text (`const std::string&` — the refiner re-parses it on
/// the prepared path), and `get_id(i)` the probe record id. Runs the
/// shared driver (RunProbes) with a GeosRefiner, calling `emit(i, IdPair)`
/// for every match of probe i, probes ascending and, per probe, in tree
/// emit order; `stats` must be non-null.
template <typename GetGeom, typename GetWkt, typename GetId, typename Emit>
void RunGeosProbes(int64_t count, GetGeom&& get_geom, GetWkt&& get_wkt,
                   GetId&& get_id, const BuiltRight& right,
                   const SpatialPredicate& predicate,
                   const index::ProbeOptions& probe_options, Emit&& emit,
                   ProbeStats* stats) {
  const GeosRefiner refiner(&right, &predicate);
  RunProbes(
      count, right, probe_options,
      [&](int64_t i) {
        const geosim::Geometry& g = get_geom(i);
        return g.getEnvelopeInternal();
      },
      [&](int64_t i, int64_t slot) {
        return refiner.Refine(get_geom(i), get_wkt(i),
                              static_cast<size_t>(slot), stats);
      },
      [&](int64_t i, int64_t slot) {
        emit(i, IdPair(get_id(i), right.ids[static_cast<size_t>(slot)]));
      },
      stats);
}

/// Runs one parsed probe batch through the shared driver, calling
/// `emit(IdPair)` for every match in probe order. `stats` must be non-null.
template <typename Emit>
void RunGeosProbes(const GeosProbeBatch& probes, const BuiltRight& right,
                   const SpatialPredicate& predicate,
                   const index::ProbeOptions& probe_options, Emit&& emit,
                   ProbeStats* stats) {
  RunGeosProbes(
      probes.size(),
      [&](int64_t i) -> const geosim::Geometry& {
        return *probes.geoms[static_cast<size_t>(i)];
      },
      [&](int64_t i) -> const std::string& {
        return probes.wkt[static_cast<size_t>(i)];
      },
      [&](int64_t i) { return probes.ids[static_cast<size_t>(i)]; }, right,
      predicate, probe_options, [&](int64_t, IdPair pair) { emit(pair); },
      stats);
}

/// The columnar left-scan: streams one columnar table through the shared
/// driver using the *stored* envelope columns, pruning whole blocks whose
/// zone-map misses the right side's overall MBR (when
/// `scan_options.zone_map` is on), and parsing a row's WKT only when its
/// first filter candidate arrives. Emits exactly the pairs — in exactly
/// the order — that the text scan path (ProbeScanner::ScanBlock +
/// RunGeosProbes over the same rows) emits, with the same counts: a row
/// whose WKT fails to parse counts as Stat::kLeftBadGeom, never as a
/// candidate. The scan.* block and row counts land in `stats` too
/// (non-null).
///
/// `on_block(block_index, seconds)` receives per-columnar-block wall
/// timing so engines can keep their per-task duration accounting.
template <typename Emit, typename OnBlock>
Status RunColumnarGeosProbes(const dfs::ColumnarTableReader& reader,
                             const BuiltRight& right,
                             const SpatialPredicate& predicate,
                             const index::ProbeOptions& probe_options,
                             const dfs::ScanOptions& scan_options,
                             Emit&& emit, ProbeStats* stats,
                             OnBlock&& on_block) {
  const GeosRefiner refiner(&right, &predicate);
  // The scan region: everything the right index can possibly match. Tree
  // entries are already expanded by the predicate's filter radius, so a
  // block whose zone-map misses `region` cannot contribute a candidate.
  const geom::Envelope& region = right.tree->bounds();

  // Per-block lazy-materialization scratch, reused across blocks.
  std::vector<std::unique_ptr<geosim::Geometry>> geoms;
  std::vector<std::string> wkt;
  std::vector<char> attempted;

  for (int64_t b = 0; b < reader.num_blocks(); ++b) {
    Stopwatch block_watch;
    stats->Add(Stat::kScanBlocksTotal);
    if (scan_options.zone_map && !reader.zone_map(b).Intersects(region)) {
      // Zone-map prune: not a single byte of this block's column chunks
      // is decoded, let alone its WKT payload parsed.
      stats->Add(Stat::kScanBlocksPruned);
      on_block(b, block_watch.ElapsedSeconds());
      continue;
    }
    CLOUDJOIN_ASSIGN_OR_RETURN(dfs::ColumnarBlock block, reader.ReadBlock(b));
    const int64_t n = block.size();
    stats->Add(Stat::kScanRowsScanned, n);
    geoms.clear();
    geoms.resize(static_cast<size_t>(n));
    wkt.assign(static_cast<size_t>(n), std::string());
    attempted.assign(static_cast<size_t>(n), 0);

    // The stored envelope column feeds the driver: rows the sFilter
    // rejects never descend the tree and, having no candidates, never
    // materialize their WKT.
    RunProbes(
        n, right, probe_options,
        [&](int64_t i) { return block.RowEnvelope(i); },
        [&](int64_t i, int64_t slot) -> std::optional<bool> {
          const size_t s = static_cast<size_t>(i);
          if (!attempted[s]) {
            // First candidate of this row: materialize the WKT column now
            // (the text path parsed it before the filter ever ran).
            attempted[s] = 1;
            auto parsed = ParseGeosWkt(block.wkt[s]);
            if (parsed.ok()) {
              geoms[s] = std::move(parsed).value();
              wkt[s] = std::string(block.wkt[s]);
              stats->Add(Stat::kScanRowsMaterialized);
            } else {
              stats->Add(Stat::kLeftBadGeom);
            }
          }
          if (geoms[s] == nullptr) return std::nullopt;
          return refiner.Refine(*geoms[s], wkt[s], static_cast<size_t>(slot),
                                stats);
        },
        [&](int64_t i, int64_t slot) {
          emit(IdPair(block.ids[static_cast<size_t>(i)],
                      right.ids[static_cast<size_t>(slot)]));
        },
        stats);
    on_block(b, block_watch.ElapsedSeconds());
  }
  return Status::OK();
}

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_PROBE_SCANNER_H_
