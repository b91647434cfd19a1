#ifndef CLOUDJOIN_CHECK_DIFFERENTIAL_H_
#define CLOUDJOIN_CHECK_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "check/workload.h"
#include "join/broadcast_spatial_join.h"
#include "sim/run_report.h"

namespace cloudjoin::check {

/// One engine's canonicalized answer for a case. `ran` is false when the
/// engine was skipped because the case shape doesn't apply to it (e.g. the
/// SQL paths on an empty table); skipped engines never count as mismatches.
struct EngineResult {
  std::string engine;
  bool ran = false;
  Status status = Status::OK();
  /// Sorted (left_id, right_id) pairs; meaningful only when status is OK.
  std::vector<join::IdPair> pairs;
};

/// The verdict on one case: every engine's result diffed against the
/// nested-loop oracle (results[0]).
struct CaseOutcome {
  bool mismatch = false;
  std::vector<EngineResult> results;
  /// Human-readable diff: which engines diverged and the first few
  /// missing/extra pairs of each.
  std::string summary;
};

/// Diffs `results` (results[0] must be the oracle) into a CaseOutcome.
/// Split out of the runner so the mismatch-detection logic is testable
/// without provoking a real engine bug.
CaseOutcome CompareResults(std::vector<EngineResult> results);

/// One confirmed discrepancy, shrunk to a minimal reproducing case.
struct Failure {
  uint64_t seed = 0;
  DifferentialCase minimal;
  CaseOutcome outcome;
  /// Ready-to-paste regression test (FormatRepro of `minimal`).
  std::string repro;
};

/// Runs one generated workload through every join path in the repository
/// and diffs the canonicalized result sets:
///
///   in-memory: nested-loop oracle, broadcast (exact and prepared, and
///              at a tiny batch size), parallel broadcast, partitioned at
///              several tile counts;
///   text/DFS:  SpatialSpark broadcast over WKT and WKB-hex inputs (exact
///              and prepared) and its partitioned variant;
///   SQL:       ISP-MC (exact, cached-parse, prepared), the standalone
///              engine, and the QueryService serving path (cold + warm, so
///              the cached-index arm is diffed too).
///
/// Any divergence — differing pair sets or an engine error — is a
/// mismatch. On mismatch the failing case is shrunk to a minimal
/// reproducer and rendered as a paste-able regression test.
class DifferentialRunner {
 public:
  struct Options {
    /// Threads for ParallelBroadcastSpatialJoin.
    int parallel_threads = 4;
    /// Tile counts for the in-memory partitioned join.
    std::vector<int> tile_counts = {1, 5};
    /// Vertex threshold for the prepared-refinement arms (low, so the
    /// prepared path triggers on the small generated polygons).
    int prepare_min_vertices = 4;
    /// Enables the text-backed engines (SpatialSpark, ISP-MC, standalone).
    bool run_dfs_engines = true;
    /// Enables the QueryService cold+warm SQL arm.
    bool run_service = true;
    /// Enables the columnar-format arms: the text tables are transcoded to
    /// columnar blocks and the standalone + ISP-MC paths re-run over them
    /// (zone-map on, zone-map off, prepared, cached-parse) — every arm
    /// must match the text results byte for byte.
    bool run_columnar = true;
    /// Rows per columnar block in the transcode — deliberately tiny so
    /// every case exercises multi-block files and zone-map pruning.
    int64_t columnar_block_rows = 4;
    int spark_partitions = 3;
    int spark_tiles = 3;
  };

  DifferentialRunner();
  explicit DifferentialRunner(const Options& options);

  /// Runs every engine on `c` and diffs the results (counted in
  /// counters()).
  CaseOutcome RunCase(const DifferentialCase& c);

  /// Generates and runs `count` seeds starting at `base`. Mismatching
  /// cases are returned (shrunk to minimal when `shrink` is set); an empty
  /// vector means every engine agreed on every case.
  std::vector<Failure> RunSeeds(uint64_t base, int count, bool shrink);

  /// check.* discrepancy counters: cases, engines run/skipped,
  /// mismatched_cases, engine_failures, oracle_pairs.
  const Counters& counters() const { return counters_; }

  /// The counters wrapped as a standard run report so the harness output
  /// matches the benchmark tooling.
  sim::RunReport BuildReport() const;

 private:
  /// RunCase without counter updates — the shrinker probes candidate
  /// sub-cases through this so shrinking doesn't distort the stats.
  CaseOutcome RunCaseQuiet(const DifferentialCase& c) const;

  Options options_;
  Counters counters_;
  double local_seconds_ = 0.0;
};

}  // namespace cloudjoin::check

#endif  // CLOUDJOIN_CHECK_DIFFERENTIAL_H_
