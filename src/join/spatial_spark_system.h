#ifndef CLOUDJOIN_JOIN_SPATIAL_SPARK_SYSTEM_H_
#define CLOUDJOIN_JOIN_SPATIAL_SPARK_SYSTEM_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dfs/sim_file_system.h"
#include "join/broadcast_spatial_join.h"
#include "join/spatial_predicate.h"
#include "join/table_input.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "sim/run_report.h"
#include "sim/scheduler.h"
#include "spark/rdd.h"

namespace cloudjoin::join {

/// Everything one SpatialSpark join run produces: the matches plus the
/// measured stage/task timings the cluster simulator replays.
struct SparkJoinRun {
  std::vector<IdPair> pairs;
  std::vector<spark::StageMetrics> stages;
  /// Driver-side STR-tree construction over the collected right side
  /// (includes prepared-grid construction when enabled).
  double driver_build_seconds = 0.0;
  /// Portion of driver_build_seconds spent building prepared grids.
  double prepare_seconds = 0.0;
  int64_t broadcast_bytes = 0;
  int num_partitions = 0;
  /// Probe-path metrics: join.candidates, join.matches, and — with
  /// prepared refinement — join.prepared_hits / join.boundary_fallbacks /
  /// join.prepare_micros.
  Counters counters;
};

/// The SpatialSpark prototype: the paper's Fig. 2 pipeline on the Spark
/// engine with the fast (JTS-role) geometry kernel.
///
///   textFile -> split -> zipWithIndex -> parse WKT -> filter(parse ok)
///   right side collected at the driver, STR-tree built and broadcast,
///   left side flatMapped through an R-tree probe + refinement.
class SpatialSparkSystem {
 public:
  /// `fs` must outlive the system. `num_partitions` is the RDD parallelism
  /// (the tuning knob the paper's §III discussion centers on). `prepare`
  /// opts the broadcast index (and the tile joins of PartitionedJoin) into
  /// prepared-geometry refinement; `probe` tunes the columnar probe phase.
  /// Results are identical for every knob combination.
  SpatialSparkSystem(dfs::SimFileSystem* fs, int num_partitions,
                     const PrepareOptions& prepare = PrepareOptions(),
                     const ProbeOptions& probe = ProbeOptions());

  /// Runs the join; real execution, measured per task.
  Result<SparkJoinRun> Join(const TableInput& left, const TableInput& right,
                            const SpatialPredicate& predicate);

  /// Partitioned-join mode (real SpatialSpark's alternative to
  /// broadcasting, for right sides that do not fit worker memory): both
  /// sides are tagged with spatial tiles from a sample-driven BSP layout,
  /// shuffled by tile, and joined tile-locally through exec::RunTileProbes,
  /// which refines a replicated pair only in the tile owning its reference
  /// point. Pairs, join.candidates and join.matches equal Join()'s; the
  /// sFilter is per tile, so join.sfilter_skipped differs.
  Result<SparkJoinRun> PartitionedJoin(const TableInput& left,
                                       const TableInput& right,
                                       const SpatialPredicate& predicate,
                                       int num_tiles);

  /// Replays a run on `cluster`: dynamic task scheduling per stage, plus
  /// driver index build, broadcast, and Spark job overheads.
  static sim::RunReport Simulate(const SparkJoinRun& run,
                                 const sim::ClusterSpec& cluster,
                                 const sim::CostModel& cost,
                                 const std::string& experiment);

 private:
  dfs::SimFileSystem* fs_;
  int num_partitions_;
  PrepareOptions prepare_;
  ProbeOptions probe_;
};

}  // namespace cloudjoin::join

#endif  // CLOUDJOIN_JOIN_SPATIAL_SPARK_SYSTEM_H_
