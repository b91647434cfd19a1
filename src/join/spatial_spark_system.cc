#include "join/spatial_spark_system.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "exec/probe_driver.h"
#include "index/spatial_partitioner.h"
#include "spark/spark_context.h"

namespace cloudjoin::join {

namespace {

/// A record after the parse stage: global index + parsed geometry (the
/// paper's `(id, Geometry)` pairs). `ok` marks parse success so failures
/// can be filtered, mirroring `Try(...).filter(_.isSuccess)`.
struct ParsedRecord {
  int64_t id = 0;
  bool ok = false;
  geom::Geometry geometry{geom::GeometryType::kPoint};
};

/// Builds the textFile -> split -> zipWithIndex -> parse -> filter pipeline
/// for one side.
spark::Rdd<IdGeometry> GeometryById(spark::SparkContext* ctx,
                                    const TableInput& input,
                                    int num_partitions) {
  const char sep = input.separator;
  const int geom_col = input.geometry_column;
  const GeometryEncoding encoding = input.encoding;
  return ctx->TextFile(input.path, num_partitions)
      .Map<std::vector<std::string>>([sep](const std::string& line) {
        std::vector<std::string> fields;
        for (std::string_view f : StrSplit(line, sep)) {
          fields.emplace_back(f);
        }
        return fields;
      })
      .ZipWithIndex()
      .Map<ParsedRecord>(
          [geom_col, encoding](
              const std::pair<std::vector<std::string>, int64_t>& rec) {
            ParsedRecord out;
            out.id = rec.second;
            if (geom_col < static_cast<int>(rec.first.size())) {
              auto parsed =
                  exec::ParseGeometryText(rec.first[geom_col], encoding);
              if (parsed.ok()) {
                out.ok = true;
                out.geometry = std::move(parsed).value();
              }
            }
            return out;
          })
      .Filter([](const ParsedRecord& rec) { return rec.ok; })
      .Map<IdGeometry>([](const ParsedRecord& rec) {
        return IdGeometry{rec.id, rec.geometry};
      });
}

}  // namespace

SpatialSparkSystem::SpatialSparkSystem(dfs::SimFileSystem* fs,
                                       int num_partitions,
                                       const PrepareOptions& prepare,
                                       const ProbeOptions& probe)
    : fs_(fs),
      num_partitions_(num_partitions),
      prepare_(prepare),
      probe_(probe) {
  CLOUDJOIN_CHECK(fs != nullptr);
  CLOUDJOIN_CHECK(num_partitions >= 1);
}

Result<SparkJoinRun> SpatialSparkSystem::Join(
    const TableInput& left, const TableInput& right,
    const SpatialPredicate& predicate) {
  if (!fs_->Exists(left.path)) {
    return Status::NotFound("left input missing: " + left.path);
  }
  if (!fs_->Exists(right.path)) {
    return Status::NotFound("right input missing: " + right.path);
  }

  spark::SparkContext ctx(fs_, num_partitions_);
  SparkJoinRun run;
  run.num_partitions = num_partitions_;

  // Right side: collect to the driver and index (BroadcastSpatialJoin in
  // the paper's listing).
  spark::Rdd<IdGeometry> right_rdd = GeometryById(&ctx, right, num_partitions_);
  std::vector<IdGeometry> right_records = right_rdd.Collect();

  CpuTimer build_watch;
  auto index = std::make_shared<const BroadcastIndex>(
      std::move(right_records), predicate.FilterRadius(), prepare_);
  run.driver_build_seconds = build_watch.ElapsedSeconds();
  run.prepare_seconds = index->prepare_seconds();
  if (index->num_prepared() > 0) {
    run.counters.Add(exec::counter::kPreparedRecords, index->num_prepared());
    run.counters.Add(exec::counter::kPrepareMicros,
                     static_cast<int64_t>(run.prepare_seconds * 1e6));
  }

  spark::Broadcast<BroadcastIndex> broadcast =
      ctx.BroadcastValue<BroadcastIndex>(index, index->MemoryBytes());
  run.broadcast_bytes = broadcast.bytes();

  // Left side probed one partition-sized row batch at a time: each task
  // materializes its parsed records, then the columnar driver batches the
  // envelopes through the packed tree and refines off the dense candidate
  // buffer (the two-phase filter->refine split, replacing the per-record
  // FlatMap closure). Partition order + per-partition order restoration
  // keep the output identical to the streaming path. Stages run serially
  // (SparkContext::RunStage is a plain loop), so one shared ProbeStats,
  // flushed once at the end, keeps the counter mutex off the measured
  // probe path.
  ProbeStats probe_stats;
  spark::Rdd<IdGeometry> left_rdd = GeometryById(&ctx, left, num_partitions_);
  std::vector<std::vector<IdPair>> part_pairs(
      static_cast<size_t>(num_partitions_));
  const ProbeOptions probe_options = probe_;
  // Stage name carries the left path so harness-side extrapolation treats
  // the probe as left-side work.
  ctx.RunStage("spatialJoinProbe(" + left.path + ")", num_partitions_,
               [&](int p) {
    std::vector<IdGeometry> probes;
    left_rdd.ComputePartition(
        p, [&](const IdGeometry& g) { probes.push_back(g); });
    auto* out = &part_pairs[static_cast<size_t>(p)];
    broadcast.value().Probe(
        std::span<const IdGeometry>(probes.data(), probes.size()), predicate,
        probe_options,
        [out](int64_t, const IdPair& pair) { out->push_back(pair); },
        &probe_stats);
  });
  for (auto& pairs : part_pairs) {
    run.pairs.insert(run.pairs.end(), pairs.begin(), pairs.end());
  }
  probe_stats.FlushTo(&run.counters);

  run.stages = ctx.stages();
  return run;
}

Result<SparkJoinRun> SpatialSparkSystem::PartitionedJoin(
    const TableInput& left, const TableInput& right,
    const SpatialPredicate& predicate, int num_tiles) {
  if (!fs_->Exists(left.path)) {
    return Status::NotFound("left input missing: " + left.path);
  }
  if (!fs_->Exists(right.path)) {
    return Status::NotFound("right input missing: " + right.path);
  }
  if (num_tiles < 1) return Status::InvalidArgument("num_tiles must be >= 1");

  spark::SparkContext ctx(fs_, num_partitions_);
  SparkJoinRun run;
  run.num_partitions = num_tiles;
  const double radius = predicate.FilterRadius();

  // Tile layout from a driver-side pass over the right side's centers
  // (SpatialSpark computes its partition layout from a sample the same
  // way).
  spark::Rdd<IdGeometry> right_rdd =
      GeometryById(&ctx, right, num_partitions_);
  std::vector<geom::Envelope> envelopes =
      right_rdd
          .Map<geom::Envelope>(
              [](const IdGeometry& g) { return g.geometry.envelope(); })
          .Collect();
  if (envelopes.empty()) {
    return Status::InvalidArgument("right side is empty");
  }
  // Tiles must cover every right envelope (not just the centers): a left
  // record can only match inside some right envelope, so this extent loses
  // no pairs.
  geom::Envelope extent;
  std::vector<geom::Point> centers;
  centers.reserve(envelopes.size());
  for (const geom::Envelope& env : envelopes) {
    extent.ExpandToInclude(env);
    centers.push_back(env.Center());
  }
  // Every right geometry empty: nothing can match, and the partitioner
  // needs a non-empty extent.
  if (extent.IsEmpty()) {
    run.stages = ctx.stages();
    return run;
  }
  extent.ExpandBy(std::max(radius, 1e-9) + 1.0);

  CpuTimer build_watch;
  auto partitioner = std::make_shared<const index::SpatialPartitioner>(
      extent, std::move(centers), num_tiles);
  run.driver_build_seconds = build_watch.ElapsedSeconds();

  // Tag each record with every tile it touches (replication), then
  // shuffle by tile (identity partitioner: tile i -> partition i).
  using Tagged = std::pair<int, IdGeometry>;
  auto tag = [partitioner](double expand) {
    return [partitioner, expand](
               const IdGeometry& g,
               const std::function<void(const Tagged&)>& emit) {
      geom::Envelope env = g.geometry.envelope();
      env.ExpandBy(expand);
      for (int tile : partitioner->TilesFor(env)) {
        emit(Tagged(tile, g));
      }
    };
  };
  std::function<int(const int&)> identity = [](const int& tile) {
    return tile;
  };
  spark::Rdd<Tagged> right_tiled = spark::PartitionByKey(
      right_rdd.FlatMap<Tagged>(tag(radius)), num_tiles, identity);
  spark::Rdd<Tagged> left_tiled = spark::PartitionByKey(
      GeometryById(&ctx, left, num_partitions_).FlatMap<Tagged>(tag(0.0)),
      num_tiles, identity);

  // Tile-local indexed joins, one task per tile. Stages run serially, so
  // accumulating stats and prepare time across tiles is safe. Stage name
  // carries the left path so harness-side extrapolation treats the
  // (probe-dominated) tile joins as left-side work.
  std::vector<std::vector<IdPair>> tile_pairs(
      static_cast<size_t>(num_tiles));
  ProbeStats probe_stats;
  int64_t prepared_records = 0;
  const ProbeOptions probe_options = probe_;
  ctx.RunStage("partitionedJoin(" + left.path + ")", num_tiles,
               [&](int tile) {
    std::vector<IdGeometry> right_local;
    right_tiled.ComputePartition(
        tile, [&](const Tagged& kv) { right_local.push_back(kv.second); });
    if (right_local.empty()) return;
    const BroadcastIndex index(std::move(right_local), radius, prepare_);
    run.prepare_seconds += index.prepare_seconds();
    prepared_records += index.num_prepared();
    std::vector<IdGeometry> left_local;
    left_tiled.ComputePartition(
        tile, [&](const Tagged& kv) { left_local.push_back(kv.second); });
    // Tile-local row batch through the exec per-tile step: a replicated
    // candidate is refined only by the tile owning its reference point,
    // so every pair is reported once, with no driver-side dedup.
    const exec::BuiltRight& built = index.core();
    const exec::JtsRefiner refiner(&built.records, &built.prepared);
    auto* out = &tile_pairs[static_cast<size_t>(tile)];
    exec::RunTileProbes(
        *partitioner, tile, static_cast<int64_t>(left_local.size()),
        *built.packed, built.sfilter.get(), probe_options,
        [&](int64_t i) -> const geom::Envelope& {
          return left_local[static_cast<size_t>(i)].geometry.envelope();
        },
        [&](int64_t slot) {
          geom::Envelope env =
              built.records[static_cast<size_t>(slot)].geometry.envelope();
          env.ExpandBy(radius);
          return env;
        },
        [&](int64_t i, int64_t slot) {
          return refiner.Refine(left_local[static_cast<size_t>(i)].geometry,
                                static_cast<size_t>(slot), predicate,
                                &probe_stats);
        },
        [&](int64_t i, int64_t slot) {
          out->emplace_back(left_local[static_cast<size_t>(i)].id,
                            built.records[static_cast<size_t>(slot)].id);
        },
        &probe_stats);
  });
  probe_stats.FlushTo(&run.counters);
  if (prepared_records > 0) {
    run.counters.Add(exec::counter::kPreparedRecords, prepared_records);
    run.counters.Add(exec::counter::kPrepareMicros,
                     static_cast<int64_t>(run.prepare_seconds * 1e6));
  }

  // Merge into canonical (sorted) order; reference-point suppression above
  // already made every pair unique.
  for (auto& pairs : tile_pairs) {
    run.pairs.insert(run.pairs.end(), pairs.begin(), pairs.end());
  }
  std::sort(run.pairs.begin(), run.pairs.end());

  run.stages = ctx.stages();
  return run;
}

sim::RunReport SpatialSparkSystem::Simulate(const SparkJoinRun& run,
                                            const sim::ClusterSpec& cluster,
                                            const sim::CostModel& cost,
                                            const std::string& experiment) {
  sim::RunReport report;
  report.system = "SpatialSpark";
  report.experiment = experiment;
  report.result_count = static_cast<int64_t>(run.pairs.size());
  report.counters = run.counters;

  double compute = 0.0;
  double local = 0.0;
  for (const spark::StageMetrics& stage : run.stages) {
    std::vector<sim::SimTask> tasks;
    tasks.reserve(stage.task_seconds.size());
    for (double seconds : stage.task_seconds) {
      tasks.push_back(sim::SimTask{seconds * cost.spark_jvm_factor, -1});
    }
    sim::ScheduleResult sched = sim::SimulateDynamic(cluster, tasks);
    compute += sched.makespan_s;
    local += stage.TotalSeconds();
  }
  report.AddComponent("stage compute", compute);
  report.AddComponent(
      "driver index build",
      run.driver_build_seconds * cost.spark_jvm_factor / cluster.core_speed);
  report.AddComponent("broadcast",
                      cost.BroadcastSeconds(cluster, run.broadcast_bytes));
  report.AddComponent(
      "engine overhead",
      cost.SparkJobOverheadSeconds(cluster,
                                   static_cast<int>(run.stages.size()),
                                   run.num_partitions));
  report.local_seconds = local + run.driver_build_seconds;
  return report;
}

}  // namespace cloudjoin::join
