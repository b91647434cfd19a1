#include "join/standalone_mc.h"

#include <memory>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "exec/counter_names.h"
#include "exec/probe_scanner.h"
#include "exec/probe_stats.h"
#include "exec/right_builder.h"
#include "sim/scheduler.h"

namespace cloudjoin::join {

StandaloneMc::StandaloneMc(dfs::SimFileSystem* fs) : fs_(fs) {
  CLOUDJOIN_CHECK(fs != nullptr);
}

Result<std::shared_ptr<const StandaloneRight>> StandaloneMc::BuildRight(
    const TableInput& right, const SpatialPredicate& predicate,
    const PrepareOptions& prepare, Counters* counters) {
  CLOUDJOIN_ASSIGN_OR_RETURN(const dfs::SimFile* right_file,
                             fs_->GetFile(right.path));
  CLOUDJOIN_ASSIGN_OR_RETURN(
      exec::BuiltRight built,
      exec::BuildRightFromTable(*right_file, right, predicate.FilterRadius(),
                                prepare, counters));
  return std::shared_ptr<const StandaloneRight>(
      std::make_shared<StandaloneRight>(std::move(built)));
}

Result<StandaloneRun> StandaloneMc::Join(
    const TableInput& left, const TableInput& right,
    const SpatialPredicate& predicate, const PrepareOptions& prepare,
    std::shared_ptr<const StandaloneRight> prebuilt,
    const ProbeOptions& probe, const dfs::ScanOptions& scan) {
  CLOUDJOIN_ASSIGN_OR_RETURN(const dfs::SimFile* left_file,
                             fs_->GetFile(left.path));
  StandaloneRun run;

  // ---- Build phase: scan + parse + index the right side — unless a
  // retained artifact is injected, in which case the build is free. ----
  std::shared_ptr<const StandaloneRight> side = std::move(prebuilt);
  if (side == nullptr) {
    CLOUDJOIN_ASSIGN_OR_RETURN(
        side, BuildRight(right, predicate, prepare, &run.counters));
    run.build_seconds = side->build_seconds;
  } else {
    run.build_seconds = 0.0;
    run.counters.Add(exec::counter::kIndexCacheHit, 1);
  }

  if (left.format == TableFormat::kColumnar) {
    // ---- Columnar probe phase: one task per columnar block. Stored
    // envelope columns feed the filter directly; a block whose zone-map
    // misses the right side's MBR is skipped whole, and WKT is parsed
    // only for rows the filter lets through. ----
    CLOUDJOIN_ASSIGN_OR_RETURN(dfs::ColumnarTableReader reader,
                               dfs::ColumnarTableReader::Open(*left_file));
    exec::ProbeStats stats;
    CLOUDJOIN_RETURN_IF_ERROR(exec::RunColumnarGeosProbes(
        reader, *side, predicate, probe, scan,
        [&run](const IdPair& pair) { run.pairs.push_back(pair); }, &stats,
        [&run](int64_t /*block*/, double seconds) {
          run.block_seconds.push_back(seconds);
        }));
    stats.FlushTo(&run.counters);
    return run;
  }

  // ---- Probe phase: one task per left block, each block a row batch.
  // The core's ProbeScanner parses the block, then the shared two-phase
  // driver filters it through the packed tree in arrival order and the
  // GeosRefiner streams the dense candidate buffer — per-pair WKT
  // re-parse preserved exactly as the ISP-MC UDF does it. ----
  exec::ProbeStats stats;
  exec::ProbeScanner scanner(left, &stats);
  exec::GeosProbeBatch batch;
  for (const dfs::BlockInfo& block : left_file->blocks()) {
    CpuTimer block_watch;
    batch.Clear();
    scanner.ScanBlock(*left_file, block.offset, block.length, &batch);
    exec::RunGeosProbes(
        batch, *side, predicate, probe,
        [&run](const IdPair& pair) { run.pairs.push_back(pair); }, &stats);
    run.block_seconds.push_back(block_watch.ElapsedSeconds());
  }
  stats.FlushTo(&run.counters);
  return run;
}

sim::RunReport StandaloneMc::Simulate(const StandaloneRun& run,
                                      const sim::ClusterSpec& cluster,
                                      const std::string& experiment) {
  sim::RunReport report;
  report.system = "ISP-MC standalone";
  report.experiment = experiment;
  report.result_count = static_cast<int64_t>(run.pairs.size());

  std::vector<sim::SimTask> tasks;
  double local = 0.0;
  tasks.reserve(run.block_seconds.size());
  for (double seconds : run.block_seconds) {
    tasks.push_back(sim::SimTask{seconds, -1});
    local += seconds;
  }
  sim::ScheduleResult sched = sim::SimulateStatic(cluster, tasks);
  report.AddComponent("scan+join compute", sched.makespan_s);
  report.AddComponent("index build (per node)",
                      run.build_seconds / cluster.core_speed);
  report.local_seconds = local + run.build_seconds;
  report.counters = run.counters;
  return report;
}

}  // namespace cloudjoin::join
