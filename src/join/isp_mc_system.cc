#include "join/isp_mc_system.h"

#include <cstdio>

#include "common/strings.h"
#include "dfs/columnar_block.h"
#include "plan/table_stats.h"

namespace cloudjoin::join {

namespace {

/// Number of separator-delimited columns on the first line of `file`.
int CountColumns(const dfs::SimFile* file, char separator) {
  dfs::LineRecordReader reader(file->data(), 0, file->size());
  std::string_view line;
  if (!reader.Next(&line)) return 0;
  return static_cast<int>(StrSplit(line, separator).size());
}

}  // namespace

std::string PredicateSql(const SpatialPredicate& predicate,
                         const std::string& left_name,
                         const std::string& right_name) {
  const std::string l = left_name + ".geom";
  const std::string r = right_name + ".geom";
  switch (predicate.op) {
    case SpatialOperator::kWithin:
      return "ST_WITHIN(" + l + ", " + r + ")";
    case SpatialOperator::kNearestD: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.17g", predicate.distance);
      return "ST_NEARESTD(" + l + ", " + r + ", " + buf + ")";
    }
    case SpatialOperator::kIntersects:
      return "ST_INTERSECTS(" + l + ", " + r + ")";
  }
  return "";
}

IspMcSystem::IspMcSystem(dfs::SimFileSystem* fs)
    : fs_(fs), runtime_(fs, impala::Catalog()) {
  CLOUDJOIN_CHECK(fs != nullptr);
}

Result<const impala::TableDef*> IspMcSystem::RegisterTable(
    const std::string& name, const TableInput& input) {
  CLOUDJOIN_ASSIGN_OR_RETURN(const dfs::SimFile* file,
                             fs_->GetFile(input.path));
  if (input.format == TableFormat::kColumnar) {
    // Columnar tables carry the fixed (id BIGINT, geom STRING) schema;
    // validating the file header here surfaces corrupt/mis-registered
    // tables at metastore time rather than mid-query.
    CLOUDJOIN_RETURN_IF_ERROR(dfs::ColumnarTableReader::Open(*file).status());
    impala::TableDef table;
    table.name = name;
    table.dfs_path = input.path;
    table.format = exec::TableFormat::kColumnar;
    table.columns.push_back(
        impala::ColumnDef{"id", impala::ColumnType::kInt64});
    table.columns.push_back(
        impala::ColumnDef{"geom", impala::ColumnType::kString});
    // ANALYZE at registration: the cost planner's inputs. Failure leaves
    // `stats.valid == false` (planner pins broadcast) — never an error.
    if (auto stats = plan::ComputeTableStats(*file, input); stats.ok()) {
      table.stats = std::move(stats).value();
    }
    CLOUDJOIN_RETURN_IF_ERROR(runtime_.catalog()->RegisterTable(table));
    return runtime_.catalog()->GetTable(name);
  }
  int num_columns = CountColumns(file, input.separator);
  if (num_columns <= input.id_column ||
      num_columns <= input.geometry_column) {
    return Status::InvalidArgument(
        "table file '" + input.path +
        "' has fewer columns than the declared id/geometry positions");
  }
  impala::TableDef table;
  table.name = name;
  table.dfs_path = input.path;
  table.separator = input.separator;
  for (int i = 0; i < num_columns; ++i) {
    impala::ColumnDef column;
    if (i == input.id_column) {
      column.name = "id";
      column.type = impala::ColumnType::kInt64;
    } else if (i == input.geometry_column) {
      column.name = "geom";
      column.type = impala::ColumnType::kString;
    } else {
      const std::string index = std::to_string(i);
      column.name = "c" + index;
      column.type = impala::ColumnType::kString;
    }
    table.columns.push_back(std::move(column));
  }
  if (auto stats = plan::ComputeTableStats(*file, input); stats.ok()) {
    table.stats = std::move(stats).value();
  }
  CLOUDJOIN_RETURN_IF_ERROR(runtime_.catalog()->RegisterTable(table));
  return runtime_.catalog()->GetTable(name);
}

Result<IspMcJoinRun> IspMcSystem::Join(const TableInput& left,
                                       const TableInput& right,
                                       const SpatialPredicate& predicate,
                                       const impala::QueryOptions& options) {
  CLOUDJOIN_RETURN_IF_ERROR(RegisterTable("lt", left).status());
  CLOUDJOIN_RETURN_IF_ERROR(RegisterTable("rt", right).status());

  IspMcJoinRun run;
  run.sql = "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt WHERE " +
            PredicateSql(predicate, "lt", "rt");
  CLOUDJOIN_ASSIGN_OR_RETURN(impala::QueryResult result,
                             runtime_.Execute(run.sql, options));
  run.metrics = std::move(result.metrics);
  run.pairs.reserve(result.rows.size());
  for (const impala::Row& row : result.rows) {
    const auto* l = std::get_if<int64_t>(&row[0]);
    const auto* r = std::get_if<int64_t>(&row[1]);
    if (l == nullptr || r == nullptr) {
      return Status::Internal("join output rows must be (BIGINT, BIGINT)");
    }
    run.pairs.emplace_back(*l, *r);
  }
  return run;
}

sim::RunReport IspMcSystem::Simulate(const IspMcJoinRun& run,
                                     const sim::ClusterSpec& cluster,
                                     const sim::CostModel& cost,
                                     const std::string& experiment) {
  sim::RunReport report;
  report.system = "ISP-MC";
  report.experiment = experiment;
  report.result_count = static_cast<int64_t>(run.pairs.size());

  std::vector<sim::SimTask> tasks;
  double local = 0.0;
  tasks.reserve(run.metrics.scan_tasks.size());
  for (size_t i = 0; i < run.metrics.scan_tasks.size(); ++i) {
    const impala::ScanRangeTiming& t = run.metrics.scan_tasks[i];
    // Static locality-driven placement: on the simulated cluster the table
    // would have been loaded with primaries round-robin over ITS nodes, so
    // block i is local to node i mod N. (Folding the 10-node DFS's replica
    // ids through `% N` instead would systematically double-load the low
    // nodes whenever N < 10 — a placement artifact, not a finding.)
    int node = static_cast<int>(i) % cluster.num_nodes;
    tasks.push_back(sim::SimTask{t.seconds, node});
    local += t.seconds;
  }
  // Partitioned-plan join tiles are their own task population, placed
  // round-robin after the scan ranges (static tile-to-node assignment —
  // the skew repartitioner's job is making this placement survivable by
  // ensuring no single tile dominates).
  for (double tile_s : run.metrics.join_task_seconds) {
    if (tile_s <= 0.0) continue;
    tasks.push_back(sim::SimTask{
        tile_s, static_cast<int>(tasks.size()) % cluster.num_nodes});
    local += tile_s;
  }
  sim::ScheduleResult sched = sim::SimulateStatic(cluster, tasks);
  report.AddComponent("scan+join compute", sched.makespan_s);
  // Every instance builds its R-tree over the broadcast rows; the builds
  // run in parallel across nodes, so one (slowed-down) build is on the
  // critical path.
  report.AddComponent("index build (per node)",
                      run.metrics.right_build_seconds / cluster.core_speed);
  report.AddComponent(
      "broadcast", cost.BroadcastSeconds(cluster, run.metrics.broadcast_bytes));
  report.AddComponent("coordinator",
                      run.metrics.frontend_seconds +
                          cost.ImpalaQueryOverheadSeconds(cluster));
  report.local_seconds = local + run.metrics.right_build_seconds;
  report.counters = run.metrics.counters;
  return report;
}

}  // namespace cloudjoin::join
