// Taxi hotspots: the paper's motivating urban-analytics scenario — join
// taxi pickup points with census blocks (taxi-nycb, Within) and rank the
// busiest blocks, using the SpatialSpark pipeline for the join and the
// SQL engine for the aggregation (GROUP BY zone).
//
//   ./taxi_hotspots [--points=N] [--grid=G] [--top=K]

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "common/flags.h"
#include "data/generators.h"
#include "dfs/sim_file_system.h"
#include "impala/runtime.h"
#include "join/isp_mc_system.h"
#include "join/spatial_spark_system.h"

using namespace cloudjoin;

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"points", "grid", "top"});
  const int64_t points = flags.GetInt("points", 40000);
  const int grid = static_cast<int>(flags.GetInt("grid", 40));
  const int top = static_cast<int>(flags.GetInt("top", 10));

  dfs::SimFileSystem fs(4, 64 * 1024);
  CLOUDJOIN_CHECK_OK(
      fs.WriteTextFile("/data/taxi.tsv", data::GenerateTaxiTrips(points, 7)));
  CLOUDJOIN_CHECK_OK(fs.WriteTextFile(
      "/data/nycb.tsv", data::GenerateCensusBlocks(grid, grid, 8)));
  join::TableInput taxi{"/data/taxi.tsv", '\t', 0, 1};
  join::TableInput nycb{"/data/nycb.tsv", '\t', 0, 1};

  // --- Path 1: core library (SpatialSpark style) + app-side ranking. ---
  join::SpatialSparkSystem spark(&fs, 16);
  auto run = spark.Join(taxi, nycb, join::SpatialPredicate::Within());
  CLOUDJOIN_CHECK(run.ok()) << run.status();

  std::map<int64_t, int64_t> pickups_per_block;
  for (const auto& [pickup_id, block_id] : run->pairs) {
    ++pickups_per_block[block_id];
  }
  std::vector<std::pair<int64_t, int64_t>> ranked;  // (count, block)
  for (const auto& [block, count] : pickups_per_block) {
    ranked.emplace_back(count, block);
  }
  std::sort(ranked.rbegin(), ranked.rend());

  std::printf("taxi-nycb: %lld pickups x %d blocks -> %zu matches "
              "(%.1f%% of pickups inside a block)\n\n",
              static_cast<long long>(points), grid * grid, run->pairs.size(),
              100.0 * run->pairs.size() / points);
  std::printf("top %d busiest census blocks (core-library path):\n", top);
  for (int i = 0; i < top && i < static_cast<int>(ranked.size()); ++i) {
    std::printf("  #%2d block %6lld: %6lld pickups\n", i + 1,
                static_cast<long long>(ranked[i].second),
                static_cast<long long>(ranked[i].first));
  }

  // --- Path 2: the same answer as one SQL statement (ISP-MC style). ---
  join::IspMcSystem isp(&fs);
  CLOUDJOIN_CHECK_OK(isp.RegisterTable("taxi", taxi).status());
  CLOUDJOIN_CHECK_OK(isp.RegisterTable("nycb", nycb).status());
  auto result = isp.runtime()->Execute(
      "SELECT nycb.id, COUNT(*) AS pickups FROM taxi SPATIAL JOIN nycb "
      "WHERE ST_WITHIN(taxi.geom, nycb.geom) GROUP BY nycb.id");
  CLOUDJOIN_CHECK(result.ok()) << result.status();

  // Cross-check the two paths block by block.
  int64_t checked = 0;
  for (const impala::Row& row : result->rows) {
    int64_t block = std::get<int64_t>(row[0]);
    int64_t count = std::get<int64_t>(row[1]);
    CLOUDJOIN_CHECK(pickups_per_block[block] == count)
        << "block " << block << ": core=" << pickups_per_block[block]
        << " sql=" << count;
    ++checked;
  }
  std::printf("\nSQL path (GROUP BY nycb.id) agrees on all %lld non-empty "
              "blocks\n",
              static_cast<long long>(checked));
  return 0;
}
