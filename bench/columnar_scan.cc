// Columnar spatial blocks vs text scan: scan+join wall time as a function
// of query selectivity, cold (right build included) and warm (prebuilt
// right injected), with the zone-map ablation arm alongside.
//
// The left table is a spatially sorted point set (row-major over a grid,
// so consecutive rows — and therefore columnar blocks — are spatially
// clustered, the layout zone-maps reward and the one a space-filling-curve
// or grid loader would produce). The right table is a set of small boxes
// confined to the bottom `selectivity` fraction of the domain, so
// `selectivity` directly controls the fraction of left blocks the join can
// touch.
//
// Every arm's result pairs are checked identical before a time is
// reported — a fast wrong scan is a bug, not a win.
//
// Usage:
//   columnar_scan [--left=N] [--right=M] [--block_rows=K] [--seed=S]
//                 [--smoke]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/rng.h"
#include "data/convert.h"
#include "dfs/columnar_block.h"
#include "dfs/sim_file_system.h"
#include "join/standalone_mc.h"
#include "join/table_input.h"

namespace {

using cloudjoin::Flags;
using cloudjoin::Rng;
using cloudjoin::Stopwatch;
namespace data = cloudjoin::data;
namespace dfs = cloudjoin::dfs;
namespace join = cloudjoin::join;

std::string PointWkt(double x, double y) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "POINT (%.17g %.17g)", x, y);
  return buf;
}

std::string BoxWkt(double x0, double y0, double x1, double y1) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "POLYGON ((%.17g %.17g, %.17g %.17g, %.17g %.17g, "
                "%.17g %.17g, %.17g %.17g))",
                x0, y0, x1, y0, x1, y1, x0, y1, x0, y0);
  return buf;
}

/// Left table: `n` points, written in row-major grid order so block-sized
/// runs of rows are spatially clustered.
std::vector<std::string> MakeLeftLines(int64_t n, Rng* rng) {
  const int grid = 64;
  const int64_t per_cell = std::max<int64_t>(1, n / (grid * grid));
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(per_cell) * grid * grid);
  int64_t id = 0;
  for (int gy = 0; gy < grid; ++gy) {
    for (int gx = 0; gx < grid; ++gx) {
      for (int64_t k = 0; k < per_cell; ++k) {
        const double x = (gx + rng->NextDouble()) / grid;
        const double y = (gy + rng->NextDouble()) / grid;
        lines.push_back(std::to_string(id++) + "\t" + PointWkt(x, y));
      }
    }
  }
  return lines;
}

/// Right table: `m` small boxes with centers in [0,1] x [0,selectivity].
std::vector<std::string> MakeRightLines(int64_t m, double selectivity,
                                        Rng* rng) {
  const double half = 0.004;
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    const double cx = rng->Uniform(half, 1.0 - half);
    const double cy = rng->Uniform(half, std::max(2 * half, selectivity));
    lines.push_back(std::to_string(i) + "\t" +
                    BoxWkt(cx - half, cy - half, cx + half, cy + half));
  }
  return lines;
}

struct ArmResult {
  double seconds = 0.0;
  std::vector<join::IdPair> pairs;
  int64_t blocks_total = 0;
  int64_t blocks_pruned = 0;
  int64_t rows_materialized = 0;
};

ArmResult RunArm(dfs::SimFileSystem* fs, const join::TableInput& left,
                 const join::TableInput& right,
                 const join::SpatialPredicate& predicate,
                 std::shared_ptr<const join::StandaloneRight> prebuilt,
                 const dfs::ScanOptions& scan) {
  join::StandaloneMc engine(fs);
  Stopwatch watch;
  auto run = engine.Join(left, right, predicate, join::PrepareOptions(),
                         std::move(prebuilt), join::ProbeOptions(), scan);
  CLOUDJOIN_CHECK(run.ok()) << run.status();
  ArmResult arm;
  arm.seconds = watch.ElapsedSeconds();
  arm.pairs = std::move(run->pairs);
  std::sort(arm.pairs.begin(), arm.pairs.end());
  arm.blocks_total = run->counters.Get("scan.blocks_total");
  arm.blocks_pruned = run->counters.Get("scan.blocks_pruned");
  arm.rows_materialized = run->counters.Get("scan.rows_materialized");
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"block_rows", "left", "right", "seed", "smoke"});
  const bool smoke = flags.GetBool("smoke", false);
  const int64_t left_n = flags.GetInt("left", smoke ? 8192 : 131072);
  const int64_t right_m = flags.GetInt("right", smoke ? 64 : 512);
  const int64_t block_rows =
      flags.GetInt("block_rows", smoke ? 256 : dfs::kDefaultBlockRows);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2015));
  const std::vector<double> selectivities =
      smoke ? std::vector<double>{0.1, 1.0}
            : std::vector<double>{0.01, 0.05, 0.1, 0.5, 1.0};

  dfs::SimFileSystem fs(/*num_nodes=*/4, /*block_size=*/256 * 1024);
  Rng rng(seed);
  CLOUDJOIN_CHECK(
      fs.WriteTextFile("/bench/left.tbl", MakeLeftLines(left_n, &rng)).ok());
  join::TableInput left_text;
  left_text.path = "/bench/left.tbl";
  auto left_col = data::ConvertTextTableToColumnar(
      &fs, left_text, "/bench/left.col", block_rows);
  CLOUDJOIN_CHECK(left_col.ok()) << left_col.status();

  const join::SpatialPredicate predicate =
      join::SpatialPredicate::Intersects();
  dfs::ScanOptions zone_on;
  dfs::ScanOptions zone_off;
  zone_off.zone_map = false;

  std::printf(
      "columnar_scan: left=%lld pts (block_rows=%lld), right=%lld boxes\n",
      static_cast<long long>(left_n), static_cast<long long>(block_rows),
      static_cast<long long>(right_m));
  std::printf(
      "%-6s %10s %10s %10s %10s %10s %8s %9s %9s\n", "sel", "text_cold",
      "col_cold", "nzm_cold", "text_warm", "col_warm", "speedup",
      "pruned", "parsed");

  bool low_sel_ok = true;
  bool full_sel_ok = true;
  for (double sel : selectivities) {
    Rng right_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    CLOUDJOIN_CHECK(fs.WriteTextFile("/bench/right.tbl",
                                     MakeRightLines(right_m, sel, &right_rng))
                        .ok());
    join::TableInput right_text;
    right_text.path = "/bench/right.tbl";
    auto right_col = data::ConvertTextTableToColumnar(
        &fs, right_text, "/bench/right.col", block_rows);
    CLOUDJOIN_CHECK(right_col.ok()) << right_col.status();

    // Cold arms: right build on the measured path.
    ArmResult text_cold = RunArm(&fs, left_text, right_text, predicate,
                                 nullptr, zone_on);
    ArmResult col_cold =
        RunArm(&fs, *left_col, *right_col, predicate, nullptr, zone_on);
    ArmResult nzm_cold =
        RunArm(&fs, *left_col, *right_col, predicate, nullptr, zone_off);

    // Warm arms: prebuilt right injected, scan+probe only.
    join::StandaloneMc builder(&fs);
    auto text_right = builder.BuildRight(right_text, predicate);
    CLOUDJOIN_CHECK(text_right.ok()) << text_right.status();
    auto col_right = builder.BuildRight(*right_col, predicate);
    CLOUDJOIN_CHECK(col_right.ok()) << col_right.status();
    ArmResult text_warm = RunArm(&fs, left_text, right_text, predicate,
                                 *text_right, zone_on);
    ArmResult col_warm =
        RunArm(&fs, *left_col, *right_col, predicate, *col_right, zone_on);

    CLOUDJOIN_CHECK(col_cold.pairs == text_cold.pairs)
        << "columnar join diverged from text at selectivity " << sel;
    CLOUDJOIN_CHECK(nzm_cold.pairs == text_cold.pairs)
        << "no-zonemap join diverged from text at selectivity " << sel;
    CLOUDJOIN_CHECK(text_warm.pairs == text_cold.pairs);
    CLOUDJOIN_CHECK(col_warm.pairs == text_cold.pairs);

    const double speedup =
        col_cold.seconds > 0 ? text_cold.seconds / col_cold.seconds : 0.0;
    const double pruned_pct =
        col_cold.blocks_total > 0
            ? 100.0 * static_cast<double>(col_cold.blocks_pruned) /
                  static_cast<double>(col_cold.blocks_total)
            : 0.0;
    std::printf(
        "%-6.2f %9.4fs %9.4fs %9.4fs %9.4fs %9.4fs %7.2fx %8.1f%% %9lld\n",
        sel, text_cold.seconds, col_cold.seconds, nzm_cold.seconds,
        text_warm.seconds, col_warm.seconds, speedup, pruned_pct,
        static_cast<long long>(col_cold.rows_materialized));
    if (sel <= 0.1 && speedup < 3.0) low_sel_ok = false;
    if (sel >= 1.0 && col_cold.seconds > text_cold.seconds * 1.15) {
      full_sel_ok = false;
    }
  }

  if (!low_sel_ok) {
    std::printf("WARNING: cold columnar speedup below 3x at <=10%% "
                "selectivity\n");
  }
  if (!full_sel_ok) {
    std::printf("WARNING: cold columnar regressed vs text at 100%% "
                "selectivity\n");
  }
  std::printf("columnar_scan: all arms byte-identical; done\n");
  return 0;
}
