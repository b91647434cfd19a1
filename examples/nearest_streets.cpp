// Nearest streets: the paper's NearestD scenario — for each taxi pickup,
// find all street polylines within D feet (taxi-lion). Sweeps D to show
// how the distance threshold drives candidate counts and match rates, and
// verifies the indexed result against the nested-loop baseline on a
// sample.
//
//   ./nearest_streets [--points=N] [--streets=S]

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "data/generators.h"
#include "dfs/sim_file_system.h"
#include "geom/wkt.h"
#include "join/broadcast_spatial_join.h"
#include "join/standalone_mc.h"

using namespace cloudjoin;

namespace {

// Loads an (id, geometry) vector from a generated TSV file.
std::vector<join::IdGeometry> LoadGeometries(dfs::SimFileSystem* fs,
                                             const std::string& path,
                                             int64_t limit) {
  auto file = fs->GetFile(path);
  CLOUDJOIN_CHECK(file.ok());
  std::vector<join::IdGeometry> out;
  dfs::LineRecordReader reader((*file)->data(), 0, (*file)->size());
  std::string_view line;
  while (reader.Next(&line) &&
         (limit < 0 || static_cast<int64_t>(out.size()) < limit)) {
    auto fields = StrSplit(line, '\t');
    auto id = ParseInt64(fields[0]);
    auto g = geom::ReadWkt(fields[1]);
    CLOUDJOIN_CHECK(id.ok());
    CLOUDJOIN_CHECK(g.ok());
    out.push_back(join::IdGeometry{*id, std::move(g).value()});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"points", "streets"});
  const int64_t points = flags.GetInt("points", 20000);
  const int64_t streets = flags.GetInt("streets", 50000);

  dfs::SimFileSystem fs(4, 64 * 1024);
  CLOUDJOIN_CHECK_OK(
      fs.WriteTextFile("/data/taxi.tsv", data::GenerateTaxiTrips(points, 31)));
  CLOUDJOIN_CHECK_OK(
      fs.WriteTextFile("/data/lion.tsv", data::GenerateStreets(streets, 32)));

  std::vector<join::IdGeometry> pickups =
      LoadGeometries(&fs, "/data/taxi.tsv", -1);
  std::vector<join::IdGeometry> lion =
      LoadGeometries(&fs, "/data/lion.tsv", -1);

  std::printf("taxi-lion NearestD sweep: %zu pickups x %zu streets\n\n",
              pickups.size(), lion.size());
  std::printf("%8s %12s %14s %16s\n", "D (ft)", "pairs", "pairs/pickup",
              "pickups matched");
  for (double d : {25.0, 50.0, 100.0, 250.0, 500.0}) {
    Counters counters;
    auto pairs = join::BroadcastSpatialJoin(
        pickups, lion, join::SpatialPredicate::NearestD(d), &counters);
    std::map<int64_t, bool> matched;
    for (const auto& [pickup, street] : pairs) matched[pickup] = true;
    std::printf("%8.0f %12zu %14.2f %15.1f%%\n", d, pairs.size(),
                static_cast<double>(pairs.size()) / pickups.size(),
                100.0 * matched.size() / pickups.size());
  }

  // Oracle check on a sample: indexed join == nested loop.
  std::vector<join::IdGeometry> sample(pickups.begin(),
                                       pickups.begin() + 500);
  // Stride over the street list so the sample spans the whole city (the
  // generator emits streets in grid order).
  std::vector<join::IdGeometry> street_sample;
  const size_t stride = std::max<size_t>(1, lion.size() / 2000);
  for (size_t i = 0; i < lion.size(); i += stride) {
    street_sample.push_back(lion[i]);
  }
  auto indexed = join::BroadcastSpatialJoin(
      sample, street_sample, join::SpatialPredicate::NearestD(100.0));
  auto oracle = join::NestedLoopSpatialJoin(
      sample, street_sample, join::SpatialPredicate::NearestD(100.0));
  std::sort(indexed.begin(), indexed.end());
  std::sort(oracle.begin(), oracle.end());
  CLOUDJOIN_CHECK(indexed == oracle);
  std::printf("\nindexed join verified against nested-loop oracle on a "
              "500x2000 sample (%zu pairs)\n",
              indexed.size());
  return 0;
}
