// Species richness: the paper's biodiversity scenario — map GBIF-style
// species occurrence records to WWF-style ecoregions (G10M-wwf, Within)
// and compute per-ecoregion species richness (number of distinct species),
// the quantity conservation planners derive from this join.
//
//   ./species_richness [--points=N] [--regions=R] [--top=K]

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "data/generators.h"
#include "dfs/sim_file_system.h"
#include "join/spatial_spark_system.h"

using namespace cloudjoin;

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"points", "regions", "top"});
  const int64_t points = flags.GetInt("points", 30000);
  const int regions = static_cast<int>(flags.GetInt("regions", 3000));
  const int top = static_cast<int>(flags.GetInt("top", 10));

  dfs::SimFileSystem fs(4, 64 * 1024);
  CLOUDJOIN_CHECK_OK(fs.WriteTextFile(
      "/data/g10m.tsv", data::GenerateSpeciesOccurrences(points, 21)));
  CLOUDJOIN_CHECK_OK(fs.WriteTextFile(
      "/data/wwf.tsv", data::GenerateEcoregions(regions, 22)));
  join::TableInput occurrences{"/data/g10m.tsv", '\t', 0, 1};
  join::TableInput ecoregions{"/data/wwf.tsv", '\t', 0, 1};

  // Load the species attribute column (occurrence id -> species label).
  std::vector<std::string> species_of;
  {
    auto file = fs.GetFile("/data/g10m.tsv");
    CLOUDJOIN_CHECK(file.ok());
    dfs::LineRecordReader reader((*file)->data(), 0, (*file)->size());
    std::string_view line;
    while (reader.Next(&line)) {
      auto fields = StrSplit(line, '\t');
      species_of.emplace_back(fields[2]);
    }
  }

  // The join: occurrence-in-ecoregion.
  join::SpatialSparkSystem spark(&fs, 16);
  auto run =
      spark.Join(occurrences, ecoregions, join::SpatialPredicate::Within());
  CLOUDJOIN_CHECK(run.ok()) << run.status();

  // Richness = |distinct species| per ecoregion.
  std::map<int64_t, std::set<std::string>> species_per_region;
  for (const auto& [occurrence_id, region_id] : run->pairs) {
    species_per_region[region_id].insert(
        species_of[static_cast<size_t>(occurrence_id)]);
  }
  std::vector<std::pair<int64_t, int64_t>> ranked;  // (richness, region)
  int64_t total_richness = 0;
  for (const auto& [region, species] : species_per_region) {
    ranked.emplace_back(static_cast<int64_t>(species.size()), region);
    total_richness += static_cast<int64_t>(species.size());
  }
  std::sort(ranked.rbegin(), ranked.rend());

  std::printf(
      "G10M-wwf: %lld occurrences x %d ecoregions -> %zu matches, "
      "%zu ecoregions populated\n\n",
      static_cast<long long>(points), regions, run->pairs.size(),
      species_per_region.size());
  std::printf("top %d ecoregions by species richness:\n", top);
  for (int i = 0; i < top && i < static_cast<int>(ranked.size()); ++i) {
    std::printf("  #%2d ecoregion %6lld: %5lld distinct species\n", i + 1,
                static_cast<long long>(ranked[i].second),
                static_cast<long long>(ranked[i].first));
  }
  std::printf("\nmean richness over populated regions: %.1f\n",
              static_cast<double>(total_richness) /
                  static_cast<double>(species_per_region.size()));
  return 0;
}
