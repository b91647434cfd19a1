#include "perfbench/inputs.h"

#include "data/generators.h"

namespace cloudjoin::perfbench {

Status MaterializeSuite(dfs::SimFileSystem* fs, uint64_t seed,
                        data::WorkloadSuite* suite) {
  CLOUDJOIN_ASSIGN_OR_RETURN(
      *suite, data::MaterializeWorkloads(fs, kScale, kReferenceSeed));
  // Same generators, sizes and seed offsets as MaterializeWorkloads.
  CLOUDJOIN_RETURN_IF_ERROR(
      fs->WriteTextFile(suite->taxi_nycb.left.path,
                        data::GenerateTaxiTrips(suite->taxi_count, seed + 1)));
  return fs->WriteTextFile(
      suite->hotspot_nycb.left.path,
      data::GenerateHotspotPoints(suite->hotspot_count, seed + 6));
}

}  // namespace cloudjoin::perfbench
