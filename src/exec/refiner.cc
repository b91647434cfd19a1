#include "exec/refiner.h"

#include "exec/geo_parse.h"

namespace cloudjoin::exec {

bool RefineGeosWkt(const std::string& left_wkt, const std::string& right_wkt,
                   const SpatialPredicate& predicate, ProbeStats* stats) {
  auto left = ParseGeosWkt(left_wkt);
  auto right = ParseGeosWkt(right_wkt);
  if (!left.ok() || !right.ok()) {
    stats->Add(Stat::kRefineParseError);
    return false;
  }
  return RefineGeosPair(**left, **right, predicate);
}

}  // namespace cloudjoin::exec
