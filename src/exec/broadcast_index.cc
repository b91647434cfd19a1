#include "exec/broadcast_index.h"

#include <utility>

#include "exec/right_builder.h"

namespace cloudjoin::exec {

BroadcastIndex::BroadcastIndex(std::vector<IdGeometry> records, double radius,
                               const PrepareOptions& prepare)
    : refiner_(&core_.records, &core_.prepared) {
  RightIndexBuilder builder(radius, prepare);
  builder.AddGeomRecords(std::move(records));
  core_ = builder.Finish(/*counters=*/nullptr, &prepare_seconds_);
  num_prepared_ = core_.NumPrepared();
}

}  // namespace cloudjoin::exec
