#ifndef CLOUDJOIN_PERFBENCH_WORKLOADS_H_
#define CLOUDJOIN_PERFBENCH_WORKLOADS_H_

#include "perfbench/bench.h"

namespace cloudjoin::perfbench {

/// Resident QueryService, broadcast indexes warm, two closed-loop clients
/// over the five paper query classes.
Outcome RunPaperWarm(const RunOptions& options);

/// Same service and classes, one client; every op re-registers the
/// class's right table (alternating two versions) before querying it.
Outcome RunPaperRefresh(const RunOptions& options);

/// One continuous sliding-window spatial join over a seeded point feed.
Outcome RunStreamSlide(const RunOptions& options);

}  // namespace cloudjoin::perfbench

#endif  // CLOUDJOIN_PERFBENCH_WORKLOADS_H_
