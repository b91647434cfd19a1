#include "exec/probe_stats.h"

namespace cloudjoin::exec {

void ProbeStats::FlushTo(Counters* counters) const {
  if (counters == nullptr) return;
  for (size_t i = 0; i < kNumStats; ++i) {
    if (slots_[i] != 0) counters->Add(kStatNames[i], slots_[i]);
  }
}

}  // namespace cloudjoin::exec
