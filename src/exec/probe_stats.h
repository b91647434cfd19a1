#ifndef CLOUDJOIN_EXEC_PROBE_STATS_H_
#define CLOUDJOIN_EXEC_PROBE_STATS_H_

#include <array>
#include <cstdint>

#include "common/counters.h"
#include "exec/counter_names.h"

namespace cloudjoin::exec {

/// The one stats record of the probe and scan paths: one int64_t slot per
/// exec::Stat. Every exec node, scanner and refiner counts into a local
/// record and flushes it once into the `Counters` it was handed, which
/// keeps the counter map's mutex off the per-row path.
class ProbeStats {
 public:
  void Add(Stat stat, int64_t delta = 1) {
    slots_[static_cast<size_t>(stat)] += delta;
  }
  int64_t Get(Stat stat) const { return slots_[static_cast<size_t>(stat)]; }

  void MergeFrom(const ProbeStats& other) {
    for (size_t i = 0; i < kNumStats; ++i) slots_[i] += other.slots_[i];
  }

  /// Adds the non-zero slots to `counters` under their kStatNames (no-op
  /// on nullptr).
  void FlushTo(Counters* counters) const;

 private:
  std::array<int64_t, kNumStats> slots_{};
};

/// The refiners count into the same record; this name stays for callers
/// that still declare their refinement stats by it.
using RefineStats = ProbeStats;

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_PROBE_STATS_H_
