#ifndef CLOUDJOIN_EXEC_PROBE_DRIVER_H_
#define CLOUDJOIN_EXEC_PROBE_DRIVER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/built_right.h"
#include "exec/probe_stats.h"
#include "index/batch_prober.h"
#include "index/packed_str_tree.h"
#include "index/probe_options.h"
#include "index/sfilter.h"
#include "index/str_tree.h"

namespace cloudjoin::exec {

/// The sFilter survivor pass: calls `keep(i)`, ascending, for every probe
/// i in [0, n) whose envelope `sfilter` cannot rule out, and returns how
/// many probes it dropped. A dropped probe has provably zero candidates
/// (the bitmap has no false negatives), so skipping it never changes
/// output. A null `sfilter` keeps every probe.
template <typename EnvelopeAt, typename Keep>
int64_t ForEachSFilterSurvivor(int64_t n, const index::SFilter* sfilter,
                               EnvelopeAt&& envelope_at, Keep&& keep) {
  int64_t kept = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (sfilter == nullptr || sfilter->MightIntersect(envelope_at(i))) {
      keep(i);
      ++kept;
    }
  }
  return n - kept;
}

/// The one filter -> refine loop every engine runs (RESQUE's single
/// build-then-probe loop): probes [0, n) go through the sFilter survivor
/// pass (under `options.sfilter`, when `sfilter` is non-null), then
/// through index::RunBatchedProbes over the packed layout of `tree`, and
/// every candidate is handed to the engine's refiner with the original
/// probe order restored. Candidate, match, sFilter and filter-phase counts
/// land in `stats` (non-null), so every engine reports the same numbers.
///
/// Engines supply three callables:
///  - `envelope_at(i)`: probe i's query envelope;
///  - `refine(i, slot)`: whether probe i matches right slot `slot`, as a
///    bool — or `std::nullopt` when probe i cannot be refined at all (a
///    lazily materialized geometry failed to parse), which withdraws the
///    candidate uncounted;
///  - `emit(i, slot)`: called for every match, probes ascending and, per
///    probe, in tree emit order — the same sequence for every knob.
template <typename EnvelopeAt, typename Refine, typename Emit>
void RunProbes(int64_t n, const index::StrTree& tree,
               const index::PackedStrTree& packed,
               const index::SFilter* sfilter,
               const index::ProbeOptions& options, EnvelopeAt&& envelope_at,
               Refine&& refine, Emit&& emit, ProbeStats* stats) {
  index::BatchStats filter_stats;
  auto run = [&](int64_t count, auto&& probe_of) {
    index::RunBatchedProbes(
        count, tree, &packed, options,
        [&](int64_t i) { return envelope_at(probe_of(i)); },
        [&](int64_t i, int64_t slot) {
          const int64_t probe = probe_of(i);
          const std::optional<bool> match = refine(probe, slot);
          if (!match.has_value()) return;
          ++stats->candidates;
          if (!*match) return;
          ++stats->matches;
          emit(probe, slot);
        },
        &filter_stats);
  };
  if (options.sfilter && sfilter != nullptr) {
    std::vector<int64_t> survivors;
    survivors.reserve(static_cast<size_t>(n));
    stats->sfilter_skipped += ForEachSFilterSurvivor(
        n, sfilter, envelope_at, [&](int64_t i) { survivors.push_back(i); });
    run(static_cast<int64_t>(survivors.size()),
        [&](int64_t i) { return survivors[static_cast<size_t>(i)]; });
  } else {
    run(n, [](int64_t i) { return i; });
  }
  stats->AddFilter(filter_stats);
}

/// RunProbes against a whole built right side (its tree, packed layout and
/// sFilter).
template <typename EnvelopeAt, typename Refine, typename Emit>
void RunProbes(int64_t n, const BuiltRight& right,
               const index::ProbeOptions& options, EnvelopeAt&& envelope_at,
               Refine&& refine, Emit&& emit, ProbeStats* stats) {
  RunProbes(n, *right.tree, *right.packed, right.sfilter.get(), options,
            envelope_at, refine, emit, stats);
}

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_PROBE_DRIVER_H_
