#ifndef CLOUDJOIN_CHECK_STREAM_DIFFERENTIAL_H_
#define CLOUDJOIN_CHECK_STREAM_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cloudjoin::check {

/// Outcome of the streaming differential sweep.
struct StreamCheckReport {
  int64_t seeds = 0;
  /// Windows fired and compared (each one is compared twice: incremental
  /// arm vs batch, rebuild arm vs batch).
  int64_t windows = 0;
  int64_t events = 0;
  /// Seeds whose right table was re-registered from its second version
  /// halfway through the feed.
  int64_t right_switches = 0;
  /// Human-readable mismatch descriptions; empty = all byte-identical.
  std::vector<std::string> failures;
};

/// The streaming arm of the differential harness: for each seed, replays
/// the PR 3 edge-case workload's left table as a timestamped event feed
/// (seeded out-of-order and late arrivals) into a ContinuousQueryRegistry
/// under a seeded tumbling-or-sliding window spec, with BOTH index modes
/// registered — incremental grid and rebuild-per-window — and asserts
/// every fired window's streamed join output is byte-identical (window
/// bounds + ordered pair list) to a one-shot batch join
/// (exec::RunGeosProbes over a GeosProbeBatch) of the same window
/// contents against an independently built right side. Halfway through
/// each feed the right table is re-registered from a second file holding
/// every other row, and the oracle switches to that version at the same
/// event.
///
/// Exercises exactly the machinery the batch sweep cannot: watermark
/// firing order, pane expiry, arrival-order restoration after the grid
/// scatter, content-envelope cell pruning, the stream| cache keying, and
/// the per-pane match memo's invalidation when the right side changes.
StreamCheckReport RunStreamDifferential(uint64_t seed_base, int seeds,
                                        bool verbose);

}  // namespace cloudjoin::check

#endif  // CLOUDJOIN_CHECK_STREAM_DIFFERENTIAL_H_
