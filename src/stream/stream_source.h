#ifndef CLOUDJOIN_STREAM_STREAM_SOURCE_H_
#define CLOUDJOIN_STREAM_STREAM_SOURCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "dfs/sim_file_system.h"
#include "exec/probe_stats.h"
#include "exec/table_input.h"
#include "geom/envelope.h"
#include "stream/stream_event.h"

namespace cloudjoin::stream {

/// A finite, deterministic feed of timestamped point events. Two sources
/// constructed with identical parameters yield identical event sequences
/// (ids, WKT, event times, order) — replayability is what makes the
/// streaming differential arm and the bench ablations meaningful.
class StreamSource {
 public:
  virtual ~StreamSource() = default;

  /// Fills `event` with the next arrival and returns true, or returns
  /// false when the feed is exhausted. `event->seq` is left 0 — the
  /// WindowManager stamps arrival order on acceptance.
  virtual bool Next(StreamEvent* event) = 0;
};

/// Tuning for the synthetic ping generator.
struct SyntheticPointSourceOptions {
  int64_t num_events = 100000;
  /// Event-time arrival rate: consecutive base timestamps are spaced
  /// 1000 / events_per_second milliseconds apart (accumulated in double,
  /// so non-integer spacings don't drift).
  double events_per_second = 10000.0;
  uint64_t seed = 1;
  /// Spatial extent of the feed; empty selects data::NycExtent().
  geom::Envelope extent;
  /// Fraction of pings drawn from Gaussian hotspots instead of uniformly
  /// (taxi traffic clusters around a few zones).
  double hotspot_fraction = 0.7;
  int num_hotspots = 5;
  /// Fraction of events delivered with their event time pushed into the
  /// past (delivery order stays monotone in generation order, so these
  /// arrive out of order in event time — the late-event stressor).
  double out_of_order_fraction = 0.05;
  /// Maximum event-time delay applied to an out-of-order event.
  int64_t max_delay_ms = 200;
  /// Events sharing one base timestamp before the clock advances by the
  /// accumulated spacing — models network batching. 1 = smooth arrivals;
  /// larger values make the watermark advance in jumps, so fired windows
  /// see a nonzero watermark overshoot (the bench's lag metric).
  int64_t burst = 1;
};

/// Seeded generator of timestamped POINT events over a hotspot-skewed
/// spatial distribution, emitting at a configurable event-time rate.
class SyntheticPointSource : public StreamSource {
 public:
  explicit SyntheticPointSource(const SyntheticPointSourceOptions& options);

  bool Next(StreamEvent* event) override;

 private:
  SyntheticPointSourceOptions options_;
  Rng rng_;
  std::vector<geom::Envelope> hotspots_;
  int64_t emitted_ = 0;
  double clock_ms_ = 0.0;
};

/// Replays the rows of a registered delimited table as a timestamped
/// feed, in row order, at a configurable event-time rate — the
/// "historical taxi log replayed as a stream" mode. Rows are scanned once
/// at Open through the shared exec scan path; malformed rows and bad
/// geometries are dropped and counted in scan_stats().
class TableReplaySource : public StreamSource {
 public:
  struct Options {
    double events_per_second = 10000.0;
    /// Same out-of-order stressor as the synthetic source.
    double out_of_order_fraction = 0.0;
    int64_t max_delay_ms = 0;
    uint64_t seed = 1;
  };

  static Result<TableReplaySource> Open(const dfs::SimFileSystem& fs,
                                        const exec::TableInput& input,
                                        const Options& options);

  bool Next(StreamEvent* event) override;

  int64_t num_rows() const { return static_cast<int64_t>(ids_.size()); }

  /// The Open scan's counts: the rows it dropped as malformed
  /// (join.left_malformed) or as bad geometries (join.left_bad_geom).
  const exec::ProbeStats& scan_stats() const { return scan_stats_; }

 private:
  TableReplaySource(std::vector<int64_t> ids, std::vector<std::string> wkt,
                    const exec::ProbeStats& scan_stats,
                    const Options& options);

  Options options_;
  exec::ProbeStats scan_stats_;
  Rng rng_;
  std::vector<int64_t> ids_;
  std::vector<std::string> wkt_;
  int64_t cursor_ = 0;
  double clock_ms_ = 0.0;
};

}  // namespace cloudjoin::stream

#endif  // CLOUDJOIN_STREAM_STREAM_SOURCE_H_
