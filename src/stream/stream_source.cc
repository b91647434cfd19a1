#include "stream/stream_source.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "data/generators.h"
#include "exec/probe_scanner.h"

namespace cloudjoin::stream {

namespace {

std::string PointWkt(double x, double y) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "POINT (%.17g %.17g)", x, y);
  return buf;
}

/// Applies the shared out-of-order stressor: with probability
/// `fraction`, push the event time back by up to `max_delay_ms`.
int64_t MaybeDelay(int64_t t, double fraction, int64_t max_delay_ms,
                   Rng* rng) {
  if (max_delay_ms <= 0 || !rng->Bernoulli(fraction)) return t;
  return t - static_cast<int64_t>(
                 rng->UniformInt(static_cast<uint64_t>(max_delay_ms) + 1));
}

}  // namespace

SyntheticPointSource::SyntheticPointSource(
    const SyntheticPointSourceOptions& options)
    : options_(options), rng_(options.seed ^ 0x5f3759df9e3779b9ULL) {
  if (options_.extent.IsEmpty()) options_.extent = data::NycExtent();
  const double w = options_.extent.Width();
  const double h = options_.extent.Height();
  for (int i = 0; i < options_.num_hotspots; ++i) {
    const double cx =
        rng_.Uniform(options_.extent.min_x(), options_.extent.max_x());
    const double cy =
        rng_.Uniform(options_.extent.min_y(), options_.extent.max_y());
    geom::Envelope spot(cx, cy, cx, cy);
    spot.ExpandBy(std::max(w, h) * 0.02);
    hotspots_.push_back(spot);
  }
}

bool SyntheticPointSource::Next(StreamEvent* event) {
  if (emitted_ >= options_.num_events) return false;
  double x;
  double y;
  if (!hotspots_.empty() && rng_.Bernoulli(options_.hotspot_fraction)) {
    const geom::Envelope& spot =
        hotspots_[rng_.UniformInt(hotspots_.size())];
    const geom::Point c = spot.Center();
    x = rng_.Normal(c.x, std::max(spot.Width(), 1e-9) * 0.5);
    y = rng_.Normal(c.y, std::max(spot.Height(), 1e-9) * 0.5);
    x = std::clamp(x, options_.extent.min_x(), options_.extent.max_x());
    y = std::clamp(y, options_.extent.min_y(), options_.extent.max_y());
  } else {
    x = rng_.Uniform(options_.extent.min_x(), options_.extent.max_x());
    y = rng_.Uniform(options_.extent.min_y(), options_.extent.max_y());
  }

  event->seq = 0;
  event->id = emitted_;
  event->wkt = PointWkt(x, y);
  event->event_time_ms =
      MaybeDelay(static_cast<int64_t>(clock_ms_),
                 options_.out_of_order_fraction, options_.max_delay_ms, &rng_);

  ++emitted_;
  const int64_t burst = std::max<int64_t>(options_.burst, 1);
  if (emitted_ % burst == 0) {
    clock_ms_ +=
        burst * 1000.0 / std::max(options_.events_per_second, 1e-6);
  }
  return true;
}

Result<TableReplaySource> TableReplaySource::Open(
    const dfs::SimFileSystem& fs, const exec::TableInput& input,
    const Options& options) {
  const dfs::SimFile* file;
  CLOUDJOIN_ASSIGN_OR_RETURN(file, fs.GetFile(input.path));
  // One pass through the shared left-scan: same field split, same
  // malformed-row drops as the batch engines. Parsed geometries are
  // discarded — the feed carries WKT and the window index re-parses on
  // arrival, exactly like any other source.
  exec::ProbeStats scan_stats;
  exec::ProbeScanner scanner(input, &scan_stats);
  exec::GeosProbeBatch batch;
  scanner.ScanBlock(*file, 0, file->size(), &batch);
  return TableReplaySource(std::move(batch.ids), std::move(batch.wkt),
                           scan_stats, options);
}

TableReplaySource::TableReplaySource(std::vector<int64_t> ids,
                                     std::vector<std::string> wkt,
                                     const exec::ProbeStats& scan_stats,
                                     const Options& options)
    : options_(options),
      scan_stats_(scan_stats),
      rng_(options.seed ^ 0x243f6a8885a308d3ULL),
      ids_(std::move(ids)),
      wkt_(std::move(wkt)) {}

bool TableReplaySource::Next(StreamEvent* event) {
  if (cursor_ >= num_rows()) return false;
  const size_t i = static_cast<size_t>(cursor_);
  event->seq = 0;
  event->id = ids_[i];
  event->wkt = wkt_[i];
  event->event_time_ms =
      MaybeDelay(static_cast<int64_t>(clock_ms_),
                 options_.out_of_order_fraction, options_.max_delay_ms, &rng_);
  ++cursor_;
  clock_ms_ += 1000.0 / std::max(options_.events_per_second, 1e-6);
  return true;
}

}  // namespace cloudjoin::stream
