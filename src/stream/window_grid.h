#ifndef CLOUDJOIN_STREAM_WINDOW_GRID_H_
#define CLOUDJOIN_STREAM_WINDOW_GRID_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "geom/envelope.h"
#include "geosim/geometry.h"
#include "stream/stream_event.h"

namespace cloudjoin::stream {

struct WindowGridOptions {
  /// Upper bound on cells_per_axis. Every live pane allocates
  /// cells_per_axis^2 cells, each an empty vector plus an envelope (about
  /// 56 bytes) before any event arrives, so 256 caps one pane's directory
  /// near 3.7 MB, 256 times the default's.
  static constexpr int kMaxCellsPerAxis = 256;

  /// Cells per axis of each pane's uniform grid (GeoFlink's fixed grid).
  /// cells_per_axis^2 cells per live pane; 16 keeps a pane's directory a
  /// few KB while giving streets-scale feeds real pruning.
  int cells_per_axis = 16;
  /// Spatial extent the grid covers. Events outside (or with non-finite /
  /// empty envelopes) fall into the clamped edge cells — never dropped.
  /// Empty extent degrades to a single cell (no pruning, still correct).
  geom::Envelope extent;

  /// InvalidArgument when cells_per_axis exceeds kMaxCellsPerAxis (values
  /// below 1 are clamped to one cell). Client-supplied grid options are
  /// validated with this where they enter.
  Status Validate() const {
    if (cells_per_axis > kMaxCellsPerAxis) {
      return Status::InvalidArgument(
          "window grid cells_per_axis must be <= " +
          std::to_string(kMaxCellsPerAxis) + ", got " +
          std::to_string(cells_per_axis));
    }
    return Status::OK();
  }
};

/// The incremental uniform-grid index over live window contents
/// (GeoFlink's core idea): events are inserted into their cell once on
/// arrival — parsed once, placed once — and leave in O(pane) when the
/// watermark expires their pane, instead of the window index being
/// rebuilt from scratch for every firing. Organized per pane so sliding
/// windows share storage: window w gathers panes [w, w + P - 1], and
/// expiry is pane-granular exactly like the WindowManager's.
///
/// Each cell tracks the envelope of its *contents* (not its nominal
/// bounds), so gathering for a probe region can skip whole cells whose
/// contents cannot reach it — output-neutral, because the batched filter
/// would reject every candidate in them anyway.
///
/// Each pane also memoizes the right ids its events matched, so the P
/// windows that overlap a pane filter and refine each of its events once
/// (the pane technique of Li et al., "No Pane, No Gain"). The memo holds
/// for one right side at a time; the owner calls ForgetMatches when that
/// changes.
///
/// Not thread-safe; the registry serializes access. Mutation of this
/// index outside src/stream is a tripwire violation
/// (tools/check_no_dup_scan.sh).
class WindowGrid {
 public:
  /// One indexed event: identity plus the arrival-parsed geometry. `event`
  /// points into the WindowManager's pane storage and shares its lifetime
  /// (both expire on the same pane boundary). `seq` and `id` copy the
  /// event's own fields so Gather's sort and the pair assembly read them
  /// without following `event`: reading them through the pointer instead
  /// measured about 6 % lower perfbench stream_slide throughput on a
  /// 4-vCPU Xeon host, more than the 16 bytes per live event save.
  struct EventRef {
    int64_t seq = 0;
    int64_t id = 0;
    const StreamEvent* event = nullptr;
    std::unique_ptr<geosim::Geometry> geom;
    /// Set by Insert: the event's pane and its arrival position among
    /// that pane's events, which key its stored matches.
    int64_t pane = 0;
    int64_t slot = 0;
  };

  struct GatherStats {
    /// Non-empty cells consulted.
    int64_t cells_scanned = 0;
    /// Non-empty cells skipped by the content-envelope test.
    int64_t cells_pruned = 0;
    /// Events inside skipped cells.
    int64_t events_pruned = 0;
  };

  explicit WindowGrid(const WindowGridOptions& options);

  /// Indexes one arrival into pane `pane` (O(1): one cell append plus a
  /// content-envelope expand).
  void Insert(int64_t pane, EventRef ref);

  /// Releases every event of `pane`, with its stored matches; returns how
  /// many events were dropped.
  int64_t ExpirePane(int64_t pane);

  /// Collects the refs of panes [first_pane, last_pane] whose cell
  /// contents can intersect `region`, appending to `out` and restoring
  /// global arrival order (sort by seq). An empty `region` gathers
  /// nothing — the right side is empty, so no probe can match.
  void Gather(int64_t first_pane, int64_t last_pane,
              const geom::Envelope& region,
              std::vector<const EventRef*>* out, GatherStats* stats) const;

  /// The right ids `ref` matched, in emit order, or std::nullopt while it
  /// is unprobed. `ref` must come from Gather on this grid, with its pane
  /// still live; the span is valid until the grid next changes.
  std::optional<std::span<const int64_t>> StoredMatches(
      const EventRef& ref) const;

  /// Stores `right_ids` as the matches of the unprobed `ref`.
  void StoreMatches(const EventRef& ref, std::span<const int64_t> right_ids);

  /// Leaves every live event unprobed: the right side its stored matches
  /// were computed against has been replaced.
  void ForgetMatches();

  int64_t live_events() const { return live_events_; }
  int64_t live_panes() const { return static_cast<int64_t>(panes_.size()); }

 private:
  struct Cell {
    std::vector<EventRef> events;
    /// Envelope of the contents' envelopes (grows on insert; never
    /// shrinks — pruning stays conservative within a pane's lifetime).
    geom::Envelope bounds;
  };
  /// One event's run in its pane's `matches`; begin < 0 while unprobed.
  struct MatchRange {
    int64_t begin = -1;
    int64_t count = 0;
  };
  struct PaneGrid {
    std::vector<Cell> cells;
    /// The match memo: `ranges[slot]` locates each event's run of right
    /// ids in `matches`.
    std::vector<MatchRange> ranges;
    std::vector<int64_t> matches;
  };

  /// Cell index for an event envelope (clamped into the grid).
  int CellFor(const geom::Envelope& envelope) const;

  WindowGridOptions options_;
  int cells_per_axis_;
  double cell_width_;
  double cell_height_;
  std::map<int64_t, PaneGrid> panes_;
  int64_t live_events_ = 0;
};

}  // namespace cloudjoin::stream

#endif  // CLOUDJOIN_STREAM_WINDOW_GRID_H_
