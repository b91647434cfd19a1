#ifndef CLOUDJOIN_INDEX_PROBE_OPTIONS_H_
#define CLOUDJOIN_INDEX_PROBE_OPTIONS_H_

#include <string>

#include "common/status.h"

namespace cloudjoin::index {

/// Tuning for the probe (filter) side of the broadcast join: how left
/// records are batched against the right-side index.
///
/// Probes are always tested against the packed SoA tree with the
/// branch-free batch kernel, in arrival order; the defaults collect them
/// into fixed-size row batches. Every combination produces the same pairs
/// in the same order — the knobs trade only constant factors (batching
/// amortizes dispatch), which is exactly the execution-layout axis the
/// paper measures between ISP-MC's row batches and SpatialSpark's
/// per-record closures.
struct ProbeOptions {
  /// Probes per EnvelopeBatch. 1 degenerates to per-record probing.
  int batch_size = 256;
  /// Consult the right side's sFilter membership bitmap (when the build
  /// carries one) before batch descent, dropping probes with provably zero
  /// candidates. Results are byte-identical either way; the counter
  /// join.sfilter_skipped records the drops.
  bool sfilter = true;

  /// InvalidArgument unless every knob is usable. Client-supplied options
  /// (SQL query options, kernel requests, stream registrations) are
  /// validated with this where they enter; the probe driver itself CHECKs.
  Status Validate() const {
    if (batch_size < 1) {
      return Status::InvalidArgument("probe batch_size must be >= 1, got " +
                                     std::to_string(batch_size));
    }
    return Status::OK();
  }
};

}  // namespace cloudjoin::index

#endif  // CLOUDJOIN_INDEX_PROBE_OPTIONS_H_
