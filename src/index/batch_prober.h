#ifndef CLOUDJOIN_INDEX_BATCH_PROBER_H_
#define CLOUDJOIN_INDEX_BATCH_PROBER_H_

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "geom/envelope_batch.h"
#include "index/packed_str_tree.h"
#include "index/probe_options.h"
#include "index/str_tree.h"

namespace cloudjoin::index {

/// Filter-phase statistics produced by RunBatchedProbes, which
/// exec::RunProbes adds into its ProbeStats (-> join.filter_* counters).
struct BatchStats {
  int64_t batches = 0;
  int64_t candidates = 0;
  int64_t simd_lanes = 0;
};

/// The shared two-phase probe driver behind every engine's columnar path.
///
/// Runs probes [0, n) against `packed` in `options.batch_size`-sized row
/// batches, in arrival order: collect the probe envelopes of one batch,
/// filter the whole batch through the packed SoA layout into a dense
/// candidate buffer, then hand the candidates to `refine` — so every batch
/// size produces identical output, byte for byte, and the engines' result
/// contracts (left-major order, parallel == serial) hold.
///
/// `envelope_at(i)` returns probe i's query envelope; `refine(i, id)` is
/// called for every candidate, probes ascending, per-probe candidates in
/// tree emit order (StrTree::VisitQuery order).
template <typename EnvelopeAt, typename Refine>
void RunBatchedProbes(int64_t n, const PackedStrTree& packed,
                      const ProbeOptions& options, EnvelopeAt&& envelope_at,
                      Refine&& refine, BatchStats* stats) {
  CLOUDJOIN_CHECK(options.batch_size >= 1);
  const int64_t batch_size = options.batch_size;

  // Per-batch scratch, reused so the steady state allocates nothing.
  geom::EnvelopeBatch batch;
  PairSink sink;

  for (int64_t start = 0; start < n; start += batch_size) {
    const int64_t m = std::min(n - start, batch_size);
    batch.Clear();
    for (int64_t i = 0; i < m; ++i) batch.Add(envelope_at(start + i));

    sink.Clear();
    stats->simd_lanes += packed.BatchQuery(batch, &sink);
    ++stats->batches;
    stats->candidates += static_cast<int64_t>(sink.size());

    // Sink order is probe-ascending within the batch.
    for (size_t c = 0; c < sink.size(); ++c) {
      refine(start + sink.probe(c), sink.id(c));
    }
  }
}

/// The earlier form, which also took the pointer tree the packed layout
/// was copied from; `tree` is unused. Kept only for the end-to-end
/// benchmark (perfbench/sql_workloads.cc), which calls it.
template <typename EnvelopeAt, typename Refine>
void RunBatchedProbes(int64_t n, const StrTree& /*tree*/,
                      const PackedStrTree* packed, const ProbeOptions& options,
                      EnvelopeAt&& envelope_at, Refine&& refine,
                      BatchStats* stats) {
  RunBatchedProbes(n, *packed, options, envelope_at, refine, stats);
}

}  // namespace cloudjoin::index

#endif  // CLOUDJOIN_INDEX_BATCH_PROBER_H_
