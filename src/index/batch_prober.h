#ifndef CLOUDJOIN_INDEX_BATCH_PROBER_H_
#define CLOUDJOIN_INDEX_BATCH_PROBER_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "geom/envelope_batch.h"
#include "geom/hilbert.h"
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
/// Runs probes [0, n) against the right-side index in
/// `options.batch_size`-sized row batches: collect the probe envelopes of
/// one batch, optionally Hilbert-sort them so consecutive tree walks share
/// subtrees, filter the whole batch through the packed SoA layout into a
/// dense candidate buffer, then hand the candidates to `refine` with the
/// *original* probe order restored — so every knob combination produces
/// identical output, byte for byte, and the engines' result contracts
/// (left-major order, parallel == serial) survive unchanged.
///
/// `packed` is the layout of `tree` (non-null); `tree` supplies the bounds
/// the Hilbert keys are taken over. `envelope_at(i)` returns probe i's
/// query envelope; `refine(i, id)` is called for every candidate, probes
/// ascending, per-probe candidates in tree emit order
/// (StrTree::VisitQuery order).
template <typename EnvelopeAt, typename Refine>
void RunBatchedProbes(int64_t n, const StrTree& tree,
                      const PackedStrTree* packed, const ProbeOptions& options,
                      EnvelopeAt&& envelope_at, Refine&& refine,
                      BatchStats* stats) {
  CLOUDJOIN_CHECK(options.batch_size >= 1);
  CLOUDJOIN_CHECK(packed != nullptr);
  const int64_t batch_size = options.batch_size;
  const geom::HilbertEncoder encoder(tree.bounds());

  // Per-batch scratch, reused so the steady state allocates nothing.
  geom::EnvelopeBatch batch;
  PairSink sink;
  std::vector<geom::Envelope> envelopes;
  std::vector<uint64_t> keys;
  std::vector<int32_t> perm;
  std::vector<int32_t> counts;
  std::vector<int32_t> offsets;
  std::vector<int32_t> out_probe;
  std::vector<int64_t> out_id;

  for (int64_t start = 0; start < n; start += batch_size) {
    const int32_t m = static_cast<int32_t>(std::min(n - start, batch_size));
    envelopes.clear();
    for (int32_t i = 0; i < m; ++i) {
      envelopes.push_back(envelope_at(start + i));
    }

    const bool reordered = options.hilbert_sort && m > 1;
    perm.resize(static_cast<size_t>(m));
    std::iota(perm.begin(), perm.end(), 0);
    if (reordered) {
      keys.resize(static_cast<size_t>(m));
      for (int32_t i = 0; i < m; ++i) {
        keys[static_cast<size_t>(i)] =
            encoder.Key(envelopes[static_cast<size_t>(i)]);
      }
      std::stable_sort(perm.begin(), perm.end(), [&](int32_t a, int32_t b) {
        return keys[static_cast<size_t>(a)] < keys[static_cast<size_t>(b)];
      });
    }

    batch.Clear();
    for (int32_t i = 0; i < m; ++i) {
      batch.Add(envelopes[static_cast<size_t>(perm[static_cast<size_t>(i)])]);
    }

    sink.Clear();
    stats->simd_lanes += packed->BatchQuery(batch, &sink);
    ++stats->batches;
    stats->candidates += static_cast<int64_t>(sink.size());

    if (!reordered) {
      // Sink order is already probe-ascending within the batch.
      for (size_t c = 0; c < sink.size(); ++c) {
        refine(start + sink.probe(c), sink.id(c));
      }
      continue;
    }

    // Counting sort back to original probe order: all of one probe's
    // candidates sit in a single contiguous sink run, so the stable
    // scatter keeps their tree emit order intact.
    counts.assign(static_cast<size_t>(m), 0);
    for (size_t c = 0; c < sink.size(); ++c) {
      ++counts[static_cast<size_t>(perm[static_cast<size_t>(sink.probe(c))])];
    }
    offsets.assign(static_cast<size_t>(m), 0);
    int32_t running = 0;
    for (int32_t i = 0; i < m; ++i) {
      offsets[static_cast<size_t>(i)] = running;
      running += counts[static_cast<size_t>(i)];
    }
    out_probe.resize(sink.size());
    out_id.resize(sink.size());
    for (size_t c = 0; c < sink.size(); ++c) {
      const int32_t orig = perm[static_cast<size_t>(sink.probe(c))];
      const int32_t slot = offsets[static_cast<size_t>(orig)]++;
      out_probe[static_cast<size_t>(slot)] = orig;
      out_id[static_cast<size_t>(slot)] = sink.id(c);
    }
    for (size_t c = 0; c < out_probe.size(); ++c) {
      refine(start + out_probe[c], out_id[c]);
    }
  }
}

}  // namespace cloudjoin::index

#endif  // CLOUDJOIN_INDEX_BATCH_PROBER_H_
