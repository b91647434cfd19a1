#!/usr/bin/env bash
# Duplication tripwire for the shared execution core (src/exec/).
#
# PR 5 collapsed four near-identical right-side build loops and three
# refinement dispatch switches into src/exec/. This check fails CI if a
# copy creeps back in:
#
#   1. WKTReader (the GEOS-role parser) may be used only by the kernel
#      itself (src/geosim/) and the core's one entry point
#      (src/exec/geo_parse.*). An engine shell parsing WKT directly is a
#      second scan loop in the making.
#   2. StrTree::Entry construction (the right-side index build) may appear
#      only in the index layer (src/index/) and the core's builder
#      (src/exec/). An engine shell assembling tree entries is a second
#      right-build loop.
#
# Engines must route through exec::ParseGeosWkt / exec::ParseGeometryText
# and exec::RightIndexBuilder instead.
#
# PR 6 added the columnar block format. The storage layer now has exactly
# two sanctioned scan entry points — dfs::LineRecordReader (text) and
# dfs::ColumnarTableReader (columnar blocks) — so two more tripwires:
#
#   3. The columnar wire format (magic, header arithmetic) is decoded only
#      in src/dfs/columnar_block.*. A second decoder is a format fork.
#   4. ColumnarTableReader / LineRecordReader may be used only by the
#      storage layer itself, the execution core, and the sanctioned engine
#      scan shells listed below. Any other module growing a scan loop must
#      route through exec:: (probe scanner / right builder) instead.
#
# PR 7 added the streaming window index. Its mutation surface is
# deliberately tiny — insert on arrival, expire on watermark advance,
# both inside the registry — so:
#
#   5. WindowGrid (the live-window uniform grid) may be touched only by
#      src/stream/. Another layer mutating or even gathering from the
#      window index would bypass the windowing/watermark discipline that
#      makes streamed output byte-identical to per-window batch joins.
#
# PR 9 added the sFilter probe pre-filter and the planner's table stats:
#
#   6. BuildSFilter (the membership bitmap construction over packed R-tree
#      leaves) runs only in the index layer and the core's right builder.
#      An engine building its own bitmap would drift from the one
#      conservative construction the byte-identical guarantee rests on.
#   7. src/plan/table_stats reads tables through the two sanctioned scan
#      entry points (it is a sampling scan, not a new loop), so it joins
#      the reader allowlists.
#
# PR 10 made the serialized plan the execution contract: exec nodes are
# instantiated only from plan nodes, by the factories in
# src/impala/exec_node.cc. So:
#
#   8. Exec-node construction (make_unique<HdfsScanNode / SpatialJoinNode /
#      CrossJoinNode / ProjectNode>) may appear only in
#      src/impala/exec_node.cc. Any other site building an
#      exec object directly from AST or options bypasses the plan — its
#      queries would execute something EXPLAIN and the serialized plan do
#      not describe, breaking capture/replay.
#
# Every engine's filter -> refine loop runs through one probe driver,
# exec::RunProbes in src/exec/probe_driver.h, which owns the sFilter
# survivor pass, the batched descent and the candidate/match counting:
#
#   9. index::RunBatchedProbes and SFilter::MightIntersect may appear in
#      src/ only under src/index/ and in the driver's header. An engine
#      calling either directly is a second probe loop whose counters drift
#      from the others.
#
# Every partitioned join withdraws replicated candidates through the one
# per-tile step, exec::RunTileProbes, before refinement:
#
#  10. SpatialPartitioner::OwnerTileOf may appear in src/ only under
#      src/index/ and src/exec/ (comments included). An engine running its
#      own owner test is a second dedup whose counts drift from the
#      broadcast probe's.
#
# Every count on the probe and scan paths goes through one stats record,
# exec::ProbeStats, whose slots are named in src/exec/counter_names.h:
#
#  11. A "join.*, "scan.*, "stream.* or "plan.* string literal may appear
#      in src/ only in src/exec/counter_names.h and
#      src/stream/counter_names.h. A counter name spelled out elsewhere
#      can drift from the taxonomy the engines, tests and benches share.
#
# Every probe filters through the packed tree (index::PackedStrTree); the
# pointer index::StrTree is only the STR builder it is copied from and the
# VisitQuery reference walk that tests and benches compare against:
#
#  12. Outside src/index/, the type StrTree (not StrTree::Entry, not
#      PackedStrTree) may be named only by the right-side builders:
#      src/exec/built_right.h, src/exec/right_builder.cc and
#      src/exec/tiled_right.cc. Inside src/index/, a StrTree& parameter
#      may appear only in the tree itself, the layout and sFilter builds
#      that read it, and once in src/index/batch_prober.h: the
#      RunBatchedProbes forwarder the end-to-end benchmark still calls. A
#      driver or engine taking the pointer tree is a second probe path.
set -u
cd "$(dirname "$0")/.."

fail=0

check() {
  local label="$1" pattern="$2" allowed="$3"
  local hits
  hits=$(grep -rln "$pattern" src --include='*.cc' --include='*.h' |
    grep -Ev "$allowed" || true)
  if [ -n "$hits" ]; then
    echo "FAIL: $label found outside the execution core:" >&2
    echo "$hits" | sed 's/^/  /' >&2
    echo "Route through src/exec/ (see tools/check_no_dup_scan.sh)." >&2
    fail=1
  fi
}

check "WKTReader usage" \
  "WKTReader" \
  "^src/(exec/geo_parse|geosim/)"

check "right-side StrTree::Entry build" \
  "StrTree::Entry" \
  "^src/(exec/|index/)"

check "columnar wire-format decoding" \
  "kColumnarMagic" \
  "^src/dfs/columnar_block"

check "columnar scan entry point" \
  "ColumnarTableReader" \
  "^src/(dfs/columnar_block|exec/|data/convert|impala/exec_node|join/(standalone_mc|isp_mc_system)|plan/table_stats)"

check "text scan entry point" \
  "LineRecordReader" \
  "^src/(dfs/|exec/|data/convert|impala/exec_node|join/isp_mc_system|spark/rdd|plan/table_stats)"

check "sFilter construction" \
  "BuildSFilter" \
  "^src/(index/|exec/)"

# WindowGridOptions (plain configuration) is fine anywhere; the index
# type itself is what must stay inside src/stream/.
check "streaming window-grid index" \
  "WindowGrid[^O]" \
  "^src/stream/"

check "direct exec-node construction (bypasses the plan contract)" \
  "make_unique<\(HdfsScanNode\|SpatialJoinNode\|CrossJoinNode\|ProjectNode\)>" \
  "^src/impala/exec_node\.cc"

check "probe loop outside the driver" \
  "RunBatchedProbes\|MightIntersect" \
  "^src/(index/|exec/probe_driver\.h)"

check "owner-tile dedup outside the tiled probe" \
  "OwnerTileOf" \
  "^src/(index/|exec/)"

check "counter name spelled outside the counter-name headers" \
  '"\(join\|scan\|stream\|plan\)\.' \
  "^src/(exec|stream)/counter_names\.h$"

builders='^src/(index/|exec/(built_right\.h|right_builder\.cc|tiled_right\.cc)$)'
hits=$(grep -rlP '(?<!Packed)StrTree(?!::Entry)' src --include='*.cc' \
    --include='*.h' | grep -Ev "$builders" || true)
if [ -n "$hits" ]; then
  echo "FAIL: the pointer StrTree named outside the right-side builders:" >&2
  echo "$hits" | sed 's/^/  /' >&2
  echo "Probe through index::PackedStrTree (see" \
    "tools/check_no_dup_scan.sh)." >&2
  fail=1
fi
readers='^src/index/(str_tree\.h|packed_str_tree\.(h|cc)|sfilter\.(h|cc)):'
hits=$(grep -rnP '(?<!Packed)StrTree&' src/index --include='*.cc' \
    --include='*.h' | grep -Ev "$readers" || true)
if [ "$(echo "$hits" | grep -c '^src/index/batch_prober\.h:')" -ne 1 ] ||
    [ "$(echo "$hits" | grep -c .)" -ne 1 ]; then
  echo "FAIL: a probe function under src/index/ takes the pointer StrTree" \
    "(only the RunBatchedProbes forwarder may):" >&2
  echo "$hits" | sed 's/^/  /' >&2
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "check_no_dup_scan: OK (one scan loop, one parse entry point, one probe driver, one tiled probe, one counter taxonomy, one probe-time index)"
fi
exit "$fail"
