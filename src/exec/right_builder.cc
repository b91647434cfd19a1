#include "exec/right_builder.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "dfs/columnar_block.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "geom/wkt.h"
#include "index/packed_str_tree.h"

namespace cloudjoin::exec {

namespace {

/// The shared preparability rule, flat-kernel terms: polygonal and at
/// least `min_vertices` coordinates.
bool IsPreparableGeom(const geom::Geometry& g, int min_vertices) {
  return (g.type() == geom::GeometryType::kPolygon ||
          g.type() == geom::GeometryType::kMultiPolygon) &&
         g.NumCoords() >= min_vertices;
}

/// The same rule in GEOS-role terms, applied to a scanned geometry whose
/// grid (when eligible) is built from a second parse through the flat
/// kernel — once per right record, amortized over every probe.
std::unique_ptr<geom::PreparedPolygon> PrepareFromWkt(
    std::string_view wkt, const geosim::Geometry& parsed,
    const PrepareOptions& prepare) {
  const geosim::GeometryTypeId type_id = parsed.getGeometryTypeId();
  if ((type_id != geosim::GeometryTypeId::kPolygon &&
       type_id != geosim::GeometryTypeId::kMultiPolygon) ||
      parsed.getNumPoints() < static_cast<size_t>(prepare.min_vertices)) {
    return nullptr;
  }
  auto flat = geom::ReadWkt(wkt);
  if (!flat.ok()) return nullptr;
  return std::make_unique<geom::PreparedPolygon>(std::move(flat).value(),
                                                 prepare.grid_side);
}

/// The preparability rule when only the WKT is at hand (columnar builds,
/// which never run the GEOS-role scan parse): one flat-kernel parse
/// decides type and vertex count and doubles as the grid source.
std::unique_ptr<geom::PreparedPolygon> PrepareFromWktFlat(
    std::string_view wkt, const PrepareOptions& prepare) {
  auto flat = geom::ReadWkt(wkt);
  if (!flat.ok() || !IsPreparableGeom(*flat, prepare.min_vertices)) {
    return nullptr;
  }
  return std::make_unique<geom::PreparedPolygon>(std::move(flat).value(),
                                                 prepare.grid_side);
}

}  // namespace

RightIndexBuilder::RightIndexBuilder(double radius,
                                     const PrepareOptions& prepare)
    : radius_(radius), prepare_(prepare) {}

void RightIndexBuilder::AddGeomRecord(IdGeometry record) {
  geom::Envelope env = record.geometry.envelope();
  env.ExpandBy(radius_);
  entries_.push_back(index::StrTree::Entry{
      env, static_cast<int64_t>(built_.records.size())});
  built_.records.push_back(std::move(record));
}

void RightIndexBuilder::AddGeomRecords(std::vector<IdGeometry> records) {
  CLOUDJOIN_CHECK(built_.size() == 0);
  built_.records = std::move(records);
  entries_.reserve(built_.records.size());
  for (size_t i = 0; i < built_.records.size(); ++i) {
    geom::Envelope env = built_.records[i].geometry.envelope();
    env.ExpandBy(radius_);
    entries_.push_back(
        index::StrTree::Entry{env, static_cast<int64_t>(i)});
  }
}

void RightIndexBuilder::AddGeosRecord(int64_t id, std::string_view wkt,
                                      const geosim::Geometry& parsed) {
  geom::Envelope env = parsed.getEnvelopeInternal();
  env.ExpandBy(radius_);
  entries_.push_back(
      index::StrTree::Entry{env, static_cast<int64_t>(built_.ids.size())});
  built_.ids.push_back(id);
  built_.wkt.emplace_back(wkt);
  if (prepare_.enabled) {
    built_.prepared.push_back(PrepareFromWkt(wkt, parsed, prepare_));
  }
}

void RightIndexBuilder::AddEnvelopeRecord(int64_t id, std::string_view wkt,
                                          geom::Envelope envelope) {
  envelope.ExpandBy(radius_);
  entries_.push_back(index::StrTree::Entry{
      envelope, static_cast<int64_t>(built_.ids.size())});
  built_.ids.push_back(id);
  built_.wkt.emplace_back(wkt);
  if (prepare_.enabled) {
    built_.prepared.push_back(PrepareFromWktFlat(wkt, prepare_));
  }
}

BuiltRight RightIndexBuilder::Finish(Counters* counters,
                                     double* prepare_seconds) {
  built_.tree = std::make_unique<index::StrTree>(std::move(entries_));
  built_.packed = std::make_unique<index::PackedStrTree>(*built_.tree);
  // The sFilter rides on every build (an 8 KiB sidecar): probes consult it
  // only when ProbeOptions::sfilter asks, so building it unconditionally
  // keeps the artifact identical across probe configurations.
  built_.sfilter = index::BuildSFilter(*built_.tree);

  if (prepare_.enabled && !built_.records.empty()) {
    Stopwatch prepare_watch;  // wall clock: preparation may be parallel
    built_.prepared.resize(built_.records.size());
    auto prepare_one = [this](int64_t i) {
      const geom::Geometry& g =
          built_.records[static_cast<size_t>(i)].geometry;
      if (IsPreparableGeom(g, prepare_.min_vertices)) {
        built_.prepared[static_cast<size_t>(i)] =
            std::make_unique<geom::PreparedPolygon>(g, prepare_.grid_side);
      }
    };
    ParallelFor(prepare_.pool, static_cast<int64_t>(built_.records.size()),
                prepare_one);
    if (prepare_seconds != nullptr) {
      *prepare_seconds = prepare_watch.ElapsedSeconds();
    }
  }

  if (counters != nullptr) {
    counters->Add(counter::kRightRows, built_.size());
    const int64_t num_prepared = built_.NumPrepared();
    if (num_prepared > 0) {
      counters->Add(counter::kPreparedRecords, num_prepared);
    }
  }
  return std::move(built_);
}

Result<BuiltRight> BuildRightFromTable(const dfs::SimFile& file,
                                       const TableInput& input, double radius,
                                       const PrepareOptions& prepare,
                                       Counters* counters) {
  CpuTimer build_watch;
  RightIndexBuilder builder(radius, prepare);

  if (input.format == TableFormat::kColumnar) {
    // Columnar build: envelopes stream straight from the stored columns
    // into the tree entries — no per-row WKT parse on this path.
    CLOUDJOIN_ASSIGN_OR_RETURN(dfs::ColumnarTableReader reader,
                               dfs::ColumnarTableReader::Open(file));
    for (int64_t b = 0; b < reader.num_blocks(); ++b) {
      CLOUDJOIN_ASSIGN_OR_RETURN(dfs::ColumnarBlock block,
                                 reader.ReadBlock(b));
      for (int64_t i = 0; i < block.size(); ++i) {
        builder.AddEnvelopeRecord(block.ids[static_cast<size_t>(i)],
                                  block.wkt[static_cast<size_t>(i)],
                                  block.RowEnvelope(i));
      }
    }
    BuiltRight built = builder.Finish(counters);
    built.build_seconds = build_watch.ElapsedSeconds();
    return built;
  }

  dfs::LineRecordReader lines(file.data(), 0, file.size());
  std::string_view line;
  while (lines.Next(&line)) {
    std::vector<std::string_view> fields = StrSplit(line, input.separator);
    if (static_cast<int>(fields.size()) <= input.geometry_column ||
        static_cast<int>(fields.size()) <= input.id_column) {
      if (counters != nullptr) counters->Add(counter::kRightMalformed, 1);
      CLOUDJOIN_LOG(Warning) << "malformed right row: " << input.path
                             << " line " << lines.line_number() << " offset "
                             << lines.record_offset() << " ("
                             << fields.size() << " fields)";
      continue;
    }
    auto id = ParseInt64(fields[input.id_column]);
    if (!id.ok()) {
      if (counters != nullptr) counters->Add(counter::kRightMalformed, 1);
      CLOUDJOIN_LOG(Warning) << "unparseable right id: " << input.path
                             << " line " << lines.line_number() << " offset "
                             << lines.record_offset();
      continue;
    }
    auto parsed = ParseGeosWkt(fields[input.geometry_column]);
    if (!parsed.ok()) {
      if (counters != nullptr) counters->Add(counter::kRightBadGeom, 1);
      continue;
    }
    builder.AddGeosRecord(*id, fields[input.geometry_column], **parsed);
  }
  BuiltRight built = builder.Finish(counters);
  built.build_seconds = build_watch.ElapsedSeconds();
  return built;
}

}  // namespace cloudjoin::exec
