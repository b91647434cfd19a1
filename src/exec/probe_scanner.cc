#include "exec/probe_scanner.h"

#include <string_view>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/geo_parse.h"

namespace cloudjoin::exec {

void ProbeScanner::ScanBlock(const dfs::SimFile& file, int64_t offset,
                             int64_t length, GeosProbeBatch* batch) const {
  dfs::LineRecordReader lines(file.data(), offset, length);
  std::string_view line;
  while (lines.Next(&line)) {
    std::vector<std::string_view> fields = StrSplit(line, input_.separator);
    if (static_cast<int>(fields.size()) <= input_.geometry_column ||
        static_cast<int>(fields.size()) <= input_.id_column) {
      stats_->Add(Stat::kLeftMalformed);
      CLOUDJOIN_LOG(Warning) << "malformed left row: " << input_.path
                             << " line " << lines.line_number() << " offset "
                             << lines.record_offset() << " ("
                             << fields.size() << " fields)";
      continue;
    }
    auto id = ParseInt64(fields[input_.id_column]);
    if (!id.ok()) {
      stats_->Add(Stat::kLeftMalformed);
      CLOUDJOIN_LOG(Warning) << "unparseable left id: " << input_.path
                             << " line " << lines.line_number() << " offset "
                             << lines.record_offset();
      continue;
    }
    std::string wkt(fields[input_.geometry_column]);
    auto parsed = ParseGeosWkt(wkt);
    if (!parsed.ok()) {
      stats_->Add(Stat::kLeftBadGeom);
      continue;
    }
    batch->ids.push_back(*id);
    batch->wkt.push_back(std::move(wkt));
    batch->geoms.push_back(std::move(parsed).value());
  }
}

}  // namespace cloudjoin::exec
