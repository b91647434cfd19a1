// Reproduces the §V.B microbenchmark: the fast flat-array kernel (JTS
// role) versus the allocation-churning virtual kernel (GEOS role) on the
// Within operation, standalone (no engine), using 10k-point samples:
//
//   paper: JTS 3.3x faster on taxi10k-nycb, 3.9x faster on gbif10k-wwf.
//
// The same candidate pairs (from an envelope filter) are refined through
// both libraries; parse cost is reported separately. Both libraries run
// identical algorithms — the measured gap is memory behaviour, which is
// the paper's diagnosis ("GEOS frequently creates and destroys small
// objects ... cache unfriendly").

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "geom/predicates.h"
#include "geom/wkt.h"
#include "geosim/geometry.h"
#include "geosim/wkt_reader.h"
#include "index/str_tree.h"

namespace cloudjoin::bench {
namespace {

struct Sample {
  std::vector<std::string> point_wkt;
  std::vector<std::string> poly_wkt;
};

Sample LoadSample(dfs::SimFileSystem* fs, const std::string& point_path,
                  const std::string& poly_path, int64_t max_points) {
  Sample sample;
  auto read = [&](const std::string& path, std::vector<std::string>* out,
                  int64_t limit) {
    auto file = fs->GetFile(path);
    CLOUDJOIN_CHECK(file.ok()) << file.status();
    dfs::LineRecordReader reader((*file)->data(), 0, (*file)->size());
    std::string_view line;
    while (reader.Next(&line) &&
           (limit < 0 || static_cast<int64_t>(out->size()) < limit)) {
      auto fields = StrSplit(line, '\t');
      if (fields.size() >= 2) out->emplace_back(fields[1]);
    }
  };
  read(point_path, &sample.point_wkt, max_points);
  read(poly_path, &sample.poly_wkt, -1);
  return sample;
}

/// Runs the full Within pipeline through the fast kernel; returns
/// (parse_s, refine_s, matches).
void RunFast(const Sample& sample, int repeats, double* parse_s,
             double* refine_s, int64_t* matches) {
  CpuTimer parse_watch;
  std::vector<geom::Geometry> points;
  std::vector<geom::Geometry> polys;
  for (const auto& wkt : sample.point_wkt) {
    auto g = geom::ReadWkt(wkt);
    CLOUDJOIN_CHECK(g.ok());
    points.push_back(std::move(g).value());
  }
  for (const auto& wkt : sample.poly_wkt) {
    auto g = geom::ReadWkt(wkt);
    CLOUDJOIN_CHECK(g.ok());
    polys.push_back(std::move(g).value());
  }
  *parse_s = parse_watch.ElapsedSeconds();

  std::vector<index::StrTree::Entry> entries;
  for (size_t i = 0; i < polys.size(); ++i) {
    entries.push_back(index::StrTree::Entry{polys[i].envelope(),
                                            static_cast<int64_t>(i)});
  }
  index::StrTree tree(std::move(entries));

  CpuTimer refine_watch;
  int64_t found = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const auto& point : points) {
      tree.VisitQuery(point.envelope(), [&](int64_t id) {
        if (geom::Within(point, polys[static_cast<size_t>(id)])) ++found;
      });
    }
  }
  *refine_s = refine_watch.ElapsedSeconds();
  *matches = found / repeats;
}

/// Same pipeline through the GEOS-role kernel.
void RunSlow(const Sample& sample, int repeats, double* parse_s,
             double* refine_s, int64_t* matches) {
  static const geosim::GeometryFactory factory;
  geosim::WKTReader reader(&factory);

  CpuTimer parse_watch;
  std::vector<std::unique_ptr<geosim::Geometry>> points;
  std::vector<std::unique_ptr<geosim::Geometry>> polys;
  for (const auto& wkt : sample.point_wkt) {
    auto g = reader.read(wkt);
    CLOUDJOIN_CHECK(g.ok());
    points.push_back(std::move(g).value());
  }
  for (const auto& wkt : sample.poly_wkt) {
    auto g = reader.read(wkt);
    CLOUDJOIN_CHECK(g.ok());
    polys.push_back(std::move(g).value());
  }
  *parse_s = parse_watch.ElapsedSeconds();

  std::vector<index::StrTree::Entry> entries;
  for (size_t i = 0; i < polys.size(); ++i) {
    entries.push_back(index::StrTree::Entry{polys[i]->getEnvelopeInternal(),
                                            static_cast<int64_t>(i)});
  }
  index::StrTree tree(std::move(entries));

  CpuTimer refine_watch;
  int64_t found = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const auto& point : points) {
      tree.VisitQuery(point->getEnvelopeInternal(), [&](int64_t id) {
        if (point->within(polys[static_cast<size_t>(id)].get())) ++found;
      });
    }
  }
  *refine_s = refine_watch.ElapsedSeconds();
  *matches = found / repeats;
}

void RunCase(const char* name, const Sample& sample, int repeats) {
  double fast_parse, fast_refine, slow_parse, slow_refine;
  int64_t fast_matches, slow_matches;
  RunFast(sample, repeats, &fast_parse, &fast_refine, &fast_matches);
  RunSlow(sample, repeats, &slow_parse, &slow_refine, &slow_matches);
  CLOUDJOIN_CHECK(fast_matches == slow_matches)
      << "libraries disagree: " << fast_matches << " vs " << slow_matches;
  std::printf(
      "%-14s matches=%-8lld refine: fast=%8.4fs slow=%8.4fs -> %5.2fx | "
      "parse: fast=%7.4fs slow=%7.4fs -> %5.2fx\n",
      name, static_cast<long long>(fast_matches), fast_refine, slow_refine,
      slow_refine / fast_refine, fast_parse, slow_parse,
      slow_parse / fast_parse);
}

void Run(const Flags& flags) {
  PaperBench bench(flags);
  bench.PrintHeader(
      "Sec V.B micro: JTS-role vs GEOS-role geometry library, Within",
      "JTS 3.3x faster on taxi10k-nycb, 3.9x on gbif10k-wwf");
  int repeats = static_cast<int>(flags.GetInt("repeats", 3));

  Sample taxi10k = LoadSample(bench.fs(), "/data/taxi.tsv", "/data/nycb.tsv",
                              10000);
  RunCase("taxi10k-nycb", taxi10k, repeats);
  Sample gbif10k = LoadSample(bench.fs(), "/data/g10m.tsv", "/data/wwf.tsv",
                              10000);
  RunCase("gbif10k-wwf", gbif10k, repeats);
  std::printf("\npaper shape: refine ratio ~3.3x (taxi10k), ~3.9x (gbif10k)\n");
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(
      argc, argv, cloudjoin::bench::PaperBenchFlags({"repeats"}));
  cloudjoin::bench::Run(flags);
  return 0;
}
