// Serving-layer throughput: N closed-loop clients fire M spatial-join
// queries each (round-robin over the four §V.A workloads) at a resident
// `QueryService`, with and without the broadcast-index cache.
//
// The paper's prototypes pay the right-side build (scan + parse + R-tree)
// on every run; a long-lived service amortizes it across the query
// stream. This bench quantifies that: the `cache=1` arm builds each
// workload's index once and serves every later query from memory, so its
// QPS rises and its tail latency drops relative to `cache=0`, while the
// result checksum stays identical (cached and rebuilt indexes are
// byte-equivalent).
//
// Flags:
//   --cache=0|1    run one arm only (default: both + comparison)
//   --clients=K    closed-loop client threads (default 4)
//   --queries=M    queries per client (default 8)
//   --scale=S      workload scale (default 0.05 — serving-sized)
//   --threads=T    fragment workers that run each query's scan ranges
//                  next to its client thread (default = clients)
//   --max_concurrent / --max_queue   admission knobs
//   --seed         workload RNG seed

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "impala/types.h"
#include "join/isp_mc_system.h"
#include "server/query_service.h"

namespace cloudjoin::bench {
namespace {

struct ArmResult {
  double wall_seconds = 0.0;
  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t failed = 0;
  int64_t rows = 0;
  /// Order-independent digest of every returned (left id, right id) pair.
  uint64_t checksum = 0;
  double hit_exec_sum = 0.0;
  int64_t hit_count = 0;
  double miss_exec_sum = 0.0;
  int64_t miss_count = 0;
  server::ServiceStats stats;

  double Qps() const { return ok == 0 ? 0.0 : ok / wall_seconds; }
};

uint64_t MixPair(int64_t l, int64_t r) {
  uint64_t x = static_cast<uint64_t>(l) * 0x9E3779B97F4A7C15ULL;
  x ^= static_cast<uint64_t>(r) + 0x9E3779B97F4A7C15ULL + (x << 6) + (x >> 2);
  x *= 0xBF58476D1CE4E5B9ULL;
  return x ^ (x >> 31);
}

ArmResult RunArm(dfs::SimFileSystem* fs,
                 const std::vector<data::Workload>& workloads,
                 bool enable_cache, int clients, int queries_per_client,
                 int threads, int max_concurrent, int max_queue) {
  server::ServiceOptions options;
  options.enable_cache = enable_cache;
  options.num_threads = threads;
  options.admission.max_concurrent = max_concurrent;
  options.admission.max_queue = max_queue;
  options.admission.queue_timeout_seconds = 300.0;
  server::QueryService service(fs, options);

  std::vector<std::string> sqls;
  for (size_t i = 0; i < workloads.size(); ++i) {
    const std::string index = std::to_string(i);
    const std::string l = "l" + index;
    const std::string r = "r" + index;
    auto lt = service.RegisterTable(l, workloads[i].left);
    CLOUDJOIN_CHECK(lt.ok()) << lt.status();
    auto rt = service.RegisterTable(r, workloads[i].right);
    CLOUDJOIN_CHECK(rt.ok()) << rt.status();
    sqls.push_back("SELECT " + l + ".id, " + r + ".id FROM " + l +
                   " SPATIAL JOIN " + r + " WHERE " +
                   join::PredicateSql(workloads[i].predicate, l, r));
  }

  ArmResult arm;
  std::mutex merge_mu;
  std::atomic<uint64_t> checksum{0};
  Stopwatch wall;
  std::vector<std::thread> threads_vec;
  threads_vec.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads_vec.emplace_back([&, c] {
      server::Session* session = service.CreateSession();
      ArmResult local;
      for (int q = 0; q < queries_per_client; ++q) {
        const std::string& sql =
            sqls[static_cast<size_t>(c + q) % sqls.size()];
        Result<server::QueryResponse> response =
            service.Execute(session, sql);
        if (!response.ok()) {
          if (response.status().code() == StatusCode::kResourceExhausted) {
            ++local.rejected;
          } else {
            ++local.failed;
          }
          continue;
        }
        ++local.ok;
        local.rows += static_cast<int64_t>(response->result.rows.size());
        uint64_t digest = 0;
        for (const impala::Row& row : response->result.rows) {
          digest += MixPair(std::get<int64_t>(row[0]),
                            std::get<int64_t>(row[1]));
        }
        checksum.fetch_add(digest);
        if (response->index_cache_hit) {
          local.hit_exec_sum += response->exec_seconds;
          ++local.hit_count;
        } else {
          local.miss_exec_sum += response->exec_seconds;
          ++local.miss_count;
        }
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      arm.ok += local.ok;
      arm.rejected += local.rejected;
      arm.failed += local.failed;
      arm.rows += local.rows;
      arm.hit_exec_sum += local.hit_exec_sum;
      arm.hit_count += local.hit_count;
      arm.miss_exec_sum += local.miss_exec_sum;
      arm.miss_count += local.miss_count;
    });
  }
  for (std::thread& thread : threads_vec) thread.join();
  arm.wall_seconds = wall.ElapsedSeconds();
  arm.checksum = checksum.load();
  arm.stats = service.GetStats();
  return arm;
}

void PrintArm(const char* name, const ArmResult& arm) {
  const LatencyHistogram::Snapshot& lat = arm.stats.total_latency;
  std::printf("%s\n", name);
  std::printf("  wall %.3fs  QPS %.2f  ok %lld  rejected %lld  failed %lld  "
              "rows %lld\n",
              arm.wall_seconds, arm.Qps(),
              static_cast<long long>(arm.ok),
              static_cast<long long>(arm.rejected),
              static_cast<long long>(arm.failed),
              static_cast<long long>(arm.rows));
  std::printf("  latency p50 %s  p95 %s  p99 %s  max %s\n",
              FormatDuration(lat.PercentileSeconds(0.50)).c_str(),
              FormatDuration(lat.PercentileSeconds(0.95)).c_str(),
              FormatDuration(lat.PercentileSeconds(0.99)).c_str(),
              FormatDuration(lat.max_seconds).c_str());
  std::printf("  index cache: hits %lld  misses %lld  hit_ratio %.2f  "
              "resident %lld KiB\n",
              static_cast<long long>(arm.stats.cache.hits),
              static_cast<long long>(arm.stats.cache.misses),
              arm.stats.cache.HitRatio(),
              static_cast<long long>(arm.stats.cache.bytes / 1024));
  if (arm.miss_count > 0) {
    std::printf("  exec mean (build inline): %s over %lld queries\n",
                FormatDuration(arm.miss_exec_sum / arm.miss_count).c_str(),
                static_cast<long long>(arm.miss_count));
  }
  if (arm.hit_count > 0) {
    std::printf("  exec mean (cached index): %s over %lld queries\n",
                FormatDuration(arm.hit_exec_sum / arm.hit_count).c_str(),
                static_cast<long long>(arm.hit_count));
  }
  std::printf("  checksum %016llx\n\n",
              static_cast<unsigned long long>(arm.checksum));
}

void Run(const Flags& flags) {
  const double scale = flags.GetDouble("scale", 0.05);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2015));
  const int clients = static_cast<int>(flags.GetInt("clients", 4));
  const int queries = static_cast<int>(flags.GetInt("queries", 8));
  const int threads =
      static_cast<int>(flags.GetInt("threads", clients));
  const int max_concurrent =
      static_cast<int>(flags.GetInt("max_concurrent", clients));
  const int max_queue = static_cast<int>(
      flags.GetInt("max_queue", clients * queries));
  const int64_t cache_arm = flags.GetInt("cache", -1);

  std::printf("service_throughput: %d clients x %d queries, scale %.3f, "
              "%d fragment workers, admission %d/%d\n\n",
              clients, queries, scale, threads, max_concurrent, max_queue);

  dfs::SimFileSystem fs(/*num_nodes=*/10, /*block_size=*/32 * 1024);
  auto suite = data::MaterializeWorkloads(&fs, scale, seed);
  CLOUDJOIN_CHECK(suite.ok()) << suite.status();
  const std::vector<data::Workload> workloads = {
      suite->taxi_nycb, suite->taxi_lion_100, suite->taxi_lion_500,
      suite->g10m_wwf};

  ArmResult cold;
  ArmResult warm;
  const bool run_cold = cache_arm != 1;
  const bool run_warm = cache_arm != 0;
  if (run_cold) {
    cold = RunArm(&fs, workloads, /*enable_cache=*/false, clients, queries,
                  threads, max_concurrent, max_queue);
    PrintArm("cache=0 (rebuild every query)", cold);
  }
  if (run_warm) {
    warm = RunArm(&fs, workloads, /*enable_cache=*/true, clients, queries,
                  threads, max_concurrent, max_queue);
    PrintArm("cache=1 (broadcast-index cache)", warm);
  }
  if (run_cold && run_warm) {
    std::printf("cache on/off: results %s, QPS speedup %.2fx, wall %.3fs "
                "-> %.3fs\n",
                cold.checksum == warm.checksum && cold.rows == warm.rows
                    ? "IDENTICAL"
                    : "MISMATCH (BUG)",
                cold.wall_seconds / warm.wall_seconds, cold.wall_seconds,
                warm.wall_seconds);
    CLOUDJOIN_CHECK(cold.checksum == warm.checksum)
        << "cache must not change results";
  }
}

}  // namespace
}  // namespace cloudjoin::bench

int main(int argc, char** argv) {
  cloudjoin::Flags flags(argc, argv,
                         {"scale", "seed", "clients", "queries", "threads",
                          "max_concurrent", "max_queue", "cache"});
  cloudjoin::bench::Run(flags);
  return 0;
}
