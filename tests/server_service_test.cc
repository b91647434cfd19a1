#include "server/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "data/convert.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "impala/types.h"
#include "join/isp_mc_system.h"

namespace cloudjoin::server {
namespace {

/// The paper's Fig. 1 query over two service-registered tables.
std::string WorkloadSql(const data::Workload& workload,
                        const std::string& left_name,
                        const std::string& right_name) {
  return "SELECT " + left_name + ".id, " + right_name + ".id FROM " +
         left_name + " SPATIAL JOIN " + right_name + " WHERE " +
         join::PredicateSql(workload.predicate, left_name, right_name);
}

std::vector<std::pair<int64_t, int64_t>> RowsToPairs(
    const std::vector<impala::Row>& rows) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  pairs.reserve(rows.size());
  for (const impala::Row& row : rows) {
    pairs.emplace_back(std::get<int64_t>(row[0]), std::get<int64_t>(row[1]));
  }
  return pairs;
}

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() : fs_(4, /*block_size=*/16 * 1024) {
    auto suite = data::MaterializeWorkloads(&fs_, /*scale=*/0.02, /*seed=*/7);
    CLOUDJOIN_CHECK(suite.ok()) << suite.status();
    suite_ = std::move(suite).value();
  }

  /// Builds a service with the taxi-nycb workload registered as
  /// taxi/nycb.
  std::unique_ptr<QueryService> MakeService(ServiceOptions options) {
    auto service = std::make_unique<QueryService>(&fs_, options);
    auto taxi = service->RegisterTable("taxi", suite_.taxi_nycb.left);
    CLOUDJOIN_CHECK(taxi.ok()) << taxi.status();
    auto nycb = service->RegisterTable("nycb", suite_.taxi_nycb.right);
    CLOUDJOIN_CHECK(nycb.ok()) << nycb.status();
    return service;
  }

  std::string TaxiNycbSql() const {
    return WorkloadSql(suite_.taxi_nycb, "taxi", "nycb");
  }

  dfs::SimFileSystem fs_;
  data::WorkloadSuite suite_;
};

TEST_F(QueryServiceTest, SecondQueryHitsIndexCache) {
  auto service = MakeService(ServiceOptions());
  Session* session = service->CreateSession();

  Result<QueryResponse> first = service->Execute(session, TaxiNycbSql());
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->index_cache_hit);
  EXPECT_GT(first->result.metrics.right_build_seconds, 0.0);
  EXPECT_FALSE(first->result.rows.empty());

  Result<QueryResponse> second = service->Execute(session, TaxiNycbSql());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->index_cache_hit);
  EXPECT_EQ(second->result.metrics.right_build_seconds, 0.0);
  EXPECT_EQ(second->result.metrics.counters.Get("join.index_cache_hit"), 1);

  EXPECT_EQ(RowsToPairs(first->result.rows), RowsToPairs(second->result.rows));

  ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.queries_ok, 2);
  EXPECT_EQ(stats.cache.insertions, 1);
  EXPECT_EQ(stats.cache.hits, 1);
  EXPECT_GT(stats.cache.bytes, 0);
}

TEST_F(QueryServiceTest, ProbeOptionsShareOneCachedBuild) {
  // Probe options change how the left side streams through the index,
  // never the built right side, so two queries that differ only in them
  // share one cache entry: the second is a hit.
  auto service = MakeService(ServiceOptions());
  Session* session = service->CreateSession();
  impala::QueryOptions tuned;
  tuned.probe.batch_size = 7;
  tuned.probe.sfilter = false;

  Result<QueryResponse> first = service->Execute(session, TaxiNycbSql());
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->index_cache_hit);
  Result<QueryResponse> second =
      service->Execute(session, TaxiNycbSql(), tuned);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->index_cache_hit);
  EXPECT_EQ(RowsToPairs(first->result.rows), RowsToPairs(second->result.rows));

  ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.cache.insertions, 1);
  EXPECT_EQ(stats.cache.hits, 1);
}

TEST_F(QueryServiceTest, ResultsByteIdenticalWithCacheOnAndOff) {
  ServiceOptions cached;
  cached.enable_cache = true;
  ServiceOptions uncached;
  uncached.enable_cache = false;
  auto service_on = MakeService(cached);
  auto service_off = MakeService(uncached);
  Session* session_on = service_on->CreateSession();
  Session* session_off = service_off->CreateSession();

  for (int round = 0; round < 2; ++round) {
    Result<QueryResponse> on = service_on->Execute(session_on, TaxiNycbSql());
    Result<QueryResponse> off =
        service_off->Execute(session_off, TaxiNycbSql());
    ASSERT_TRUE(on.ok()) << on.status();
    ASSERT_TRUE(off.ok()) << off.status();
    EXPECT_FALSE(off->index_cache_hit);
    EXPECT_EQ(RowsToPairs(on->result.rows), RowsToPairs(off->result.rows));
  }
  // The uncached service never touched its cache.
  EXPECT_EQ(service_off->GetStats().cache.insertions, 0);
}

TEST_F(QueryServiceTest, ReRegisteringTableInvalidatesCache) {
  auto service = MakeService(ServiceOptions());
  Session* session = service->CreateSession();

  ASSERT_TRUE(service->Execute(session, TaxiNycbSql()).ok());
  auto redef = service->RegisterTable("nycb", suite_.taxi_nycb.right);
  ASSERT_TRUE(redef.ok()) << redef.status();
  EXPECT_GE(service->GetStats().cache.invalidations, 1);

  // Same SQL, but the right table definition is new: must rebuild.
  Result<QueryResponse> after = service->Execute(session, TaxiNycbSql());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->index_cache_hit);
}

TEST_F(QueryServiceTest, ConcurrentClientsShareOneBuild) {
  ServiceOptions options;
  options.num_threads = 8;
  options.admission.max_concurrent = 8;
  options.admission.max_queue = 32;
  auto service = MakeService(options);

  constexpr int kClients = 8;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> results(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, &service, &results, &failures, c] {
      Session* session = service->CreateSession();
      Result<QueryResponse> response =
          service->Execute(session, TaxiNycbSql());
      if (!response.ok()) {
        failures.fetch_add(1);
        return;
      }
      results[static_cast<size_t>(c)] = RowsToPairs(response->result.rows);
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(results[static_cast<size_t>(c)], results[0]) << "client " << c;
  }
  ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.queries_ok, kClients);
  // Single-flight: all concurrent misses resolve to exactly one build.
  // (A miss-path query looks up twice — before and inside the flight —
  // so total lookups land between kClients and 2 * kClients.)
  EXPECT_EQ(stats.cache.insertions, 1);
  EXPECT_GE(stats.cache.hits, kClients - 1);
  EXPECT_GE(stats.cache.hits + stats.cache.misses, kClients);
  EXPECT_LE(stats.cache.hits + stats.cache.misses, 2 * kClients);
  EXPECT_LE(stats.admission.peak_running, options.admission.max_concurrent);
}

TEST_F(QueryServiceTest, SaturationRejectsCleanly) {
  ServiceOptions options;
  options.admission.max_concurrent = 1;
  options.admission.max_queue = 0;
  options.admission.queue_timeout_seconds = 0.05;
  auto service = MakeService(options);

  constexpr int kClients = 6;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, &service, &ok, &rejected, &other] {
      Session* session = service->CreateSession();
      Result<QueryResponse> response =
          service->Execute(session, TaxiNycbSql());
      if (response.ok()) {
        ok.fetch_add(1);
      } else if (response.status().code() == StatusCode::kResourceExhausted) {
        rejected.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(ok.load() + rejected.load(), kClients);
  ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.queries_ok, ok.load());
  EXPECT_EQ(stats.queries_rejected, rejected.load());
  EXPECT_LE(stats.admission.peak_running, 1);
}

TEST_F(QueryServiceTest, SessionDefaultsApply) {
  auto service = MakeService(ServiceOptions());
  impala::QueryOptions prepared;
  prepared.prepare_geometries = true;
  Session* fast = service->CreateSession(prepared);
  Session* faithful = service->CreateSession();
  EXPECT_NE(fast->id, faithful->id);

  Result<QueryResponse> a = service->Execute(fast, TaxiNycbSql());
  Result<QueryResponse> b = service->Execute(faithful, TaxiNycbSql());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  // Different prepare options fingerprint differently: no false sharing.
  EXPECT_FALSE(a->index_cache_hit);
  EXPECT_FALSE(b->index_cache_hit);
  EXPECT_EQ(RowsToPairs(a->result.rows), RowsToPairs(b->result.rows));
  EXPECT_EQ(service->GetStats().cache.insertions, 2);
}

// Probe options are client input on every entry point: a bad batch size
// comes back as an error Status, never an abort, and the same service
// answers the next well-formed query.

TEST_F(QueryServiceTest, BadProbeBatchInPlanTextIsAParseError) {
  auto service = MakeService(ServiceOptions());
  Session* session = service->CreateSession();
  Result<QueryResponse> good = service->Execute(session, TaxiNycbSql());
  ASSERT_TRUE(good.ok()) << good.status();
  const std::string& plan_text = good->plan_text;
  const size_t pos = plan_text.find("probe_batch ");
  ASSERT_NE(pos, std::string::npos);
  const size_t end = plan_text.find('\n', pos);
  for (const char* bad : {"0", "-5", "4294967297"}) {
    std::string text = plan_text;
    text.replace(pos, end - pos, std::string("probe_batch ") + bad);
    Result<QueryResponse> replay = service->ExecutePlan(session, text);
    ASSERT_FALSE(replay.ok()) << bad;
    EXPECT_EQ(replay.status().code(), StatusCode::kParseError) << bad;
  }
  Result<QueryResponse> again = service->ExecutePlan(session, plan_text);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(RowsToPairs(again->result.rows), RowsToPairs(good->result.rows));
}

/// Replaces the first line of `text` that starts with `prefix` by
/// `replacement` (plan text mutation for the rejection tests below).
std::string ReplacePlanLine(std::string text, const std::string& prefix,
                            const std::string& replacement) {
  const size_t pos = text.find("\n" + prefix);
  CLOUDJOIN_CHECK(pos != std::string::npos) << prefix;
  const size_t end = text.find('\n', pos + 1);
  text.replace(pos + 1, end - pos - 1, replacement);
  return text;
}

// Every integer in plan text is range-checked before it is narrowed, and a
// spatial join's geometry slots must lie inside its scans' rows: each bad
// value below once crashed the process, ran a different query or read past
// the row. Each now comes back as an error Status, and the same service
// then answers the good plan.
TEST_F(QueryServiceTest, OutOfRangePlanIntegersAreRejected) {
  auto service = MakeService(ServiceOptions());
  Session* session = service->CreateSession();
  Result<QueryResponse> join = service->Execute(session, TaxiNycbSql());
  ASSERT_TRUE(join.ok()) << join.status();
  Result<QueryResponse> grouped = service->Execute(
      session, "SELECT nycb.id, COUNT(*) FROM taxi SPATIAL JOIN nycb WHERE " +
                   join::PredicateSql(suite_.taxi_nycb.predicate, "taxi",
                                      "nycb") +
                   " GROUP BY nycb.id");
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  struct Case {
    const std::string* plan_text;
    const char* prefix;
    const char* replacement;
    StatusCode code;
  };
  const Case cases[] = {
      {&join->plan_text, "left_geom ", "left_geom 4294967297",
       StatusCode::kParseError},
      {&join->plan_text, "left_geom ", "left_geom -1",
       StatusCode::kParseError},
      {&join->plan_text, "left_geom ", "left_geom 7",
       StatusCode::kInvalidArgument},
      {&join->plan_text, "right_geom ", "right_geom -1",
       StatusCode::kParseError},
      {&join->plan_text, "right_geom ", "right_geom 7",
       StatusCode::kInvalidArgument},
      {&join->plan_text, "tiles ", "tiles 4294967301",
       StatusCode::kParseError},
      {&join->plan_text, "max_tiles_factor ", "max_tiles_factor 4294967297",
       StatusCode::kParseError},
      {&join->plan_text, "fragments ", "fragments 4294967299",
       StatusCode::kParseError},
      {&join->plan_text, "visible ", "visible 4294967297",
       StatusCode::kParseError},
      {&join->plan_text, "output ", "output (slot 0 2147483648 i64)",
       StatusCode::kParseError},
      {&grouped->plan_text, "keys ", "keys 4294967297",
       StatusCode::kParseError},
  };
  for (const Case& c : cases) {
    Result<QueryResponse> replay = service->ExecutePlan(
        session, ReplacePlanLine(*c.plan_text, c.prefix, c.replacement));
    ASSERT_FALSE(replay.ok()) << c.replacement;
    EXPECT_EQ(replay.status().code(), c.code)
        << c.replacement << ": " << replay.status();
  }
  Result<QueryResponse> again = service->ExecutePlan(session, join->plan_text);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(RowsToPairs(again->result.rows), RowsToPairs(join->result.rows));
}

// Partitioned tiling options and NearestD distances are checked before
// the tiler runs: a non-positive or NaN skew factor, a split factor below
// one, a tile count near INT_MAX and a non-finite distance each come back
// as InvalidArgument instead of aborting, allocating ~2^31 tiles or
// silently returning no rows.
TEST_F(QueryServiceTest, BadPartitionedAndDistanceNumbersAreRejected) {
  auto service = MakeService(ServiceOptions());
  auto lion = service->RegisterTable("lion", suite_.taxi_lion_100.right);
  ASSERT_TRUE(lion.ok()) << lion.status();
  Session* session = service->CreateSession();
  impala::QueryOptions partitioned;
  partitioned.join_strategy = plan::JoinStrategy::kPartitioned;
  partitioned.partitioned_tiles = 5;
  Result<QueryResponse> tiled =
      service->Execute(session, TaxiNycbSql(), partitioned);
  ASSERT_TRUE(tiled.ok()) << tiled.status();
  const std::string nearest_sql =
      WorkloadSql(suite_.taxi_lion_100, "taxi", "lion");
  Result<QueryResponse> nearest = service->Execute(session, nearest_sql);
  ASSERT_TRUE(nearest.ok()) << nearest.status();
  ASSERT_NE(nearest->plan_text.find("\ndistance "), std::string::npos);

  struct Case {
    const std::string* plan_text;
    const char* prefix;
    const char* replacement;
  };
  const Case cases[] = {
      {&tiled->plan_text, "skew_factor ", "skew_factor 0"},
      {&tiled->plan_text, "skew_factor ", "skew_factor nan"},
      {&tiled->plan_text, "skew_factor ", "skew_factor -inf"},
      {&tiled->plan_text, "max_tiles_factor ", "max_tiles_factor 0"},
      {&tiled->plan_text, "tiles ", "tiles 2147483647"},
      {&nearest->plan_text, "distance ", "distance inf"},
      {&nearest->plan_text, "distance ", "distance nan"},
  };
  for (const Case& c : cases) {
    Result<QueryResponse> replay = service->ExecutePlan(
        session, ReplacePlanLine(*c.plan_text, c.prefix, c.replacement));
    ASSERT_FALSE(replay.ok()) << c.replacement;
    EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument)
        << c.replacement << ": " << replay.status();
  }
  impala::QueryOptions huge = partitioned;
  huge.partitioned_tiles = std::numeric_limits<int>::max();
  Result<QueryResponse> rejected =
      service->Execute(session, TaxiNycbSql(), huge);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // A negative distance is legal (SQL can express it) and matches nothing.
  Result<QueryResponse> negative = service->ExecutePlan(
      session,
      ReplacePlanLine(nearest->plan_text, "distance ", "distance -1"));
  ASSERT_TRUE(negative.ok()) << negative.status();
  EXPECT_TRUE(negative->result.rows.empty());

  Result<QueryResponse> again =
      service->ExecutePlan(session, tiled->plan_text);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->result.rows.size(), tiled->result.rows.size());
}

TEST_F(QueryServiceTest, BadProbeBatchInQueryOptionsIsInvalidArgument) {
  auto service = MakeService(ServiceOptions());
  Session* session = service->CreateSession();
  impala::QueryOptions bad;
  bad.probe.batch_size = 0;
  Result<QueryResponse> rejected =
      service->Execute(session, TaxiNycbSql(), bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  Result<QueryResponse> good = service->Execute(session, TaxiNycbSql());
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_FALSE(good->result.rows.empty());
}

TEST_F(QueryServiceTest, StatsToStringMentionsEverySection) {
  auto service = MakeService(ServiceOptions());
  Session* session = service->CreateSession();
  ASSERT_TRUE(service->Execute(session, TaxiNycbSql()).ok());
  const std::string rendered = service->GetStats().ToString();
  EXPECT_NE(rendered.find("queries:"), std::string::npos);
  EXPECT_NE(rendered.find("admission:"), std::string::npos);
  EXPECT_NE(rendered.find("index cache:"), std::string::npos);
  EXPECT_NE(rendered.find("latency total:"), std::string::npos);
}

TEST_F(QueryServiceTest, IntervalStatsDeltaAgainstLifetime) {
  auto service = MakeService(ServiceOptions());
  Session* session = service->CreateSession();

  // Interval 1: two queries (one cache miss + one hit).
  ASSERT_TRUE(service->Execute(session, TaxiNycbSql()).ok());
  ASSERT_TRUE(service->Execute(session, TaxiNycbSql()).ok());
  ServiceStats first = service->TakeIntervalStats();
  EXPECT_EQ(first.queries_submitted, 2);
  EXPECT_EQ(first.queries_ok, 2);
  // Two lookup misses: the build path re-checks under the flight lock.
  EXPECT_EQ(first.cache.misses, 2);
  EXPECT_EQ(first.cache.hits, 1);
  EXPECT_EQ(first.total_latency.count, 2);
  EXPECT_GT(first.total_latency.max_seconds, 0.0);

  // Interval 2: one query — only the delta shows, not the lifetime.
  ASSERT_TRUE(service->Execute(session, TaxiNycbSql()).ok());
  ServiceStats second = service->TakeIntervalStats();
  EXPECT_EQ(second.queries_submitted, 1);
  EXPECT_EQ(second.cache.misses, 0);
  EXPECT_EQ(second.cache.hits, 1);
  EXPECT_EQ(second.total_latency.count, 1);
  EXPECT_EQ(second.admission.admitted_immediately, 1);

  // Gauges stay current rather than delta'd: the cached index is still
  // resident in the second interval.
  EXPECT_EQ(second.cache.entries, 1);
  EXPECT_GT(second.cache.bytes, 0);

  // Lifetime stats are untouched by interval draining.
  ServiceStats lifetime = service->GetStats();
  EXPECT_EQ(lifetime.queries_submitted, 3);
  EXPECT_EQ(lifetime.total_latency.count, 3);

  // An idle interval reads as all-zero deltas.
  ServiceStats idle = service->TakeIntervalStats();
  EXPECT_EQ(idle.queries_submitted, 0);
  EXPECT_EQ(idle.total_latency.count, 0);
  EXPECT_EQ(idle.cache.hits, 0);
}

// A columnar right side's cached parses never have their envelopes
// computed at build time, so the first refinements against a fresh build
// fill them in: here from every scan range of every concurrent query.
TEST_F(QueryServiceTest, ConcurrentRangesShareCachedColumnarParses) {
  auto service = MakeService(ServiceOptions());
  auto columnar = data::ConvertTextTableToColumnar(
      &fs_, suite_.taxi_nycb.right, "/nycb.col");
  ASSERT_TRUE(columnar.ok()) << columnar.status();
  ASSERT_TRUE(service->RegisterTable("nycb_col", *columnar).ok());
  impala::QueryOptions cached;
  cached.cache_parsed_geometries = true;
  Session* text_session = service->CreateSession(cached);
  Result<QueryResponse> reference =
      service->Execute(text_session, TaxiNycbSql());
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_GT(reference->result.metrics.scan_tasks.size(), 1u);
  ASSERT_FALSE(reference->result.rows.empty());

  const std::string sql =
      WorkloadSql(suite_.taxi_nycb, "taxi", "nycb_col");
  constexpr int kClients = 4;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> results(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session* session = service->CreateSession(cached);
      for (int q = 0; q < 2; ++q) {
        Result<QueryResponse> response = service->Execute(session, sql);
        if (!response.ok()) {
          failures.fetch_add(1);
          return;
        }
        results[static_cast<size_t>(c)] = RowsToPairs(response->result.rows);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[static_cast<size_t>(c)],
              RowsToPairs(reference->result.rows))
        << "client " << c;
  }
}

// Four sessions query while a fifth thread keeps swapping the right table
// between two versions: every query runs against one whole version, so
// every answer is exactly one version's rows.
TEST_F(QueryServiceTest, QueriesRacingReRegistrationSeeOneWholeVersion) {
  ServiceOptions options;
  options.admission.max_concurrent = 4;
  auto service = MakeService(options);
  Session* session = service->CreateSession();

  // Version B keeps every other census block of version A.
  join::TableInput version_a = suite_.taxi_nycb.right;
  join::TableInput version_b = version_a;
  version_b.path = "/nycb_every_other.tsv";
  std::vector<std::string> kept;
  std::string_view data = fs_.GetFile(version_a.path).value()->data();
  for (size_t pos = 0, line = 0; pos < data.size(); ++line) {
    size_t end = data.find('\n', pos);
    if (end == std::string_view::npos) end = data.size();
    if (line % 2 == 0) kept.emplace_back(data.substr(pos, end - pos));
    pos = end + 1;
  }
  ASSERT_TRUE(fs_.WriteTextFile(version_b.path, kept).ok());

  std::vector<std::pair<int64_t, int64_t>> reference[2];
  for (int v : {1, 0}) {
    ASSERT_TRUE(
        service->RegisterTable("nycb", v == 0 ? version_a : version_b).ok());
    Result<QueryResponse> response = service->Execute(session, TaxiNycbSql());
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_GT(response->result.metrics.scan_tasks.size(), 1u);
    reference[v] = RowsToPairs(response->result.rows);
  }
  ASSERT_NE(reference[0], reference[1]);

  constexpr int kClients = 4;
  std::atomic<int> running{kClients};
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Session* client = service->CreateSession();
      for (int q = 0; q < 6; ++q) {
        Result<QueryResponse> response =
            service->Execute(client, TaxiNycbSql());
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto pairs = RowsToPairs(response->result.rows);
        if (pairs != reference[0] && pairs != reference[1]) {
          mismatches.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  int swaps = 0;
  threads.emplace_back([&] {
    for (int v = 1; running.load() > 0; v = 1 - v, ++swaps) {
      if (!service->RegisterTable("nycb", v == 0 ? version_a : version_b)
               .ok()) {
        failures.fetch_add(1);
      }
      service->cache()->InvalidateTable("nycb");
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(swaps, 0);
  EXPECT_EQ(service->GetStats().queries_ok, 2 + kClients * 6);
}

}  // namespace
}  // namespace cloudjoin::server
