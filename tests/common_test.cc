#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace cloudjoin {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad x");
  EXPECT_EQ(s.ToString(), "invalid argument: bad x");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kParseError, StatusCode::kIoError,
        StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeToString(code), "unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x * 2;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bad.value_or(7), 7);
}

Result<int> ChainedHelper(int x) {
  CLOUDJOIN_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*ChainedHelper(5), 11);
  EXPECT_FALSE(ChainedHelper(-5).ok());
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  auto parts = StrSplit("solo", '\t');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "solo");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  x y \t\n"), "x y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -1e3 "), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("12345"), 12345);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_FALSE(ParseInt64("12.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringsTest, StartsWithIgnoreCase) {
  EXPECT_TRUE(StartsWithIgnoreCase("SELECT * FROM", "select"));
  EXPECT_FALSE(StartsWithIgnoreCase("SEL", "select"));
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(99);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(CountersTest, AddAndGet) {
  Counters c;
  EXPECT_EQ(c.Get("x"), 0);
  c.Add("x", 5);
  c.Add("x", 2);
  EXPECT_EQ(c.Get("x"), 7);
}

TEST(CountersTest, MergeAndCopy) {
  Counters a, b;
  a.Add("x", 1);
  b.Add("x", 2);
  b.Add("y", 3);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("x"), 3);
  EXPECT_EQ(a.Get("y"), 3);
  Counters copy = a;
  EXPECT_EQ(copy.Get("x"), 3);
}

TEST(FlagsTest, ParsesKeyValueAndPositional) {
  const char* argv[] = {"prog", "--scale=2.5", "--nodes=10", "--verbose",
                        "input.txt"};
  Flags flags(5, const_cast<char**>(argv),
              {"scale", "nodes", "verbose", "quiet", "missing"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 2.5);
  EXPECT_EQ(flags.GetInt("nodes", 1), 10);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("quiet", false));
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
}

TEST(FlagsDeathTest, UnknownFlagIsAUsageError) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* argv[] = {"prog", "--scale=2", "--hilbert=0"};
  EXPECT_EXIT(Flags(3, const_cast<char**>(argv), {"scale", "seed"}),
              ::testing::ExitedWithCode(2),
              "unknown flag --hilbert\naccepted flags: --scale --seed");
}

TEST(FlagsDeathTest, UnparsableValueIsAUsageError) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* argv[] = {"prog", "--scale=big"};
  const Flags flags(2, const_cast<char**>(argv), {"scale"});
  EXPECT_EXIT(flags.GetDouble("scale", 1.0), ::testing::ExitedWithCode(2),
              "--scale=big: not a number\naccepted flags: --scale");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // The destructor runs every queued task before joining.
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  ParallelFor(&pool, 50, [&hits](int64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsEachItemOnceWithOrWithoutAPool) {
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (int64_t n : {0, 1, 2, 100}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      ParallelFor(p, n, [&hits](int64_t i) { hits[i].fetch_add(1); });
      for (auto& h : hits) {
        EXPECT_EQ(h.load(), 1) << "n=" << n << " pooled=" << (p != nullptr);
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForWithoutAPoolRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> order;
  bool all_on_caller = true;
  ParallelFor(nullptr, 5, [&](int64_t i) {
    order.push_back(i);
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all_on_caller);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersReturnAfterTheirOwnItems) {
  // B's items hold both workers until A has returned. A must not wait for
  // them: its caller runs A's items itself and returns.
  ThreadPool pool(2);
  std::atomic<int> b_running{0};
  std::atomic<bool> a_returned{false};
  std::vector<std::atomic<int>> a_hits(20);
  std::vector<std::atomic<int>> b_hits(20);
  std::thread b([&] {
    ParallelFor(&pool, 20, [&](int64_t i) {
      b_running.fetch_add(1);
      while (!a_returned.load()) std::this_thread::yield();
      b_hits[i].fetch_add(1);
    });
  });
  // B's caller and its two helpers are all inside B's items.
  while (b_running.load() < 3) std::this_thread::yield();
  ParallelFor(&pool, 20, [&a_hits](int64_t i) { a_hits[i].fetch_add(1); });
  for (auto& h : a_hits) EXPECT_EQ(h.load(), 1);
  a_returned.store(true);
  b.join();
  for (auto& h : b_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForFromInsideAPoolTaskCompletes) {
  // The task holds the pool's only worker, so its helper never starts.
  ThreadPool pool(1);
  std::atomic<int64_t> sum{0};
  std::promise<void> done;
  pool.Submit([&] {
    ParallelFor(&pool, 10, [&sum](int64_t i) { sum.fetch_add(i); });
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(sum.load(), 45);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(w.ElapsedNanos(), 0);
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
}

TEST(LatencyHistogramTest, EmptySnapshotIsZero) {
  LatencyHistogram histogram;
  LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 0);
  EXPECT_EQ(snapshot.MeanSeconds(), 0.0);
  EXPECT_EQ(snapshot.PercentileSeconds(0.5), 0.0);
}

TEST(LatencyHistogramTest, TracksCountSumMinMax) {
  LatencyHistogram histogram;
  histogram.Record(0.001);
  histogram.Record(0.010);
  histogram.Record(0.100);
  LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 3);
  EXPECT_DOUBLE_EQ(snapshot.sum_seconds, 0.111);
  EXPECT_DOUBLE_EQ(snapshot.min_seconds, 0.001);
  EXPECT_DOUBLE_EQ(snapshot.max_seconds, 0.100);
  EXPECT_NEAR(snapshot.MeanSeconds(), 0.037, 1e-12);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndBracketed) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 100; ++i) {
    histogram.Record(i * 0.001);  // 1ms .. 100ms
  }
  LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  const double p50 = snapshot.PercentileSeconds(0.50);
  const double p95 = snapshot.PercentileSeconds(0.95);
  const double p99 = snapshot.PercentileSeconds(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-bucketed estimates carry < kGrowth relative error.
  EXPECT_NEAR(p50, 0.050, 0.050 * LatencyHistogram::kGrowth);
  EXPECT_GE(p99, 0.090);
  EXPECT_LE(p99, snapshot.max_seconds);
  EXPECT_GE(p50, snapshot.min_seconds);
}

TEST(LatencyHistogramTest, TightDistributionP50NotInflatedToBucketBound) {
  // 99 samples at a value sitting just above a bucket's lower bound, plus
  // one large outlier (so the max clamp cannot mask the estimate). The old
  // upper-bound estimate reported ~1.2x the true p50 — a full kGrowth
  // factor of bias; rank interpolation keeps it within ~half a bucket.
  const double v =
      LatencyHistogram::kMinSeconds * std::pow(LatencyHistogram::kGrowth, 40) *
      1.0001;
  LatencyHistogram histogram;
  for (int i = 0; i < 99; ++i) histogram.Record(v);
  histogram.Record(1.0);
  const double p50 = histogram.TakeSnapshot().PercentileSeconds(0.50);
  EXPECT_GE(p50, v * 0.95);
  EXPECT_LE(p50, v * 1.11);
}

TEST(LatencyHistogramTest, PercentilesMatchSortedSampleOracle) {
  // Property test: against the exact nearest-rank percentile of the sorted
  // samples, the histogram estimate must stay within one bucket width
  // (relative error < kGrowth - 1) for every quantile tested.
  Rng rng(4242);
  LatencyHistogram histogram;
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform over ~6 decades, the realistic latency range.
    const double s = std::pow(10.0, rng.Uniform(-6.0, 0.5));
    samples.push_back(s);
    histogram.Record(s);
  }
  std::sort(samples.begin(), samples.end());
  LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}) {
    const auto rank = static_cast<size_t>(std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(q * samples.size()))));
    const double oracle = samples[rank - 1];
    const double estimate = snapshot.PercentileSeconds(q);
    EXPECT_NEAR(estimate, oracle,
                oracle * (LatencyHistogram::kGrowth - 1.0) + 1e-9)
        << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeFromCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(0.001);
  b.Record(0.100);
  a.MergeFrom(b);
  LatencyHistogram::Snapshot snapshot = a.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 2);
  EXPECT_DOUBLE_EQ(snapshot.min_seconds, 0.001);
  EXPECT_DOUBLE_EQ(snapshot.max_seconds, 0.100);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram histogram;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < 1000; ++i) histogram.Record(0.001);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.TakeSnapshot().count, 4000);
}

TEST(LatencyHistogramTest, MergeSnapshotAddsBucketwise) {
  // The per-window -> stream-lifetime rollup: merging N window snapshots
  // into a fresh histogram must reproduce exactly what recording every
  // sample into one histogram would have, including samples that sit
  // exactly ON bucket boundaries (kMinSeconds * kGrowth^i), where a
  // re-bucketing implementation would be most likely to shift them.
  std::vector<double> samples;
  for (int i : {0, 1, 17, 40, 41, 90}) {
    samples.push_back(LatencyHistogram::kMinSeconds *
                      std::pow(LatencyHistogram::kGrowth, i));
  }
  samples.push_back(0.0);                              // clamps to bucket 0
  samples.push_back(LatencyHistogram::kMinSeconds / 2);  // below the floor

  LatencyHistogram oracle;
  LatencyHistogram merged;
  for (size_t i = 0; i < samples.size(); ++i) {
    oracle.Record(samples[i]);
    // Each "window": a throwaway histogram holding one sample.
    LatencyHistogram window;
    window.Record(samples[i]);
    merged.Merge(window.TakeSnapshot());
  }

  LatencyHistogram::Snapshot want = oracle.TakeSnapshot();
  LatencyHistogram::Snapshot got = merged.TakeSnapshot();
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.sum_seconds, want.sum_seconds);
  EXPECT_DOUBLE_EQ(got.min_seconds, want.min_seconds);
  EXPECT_DOUBLE_EQ(got.max_seconds, want.max_seconds);
  EXPECT_EQ(got.buckets, want.buckets);
  for (double q : {0.25, 0.50, 0.75, 0.99}) {
    EXPECT_DOUBLE_EQ(got.PercentileSeconds(q), want.PercentileSeconds(q));
  }
}

TEST(LatencyHistogramTest, MergeEmptySnapshotKeepsMinMax) {
  LatencyHistogram histogram;
  histogram.Record(0.005);
  LatencyHistogram empty;
  histogram.Merge(empty.TakeSnapshot());
  LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 1);
  // An empty snapshot's zero min must not clobber the recorded min.
  EXPECT_DOUBLE_EQ(snapshot.min_seconds, 0.005);
  EXPECT_DOUBLE_EQ(snapshot.max_seconds, 0.005);
}

TEST(FormatDurationTest, PicksReadableUnits) {
  EXPECT_EQ(FormatDuration(0.000741), "741us");
  EXPECT_NE(FormatDuration(0.0123).find("ms"), std::string::npos);
  EXPECT_NE(FormatDuration(4.2).find("s"), std::string::npos);
}

}  // namespace
}  // namespace cloudjoin
