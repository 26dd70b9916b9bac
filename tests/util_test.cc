#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/histogram.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace pkgm {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing entity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing entity");
  EXPECT_EQ(s.ToString(), "NotFound: missing entity");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::FailedPrecondition("").code(), Status::IoError("").code(),
      Status::Corruption("").code(),      Status::Unimplemented("").code(),
      Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::IoError("disk on fire"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIoError);
}

Status FailsThenPropagates() {
  PKGM_RETURN_IF_ERROR(Status::Corruption("inner"));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformFloatBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    float f = rng.UniformFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  auto s = rng.SampleWithoutReplacement(100, 30);
  std::set<uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 30u);
  for (uint64_t x : s) EXPECT_LT(x, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(31);
  auto s = rng.SampleWithoutReplacement(10, 10);
  std::set<uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(37);
  Rng child = a.Fork();
  // Parent and child should not be producing identical sequences.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == child.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(ZipfSamplerTest, Exponent0IsUniformish) {
  Rng rng(41);
  ZipfSampler sampler(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

TEST(ZipfSamplerTest, SkewFavorsHead) {
  Rng rng(43);
  ZipfSampler sampler(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], counts[10]);
}

TEST(ZipfSamplerTest, AliasSampleMatchesInverseCdfShape) {
  // Sample() is the O(1) alias-table path; SampleInverseCdf() is the old
  // binary-search oracle. They consume randomness differently, so compare
  // empirical rank frequencies, not draw-for-draw equality.
  const uint64_t n_ranks = 50;
  ZipfSampler sampler(n_ranks, 1.1);
  const int draws = 100000;
  std::vector<double> alias_freq(n_ranks, 0.0), cdf_freq(n_ranks, 0.0);
  {
    Rng rng(97);
    for (int i = 0; i < draws; ++i) ++alias_freq[sampler.Sample(&rng)];
  }
  {
    Rng rng(98);
    for (int i = 0; i < draws; ++i) ++cdf_freq[sampler.SampleInverseCdf(&rng)];
  }
  for (uint64_t r = 0; r < n_ranks; ++r) {
    alias_freq[r] /= draws;
    cdf_freq[r] /= draws;
  }
  // Head ranks carry enough mass for tight relative agreement; the tail
  // gets an absolute tolerance.
  for (uint64_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(alias_freq[r], cdf_freq[r], cdf_freq[r] * 0.1 + 1e-3)
        << "rank " << r;
  }
  double total_variation = 0.0;
  for (uint64_t r = 0; r < n_ranks; ++r) {
    total_variation += std::abs(alias_freq[r] - cdf_freq[r]);
  }
  EXPECT_LT(0.5 * total_variation, 0.02);
}

TEST(AliasSamplerTest, MatchesWeights) {
  Rng rng(47);
  AliasSampler sampler({1.0, 2.0, 4.0, 1.0});
  std::vector<int> counts(4, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.125, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.25, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.125, 0.01);
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  Rng rng(53);
  AliasSampler sampler({0.0, 1.0, 0.0});
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(sampler.Sample(&rng), 1u);
}

// Property sweep: Uniform(n) is unbiased for various n (chi-square-lite).
class RngUniformSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngUniformSweep, RoughlyUniform) {
  const uint64_t n = GetParam();
  Rng rng(1000 + n);
  std::vector<uint64_t> counts(n, 0);
  const uint64_t draws = 20000;
  for (uint64_t i = 0; i < draws; ++i) ++counts[rng.Uniform(n)];
  const double expected = static_cast<double>(draws) / static_cast<double>(n);
  for (uint64_t c : counts) {
    EXPECT_GT(static_cast<double>(c), expected * 0.6);
    EXPECT_LT(static_cast<double>(c), expected * 1.4);
  }
}

INSTANTIATE_TEST_SUITE_P(Ns, RngUniformSweep,
                         ::testing::Values(2, 3, 7, 16, 33));

// ----------------------------------------------------------- string_util --

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitPreservesEmpty) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitWhitespaceSkipsRuns) {
  EXPECT_EQ(SplitWhitespace("  foo \t bar\nbaz  "),
            (std::vector<std::string>{"foo", "bar", "baz"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n"), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringUtilTest, ThousandsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSeparators(1366109966ull), "1,366,109,966");
}

TEST(StringUtilTest, ToLower) { EXPECT_EQ(ToLower("AbC9"), "abc9"); }

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversIndexSpace) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForUnderContention) {
  // n ≫ threads: every index lands exactly once in its own slot, and the
  // ParallelFor return (built on Wait()) really drains all in-flight work —
  // summing afterwards would race otherwise.
  ThreadPool pool(3);
  constexpr size_t kN = 20000;
  std::vector<uint64_t> slots(kN, 0);
  pool.ParallelFor(kN, [&](size_t i) { slots[i] += i + 1; });
  uint64_t sum = 0;
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(slots[i], i + 1) << "slot " << i;
    sum += slots[i];
  }
  EXPECT_EQ(sum, kN * (kN + 1) / 2);

  // The pool stays usable for a second contended round and for n == 0.
  pool.ParallelFor(kN, [&](size_t i) { slots[i] += 1; });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(slots[i], i + 2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, WaitDrainsManyConcurrentProducers) {
  // MPMC submission: 4 external producer threads race Submit against the
  // workers; one Wait() must observe every task.
  ThreadPool pool(2);
  std::atomic<uint64_t> counter{0};
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(counter.load(),
            static_cast<uint64_t>(kProducers * kTasksPerProducer));
}

// ------------------------------------------------------------- Histogram --

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_NEAR(h.Stddev(), std::sqrt(2.5), 1e-9);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_NEAR(h.Percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(h.Percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(h.Percentile(0.5), 50.5, 1e-9);
}

TEST(HistogramTest, RecordAfterPercentileStillCorrect) {
  Histogram h;
  h.Record(10);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 10.0);
  h.Record(20);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 20.0);
}

TEST(HistogramTest, BucketedTracksExactOracle) {
  // The log-linear bucket layout promises ~3% relative error per value;
  // feed both modes a heavy-tailed latency-like stream and compare the
  // quantiles that matter for the tail-latency gate.
  Histogram exact(HistogramMode::kExact);
  Histogram bucketed(HistogramMode::kBucketed);
  Rng rng(1234);
  for (int i = 0; i < 20000; ++i) {
    // Lognormal-ish: most mass near 100, a long tail into the 10000s.
    const double v = 100.0 * std::exp(rng.Normal() * 1.2);
    exact.Record(v);
    bucketed.Record(v);
  }
  EXPECT_EQ(bucketed.count(), exact.count());
  EXPECT_DOUBLE_EQ(bucketed.min(), exact.min());
  EXPECT_DOUBLE_EQ(bucketed.max(), exact.max());
  EXPECT_NEAR(bucketed.Mean(), exact.Mean(), exact.Mean() * 1e-9);
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = exact.Percentile(q);
    EXPECT_NEAR(bucketed.Percentile(q), want, want * 0.04)
        << "quantile " << q;
  }
}

TEST(HistogramTest, BucketedSubUnitValuesLandInBucketZero) {
  Histogram h(HistogramMode::kBucketed);
  h.Record(0.0);
  h.Record(0.5);
  h.Record(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  // Interpolation is clamped to the observed range.
  EXPECT_GE(h.Percentile(0.0), 0.0);
  EXPECT_LE(h.Percentile(1.0), 2.0);
}

TEST(HistogramTest, BucketedMergeMatchesSingleStream) {
  Histogram a(HistogramMode::kBucketed);
  Histogram b(HistogramMode::kBucketed);
  Histogram whole(HistogramMode::kBucketed);
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.UniformDouble() * 1e6;
    (i % 2 == 0 ? a : b).Record(v);
    whole.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  for (double q : {0.5, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(a.Percentile(q), whole.Percentile(q));
  }
}

TEST(HistogramTest, ConcurrentReadsOfConstHistogramAreSafe) {
  // Percentile/Summary on a const exact-mode histogram used to sort the
  // sample buffer in place (a data race between concurrent readers); they
  // now work on a copy. Hammer concurrent reads and check every thread
  // sees the same answer.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  const double want = h.Percentile(0.5);
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&h, want, &mismatches] {
      for (int i = 0; i < 200; ++i) {
        if (h.Percentile(0.5) != want) ++mismatches;
        if (h.Summary().empty()) ++mismatches;
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------- TablePrinter --

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Method", "Hit@1"});
  t.AddRow({"BERT", "71.03"});
  t.AddRow({"BERT_PKGM-all", "71.64"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("BERT_PKGM-all"), std::string::npos);
  EXPECT_NE(s.find("| Method"), std::string::npos);
  // Every rendered line has equal width.
  auto lines = Split(s, '\n');
  size_t width = lines[0].size();
  for (const auto& line : lines) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), width);
    }
  }
}

TEST(TablePrinterTest, NumericRowFormatting) {
  TablePrinter t({"m", "a", "b"});
  t.AddRow("x", {1.234, 5.0}, 2);
  std::string s = t.ToString();
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("5.00"), std::string::npos);
}

}  // namespace
}  // namespace pkgm
