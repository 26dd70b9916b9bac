// Unit tests of the benchmark's own aggregation: order statistics,
// quiet-unit selection, StatsJson parsing and deltas, and the /proc
// parsers.
#include "aggregate.h"

#include <gtest/gtest.h>

#include <vector>

namespace pkgm::perfbench {
namespace {

TEST(PercentileTest, KnownSampleAndEmptySample) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(QuietUnitsTest, CountsOnlyUnitsAtOrBelowTheCeiling) {
  const std::vector<Unit> units{{0.25, 0.0},
                                {0.25, kStealCeiling},
                                {0.25, kStealCeiling + 0.01},
                                {0.5, 0.2}};
  EXPECT_DOUBLE_EQ(QuietWeight(units), 0.5);
  EXPECT_DOUBLE_EQ(QuietWeight({}), 0.0);
}

TEST(QuietUnitsTest, ChoosesEveryQuietUnit) {
  const std::vector<Unit> units{{1, 0.10}, {1, 0.00}, {1, 0.05},
                                {1, 0.00}, {1, 0.20}, {1, 0.01}};
  EXPECT_EQ(ChooseQuietUnits(units, 2), (std::vector<size_t>{1, 3, 5}));
  EXPECT_EQ(ChooseQuietUnits(units, 12), (std::vector<size_t>{1, 3, 5}));
}

TEST(QuietUnitsTest, TopsUpWithTheLeastStolenUnitsWhenTooFewAreQuiet) {
  const std::vector<Unit> busy{{1, 0.10}, {1, 0.04}, {1, 0.05},
                               {1, 0.20}, {1, 0.08}};
  EXPECT_EQ(ChooseQuietUnits(busy, 3), (std::vector<size_t>{1}));
  EXPECT_EQ(ChooseQuietUnits(busy, 10), (std::vector<size_t>{1, 2, 4}));
  std::vector<Unit> one_quiet = busy;
  one_quiet.push_back({1, 0.0});
  EXPECT_EQ(ChooseQuietUnits(one_quiet, 5), (std::vector<size_t>{1, 5}));
  // Weights are seconds for epochs.
  const std::vector<Unit> epochs{{0.2, 0.3}, {0.8, 0.1}, {0.9, 0.05}};
  EXPECT_EQ(ChooseQuietUnits(epochs, 1.5), (std::vector<size_t>{2}));
  EXPECT_EQ(ChooseQuietUnits(epochs, 4), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(ChooseQuietUnits(epochs, 0.0), (std::vector<size_t>{2}));
  EXPECT_TRUE(ChooseQuietUnits({}, 1).empty());
}

TEST(JsonTest, FlattensNestedObjectsAndArrays) {
  auto j = ParseJson(
      R"({"ok": 12, "net": {"io_backend": "io_uring", "bytes_in": 1e3},)"
      R"( "latency": {"queue": {"count": 0}}, "ids": [3, 4], "on": true,)"
      R"( "none": null, "esc": "a\"b"})");
  ASSERT_TRUE(j.has_value());
  EXPECT_DOUBLE_EQ(j->Num("ok"), 12.0);
  EXPECT_DOUBLE_EQ(j->Num("net.bytes_in"), 1000.0);
  EXPECT_EQ(j->Str("net.io_backend"), "io_uring");
  EXPECT_DOUBLE_EQ(j->Num("latency.queue.count", -1), 0.0);
  EXPECT_DOUBLE_EQ(j->Num("ids.1"), 4.0);
  EXPECT_EQ(j->Str("on"), "true");
  EXPECT_EQ(j->Str("esc"), "a\"b");
  EXPECT_DOUBLE_EQ(j->Num("missing", -1), -1.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").has_value());
  EXPECT_FALSE(ParseJson("{\"a\": }").has_value());
  EXPECT_FALSE(ParseJson("{\"a\": 1").has_value());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing").has_value());
}

TEST(JsonTest, DeltaOfStatsSnapshots) {
  auto before = ParseJson(
      R"({"net": {"frames_in": 100, "io_wait_calls": 40}, "cache": {"hits": 5}})");
  auto after = ParseJson(
      R"({"net": {"frames_in": 350, "io_wait_calls": 90}, "cache": {"hits": 5},)"
      R"( "backend_fetches": 7})");
  ASSERT_TRUE(before && after);
  const auto d = JsonDelta(*before, *after);
  EXPECT_DOUBLE_EQ(d.at("net.frames_in"), 250.0);
  EXPECT_DOUBLE_EQ(d.at("net.io_wait_calls"), 50.0);
  EXPECT_DOUBLE_EQ(d.at("cache.hits"), 0.0);
  EXPECT_DOUBLE_EQ(d.at("backend_fetches"), 7.0);  // absent before = 0
}

TEST(ProcTest, ParsesHostStatAndSteal) {
  const char* before =
      "cpu  100 0 50 800 10 0 5 20 0 0\n"
      "cpu0 50 0 25 400 5 0 2 10 0 0\n"
      "intr 12345\n";
  const char* after = "cpu  200 0 100 1500 10 0 10 40 0 0\n";
  auto b = ParseProcStat(before);
  auto a = ParseProcStat(after);
  ASSERT_TRUE(b && a);
  EXPECT_EQ(b->total, 985u);
  EXPECT_EQ(b->steal, 20u);
  EXPECT_DOUBLE_EQ(StealShare(*b, *a), 20.0 / 875.0);
  EXPECT_FALSE(ParseProcStat("cpu0 1 2 3\n").has_value());
}

TEST(ProcTest, ParsesPidStatWithAwkwardCommandName) {
  const char* stat =
      "4242 (pkgm (psd) x) S 17 4242 17 0 -1 4194304 300 0 0 0 "
      "123 45 0 0 20 0 3 0 100 1000 50";
  auto ticks = ParsePidCpuTicks(stat);
  ASSERT_TRUE(ticks.has_value());
  EXPECT_EQ(*ticks, 168u);
  int ppid = 0;
  std::string comm;
  ASSERT_TRUE(ParsePidParent(stat, &ppid, &comm));
  EXPECT_EQ(ppid, 17);
  EXPECT_EQ(comm, "pkgm (psd) x");
  EXPECT_FALSE(ParsePidCpuTicks("garbage").has_value());
}

TEST(ProcTest, ParsesPeakRss) {
  const char* status =
      "Name:\tpkgm_netd\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\n"
      "VmRSS:\t   40000 kB\n";
  EXPECT_EQ(ParseVmHwmKb(status).value_or(0), 51200u);
  EXPECT_FALSE(ParseVmHwmKb("Name:\tx\n").has_value());
}

TEST(ProcTest, ParsesCaughtSignalMask) {
  // SIGINT (2) and SIGTERM (15) caught: bits 1 and 14.
  const char* status =
      "SigIgn:\t0000000000001000\nSigCgt:\t0000000000004002\n";
  EXPECT_TRUE(ParseCatchesSignal(status, 15));
  EXPECT_TRUE(ParseCatchesSignal(status, 2));
  EXPECT_FALSE(ParseCatchesSignal(status, 13));  // ignored, not caught
  EXPECT_FALSE(ParseCatchesSignal("SigCgt:\t0000000000000000\n", 15));
  EXPECT_FALSE(ParseCatchesSignal("Name:\tx\n", 15));
}

}  // namespace
}  // namespace pkgm::perfbench
