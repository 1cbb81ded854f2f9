#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "support/clock.h"
#include "support/crc32.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"
#include "test_clock.h"

namespace tcm {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformRealInHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BernoulliRespectsEdgeProbabilities) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyApproximatesP) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(9);
  const int n = 20000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(4);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ChoiceReturnsElement) {
  Rng rng(4);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int c = rng.choice(v);
    EXPECT_TRUE(c == 10 || c == 20 || c == 30);
  }
}

TEST(Rng, ChoiceOnEmptyThrows) {
  Rng rng(4);
  const std::vector<int> empty;
  EXPECT_THROW(rng.choice(empty), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split(1);
  Rng a2(42);
  Rng child2 = a2.split(1);
  EXPECT_EQ(child.next_u64(), child2.next_u64());  // deterministic
  Rng child3 = a2.split(2);
  EXPECT_NE(child2.next_u64(), child3.next_u64());  // salt matters
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(Stats, MeanMedianVariance) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(2.0));
}

TEST(Stats, MedianEvenCount) {
  const std::vector<double> xs{1, 2, 3, 10};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, EmptyInputsGiveZero) {
  const std::vector<double> xs;
  EXPECT_DOUBLE_EQ(mean(xs), 0.0);
  EXPECT_DOUBLE_EQ(median(xs), 0.0);
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{4, 1, 3, 2};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 1.75);  // numpy linear interpolation
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 99), 7.0);
  EXPECT_THROW(percentile(one, -1), std::invalid_argument);
  EXPECT_THROW(percentile(one, 101), std::invalid_argument);
}

TEST(Stats, ApeBasic) {
  EXPECT_DOUBLE_EQ(ape(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(ape(2.0, 3.0), 0.5);
  EXPECT_THROW(ape(0.0, 1.0), std::invalid_argument);
}

TEST(Stats, MapeMatchesHandComputation) {
  const std::vector<double> y{1.0, 2.0, 4.0};
  const std::vector<double> yhat{1.1, 1.8, 5.0};
  EXPECT_NEAR(mape(y, yhat), (0.1 + 0.1 + 0.25) / 3.0, 1e-12);
}

TEST(Stats, MapeSizeMismatchThrows) {
  const std::vector<double> y{1.0};
  const std::vector<double> yhat{1.0, 2.0};
  EXPECT_THROW(mape(y, yhat), std::invalid_argument);
}

TEST(Stats, MseMatchesHandComputation) {
  const std::vector<double> y{1.0, 2.0};
  const std::vector<double> yhat{2.0, 4.0};
  EXPECT_DOUBLE_EQ(mse(y, yhat), (1.0 + 4.0) / 2.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> y{1, 2, 3, 4};
  const std::vector<double> z{2, 4, 6, 8};
  EXPECT_NEAR(pearson(y, z), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectAnticorrelation) {
  const std::vector<double> y{1, 2, 3, 4};
  const std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(y, z), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceIsZero) {
  const std::vector<double> y{1, 1, 1};
  const std::vector<double> z{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(y, z), 0.0);
}

TEST(Stats, RanksAverageTies) {
  const std::vector<double> xs{10, 20, 20, 30};
  const auto r = ranks_average_ties(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, SpearmanMonotonicIsOne) {
  const std::vector<double> y{1, 2, 3, 4, 5};
  const std::vector<double> z{1, 4, 9, 16, 25};  // monotone, nonlinear
  EXPECT_NEAR(spearman(y, z), 1.0, 1e-12);
  EXPECT_LT(pearson(y, z), 1.0);  // pearson sees the nonlinearity
}

TEST(Stats, RSquaredPerfectFit) {
  const std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(r_squared(y, y), 1.0);
}

TEST(Stats, RSquaredMeanPredictorIsZero) {
  const std::vector<double> y{1, 2, 3};
  const std::vector<double> yhat{2, 2, 2};
  EXPECT_DOUBLE_EQ(r_squared(y, yhat), 0.0);
}

TEST(Stats, HistogramBinsAndClamping) {
  const std::vector<double> xs{-1.0, 0.05, 0.15, 0.95, 2.0};
  const Histogram h = make_histogram(xs, 0.0, 1.0, 10);
  EXPECT_EQ(h.counts.size(), 10u);
  EXPECT_EQ(h.counts[0], 2u);  // -1.0 clamped into first bin, 0.05 in first
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[9], 2u);  // 0.95 and clamped 2.0
  EXPECT_DOUBLE_EQ(h.bin_width(), 0.1);
  EXPECT_DOUBLE_EQ(h.bin_left(3), 0.3);
}

TEST(Stats, HistogramRejectsBadArgs) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(make_histogram(xs, 0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(make_histogram(xs, 1.0, 0.0, 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a"});
  t.add_row({"hello, \"world\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"hello, \"\"world\"\"\""), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Table, WriteCsvRoundTrip) {
  Table t({"h1", "h2"});
  t.add_row({"v1", "v2"});
  const std::string path = testing::TempDir() + "/tcm_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "h1,h2\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// CRC-32 (the weights-file checksum)
// ---------------------------------------------------------------------------

TEST(Crc32, KnownAnswer) {
  // The canonical IEEE 802.3 check value for "123456789".
  const char digits[] = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalChainingMatchesOneShot) {
  const std::string data = "the weights file is hashed tensor by tensor";
  const std::uint32_t one_shot = crc32(data.data(), data.size());
  std::uint32_t chained = 0;
  for (std::size_t i = 0; i < data.size(); i += 7)
    chained = crc32(data.data() + i, std::min<std::size_t>(7, data.size() - i), chained);
  EXPECT_EQ(chained, one_shot);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  const std::uint32_t before = crc32(data.data(), data.size());
  data[100] = static_cast<char>(data[100] ^ 0x10);
  EXPECT_NE(crc32(data.data(), data.size()), before);
}

// ---------------------------------------------------------------------------
// support::Clock
// ---------------------------------------------------------------------------

TEST(Clock, ScopedClockReplacesAndRestoresTheProcessClock) {
  const support::TimePoint before = support::now();
  {
    ManualClock clock;
    support::ScopedClock use_clock(clock);
    const support::TimePoint frozen = support::now();
    EXPECT_EQ(support::now(), frozen);
    clock.advance(std::chrono::seconds(5));
    EXPECT_EQ(support::now() - frozen, std::chrono::seconds(5));
  }
  EXPECT_GE(support::now(), before);  // steady_clock again
}

TEST(Clock, SteadyWaitTimesOutOrWakesOnNotify) {
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_EQ(support::wait_until(cv, lock, support::now()), std::cv_status::timeout);
  bool ready = false;
  std::thread notifier([&] {
    {
      std::lock_guard<std::mutex> guard(mu);
      ready = true;
    }
    cv.notify_all();
  });
  // max() waits for the notify only.
  EXPECT_TRUE(support::wait_until(cv, lock, support::TimePoint::max(), [&] { return ready; }));
  lock.unlock();
  notifier.join();
}

// A step wakes every wait armed against the clock, whether the waiter armed
// before the step (woken by it) or after (sees the deadline already passed).
// A lost wakeup hangs the join.
TEST(Clock, ManualClockAdvanceWakesEveryWaiter) {
  ManualClock clock;
  support::ScopedClock use_clock(clock);
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
  };
  for (int round = 0; round < 100; ++round) {
    const support::TimePoint deadline = clock.now() + std::chrono::milliseconds(10);
    std::array<Slot, 3> slots;
    std::atomic<int> timed_out{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 4; ++i)
      waiters.emplace_back([&, i] {
        Slot& slot = slots[static_cast<std::size_t>(i % 3)];  // two share a slot
        std::unique_lock<std::mutex> lock(slot.mu);
        if (!support::wait_until(slot.cv, lock, deadline, [] { return false; })) ++timed_out;
      });
    clock.advance(std::chrono::milliseconds(10));
    for (std::thread& t : waiters) t.join();
    EXPECT_EQ(timed_out.load(), 4);
  }
}

TEST(Clock, ManualClockWaitStillWakesOnNotify) {
  ManualClock clock;
  support::ScopedClock use_clock(clock);
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::thread notifier([&] {
    {
      std::lock_guard<std::mutex> guard(mu);
      ready = true;
    }
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(support::wait_until(cv, lock, clock.now() + std::chrono::hours(1),
                                  [&] { return ready; }));
  EXPECT_EQ(support::now(), clock.now());  // no time passed
  lock.unlock();
  notifier.join();
}

}  // namespace
}  // namespace tcm
