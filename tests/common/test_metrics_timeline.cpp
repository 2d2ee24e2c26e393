// MetricsTimeline unit tests: delta encoding round-trips exactly, ring wrap
// folds evicted deltas into the base, columns stay byte-wise name-sorted
// (including mid-run discovery), the armed tick stops at its bound, and
// to_json() is deterministic for identically-driven timelines.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/time.h"
#include "net/event_loop.h"

namespace vc {
namespace {

MetricsTimeline::Config small_config(std::size_t capacity) {
  MetricsTimeline::Config c;
  c.interval = seconds(1);
  c.capacity = capacity;
  return c;
}

/// Decodes a counter column back to cumulative values over the retained
/// window — the contract parse_timeline and every reader depends on.
std::vector<std::int64_t> decode(const MetricsTimeline& tl, const MetricsTimeline::CounterColumn& col) {
  std::vector<std::int64_t> out;
  const std::size_t oldest = tl.oldest_sample();
  const std::size_t first = col.first_sample > oldest ? col.first_sample : oldest;
  std::int64_t acc = col.base;
  for (std::size_t g = first; g < tl.total_samples(); ++g) {
    acc += col.deltas[g % tl.config().capacity];
    out.push_back(acc);
  }
  return out;
}

TEST(MetricsTimeline, CounterDeltaRoundTrip) {
  MetricsRegistry reg;
  auto& c = reg.counter("work");
  MetricsTimeline tl{small_config(16)};
  tl.bind(reg);

  std::vector<std::int64_t> truth;
  for (int i = 0; i < 10; ++i) {
    c.add(i * 7 + 1);  // uneven increments
    truth.push_back(c.value());
    tl.sample_now(SimTime{i * 1'000'000});
  }
  ASSERT_EQ(tl.total_samples(), 10u);
  EXPECT_EQ(tl.dropped_samples(), 0u);
  const auto* col = tl.find_counter("work");
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->base, 0);
  EXPECT_EQ(decode(tl, *col), truth);
}

TEST(MetricsTimeline, RingWrapFoldsEvictedDeltasIntoBase) {
  MetricsRegistry reg;
  auto& c = reg.counter("work");
  MetricsTimeline tl{small_config(4)};
  tl.bind(reg);

  std::vector<std::int64_t> truth;
  for (int i = 0; i < 10; ++i) {
    c.add(i + 1);
    truth.push_back(c.value());
    tl.sample_now(SimTime{i * 1'000'000});
  }
  EXPECT_EQ(tl.total_samples(), 10u);
  EXPECT_EQ(tl.retained_samples(), 4u);
  EXPECT_EQ(tl.dropped_samples(), 6u);
  EXPECT_EQ(tl.oldest_sample(), 6u);

  const auto* col = tl.find_counter("work");
  ASSERT_NE(col, nullptr);
  // The base is the cumulative value just before the oldest retained sample
  // (samples 0..5 evicted: 1+2+..+6 increments = value after sample 5).
  EXPECT_EQ(col->base, truth[5]);
  const std::vector<std::int64_t> window{truth.begin() + 6, truth.end()};
  EXPECT_EQ(decode(tl, *col), window);
}

TEST(MetricsTimeline, HistogramCountDeltaAlsoFoldsOnWrap) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat");
  MetricsTimeline tl{small_config(3)};
  tl.bind(reg);
  for (int i = 0; i < 8; ++i) {
    for (int k = 0; k <= i; ++k) h.observe(static_cast<double>(k));
    tl.sample_now(SimTime{i * 1'000'000});
  }
  const auto* col = tl.find_histogram("lat");
  ASSERT_NE(col, nullptr);
  // Observations through sample 4 (evicted window): 1+2+3+4+5 = 15.
  EXPECT_EQ(col->count_base, 15);
  std::int64_t acc = col->count_base;
  for (std::size_t g = tl.oldest_sample(); g < tl.total_samples(); ++g) {
    acc += col->count_deltas[g % tl.config().capacity];
  }
  EXPECT_EQ(acc, h.stats().count());
  EXPECT_EQ(col->latest_mean, h.stats().mean());
  EXPECT_EQ(col->latest_max, h.stats().max());
}

TEST(MetricsTimeline, ColumnsStayNameSortedWithMidRunDiscovery) {
  MetricsRegistry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc();
  MetricsTimeline tl{small_config(8)};
  tl.bind(reg);
  tl.sample_now(SimTime{0});
  tl.sample_now(SimTime{1'000'000});

  // A column discovered mid-run slots into sorted position and records the
  // global index of its first sample.
  reg.counter("mid").add(5);
  tl.sample_now(SimTime{2'000'000});

  const auto& cols = tl.counter_columns();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0].name, "alpha");
  EXPECT_EQ(cols[1].name, "mid");
  EXPECT_EQ(cols[2].name, "zeta");
  EXPECT_EQ(cols[0].first_sample, 0u);
  EXPECT_EQ(cols[1].first_sample, 2u);
  EXPECT_EQ(decode(tl, cols[1]), (std::vector<std::int64_t>{5}));
}

TEST(MetricsTimeline, GaugeColumnRecordsRawValuesAndRegistryTracksHwm) {
  MetricsRegistry reg;
  auto& g = reg.gauge("depth");
  MetricsTimeline tl{small_config(8)};
  tl.bind(reg);
  for (int i = 0; i < 4; ++i) {
    g.set(i == 2 ? 9.0 : static_cast<double>(i));
    tl.sample_now(SimTime{i * 1'000'000});
  }
  const auto* col = tl.find_gauge("depth");
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->latest, 3.0);
  EXPECT_EQ(col->values[2 % tl.config().capacity], 9.0);
  // The gauge's own high-water mark survives the drain back down.
  EXPECT_EQ(g.value(), 3.0);
  EXPECT_EQ(g.max(), 9.0);
}

TEST(MetricsTimeline, ArmedTickSamplesPeriodicallyAndStopsAtBound) {
  net::EventLoop loop;
  MetricsRegistry reg;
  auto* c = &reg.counter("work");
  MetricsTimeline tl{small_config(64)};
  tl.arm(loop, reg, SimTime::zero(), SimTime::zero() + seconds(5));
  for (int i = 0; i < 50; ++i) {
    loop.schedule_at(SimTime{i * 100'000}, [c] { c->inc(); });
  }
  loop.run();  // drains: the tick chain must terminate at the bound
  EXPECT_EQ(tl.total_samples(), 6u);  // t = 0,1,2,3,4,5 s
  EXPECT_EQ(tl.last_sample_time(), SimTime{5'000'000});
  const auto* col = tl.find_counter("work");
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->prev, 50);
}

TEST(MetricsTimeline, ToJsonIsDeterministicAndCarriesAccounting) {
  auto drive = [] {
    MetricsRegistry reg;
    auto& c = reg.counter("b.count");
    auto& g = reg.gauge("a.depth");
    auto& h = reg.histogram("c.lat");
    MetricsTimeline tl{small_config(4)};
    tl.bind(reg);
    for (int i = 0; i < 7; ++i) {
      c.add(3);
      g.set(static_cast<double>(i) / 2.0);
      h.observe(static_cast<double>(i));
      tl.sample_now(SimTime{i * 500'000});
    }
    tl.finalize();
    return tl.to_json();
  };
  const std::string a = drive();
  EXPECT_EQ(a, drive());
  EXPECT_NE(a.find("\"total_samples\":7"), std::string::npos);
  EXPECT_NE(a.find("\"samples\":4"), std::string::npos);
  EXPECT_NE(a.find("\"dropped\":3"), std::string::npos);
  EXPECT_NE(a.find("\"a.depth\""), std::string::npos);
  // Sorted emission: the gauge section name appears, and counters precede it
  // structurally; spot-check relative order of the two counter-ish names.
  EXPECT_LT(a.find("\"b.count\""), a.find("\"c.lat\""));
}

struct CountingObserver final : MetricsTimeline::Observer {
  int samples = 0;
  int finalizes = 0;
  void on_sample(const MetricsTimeline&, SimTime) override { ++samples; }
  void on_finalize(const MetricsTimeline&, SimTime) override { ++finalizes; }
};

TEST(MetricsTimeline, FinalizeIsIdempotentAndNotifiesObserverOnce) {
  MetricsRegistry reg;
  reg.counter("x").inc();
  MetricsTimeline tl{small_config(8)};
  tl.bind(reg);
  CountingObserver obs;
  tl.set_observer(&obs);
  tl.sample_now(SimTime{0});
  tl.sample_now(SimTime{1'000'000});
  tl.finalize();
  tl.finalize();
  EXPECT_EQ(obs.samples, 2);
  EXPECT_EQ(obs.finalizes, 1);
}

}  // namespace
}  // namespace vc
