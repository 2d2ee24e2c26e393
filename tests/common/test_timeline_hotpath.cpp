// Regression tests for the allocation-free timeline hot path: once every
// column ring is discovered and preallocated, steady-state sampling — the
// merge-walk snapshot, ring-wrap base folding, the armed self-rescheduling
// tick, and HealthMonitor breach edges below its event reserve — must
// perform ZERO heap allocations.
//
// This file lives in its own test binary (tests_timeline_hotpath) because it
// replaces global operator new/delete with counting versions — that is
// process-wide and must not leak into unrelated suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/metrics.h"
#include "common/metrics_timeline.h"
#include "common/time.h"
#include "health/health_monitor.h"
#include "net/event_loop.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

// Every operator delete frees here rather than one forwarding to another:
// after inlining, GCC sees `operator delete(void*)` called on malloc's
// pointer and prints -Wmismatched-new-delete; malloc paired with free is not
// flagged.
void counted_free(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace vc {
namespace {

MetricsTimeline::Config tiny_config() {
  MetricsTimeline::Config c;
  c.interval = millis(100);
  c.capacity = 8;  // steady state includes ring wrap + base folding
  return c;
}

TEST(TimelineHotPath, SteadyStateSamplingIsAllocationFree) {
  MetricsRegistry reg;
  auto& c0 = reg.counter("a.work");
  auto& c1 = reg.counter("b.more");
  auto& g0 = reg.gauge("c.depth");
  auto& h0 = reg.histogram("d.lat");
  MetricsTimeline tl{tiny_config()};
  tl.bind(reg);

  // Warm-up: discover every column, fill the ring, and wrap it once so the
  // eviction/base-fold path is exercised before counting starts.
  for (int i = 0; i < 12; ++i) {
    c0.inc();
    c1.add(3);
    g0.set(static_cast<double>(i));
    h0.observe(static_cast<double>(i % 5));
    tl.sample_now(SimTime{i * 100'000});
  }
  ASSERT_GT(tl.dropped_samples(), 0u);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 12; i < 112; ++i) {
    c0.inc();
    c1.add(3);
    g0.set(static_cast<double>(i % 7));
    h0.observe(static_cast<double>(i % 5));
    tl.sample_now(SimTime{i * 100'000});
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "sampling hot path allocated " << (after - before) << " times";
  EXPECT_EQ(tl.total_samples(), 112u);
}

TEST(TimelineHotPath, ArmedTickReusesItsEventSlot) {
  net::EventLoop loop;
  MetricsRegistry reg;
  auto* c = &reg.counter("work");
  MetricsTimeline tl{tiny_config()};

  // Warm-up leg: arm and drain once so the loop's slab chunk, heap storage
  // (two concurrent events: the tick plus a user event, same as the measured
  // leg), and the column rings all exist.
  tl.arm(loop, reg, loop.now(), loop.now() + seconds(2));
  loop.schedule_at(loop.now() + seconds(1), [c] { c->inc(); });
  loop.run();
  const std::size_t warm_samples = tl.total_samples();
  ASSERT_GT(warm_samples, 0u);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  tl.arm(loop, reg, loop.now() + millis(100), loop.now() + seconds(12));
  loop.schedule_at(loop.now() + seconds(5), [c] { c->inc(); });
  loop.run();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "armed tick chain allocated " << (after - before) << " times";
  EXPECT_GT(tl.total_samples(), warm_samples + 100);  // the chain really ran
}

TEST(TimelineHotPath, HealthEdgesBelowReserveAreAllocationFree) {
  MetricsRegistry reg;
  auto& depth = reg.gauge("depth");
  MetricsTimeline tl{tiny_config()};
  tl.bind(reg);
  health::HealthMonitor monitor;
  health::SloRule rule;
  rule.rule = "depth-bounded";
  rule.metric = "depth";
  rule.op = health::SloRule::Op::kLe;
  rule.threshold = 5.0;
  monitor.add_rule(rule);
  monitor.bind(&reg, nullptr);
  tl.set_observer(&monitor);

  // Warm-up: resolve the breach counter, discover columns, flip one breach.
  for (int i = 0; i < 12; ++i) {
    depth.set(i % 4 == 1 ? 9.0 : 1.0);
    tl.sample_now(SimTime{i * 100'000});
  }
  const std::uint64_t events_before_count = monitor.events().size();
  ASSERT_GT(events_before_count, 0u);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 12; i < 112; ++i) {
    depth.set(i % 4 == 1 ? 9.0 : 1.0);  // 25 more breach begin/end pairs
    tl.sample_now(SimTime{i * 100'000});
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "health edges allocated " << (after - before) << " times";
  EXPECT_GT(monitor.events().size(), events_before_count);
  EXPECT_LT(monitor.events().size(), 256u);  // still under the default reserve
}

// The counting operators themselves must be active, or the zero-allocation
// expectations above would pass vacuously.
TEST(TimelineHotPath, CountingAllocatorIsLive) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto* v = new std::vector<int>(1024, 7);
  delete v;
  EXPECT_GT(g_allocs.load(std::memory_order_relaxed), before);
  EXPECT_GT(g_frees.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace vc
