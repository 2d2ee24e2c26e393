#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

#include "common/metrics.h"
#include "net/event_loop.h"

namespace vc::net {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  loop.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  loop.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime{300});
}

TEST(EventLoop, FifoAmongSimultaneousEvents) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(SimTime{50}, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  SimTime fired{};
  loop.schedule_after(millis(10), [&] {
    loop.schedule_after(millis(5), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, SimTime{15'000});
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule_after(millis(1), [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelAfterRunIsNoop) {
  EventLoop loop;
  const EventId id = loop.schedule_after(millis(1), [] {});
  loop.run();
  loop.cancel(id);  // must not crash or affect anything
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RunUntilStopsAndAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(SimTime{100}, [&] { ++fired; });
  loop.schedule_at(SimTime{500}, [&] { ++fired; });
  loop.run_until(SimTime{200});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), SimTime{200});  // idle clock advance
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  loop.schedule_at(SimTime{100}, [] {});
  loop.run();
  SimTime fired{};
  loop.schedule_at(SimTime{10}, [&] { fired = loop.now(); });  // in the past
  loop.run();
  EXPECT_EQ(fired, SimTime{100});
}

TEST(EventLoop, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) loop.schedule_after(millis(1), recurse);
  };
  loop.schedule_after(millis(1), recurse);
  loop.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(loop.events_executed(), 10u);
}

TEST(EventLoop, NullCallbackRejected) {
  EventLoop loop;
  EXPECT_THROW(loop.schedule_at(SimTime{1}, nullptr), std::invalid_argument);
}

TEST(EventLoop, StaleIdInertAfterSlotReuse) {
  EventLoop loop;
  bool a_ran = false;
  bool b_ran = false;
  const EventId a = loop.schedule_after(millis(1), [&] { a_ran = true; });
  loop.cancel(a);
  // The freed slot is reused immediately; a's stale id must not be able to
  // cancel the new occupant.
  const EventId b = loop.schedule_after(millis(1), [&] { b_ran = true; });
  EXPECT_NE(a, b);
  loop.cancel(a);
  loop.run();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
}

TEST(EventLoop, CancelDefaultIdWithFreeSlotZeroIsNoop) {
  // Regression: id 0 (a default-initialized handle, e.g. a VcaClient timer
  // that never started) addresses slot 0, and a free slot's armed id is also
  // 0 — cancel(0) used to "match" the free slot, double-free it into the
  // free list, and underflow pending(). Two later schedules would then both
  // land in slot 0 and one event would silently never fire.
  EventLoop loop;
  loop.cancel(EventId{});  // empty loop: slot 0 does not exist yet
  EXPECT_EQ(loop.pending(), 0u);

  int fired = 0;
  loop.schedule_after(millis(1), [&] { ++fired; });  // occupies then frees slot 0
  loop.run();
  EXPECT_EQ(fired, 1);

  loop.cancel(EventId{});  // slot 0 exists and is free: must be a no-op
  EXPECT_EQ(loop.pending(), 0u);

  loop.schedule_after(millis(1), [&] { ++fired; });
  loop.schedule_after(millis(1), [&] { ++fired; });
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_EQ(fired, 3);  // with a corrupted free list one of these was lost
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, FifoPreservedAcrossCancellations) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(loop.schedule_at(SimTime{50}, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 10; i += 2) loop.cancel(ids[static_cast<std::size_t>(i)]);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(EventLoop, CancelSimultaneousEventFromCallback) {
  EventLoop loop;
  std::vector<int> order;
  EventId second{};
  loop.schedule_at(SimTime{10}, [&] {
    order.push_back(0);
    loop.cancel(second);
  });
  second = loop.schedule_at(SimTime{10}, [&] { order.push_back(1); });
  loop.schedule_at(SimTime{10}, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventLoop, CallbackExceptionLeavesLoopUsable) {
  EventLoop loop;
  bool later_ran = false;
  loop.schedule_after(millis(1), [] { throw std::runtime_error{"boom"}; });
  loop.schedule_after(millis(2), [&] { later_ran = true; });
  EXPECT_THROW(loop.run(), std::runtime_error);
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(loop.pending(), 1u);  // the throwing event was consumed
  loop.run();
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, OversizedClosureHeapFallback) {
  EventLoop loop;
  // Larger than the 64-byte inline buffer: exercises the heap vtable path.
  std::array<std::uint64_t, 16> big{};
  big.fill(7);
  std::uint64_t sum = 0;
  loop.schedule_after(millis(1), [big, &sum] {
    for (const auto v : big) sum += v;
  });
  loop.run();
  EXPECT_EQ(sum, 7u * 16u);
}

TEST(EventLoop, SlabChurnKeepsOrderAndCounts) {
  // Thousands of schedule/cancel/fire cycles: slab growth, free-list reuse
  // and heap discipline must keep execution time-ordered throughout.
  EventLoop loop;
  std::int64_t last_seen = -1;
  bool monotonic = true;
  int fired = 0;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 4000; ++i) {
    const std::int64_t at = 10 + (i * 37) % 1000;
    const EventId id = loop.schedule_at(SimTime{at}, [&, at] {
      if (at < last_seen) monotonic = false;
      last_seen = at;
      ++fired;
    });
    if (i % 3 == 0) cancelled.push_back(id);
  }
  for (const EventId id : cancelled) loop.cancel(id);
  loop.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(fired, 4000 - static_cast<int>(cancelled.size()));
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_GE(loop.queue_depth_high_water(), 4000u - cancelled.size());
}

TEST(EventLoop, CallbackMayGrowSlabMidInvocation) {
  // Regression (caught by ASan in a full-scale session): callbacks run in
  // place inside their slab slot, so a callback that schedules enough new
  // events to grow the slab must not have its own storage relocated or freed
  // out from under it. The captured array makes the closure's state big and
  // forces it to read the captures after the fan-out.
  EventLoop loop;
  std::array<std::uint64_t, 6> marker{1, 2, 3, 4, 5, 6};
  int scheduled_fired = 0;
  std::uint64_t checksum = 0;
  loop.schedule_after(millis(1), [&loop, &scheduled_fired, &checksum, marker] {
    for (int i = 0; i < 3000; ++i) {  // spills past several slab chunks
      loop.schedule_after(millis(1), [&scheduled_fired] { ++scheduled_fired; });
    }
    for (const auto v : marker) checksum += v;  // captures must still be alive
  });
  loop.run();
  EXPECT_EQ(checksum, 21u);
  EXPECT_EQ(scheduled_fired, 3000);
}

TEST(EventLoop, MetricsMirrorExecutionAndDepth) {
  MetricsRegistry registry;
  EventLoop loop{{.metrics = &registry}};
  loop.schedule_after(millis(1), [] {});
  loop.schedule_after(millis(2), [] {});
  loop.schedule_after(millis(3), [] {});
  loop.run();
  EXPECT_EQ(registry.counter("net.loop.events_executed").value(), 3);
  EXPECT_EQ(registry.gauge("net.loop.queue_depth_hwm").value(), 3.0);
  EXPECT_EQ(loop.events_executed(), 3u);
  EXPECT_EQ(loop.queue_depth_high_water(), 3u);
}

TEST(EventLoop, PendingCount) {
  EventLoop loop;
  const EventId a = loop.schedule_after(millis(1), [] {});
  loop.schedule_after(millis(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
}

}  // namespace
}  // namespace vc::net
