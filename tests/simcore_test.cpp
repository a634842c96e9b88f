// Unit tests for the discrete-event core: ordering, cancellation, periodic
// kinds, sink registration, the slot rule and clock semantics.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/simulator.h"

namespace coda::simcore {
namespace {

// Hands each event to `fn`: the tests' stand-in for a layer owning kinds.
class FnSink : public EventSink {
 public:
  explicit FnSink(std::function<void(const EventTag&)> fn)
      : fn_(std::move(fn)) {}
  void on_event(const EventTag& tag) override { fn_(tag); }

 private:
  std::function<void(const EventTag&)> fn_;
};

// Drains the queue, returning each popped event's `a` in pop order.
std::vector<uint64_t> drain(EventQueue* q) {
  std::vector<uint64_t> order;
  while (!q->empty()) {
    order.push_back(q->pop().tag.a);
  }
  return order;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, {kTagArrival, 3});
  q.push(1.0, {kTagArrival, 1});
  q.push(2.0, {kTagArrival, 2});
  EXPECT_EQ(drain(&q), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (uint64_t i = 0; i < 10; ++i) {
    q.push(5.0, {i % 2 == 0 ? kTagArrival : kTagJobFinish, i});
  }
  const std::vector<uint64_t> order = drain(&q);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue q;
  uint64_t fired = 0;
  auto h1 = q.push(1.0, {kTagJobFinish, 1});
  auto h2 = q.push(2.0, {kTagJobFinish, 10});
  EXPECT_TRUE(q.pending(h1));
  q.cancel(h1);
  EXPECT_FALSE(q.pending(h1));
  EXPECT_EQ(q.live_count(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  fired += q.pop().tag.a;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, 10u);
  EXPECT_FALSE(q.pending(h2));  // fired events report not-pending
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  uint64_t fired = 0;
  auto h = q.push(1.0, {kTagJobFinish, 1});
  fired += q.pop().tag.a;
  q.cancel(h);
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(q.live_count(), 0u);
}

// A handle whose event fired (or was cancelled) keeps naming its slot after
// a later push recycled it; cancelling it must leave the new event alone.
TEST(EventQueue, CancellingAStaleHandleIsANoop) {
  EventQueue q;
  const EventHandle fired = q.push(1.0, {kTagJobFinish, 1});
  q.pop();
  const EventHandle cancelled = q.push(2.0, {kTagJobFinish, 2});
  EXPECT_EQ(cancelled.slot, fired.slot);  // the free list hands it back
  q.cancel(cancelled);
  const EventHandle live = q.push(3.0, {kTagJobFinish, 3});
  EXPECT_EQ(live.slot, fired.slot);
  q.cancel(fired);
  q.cancel(cancelled);
  EXPECT_TRUE(q.pending(live));
  EXPECT_EQ(q.live_count(), 1u);
  EXPECT_EQ(drain(&q), (std::vector<uint64_t>{3}));
}

// Exactly the finish and the tuning tick claim a pool slot: the
// event_pool_* gauges every snapshot carries count them and nothing else.
TEST(Simulator, OnlySlotClaimingKindsMoveThePool) {
  Simulator sim;
  FnSink sink([](const EventTag&) {});
  size_t live = 0;
  size_t slots = 0;
  for (uint32_t kind = 1; kind < kTagKindEnd; ++kind) {
    EXPECT_EQ(claims_slot(kind),
              kind == kTagJobFinish || kind == kTagTuningTick);
    ASSERT_TRUE(sim.register_sink(kind, &sink));
    const EventHandle h = sim.schedule_at(1.0, {kind, kind});
    ++live;
    slots += claims_slot(kind) ? 1 : 0;
    EXPECT_EQ(sim.pending(h), claims_slot(kind)) << kind;
    const EventPool::Stats stats = sim.event_pool_stats();
    EXPECT_EQ(stats.live_events, live) << kind;
    EXPECT_EQ(stats.slots_in_use, slots) << kind;
  }
  sim.run_all();
  const EventPool::Stats stats = sim.event_pool_stats();
  EXPECT_EQ(stats.live_events, 0u);
  EXPECT_EQ(stats.slots_in_use, 0u);
  EXPECT_EQ(stats.slots_free, stats.chunks * 256);
}

TEST(Simulator, ASecondSinkForOneKindIsRefused) {
  Simulator sim;
  FnSink first([](const EventTag&) {});
  FnSink second([](const EventTag&) {});
  EXPECT_TRUE(sim.register_sink(kTagArrival, &first));
  EXPECT_FALSE(sim.register_sink(kTagArrival, &second));
  EXPECT_FALSE(sim.register_sink(kTagArrival, &first));
  EXPECT_EQ(sim.sink(kTagArrival), &first);
  // Kinds outside [1, kTagKindEnd) have no sink and take none.
  EXPECT_FALSE(sim.register_sink(0, &second));
  EXPECT_FALSE(sim.register_sink(kTagKindEnd, &second));
  EXPECT_EQ(sim.sink(0), nullptr);
  EXPECT_EQ(sim.sink(kTagKindEnd), nullptr);
  EXPECT_EQ(sim.sink(4294967295u), nullptr);
  EXPECT_EQ(sim.sink(kTagJobFinish), nullptr);
}

TEST(Simulator, EventsReachTheSinkOfTheirKind) {
  Simulator sim;
  std::vector<uint64_t> arrivals;
  std::vector<uint64_t> finishes;
  FnSink a([&](const EventTag& tag) { arrivals.push_back(tag.a); });
  FnSink f([&](const EventTag& tag) { finishes.push_back(tag.a + tag.b); });
  ASSERT_TRUE(sim.register_sink(kTagArrival, &a));
  ASSERT_TRUE(sim.register_sink(kTagJobFinish, &f));
  sim.schedule_at(1.0, {kTagArrival, 7});
  sim.schedule_at(2.0, {kTagJobFinish, 7, 100});
  sim.schedule_at(3.0, {kTagArrival, 8});
  sim.run_all();
  EXPECT_EQ(arrivals, (std::vector<uint64_t>{7, 8}));
  EXPECT_EQ(finishes, (std::vector<uint64_t>{107}));
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> times;
  FnSink sink([&](const EventTag&) { times.push_back(sim.now()); });
  ASSERT_TRUE(sim.register_sink(kTagArrival, &sink));
  sim.schedule_at(5.0, {kTagArrival});
  sim.schedule_at(sim.now() + 2.0, {kTagArrival});
  sim.run_all();
  EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(sim.dispatched(), 2u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  FnSink sink([&](const EventTag&) { ++fired; });
  ASSERT_TRUE(sim.register_sink(kTagArrival, &sink));
  sim.schedule_at(10.0, {kTagArrival});
  sim.schedule_at(10.5, {kTagArrival});
  sim.run_until(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  sim.run_until(11.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim;
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, EventsScheduledDuringDispatchRun) {
  Simulator sim;
  std::vector<double> times;
  FnSink sink([&](const EventTag& tag) {
    if (tag.kind == kTagArrival) {
      sim.schedule_at(sim.now() + 1.0, {kTagNodeFail});
    } else {
      times.push_back(sim.now());
    }
  });
  ASSERT_TRUE(sim.register_sink(kTagArrival, &sink));
  ASSERT_TRUE(sim.register_sink(kTagNodeFail, &sink));
  sim.schedule_at(1.0, {kTagArrival});
  sim.run_all();
  EXPECT_EQ(times, (std::vector<double>{2.0}));
}

// A periodic kind as the engine and CODA write one: the handler's work,
// then, as its last step, the same tag re-posted one period on.
class PeriodicSink : public EventSink {
 public:
  PeriodicSink(Simulator* sim, double period, std::function<void()> work)
      : sim_(sim), period_(period), work_(std::move(work)) {}
  void on_event(const EventTag& tag) override {
    work_();
    sim_->schedule_at(sim_->now() + period_, tag);
  }

 private:
  Simulator* sim_;
  double period_;
  std::function<void()> work_;
};

TEST(Simulator, PeriodicKindRepostsItselfEveryPeriod) {
  Simulator sim;
  int ticks = 0;
  PeriodicSink tick(&sim, 10.0, [&] { ++ticks; });
  ASSERT_TRUE(sim.register_sink(kTagMetricsTick, &tick));
  sim.schedule_at(10.0, {kTagMetricsTick});
  sim.run_until(35.0);
  EXPECT_EQ(ticks, 3);  // t = 10, 20, 30
  EXPECT_EQ(sim.event_pool_stats().live_events, 1u);  // the t = 40 tick
  EXPECT_EQ(sim.event_pool_stats().slots_in_use, 0u);
}

TEST(Simulator, TwoPeriodicsInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  PeriodicSink one(&sim, 2.0, [&] { order.push_back(1); });
  PeriodicSink two(&sim, 2.0, [&] { order.push_back(2); });
  ASSERT_TRUE(sim.register_sink(kTagEliminatorTick, &one));
  ASSERT_TRUE(sim.register_sink(kTagReservationTick, &two));
  sim.schedule_at(2.0, {kTagEliminatorTick});
  sim.schedule_at(2.0, {kTagReservationTick});
  sim.run_until(4.0);
  // Same period, first registered fires first at each tick.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

// The re-post is the handler's last step, so an event the handler posts
// for the next tick's instant is queued first and dispatches first.
TEST(Simulator, EventPostedByATickForItsNextInstantRunsBeforeIt) {
  Simulator sim;
  std::vector<std::pair<double, uint32_t>> order;
  FnSink arrival([&](const EventTag& tag) {
    order.emplace_back(sim.now(), tag.kind);
  });
  PeriodicSink tick(&sim, 10.0, [&] {
    order.emplace_back(sim.now(), kTagMetricsTick);
    if (sim.now() == 10.0) {
      sim.schedule_at(20.0, {kTagArrival});
    }
  });
  ASSERT_TRUE(sim.register_sink(kTagArrival, &arrival));
  ASSERT_TRUE(sim.register_sink(kTagMetricsTick, &tick));
  sim.schedule_at(10.0, {kTagMetricsTick});
  sim.run_until(20.0);
  EXPECT_EQ(order, (std::vector<std::pair<double, uint32_t>>{
                       {10.0, kTagMetricsTick},
                       {20.0, kTagArrival},
                       {20.0, kTagMetricsTick}}));
}

TEST(Simulator, ScheduleAfterZeroDelayRunsAtNow) {
  Simulator sim;
  double when = -1.0;
  FnSink sink([&](const EventTag& tag) {
    if (tag.kind == kTagArrival) {
      sim.schedule_at(sim.now(), {kTagNodeFail});
    } else {
      when = sim.now();
    }
  });
  ASSERT_TRUE(sim.register_sink(kTagArrival, &sink));
  ASSERT_TRUE(sim.register_sink(kTagNodeFail, &sink));
  sim.schedule_at(3.0, {kTagArrival});
  sim.run_all();
  EXPECT_DOUBLE_EQ(when, 3.0);
}

// The post-dispatch sink runs once after each event, whatever its kind.
TEST(Simulator, PostDispatchSinkRunsAfterEveryEvent) {
  Simulator sim;
  std::vector<int> order;
  FnSink sink([&](const EventTag& tag) {
    order.push_back(static_cast<int>(tag.a));
  });
  class Flush : public EventSink {
   public:
    explicit Flush(std::vector<int>* order) : order_(order) {}
    void on_event(const EventTag&) override {}
    void after_dispatch() override { order_->push_back(0); }

   private:
    std::vector<int>* order_;
  } flush(&order);
  ASSERT_TRUE(sim.register_sink(kTagArrival, &sink));
  ASSERT_TRUE(sim.register_sink(kTagJobFinish, &sink));
  sim.set_post_dispatch(&flush);
  sim.schedule_at(1.0, {kTagArrival, 1});
  sim.schedule_at(1.0, {kTagJobFinish, 2});
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 0}));
}

}  // namespace
}  // namespace coda::simcore
