#include "src/simcore/fluid_server.h"

#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/simcore/simulation.h"

namespace monosim {
namespace {

TEST(FluidServerTest, SingleRequestTakesAmountOverCapacity) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  double done_at = -1.0;
  server.Submit(250.0, [&] { done_at = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(done_at, 2.5, 1e-9);
}

TEST(FluidServerTest, ZeroAmountCompletesImmediately) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  double done_at = -1.0;
  server.Submit(0.0, [&] { done_at = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(done_at, 0.0, 1e-12);
}

TEST(FluidServerTest, TwoEqualRequestsShareCapacity) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  double first = -1.0;
  double second = -1.0;
  server.Submit(100.0, [&] { first = sim.now().seconds(); });
  server.Submit(100.0, [&] { second = sim.now().seconds(); });
  sim.Run();
  // Each gets 50 units/s; both finish at t=2.
  EXPECT_NEAR(first, 2.0, 1e-9);
  EXPECT_NEAR(second, 2.0, 1e-9);
}

TEST(FluidServerTest, LateArrivalSlowsExistingRequest) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  double first = -1.0;
  double second = -1.0;
  server.Submit(100.0, [&] { first = sim.now().seconds(); });
  sim.ScheduleAt(monoutil::Seconds(0.5), [&] { server.Submit(100.0, [&] { second = sim.now().seconds(); }); });
  sim.Run();
  // First does 50 units alone in 0.5s, then shares: 50 more at 50/s -> finishes at 1.5.
  EXPECT_NEAR(first, 1.5, 1e-9);
  // Second: 50 of its 100 by t=1.5, then full rate -> 0.5s more.
  EXPECT_NEAR(second, 2.0, 1e-9);
}

TEST(FluidServerTest, PerRequestCapLimitsLoneRequest) {
  Simulation sim;
  // A 4-core CPU pool: a single-threaded task cannot exceed 1 core.
  FluidServer server(&sim, "cpu", ConstantCapacity(4.0), /*per_request_cap=*/1.0);
  double done_at = -1.0;
  server.Submit(2.0, [&] { done_at = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(FluidServerTest, CpuPoolRunsUpToCoresAtFullSpeed) {
  Simulation sim;
  FluidServer server(&sim, "cpu", ConstantCapacity(4.0), /*per_request_cap=*/1.0);
  int finished = 0;
  for (int i = 0; i < 4; ++i) {
    server.Submit(1.0, [&] { ++finished; });
  }
  sim.Run();
  EXPECT_EQ(finished, 4);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-9);
}

TEST(FluidServerTest, CpuPoolOversubscriptionSharesCores) {
  Simulation sim;
  FluidServer server(&sim, "cpu", ConstantCapacity(4.0), /*per_request_cap=*/1.0);
  int finished = 0;
  for (int i = 0; i < 8; ++i) {
    server.Submit(1.0, [&] { ++finished; });
  }
  sim.Run();
  // 8 single-core requests on 4 cores: each runs at 0.5 cores.
  EXPECT_EQ(finished, 8);
  EXPECT_NEAR(sim.now().seconds(), 2.0, 1e-9);
}

TEST(FluidServerTest, WeightedRequestsShareInProportion) {
  // Weights {1, 3} on a 100-unit/s server: rates must split 25/75. Amounts sized
  // to the shares make both requests finish at exactly t=1 — only a true 1:3 rate
  // split produces the simultaneous finish (the historical equal split served 50
  // each, finishing the small request at t=0.5).
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  double light = -1.0;
  double heavy = -1.0;
  server.Submit(25.0, [&] { light = sim.now().seconds(); }, /*weight=*/1.0);
  server.Submit(75.0, [&] { heavy = sim.now().seconds(); }, /*weight=*/3.0);
  sim.Run();
  EXPECT_NEAR(light, 1.0, 1e-9);
  EXPECT_NEAR(heavy, 1.0, 1e-9);
}

TEST(FluidServerTest, HeavierWeightFinishesEqualWorkFirst) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  double light = -1.0;
  double heavy = -1.0;
  server.Submit(100.0, [&] { light = sim.now().seconds(); }, /*weight=*/1.0);
  server.Submit(100.0, [&] { heavy = sim.now().seconds(); }, /*weight=*/3.0);
  sim.Run();
  // Heavy runs at 75 and finishes at 4/3; light then takes the whole server:
  // 100 - 25 * 4/3 = 200/3 units left at 100/s -> finishes at 2.
  EXPECT_NEAR(heavy, 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(light, 2.0, 1e-9);
}

TEST(FluidServerTest, WeightedShareRedistributesCappedSurplus) {
  // Capacity 1.5, per-request cap 1, weights {3, 1}: the heavy request's
  // proportional share (1.125) hits the cap, and the surplus goes to the light
  // one (0.5) instead of being wasted.
  Simulation sim;
  FluidServer server(&sim, "cpu", ConstantCapacity(1.5), /*per_request_cap=*/1.0);
  double light = -1.0;
  double heavy = -1.0;
  server.Submit(1.0, [&] { heavy = sim.now().seconds(); }, /*weight=*/3.0);
  server.Submit(1.0, [&] { light = sim.now().seconds(); }, /*weight=*/1.0);
  sim.Run();
  EXPECT_NEAR(heavy, 1.0, 1e-9);
  // Light: 0.5 units by t=1, then alone at the cap -> 0.5 s more.
  EXPECT_NEAR(light, 1.5, 1e-9);
}

TEST(FluidServerTest, ShareWeightOverridesContentionWeight) {
  // An HDD-style capacity function sees the contention weights (1 + 3 = 4 ->
  // capacity 25), but the explicit share weights split that capacity equally.
  Simulation sim;
  FluidServer server(&sim, "hdd", HddCapacity(100.0, 1.0));
  double first = -1.0;
  double second = -1.0;
  server.Submit(25.0, [&] { first = sim.now().seconds(); }, /*weight=*/1.0, /*share_weight=*/1.0);
  server.Submit(25.0, [&] { second = sim.now().seconds(); }, /*weight=*/3.0, /*share_weight=*/1.0);
  sim.Run();
  // capacity(4) = 25, split 12.5/12.5: both finish at t=2. With share weights
  // following the contention weights the second would finish at 25/18.75 ≈ 1.33.
  EXPECT_NEAR(first, 2.0, 1e-9);
  EXPECT_NEAR(second, 2.0, 1e-9);
}

TEST(FluidServerTest, CancelRecordsTracePointEvenWhenRateUnchanged) {
  // Four single-core requests on a 2-core pool: total rate is 2 before and after
  // one of them is cancelled, so the old equal-rate dedup would silently drop the
  // cancel from the trace. The active-set change must stay observable.
  Simulation sim;
  FluidServer server(&sim, "cpu", ConstantCapacity(2.0), /*per_request_cap=*/1.0);
  server.EnableTrace();
  std::vector<FluidServer::RequestId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(server.Submit(10.0, [] {}));
  }
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] { server.CancelRequest(ids[0]); });
  sim.Run();
  bool cancel_point_recorded = false;
  for (const auto& point : server.rate_trace().points()) {
    if (point.time == monoutil::Seconds(1.0)) {
      cancel_point_recorded = true;
      EXPECT_NEAR(point.rate, 2.0, 1e-9);  // Unchanged total — the dedup trap.
    }
  }
  EXPECT_TRUE(cancel_point_recorded);
}

TEST(FluidServerTest, HddCapacityDegradesWithConcurrency) {
  CapacityFn capacity = HddCapacity(100.0, 1.0);
  EXPECT_DOUBLE_EQ(capacity(1), 100.0);
  EXPECT_DOUBLE_EQ(capacity(2), 50.0);
  EXPECT_DOUBLE_EQ(capacity(5), 20.0);
}

TEST(FluidServerTest, HddConcurrentRequestsSlowerThanSequential) {
  // Two 100-unit requests on an HDD with alpha=1: concurrent total capacity is 50,
  // so both finish at t=4; run back-to-back they would finish at t=2.
  Simulation sim;
  FluidServer server(&sim, "hdd", HddCapacity(100.0, 1.0));
  double last = -1.0;
  server.Submit(100.0, [&] { last = sim.now().seconds(); });
  server.Submit(100.0, [&] { last = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(last, 4.0, 1e-9);
}

TEST(FluidServerTest, SsdRampReachesPeakAtChannels) {
  CapacityFn capacity = SsdCapacity(400.0, 4, 0.55);
  EXPECT_NEAR(capacity(1), 400.0 * 0.55, 1e-9);
  EXPECT_NEAR(capacity(4), 400.0, 1e-9);
  EXPECT_NEAR(capacity(8), 400.0, 1e-9);  // No benefit beyond the channel count.
  EXPECT_GT(capacity(2), capacity(1));
  EXPECT_GT(capacity(3), capacity(2));
}

TEST(FluidServerTest, SsdSingleChannelIsConstant) {
  CapacityFn capacity = SsdCapacity(400.0, 1, 0.55);
  EXPECT_NEAR(capacity(1), 400.0, 1e-9);
  EXPECT_NEAR(capacity(3), 400.0, 1e-9);
}

TEST(FluidServerTest, CancelReturnsRemainingWork) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  bool done = false;
  auto id = server.Submit(100.0, [&] { done = true; });
  sim.ScheduleAt(monoutil::Seconds(0.25), [&] {
    const double remaining = server.CancelRequest(id);
    EXPECT_NEAR(remaining, 75.0, 1e-9);
  });
  sim.Run();
  EXPECT_FALSE(done);
  EXPECT_EQ(server.active(), 0);
}

TEST(FluidServerTest, TotalServedIntegratesWork) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  server.Submit(100.0, [] {});
  server.Submit(50.0, [] {});
  sim.Run();
  EXPECT_NEAR(server.total_served(), 150.0, 1e-6);
}

TEST(FluidServerTest, ServedWorkConservesSubmittedWorkUnderChurn) {
  // Regression for the served_ accounting drift: AdvanceProgress used to credit
  // rate*dt unclamped while total_served() clamped with min(remaining, rate*dt),
  // so a completion event firing a rounding error past a request's finish time
  // overcounted. Drive many irregular amounts through an HDD-style (nonlinear)
  // capacity with staggered arrivals and cancels, then check served work equals
  // submitted work minus work returned by cancels — and never exceeds it.
  Simulation sim;
  FluidServer server(&sim, "disk", HddCapacity(97.0, 0.35));
  double submitted = 0.0;
  double returned = 0.0;
  std::map<int, FluidServer::RequestId> live_cancellable;  // keyed by arrival index
  for (int i = 0; i < 200; ++i) {
    const double amount = 1.0 + 0.37 * i + (i % 7) * 0.013;
    submitted += amount;
    const double at = 0.05 * i;
    sim.ScheduleAt(monoutil::Seconds(at), [&server, &live_cancellable, amount, i] {
      if (i % 9 != 0) {
        server.Submit(amount, [] {});
        return;
      }
      // Done callbacks only fire from later events, so the map insert below
      // always happens before a completion can erase it.
      const auto id =
          server.Submit(amount, [&live_cancellable, i] { live_cancellable.erase(i); });
      live_cancellable[i] = id;
    });
  }
  sim.ScheduleAt(monoutil::Seconds(3.3), [&] {
    const std::map<int, FluidServer::RequestId> to_cancel = live_cancellable;
    for (const auto& [i, id] : to_cancel) {
      returned += server.CancelRequest(id);
      live_cancellable.erase(i);
    }
  });
  sim.Run();
  EXPECT_EQ(server.active(), 0);
  const double expected = submitted - returned;
  EXPECT_NEAR(server.total_served(), expected, 1e-6 * expected);
  EXPECT_LE(server.total_served(), expected * (1.0 + 1e-9));
}

TEST(FluidServerTest, UtilizationTraceMeasuresBusyFraction) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  server.EnableTrace();
  server.Submit(100.0, [] {});  // Busy during [0, 1].
  sim.Run();
  sim.ScheduleAt(monoutil::Seconds(2.0), [] {});  // Idle during [1, 2].
  sim.Run();
  EXPECT_NEAR(server.MeanUtilization(monoutil::Seconds(0.0), monoutil::Seconds(1.0)), 1.0, 1e-9);
  EXPECT_NEAR(server.MeanUtilization(monoutil::Seconds(0.0), monoutil::Seconds(2.0)), 0.5, 1e-9);
}

TEST(FluidServerTest, DoneCallbackCanResubmit) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  double second_done = -1.0;
  server.Submit(100.0, [&] {
    server.Submit(100.0, [&] { second_done = sim.now().seconds(); });
  });
  sim.Run();
  EXPECT_NEAR(second_done, 2.0, 1e-9);
}

TEST(FluidServerTest, ManyRequestsAllComplete) {
  Simulation sim;
  FluidServer server(&sim, "disk", HddCapacity(100.0, 0.15));
  int finished = 0;
  for (int i = 0; i < 64; ++i) {
    server.Submit(10.0 + i, [&] { ++finished; });
  }
  sim.Run();
  EXPECT_EQ(finished, 64);
  EXPECT_EQ(server.active(), 0);
}

TEST(FluidServerTest, UnchangedRateLeavesClockAndTimerAlone) {
  // Eight single-core requests on an 8-core pool all run at the one-core cap,
  // so admitting the 2nd..8th changes no rate, and each newcomer finishes
  // after the head, so the completion event stays where it is. Only the
  // class opening (rate 0 -> 1) and the head moving after each completion
  // touch the clock or the timer.
  Simulation sim;
  FluidServer cpu(&sim, "cpu", ConstantCapacity(8.0), /*per_request_cap=*/1.0);
  for (int i = 0; i < 8; ++i) {
    cpu.Submit(1.0 + i, [] {});
  }
  EXPECT_EQ(cpu.stats().rate_changes, 1u);
  EXPECT_EQ(cpu.stats().timer_rearms, 1u);
  sim.Run();
  EXPECT_NEAR(sim.now().seconds(), 8.0, 1e-9);
  EXPECT_EQ(cpu.stats().completions, 8u);
  EXPECT_EQ(cpu.stats().rate_changes, 1u);
  EXPECT_EQ(cpu.stats().timer_rearms, 8u);  // The first arm, then one per new head.

  // A ninth concurrent request oversubscribes the pool: every rate drops to
  // 8/9 core, one change for the whole class.
  for (int i = 0; i < 9; ++i) {
    cpu.Submit(1.0, [] {});
  }
  EXPECT_EQ(cpu.stats().rate_changes, 3u);  // Reopened at 1 core, then 8/9 at the ninth.
  sim.Run();
  EXPECT_NEAR(sim.now().seconds(), 8.0 + 9.0 / 8.0, 1e-9);
  EXPECT_EQ(cpu.stats().completions, 17u);
}

TEST(FluidServerDeathTest, RejectsInfiniteAmount) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  EXPECT_DEATH(server.Submit(std::numeric_limits<double>::infinity(), [] {}),
               "amount must be finite");
}

TEST(FluidServerDeathTest, RejectsNanAmount) {
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  EXPECT_DEATH(server.Submit(std::numeric_limits<double>::quiet_NaN(), [] {}),
               "amount must be finite");
}

TEST(FluidServerDeathTest, RejectsInfiniteContentionWeight) {
  Simulation sim;
  FluidServer server(&sim, "disk", HddCapacity(100.0, 0.3));
  EXPECT_DEATH(server.Submit(10.0, [] {}, std::numeric_limits<double>::infinity(), 1.0),
               "contention weight must be finite");
}

}  // namespace
}  // namespace monosim
