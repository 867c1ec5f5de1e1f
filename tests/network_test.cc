#include "src/cluster/network.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/simcore/audit.h"
#include "src/simcore/simulation.h"

namespace monosim {
namespace {

using monoutil::Bytes;

TEST(NetworkFabricTest, SingleFlowRunsAtLinkRate) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, /*nic_bandwidth=*/monoutil::BytesPerSecond(100.0));
  double done_at = -1.0;
  fabric.StartFlow(0, 1, Bytes(200), [&] { done_at = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(NetworkFabricTest, TwoFlowsToSameReceiverShareIngress) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  int finished = 0;
  fabric.StartFlow(0, 2, Bytes(100), [&] { ++finished; });
  fabric.StartFlow(1, 2, Bytes(100), [&] { ++finished; });
  sim.Run();
  EXPECT_EQ(finished, 2);
  EXPECT_NEAR(sim.now().seconds(), 2.0, 1e-9);  // Each got 50 B/s.
}

TEST(NetworkFabricTest, TwoFlowsFromSameSenderShareEgress) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  int finished = 0;
  fabric.StartFlow(0, 1, Bytes(100), [&] { ++finished; });
  fabric.StartFlow(0, 2, Bytes(100), [&] { ++finished; });
  sim.Run();
  EXPECT_EQ(finished, 2);
  EXPECT_NEAR(sim.now().seconds(), 2.0, 1e-9);
}

TEST(NetworkFabricTest, DisjointFlowsDoNotInterfere) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  int finished = 0;
  fabric.StartFlow(0, 1, Bytes(100), [&] { ++finished; });
  fabric.StartFlow(2, 3, Bytes(100), [&] { ++finished; });
  sim.Run();
  EXPECT_EQ(finished, 2);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-9);
}

TEST(NetworkFabricTest, StrandedCapacityIsRedistributedMaxMinFairly) {
  // The asymmetric fan-in shape the legacy min-of-shares model got wrong. Flows
  // m0->m1, m0->m1, m0->m2 are bottlenecked at m0's egress (100/3 each); flow
  // m4->m2 then deserves everything m2's ingress has left: 100 - 100/3 = 200/3.
  // The legacy model handed it min(100/1 egress, 100/2 ingress) = 50, stranding
  // 100/6 of m2's ingress capacity, so its 200 bytes took 4 s instead of 3 s.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 5, monoutil::BytesPerSecond(100.0));
  double done_at = -1.0;
  fabric.StartFlow(0, 1, Bytes(1000), [] {});
  fabric.StartFlow(0, 1, Bytes(1000), [] {});
  fabric.StartFlow(0, 2, Bytes(1000), [] {});
  const NetworkFabricSim::FlowId fan_in = fabric.StartFlow(4, 2, Bytes(200), [&] {
    done_at = sim.now().seconds();
  });
  EXPECT_NEAR(fabric.flow_rate(fan_in).bps(), 200.0 / 3.0, 1e-6);
  sim.Run();
  EXPECT_NEAR(done_at, 3.0, 1e-6);
}

TEST(NetworkFabricTest, StrandedEgressCapacityIsRedistributedToo) {
  // Mirror image of the fan-in case: m0's ingress is the shared bottleneck
  // (three flows at 100/3), so flow m2->m4 gets the rest of m2's egress
  // (100 - 100/3 = 200/3), not the legacy equal egress split of 50.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 5, monoutil::BytesPerSecond(100.0));
  fabric.StartFlow(1, 0, Bytes(1000), [] {});
  fabric.StartFlow(1, 0, Bytes(1000), [] {});
  fabric.StartFlow(2, 0, Bytes(1000), [] {});
  const NetworkFabricSim::FlowId fan_out = fabric.StartFlow(2, 4, Bytes(200), [] {});
  EXPECT_NEAR(fabric.flow_rate(fan_out).bps(), 200.0 / 3.0, 1e-6);
  sim.Run();
}

TEST(NetworkFabricTest, CascadedRedistributionBottomsOutEveryFlow) {
  // Two levels of filling: e0 saturates first (A,B,C at 30); the freed ingress
  // capacity at m2 then lets D rise until e3/i4 saturate, dragging E and F with
  // it. Every flow ends pinned to a saturated NIC side.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 6, monoutil::BytesPerSecond(90.0));
  const auto a = fabric.StartFlow(0, 1, Bytes(1000), [] {});
  const auto b = fabric.StartFlow(0, 1, Bytes(1000), [] {});
  const auto c = fabric.StartFlow(0, 2, Bytes(1000), [] {});
  const auto d = fabric.StartFlow(3, 2, Bytes(1000), [] {});
  const auto e = fabric.StartFlow(3, 4, Bytes(1000), [] {});
  const auto f = fabric.StartFlow(5, 4, Bytes(1000), [] {});
  EXPECT_NEAR(fabric.flow_rate(a).bps(), 30.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(b).bps(), 30.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(c).bps(), 30.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(d).bps(), 45.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(e).bps(), 45.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(f).bps(), 45.0, 1e-9);
  sim.Run();
}

TEST(NetworkFabricTest, FabricChurnKeepsEventQueueCompact) {
  // Max-min recomputation cancels and reschedules completion events on every flow
  // set change; the simulation's tombstone compaction must keep the queue bounded
  // by the live event count, not the cancellation count.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 8, monoutil::BytesPerSecond(100.0));
  constexpr int kLanes = 64;
  constexpr int kFlowsPerLane = 50;
  size_t max_queue = 0;
  int completed = 0;
  std::function<void(int, int)> launch = [&](int lane, int remaining) {
    if (remaining == 0) {
      return;
    }
    const int src = lane % 8;
    int dst = (lane * 3 + 1) % 8;
    if (dst == src) {
      dst = (dst + 1) % 8;
    }
    fabric.StartFlow(src, dst, Bytes(64 + lane), [&, lane, remaining] {
      ++completed;
      max_queue = std::max(max_queue, sim.queue_size());
      launch(lane, remaining - 1);
    });
  };
  for (int lane = 0; lane < kLanes; ++lane) {
    launch(lane, kFlowsPerLane);
  }
  sim.Run();
  EXPECT_EQ(completed, kLanes * kFlowsPerLane);
  // At most kLanes live completion events exist at once; compaction bounds the
  // queue to twice the live count plus the compaction floor.
  EXPECT_LE(max_queue, 2 * kLanes + Simulation::kCompactionMinQueueSize);
}

// A departure on a saturated side is absorbed by the local patch only when
// every other flow there has a strictly smaller share. A flow tied at the top
// share must trigger a solve, or its tie partner would never rise into the
// freed capacity — whether the departing flow's id is below or above the
// partner's. Two flows out of machine 0 split its egress 50/50; the short one
// finishes at t=2, and the long one must then run at 100 B/s (done at t=3),
// not stay at 50 B/s (t=4).
void ExpectTiedTopShareDepartureIsNotPatched(bool departing_has_lower_id) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 3, monoutil::BytesPerSecond(100.0));
  uint64_t patched_at_departure = ~uint64_t{0};
  double long_done_at = -1.0;
  const auto start_short = [&] {
    return fabric.StartFlow(0, 1, Bytes(100), [&] {
      patched_at_departure = fabric.solver_stats().patched_departures;
    });
  };
  const auto start_long = [&] {
    return fabric.StartFlow(0, 2, Bytes(200), [&] { long_done_at = sim.now().seconds(); });
  };
  NetworkFabricSim::FlowId short_id;
  NetworkFabricSim::FlowId long_id;
  if (departing_has_lower_id) {
    short_id = start_short();
    long_id = start_long();
  } else {
    long_id = start_long();
    short_id = start_short();
  }
  EXPECT_EQ(departing_has_lower_id, short_id < long_id);
  ASSERT_EQ(fabric.flow_rate(short_id), fabric.flow_rate(long_id));  // An exact tie.
  sim.Run();
  EXPECT_EQ(patched_at_departure, 0u);
  EXPECT_NEAR(long_done_at, 3.0, 1e-9);
}

TEST(NetworkFabricTest, TiedTopShareDepartureWithLowerIdIsNotPatched) {
  ExpectTiedTopShareDepartureIsNotPatched(/*departing_has_lower_id=*/true);
}

TEST(NetworkFabricTest, TiedTopShareDepartureWithHigherIdIsNotPatched) {
  ExpectTiedTopShareDepartureIsNotPatched(/*departing_has_lower_id=*/false);
}

TEST(NetworkFabricTest, SoleFlowDepartureIsPatched) {
  // A flow alone on its (saturated) sides leaves nobody bottlenecked behind it,
  // so its departure needs no solve. An unrelated flow keeps the fabric busy.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  fabric.StartFlow(2, 3, Bytes(1000), [] {});
  uint64_t patched_at_departure = 0;
  uint64_t batched_at_departure = ~uint64_t{0};
  const auto sole = fabric.StartFlow(0, 1, Bytes(100), [&] {
    patched_at_departure = fabric.solver_stats().patched_departures;
    batched_at_departure = fabric.solver_stats().batched_changes;
  });
  EXPECT_EQ(fabric.flow_rate(sole), monoutil::BytesPerSecond(100.0));
  sim.Run();
  EXPECT_EQ(patched_at_departure, 1u);
  EXPECT_EQ(batched_at_departure, 0u);
}

TEST(NetworkFabricTest, ArrivalBelowASaturatedSidesTopShareFallsBackToASolve) {
  // Flows 2->1, 2->3, 2->4 split machine 2's egress at 100/3, so 0->1 takes the
  // rest of machine 1's ingress: 200/3, leaving 100/3 of machine 0's egress
  // free. A new flow 0->5 fits that free capacity, but would saturate machine
  // 0's egress below 0->1's larger share; max-min instead levels both at 50,
  // so the arrival must not be patched in at 100/3.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 6, monoutil::BytesPerSecond(100.0));
  const auto big = fabric.StartFlow(0, 1, Bytes(1000), [] {});
  fabric.StartFlow(2, 1, Bytes(1000), [] {});
  fabric.StartFlow(2, 3, Bytes(1000), [] {});
  fabric.StartFlow(2, 4, Bytes(1000), [] {});
  ASSERT_NEAR(fabric.flow_rate(big).bps(), 200.0 / 3.0, 1e-9);
  const uint64_t patched_before = fabric.solver_stats().patched_arrivals;
  const auto arrival = fabric.StartFlow(0, 5, Bytes(1000), [] {});
  EXPECT_EQ(fabric.solver_stats().patched_arrivals, patched_before);
  EXPECT_NEAR(fabric.flow_rate(arrival).bps(), 50.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(big).bps(), 50.0, 1e-9);
  sim.Run();
}

TEST(NetworkFabricTest, BatchedArrivalsResolveOnlyTheirOwnComponent) {
  // Two disjoint components: A on machines 0-2, B on machines 3-5. Same-epoch
  // arrivals in A must re-solve A's closure alone — B is neither touched nor
  // perturbed in the last bit. The first flush only solves B, so no closure
  // ever spans every live flow and the flush takes the collected-closure path.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 6, monoutil::BytesPerSecond(100.0));
  const auto a0 = fabric.StartFlow(0, 1, Bytes(1000), [] {});  // Patched in at 100.
  const auto b0 = fabric.StartFlow(3, 4, Bytes(1000), [] {});  // Patched in at 100.
  const auto b1 = fabric.StartFlow(3, 5, Bytes(1000), [] {});  // Saturated egress: solve.
  const monoutil::BytesPerSecond b0_rate = fabric.flow_rate(b0);
  const monoutil::BytesPerSecond b1_rate = fabric.flow_rate(b1);
  EXPECT_NEAR(b0_rate.bps(), 50.0, 1e-9);
  EXPECT_NEAR(b1_rate.bps(), 50.0, 1e-9);
  const NetworkFabricSim::SolverStats before = fabric.solver_stats();
  EXPECT_EQ(before.flows_touched, 2u);

  const auto a1 = fabric.StartFlow(0, 2, Bytes(1000), [] {});
  const auto a2 = fabric.StartFlow(2, 1, Bytes(1000), [] {});
  EXPECT_NEAR(fabric.flow_rate(a0).bps(), 50.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(a1).bps(), 50.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(a2).bps(), 50.0, 1e-9);
  const NetworkFabricSim::SolverStats after = fabric.solver_stats();
  EXPECT_EQ(after.solves, before.solves + 1);
  EXPECT_EQ(after.epochs_flushed, before.epochs_flushed + 1);
  EXPECT_EQ(after.flows_touched, before.flows_touched + 3);  // A's size only.
  EXPECT_EQ(fabric.flow_rate(b0), b0_rate);
  EXPECT_EQ(fabric.flow_rate(b1), b1_rate);
  sim.Run();
}

TEST(NetworkFabricTest, StaggeredFlowsOfOnePairCompleteInFinishTagOrder) {
  // Three flows of pair 0->1 share its 100 B/s: A (300 B) at t=0, B (100 B) at
  // t=1, C (30 B) at t=2. The pair's clock (bytes served per flow) reads 100
  // at t=1 and 150 at t=2, so the finish tags are A 300, B 200, C 180. C ends
  // when the clock gains 30 B at 100/3 B/s (t=2.9), B after 20 more at 50 B/s
  // (t=3.3), and A after its last 100 B alone (t=4.3): tag order, which is
  // neither id nor arrival order.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 2, monoutil::BytesPerSecond(100.0));
  std::vector<std::pair<char, double>> done;
  const auto start = [&](char name, int64_t bytes) {
    fabric.StartFlow(0, 1, Bytes(bytes), [&, name] { done.emplace_back(name, sim.now().seconds()); });
  };
  start('A', 300);
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] { start('B', 100); });
  sim.ScheduleAt(monoutil::Seconds(2.0), [&] { start('C', 30); });
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 'C');
  EXPECT_NEAR(done[0].second, 2.9, 1e-9);
  EXPECT_EQ(done[1].first, 'B');
  EXPECT_NEAR(done[1].second, 3.3, 1e-9);
  EXPECT_EQ(done[2].first, 'A');
  EXPECT_NEAR(done[2].second, 4.3, 1e-9);
}

TEST(NetworkFabricTest, DepartureFromAMultiFlowPairIsNeverPatchedAndClassmatesRise) {
  // Two flows of pair 0->1 split its 100 B/s. When the short one leaves, its
  // classmate tied at the same share must rise to the full 100 B/s, so the
  // departure is batched into a solve, never patched.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 2, monoutil::BytesPerSecond(100.0));
  uint64_t patched_at_departure = ~uint64_t{0};
  uint64_t batched_before = 0;
  uint64_t batched_at_departure = 0;
  double long_done_at = -1.0;
  fabric.StartFlow(0, 1, Bytes(100), [&] {
    patched_at_departure = fabric.solver_stats().patched_departures;
    batched_at_departure = fabric.solver_stats().batched_changes;
  });
  const auto survivor =
      fabric.StartFlow(0, 1, Bytes(300), [&] { long_done_at = sim.now().seconds(); });
  EXPECT_EQ(fabric.flow_rate(survivor), monoutil::BytesPerSecond(50.0));
  batched_before = fabric.solver_stats().batched_changes;
  sim.ScheduleAt(monoutil::Seconds(2.5), [&] {
    EXPECT_EQ(fabric.flow_rate(survivor), monoutil::BytesPerSecond(100.0));
  });
  sim.Run();
  EXPECT_EQ(patched_at_departure, 0u);
  EXPECT_EQ(batched_at_departure, batched_before + 1);
  EXPECT_NEAR(long_done_at, 4.0, 1e-9);  // 100 B by t=2, then 200 B at 100 B/s.
}

TEST(NetworkFabricTest, ClassmatesReportEqualRatesAfterEveryFlush) {
  // Flows of one (src, dst) pair form one class with one rate: after every
  // event (each query flushes pending epoch work first), all live flows of a
  // pair report bit-identical rates, whatever their sizes and arrival times.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  monoutil::Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const int src = static_cast<int>(rng.NextBelow(2));
    const int dst = 2 + static_cast<int>(rng.NextBelow(2));
    const auto bytes = Bytes(static_cast<int64_t>(1 + rng.NextBelow(300)));
    sim.ScheduleAt(monoutil::Seconds(rng.Uniform(0.0, 4.0)),
                   [&fabric, src, dst, bytes] { fabric.StartFlow(src, dst, bytes, [] {}); });
  }
  size_t shared_checks = 0;
  while (sim.Step()) {
    std::map<std::pair<int, int>, monoutil::BytesPerSecond> pair_rate;
    for (const NetworkFabricSim::FlowInfo& info : fabric.ActiveFlows()) {
      const auto [it, fresh] = pair_rate.emplace(std::make_pair(info.src, info.dst), info.rate);
      EXPECT_EQ(it->second, info.rate) << "flow " << info.id << " at t=" << sim.now();
      shared_checks += fresh ? 0 : 1;
    }
  }
  EXPECT_GT(shared_checks, 0u) << "no pair ever carried two flows at once";
}

TEST(NetworkFabricTest, FlowRateIsMinOfEndpointShares) {
  // Receiver 3 carries two flows (shares: 50 each); sender 0 carries the 0->3 flow
  // plus another egress flow, so 0->3 also gets 50 from the sender side. Flow 1->3
  // is receiver-limited at 50 even though its sender is idle otherwise.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  double flow_1_3_done = -1.0;
  fabric.StartFlow(0, 3, Bytes(1000), [] {});
  fabric.StartFlow(0, 2, Bytes(1000), [] {});
  fabric.StartFlow(1, 3, Bytes(100), [&] { flow_1_3_done = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(flow_1_3_done, 2.0, 1e-6);
}

TEST(NetworkFabricTest, CompletionFreesBandwidthForRemainingFlows) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  double small_done = -1.0;
  double large_done = -1.0;
  fabric.StartFlow(0, 2, Bytes(50), [&] { small_done = sim.now().seconds(); });
  fabric.StartFlow(1, 2, Bytes(150), [&] { large_done = sim.now().seconds(); });
  sim.Run();
  // Both at 50 B/s; small finishes at t=1 (50 B). Large has 100 B left, now alone at
  // 100 B/s -> finishes at t=2.
  EXPECT_NEAR(small_done, 1.0, 1e-9);
  EXPECT_NEAR(large_done, 2.0, 1e-9);
}

TEST(NetworkFabricTest, ZeroByteFlowCompletes) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 2, monoutil::BytesPerSecond(100.0));
  bool done = false;
  fabric.StartFlow(0, 1, Bytes(0), [&] { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(NetworkFabricTest, ControlMessageTakesRequestLatency) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 2, monoutil::BytesPerSecond(100.0),
                          /*request_latency=*/monoutil::Seconds(0.25));
  double delivered_at = -1.0;
  fabric.SendControl(0, 1, [&] { delivered_at = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(delivered_at, 0.25, 1e-12);
}

TEST(NetworkFabricTest, TracksTotalBytes) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 3, monoutil::BytesPerSecond(100.0));
  fabric.StartFlow(0, 1, Bytes(100), [] {});
  fabric.StartFlow(1, 2, Bytes(300), [] {});
  sim.Run();
  EXPECT_EQ(fabric.total_bytes_transferred(), Bytes(400));
}

TEST(NetworkFabricTest, IngressTraceMeasuresUtilization) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 2, monoutil::BytesPerSecond(100.0));
  fabric.EnableTrace();
  fabric.StartFlow(0, 1, Bytes(100), [] {});  // Saturates machine 1's ingress for 1s.
  sim.Run();
  sim.ScheduleAt(monoutil::Seconds(2.0), [] {});
  sim.Run();
  EXPECT_NEAR(fabric.MeanIngressUtilization(1, monoutil::Seconds(0.0), monoutil::Seconds(1.0)), 1.0, 1e-9);
  EXPECT_NEAR(fabric.MeanIngressUtilization(1, monoutil::Seconds(0.0), monoutil::Seconds(2.0)), 0.5, 1e-9);
  EXPECT_NEAR(fabric.MeanIngressUtilization(0, monoutil::Seconds(0.0), monoutil::Seconds(2.0)), 0.0, 1e-9);
}

TEST(NetworkFabricTest, FlowCountsTrackActiveFlows) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 3, monoutil::BytesPerSecond(100.0));
  fabric.StartFlow(0, 1, Bytes(100), [] {});
  fabric.StartFlow(2, 1, Bytes(100), [] {});
  EXPECT_EQ(fabric.ingress_flows(1), 2);
  EXPECT_EQ(fabric.egress_flows(0), 1);
  sim.Run();
  EXPECT_EQ(fabric.ingress_flows(1), 0);
  EXPECT_EQ(fabric.egress_flows(0), 0);
}

TEST(NetworkFabricTest, AllToAllShuffleIsSymmetric) {
  // 4 machines, everyone sends 300 B to everyone else. Each NIC carries 3 ingress
  // flows of 300 B at 100/3 B/s -> 9 s total.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  int finished = 0;
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src != dst) {
        fabric.StartFlow(src, dst, Bytes(300), [&] { ++finished; });
      }
    }
  }
  sim.Run();
  EXPECT_EQ(finished, 12);
  EXPECT_NEAR(sim.now().seconds(), 9.0, 1e-6);
}

}  // namespace
}  // namespace monosim
