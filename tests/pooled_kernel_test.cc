// Regression tests for the pooled event kernel (slab-allocated records,
// inline callbacks, generation-checked handles, two-level queue).
//
// Three layers of coverage:
//
//  * Digest oracles. The kernel rewrite must not change any schedule: these
//    scenarios were run against the pre-change kernel (std::function events,
//    shared_ptr handles, single binary heap) and their digests hardcoded.
//    Sort order, tombstone handling, epoch batching and fabric churn all feed
//    the digest, so a drifted constant means the rewrite changed observable
//    behaviour, not just its internals. The two fabric-driven oracles were
//    re-pinned once, for the pair-class fabric: progress moved from per-flow
//    byte counts to one virtual clock per (src, dst) pair, which shifts event
//    times in the last bits; their fired-event counts are unchanged. The sort
//    job was re-pinned once more when FluidServer moved onto the same
//    virtual-clock classes: its CPU and disk completions are predicted from a
//    class clock and its completion event is re-armed only when the earliest
//    completion moves, so event times shift in the last bits and fewer events
//    are scheduled (the sequence numbers the digest folds in move). Its
//    fired-event count is unchanged; the fabric burst, which runs no fluid
//    server, kept its digest.
//
//  * Steady-state allocation. The whole point of the pooled layout: once the
//    pools and queue vectors reach their high-water mark, schedule/fire/cancel
//    churn performs zero heap allocations. Checked with a global operator new
//    hook that counts only inside the measurement window.
//
//  * Handle generation safety. Handles hold (record, generation) into a
//    recycled pool: stale handles — after the event fired, after compaction
//    freed a tombstone, after the record was reused, and even after the whole
//    Simulation died — must degrade to inert, never touch another event.
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/network.h"
#include "src/common/rng.h"
#include "src/framework/environment.h"
#include "src/monotask/mono_executor.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"
#include "tests/alloc_hooks.h"

namespace monosim {
namespace {

using monoutil::MiB;

// ---------------------------------------------------------------------------
// Digest oracles (harvested from the pre-change kernel; see file comment).

TEST(PooledKernelDigest, ScheduleFireSweepMatchesPreChangeKernel) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 50000; ++i) {
    sim.ScheduleAt(monoutil::Seconds(static_cast<double>(i % 997)), [&fired] { ++fired; }, "sweep");
  }
  sim.Run();
  EXPECT_EQ(50000, fired);
  EXPECT_EQ(50000u, sim.fired_events());
  EXPECT_EQ(0x3937eade032d5542ull, sim.digest());
}

TEST(PooledKernelDigest, CancelChurnMatchesPreChangeKernel) {
  Simulation sim;
  EventHandle pending;
  int fired = 0;
  for (int i = 0; i < 20000; ++i) {
    pending.Cancel();
    pending = sim.ScheduleAt(monoutil::Seconds(1e6 + i), [] {}, "doomed");
    if (i % 3 == 0) {
      sim.ScheduleAt(monoutil::Seconds(static_cast<double>(i)), [&fired] { ++fired; }, "live");
    }
  }
  pending.Cancel();
  sim.Run();
  EXPECT_EQ(6667, fired);
  EXPECT_EQ(6667u, sim.fired_events());
  EXPECT_EQ(0x597d7f3fb11f0c88ull, sim.digest());
}

TEST(PooledKernelDigest, FabricBurstChurnMatchesPreChangeKernel) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 8, monoutil::BytesPerSecond(1e8));
  monoutil::Rng rng(21);
  int completed = 0;
  std::function<void(int)> relaunch = [&](int remaining) {
    if (remaining == 0) {
      return;
    }
    const int src = static_cast<int>(rng.NextBelow(8));
    int dst = static_cast<int>(rng.NextBelow(7));
    if (dst >= src) {
      ++dst;
    }
    const auto bytes = monoutil::Bytes(static_cast<int64_t>(1 + rng.NextBelow(1 << 16)));
    fabric.StartFlow(src, dst, bytes, [&, remaining] {
      ++completed;
      relaunch(remaining - 1);
    });
  };
  for (int burst = 0; burst < 6; ++burst) {
    sim.ScheduleAt(monoutil::Seconds(0.01 * burst), [&relaunch] {
      for (int i = 0; i < 8; ++i) {
        relaunch(4);
      }
    });
  }
  sim.Run();
  EXPECT_EQ(192, completed);
  EXPECT_EQ(198u, sim.fired_events());
  EXPECT_EQ(0xa38741ee395f797cull, sim.digest());
}

TEST(PooledKernelDigest, SortJobMatchesPreChangeKernel) {
  SimEnvironment env(monoload::SmallHddClusterConfig());
  monoload::SortParams params;
  params.total_bytes = MiB(256);
  params.values_per_key = 10;
  params.num_map_tasks = 8;
  params.num_reduce_tasks = 8;
  params.seed = 7;
  JobSpec job = monoload::MakeSortJob(&env.dfs(), params);
  MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&executor);
  env.driver().RunJob(std::move(job));
  EXPECT_EQ(181u, env.sim().fired_events());
  EXPECT_EQ(0x58a89bbbb81c5675ull, env.sim().digest());
}

// ---------------------------------------------------------------------------
// Steady-state allocation.

// A self-rescheduling event chain; [this] captures stay inline.
struct Chain {
  Simulation* sim;
  double period;
  int remaining;
  int* fired;

  void Arm() {
    if (remaining-- <= 0) {
      return;
    }
    sim->ScheduleAfter(monoutil::Seconds(period), [this] {
      ++*fired;
      Arm();
    }, "chain");
  }
};

// The fabric pattern: every tick cancels a far-future event and schedules a
// replacement, leaving a tombstone behind (exercising compaction), plus an
// oversize callback that cycles a CallbackArena block every tick.
struct Churner {
  Simulation* sim;
  EventHandle doomed;
  int remaining;
  int* fired;

  void Arm() {
    if (remaining-- <= 0) {
      return;
    }
    doomed.Cancel();
    doomed = sim->ScheduleAt(monoutil::Seconds(1e9 + remaining), [] {}, "doomed");
    char pad[64] = {1};  // Forces the outline (arena) callback path.
    sim->ScheduleAfter(monoutil::Seconds(0.25), [this, pad] {
      ++*fired;
      (void)pad;
      sim->AtEpochEnd([this] { ++*fired; });
      Arm();
    }, "churn");
  }
};

#if MONO_TEST_ALLOC_HOOKS
TEST(PooledKernelAlloc, SteadyStateScheduleFireCancelIsHeapFree) {
  Simulation sim;
  int fired = 0;
  std::vector<Chain> chains(8);
  for (size_t i = 0; i < chains.size(); ++i) {
    chains[i] = Chain{&sim, 0.1 + 0.01 * static_cast<double>(i), 1 << 20, &fired};
    chains[i].Arm();
  }
  Churner churner{&sim, {}, 1 << 20, &fired};
  churner.Arm();

  // Warmup: drive every pool, arena class and queue vector past the high-water
  // mark this workload will ever need. More warmup steps than measured steps,
  // so the measured window sees only recycled capacity.
  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(sim.Step());
  }

  const long before = monotest::AllocationCount().load();
  bool stepped = true;
  for (int i = 0; i < 4000 && stepped; ++i) {
    stepped = sim.Step();  // No EXPECT inside the window: count only the kernel.
  }
  const long during = monotest::AllocationCount().load() - before;

  EXPECT_TRUE(stepped);
  EXPECT_EQ(0, during)
      << "the steady-state schedule/fire/cancel path touched the heap";
  EXPECT_GT(fired, 0);
  EXPECT_GT(sim.event_pool_capacity(), 0u);
}

TEST(PooledKernelAlloc, FluidServerSubmitCompleteChurnIsHeapFree) {
  Simulation sim;
  FluidServer server(&sim, "dev", ConstantCapacity(1e6));
  int completions = 0;
  struct Pump {
    Simulation* sim;
    FluidServer* server;
    int remaining;
    int* completions;

    void Arm() {
      if (remaining-- <= 0) {
        return;
      }
      server->Submit(1000.0, [this] {
        ++*completions;
        Arm();
      });
    }
  };
  std::vector<Pump> pumps(4);
  for (auto& pump : pumps) {
    pump = Pump{&sim, &server, 1 << 20, &completions};
    pump.Arm();
  }

  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(sim.Step());
  }

  const long before = monotest::AllocationCount().load();
  bool stepped = true;
  for (int i = 0; i < 3000 && stepped; ++i) {
    stepped = sim.Step();
  }
  const long during = monotest::AllocationCount().load() - before;

  EXPECT_TRUE(stepped);
  EXPECT_EQ(0, during)
      << "the steady-state submit/complete path touched the heap";
  EXPECT_GT(completions, 0);
}
// Fabric churn on four disjoint machine pairs: every completion starts the
// next flow of its chain on the same pair. With one chain per pair each
// departure leaves its pair empty and each arrival opens it again, both taken
// by the local patches; with two chains per pair (sizes differ, so they
// desync) every departure leaves a classmate behind and is batched into a
// solve. Neither path may touch the heap once its pools are warm — including
// the ingress-trace bookkeeping when no trace or tracer is active.
void ExpectFabricChurnIsHeapFree(int chains_per_pair) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 8, monoutil::BytesPerSecond(1e6));
  int completions = 0;
  struct Lane {
    NetworkFabricSim* fabric;
    int src;
    int64_t bytes;
    int* completions;

    void Arm() {
      fabric->StartFlow(src, src + 1, monoutil::Bytes(bytes), [this] {
        ++*completions;
        Arm();
      });
    }
  };
  std::vector<Lane> lanes;
  for (int pair = 0; pair < 4; ++pair) {
    for (int chain = 0; chain < chains_per_pair; ++chain) {
      lanes.push_back(Lane{&fabric, 2 * pair, 1000 + 700 * chain + 13 * pair, &completions});
    }
  }
  for (Lane& lane : lanes) {
    lane.Arm();
  }

  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(sim.Step());
  }
  const NetworkFabricSim::SolverStats before = fabric.solver_stats();
  const long allocations_before = monotest::AllocationCount().load();
  bool stepped = true;
  for (int i = 0; i < 10000 && stepped; ++i) {
    stepped = sim.Step();
  }
  const long during = monotest::AllocationCount().load() - allocations_before;

  EXPECT_TRUE(stepped);
  EXPECT_EQ(0, during) << "steady-state fabric churn touched the heap";
  const NetworkFabricSim::SolverStats after = fabric.solver_stats();
  if (chains_per_pair == 1) {
    EXPECT_GT(after.patched_departures, before.patched_departures);
    EXPECT_EQ(after.batched_changes, before.batched_changes);
  } else {
    EXPECT_GT(after.solves, before.solves);
  }
}

TEST(PooledKernelAlloc, FabricFlowChurnIsHeapFree) {
  ExpectFabricChurnIsHeapFree(/*chains_per_pair=*/1);  // Patched churn.
  ExpectFabricChurnIsHeapFree(/*chains_per_pair=*/2);  // Batched churn.
}
#endif  // MONO_TEST_ALLOC_HOOKS

// ---------------------------------------------------------------------------
// Handle generation safety.

TEST(PooledKernelHandles, HandleOutlivesSimulation) {
  EventHandle handle;
  {
    Simulation sim;
    handle = sim.ScheduleAt(monoutil::Seconds(5.0), [] {}, "orphan");
    EXPECT_TRUE(handle.pending());
  }
  // The records (and their slabs) are gone; the handle must be inert, not a
  // dangling pointer into freed pool memory.
  EXPECT_FALSE(handle.pending());
  handle.Cancel();  // Must be a no-op.
  EXPECT_FALSE(handle.pending());
}

TEST(PooledKernelHandles, CancelAfterCompactionRecycledTheRecord) {
  Simulation sim;
  // Enough tombstones to trip compaction (tombstones outnumber live entries
  // and the queue exceeds the compaction floor).
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 200; ++i) {
    doomed.push_back(sim.ScheduleAt(monoutil::Seconds(1000.0 + i), [] {}, "doomed"));
  }
  for (EventHandle& handle : doomed) {
    handle.Cancel();
  }
  // This schedule triggers compaction, freeing every cancelled record back to
  // the pool; the next schedules below reuse exactly those records.
  int fired = 0;
  sim.ScheduleAt(monoutil::Seconds(1.0), [&fired] { ++fired; }, "live");
  ASSERT_EQ(0u, sim.queued_tombstones());
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 200; ++i) {
    fresh.push_back(sim.ScheduleAt(monoutil::Seconds(2000.0 + i), [&fired] { ++fired; }, "fresh"));
  }
  // Stale handles point at recycled records now hosting fresh events: their
  // generation no longer matches, so cancelling must not kill the new
  // occupants.
  for (EventHandle& handle : doomed) {
    EXPECT_FALSE(handle.pending());
    handle.Cancel();
  }
  for (EventHandle& handle : fresh) {
    EXPECT_TRUE(handle.pending());
  }
  sim.Run();
  EXPECT_EQ(201, fired);
}

TEST(PooledKernelHandles, CancelAfterFireIsInert) {
  Simulation sim;
  int fired = 0;
  EventHandle first = sim.ScheduleAt(monoutil::Seconds(1.0), [&fired] { ++fired; }, "first");
  ASSERT_TRUE(sim.Step());
  EXPECT_FALSE(first.pending());
  // The fired record is the pool's next free record; this schedule reuses it.
  EventHandle second = sim.ScheduleAt(monoutil::Seconds(2.0), [&fired] { ++fired; }, "second");
  first.Cancel();  // Stale generation: must not cancel `second`.
  EXPECT_TRUE(second.pending());
  sim.Run();
  EXPECT_EQ(2, fired);
}

TEST(PooledKernelHandles, CopiedHandlesShareCancellation) {
  Simulation sim;
  int fired = 0;
  EventHandle a = sim.ScheduleAt(monoutil::Seconds(1.0), [&fired] { ++fired; }, "shared");
  EventHandle b = a;
  b.Cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  sim.Run();
  EXPECT_EQ(0, fired);
}

}  // namespace
}  // namespace monosim
