// Determinism regression tests for the event-stream digest (simulation.h).
//
// The digest folds every fired event's (time, sequence, tag) into an FNV-1a
// accumulator, so it is a witness of the whole schedule: two runs of the same
// scenario with the same seed must produce bit-identical digests, and any
// dependence on heap addresses, wall clock, or uncontrolled entropy shows up
// as a digest mismatch. These tests pin both directions — same-seed equality
// on realistic scenarios (the fig09 sort family) and sensitivity of the digest
// to schedule-order perturbations of the kind a pointer-ordered container
// would introduce.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/network.h"
#include "src/common/rng.h"
#include "src/framework/environment.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/simcore/simulation.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

namespace monosim {
namespace {

using monoutil::MiB;

// A fast fig09-style sort scenario: same workload family as the bottleneck
// figure, scaled down to run in milliseconds.
monoload::SortParams SmallSortParams(uint64_t seed, int values_per_key) {
  monoload::SortParams params;
  params.total_bytes = MiB(256);
  params.values_per_key = values_per_key;
  params.num_map_tasks = 8;
  params.num_reduce_tasks = 8;
  params.seed = seed;
  return params;
}

struct RunWitness {
  uint64_t digest = 0;
  uint64_t fired = 0;
  double duration = 0;
};

// Runs the sort job from a fresh environment under the chosen architecture and
// returns the simulation's digest once the job completes.
RunWitness RunSort(bool monotasks, uint64_t seed, int values_per_key) {
  SimEnvironment env(monoload::SmallHddClusterConfig());
  const monoload::SortParams params = SmallSortParams(seed, values_per_key);
  JobSpec job = monoload::MakeSortJob(&env.dfs(), params);
  RunWitness witness;
  if (monotasks) {
    MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
    env.AttachExecutor(&executor);
    witness.duration = env.driver().RunJob(std::move(job)).duration().seconds();
  } else {
    SparkExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
    env.AttachExecutor(&executor);
    witness.duration = env.driver().RunJob(std::move(job)).duration().seconds();
  }
  witness.digest = env.sim().digest();
  witness.fired = env.sim().fired_events();
  return witness;
}

TEST(DeterminismTest, SameSeedSortRunsProduceIdenticalDigests) {
  for (const bool monotasks : {false, true}) {
    for (const int values_per_key : {10, 50}) {
      const RunWitness first = RunSort(monotasks, 7, values_per_key);
      const RunWitness second = RunSort(monotasks, 7, values_per_key);
      EXPECT_GT(first.fired, 0u);
      EXPECT_EQ(first.digest, second.digest)
          << (monotasks ? "monotasks" : "spark") << " sort, " << values_per_key
          << " values/key: same-seed reruns diverged";
      EXPECT_EQ(first.fired, second.fired);
      EXPECT_DOUBLE_EQ(first.duration, second.duration);
    }
  }
}

TEST(DeterminismTest, SameSeedFabricBurstChurnProducesIdenticalDigests) {
  // Regression for the fabric's batched incremental solver: all rate changes
  // are deferred to the epoch boundary and reach the event queue only through
  // the completion timer (tag "flow-complete"), whose schedule time is the
  // minimum of the completion index — never a function of flow iteration
  // order. Same-seed burst churn (many arrivals and departures sharing one
  // timestamp, repeatedly re-solved, patched, and batched) must therefore
  // produce bit-identical event-stream digests across runs.
  const auto run_churn = [](uint64_t seed) {
    Simulation sim;
    NetworkFabricSim fabric(&sim, /*num_machines=*/8,
                            /*nic_bandwidth=*/monoutil::BytesPerSecond(1e8));
    monoutil::Rng rng(seed);
    int completed = 0;
    // Six bursts of eight same-timestamp arrivals; every completion launches a
    // replacement a fixed delay later, so departures and arrivals keep landing
    // on shared timestamps deep into the run.
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
    EXPECT_EQ(completed, 6 * 8 * 4);
    return std::make_pair(sim.digest(), sim.fired_events());
  };
  const auto first = run_churn(21);
  const auto second = run_churn(21);
  EXPECT_EQ(first.first, second.first)
      << "same-seed fabric burst churn diverged: a rate-change schedule site "
         "depends on iteration order or unstable tags";
  EXPECT_EQ(first.second, second.second);
  const auto other_seed = run_churn(22);
  EXPECT_NE(first.first, other_seed.first)
      << "the seed does not reach the fabric schedule";
}

TEST(DeterminismTest, StrongUnitTypesPreservePreRefactorDigests) {
  // Oracle digests harvested from the raw-typedef units (pre strong-type
  // promotion). The wrappers hold exactly the representation the typedefs had
  // and every arithmetic expression was preserved operation-for-operation, so
  // the event schedule -- and therefore the digest -- must be bit-identical.
  // Re-pinned twice since: the pair-class fabric (one rate and one virtual
  // clock per (src, dst) pair) evaluates progress in a different FP order, so
  // two rows' event times moved in the last bits; then FluidServer moved onto
  // the same virtual-clock classes and re-arms its completion event only when
  // the earliest completion moves, which shifts CPU/disk event times in the
  // last bits and the sequence numbers of every later event, so all four rows
  // moved. Fired counts are unchanged both times.
  struct Oracle {
    bool monotasks;
    int values_per_key;
    uint64_t digest;
    uint64_t fired;
  };
  static constexpr Oracle kOracles[] = {
      {false, 10, 12419071918901391806ull, 518},
      {false, 50, 17036065132168203771ull, 518},
      {true, 10, 6388527301975103093ull, 181},
      {true, 50, 14413995973532971883ull, 181},
  };
  for (const Oracle& oracle : kOracles) {
    const RunWitness witness = RunSort(oracle.monotasks, 7, oracle.values_per_key);
    EXPECT_EQ(witness.digest, oracle.digest)
        << (oracle.monotasks ? "monotasks" : "spark") << " sort, "
        << oracle.values_per_key
        << " values/key: schedule drifted from the pre-refactor oracle";
    EXPECT_EQ(witness.fired, oracle.fired);
  }
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentDigests) {
  // Task-size jitter (job_spec.h) draws from the job Rng, so the seed reaches
  // event times and therefore the digest.
  const RunWitness a = RunSort(/*monotasks=*/true, 7, 20);
  const RunWitness b = RunSort(/*monotasks=*/true, 8, 20);
  EXPECT_NE(a.digest, b.digest)
      << "seed does not reach the schedule; jitter draws are being dropped";
}

TEST(DeterminismTest, DigestIsOrderSensitiveNotJustASet) {
  // Two runs firing the same multiset of (time, tag) events in different
  // sequence orders must disagree: the digest witnesses order, which is what
  // lets it catch container-iteration-order bugs.
  static constexpr std::array<const char*, 3> kTags = {"ev-a", "ev-b", "ev-c"};
  const auto run_in_order = [](const std::array<int, 3>& order) {
    Simulation sim;
    for (const int i : order) {
      sim.ScheduleAt(monoutil::Seconds(1.0), [] {}, kTags[i]);
    }
    sim.Run();
    return sim.digest();
  };
  const uint64_t forward = run_in_order({0, 1, 2});
  const uint64_t swapped = run_in_order({0, 2, 1});
  EXPECT_NE(forward, swapped);
}

TEST(DeterminismTest, PointerOrderedScheduleChangesDigest) {
  // Regression for the pointer-keyed-container bug class (mono_lint's
  // ptr-keyed-container / address-ordered rules): schedule the same logical
  // events in creation order and in heap-address order. Whenever the two
  // orders differ — which depends only on where the allocator placed the
  // nodes — the digests differ, i.e. an address-ordered schedule cannot hide
  // from the digest. The nested SimDigestTrail absorbs these deliberately
  // address-dependent runs so the suite-wide digest listener
  // (digest_listener.cc) does not compare them across --gtest_repeat runs.
  SimDigestTrail absorb_address_dependent_runs;

  struct Node {
    int index = 0;
  };
  static constexpr std::array<const char*, 4> kTags = {"node-0", "node-1",
                                                       "node-2", "node-3"};
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < 4; ++i) {
    auto node = std::make_unique<Node>();
    node->index = i;
    nodes.push_back(std::move(node));
  }

  const auto run_in_order = [&](const std::vector<Node*>& order) {
    Simulation sim;
    for (Node* node : order) {
      sim.ScheduleAt(monoutil::Seconds(1.0), [] {}, kTags[node->index]);
    }
    sim.Run();
    return sim.digest();
  };

  std::vector<Node*> creation_order;
  for (const auto& node : nodes) {
    creation_order.push_back(node.get());
  }
  std::vector<Node*> address_order = creation_order;
  std::sort(address_order.begin(), address_order.end());  // The bug: heap order.
  if (address_order == creation_order) {
    // The allocator happened to hand out ascending addresses; descending
    // address order is an equally legitimate "pointer-ordered" schedule and is
    // guaranteed to differ from creation order.
    std::reverse(address_order.begin(), address_order.end());
  }

  EXPECT_NE(run_in_order(creation_order), run_in_order(address_order))
      << "an address-ordered schedule produced the canonical digest";
}

TEST(DeterminismTest, DigestTrailRecordsEachSimulationDestruction) {
  SimDigestTrail outer;
  uint64_t digest = 0;
  {
    SimDigestTrail trail;
    {
      Simulation sim;
      sim.ScheduleAt(monoutil::Seconds(0.5), [] {}, "only");
      sim.Run();
      digest = sim.digest();
    }
    ASSERT_EQ(trail.entries().size(), 1u);
    EXPECT_EQ(trail.entries()[0].fired, 1u);
    EXPECT_EQ(trail.entries()[0].digest, digest);
  }
  // The nested trail absorbed the recording; the outer one saw nothing.
  EXPECT_TRUE(outer.entries().empty());
}

}  // namespace
}  // namespace monosim
