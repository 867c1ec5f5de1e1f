// Property tests for the fabric's incremental max-min allocation.
//
// The fabric recomputes rates incrementally, only over the connected component of
// flows sharing a NIC side with a changed endpoint. These tests drive randomized
// flow arrival/departure sequences through a fabric and, at every event boundary,
// compare every active flow's rate against the independent global reference solver
// (maxmin_reference.h). Departures are the completions the byte sizes induce, so
// each sequence exercises both directions of the incremental update.
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/network.h"
#include "src/common/rng.h"
#include "src/simcore/simulation.h"
#include "tests/maxmin_reference.h"

namespace monosim {
namespace {

// Every flow's rate must equal its reference max-min rate (relative tolerance
// covering the two implementations' different accumulation orders).
void ExpectRatesMatchReference(const NetworkFabricSim& fabric, double bandwidth,
                               int num_machines, SimTime now) {
  std::vector<testutil::ReferenceFlow> reference_flows;
  for (const NetworkFabricSim::FlowInfo& info : fabric.ActiveFlows()) {
    reference_flows.push_back({info.id, info.src, info.dst});
  }
  const auto reference =
      testutil::SolveMaxMinReference(reference_flows, num_machines, bandwidth);
  for (const NetworkFabricSim::FlowInfo& info : fabric.ActiveFlows()) {
    const double want = reference.at(info.id);
    ASSERT_NEAR(info.rate.bps(), want, 1e-6 * want)
        << "flow " << info.id << " (" << info.src << "->" << info.dst << ") at t="
        << now << " with " << reference_flows.size() << " active flows";
  }
}

TEST(NetworkMaxMinPropertyTest, IncrementalRatesMatchReferenceSolverOnRandomChurn) {
  constexpr int kSequences = 120;
  constexpr double kBandwidth = 100.0;
  for (uint64_t seed = 0; seed < kSequences; ++seed) {
    monoutil::Rng rng(seed + 1);
    const int machines = 2 + static_cast<int>(rng.NextBelow(7));  // 2..8
    const int arrivals = 8 + static_cast<int>(rng.NextBelow(25));  // 8..32

    Simulation sim;
    NetworkFabricSim fabric(&sim, machines, monoutil::BytesPerSecond(kBandwidth));
    int completed = 0;
    for (int i = 0; i < arrivals; ++i) {
      const int src = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));
      int dst = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines - 1)));
      if (dst >= src) {
        ++dst;
      }
      const auto bytes = static_cast<monoutil::Bytes>(1 + rng.NextBelow(500));
      const SimTime at = monoutil::Seconds(rng.Uniform(0.0, 5.0));
      sim.ScheduleAt(at, [&fabric, &completed, src, dst, bytes] {
        fabric.StartFlow(src, dst, bytes, [&completed] { ++completed; });
      });
    }
    while (sim.Step()) {
      ExpectRatesMatchReference(fabric, kBandwidth, machines, sim.now());
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_EQ(completed, arrivals) << "seed " << seed;
    // Every flush solves exactly once: there is no second solve path.
    EXPECT_EQ(fabric.solver_stats().solves, fabric.solver_stats().epochs_flushed)
        << "seed " << seed;
  }
}

TEST(NetworkMaxMinPropertyTest, CompletionsFireWhenTheReferenceByteLedgerEmpties) {
  // The fabric tracks progress with one virtual clock per (src, dst) pair and
  // a fixed finish tag per flow, never with per-flow byte counts. This oracle
  // checks that clock against an independent ledger: each flow's bytes are
  // drained by its *reference* max-min rate integrated between event
  // boundaries, and every completion must fire exactly when its ledger
  // reaches zero (1e-6 relative). Bursts repeat pairs so classes hold several
  // flows with staggered tags.
  constexpr double kBandwidth = 100.0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    monoutil::Rng rng(9000 + seed);
    const int machines = 2 + static_cast<int>(rng.NextBelow(5));  // 2..6
    const int arrivals = 6 + static_cast<int>(rng.NextBelow(20));  // 6..25

    Simulation sim;
    NetworkFabricSim fabric(&sim, machines, monoutil::BytesPerSecond(kBandwidth));
    std::map<NetworkFabricSim::FlowId, double> ledger;  // Bytes left, per reference.
    std::map<NetworkFabricSim::FlowId, double> size;
    std::unordered_map<uint64_t, double> rates;  // Reference rates since `since`.
    SimTime since;
    const auto advance = [&] {
      const double dt = (sim.now() - since).seconds();
      for (auto& [id, left] : ledger) {
        left -= rates[id] * dt;
      }
      since = sim.now();
    };
    int completed = 0;
    std::vector<NetworkFabricSim::FlowId> ids(static_cast<size_t>(arrivals));
    int src = 0;
    int dst = 1;
    for (int i = 0; i < arrivals; ++i) {
      if (i == 0 || rng.NextBelow(3) != 0) {  // Every third flow reuses the last pair.
        src = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));
        dst = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines - 1)));
        dst += dst >= src ? 1 : 0;
      }
      const auto bytes = static_cast<monoutil::Bytes>(1 + rng.NextBelow(500));
      const SimTime at = monoutil::Seconds(rng.Uniform(0.0, 4.0));
      sim.ScheduleAt(at, [&, i, src, dst, bytes] {
        advance();
        ids[static_cast<size_t>(i)] = fabric.StartFlow(src, dst, bytes, [&, i] {
          advance();
          const NetworkFabricSim::FlowId id = ids[static_cast<size_t>(i)];
          EXPECT_NEAR(ledger.at(id), 0.0, 1e-6 * size.at(id))
              << "flow " << id << " completed at t=" << sim.now() << ", seed " << seed;
          ledger.erase(id);
          ++completed;
        });
        ledger[ids[static_cast<size_t>(i)]] = static_cast<double>(bytes.count());
        size[ids[static_cast<size_t>(i)]] = static_cast<double>(bytes.count());
      });
    }
    while (sim.Step()) {
      advance();  // The old rates held up to now; the step's events may change them.
      std::vector<testutil::ReferenceFlow> live;
      for (const NetworkFabricSim::FlowInfo& info : fabric.ActiveFlows()) {
        live.push_back({info.id, info.src, info.dst});
      }
      rates = testutil::SolveMaxMinReference(live, machines, kBandwidth);
    }
    EXPECT_EQ(completed, arrivals) << "seed " << seed;
    EXPECT_TRUE(ledger.empty()) << "seed " << seed;
  }
}

TEST(NetworkMaxMinPropertyTest, SameTimestampBurstsMatchReferenceSolver) {
  // Epoch batching: every arrival and departure sharing one simulation
  // timestamp must be coalesced into a single solve whose allocation matches
  // the global reference. Bursts deliberately include duplicate
  // (src, dst, bytes) triples — those flows receive identical rates, so their
  // completions land on one timestamp too, exercising departure bursts and
  // mixed arrival+departure epochs, not just arrival batching.
  constexpr double kBandwidth = 100.0;
  uint64_t total_batched = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    monoutil::Rng rng(5000 + seed);
    const int machines = 3 + static_cast<int>(rng.NextBelow(6));  // 3..8

    Simulation sim;
    NetworkFabricSim fabric(&sim, machines, monoutil::BytesPerSecond(kBandwidth));
    int completed = 0;
    int launched = 0;
    const int bursts = 2 + static_cast<int>(rng.NextBelow(3));  // 2..4
    for (int b = 0; b < bursts; ++b) {
      const SimTime at = monoutil::Seconds(0.5 * b + rng.Uniform(0.0, 0.25));
      const int width = 3 + static_cast<int>(rng.NextBelow(8));  // 3..10
      int src = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));
      int dst = 0;
      monoutil::Bytes bytes;
      for (int i = 0; i < width; ++i) {
        // Roughly every other flow repeats the previous triple verbatim.
        if (i == 0 || rng.NextBelow(2) == 0) {
          src = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));
          dst = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines - 1)));
          if (dst >= src) {
            ++dst;
          }
          bytes = static_cast<monoutil::Bytes>(1 + rng.NextBelow(400));
        }
        ++launched;
        sim.ScheduleAt(at, [&fabric, &completed, src, dst, bytes] {
          fabric.StartFlow(src, dst, bytes, [&completed] { ++completed; });
        });
      }
    }
    while (sim.Step()) {
      ExpectRatesMatchReference(fabric, kBandwidth, machines, sim.now());
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_EQ(completed, launched) << "seed " << seed;
    total_batched += fabric.solver_stats().batched_changes;
  }
  // The sequences must actually have exercised epoch batching: at least some
  // epochs carried more than one arrival/departure into a single solve.
  EXPECT_GT(total_batched, 0u);
}

TEST(NetworkMaxMinPropertyTest, PruningEligibleDeltasArePatchedAndStayCorrect) {
  // Flows confined to disjoint machine pairs: an arrival onto a free pair and
  // the departure of a pair's sole flow are both provably invisible to every
  // other pair's bottleneck set, so the solver must take its local patch path
  // — and the patched rates must still match the global reference at every
  // event boundary.
  constexpr double kBandwidth = 100.0;
  constexpr int kMachines = 8;  // Pairs (0,1) (2,3) (4,5) (6,7).
  Simulation sim;
  NetworkFabricSim fabric(&sim, kMachines, monoutil::BytesPerSecond(kBandwidth));
  monoutil::Rng rng(42);
  int completed = 0;
  constexpr int kArrivals = 24;
  for (int i = 0; i < kArrivals; ++i) {
    const int pair = i % 4;
    const int src = 2 * pair;
    const int dst = 2 * pair + 1;
    const auto bytes = static_cast<monoutil::Bytes>(20 + rng.NextBelow(120));
    // Staggered arrivals: patches only apply to a clean fabric, so each delta
    // gets its own epoch.
    sim.ScheduleAt(monoutil::Seconds(0.05 * i), [&fabric, &completed, src, dst, bytes] {
      fabric.StartFlow(src, dst, bytes, [&completed] { ++completed; });
    });
  }
  while (sim.Step()) {
    ExpectRatesMatchReference(fabric, kBandwidth, kMachines, sim.now());
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_EQ(completed, kArrivals);
  const NetworkFabricSim::SolverStats stats = fabric.solver_stats();
  EXPECT_GT(stats.patched_arrivals, 0u)
      << "no arrival took the patch path on a free disjoint pair";
  EXPECT_GT(stats.patched_departures, 0u)
      << "no departure of a pair's sole flow was patched";
}

TEST(NetworkMaxMinPropertyTest, HeavyFanInSequencesStayWorkConserving) {
  // Skewed sequences: most flows converge on one hot receiver (Spark's
  // many-concurrent-fetch shuffle pattern), the rest are scattered — the shape a
  // min-of-equal-shares model distorts. Work conservation here means every flow is
  // bottlenecked at a saturated NIC, which ExpectRatesMatchReference implies
  // (reference rates are max-min, hence work-conserving).
  constexpr double kBandwidth = 100.0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    monoutil::Rng rng(1000 + seed);
    const int machines = 4 + static_cast<int>(rng.NextBelow(5));  // 4..8
    const int hot = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));

    Simulation sim;
    NetworkFabricSim fabric(&sim, machines, monoutil::BytesPerSecond(kBandwidth));
    for (int i = 0; i < 24; ++i) {
      const bool to_hot = rng.NextDouble() < 0.7;
      int src = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));
      int dst = hot;
      if (!to_hot || src == hot) {
        dst = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines - 1)));
        if (dst >= src) {
          ++dst;
        }
      }
      const auto bytes = static_cast<monoutil::Bytes>(1 + rng.NextBelow(300));
      const SimTime at = monoutil::Seconds(rng.Uniform(0.0, 2.0));
      sim.ScheduleAt(at, [&fabric, src, dst, bytes] {
        fabric.StartFlow(src, dst, bytes, [] {});
      });
    }
    while (sim.Step()) {
      ExpectRatesMatchReference(fabric, kBandwidth, machines, sim.now());
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace monosim
