// Property tests for FluidServer's virtual-clock classes.
//
// FluidServer keeps one class per share weight, each with one rate, one
// virtual clock and a heap of fixed finish tags, and re-arms its completion
// event only when the earliest head completion moves. These tests drive
// seeded request scripts through it and through the per-request reference
// integrator (fluid_reference.h) in two separate simulations, and require the
// same outcome request by request: every completion at the reference's time
// (1e-9 relative) and every cancel returning the reference's remaining work.
// Scripts mix contention and share weights, capped and uncapped servers,
// constant, HDD and SSD capacity functions, bursts of submits at one
// timestamp, zero amounts, cancels and completion-triggered follow-ups.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"
#include "tests/fluid_reference.h"

namespace monosim {
namespace {

enum class CapacityKind { kConstant, kHdd, kSsd };

struct ServerConfig {
  CapacityKind kind = CapacityKind::kConstant;
  double per_request_cap = FluidServer::kUnlimited;

  CapacityFn Capacity() const {
    switch (kind) {
      case CapacityKind::kConstant:
        return ConstantCapacity(8.0);
      case CapacityKind::kHdd:
        return HddCapacity(100.0, 0.35);
      case CapacityKind::kSsd:
        return SsdCapacity(100.0, 4, 0.55);
    }
    return nullptr;
  }
};

// One scripted request. Negative `cancel_after` / `follow_up` mean none: a
// follow-up is a second request of that amount submitted by the first one's
// completion callback, with the same weights.
struct ScriptedRequest {
  double at;
  double amount;
  double weight;
  double share_weight;
  double cancel_after;
  double follow_up;
};

// Per request (follow-ups at index n + i): completion time, or remaining
// work returned by a cancel; -1 when the outcome did not happen.
struct Outcome {
  std::vector<double> done_at;
  std::vector<double> cancel_returned;
};

template <typename Server>
Server MakeServer(Simulation* sim, const ServerConfig& config) {
  if constexpr (std::is_same_v<Server, FluidServer>) {
    return Server(sim, "server", config.Capacity(), config.per_request_cap);
  } else {
    return Server(sim, config.Capacity(), config.per_request_cap);
  }
}

template <typename Server>
Outcome RunScript(const ServerConfig& config, const std::vector<ScriptedRequest>& script) {
  const size_t n = script.size();
  Outcome out{std::vector<double>(2 * n, -1.0), std::vector<double>(n, -1.0)};
  std::vector<uint64_t> ids(n, 0);
  Simulation sim;
  Server server = MakeServer<Server>(&sim, config);
  for (size_t i = 0; i < n; ++i) {
    sim.ScheduleAt(monoutil::Seconds(script[i].at), [&, i] {
      const ScriptedRequest& req = script[i];
      ids[i] = server.Submit(
          req.amount,
          [&, i] {
            out.done_at[i] = sim.now().seconds();
            const ScriptedRequest& done = script[i];
            if (done.follow_up >= 0.0) {
              server.Submit(
                  done.follow_up, [&, i] { out.done_at[n + i] = sim.now().seconds(); },
                  done.weight, done.share_weight);
            }
          },
          req.weight, req.share_weight);
      if (req.cancel_after >= 0.0) {
        sim.ScheduleAfter(monoutil::Seconds(req.cancel_after), [&, i] {
          if (out.done_at[i] < 0.0) {
            out.cancel_returned[i] = server.CancelRequest(ids[i]);
          }
        });
      }
    });
  }
  sim.Run();
  EXPECT_EQ(server.active(), 0);
  return out;
}

// A seeded script of 8..40 requests. Arrival times come from a coarse grid,
// so several submits often share a timestamp.
std::vector<ScriptedRequest> MakeScript(monoutil::Rng& rng, bool mixed_share_weights) {
  static constexpr double kWeights[] = {1.0, 0.5, 3.0, 1.7};
  static constexpr double kShareWeights[] = {1.0, 2.0, 0.25};
  const int count = 8 + static_cast<int>(rng.NextBelow(33));
  std::vector<ScriptedRequest> script;
  for (int i = 0; i < count; ++i) {
    ScriptedRequest req{};
    req.at = 0.25 * static_cast<double>(rng.NextBelow(24));
    req.amount = rng.NextBelow(8) == 0 ? 0.0 : rng.Uniform(0.05, 30.0);
    req.weight = kWeights[rng.NextBelow(4)];
    req.share_weight = mixed_share_weights ? kShareWeights[rng.NextBelow(3)] : 1.0;
    req.cancel_after = rng.NextBelow(5) == 0 ? rng.Uniform(0.0, 4.0) : -1.0;
    req.follow_up = rng.NextBelow(4) == 0 ? rng.Uniform(0.0, 10.0) : -1.0;
    script.push_back(req);
  }
  return script;
}

TEST(FluidServerPropertyTest, MatchesPerRequestReferenceOnSeededChurn) {
  constexpr int kSequences = 144;
  int completions = 0;
  int cancels = 0;
  for (int seed = 0; seed < kSequences; ++seed) {
    monoutil::Rng rng(static_cast<uint64_t>(seed) + 1);
    ServerConfig config;
    config.kind = static_cast<CapacityKind>(seed % 3);
    // Alternate uncapped servers with caps that bind at a few requests.
    if ((seed / 3) % 2 == 1) {
      config.per_request_cap = config.kind == CapacityKind::kConstant ? 1.0 : 30.0;
    }
    const bool mixed_share_weights = (seed / 6) % 2 == 1;
    const std::vector<ScriptedRequest> script = MakeScript(rng, mixed_share_weights);

    const Outcome got = RunScript<FluidServer>(config, script);
    const Outcome want = RunScript<testutil::ReferenceFluidServer>(config, script);
    const std::string where = "sequence " + std::to_string(seed);
    for (size_t i = 0; i < want.done_at.size(); ++i) {
      const double w = want.done_at[i];
      ASSERT_EQ(got.done_at[i] < 0.0, w < 0.0) << where << ", request " << i;
      if (w >= 0.0) {
        ASSERT_NEAR(got.done_at[i], w, 1e-9 * std::max(1.0, w)) << where << ", request " << i;
        ++completions;
      }
    }
    for (size_t i = 0; i < want.cancel_returned.size(); ++i) {
      const double w = want.cancel_returned[i];
      ASSERT_EQ(got.cancel_returned[i] < 0.0, w < 0.0) << where << ", cancel " << i;
      if (w >= 0.0) {
        ASSERT_NEAR(got.cancel_returned[i], w, 1e-9 * std::max(1.0, script[i].amount))
            << where << ", cancel " << i;
        ++cancels;
      }
    }
  }
  // The scripts must actually exercise both outcomes.
  EXPECT_GT(completions, 2000);
  EXPECT_GT(cancels, 100);
}

}  // namespace
}  // namespace monosim
