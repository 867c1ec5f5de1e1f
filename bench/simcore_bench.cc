// Simcore/fabric microbenchmark: the perf baseline for the simulator's hot
// paths — the event queue (schedule/cancel/fire), the fluid servers that model
// every CPU and disk, and the network fabric's rate recomputation. Emits
// BENCH_simcore.json so perf work is measured, not asserted.
//
// The cancel-churn scenarios run the same workload with tombstone compaction
// disabled ("before": cancelled entries sit in the heap until their virtual time,
// the behavior of the pre-compaction queue) and enabled ("after"), so the JSON
// records events/sec before vs. after as a durable record of the change.
//
// The fabric churn scenario runs bare, with the invariant audit installed (the
// "_audit" variant, equivalent to MONO_SIM_AUDIT=report), and with telemetry
// off. The audit sweeps every epoch boundary, so solver speedups must be read
// off the variant they were measured under. Fabric scenarios also record the
// incremental solver's own counters (solves, flows touched, rate changes,
// patched/batched deltas) so a throughput change can be attributed to solver
// work, not guessed.
//
// The fluid churn scenario drives FluidServer's submit/complete cycle and
// records its work counters (class rate changes, completion-timer re-arms,
// completions), the fluid-server analogue of the fabric's solver counters.
//
// Usage: simcore_bench [output.json]   (default ./BENCH_simcore.json)
// MONO_BENCH_FILTER=<substring> runs only matching scenarios (profiling aid).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/network.h"
#include "src/common/rng.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/simcore/audit.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"

namespace {

// Runs `body` with telemetry (histograms, gauges, and — via `sim` — the flight
// recorder) globally disabled, restoring the always-on default afterwards. The
// *_telemetry_off scenarios price the telemetry tentpole: the paired on/off
// digests must be identical (telemetry never schedules events) and CI gates
// the throughput ratio at 0.95 (within 5%, ISSUE acceptance).
template <typename Fn>
auto WithTelemetryOff(Fn&& body) {
  monotrace::SetTelemetryEnabled(false);
  auto result = body();
  monotrace::SetTelemetryEnabled(true);
  return result;
}

struct Scenario {
  std::string name;
  uint64_t events;        // Simulation events fired (or churn ops, see ops_label).
  double seconds;         // Wall-clock seconds.
  double events_per_sec;  // events / seconds.
  uint64_t max_queue;     // Peak live-plus-tombstone queue size observed.
  uint64_t digest;        // Simulation::digest(): must match across same-build runs.
  bool has_solver_stats = false;  // Fabric scenarios carry the solver counters.
  monosim::NetworkFabricSim::SolverStats solver;
  bool has_fluid_stats = false;  // Fluid scenarios carry the servers' summed counters.
  monosim::FluidServer::Stats fluid;
};

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Pure schedule+fire throughput with no cancellations: the floor every other
// scenario pays on top of. With `telemetry` off the flight recorder is also
// disabled, so the pair isolates the always-on recording cost on the kernel's
// hottest path.
Scenario BenchScheduleFire(bool telemetry, const char* name) {
  constexpr int kEvents = 2000000;
  monosim::Simulation sim;
  sim.flight_recorder().set_enabled(telemetry);
  const auto start = std::chrono::steady_clock::now();
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    sim.ScheduleAt(monoutil::Seconds(static_cast<double>(i % 9973)),
                   [&fired] { ++fired; });
  }
  sim.Run();
  const double seconds = Elapsed(start);
  return Scenario{name, static_cast<uint64_t>(fired), seconds,
                  fired / seconds, kEvents, sim.digest()};
}

// The fabric's signature pattern: every recompute cancels a pending completion
// and schedules a replacement, so almost every queue entry dies as a tombstone.
// With compaction disabled this is the pre-compaction queue: tombstones for the
// far-future horizon accumulate until the run ends.
Scenario BenchCancelChurn(bool compaction, const char* name) {
  constexpr int kChurn = 1000000;
  monosim::Simulation sim;
  sim.set_compaction_enabled(compaction);
  monosim::EventHandle pending;
  size_t max_queue = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kChurn; ++i) {
    pending.Cancel();
    pending = sim.ScheduleAt(monoutil::Seconds(1e9 + i), [] {});
    if (sim.queue_size() > max_queue) {
      max_queue = sim.queue_size();
    }
  }
  pending.Cancel();
  sim.Run();  // Drains whatever tombstones remain.
  const double seconds = Elapsed(start);
  return Scenario{name, static_cast<uint64_t>(kChurn), seconds, kChurn / seconds,
                  static_cast<uint64_t>(max_queue), sim.digest()};
}

// Continuous flow churn through the fabric: every completion starts a replacement
// flow, so rates are recomputed (and completion events rescheduled) constantly.
// This is the shuffle inner loop of the figure benches. With `audited` the full
// invariant audit (including the max-min bottleneck certification) sweeps every
// epoch boundary, as under MONO_SIM_AUDIT=report; a violation fails the bench.
Scenario BenchFabricChurn(const char* name, bool audited, bool telemetry = true) {
  constexpr int kMachines = 16;
  constexpr int kLanes = 64;
  constexpr int kFlowsPerLane = 400;
  std::unique_ptr<monosim::ScopedAudit> audit;
  if (audited) {
    audit = std::make_unique<monosim::ScopedAudit>(monosim::ScopedAudit::kReport);
  }
  monosim::Simulation sim;
  sim.flight_recorder().set_enabled(telemetry);
  monosim::NetworkFabricSim fabric(&sim, kMachines,
                                   /*nic_bandwidth=*/monoutil::BytesPerSecond(1e8));
  monoutil::Rng rng(7);
  size_t max_queue = 0;
  int completed = 0;
  const auto start = std::chrono::steady_clock::now();
  std::function<void(int)> launch = [&](int remaining) {
    if (remaining == 0) {
      return;
    }
    const int src = static_cast<int>(rng.NextBelow(kMachines));
    int dst = static_cast<int>(rng.NextBelow(kMachines - 1));
    if (dst >= src) {
      ++dst;
    }
    const auto bytes = static_cast<monoutil::Bytes>(1 + rng.NextBelow(1 << 20));
    fabric.StartFlow(src, dst, bytes, [&, remaining] {
      ++completed;
      if (sim.queue_size() > max_queue) {
        max_queue = sim.queue_size();
      }
      launch(remaining - 1);
    });
  };
  for (int lane = 0; lane < kLanes; ++lane) {
    launch(kFlowsPerLane);
  }
  sim.Run();
  const double seconds = Elapsed(start);
  const auto events = sim.fired_events();
  if (audited && !audit->audit().ok()) {
    std::cerr << name << ": audit violations\n" << audit->audit().Summary() << "\n";
    std::exit(1);
  }
  Scenario s{name, events, seconds, events / seconds,
             static_cast<uint64_t>(max_queue), sim.digest()};
  s.has_solver_stats = true;
  s.solver = fabric.solver_stats();
  return s;
}

// Seeded submit/complete churn through FluidServer, the model behind every
// CPU and disk monotask: an 8-core CPU pool with a one-core per-request cap
// and an HDD (seek-degraded capacity, mixed contention weights, share weight
// 1 as DiskSim submits). Each lane resubmits on completion, half the time at
// once and otherwise after a short seeded pause, so the pool swings between
// under- and oversubscribed and the HDD's capacity moves with every change.
Scenario BenchFluidChurn(const char* name) {
  constexpr int kCpuLanes = 12;
  constexpr int kDiskLanes = 4;
  constexpr int kRequestsPerLane = 8000;
  monosim::Simulation sim;
  monosim::FluidServer cpu(&sim, "cpu", monosim::ConstantCapacity(8.0),
                           /*per_request_cap=*/1.0);
  monosim::FluidServer disk(&sim, "hdd", monosim::HddCapacity(100e6, 0.3));
  monoutil::Rng rng(11);
  size_t max_queue = 0;
  std::function<void(monosim::FluidServer*, int)> launch = [&](monosim::FluidServer* server,
                                                               int remaining) {
    if (remaining == 0) {
      return;
    }
    const bool is_disk = server == &disk;
    const double amount = is_disk ? 1e5 * static_cast<double>(1 + rng.NextBelow(64))
                                  : 0.01 * static_cast<double>(1 + rng.NextBelow(100));
    const double weight = is_disk && rng.NextBelow(4) == 0 ? 3.0 : 1.0;
    const auto submit = [&, server, remaining, amount, weight] {
      server->Submit(
          amount,
          [&, server, remaining] {
            max_queue = std::max(max_queue, sim.queue_size());
            launch(server, remaining - 1);
          },
          weight, /*share_weight=*/1.0);
    };
    if (rng.NextBelow(2) == 0) {
      submit();
    } else {
      sim.ScheduleAfter(monoutil::Seconds(0.001 * static_cast<double>(rng.NextBelow(50))),
                        submit, "think");
    }
  };
  const auto start = std::chrono::steady_clock::now();
  for (int lane = 0; lane < kCpuLanes; ++lane) {
    launch(&cpu, kRequestsPerLane);
  }
  for (int lane = 0; lane < kDiskLanes; ++lane) {
    launch(&disk, kRequestsPerLane);
  }
  sim.Run();
  const double seconds = Elapsed(start);
  const auto events = sim.fired_events();
  Scenario s{name, events, seconds, events / seconds, static_cast<uint64_t>(max_queue),
             sim.digest()};
  s.has_fluid_stats = true;
  for (const monosim::FluidServer* server : {&cpu, &disk}) {
    s.fluid.rate_changes += server->stats().rate_changes;
    s.fluid.timer_rearms += server->stats().timer_rearms;
    s.fluid.completions += server->stats().completions;
  }
  return s;
}

void WriteJson(const std::string& path, const std::vector<Scenario>& scenarios) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"simcore\",\n  \"scenarios\": [\n";
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    char line[768];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"events\": %llu, \"seconds\": %.4f, "
                  "\"events_per_sec\": %.0f, \"max_queue\": %llu, "
                  "\"digest\": \"%016llx\"",
                  s.name.c_str(), static_cast<unsigned long long>(s.events),
                  s.seconds, s.events_per_sec,
                  static_cast<unsigned long long>(s.max_queue),
                  static_cast<unsigned long long>(s.digest));
    out << line;
    if (s.has_solver_stats) {
      std::snprintf(line, sizeof(line),
                    ", \"solves\": %llu, \"flows_touched\": %llu, "
                    "\"rate_changes\": %llu, \"epochs_flushed\": %llu, "
                    "\"batched_changes\": %llu, \"patched_arrivals\": %llu, "
                    "\"patched_departures\": %llu",
                    static_cast<unsigned long long>(s.solver.solves),
                    static_cast<unsigned long long>(s.solver.flows_touched),
                    static_cast<unsigned long long>(s.solver.rate_changes),
                    static_cast<unsigned long long>(s.solver.epochs_flushed),
                    static_cast<unsigned long long>(s.solver.batched_changes),
                    static_cast<unsigned long long>(s.solver.patched_arrivals),
                    static_cast<unsigned long long>(s.solver.patched_departures));
      out << line;
    }
    if (s.has_fluid_stats) {
      std::snprintf(line, sizeof(line),
                    ", \"rate_changes\": %llu, \"timer_rearms\": %llu, \"completions\": %llu",
                    static_cast<unsigned long long>(s.fluid.rate_changes),
                    static_cast<unsigned long long>(s.fluid.timer_rearms),
                    static_cast<unsigned long long>(s.fluid.completions));
      out << line;
    }
    out << "}" << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  // Aggregation-side observability for the run itself: every counter,
  // histogram and gauge the process accumulated (telemetry tentpole).
  out << "  ],\n  \"telemetry\":\n"
      << monotrace::MetricsRegistry::Global().TakeTelemetrySnapshot().ToJson(2)
      << "\n}\n";
}

// Folds `next` into `best`, keeping the faster run. The workload is
// deterministic — repeats must produce identical digests, and a mismatch here
// means the simulation itself lost determinism.
void MergeBest(Scenario& best, Scenario&& next) {
  if (next.digest != best.digest) {
    std::cerr << best.name << ": digest changed across repeats (" << std::hex
              << best.digest << " vs " << next.digest << std::dec
              << ") — simulation is nondeterministic\n";
    std::exit(1);
  }
  if (next.events_per_sec > best.events_per_sec) {
    best = std::move(next);
  }
}

// Best-of-N for the scenarios under the tight --pair gate (0.95x): a single
// fabric-churn measurement is ~0.2s and wobbles a few percent on shared CI
// runners, so the pair ratio is taken over each side's best of three.
Scenario BestOf(int n, const std::function<Scenario()>& run) {
  Scenario best = run();
  for (int i = 1; i < n; ++i) {
    MergeBest(best, run());
  }
  return best;
}

// Measures an on/off scenario pair by alternating the two sides, after one
// untimed warmup run of each. Measuring one side's best-of-N to completion
// before the other side starts — the previous shape — lets one-time cold-start
// costs (first-touch page faults for the multi-megabyte queue, CPU frequency
// ramp) land entirely on whichever side runs first, which is how a committed
// baseline once recorded the telemetry-*off* variant 23% slower than its
// telemetry-on twin. Interleaving puts both sides behind the same warm state,
// so the pair ratio measures the feature, not the run order.
std::pair<Scenario, Scenario> BestOfPair(int n, const std::function<Scenario()>& run_a,
                                         const std::function<Scenario()>& run_b) {
  (void)run_a();  // Warmups: timed below, discarded here.
  (void)run_b();
  Scenario best_a = run_a();
  Scenario best_b = run_b();
  for (int i = 1; i < n; ++i) {
    MergeBest(best_a, run_a());
    MergeBest(best_b, run_b());
  }
  return {std::move(best_a), std::move(best_b)};
}

// The telemetry-off variants re-run the exact workload of their "on" twins;
// telemetry must never schedule an event, so the event-stream digests must be
// bit-identical. Checked here (not just in tests) so every perf-smoke run is
// also a digest-invariance regression.
void CheckPairedDigests(const std::vector<Scenario>& scenarios) {
  const char* suffix = "_telemetry_off";
  for (const Scenario& off : scenarios) {
    const size_t pos = off.name.rfind(suffix);
    if (pos == std::string::npos || pos + std::strlen(suffix) != off.name.size()) {
      continue;
    }
    const std::string on_name = off.name.substr(0, pos);
    for (const Scenario& on : scenarios) {
      if (on.name == on_name && on.digest != off.digest) {
        std::cerr << "digest mismatch: " << on.name << " (" << std::hex << on.digest
                  << ") vs " << off.name << " (" << off.digest << std::dec
                  << ") — telemetry perturbed the schedule\n";
        std::exit(1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  monotrace::InstallEnvTelemetrySinkOnce();
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_simcore.json";
  const char* filter_env = std::getenv("MONO_BENCH_FILTER");
  const std::string filter = filter_env != nullptr ? filter_env : "";
  const auto wanted = [&](const char* name) {
    return filter.empty() || std::string(name).find(filter) != std::string::npos;
  };
  std::vector<Scenario> scenarios;
  const auto run_schedule_fire_on = [] {
    return BenchScheduleFire(true, "event_queue_schedule_fire");
  };
  const auto run_schedule_fire_off = [] {
    return WithTelemetryOff([] {
      return BenchScheduleFire(false, "event_queue_schedule_fire_telemetry_off");
    });
  };
  {
    const bool want_on = wanted("event_queue_schedule_fire");
    const bool want_off = wanted("event_queue_schedule_fire_telemetry_off");
    if (want_on && want_off) {
      auto [on, off] = BestOfPair(3, run_schedule_fire_on, run_schedule_fire_off);
      scenarios.push_back(std::move(on));
      scenarios.push_back(std::move(off));
    } else if (want_on) {
      scenarios.push_back(BestOf(3, run_schedule_fire_on));
    } else if (want_off) {
      scenarios.push_back(BestOf(3, run_schedule_fire_off));
    }
  }
  if (wanted("cancel_churn_before_compaction")) {
    scenarios.push_back(
        BenchCancelChurn(/*compaction=*/false, "cancel_churn_before_compaction"));
  }
  if (wanted("cancel_churn_after_compaction")) {
    scenarios.push_back(
        BenchCancelChurn(/*compaction=*/true, "cancel_churn_after_compaction"));
  }
  if (wanted("fluid_churn")) {
    scenarios.push_back(BestOf(3, [] { return BenchFluidChurn("fluid_churn"); }));
  }
  // Fabric scenarios. The pair-gated maxmin on/off twins are measured as an
  // interleaved warmed pair (see BestOfPair); the audited run is measured once
  // (its baseline gate is generous enough for a single measurement).
  const auto run_maxmin_on = [] { return BenchFabricChurn("fabric_churn_maxmin", false); };
  const auto run_maxmin_off = [] {
    return WithTelemetryOff([] {
      return BenchFabricChurn("fabric_churn_maxmin_telemetry_off", false, false);
    });
  };
  {
    const bool want_on = wanted("fabric_churn_maxmin");
    const bool want_off = wanted("fabric_churn_maxmin_telemetry_off");
    std::optional<std::pair<Scenario, Scenario>> pair;
    if (want_on && want_off) {
      pair = BestOfPair(3, run_maxmin_on, run_maxmin_off);
    }
    // Scenario order in the JSON stays: maxmin, maxmin_audit, maxmin_telemetry_off.
    if (pair.has_value()) {
      scenarios.push_back(std::move(pair->first));
    } else if (want_on) {
      scenarios.push_back(BestOf(3, run_maxmin_on));
    }
    if (wanted("fabric_churn_maxmin_audit")) {
      scenarios.push_back(BenchFabricChurn("fabric_churn_maxmin_audit", true));
    }
    if (pair.has_value()) {
      scenarios.push_back(std::move(pair->second));
    } else if (want_off) {
      scenarios.push_back(BestOf(3, run_maxmin_off));
    }
  }
  CheckPairedDigests(scenarios);
  WriteJson(out_path, scenarios);
  for (const Scenario& s : scenarios) {
    std::cout << s.name << ": " << static_cast<uint64_t>(s.events_per_sec)
              << " events/s (" << s.events << " events, max queue " << s.max_queue
              << ")";
    if (s.has_solver_stats) {
      std::cout << " [solves " << s.solver.solves << ", flows touched "
                << s.solver.flows_touched << ", rate changes "
                << s.solver.rate_changes << ", batched " << s.solver.batched_changes
                << ", patched " << s.solver.patched_arrivals << "+"
                << s.solver.patched_departures << "]";
    }
    if (s.has_fluid_stats) {
      std::cout << " [rate changes " << s.fluid.rate_changes << ", timer re-arms "
                << s.fluid.timer_rearms << ", completions " << s.fluid.completions << "]";
    }
    std::cout << "\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
