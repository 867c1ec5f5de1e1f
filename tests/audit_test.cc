#include "src/simcore/audit.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/network.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"

namespace monosim {
namespace {

TEST(SimAuditTest, SuiteListenerInstallsAuditAroundEveryTest) {
  // audit_listener.cc installs a report-mode audit before each test runs; if this
  // fails, the rest of the suite is running unaudited.
  EXPECT_NE(SimAudit::current(), nullptr);
}

TEST(SimAuditTest, CleanRunReportsNoViolationsButCountsChecks) {
  ScopedAudit scoped(ScopedAudit::kReport);
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  server.Submit(25.0, [] {}, /*weight=*/1.0);
  server.Submit(75.0, [] {}, /*weight=*/3.0);
  sim.Run();
  EXPECT_TRUE(scoped.audit().ok()) << scoped.audit().Summary();
  // The audit must actually have evaluated invariants, not vacuously passed.
  EXPECT_GT(scoped.audit().checks_run(), 0u);
}

TEST(SimAuditTest, DetectsLegacyEqualSplit) {
  // Reinstate the historical bug — weights feed the capacity function but the
  // split ignores them — and verify the audit layer catches it. This is the bug
  // class SimAudit exists for: every simulation completes and every total is
  // plausible; only the share proportions are wrong.
  ScopedAudit scoped(ScopedAudit::kReport);
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  server.set_share_policy_for_test(FluidServer::SharePolicy::kEqualSplitLegacy);
  server.Submit(25.0, [] {}, /*weight=*/1.0);
  server.Submit(75.0, [] {}, /*weight=*/3.0);
  sim.Run();
  ASSERT_FALSE(scoped.audit().ok());
  bool weighted_share_flagged = false;
  for (const AuditViolation& violation : scoped.audit().violations()) {
    if (violation.invariant == "weighted-share") {
      weighted_share_flagged = true;
      EXPECT_EQ(violation.source, "disk");
    }
  }
  EXPECT_TRUE(weighted_share_flagged) << scoped.audit().Summary();
}

TEST(SimAuditTest, EqualWeightsMaskTheLegacyBug) {
  // With equal weights the equal split *is* the weighted split, so the audit
  // stays clean — which is why the bug survived: every equal-weight test passed.
  ScopedAudit scoped(ScopedAudit::kReport);
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  server.set_share_policy_for_test(FluidServer::SharePolicy::kEqualSplitLegacy);
  server.Submit(50.0, [] {});
  server.Submit(50.0, [] {});
  sim.Run();
  EXPECT_TRUE(scoped.audit().ok()) << scoped.audit().Summary();
}

TEST(SimAuditTest, DetectsStrandedFabricRate) {
  // The fabric twin of the equal-split bug: a min-of-equal-shares network model
  // never over-allocates a NIC, so the ingress/egress-within-bandwidth checks
  // cannot see it — under-allocation (stranded capacity) passes bounds that
  // only cut from above. The max-min-bottleneck invariant bounds rates from
  // below: every flow must sit at a saturated NIC side where it has a maximal
  // share. Flows m0->m1, m0->m1, m0->m2 pin m0's egress at 100/3 each, so
  // m4->m2 deserves 200/3; lowering it to the 50 that min-of-shares gave it
  // leaves m2's ingress and m4's egress both unsaturated. The hook lowers the
  // rate of the flow's whole pair class; m4->m2 is the pair's only flow.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 5, monoutil::BytesPerSecond(100.0));
  fabric.StartFlow(0, 1, monoutil::Bytes(1000), [] {});
  fabric.StartFlow(0, 1, monoutil::Bytes(1000), [] {});
  fabric.StartFlow(0, 2, monoutil::Bytes(1000), [] {});
  const auto fan_in = fabric.StartFlow(4, 2, monoutil::Bytes(200), [] {});
  ASSERT_NEAR(fabric.flow_rate(fan_in).bps(), 200.0 / 3.0, 1e-9);
  {
    SimAudit clean;
    fabric.AuditInvariants(clean, AuditPhase::kEventBoundary);
    ASSERT_TRUE(clean.ok()) << clean.Summary();
  }
  fabric.LowerFlowRateForTest(fan_in, monoutil::BytesPerSecond(50.0));
  SimAudit audit;  // Standalone: the corrupted fabric is audited, never run.
  fabric.AuditInvariants(audit, AuditPhase::kEventBoundary);
  ASSERT_FALSE(audit.ok());
  bool bottleneck_flagged = false;
  for (const AuditViolation& violation : audit.violations()) {
    EXPECT_EQ(violation.source, "network-fabric");
    // The hook keeps the fabric's bookkeeping consistent, so the stranded
    // capacity is the only violation.
    EXPECT_EQ(violation.invariant, "max-min-bottleneck");
    bottleneck_flagged |= violation.invariant == "max-min-bottleneck";
  }
  EXPECT_TRUE(bottleneck_flagged) << audit.Summary();
}

TEST(SimAuditTest, DetectsCorruptedCompletionHeap) {
  // The fabric fires flow completions from its own (time, id) heap instead of
  // per-flow simulation events, so a mis-keyed entry would silently reorder or
  // lose completions. Skewing one entry's stored key below its parent's,
  // without re-sifting it, must be reported both as a membership mismatch (the
  // key no longer matches the flow's predicted completion) and as a
  // heap-order violation.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  const auto first = fabric.StartFlow(0, 1, monoutil::Bytes(100), [] {});
  fabric.StartFlow(2, 3, monoutil::Bytes(200), [] {});
  fabric.flow_rate(first);  // Settle the epoch: both flows are rated and indexed.
  {
    SimAudit clean;
    fabric.AuditInvariants(clean, AuditPhase::kEventBoundary);
    ASSERT_TRUE(clean.ok()) << clean.Summary();
  }
  fabric.SkewCompletionEntryForTest(/*slot=*/1, monoutil::Seconds(-10.0));
  SimAudit audit;  // Standalone: the corrupted fabric is audited, never run.
  fabric.AuditInvariants(audit, AuditPhase::kEventBoundary);
  ASSERT_FALSE(audit.ok());
  bool membership_flagged = false;
  bool order_flagged = false;
  for (const AuditViolation& violation : audit.violations()) {
    EXPECT_EQ(violation.source, "network-fabric");
    membership_flagged |= violation.invariant == "completion-index-membership";
    order_flagged |= violation.invariant == "completion-index-order";
  }
  EXPECT_TRUE(membership_flagged) << audit.Summary();
  EXPECT_TRUE(order_flagged) << audit.Summary();
}

TEST(SimAuditTest, DetectsPairClassFinishTagBehindItsClock) {
  // Flows of one (src, dst) pair share a virtual clock (bytes served per flow)
  // and sit in a heap on their fixed finish tags; only the head is indexed for
  // completion. A tag pushed behind the clock from deep in the heap would never
  // fire on time and breaks the heap order, and both pair-class checks must
  // name it while the completion index, which only sees the head, stays clean.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 2, monoutil::BytesPerSecond(90.0));
  fabric.StartFlow(0, 1, monoutil::Bytes(1000), [] {});
  fabric.StartFlow(0, 1, monoutil::Bytes(2000), [] {});
  const auto last = fabric.StartFlow(0, 1, monoutil::Bytes(3000), [] {});
  sim.ScheduleAt(monoutil::Seconds(5.0), [] {});
  ASSERT_TRUE(sim.Step());  // t=5: the clock reads 150 bytes per flow.
  {
    SimAudit clean;
    fabric.AuditInvariants(clean, AuditPhase::kEventBoundary);
    ASSERT_TRUE(clean.ok()) << clean.Summary();
  }
  fabric.SkewFinishTagForTest(last, monoutil::Bytes(-2950));  // Tag 50 < clock 150.
  SimAudit audit;  // Standalone: the corrupted fabric is audited, never run.
  fabric.AuditInvariants(audit, AuditPhase::kEventBoundary);
  ASSERT_FALSE(audit.ok());
  bool clock_flagged = false;
  bool order_flagged = false;
  for (const AuditViolation& violation : audit.violations()) {
    EXPECT_EQ(violation.source, "network-fabric");
    EXPECT_TRUE(violation.invariant == "pair-class-clock" ||
                violation.invariant == "pair-class-heap-order")
        << violation.invariant;
    clock_flagged |= violation.invariant == "pair-class-clock";
    order_flagged |= violation.invariant == "pair-class-heap-order";
  }
  EXPECT_TRUE(clock_flagged) << audit.Summary();
  EXPECT_TRUE(order_flagged) << audit.Summary();
}

// FluidServer keeps one virtual clock per share-weight class and a heap of
// fixed finish tags per class, and arms its single completion event at the
// earliest head completion. The three fixtures below corrupt one piece of
// that state each through test-only hooks and audit the server standalone.
// Three requests of 100, 200 and 300 units share a 90-unit/s server (30
// each), so the class heap holds tags 100, 200, 300 with 100 at the head.
struct FluidClassFixture {
  Simulation sim;
  FluidServer server{&sim, "disk", ConstantCapacity(90.0)};
  FluidServer::RequestId ids[3] = {
      server.Submit(100.0, [] {}), server.Submit(200.0, [] {}), server.Submit(300.0, [] {})};

  // The invariants `server` violates, after checking it was clean first.
  std::vector<std::string> ViolationsAfter(const std::function<void()>& corrupt) {
    SimAudit clean;
    server.AuditInvariants(clean, AuditPhase::kEventBoundary);
    EXPECT_TRUE(clean.ok()) << clean.Summary();
    corrupt();
    SimAudit audit;  // Standalone: the corrupted server is audited, never run.
    server.AuditInvariants(audit, AuditPhase::kEventBoundary);
    std::vector<std::string> names;
    for (const AuditViolation& violation : audit.violations()) {
      EXPECT_EQ(violation.source, "disk");
      names.push_back(violation.invariant);
    }
    return names;
  }
};

TEST(SimAuditTest, DetectsFluidClassHeapOutOfOrder) {
  // Tag 300 skewed to 50 sits below its parent (the head, 100) without
  // breaking anything else: the clock reads 0 and the head is unchanged.
  FluidClassFixture f;
  const auto names =
      f.ViolationsAfter([&] { f.server.SkewFinishTagForTest(f.ids[2], -250.0); });
  EXPECT_EQ(names, std::vector<std::string>{"fluid-class-heap-order"});
}

TEST(SimAuditTest, DetectsFluidClassTagBehindItsClock) {
  // At t=1 the clock reads 30; the head's tag skewed from 100 to 10 trails it,
  // so that completion was missed. The heap stays ordered (10 is still the
  // minimum); the head's completion time moves, so the timer check may fire
  // too.
  FluidClassFixture f;
  f.sim.ScheduleAt(monoutil::Seconds(1.0), [] {});
  ASSERT_TRUE(f.sim.Step());
  const auto names = f.ViolationsAfter([&] { f.server.SkewFinishTagForTest(f.ids[0], -90.0); });
  EXPECT_NE(std::find(names.begin(), names.end(), "fluid-class-clock"), names.end());
  for (const std::string& name : names) {
    EXPECT_TRUE(name == "fluid-class-clock" || name == "completion-timer-at-head") << name;
  }
}

TEST(SimAuditTest, DetectsCompletionTimerOffTheHead) {
  // The completion event re-armed a second late: the head would complete
  // unobserved while the class state itself stays consistent.
  FluidClassFixture f;
  const auto names =
      f.ViolationsAfter([&] { f.server.SkewCompletionTimerForTest(monoutil::Seconds(1.0)); });
  EXPECT_EQ(names, std::vector<std::string>{"completion-timer-at-head"});
}

TEST(SimAuditTest, NestedAuditReceivesChecksAndRestoresOuter) {
  ScopedAudit outer(ScopedAudit::kReport);
  const uint64_t outer_checks_before = outer.audit().checks_run();
  {
    ScopedAudit inner(ScopedAudit::kReport);
    EXPECT_EQ(SimAudit::current(), &inner.audit());
    Simulation sim;
    FluidServer server(&sim, "disk", ConstantCapacity(10.0));
    server.Submit(10.0, [] {});
    sim.Run();
    EXPECT_GT(inner.audit().checks_run(), 0u);
  }
  EXPECT_EQ(SimAudit::current(), &outer.audit());
  EXPECT_EQ(outer.audit().checks_run(), outer_checks_before);
}

TEST(SimAuditTest, SummaryListsViolations) {
  SimAudit audit;  // Standalone, never installed.
  EXPECT_TRUE(audit.ok());
  audit.Report(monoutil::Seconds(1.5), "disk0", "byte-conservation", "submitted 10 != flushed 4 + dirty 5");
  EXPECT_FALSE(audit.ok());
  const std::string summary = audit.Summary();
  EXPECT_NE(summary.find("byte-conservation"), std::string::npos);
  EXPECT_NE(summary.find("disk0"), std::string::npos);
}

TEST(SimAuditTest, AuditRequestedByEnvParsesVariable) {
  unsetenv("MONO_SIM_AUDIT");
  EXPECT_FALSE(AuditRequestedByEnv());
  setenv("MONO_SIM_AUDIT", "0", 1);
  EXPECT_FALSE(AuditRequestedByEnv());
  setenv("MONO_SIM_AUDIT", "1", 1);
  EXPECT_TRUE(AuditRequestedByEnv());
  unsetenv("MONO_SIM_AUDIT");
}

}  // namespace
}  // namespace monosim
