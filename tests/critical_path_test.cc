// Tests for the log-driven critical-path analyzer (src/model/critical_path.h):
// exact sweep attribution on hand-built logs, truncation reporting, and the
// ISSUE acceptance check — on a traced sort run, log-derived per-stage blame
// must agree with the trace_report pipeline within 5%.
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "src/common/tracing/tracer.h"
#include "src/framework/environment.h"
#include "src/model/critical_path.h"
#include "src/model/trace_report.h"
#include "src/monotask/mono_executor.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

namespace monomodel {
namespace {

using monosim::MonoResource;
using monosim::MonotaskLog;
using monosim::MonotaskRecord;

MonotaskRecord Rec(int stage, MonoResource resource, double ready, double dispatch,
                   double done) {
  MonotaskRecord rec;
  rec.stage_index = stage;
  rec.resource = resource;
  rec.phase = "test";
  rec.ready = monoutil::Seconds(ready);
  rec.dispatch = monoutil::Seconds(dispatch);
  rec.done = monoutil::Seconds(done);
  return rec;
}

TEST(CriticalPathTest, SequentialPhasesGetFullSlices) {
  MonotaskLog log;
  // cpu serves [0, 10); the disk monotask waits in queue, then serves [10, 14).
  log.Record(Rec(0, MonoResource::kCpu, 0.0, 0.0, 10.0));
  log.Record(Rec(0, MonoResource::kDisk, 0.0, 10.0, 14.0));
  const CriticalPathReport report = CriticalPathReport::Build(log);
  ASSERT_EQ(report.stages().size(), 1u);
  const StageCriticalPath& stage = report.stages()[0];
  EXPECT_DOUBLE_EQ(stage.duration().seconds(), 14.0);
  EXPECT_DOUBLE_EQ(stage.resources.at("cpu").critical_seconds, 10.0);
  EXPECT_DOUBLE_EQ(stage.resources.at("disk").critical_seconds, 4.0);
  EXPECT_DOUBLE_EQ(stage.resources.at("disk").queue_wait_seconds, 10.0);
  EXPECT_DOUBLE_EQ(stage.blocked_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stage.idle_seconds, 0.0);
  EXPECT_EQ(stage.dominant(), "cpu");
}

TEST(CriticalPathTest, OverlapSplitsProportionally) {
  MonotaskLog log;
  // cpu and disk both in service over [0, 10): each carries half the wall.
  log.Record(Rec(0, MonoResource::kCpu, 0.0, 0.0, 10.0));
  log.Record(Rec(0, MonoResource::kDisk, 0.0, 0.0, 10.0));
  const CriticalPathReport report = CriticalPathReport::Build(log);
  const StageCriticalPath& stage = report.stages()[0];
  EXPECT_DOUBLE_EQ(stage.resources.at("cpu").critical_seconds, 5.0);
  EXPECT_DOUBLE_EQ(stage.resources.at("disk").critical_seconds, 5.0);
  // busy_seconds are raw service sums, not shared.
  EXPECT_DOUBLE_EQ(stage.resources.at("cpu").busy_seconds, 10.0);
  EXPECT_DOUBLE_EQ(stage.resources.at("disk").busy_seconds, 10.0);
}

TEST(CriticalPathTest, DistinguishesBlockedFromIdle) {
  MonotaskLog log;
  // Service [0, 5); window gap [5, 6) with nothing ready (idle); [6, 7) with a
  // monotask queued but nothing running (a scheduler gap: blocked); service
  // [7, 8).
  log.Record(Rec(0, MonoResource::kCpu, 0.0, 0.0, 5.0));
  log.Record(Rec(0, MonoResource::kCpu, 6.0, 7.0, 8.0));
  const CriticalPathReport report = CriticalPathReport::Build(log);
  const StageCriticalPath& stage = report.stages()[0];
  EXPECT_DOUBLE_EQ(stage.idle_seconds, 1.0);
  EXPECT_DOUBLE_EQ(stage.blocked_seconds, 1.0);
  EXPECT_DOUBLE_EQ(stage.resources.at("cpu").critical_seconds, 6.0);
}

TEST(CriticalPathTest, JobViewSpansAllStages) {
  MonotaskLog log;
  log.Record(Rec(0, MonoResource::kCpu, 0.0, 0.0, 10.0));
  log.Record(Rec(1, MonoResource::kNetwork, 10.0, 10.0, 25.0));
  const CriticalPathReport report = CriticalPathReport::Build(log);
  EXPECT_EQ(report.stages().size(), 2u);
  EXPECT_DOUBLE_EQ(report.job().duration().seconds(), 25.0);
  EXPECT_EQ(report.job().dominant(), "network");
  ASSERT_NE(report.FindStage(1), nullptr);
  EXPECT_DOUBLE_EQ(report.FindStage(1)->duration().seconds(), 15.0);
  EXPECT_EQ(report.FindStage(7), nullptr);
}

TEST(CriticalPathTest, TruncatedLogIsReportedIncomplete) {
  MonotaskLog log(/*capacity=*/1);
  log.Record(Rec(0, MonoResource::kCpu, 0.0, 0.0, 1.0));
  log.Record(Rec(0, MonoResource::kCpu, 1.0, 1.0, 2.0));  // Dropped.
  EXPECT_EQ(log.dropped(), 1u);
  const CriticalPathReport report = CriticalPathReport::Build(log);
  EXPECT_FALSE(report.complete());
  EXPECT_NE(report.ToString().find("TRUNCATED"), std::string::npos);
}

TEST(CriticalPathTest, EmptyLogYieldsEmptyReport) {
  MonotaskLog log;
  const CriticalPathReport report = CriticalPathReport::Build(log);
  EXPECT_TRUE(report.stages().empty());
  EXPECT_TRUE(report.complete());
  EXPECT_DOUBLE_EQ(report.job().duration().seconds(), 0.0);
}

// A fixed multi-stage log, interleaved across stages and resources with
// overlapping service, queueing gaps and idle gaps. Its rendered report is
// pinned byte for byte, so a change to how the sweep orders or groups its
// events cannot move any attribution unnoticed.
TEST(CriticalPathTest, MultiStageReportIsPinned) {
  MonotaskLog log;
  log.Record(Rec(5, MonoResource::kNetwork, 7.25, 7.5, 9.0));
  log.Record(Rec(0, MonoResource::kDisk, 0.0, 0.0, 1.0 / 3.0));
  log.Record(Rec(2, MonoResource::kCpu, 3.0, 3.5, 4.75));
  log.Record(Rec(0, MonoResource::kCpu, 0.125, 1.0 / 3.0, 2.0));
  log.Record(Rec(5, MonoResource::kDisk, 7.0, 7.0, 8.5));
  log.Record(Rec(2, MonoResource::kNetwork, 3.0, 3.0, 4.0));
  log.Record(Rec(0, MonoResource::kCpu, 0.5, 0.5, 2.0 / 3.0));
  log.Record(Rec(2, MonoResource::kCpu, 5.0, 5.0, 5.5));
  log.Record(Rec(5, MonoResource::kCpu, 7.1, 8.0, 9.0));
  log.Record(Rec(0, MonoResource::kDisk, 1.5, 1.75, 2.25));
  log.Record(Rec(2, MonoResource::kDisk, 3.25, 4.0, 4.5));
  log.Record(Rec(5, MonoResource::kNetwork, 7.0, 7.0, 7.2));
  const CriticalPathReport report = CriticalPathReport::Build(log);
  EXPECT_EQ(report.ToString(),
            "critical-path report (complete)\n"
            "  job: 9s wall, dominant cpu\n"
            "    cpu: critical 3.20833s, busy 4.58333s, queue-wait 1.60833s (5 monotask(s))\n"
            "    disk: critical 1.775s, busy 2.83333s, queue-wait 1s (4 monotask(s))\n"
            "    network: critical 1.51667s, busy 2.7s, queue-wait 0.25s (3 monotask(s))\n"
            "    idle: 2.5s\n"
            "  stage 0: 2.25s wall, dominant cpu\n"
            "    cpu: critical 1.54167s, busy 1.83333s, queue-wait 0.208333s (2 monotask(s))\n"
            "    disk: critical 0.708333s, busy 0.833333s, queue-wait 0.25s (2 monotask(s))\n"
            "  stage 2: 2.5s wall, dominant cpu\n"
            "    cpu: critical 1.25s, busy 1.75s, queue-wait 0.5s (2 monotask(s))\n"
            "    disk: critical 0.25s, busy 0.5s, queue-wait 0.75s (1 monotask(s))\n"
            "    network: critical 0.75s, busy 1s, queue-wait 0s (1 monotask(s))\n"
            "    idle: 0.25s\n"
            "  stage 5: 2s wall, dominant disk\n"
            "    cpu: critical 0.416667s, busy 1s, queue-wait 0.9s (1 monotask(s))\n"
            "    disk: critical 0.816667s, busy 1.5s, queue-wait 0s (1 monotask(s))\n"
            "    network: critical 0.766667s, busy 1.7s, queue-wait 0.25s (2 monotask(s))\n");
}

// The ISSUE acceptance check: on a traced sort run, the blame derived from the
// always-on MonotaskLog agrees with the opt-in trace_report pipeline within 5%
// on every active (stage, resource) pair.
TEST(CriticalPathTest, CrossCheckAgreesWithTraceOnSortRun) {
  monotrace::ScopedTracer scoped;
  monosim::SimEnvironment env(monoload::SmallHddClusterConfig());
  env.cluster().EnableTrace();
  monosim::MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&executor);
  monoload::SortParams params;
  params.total_bytes = monoutil::GiB(1);
  const monosim::JobResult result =
      env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params));

  ASSERT_FALSE(env.monotask_log().records().empty());
  const CriticalPathReport report = CriticalPathReport::Build(env.monotask_log());
  ASSERT_TRUE(report.complete());

  const ParsedTrace trace = ParseChromeTrace(scoped.tracer().ToJson());
  ASSERT_TRUE(trace.errors.empty());
  const TraceReport trace_report = TraceReport::Build(trace);
  std::map<int, std::string> stage_labels;
  for (const monosim::StageResult& stage : result.stages) {
    stage_labels[stage.stage_index] =
        std::string(executor.trace_name()) + ":" + stage.name;
  }
  const auto checks = report.CrossCheckWithTrace(trace_report, stage_labels,
                                                 /*tolerance=*/0.05);
  ASSERT_FALSE(checks.empty());
  for (const CriticalPathCrossCheck& check : checks) {
    EXPECT_TRUE(check.agree)
        << check.stage << "/" << check.resource << ": log "
        << check.log_busy_seconds << "s vs trace " << check.trace_busy_seconds
        << "s (err " << check.relative_error << ")";
  }
}

}  // namespace
}  // namespace monomodel
