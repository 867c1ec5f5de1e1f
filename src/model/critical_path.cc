#include "src/model/critical_path.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "src/common/check.h"

namespace monomodel {

namespace {

using monosim::MonoResource;
using monosim::MonoResourceName;
using monosim::MonotaskRecord;

constexpr int kNumResources = 3;

// One boundary in the sweep: at `when`, `service_delta` monotasks of
// `resource` enter/leave service and `queued_delta` enter/leave a queue.
// `stage_slot` names the record's stage window, so every stage sweeps its
// events straight out of the one job-wide sorted order. Packed into 16 bytes:
// the array holds three events per record.
struct SweepEvent {
  monoutil::SimTime when;
  uint32_t stage_slot = 0;
  int8_t resource = 0;
  int8_t service_delta = 0;
  int8_t queued_delta = 0;
};

// Sweeps every event when `stage_slot` is kAllStages.
constexpr uint32_t kAllStages = UINT32_MAX;

// Record aggregates of one window, indexed by MonoResource and summed in
// record order.
struct WindowTotals {
  std::array<ResourceAttribution, kNumResources> resources{};
  monoutil::SimTime start;
  monoutil::SimTime end;
  bool empty = true;

  void Add(const MonotaskRecord& rec) {
    ResourceAttribution& attr = resources[static_cast<size_t>(rec.resource)];
    attr.busy_seconds += rec.service().seconds();
    attr.queue_wait_seconds += rec.queue_wait().seconds();
    ++attr.monotasks;
    start = empty ? rec.ready : std::min(start, rec.ready);
    end = empty ? rec.done : std::max(end, rec.done);
    empty = false;
  }
};

// Interval sweep over one window's events — those of `stage_slot` in the
// job-wide time order (see critical_path.h). Every boundary at one instant is
// applied before the next segment is attributed and the counts are integers,
// so the order of events sharing a timestamp cannot change the result;
// resources are visited in enum order, so the attribution is a deterministic
// function of the record set.
StageCriticalPath Sweep(int stage_index, const WindowTotals& totals,
                        const std::vector<SweepEvent>& events, uint32_t stage_slot) {
  StageCriticalPath out;
  out.stage_index = stage_index;
  if (totals.empty) {
    return out;
  }
  out.start = totals.start;
  out.end = totals.end;

  const size_t n = events.size();
  const auto next = [&](size_t i) {  // The first window event at or after i.
    while (i < n && stage_slot != kAllStages && events[i].stage_slot != stage_slot) {
      ++i;
    }
    return i;
  };
  std::array<int, kNumResources> in_service{};
  std::array<double, kNumResources> critical{};
  int queued = 0;
  size_t i = next(0);
  monoutil::SimTime t = events[i].when;
  while (i < n) {
    // Apply every boundary at time t, then attribute the segment up to the
    // next distinct boundary.
    while (i < n && events[i].when <= t) {
      in_service[static_cast<size_t>(events[i].resource)] += events[i].service_delta;
      queued += events[i].queued_delta;
      i = next(i + 1);
    }
    if (i >= n) {
      break;
    }
    const double dt = (events[i].when - t).seconds();
    t = events[i].when;
    if (dt <= 0) {
      continue;
    }
    int total = 0;
    for (int r = 0; r < kNumResources; ++r) {
      total += in_service[static_cast<size_t>(r)];
    }
    if (total > 0) {
      for (int r = 0; r < kNumResources; ++r) {
        const int count = in_service[static_cast<size_t>(r)];
        if (count > 0) {
          critical[static_cast<size_t>(r)] +=
              dt * static_cast<double>(count) / static_cast<double>(total);
        }
      }
    } else if (queued > 0) {
      out.blocked_seconds += dt;
    } else {
      out.idle_seconds += dt;
    }
  }
  for (size_t r = 0; r < kNumResources; ++r) {
    if (totals.resources[r].monotasks == 0) {
      continue;
    }
    ResourceAttribution& attr =
        out.resources[MonoResourceName(static_cast<MonoResource>(r))];
    attr = totals.resources[r];
    attr.critical_seconds = critical[r];
  }
  return out;
}

}  // namespace

std::string StageCriticalPath::dominant() const {
  std::string best;
  double best_seconds = 0.0;
  for (const auto& [name, attr] : resources) {
    if (attr.critical_seconds > best_seconds) {
      best = name;
      best_seconds = attr.critical_seconds;
    }
  }
  return best;
}

CriticalPathReport CriticalPathReport::Build(const monosim::MonotaskLog& log) {
  CriticalPathReport report;
  report.complete_ = log.dropped() == 0;

  // Stage windows in ascending stage order, the order the report lists them.
  std::map<int, uint32_t> slot_of;
  for (const MonotaskRecord& rec : log.records()) {
    slot_of.emplace(rec.stage_index, 0);
  }
  uint32_t num_stages = 0;
  for (auto& entry : slot_of) {
    entry.second = num_stages++;
  }

  // One pass over the records fills every window's aggregates and the
  // job-wide event list, and one sort orders it; each stage then sweeps its
  // own events in that order, skipping the rest.
  std::vector<WindowTotals> stage_totals(num_stages);
  WindowTotals job_totals;
  std::vector<SweepEvent> events;
  events.reserve(log.records().size() * 3);
  for (const MonotaskRecord& rec : log.records()) {
    const uint32_t slot = slot_of.at(rec.stage_index);
    stage_totals[slot].Add(rec);
    job_totals.Add(rec);
    const auto r = static_cast<int8_t>(rec.resource);
    events.push_back({rec.ready, slot, r, 0, +1});
    events.push_back({rec.dispatch, slot, r, +1, -1});
    events.push_back({rec.done, slot, r, -1, 0});
  }
  std::sort(events.begin(), events.end(),
            [](const SweepEvent& a, const SweepEvent& b) { return a.when < b.when; });
  for (const auto& [stage_index, stage_slot] : slot_of) {
    report.stages_.push_back(Sweep(stage_index, stage_totals[stage_slot], events, stage_slot));
  }
  report.job_ = Sweep(-1, job_totals, events, kAllStages);
  return report;
}

const StageCriticalPath* CriticalPathReport::FindStage(int stage_index) const {
  for (const StageCriticalPath& stage : stages_) {
    if (stage.stage_index == stage_index) {
      return &stage;
    }
  }
  return nullptr;
}

std::vector<CriticalPathCrossCheck> CriticalPathReport::CrossCheckWithTrace(
    const TraceReport& trace, const std::map<int, std::string>& stage_labels,
    double tolerance) const {
  std::vector<CriticalPathCrossCheck> checks;
  for (const StageCriticalPath& stage : stages_) {
    const auto label_it = stage_labels.find(stage.stage_index);
    if (label_it == stage_labels.end()) {
      continue;
    }
    const StageTraceSummary* traced = trace.FindStage(label_it->second);
    if (traced == nullptr) {
      continue;
    }
    for (int r = 0; r < kNumResources; ++r) {
      const char* name = monosim::MonoResourceName(static_cast<MonoResource>(r));
      double log_busy = 0.0;
      if (const auto it = stage.resources.find(name); it != stage.resources.end()) {
        log_busy = it->second.busy_seconds;
      }
      double trace_busy = 0.0;
      if (const auto it = traced->blame.find(name); it != traced->blame.end()) {
        trace_busy = it->second.busy_seconds;
      }
      if (log_busy == 0.0 && trace_busy == 0.0) {
        continue;
      }
      CriticalPathCrossCheck check;
      check.stage = label_it->second;
      check.resource = name;
      check.log_busy_seconds = log_busy;
      check.trace_busy_seconds = trace_busy;
      check.relative_error =
          trace_busy > 0.0 ? std::abs(log_busy - trace_busy) / trace_busy : 1.0;
      check.agree = check.relative_error <= tolerance;
      checks.push_back(check);
    }
  }
  return checks;
}

std::string CriticalPathReport::ToString() const {
  std::ostringstream out;
  out << "critical-path report (" << (complete_ ? "complete" : "TRUNCATED — log dropped records")
      << ")\n";
  auto print = [&out](const StageCriticalPath& stage, const std::string& title) {
    out << "  " << title << ": " << stage.duration().seconds() << "s wall";
    const std::string dominant = stage.dominant();
    if (!dominant.empty()) {
      out << ", dominant " << dominant;
    }
    out << "\n";
    for (const auto& [name, attr] : stage.resources) {
      out << "    " << name << ": critical " << attr.critical_seconds << "s, busy "
          << attr.busy_seconds << "s, queue-wait " << attr.queue_wait_seconds << "s ("
          << attr.monotasks << " monotask(s))\n";
    }
    if (stage.blocked_seconds > 0) {
      out << "    blocked (queued, nothing running): " << stage.blocked_seconds << "s\n";
    }
    if (stage.idle_seconds > 0) {
      out << "    idle: " << stage.idle_seconds << "s\n";
    }
  };
  print(job_, "job");
  for (const StageCriticalPath& stage : stages_) {
    print(stage, "stage " + std::to_string(stage.stage_index));
  }
  return out.str();
}

}  // namespace monomodel
