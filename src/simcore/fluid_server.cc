#include "src/simcore/fluid_server.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/tracer.h"

namespace monosim {

FluidServer::FluidServer(Simulation* sim, std::string name, CapacityFn capacity,
                         double per_request_cap)
    : sim_(sim),
      name_(std::move(name)),
      capacity_(std::move(capacity)),
      per_request_cap_(per_request_cap),
      nominal_capacity_(capacity_(1)),
      last_update_(sim->now()),
      created_at_(sim->now()) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK_MSG(capacity_(1) > 0, "server capacity must be positive");
  sim_->RegisterAuditable(this);
}

FluidServer::~FluidServer() {
  sim_->UnregisterAuditable(this);
}

FluidServer::RequestId FluidServer::SubmitImpl(double amount, InlineCallback&& done,
                                               double weight, double share_weight) {
  MONO_DOMAIN_MUTATION();
  MONO_CHECK_MSG(std::isfinite(amount) && amount >= 0,
                 "Submit: amount must be finite and non-negative");
  MONO_CHECK(static_cast<bool>(done));
  MONO_CHECK_MSG(std::isfinite(weight) && weight > 0,
                 "Submit: contention weight must be finite and positive");
  if (share_weight == kSameAsWeight) {
    share_weight = weight;
  }
  MONO_CHECK_MSG(std::isfinite(share_weight) && share_weight > 0,
                 "Submit: share weight must be finite and positive");
  AdvanceProgress();
  const RequestId id = next_id_++;
  uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].weight = weight;
  slots_[slot].done = std::move(done);
  ShareClass& cls = ClassFor(share_weight);
  cls.Push(Tag{cls.ServedAt(sim_->now()) + amount, id, slot});
  CountContention(weight, +1);
  ++active_;
  Reschedule();
  return id;
}

double FluidServer::CancelRequest(RequestId id) {
  MONO_DOMAIN_MUTATION();
  AdvanceProgress();
  const SimTime now = sim_->now();
  for (ShareClass& cls : classes_) {
    for (size_t i = 0; i < cls.jobs.size(); ++i) {
      if (cls.jobs[i].id != id) {
        continue;
      }
      // The clock may have run a rounding error past the tag; served_ was
      // credited for that overshoot, which the request never received.
      const double unserved = cls.jobs[i].finish - cls.ServedAt(now);
      served_ -= std::max(0.0, -unserved);
      ReleaseSlot(cls.RemoveAt(i).slot);  // The callback is dropped unfired.
      Reschedule();
      return std::max(0.0, unserved);
    }
  }
  MONO_CHECK_MSG(false, "CancelRequest: unknown request id");
  return 0.0;
}

FluidServer::ShareClass& FluidServer::ClassFor(double share_weight) {
  // Labels stay distinct across live and dormant classes: a dormant class is
  // relabelled only when no class carries the weight.
  ShareClass* found = nullptr;
  for (ShareClass& cls : classes_) {
    if (cls.share_weight == share_weight) {
      found = &cls;
      break;
    }
    if (found == nullptr && cls.jobs.empty()) {
      found = &cls;
    }
  }
  if (found == nullptr) {
    found = &classes_.emplace_back();
  }
  if (found->jobs.empty()) {
    // The class (re)opens: a fresh clock, unrated until the next water-fill.
    found->share_weight = share_weight;
    found->Reset(sim_->now());
  }
  return *found;
}

void FluidServer::CountContention(double weight, int delta) {
  const auto it = std::lower_bound(
      contention_.begin(), contention_.end(), weight,
      [](const std::pair<double, int>& entry, double w) { return entry.first < w; });
  if (it != contention_.end() && it->first == weight) {
    it->second += delta;
    if (it->second == 0) {
      contention_.erase(it);
    }
    return;
  }
  MONO_CHECK(delta > 0);
  contention_.insert(it, {weight, delta});
}

InlineCallback FluidServer::ReleaseSlot(uint32_t slot) {
  Pending& pending = slots_[slot];
  CountContention(pending.weight, -1);
  --active_;
  free_slots_.push_back(slot);
  return std::move(pending.done);
}

void FluidServer::AdvanceProgress() {
  const SimTime now = sim_->now();
  const SimTime dt = now - last_update_;
  if (dt > SimTime()) {
    served_ += total_rate_ * dt.seconds();
    // The active set and its rates were constant over [last_update_, now], so
    // this dt is wholly busy or wholly idle, and saturated iff the granted
    // rates consumed the instantaneous capacity.
    if (active_ > 0) {
      busy_seconds_ += dt;
      if (total_rate_ >= last_capacity_ - 1e-9 * std::max(1.0, last_capacity_)) {
        saturated_seconds_ += dt;
      }
    }
  }
  last_update_ = now;
}

void FluidServer::FillRates(double capacity) {
  if (share_policy_ == SharePolicy::kEqualSplitLegacy) {
    // The historical bug: weights feed the capacity function but the split
    // ignores them. Kept (test-only) so the audit layer can be shown to catch it.
    double share = capacity / static_cast<double>(active_);
    if (per_request_cap_ != kUnlimited) {
      share = std::min(share, per_request_cap_);
    }
    for (ShareClass& cls : classes_) {
      cls.fill_rate = share;
    }
    return;
  }
  // Weighted fair sharing with a per-request ceiling: start from shares
  // proportional to share weight and water-fill. A class whose proportional
  // per-request share reaches the cap is pinned to it (all its members alike)
  // and drops out; the capacity it leaves behind is re-split, again by share
  // weight, among the rest. Every pass pins a class or terminates, so the
  // loop runs at most once per class.
  // Dormant classes stay out of the fill.
  for (ShareClass& cls : classes_) {
    cls.fill_rate = cls.jobs.empty() ? -1.0 : 0.0;  // 0: open.
  }
  double remaining_cap = capacity;
  for (;;) {
    double open_weight = 0.0;
    for (const ShareClass& cls : classes_) {
      if (cls.fill_rate == 0.0) {
        open_weight += cls.share_weight * static_cast<double>(cls.jobs.size());
      }
    }
    const double pass_cap = remaining_cap;
    bool pinned_any = false;
    for (ShareClass& cls : classes_) {
      if (cls.fill_rate != 0.0) {
        continue;
      }
      const double proportional = pass_cap * cls.share_weight / open_weight;
      if (per_request_cap_ != kUnlimited && proportional >= per_request_cap_) {
        cls.fill_rate = per_request_cap_;
        remaining_cap -= per_request_cap_ * static_cast<double>(cls.jobs.size());
        pinned_any = true;
      }
    }
    if (!pinned_any) {
      for (ShareClass& cls : classes_) {
        if (cls.fill_rate == 0.0) {
          cls.fill_rate = pass_cap * cls.share_weight / open_weight;
        }
      }
      return;
    }
  }
}

void FluidServer::Reschedule() {
  const SimTime now = sim_->now();
  total_rate_ = 0.0;
  if (active_ > 0) {
    double total_weight = 0.0;
    for (const auto& [weight, count] : contention_) {
      total_weight += weight * static_cast<double>(count);
    }
    const double cap = capacity_(total_weight);
    MONO_CHECK_MSG(cap > 0, "capacity function must be positive for active requests");
    last_capacity_ = cap;
    max_capacity_seen_ = std::max(max_capacity_seen_, cap);
    FillRates(cap);
    for (ShareClass& cls : classes_) {
      if (cls.jobs.empty()) {
        continue;  // Dormant: kept only for its heap storage.
      }
      // An unchanged rate leaves the clock alone: its basis, and with it every
      // tag's completion time, is still exact.
      if (cls.fill_rate != cls.rate) {
        MONO_CHECK_MSG(cls.fill_rate > 0, "active request with zero rate would never finish");
        cls.Advance(now);
        cls.rate = cls.fill_rate;
        ++stats_.rate_changes;
      }
      total_rate_ += cls.rate * static_cast<double>(cls.jobs.size());
    }
  } else {
    last_capacity_ = 0.0;
  }
  UpdateCompletionTimer();
  if (trace_enabled_) {
    // Forced: every Reschedule is an active-set change, which is a real trace
    // point even when the total rate happens to come out unchanged (e.g. a cancel
    // under a constant-capacity server).
    rate_trace_.Record(last_update_, total_rate_, /*force_point=*/true);
  }
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    const double denom = nominal_capacity_ > 0 ? nominal_capacity_ : 1.0;
    tracer->Counter("devices", name_, last_update_.seconds(), total_rate_ / denom);
  }
  // The states visible between events (where contention bugs live) can only be
  // checked here, not from the simulation's event-boundary sweep.
  if (SimAudit* audit = SimAudit::current()) {
    AuditInvariants(*audit, AuditPhase::kEventBoundary);
  }
}

SimTime FluidServer::EarliestHeadCompletion() const {
  SimTime earliest(-1.0);
  for (const ShareClass& cls : classes_) {
    if (!cls.jobs.empty() && (earliest < SimTime() || cls.HeadCompletion() < earliest)) {
      earliest = cls.HeadCompletion();
    }
  }
  return earliest;
}

void FluidServer::UpdateCompletionTimer() {
  const SimTime want = EarliestHeadCompletion();
  if (want == armed_at_ && (want < SimTime() || completion_event_.pending())) {
    return;  // The event already fires at the earliest head completion.
  }
  completion_event_.Cancel();
  armed_at_ = want;
  if (want >= SimTime()) {
    ++stats_.timer_rearms;
    // A zero-amount head can land a rounding error before now.
    completion_event_ = sim_->ScheduleAt(
        std::max(want, sim_->now()), [this] { OnCompletionEvent(); }, "fluid-complete");
  }
}

void FluidServer::OnCompletionEvent() {
  AdvanceProgress();
  const SimTime now = sim_->now();
  std::vector<Tag>& due = due_scratch_;
  for (ShareClass& cls : classes_) {
    while (!cls.jobs.empty() && cls.HeadDue(now)) {
      // Take back the overshoot served_ was credited past the tag.
      served_ -= std::max(0.0, cls.ServedAt(now) - cls.jobs.front().finish);
      due.push_back(cls.PopHead());
    }
  }
  // Collect the callbacks first, in admission order whichever classes the
  // batch came from: `done` callbacks may re-enter Submit(). The member
  // scratch keeps its capacity across completions; a re-entrant invocation (a
  // done callback driving the simulation back into this server) finds it busy
  // and falls back to a one-off local batch.
  if (due.size() > 1) {
    std::sort(due.begin(), due.end(), [](const Tag& a, const Tag& b) { return a.id < b.id; });
  }
  std::vector<InlineCallback> local;
  std::vector<InlineCallback>& done_callbacks = done_scratch_.empty() ? done_scratch_ : local;
  for (const Tag& tag : due) {
    done_callbacks.push_back(ReleaseSlot(tag.slot));
  }
  stats_.completions += due.size();
  due.clear();
  Reschedule();
  for (InlineCallback& done : done_callbacks) {
    done();
  }
  done_callbacks.clear();
}

double FluidServer::total_served() const {
  // Include progress accrued since the last bookkeeping update.
  const SimTime dt = sim_->now() - last_update_;
  return served_ + (dt > SimTime() ? total_rate_ * dt.seconds() : 0.0);
}

void FluidServer::EnableTrace() {
  trace_enabled_ = true;
  if (rate_trace_.empty()) {
    rate_trace_.Record(sim_->now(), 0.0);
  }
}

double FluidServer::MeanUtilization(SimTime from, SimTime to) const {
  MONO_CHECK(trace_enabled_);
  return rate_trace_.MeanUtilization(from, to, nominal_capacity_);
}

void FluidServer::SkewFinishTagForTest(RequestId id, double delta) {
  for (ShareClass& cls : classes_) {
    for (Tag& tag : cls.jobs) {
      if (tag.id == id) {
        tag.finish += delta;
        return;
      }
    }
  }
  MONO_CHECK_MSG(false, "SkewFinishTagForTest: unknown request id");
}

void FluidServer::SkewCompletionTimerForTest(SimTime delta) {
  MONO_CHECK(armed_at_ >= SimTime());
  completion_event_.Cancel();
  armed_at_ += delta;
  completion_event_ = sim_->ScheduleAt(std::max(armed_at_, sim_->now()),
                                       [this] { OnCompletionEvent(); }, "fluid-complete");
}

void FluidServer::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  const SimTime now = sim_->now();
  const char* source = name_.c_str();
  const double cap = last_capacity_;
  const double eps = 1e-9 * std::max(1.0, cap);

  // Per-class checks cover every member: a class's requests share one rate.
  // Dormant (empty) classes hold no requests and are skipped.
  const auto describe = [](const ShareClass& cls) {
    std::ostringstream d;
    d << cls.jobs.size() << " request(s) of share weight " << cls.share_weight << " (head "
      << cls.jobs.front().id << ")";
    return d.str();
  };
  double total_rate = 0.0;
  double reference_ratio = -1.0;
  for (const ShareClass& cls : classes_) {
    if (cls.jobs.empty()) {
      continue;
    }
    total_rate += cls.rate * static_cast<double>(cls.jobs.size());
    audit.ExpectLazy(cls.rate >= 0.0, now, source, "rate-non-negative", [&] {
      return describe(cls) + " have rate " + std::to_string(cls.rate);
    });
    const bool capped =
        per_request_cap_ != kUnlimited && cls.rate >= per_request_cap_ - eps;
    if (per_request_cap_ != kUnlimited) {
      audit.ExpectLazy(cls.rate <= per_request_cap_ + eps, now, source,
                       "per-request-cap", [&] {
                         std::ostringstream d;
                         d << describe(cls) << " rate " << cls.rate << " exceeds cap "
                           << per_request_cap_;
                         return d.str();
                       });
    }
    if (!capped) {
      // Weighted fairness: every class not pinned at the per-request cap must
      // receive rate proportional to its share weight (equal rate/share ratios).
      const double ratio = cls.rate / cls.share_weight;
      if (reference_ratio < 0.0) {
        reference_ratio = ratio;
      } else {
        const bool proportional =
            std::abs(ratio - reference_ratio) <=
            1e-6 * std::max(ratio, reference_ratio) + eps;
        audit.ExpectLazy(proportional, now, source, "weighted-share", [&] {
          std::ostringstream d;
          d << describe(cls) << " rate/weight " << ratio << " != reference "
            << reference_ratio << " (shares not proportional to weights)";
          return d.str();
        });
      }
    }
  }
  if (active_ > 0) {
    audit.ExpectLazy(total_rate <= cap + eps, now, source, "rate-conservation", [&] {
      std::ostringstream d;
      d << "total rate " << total_rate << " exceeds instantaneous capacity " << cap;
      return d.str();
    });
  }

  // Served work can never exceed the largest capacity ever granted × elapsed time.
  const double elapsed = (now - created_at_).seconds();
  const double bound = std::max(nominal_capacity_, max_capacity_seen_) * elapsed;
  const double served = total_served();
  audit.ExpectLazy(served <= bound + 1e-6 * std::max(1.0, bound), now, source,
                   "served-conservation", [&] {
                     std::ostringstream d;
                     d << "served " << served << " exceeds capacity bound " << bound
                       << " over " << elapsed << "s";
                     return d.str();
                   });

  // The class state: tags in heap order, none missed by its clock, and the
  // single completion event armed for the earliest head.
  const auto heap_ok = [](const ShareClass& cls) { return cls.HeapOrdered(); };
  const auto clock_ok = [now](const ShareClass& cls) { return cls.ClockConsistent(now); };
  const auto name_class = [&](auto&& ok, const char* what) {
    for (const ShareClass& cls : classes_) {
      if (!ok(cls)) {
        return describe(cls) + " " + what;
      }
    }
    return std::string();
  };
  audit.ExpectLazy(std::all_of(classes_.begin(), classes_.end(), heap_ok), now, source,
                   "fluid-class-heap-order",
                   [&] { return name_class(heap_ok, "have tags out of (finish, id) order"); });
  audit.ExpectLazy(std::all_of(classes_.begin(), classes_.end(), clock_ok), now, source,
                   "fluid-class-clock", [&] {
                     return name_class(clock_ok, "include a finish tag behind the class clock");
                   });
  const SimTime earliest = EarliestHeadCompletion();
  audit.ExpectLazy(armed_at_ == earliest && (active_ == 0 || completion_event_.pending()), now,
                   source, "completion-timer-at-head", [&] {
                     std::ostringstream d;
                     d << "completion event armed for " << armed_at_
                       << (completion_event_.pending() ? "" : " (not pending)")
                       << " but the earliest head completes at " << earliest;
                     return d.str();
                   });

  if (phase == AuditPhase::kDrain) {
    audit.ExpectLazy(active_ == 0, now, source, "drained", [&] {
      std::ostringstream d;
      d << active_ << " request(s) still active after the event queue drained";
      return d.str();
    });
  }
}

CapacityFn ConstantCapacity(double capacity) {
  MONO_CHECK(capacity > 0);
  return [capacity](double) { return capacity; };
}

CapacityFn HddCapacity(double bandwidth, double alpha) {
  MONO_CHECK(bandwidth > 0);
  MONO_CHECK(alpha >= 0);
  return [bandwidth, alpha](double active_weight) {
    return bandwidth / (1.0 + alpha * std::max(0.0, active_weight - 1.0));
  };
}

CapacityFn SsdCapacity(double bandwidth, int channels, double single_stream_fraction) {
  MONO_CHECK(bandwidth > 0);
  MONO_CHECK(channels >= 1);
  MONO_CHECK(single_stream_fraction > 0 && single_stream_fraction <= 1.0);
  return [bandwidth, channels, single_stream_fraction](double active_weight) {
    if (channels == 1) {
      return bandwidth;  // A single channel is saturated by any one request.
    }
    const double n = std::min(active_weight, static_cast<double>(channels));
    if (n <= 1.0) {
      return bandwidth * single_stream_fraction;
    }
    // Linear ramp from single_stream_fraction (one request) to 1.0 (channels busy).
    const double frac = single_stream_fraction + (1.0 - single_stream_fraction) *
                                                     (n - 1.0) /
                                                     static_cast<double>(channels - 1);
    return bandwidth * frac;
  };
}

}  // namespace monosim
