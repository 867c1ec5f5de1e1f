// Reference per-request fluid server for the FluidServer property tests.
//
// This is the straightforward integrator FluidServer used before it moved to
// virtual-clock classes: every request carries its own `remaining` work and
// `rate`; every submit, cancel and completion drains all requests to the
// current time, re-runs the weighted water-fill over the individual requests
// (proportional to share weight, pinning requests at the per-request cap and
// re-splitting the surplus) and re-arms one completion event at the earliest
// remaining/rate. It is O(n) per change and deliberately naive; the property
// tests drive it and FluidServer through identical request scripts, so a bug
// would have to appear identically in two differently-structured
// implementations to slip through.
#ifndef MONOTASKS_TESTS_FLUID_REFERENCE_H_
#define MONOTASKS_TESTS_FLUID_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"

namespace monosim {
namespace testutil {

class ReferenceFluidServer {
 public:
  using RequestId = uint64_t;

  ReferenceFluidServer(Simulation* sim, CapacityFn capacity,
                       double per_request_cap = FluidServer::kUnlimited)
      : sim_(sim), capacity_(std::move(capacity)), per_request_cap_(per_request_cap) {}

  RequestId Submit(double amount, std::function<void()> done, double weight,
                   double share_weight) {
    AdvanceProgress();
    const RequestId id = next_id_++;
    active_.push_back(Request{id, amount, weight, share_weight, 0.0, std::move(done)});
    Reschedule();
    return id;
  }

  // Returns the remaining (unserved) work; the request's callback never fires.
  double CancelRequest(RequestId id) {
    AdvanceProgress();
    for (auto it = active_.begin(); it != active_.end(); ++it) {
      if (it->id == id) {
        const double remaining = it->remaining;
        active_.erase(it);
        Reschedule();
        return remaining;
      }
    }
    MONO_CHECK_MSG(false, "reference CancelRequest: unknown request id");
    return 0.0;
  }

  int active() const { return static_cast<int>(active_.size()); }

 private:
  static constexpr double kCompletionEpsilonSeconds = 1e-9;

  struct Request {
    RequestId id;
    double remaining;
    double weight;
    double share_weight;
    double rate;
    std::function<void()> done;
  };

  void AdvanceProgress() {
    const double dt = (sim_->now() - last_update_).seconds();
    if (dt > 0) {
      for (Request& req : active_) {
        req.remaining -= std::min(req.remaining, req.rate * dt);
      }
    }
    last_update_ = sim_->now();
  }

  void Reschedule() {
    if (!active_.empty()) {
      double total_weight = 0.0;
      for (const Request& req : active_) {
        total_weight += req.weight;
      }
      double remaining_cap = capacity_(total_weight);
      std::vector<Request*> open;
      for (Request& req : active_) {
        open.push_back(&req);
      }
      while (!open.empty()) {
        double open_weight = 0.0;
        for (const Request* req : open) {
          open_weight += req->share_weight;
        }
        const double pass_cap = remaining_cap;
        bool pinned_any = false;
        for (auto it = open.begin(); it != open.end();) {
          const double proportional = pass_cap * (*it)->share_weight / open_weight;
          if (per_request_cap_ != FluidServer::kUnlimited && proportional >= per_request_cap_) {
            (*it)->rate = per_request_cap_;
            remaining_cap -= per_request_cap_;
            it = open.erase(it);
            pinned_any = true;
          } else {
            ++it;
          }
        }
        if (!pinned_any) {
          for (Request* req : open) {
            req->rate = pass_cap * req->share_weight / open_weight;
          }
          break;
        }
      }
    }
    completion_event_.Cancel();
    if (active_.empty()) {
      return;
    }
    SimTime min_time{std::numeric_limits<double>::infinity()};
    for (const Request& req : active_) {
      min_time = std::min(min_time, SimTime(req.remaining / req.rate));
    }
    completion_event_ = sim_->ScheduleAfter(min_time, [this] { OnCompletionEvent(); });
  }

  void OnCompletionEvent() {
    AdvanceProgress();
    std::vector<std::function<void()>> done;
    size_t out = 0;
    for (size_t i = 0; i < active_.size(); ++i) {
      if (active_[i].remaining <= std::max(active_[i].rate, 1.0) * kCompletionEpsilonSeconds) {
        done.push_back(std::move(active_[i].done));
      } else {
        if (out != i) {
          active_[out] = std::move(active_[i]);
        }
        ++out;
      }
    }
    active_.resize(out);
    Reschedule();
    for (auto& fn : done) {
      fn();
    }
  }

  Simulation* sim_;
  CapacityFn capacity_;
  double per_request_cap_;
  std::vector<Request> active_;  // Admission order.
  RequestId next_id_ = 1;
  SimTime last_update_;
  EventHandle completion_event_;
};

}  // namespace testutil
}  // namespace monosim

#endif  // MONOTASKS_TESTS_FLUID_REFERENCE_H_
