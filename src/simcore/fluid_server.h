// FluidServer: a capacity-shared ("fluid") resource model for the discrete-event
// simulator.
//
// A FluidServer serves requests measured in abstract work units (CPU-seconds for a
// compute core pool, bytes for a disk). All admitted requests progress simultaneously;
// capacity is split in proportion to the requests' weights (weighted fair sharing),
// optionally capped per request (a single task thread cannot use more than one core) —
// capacity freed by capped requests is redistributed among the uncapped ones. Total
// capacity may itself depend on the number of active requests — this is how HDD seek
// degradation under concurrent streams and SSD channel parallelism are expressed:
//
//   * CPU pool of c cores:  capacity(n) = c,       per-request cap = 1 core
//   * HDD:                  capacity(n) = B / (1 + alpha * (n - 1))   (seek penalty)
//   * SSD with k channels:  capacity(n) = B * ramp(min(n, k) / k)
//
// Requests of one share weight always receive one common rate, so the server
// groups them into FluidClasses (simcore/fluid_class.h, the primitive the
// network fabric's pair classes use too): each class has one rate, a virtual
// clock of work served per request, and a heap of fixed finish tags. A submit
// or completion re-runs the weighted water-fill over classes (not requests),
// advances a class's clock only when its rate actually changes, and re-arms the
// server's single completion event only when the earliest head completion moves
// — O(log n) plus O(classes) per change, and the event count is proportional to
// the request count. CPU pools and disks submit every request with share
// weight 1, so in the simulator a server holds one class.
//
// The server also integrates served work over time and can record a (time,
// total-rate) step function for utilization plots (Figs 2 and 9 in the paper).
#ifndef MONOTASKS_SRC_SIMCORE_FLUID_SERVER_H_
#define MONOTASKS_SRC_SIMCORE_FLUID_SERVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/domain.h"
#include "src/simcore/audit.h"
#include "src/simcore/fluid_class.h"
#include "src/simcore/rate_trace.h"
#include "src/simcore/simulation.h"

namespace monosim {

// Total capacity (work units per second) available given the sum of the active
// requests' contention weights. Must be positive whenever any request is active.
// Weights let callers express that some request types contend less: a streaming disk
// write merged by the elevator costs less head movement than an interleaved read, so
// it carries a fractional weight.
//
// Config-time only: bound once at server construction, never on the event hot
// path, so the std::function indirection and its one-time allocation are fine.
// mono_lint: allow(std-function-hot-path) -- bound once at construction, never per event.
using CapacityFn = std::function<double(double active_weight)>;

class FluidServer : public Auditable {
 public:
  // Fluid servers model per-machine devices (CPU pools, disks); they are owned
  // by machine-domain components that outlive the simulation run, so `this`
  // captures into their own schedule sites cannot dangle.
  MONO_DOMAIN("machine");
  MONO_SIM_OWNED;

  // `per_request_cap` limits the rate any single request may receive; pass
  // kUnlimited for none. `name` is used in traces and error messages.
  static constexpr double kUnlimited = -1.0;

  FluidServer(Simulation* sim, std::string name, CapacityFn capacity,
              double per_request_cap = kUnlimited);
  ~FluidServer() override;

  FluidServer(const FluidServer&) = delete;
  FluidServer& operator=(const FluidServer&) = delete;

  // How capacity is divided among active requests. kWeightedFair is the model;
  // kEqualSplitLegacy reinstates the historical `cap / n` bug (weights ignored at
  // the split) so tests can demonstrate that the audit layer detects it.
  enum class SharePolicy {
    kWeightedFair,
    kEqualSplitLegacy,
  };
  void set_share_policy_for_test(SharePolicy policy) { share_policy_ = policy; }

  // Identifies an in-service request.
  using RequestId = uint64_t;

  // `share_weight` sentinel for Submit: share capacity in proportion to `weight`.
  static constexpr double kSameAsWeight = -1.0;

  // Admits a request for `amount` work units; `done` (any void() callable — its
  // capture draws pooled storage from the owning simulation's arena when it
  // exceeds the inline buffer) fires when the request completes. Requests are
  // serviced immediately — queueing policy belongs to the schedulers layered
  // above this class. `amount` may be zero, in which case `done` fires at the
  // current time. `amount` must be finite, and both weights finite and positive.
  //
  // `weight` (default 1) is the request's contention weight passed to the capacity
  // function — how much device capacity the request's presence costs. `share_weight`
  // is its weight in the fair split of that capacity — how much of it the request
  // receives relative to the others — and defaults to `weight`. They are separate
  // because cost and priority differ on real devices: a write interleaved with reads
  // costs an HDD most of its bandwidth (high contention weight) but the elevator
  // still serves both streams about equally (share weight 1), which is how DiskSim
  // submits it.
  template <typename F>
  RequestId Submit(double amount, F&& done, double weight = 1.0,
                   double share_weight = kSameAsWeight) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      return SubmitImpl(amount, std::forward<F>(done), weight, share_weight);
    } else {
      return SubmitImpl(
          amount, InlineCallback(std::forward<F>(done), sim_->callback_arena()),
          weight, share_weight);
    }
  }

  // Aborts an in-service request; its `done` callback never fires. Returns the
  // remaining (unserved) work.
  double CancelRequest(RequestId id);

  // Number of requests currently in service.
  int active() const { return active_; }

  // Total work units served so far (integrated over time).
  double total_served() const;

  // Always-on utilization/saturation accumulators (telemetry tentpole): virtual
  // seconds with at least one active request, and the subset of those during
  // which the granted total rate equaled the instantaneous capacity (the device
  // had no headroom — adding work could only queue). busy - saturated is the
  // window where the device ran but had spare capacity. Both integrate up to
  // the last bookkeeping update; they need no tracing.
  SimTime busy_seconds() const { return busy_seconds_; }
  SimTime saturated_seconds() const { return saturated_seconds_; }

  // Nominal capacity used as the denominator for utilization: capacity(1) unless
  // overridden via set_nominal_capacity (e.g. a CPU pool's core count).
  double nominal_capacity() const { return nominal_capacity_; }
  void set_nominal_capacity(double c) { nominal_capacity_ = c; }

  // Mean utilization over [from, to]: work served in the window divided by
  // nominal_capacity * (to - from). Requires tracing to be enabled.
  double MeanUtilization(SimTime from, SimTime to) const;

  // Enables recording of the (time, total service rate) step function.
  void EnableTrace();
  bool trace_enabled() const { return trace_enabled_; }

  // The recorded total-service-rate step function. Empty unless EnableTrace() was
  // called before the first request.
  const RateTrace& rate_trace() const { return rate_trace_; }

  const std::string& name() const { return name_; }

  // Deterministic work counters, reset-free: how many class rate installs
  // changed a rate (each advances one class clock), how often the single
  // completion event was (re)scheduled, and how many requests completed
  // (cancels excluded).
  struct Stats {
    uint64_t rate_changes = 0;
    uint64_t timer_rearms = 0;
    uint64_t completions = 0;
  };
  const Stats& stats() const { return stats_; }

  // Invariant auditing (audit.h): rates non-negative and within the per-request
  // cap, total rate within the instantaneous capacity, uncapped shares proportional
  // to weights, served work bounded by capacity × elapsed, each class's tag heap
  // in (finish, id) order with no tag behind its class clock, the completion
  // event armed at the earliest head completion, and no requests left active
  // when the simulation drains.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

  // Test-only corruptions for the audit's negative tests. SkewFinishTagForTest
  // shifts request `id`'s finish tag by `delta` work units in place, without
  // restoring its class's heap or re-arming the completion event;
  // SkewCompletionTimerForTest re-arms the completion event `delta` away from
  // the earliest head completion.
  void SkewFinishTagForTest(RequestId id, double delta);
  void SkewCompletionTimerForTest(SimTime delta);

 private:
  // A request's entry in its class heap: its fixed finish tag on the class
  // clock (the clock's reading at admission plus the request's amount) and
  // the slot holding the rest of it. Kept to a few words so heap sifts never
  // move a callback.
  struct Tag {
    double finish;
    RequestId id;
    uint32_t slot;
  };
  // The rest of an active request, parked in `slots_`.
  struct Pending {
    double weight = 1.0;  // Contention weight (capacity-function input).
    InlineCallback done;
  };
  // Every active request of one share weight, sharing one rate.
  struct ShareClass : FluidClass<Tag> {
    double share_weight = 1.0;
    // mono_lint: allow(raw-unit-double) -- water-fill scratch, work units per second.
    double fill_rate = 0.0;  // The rate the current water-fill assigns; 0 while open.
  };

  // Shared implementation behind the Submit template.
  RequestId SubmitImpl(double amount, InlineCallback&& done, double weight,
                       double share_weight);

  // Recomputes the class rates for the current active set (advancing the
  // clock of each class whose rate changes) and re-arms the completion event
  // if the earliest head completion moved.
  void Reschedule();
  // Weighted water-fill of `capacity` over the classes, into fill_rate.
  void FillRates(double capacity);
  void UpdateCompletionTimer();

  // Integrates served work and the busy/saturated time since `last_update_`.
  void AdvanceProgress();

  // Fires completions for every request whose tag its class clock has reached.
  void OnCompletionEvent();

  // The class for `share_weight`, (re)opened on a dormant or new class when
  // no live class carries the weight.
  ShareClass& ClassFor(double share_weight);
  // Adds `delta` requests of contention weight `weight` to the active multiset.
  void CountContention(double weight, int delta);
  // Retires an active request's slot: drops its contention weight, frees the
  // slot and hands back its callback.
  InlineCallback ReleaseSlot(uint32_t slot);
  // The earliest head completion over the live classes; negative when idle.
  SimTime EarliestHeadCompletion() const;

  Simulation* sim_;
  std::string name_;
  CapacityFn capacity_;
  double per_request_cap_;
  double nominal_capacity_;

  // One class per distinct share weight among the active requests, in order
  // of creation. A class that empties stays as a dormant (empty) slot and is
  // reopened for the next new weight, so the vector is bounded by the peak
  // number of concurrent weights and steady-state churn allocates nothing.
  std::vector<ShareClass> classes_;
  // Active requests' weights and callbacks, indexed by Tag::slot, with a LIFO
  // free list of vacated slots.
  std::vector<Pending> slots_;
  std::vector<uint32_t> free_slots_;
  // The active requests' distinct contention weights with their counts,
  // ascending by weight: the capacity function's input is then a function of
  // the active multiset alone, never of admission history.
  std::vector<std::pair<double, int>> contention_;
  int active_ = 0;
  double total_rate_ = 0.0;  // Granted work units per second: Σ class rate × size.
  // Scratch for OnCompletionEvent: the due tags, and their harvested
  // callbacks (re-entrant invocations fall back to a local batch).
  std::vector<Tag> due_scratch_;
  std::vector<InlineCallback> done_scratch_;
  RequestId next_id_ = 1;
  SimTime last_update_;
  double served_ = 0.0;  // Work units, not a unit-bearing quantity.
  SimTime busy_seconds_;
  SimTime saturated_seconds_;
  EventHandle completion_event_;
  // The earliest head completion the event was armed for (it fires at the
  // later of that and the arming time); negative when disarmed.
  SimTime armed_at_{-1.0};
  SharePolicy share_policy_ = SharePolicy::kWeightedFair;
  Stats stats_;

  // Audit bookkeeping: when the server was created, the capacity in effect for the
  // current active set, and the largest capacity ever granted (the conservation
  // bound — an SSD's capacity can exceed capacity(1), so nominal alone is too
  // tight a ceiling).
  SimTime created_at_;
  double last_capacity_ = 0.0;
  double max_capacity_seen_ = 0.0;

  bool trace_enabled_ = false;
  RateTrace rate_trace_;
};

// Convenience capacity functions.

// Constant capacity regardless of concurrency (CPU pools, network links).
CapacityFn ConstantCapacity(double capacity);

// HDD model: full bandwidth for one stream-weight, degrading as
// 1 / (1 + alpha * (w - 1)) with total contention weight w.
// Capacity models are in the server's abstract work units per second; disk
// call sites unwrap BytesPerSecond via .bps().
// mono_lint: allow(raw-unit-double) -- abstract work units per second.
CapacityFn HddCapacity(double bandwidth, double alpha);

// SSD model: bandwidth scales up with outstanding requests until `channels` worth of
// weight are busy; `single_stream_fraction` of peak is available to a lone request.
// mono_lint: allow(raw-unit-double) -- same abstract work units as above.
CapacityFn SsdCapacity(double bandwidth, int channels, double single_stream_fraction);

}  // namespace monosim

#endif  // MONOTASKS_SRC_SIMCORE_FLUID_SERVER_H_
