// NetworkFabricSim: a full-bisection fabric connecting the machines' NICs.
//
// Each machine has a full-duplex NIC whose ingress and egress sides are separate
// bandwidth constraints. Flow rates are the max-min fair allocation over those
// constraints, computed by progressive filling (water-filling): all flows' rates
// rise together until some NIC side saturates, the flows crossing it freeze at
// their fair share, and the remaining flows keep rising through the residual
// capacity until every flow is bottlenecked at some saturated NIC. The allocation
// is therefore work-conserving: capacity one flow cannot use (because it is
// bottlenecked elsewhere) is redistributed to the flows that can.
//
// The previous model gave each flow min(egress share at src, ingress share at dst)
// with each NIC splitting equally among the flows it carries. That is exact for
// symmetric all-to-all shuffles but strands capacity under asymmetric fan-in/out —
// with flows m0→m1, m0→m1, m0→m2, m4→m2 it gave the fourth flow bw/2 where max-min
// gives 2bw/3 — distorting exactly the asymmetric shuffle-fetch patterns that
// distinguish Spark's many-concurrent-fetch behaviour from the monotasks
// receiver-driven scheduler (§3.4). The audit's max-min-bottleneck check bounds
// rates from below and catches such a stranded rate; the test-only
// LowerFlowRateForTest hook plants one to demonstrate it.
//
// Incremental solving is organised around three mechanisms (DESIGN §4):
//
//  * Epoch batching. All flow arrivals and departures carrying one simulation
//    timestamp are coalesced into a single progressive-filling pass, run from the
//    Simulation's end-of-epoch hook (Simulation::AtEpochEnd) just before the
//    clock advances — one solve per timestamp instead of one per event. Rate
//    queries (flow_rate, ActiveFlows, the audit) flush pending work first, so
//    callers never observe the transient mid-epoch state.
//  * Side rate sums. Every NIC side keeps only the running sum of its flows'
//    rates, updated in O(1) per rate change. The few decisions that need a
//    side's top share (the local patches below) scan that side's flow list,
//    which carries a handful of flows: a rare short scan costs less than
//    keeping every side sorted through every rate change.
//  * Local patches and closure solves. A single arrival or departure whose
//    delta provably cannot change the saturated-side structure is absorbed by a
//    local patch instead of any re-solve: an arrival that fits the free
//    capacity of both its sides with no larger share on a side it saturates, or
//    a departure whose rate strictly exceeds every other flow's on each of its
//    saturated sides (so nobody was bottlenecked behind it). Every other change
//    is batched, and the flush solves the closure of the dirty sides — every
//    flow transitively sharing a NIC side with a changed endpoint — from
//    scratch. Rates outside that connected component cannot change, so the
//    closure is always sufficient, and a from-scratch solve is max-min fair by
//    construction (DESIGN §8). A loaded fabric is usually one component: once a
//    collected closure spans every live flow, the next few dozen flushes solve
//    the whole flow list directly and skip the collection walk.
//
// Completion events go through a fabric-owned index rather than the simulation
// queue: each flow's predicted completion time lives in an indexed binary
// min-heap keyed on (time, id), each flow remembering its heap slot, and a
// single "next completion" event tracks the minimum. A rate change then re-keys
// the flow with one O(log n) sift instead of cancelling and rescheduling a
// per-flow simulation event — the dominant cost of churn once solving itself
// is batched, since a max-min cascade re-times many completions per delta. Rates
// are solved and applied in ascending flow-id order, and the heap pops in
// ascending (time, id) order, so the event schedule (and the run digest) never
// depends on traversal order.
#ifndef MONOTASKS_SRC_CLUSTER_NETWORK_H_
#define MONOTASKS_SRC_CLUSTER_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/domain.h"
#include "src/simcore/audit.h"
#include "src/simcore/rate_trace.h"
#include "src/simcore/simulation.h"

namespace monosim {

class NetworkFabricSim : public Auditable {
 public:
  // The fabric is its own ownership domain: flows and control messages are the
  // sanctioned channel between machines. Owned by ClusterSim, which outlives
  // the simulation run, so `this` captures into its own schedule sites cannot
  // dangle (the alive_ guard additionally covers mid-run teardown).
  MONO_DOMAIN("fabric");
  MONO_SIM_OWNED;

  // All NICs share one bandwidth (each direction). `request_latency` is the one-way
  // delay for small control messages (shuffle data requests).
  NetworkFabricSim(Simulation* sim, int num_machines, monoutil::BytesPerSecond nic_bandwidth,
                   monoutil::SimTime request_latency = monoutil::Millis(1));
  ~NetworkFabricSim() override;

  NetworkFabricSim(const NetworkFabricSim&) = delete;
  NetworkFabricSim& operator=(const NetworkFabricSim&) = delete;

  using FlowId = uint64_t;

  // Starts a bulk data flow of `bytes` from machine `src` to machine `dst` (src !=
  // dst); `done` (any void() callable; oversize captures draw pooled storage
  // from the owning simulation's arena) fires when the last byte arrives.
  template <typename F>
  FlowId StartFlow(int src, int dst, monoutil::Bytes bytes, F&& done) {
    return StartFlowImpl(src, dst, bytes, WrapCallback(std::forward<F>(done)));
  }

  // Delivers a small control message from `src` to `dst` after the request latency.
  template <typename F>
  void SendControl(int src, int dst, F&& deliver) {
    SendControlImpl(src, dst, WrapCallback(std::forward<F>(deliver)));
  }

  int num_machines() const { return static_cast<int>(ingress_count_.size()); }
  monoutil::BytesPerSecond nic_bandwidth() const { return nic_bandwidth_; }
  monoutil::SimTime request_latency() const { return request_latency_; }

  // Number of flows currently arriving at / departing from `machine`.
  int ingress_flows(int machine) const;
  int egress_flows(int machine) const;

  // Current rate of an active flow. Flushes pending epoch work.
  monoutil::BytesPerSecond flow_rate(FlowId id) const;

  // Snapshot of the active flow set, for the property tests that compare the
  // incremental allocation against a reference max-min solver. Flushes pending
  // epoch work.
  struct FlowInfo {
    FlowId id;
    int src;
    int dst;
    monoutil::BytesPerSecond rate;
  };
  std::vector<FlowInfo> ActiveFlows() const;

  monoutil::Bytes total_bytes_transferred() const { return total_bytes_; }

  // Solver instrumentation, reset-free counters for the benches: how often the
  // progressive-filling solver actually ran, how many flows it touched, and how
  // much work the batching and patch layers absorbed. `flows_touched` counts flows
  // per solve, so touched/solves is the mean re-solved component size.
  struct SolverStats {
    uint64_t solves = 0;             // Progressive-filling passes run.
    uint64_t flows_touched = 0;      // Σ component sizes across those passes.
    uint64_t rate_changes = 0;       // Rate installs that actually changed a rate.
    uint64_t epochs_flushed = 0;     // End-of-epoch flushes that found dirty state.
    uint64_t batched_changes = 0;    // Arrivals/departures coalesced into flushes.
    uint64_t patched_arrivals = 0;   // Arrivals absorbed by the local patch.
    uint64_t patched_departures = 0; // Departures absorbed by the local patch.
  };
  const SolverStats& solver_stats() const { return stats_; }

  // Always-on utilization/saturation integrals over NIC sides (two per machine:
  // egress and ingress), the fabric analogue of FluidServer::busy_seconds():
  // the sum over sides of virtual seconds carrying at least one flow, and the
  // subset during which the side's allocated rate sum consumed the full NIC
  // bandwidth (the side was a max-min bottleneck). Dividing by 2*num_machines
  // gives mean per-side utilization; saturated/busy is the fraction of carried
  // time with no headroom. Both integrate up to now and need no tracing.
  monoutil::SimTime busy_side_seconds() const;
  monoutil::SimTime saturated_side_seconds() const;

  // Per-machine ingress rate trace (enabled for all machines by EnableTrace).
  void EnableTrace();
  const RateTrace& ingress_trace(int machine) const;
  double MeanIngressUtilization(int machine, SimTime from, SimTime to) const;

  // Invariant auditing (audit.h): flow counts consistent with the per-machine flow
  // lists (both directions), the side rate sums consistent with the flow rates,
  // the completion heap indexing exactly the rated flows in heap order,
  // per-NIC ingress/egress rate sums within the NIC bandwidth, flow rates
  // non-negative, every flow's rate certified max-min fair (it touches at least
  // one saturated NIC side where no flow has a larger share), and no flows left
  // when the simulation drains. Pending epoch work is flushed first, so the audit
  // always certifies the batched solution, never the mid-epoch transient.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

  // Test-only corruption for the audit's negative tests: shifts the key stored
  // in completion-heap slot `slot` by `delta` without re-sifting it or touching
  // the flow's own predicted completion time.
  void SkewCompletionEntryForTest(size_t slot, monoutil::SimTime delta);

  // Test-only corruption for the max-min-bottleneck negative test: flushes
  // pending epoch work, then installs `rate` (positive, below the flow's
  // current rate) on flow `id` through ApplyRate, so the side rate sums and the
  // completion heap stay consistent and only the stranded capacity is wrong.
  void LowerFlowRateForTest(FlowId id, monoutil::BytesPerSecond rate);

 private:
  struct Flow {
    FlowId id;
    int src;
    int dst;
    // Bytes still to move, fractional: fluid-model progress under a rate leaves
    // sub-byte residues mid-transfer, so this is not an exact monoutil::Bytes.
    double remaining;
    monoutil::BytesPerSecond rate;
    SimTime last_update;
    InlineCallback done;
    // Absolute predicted completion time, mirrored in the completion heap at
    // `completion_slot`; negative while the flow is not in the heap (not yet
    // assigned a rate, or already popped for completion).
    SimTime predicted_done{-1.0};
    size_t completion_slot = 0;
    uint64_t visit_stamp = 0;  // Closure membership stamp (one stamp per collection).
  };

  static int EgressKey(int machine) { return 2 * machine; }
  static int IngressKey(int machine) { return 2 * machine + 1; }

  // Marks both endpoint sides of a change dirty and registers the end-of-epoch
  // flush with the simulation (once per open epoch).
  void MarkDirty(int src, int dst);
  void MarkSideDirty(int side_key);

  // Runs the deferred epoch work, if any: collects the closure of the dirty
  // sides (or reuses the full flow list while a recent closure spanned it),
  // solves it from scratch, applies the rates in ascending flow-id order, and
  // records the touched ingress traces. Idempotent; no-op when clean.
  void FlushPending();
  // Const-context flush for the rate queries and the audit: pending epoch work is
  // deferred evaluation of state the caller is about to read, not a logical
  // mutation, so flushing from const observers is sound.
  void FlushPendingConst() const { const_cast<NetworkFabricSim*>(this)->FlushPending(); }

  // Local absorption of a single change while the fabric is clean (no dirty
  // sides). TryPatchArrival gives the new flow min(free egress, free ingress)
  // when that cannot disturb the existing bottleneck structure; returns false if
  // a full re-solve is needed. CanPatchDeparture says whether removing `flow`
  // provably leaves every remaining rate unchanged.
  bool TryPatchArrival(Flow* flow);
  bool CanPatchDeparture(const Flow& flow) const;

  // All flows transitively sharing a NIC side with the seed sides, appended to
  // `component` (which is cleared first).
  void CollectFromSides(const std::vector<int>& seed_sides, std::vector<Flow*>* component);

  // The flows crossing one NIC side (egress list for even keys, ingress for odd).
  const std::vector<Flow*>& SideFlows(int key) const {
    return (key % 2 == 0) ? egress_flows_[static_cast<size_t>(key / 2)]
                          : ingress_flows_[static_cast<size_t>(key / 2)];
  }

  // Reorders `flows` into ascending flow-id order (the canonical order rates are
  // solved and applied in). Sorting (id, ptr) pairs keeps the comparisons out of
  // the flows' cache lines.
  void SortByFlowId(std::vector<Flow*>* flows);

  // Progressive-filling max-min rates for `component`, written into `new_rates`
  // (parallel to `component`). `component` must be closed under side sharing
  // (a closure, or every live flow): each of its sides starts with its full
  // bandwidth and no fixed consumption, so the result is a from-scratch solve
  // whatever rates the flows held before. Each round freezes the flows of the
  // side with the lowest saturation level, found by scanning the per-slot
  // level cache. Non-const: the slot table lives in persistent scratch members
  // so the per-epoch solve does not pay a fresh round of allocations. With
  // `identity_slots` the caller vouches that `component` spans every live
  // flow; slots are then the side keys themselves and the stamped side->slot
  // map is skipped entirely.
  void SolveMaxMin(const std::vector<Flow*>& component, std::vector<double>* new_rates,
                   bool identity_slots);

  // The largest rate among the flows crossing side `key`, skipping `except`;
  // zero when no other flow crosses it.
  double TopShare(int key, const Flow* except = nullptr) const;

  // Advances `flow`'s progress under its old rate, then installs `new_rate`,
  // updates the side rate sums, and re-keys the flow in the completion heap.
  // Skips flows whose rate is unchanged, so symmetric recomputes cost nothing.
  void ApplyRate(Flow* flow, monoutil::BytesPerSecond new_rate);

  // Completion heap maintenance: IndexCompletion inserts `flow` at `at`, or
  // re-keys it with one sift if it is already in the heap; PopCompletion
  // removes the (time, id)-minimum and returns its flow id. Sifts keep every
  // moved flow's completion_slot current. UpdateCompletionTimer points the
  // single simulation event at the minimum, and OnNextCompletion completes
  // every flow due at the fired timestamp.
  struct CompletionEntry {
    SimTime at;
    FlowId id;
    Flow* flow;
  };
  static bool CompletesBefore(const CompletionEntry& a, const CompletionEntry& b) {
    return a.at < b.at || (a.at == b.at && a.id < b.id);
  }
  void IndexCompletion(Flow* flow, SimTime at);
  FlowId PopCompletion();
  void SiftCompletionUp(size_t slot);
  void SiftCompletionDown(size_t slot);
  void PlaceCompletion(size_t slot, const CompletionEntry& entry) {
    completions_[slot] = entry;
    entry.flow->completion_slot = slot;
  }
  void UpdateCompletionTimer();
  void OnNextCompletion();

  // Records the ingress rate trace and tracer counters for `machines` (deduped
  // by the caller where it matters; harmless when repeated).
  void RecordIngressTouched(const std::vector<int>& machines);

  void OnFlowComplete(FlowId id);

  // Wraps a caller's callback against the owning simulation's arena; a
  // ready-made InlineCallback passes through. Shared by the StartFlow and
  // SendControl templates.
  template <typename F>
  InlineCallback WrapCallback(F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      return std::forward<F>(fn);
    } else {
      return InlineCallback(std::forward<F>(fn), sim_->callback_arena());
    }
  }

  // Out-of-line implementations behind the StartFlow/SendControl templates.
  FlowId StartFlowImpl(int src, int dst, monoutil::Bytes bytes, InlineCallback&& done);
  void SendControlImpl(int src, int dst, InlineCallback&& deliver);

  // Arena allocation: pop the free list (growing it by a block when empty) and
  // reset the recycled struct's solver-visible fields; completed flows go back
  // on the list. The live flow with `id`, found by binary search on the
  // id-ordered registry; nullptr when absent.
  Flow* AllocFlow();
  void FreeFlow(Flow* flow) { free_flows_.push_back(flow); }
  Flow* FindFlow(FlowId id) const;

  void RecordIngressRates(const std::vector<int>& machines);

  // Advances the side-time integrals to `now` under the current busy/saturated
  // side counts (both constant since the last accumulation). Called before any
  // mutation that changes a side's flow count or rate sum; the mutations in a
  // same-timestamp batch contribute zero dt, and only the final counts survive
  // into the next non-zero interval. Const (with mutable integrals) so the
  // read accessors can bring the totals up to now.
  void AccumulateSideTime(SimTime now) const;
  bool SideSaturated(int side_key) const {
    const double bw = nic_bandwidth_.bps();
    return side_rate_sum_[static_cast<size_t>(side_key)].bps() >=
           bw - 1e-9 * std::max(1.0, bw);
  }

  Simulation* sim_;
  monoutil::BytesPerSecond nic_bandwidth_;
  monoutil::SimTime request_latency_;

  // Flow registry: every live flow in ascending id order — the canonical solve
  // order. Ids are assigned monotonically, so arrival is a push_back; departure
  // (and lookup) is a binary search. Full-component solves (the common case in
  // a loaded fabric) take this list verbatim instead of re-sorting the
  // collected set. The structs themselves come from a pooled arena below.
  std::vector<Flow*> flows_by_id_;
  // Flow arena: fixed-size blocks and a LIFO free list. Pooling keeps the
  // structs clustered in a few pages, so the solver's and audit's walks don't
  // chase one heap allocation per flow; recycling makes steady-state churn
  // allocation-free. Only flows_by_id_ decides identity and order — pointers
  // never do (recycled addresses would otherwise leak into the schedule).
  std::vector<std::unique_ptr<Flow[]>> flow_blocks_;
  std::vector<Flow*> free_flows_;
  std::vector<int> ingress_count_;
  std::vector<int> egress_count_;
  std::vector<std::vector<Flow*>> ingress_flows_;
  std::vector<std::vector<Flow*>> egress_flows_;
  // Sum of the rates of the flows crossing each NIC side, indexed by
  // EgressKey/IngressKey. Maintained incrementally by flow add/remove and
  // ApplyRate: add contributes += 0, a rate change -= old then += new, and a
  // removal -= rate, so the sum is a fixed function of the change sequence.
  std::vector<monoutil::BytesPerSecond> side_rate_sum_;
  // Predicted completion times as a binary min-heap on (time, id). One
  // simulation event tracks the minimum; per-flow events would pay a queue
  // cancel+reschedule for every rate change a cascade re-times.
  std::vector<CompletionEntry> completions_;
  EventHandle next_completion_;
  SimTime next_completion_time_{-1.0};
  FlowId next_id_ = 1;
  monoutil::Bytes total_bytes_;

  // Closure-collection scratch (CollectFromSides), reused across calls: flows and
  // sides are marked visited by stamp so nothing needs clearing between runs.
  uint64_t visit_stamp_ = 0;
  std::vector<uint64_t> side_visit_stamp_;
  std::vector<int> pending_sides_;

  // Solver scratch (SolveMaxMin): the side-key -> slot map is stamped per solve
  // and per-slot state keeps its capacity across solves, so the steady-state
  // solve allocates nothing.
  uint64_t solve_stamp_ = 0;
  std::vector<uint64_t> slot_stamp_;  // Side key -> last solve that used it.
  std::vector<int> slot_of_;          // Side key -> slot within that solve.
  std::vector<double> slot_consumed_;
  std::vector<int> slot_unfrozen_;
  std::vector<double> slot_cap_;  // Fill level at which the slot saturates.
  // Slot -> component-flow-index adjacency, CSR layout (slot_cursor_ is the
  // fill pass's write cursor).
  std::vector<int> slot_adj_offset_;
  std::vector<int> slot_adj_;
  std::vector<int> slot_cursor_;
  std::vector<int> egress_slot_;
  std::vector<int> ingress_slot_;
  std::vector<char> frozen_;

  // Flush scratch (FlushPending), reused across epochs.
  std::vector<Flow*> component_scratch_;
  std::vector<std::pair<FlowId, Flow*>> sort_scratch_;
  std::vector<double> rates_scratch_;
  std::vector<int> touched_scratch_;
  // Flushes left that may take the full flow list without re-walking the
  // closure (armed when a collected closure spans every live flow).
  int spanning_revalidate_ = 0;

  // Epoch-batching state: the NIC sides touched by changes since the last flush,
  // deduplicated by stamp, plus whether the end-of-epoch flush is registered.
  std::vector<int> dirty_sides_;
  std::vector<uint64_t> side_dirty_stamp_;
  uint64_t dirty_stamp_ = 1;
  bool flush_registered_ = false;
  // Lets a registered-but-unfired end-of-epoch flush outlive the fabric safely:
  // the callback holds a copy and no-ops once the flag is cleared.
  std::shared_ptr<bool> alive_;

  SolverStats stats_;

  // Utilization-telemetry state (AccumulateSideTime): the integrals, the time
  // they are advanced to, and the side counts they advance under. busy = sides
  // carrying >= 1 flow; saturated = sides whose rate sum consumes the NIC
  // bandwidth, maintained incrementally at every rate-sum update.
  mutable SimTime busy_side_seconds_;
  mutable SimTime saturated_side_seconds_;
  mutable SimTime side_accum_at_;
  int busy_side_count_ = 0;
  int saturated_side_count_ = 0;

  bool trace_enabled_ = false;
  std::vector<RateTrace> ingress_traces_;

  // Audit scratch: per-machine ground-truth sums/maxima recomputed by every
  // epoch-boundary sweep. Mutable because AuditInvariants is const — the sweep
  // reuses the buffers, it does not change observable fabric state.
  mutable std::vector<double> audit_ingress_sum_;
  mutable std::vector<double> audit_ingress_max_;
  mutable std::vector<double> audit_egress_sum_;
  mutable std::vector<double> audit_egress_max_;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_CLUSTER_NETWORK_H_
