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
// A min-of-equal-shares model would strand capacity under asymmetric fan-in/out
// (m0→m1, m0→m1, m0→m2, m4→m2 gives the fourth flow bw/2 where max-min gives
// 2bw/3), distorting the shuffle-fetch patterns that separate Spark from the
// monotasks receiver-driven scheduler (§3.4). The audit's max-min-bottleneck
// check bounds rates from below and catches such a stranded rate.
//
// Incremental solving is organised around pair classes and three mechanisms
// (DESIGN §4):
//
//  * Pair classes. All live flows with the same (src, dst) form one class.
//    Max-min gives flows with identical constraints identical rates, and no
//    patch below ever splits a pair, so the solver, the side lists and the
//    completion index all work on classes. A class is a FluidClass
//    (simcore/fluid_class.h, the GPS virtual-time primitive FluidServer's CPU
//    and disk models share): one rate and a virtual clock (bytes served per
//    flow since the class became non-empty), with each flow's fixed finish
//    tag (clock at arrival + bytes) in the class's small (finish, id) heap, so
//    a rate change advances one clock and moves one completion entry however
//    many flows the pair carries.
//  * Epoch batching. All flow arrivals and departures carrying one simulation
//    timestamp are coalesced into a single progressive-filling pass, run from the
//    Simulation's end-of-epoch hook (Simulation::AtEpochEnd) just before the
//    clock advances — one solve per timestamp instead of one per event. Rate
//    queries (flow_rate, ActiveFlows, the audit) flush pending work first, so
//    callers never observe the transient mid-epoch state.
//  * Side rate sums. Every NIC side keeps only the running sum of its flows'
//    rates, updated in O(1) per class rate change. The few decisions that need
//    a side's top share (the local patches below) scan that side's class list.
//  * Local patches and closure solves. A single arrival or departure whose
//    delta provably cannot change the saturated-side structure is absorbed by a
//    local patch instead of any re-solve: an arrival opening a new pair that
//    fits the free capacity of both its sides with no larger share on a side it
//    saturates, or the departure of a pair's sole flow whose rate strictly
//    exceeds every other class's on each of its saturated sides. Every other
//    change is batched, and the flush solves the closure of the dirty sides —
//    every class transitively sharing a NIC side with a changed endpoint — from
//    scratch. Rates outside that connected component cannot change, and a
//    from-scratch solve is max-min fair by construction (DESIGN §8). A loaded
//    fabric is usually one component: once a collected closure spans every live
//    class, the next few dozen flushes solve the whole class list directly.
//
// Completion events go through a fabric-owned index rather than the simulation
// queue: each class's head completion lives in an indexed binary min-heap keyed
// on (time, head flow id), and a single "next completion" event tracks the
// minimum. Classes are solved and applied in ascending pair order and the heap
// pops in ascending (time, id) order, so the event schedule (and the run
// digest) never depends on traversal order.
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
#include "src/simcore/fluid_class.h"
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
    uint64_t flows_touched = 0;      // Σ component sizes (in flows) across those passes.
    uint64_t rate_changes = 0;       // Class rate installs that actually changed a rate.
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

  // Invariant auditing (audit.h): flow counts consistent with the per-machine
  // class lists (both directions) and the flow registry, the side rate sums
  // consistent with the class rates, the completion heap indexing exactly the
  // rated classes in heap order, each class's flow heap ordered on (finish, id)
  // with no finish tag behind its class clock, per-NIC ingress/egress rate sums
  // within the NIC bandwidth, rates non-negative, every class's rate certified
  // max-min fair (it touches at least one saturated NIC side where no class has
  // a larger share), and no flows left when the simulation drains. Pending epoch
  // work is flushed first, so the audit always certifies the batched solution,
  // never the mid-epoch transient.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

  // Test-only corruption for the audit's negative tests: shifts the key stored
  // in completion-heap slot `slot` by `delta` without re-sifting it or touching
  // the class's own predicted completion time.
  void SkewCompletionEntryForTest(size_t slot, monoutil::SimTime delta);

  // Test-only corruption for the max-min-bottleneck negative test: flushes
  // pending epoch work, then installs `rate` (positive, below the current rate)
  // on flow `id`'s pair class — and so on every flow of that pair — through
  // ApplyRate, so the side rate sums and the completion heap stay consistent
  // and only the stranded capacity is wrong.
  void LowerFlowRateForTest(FlowId id, monoutil::BytesPerSecond rate);

  // Test-only corruption for the pair-class negative test: shifts flow `id`'s
  // finish tag by `delta` in place, without restoring its class's heap.
  void SkewFinishTagForTest(FlowId id, monoutil::Bytes delta);

 private:
  // One live flow: its fixed finish tag on the class clock (the clock's reading
  // at arrival plus the flow's bytes) and its completion callback.
  struct Flow {
    double finish;
    FlowId id;
    InlineCallback done;
  };

  // Every live flow from `src` to `dst`, sharing one rate: a FluidClass
  // (simcore/fluid_class.h) whose clock counts bytes served per flow. Only
  // ApplyRate moves the clock's basis, so the indexed head completion is
  // always exactly HeadCompletion() and classmates with equal finish tags
  // complete at one bit-identical time. `predicted_done` is mirrored in the
  // completion heap at `completion_slot`.
  struct PairClass : FluidClass<Flow> {
    int src = 0;
    int dst = 0;
    size_t completion_slot = 0;
    uint64_t visit_stamp = 0;  // Closure membership stamp (one per collection).
    double level = 0.0;        // SolveMaxMin's result; 0 while unfrozen.
    size_t audit_registered = 0;  // Audit scratch: registry entries naming this class.
    monoutil::BytesPerSecond Rate() const { return monoutil::BytesPerSecond(rate); }
  };
  static bool PairBefore(const PairClass* a, const PairClass* b) {
    return a->src < b->src || (a->src == b->src && a->dst < b->dst);
  }

  static int EgressKey(int machine) { return 2 * machine; }
  static int IngressKey(int machine) { return 2 * machine + 1; }

  // Marks both endpoint sides of a change dirty and registers the end-of-epoch
  // flush with the simulation (once per open epoch).
  void MarkDirty(int src, int dst);
  void MarkSideDirty(int side_key);

  // Runs the deferred epoch work, if any: collects the closure of the dirty
  // sides (or reuses the full class list while a recent closure spanned it),
  // solves it from scratch, applies the rates in ascending pair order, and
  // records the touched ingress traces. Idempotent; no-op when clean.
  void FlushPending();
  // Const-context flush for the rate queries and the audit: pending epoch work is
  // deferred evaluation of state the caller is about to read, not a logical
  // mutation, so flushing from const observers is sound.
  void FlushPendingConst() const { const_cast<NetworkFabricSim*>(this)->FlushPending(); }

  // Local absorption of a single change while the fabric is clean (no dirty
  // sides). TryPatchArrival gives a just-opened class's only flow min(free
  // egress, free ingress) when that cannot disturb the existing bottleneck
  // structure; returns false if a full re-solve is needed. CanPatchDeparture
  // says whether removing `cls`'s head flow provably leaves every remaining
  // rate unchanged — never for a multi-flow class, whose classmates tie at the
  // departing flow's share and must rise.
  bool TryPatchArrival(PairClass* cls);
  bool CanPatchDeparture(const PairClass& cls) const;

  // All classes transitively sharing a NIC side with the seed sides, appended
  // to `component` (which is cleared first).
  void CollectFromSides(const std::vector<int>& seed_sides,
                        std::vector<PairClass*>* component);

  // The classes crossing one NIC side (egress list for even keys, ingress for odd).
  const std::vector<PairClass*>& SideClasses(int key) const {
    return (key % 2 == 0) ? egress_classes_[static_cast<size_t>(key / 2)]
                          : ingress_classes_[static_cast<size_t>(key / 2)];
  }
  int SideFlowCount(int key) const {
    return (key % 2 == 0) ? egress_count_[static_cast<size_t>(key / 2)]
                          : ingress_count_[static_cast<size_t>(key / 2)];
  }

  // Progressive-filling max-min rates for `component`, written into each
  // class's `level`. `component` must be closed under side sharing (a closure,
  // or every live class, which `identity_slots` vouches for): each of its
  // sides starts with its full bandwidth, so the result is a from-scratch
  // solve whatever rates the classes held before.
  void SolveMaxMin(const std::vector<PairClass*>& component, bool identity_slots);

  // The largest rate among the classes crossing side `key`, skipping `except`;
  // zero when no other class crosses it.
  double TopShare(int key, const PairClass* except = nullptr) const;

  // Advances `cls`'s clock under its old rate, then installs `new_rate`,
  // updates the side rate sums, and re-keys the class's completion entry.
  // Skips classes whose rate is unchanged, so symmetric recomputes cost nothing.
  void ApplyRate(PairClass* cls, monoutil::BytesPerSecond new_rate);
  // Side bookkeeping that tracks the saturated and busy side counts: a rate
  // sum moved by -remove +add, and `delta` flows on both of a pair's sides.
  void MoveSideRate(int key, monoutil::BytesPerSecond remove, monoutil::BytesPerSecond add);
  void CountFlow(int src, int dst, int delta);

  // Completion heap maintenance: IndexCompletion inserts `cls` at `at`, or
  // re-keys it with one sift; RemoveCompletion drops a retiring class's entry.
  // Sifts keep every moved class's completion_slot current.
  // UpdateCompletionTimer points the single simulation event at the minimum,
  // and OnNextCompletion completes every head flow due at the fired timestamp.
  struct CompletionEntry {
    SimTime at;
    FlowId id;  // The class's head flow.
    PairClass* cls;
  };
  static bool CompletesBefore(const CompletionEntry& a, const CompletionEntry& b) {
    return a.at < b.at || (a.at == b.at && a.id < b.id);
  }
  void IndexCompletion(PairClass* cls, SimTime at);
  void RemoveCompletion(PairClass* cls);
  void SiftCompletionUp(size_t slot);
  void SiftCompletionDown(size_t slot);
  void PlaceCompletion(size_t slot, const CompletionEntry& entry) {
    completions_[slot] = entry;
    entry.cls->completion_slot = slot;
  }
  void UpdateCompletionTimer();
  void OnNextCompletion();

  // Records the ingress rate trace and tracer counters for `machines` (deduped
  // by the caller where it matters). Callers check TracingIngress() — a trace
  // or a tracer wants samples — first, so the untraced path builds no list.
  bool TracingIngress() const;
  void RecordIngressTouched(const std::vector<int>& machines);

  // Completes `cls`'s head flow, retiring or re-keying the class, then
  // patches or batches the departure.
  void CompleteHead(PairClass* cls);

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

  // The live class for (src, dst), opened (arena-allocated, put on both side
  // lists) when absent; RetireClass undoes that once the class empties. ClassOf
  // finds a live flow's class in the registry; nullptr when absent.
  PairClass* ClassFor(int src, int dst);
  void RetireClass(PairClass* cls);
  PairClass* ClassOf(FlowId id) const;
  void ListClasses(std::vector<PairClass*>* out) const;

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

  // Flow registry: every live flow's id and class, in ascending id order. Ids
  // are assigned monotonically, so arrival is a push_back; departure (and
  // lookup) is a binary search.
  std::vector<std::pair<FlowId, PairClass*>> flows_by_id_;
  // Class arena: fixed-size blocks and a LIFO free list, allocated on demand.
  // Recycled classes keep their flow heaps' capacity, so steady-state churn is
  // allocation-free. Only the egress lists and flows_by_id_ decide order —
  // pointers never do (recycled addresses would otherwise leak into the schedule).
  std::vector<std::unique_ptr<PairClass[]>> class_blocks_;
  std::vector<PairClass*> free_classes_;
  size_t num_classes_ = 0;
  std::vector<int> ingress_count_;  // Flows per side.
  std::vector<int> egress_count_;
  // The live classes per side. Each egress list is kept in ascending dst
  // order, so the egress lists concatenated (ListClasses) are every live class
  // in ascending (src, dst) — the canonical solve order. Storage scales with
  // live pairs, not machines squared.
  std::vector<std::vector<PairClass*>> ingress_classes_;
  std::vector<std::vector<PairClass*>> egress_classes_;
  // Sum of the rates of the flows crossing each NIC side, indexed by
  // EgressKey/IngressKey. Maintained incrementally: a flow joining a class
  // adds the class rate, a rate change moves rate × class size, and a
  // departure removes one rate, so the sum is a fixed function of the change
  // sequence.
  std::vector<monoutil::BytesPerSecond> side_rate_sum_;
  // Head completion times as a binary min-heap on (time, head id), one entry
  // per rated class. One simulation event tracks the minimum.
  std::vector<CompletionEntry> completions_;
  EventHandle next_completion_;
  SimTime next_completion_time_{-1.0};
  FlowId next_id_ = 1;
  monoutil::Bytes total_bytes_;

  // Closure-collection scratch (CollectFromSides), reused across calls: classes
  // and sides are marked visited by stamp so nothing needs clearing between runs.
  uint64_t visit_stamp_ = 0;
  std::vector<uint64_t> side_visit_stamp_;
  std::vector<int> pending_sides_;

  // Solver scratch (SolveMaxMin), stamped or refilled per solve; it keeps its
  // capacity, so the steady-state solve allocates nothing.
  uint64_t solve_stamp_ = 0;
  std::vector<uint64_t> slot_stamp_;  // Side key -> last solve that used it.
  std::vector<int> slot_of_;          // Side key -> slot within that solve.
  std::vector<double> slot_consumed_;
  std::vector<int> slot_key_;         // Slot -> side key within this solve.
  std::vector<int> slot_unfrozen_;    // Unfrozen flows (not classes) per slot.
  std::vector<double> slot_cap_;  // Fill level at which the slot saturates.

  // Flush scratch (FlushPending), reused across epochs.
  std::vector<PairClass*> component_scratch_;
  std::vector<int> touched_scratch_;
  // Flushes left that may take the full class list without re-walking the
  // closure (armed when a collected closure spans every live class).
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
  mutable std::vector<PairClass*> audit_classes_;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_CLUSTER_NETWORK_H_
