#include "src/cluster/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/tracer.h"

namespace monosim {
namespace {

constexpr double kCompletionEpsilonSeconds = 1e-9;

// How many flushes may reuse a spanning closure before it is
// re-collected (see FlushPending): long enough to amortize the walk away,
// short enough that a fabric that splits into components soon stops paying
// for full-width solves.
constexpr int kSpanningRevalidateInterval = 63;

}  // namespace

NetworkFabricSim::NetworkFabricSim(Simulation* sim, int num_machines,
                                   monoutil::BytesPerSecond nic_bandwidth,
                                   monoutil::SimTime request_latency)
    : sim_(sim),
      nic_bandwidth_(nic_bandwidth),
      request_latency_(request_latency),
      ingress_count_(static_cast<size_t>(num_machines), 0),
      egress_count_(static_cast<size_t>(num_machines), 0),
      ingress_flows_(static_cast<size_t>(num_machines)),
      egress_flows_(static_cast<size_t>(num_machines)),
      side_rate_sum_(static_cast<size_t>(2 * num_machines)),
      side_visit_stamp_(static_cast<size_t>(2 * num_machines), 0),
      slot_stamp_(static_cast<size_t>(2 * num_machines), 0),
      slot_of_(static_cast<size_t>(2 * num_machines), 0),
      side_dirty_stamp_(static_cast<size_t>(2 * num_machines), 0),
      alive_(std::make_shared<bool>(true)),
      ingress_traces_(static_cast<size_t>(num_machines)) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK(num_machines >= 1);
  MONO_CHECK(nic_bandwidth > monoutil::BytesPerSecond(0));
  side_accum_at_ = sim_->now();
  sim_->RegisterAuditable(this);
}

NetworkFabricSim::~NetworkFabricSim() {
  // A still-registered end-of-epoch flush holds `this`; the shared flag turns it
  // into a no-op if the simulation outlives the fabric.
  *alive_ = false;
  sim_->UnregisterAuditable(this);
}

void NetworkFabricSim::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  // Certify the batched solution, never the mid-epoch transient: any still-pending
  // arrivals/departures are solved first (no-op when the fabric is clean, which is
  // always the case when the simulation's end-of-epoch sweep gets here).
  FlushPendingConst();
  const SimTime now = sim_->now();
  const char* source = "network-fabric";
  const double bw = nic_bandwidth_.bps();
  const double eps = 1e-9 * std::max(1.0, bw);

  // Per-NIC-side rate sums and maxima, reused below by the bandwidth checks and
  // the max-min bottleneck certification. Recomputed from the flow lists — the
  // audit cross-checks the incrementally-maintained side rate sums against this
  // ground truth, so it must not read them. The sweep runs every epoch; the
  // scratch members are persistent so it costs a fill, not four allocations.
  const size_t machines = static_cast<size_t>(num_machines());
  std::vector<double>& ingress_sum = audit_ingress_sum_;
  std::vector<double>& ingress_max = audit_ingress_max_;
  std::vector<double>& egress_sum = audit_egress_sum_;
  std::vector<double>& egress_max = audit_egress_max_;
  ingress_sum.resize(machines);
  ingress_max.resize(machines);
  egress_sum.resize(machines);
  egress_max.resize(machines);
  std::fill(ingress_sum.begin(), ingress_sum.end(), 0.0);
  std::fill(ingress_max.begin(), ingress_max.end(), 0.0);
  std::fill(egress_sum.begin(), egress_sum.end(), 0.0);
  std::fill(egress_max.begin(), egress_max.end(), 0.0);

  // One contiguous walk over the id-ordered flow list recomputes every
  // per-side aggregate and evaluates the per-flow predicates; each flow is
  // dereferenced once. The predicates are folded into one boolean per
  // invariant, reported through a single ExpectLazy whose detail lambda
  // re-walks to name an offender — the sweep runs every epoch, so the passing
  // path must stay a tight loop, while the failing path can afford a second
  // pass. The per-machine bookkeeping checks below compare against these
  // ground truths without walking the per-machine lists again.
  size_t listed_ingress = 0;
  size_t listed_egress = 0;
  bool ids_ordered = true;
  bool rates_nonneg = true;
  // Completion-heap membership: every flow with a predicted completion sits at
  // its recorded slot under its exact (time, id) key. Together with the count
  // matching the heap size, that leaves the heap no room for stray entries.
  bool heap_members_ok = true;
  size_t indexed_flows = 0;
  const auto heap_member_ok = [&](const Flow& flow) {
    if (flow.predicted_done < SimTime()) {
      return true;
    }
    const size_t slot = flow.completion_slot;
    return slot < completions_.size() && completions_[slot].flow == &flow &&
           completions_[slot].at == flow.predicted_done && completions_[slot].id == flow.id;
  };
  FlowId last_id = 0;
  for (const Flow* flow : flows_by_id_) {
    ids_ordered = ids_ordered && flow->id > last_id;
    last_id = flow->id;
    const size_t src = static_cast<size_t>(flow->src);
    const size_t dst = static_cast<size_t>(flow->dst);
    const double rate = flow->rate.bps();
    egress_sum[src] += rate;
    egress_max[src] = std::max(egress_max[src], rate);
    ingress_sum[dst] += rate;
    ingress_max[dst] = std::max(ingress_max[dst], rate);
    rates_nonneg = rates_nonneg && rate >= 0.0;
    heap_members_ok = heap_members_ok && heap_member_ok(*flow);
    indexed_flows += flow->predicted_done >= SimTime() ? 1 : 0;
  }
  heap_members_ok = heap_members_ok && indexed_flows == completions_.size();
  bool heap_ordered = true;
  for (size_t i = 1; i < completions_.size(); ++i) {
    heap_ordered = heap_ordered && !CompletesBefore(completions_[i], completions_[(i - 1) / 2]);
  }
  audit.ExpectLazy(rates_nonneg, now, source, "flow-rate-non-negative", [&] {
    std::ostringstream d;
    for (const Flow* flow : flows_by_id_) {
      if (flow->rate < monoutil::BytesPerSecond(0)) {
        d << "flow " << flow->id << " has rate " << flow->rate;
        break;
      }
    }
    return d.str();
  });
  audit.ExpectLazy(heap_members_ok, now, source, "completion-index-membership", [&] {
    std::ostringstream d;
    for (const Flow* flow : flows_by_id_) {
      if (!heap_member_ok(*flow)) {
        d << "flow " << flow->id << " predicted to complete at " << flow->predicted_done
          << " is not at its completion-heap slot " << flow->completion_slot;
        return d.str();
      }
    }
    d << "completion heap holds " << completions_.size() << " entries for "
      << indexed_flows << " flows with a predicted completion";
    return d.str();
  });
  audit.ExpectLazy(ids_ordered, now, source, "flow-list-ordered", [&] {
    std::ostringstream d;
    d << "flow registry (" << flows_by_id_.size()
      << " entries) is not in strictly ascending id order";
    return d.str();
  });
  bool counts_ok = true;
  bool ingress_within = true;
  bool egress_within = true;
  bool rate_sums_ok = true;
  for (int m = 0; m < num_machines(); ++m) {
    const auto mu = static_cast<size_t>(m);
    const auto& ingress = ingress_flows_[mu];
    const auto& egress = egress_flows_[mu];
    listed_ingress += ingress.size();
    listed_egress += egress.size();
    counts_ok = counts_ok && ingress_count_[mu] == static_cast<int>(ingress.size()) &&
                egress_count_[mu] == static_cast<int>(egress.size());
    // Each NIC is full duplex: the flows it carries in each direction cannot
    // together exceed its bandwidth.
    ingress_within = ingress_within && ingress_sum[mu] <= bw + eps;
    egress_within = egress_within && egress_sum[mu] <= bw + eps;
    // The incrementally-maintained rate sums must match the recomputed ground
    // truth, or the patches' decisions and the saturation telemetry drift.
    const double egress_rate_sum = side_rate_sum_[static_cast<size_t>(EgressKey(m))].bps();
    const double ingress_rate_sum = side_rate_sum_[static_cast<size_t>(IngressKey(m))].bps();
    rate_sums_ok = rate_sums_ok && std::abs(egress_rate_sum - egress_sum[mu]) <= eps &&
                    std::abs(ingress_rate_sum - ingress_sum[mu]) <= eps;
  }
  audit.ExpectLazy(counts_ok, now, source, "flow-count-bookkeeping", [&] {
    std::ostringstream d;
    for (int m = 0; m < num_machines(); ++m) {
      const auto mu = static_cast<size_t>(m);
      if (ingress_count_[mu] != static_cast<int>(ingress_flows_[mu].size()) ||
          egress_count_[mu] != static_cast<int>(egress_flows_[mu].size())) {
        d << "machine " << m << ": counts (" << ingress_count_[mu] << ", "
          << egress_count_[mu] << ") != list sizes (" << ingress_flows_[mu].size()
          << ", " << egress_flows_[mu].size() << ")";
        break;
      }
    }
    return d.str();
  });
  audit.ExpectLazy(ingress_within, now, source, "ingress-within-bandwidth", [&] {
    std::ostringstream d;
    for (int m = 0; m < num_machines(); ++m) {
      if (ingress_sum[static_cast<size_t>(m)] > bw + eps) {
        d << "machine " << m << " ingress rate " << ingress_sum[static_cast<size_t>(m)]
          << " exceeds NIC bandwidth " << nic_bandwidth_;
        break;
      }
    }
    return d.str();
  });
  audit.ExpectLazy(egress_within, now, source, "egress-within-bandwidth", [&] {
    std::ostringstream d;
    for (int m = 0; m < num_machines(); ++m) {
      if (egress_sum[static_cast<size_t>(m)] > bw + eps) {
        d << "machine " << m << " egress rate " << egress_sum[static_cast<size_t>(m)]
          << " exceeds NIC bandwidth " << nic_bandwidth_;
        break;
      }
    }
    return d.str();
  });
  audit.ExpectLazy(heap_ordered, now, source, "completion-index-order", [&] {
    std::ostringstream d;
    for (size_t i = 1; i < completions_.size(); ++i) {
      const CompletionEntry& parent = completions_[(i - 1) / 2];
      if (CompletesBefore(completions_[i], parent)) {
        d << "completion-heap slot " << i << " (flow " << completions_[i].id << " at "
          << completions_[i].at << ") precedes its parent (flow " << parent.id << " at "
          << parent.at << ")";
        break;
      }
    }
    return d.str();
  });
  audit.ExpectLazy(rate_sums_ok, now, source, "share-index-rate-sum", [&] {
    std::ostringstream d;
    for (int m = 0; m < num_machines(); ++m) {
      const auto mu = static_cast<size_t>(m);
      const monoutil::BytesPerSecond egress_rate_sum =
          side_rate_sum_[static_cast<size_t>(EgressKey(m))];
      const monoutil::BytesPerSecond ingress_rate_sum =
          side_rate_sum_[static_cast<size_t>(IngressKey(m))];
      if (std::abs(egress_rate_sum.bps() - egress_sum[mu]) > eps ||
          std::abs(ingress_rate_sum.bps() - ingress_sum[mu]) > eps) {
        d << "machine " << m << ": side rate sums (" << egress_rate_sum
          << " egress, " << ingress_rate_sum << " ingress) drifted from totals ("
          << egress_sum[mu] << ", " << ingress_sum[mu] << ")";
        break;
      }
    }
    return d.str();
  });
  audit.ExpectLazy(listed_ingress == flows_by_id_.size(), now, source, "flow-registry", [&] {
    std::ostringstream d;
    d << "per-machine ingress lists hold " << listed_ingress << " flows, registry holds "
      << flows_by_id_.size();
    return d.str();
  });
  audit.ExpectLazy(listed_egress == flows_by_id_.size(), now, source, "flow-registry-egress", [&] {
    std::ostringstream d;
    d << "per-machine egress lists hold " << listed_egress << " flows, registry holds "
      << flows_by_id_.size();
    return d.str();
  });

  // Max-min certification: an allocation is max-min fair iff every flow crosses at
  // least one saturated NIC side on which it has a maximal share. This bounds the
  // rates from *below* — the bandwidth checks above only bound them from above, so
  // a work-conservation bug (stranded capacity) passes them silently. Batched and
  // patched solutions alike must pass: a patch is only taken when it provably
  // leaves every flow pinned to a saturated side (see TryPatchArrival /
  // CanPatchDeparture), so this certification is what pins the pruning logic.
  const auto certified = [&](const Flow& flow) {
    const size_t src = static_cast<size_t>(flow.src);
    const size_t dst = static_cast<size_t>(flow.dst);
    return (egress_sum[src] >= bw - eps &&
            flow.rate.bps() >= egress_max[src] - eps) ||
           (ingress_sum[dst] >= bw - eps &&
            flow.rate.bps() >= ingress_max[dst] - eps);
  };
  bool all_certified = true;
  for (const Flow* flow : flows_by_id_) {
    all_certified = all_certified && certified(*flow);
  }
  audit.ExpectLazy(all_certified, now, source, "max-min-bottleneck", [&] {
    std::ostringstream d;
    for (const Flow* flow : flows_by_id_) {
      if (!certified(*flow)) {
        const size_t src = static_cast<size_t>(flow->src);
        const size_t dst = static_cast<size_t>(flow->dst);
        d << "flow " << flow->id << " (" << flow->src << "->" << flow->dst
          << ") rate " << flow->rate
          << " is not bottlenecked at a saturated NIC (egress sum "
          << egress_sum[src] << " max " << egress_max[src] << ", ingress sum "
          << ingress_sum[dst] << " max " << ingress_max[dst] << ", bandwidth "
          << nic_bandwidth_ << "): capacity is stranded";
        break;
      }
    }
    return d.str();
  });

  if (phase == AuditPhase::kDrain) {
    audit.ExpectLazy(flows_by_id_.empty(), now, source, "drained", [&] {
      std::ostringstream d;
      d << flows_by_id_.size() << " flow(s) still active after the event queue drained";
      return d.str();
    });
  }
}

NetworkFabricSim::Flow* NetworkFabricSim::AllocFlow() {
  if (free_flows_.empty()) {
    constexpr size_t kFlowsPerBlock = 128;
    flow_blocks_.push_back(std::make_unique<Flow[]>(kFlowsPerBlock));
    Flow* block = flow_blocks_.back().get();
    // Pushed back-to-front so the LIFO free list hands them out in address
    // order within the block (pure locality; no ordering depends on it).
    for (size_t i = kFlowsPerBlock; i > 0; --i) {
      free_flows_.push_back(&block[i - 1]);
    }
  }
  Flow* flow = free_flows_.back();
  free_flows_.pop_back();
  // Reset what recycling could leak into solver decisions: the stamp (so a
  // stale membership mark can never alias a live collection), the completion key
  // (negative = not yet indexed), and the rate the progress math starts from.
  flow->rate = monoutil::BytesPerSecond();
  flow->predicted_done = SimTime(-1.0);
  flow->visit_stamp = 0;
  return flow;
}

NetworkFabricSim::Flow* NetworkFabricSim::FindFlow(FlowId id) const {
  const auto it = std::lower_bound(flows_by_id_.begin(), flows_by_id_.end(), id,
                                   [](const Flow* f, FlowId v) { return f->id < v; });
  return (it != flows_by_id_.end() && (*it)->id == id) ? *it : nullptr;
}

NetworkFabricSim::FlowId NetworkFabricSim::StartFlowImpl(int src, int dst,
                                                         monoutil::Bytes bytes,
                                                         InlineCallback&& done) {
  // Starting a flow is a sanctioned cross-domain channel: machine-domain code
  // (executors moving shuffle data) enters the fabric here by design.
  MONO_DOMAIN_CHANNEL();
  MONO_CHECK(src >= 0 && src < num_machines());
  MONO_CHECK(dst >= 0 && dst < num_machines());
  MONO_CHECK_MSG(src != dst, "local transfers must not traverse the fabric");
  MONO_CHECK(bytes >= monoutil::Bytes(0));
  MONO_CHECK(static_cast<bool>(done));

  const FlowId id = next_id_++;
  Flow* raw = AllocFlow();
  raw->id = id;
  raw->src = src;
  raw->dst = dst;
  raw->remaining = static_cast<double>(bytes.count());
  raw->last_update = sim_->now();
  raw->done = std::move(done);
  flows_by_id_.push_back(raw);  // Ids are monotonic: the back keeps the order.

  // Close out the interval ending now before the busy-side set grows. The new
  // flow enters its side rate sums at rate 0, so saturation is untouched here.
  AccumulateSideTime(sim_->now());
  if (egress_count_[static_cast<size_t>(src)] == 0) {
    ++busy_side_count_;
  }
  if (ingress_count_[static_cast<size_t>(dst)] == 0) {
    ++busy_side_count_;
  }
  ++egress_count_[static_cast<size_t>(src)];
  ++ingress_count_[static_cast<size_t>(dst)];
  egress_flows_[static_cast<size_t>(src)].push_back(raw);
  ingress_flows_[static_cast<size_t>(dst)].push_back(raw);
  side_rate_sum_[static_cast<size_t>(EgressKey(src))] += monoutil::BytesPerSecond();
  side_rate_sum_[static_cast<size_t>(IngressKey(dst))] += monoutil::BytesPerSecond();
  total_bytes_ += bytes;

  if (TryPatchArrival(raw)) {
    ++stats_.patched_arrivals;
  } else {
    ++stats_.batched_changes;
    MarkDirty(src, dst);
  }
  return id;
}

void NetworkFabricSim::SendControlImpl(int src, int dst, InlineCallback&& deliver) {
  // Control messages are a sanctioned cross-domain channel (see StartFlowImpl).
  MONO_DOMAIN_CHANNEL();
  MONO_CHECK(src >= 0 && src < num_machines());
  MONO_CHECK(dst >= 0 && dst < num_machines());
  sim_->ScheduleAfter(request_latency_, std::move(deliver), "net-request");
}

void NetworkFabricSim::MarkDirty(int src, int dst) {
  MarkSideDirty(EgressKey(src));
  MarkSideDirty(IngressKey(dst));
  if (!flush_registered_) {
    flush_registered_ = true;
    sim_->AtEpochEnd([this, alive = alive_] {
      if (!*alive) {
        return;
      }
      flush_registered_ = false;
      FlushPending();
    });
  }
}

void NetworkFabricSim::MarkSideDirty(int side_key) {
  if (side_dirty_stamp_[static_cast<size_t>(side_key)] != dirty_stamp_) {
    side_dirty_stamp_[static_cast<size_t>(side_key)] = dirty_stamp_;
    dirty_sides_.push_back(side_key);
  }
}

bool NetworkFabricSim::TryPatchArrival(Flow* flow) {
  if (!dirty_sides_.empty()) {
    return false;  // Rates are stale mid-epoch; local reasoning would be unsound.
  }
  const int egress = EgressKey(flow->src);
  const int ingress = IngressKey(flow->dst);
  const double bw = nic_bandwidth_.bps();
  const double eps = 1e-9 * std::max(1.0, bw);
  const double free_egress = bw - side_rate_sum_[static_cast<size_t>(egress)].bps();
  const double free_ingress = bw - side_rate_sum_[static_cast<size_t>(ingress)].bps();
  const double rate = std::min(free_egress, free_ingress);
  if (rate <= eps) {
    return false;  // A side is already saturated: its flows would re-level.
  }
  // The new flow saturates each side whose free capacity it consumes entirely; on
  // such a side it must not be out-ranked, or max-min would shrink the larger
  // flow in its favor (and cascade through that flow's other side). A side left
  // unsaturated carried no bottlenecked flow (it had free capacity), so raising
  // its sum constrains nobody. The patched flow itself ends at the top of a
  // saturated side, exactly what the max-min-bottleneck audit certifies.
  if (free_egress <= rate + eps && TopShare(egress) > rate + eps) {
    return false;
  }
  if (free_ingress <= rate + eps && TopShare(ingress) > rate + eps) {
    return false;
  }
  ApplyRate(flow, monoutil::BytesPerSecond(rate));
  UpdateCompletionTimer();
  RecordIngressTouched({flow->dst});
  return true;
}

bool NetworkFabricSim::CanPatchDeparture(const Flow& flow) const {
  if (!dirty_sides_.empty()) {
    return false;  // Rates are stale mid-epoch; local reasoning would be unsound.
  }
  const double bw = nic_bandwidth_.bps();
  const double eps = 1e-9 * std::max(1.0, bw);
  for (const int key : {EgressKey(flow.src), IngressKey(flow.dst)}) {
    if (side_rate_sum_[static_cast<size_t>(key)].bps() < bw - eps) {
      continue;  // Unsaturated side: nobody is pinned here, freeing more changes nothing.
    }
    if (SideFlows(key).size() == 1) {
      continue;  // The departing flow was alone on the side.
    }
    // Saturated side: the departure is invisible only if every remaining flow has
    // a strictly smaller share — each is then bottlenecked (maximal) at its
    // *other*, still-saturated side and cannot rise into the freed capacity.
    if (TopShare(key, &flow) >= flow.rate.bps() - eps) {
      return false;
    }
  }
  return true;
}

void NetworkFabricSim::CollectFromSides(const std::vector<int>& seed_sides,
                                        std::vector<Flow*>* component) {
  ++visit_stamp_;
  component->clear();
  // A flow links its source's egress side to its destination's ingress side; the
  // component is the transitive closure over those links, seeded from every dirty
  // side. Stamps (not per-call bitmaps) keep repeat collections allocation-light.
  pending_sides_.clear();
  auto push_side = [&](int key) {
    if (side_visit_stamp_[static_cast<size_t>(key)] != visit_stamp_) {
      side_visit_stamp_[static_cast<size_t>(key)] = visit_stamp_;
      pending_sides_.push_back(key);
    }
  };
  for (const int key : seed_sides) {
    push_side(key);
  }
  while (!pending_sides_.empty()) {
    const int key = pending_sides_.back();
    pending_sides_.pop_back();
    for (Flow* flow : SideFlows(key)) {
      if (flow->visit_stamp == visit_stamp_) {
        continue;
      }
      flow->visit_stamp = visit_stamp_;
      component->push_back(flow);
      push_side(EgressKey(flow->src));
      push_side(IngressKey(flow->dst));
    }
  }
}

void NetworkFabricSim::SolveMaxMin(const std::vector<Flow*>& component,
                                   std::vector<double>* new_rates,
                                   bool identity_slots) {
  const size_t n = component.size();
  new_rates->resize(n);
  std::fill(new_rates->begin(), new_rates->end(), 0.0);
  if (n == 0) {
    return;
  }
  // Dense table of just the NIC sides this component touches, slots numbered in
  // first-seen component order. The side-key -> slot map is stamped per solve and
  // each slot's flow list keeps its capacity, so repeat solves allocate nothing.
  ++solve_stamp_;
  int num_slots = 0;
  egress_slot_.resize(n);
  ingress_slot_.resize(n);
  const auto grow_slot_arrays = [&](size_t needed) {
    if (needed > slot_consumed_.size()) {
      slot_consumed_.resize(needed);
      slot_unfrozen_.resize(needed);
      slot_cap_.resize(needed);
    }
  };
  if (identity_slots) {
    // Spanning solve over the whole fabric (the caller vouches `component`
    // holds every live flow): each NIC side is its own slot, slot == side key,
    // so the stamped side->slot map and both per-flow lookups drop out in
    // favor of straight key arithmetic. Sides with no flows cost nothing
    // beyond their array entry: a zero degree parks their cap at +inf
    // ((bandwidth - 0) / 0 in IEEE terms), so the bottleneck scan skips them
    // the same way it skips exhausted slots.
    num_slots = static_cast<int>(side_rate_sum_.size());
    const auto ns = static_cast<size_t>(num_slots);
    grow_slot_arrays(ns);
    std::fill(slot_unfrozen_.begin(), slot_unfrozen_.begin() + num_slots, 0);
    std::fill(slot_consumed_.begin(), slot_consumed_.begin() + num_slots, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const auto e = static_cast<size_t>(EgressKey(component[i]->src));
      const auto g = static_cast<size_t>(IngressKey(component[i]->dst));
      egress_slot_[i] = static_cast<int>(e);
      ingress_slot_[i] = static_cast<int>(g);
      ++slot_unfrozen_[e];
      ++slot_unfrozen_[g];
    }
  } else {
    auto slot = [&](int key) {
      const auto k = static_cast<size_t>(key);
      if (slot_stamp_[k] != solve_stamp_) {
        slot_stamp_[k] = solve_stamp_;
        const int s = num_slots++;
        slot_of_[k] = s;
        grow_slot_arrays(static_cast<size_t>(num_slots));
        slot_unfrozen_[static_cast<size_t>(s)] = 0;
        slot_consumed_[static_cast<size_t>(s)] = 0.0;
      }
      return slot_of_[k];
    };
    for (size_t i = 0; i < n; ++i) {
      egress_slot_[i] = slot(EgressKey(component[i]->src));
      ingress_slot_[i] = slot(IngressKey(component[i]->dst));
      ++slot_unfrozen_[static_cast<size_t>(egress_slot_[i])];
      ++slot_unfrozen_[static_cast<size_t>(ingress_slot_[i])];
    }
  }
  // Slot -> flow-index adjacency in CSR form (offsets plus one flat array) —
  // the freeze loop below walks it side by side, and a flat span beats a
  // vector-of-vectors walk. Built with a counting pass already done above
  // (slot_unfrozen_ holds the degrees), a prefix sum, and a fill pass that
  // re-derives each flow's slots from the per-flow arrays.
  slot_adj_offset_.resize(static_cast<size_t>(num_slots) + 1);
  slot_adj_offset_[0] = 0;
  for (int s = 0; s < num_slots; ++s) {
    slot_adj_offset_[static_cast<size_t>(s) + 1] =
        slot_adj_offset_[static_cast<size_t>(s)] + slot_unfrozen_[static_cast<size_t>(s)];
  }
  slot_adj_.resize(2 * n);
  slot_cursor_.assign(slot_adj_offset_.begin(), slot_adj_offset_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    slot_adj_[static_cast<size_t>(slot_cursor_[static_cast<size_t>(egress_slot_[i])]++)] =
        static_cast<int>(i);
    slot_adj_[static_cast<size_t>(slot_cursor_[static_cast<size_t>(ingress_slot_[i])]++)] =
        static_cast<int>(i);
  }
  // Progressive filling: each side carries the common fill level at which it
  // would saturate, cached in slot_cap_ and re-derived only when a frozen flow
  // changes its consumption. Each round scans the flat cap array for the
  // minimum (cap, slot) — the next bottleneck — and freezes that side's
  // remaining flows at the running level. With dozens of sides the scan is a
  // handful of cache lines, and it selects exactly what an ordered frontier
  // would pop, so the freeze order (and every FP result) is as deterministic.
  // Exhausted slots park their cap at infinity, keeping the scan a bare
  // load-and-compare.
  const double bw = nic_bandwidth_.bps();
  for (int s = 0; s < num_slots; ++s) {
    slot_cap_[static_cast<size_t>(s)] =
        (bw - slot_consumed_[static_cast<size_t>(s)]) /
        slot_unfrozen_[static_cast<size_t>(s)];
  }
  frozen_.resize(n);
  std::fill(frozen_.begin(), frozen_.end(), 0);
  size_t remaining = n;
  double level = 0.0;
  while (remaining > 0) {
    // Two-stride argmin: each stride keeps its own first strict minimum, so
    // the two chains run independently of each other's comparison results;
    // the merge picks the lower cap and breaks ties toward the smaller slot,
    // which is exactly the single-pass first-strict-min this replaces.
    int s0 = -1;
    int s1 = -1;
    double best0 = std::numeric_limits<double>::infinity();
    double best1 = std::numeric_limits<double>::infinity();
    for (int c = 0; c + 1 < num_slots; c += 2) {
      if (slot_cap_[static_cast<size_t>(c)] < best0) {
        best0 = slot_cap_[static_cast<size_t>(c)];
        s0 = c;
      }
      if (slot_cap_[static_cast<size_t>(c) + 1] < best1) {
        best1 = slot_cap_[static_cast<size_t>(c) + 1];
        s1 = c + 1;
      }
    }
    if ((num_slots & 1) != 0 &&
        slot_cap_[static_cast<size_t>(num_slots) - 1] < best0) {
      best0 = slot_cap_[static_cast<size_t>(num_slots) - 1];
      s0 = num_slots - 1;
    }
    const bool take1 = best1 < best0 || (best1 == best0 && s1 >= 0 && s1 < s0);
    const int s = take1 ? s1 : s0;
    const double best = take1 ? best1 : best0;
    MONO_CHECK_MSG(s >= 0, "progressive filling stalled");
    // Caps are non-decreasing as flows freeze elsewhere, so the chosen side
    // saturates at cap >= level; the max() only guards FP rounding.
    level = std::max(level, best);
    for (int a = slot_adj_offset_[static_cast<size_t>(s)];
         a < slot_adj_offset_[static_cast<size_t>(s) + 1]; ++a) {
      const int idx = slot_adj_[static_cast<size_t>(a)];
      if (frozen_[static_cast<size_t>(idx)]) {
        continue;
      }
      frozen_[static_cast<size_t>(idx)] = 1;
      (*new_rates)[static_cast<size_t>(idx)] = level;
      --remaining;
      // The frozen flow now consumes `level` of its other side for good; that
      // side saturates later (or empties), so re-derive its cached cap.
      const int other =
          (egress_slot_[static_cast<size_t>(idx)] == s) ? ingress_slot_[static_cast<size_t>(idx)]
                                                        : egress_slot_[static_cast<size_t>(idx)];
      const auto o = static_cast<size_t>(other);
      slot_consumed_[o] += level;
      --slot_unfrozen_[o];
      slot_cap_[o] = slot_unfrozen_[o] > 0
                         ? (bw - slot_consumed_[o]) / slot_unfrozen_[o]
                         : std::numeric_limits<double>::infinity();
    }
    slot_unfrozen_[static_cast<size_t>(s)] = 0;
    slot_cap_[static_cast<size_t>(s)] = std::numeric_limits<double>::infinity();
  }
}

double NetworkFabricSim::TopShare(int key, const Flow* except) const {
  double top = 0.0;
  for (const Flow* flow : SideFlows(key)) {
    if (flow != except) {
      top = std::max(top, flow->rate.bps());
    }
  }
  return top;
}

void NetworkFabricSim::SortByFlowId(std::vector<Flow*>* flows) {
  sort_scratch_.clear();
  for (Flow* flow : *flows) {
    sort_scratch_.emplace_back(flow->id, flow);
  }
  std::sort(sort_scratch_.begin(), sort_scratch_.end());
  for (size_t i = 0; i < flows->size(); ++i) {
    (*flows)[i] = sort_scratch_[i].second;
  }
}

void NetworkFabricSim::ApplyRate(Flow* flow, monoutil::BytesPerSecond new_rate) {
  MONO_CHECK(new_rate > monoutil::BytesPerSecond(0));
  if (new_rate == flow->rate && flow->predicted_done >= SimTime()) {
    // Unchanged rate: progress stays linear and the indexed completion time is
    // still exact, so leave the flow untouched.
    return;
  }
  // Advance progress under the old rate, then apply the new share.
  const SimTime now = sim_->now();
  const SimTime dt = now - flow->last_update;
  if (dt > SimTime()) {
    flow->remaining = std::max(0.0, flow->remaining - flow->rate.bps() * dt.seconds());
  }
  flow->last_update = now;
  if (new_rate != flow->rate) {
    ++stats_.rate_changes;
    AccumulateSideTime(now);
    // Move both sides' rate sums, tracking each side's saturation transition.
    for (const int key : {EgressKey(flow->src), IngressKey(flow->dst)}) {
      const bool was_saturated = SideSaturated(key);
      monoutil::BytesPerSecond& sum = side_rate_sum_[static_cast<size_t>(key)];
      sum -= flow->rate;
      sum += new_rate;
      if (SideSaturated(key) != was_saturated) {
        saturated_side_count_ += was_saturated ? -1 : 1;
      }
    }
    flow->rate = new_rate;
  }

  // Re-key the predicted completion; the caller refreshes the single timer
  // event once its batch of rate changes is applied.
  IndexCompletion(flow, now + SimTime(flow->remaining / flow->rate.bps()));
}

void NetworkFabricSim::IndexCompletion(Flow* flow, SimTime at) {
  if (flow->predicted_done < SimTime()) {
    flow->predicted_done = at;
    completions_.push_back(CompletionEntry{at, flow->id, flow});
    SiftCompletionUp(completions_.size() - 1);
    return;
  }
  const SimTime from = flow->predicted_done;
  flow->predicted_done = at;
  const size_t slot = flow->completion_slot;
  completions_[slot].at = at;
  if (at < from) {
    SiftCompletionUp(slot);
  } else {
    SiftCompletionDown(slot);
  }
}

NetworkFabricSim::FlowId NetworkFabricSim::PopCompletion() {
  Flow* flow = completions_.front().flow;
  flow->predicted_done = SimTime(-1.0);
  const CompletionEntry last = completions_.back();
  completions_.pop_back();
  if (!completions_.empty()) {
    PlaceCompletion(0, last);
    SiftCompletionDown(0);
  }
  return flow->id;
}

void NetworkFabricSim::SiftCompletionUp(size_t slot) {
  const CompletionEntry entry = completions_[slot];
  while (slot > 0) {
    const size_t parent = (slot - 1) / 2;
    if (!CompletesBefore(entry, completions_[parent])) {
      break;
    }
    PlaceCompletion(slot, completions_[parent]);
    slot = parent;
  }
  PlaceCompletion(slot, entry);
}

void NetworkFabricSim::SiftCompletionDown(size_t slot) {
  const CompletionEntry entry = completions_[slot];
  const size_t n = completions_.size();
  for (;;) {
    size_t child = 2 * slot + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && CompletesBefore(completions_[child + 1], completions_[child])) {
      ++child;
    }
    if (!CompletesBefore(completions_[child], entry)) {
      break;
    }
    PlaceCompletion(slot, completions_[child]);
    slot = child;
  }
  PlaceCompletion(slot, entry);
}

void NetworkFabricSim::SkewCompletionEntryForTest(size_t slot, monoutil::SimTime delta) {
  MONO_CHECK(slot < completions_.size());
  completions_[slot].at += delta;
}

void NetworkFabricSim::LowerFlowRateForTest(FlowId id, monoutil::BytesPerSecond rate) {
  FlushPending();
  Flow* flow = FindFlow(id);
  MONO_CHECK(flow != nullptr);
  MONO_CHECK(rate > monoutil::BytesPerSecond(0) && rate < flow->rate);
  ApplyRate(flow, rate);
  UpdateCompletionTimer();
}

void NetworkFabricSim::UpdateCompletionTimer() {
  const SimTime want = completions_.empty() ? SimTime(-1.0) : completions_.front().at;
  if (want == next_completion_time_ && (want < SimTime() || next_completion_.pending())) {
    return;  // The timer already points at the minimum.
  }
  next_completion_.Cancel();
  next_completion_time_ = want;
  if (want >= SimTime()) {
    next_completion_ = sim_->ScheduleAt(
        want,
        [this, alive = alive_] {
          if (*alive) {
            OnNextCompletion();
          }
        },
        "flow-complete");
  }
}

void NetworkFabricSim::OnNextCompletion() {
  // Complete every flow due now, earliest (time, id) first. Completion callbacks
  // may start replacement flows whose patches insert new entries mid-loop, so
  // the minimum is re-read from the heap each iteration.
  const SimTime now = sim_->now();
  while (!completions_.empty() && completions_.front().at <= now) {
    OnFlowComplete(PopCompletion());
  }
  UpdateCompletionTimer();
}

void NetworkFabricSim::FlushPending() {
  if (dirty_sides_.empty()) {
    return;
  }
  ++stats_.epochs_flushed;
  touched_scratch_.clear();
  for (const int key : dirty_sides_) {
    if (key % 2 == 1) {
      touched_scratch_.push_back(key / 2);  // Recorded even if the side is now empty.
    }
  }

  // The closure of the dirty sides is the only part of the fabric whose rates
  // can move, and a from-scratch solve of it is the max-min allocation. When
  // the last collected closure spanned every live flow — a loaded fabric is
  // usually one connected component — the next flushes skip the collection
  // walk and solve the full flow list directly: a superset solve is always
  // correct (disjoint components fill independently under the global-min
  // bottleneck selection, and unchanged rates are skipped on apply), it is
  // just wasted width if the fabric has since split, so the closure is
  // re-collected every few dozen flushes to revalidate.
  //
  // Canonical order: rates are solved — and below, applied and their
  // completions re-keyed — in ascending flow id, so the event schedule (and
  // the run digest) depends only on the flow set, never on the traversal order
  // that discovered it. It also canonicalizes the solver's floating-point
  // evaluation order, which is what lets a re-solve of an unchanged
  // sub-structure reproduce rates bit-for-bit (and ApplyRate skip them).
  std::vector<Flow*>& component = component_scratch_;
  bool spanning = false;
  if (spanning_revalidate_ > 0) {
    --spanning_revalidate_;
    component.assign(flows_by_id_.begin(), flows_by_id_.end());
    spanning = true;
  } else {
    CollectFromSides(dirty_sides_, &component);
    if (component.size() == flows_by_id_.size()) {
      spanning_revalidate_ = kSpanningRevalidateInterval;
      component.assign(flows_by_id_.begin(), flows_by_id_.end());
      spanning = true;
    } else {
      SortByFlowId(&component);
    }
  }
  SolveMaxMin(component, &rates_scratch_, /*identity_slots=*/spanning);
  ++stats_.solves;
  stats_.flows_touched += component.size();
  dirty_sides_.clear();
  ++dirty_stamp_;

  for (size_t i = 0; i < component.size(); ++i) {
    Flow* flow = component[i];
    // Same skip ApplyRate makes, hoisted: most of a re-solved component keeps
    // its rates bit-for-bit, so the call itself is the cost worth dodging.
    if (monoutil::BytesPerSecond(rates_scratch_[i]) == flow->rate &&
        flow->predicted_done >= SimTime()) {
      continue;
    }
    ApplyRate(flow, monoutil::BytesPerSecond(rates_scratch_[i]));
  }
  UpdateCompletionTimer();
  if (trace_enabled_ || monotrace::Tracer::current() != nullptr) {
    for (const Flow* flow : component) {
      touched_scratch_.push_back(flow->dst);
    }
    RecordIngressTouched(touched_scratch_);
  }
}

void NetworkFabricSim::RecordIngressTouched(const std::vector<int>& machines) {
  if (trace_enabled_) {
    RecordIngressRates(machines);
  }
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    for (const int machine : machines) {
      double total = 0.0;
      for (const Flow* flow : ingress_flows_[static_cast<size_t>(machine)]) {
        total += flow->rate.bps();
      }
      tracer->Counter("devices", "machine" + std::to_string(machine) + ".nic-in",
                      sim_->now().seconds(), total / nic_bandwidth_.bps());
    }
  }
}

void NetworkFabricSim::OnFlowComplete(FlowId id) {
  const auto by_id = std::lower_bound(
      flows_by_id_.begin(), flows_by_id_.end(), id,
      [](const Flow* f, FlowId v) { return f->id < v; });
  MONO_CHECK(by_id != flows_by_id_.end() && (*by_id)->id == id);
  Flow* flow = *by_id;

  // Guard against firing while a rate change left residual bytes.
  const SimTime now = sim_->now();
  const SimTime dt = now - flow->last_update;
  flow->remaining = std::max(0.0, flow->remaining - flow->rate.bps() * dt.seconds());
  flow->last_update = now;
  MONO_CHECK_MSG(
      flow->remaining <= std::max(flow->rate.bps(), 1.0) * kCompletionEpsilonSeconds,
      "flow completion fired early");

  const int src = flow->src;
  const int dst = flow->dst;
  const monoutil::BytesPerSecond rate = flow->rate;
  InlineCallback done = std::move(flow->done);
  // Decide on the local patch while the departing flow still counts in its
  // sides' lists and rate sums (the decision reads both).
  const bool patched = CanPatchDeparture(*flow);

  auto erase_from = [](std::vector<Flow*>& list, Flow* target) {
    list.erase(std::remove(list.begin(), list.end(), target), list.end());
  };
  erase_from(egress_flows_[static_cast<size_t>(src)], flow);
  erase_from(ingress_flows_[static_cast<size_t>(dst)], flow);
  AccumulateSideTime(now);
  --egress_count_[static_cast<size_t>(src)];
  --ingress_count_[static_cast<size_t>(dst)];
  if (egress_count_[static_cast<size_t>(src)] == 0) {
    --busy_side_count_;
  }
  if (ingress_count_[static_cast<size_t>(dst)] == 0) {
    --busy_side_count_;
  }
  for (const int key : {EgressKey(src), IngressKey(dst)}) {
    const bool was_saturated = SideSaturated(key);
    side_rate_sum_[static_cast<size_t>(key)] -= rate;
    if (SideSaturated(key) != was_saturated) {
      saturated_side_count_ += was_saturated ? -1 : 1;
    }
  }
  flows_by_id_.erase(by_id);
  // Recycle before `done()` runs: the callback may start a replacement flow,
  // which is welcome to reuse this very slot (everything it needs was copied
  // into locals above).
  FreeFlow(flow);

  if (patched) {
    ++stats_.patched_departures;
    RecordIngressTouched({dst});
  } else {
    ++stats_.batched_changes;
    MarkDirty(src, dst);
  }
  static monotrace::MetricCounter* flows_metric =
      monotrace::MetricsRegistry::Global().Get("fabric.flows_completed");
  flows_metric->Increment();
  done();
}

int NetworkFabricSim::ingress_flows(int machine) const {
  MONO_CHECK(machine >= 0 && machine < num_machines());
  return ingress_count_[static_cast<size_t>(machine)];
}

int NetworkFabricSim::egress_flows(int machine) const {
  MONO_CHECK(machine >= 0 && machine < num_machines());
  return egress_count_[static_cast<size_t>(machine)];
}

void NetworkFabricSim::AccumulateSideTime(SimTime now) const {
  const SimTime dt = now - side_accum_at_;
  if (dt > SimTime()) {
    busy_side_seconds_ += dt * static_cast<double>(busy_side_count_);
    saturated_side_seconds_ += dt * static_cast<double>(saturated_side_count_);
  }
  side_accum_at_ = now;
}

monoutil::SimTime NetworkFabricSim::busy_side_seconds() const {
  AccumulateSideTime(sim_->now());
  return busy_side_seconds_;
}

monoutil::SimTime NetworkFabricSim::saturated_side_seconds() const {
  AccumulateSideTime(sim_->now());
  return saturated_side_seconds_;
}

monoutil::BytesPerSecond NetworkFabricSim::flow_rate(FlowId id) const {
  FlushPendingConst();
  const Flow* flow = FindFlow(id);
  MONO_CHECK_MSG(flow != nullptr, "flow_rate: unknown or completed flow");
  return flow->rate;
}

std::vector<NetworkFabricSim::FlowInfo> NetworkFabricSim::ActiveFlows() const {
  FlushPendingConst();
  std::vector<FlowInfo> infos;
  infos.reserve(flows_by_id_.size());
  // The registry is already in ascending id order — the snapshot inherits it.
  for (const Flow* flow : flows_by_id_) {
    infos.push_back(FlowInfo{flow->id, flow->src, flow->dst, flow->rate});
  }
  return infos;
}

void NetworkFabricSim::EnableTrace() {
  trace_enabled_ = true;
  for (size_t m = 0; m < ingress_traces_.size(); ++m) {
    if (ingress_traces_[m].empty()) {
      ingress_traces_[m].Record(sim_->now(), 0.0);
    }
  }
}

void NetworkFabricSim::RecordIngressRates(const std::vector<int>& machines) {
  for (int machine : machines) {
    double total = 0.0;
    for (const Flow* flow : ingress_flows_[static_cast<size_t>(machine)]) {
      total += flow->rate.bps();
    }
    ingress_traces_[static_cast<size_t>(machine)].Record(sim_->now(), total);
  }
}

const RateTrace& NetworkFabricSim::ingress_trace(int machine) const {
  MONO_CHECK(machine >= 0 && machine < num_machines());
  FlushPendingConst();
  return ingress_traces_[static_cast<size_t>(machine)];
}

double NetworkFabricSim::MeanIngressUtilization(int machine, SimTime from, SimTime to) const {
  MONO_CHECK(trace_enabled_);
  return ingress_trace(machine).MeanUtilization(from, to, nic_bandwidth_.bps());
}

}  // namespace monosim
