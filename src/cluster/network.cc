#include "src/cluster/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/tracer.h"

namespace monosim {
namespace {

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
      ingress_classes_(static_cast<size_t>(num_machines)),
      egress_classes_(static_cast<size_t>(num_machines)),
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
  // the max-min bottleneck certification. Recomputed from the classes — the
  // audit cross-checks the incrementally-maintained side rate sums against this
  // ground truth, so it must not read them. The sweep runs every epoch; the
  // scratch members are persistent so it costs a fill, not four allocations.
  const size_t machines = static_cast<size_t>(num_machines());
  std::vector<double>& ingress_sum = audit_ingress_sum_;
  std::vector<double>& ingress_max = audit_ingress_max_;
  std::vector<double>& egress_sum = audit_egress_sum_;
  std::vector<double>& egress_max = audit_egress_max_;
  ingress_sum.assign(machines, 0.0);
  ingress_max.assign(machines, 0.0);
  egress_sum.assign(machines, 0.0);
  egress_max.assign(machines, 0.0);

  // One walk over the id-ordered registry, then one over the pair-ordered
  // classes, recompute every per-side aggregate and fold each per-class
  // predicate into one boolean per invariant, reported through a single
  // ExpectLazy whose detail lambda re-walks to name an offender — the sweep
  // runs every epoch, so the passing path must stay a tight loop, while the
  // failing path can afford a second pass.
  std::vector<PairClass*>& classes = audit_classes_;
  ListClasses(&classes);
  bool ids_ordered = true;
  FlowId last_id = 0;
  for (const auto& [id, cls] : flows_by_id_) {
    ids_ordered = ids_ordered && id > last_id;
    last_id = id;
    ++cls->audit_registered;
  }
  // Completion-heap membership: every rated class sits at its recorded slot
  // under its exact (time, head id) key, which is the time its clock gives.
  // Together with the count matching the heap size, that leaves the heap no
  // room for stray entries.
  const auto heap_member_ok = [&](const PairClass& cls) {
    const size_t slot = cls.completion_slot;
    return cls.predicted_done < SimTime() ||
           (!cls.jobs.empty() && slot < completions_.size() && completions_[slot].cls == &cls &&
            completions_[slot].at == cls.predicted_done &&
            completions_[slot].id == cls.jobs.front().id &&
            cls.predicted_done == cls.HeadCompletion());
  };
  const auto class_heap_ok = [](const PairClass& cls) { return cls.HeapOrdered(); };
  // No flow's finish tag may trail the class clock by more than the epsilon a
  // completion tolerates: such a flow's completion was missed.
  const auto clock_ok = [&](const PairClass& cls) { return cls.ClockConsistent(now); };
  const auto size_ok = [](const PairClass& cls) {
    return !cls.jobs.empty() && cls.audit_registered == cls.jobs.size();
  };
  const auto name_class = [&](auto&& ok, const char* what) {
    std::ostringstream d;
    for (const PairClass* cls : classes) {
      if (!ok(*cls)) {
        d << "pair " << cls->src << "->" << cls->dst << " (" << cls->jobs.size()
          << " flows, rate " << cls->Rate() << ") " << what;
        break;
      }
    }
    return d.str();
  };
  bool rates_nonneg = true;
  bool heap_members_ok = true;
  bool class_heaps_ok = true;
  bool clocks_ok = true;
  bool sizes_ok = true;
  size_t indexed_classes = 0;
  size_t class_flows = 0;
  for (size_t i = 0; i < classes.size(); ++i) {
    const PairClass& cls = *classes[i];
    ids_ordered = ids_ordered && (i == 0 || PairBefore(classes[i - 1], &cls));
    const size_t src = static_cast<size_t>(cls.src);
    const size_t dst = static_cast<size_t>(cls.dst);
    const double rate = cls.rate;
    egress_sum[src] += rate * static_cast<double>(cls.jobs.size());
    egress_max[src] = std::max(egress_max[src], rate);
    ingress_sum[dst] += rate * static_cast<double>(cls.jobs.size());
    ingress_max[dst] = std::max(ingress_max[dst], rate);
    rates_nonneg = rates_nonneg && rate >= 0.0;
    heap_members_ok = heap_members_ok && heap_member_ok(cls);
    indexed_classes += cls.predicted_done >= SimTime() ? 1 : 0;
    class_heaps_ok = class_heaps_ok && class_heap_ok(cls);
    clocks_ok = clocks_ok && clock_ok(cls);
    sizes_ok = sizes_ok && size_ok(cls);
    class_flows += cls.jobs.size();
  }
  heap_members_ok = heap_members_ok && indexed_classes == completions_.size();
  bool heap_ordered = true;
  for (size_t i = 1; i < completions_.size(); ++i) {
    heap_ordered = heap_ordered && !CompletesBefore(completions_[i], completions_[(i - 1) / 2]);
  }
  audit.ExpectLazy(rates_nonneg, now, source, "flow-rate-non-negative", [&] {
    return name_class([](const PairClass& c) { return c.rate >= 0.0; }, "has rate < 0");
  });
  audit.ExpectLazy(heap_members_ok, now, source, "completion-index-membership", [&] {
    std::ostringstream d;
    d << "completion heap holds " << completions_.size() << " entries for " << indexed_classes
      << " rated classes; "
      << name_class(heap_member_ok, "is not at its heap slot under its head's exact key");
    return d.str();
  });
  audit.ExpectLazy(ids_ordered, now, source, "flow-list-ordered", [&] {
    std::ostringstream d;
    d << "flow registry (" << flows_by_id_.size() << " entries) or class list ("
      << classes.size() << " pairs) is not in strictly ascending order";
    return d.str();
  });
  audit.ExpectLazy(class_heaps_ok, now, source, "pair-class-heap-order", [&] {
    return name_class(class_heap_ok, "has a flow heap out of (finish, id) order");
  });
  audit.ExpectLazy(clocks_ok, now, source, "pair-class-clock", [&] {
    return name_class(clock_ok, "has a flow whose finish tag is behind the class clock");
  });
  audit.ExpectLazy(sizes_ok && class_flows == flows_by_id_.size(), now, source,
                   "pair-class-size", [&] {
    std::ostringstream d;
    d << "classes hold " << class_flows << " flows, registry " << flows_by_id_.size() << "; "
      << name_class(size_ok, "disagrees with the registry entries naming it");
    return d.str();
  });
  for (const auto& entry : flows_by_id_) {
    entry.second->audit_registered = 0;  // Leave the scratch zeroed for the next sweep.
  }
  bool counts_ok = true;
  bool ingress_within = true;
  bool egress_within = true;
  bool rate_sums_ok = true;
  size_t listed_ingress = 0;
  size_t listed_egress = 0;
  const auto listed_flows = [](const std::vector<PairClass*>& side) {
    size_t n = 0;
    for (const PairClass* cls : side) {
      n += cls->jobs.size();
    }
    return n;
  };
  for (int m = 0; m < num_machines(); ++m) {
    const auto mu = static_cast<size_t>(m);
    const size_t ingress = listed_flows(ingress_classes_[mu]);
    const size_t egress = listed_flows(egress_classes_[mu]);
    listed_ingress += ingress;
    listed_egress += egress;
    counts_ok = counts_ok && ingress_count_[mu] == static_cast<int>(ingress) &&
                egress_count_[mu] == static_cast<int>(egress);
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
    for (size_t m = 0; m < machines; ++m) {
      const size_t ingress = listed_flows(ingress_classes_[m]);
      const size_t egress = listed_flows(egress_classes_[m]);
      if (ingress_count_[m] != static_cast<int>(ingress) ||
          egress_count_[m] != static_cast<int>(egress)) {
        d << "machine " << m << ": counts (" << ingress_count_[m] << ", " << egress_count_[m]
          << ") != class sizes listed (" << ingress << ", " << egress << ")";
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
  // a work-conservation bug (stranded capacity) passes them silently. Classmates
  // share one rate, so certifying each class certifies all of its flows. Batched
  // and patched solutions alike must pass: a patch is only taken when it provably
  // leaves every flow pinned to a saturated side (see TryPatchArrival /
  // CanPatchDeparture), so this certification is what pins the pruning logic.
  const auto certified = [&](const PairClass& cls) {
    const size_t src = static_cast<size_t>(cls.src);
    const size_t dst = static_cast<size_t>(cls.dst);
    return (egress_sum[src] >= bw - eps && cls.rate >= egress_max[src] - eps) ||
           (ingress_sum[dst] >= bw - eps && cls.rate >= ingress_max[dst] - eps);
  };
  const bool all_certified = std::all_of(
      classes.begin(), classes.end(), [&](const PairClass* cls) { return certified(*cls); });
  audit.ExpectLazy(all_certified, now, source, "max-min-bottleneck", [&] {
    std::ostringstream d;
    for (const PairClass* cls : classes) {
      if (!certified(*cls)) {
        const size_t src = static_cast<size_t>(cls->src);
        const size_t dst = static_cast<size_t>(cls->dst);
        d << "flow " << cls->jobs.front().id << " (" << cls->src << "->" << cls->dst
          << ") rate " << cls->Rate()
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
    audit.ExpectLazy(flows_by_id_.empty() && classes.empty(), now, source, "drained", [&] {
      std::ostringstream d;
      d << flows_by_id_.size() << " flow(s) in " << classes.size()
        << " pair(s) still active after the event queue drained";
      return d.str();
    });
  }
}

NetworkFabricSim::PairClass* NetworkFabricSim::ClassFor(int src, int dst) {
  std::vector<PairClass*>& egress = egress_classes_[static_cast<size_t>(src)];
  const auto it = std::lower_bound(egress.begin(), egress.end(), dst,
                                   [](const PairClass* c, int d) { return c->dst < d; });
  if (it != egress.end() && (*it)->dst == dst) {
    return *it;
  }
  if (free_classes_.empty()) {
    constexpr size_t kClassesPerBlock = 64;
    class_blocks_.push_back(std::make_unique<PairClass[]>(kClassesPerBlock));
    PairClass* block = class_blocks_.back().get();
    // Pushed back-to-front so the LIFO free list hands them out in address
    // order within the block (pure locality; no ordering depends on it).
    for (size_t i = kClassesPerBlock; i > 0; --i) {
      free_classes_.push_back(&block[i - 1]);
    }
  }
  PairClass* cls = free_classes_.back();
  free_classes_.pop_back();
  // Reset what recycling could leak into solver decisions: the stamp (so a
  // stale membership mark can never alias a live collection), the completion
  // key (negative = not yet indexed), the rate and the clock.
  cls->src = src;
  cls->dst = dst;
  cls->Reset(sim_->now());
  cls->visit_stamp = 0;
  egress.insert(it, cls);
  ingress_classes_[static_cast<size_t>(dst)].push_back(cls);
  ++num_classes_;
  return cls;
}

void NetworkFabricSim::RetireClass(PairClass* cls) {
  RemoveCompletion(cls);
  std::vector<PairClass*>& egress = egress_classes_[static_cast<size_t>(cls->src)];
  egress.erase(std::find(egress.begin(), egress.end(), cls));
  std::vector<PairClass*>& ingress = ingress_classes_[static_cast<size_t>(cls->dst)];
  ingress.erase(std::find(ingress.begin(), ingress.end(), cls));
  free_classes_.push_back(cls);
  --num_classes_;
}

void NetworkFabricSim::ListClasses(std::vector<PairClass*>* out) const {
  out->clear();
  for (const std::vector<PairClass*>& egress : egress_classes_) {
    out->insert(out->end(), egress.begin(), egress.end());
  }
}

NetworkFabricSim::PairClass* NetworkFabricSim::ClassOf(FlowId id) const {
  const auto it = std::lower_bound(
      flows_by_id_.begin(), flows_by_id_.end(), id,
      [](const std::pair<FlowId, PairClass*>& f, FlowId v) { return f.first < v; });
  return (it != flows_by_id_.end() && it->first == id) ? it->second : nullptr;
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
  const SimTime now = sim_->now();
  // Close out the interval ending now before the busy-side set grows.
  AccumulateSideTime(now);
  CountFlow(src, dst, +1);
  total_bytes_ += bytes;

  // The flow's finish tag is the class clock now plus its bytes; the clock's
  // basis stays put, so the class's indexed completion keeps its exact key.
  PairClass* cls = ClassFor(src, dst);
  cls->Push(Flow{cls->ServedAt(now) + static_cast<double>(bytes.count()), id, std::move(done)});
  flows_by_id_.emplace_back(id, cls);  // Ids are monotonic: the back keeps the order.

  if (cls->jobs.size() == 1 && TryPatchArrival(cls)) {
    ++stats_.patched_arrivals;
    return id;
  }
  if (cls->jobs.size() > 1) {
    // Joining a live pair: the newcomer runs at the class rate until the flush
    // re-levels the pair, and it may be the new head.
    MoveSideRate(EgressKey(src), monoutil::BytesPerSecond(), cls->Rate());
    MoveSideRate(IngressKey(dst), monoutil::BytesPerSecond(), cls->Rate());
    if (cls->predicted_done >= SimTime() && cls->jobs.front().id == id) {
      IndexCompletion(cls, cls->HeadCompletion());
    }
  }
  ++stats_.batched_changes;
  MarkDirty(src, dst);
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

bool NetworkFabricSim::TryPatchArrival(PairClass* cls) {
  if (!dirty_sides_.empty()) {
    return false;  // Rates are stale mid-epoch; local reasoning would be unsound.
  }
  const int egress = EgressKey(cls->src);
  const int ingress = IngressKey(cls->dst);
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
  // class in its favor (and cascade through that class's other side). A side
  // left unsaturated carried no bottlenecked flow (it had free capacity), so
  // raising its sum constrains nobody. The patched flow itself ends at the top
  // of a saturated side, exactly what the max-min-bottleneck audit certifies.
  if (free_egress <= rate + eps && TopShare(egress) > rate + eps) {
    return false;
  }
  if (free_ingress <= rate + eps && TopShare(ingress) > rate + eps) {
    return false;
  }
  ApplyRate(cls, monoutil::BytesPerSecond(rate));
  UpdateCompletionTimer();
  if (TracingIngress()) {
    RecordIngressTouched({cls->dst});
  }
  return true;
}

bool NetworkFabricSim::CanPatchDeparture(const PairClass& cls) const {
  if (!dirty_sides_.empty() || cls.jobs.size() > 1) {
    return false;  // Stale mid-epoch rates, or classmates tied at the departing share.
  }
  const double bw = nic_bandwidth_.bps();
  const double eps = 1e-9 * std::max(1.0, bw);
  for (const int key : {EgressKey(cls.src), IngressKey(cls.dst)}) {
    if (side_rate_sum_[static_cast<size_t>(key)].bps() < bw - eps) {
      continue;  // Unsaturated side: nobody is pinned here, freeing more changes nothing.
    }
    if (SideFlowCount(key) == 1) {
      continue;  // The departing flow was alone on the side.
    }
    // Saturated side: the departure is invisible only if every remaining class
    // has a strictly smaller share — each is then bottlenecked (maximal) at its
    // *other*, still-saturated side and cannot rise into the freed capacity.
    if (TopShare(key, &cls) >= cls.rate - eps) {
      return false;
    }
  }
  return true;
}

void NetworkFabricSim::CollectFromSides(const std::vector<int>& seed_sides,
                                        std::vector<PairClass*>* component) {
  ++visit_stamp_;
  component->clear();
  // A class links its source's egress side to its destination's ingress side;
  // the component is the transitive closure over those links, seeded from every
  // dirty side. Stamps (not per-call bitmaps) keep repeat collections allocation-light.
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
    for (PairClass* cls : SideClasses(key)) {
      if (cls->visit_stamp == visit_stamp_) {
        continue;
      }
      cls->visit_stamp = visit_stamp_;
      component->push_back(cls);
      push_side(EgressKey(cls->src));
      push_side(IngressKey(cls->dst));
    }
  }
}

void NetworkFabricSim::SolveMaxMin(const std::vector<PairClass*>& component,
                                   bool identity_slots) {
  for (PairClass* cls : component) {
    cls->level = 0.0;  // Unfrozen.
  }
  if (component.empty()) {
    return;
  }
  // Dense table of just the NIC sides this component touches. The component
  // is closed under side sharing, so each side's own class list is exactly its
  // adjacency within the component, and its flow count is its number of
  // unknowns: a class of k flows fills its sides k-fold. With identity slots
  // each NIC side is its own slot (slot == side key); sides with no flows park
  // their cap at +inf ((bandwidth - 0) / 0 in IEEE terms), so the bottleneck
  // scan skips them like exhausted slots. Otherwise slots are numbered in
  // first-seen component order through the stamped side->slot map.
  ++solve_stamp_;
  slot_key_.clear();
  if (identity_slots) {
    slot_key_.resize(side_rate_sum_.size());
    std::iota(slot_key_.begin(), slot_key_.end(), 0);
  } else {
    for (const PairClass* cls : component) {
      for (const int key : {EgressKey(cls->src), IngressKey(cls->dst)}) {
        if (slot_stamp_[static_cast<size_t>(key)] != solve_stamp_) {
          slot_stamp_[static_cast<size_t>(key)] = solve_stamp_;
          slot_of_[static_cast<size_t>(key)] = static_cast<int>(slot_key_.size());
          slot_key_.push_back(key);
        }
      }
    }
  }
  const int num_slots = static_cast<int>(slot_key_.size());
  const auto ns = static_cast<size_t>(num_slots);
  slot_consumed_.assign(ns, 0.0);
  slot_unfrozen_.resize(ns);
  slot_cap_.resize(ns);
  // Progressive filling: each side carries the common fill level at which it
  // would saturate, cached in slot_cap_ and re-derived only when a frozen class
  // changes its consumption. Each round scans the flat cap array for the
  // minimum (cap, slot) — the next bottleneck — and freezes that side's
  // remaining classes at the running level. With dozens of sides the scan is a
  // handful of cache lines, and it selects exactly what an ordered frontier
  // would pop, so the freeze order (and every FP result) is as deterministic.
  // Exhausted slots park their cap at infinity, keeping the scan a bare
  // load-and-compare.
  const double bw = nic_bandwidth_.bps();
  for (size_t s = 0; s < ns; ++s) {
    slot_unfrozen_[s] = SideFlowCount(slot_key_[s]);
    slot_cap_[s] = (bw - slot_consumed_[s]) / slot_unfrozen_[s];
  }
  size_t remaining = component.size();
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
    // Caps are non-decreasing as classes freeze elsewhere, so the chosen side
    // saturates at cap >= level; the max() only guards FP rounding.
    level = std::max(level, best);
    const int key = slot_key_[static_cast<size_t>(s)];
    for (PairClass* cls : SideClasses(key)) {
      if (cls->level != 0.0) {
        continue;
      }
      cls->level = level;
      --remaining;
      // The frozen class's k flows now consume `level` each of its other side
      // for good; that side saturates later (or empties), so re-derive its
      // cap. The side's other classes all have distinct other sides, so the
      // order of this walk never changes an FP result.
      const int other = (key % 2 == 0) ? IngressKey(cls->dst) : EgressKey(cls->src);
      const auto o = static_cast<size_t>(identity_slots ? other
                                                        : slot_of_[static_cast<size_t>(other)]);
      const int k = static_cast<int>(cls->jobs.size());
      slot_consumed_[o] += level * k;
      slot_unfrozen_[o] -= k;
      slot_cap_[o] = slot_unfrozen_[o] > 0
                         ? (bw - slot_consumed_[o]) / slot_unfrozen_[o]
                         : std::numeric_limits<double>::infinity();
    }
    slot_unfrozen_[static_cast<size_t>(s)] = 0;
    slot_cap_[static_cast<size_t>(s)] = std::numeric_limits<double>::infinity();
  }
}

double NetworkFabricSim::TopShare(int key, const PairClass* except) const {
  double top = 0.0;
  for (const PairClass* cls : SideClasses(key)) {
    if (cls != except) {
      top = std::max(top, cls->rate);
    }
  }
  return top;
}

void NetworkFabricSim::ApplyRate(PairClass* cls, monoutil::BytesPerSecond new_rate) {
  MONO_CHECK(new_rate > monoutil::BytesPerSecond(0));
  if (new_rate.bps() == cls->rate && cls->predicted_done >= SimTime()) {
    // Unchanged rate: the clock stays linear and the indexed completion time is
    // still exact, so leave the class untouched.
    return;
  }
  // Advance the clock under the old rate, then apply the new share.
  const SimTime now = sim_->now();
  cls->Advance(now);
  if (new_rate.bps() != cls->rate) {
    ++stats_.rate_changes;
    AccumulateSideTime(now);
    const double k = static_cast<double>(cls->jobs.size());
    MoveSideRate(EgressKey(cls->src), cls->Rate() * k, new_rate * k);
    MoveSideRate(IngressKey(cls->dst), cls->Rate() * k, new_rate * k);
    cls->rate = new_rate.bps();
  }
  // Re-key the head completion; the caller refreshes the single timer event
  // once its batch of rate changes is applied.
  IndexCompletion(cls, cls->HeadCompletion());
}

void NetworkFabricSim::MoveSideRate(int key, monoutil::BytesPerSecond remove,
                                    monoutil::BytesPerSecond add) {
  const bool was_saturated = SideSaturated(key);
  monoutil::BytesPerSecond& sum = side_rate_sum_[static_cast<size_t>(key)];
  sum -= remove;
  sum += add;
  if (SideSaturated(key) != was_saturated) {
    saturated_side_count_ += was_saturated ? -1 : 1;
  }
}

void NetworkFabricSim::CountFlow(int src, int dst, int delta) {
  for (int* count : {&egress_count_[static_cast<size_t>(src)],
                     &ingress_count_[static_cast<size_t>(dst)]}) {
    busy_side_count_ -= *count > 0 ? 1 : 0;
    *count += delta;
    busy_side_count_ += *count > 0 ? 1 : 0;
  }
}

void NetworkFabricSim::IndexCompletion(PairClass* cls, SimTime at) {
  if (cls->predicted_done < SimTime()) {
    cls->predicted_done = at;
    completions_.push_back(CompletionEntry{at, cls->jobs.front().id, cls});
    SiftCompletionUp(completions_.size() - 1);
    return;
  }
  const CompletionEntry from = completions_[cls->completion_slot];
  cls->predicted_done = at;
  CompletionEntry& entry = completions_[cls->completion_slot];
  entry.at = at;
  entry.id = cls->jobs.front().id;
  if (CompletesBefore(entry, from)) {
    SiftCompletionUp(cls->completion_slot);
  } else {
    SiftCompletionDown(cls->completion_slot);
  }
}

void NetworkFabricSim::RemoveCompletion(PairClass* cls) {
  const size_t slot = cls->completion_slot;
  cls->predicted_done = SimTime(-1.0);
  const CompletionEntry last = completions_.back();
  completions_.pop_back();
  if (slot < completions_.size()) {
    PlaceCompletion(slot, last);
    if (slot > 0 && CompletesBefore(last, completions_[(slot - 1) / 2])) {
      SiftCompletionUp(slot);
    } else {
      SiftCompletionDown(slot);
    }
  }
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
  PairClass* cls = ClassOf(id);
  MONO_CHECK(cls != nullptr);
  MONO_CHECK(rate > monoutil::BytesPerSecond(0) && rate < cls->Rate());
  ApplyRate(cls, rate);
  UpdateCompletionTimer();
}

void NetworkFabricSim::SkewFinishTagForTest(FlowId id, monoutil::Bytes delta) {
  PairClass* cls = ClassOf(id);
  MONO_CHECK(cls != nullptr);
  std::find_if(cls->jobs.begin(), cls->jobs.end(), [id](const Flow& f) {
    return f.id == id;
  })->finish += static_cast<double>(delta.count());
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
  // Complete every head flow due now, earliest (time, id) first. A class's next
  // head with an equal finish tag is re-keyed to the same time and completes in
  // this loop too. Completion callbacks may start replacement flows whose
  // patches insert new entries mid-loop, so the minimum is re-read each time.
  const SimTime now = sim_->now();
  while (!completions_.empty() && completions_.front().at <= now) {
    CompleteHead(completions_.front().cls);
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
  // the last collected closure spanned every live class — a loaded fabric is
  // usually one connected component — the next flushes skip the collection
  // walk and solve the full class list directly: a superset solve is always
  // correct (disjoint components fill independently under the global-min
  // bottleneck selection, and unchanged rates are skipped on apply), it is
  // just wasted width if the fabric has since split, so the closure is
  // re-collected every few dozen flushes to revalidate.
  //
  // Canonical order: classes are solved, applied and re-keyed in ascending
  // (src, dst), so the event schedule (and the run digest) depends only on the
  // live pairs, never on the traversal that found them. It also fixes the
  // solver's FP evaluation order, so a re-solve of an unchanged sub-structure
  // reproduces rates bit-for-bit (and ApplyRate skips them).
  std::vector<PairClass*>& component = component_scratch_;
  bool spanning = false;
  if (spanning_revalidate_ > 0) {
    --spanning_revalidate_;
    ListClasses(&component);
    spanning = true;
  } else {
    CollectFromSides(dirty_sides_, &component);
    if (component.size() == num_classes_) {
      spanning_revalidate_ = kSpanningRevalidateInterval;
      ListClasses(&component);
      spanning = true;
    } else {
      std::sort(component.begin(), component.end(), PairBefore);
    }
  }
  SolveMaxMin(component, /*identity_slots=*/spanning);
  ++stats_.solves;
  dirty_sides_.clear();
  ++dirty_stamp_;

  for (PairClass* cls : component) {
    stats_.flows_touched += cls->jobs.size();
    // Same skip ApplyRate makes, hoisted: most of a re-solved component keeps
    // its rates bit-for-bit, so the call itself is the cost worth dodging.
    if (cls->level == cls->rate && cls->predicted_done >= SimTime()) {
      continue;
    }
    ApplyRate(cls, monoutil::BytesPerSecond(cls->level));
  }
  UpdateCompletionTimer();
  if (TracingIngress()) {
    for (const PairClass* cls : component) {
      touched_scratch_.push_back(cls->dst);
    }
    RecordIngressTouched(touched_scratch_);
  }
}

bool NetworkFabricSim::TracingIngress() const {
  return trace_enabled_ || monotrace::Tracer::current() != nullptr;
}

void NetworkFabricSim::RecordIngressTouched(const std::vector<int>& machines) {
  monotrace::Tracer* tracer = monotrace::Tracer::current();
  for (const int machine : machines) {
    double total = 0.0;
    for (const PairClass* cls : ingress_classes_[static_cast<size_t>(machine)]) {
      total += cls->rate * static_cast<double>(cls->jobs.size());
    }
    if (trace_enabled_) {
      ingress_traces_[static_cast<size_t>(machine)].Record(sim_->now(), total);
    }
    if (tracer != nullptr) {
      tracer->Counter("devices", "machine" + std::to_string(machine) + ".nic-in",
                      sim_->now().seconds(), total / nic_bandwidth_.bps());
    }
  }
}

void NetworkFabricSim::CompleteHead(PairClass* cls) {
  // Guard against firing while a rate change left residual bytes.
  const SimTime now = sim_->now();
  MONO_CHECK_MSG(cls->HeadDue(now), "flow completion fired early");
  // Decide on the local patch while the departing flow still counts in its
  // sides' counts and rate sums (the decision reads both).
  const bool patched = CanPatchDeparture(*cls);
  Flow flow = cls->PopHead();
  const auto by_id = std::lower_bound(
      flows_by_id_.begin(), flows_by_id_.end(), flow.id,
      [](const std::pair<FlowId, PairClass*>& f, FlowId v) { return f.first < v; });
  MONO_CHECK(by_id != flows_by_id_.end() && by_id->first == flow.id);
  flows_by_id_.erase(by_id);

  const int src = cls->src;
  const int dst = cls->dst;
  AccumulateSideTime(now);
  CountFlow(src, dst, -1);
  MoveSideRate(EgressKey(src), cls->Rate(), monoutil::BytesPerSecond());
  MoveSideRate(IngressKey(dst), cls->Rate(), monoutil::BytesPerSecond());
  // Retire before `done()` runs: the callback may start a replacement flow,
  // which is welcome to reuse this very class slot.
  if (cls->jobs.empty()) {
    RetireClass(cls);
  } else {
    IndexCompletion(cls, cls->HeadCompletion());
  }

  if (patched) {
    ++stats_.patched_departures;
    if (TracingIngress()) {
      RecordIngressTouched({dst});
    }
  } else {
    ++stats_.batched_changes;
    MarkDirty(src, dst);
  }
  static monotrace::MetricCounter* flows_metric =
      monotrace::MetricsRegistry::Global().Get("fabric.jobs_completed");
  flows_metric->Increment();
  flow.done();
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
  const PairClass* cls = ClassOf(id);
  MONO_CHECK_MSG(cls != nullptr, "flow_rate: unknown or completed flow");
  return cls->Rate();
}

std::vector<NetworkFabricSim::FlowInfo> NetworkFabricSim::ActiveFlows() const {
  FlushPendingConst();
  std::vector<FlowInfo> infos;
  infos.reserve(flows_by_id_.size());
  // The registry is already in ascending id order — the snapshot inherits it.
  for (const auto& [id, cls] : flows_by_id_) {
    infos.push_back(FlowInfo{id, cls->src, cls->dst, cls->Rate()});
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
