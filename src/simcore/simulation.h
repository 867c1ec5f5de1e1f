// Discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and an event queue. Events are callbacks scheduled
// at absolute virtual times; ties are broken by insertion order so runs are fully
// deterministic. Everything in the cluster simulator (devices, schedulers, tasks) is
// driven by this kernel — no wall-clock time or threads are involved.
//
// All events sharing one timestamp form an *epoch*. Components can defer work to
// the end of the current epoch with AtEpochEnd() — the point at which every event
// carrying the current timestamp has fired, just before the clock would advance.
// The network fabric uses this to coalesce all flow arrivals and departures at one
// timestamp into a single max-min solve instead of re-solving per event. The
// registered audit sweep consequently also runs per epoch rather than per event:
// mid-epoch component state is transiently stale by design, and the allocations
// that exist while the clock stands still are exactly the ones the end-of-epoch
// sweep certifies.
//
// Cancellation is lazy: Cancel() marks the queued record as a tombstone, which is
// discarded when it reaches the front of the queue. A cancel-heavy component would
// otherwise grow the queue with dead entries whose virtual times lie far in the
// future, so the queue compacts itself — dropping all tombstones and
// re-heapifying — whenever tombstones outnumber live events (and the queue is big
// enough for the rebuild to pay off). This bounds the queue to at most twice the
// live event count plus a constant. The fluid models (FluidServer, the network
// fabric) keep one completion event each and re-arm it only when their earliest
// completion time moves, so most rate changes leave no tombstone at all.
//
// Memory layout (see DESIGN.md, "Kernel memory layout"): steady-state
// schedule/fire performs zero heap allocations. Event records live in
// slab-allocated pools recycled through a free list, callbacks are stored
// inline (InlineCallback, arena fallback for oversize captures), and handles
// carry a generation counter instead of shared ownership, so record reuse and
// compaction cannot be observed through a stale handle.
//
// The queue itself is two-level. Entries ordered before a moving boundary
// live in the *near* structures (a descending sorted array popped from the
// back, plus a small 4-ary heap for entries scheduled mid-batch); everything
// at or beyond the boundary sits in an unsorted *far* buffer that costs one
// append to schedule into. When the near side drains, a batch of the
// earliest far entries is carved out (nth_element + one sort) and becomes
// the next near array. A heap over millions of future events pays a
// cache-missing sift per operation; the two-level layout replaces that with
// sequential batched sorting, roughly doubling schedule/fire throughput at
// queue depths in the millions. Fire order is (time, sequence) either way,
// so the event schedule — and with it the run digest — is bit-identical to
// a single-heap kernel's.
#ifndef MONOTASKS_SRC_SIMCORE_SIMULATION_H_
#define MONOTASKS_SRC_SIMCORE_SIMULATION_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/simcore/audit.h"
#include "src/simcore/flight_recorder.h"
#include "src/simcore/inline_callback.h"

namespace monosim {

using monoutil::SimTime;

class Simulation;

// Pooled storage for one scheduled event. Records are owned by the
// Simulation's slab pool and recycled through a free list: `generation` is
// bumped every time a record returns to the pool, so a handle created for an
// earlier occupant can tell the record no longer belongs to its event.
struct EventRecord {
  InlineCallback fn;
  uint64_t generation = 0;
  const char* tag = "";
  EventRecord* next_free = nullptr;
  bool cancelled = false;
};

// Handle to a scheduled event; lets the owner cancel it before it fires. Default
// constructed handles are empty. Handles are cheap to copy and never own the
// record: they hold (record, generation) plus a shared liveness slot for the
// owning Simulation, so Cancel()/pending() stay safe after the record has been
// recycled, after compaction freed it, and even after the Simulation itself
// has been destroyed (the handle then degrades to an inert one).
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Safe to call repeatedly, on an
  // empty handle, on a handle whose record has been recycled, and on a handle
  // that outlived its Simulation.
  void Cancel();

  // True if this handle refers to an event that has neither fired nor been cancelled.
  bool pending() const;

 private:
  friend class Simulation;
  EventHandle(std::shared_ptr<Simulation*> owner, EventRecord* record,
              uint64_t generation)
      : owner_(std::move(owner)), record_(record), generation_(generation) {}

  // Points at the owning Simulation, nulled by its destructor. One shared
  // control block per Simulation (not per event): copying a handle is a
  // refcount bump, never an allocation.
  std::shared_ptr<Simulation*> owner_;
  EventRecord* record_ = nullptr;
  uint64_t generation_ = 0;
};

// Collects the (fired_events, digest) pair of every Simulation destroyed while
// the trail is installed, in destruction order. The determinism test listener
// (tests/digest_listener.cc) installs one per test and compares trails across
// repeated runs: same seed must mean same schedule, byte for byte. Trails nest
// SimAudit-style; the innermost installed trail records.
class SimDigestTrail {
 public:
  struct Entry {
    uint64_t fired = 0;
    uint64_t digest = 0;
    bool operator==(const Entry&) const = default;
  };

  SimDigestTrail();
  ~SimDigestTrail();

  SimDigestTrail(const SimDigestTrail&) = delete;
  SimDigestTrail& operator=(const SimDigestTrail&) = delete;

  // The innermost installed trail, or nullptr.
  static SimDigestTrail* current();

  void Record(uint64_t fired, uint64_t digest) { entries_.push_back({fired, digest}); }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  SimDigestTrail* previous_;
  std::vector<Entry> entries_;
};

class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current virtual time in seconds. Starts at 0.
  SimTime now() const { return now_; }

  // Schedules `fn` (any void() callable; captures beyond InlineCallback's
  // inline buffer draw pooled storage from the kernel arena) to run at
  // absolute virtual time `when` (must be >= now()). `tag` labels the event in
  // the run digest; it must point at storage that outlives the event (pass a
  // string literal).
  template <typename F>
  EventHandle ScheduleAt(SimTime when, F&& fn, const char* tag = "") {
    return ScheduleRecord(when, Wrap(std::forward<F>(fn)), tag);
  }

  // Schedules `fn` to run `delay` seconds from now (delay must be >= 0).
  template <typename F>
  EventHandle ScheduleAfter(SimTime delay, F&& fn, const char* tag = "") {
    MONO_CHECK(delay >= SimTime());
    return ScheduleRecord(now_ + delay, Wrap(std::forward<F>(fn)), tag);
  }

  // Runs until the event queue is empty.
  void Run();

  // Runs until the queue is empty or the next *live* event lies beyond `deadline`;
  // the clock is advanced to `deadline` if the run was cut short. A remainder made
  // up entirely of cancelled tombstones counts as drained (the drain-phase audit
  // checks run), exactly as if the queue were empty.
  void RunUntil(SimTime deadline);

  // Fires at most one event (skipping cancelled ones). Returns false when empty.
  // When the fired event is the last one carrying the current timestamp, the
  // pending AtEpochEnd callbacks and the epoch-boundary audit sweep run before
  // Step returns.
  bool Step();

  // Defers `fn` to the end of the current epoch: it runs once every event sharing
  // the current timestamp has fired (equivalently, just before the clock would
  // next advance past now()), and before the epoch-boundary audit sweep.
  // Callbacks run in registration order, are one-shot, and may schedule new
  // events — including at the current time, which re-opens the epoch (the sweep
  // then waits for the new events and any re-registered callbacks). Work
  // registered outside Run()/Step() is flushed before the next event fires, at
  // the still-current time.
  template <typename F>
  void AtEpochEnd(F&& fn) {
    InlineCallback task = Wrap(std::forward<F>(fn));
    MONO_CHECK(static_cast<bool>(task));
    epoch_tasks_.push_back(std::move(task));
  }

  // Number of (non-cancelled) events fired so far.
  uint64_t fired_events() const { return fired_; }

  // Rolling FNV-1a hash over every fired event's (time, sequence, tag) tuple —
  // a compact witness of the whole schedule. Two runs with the same seed and
  // the same code must produce identical digests; any dependence on heap
  // addresses, wall clock, or uncontrolled entropy shows up as a digest
  // mismatch. Cancelled events never contribute (they did not shape the run);
  // the sequence numbers of fired events do, so the *scheduling* order is
  // covered transitively.
  uint64_t digest() const { return digest_; }

  // Queue introspection (tests, benches): total entries including tombstones, and
  // the tombstones among them. queue_size() - queued_tombstones() is the live count.
  size_t queue_size() const {
    return near_sorted_.size() + near_heap_.size() + far_.size();
  }
  uint64_t queued_tombstones() const { return tombstones_; }

  // Compaction is on by default; benches switch it off to measure its effect.
  void set_compaction_enabled(bool enabled) { compaction_enabled_ = enabled; }

  // Queues smaller than this never compact: scanning a handful of entries costs
  // more in bookkeeping than the tombstones cost in memory.
  static constexpr size_t kCompactionMinQueueSize = 64;

  // The arena backing event/epoch callbacks whose captures exceed the inline
  // buffer. Components owned by this simulation (FluidServer, the network
  // fabric) draw their pooled callback storage from here too.
  CallbackArena* callback_arena() { return &callback_arena_; }

  // Pool introspection (tests): event records currently carved from slabs.
  size_t event_pool_capacity() const { return slabs_.size() * kRecordsPerSlab; }

  // Invariant auditing (see audit.h). Registered components are re-checked after
  // every fired event and when the queue drains, whenever a SimAudit is installed.
  // Components must unregister before they are destroyed.
  void RegisterAuditable(const Auditable* auditable);
  void UnregisterAuditable(const Auditable* auditable);

  // Black-box event trail (flight_recorder.h): every fired event is recorded
  // into a bounded ring, dumped to stderr automatically the first time the
  // epoch-boundary/drain audit sweep records a new violation, or when a
  // MONO_CHECK fails while this simulation is stepping. Always on; the
  // telemetry-off bench variant disables it via flight_recorder().
  FlightRecorder& flight_recorder() { return recorder_; }
  const FlightRecorder& flight_recorder() const { return recorder_; }

  // Writes the recorder trail plus the kernel's digest line to `out`.
  void DumpFlightRecorder(std::FILE* out) const;

 private:
  friend class EventHandle;

  // Events recycled per slab allocation. 256 records (~24 KiB) amortizes pool
  // growth to one heap allocation per 256 concurrent events, after which the
  // free list serves every schedule.
  static constexpr size_t kRecordsPerSlab = 256;

  // Runs every registered component's checks, plus the kernel's own clock
  // monotonicity check. No-op when no audit is installed.
  void RunAuditChecks(AuditPhase phase);

  // Queue entry: 24 bytes, so sorting and sifting move a third of the bytes a
  // shared_ptr-carrying entry did. The callback and tag live in the record,
  // off the comparison path.
  struct QueueEntry {
    SimTime when;
    uint64_t seq;
    EventRecord* record;
  };

  static bool Earlier(const QueueEntry& a, const QueueEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  // True when (when, seq) sorts before the near/far boundary, i.e. the entry
  // belongs in the near structures.
  bool BeforeLimit(SimTime when, uint64_t seq) const {
    if (when != limit_when_) {
      return when < limit_when_;
    }
    return seq < limit_seq_;
  }

  // Migration batch sizing: take at least kMinMigrateBatch entries (small
  // batches don't amortize the nth_element pass over far_), and at least
  // 1/kMigrateShrinkDivisor of far_ (so the total partitioning work across a
  // drain is a geometric series, O(1) amortized per event).
  static constexpr size_t kMinMigrateBatch = 1 << 16;
  static constexpr size_t kMigrateShrinkDivisor = 4;

  // 4-ary heap primitives over near_heap_.
  void SiftUp(size_t index);
  void SiftDown(size_t index);
  void BuildHeap();

  // Returns the earliest queued entry — migrating a batch out of far_ when
  // the near structures are empty — or nullptr when the whole queue is
  // drained. The returned entry may be a tombstone.
  QueueEntry* FrontRaw();

  // Discards cancelled entries at the front of the queue; returns the
  // earliest live entry, or nullptr when the queue is drained.
  QueueEntry* FrontLive();

  // Carves the next batch of earliest far_ entries into near_sorted_
  // (dropping tombstones on the way) and advances the near/far boundary.
  // Called only with both near structures empty and far_ non-empty.
  void MigrateFar();

  // Wraps a callable for the kernel arena; a ready-made InlineCallback (e.g.
  // one a component built against callback_arena() already) passes through
  // without re-wrapping.
  template <typename F>
  InlineCallback Wrap(F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      return std::forward<F>(fn);
    } else {
      return InlineCallback(std::forward<F>(fn), &callback_arena_);
    }
  }

  // Shared implementation behind the ScheduleAt/ScheduleAfter templates.
  EventHandle ScheduleRecord(SimTime when, InlineCallback&& fn, const char* tag);

  // Slab pool plumbing: records come from the free list (growing a slab when
  // dry) and return to it with their generation bumped.
  EventRecord* AllocRecord();
  void FreeRecord(EventRecord* record);
  void GrowRecordPool();

  // Cancels `record` if `generation` still identifies the caller's event.
  void CancelRecord(EventRecord* record, uint64_t generation);

  // Removes and returns the earliest entry, maintaining the tombstone count.
  // A cancelled entry's record is freed before returning; a live entry's
  // record stays alive for the caller to fire and free. Callers must have
  // seen FrontRaw() != nullptr (the front then sits in the near structures).
  QueueEntry PopTop();

  // True when no live event shares the current timestamp: the epoch is over once
  // pending AtEpochEnd callbacks have run.
  bool NoLiveEventAtNow();

  // Runs and clears the pending epoch-end callbacks (which may register more).
  void RunEpochTasks();

  // Drops every tombstone and re-heapifies when tombstones outnumber live entries.
  void MaybeCompact();

  // Folds a fired event's identity into the run digest.
  void MixDigest(SimTime when, uint64_t seq, const char* tag);

  // Declared first: every InlineCallback below (queued events, pooled records,
  // epoch tasks) may hold an arena block, so the arena must be destroyed last.
  CallbackArena callback_arena_;
  std::vector<std::unique_ptr<EventRecord[]>> slabs_;
  EventRecord* free_records_ = nullptr;
  // Liveness slot shared with every handle; the destructor nulls it.
  std::shared_ptr<Simulation*> self_slot_;

  SimTime now_;
  uint64_t next_seq_ = 0;
  uint64_t fired_ = 0;
  uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a 64-bit offset basis.
  SimTime last_fired_time_;
  // Two-level event queue. near_sorted_ (descending by (when, seq), popped
  // from the back) and near_heap_ (flat 4-ary min-heap for entries scheduled
  // after the current batch was carved) hold every entry ordered before the
  // boundary (limit_when_, limit_seq_); far_ is an unsorted append-only
  // buffer for everything at or beyond it. All three are plain vectors so
  // compaction can filter them in place. The boundary starts at -inf: the
  // first schedule lands in far_, and the first pop migrates a batch.
  std::vector<QueueEntry> near_sorted_;
  std::vector<QueueEntry> near_heap_;
  std::vector<QueueEntry> far_;
  SimTime limit_when_{-std::numeric_limits<double>::infinity()};
  uint64_t limit_seq_ = 0;
  uint64_t tombstones_ = 0;
  bool compaction_enabled_ = true;
  std::vector<const Auditable*> auditables_;
  std::vector<InlineCallback> epoch_tasks_;
  // Ping-pong buffer for RunEpochTasks: the running batch swaps in here so new
  // registrations land in epoch_tasks_, and both vectors keep their capacity —
  // no steady-state allocation per epoch flush.
  std::vector<InlineCallback> epoch_run_buffer_;
  FlightRecorder recorder_;
  // The audit-violation dump fires once per simulation, not per violation.
  bool recorder_dumped_ = false;
  // Violation count already seen in the installed audit, so the boundary sweep
  // also notices violations reported inline (mid-event) since the last sweep.
  const SimAudit* last_audit_ = nullptr;
  size_t audit_violations_seen_ = 0;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_SIMCORE_SIMULATION_H_
