// FluidClass: the shared fluid primitive behind every capacity-shared resource
// in the simulator — a set of jobs that all progress at one common rate.
//
// Processor sharing serves every job of a class at the same rate, so instead
// of draining each job's remaining work on every rate change, the class keeps
// one virtual clock: the work served per job since the class became
// non-empty. A job joining at clock reading v with `amount` work gets the
// fixed finish tag v + amount; it completes when the clock reaches its tag.
// Tags never move, so the jobs sit in a (finish, id) min-heap whose head is
// the class's next completion, and a rate change costs one clock advance and
// one head re-key however many jobs the class holds. This is GPS virtual time
// (Demers, Keshav & Shenker, SIGCOMM '89) restricted to jobs of equal weight.
//
// Users: the network fabric keeps one class per (src, dst) pair (all flows of
// a pair share a max-min rate), and FluidServer keeps one class per distinct
// share weight (jobs of one weight share a weighted-fair rate). Both own the
// policy that picks the rate; this header owns only the arithmetic, so every
// user advances clocks and predicts completions bit-identically.
//
// `Job` is any struct with a `double finish` tag and a `uint64_t id`; ids
// break ties between equal tags, so completion order is deterministic.
#ifndef MONOTASKS_SRC_SIMCORE_FLUID_CLASS_H_
#define MONOTASKS_SRC_SIMCORE_FLUID_CLASS_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace monosim {

using monoutil::SimTime;

template <typename Job>
struct FluidClass {
  // A job whose unserved work falls below this many seconds of service at
  // the class rate counts as complete; expressed in seconds so it is
  // independent of the work-unit scale.
  static constexpr double kCompletionEpsilonSeconds = 1e-9;

  // Work units per second granted to each job of the class. Unit-agnostic:
  // bytes per second on the fabric and disks, cores on a CPU pool.
  // mono_lint: allow(raw-unit-double) -- abstract work units per second.
  double rate = 0.0;
  // The virtual clock — work served per job since the class became
  // non-empty — as of `clock_at`. Only Advance() moves this basis, so the
  // head completion time stays a fixed function of (rate, served, clock_at).
  double served = 0.0;
  SimTime clock_at;
  std::vector<Job> jobs;  // Min-heap on (finish, id).
  // The head's completion time as last predicted by the class's owner;
  // negative while the class is not yet rated.
  SimTime predicted_done{-1.0};

  // Heap order for std::push_heap/pop_heap: true when `a` finishes after
  // `b`, so the (finish, id) minimum sits at the front. A function object, so
  // the heap algorithms inline it.
  struct FinishesAfter {
    bool operator()(const Job& a, const Job& b) const {
      return a.finish > b.finish || (a.finish == b.finish && a.id > b.id);
    }
  };

  // Restarts an empty class at `now`: unrated, clock zero.
  void Reset(SimTime now) {
    rate = 0.0;
    served = 0.0;
    clock_at = now;
    predicted_done = SimTime(-1.0);
  }

  // The clock's reading at `now`.
  double ServedAt(SimTime now) const {
    return served + rate * (now - clock_at).seconds();
  }
  // Moves the clock's basis to `now` under the current rate; call before
  // installing a new rate.
  void Advance(SimTime now) {
    served = ServedAt(now);
    clock_at = now;
  }
  // When the clock reaches the head's tag at the current rate.
  SimTime HeadCompletion() const {
    return clock_at + SimTime(std::max(0.0, jobs.front().finish - served) / rate);
  }
  // How far a tag may trail the clock and still count as complete.
  double Epsilon() const { return std::max(rate, 1.0) * kCompletionEpsilonSeconds; }
  bool HeadDue(SimTime now) const {
    return jobs.front().finish - ServedAt(now) <= Epsilon();
  }

  // Admits `job`, its tag already set from ServedAt.
  void Push(Job&& job) {
    jobs.push_back(std::move(job));
    std::push_heap(jobs.begin(), jobs.end(), FinishesAfter());
  }
  // Removes and returns the head.
  Job PopHead() {
    std::pop_heap(jobs.begin(), jobs.end(), FinishesAfter());
    Job job = std::move(jobs.back());
    jobs.pop_back();
    return job;
  }
  // Removes and returns the job at heap position `index`, restoring the heap.
  Job RemoveAt(size_t index) {
    std::swap(jobs[index], jobs.back());
    Job job = std::move(jobs.back());
    jobs.pop_back();
    std::make_heap(jobs.begin(), jobs.end(), FinishesAfter());
    return job;
  }

  // Audit predicates. The heap is ordered on (finish, id), and no tag trails
  // the clock at `now` by more than the completion epsilon (such a job's
  // completion was missed).
  bool HeapOrdered() const {
    for (size_t i = 1; i < jobs.size(); ++i) {
      if (FinishesAfter()(jobs[(i - 1) / 2], jobs[i])) {
        return false;
      }
    }
    return true;
  }
  bool ClockConsistent(SimTime now) const {
    const double floor = ServedAt(now) - Epsilon();
    return std::all_of(jobs.begin(), jobs.end(),
                       [floor](const Job& job) { return job.finish >= floor; });
  }
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_SIMCORE_FLUID_CLASS_H_
