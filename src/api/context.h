// MonoContext: the driver of the threaded monotasks engine.
//
// Owns the in-process cluster (workers + fabric), turns logical plans into stages at
// shuffle boundaries, decomposes each stage into one multitask per partition, and
// decomposes each multitask into its monotask DAG on the assigned worker:
//
//   map-like:     [disk-read | remote fetch]  ->  compute  ->  disk-write
//   reduce-like:  [local shuffle disk-reads + remote fetch set]  ->  compute  -> ...
//
// Workers are assigned up to their §3.4 multitask limit; there is no
// tasks-per-machine knob (§7). Per-stage monotask service times are accumulated and
// exposed in EngineJobMetrics, feeding the same §6 performance model as the cluster
// simulator.
#ifndef MONOTASKS_SRC_API_CONTEXT_H_
#define MONOTASKS_SRC_API_CONTEXT_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/api/plan.h"
#include "src/api/serde.h"
#include "src/engine/worker.h"

namespace monotasks {

// Per-stage instrumentation: total service seconds per monotask type (the engine
// counterpart of the simulator's MonotaskTimes).
struct EngineStageMetrics {
  std::string name;
  double wall_seconds = 0.0;
  double compute_seconds = 0.0;
  double disk_read_seconds = 0.0;
  double disk_write_seconds = 0.0;
  double network_seconds = 0.0;
  monoutil::Bytes disk_read_bytes;
  monoutil::Bytes disk_write_bytes;
  monoutil::Bytes network_bytes;
  int num_tasks = 0;
};

struct EngineJobMetrics {
  std::vector<EngineStageMetrics> stages;
  double wall_seconds = 0.0;
};

class MonoContext {
 public:
  explicit MonoContext(EngineConfig config = {});
  ~MonoContext();

  MonoContext(const MonoContext&) = delete;
  MonoContext& operator=(const MonoContext&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }
  Worker& worker(int index) { return *workers_[static_cast<size_t>(index)]; }
  const EngineConfig& config() const { return config_; }

  // Distributes serialized partitions across the workers' disks (round-robin) under
  // `name`, creating a source usable by plans. Returns the partition count.
  int CreateSource(const std::string& name, std::vector<Buffer> partitions);

  // Registers partitions as an *in-memory* source: reads cost no disk time (the
  // engine-level equivalent of Spark's deserialized in-memory cache, §6.3).
  // Partitions are pinned round-robin to workers; a non-local consumer pays the
  // network transfer.
  int CreateMemorySource(const std::string& name, std::vector<Buffer> partitions);

  // Runs the plan rooted at `node` and returns one serialized buffer per output
  // partition (collected to the driver). Metrics for the run replace
  // last_job_metrics(). One job runs at a time per context: RunJob is not safe to
  // call from multiple threads concurrently (stages inside the job are, of course,
  // fully parallel).
  std::vector<Buffer> RunJob(const std::shared_ptr<const PlanNode>& root);

  // Runs the plan and writes its output partitions to worker disks as blocks named
  // `name.<p>` (a new source), instead of collecting.
  void RunJobToSource(const std::shared_ptr<const PlanNode>& root,
                      const std::string& name);

  const EngineJobMetrics& last_job_metrics() const { return last_metrics_; }

 private:
  struct StagePlan;
  struct ShuffleSegment;
  struct SourceBlock;
  class StageRunner;

  std::vector<StagePlan> BuildStages(const std::shared_ptr<const PlanNode>& root) const;
  std::vector<Buffer> Execute(const std::shared_ptr<const PlanNode>& root,
                              const std::string& save_as);
  // Runs a sub-plan (the right parent of a join) to a shuffle output bucketed for
  // `num_out_partitions` consumers.
  std::vector<ShuffleSegment> RunToShuffle(
      const std::shared_ptr<const PlanNode>& root,
      const std::function<std::vector<Buffer>(const Buffer&, int)>& partition_fn,
      int num_out_partitions);
  // Deletes the shuffle blocks behind `segments` from their workers' disks.
  // Shuffle blocks are job-local: once the stage that reads them returns they
  // have no reader left.
  void DeleteShuffleBlocks(const std::vector<ShuffleSegment>& segments);

  EngineConfig config_;
  std::unique_ptr<InProcessFabric> fabric_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex catalog_mutex_;
  // Uniquifies shuffle block names across stages, jobs, and join sub-plans.
  mutable std::atomic<uint64_t> stage_counter_{0};
  // source name -> per-partition location.
  std::map<std::string, std::vector<SourceBlock>> sources_;
  int next_shuffle_id_ = 0;
  EngineJobMetrics last_metrics_;
};

}  // namespace monotasks

#endif  // MONOTASKS_SRC_API_CONTEXT_H_
