#include "src/api/context.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <utility>

#include "src/common/check.h"

namespace monotasks {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

// ---------- internal structures ----------

struct MonoContext::SourceBlock {
  int worker = 0;
  // Disk index holding the block, or kInMemory for cached (memory-resident) blocks.
  static constexpr int kInMemory = -1;
  int disk = 0;
  std::string block_id;
  // Payload for in-memory blocks (disk == kInMemory).
  std::shared_ptr<const Buffer> cached;
};

// Where one map task's shuffle output lives and how it is sliced per reducer.
struct MonoContext::ShuffleSegment {
  int worker = 0;
  int disk = 0;
  std::string block_id;
  std::vector<std::pair<size_t, size_t>> ranges;  // Per reduce partition: offset, len.
};

struct MonoContext::StagePlan {
  std::string name;
  int num_tasks = 0;
  // Input: exactly one of these.
  bool reads_source = false;
  std::string source_name;
  bool reads_shuffle = false;
  std::function<Buffer(std::vector<Buffer>)> merge_fn;
  // Two-parent (cogroup/join) input: the right sub-plan is executed as its own
  // stage chain whose final stage buckets with partition_fn2.
  bool reads_cogroup = false;
  std::function<Buffer(std::vector<Buffer>, std::vector<Buffer>)> merge2_fn;
  std::shared_ptr<const PlanNode> right_plan;
  std::function<std::vector<Buffer>(const Buffer&, int)> right_partition_fn;
  // Body.
  std::vector<std::function<Buffer(const Buffer&)>> transforms;
  // Output.
  bool writes_shuffle = false;
  int shuffle_out_partitions = 0;
  std::function<std::vector<Buffer>(const Buffer&, int)> partition_fn;
};

// ---------- construction ----------

MonoContext::MonoContext(EngineConfig config) : config_(config) {
  MONO_CHECK(config.num_workers >= 1);
  fabric_ = std::make_unique<InProcessFabric>(config.num_workers, config.nic_bandwidth,
                                              config.time_scale);
  for (int w = 0; w < config.num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(w, config, fabric_.get()));
  }
}

MonoContext::~MonoContext() {
  // Quiesce every worker's scheduler threads before any worker is destroyed:
  // shuffle serves (SubmitDetached) let one worker's threads submit into
  // another worker's schedulers, so destruction must not start while any
  // engine thread is alive (Worker::Shutdown).
  for (auto& worker : workers_) {
    worker->Shutdown();
  }
}

int MonoContext::CreateSource(const std::string& name, std::vector<Buffer> partitions) {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  MONO_CHECK_MSG(sources_.find(name) == sources_.end(), "source already exists");
  std::vector<SourceBlock> blocks;
  for (size_t p = 0; p < partitions.size(); ++p) {
    SourceBlock block;
    block.worker = static_cast<int>(p) % num_workers();
    Worker& worker = *workers_[static_cast<size_t>(block.worker)];
    block.disk = static_cast<int>(p / static_cast<size_t>(num_workers())) %
                 worker.num_disks();
    block.block_id = name + "." + std::to_string(p);
    worker.disk(block.disk).Write(block.block_id, std::move(partitions[p]));
    blocks.push_back(std::move(block));
  }
  const int count = static_cast<int>(blocks.size());
  sources_.emplace(name, std::move(blocks));
  return count;
}

int MonoContext::CreateMemorySource(const std::string& name,
                                    std::vector<Buffer> partitions) {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  MONO_CHECK_MSG(sources_.find(name) == sources_.end(), "source already exists");
  std::vector<SourceBlock> blocks;
  for (size_t p = 0; p < partitions.size(); ++p) {
    SourceBlock block;
    block.worker = static_cast<int>(p) % num_workers();
    block.disk = SourceBlock::kInMemory;
    block.block_id = name + "." + std::to_string(p);
    block.cached = std::make_shared<const Buffer>(std::move(partitions[p]));
    blocks.push_back(std::move(block));
  }
  const int count = static_cast<int>(blocks.size());
  sources_.emplace(name, std::move(blocks));
  return count;
}

// ---------- planning ----------

std::vector<MonoContext::StagePlan> MonoContext::BuildStages(
    const std::shared_ptr<const PlanNode>& root) const {
  // Collect the chain source-first.
  std::vector<const PlanNode*> chain;
  for (const PlanNode* node = root.get(); node != nullptr; node = node->parent.get()) {
    chain.push_back(node);
  }
  std::reverse(chain.begin(), chain.end());
  MONO_CHECK_MSG(chain.front()->kind == PlanNode::Kind::kSource,
                 "plan must begin at a source");

  std::vector<StagePlan> stages;
  StagePlan current;
  current.reads_source = true;
  current.source_name = chain.front()->source_name;
  current.num_tasks = chain.front()->num_partitions;
  for (size_t i = 1; i < chain.size(); ++i) {
    const PlanNode* node = chain[i];
    switch (node->kind) {
      case PlanNode::Kind::kSource:
        MONO_CHECK_MSG(false, "source in the middle of a plan");
        break;
      case PlanNode::Kind::kNarrow:
        current.transforms.push_back(node->transform);
        break;
      case PlanNode::Kind::kShuffle: {
        current.writes_shuffle = true;
        current.shuffle_out_partitions = node->num_partitions;
        current.partition_fn = node->partition_fn;
        current.name = "stage" + std::to_string(stage_counter_.fetch_add(1));
        stages.push_back(std::move(current));
        current = StagePlan{};
        current.reads_shuffle = true;
        current.merge_fn = node->merge_fn;
        current.num_tasks = node->num_partitions;
        break;
      }
      case PlanNode::Kind::kCoGroup: {
        // Left side: the chain we are walking buckets with partition_fn.
        current.writes_shuffle = true;
        current.shuffle_out_partitions = node->num_partitions;
        current.partition_fn = node->partition_fn;
        current.name = "stage" + std::to_string(stage_counter_.fetch_add(1));
        stages.push_back(std::move(current));
        // The joining stage: consumes the left shuffle plus the right sub-plan's.
        current = StagePlan{};
        current.reads_cogroup = true;
        current.merge2_fn = node->merge2_fn;
        current.right_plan = node->parent2;
        current.right_partition_fn = node->partition_fn2;
        current.num_tasks = node->num_partitions;
        break;
      }
    }
  }
  current.name = "stage" + std::to_string(stage_counter_.fetch_add(1));
  stages.push_back(std::move(current));
  return stages;
}

// ---------- stage execution ----------

class MonoContext::StageRunner {
 public:
  StageRunner(MonoContext* ctx, const StagePlan& plan,
              const std::vector<ShuffleSegment>* input_shuffle,
              const std::vector<ShuffleSegment>* input_shuffle2,
              std::vector<ShuffleSegment>* output_shuffle,
              std::vector<Buffer>* collected, std::string save_as,
              EngineStageMetrics* metrics)
      : ctx_(ctx),
        plan_(plan),
        input_shuffle_(input_shuffle),
        input_shuffle2_(input_shuffle2),
        output_shuffle_(output_shuffle),
        collected_(collected),
        save_as_(std::move(save_as)),
        metrics_(metrics),
        local_queue_(static_cast<size_t>(ctx->num_workers())),
        active_(static_cast<size_t>(ctx->num_workers()), 0) {}

  void Run() {
    remaining_ = plan_.num_tasks;
    if (collected_ != nullptr) {
      collected_->assign(static_cast<size_t>(plan_.num_tasks), Buffer{});
    }
    if (output_shuffle_ != nullptr) {
      output_shuffle_->assign(static_cast<size_t>(plan_.num_tasks), ShuffleSegment{});
    }
    // Build locality queues.
    if (plan_.reads_source) {
      const auto& blocks = ctx_->sources_.at(plan_.source_name);
      MONO_CHECK_MSG(static_cast<int>(blocks.size()) == plan_.num_tasks,
                     "stage task count must match the source partition count");
      for (int t = 0; t < plan_.num_tasks; ++t) {
        local_queue_[static_cast<size_t>(blocks[static_cast<size_t>(t)].worker)]
            .push_back(t);
      }
    } else {
      for (int t = 0; t < plan_.num_tasks; ++t) {
        any_queue_.push_back(t);
      }
    }
    const auto start = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Breadth-first initial fill.
      bool assigned = true;
      while (assigned) {
        assigned = false;
        for (int w = 0; w < ctx_->num_workers(); ++w) {
          if (AssignOneLocked(w)) {
            assigned = true;
          }
        }
      }
      cv_.wait(lock, [this] { return remaining_ == 0; });
    }
    metrics_->wall_seconds = SecondsSince(start);
    metrics_->num_tasks = plan_.num_tasks;
    metrics_->name = plan_.name;
  }

 private:
  // Must hold mutex_. Returns true if a task was launched on `worker`.
  bool AssignOneLocked(int worker) {
    Worker& w = ctx_->worker(worker);
    // Task-thread mode has slots (= cores), the knob monotasks removes (§7); the
    // monotasks mode uses the §3.4 formula.
    const int limit = ctx_->config_.mode == ExecutionMode::kTaskThreads
                          ? ctx_->config_.cores_per_worker
                          : w.MultitaskLimit();
    if (active_[static_cast<size_t>(worker)] >= limit) {
      return false;
    }
    int task = -1;
    auto& local = local_queue_[static_cast<size_t>(worker)];
    if (!local.empty()) {
      task = local.front();
      local.pop_front();
    } else if (!any_queue_.empty()) {
      task = any_queue_.front();
      any_queue_.pop_front();
    } else {
      // Steal from the most-loaded local queue.
      size_t best = 0;
      size_t best_size = 0;
      for (size_t q = 0; q < local_queue_.size(); ++q) {
        if (local_queue_[q].size() > best_size) {
          best = q;
          best_size = local_queue_[q].size();
        }
      }
      if (best_size == 0) {
        return false;
      }
      task = local_queue_[best].front();
      local_queue_[best].pop_front();
    }
    ++active_[static_cast<size_t>(worker)];
    LaunchTask(task, worker);
    return true;
  }

  void OnTaskDone(int worker) {
    const std::lock_guard<std::mutex> lock(mutex_);
    --active_[static_cast<size_t>(worker)];
    --remaining_;
    if (remaining_ == 0) {
      cv_.notify_all();
      return;
    }
    while (AssignOneLocked(worker)) {
    }
  }

  void AddMetrics(double* field, double seconds) {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    *field += seconds;
  }
  void AddBytes(monoutil::Bytes* field, monoutil::Bytes bytes) {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    *field += bytes;
  }

  // Unified view over the one or two input shuffle segment vectors.
  size_t TotalSegments() const {
    size_t total = input_shuffle_ != nullptr ? input_shuffle_->size() : 0;
    if (input_shuffle2_ != nullptr) {
      total += input_shuffle2_->size();
    }
    return total;
  }
  const ShuffleSegment& SegmentAt(size_t index) const {
    const size_t left = input_shuffle_->size();
    if (index < left) {
      return (*input_shuffle_)[index];
    }
    return (*input_shuffle2_)[index - left];
  }

  void LaunchTask(int task, int worker_index);
  void LaunchTaskThread(int task, int worker_index);

  MonoContext* ctx_;
  const StagePlan& plan_;
  const std::vector<ShuffleSegment>* input_shuffle_;
  const std::vector<ShuffleSegment>* input_shuffle2_;
  std::vector<ShuffleSegment>* output_shuffle_;
  std::vector<Buffer>* collected_;
  const std::string save_as_;
  EngineStageMetrics* metrics_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::deque<int>> local_queue_;
  std::deque<int> any_queue_;
  std::vector<int> active_;
  int remaining_ = 0;
  std::mutex metrics_mutex_;
};

void MonoContext::StageRunner::LaunchTask(int task, int worker_index) {
  if (ctx_->config_.mode == ExecutionMode::kTaskThreads) {
    LaunchTaskThread(task, worker_index);
    return;
  }
  Worker& worker = ctx_->worker(worker_index);

  // Shared mutable state of this multitask, owned by the closures.
  struct TaskData {
    Buffer input;                  // Source-read input.
    std::vector<Buffer> fetched;   // Shuffle: one buffer per map task.
    Buffer output;                 // Serialized block to write / collect.
    std::vector<std::pair<size_t, size_t>> out_ranges;  // Shuffle output slices.
  };
  auto data = std::make_shared<TaskData>();

  std::vector<std::unique_ptr<Monotask>> tasks;
  std::vector<std::pair<Monotask*, Monotask*>> edges;
  std::vector<Monotask*> inputs;

  if (plan_.reads_source) {
    // Copied under the catalog lock: disk-write completions of this very stage
    // insert the save-target key into sources_ concurrently (tree rebalance),
    // so even reads of a pre-existing key must synchronize.
    SourceBlock block;
    {
      const std::lock_guard<std::mutex> lock(ctx_->catalog_mutex_);
      block = ctx_->sources_.at(plan_.source_name)[static_cast<size_t>(task)];
    }
    if (block.disk == SourceBlock::kInMemory) {
      if (block.worker == worker_index) {
        // Cached locally: no input monotask at all; hand the buffer to compute.
        data->input = *block.cached;
      } else {
        // Cached on another worker: a network monotask pays only the transfer.
        auto fetch = std::make_unique<FunctionMonotask>(
            ResourceType::kNetwork, "fetch-cached:" + block.block_id,
            [this, data, worker_index, block] {
              const auto start = std::chrono::steady_clock::now();
              ctx_->fabric_->Transfer(block.worker, worker_index,
                                      static_cast<monoutil::Bytes>(block.cached->size()));
              data->input = *block.cached;
              AddBytes(&metrics_->network_bytes,
                       static_cast<monoutil::Bytes>(data->input.size()));
              AddMetrics(&metrics_->network_seconds, SecondsSince(start));
            });
        inputs.push_back(fetch.get());
        tasks.push_back(std::move(fetch));
      }
    } else if (block.worker == worker_index) {
      auto read = std::make_unique<FunctionMonotask>(
          ResourceType::kDisk, "read:" + block.block_id,
          [this, data, &worker, block] {
            const auto start = std::chrono::steady_clock::now();
            data->input = worker.disk(block.disk).Read(block.block_id);
            AddMetrics(&metrics_->disk_read_seconds, SecondsSince(start));
            AddBytes(&metrics_->disk_read_bytes,
                     static_cast<monoutil::Bytes>(data->input.size()));
          });
      read->disk_index = block.disk;
      read->disk_queue = DiskQueue::kRead;
      inputs.push_back(read.get());
      tasks.push_back(std::move(read));
    } else {
      // Remote block: a network monotask that has the block served by the home
      // worker's disk scheduler, then pays for the transfer.
      auto fetch = std::make_unique<FunctionMonotask>(
          ResourceType::kNetwork, "fetch:" + block.block_id,
          [this, data, worker_index, block] {
            const auto start = std::chrono::steady_clock::now();
            Worker& home = ctx_->worker(block.worker);
            auto buffer = std::make_shared<Buffer>();
            std::promise<void> served;
            auto serve = std::make_unique<FunctionMonotask>(
                ResourceType::kDisk, "serve:" + block.block_id,
                [this, buffer, &home, block] {
                  const auto serve_start = std::chrono::steady_clock::now();
                  *buffer = home.disk(block.disk).Read(block.block_id);
                  AddMetrics(&metrics_->disk_read_seconds, SecondsSince(serve_start));
                  AddBytes(&metrics_->disk_read_bytes,
                           static_cast<monoutil::Bytes>(buffer->size()));
                });
            serve->disk_index = block.disk;
            serve->disk_queue = DiskQueue::kServe;
            // mono_lint: allow(escaping-capture) -- this frame blocks on the future below until the callback fires.
            home.SubmitDetached(std::move(serve), [&served] { served.set_value(); });
            served.get_future().wait();
            ctx_->fabric_->Transfer(block.worker, worker_index,
                                    static_cast<monoutil::Bytes>(buffer->size()));
            data->input = std::move(*buffer);
            AddBytes(&metrics_->network_bytes,
                     static_cast<monoutil::Bytes>(data->input.size()));
            AddMetrics(&metrics_->network_seconds, SecondsSince(start));
          });
      inputs.push_back(fetch.get());
      tasks.push_back(std::move(fetch));
    }
  }

  if (plan_.reads_shuffle || plan_.reads_cogroup) {
    MONO_CHECK(input_shuffle_ != nullptr);
    const size_t total_segments = TotalSegments();
    data->fetched.assign(total_segments, Buffer{});

    // Local portions: one disk-read monotask per local disk holding segments.
    std::vector<std::vector<int>> per_disk(
        static_cast<size_t>(worker.num_disks()));
    std::vector<int> remote_segments;
    for (size_t m = 0; m < total_segments; ++m) {
      if (SegmentAt(m).worker == worker_index) {
        per_disk[static_cast<size_t>(SegmentAt(m).disk)].push_back(static_cast<int>(m));
      } else {
        remote_segments.push_back(static_cast<int>(m));
      }
    }
    for (int d = 0; d < worker.num_disks(); ++d) {
      if (per_disk[static_cast<size_t>(d)].empty()) {
        continue;
      }
      auto read = std::make_unique<FunctionMonotask>(
          ResourceType::kDisk, "shuffle-read-local",
          [this, data, &worker, d, task,
           segment_ids = per_disk[static_cast<size_t>(d)]] {
            const auto start = std::chrono::steady_clock::now();
            monoutil::Bytes bytes;
            for (int m : segment_ids) {
              const ShuffleSegment& segment = SegmentAt(static_cast<size_t>(m));
              const auto [offset, length] =
                  segment.ranges[static_cast<size_t>(task)];
              data->fetched[static_cast<size_t>(m)] =
                  worker.disk(d).ReadRange(segment.block_id, offset, length);
              bytes += static_cast<monoutil::Bytes>(length);
            }
            AddMetrics(&metrics_->disk_read_seconds, SecondsSince(start));
            AddBytes(&metrics_->disk_read_bytes, bytes);
          });
      read->disk_index = d;
      read->disk_queue = DiskQueue::kRead;
      inputs.push_back(read.get());
      tasks.push_back(std::move(read));
    }

    if (!remote_segments.empty()) {
      // One network monotask performs this multitask's whole remote fetch set, so
      // the receiver-side scheduler admits it as a unit (§3.3).
      auto fetch = std::make_unique<FunctionMonotask>(
          ResourceType::kNetwork, "shuffle-fetch",
          [this, data, worker_index, task, remote_segments] {
            const auto start = std::chrono::steady_clock::now();
            struct PendingFetch {
              int segment;
              std::shared_ptr<Buffer> buffer;
              std::promise<void> served;
            };
            std::vector<std::unique_ptr<PendingFetch>> pending;
            // Issue every serve read up front; they queue on the remote disks.
            for (int m : remote_segments) {
              const ShuffleSegment& segment = SegmentAt(static_cast<size_t>(m));
              auto fetch_state = std::make_unique<PendingFetch>();
              fetch_state->segment = m;
              fetch_state->buffer = std::make_shared<Buffer>();
              Worker& home = ctx_->worker(segment.worker);
              const auto [offset, length] = segment.ranges[static_cast<size_t>(task)];
              auto serve = std::make_unique<FunctionMonotask>(
                  ResourceType::kDisk, "shuffle-serve",
                  [this, buffer = fetch_state->buffer, &home, segment, offset = offset,
                   length = length] {
                    const auto serve_start = std::chrono::steady_clock::now();
                    *buffer = home.disk(segment.disk)
                                  .ReadRange(segment.block_id, offset, length);
                    AddMetrics(&metrics_->disk_read_seconds, SecondsSince(serve_start));
                    AddBytes(&metrics_->disk_read_bytes,
                             static_cast<monoutil::Bytes>(length));
                  });
              serve->disk_index = segment.disk;
              serve->disk_queue = DiskQueue::kServe;
              PendingFetch* raw = fetch_state.get();
              home.SubmitDetached(std::move(serve), [raw] { raw->served.set_value(); });
              pending.push_back(std::move(fetch_state));
            }
            // Collect each portion as it is served, paying the transfer time.
            monoutil::Bytes bytes;
            for (auto& fetch_state : pending) {
              fetch_state->served.get_future().wait();
              const ShuffleSegment& segment =
                  SegmentAt(static_cast<size_t>(fetch_state->segment));
              ctx_->fabric_->Transfer(
                  segment.worker, worker_index,
                  static_cast<monoutil::Bytes>(fetch_state->buffer->size()));
              bytes += static_cast<monoutil::Bytes>(fetch_state->buffer->size());
              data->fetched[static_cast<size_t>(fetch_state->segment)] =
                  std::move(*fetch_state->buffer);
            }
            AddBytes(&metrics_->network_bytes, bytes);
            AddMetrics(&metrics_->network_seconds, SecondsSince(start));
          });
      inputs.push_back(fetch.get());
      tasks.push_back(std::move(fetch));
    }
  }

  // The compute monotask: merge / transform / (bucket for shuffle output).
  auto compute = std::make_unique<FunctionMonotask>(
      ResourceType::kCpu, plan_.name + ".compute",
      [this, data, task] {
        const auto start = std::chrono::steady_clock::now();
        Buffer current;
        if (plan_.reads_cogroup) {
          const size_t left_count = input_shuffle_->size();
          std::vector<Buffer> left(
              std::make_move_iterator(data->fetched.begin()),
              std::make_move_iterator(data->fetched.begin() +
                                      static_cast<ptrdiff_t>(left_count)));
          std::vector<Buffer> right(
              std::make_move_iterator(data->fetched.begin() +
                                      static_cast<ptrdiff_t>(left_count)),
              std::make_move_iterator(data->fetched.end()));
          current = plan_.merge2_fn(std::move(left), std::move(right));
        } else if (plan_.reads_shuffle) {
          current = plan_.merge_fn(std::move(data->fetched));
        } else {
          current = std::move(data->input);
        }
        for (const auto& transform : plan_.transforms) {
          current = transform(current);
        }
        if (plan_.writes_shuffle) {
          std::vector<Buffer> buckets =
              plan_.partition_fn(current, plan_.shuffle_out_partitions);
          MONO_CHECK(static_cast<int>(buckets.size()) == plan_.shuffle_out_partitions);
          Buffer blob;
          data->out_ranges.clear();
          for (const Buffer& bucket : buckets) {
            data->out_ranges.emplace_back(blob.size(), bucket.size());
            blob.insert(blob.end(), bucket.begin(), bucket.end());
          }
          data->output = std::move(blob);
        } else {
          data->output = std::move(current);
        }
        (void)task;
        AddMetrics(&metrics_->compute_seconds, SecondsSince(start));
      });
  Monotask* compute_ptr = compute.get();
  for (Monotask* input : inputs) {
    edges.emplace_back(input, compute_ptr);
  }
  tasks.push_back(std::move(compute));

  // Output monotask.
  const bool writes_disk = plan_.writes_shuffle || !save_as_.empty();
  if (writes_disk) {
    const int disk = worker.PickWriteDisk();
    const std::string block_id = plan_.writes_shuffle
                                     ? "shuffle." + plan_.name + "." + std::to_string(task)
                                     : save_as_ + "." + std::to_string(task);
    auto write = std::make_unique<FunctionMonotask>(
        ResourceType::kDisk, "write:" + block_id,
        [this, data, &worker, disk, block_id, task, worker_index] {
          const auto start = std::chrono::steady_clock::now();
          const auto bytes = static_cast<monoutil::Bytes>(data->output.size());
          worker.disk(disk).Write(block_id, std::move(data->output));
          AddMetrics(&metrics_->disk_write_seconds, SecondsSince(start));
          AddBytes(&metrics_->disk_write_bytes, bytes);
          if (plan_.writes_shuffle) {
            ShuffleSegment segment;
            segment.worker = worker_index;
            segment.disk = disk;
            segment.block_id = block_id;
            segment.ranges = data->out_ranges;
            (*output_shuffle_)[static_cast<size_t>(task)] = std::move(segment);
          } else {
            const std::lock_guard<std::mutex> lock(ctx_->catalog_mutex_);
            auto& blocks = ctx_->sources_[save_as_];
            if (blocks.size() < static_cast<size_t>(plan_.num_tasks)) {
              blocks.resize(static_cast<size_t>(plan_.num_tasks));
            }
            blocks[static_cast<size_t>(task)] =
                SourceBlock{worker_index, disk, block_id};
          }
        });
    write->disk_index = disk;
    write->disk_queue = DiskQueue::kWrite;
    edges.emplace_back(compute_ptr, write.get());
    tasks.push_back(std::move(write));
  } else {
    // Collected output: stash the buffer at compute completion (no disk involved).
    auto stash = std::make_unique<FunctionMonotask>(
        ResourceType::kCpu, "collect",
        [this, data, task] {
          const std::lock_guard<std::mutex> lock(metrics_mutex_);
          (*collected_)[static_cast<size_t>(task)] = std::move(data->output);
        });
    edges.emplace_back(compute_ptr, stash.get());
    tasks.push_back(std::move(stash));
  }

  worker.dag_scheduler().SubmitDag(std::move(tasks), edges,
                                   // mono_lint: allow(escaping-capture) -- the runner joins every task before it is destroyed.
                                   [this, worker_index] { OnTaskDone(worker_index); });
}

// The baseline architecture: the entire multitask runs on one slot thread, doing its
// own I/O against the shared devices. No per-resource scheduling, no receiver-side
// admission — concurrent tasks contend however they happen to interleave, and the
// only per-task measurement available afterwards is wall time.
void MonoContext::StageRunner::LaunchTaskThread(int task, int worker_index) {
  Worker& worker = ctx_->worker(worker_index);
  auto body = std::make_unique<FunctionMonotask>(
      ResourceType::kCpu, plan_.name + ".task",
      [this, task, worker_index, &worker] {
        // ---- Input ----
        Buffer current;
        if (plan_.reads_source) {
          // Copied under the catalog lock, as in the monotask path: concurrent
          // save-target inserts rebalance the sources_ tree.
          SourceBlock block;
          {
            const std::lock_guard<std::mutex> lock(ctx_->catalog_mutex_);
            block = ctx_->sources_.at(plan_.source_name)[static_cast<size_t>(task)];
          }
          const auto start = std::chrono::steady_clock::now();
          if (block.disk == SourceBlock::kInMemory) {
            current = *block.cached;
            if (block.worker != worker_index) {
              ctx_->fabric_->Transfer(block.worker, worker_index,
                                      static_cast<monoutil::Bytes>(current.size()));
              AddBytes(&metrics_->network_bytes,
                       static_cast<monoutil::Bytes>(current.size()));
            }
            AddMetrics(&metrics_->network_seconds, SecondsSince(start));
          } else {
            Worker& home = ctx_->worker(block.worker);
            current = home.disk(block.disk).Read(block.block_id);
            AddBytes(&metrics_->disk_read_bytes,
                     static_cast<monoutil::Bytes>(current.size()));
            if (block.worker != worker_index) {
              ctx_->fabric_->Transfer(block.worker, worker_index,
                                      static_cast<monoutil::Bytes>(current.size()));
              AddBytes(&metrics_->network_bytes,
                       static_cast<monoutil::Bytes>(current.size()));
            }
            AddMetrics(&metrics_->disk_read_seconds, SecondsSince(start));
          }
        } else if (plan_.reads_shuffle || plan_.reads_cogroup) {
          const size_t total_segments = TotalSegments();
          std::vector<Buffer> fetched(total_segments);
          const auto start = std::chrono::steady_clock::now();
          for (size_t m = 0; m < total_segments; ++m) {
            const ShuffleSegment& segment = SegmentAt(m);
            const auto [offset, length] = segment.ranges[static_cast<size_t>(task)];
            Worker& home = ctx_->worker(segment.worker);
            fetched[m] = home.disk(segment.disk).ReadRange(segment.block_id, offset,
                                                           length);
            AddBytes(&metrics_->disk_read_bytes,
                     static_cast<monoutil::Bytes>(length));
            if (segment.worker != worker_index) {
              ctx_->fabric_->Transfer(segment.worker, worker_index,
                                      static_cast<monoutil::Bytes>(length));
              AddBytes(&metrics_->network_bytes,
                       static_cast<monoutil::Bytes>(length));
            }
          }
          AddMetrics(&metrics_->network_seconds, SecondsSince(start));
          const auto merge_start = std::chrono::steady_clock::now();
          if (plan_.reads_cogroup) {
            const size_t left_count = input_shuffle_->size();
            std::vector<Buffer> left(
                std::make_move_iterator(fetched.begin()),
                std::make_move_iterator(fetched.begin() +
                                        static_cast<ptrdiff_t>(left_count)));
            std::vector<Buffer> right(
                std::make_move_iterator(fetched.begin() +
                                        static_cast<ptrdiff_t>(left_count)),
                std::make_move_iterator(fetched.end()));
            current = plan_.merge2_fn(std::move(left), std::move(right));
          } else {
            current = plan_.merge_fn(std::move(fetched));
          }
          AddMetrics(&metrics_->compute_seconds, SecondsSince(merge_start));
        }

        // ---- Compute ----
        const auto compute_start = std::chrono::steady_clock::now();
        for (const auto& transform : plan_.transforms) {
          current = transform(current);
        }
        Buffer output;
        std::vector<std::pair<size_t, size_t>> out_ranges;
        if (plan_.writes_shuffle) {
          std::vector<Buffer> buckets =
              plan_.partition_fn(current, plan_.shuffle_out_partitions);
          for (const Buffer& bucket : buckets) {
            out_ranges.emplace_back(output.size(), bucket.size());
            output.insert(output.end(), bucket.begin(), bucket.end());
          }
        } else {
          output = std::move(current);
        }
        AddMetrics(&metrics_->compute_seconds, SecondsSince(compute_start));

        // ---- Output ----
        const bool writes_disk = plan_.writes_shuffle || !save_as_.empty();
        if (writes_disk) {
          const int disk = worker.PickWriteDisk();
          const std::string block_id =
              plan_.writes_shuffle
                  ? "shuffle." + plan_.name + "." + std::to_string(task)
                  : save_as_ + "." + std::to_string(task);
          const auto write_start = std::chrono::steady_clock::now();
          const auto bytes = static_cast<monoutil::Bytes>(output.size());
          worker.disk(disk).Write(block_id, std::move(output));
          AddMetrics(&metrics_->disk_write_seconds, SecondsSince(write_start));
          AddBytes(&metrics_->disk_write_bytes, bytes);
          if (plan_.writes_shuffle) {
            ShuffleSegment segment;
            segment.worker = worker_index;
            segment.disk = disk;
            segment.block_id = block_id;
            segment.ranges = std::move(out_ranges);
            (*output_shuffle_)[static_cast<size_t>(task)] = std::move(segment);
          } else {
            const std::lock_guard<std::mutex> lock(ctx_->catalog_mutex_);
            auto& blocks = ctx_->sources_[save_as_];
            if (blocks.size() < static_cast<size_t>(plan_.num_tasks)) {
              blocks.resize(static_cast<size_t>(plan_.num_tasks));
            }
            blocks[static_cast<size_t>(task)] =
                SourceBlock{worker_index, disk, block_id};
          }
        } else {
          const std::lock_guard<std::mutex> lock(metrics_mutex_);
          (*collected_)[static_cast<size_t>(task)] = std::move(output);
        }
      });
  worker.SubmitDetached(std::move(body),
                        // mono_lint: allow(escaping-capture) -- the runner joins every task before it is destroyed.
                        [this, worker_index] { OnTaskDone(worker_index); });
}

// ---------- job execution ----------

std::vector<MonoContext::ShuffleSegment> MonoContext::RunToShuffle(
    const std::shared_ptr<const PlanNode>& root,
    const std::function<std::vector<Buffer>(const Buffer&, int)>& partition_fn,
    int num_out_partitions) {
  std::vector<StagePlan> stages = BuildStages(root);
  // The sub-plan's final stage buckets its output for the consuming join stage.
  StagePlan& last = stages.back();
  MONO_CHECK_MSG(!last.writes_shuffle, "sub-plan already ends in a shuffle write");
  last.writes_shuffle = true;
  last.shuffle_out_partitions = num_out_partitions;
  last.partition_fn = partition_fn;

  std::vector<ShuffleSegment> shuffle_in;
  std::vector<ShuffleSegment> shuffle_out;
  for (size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& plan = stages[s];
    shuffle_out.clear();
    std::vector<ShuffleSegment> right_shuffle;
    if (plan.reads_cogroup) {
      right_shuffle = RunToShuffle(plan.right_plan, plan.right_partition_fn,
                                   plan.num_tasks);
    }
    EngineStageMetrics metrics;
    StageRunner runner(this, plan,
                       (plan.reads_shuffle || plan.reads_cogroup) ? &shuffle_in : nullptr,
                       plan.reads_cogroup ? &right_shuffle : nullptr,
                       &shuffle_out, nullptr, std::string(), &metrics);
    runner.Run();
    DeleteShuffleBlocks(shuffle_in);
    DeleteShuffleBlocks(right_shuffle);
    last_metrics_.stages.push_back(std::move(metrics));
    shuffle_in = std::move(shuffle_out);
  }
  return shuffle_in;
}

void MonoContext::DeleteShuffleBlocks(const std::vector<ShuffleSegment>& segments) {
  for (const ShuffleSegment& segment : segments) {
    worker(segment.worker).disk(segment.disk).DeleteBlock(segment.block_id);
  }
}

std::vector<Buffer> MonoContext::RunJob(const std::shared_ptr<const PlanNode>& root) {
  return Execute(root, "");
}

void MonoContext::RunJobToSource(const std::shared_ptr<const PlanNode>& root,
                                 const std::string& name) {
  {
    const std::lock_guard<std::mutex> lock(catalog_mutex_);
    MONO_CHECK_MSG(sources_.find(name) == sources_.end(), "source already exists");
  }
  Execute(root, name);
}

std::vector<Buffer> MonoContext::Execute(const std::shared_ptr<const PlanNode>& root,
                                         const std::string& save_as) {
  const std::vector<StagePlan> stages = BuildStages(root);
  last_metrics_ = EngineJobMetrics{};
  const auto job_start = std::chrono::steady_clock::now();

  std::vector<ShuffleSegment> shuffle_in;
  std::vector<Buffer> collected;
  for (size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& plan = stages[s];
    const bool is_last = s + 1 == stages.size();
    std::vector<ShuffleSegment> shuffle_out;
    std::vector<ShuffleSegment> right_shuffle;
    if (plan.reads_cogroup) {
      // Execute the right parent sub-plan to its own shuffle output (recursively —
      // it may itself contain shuffles or joins).
      right_shuffle = RunToShuffle(plan.right_plan, plan.right_partition_fn,
                                   plan.num_tasks);
    }
    EngineStageMetrics metrics;
    StageRunner runner(this, plan,
                       (plan.reads_shuffle || plan.reads_cogroup) ? &shuffle_in : nullptr,
                       plan.reads_cogroup ? &right_shuffle : nullptr,
                       plan.writes_shuffle ? &shuffle_out : nullptr,
                       (is_last && save_as.empty()) ? &collected : nullptr,
                       is_last ? save_as : std::string(), &metrics);
    runner.Run();
    DeleteShuffleBlocks(shuffle_in);
    DeleteShuffleBlocks(right_shuffle);
    last_metrics_.stages.push_back(std::move(metrics));
    shuffle_in = std::move(shuffle_out);
  }
  last_metrics_.wall_seconds = SecondsSince(job_start);
  return collected;
}

}  // namespace monotasks
