// perfbench: the measuring half of the repository benchmark (see README.md).
//
//   perfbench <workload> --seed N --seconds S [--audit]
//
// Runs one workload in this process and prints one JSON object of raw
// samples on stdout; run.py turns the samples into the named metrics and
// checks them. Every number is taken from outside the program: wall-clock
// spans around calls into a module's public functions, and counters read
// through public accessors. run.py also runs a -pg build of this file and
// folds its gmon.out into layer shares. --audit adds one untimed simulator
// pass under the invariant audit (SimAudit).
//
// Workloads:
//   sort_shuffle        §5.2 600 GiB sort, Spark + MonoSpark + blame report.
//   read_compute_waves  Fig 8 read-then-compute at 600 waves, same shape.
//   engine_repartition  threaded engine, closed loop of PartitionBy + Count.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/dataset.h"
#include "src/common/rng.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/framework/environment.h"
#include "src/model/critical_path.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/simcore/audit.h"
#include "src/workloads/clusters.h"
#include "src/workloads/read_compute.h"
#include "src/workloads/sort.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Accumulates the fields of one flat JSON object, in insertion order.
class JsonObject {
 public:
  void Number(const std::string& key, double value) { Raw(key, Format(value)); }
  void Bool(const std::string& key, bool value) { Raw(key, value ? "true" : "false"); }
  void String(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void Numbers(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i ? "," : "") + Format(values[i]);
    }
    Raw(key, out + "]");
  }
  void Object(const std::string& key, const JsonObject& value) { Raw(key, value.str()); }
  void Objects(const std::string& key, const std::vector<JsonObject>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i ? "," : "") + values[i].str();
    }
    Raw(key, out + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string Format(double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return std::isfinite(value) ? buf : "null";
  }
  void Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + value;
  }
  std::string body_;
};

std::string Hex(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool audit = false;  // Add an untimed simulator pass under the invariant audit.
};

// ---------------------------------------------------------------------------
// Simulator workloads.

struct SimWorkload {
  monosim::ClusterConfig cluster;
  std::function<monosim::JobSpec(monosim::SimEnvironment*)> make_job;
};

SimWorkload MakeSimWorkload(const std::string& name, uint64_t seed) {
  SimWorkload workload;
  workload.cluster = monoload::SortClusterConfig();  // 20 workers x 2 HDD.
  if (name == "sort_shuffle") {
    monoload::SortParams params;  // As bench/sort_headline.
    params.total_bytes = monoutil::GiB(600);
    params.values_per_key = 20;
    params.num_map_tasks = 960;
    params.num_reduce_tasks = 960;
    params.seed = seed;
    workload.make_job = [params](monosim::SimEnvironment* env) {
      return monoload::MakeSortJob(&env->dfs(), params);
    };
  } else {
    monoload::ReadComputeParams params;  // Fig 8's job at 600 waves of 160 cores.
    params.num_tasks = 96000;
    params.seed = seed;
    workload.make_job = [params](monosim::SimEnvironment* env) {
      return monoload::MakeReadComputeJob(&env->dfs(), params);
    };
  }
  return workload;
}

// One executor's simulated cluster, wired and holding its job, ready to run.
template <typename Executor, typename Config>
struct SimSide {
  explicit SimSide(const SimWorkload& workload)
      : env(workload.cluster),
        executor(&env.sim(), &env.cluster(), &env.pool(), Config{}) {
    env.AttachExecutor(&executor);
    spec = workload.make_job(&env);
  }
  monosim::SimEnvironment env;
  Executor executor;
  monosim::JobSpec spec;
};
using SparkSide = SimSide<monosim::SparkExecutorSim, monosim::SparkConfig>;
using MonoSide = SimSide<monosim::MonotasksExecutorSim, monosim::MonoConfig>;

// Deterministic work counters and simulated statistics of one pass, summed
// over both executors' clusters. Two passes with one seed must agree exactly.
struct SimCounters {
  double events = 0;
  double solves = 0, flows_touched = 0, rate_changes = 0, epochs_flushed = 0,
         batched_changes = 0, patched = 0;
  double monotasks = 0, tasks = 0;
  double cpu_busy_s = 0, disk_busy_s = 0, disk_saturated_s = 0;
  double fabric_busy_side_s = 0, fabric_saturated_side_s = 0, fabric_bytes = 0;

  void Add(monosim::SimEnvironment& env, const monosim::JobResult& result) {
    events += static_cast<double>(env.sim().fired_events());
    monosim::ClusterSim& cluster = env.cluster();
    const auto& stats = cluster.fabric().solver_stats();
    solves += static_cast<double>(stats.solves);
    flows_touched += static_cast<double>(stats.flows_touched);
    rate_changes += static_cast<double>(stats.rate_changes);
    epochs_flushed += static_cast<double>(stats.epochs_flushed);
    batched_changes += static_cast<double>(stats.batched_changes);
    patched += static_cast<double>(stats.patched_arrivals + stats.patched_departures);
    monotasks += static_cast<double>(env.monotask_log().records().size() +
                                     env.monotask_log().dropped());
    for (const auto& stage : result.stages) {
      tasks += stage.num_tasks;
    }
    for (int m = 0; m < cluster.num_machines(); ++m) {
      const monosim::MachineSim& machine = cluster.machine(m);
      cpu_busy_s += machine.cpu().busy_seconds().seconds();
      for (int d = 0; d < machine.num_disks(); ++d) {
        disk_busy_s += machine.disk(d).busy_seconds().seconds();
        disk_saturated_s += machine.disk(d).saturated_seconds().seconds();
      }
    }
    fabric_busy_side_s += cluster.fabric().busy_side_seconds().seconds();
    fabric_saturated_side_s += cluster.fabric().saturated_side_seconds().seconds();
    fabric_bytes += static_cast<double>(cluster.fabric().total_bytes_transferred().count());
  }

  bool operator==(const SimCounters&) const = default;

  JsonObject ToJson() const {
    JsonObject out;
    out.Number("simcore.events", events);
    out.Number("cluster.fabric.solves", solves);
    out.Number("cluster.fabric.flows_touched", flows_touched);
    out.Number("cluster.fabric.rate_changes", rate_changes);
    out.Number("cluster.fabric.epochs_flushed", epochs_flushed);
    out.Number("cluster.fabric.batched_changes", batched_changes);
    out.Number("cluster.fabric.patched", patched);
    out.Number("framework.monotasks", monotasks);
    out.Number("framework.tasks", tasks);
    out.Number("cluster.cpu.busy_s", cpu_busy_s);
    out.Number("cluster.disk.busy_s", disk_busy_s);
    out.Number("cluster.disk.saturated_s", disk_saturated_s);
    out.Number("cluster.fabric.busy_side_s", fabric_busy_side_s);
    out.Number("cluster.fabric.saturated_side_s", fabric_saturated_side_s);
    out.Number("cluster.fabric.bytes", fabric_bytes);
    return out;
  }
};

// The blame report must split each stage window exactly into critical,
// blocked and idle time, and must have seen every monotask.
bool BlameReportConsistent(const monomodel::CriticalPathReport& report) {
  if (!report.complete() || report.stages().empty()) {
    return false;
  }
  for (const auto& stage : report.stages()) {
    double covered = stage.blocked_seconds + stage.idle_seconds;
    for (const auto& [resource, blame] : stage.resources) {
      covered += blame.critical_seconds;
    }
    const double window = stage.duration().seconds();
    if (std::fabs(covered - window) > 1e-6 * std::max(1.0, window)) {
      return false;
    }
  }
  return true;
}

struct SimPass {
  double setup_s = 0, pass_s = 0, spark_run_s = 0, mono_run_s = 0, blame_s = 0;
  JsonObject jobs;  // Simulated outputs checked by run.py.
  SimCounters counters;
};

// Builds both clusters and jobs, then runs Spark, MonoSpark and the blame
// report over the MonoSpark run's MonotaskLog.
SimPass RunSimPass(const SimWorkload& workload) {
  SimPass pass;
  const auto setup_start = Clock::now();
  auto spark = std::make_unique<SparkSide>(workload);
  auto mono = std::make_unique<MonoSide>(workload);
  pass.setup_s = SecondsSince(setup_start);

  const auto pass_start = Clock::now();
  const monosim::JobResult spark_result = spark->env.driver().RunJob(spark->spec);
  pass.spark_run_s = SecondsSince(pass_start);
  const auto mono_start = Clock::now();
  const monosim::JobResult mono_result = mono->env.driver().RunJob(mono->spec);
  pass.mono_run_s = SecondsSince(mono_start);
  const auto blame_start = Clock::now();
  const auto report = monomodel::CriticalPathReport::Build(mono->env.monotask_log());
  pass.blame_s = SecondsSince(blame_start);
  pass.pass_s = SecondsSince(pass_start);

  pass.jobs.Number("spark_sim_s", spark_result.duration().seconds());
  pass.jobs.Number("mono_sim_s", mono_result.duration().seconds());
  pass.jobs.String("spark_digest", Hex(spark_result.sim_digest));
  pass.jobs.String("mono_digest", Hex(mono_result.sim_digest));
  pass.jobs.Bool("blame_ok", BlameReportConsistent(report));
  pass.counters.Add(spark->env, spark_result);
  pass.counters.Add(mono->env, mono_result);
  return pass;
}

// Untimed warm-up pass, then timed passes until `seconds` have elapsed. Set-up
// is timed on every pass (and on a few extra bare set-ups) and reported apart.
JsonObject MeasureSim(const Args& args) {
  const SimWorkload workload = MakeSimWorkload(args.workload, args.seed);
  JsonObject out;
  std::vector<double> setup_s;
  RunSimPass(workload);  // Warm-up: excluded from every sample.
  for (int i = 0; i < 8; ++i) {
    const auto start = Clock::now();
    {
      SparkSide spark(workload);
      MonoSide mono(workload);
    }
    setup_s.push_back(SecondsSince(start));
  }

  std::vector<double> pass_s, spark_run_s, mono_run_s, blame_s;
  std::vector<JsonObject> jobs;
  SimCounters first;
  bool counters_repeat = true;
  const auto start = Clock::now();
  do {
    const SimPass pass = RunSimPass(workload);
    if (pass_s.empty()) {
      first = pass.counters;
    } else if (!(pass.counters == first)) {
      counters_repeat = false;
    }
    setup_s.push_back(pass.setup_s);
    pass_s.push_back(pass.pass_s);
    spark_run_s.push_back(pass.spark_run_s);
    mono_run_s.push_back(pass.mono_run_s);
    blame_s.push_back(pass.blame_s);
    jobs.push_back(pass.jobs);
  } while (SecondsSince(start) < args.seconds);

  out.Numbers("setup_s", setup_s);
  out.Numbers("pass_s", pass_s);
  out.Objects("jobs", jobs);
  out.Number("peak_rss_mb", PeakRssMb());
  out.Numbers("multitask.run_s", spark_run_s);
  out.Numbers("monotask.run_s", mono_run_s);
  out.Numbers("model.critical_path_s", blame_s);
  out.Bool("counters_repeat", counters_repeat);
  out.Object("counters", first.ToJson());
  if (args.audit) {  // One more pass, untimed, under the invariant audit.
    monosim::ScopedAudit audit(monosim::ScopedAudit::kReport);
    const SimPass pass = RunSimPass(workload);
    out.Objects("audited_jobs", {pass.jobs});
    out.Number("audit_checks", static_cast<double>(audit.audit().checks_run()));
    out.Number("audit_violations", static_cast<double>(audit.audit().violations().size()));
    if (!audit.audit().ok()) {
      std::fprintf(stderr, "%s\n", audit.audit().Summary().c_str());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Threaded engine workload.

using Record = std::pair<int64_t, int64_t>;

constexpr int kEngineRecords = 1 << 18;  // 4 MiB of (key, value) pairs.
constexpr int kEngineKeys = 4096;
constexpr int kEngineInputPartitions = 8;
constexpr int kEngineOutputPartitions = 8;
constexpr int kEngineWarmupJobs = 1;
// Timed jobs per client. The engine never deletes shuffle blocks, so a
// client's memory grows by one shuffle per job; a fresh client per pass keeps
// the process bounded and peak RSS independent of how fast jobs run.
constexpr int kEngineJobsPerPass = 20;
constexpr const char* kEngineHistograms[] = {
    "engine.cpu.queue_wait_seconds",  "engine.cpu.service_seconds",
    "engine.disk.queue_wait_seconds", "engine.disk.service_seconds",
    "engine.net.queue_wait_seconds",  "engine.net.service_seconds",
    "engine.dag.dep_blocked_seconds"};

monotasks::EngineConfig EngineBenchConfig() {
  monotasks::EngineConfig config;  // 2 workers x 2 cores, monotasks mode.
  config.num_workers = 2;
  config.cores_per_worker = 2;
  config.mode = monotasks::ExecutionMode::kMonotasks;
  // Devices at their modelled speed (90 MiB/s disks, 1 Gbps NICs), so a job's
  // time is mostly device time, as on the hardware the engine models.
  config.time_scale = 1.0;
  return config;
}

std::vector<Record> MakeEngineInput(uint64_t seed) {
  monoutil::Rng rng(seed);
  std::vector<Record> records;
  records.reserve(kEngineRecords);
  for (int i = 0; i < kEngineRecords; ++i) {
    records.emplace_back(static_cast<int64_t>(rng.NextBelow(kEngineKeys)),
                         static_cast<int64_t>(rng.NextU64() >> 1));
  }
  return records;
}

JsonObject MeasureEngine(const Args& args) {
  auto& registry = monotrace::MetricsRegistry::Global();
  std::map<std::string, monotrace::LatencyHistogram> timed;  // Timed jobs only.
  std::vector<double> setup_s, parallelize_s, pass_s, job_s, compute_s, disk_read_s,
      disk_write_s, network_s, network_bytes, tasks;
  int64_t wrong_counts = 0, jobs = 0;
  const auto start = Clock::now();
  do {
    // Set-up: start the client, generate and parallelize the input, warm up.
    const auto setup_start = Clock::now();
    monotasks::MonoClient client(EngineBenchConfig());
    const std::vector<Record> input = MakeEngineInput(args.seed);
    const auto parallelize_start = Clock::now();
    auto dataset = client.Parallelize<Record>(input, kEngineInputPartitions);
    parallelize_s.push_back(SecondsSince(parallelize_start));
    const auto repartitioned = dataset.PartitionBy<int64_t>(
        [](const Record& r) { return r.first; }, kEngineOutputPartitions);
    for (int i = 0; i < kEngineWarmupJobs; ++i, ++jobs) {
      wrong_counts += repartitioned.Count() != kEngineRecords ? 1 : 0;
    }
    setup_s.push_back(SecondsSince(setup_start));
    registry.ResetForTest();  // Warm-up stays out of the histograms.

    const auto pass_start = Clock::now();
    for (int i = 0; i < kEngineJobsPerPass; ++i, ++jobs) {
      const auto job_start = Clock::now();
      const int64_t count = repartitioned.Count();
      job_s.push_back(SecondsSince(job_start));
      wrong_counts += count != kEngineRecords ? 1 : 0;
      double c = 0, dr = 0, dw = 0, n = 0, nb = 0, t = 0;
      for (const auto& stage : client.last_job_metrics().stages) {
        c += stage.compute_seconds;
        dr += stage.disk_read_seconds;
        dw += stage.disk_write_seconds;
        n += stage.network_seconds;
        nb += static_cast<double>(stage.network_bytes.count());
        t += stage.num_tasks;
      }
      compute_s.push_back(c);
      disk_read_s.push_back(dr);
      disk_write_s.push_back(dw);
      network_s.push_back(n);
      network_bytes.push_back(nb);
      tasks.push_back(t);
    }
    pass_s.push_back(SecondsSince(pass_start));
    for (const char* name : kEngineHistograms) {
      timed[name].Merge(*registry.Histogram(name));
    }
  } while (SecondsSince(start) < args.seconds);

  JsonObject out;
  out.Numbers("setup_s", setup_s);
  out.Numbers("pass_s", pass_s);
  out.Numbers("job_s", job_s);
  out.Number("records", kEngineRecords);
  out.Number("jobs", static_cast<double>(jobs));
  out.Number("wrong_counts", static_cast<double>(wrong_counts));
  out.Number("peak_rss_mb", PeakRssMb());
  out.Numbers("api.parallelize_s", parallelize_s);
  out.Numbers("engine.compute_s", compute_s);
  out.Numbers("engine.disk_read_s", disk_read_s);
  out.Numbers("engine.disk_write_s", disk_write_s);
  out.Numbers("engine.network_s", network_s);
  out.Numbers("engine.network_bytes", network_bytes);
  out.Numbers("engine.tasks", tasks);
  for (const char* name : kEngineHistograms) {
    std::string key = name;  // engine.cpu.queue_wait_seconds -> ..._p50_s
    key.replace(key.rfind("_seconds"), std::string::npos, "_p50_s");
    out.Number(key, timed[name].Quantile(0.5));
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) {
    return false;
  }
  args->workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--audit") {
      args->audit = true;
    } else if (flag == "--seed" && i + 1 < argc) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && i + 1 < argc) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else {
      return false;
    }
  }
  return args->workload == "sort_shuffle" || args->workload == "read_compute_waves" ||
         args->workload == "engine_repartition";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench sort_shuffle|read_compute_waves|engine_repartition "
                 "--seed N --seconds S [--audit]\n");
    return 2;
  }
  JsonObject out = args.workload == "engine_repartition" ? MeasureEngine(args)
                                                         : MeasureSim(args);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
