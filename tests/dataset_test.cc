// End-to-end tests of the typed Dataset API running real computations through the
// threaded monotasks engine.
#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/dataset.h"

namespace monotasks {
namespace {

EngineConfig FastConfig(int workers = 2, int cores = 2, int disks = 1) {
  EngineConfig config;
  config.num_workers = workers;
  config.cores_per_worker = cores;
  config.disks_per_worker = disks;
  config.time_scale = 2000.0;  // Device seconds pass in fractions of a millisecond.
  return config;
}

TEST(SerdeTest, RoundTripsPrimitives) {
  const std::vector<int64_t> values = {1, -5, 1 << 30};
  EXPECT_EQ(DeserializeVector<int64_t>(SerializeVector<int64_t>(values)), values);
  const std::vector<std::string> strings = {"", "a", "hello world"};
  EXPECT_EQ(DeserializeVector<std::string>(SerializeVector<std::string>(strings)),
            strings);
}

TEST(SerdeTest, RoundTripsPairs) {
  using Record = std::pair<std::string, int64_t>;
  const std::vector<Record> records = {{"x", 1}, {"longer key", -7}};
  EXPECT_EQ(DeserializeVector<Record>(SerializeVector<Record>(records)), records);
}

TEST(SerdeTest, RoundTripsDoubles) {
  const std::vector<double> values = {0.0, -1.5, 3.14159};
  EXPECT_EQ(DeserializeVector<double>(SerializeVector<double>(values)), values);
}

TEST(DatasetTest, ParallelizeAndCollectPreservesRecords) {
  MonoClient client(FastConfig());
  std::vector<int64_t> input;
  for (int64_t i = 0; i < 100; ++i) {
    input.push_back(i);
  }
  auto data = client.Parallelize<int64_t>(input, 4);
  std::vector<int64_t> output = data.Collect();
  std::sort(output.begin(), output.end());
  EXPECT_EQ(output, input);
}

TEST(DatasetTest, MapTransformsEveryRecord) {
  MonoClient client(FastConfig());
  auto data = client.Parallelize<int64_t>({1, 2, 3, 4, 5}, 2);
  auto doubled = data.Map<int64_t>([](const int64_t& x) { return 2 * x; });
  std::vector<int64_t> output = doubled.Collect();
  std::sort(output.begin(), output.end());
  EXPECT_EQ(output, (std::vector<int64_t>{2, 4, 6, 8, 10}));
}

TEST(DatasetTest, FilterDropsRecords) {
  MonoClient client(FastConfig());
  std::vector<int64_t> input;
  for (int64_t i = 0; i < 50; ++i) {
    input.push_back(i);
  }
  auto evens = client.Parallelize<int64_t>(input, 4).Filter(
      [](const int64_t& x) { return x % 2 == 0; });
  EXPECT_EQ(evens.Count(), 25);
}

TEST(DatasetTest, FlatMapExpandsRecords) {
  MonoClient client(FastConfig());
  auto data = client.Parallelize<std::string>({"a b", "c d e"}, 2);
  auto words = data.FlatMap<std::string>([](const std::string& line) {
    std::vector<std::string> out;
    std::istringstream stream(line);
    std::string word;
    while (stream >> word) {
      out.push_back(word);
    }
    return out;
  });
  EXPECT_EQ(words.Count(), 5);
}

TEST(DatasetTest, WordCountEndToEnd) {
  MonoClient client(FastConfig(3, 2, 2));
  std::vector<std::string> lines;
  for (int i = 0; i < 40; ++i) {
    lines.push_back("the quick brown fox jumps over the lazy dog the end");
  }
  using WordCount = std::pair<std::string, int64_t>;
  auto counts_data =
      client.Parallelize<std::string>(lines, 8)
          .FlatMap<WordCount>([](const std::string& line) {
            std::vector<WordCount> out;
            std::istringstream stream(line);
            std::string word;
            while (stream >> word) {
              out.emplace_back(word, 1);
            }
            return out;
          });
  auto reduced = ReduceByKey<std::string, int64_t>(
      counts_data, [](const int64_t& a, const int64_t& b) { return a + b; }, 4);
  std::map<std::string, int64_t> counts;
  for (auto& [word, count] : reduced.Collect()) {
    counts[word] += count;  // Keys are already unique; += guards accidental dups.
  }
  EXPECT_EQ(counts["the"], 3 * 40);
  EXPECT_EQ(counts["fox"], 40);
  EXPECT_EQ(counts.size(), 9u);
}

TEST(DatasetTest, ReduceByKeyProducesUniqueKeys) {
  MonoClient client(FastConfig());
  using Record = std::pair<int64_t, int64_t>;
  std::vector<Record> input;
  for (int64_t i = 0; i < 200; ++i) {
    input.emplace_back(i % 10, 1);
  }
  auto reduced = ReduceByKey<int64_t, int64_t>(
      client.Parallelize<Record>(input, 4),
      [](const int64_t& a, const int64_t& b) { return a + b; }, 4);
  const std::vector<Record> output = reduced.Collect();
  EXPECT_EQ(output.size(), 10u);
  for (const auto& [key, count] : output) {
    EXPECT_EQ(count, 20) << "key " << key;
  }
}

TEST(DatasetTest, PartitionByCoLocatesEqualKeys) {
  MonoClient client(FastConfig());
  using Record = std::pair<int64_t, int64_t>;
  std::vector<Record> input;
  for (int64_t i = 0; i < 60; ++i) {
    input.emplace_back(i % 6, i);
  }
  auto partitioned = client.Parallelize<Record>(input, 3).PartitionBy<int64_t>(
      [](const Record& r) { return r.first; }, 5);
  EXPECT_EQ(partitioned.Count(), 60);
}

TEST(DatasetTest, ShuffleBlocksAreDeletedOnceConsumed) {
  // Shuffle blocks are job-local: after each job only the source partitions
  // remain on the workers' disks, however many jobs have run.
  MonoClient client(FastConfig(/*workers=*/2, /*cores=*/2, /*disks=*/2));
  using Record = std::pair<int64_t, int64_t>;
  std::vector<Record> input;
  for (int64_t i = 0; i < 60; ++i) {
    input.emplace_back(i % 6, i);
  }
  auto source = client.Parallelize<Record>(input, 4);
  MonoContext& ctx = client.context();
  const auto stored_blocks = [&ctx] {
    size_t blocks = 0;
    for (int w = 0; w < ctx.num_workers(); ++w) {
      for (int d = 0; d < ctx.worker(w).num_disks(); ++d) {
        blocks += ctx.worker(w).disk(d).num_blocks();
      }
    }
    return blocks;
  };
  const size_t source_blocks = stored_blocks();
  EXPECT_EQ(source_blocks, 4u);
  for (int job = 0; job < 2; ++job) {
    auto partitioned =
        source.PartitionBy<int64_t>([](const Record& r) { return r.first; }, 5);
    EXPECT_EQ(partitioned.Count(), 60);
    EXPECT_EQ(stored_blocks(), source_blocks) << "after job " << job;
  }
}

TEST(DatasetTest, SortBySortsWithinPartitions) {
  MonoClient client(FastConfig());
  std::vector<int64_t> input = {9, 3, 7, 1, 8, 2, 6, 4, 5, 0};
  auto sorted = client.Parallelize<int64_t>(input, 3).SortBy<int64_t>(
      [](const int64_t& x) { return x; }, 1);
  // With a single output partition the result is totally sorted.
  EXPECT_EQ(sorted.Collect(), (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(DatasetTest, SaveAndReadBack) {
  MonoClient client(FastConfig());
  auto data = client.Parallelize<int64_t>({5, 6, 7, 8}, 2);
  data.Map<int64_t>([](const int64_t& x) { return x + 1; }).Save("bumped");
  auto reloaded = client.FromSource<int64_t>("bumped", 2);
  std::vector<int64_t> output = reloaded.Collect();
  std::sort(output.begin(), output.end());
  EXPECT_EQ(output, (std::vector<int64_t>{6, 7, 8, 9}));
}

TEST(DatasetTest, MetricsExposeMonotaskTimes) {
  MonoClient client(FastConfig());
  using Record = std::pair<int64_t, int64_t>;
  std::vector<Record> input;
  for (int64_t i = 0; i < 500; ++i) {
    input.emplace_back(i % 50, i);
  }
  auto reduced = ReduceByKey<int64_t, int64_t>(
      client.Parallelize<Record>(input, 4),
      [](const int64_t& a, const int64_t& b) { return a + b; }, 4);
  reduced.Collect();

  const EngineJobMetrics& metrics = client.last_job_metrics();
  ASSERT_EQ(metrics.stages.size(), 2u);
  const auto& map_stage = metrics.stages[0];
  EXPECT_EQ(map_stage.num_tasks, 4);
  EXPECT_GT(map_stage.compute_seconds, 0.0);
  EXPECT_GT(map_stage.disk_read_bytes, monoutil::Bytes(0));   // Source blocks read from disk.
  EXPECT_GT(map_stage.disk_write_bytes, monoutil::Bytes(0));  // Shuffle data written to disk.
  const auto& reduce_stage = metrics.stages[1];
  EXPECT_GT(reduce_stage.disk_read_bytes, monoutil::Bytes(0));  // Shuffle served from disk.
  EXPECT_GT(reduce_stage.network_bytes, monoutil::Bytes(0));    // Cross-worker portions.
  EXPECT_GT(metrics.wall_seconds, 0.0);
}

TEST(DatasetTest, MultiStagePipeline) {
  MonoClient client(FastConfig());
  using Record = std::pair<int64_t, int64_t>;
  std::vector<Record> input;
  for (int64_t i = 0; i < 100; ++i) {
    input.emplace_back(i % 10, 1);
  }
  // Two chained shuffles: count per key, then count keys per count value.
  auto counts = ReduceByKey<int64_t, int64_t>(
      client.Parallelize<Record>(input, 4),
      [](const int64_t& a, const int64_t& b) { return a + b; }, 3);
  auto swapped = counts.Map<Record>([](const Record& r) {
    return Record{r.second, 1};
  });
  auto histogram = ReduceByKey<int64_t, int64_t>(
      swapped, [](const int64_t& a, const int64_t& b) { return a + b; }, 2);
  const std::vector<Record> output = histogram.Collect();
  ASSERT_EQ(output.size(), 1u);
  EXPECT_EQ(output[0].first, 10);   // Every key appeared 10 times...
  EXPECT_EQ(output[0].second, 10);  // ...and there are 10 keys.
}

TEST(DatasetTest, ManyPartitionsOnFewWorkers) {
  MonoClient client(FastConfig(2, 2, 1));
  std::vector<int64_t> input;
  for (int64_t i = 0; i < 1000; ++i) {
    input.push_back(i);
  }
  // 32 partitions across 2 workers: multiple waves through the schedulers.
  auto data = client.Parallelize<int64_t>(input, 32);
  auto total = data.Map<int64_t>([](const int64_t& x) { return x; }).Count();
  EXPECT_EQ(total, 1000);
}

TEST(DatasetTest, EmptyPartitionsAreHandled) {
  MonoClient client(FastConfig());
  // 3 records over 8 partitions: most partitions are empty.
  auto data = client.Parallelize<int64_t>({1, 2, 3}, 8);
  auto reduced = ReduceByKey<int64_t, int64_t>(
      data.Map<std::pair<int64_t, int64_t>>(
          [](const int64_t& x) { return std::pair<int64_t, int64_t>{x % 2, x}; }),
      [](const int64_t& a, const int64_t& b) { return a + b; }, 4);
  EXPECT_EQ(reduced.Collect().size(), 2u);
}


TEST(DatasetTest, CacheSkipsDiskOnReRead) {
  MonoClient client(FastConfig());
  std::vector<int64_t> input;
  for (int64_t i = 0; i < 4000; ++i) {
    input.push_back(i);
  }
  auto cached = client.Parallelize<int64_t>(input, 4).Cache();

  // Record device counters, then run a job over the cached data.
  monoutil::Bytes reads_before;
  for (int w = 0; w < client.context().num_workers(); ++w) {
    for (int d = 0; d < client.context().worker(w).num_disks(); ++d) {
      reads_before += client.context().worker(w).disk(d).bytes_read();
    }
  }
  const int64_t total = cached.Map<int64_t>([](const int64_t& x) { return x; }).Count();
  EXPECT_EQ(total, 4000);
  monoutil::Bytes reads_after;
  for (int w = 0; w < client.context().num_workers(); ++w) {
    for (int d = 0; d < client.context().worker(w).num_disks(); ++d) {
      reads_after += client.context().worker(w).disk(d).bytes_read();
    }
  }
  EXPECT_EQ(reads_after, reads_before);  // The cached job touched no disk.
}

TEST(DatasetTest, CachePreservesRecords) {
  MonoClient client(FastConfig());
  auto cached = client.Parallelize<int64_t>({7, 8, 9}, 2).Cache();
  auto out = cached.Collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int64_t>{7, 8, 9}));
}

TEST(DatasetTest, CachedDataFlowsThroughShuffles) {
  MonoClient client(FastConfig());
  using Record = std::pair<int64_t, int64_t>;
  std::vector<Record> input;
  for (int64_t i = 0; i < 100; ++i) {
    input.emplace_back(i % 5, 1);
  }
  auto cached = client.Parallelize<Record>(input, 4).Cache();
  auto reduced = ReduceByKey<int64_t, int64_t>(
      cached, [](const int64_t& a, const int64_t& b) { return a + b; }, 3);
  EXPECT_EQ(reduced.Collect().size(), 5u);
}


TEST(DatasetJoinTest, InnerJoinMatchesKeys) {
  MonoClient client(FastConfig());
  using UserAge = std::pair<int64_t, int64_t>;
  using UserCity = std::pair<int64_t, std::string>;
  auto ages = client.Parallelize<UserAge>(
      {{1, 30}, {2, 41}, {3, 28}, {5, 60}}, 2);
  auto cities = client.Parallelize<UserCity>(
      {{1, std::string("berkeley")}, {2, std::string("shanghai")},
       {4, std::string("nowhere")}}, 3);
  auto joined = Join<int64_t, int64_t, std::string>(ages, cities, 2);
  auto out = joined.Collect();
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 2u);  // Keys 1 and 2 only.
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[0].second.first, 30);
  EXPECT_EQ(out[0].second.second, "berkeley");
  EXPECT_EQ(out[1].first, 2);
  EXPECT_EQ(out[1].second.second, "shanghai");
}

TEST(DatasetJoinTest, JoinHandlesDuplicateKeys) {
  MonoClient client(FastConfig());
  using Record = std::pair<int64_t, int64_t>;
  auto left = client.Parallelize<Record>({{7, 1}, {7, 2}}, 2);
  auto right = client.Parallelize<Record>({{7, 10}, {7, 20}, {8, 30}}, 2);
  auto joined = Join<int64_t, int64_t, int64_t>(left, right, 3);
  // Cross product within key 7: 2 x 2 = 4 results.
  EXPECT_EQ(joined.Collect().size(), 4u);
}

TEST(DatasetJoinTest, JoinComposesWithFurtherStages) {
  MonoClient client(FastConfig());
  using Record = std::pair<int64_t, int64_t>;
  std::vector<Record> left_in;
  std::vector<Record> right_in;
  for (int64_t i = 0; i < 50; ++i) {
    left_in.emplace_back(i % 10, 1);
    right_in.emplace_back(i % 10, 2);
  }
  auto joined = Join<int64_t, int64_t, int64_t>(
      client.Parallelize<Record>(left_in, 3), client.Parallelize<Record>(right_in, 4),
      2);
  // 5 left x 5 right per key = 25 pairs per key, 10 keys.
  auto summed = ReduceByKey<int64_t, int64_t>(
      joined.Map<Record>([](const std::pair<int64_t, std::pair<int64_t, int64_t>>& r) {
        return Record{r.first, 1};
      }),
      [](const int64_t& a, const int64_t& b) { return a + b; }, 2);
  const auto out = summed.Collect();
  ASSERT_EQ(out.size(), 10u);
  for (const auto& [key, count] : out) {
    EXPECT_EQ(count, 25) << key;
  }
}

TEST(DatasetJoinTest, JoinWorksInTaskThreadsMode) {
  EngineConfig config = FastConfig();
  config.mode = ExecutionMode::kTaskThreads;
  MonoClient client(config);
  using Record = std::pair<int64_t, int64_t>;
  auto left = client.Parallelize<Record>({{1, 10}, {2, 20}}, 2);
  auto right = client.Parallelize<Record>({{1, 100}, {3, 300}}, 2);
  auto joined = Join<int64_t, int64_t, int64_t>(left, right, 2);
  const auto out = joined.Collect();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[0].second.first, 10);
  EXPECT_EQ(out[0].second.second, 100);
}


TEST(DatasetTest, SampleIsDeterministicAndApproximate) {
  MonoClient client(FastConfig());
  std::vector<int64_t> input;
  for (int64_t i = 0; i < 4000; ++i) {
    input.push_back(i);
  }
  auto data = client.Parallelize<int64_t>(input, 4);
  auto first = data.Sample(0.25, 99).Collect();
  auto second = data.Sample(0.25, 99).Collect();
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  EXPECT_EQ(first, second);  // Same seed, same sample.
  EXPECT_GT(first.size(), 800u);
  EXPECT_LT(first.size(), 1200u);  // ~1000 expected.
  EXPECT_TRUE(data.Sample(0.0).Collect().empty());
  EXPECT_EQ(data.Sample(1.0).Count(), 4000);
}

}  // namespace
}  // namespace monotasks
