// BatchExecutor tests: coalesced query batches answer exactly like the
// engine, admission is bounded with a typed backpressure status (never a
// blocked producer), and mutations are FIFO-serialized with queries.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/index_io.h"
#include "graph/graph.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"

namespace gdim {
namespace {

/// Single-vertex-feature index (fingerprint == vertex-label set), so
/// queries are cheap and fully scripted.
PersistedIndex LabelIndex(int rows) {
  const int kLabels = 5;
  PersistedIndex index;
  for (LabelId r = 0; r < kLabels; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  const std::vector<std::vector<uint8_t>> patterns = {
      {1, 1, 0, 0, 0}, {0, 0, 1, 1, 0}, {1, 0, 1, 0, 1},
  };
  for (int i = 0; i < rows; ++i) {
    index.db_bits.push_back(patterns[static_cast<size_t>(i) %
                                     patterns.size()]);
  }
  return index;
}

Graph LabelGraph(std::vector<LabelId> labels) {
  Graph g;
  for (LabelId l : labels) g.AddVertex(l);
  return g;
}

ShardedEngine MakeEngine(int rows, int shards) {
  ShardedOptions opts;
  opts.num_shards = shards;
  auto engine = ShardedEngine::FromIndex(LabelIndex(rows), opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

TEST(BatchExecutorTest, ConcurrentQueriesMatchDirectEngine) {
  ShardedEngine engine = MakeEngine(30, 3);
  // Expected answers computed before the executor exists (the executor owns
  // all engine access once running).
  const std::vector<Graph> probes = {
      LabelGraph({0, 1}), LabelGraph({2}), LabelGraph({0, 2, 4}),
      LabelGraph({3, 4}),
  };
  std::vector<Ranking> expected;
  for (const Graph& p : probes) expected.push_back(engine.Query(p, {.k = 7}));

  BatchExecutorOptions opts;
  opts.queue_capacity = 64;
  opts.max_batch = 8;
  BatchExecutor executor(&engine, opts);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 25;
  std::vector<std::future<bool>> done;
  done.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    done.push_back(std::async(std::launch::async, [&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const size_t which = static_cast<size_t>(t + i) % probes.size();
        Result<Ranking> got = executor.Query(probes[which], {.k = 7});
        if (!got.ok() || *got != expected[which]) return false;
      }
      return true;
    }));
  }
  for (auto& d : done) EXPECT_TRUE(d.get());

  const BatchExecutorStats stats = executor.Stats();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  // Coalescing must never run more batches than requests.
  EXPECT_LE(stats.batches, stats.accepted);
  EXPECT_EQ(stats.latency_ms.count, stats.accepted);
}

TEST(BatchExecutorTest, FullQueueRejectsWithResourceExhausted) {
  ShardedEngine engine = MakeEngine(12, 2);
  BatchExecutorOptions opts;
  opts.queue_capacity = 2;
  opts.max_batch = 4;
  BatchExecutor executor(&engine, opts);
  // Freeze the dispatcher so admitted requests stay queued, deterministic.
  executor.Pause();
  auto q1 = std::async(std::launch::async, [&] {
    return executor.Query(LabelGraph({0}), {.k = 3});
  });
  auto q2 = std::async(std::launch::async, [&] {
    return executor.Query(LabelGraph({1}), {.k = 3});
  });
  while (executor.Stats().queued < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Queue is at capacity: the next submit must bounce immediately with the
  // typed backpressure status instead of blocking.
  Result<Ranking> rejected = executor.Query(LabelGraph({2}), {.k = 3});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  Status rejected_remove = executor.Remove(0);
  EXPECT_EQ(rejected_remove.code(), StatusCode::kResourceExhausted);

  executor.Resume();
  EXPECT_TRUE(q1.get().ok());
  EXPECT_TRUE(q2.get().ok());
  const BatchExecutorStats stats = executor.Stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(BatchExecutorTest, MutationsAreFifoWithQueries) {
  ShardedEngine engine = MakeEngine(6, 3);
  BatchExecutor executor(&engine);
  // Insert → the very next query (same producer, FIFO queue) sees the row.
  Result<int> id = executor.Insert(LabelGraph({0, 1, 2, 3, 4}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 6);
  Result<Ranking> with = executor.Query(LabelGraph({0, 1, 2, 3, 4}), {.k = 1});
  ASSERT_TRUE(with.ok());
  ASSERT_EQ(with->size(), 1u);
  EXPECT_EQ((*with)[0].id, 6);
  EXPECT_DOUBLE_EQ((*with)[0].score, 0.0);

  ASSERT_TRUE(executor.Remove(6).ok());
  EXPECT_EQ(executor.Remove(6).code(), StatusCode::kNotFound);
  Result<Ranking> without =
      executor.Query(LabelGraph({0, 1, 2, 3, 4}), {.k = 100});
  ASSERT_TRUE(without.ok());
  for (const RankedResult& r : *without) EXPECT_NE(r.id, 6);

  Result<EngineGauges> gauges = executor.Gauges();
  ASSERT_TRUE(gauges.ok());
  EXPECT_EQ(gauges->graphs, 6);
  EXPECT_EQ(gauges->shards, 3);
  EXPECT_EQ(gauges->features, 5);

  const std::string path = ::testing::TempDir() + "/gdim_executor_snap.idx2";
  ASSERT_TRUE(executor.Snapshot(path).ok());
  auto reloaded = ShardedEngine::Open(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_graphs(), 6);

  const BatchExecutorStats stats = executor.Stats();
  EXPECT_EQ(stats.mutations, 4u);  // insert + 2 removes + snapshot
}

TEST(BatchExecutorTest, CacheHitsAreExactAndEveryMutationInvalidates) {
  ShardedEngine engine = MakeEngine(18, 3);
  BatchExecutorOptions opts;
  opts.cache_bytes = 1 << 20;
  BatchExecutor executor(&engine, opts);
  const Graph probe = LabelGraph({0, 1, 2, 3, 4});

  Result<Ranking> cold = executor.Query(probe, {.k = 5});
  ASSERT_TRUE(cold.ok());
  Result<Ranking> hit = executor.Query(probe, {.k = 5});
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, *cold);
  BatchExecutorStats stats = executor.Stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);

  // Different k is a different key, not a truncation of the cached list.
  Result<Ranking> other_k = executor.Query(probe, {.k = 2});
  ASSERT_TRUE(other_k.ok());
  EXPECT_EQ(other_k->size(), 2u);
  EXPECT_EQ(executor.Stats().cache.misses, 2u);

  // Insert an exact match: the stale top-5 must NOT be replayed — the new
  // row (distance 0) has to surface immediately.
  Result<int> id = executor.Insert(probe);
  ASSERT_TRUE(id.ok());
  Result<Ranking> after_insert = executor.Query(probe, {.k = 5});
  ASSERT_TRUE(after_insert.ok());
  ASSERT_FALSE(after_insert->empty());
  EXPECT_EQ((*after_insert)[0].id, *id);
  EXPECT_DOUBLE_EQ((*after_insert)[0].score, 0.0);

  // Remove it again: the (now stale) post-insert answer must not replay.
  ASSERT_TRUE(executor.Remove(*id).ok());
  Result<Ranking> after_remove = executor.Query(probe, {.k = 5});
  ASSERT_TRUE(after_remove.ok());
  EXPECT_EQ(*after_remove, *cold);

  // Compact does not change answers but must still invalidate (epoch bump):
  // the next ask is a fresh miss that returns the identical ranking.
  const uint64_t misses_before = executor.Stats().cache.misses;
  ASSERT_TRUE(executor.Compact().ok());
  Result<Ranking> after_compact = executor.Query(probe, {.k = 5});
  ASSERT_TRUE(after_compact.ok());
  EXPECT_EQ(*after_compact, *cold);
  EXPECT_EQ(executor.Stats().cache.misses, misses_before + 1);

  Result<EngineGauges> gauges = executor.Gauges();
  ASSERT_TRUE(gauges.ok());
  EXPECT_GE(gauges->epoch, 3u);  // insert + remove + compact at least
}

TEST(BatchExecutorTest, CacheDisabledByDefaultReportsNothing) {
  ShardedEngine engine = MakeEngine(6, 2);
  BatchExecutor executor(&engine);
  ASSERT_TRUE(executor.Query(LabelGraph({0}), {.k = 3}).ok());
  ASSERT_TRUE(executor.Query(LabelGraph({0}), {.k = 3}).ok());
  const BatchExecutorStats stats = executor.Stats();
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.max_bytes, 0u);
}

// The non-blocking-snapshot proof, made deterministic with a FIFO: the
// background writer blocks opening the pipe (no reader yet), and while it
// is provably still in progress the dispatcher keeps answering queries and
// mutations. Draining the pipe then releases the writer, and the bytes that
// come out are a valid v2 snapshot of the state at freeze time — the
// mutations that ran DURING the snapshot are not in it.
TEST(BatchExecutorTest, SnapshotStreamsInBackgroundWithoutBlockingQueries) {
  constexpr int kRows = 12;
  ShardedEngine engine = MakeEngine(kRows, 2);
  BatchExecutorOptions opts;
  opts.cache_bytes = 1 << 20;
  BatchExecutor executor(&engine, opts);

  const std::string fifo =
      ::testing::TempDir() + "/gdim_snap_fifo_" +
      std::to_string(::getpid());
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  auto pending = std::async(std::launch::async,
                            [&] { return executor.Snapshot(fifo); });
  // The freeze + handoff happen quickly; the write then parks on the pipe.
  for (int i = 0; i < 5000 && executor.Stats().snapshots_in_progress == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(executor.Stats().snapshots_in_progress, 1u);

  // Queries and mutations keep flowing while the snapshot is in flight.
  Result<Ranking> during = executor.Query(LabelGraph({0, 2, 4}), {.k = 4});
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->size(), 4u);
  Result<int> inserted = executor.Insert(LabelGraph({0, 1, 2, 3, 4}));
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(executor.Stats().snapshots_in_progress, 1u)
      << "snapshot must still be writing while queries are served";

  // Release the writer: drain the pipe into a real file.
  const std::string drained = fifo + ".idx2";
  {
    const int read_fd = ::open(fifo.c_str(), O_RDONLY);
    ASSERT_GE(read_fd, 0);
    std::ofstream out(drained, std::ios::binary);
    char buffer[4096];
    ssize_t n;
    while ((n = ::read(read_fd, buffer, sizeof(buffer))) > 0) {
      out.write(buffer, n);
    }
    ::close(read_fd);
  }
  Status written = pending.get();
  EXPECT_TRUE(written.ok()) << written.ToString();
  const BatchExecutorStats stats = executor.Stats();
  EXPECT_EQ(stats.snapshots_in_progress, 0u);
  EXPECT_EQ(stats.snapshots_completed, 1u);

  // The drained bytes are the freeze-time state: the insert that happened
  // mid-write is absent, everything older is present.
  Result<ShardedEngine> reloaded = ShardedEngine::Open(drained);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->num_graphs(), kRows);
  for (int id : reloaded->alive_ids()) EXPECT_NE(id, *inserted);
  ::unlink(fifo.c_str());
}

TEST(BatchExecutorTest, DestructorDrainsAdmittedRequests) {
  ShardedEngine engine = MakeEngine(12, 2);
  std::vector<std::future<Result<Ranking>>> pending;
  {
    BatchExecutor executor(&engine);
    executor.Pause();
    for (int i = 0; i < 5; ++i) {
      pending.push_back(std::async(std::launch::async, [&] {
        return executor.Query(LabelGraph({0, 2}), {.k = 4});
      }));
    }
    while (executor.Stats().queued < 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Destruction drains the paused queue before stopping the dispatcher.
  }
  for (auto& p : pending) {
    Result<Ranking> got = p.get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 4u);
  }
}

}  // namespace
}  // namespace gdim
