// Reindex subsystem tests: the background dimension refresh produces
// deterministic generations, the hot swap is bit-identical to an offline
// rebuild over the same live set and seed (across shard and thread counts),
// epoch/generation counters prove the result cache never crosses a
// generation boundary, and — via a FIFO-parked selection — queries and
// mutations demonstrably flow while a refresh is in progress, with
// churn-during-selection reconciled into the swapped generation.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "datasets/chemgen.h"
#include "graph/graph.h"
#include "reindex/dimension_refresher.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"
#include "store/graph_store.h"

namespace gdim {
namespace {

/// Small molecule-like corpus: graphs with edges (so mining finds candidate
/// features) but few vertices (so mining and DSPMap's MCS blocks stay
/// cheap in a unit test).
ChemGenOptions SmallChem(int n, uint64_t seed) {
  ChemGenOptions opts;
  opts.num_graphs = n;
  opts.num_families = 4;
  opts.min_vertices = 6;
  opts.max_vertices = 9;
  opts.seed = seed;
  return opts;
}

/// Refresh options the tests share; selector chosen per test (DSPMap for
/// the differential, the cheap seeded "Sample" where selection quality is
/// irrelevant).
RefreshOptions FastRefresh(const std::string& selector, int p,
                           uint64_t seed) {
  RefreshOptions options;
  options.selector = selector;
  options.p = p;
  options.mining.min_support = 0.3;
  options.mining.max_edges = 3;
  options.seed = seed;
  options.dspmap.partition_size = 10;
  options.dspmap.sample_size = 4;
  return options;
}

/// A store over db with positional ids 0..n-1 (the serve-net load shape).
GraphStore StoreOf(const GraphDatabase& db) {
  GraphStore store;
  ScopedRole writer(&store.writer_role());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_TRUE(store.Put(static_cast<int>(i), db[i]).ok());
  }
  return store;
}

/// Builds the initial serving generation over db with the given refresh
/// options — the same pipeline a reindex runs, so tests start from a
/// "real" dimension.
PersistedIndex InitialIndex(const GraphDatabase& db,
                            const RefreshOptions& options) {
  GraphStore store = StoreOf(db);
  ScopedRole writer(&store.writer_role());
  Result<RefreshedGeneration> generation =
      BuildGeneration(store.Freeze(), options);
  EXPECT_TRUE(generation.ok()) << generation.status().ToString();
  PersistedIndex index;
  index.features = std::move(generation->features);
  index.db_bits = std::move(generation->fingerprints);
  index.ids = std::move(generation->ids);
  return index;
}

// ------------------------------------------------------------- pipeline --

TEST(BuildGenerationTest, DeterministicInFrozenSetAndSeed) {
  const GraphDatabase db = GenerateChemDatabase(SmallChem(18, 11));
  GraphStore store = StoreOf(db);
  ScopedRole writer(&store.writer_role());
  const RefreshOptions options = FastRefresh("DSPMap", 8, 5);
  Result<RefreshedGeneration> a = BuildGeneration(store.Freeze(), options);
  Result<RefreshedGeneration> b = BuildGeneration(store.Freeze(), options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->features.size(), 8u);
  ASSERT_EQ(a->features.size(), b->features.size());
  for (size_t r = 0; r < a->features.size(); ++r) {
    EXPECT_EQ(a->features[r], b->features[r]) << "feature " << r;
  }
  EXPECT_EQ(a->ids, b->ids);
  EXPECT_EQ(a->fingerprints, b->fingerprints);
  EXPECT_GE(a->mined_features, 8);
}

TEST(BuildGenerationTest, FingerprintsAgreeWithTheMapper) {
  // Support-set fingerprints (mining) and VF2 fingerprints (mapper) answer
  // the same subgraph-isomorphism question — the property the swap
  // reconcile path depends on.
  const GraphDatabase db = GenerateChemDatabase(SmallChem(16, 3));
  GraphStore store = StoreOf(db);
  ScopedRole writer(&store.writer_role());
  Result<RefreshedGeneration> generation =
      BuildGeneration(store.Freeze(), FastRefresh("DSPMap", 6, 9));
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();
  const FeatureMapper mapper(generation->features);
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(generation->fingerprints[i], mapper.Map(db[i])) << "graph " << i;
  }
}

TEST(BuildGenerationTest, RejectsDegenerateInputs) {
  const GraphDatabase db = GenerateChemDatabase(SmallChem(8, 1));
  GraphStore store = StoreOf(db);
  ScopedRole writer(&store.writer_role());
  EXPECT_EQ(
      BuildGeneration(FrozenGraphSet{}, FastRefresh("DSPMap", 4, 1)).status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildGeneration(store.Freeze(), FastRefresh("DSPMap", 0, 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildGeneration(store.Freeze(), FastRefresh("NoSuchSelector", 4, 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  RefreshOptions impossible = FastRefresh("DSPMap", 4, 1);
  impossible.mining.min_support_count = 1000;  // nothing is that frequent
  EXPECT_EQ(BuildGeneration(store.Freeze(), impossible).status().code(),
            StatusCode::kNotFound);
}

// ------------------------------------------------------ generation swap --

TEST(GenerationSwapTest, ShardedSwapBumpsEpochAndGeneration) {
  const GraphDatabase db = GenerateChemDatabase(SmallChem(14, 31));
  const PersistedIndex index = InitialIndex(db, FastRefresh("Sample", 6, 2));
  ShardedOptions opts;
  opts.num_shards = 3;
  auto engine = ShardedEngine::FromIndex(index, opts);
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  ASSERT_TRUE(engine->Remove(2).ok());
  const uint64_t before = engine->epoch();
  EXPECT_EQ(engine->generation(), 0u);

  auto next = ShardedEngine::FromIndex(
      InitialIndex(db, FastRefresh("Sample", 5, 7)), opts);
  ASSERT_TRUE(next.ok());
  engine->SwapGeneration(std::move(next).value());
  EXPECT_GT(engine->epoch(), before);
  EXPECT_EQ(engine->generation(), 1u);
  EXPECT_EQ(engine->num_features(), 5);
  EXPECT_EQ(engine->num_graphs(), static_cast<int>(db.size()));
  EXPECT_EQ(engine->tombstoned_rows(), 0);  // fresh generation, no ghosts

  // Swapping again keeps climbing — epochs never reset across generations.
  const uint64_t second = engine->epoch();
  auto again = ShardedEngine::FromIndex(
      InitialIndex(db, FastRefresh("Sample", 5, 8)), opts);
  ASSERT_TRUE(again.ok());
  engine->SwapGeneration(std::move(again).value());
  EXPECT_GT(engine->epoch(), second);
  EXPECT_EQ(engine->generation(), 2u);
}

// ------------------------------------------------- online vs offline ----

/// The acceptance differential: churn through the executor, REINDEX, and
/// compare the swapped-in generation's answers bit-for-bit against a fresh
/// engine built offline (same pipeline, same live set, same seed) — at
/// shards {1, 4} × threads {1, 8}; half the combinations compact
/// mid-churn. Epoch, generation, and cache counters prove the swap
/// invalidated every cached answer.
TEST(ReindexDifferentialTest, SwapMatchesOfflineRebuild) {
  const GraphDatabase corpus = GenerateChemDatabase(SmallChem(26, 77));
  const GraphDatabase fresh_graphs =
      GenerateChemQueries(SmallChem(26, 78), 8);
  const GraphDatabase probes = GenerateChemQueries(SmallChem(26, 79), 5);
  const RefreshOptions initial = FastRefresh("DSPMap", 10, 3);
  const PersistedIndex index = InitialIndex(corpus, initial);

  int combo = 0;
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" +
                   std::to_string(threads));
      ShardedOptions engine_opts;
      engine_opts.num_shards = shards;
      engine_opts.serve.threads = threads;
      auto engine = ShardedEngine::FromIndex(index, engine_opts);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      GraphStore store = StoreOf(corpus);

      BatchExecutorOptions executor_opts;
      executor_opts.cache_bytes = 1 << 20;
      executor_opts.store = &store;
      executor_opts.refresh = FastRefresh("DSPMap", 0, 13);
      BatchExecutor executor(&*engine, executor_opts);

      // Churn: insert the shifted graphs, remove every fourth original.
      for (const Graph& g : fresh_graphs) {
        ASSERT_TRUE(executor.Insert(g).ok());
      }
      for (size_t id = 0; id < corpus.size(); id += 4) {
        ASSERT_TRUE(executor.Remove(static_cast<int>(id)).ok());
      }
      if (combo % 2 == 0) {
        Result<int> reclaimed = executor.Compact();
        ASSERT_TRUE(reclaimed.ok());
        EXPECT_EQ(*reclaimed, static_cast<int>((corpus.size() + 3) / 4));
      }

      // Warm the cache on the old generation, and capture pre-swap
      // gauges.
      std::vector<Ranking> before;
      for (const Graph& p : probes) {
        Result<Ranking> cold = executor.Query(p, {.k = 6});
        ASSERT_TRUE(cold.ok());
        Result<Ranking> hot = executor.Query(p, {.k = 6});
        ASSERT_TRUE(hot.ok());
        EXPECT_EQ(*hot, *cold);
        before.push_back(std::move(*cold));
      }
      Result<EngineGauges> pre = executor.Gauges();
      ASSERT_TRUE(pre.ok());
      EXPECT_EQ(pre->generation, 0u);
      ASSERT_GE(executor.Stats().cache.hits, probes.size());

      // The online reindex. It is ONE client request: the internal
      // generation-adoption step must not fabricate a phantom entry in
      // the accepted/completed arithmetic clients do from STATS deltas.
      const uint64_t accepted_before = executor.Stats().accepted;
      Result<ReindexReport> report = executor.Reindex(8);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->generation, 1u);
      EXPECT_EQ(report->features, 8);
      EXPECT_EQ(report->remapped, 0);  // no churn during this refresh
      const BatchExecutorStats drained = executor.Stats();
      EXPECT_EQ(drained.accepted, accepted_before + 1);
      EXPECT_EQ(drained.completed, drained.accepted);

      Result<EngineGauges> post = executor.Gauges();
      ASSERT_TRUE(post.ok());
      EXPECT_GT(post->epoch, pre->epoch);
      EXPECT_EQ(post->generation, 1u);
      EXPECT_EQ(post->features, 8);
      EXPECT_EQ(post->graphs, pre->graphs);
      const BatchExecutorStats stats = executor.Stats();
      EXPECT_EQ(stats.reindexes_completed, 1u);
      EXPECT_EQ(stats.reindexes_in_progress, 0u);

      // The offline rebuild: same live set, same pipeline, same seed.
      RefreshOptions offline_opts = FastRefresh("DSPMap", 8, 13);
      // The executor is idle (every request above has drained), so this
      // thread may act as the store's writer for the capture.
      ScopedRole store_writer(&store.writer_role());
      Result<RefreshedGeneration> offline =
          BuildGeneration(store.Freeze(), offline_opts);
      ASSERT_TRUE(offline.ok()) << offline.status().ToString();
      PersistedIndex offline_index;
      offline_index.features = std::move(offline->features);
      offline_index.db_bits = std::move(offline->fingerprints);
      offline_index.ids = std::move(offline->ids);
      auto offline_engine =
          ShardedEngine::FromIndex(std::move(offline_index), engine_opts);
      ASSERT_TRUE(offline_engine.ok());

      // Cross-generation proof on a distinguished probe: probes[0] is
      // cached on the OLD generation (warmed above); its first query
      // after the swap must be a fresh miss — the epoch bump makes the
      // old entry unreachable — answered exactly like the offline build.
      const uint64_t hits_at_swap = executor.Stats().cache.hits;
      const uint64_t misses_at_swap = executor.Stats().cache.misses;
      Result<Ranking> first = executor.Query(probes[0], {.k = 6});
      ASSERT_TRUE(first.ok());
      EXPECT_EQ(*first, offline_engine->Query(probes[0], {.k = 6}));
      EXPECT_EQ(executor.Stats().cache.hits, hits_at_swap)
          << "a cached answer crossed the generation boundary";
      EXPECT_EQ(executor.Stats().cache.misses, misses_at_swap + 1);

      // Bit-identical answers for the whole probe set (probes sharing a
      // fingerprint may legitimately hit same-generation entries now).
      for (size_t i = 0; i < probes.size(); ++i) {
        const Ranking expected = offline_engine->Query(probes[i], {.k = 6});
        Result<Ranking> got = executor.Query(probes[i], {.k = 6});
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, expected) << "probe " << i;
      }
      ++combo;
    }
  }
}

// ----------------------------------------------- refresh under traffic --

TEST(ReindexLiveTest, ReindexUnavailableWithoutStore) {
  const GraphDatabase db = GenerateChemDatabase(SmallChem(10, 41));
  auto engine =
      ShardedEngine::FromIndex(InitialIndex(db, FastRefresh("Sample", 5, 2)));
  ASSERT_TRUE(engine.ok());
  BatchExecutor executor(&*engine);
  Result<ReindexReport> report = executor.Reindex();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

/// The deterministic mid-selection proof: the refresh thread parks on a
/// FIFO open before mining (selection_gate), and while it is provably
/// parked — reindex_in_progress == 1, the FIFO has no writer — queries are
/// answered and mutations land. Opening the writer releases the refresh;
/// the swap must then reflect the mutations that happened DURING the
/// selection (inserted graph present on the new dimension, removed graph
/// gone), because the adopt step reconciles against the live store.
TEST(ReindexLiveTest, QueriesAndMutationsFlowWhileSelectionIsParked) {
  const GraphDatabase corpus = GenerateChemDatabase(SmallChem(20, 51));
  const GraphDatabase extra = GenerateChemQueries(SmallChem(20, 52), 2);
  auto engine = ShardedEngine::FromIndex(
      InitialIndex(corpus, FastRefresh("Sample", 6, 2)), [] {
        ShardedOptions opts;
        opts.num_shards = 2;
        return opts;
      }());
  ASSERT_TRUE(engine.ok());
  GraphStore store = StoreOf(corpus);

  const std::string fifo = ::testing::TempDir() + "/gdim_reindex_fifo_" +
                           std::to_string(::getpid());
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  BatchExecutorOptions executor_opts;
  executor_opts.cache_bytes = 1 << 20;
  executor_opts.store = &store;
  executor_opts.refresh = FastRefresh("Sample", 0, 23);
  executor_opts.refresh.selection_gate = [fifo] {
    // Parks until the test opens the write end: a blocking FIFO open is
    // the deterministic "selection still running" state.
    const int fd = ::open(fifo.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    char byte;
    while (::read(fd, &byte, 1) == 1) {
    }
    ::close(fd);
  };
  BatchExecutor executor(&*engine, executor_opts);

  auto pending = std::async(std::launch::async,
                            [&] { return executor.Reindex(5); });
  for (int i = 0;
       i < 5000 && executor.Stats().reindexes_in_progress == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(executor.Stats().reindexes_in_progress, 1u);

  // Queries flow while the selection is parked...
  Result<Ranking> during = executor.Query(corpus[0], {.k = 3});
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->size(), 3u);
  // ... and so do mutations (plus a compaction, which must prune the store
  // without disturbing the frozen capture the selection is reading).
  Result<int> inserted = executor.Insert(extra[0]);
  ASSERT_TRUE(inserted.ok());
  ASSERT_TRUE(executor.Remove(3).ok());
  ASSERT_TRUE(executor.Compact().ok());
  // A second REINDEX while one is parked is typed backpressure, not a
  // queue-up.
  Result<ReindexReport> second = executor.Reindex();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  ASSERT_EQ(executor.Stats().reindexes_in_progress, 1u);
  EXPECT_EQ(executor.Gauges()->generation, 0u);

  // Release the selection; the swap lands and the RPC resolves.
  {
    const int fd = ::open(fifo.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ::close(fd);  // EOF releases the gate's read loop
  }
  Result<ReindexReport> report = pending.get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1u);
  EXPECT_EQ(report->features, 5);
  EXPECT_EQ(report->remapped, 1);  // the graph inserted mid-selection

  // The new generation reflects the churn that happened during selection:
  // the inserted graph is present (its own fingerprint at distance 0) and
  // the removed one is gone.
  Result<EngineGauges> gauges = executor.Gauges();
  ASSERT_TRUE(gauges.ok());
  EXPECT_EQ(gauges->generation, 1u);
  Result<Ranking> all = executor.Query(extra[0], {.k = gauges->graphs});
  ASSERT_TRUE(all.ok());
  bool found_inserted = false;
  for (const RankedResult& r : *all) {
    EXPECT_NE(r.id, 3) << "removed id resurfaced after the swap";
    if (r.id == *inserted) {
      found_inserted = true;
      EXPECT_DOUBLE_EQ(r.score, 0.0);
    }
  }
  EXPECT_TRUE(found_inserted);
  ::unlink(fifo.c_str());
}

TEST(ReindexLiveTest, AutoTriggerRefreshesAfterNMutations) {
  const GraphDatabase corpus = GenerateChemDatabase(SmallChem(16, 61));
  const GraphDatabase extra = GenerateChemQueries(SmallChem(16, 62), 4);
  auto engine = ShardedEngine::FromIndex(
      InitialIndex(corpus, FastRefresh("Sample", 6, 2)));
  ASSERT_TRUE(engine.ok());
  GraphStore store = StoreOf(corpus);

  BatchExecutorOptions executor_opts;
  executor_opts.store = &store;
  executor_opts.refresh = FastRefresh("Sample", 0, 29);
  executor_opts.reindex_every = 4;
  BatchExecutor executor(&*engine, executor_opts);

  for (const Graph& g : extra) {
    ASSERT_TRUE(executor.Insert(g).ok());
  }
  // The fourth mutation fires a background refresh; poll the gauges until
  // the generation lands (bounded wait, no sleep-based timing assumption).
  uint64_t generation = 0;
  for (int i = 0; i < 10000 && generation == 0; ++i) {
    Result<EngineGauges> gauges = executor.Gauges();
    ASSERT_TRUE(gauges.ok());
    generation = gauges->generation;
    if (generation == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(executor.Stats().reindexes_completed, 1u);
  // Keep serving on the new generation.
  Result<Ranking> after = executor.Query(extra[0], {.k = 4});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 4u);
}

}  // namespace
}  // namespace gdim
