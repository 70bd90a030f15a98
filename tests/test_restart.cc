// Durable-restart differential: a server restarted from a v3 snapshot
// ALONE — no source database — must be indistinguishable from the process
// that wrote it. The snapshot is taken mid-churn, after two REINDEX
// generation swaps; the restarted engine must restore the dimension
// generation and mutation epoch, seed its graph store from the STOR
// section, rebuild its IVF index as a fresh build over the same rows
// would, and answer MODE=full and MODE=approx/NPROBE=all probes
// bit-identically — at shards {1, 4} x threads {1, 8}. The v2 escape
// hatch documents the pre-v3 degraded behavior (generation and epoch
// restart at zero).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "core/index_io.h"
#include "datasets/chemgen.h"
#include "graph/graph.h"
#include "reindex/dimension_refresher.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"
#include "server/wire.h"
#include "store/graph_store.h"

namespace gdim {
namespace {

/// Small molecule-like corpus: graphs with edges (so mining finds candidate
/// features) but few vertices (so the per-combo REINDEX pipeline stays
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

/// Builds the initial serving generation over db — the same pipeline a
/// reindex runs, so the test starts from a "real" dimension.
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

TEST(RestartDifferentialTest, V3SnapshotRestartIsBitIdentical) {
  const GraphDatabase corpus = GenerateChemDatabase(SmallChem(24, 91));
  const GraphDatabase extra = GenerateChemQueries(SmallChem(24, 92), 8);
  const GraphDatabase probes = GenerateChemQueries(SmallChem(24, 93), 4);
  const PersistedIndex index =
      InitialIndex(corpus, FastRefresh("DSPMap", 8, 3));
  const QueryOptions full{.k = 6, .scan_mode = ScanMode::kFull};
  const QueryOptions approx_all{
      .k = 6, .scan_mode = ScanMode::kApprox, .nprobe = kNprobeAll};

  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ShardedOptions engine_opts;
      engine_opts.num_shards = shards;
      engine_opts.threads = threads;
      auto engine = ShardedEngine::FromIndex(index, engine_opts);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      GraphStore store = StoreOf(corpus);

      BatchExecutorOptions executor_opts;
      executor_opts.cache_bytes = 1 << 20;
      executor_opts.store = &store;
      executor_opts.refresh = FastRefresh("DSPMap", 0, 13);
      const std::string path = ::testing::TempDir() + "/gdim_restart_" +
                               std::to_string(shards) + "_" +
                               std::to_string(threads) + ".idx2";

      uint64_t epoch_before = 0;
      int graphs_before = 0;
      std::vector<Ranking> full_before, approx_before;
      {
        BatchExecutor executor(&*engine, executor_opts);

        // Churn, REINDEX, churn, REINDEX: the snapshot must carry history
        // no single rebuild could reproduce (two generation swaps with
        // different live sets).
        for (int i = 0; i < 4; ++i) {
          ASSERT_TRUE(executor.Insert(extra[static_cast<size_t>(i)]).ok());
        }
        for (int id : {1, 6, 11}) ASSERT_TRUE(executor.Remove(id).ok());
        Result<ReindexReport> gen1 = executor.Reindex(8);
        ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
        ASSERT_EQ(gen1->generation, 1u);

        for (int i = 4; i < 8; ++i) {
          ASSERT_TRUE(executor.Insert(extra[static_cast<size_t>(i)]).ok());
        }
        ASSERT_TRUE(executor.Remove(2).ok());
        Result<ReindexReport> gen2 = executor.Reindex(8);
        ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
        ASSERT_EQ(gen2->generation, 2u);

        // Mid-churn state at snapshot time: a live tombstone and fresh
        // delta rows on the current generation, none compacted away.
        ASSERT_TRUE(executor.Remove(5).ok());
        Result<int> last = executor.Insert(probes[0]);
        ASSERT_TRUE(last.ok());

        ASSERT_TRUE(executor.Snapshot(path).ok());

        // Capture the ground truth AFTER the snapshot with no mutations in
        // between, so the file and the captured answers describe the same
        // state.
        const std::string gauges = executor.StatsText();
        EXPECT_EQ(StatsField(gauges, "dimension_generation"), 2) << gauges;
        epoch_before = static_cast<uint64_t>(StatsField(gauges, "epoch"));
        graphs_before = static_cast<int>(StatsField(gauges, "graphs"));
        for (const Graph& p : probes) {
          Result<Ranking> f = executor.Query(p, full);
          Result<Ranking> a = executor.Query(p, approx_all);
          ASSERT_TRUE(f.ok());
          ASSERT_TRUE(a.ok());
          // NPROBE=all admits every live row, so approx == full even on
          // the pre-restart engine.
          EXPECT_EQ(*a, *f);
          full_before.push_back(std::move(*f));
          approx_before.push_back(std::move(*a));
        }
      }  // the "process" dies: executor, engine, and store all torn down

      // Restart from the file alone — the original store and engine are
      // gone. The STOR section seeds the new store; META restores the
      // generation and epoch; the IVF index is rebuilt from the rows.
      Result<PackedIndex> packed = ReadIndexFilePacked(path);
      ASSERT_TRUE(packed.ok()) << packed.status().ToString();
      ASSERT_TRUE(packed->meta.has_value());
      ASSERT_TRUE(packed->store.has_value());
      EXPECT_EQ(packed->meta->generation, 2u);
      EXPECT_EQ(packed->meta->epoch, epoch_before);
      // The fresh build a restart must equal: the file's rows, ids and id
      // counter, with no sections.
      PackedIndex rows_only = *packed;
      rows_only.meta.reset();
      rows_only.store.reset();
      auto fresh_build =
          ShardedEngine::FromPacked(std::move(rows_only), engine_opts);
      ASSERT_TRUE(fresh_build.ok()) << fresh_build.status().ToString();

      GraphStore store2;
      {
        ScopedRole writer(&store2.writer_role());
        for (size_t i = 0; i < packed->store->ids.size(); ++i) {
          ASSERT_TRUE(
              store2.Put(packed->store->ids[i], packed->store->graphs[i])
                  .ok());
        }
      }
      packed->store.reset();
      auto engine2 =
          ShardedEngine::FromPacked(std::move(*packed), engine_opts);
      ASSERT_TRUE(engine2.ok()) << engine2.status().ToString();

      // Rebuilt, not adopted: the IVF index is a pure function of the
      // rows and the shard count, so the bucket count equals a fresh
      // build's (ceil(sqrt(n)) per shard), whatever the churned layout of
      // the process that wrote the file.
      EXPECT_EQ(engine2->ivf_buckets(), fresh_build->ivf_buckets());
      EXPECT_EQ(engine2->generation(), 2u);
      EXPECT_EQ(engine2->epoch(), epoch_before);

      BatchExecutorOptions executor2_opts = executor_opts;
      executor2_opts.store = &store2;
      BatchExecutor executor2(&*engine2, executor2_opts);
      const std::string gauges2 = executor2.StatsText();
      EXPECT_EQ(StatsField(gauges2, "dimension_generation"), 2) << gauges2;
      EXPECT_EQ(StatsField(gauges2, "epoch"),
                static_cast<long long>(epoch_before))
          << gauges2;
      EXPECT_EQ(StatsField(gauges2, "graphs"), graphs_before) << gauges2;

      // The restarted cache starts empty: the first probe is a compulsory
      // miss, never a replay of a pre-restart entry. (Later probes may hit
      // entries THIS process cached — chem probes can share a graph.)
      const std::string fresh = executor2.StatsText();
      EXPECT_EQ(StatsField(fresh, "cache_hits"), 0) << fresh;
      Result<Ranking> first = executor2.Query(probes[0], full);
      ASSERT_TRUE(first.ok());
      EXPECT_EQ(*first, full_before[0]);
      const std::string after_first = executor2.StatsText();
      EXPECT_EQ(StatsField(after_first, "cache_hits"),
                StatsField(fresh, "cache_hits"));
      EXPECT_EQ(StatsField(after_first, "cache_misses"),
                StatsField(fresh, "cache_misses") + 1);

      // The differential: every probe, both modes, bit-identical.
      for (size_t i = 0; i < probes.size(); ++i) {
        Result<Ranking> f = executor2.Query(probes[i], full);
        Result<Ranking> a = executor2.Query(probes[i], approx_all);
        ASSERT_TRUE(f.ok());
        ASSERT_TRUE(a.ok());
        EXPECT_EQ(*f, full_before[i]) << "probe " << i;
        EXPECT_EQ(*a, approx_before[i]) << "probe " << i;
      }

      // The restored epoch keeps climbing from the persisted value, and
      // REINDEX works from the snapshot-seeded store — no --db anywhere.
      ASSERT_TRUE(executor2.Remove(0).ok());
      EXPECT_GT(StatsField(executor2.StatsText(), "epoch"),
                static_cast<long long>(epoch_before));
      Result<ReindexReport> gen3 = executor2.Reindex(8);
      ASSERT_TRUE(gen3.ok()) << gen3.status().ToString();
      EXPECT_EQ(gen3->generation, 3u);
    }
  }
}

}  // namespace
}  // namespace gdim
