// Sharded scatter-gather tests: a ShardedEngine over ANY shard count must
// answer bit-identically (ids and scores) to a brute-force ranking of the
// same database — through tie-heavy score distributions, k larger than any
// shard, shards emptied by removals, interleaved churn, and snapshot/reload
// cycles that change the shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/sync.h"
#include "core/index.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "datasets/chemgen.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::ExpectEngineMatchesBruteForce;

ShardedOptions Sharded(int num_shards, int threads = 0) {
  ShardedOptions opts;
  opts.num_shards = num_shards;
  opts.serve.threads = threads;
  return opts;
}

class ShardedEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ChemGenOptions gen;
    gen.num_graphs = 40;
    gen.num_families = 6;
    gen.min_vertices = 8;
    gen.max_vertices = 14;
    db_ = new GraphDatabase(GenerateChemDatabase(gen));
    // >= 64 queries so QueryBatch crosses ParallelFor's serial threshold
    // and the thread-determinism assertions actually spawn workers.
    queries_ = new GraphDatabase(GenerateChemQueries(gen, 70));
    IndexOptions opts;
    opts.mining.min_support = 0.15;
    opts.mining.max_edges = 4;
    opts.selector = "DSPM";
    opts.p = 30;
    opts.dspm.max_iters = 10;
    auto built = GraphSearchIndex::Build(*db_, opts);
    GDIM_CHECK(built.ok()) << built.status().ToString();
    index_ = new PersistedIndex();
    index_->features = built->dimension();
    index_->db_bits = built->mapped_database();
  }

  static void TearDownTestSuite() {
    delete db_;
    delete queries_;
    delete index_;
    db_ = nullptr;
    queries_ = nullptr;
    index_ = nullptr;
  }

  static GraphDatabase* db_;
  static GraphDatabase* queries_;
  static PersistedIndex* index_;
};

GraphDatabase* ShardedEngineTest::db_ = nullptr;
GraphDatabase* ShardedEngineTest::queries_ = nullptr;
PersistedIndex* ShardedEngineTest::index_ = nullptr;

TEST_F(ShardedEngineTest, AnyShardCountMatchesBruteForceBitForBit) {
  const FeatureMapper mapper(index_->features);
  const testing_util::LiveRows live = testing_util::LiveRowsOf(*index_);
  for (int shards : {1, 2, 4, 7}) {
    for (int threads : {1, 8}) {
      auto engine =
          ShardedEngine::FromIndex(*index_, Sharded(shards, threads));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ(engine->num_shards(), shards);
      EXPECT_EQ(engine->num_graphs(), static_cast<int>(live.size()));
      for (int k : {0, 3, 1000}) {
        EXPECT_EQ(engine->QueryBatch(*queries_, {.k = k}),
                  testing_util::BruteForceBatch(mapper, *queries_, live, k))
            << "shards=" << shards << " threads=" << threads << " k=" << k;
      }
    }
  }
}

TEST_F(ShardedEngineTest, ScatterStatsAggregateAcrossShards) {
  auto engine = ShardedEngine::FromIndex(*index_, Sharded(4));
  ASSERT_TRUE(engine.ok());
  ServeQueryStats stats;
  const Ranking top = engine->Query((*queries_)[0], {.k = 5}, &stats);
  EXPECT_EQ(static_cast<int>(top.size()), 5);
  // Full scans in every shard sum to the whole database.
  EXPECT_EQ(stats.scanned, engine->num_graphs());
  EXPECT_GT(stats.latency_ms, 0.0);
}

TEST_F(ShardedEngineTest, InterleavedChurnStaysIdenticalToBruteForce) {
  const FeatureMapper mapper(index_->features);
  for (int threads : {1, 8}) {
    auto sharded = ShardedEngine::FromIndex(*index_, Sharded(4, threads));
    ASSERT_TRUE(sharded.ok());
    // This test body is the engine's single writer.
    ScopedRole sharded_writer(&sharded->writer_role());
    testing_util::LiveRows live = testing_util::LiveRowsOf(*index_);

    // The mutation script, mirrored on the live model: the global id
    // sequence continues after the 40 initial rows.
    for (int id : {1, 5, 19, 38}) {
      ASSERT_TRUE(sharded->Remove(id).ok());
      live.erase(id);
    }
    for (int i = 0; i < 10; ++i) {
      const Graph& g = (*queries_)[static_cast<size_t>(i)];
      auto sharded_id = sharded->Insert(g);
      ASSERT_TRUE(sharded_id.ok());
      EXPECT_EQ(*sharded_id, 40 + i);
      live[*sharded_id] = mapper.Map(g);
    }
    sharded->Compact();
    for (int id : {0, 2, 40, 44}) {  // 40/44 were inserted above
      ASSERT_TRUE(sharded->Remove(id).ok());
      live.erase(id);
    }
    EXPECT_EQ(sharded->Remove(5).code(), StatusCode::kNotFound);  // twice
    EXPECT_EQ(sharded->Remove(-3).code(), StatusCode::kNotFound);
    EXPECT_EQ(sharded->Remove(9999).code(), StatusCode::kNotFound);

    EXPECT_EQ(sharded->num_graphs(), static_cast<int>(live.size()));
    for (int k : {0, 3, 1000}) {
      EXPECT_EQ(sharded->QueryBatch(*queries_, {.k = k}),
                testing_util::BruteForceBatch(mapper, *queries_, live, k))
          << "threads=" << threads << " k=" << k;
    }
  }
}

TEST_F(ShardedEngineTest, SnapshotReloadsUnderAnyShardCount) {
  auto sharded = ShardedEngine::FromIndex(*index_, Sharded(4));
  ASSERT_TRUE(sharded.ok());
  ScopedRole writer(&sharded->writer_role());
  for (int id : {0, 7, 13}) ASSERT_TRUE(sharded->Remove(id).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sharded->Insert((*queries_)[static_cast<size_t>(i)]).ok());
  }
  const std::string path =
      ::testing::TempDir() + "/gdim_sharded_snapshot.idx2";
  ASSERT_TRUE(sharded->Snapshot(path).ok());

  const std::vector<Ranking> expected =
      sharded->QueryBatch(*queries_, {.k = 6});
  const std::vector<int> expected_ids = sharded->alive_ids();
  // The snapshot is shard-count independent: reload as a single shard and
  // as other shard counts, all bit-identical.
  for (int shards : {1, 2, 7}) {
    auto reloaded = ShardedEngine::Open(path, Sharded(shards));
    ASSERT_TRUE(reloaded.ok());
    ScopedRole reloaded_writer(&reloaded->writer_role());
    EXPECT_EQ(reloaded->alive_ids(), expected_ids);
    EXPECT_EQ(reloaded->QueryBatch(*queries_, {.k = 6}), expected)
        << "shards=" << shards;
    // The persisted id counter survives: the next insert gets the same id
    // everywhere, never a re-issued one.
    auto id = reloaded->Insert((*queries_)[9]);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 45);  // 40 initial + 5 inserted, removals don't recycle
  }
}

TEST_F(ShardedEngineTest, RejectsBadShardCountsAndBadIds) {
  EXPECT_FALSE(ShardedEngine::FromIndex(*index_, Sharded(0)).ok());
  EXPECT_FALSE(ShardedEngine::FromIndex(*index_, Sharded(-2)).ok());
  EXPECT_EQ(ShardedEngine::FromIndex(*index_, Sharded(0)).status().code(),
            StatusCode::kInvalidArgument);

  PersistedIndex bad = *index_;
  bad.ids.resize(bad.db_bits.size());
  for (size_t i = 0; i < bad.ids.size(); ++i) {
    bad.ids[i] = static_cast<int>(bad.ids.size() - i);  // descending
  }
  EXPECT_EQ(ShardedEngine::FromIndex(std::move(bad), Sharded(2))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Controlled-index tests: single-vertex features make fingerprints exact
// label sets, so tie structure and shard occupancy are fully scripted.

/// p single-vertex features; each row is one of a handful of patterns, so
/// scores collapse onto very few distinct values (maximal tie pressure on
/// the merge).
PersistedIndex TieHeavyIndex(int rows) {
  const int kLabels = 6;
  PersistedIndex index;
  for (LabelId r = 0; r < kLabels; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  const std::vector<std::vector<uint8_t>> patterns = {
      {1, 1, 0, 0, 0, 0}, {0, 0, 1, 1, 0, 0}, {1, 0, 1, 0, 1, 0},
      {0, 1, 0, 1, 0, 1},
  };
  for (int i = 0; i < rows; ++i) {
    index.db_bits.push_back(patterns[static_cast<size_t>(i) %
                                     patterns.size()]);
  }
  return index;
}

TEST(ShardedEngineTieTest, TieHeavyMergePreservesIdOrder) {
  const PersistedIndex index = TieHeavyIndex(40);
  const testing_util::LiveRows live = testing_util::LiveRowsOf(index);
  const std::vector<std::vector<uint8_t>> probes = {
      {1, 1, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1},
      {1, 0, 0, 0, 0, 1},
  };
  for (int shards : {1, 2, 4, 7}) {
    for (int threads : {1, 8}) {
      auto engine =
          ShardedEngine::FromIndex(index, Sharded(shards, threads));
      ASSERT_TRUE(engine.ok());
      for (const auto& probe : probes) {
        for (int k : {1, 5, 39, 40, 100}) {
          EXPECT_EQ(engine->QueryMapped(probe, {.k = k}),
                    testing_util::BruteForceTopK(probe, live, k))
              << "shards=" << shards << " threads=" << threads
              << " k=" << k;
        }
      }
    }
  }
}

TEST(ShardedEngineTieTest, KLargerThanAnyShardsLiveRows) {
  const PersistedIndex index = TieHeavyIndex(10);
  // 7 shards over 10 rows: every shard holds 1-2 rows, far below k.
  auto engine = ShardedEngine::FromIndex(index, Sharded(7));
  ASSERT_TRUE(engine.ok());
  const std::vector<uint8_t> probe = {1, 0, 1, 0, 0, 0};
  for (int k : {8, 10, 50}) {
    const Ranking got = engine->QueryMapped(probe, {.k = k});
    EXPECT_EQ(got, testing_util::BruteForceTopK(
                       probe, testing_util::LiveRowsOf(index), k))
        << "k=" << k;
    EXPECT_EQ(got.size(), std::min<size_t>(static_cast<size_t>(k), 10u));
  }
}

TEST(ShardedEngineTieTest, ShardsEmptiedByRemovalsStillMerge) {
  const PersistedIndex index = TieHeavyIndex(12);
  testing_util::LiveRows live = testing_util::LiveRowsOf(index);
  auto engine = ShardedEngine::FromIndex(index, Sharded(4));
  ASSERT_TRUE(engine.ok());
  ScopedRole engine_writer(&engine->writer_role());
  // Remove every id ≡ 1 and ≡ 2 (mod 4): shards 1 and 2 end up empty.
  for (int id = 0; id < 12; ++id) {
    if (id % 4 == 1 || id % 4 == 2) {
      ASSERT_TRUE(engine->Remove(id).ok());
      live.erase(id);
    }
  }
  EXPECT_EQ(engine->shard(1).num_graphs(), 0);
  EXPECT_EQ(engine->shard(2).num_graphs(), 0);
  const std::vector<uint8_t> probe = {0, 1, 1, 0, 0, 0};
  for (int k : {3, 6, 12}) {
    EXPECT_EQ(engine->QueryMapped(probe, {.k = k}),
              testing_util::BruteForceTopK(probe, live, k))
        << "k=" << k;
  }

  // Empty the database entirely: queries answer cleanly with nothing.
  for (int id = 0; id < 12; ++id) {
    if (id % 4 == 0 || id % 4 == 3) {
      ASSERT_TRUE(engine->Remove(id).ok());
    }
  }
  EXPECT_EQ(engine->num_graphs(), 0);
  EXPECT_TRUE(engine->QueryMapped(probe, {.k = 5}).empty());
  engine->Compact();
  EXPECT_TRUE(engine->QueryMapped(probe, {.k = 5}).empty());
}

TEST(ShardedEngineTieTest, EpochSumsShardMutationsAndFreezeIsStable) {
  const PersistedIndex index = TieHeavyIndex(12);
  auto engine = ShardedEngine::FromIndex(index, Sharded(4));
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  EXPECT_EQ(engine->epoch(), 0u);
  const std::vector<uint8_t> probe = {1, 0, 1, 0, 0, 0};
  engine->QueryMapped(probe, {.k = 5});
  EXPECT_EQ(engine->epoch(), 0u);  // queries never bump

  const std::vector<uint8_t> row = {1, 1, 0, 0, 0, 0};
  ASSERT_TRUE(engine->InsertMapped(row).ok());
  EXPECT_EQ(engine->epoch(), 1u);
  ASSERT_TRUE(engine->Remove(3).ok());
  EXPECT_EQ(engine->epoch(), 2u);
  EXPECT_FALSE(engine->Remove(3).ok());  // failed ops leave it alone
  EXPECT_EQ(engine->epoch(), 2u);
  // Compact bumps once per shard that did work; monotonic either way.
  engine->Compact();
  EXPECT_GT(engine->epoch(), 2u);
  const uint64_t settled = engine->epoch();
  engine->Compact();  // global no-op
  EXPECT_EQ(engine->epoch(), settled);

  // Freeze + WriteSnapshot equals the synchronous snapshot bit for bit,
  // and the capture survives mutations applied after it.
  const FrozenShardedState frozen = engine->Freeze();
  EXPECT_EQ(frozen.epoch, settled);
  ASSERT_TRUE(engine->InsertMapped(row).ok());
  ASSERT_TRUE(engine->Remove(0).ok());
  engine->Compact();
  const std::string from_frozen =
      ::testing::TempDir() + "/gdim_frozen_snap.idx2";
  ASSERT_TRUE(ShardedEngine::WriteSnapshot(frozen, from_frozen).ok());
  auto reloaded = ShardedEngine::Open(from_frozen);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::vector<int> frozen_ids;
  for (const FrozenEngineState& shard : frozen.shards) {
    for (const auto& [id, words] : shard.LiveRowWords()) {
      (void)words;
      frozen_ids.push_back(id);
    }
  }
  std::sort(frozen_ids.begin(), frozen_ids.end());
  EXPECT_EQ(reloaded->alive_ids(), frozen_ids);
  for (int k : {1, 6, 20}) {
    // The reloaded capture answers like the engine did at freeze time: it
    // must still contain id 0 (removed after) and not the second insert.
    const Ranking got = reloaded->QueryMapped(probe, {.k = k});
    for (const RankedResult& r : got) EXPECT_NE(r.id, 13);
  }
}

TEST(ShardedEngineTieTest, ToPersistedIndexRoundTripsThroughOneShard) {
  const PersistedIndex index = TieHeavyIndex(12);
  auto engine = ShardedEngine::FromIndex(index, Sharded(3));
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  ASSERT_TRUE(engine->Remove(4).ok());
  const std::vector<uint8_t> row = {1, 1, 1, 0, 0, 0};
  ASSERT_TRUE(engine->InsertMapped(row).ok());

  auto rebuilt = ShardedEngine::FromIndex(engine->ToPersistedIndex());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt->alive_ids(), engine->alive_ids());
  const std::vector<uint8_t> probe = {1, 1, 0, 0, 0, 1};
  for (int k : {1, 6, 20}) {
    EXPECT_EQ(rebuilt->QueryMapped(probe, {.k = k}),
              engine->QueryMapped(probe, {.k = k}));
  }
}


// The fused scan + integer select under sharding: shards {1, 4} x threads
// {1, 8}, on a tie-heavy corpus, through an empty delta, a live delta,
// tombstones on the k-th answer, compaction, every row tombstoned, and an
// empty base — for p = 0 and a width that is not a word multiple.
TEST(ShardedEngineTieTest, FusedScanMatchesBruteForceForShardsAndThreads) {
  for (const int p : {0, 70}) {
    Rng rng(static_cast<uint64_t>(900 + p));
    const auto base_rows = testing_util::TieHeavyRows(260, p, &rng);
    const auto delta_rows = testing_util::TieHeavyRows(30, p, &rng);
    const auto fingerprints = RandomBitRows(11, p, 0.4, &rng);
    for (const int shards : {1, 4}) {
      for (const int threads : {1, 8}) {
        const std::string at = "p=" + std::to_string(p) +
                               " shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads);
        auto built = ShardedEngine::FromIndex(
            testing_util::LabelFeatureIndex(p, base_rows),
            Sharded(shards, threads));
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        ShardedEngine& engine = *built;
        ScopedRole writer(&engine.writer_role());
        testing_util::LiveRows live;
        for (int i = 0; i < 260; ++i) {
          live[i] = base_rows[static_cast<size_t>(i)];
        }
        ExpectEngineMatchesBruteForce(engine, fingerprints, live,
                                      at + " base");
        for (const auto& row : delta_rows) {
          const Result<int> id = engine.InsertMapped(row);
          ASSERT_TRUE(id.ok());
          live[*id] = row;
        }
        ExpectEngineMatchesBruteForce(engine, fingerprints, live,
                                      at + " delta");
        const Ranking ranked =
            testing_util::BruteForceTopK(fingerprints[0], live, 10);
        for (const int pos : {4, 9}) {  // the 5th and 10th answers
          const int id = ranked[static_cast<size_t>(pos)].id;
          ASSERT_TRUE(engine.Remove(id).ok());
          live.erase(id);
        }
        ExpectEngineMatchesBruteForce(engine, fingerprints, live,
                                      at + " kth tombstones");
        engine.Compact();
        ExpectEngineMatchesBruteForce(engine, fingerprints, live,
                                      at + " compacted");
        for (const auto& [id, bits] : live) {
          ASSERT_TRUE(engine.Remove(id).ok());
        }
        live.clear();
        ExpectEngineMatchesBruteForce(engine, fingerprints, live,
                                      at + " all removed");

        auto empty = ShardedEngine::FromIndex(
            testing_util::LabelFeatureIndex(p, {}), Sharded(shards, threads));
        ASSERT_TRUE(empty.ok()) << empty.status().ToString();
        ScopedRole empty_writer(&empty->writer_role());
        for (const auto& row : delta_rows) {
          const Result<int> id = empty->InsertMapped(row);
          ASSERT_TRUE(id.ok());
          live[*id] = row;
        }
        ExpectEngineMatchesBruteForce(*empty, fingerprints, live,
                                      at + " delta only");
      }
    }
  }
}

}  // namespace
}  // namespace gdim
