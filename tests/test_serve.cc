// Serving hot-path tests: the packed bit-matrix scan must agree bit for bit
// with the byte-vector reference, and the one-shard engine must match brute
// force and be deterministic across thread counts.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/sync.h"
#include "core/index.h"
#include "core/index_io.h"
#include "core/objective.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

TEST(PackedBitMatrixTest, RoundTripsBitsAcrossWordBoundaries) {
  Rng rng(3);
  for (int p : {1, 7, 63, 64, 65, 128, 300}) {
    const auto rows = RandomBitRows(17, p, 0.4, &rng);
    const PackedBitMatrix m = PackedBitMatrix::FromRows(rows);
    ASSERT_EQ(m.num_rows(), 17);
    ASSERT_EQ(m.num_bits(), p);
    ASSERT_EQ(m.words_per_row(), (static_cast<size_t>(p) + 63) / 64);
    for (int i = 0; i < m.num_rows(); ++i) {
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(m.GetBit(i, r),
                  rows[static_cast<size_t>(i)][static_cast<size_t>(r)] != 0)
            << "p=" << p << " row=" << i << " bit=" << r;
      }
    }
  }
}

TEST(PackedBitMatrixTest, HammingAndNormalizedDistanceMatchReference) {
  Rng rng(11);
  const int p = 130;  // straddles a word boundary with a partial last word
  const auto rows = RandomBitRows(25, p, 0.3, &rng);
  const PackedBitMatrix m = PackedBitMatrix::FromRows(rows);
  const auto queries = RandomBitRows(6, p, 0.3, &rng);
  for (const auto& q : queries) {
    const std::vector<uint64_t> packed = PackedBitMatrix::PackBits(q);
    for (int i = 0; i < m.num_rows(); ++i) {
      int diff = 0;
      for (int r = 0; r < p; ++r) {
        diff += q[static_cast<size_t>(r)] !=
                rows[static_cast<size_t>(i)][static_cast<size_t>(r)];
      }
      EXPECT_EQ(m.HammingDistance(packed, i), diff);
      EXPECT_DOUBLE_EQ(m.NormalizedDistance(packed, i),
                       BinaryMappedDistance(q, rows[static_cast<size_t>(i)]));
    }
  }
}

TEST(PackedBitMatrixTest, PackedMappedRankingEqualsByteMappedRanking) {
  Rng rng(19);
  for (int p : {5, 64, 100, 256, 300}) {
    const auto rows = RandomBitRows(200, p, 0.25, &rng);
    const PackedBitMatrix m = PackedBitMatrix::FromRows(rows);
    const auto queries = RandomBitRows(5, p, 0.25, &rng);
    for (const auto& q : queries) {
      const Ranking byte_ranking = MappedRanking(q, rows);
      const Ranking packed_ranking = MappedRanking(q, m);
      // Bit-for-bit: same ids and identical floating-point scores.
      EXPECT_EQ(byte_ranking, packed_ranking) << "p=" << p;
    }
  }
}

TEST(PackedBitMatrixTest, PerRowDistancesMatchFullScan) {
  Rng rng(23);
  const auto rows = RandomBitRows(60, 90, 0.35, &rng);
  const PackedBitMatrix m = PackedBitMatrix::FromRows(rows);
  std::vector<uint64_t> q =
      PackedBitMatrix::PackBits(RandomBitRows(1, 90, 0.35, &rng)[0]);
  std::vector<double> all;
  m.ScoreAll(q, &all);
  ASSERT_EQ(all.size(), 60u);
  for (const int row : {0, 3, 17, 41, 59}) {
    EXPECT_EQ(m.NormalizedDistance(q, row), all[static_cast<size_t>(row)]);
  }
}

TEST(TopKByScoresTest, EqualsFullSortThenTruncate) {
  Rng rng(29);
  std::vector<double> scores(500);
  for (auto& s : scores) {
    s = static_cast<double>(rng.UniformU64(40)) / 40.0;  // many ties
  }
  for (int k : {0, 1, 10, 499, 500, 600}) {
    EXPECT_EQ(TopKByScores(scores, k), TopK(RankByScores(scores), k))
        << "k=" << k;
  }
}

// The integer selector behind every serving scan: offered (distance, row)
// pairs in ascending row order, over non-contiguous rows with heavy ties,
// must rank exactly like brute force over the sqrt(d / p) scores.
TEST(HammingTopKTest, EqualsRankByScoresOverOfferedRows) {
  Rng rng(37);
  const int p = 40;
  std::vector<int> row_ids(900);
  for (size_t r = 0; r < row_ids.size(); ++r) {
    row_ids[r] = static_cast<int>(3 * r + 1);  // ascending, with gaps
  }
  std::vector<uint32_t> dists;
  std::vector<int> offered;
  for (int row = 0; row < 900; row += 1 + static_cast<int>(rng.UniformU64(3))) {
    offered.push_back(row);
    dists.push_back(static_cast<uint32_t>(rng.UniformU64(p + 1) / 8));
  }
  const int live = static_cast<int>(offered.size());
  std::vector<double> scores;
  scores.reserve(dists.size());
  for (const uint32_t d : dists) {
    scores.push_back(std::sqrt(static_cast<double>(d) / p));
  }
  Ranking brute = RankByScores(scores);
  for (RankedResult& r : brute) {
    r.id = row_ids[static_cast<size_t>(offered[static_cast<size_t>(r.id)])];
  }
  for (int k : {0, 1, 10, live - 1, live, live + 5}) {
    HammingTopK selector(k, live);
    for (size_t j = 0; j < offered.size(); ++j) {
      selector.Offer(dists[j], offered[j]);
    }
    EXPECT_EQ(selector.Ranked(p, row_ids), TopK(brute, k)) << "k=" << k;
  }
}

TEST(LatencySummaryTest, PercentilesUseNearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const LatencySummary s = SummarizeLatencies(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_EQ(SummarizeLatencies({}).count, 0u);

  // Nearest rank = smallest sample with cumulative frequency >= q: for 13
  // samples, rank(0.95) = ceil(12.35) = 13, not a round-to-nearest 12.
  std::vector<double> thirteen;
  for (int i = 1; i <= 13; ++i) thirteen.push_back(static_cast<double>(i));
  const LatencySummary t = SummarizeLatencies(thirteen);
  EXPECT_DOUBLE_EQ(t.p50, 7.0);
  EXPECT_DOUBLE_EQ(t.p95, 13.0);
  EXPECT_DOUBLE_EQ(t.p99, 13.0);
}

ShardedOptions Threads(int threads) {
  ShardedOptions opts;
  opts.serve.threads = threads;
  return opts;
}

class SingleShardEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ChemGenOptions gen;
    gen.num_graphs = 40;
    gen.num_families = 6;
    gen.min_vertices = 8;
    gen.max_vertices = 14;
    db_ = new GraphDatabase(GenerateChemDatabase(gen));
    // >= 64 queries so QueryBatch actually crosses ParallelFor's serial
    // fallback threshold and the thread-determinism test spawns workers.
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

GraphDatabase* SingleShardEngineTest::db_ = nullptr;
GraphDatabase* SingleShardEngineTest::queries_ = nullptr;
PersistedIndex* SingleShardEngineTest::index_ = nullptr;

TEST_F(SingleShardEngineTest, MatchesOfflineMappedRanking) {
  auto engine = ShardedEngine::FromIndex(*index_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  FeatureMapper mapper(index_->features);
  for (const Graph& q : *queries_) {
    const Ranking expected =
        TopK(MappedRanking(mapper.Map(q), index_->db_bits), 5);
    ServeQueryStats stats;
    const Ranking got = engine->Query(q, {.k = 5}, &stats);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(stats.scanned, engine->num_graphs());
  }
}

TEST_F(SingleShardEngineTest, BatchIsDeterministicAcrossThreadCounts) {
  auto engine1 = ShardedEngine::FromIndex(*index_, Threads(1));
  auto engine8 = ShardedEngine::FromIndex(*index_, Threads(8));
  ASSERT_TRUE(engine1.ok());
  ASSERT_TRUE(engine8.ok());
  ServeBatchReport report1, report8;
  std::vector<ServeQueryStats> stats1, stats8;
  const auto results1 =
      engine1->QueryBatch(*queries_, {.k = 4}, &report1, &stats1);
  const auto results8 =
      engine8->QueryBatch(*queries_, {.k = 4}, &report8, &stats8);
  EXPECT_EQ(results1, results8);
  ASSERT_EQ(results1.size(), queries_->size());
  EXPECT_EQ(report1.latency_ms.count, queries_->size());
  EXPECT_EQ(stats1.size(), stats8.size());
  for (size_t i = 0; i < stats1.size(); ++i) {
    EXPECT_EQ(stats1[i].scanned, stats8[i].scanned);
    EXPECT_EQ(stats1[i].features_on, stats8[i].features_on);
  }
}

TEST_F(SingleShardEngineTest, RejectsRaggedIndexRows) {
  PersistedIndex bad = *index_;
  ASSERT_FALSE(bad.db_bits.empty());
  bad.db_bits[0].pop_back();
  auto engine = ShardedEngine::FromIndex(std::move(bad));
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(PackedBitMatrixTest, AppendRowMatchesFromRows) {
  Rng rng(41);
  for (int p : {1, 63, 64, 65, 130}) {
    const auto rows = RandomBitRows(9, p, 0.4, &rng);
    const PackedBitMatrix whole = PackedBitMatrix::FromRows(rows);
    PackedBitMatrix grown = PackedBitMatrix::WithWidth(p);
    EXPECT_EQ(grown.num_rows(), 0);
    EXPECT_EQ(grown.num_bits(), p);
    grown.Reserve(static_cast<int>(rows.size()));
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(grown.AppendRow(rows[i]), static_cast<int>(i));
    }
    ASSERT_EQ(grown.num_rows(), whole.num_rows());
    PackedBitMatrix copied = PackedBitMatrix::WithWidth(p);
    for (int i = whole.num_rows() - 1; i >= 0; --i) {
      copied.AppendRowFrom(whole, i);  // word-level copy, reversed order
    }
    const std::vector<uint64_t> q =
        grown.PackQuery(RandomBitRows(1, p, 0.4, &rng)[0]);
    for (int i = 0; i < whole.num_rows(); ++i) {
      EXPECT_EQ(grown.UnpackRow(i), rows[static_cast<size_t>(i)]);
      EXPECT_EQ(grown.HammingDistance(q, i), whole.HammingDistance(q, i));
      EXPECT_EQ(copied.UnpackRow(whole.num_rows() - 1 - i),
                rows[static_cast<size_t>(i)]);
    }
  }
}

TEST(PackedBitMatrixTest, PackQueryValidatesWidthEvenWhenEmpty) {
  const PackedBitMatrix empty = PackedBitMatrix::FromRows({}, 10);
  EXPECT_EQ(empty.num_rows(), 0);
  EXPECT_EQ(empty.num_bits(), 10);
  EXPECT_EQ(empty.PackQuery(std::vector<uint8_t>(10, 1)).size(), 1u);
  EXPECT_DEATH(empty.PackQuery(std::vector<uint8_t>(7, 1)),
               "query width");
}

// ---------------------------------------------------------------------------
// Mutable engine: segmented insert/remove/compact.

TEST_F(SingleShardEngineTest, MutationSequenceMatchesBruteForceAcrossThreads) {
  FeatureMapper mapper(index_->features);
  for (int threads : {1, 8}) {
    auto engine = ShardedEngine::FromIndex(*index_, Threads(threads));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    // This test body is the engine's single writer.
    ScopedRole writer(&engine->writer_role());
    // The live database, applied in lockstep: new ids always exceed old
    // ones, so the map's id order is the engine's.
    testing_util::LiveRows live = testing_util::LiveRowsOf(*index_);
    int next_id = static_cast<int>(live.size());

    // Interleaved mutation script: removes, inserts, a mid-sequence
    // compaction, then more churn on both old and new ids.
    for (int id : {1, 5, 19, 38}) {
      ASSERT_TRUE(engine->Remove(id).ok());
      live.erase(id);
    }
    for (int i = 0; i < 10; ++i) {
      const Graph& g = (*queries_)[static_cast<size_t>(i)];
      auto inserted = engine->Insert(g);
      ASSERT_TRUE(inserted.ok());
      EXPECT_EQ(*inserted, next_id);
      live[next_id++] = mapper.Map(g);
    }
    engine->Compact();
    EXPECT_EQ(engine->physical_rows(), engine->num_graphs());
    EXPECT_EQ(engine->tombstoned_rows(), 0);
    for (int id : {0, 2, 40, 44}) {  // ids 40/44 came from the delta
      ASSERT_TRUE(engine->Remove(id).ok());
      live.erase(id);
    }
    for (int i = 10; i < 16; ++i) {
      const Graph& g = (*queries_)[static_cast<size_t>(i)];
      ASSERT_TRUE(engine->Insert(g).ok());
      live[next_id++] = mapper.Map(g);
    }

    // Mutation-surface sanity: ids are stable and misuse is graceful.
    std::vector<int> live_ids;
    live_ids.reserve(live.size());
    for (const auto& [id, bits] : live) live_ids.push_back(id);
    EXPECT_EQ(engine->alive_ids(), live_ids);
    EXPECT_EQ(engine->num_graphs(), static_cast<int>(live.size()));
    EXPECT_EQ(engine->Remove(5).code(), StatusCode::kNotFound);  // twice
    EXPECT_EQ(engine->Remove(9999).code(), StatusCode::kNotFound);
    EXPECT_EQ(engine->InsertMapped(std::vector<uint8_t>(3, 0))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    // The invariant: bit-identical QueryBatch vs brute force over the live
    // database, before and after a final compaction.
    for (int k : {0, 3, 1000}) {
      EXPECT_EQ(engine->QueryBatch(*queries_, {.k = k}),
                testing_util::BruteForceBatch(mapper, *queries_, live, k))
          << "threads=" << threads << " k=" << k;
    }
    engine->Compact();
    EXPECT_EQ(engine->QueryBatch(*queries_, {.k = 4}),
              testing_util::BruteForceBatch(mapper, *queries_, live, 4));
    EXPECT_EQ(engine->alive_ids(), live_ids);
  }
}

TEST_F(SingleShardEngineTest, NegativeKAnswersEmptyInsteadOfAborting) {
  auto engine = ShardedEngine::FromIndex(*index_);
  ASSERT_TRUE(engine.ok());
  ServeQueryStats stats;
  EXPECT_TRUE(engine->Query((*queries_)[0], {.k = -3}, &stats).empty());
  EXPECT_EQ(stats.scanned, engine->num_graphs());
  const auto batch = engine->QueryBatch(*queries_, {.k = -1});
  ASSERT_EQ(batch.size(), queries_->size());
  for (const Ranking& r : batch) EXPECT_TRUE(r.empty());
}

/// A fully controllable index: feature r is the single vertex labeled r, so
/// a graph's fingerprint is exactly its vertex-label set.
PersistedIndex LabelSetIndex() {
  const int kLabels = 5;  // feature 4 has empty support
  PersistedIndex index;
  for (LabelId r = 0; r < kLabels; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  const std::vector<std::vector<LabelId>> label_sets = {
      {0, 1}, {0, 1, 2}, {0, 1, 2, 3}, {2, 3}, {0, 2}, {1, 3}, {0, 1, 3},
  };
  for (const auto& labels : label_sets) {
    std::vector<uint8_t> bits(kLabels, 0);
    for (LabelId l : labels) bits[static_cast<size_t>(l)] = 1;
    index.db_bits.push_back(bits);
  }
  return index;
}

Graph LabelGraph(std::vector<LabelId> labels) {
  Graph g;
  for (LabelId l : labels) g.AddVertex(l);
  return g;
}

TEST(SingleShardEmptyTest, EmptyDatabaseValidatesAndServes) {
  // n = 0, p > 0: the engine must keep validating query width (the old
  // packed matrix lost its width with no rows) and serve empty rankings.
  PersistedIndex index = LabelSetIndex();
  index.db_bits.clear();
  auto engine = ShardedEngine::FromIndex(index);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->num_graphs(), 0);
  EXPECT_EQ(engine->num_features(), 5);
  ServeQueryStats stats;
  EXPECT_TRUE(engine->Query(LabelGraph({0, 1}), {.k = 4}, &stats).empty());
  EXPECT_EQ(stats.scanned, 0);
  const auto batch =
      engine->QueryBatch({LabelGraph({0}), LabelGraph({2})}, {.k = 2});
  ASSERT_EQ(batch.size(), 2u);
  for (const Ranking& r : batch) EXPECT_TRUE(r.empty());

  // The empty engine is a valid insert target.
  ScopedRole writer(&engine->writer_role());
  auto id = engine->Insert(LabelGraph({0, 1}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0);
  const Ranking got = engine->Query(LabelGraph({0, 1}), {.k = 4});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0);
  EXPECT_DOUBLE_EQ(got[0].score, 0.0);
}

TEST(SingleShardEmptyTest, ZeroFeatureDimension) {
  // p = 0: every fingerprint is empty and every distance is 0; ranking
  // degenerates to ascending ids. n = 0 and n > 0 both serve.
  PersistedIndex empty;  // p = 0, n = 0
  auto engine = ShardedEngine::FromIndex(empty);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->Query(LabelGraph({0}), {.k = 3}).empty());

  PersistedIndex degenerate;  // p = 0, n = 2
  degenerate.db_bits = {{}, {}};
  auto engine2 = ShardedEngine::FromIndex(degenerate);
  ASSERT_TRUE(engine2.ok());
  const Ranking got = engine2->Query(LabelGraph({0}), {.k = 5});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 0);
  EXPECT_EQ(got[1].id, 1);
  EXPECT_DOUBLE_EQ(got[0].score, 0.0);
}

TEST(SingleShardMutationTest, EpochBumpsOnMutationsOnly) {
  auto engine = ShardedEngine::FromIndex(LabelSetIndex());
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  EXPECT_EQ(engine->epoch(), 0u);

  // Queries never bump.
  engine->Query(LabelGraph({0, 1}), {.k = 3});
  EXPECT_EQ(engine->epoch(), 0u);

  auto id = engine->Insert(LabelGraph({0, 3}));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine->epoch(), 1u);
  ASSERT_TRUE(engine->Remove(*id).ok());
  EXPECT_EQ(engine->epoch(), 2u);

  // Failed mutations leave the engine unchanged — and the epoch with it.
  EXPECT_FALSE(engine->Remove(*id).ok());
  EXPECT_FALSE(engine->InsertMapped({1, 0}).ok());  // wrong width
  EXPECT_EQ(engine->epoch(), 2u);

  // A working Compact bumps (physical rows moved); a no-op one does not.
  engine->Compact();
  EXPECT_EQ(engine->epoch(), 3u);
  engine->Compact();
  EXPECT_EQ(engine->epoch(), 3u);
}

TEST(SingleShardMutationTest, FreezeCapturesStateImmuneToLaterMutations) {
  auto engine = ShardedEngine::FromIndex(LabelSetIndex());
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  ASSERT_TRUE(engine->Insert(LabelGraph({1, 2})).ok());  // delta row
  ASSERT_TRUE(engine->Remove(0).ok());
  const std::vector<int> ids_at_freeze = engine->alive_ids();
  const FrozenShardedState frozen = engine->Freeze();

  // Mutate hard after the freeze: append, remove, and compact (which
  // replaces the sealed base the capture shares).
  ASSERT_TRUE(engine->Insert(LabelGraph({0})).ok());
  ASSERT_TRUE(engine->Remove(2).ok());
  engine->Compact();

  std::vector<int> frozen_ids;
  for (const auto& [id, words] : frozen.shards[0].LiveRowWords()) {
    frozen_ids.push_back(id);
    EXPECT_NE(words, nullptr);
  }
  EXPECT_EQ(frozen_ids, ids_at_freeze);
}

TEST(SingleShardMutationTest, TombstonesNeverSurfaceWhenKExceedsLiveCount) {
  auto engine = ShardedEngine::FromIndex(LabelSetIndex());
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  ASSERT_TRUE(engine->Remove(0).ok());
  ASSERT_TRUE(engine->Remove(4).ok());
  // k far beyond the live count: removed rows must not pad the ranking.
  const Ranking got = engine->Query(LabelGraph({0, 1}), {.k = 100});
  EXPECT_EQ(got.size(), 5u);
  for (const RankedResult& r : got) {
    EXPECT_NE(r.id, 0);
    EXPECT_NE(r.id, 4);
  }
}

}  // namespace
}  // namespace gdim
