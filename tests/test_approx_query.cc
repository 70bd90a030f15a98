// Serving-level guarantees of MODE=approx (the IVF candidate-pruning
// path):
//
//  - NPROBE=all is bit-identical to a forced full scan — probing every
//    bucket prunes nothing, and the candidate path scores through the same
//    kernels and the same (score, id) total order.
//  - Incremental maintenance preserves that identity: after any
//    insert/remove/compact churn, a churned engine, a fresh engine built
//    from its live state, and a full scan all agree, across shard counts
//    {1, 4} x thread counts {1, 8}.
//  - At the default probe width on a clustered corpus, approx answers keep
//    recall@10 >= 0.9 against exact while scanning under a quarter of the
//    live rows — the CI gate's in-process twin (bench/approx_workload.cc
//    proves the same at 50k rows).
//  - A generation swap rebuilds every shard's IVF index from the new
//    generation's fingerprints: zero stale-bucket hits, proven by
//    bit-comparison against a from-scratch engine at every probe width.
//  - A snapshot persists no IVF layout: reloaded at the same or another
//    shard count, an engine answers MODE=approx exactly like a fresh build
//    over the same live rows at that shard count, and NPROBE=all stays
//    bit-identical to MODE=full.
//  - A MODE=approx batch answers every query exactly as the one-query
//    entry point does, for every batch size around the scan tile width,
//    shard count, thread count and probe width, over a churned engine.
//  - The BatchExecutor publishes approx scan work (approx_queries,
//    approx_candidates_scanned, approx_rows_pruned) and keys its result
//    cache on nprobe, so different probe depths never share an entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/sync.h"
#include "core/index_io.h"
#include "core/kernels/scan_kernel.h"
#include "graph/graph.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"
#include "server/wire.h"
#include "test_util.h"

namespace gdim {
namespace {

constexpr int kFeatures = 24;
constexpr int kClusters = 8;
constexpr int kRows = 400;
constexpr int kTopK = 10;

/// Single-vertex features (labels 0..p-1): a graph's fingerprint is exactly
/// its vertex-label set, so tests can reason in raw bit vectors.
GraphDatabase LabelFeatures() {
  GraphDatabase features;
  for (LabelId r = 0; r < kFeatures; ++r) {
    Graph f;
    f.AddVertex(r);
    features.push_back(f);
  }
  return features;
}

/// The graph whose fingerprint equals `bits` under LabelFeatures().
Graph GraphForBits(const std::vector<uint8_t>& bits) {
  Graph g;
  for (size_t r = 0; r < bits.size(); ++r) {
    if (bits[r] != 0) g.AddVertex(static_cast<LabelId>(r));
  }
  return g;
}

std::vector<uint8_t> RandomBits(Rng* rng) {
  std::vector<uint8_t> bits(kFeatures);
  for (auto& bit : bits) bit = rng->UniformU64(2) != 0 ? 1 : 0;
  return bits;
}

/// `base` with each bit flipped with probability 1/denominator — the
/// cluster structure IVF exploits (uniform random bits have none).
std::vector<uint8_t> Perturb(const std::vector<uint8_t>& base,
                             uint64_t denominator, Rng* rng) {
  std::vector<uint8_t> bits = base;
  for (auto& bit : bits) {
    if (rng->UniformU64(denominator) == 0) bit = bit != 0 ? 0 : 1;
  }
  return bits;
}

/// A clustered corpus: kClusters prototypes, kRows rows scattered around
/// them with light per-bit noise.
struct Corpus {
  std::vector<std::vector<uint8_t>> prototypes;
  std::vector<std::vector<uint8_t>> rows;
};

Corpus ClusteredCorpus(uint64_t seed) {
  Rng rng(seed);
  Corpus corpus;
  for (int c = 0; c < kClusters; ++c) {
    corpus.prototypes.push_back(RandomBits(&rng));
  }
  for (int i = 0; i < kRows; ++i) {
    const auto& proto =
        corpus.prototypes[rng.UniformU64(kClusters)];
    corpus.rows.push_back(Perturb(proto, /*denominator=*/12, &rng));
  }
  return corpus;
}

PersistedIndex IndexFor(const std::vector<std::vector<uint8_t>>& rows) {
  PersistedIndex index;
  index.features = LabelFeatures();
  index.db_bits = rows;
  return index;
}

ShardedOptions Sharded(int num_shards, int threads = 0) {
  ShardedOptions opts;
  opts.num_shards = num_shards;
  opts.threads = threads;
  return opts;
}

TEST(ApproxQueryTest, NprobeAllIsBitIdenticalToFullScan) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/11);
  const PersistedIndex index = IndexFor(corpus.rows);
  Rng rng(12);
  for (int shards : {1, 4}) {
    auto engine = ShardedEngine::FromIndex(index, Sharded(shards));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (int q = 0; q < 20; ++q) {
      const std::vector<uint8_t> query =
          Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                  /*denominator=*/10, &rng);
      ServeQueryStats approx_stats;
      const Ranking approx = engine->QueryMapped(
          query, {.k = kTopK, .scan_mode = ScanMode::kApprox,
                  .nprobe = kNprobeAll},
          &approx_stats);
      const Ranking full = engine->QueryMapped(
          query, {.k = kTopK, .scan_mode = ScanMode::kFull});
      EXPECT_EQ(approx, full) << "shards=" << shards << " q=" << q;
      EXPECT_TRUE(approx_stats.approx);
      EXPECT_EQ(approx_stats.rows_pruned, 0);
    }
  }
}

TEST(ApproxQueryTest, DefaultNprobeKeepsRecallWhilePruning) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/13);
  const PersistedIndex index = IndexFor(corpus.rows);
  auto engine = ShardedEngine::FromIndex(index, Sharded(1));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Rng rng(14);
  double recall_sum = 0.0;
  long long scanned = 0;
  const int num_queries = 40;
  for (int q = 0; q < num_queries; ++q) {
    const std::vector<uint8_t> query =
        Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                /*denominator=*/10, &rng);
    ServeQueryStats stats;
    const Ranking approx = engine->QueryMapped(
        query, {.k = kTopK, .scan_mode = ScanMode::kApprox}, &stats);
    const Ranking exact = engine->QueryMapped(
        query, {.k = kTopK, .scan_mode = ScanMode::kFull});
    std::set<int> exact_ids;
    for (const RankedResult& r : exact) exact_ids.insert(r.id);
    int hits = 0;
    for (const RankedResult& r : approx) {
      hits += exact_ids.count(r.id) != 0 ? 1 : 0;
    }
    recall_sum += static_cast<double>(hits) /
                  static_cast<double>(exact.size());
    scanned += stats.scanned;
    EXPECT_TRUE(stats.approx);
    EXPECT_EQ(stats.rows_pruned + stats.scanned, kRows);
  }
  EXPECT_GE(recall_sum / num_queries, 0.9);
  // The default probe width (an eighth of the buckets) must scan well
  // under a quarter of the rows — the ISSUE's pruning acceptance bound.
  EXPECT_LT(scanned, static_cast<long long>(num_queries) * kRows / 4);
}

TEST(ApproxQueryTest, MaintenanceChurnPreservesNprobeAllIdentity) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/15);
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      auto churned = ShardedEngine::FromIndex(IndexFor(corpus.rows),
                                              Sharded(shards, threads));
      ASSERT_TRUE(churned.ok()) << churned.status().ToString();
      ScopedRole writer(&churned->writer_role());
      Rng rng(16);
      // Interleaved churn: inserts into every shard, removals across the
      // id space, a mid-stream compaction, then more of both.
      for (int step = 0; step < 120; ++step) {
        const uint64_t coin = rng.UniformU64(3);
        if (coin == 0) {
          auto inserted =
              churned->InsertMapped(Perturb(
                  corpus.prototypes[rng.UniformU64(kClusters)],
                  /*denominator=*/12, &rng));
          ASSERT_TRUE(inserted.ok());
        } else if (coin == 1) {
          const std::vector<int> alive = churned->alive_ids();
          if (!alive.empty()) {
            ASSERT_TRUE(
                churned->Remove(alive[rng.UniformU64(alive.size())]).ok());
          }
        } else if (step == 60) {
          churned->Compact();
        }
      }
      churned->Compact();
      // A fresh engine over the churned live state: its IVF index is a
      // from-scratch clustering, the churned one is Build + AddRow +
      // Renumber — at NPROBE=all both degrade to the full live set, so
      // every query must agree bit for bit (and with the full scan).
      auto fresh = ShardedEngine::FromIndex(churned->ToPersistedIndex(),
                                            Sharded(shards, threads));
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      for (int q = 0; q < 15; ++q) {
        const std::vector<uint8_t> query =
            Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                    /*denominator=*/10, &rng);
        const QueryOptions approx_all{.k = kTopK,
                                      .scan_mode = ScanMode::kApprox,
                                      .nprobe = kNprobeAll};
        const Ranking churned_approx =
            churned->QueryMapped(query, approx_all);
        EXPECT_EQ(churned_approx, fresh->QueryMapped(query, approx_all));
        EXPECT_EQ(churned_approx,
                  churned->QueryMapped(
                      query, {.k = kTopK, .scan_mode = ScanMode::kFull}));
      }
    }
  }
}

TEST(ApproxQueryTest, GenerationSwapRebuildsIvfWithZeroStaleBuckets) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/17);
  auto engine =
      ShardedEngine::FromIndex(IndexFor(corpus.rows), Sharded(4, 2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ScopedRole writer(&engine->writer_role());
  // Churn the first generation so its IVF postings diverge from what a
  // fresh build over the final live set would produce.
  Rng rng(18);
  for (int step = 0; step < 60; ++step) {
    if (rng.UniformU64(2) == 0) {
      ASSERT_TRUE(engine
                      ->InsertMapped(Perturb(
                          corpus.prototypes[rng.UniformU64(kClusters)],
                          /*denominator=*/12, &rng))
                      .ok());
    } else {
      const std::vector<int> alive = engine->alive_ids();
      ASSERT_TRUE(engine->Remove(alive[rng.UniformU64(alive.size())]).ok());
    }
  }
  // The swap: a new generation built over the live set, exactly what the
  // reindex pipeline installs. Its shards (and their IVF indexes) are
  // fresh builds.
  const PersistedIndex live = engine->ToPersistedIndex();
  auto next = ShardedEngine::FromIndex(live, Sharded(4, 2));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  const uint64_t generation_before = engine->generation();
  engine->SwapGeneration(std::move(next).value());
  EXPECT_EQ(engine->generation(), generation_before + 1);

  // Zero stale-bucket hits: at EVERY probe width the swapped engine
  // answers bit-identically to a from-scratch engine over the same rows —
  // any posting left over from the pre-swap clustering would change some
  // narrow-probe candidate pool and show up as a ranking diff.
  auto fresh = ShardedEngine::FromIndex(live, Sharded(4, 2));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(engine->ivf_buckets(), fresh->ivf_buckets());
  for (int q = 0; q < 10; ++q) {
    const std::vector<uint8_t> query =
        Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                /*denominator=*/10, &rng);
    for (int nprobe : {1, 2, 3, kNprobeAll}) {
      EXPECT_EQ(engine->QueryMapped(query,
                                    {.k = kTopK,
                                     .scan_mode = ScanMode::kApprox,
                                     .nprobe = nprobe}),
                fresh->QueryMapped(query, {.k = kTopK,
                                           .scan_mode = ScanMode::kApprox,
                                           .nprobe = nprobe}))
          << "q=" << q << " nprobe=" << nprobe;
    }
  }
}

TEST(ApproxQueryTest, SnapshotReloadClustersLikeAFreshBuild) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/23);
  const QueryOptions full{.k = kTopK, .scan_mode = ScanMode::kFull};
  const QueryOptions approx_default{.k = kTopK,
                                    .scan_mode = ScanMode::kApprox};
  const QueryOptions approx_all{
      .k = kTopK, .scan_mode = ScanMode::kApprox, .nprobe = kNprobeAll};
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto engine =
        ShardedEngine::FromIndex(IndexFor(corpus.rows), Sharded(shards));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ScopedRole writer(&engine->writer_role());
    // Churn until the live layout (Build + AddRow, tombstones in the
    // postings) and a fresh clustering of the live rows differ: the live
    // count grows past the next ceil(sqrt(n)) step, so even the bucket
    // counts part.
    Rng rng(24);
    for (int i = 0; i < 90; ++i) {
      ASSERT_TRUE(engine
                      ->InsertMapped(Perturb(
                          corpus.prototypes[rng.UniformU64(kClusters)],
                          /*denominator=*/12, &rng))
                      .ok());
      if (i % 4 == 0) {
        const std::vector<int> alive = engine->alive_ids();
        ASSERT_TRUE(engine->Remove(alive[rng.UniformU64(alive.size())]).ok());
      }
    }
    const std::string path = ::testing::TempDir() + "/gdim_approx_reload_" +
                             std::to_string(shards) + ".idx";
    ASSERT_TRUE(engine->Snapshot(path).ok());
    const PersistedIndex live = engine->ToPersistedIndex();

    for (int reload_shards : {shards, shards + 2}) {
      SCOPED_TRACE("reload_shards=" + std::to_string(reload_shards));
      auto reloaded = ShardedEngine::Open(path, Sharded(reload_shards));
      auto fresh = ShardedEngine::FromIndex(live, Sharded(reload_shards));
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(reloaded->ivf_buckets(), fresh->ivf_buckets());
      for (int q = 0; q < 24; ++q) {
        const std::vector<uint8_t> query =
            Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                    /*denominator=*/10, &rng);
        EXPECT_EQ(reloaded->QueryMapped(query, approx_default),
                  fresh->QueryMapped(query, approx_default))
            << "q=" << q;
        const Ranking reloaded_full = reloaded->QueryMapped(query, full);
        EXPECT_EQ(reloaded_full, engine->QueryMapped(query, full));
        EXPECT_EQ(reloaded->QueryMapped(query, approx_all), reloaded_full);
      }
    }
  }
}

TEST(ApproxQueryTest, BatchEqualsPerQueryAcrossTileBoundaries) {
  // A MODE=approx batch is cut into scan tiles like a MODE=full one, so a
  // query's probe pool, its answer or its counters landing in another
  // query's slot would show up at some batch size around the tile width.
  // The engine is churned first: tombstones sit in the probe pools and
  // rows in the delta segments.
  const Corpus corpus = ClusteredCorpus(/*seed=*/31);
  const int tile = ActiveScanKernel().tile_width();
  Rng rng(32);
  std::vector<std::vector<uint8_t>> queries;
  for (int q = 0; q < 2 * tile + 3; ++q) {
    queries.push_back(
        Perturb(corpus.prototypes[static_cast<size_t>(q % kClusters)],
                /*denominator=*/10, &rng));
  }
  std::vector<std::vector<uint8_t>> inserts;
  for (int i = 0; i < 25; ++i) {
    inserts.push_back(
        Perturb(corpus.prototypes[static_cast<size_t>(i % kClusters)],
                /*denominator=*/12, &rng));
  }
  for (int shards : {1, 2, 5}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      auto engine = ShardedEngine::FromIndex(IndexFor(corpus.rows),
                                             Sharded(shards, threads));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      testing_util::LiveRows live;
      for (int i = 0; i < kRows; ++i) {
        live[i] = corpus.rows[static_cast<size_t>(i)];
      }
      {
        ScopedRole writer(&engine->writer_role());
        for (int id = 0; id < kRows; id += 7) {
          ASSERT_TRUE(engine->Remove(id).ok());
          live.erase(id);
        }
        for (const std::vector<uint8_t>& bits : inserts) {
          const Result<int> id = engine->InsertMapped(bits);
          ASSERT_TRUE(id.ok());
          live[*id] = bits;
        }
      }
      for (int nprobe : {1, 2, kNprobeAll}) {
        const QueryOptions options{.k = kTopK,
                                   .scan_mode = ScanMode::kApprox,
                                   .nprobe = nprobe};
        for (int n : {1, tile - 1, tile, tile + 1, 2 * tile + 3}) {
          if (n < 1) continue;
          const std::vector<std::vector<uint8_t>> batch(
              queries.begin(), queries.begin() + n);
          std::vector<ServeQueryStats> stats;
          const std::vector<Ranking> answers =
              engine->QueryMappedBatch(batch, options, nullptr, &stats);
          ASSERT_EQ(answers.size(), batch.size());
          ASSERT_EQ(stats.size(), batch.size());
          for (int i = 0; i < n; ++i) {
            const size_t at = static_cast<size_t>(i);
            EXPECT_EQ(answers[at], engine->QueryMapped(batch[at], options))
                << "nprobe=" << nprobe << " n=" << n << " q=" << i;
            if (nprobe == kNprobeAll) {
              EXPECT_EQ(answers[at],
                        testing_util::BruteForceTopK(batch[at], live, kTopK))
                  << "n=" << n << " q=" << i;
            }
            EXPECT_TRUE(stats[at].approx);
            EXPECT_EQ(stats[at].scanned + stats[at].rows_pruned,
                      static_cast<int>(live.size()))
                << "nprobe=" << nprobe << " n=" << n << " q=" << i;
          }
        }
      }
    }
  }
}

TEST(ApproxQueryTest, ExecutorPublishesApproxCountersAndKeysCacheOnNprobe) {
  const Corpus corpus = ClusteredCorpus(/*seed=*/19);
  auto engine =
      ShardedEngine::FromIndex(IndexFor(corpus.rows), Sharded(2, 2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  BatchExecutorOptions opts;
  opts.cache_bytes = 1 << 20;
  BatchExecutor executor(&engine.value(), opts);
  Rng rng(20);
  const Graph query = GraphForBits(
      Perturb(corpus.prototypes[0], /*denominator=*/10, &rng));

  const QueryOptions narrow{.k = kTopK, .scan_mode = ScanMode::kApprox,
                            .nprobe = 1};
  const QueryOptions all{.k = kTopK, .scan_mode = ScanMode::kApprox,
                         .nprobe = kNprobeAll};
  auto narrow_answer = executor.Query(query, narrow);
  ASSERT_TRUE(narrow_answer.ok());
  auto all_answer = executor.Query(query, all);
  ASSERT_TRUE(all_answer.ok());
  const std::string after_cold = executor.StatsText();
  EXPECT_EQ(StatsField(after_cold, "approx_queries"), 2) << after_cold;
  EXPECT_EQ(StatsField(after_cold, "approx_candidates_scanned") +
                StatsField(after_cold, "approx_rows_pruned"),
            2 * kRows)
      << after_cold;
  EXPECT_GT(StatsField(after_cold, "approx_rows_pruned"), 0);  // nprobe=1

  // Same fingerprint, different nprobe: the cache must key them apart. The
  // repeats must be hits that replay each depth's own answer, and hits do
  // not re-count scan work.
  auto narrow_hit = executor.Query(query, narrow);
  auto all_hit = executor.Query(query, all);
  ASSERT_TRUE(narrow_hit.ok() && all_hit.ok());
  EXPECT_EQ(*narrow_hit, *narrow_answer);
  EXPECT_EQ(*all_hit, *all_answer);
  const std::string after_hits = executor.StatsText();
  EXPECT_EQ(StatsField(after_hits, "cache_hits"), 2) << after_hits;
  EXPECT_EQ(StatsField(after_hits, "approx_queries"), 2) << after_hits;
  EXPECT_EQ(StatsField(after_hits, "approx_candidates_scanned"),
            StatsField(after_cold, "approx_candidates_scanned"));

  // The full-scan answer equals NPROBE=all through the executor too.
  auto full = executor.Query(query, {.k = kTopK,
                                     .scan_mode = ScanMode::kFull});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, *all_answer);
}

TEST(ApproxQueryTest, ChurnedCountersCountOnlyLiveRows) {
  // IVF maintenance is lazy: removals leave tombstoned postings in their
  // buckets until the next Compact. Those ghosts must be invisible in the
  // published STATS — approx_candidates_scanned counts live rows actually
  // scored and approx_rows_pruned is live minus scanned, so per approx
  // query the two sum to the LIVE count, never the (inflated) physical
  // row count.
  const Corpus corpus = ClusteredCorpus(/*seed=*/23);
  auto engine =
      ShardedEngine::FromIndex(IndexFor(corpus.rows), Sharded(2, 2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  BatchExecutorOptions opts;
  opts.cache_bytes = 1 << 20;
  BatchExecutor executor(&engine.value(), opts);

  // Heavy churn, no compact: a third of the corpus tombstoned, a batch of
  // fresh rows appended to the deltas.
  Rng rng(24);
  for (int id = 0; id < kRows; id += 3) {
    ASSERT_TRUE(executor.Remove(id).ok());
  }
  for (int i = 0; i < 30; ++i) {
    const auto& proto = corpus.prototypes[static_cast<size_t>(i % kClusters)];
    ASSERT_TRUE(
        executor.Insert(GraphForBits(Perturb(proto, /*denominator=*/10,
                                             &rng)))
            .ok());
  }
  const std::string gauges = executor.StatsText();
  const long long live = StatsField(gauges, "graphs");
  ASSERT_GT(StatsField(gauges, "tombstones"), 0);  // ghosts to ignore
  const long long physical = StatsField(gauges, "physical_rows");
  ASSERT_GT(physical, live);

  // A narrow probe: whatever it scans plus whatever it prunes must be
  // exactly the live set.
  const Graph q1 = GraphForBits(
      Perturb(corpus.prototypes[1], /*denominator=*/10, &rng));
  ASSERT_TRUE(executor
                  .Query(q1, {.k = kTopK, .scan_mode = ScanMode::kApprox,
                              .nprobe = 1})
                  .ok());
  const std::string narrow = executor.StatsText();
  const long long narrow_scanned =
      StatsField(narrow, "approx_candidates_scanned");
  const long long narrow_pruned = StatsField(narrow, "approx_rows_pruned");
  EXPECT_EQ(narrow_scanned + narrow_pruned, live);
  EXPECT_GT(narrow_pruned, 0);

  // NPROBE=all prunes nothing: it scans the live rows — all of them and
  // only them. A tombstone-inflated counter would report `physical` here.
  const Graph q2 = GraphForBits(
      Perturb(corpus.prototypes[2], /*denominator=*/10, &rng));
  ASSERT_TRUE(executor
                  .Query(q2, {.k = kTopK, .scan_mode = ScanMode::kApprox,
                              .nprobe = kNprobeAll})
                  .ok());
  const std::string all = executor.StatsText();
  EXPECT_EQ(StatsField(all, "approx_candidates_scanned") - narrow_scanned,
            live);
  EXPECT_EQ(StatsField(all, "approx_rows_pruned"), narrow_pruned);
}

TEST(ApproxQueryTest, SaturatedNprobeSharesTheNprobeAllCacheEntry) {
  // NPROBE=n with n >= every shard's bucket count probes everything, so it
  // answers bit-identically to NPROBE=all — and must therefore share its
  // cache entry. The executor normalizes saturated depths to kNprobeAll
  // before keying; without that, the same answer would be computed and
  // stored once per distinct spelling of "all of it".
  const Corpus corpus = ClusteredCorpus(/*seed=*/29);
  auto engine =
      ShardedEngine::FromIndex(IndexFor(corpus.rows), Sharded(2, 2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const int saturation = engine->max_shard_ivf_buckets();
  ASSERT_GT(saturation, 0);
  BatchExecutorOptions opts;
  opts.cache_bytes = 1 << 20;
  BatchExecutor executor(&engine.value(), opts);
  Rng rng(30);
  const Graph query = GraphForBits(
      Perturb(corpus.prototypes[3], /*denominator=*/10, &rng));

  // Cold fill under one spelling, then every saturated spelling hits it.
  auto all_answer = executor.Query(
      query, {.k = kTopK, .scan_mode = ScanMode::kApprox,
              .nprobe = saturation + 7});
  ASSERT_TRUE(all_answer.ok());
  for (int nprobe : {saturation, saturation + 1, kNprobeAll}) {
    auto repeat = executor.Query(
        query,
        {.k = kTopK, .scan_mode = ScanMode::kApprox, .nprobe = nprobe});
    ASSERT_TRUE(repeat.ok());
    EXPECT_EQ(*repeat, *all_answer) << "nprobe=" << nprobe;
  }
  const std::string stats = executor.StatsText();
  EXPECT_EQ(StatsField(stats, "cache_hits"), 3) << stats;
  EXPECT_EQ(StatsField(stats, "approx_queries"), 1);  // 1 scan, 3 replays

  // One below saturation is a genuinely different probe set: its own miss,
  // its own entry.
  auto narrower = executor.Query(
      query, {.k = kTopK, .scan_mode = ScanMode::kApprox,
              .nprobe = saturation - 1});
  ASSERT_TRUE(narrower.ok());
  EXPECT_EQ(StatsField(executor.StatsText(), "cache_hits"), 3);
  EXPECT_EQ(StatsField(executor.StatsText(), "approx_queries"), 2);
}

}  // namespace
}  // namespace gdim
