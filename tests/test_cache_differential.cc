// Differential churn fuzzer for the cached serving path: seed-driven
// random interleavings of INSERT / REMOVE / COMPACT / SNAPSHOT / QUERY are
// executed against the full stack (ShardedEngine behind a BatchExecutor
// with the epoch-versioned result cache enabled) and, in lockstep, against
// a plain model of the database. Every query is answered twice — cold path
// and guaranteed cache hit — and both must be bit-identical to a
// brute-force ranking of the model at that step. Any cache
// staleness bug (missed epoch bump, key collision, invalidation hole) shows
// up as a ranking diff; the failing (shards, threads, seed) triple is in
// the scoped trace for replay.
//
// Coverage: shard counts {1, 4} x thread counts {1, 8} x 30 seeds = 120
// random interleavings (the acceptance floor is 100). Half the seeds issue
// MODE=approx NPROBE=all queries instead of MODE=full ones, so both scan
// modes (and both cache-key tags) churn through the cache; probing every
// IVF bucket prunes nothing, so those answers must match the same exact
// brute-force reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/index_io.h"
#include "graph/graph.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"
#include "server/wire.h"
#include "test_util.h"

namespace gdim {
namespace {

constexpr int kFeatures = 6;

/// Single-vertex features (labels 0..p-1): a graph's fingerprint is exactly
/// its vertex-label set, so the model can reason in raw bit vectors.
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

/// The brute-force reference: live (id, fingerprint) rows in id order plus
/// the id counter — everything a fresh engine needs.
struct Model {
  std::vector<std::pair<int, std::vector<uint8_t>>> live;  // ascending id
  int next_id = 0;

  PersistedIndex ToIndex() const {
    PersistedIndex index;
    index.features = LabelFeatures();
    for (const auto& [id, bits] : live) {
      index.ids.push_back(id);
      index.db_bits.push_back(bits);
    }
    index.next_id = next_id;
    return index;
  }
};

void ExpectRankingEq(const Ranking& got, const Ranking& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
  }
}

/// One random interleaving; ~40 ops. Returns early on fatal failure.
void RunChurnInterleaving(int shards, int threads, uint64_t seed) {
  SCOPED_TRACE("replay with shards=" + std::to_string(shards) +
               " threads=" + std::to_string(threads) +
               " seed=" + std::to_string(seed));
  Rng rng(seed);

  Model model;
  const int initial_rows = rng.UniformInt(8, 32);
  for (int i = 0; i < initial_rows; ++i) {
    std::vector<uint8_t> bits(kFeatures, 0);
    for (auto& b : bits) b = rng.Bernoulli(0.5) ? 1 : 0;
    model.live.emplace_back(model.next_id++, std::move(bits));
  }

  ShardedOptions opts;
  opts.num_shards = shards;
  opts.threads = threads;
  Result<ShardedEngine> engine =
      ShardedEngine::FromIndex(model.ToIndex(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  BatchExecutorOptions executor_opts;
  executor_opts.cache_bytes = 1 << 14;  // small: eviction churns too
  BatchExecutor executor(&*engine, executor_opts);

  // A small probe pool: repeats are what exercise hits across epochs.
  std::vector<std::vector<uint8_t>> probes;
  for (int i = 0; i < 6; ++i) {
    std::vector<uint8_t> bits(kFeatures, 0);
    for (auto& b : bits) b = rng.Bernoulli(0.5) ? 1 : 0;
    probes.push_back(std::move(bits));
  }
  const std::vector<int> ks = {0, 1, 3, 7, 50};
  const bool approx = seed % 2 == 0;

  long long queries_issued = 0;
  const int ops = rng.UniformInt(30, 50);
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1: {  // INSERT
        std::vector<uint8_t> bits(kFeatures, 0);
        for (auto& b : bits) b = rng.Bernoulli(0.5) ? 1 : 0;
        Result<int> id = executor.Insert(GraphForBits(bits));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ASSERT_EQ(*id, model.next_id);
        model.live.emplace_back(model.next_id++, std::move(bits));
        break;
      }
      case 2:
      case 3: {  // REMOVE (live id, or an id that may be dead/unknown)
        int id;
        if (!model.live.empty() && rng.Bernoulli(0.8)) {
          id = model.live[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int>(model.live.size()) - 1))]
                   .first;
        } else {
          id = rng.UniformInt(0, model.next_id + 3);
        }
        const auto it = std::find_if(
            model.live.begin(), model.live.end(),
            [id](const auto& row) { return row.first == id; });
        Status removed = executor.Remove(id);
        if (it != model.live.end()) {
          ASSERT_TRUE(removed.ok()) << removed.ToString();
          model.live.erase(it);
        } else {
          ASSERT_EQ(removed.code(), StatusCode::kNotFound);
        }
        break;
      }
      case 4: {  // COMPACT
        ASSERT_TRUE(executor.Compact().ok());
        break;
      }
      case 5: {  // SNAPSHOT: written async, must capture exactly this state
        const std::string path =
            ::testing::TempDir() + "/gdim_diff_snap_" +
            std::to_string(shards) + "_" + std::to_string(threads) + "_" +
            std::to_string(seed) + ".idx2";
        ASSERT_TRUE(executor.Snapshot(path).ok());
        Result<ShardedEngine> reloaded = ShardedEngine::Open(path);
        ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
        std::vector<int> want_ids;
        for (const auto& [id, bits] : model.live) want_ids.push_back(id);
        ASSERT_EQ(reloaded->alive_ids(), want_ids);
        break;
      }
      default: {  // QUERY, twice: cold/populating, then a guaranteed hit
        const std::vector<uint8_t>& probe =
            probes[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int>(probes.size()) - 1))];
        const int k =
            ks[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int>(ks.size()) - 1))];
        // The reference is an exact brute-force ranking of the model.
        const Ranking want = testing_util::BruteForceTopK(
            probe, testing_util::LiveRowsOf(model.ToIndex()), k);

        QueryOptions options{.k = k};
        if (approx) {
          options.scan_mode = ScanMode::kApprox;
          options.nprobe = kNprobeAll;
        }
        Result<Ranking> first = executor.Query(GraphForBits(probe), options);
        ASSERT_TRUE(first.ok()) << first.status().ToString();
        ExpectRankingEq(*first, want, "cold query vs brute force");
        // No mutation can interleave (this test is the only producer), so
        // the second ask is served at the same epoch — from the cache if
        // it fits — and must be byte-for-byte the same answer.
        Result<Ranking> second = executor.Query(GraphForBits(probe), options);
        ASSERT_TRUE(second.ok()) << second.status().ToString();
        ExpectRankingEq(*second, want, "repeat (cache-hit) query vs brute");
        ++queries_issued;
        break;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  // The differential pass proves nothing unless the cache actually served:
  // every repeat above was a same-epoch ask of a just-populated key.
  const std::string stats = executor.StatsText();
  if (queries_issued > 0) {
    EXPECT_GE(StatsField(stats, "cache_hits"), queries_issued) << stats;
    // The first query always misses, so an approx seed scanned at least
    // once through the probe path; an exact seed never did.
    EXPECT_EQ(StatsField(stats, "approx_queries") > 0, approx) << stats;
  }
  EXPECT_LE(StatsField(stats, "cache_bytes"),  // within the configured budget
            static_cast<long long>(executor_opts.cache_bytes));
}

TEST(CacheDifferentialTest, RandomChurnInterleavingsStayBitIdentical) {
  for (int shards : {1, 4}) {
    for (int threads : {1, 8}) {
      for (uint64_t seed = 0; seed < 30; ++seed) {
        RunChurnInterleaving(shards, threads, seed);
        if (::testing::Test::HasFatalFailure()) {
          FAIL() << "stopping at first failing interleaving: shards="
                 << shards << " threads=" << threads << " seed=" << seed
                 << " (re-run RunChurnInterleaving with this triple)";
        }
      }
    }
  }
}

}  // namespace
}  // namespace gdim
