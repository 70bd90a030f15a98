// Differential tests for the SIMD Hamming-scan kernels: every kernel this
// binary can run on this host must be bit-identical to the scalar baseline —
// exact integer diffs, for any width (word-multiple or not), any row count
// (block-multiple or not), any query count (tile-multiple or not), hostile
// padding words, and empty rows. Kernels the host cannot run are skipped,
// not failed: the same test binary passes on an AVX-512 box and a plain
// x86-64 one.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/sync.h"
#include "core/kernels/scan_kernel.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "gtest/gtest.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::ExpectEngineMatchesBruteForce;

/// Naive word-popcount reference, deliberately independent of every kernel.
uint32_t ReferenceDiff(const uint64_t* a, const uint64_t* b, size_t words) {
  uint32_t diff = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t x = a[w] ^ b[w];
    while (x != 0) {
      x &= x - 1;
      ++diff;
    }
  }
  return diff;
}

std::vector<const ScanKernel*> HostKernels() { return SupportedScanKernels(); }

/// A packed matrix plus packed queries over random 0/1 rows.
struct Fixture {
  PackedBitMatrix matrix;
  std::vector<std::vector<uint64_t>> queries;
};

Fixture MakeFixture(int num_rows, int num_bits, int num_queries, Rng* rng) {
  Fixture f;
  f.matrix = PackedBitMatrix::FromRows(
      RandomBitRows(num_rows, num_bits, 0.4, rng), num_bits);
  for (const auto& q : RandomBitRows(num_queries, num_bits, 0.4, rng)) {
    f.queries.push_back(f.matrix.PackQuery(q));
  }
  return f;
}

TEST(ScanKernelTest, RegistryShape) {
  EXPECT_STREQ(ScalarScanKernel().name(), "scalar");
  EXPECT_GE(ScalarScanKernel().tile_width(), 1);
  const auto kernels = HostKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front()->name(), "scalar");
  for (const ScanKernel* kernel : kernels) {
    EXPECT_EQ(FindScanKernel(kernel->name()), kernel);
  }
  EXPECT_EQ(FindScanKernel("bogus"), nullptr);
  EXPECT_EQ(FindScanKernel(""), nullptr);
  // The active kernel is always one the host supports.
  EXPECT_NE(FindScanKernel(ActiveScanKernel().name()), nullptr);
}

// Single-query blocks: every kernel, every hostile width and row count.
TEST(ScanKernelTest, HammingBlockMatchesReferenceAcrossShapes) {
  Rng rng(20260807);
  const int widths[] = {1, 5, 63, 64, 65, 127, 128, 192, 300, 511, 512, 517};
  const int row_counts[] = {1, 2, 7, 64, 255, 256, 257};
  for (const int num_bits : widths) {
    for (const int num_rows : row_counts) {
      const Fixture f = MakeFixture(num_rows, num_bits, 1, &rng);
      const size_t words = f.matrix.words_per_row();
      std::vector<uint32_t> expected(static_cast<size_t>(num_rows));
      for (int r = 0; r < num_rows; ++r) {
        expected[static_cast<size_t>(r)] =
            ReferenceDiff(f.queries[0].data(), f.matrix.row(r), words);
      }
      for (const ScanKernel* kernel : HostKernels()) {
        std::vector<uint32_t> got(static_cast<size_t>(num_rows), 0xdeadbeef);
        kernel->HammingBlock(f.queries[0].data(), f.matrix.row(0), words,
                             num_rows, got.data());
        EXPECT_EQ(got, expected) << kernel->name() << " p=" << num_bits
                                 << " rows=" << num_rows;
      }
    }
  }
}

// Multi-query blocks: query counts straddling every kernel's tile width.
TEST(ScanKernelTest, HammingBlockMultiMatchesReferenceAcrossTileRemainders) {
  Rng rng(7);
  const int num_bits = 300;
  const int num_rows = 130;
  for (const ScanKernel* kernel : HostKernels()) {
    const int tile = kernel->tile_width();
    ASSERT_GE(tile, 1) << kernel->name();
    const int query_counts[] = {1,        tile - 1, tile,
                                tile + 1, 2 * tile, 2 * tile + 3};
    for (const int num_queries : query_counts) {
      if (num_queries < 1) continue;
      const Fixture f = MakeFixture(num_rows, num_bits, num_queries, &rng);
      const size_t words = f.matrix.words_per_row();
      std::vector<const uint64_t*> query_ptrs;
      for (const auto& q : f.queries) query_ptrs.push_back(q.data());
      std::vector<uint32_t> got(
          static_cast<size_t>(num_queries) * num_rows, 0xdeadbeef);
      kernel->HammingBlockMulti(query_ptrs.data(), num_queries,
                                f.matrix.row(0), words, num_rows, got.data());
      for (int q = 0; q < num_queries; ++q) {
        for (int r = 0; r < num_rows; ++r) {
          EXPECT_EQ(got[static_cast<size_t>(q) * num_rows + r],
                    ReferenceDiff(query_ptrs[static_cast<size_t>(q)],
                                  f.matrix.row(r), words))
              << kernel->name() << " q=" << q << " r=" << r
              << " nq=" << num_queries;
        }
      }
    }
  }
}

// Splitting a scan into blocks must not change a single diff — the engines
// call kernels in kScanBlockRows chunks and the split point is invisible.
TEST(ScanKernelTest, BlockSplitsAreInvisible) {
  Rng rng(99);
  const Fixture f = MakeFixture(300, 517, 1, &rng);
  const size_t words = f.matrix.words_per_row();
  const int n = f.matrix.num_rows();
  for (const ScanKernel* kernel : HostKernels()) {
    std::vector<uint32_t> whole(static_cast<size_t>(n));
    kernel->HammingBlock(f.queries[0].data(), f.matrix.row(0), words, n,
                         whole.data());
    for (const int split : {1, 17, 64, 256, 299}) {
      std::vector<uint32_t> parts(static_cast<size_t>(n));
      for (int r0 = 0; r0 < n; r0 += split) {
        const int nr = std::min(split, n - r0);
        kernel->HammingBlock(f.queries[0].data(), f.matrix.row(r0), words,
                             nr, parts.data() + r0);
      }
      EXPECT_EQ(parts, whole) << kernel->name() << " split=" << split;
    }
  }
}

// FromWords must mask hostile padding bits so every kernel sees clean rows:
// a snapshot block with garbage beyond num_bits still scans exactly.
TEST(ScanKernelTest, HostilePaddingIsMaskedBeforeKernelsSeeIt) {
  Rng rng(4242);
  const int num_bits = 130;  // 3 words, 62 padding bits in the last
  const int num_rows = 70;
  const auto byte_rows = RandomBitRows(num_rows, num_bits, 0.5, &rng);
  const PackedBitMatrix clean =
      PackedBitMatrix::FromRows(byte_rows, num_bits);
  const size_t words = clean.words_per_row();
  std::vector<uint64_t> hostile_words;
  for (int r = 0; r < num_rows; ++r) {
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = clean.row(r)[w];
      if (w + 1 == words) word |= ~((1ull << (num_bits % 64)) - 1);
      hostile_words.push_back(word);
    }
  }
  const PackedBitMatrix hostile =
      PackedBitMatrix::FromWords(num_rows, num_bits, std::move(hostile_words));
  const std::vector<uint64_t> query =
      clean.PackQuery(RandomBitRows(1, num_bits, 0.5, &rng)[0]);
  std::vector<uint32_t> expected(static_cast<size_t>(num_rows));
  for (int r = 0; r < num_rows; ++r) {
    expected[static_cast<size_t>(r)] =
        ReferenceDiff(query.data(), clean.row(r), words);
  }
  for (const ScanKernel* kernel : HostKernels()) {
    std::vector<uint32_t> got(static_cast<size_t>(num_rows));
    kernel->HammingBlock(query.data(), hostile.row(0), words, num_rows,
                         got.data());
    EXPECT_EQ(got, expected) << kernel->name();
  }
}

// Degenerate shapes: zero rows is a no-op, all-zero rows score the query's
// own popcount, and identical rows tie exactly.
TEST(ScanKernelTest, DegenerateShapes) {
  Rng rng(5);
  const Fixture f = MakeFixture(8, 200, 2, &rng);
  const size_t words = f.matrix.words_per_row();
  const PackedBitMatrix zeros = PackedBitMatrix::FromRows(
      std::vector<std::vector<uint8_t>>(16, std::vector<uint8_t>(200, 0)),
      200);
  const uint32_t query_pop =
      ReferenceDiff(f.queries[0].data(),
                    std::vector<uint64_t>(words, 0).data(), words);
  for (const ScanKernel* kernel : HostKernels()) {
    uint32_t sentinel = 0xdeadbeef;
    kernel->HammingBlock(f.queries[0].data(), f.matrix.row(0), words, 0,
                         &sentinel);
    EXPECT_EQ(sentinel, 0xdeadbeefu) << kernel->name();  // untouched
    const uint64_t* queries[] = {f.queries[0].data(), f.queries[1].data()};
    kernel->HammingBlockMulti(queries, 2, f.matrix.row(0), words, 0,
                              &sentinel);
    EXPECT_EQ(sentinel, 0xdeadbeefu) << kernel->name();
    std::vector<uint32_t> got(16);
    kernel->HammingBlock(f.queries[0].data(), zeros.row(0), words, 16,
                         got.data());
    for (const uint32_t d : got) EXPECT_EQ(d, query_pop) << kernel->name();
  }
}

// The fused scan + integer select (the engine-facing entry point) against
// brute force on whatever kernel the process runs: tie-heavy rows, skipped
// (tombstoned) rows, widths on and off word boundaries including zero, row
// counts around the block size, and query counts around the tile widths.
TEST(ScanKernelTest, FusedScanTopKMatchesBruteForceAcrossShapes) {
  Rng rng(31337);
  for (const int num_bits : {0, 1, 63, 64, 65, 130, 517}) {
    for (const int num_rows : {0, 1, 255, 256, 257, 530}) {
      const auto rows = testing_util::TieHeavyRows(num_rows, num_bits, &rng);
      const PackedBitMatrix matrix = PackedBitMatrix::FromRows(rows, num_bits);
      std::vector<uint8_t> skip(static_cast<size_t>(num_rows), 0);
      testing_util::LiveRows live;
      for (int r = 0; r < num_rows; ++r) {
        skip[static_cast<size_t>(r)] = rng.UniformU64(5) == 0 ? 1 : 0;
        if (skip[static_cast<size_t>(r)] == 0) {
          live[r] = rows[static_cast<size_t>(r)];
        }
      }
      std::vector<int> row_ids(static_cast<size_t>(num_rows));
      for (int r = 0; r < num_rows; ++r) row_ids[static_cast<size_t>(r)] = r;
      for (const int num_queries : {1, 3, 9}) {
        const auto raw = RandomBitRows(num_queries, num_bits, 0.4, &rng);
        std::vector<std::vector<uint64_t>> packed;
        std::vector<const uint64_t*> ptrs;
        packed.reserve(raw.size());
        ptrs.reserve(raw.size());
        for (const auto& q : raw) packed.push_back(matrix.PackQuery(q));
        for (const auto& q : packed) ptrs.push_back(q.data());
        for (const int k : testing_util::BoundaryKs(live)) {
          std::vector<HammingTopK> selectors(
              static_cast<size_t>(num_queries), HammingTopK(k, num_rows));
          ScanTopK(matrix, ptrs.data(), num_queries, skip.data(), 0,
                   selectors.data());
          for (size_t q = 0; q < raw.size(); ++q) {
            const Ranking expected =
                testing_util::BruteForceTopK(raw[q], live, k);
            EXPECT_EQ(selectors[q].Ranked(num_bits, row_ids), expected)
                << "p=" << num_bits << " rows=" << num_rows << " q=" << q
                << " k=" << k;
          }
        }
      }
    }
  }
}

// The engine's fused scans through every layout the segments can take:
// base only, delta only, both, tombstones placed exactly on the k-th
// distance, every row tombstoned, and after compaction — on a tie-heavy
// corpus whose width is not a word multiple, with a query count that
// leaves a remainder tile for every kernel's tile width.
TEST(ScanKernelTest, EngineFusedScanMatchesBruteForceThroughChurn) {
  Rng rng(4242);
  for (const int p : {0, 70}) {
    const std::string at = "p=" + std::to_string(p);
    const auto base_rows = testing_util::TieHeavyRows(300, p, &rng);
    const auto delta_rows = testing_util::TieHeavyRows(40, p, &rng);
    const auto fingerprints = RandomBitRows(11, p, 0.4, &rng);

    // Base only (empty delta), on one shard: the single-engine layout.
    auto built =
        ShardedEngine::FromIndex(testing_util::LabelFeatureIndex(p, base_rows));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ShardedEngine& engine = *built;
    ScopedRole writer(&engine.writer_role());
    testing_util::LiveRows live;
    for (int i = 0; i < 300; ++i) live[i] = base_rows[static_cast<size_t>(i)];
    ExpectEngineMatchesBruteForce(engine, fingerprints, live, at + " base");

    // Base + delta.
    for (const auto& row : delta_rows) {
      const Result<int> id = engine.InsertMapped(row);
      ASSERT_TRUE(id.ok());
      live[*id] = row;
    }
    ExpectEngineMatchesBruteForce(engine, fingerprints, live, at + " delta");

    // Tombstone the k-th answer of query 0 and the answer right after it,
    // once near the top and once deep in the ranking, so the selection
    // boundary sits on removed rows.
    for (const int k : {7, 330}) {
      const Ranking before =
          testing_util::BruteForceTopK(fingerprints[0], live, k + 1);
      ASSERT_EQ(static_cast<int>(before.size()), k + 1);
      for (const int pos : {k - 1, k}) {
        const int id = before[static_cast<size_t>(pos)].id;
        ASSERT_TRUE(engine.Remove(id).ok());
        live.erase(id);
      }
    }
    ExpectEngineMatchesBruteForce(engine, fingerprints, live,
                                  at + " kth tombstones");
    engine.Compact();
    ExpectEngineMatchesBruteForce(engine, fingerprints, live,
                                  at + " compacted");

    // Every row tombstoned: every path answers empty.
    for (const auto& [id, bits] : live) ASSERT_TRUE(engine.Remove(id).ok());
    live.clear();
    ExpectEngineMatchesBruteForce(engine, fingerprints, live, at + " empty");

    // Delta only (empty base).
    auto empty =
        ShardedEngine::FromIndex(testing_util::LabelFeatureIndex(p, {}));
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    ShardedEngine& delta_only = *empty;
    ScopedRole delta_writer(&delta_only.writer_role());
    for (const auto& row : delta_rows) {
      const Result<int> id = delta_only.InsertMapped(row);
      ASSERT_TRUE(id.ok());
      live[*id] = row;
    }
    ExpectEngineMatchesBruteForce(delta_only, fingerprints, live,
                                  at + " delta only");
  }
}

// The batch engine's tiled path must answer exactly like the single-query
// path, including across tombstones and a live delta segment.
TEST(ScanKernelTest, TiledBatchMatchesSingleQueriesAcrossMutations) {
  Rng rng(11);
  const int p = 96;
  PersistedIndex index;
  for (LabelId r = 0; r < p; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  index.db_bits = RandomBitRows(40, p, 0.4, &rng);
  Result<ShardedEngine> built = ShardedEngine::FromIndex(index);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ShardedEngine& engine = *built;
  // This test body is the engine's single writer.
  ScopedRole writer(&engine.writer_role());
  for (const auto& row : RandomBitRows(9, p, 0.4, &rng)) {
    ASSERT_TRUE(engine.InsertMapped(row).ok());  // delta segment
  }
  ASSERT_TRUE(engine.Remove(3).ok());
  ASSERT_TRUE(engine.Remove(41).ok());  // one base, one delta tombstone
  const std::vector<std::vector<uint8_t>> fingerprints =
      RandomBitRows(13, p, 0.4, &rng);
  const QueryOptions query_options{.k = 6, .scan_mode = ScanMode::kFull};
  const std::vector<Ranking> tiled =
      engine.QueryMappedBatch(fingerprints, query_options);
  ASSERT_EQ(tiled.size(), fingerprints.size());
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    EXPECT_EQ(tiled[i], engine.QueryMapped(fingerprints[i], query_options))
        << "query " << i;
  }
}

// GDIM_FORCE_KERNEL is resolved by ActiveScanKernel exactly once; the test
// binary can only observe the already-resolved value, so assert the
// invariant every CI matrix entry relies on: the resolved kernel is
// supported here, and when the env var names a supported kernel it won.
TEST(ScanKernelTest, ForcedKernelHonoredWhenRunnable) {
  const char* forced = std::getenv("GDIM_FORCE_KERNEL");
  const std::string active = ActiveScanKernel().name();
  EXPECT_NE(FindScanKernel(active), nullptr);
  if (forced != nullptr && FindScanKernel(forced) != nullptr) {
    EXPECT_EQ(active, forced);
  }
}

}  // namespace
}  // namespace gdim
