#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "common/sync.h"
#include "core/index.h"
#include "core/index_io.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "graph/graph_io.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::Slurp;
using testing_util::Spit;
using testing_util::V1IndexText;
using testing_util::WriteV2IndexFile;

PersistedIndex SmallIndex() {
  PersistedIndex p;
  Graph f;
  f.AddVertex(1);
  f.AddVertex(2);
  f.AddEdge(0, 1, 3);
  p.features.push_back(f);
  Graph f2;
  f2.AddVertex(0);
  p.features.push_back(f2);
  p.db_bits = {{1, 0}, {0, 1}, {1, 1}};
  return p;
}

TEST(IndexIoTest, RoundTrip) {
  PersistedIndex p = SmallIndex();
  std::string path = ::testing::TempDir() + "/gdim_index_test.idx";
  ASSERT_TRUE(WriteIndexFile(p, path).ok());
  Result<PersistedIndex> back = ReadIndexFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->features.size(), 2u);
  EXPECT_EQ(back->features[0], p.features[0]);
  EXPECT_EQ(back->features[1], p.features[1]);
  EXPECT_EQ(back->db_bits, p.db_bits);
}

TEST(IndexIoTest, RejectsBadMagic) {
  std::string path = ::testing::TempDir() + "/gdim_bad_magic.idx";
  {
    std::ofstream out(path);
    out << "not-an-index\n";
  }
  Result<PersistedIndex> r = ReadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(IndexIoTest, RejectsWidthMismatch) {
  PersistedIndex p = SmallIndex();
  p.db_bits.push_back({1});  // ragged row
  std::string path = ::testing::TempDir() + "/gdim_ragged.idx";
  EXPECT_FALSE(WriteIndexFile(p, path).ok());
}

/// SmallIndex as a v1 text file, spelled out byte for byte.
constexpr char kSmallV1Text[] =
    "gdim-index v1\n"
    "features 2\n"
    "t # 0\n"
    "v 0 1\n"
    "v 1 2\n"
    "e 0 1 3\n"
    "t # 1\n"
    "v 0 0\n"
    "vectors 3 2\n"
    "10\n"
    "01\n"
    "11\n";

TEST(IndexIoTest, ReadsV1Text) {
  const std::string path = ::testing::TempDir() + "/gdim_v1_literal.idx";
  Spit(path, kSmallV1Text);
  Result<PersistedIndex> back = ReadIndexFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const PersistedIndex p = SmallIndex();
  EXPECT_EQ(back->features, p.features);
  EXPECT_EQ(back->db_bits, p.db_bits);
  EXPECT_TRUE(back->ids.empty());  // v1 is positional
  // The test-side v1 formatter the property tests use agrees with it.
  EXPECT_EQ(V1IndexText(p), kSmallV1Text);
}

TEST(IndexIoTest, RejectsCorruptVectorRow) {
  std::string text = kSmallV1Text;
  text.replace(text.rfind("11"), 2, "1x");
  const std::string path = ::testing::TempDir() + "/gdim_corrupt.idx";
  Spit(path, text);
  EXPECT_FALSE(ReadIndexFile(path).ok());
}

TEST(IndexIoTest, MissingFile) {
  EXPECT_FALSE(ReadIndexFile("/no/such/dir/x.idx").ok());
  EXPECT_FALSE(WriteIndexFile(SmallIndex(), "/no/such/dir/x.idx").ok());
}

TEST(IndexIoTest, ReadsCrlfTextIndexes) {
  PersistedIndex p = SmallIndex();
  const std::string path = ::testing::TempDir() + "/gdim_crlf.idx";
  // Simulate a Windows checkout / CRLF transfer of the whole file — the
  // magic line, the feature graph lines, and every vector row.
  const std::string text = kSmallV1Text;
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  Spit(path, crlf);
  Result<PersistedIndex> back = ReadIndexFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->features.size(), p.features.size());
  EXPECT_EQ(back->features[0], p.features[0]);
  EXPECT_EQ(back->db_bits, p.db_bits);
}

/// A p-dimensional index with single-vertex features and random vectors —
/// arbitrary shapes for the round-trip property tests.
PersistedIndex RandomIndex(int n, int p, Rng* rng) {
  PersistedIndex index;
  for (int r = 0; r < p; ++r) {
    Graph f;
    f.AddVertex(static_cast<LabelId>(r));
    index.features.push_back(f);
  }
  index.db_bits = RandomBitRows(n, p, 0.35, rng);
  return index;
}

/// The index written to a fresh file in `version` (1, 2 or 3) — the
/// writer for v3, the test-side legacy builders for v1/v2. Returns the
/// path.
std::string WriteInFormat(const PersistedIndex& index, int version,
                          const std::string& stem) {
  const std::string path = ::testing::TempDir() + "/" + stem + "_v" +
                           std::to_string(version) + ".idx";
  if (version == 1) {
    Spit(path, V1IndexText(index));
  } else if (version == 2) {
    WriteV2IndexFile(index, path);
  } else {
    GDIM_CHECK(WriteIndexFile(index, path).ok());
  }
  return path;
}

TEST(IndexIoTest, AllFormatsRoundTripAcrossShapes) {
  Rng rng(17);
  // Widths straddle word boundaries; n = 0 exercises empty databases.
  for (int p : {0, 1, 63, 64, 65, 130}) {
    for (int n : {0, 1, 17}) {
      const PersistedIndex index = RandomIndex(n, p, &rng);
      for (const int version : {1, 2, 3}) {
        const std::string path = WriteInFormat(
            index, version,
            "gdim_rt_" + std::to_string(p) + "_" + std::to_string(n));
        Result<PersistedIndex> back = ReadIndexFile(path);
        ASSERT_TRUE(back.ok())
            << "p=" << p << " n=" << n << ": " << back.status().ToString();
        EXPECT_EQ(back->features, index.features);
        EXPECT_EQ(back->db_bits, index.db_bits) << "p=" << p << " n=" << n;
      }
    }
  }
}

/// `gdim_tool convert`: the packed read plus the every-section v3 write.
void Convert(const std::string& in, const std::string& out) {
  Result<PackedIndex> index = ReadIndexFilePacked(in);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(WritePackedIndexFile(*index, out).ok());
}

TEST(IndexIoTest, ConvertV1AndV2ToV3IsLossless) {
  Rng rng(23);
  PersistedIndex index = RandomIndex(12, 70, &rng);
  // v1 -> v3: the rows and features survive, ids stay positional.
  const std::string v1 = WriteInFormat(index, 1, "gdim_conv");
  const std::string from_v1 = ::testing::TempDir() + "/gdim_conv_1to3.idx";
  Convert(v1, from_v1);
  Result<PersistedIndex> back = ReadIndexFile(from_v1);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->features, index.features);
  EXPECT_EQ(back->db_bits, index.db_bits);
  EXPECT_EQ(back->ids, std::vector<int>({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  // The upgraded file is exactly what the writer emits for the same index.
  const std::string direct = WriteInFormat(index, 3, "gdim_conv");
  EXPECT_EQ(Slurp(from_v1), Slurp(direct));

  // v2 -> v3 keeps sparse ids and the id counter: the result is
  // byte-identical to the v3 file the v2 bytes were derived from.
  for (int i = 0; i < 12; ++i) index.ids.push_back(3 * i + 2);
  index.next_id = 100;
  const std::string v3 = WriteInFormat(index, 3, "gdim_conv_ids");
  const std::string v2 = WriteInFormat(index, 2, "gdim_conv_ids");
  const std::string from_v2 = ::testing::TempDir() + "/gdim_conv_2to3.idx";
  Convert(v2, from_v2);
  EXPECT_EQ(Slurp(from_v2), Slurp(v3));
}

TEST(IndexIoTest, V2RejectsTruncationAndTrailingGarbage) {
  Rng rng(29);
  const PersistedIndex index = RandomIndex(8, 65, &rng);
  const std::string path = ::testing::TempDir() + "/gdim_v2_corrupt.idx2";
  WriteV2IndexFile(index, path);
  const std::string good = Slurp(path);

  Spit(path, good.substr(0, good.size() - 5));  // truncated word block
  EXPECT_EQ(ReadIndexFile(path).status().code(), StatusCode::kParseError);

  Spit(path, good + "junk");  // trailing garbage
  EXPECT_EQ(ReadIndexFile(path).status().code(), StatusCode::kParseError);

  std::string flipped = good;
  flipped[9] ^= 0x40;  // header version field
  Spit(path, flipped);
  EXPECT_EQ(ReadIndexFile(path).status().code(), StatusCode::kParseError);

  flipped = good;
  flipped[13] ^= 0xFF;  // endianness tag
  Spit(path, flipped);
  EXPECT_EQ(ReadIndexFile(path).status().code(), StatusCode::kParseError);

  // Hostile header counts must come back as a Status, not a crash: a
  // feature-section length far beyond the file, and a huge row count on a
  // p = 0 index whose rows occupy no bytes (so the size check can't see it).
  flipped = good;
  flipped[30] = 0x7F;  // feature_bytes (u64 at offset 24) -> ~2^55
  Spit(path, flipped);
  EXPECT_EQ(ReadIndexFile(path).status().code(), StatusCode::kParseError);

  const std::string zero_width_prefix =
      good.substr(0, 16) +            // magic + version + tag
      std::string(8, '\0') +          // p = 0
      std::string(8, '\0');           // feature_bytes = 0
  std::string degenerate = zero_width_prefix;
  degenerate.append(7, '\0');
  degenerate += '\x10';               // n = 2^60 (beyond int range)
  degenerate.append(8, '\0');         // words_per_row = 0
  degenerate.append(8, '\0');         // next_id = 0
  Spit(path, degenerate);
  EXPECT_EQ(ReadIndexFile(path).status().code(), StatusCode::kParseError);

  // n = 2^30 fits in int and rows occupy no file bytes at p = 0, but each
  // row still owes 8 id-block bytes, so the size check rejects the count
  // before any allocation.
  const std::string big_n = std::string(3, '\0') + '\x40' +  // 2^30, LE u64
                            std::string(4, '\0');
  degenerate = zero_width_prefix;
  degenerate += big_n;                // n = 2^30
  degenerate.append(8, '\0');         // words_per_row = 0
  degenerate += big_n;                // next_id = 2^30 (valid: >= n)
  Spit(path, degenerate);
  EXPECT_EQ(ReadIndexFile(path).status().code(), StatusCode::kParseError);
}

TEST(IndexIoTest, PersistsCustomIdsAndRejectsBadOnes) {
  Rng rng(37);
  PersistedIndex index = RandomIndex(4, 9, &rng);
  index.ids = {3, 7, 9, 40};
  const std::string path = ::testing::TempDir() + "/gdim_ids.idx2";
  for (const int version : {2, 3}) {
    Result<PersistedIndex> back =
        ReadIndexFile(WriteInFormat(index, version, "gdim_ids"));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->ids, index.ids) << "v" << version;
    EXPECT_EQ(back->db_bits, index.db_bits) << "v" << version;
  }
  ASSERT_TRUE(WriteIndexFile(index, path).ok());
  Result<PersistedIndex> back = ReadIndexFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  // An engine over the reloaded index serves those ids and keeps numbering
  // after them.
  auto engine = ShardedEngine::FromIndex(std::move(back).value());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // This test body is the engine's single writer.
  ScopedRole writer(&engine->writer_role());
  EXPECT_EQ(engine->alive_ids(), index.ids);
  ASSERT_TRUE(engine->Remove(7).ok());
  auto inserted = engine->InsertMapped(std::vector<uint8_t>(9, 1));
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, 41);

  // The id counter survives snapshot/reload: removing the highest id (41)
  // and reloading must not re-issue it to the next insert.
  ASSERT_TRUE(engine->Remove(41).ok());
  const std::string snap = ::testing::TempDir() + "/gdim_ids_snap.idx2";
  ASSERT_TRUE(engine->Snapshot(snap).ok());
  auto reloaded = ShardedEngine::Open(snap);
  ASSERT_TRUE(reloaded.ok());
  ScopedRole reloaded_writer(&reloaded->writer_role());
  auto after_reload = reloaded->InsertMapped(std::vector<uint8_t>(9, 0));
  ASSERT_TRUE(after_reload.ok());
  EXPECT_EQ(*after_reload, 42);  // not a resurrected 41

  // Writers, readers, and FromIndex all reject non-ascending or mis-sized
  // id lists.
  index.ids = {3, 3, 9, 40};
  EXPECT_EQ(WriteIndexFile(index, path).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedEngine::FromIndex(index).status().code(),
            StatusCode::kInvalidArgument);
  index.ids = {3, 7, 9};
  EXPECT_EQ(WriteIndexFile(index, path).code(), StatusCode::kInvalidArgument);
  index.ids = {3, 7, 9, 40};
  for (const int version : {2, 3}) {
    // The id block is the last 4 u64s of a DIMS-only file in either
    // format; make it non-ascending in place.
    const std::string hostile = WriteInFormat(index, version, "gdim_ids_bad");
    std::string bytes = Slurp(hostile);
    bytes[bytes.size() - 8] = 0;  // last id 40 -> 0
    Spit(hostile, bytes);
    EXPECT_EQ(ReadIndexFile(hostile).status().code(), StatusCode::kParseError)
        << "v" << version;
  }
}

TEST(IndexIoTest, MutatedEngineSnapshotReloadsEquivalently) {
  Rng rng(31);
  const PersistedIndex index = RandomIndex(30, 6, &rng);
  auto engine = ShardedEngine::FromIndex(index);
  ASSERT_TRUE(engine.ok());
  // This test body is the engine's single writer.
  ScopedRole writer(&engine->writer_role());

  // Churn: remove a few base rows, insert fresh fingerprints, compact,
  // then keep a tombstone and a delta row live at snapshot time.
  for (int id : {2, 7, 21}) ASSERT_TRUE(engine->Remove(id).ok());
  for (const auto& bits : RandomBitRows(5, 6, 0.35, &rng)) {
    ASSERT_TRUE(engine->InsertMapped(bits).ok());
  }
  engine->Compact();
  ASSERT_TRUE(engine->Remove(30).ok());  // a post-compaction removal
  for (const auto& bits : RandomBitRows(2, 6, 0.35, &rng)) {
    ASSERT_TRUE(engine->InsertMapped(bits).ok());
  }

  const std::string path = ::testing::TempDir() + "/gdim_snap.idx2";
  ASSERT_TRUE(engine->Snapshot(path).ok());
  Result<PersistedIndex> back = ReadIndexFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // The snapshot is exactly the live database in id order, with the
  // external ids.
  const PersistedIndex live = engine->ToPersistedIndex();
  EXPECT_EQ(back->db_bits, live.db_bits);
  EXPECT_EQ(back->ids, engine->alive_ids());
  auto reloaded = ShardedEngine::FromIndex(std::move(back).value());
  ASSERT_TRUE(reloaded.ok());
  ScopedRole reloaded_writer(&reloaded->writer_role());
  EXPECT_EQ(reloaded->num_graphs(), engine->num_graphs());
  EXPECT_EQ(reloaded->alive_ids(), engine->alive_ids());
  Graph probe;  // vertex labels 0..2 = features 0..2
  probe.AddVertex(0);
  probe.AddVertex(1);
  probe.AddVertex(2);
  // The reloaded engine answers bit-identically with the same external ids,
  // and removing by external id hits the same graph in both engines.
  EXPECT_EQ(reloaded->Query(probe, {.k = 10}), engine->Query(probe, {.k = 10}));
  const int victim = engine->alive_ids()[1];
  ASSERT_TRUE(reloaded->Remove(victim).ok());
  ASSERT_TRUE(engine->Remove(victim).ok());
  EXPECT_EQ(engine->Query(probe, {.k = 10}), reloaded->Query(probe, {.k = 10}));
}

TEST(IndexIoTest, PackedReaderMatchesByteReaderForAllFormats) {
  Rng rng(41);
  for (int p : {0, 1, 63, 64, 65, 130}) {
    for (int n : {0, 1, 17}) {
      PersistedIndex index = RandomIndex(n, p, &rng);
      if (n > 0) {
        index.ids.resize(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
          index.ids[static_cast<size_t>(i)] = 2 * i + 1;  // sparse ids
        }
      }
      for (const int version : {1, 2, 3}) {
        const std::string path = WriteInFormat(index, version, "gdim_packed");
        Result<PackedIndex> packed = ReadIndexFilePacked(path);
        ASSERT_TRUE(packed.ok())
            << "p=" << p << " n=" << n << ": " << packed.status().ToString();
        Result<PersistedIndex> bytes = ReadIndexFile(path);
        ASSERT_TRUE(bytes.ok());
        EXPECT_EQ(packed->features, bytes->features);
        EXPECT_EQ(packed->ids, bytes->ids);
        EXPECT_EQ(packed->next_id, bytes->next_id);
        ASSERT_EQ(packed->rows.num_rows(), n);
        ASSERT_EQ(packed->rows.num_bits(), p);
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(packed->rows.UnpackRow(i),
                    bytes->db_bits[static_cast<size_t>(i)])
              << "p=" << p << " row=" << i;
        }
      }
    }
  }
}

TEST(IndexIoTest, PackedReaderMasksHostilePaddingBits) {
  // p = 10 leaves 54 padding bits per word; a hostile writer can set them,
  // and the direct word-adopting load path must not let them poison the
  // popcount distances.
  const int p = 10;
  Rng rng(43);
  PersistedIndex meta = RandomIndex(3, p, &rng);
  const std::vector<uint64_t> dirty_rows = {
      0x00000000000003FFULL | 0xFFFFFFFFFFFFFC00ULL,  // all 10 bits + junk
      0x0000000000000001ULL | 0xABCDEF0000000C00ULL,  // bit 0 + junk
      0x0000000000000000ULL | 0xFFFFFFFFFFFFFC00ULL,  // no bits + junk
  };
  const std::string path = ::testing::TempDir() + "/gdim_dirty_pad.idx2";
  ASSERT_TRUE(WriteIndexFileV3Words(
                  meta.features, 3, 1,
                  [&](uint64_t i) { return &dirty_rows[i]; }, {}, -1,
                  V3Sections{}, path)
                  .ok());
  const std::string v3_bytes = Slurp(path);
  // The same dirty words through both block-read paths.
  for (const std::string& bytes :
       {v3_bytes, testing_util::V2BytesFromV3(v3_bytes)}) {
    Spit(path, bytes);
    Result<PackedIndex> packed = ReadIndexFilePacked(path);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    EXPECT_EQ(packed->rows.UnpackRow(0), std::vector<uint8_t>(p, 1));
    std::vector<uint8_t> bit0(p, 0);
    bit0[0] = 1;
    EXPECT_EQ(packed->rows.UnpackRow(1), bit0);
    EXPECT_EQ(packed->rows.UnpackRow(2), std::vector<uint8_t>(p, 0));
    // Distances see only the real bits: an all-ones query is 0 away from
    // row 0 and p away from row 2 — junk would inflate the popcount.
    const std::vector<uint64_t> query =
        packed->rows.PackQuery(std::vector<uint8_t>(p, 1));
    EXPECT_EQ(packed->rows.HammingDistance(query, 0), 0);
    EXPECT_EQ(packed->rows.HammingDistance(query, 1), p - 1);
    EXPECT_EQ(packed->rows.HammingDistance(query, 2), p);
  }
}

TEST(IndexIoTest, OpenServesEveryFormatThroughThePackedPath) {
  Rng rng(47);
  PersistedIndex index = RandomIndex(25, 70, &rng);
  const testing_util::LiveRows live = testing_util::LiveRowsOf(index);
  const auto probes = RandomBitRows(6, 70, 0.35, &rng);
  const auto fresh_row = RandomBitRows(1, 70, 0.5, &rng)[0];
  for (const int version : {1, 2, 3}) {
    // Open() loads every format through ReadIndexFilePacked (v2/v3 as a
    // block read, no byte detour); it must serve exactly like brute force.
    auto engine =
        ShardedEngine::Open(WriteInFormat(index, version, "gdim_open"));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ScopedRole writer(&engine->writer_role());
    EXPECT_EQ(engine->num_graphs(), 25);
    EXPECT_EQ(engine->generation(), 0u);  // no META section to restore
    for (const auto& probe : probes) {
      EXPECT_EQ(engine->QueryMapped(probe, {.k = 8}),
                testing_util::BruteForceTopK(probe, live, 8))
          << "v" << version;
    }
    // Mutations on a packed-loaded engine behave identically too.
    ASSERT_TRUE(engine->Remove(3).ok());
    auto a = engine->InsertMapped(fresh_row);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(*a, 25);
    engine->Compact();
    EXPECT_EQ(engine->num_graphs(), 25);
  }
}

// ------------------------------------------------------------------ v3 --

std::string U64(uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), 8);
}

/// One framed v3 section: 4-byte tag + u64 length + payload.
std::string Section(const char* tag, const std::string& payload) {
  return std::string(tag, 4) + U64(payload.size()) + payload;
}

/// A 4-row, 9-bit index with sparse external ids — the shared corpus for
/// the v3 section tests (wpc = 1 keeps handcrafted section payloads short).
PersistedIndex V3Corpus() {
  Rng rng(53);
  PersistedIndex index = RandomIndex(4, 9, &rng);
  index.ids = {3, 7, 9, 40};
  return index;
}

/// The corpus written as a DIMS-only v3 file, returned as raw bytes; the
/// fuzz tests splice hostile sections onto it.
std::string V3BaseBytes() {
  const std::string path = ::testing::TempDir() + "/gdim_v3_base.idx2";
  GDIM_CHECK(WriteIndexFile(V3Corpus(), path).ok());
  return Slurp(path);
}

/// An IVFX payload as older writers emitted it for V3Corpus: two buckets
/// covering {3,7} and {9,40}. The section is legacy: read and skipped.
std::string GoodIvfxPayload() {
  return U64(2) + U64(9) + U64(1) +              // buckets, num_bits, wpc
         U64(0x21) + U64(2) + U64(3) + U64(7) +  // centroid, count, ids
         U64(0x42) + U64(2) + U64(9) + U64(40);
}

/// A valid STOR payload for V3Corpus: one single-vertex graph per row.
std::string GoodStorPayload() {
  GraphDatabase graphs;
  for (int i = 0; i < 4; ++i) {
    Graph g;
    g.AddVertex(static_cast<LabelId>(i));
    graphs.push_back(g);
  }
  std::ostringstream text;
  WriteGraphStream(graphs, text);
  const std::string str = text.str();
  return U64(4) + U64(3) + U64(7) + U64(9) + U64(40) + U64(str.size()) + str;
}

StatusCode ReadCode(const std::string& path, const std::string& bytes) {
  Spit(path, bytes);
  return ReadIndexFilePacked(path).status().code();
}

/// One single-vertex graph per V3Corpus row: the STOR graphs.
GraphDatabase V3StoreGraphs() {
  GraphDatabase graphs;
  for (int i = 0; i < 4; ++i) {
    Graph g;
    g.AddVertex(static_cast<LabelId>(i));
    graphs.push_back(g);
  }
  return graphs;
}

/// V3Corpus written with every section the writer emits (generation 5,
/// epoch 77, the STOR graphs); returns the path.
std::string FullV3File() {
  const PersistedIndex index = V3Corpus();
  const PackedBitMatrix packed = PackedBitMatrix::FromRows(index.db_bits, 9);
  PersistedMeta meta;
  meta.generation = 5;
  meta.epoch = 77;
  const GraphDatabase store_graphs = V3StoreGraphs();
  V3Sections sections;
  sections.meta = &meta;
  sections.store_ids = &index.ids;
  sections.store_graphs = &store_graphs;
  const std::string path = ::testing::TempDir() + "/gdim_v3_full.idx2";
  GDIM_CHECK(WriteIndexFileV3Words(
                 index.features, 4, 1,
                 [&](uint64_t i) { return packed.row(static_cast<int>(i)); },
                 index.ids, -1, sections, path)
                 .ok());
  return path;
}

TEST(IndexIoTest, V3RoundTripCarriesSections) {
  const PersistedIndex index = V3Corpus();
  const std::string path = FullV3File();
  Result<PackedIndex> back = ReadIndexFilePacked(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ids, index.ids);
  EXPECT_EQ(back->next_id, 41);
  ASSERT_TRUE(back->meta.has_value());
  EXPECT_EQ(back->meta->generation, 5u);
  EXPECT_EQ(back->meta->epoch, 77u);
  ASSERT_TRUE(back->store.has_value());
  EXPECT_EQ(back->store->ids, index.ids);
  ASSERT_EQ(back->store->graphs.size(), 4u);
  EXPECT_EQ(back->store->graphs[2], V3StoreGraphs()[2]);

  // An engine opened from the file adopts the persisted generation and
  // epoch, and the byte-view reader still accepts the file (sections
  // validated, dropped).
  auto engine = ShardedEngine::Open(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->generation(), 5u);
  EXPECT_EQ(engine->epoch(), 77u);
  ASSERT_TRUE(ReadIndexFile(path).ok());
}

TEST(IndexIoTest, ConvertKeepsEveryV3SectionByteForByte) {
  // A file with DIMS + META + STOR through the convert path: the sections
  // come back equal and the bytes identical.
  const std::string in = FullV3File();
  const std::string out = ::testing::TempDir() + "/gdim_v3_converted.idx";
  Convert(in, out);
  Result<PackedIndex> a = ReadIndexFilePacked(in);
  Result<PackedIndex> b = ReadIndexFilePacked(out);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(b->meta.has_value() && b->store.has_value());
  EXPECT_EQ(b->meta->generation, a->meta->generation);
  EXPECT_EQ(b->meta->epoch, a->meta->epoch);
  EXPECT_EQ(b->store->ids, a->store->ids);
  EXPECT_EQ(b->store->graphs, a->store->graphs);
  EXPECT_EQ(b->ids, a->ids);
  EXPECT_EQ(b->next_id, a->next_id);
  EXPECT_EQ(Slurp(out), Slurp(in));
}

TEST(IndexIoTest, V3WriterMirrorsReaderValidation) {
  const PersistedIndex index = V3Corpus();
  const PackedBitMatrix packed = PackedBitMatrix::FromRows(index.db_bits, 9);
  const auto row_words = [&](uint64_t i) {
    return packed.row(static_cast<int>(i));
  };
  const std::string path = ::testing::TempDir() + "/gdim_v3_bad_write.idx2";
  const auto write = [&](const V3Sections& sections) {
    return WriteIndexFileV3Words(index.features, 4, 1, row_words, index.ids,
                                 -1, sections, path);
  };

  // Store ids and graphs must come as a pair.
  V3Sections lone_ids;
  lone_ids.store_ids = &index.ids;
  EXPECT_EQ(write(lone_ids).code(), StatusCode::kInvalidArgument);

  // Store row count must match the index.
  GraphDatabase three_graphs(3);
  std::vector<int> three_ids = {3, 7, 9};
  V3Sections short_store;
  short_store.store_ids = &three_ids;
  short_store.store_graphs = &three_graphs;
  EXPECT_EQ(write(short_store).code(), StatusCode::kInvalidArgument);
}

TEST(IndexIoTest, V3RejectsHostileSectionFraming) {
  const std::string base = V3BaseBytes();
  const std::string header = base.substr(0, 16);  // magic + version + tag
  const std::string path = ::testing::TempDir() + "/gdim_v3_framing.idx2";

  // A header with no sections at all: DIMS is required.
  EXPECT_EQ(ReadCode(path, header), StatusCode::kParseError);

  // Stray bytes too short for a section header.
  EXPECT_EQ(ReadCode(path, base + "ME"), StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, base + std::string("META") + U64(16).substr(0, 3)),
            StatusCode::kParseError);

  // A section claiming more payload than the file holds.
  EXPECT_EQ(ReadCode(path, base + std::string("META") + U64(1000)),
            StatusCode::kParseError);

  // Unknown tags are rejected, not skipped: a snapshot section the reader
  // does not understand means state it would silently fail to restore.
  EXPECT_EQ(ReadCode(path, base + Section("ZZZZ", "")),
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, base + Section("DIM\x01", "")),
            StatusCode::kParseError);

  // Duplicate sections: a second DIMS (spliced verbatim) and a second META.
  const std::string dims_section = base.substr(16);
  EXPECT_EQ(ReadCode(path, base + dims_section), StatusCode::kParseError);
  const std::string meta_section = Section("META", U64(1) + U64(2));
  EXPECT_EQ(ReadCode(path, base + meta_section + meta_section),
            StatusCode::kParseError);

  // Sections before DIMS have nothing to validate against.
  EXPECT_EQ(ReadCode(path, header + meta_section + dims_section),
            StatusCode::kParseError);

  // Truncation anywhere inside a section payload is typed, never a crash.
  const std::string full = base + meta_section;
  for (size_t cut : {base.size() + 5, base.size() + 14, size_t{20},
                     base.size() / 2}) {
    EXPECT_EQ(ReadCode(path, full.substr(0, cut)), StatusCode::kParseError)
        << "cut=" << cut;
  }
}

TEST(IndexIoTest, V3RejectsHostileSectionPayloads) {
  const std::string base = V3BaseBytes();
  const std::string path = ::testing::TempDir() + "/gdim_v3_payload.idx2";

  // META must be exactly two u64s.
  EXPECT_EQ(ReadCode(path, base + Section("META", U64(1))),
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, base + Section("META", U64(1) + U64(2) + U64(3))),
            StatusCode::kParseError);

  // STOR: row count and ids must reproduce the DIMS ids exactly.
  const std::string stor = GoodStorPayload();
  ASSERT_EQ(ReadCode(path, base + Section("STOR", stor)), StatusCode::kOk);
  std::string short_count = stor;
  short_count[0] = 3;  // count 4 -> 3
  EXPECT_EQ(ReadCode(path, base + Section("STOR", short_count)),
            StatusCode::kParseError);
  std::string wrong_id = stor;
  wrong_id[8] = 4;  // first store id 3 -> 4
  EXPECT_EQ(ReadCode(path, base + Section("STOR", wrong_id)),
            StatusCode::kParseError);
  // Text length must be exactly the rest of the section.
  EXPECT_EQ(ReadCode(path, base + Section("STOR", stor + "x")),
            StatusCode::kParseError);
}

TEST(IndexIoTest, LegacyIvfxSectionIsSkipped) {
  // Older writers persisted the IVF layout as an IVFX section. The layout
  // is derived from the rows, so the reader skips the payload, the engine
  // rebuilds its index, and convert drops the section.
  const std::string base = V3BaseBytes();
  const std::string plain = ::testing::TempDir() + "/gdim_v3_plain.idx";
  const std::string legacy = ::testing::TempDir() + "/gdim_v3_ivfx.idx";
  Spit(plain, base);
  Spit(legacy, base + Section("IVFX", GoodIvfxPayload()));

  // Convert writes no IVFX: the output is the DIMS-only file verbatim, so
  // the rows, ids and id counter read back exactly as without the section.
  const std::string out = ::testing::TempDir() + "/gdim_v3_ivfx_conv.idx";
  Convert(legacy, out);
  EXPECT_EQ(Slurp(out), base);

  // Served answers ignore the section: MODE=full and MODE=approx at the
  // default NPROBE match the same file without it, at every shard count.
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedOptions opts;
    opts.num_shards = shards;
    auto without = ShardedEngine::Open(plain, opts);
    auto with = ShardedEngine::Open(legacy, opts);
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    EXPECT_EQ(with->ivf_buckets(), without->ivf_buckets());
    Rng rng(59);
    for (int q = 0; q < 16; ++q) {
      std::vector<uint8_t> query(9);
      for (auto& bit : query) bit = rng.UniformU64(2) != 0 ? 1 : 0;
      for (const QueryOptions& options :
           {QueryOptions{.k = 3, .scan_mode = ScanMode::kFull},
            QueryOptions{.k = 3, .scan_mode = ScanMode::kApprox}}) {
        EXPECT_EQ(with->QueryMapped(query, options),
                  without->QueryMapped(query, options))
            << "q=" << q;
      }
    }
  }

  // The skip is still framed: an IVFX claiming more bytes than the file
  // holds, or one ahead of DIMS, is rejected like any other section.
  const std::string path = ::testing::TempDir() + "/gdim_v3_ivfx_bad.idx";
  EXPECT_EQ(ReadCode(path, base + std::string("IVFX") + U64(1000)),
            StatusCode::kParseError);
  EXPECT_EQ(ReadCode(path, base.substr(0, 16) +
                               Section("IVFX", GoodIvfxPayload()) +
                               base.substr(16)),
            StatusCode::kParseError);
}

TEST(IndexIoTest, V2FilesLoadWithoutSections) {
  // The pre-v3 degraded path: a v2 snapshot still loads, with no META (the
  // generation/epoch restart at zero) and no STOR.
  const PersistedIndex index = V3Corpus();
  const std::string path = ::testing::TempDir() + "/gdim_v2_compat.idx2";
  WriteV2IndexFile(index, path);
  Result<PackedIndex> packed = ReadIndexFilePacked(path);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  EXPECT_FALSE(packed->meta.has_value());
  EXPECT_FALSE(packed->store.has_value());
  EXPECT_EQ(packed->ids, index.ids);
  // Opened as an engine it serves the rows, at generation and epoch 0, with
  // a freshly built IVF index.
  auto engine = ShardedEngine::Open(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->generation(), 0u);
  EXPECT_EQ(engine->epoch(), 0u);
  EXPECT_GT(engine->ivf_buckets(), 0);
  EXPECT_EQ(engine->alive_ids(), index.ids);
}

TEST(IndexIoTest, EndToEndServeFromDisk) {
  // Build an index, persist its dimension + vectors, reload, and verify a
  // query answered from the reloaded artifacts matches the live index.
  ChemGenOptions gen;
  gen.num_graphs = 40;
  GraphDatabase db = GenerateChemDatabase(gen);
  IndexOptions options;
  options.selector = "DSPM";
  options.p = 24;
  options.mining.min_support = 0.1;
  options.mining.max_edges = 4;
  Result<GraphSearchIndex> index = GraphSearchIndex::Build(db, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  PersistedIndex p;
  p.features = index->dimension();
  p.db_bits = index->mapped_database();
  std::string path = ::testing::TempDir() + "/gdim_served.idx";
  ASSERT_TRUE(WriteIndexFile(p, path).ok());
  Result<PersistedIndex> back = ReadIndexFile(path);
  ASSERT_TRUE(back.ok());

  GraphDatabase queries = GenerateChemQueries(gen, 3);
  FeatureMapper mapper(back->features);
  for (const Graph& q : queries) {
    Ranking from_disk = MappedRanking(mapper.Map(q), back->db_bits);
    Ranking live = index->Query(q, static_cast<int>(db.size()));
    ASSERT_EQ(from_disk.size(), live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(from_disk[i].id, live[i].id);
      EXPECT_DOUBLE_EQ(from_disk[i].score, live[i].score);
    }
  }
}

}  // namespace
}  // namespace gdim
