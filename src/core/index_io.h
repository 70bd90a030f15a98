#ifndef GDIM_CORE_INDEX_IO_H_
#define GDIM_CORE_INDEX_IO_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/packed_bits.h"
#include "graph/graph.h"

namespace gdim {

/// On-disk form of a built graph dimension: the selected feature graphs plus
/// the mapped binary database vectors. Lets an application build once
/// (mining + MCS + selection are the expensive part) and serve queries from
/// a cold start. Three versioned formats have readers (ReadIndexFile and
/// ReadIndexFilePacked sniff the magic); one, v3, has a writer. v1 and v2
/// are legacy: files in them still load unchanged, and `gdim_tool convert`
/// upgrades them to v3.
///
/// v1 — human-readable text, parsed digit by digit (read only):
///
///   gdim-index v1
///   features <p>
///   <p feature graphs in gSpan format>
///   vectors <n> <p>
///   <n lines of 0/1 digits>
///
/// v2 — binary snapshot, loaded in O(read) (no per-bit text parsing; read
/// only):
///
///   bytes 0..7   magic "GDIMIDX2"
///   u32          header version (2)
///   u32          endianness tag 0x01020304 (readers reject foreign order)
///   u64          p  (feature count)
///   u64          feature text length in bytes
///   ...          feature graphs in gSpan text (p graphs; small)
///   u64          n  (vector count)
///   u64          words_per_row = ceil(p / 64)
///   u64          next_id (> every persisted id; the id counter survives
///                reloads so removed graphs' ids are never re-issued)
///   ...          n * words_per_row u64 packed bit words in host byte order
///                (the endianness tag rejects foreign files), row-major,
///                bit r of a row at word r/64, bit r%64
///   ...          n u64 external graph ids, strictly ascending
///
/// v3 — sectioned (TLV) snapshot that persists the FULL serving state, so a
/// reindexed server restarts durably from the snapshot alone (no --db) and
/// reload skips the O(n·sqrt(n)) IVF rebuild. The only format written:
///
///   bytes 0..7   magic "GDIMIDX3"
///   u32          header version (3)
///   u32          endianness tag 0x01020304
///   ...          sections until EOF, each:
///                  4 bytes   section tag (ASCII, e.g. "DIMS")
///                  u64       payload length in bytes
///                  ...       payload (exactly that many bytes)
///
/// Section payloads (DIMS is required and must come first — later sections
/// validate against its ids; the rest are optional, each at most once):
///
///   DIMS   the v2 body verbatim: p, feature text length, feature text, n,
///          words_per_row, next_id, the packed word block, the id block.
///   META   u64 dimension generation, u64 epoch — restored on load so the
///          result cache can never replay a pre-restart answer.
///   STOR   the live GraphStore: u64 count, count u64 ids (must equal the
///          DIMS ids exactly), u64 text length, the graphs in gSpan text in
///          id order. Lets serve-net restart (and REINDEX) without --db.
///   IVFX   the IVF candidate-pruning layout in EXTERNAL id space: u64
///          bucket count, u64 num_bits (= p), u64 words_per_centroid, then
///          per bucket the centroid words, u64 posting count (> 0), and the
///          ascending posting ids. Only live postings of non-empty buckets
///          are written (source shards' buckets concatenated in shard
///          order); together they must cover the DIMS ids exactly once, so
///          any shard count can re-partition them on load without a
///          rebuild.
///
/// Unknown, duplicated, truncated, or oversized sections are rejected with
/// typed errors — never a crash or a partial adopt. v1/v2 files (and v3
/// files without the optional sections, such as a fresh `build`) still
/// load; absent sections mean generation/epoch start at 0, no embedded
/// store, and a from-scratch IVF build.
///
/// The vectors — the part that scales with database size — are the raw
/// packed words of the serving scan layout, so a snapshot load is a block
/// read instead of an O(n·p) character parse. The id block is what keeps
/// external ids stable across a snapshot/reload cycle of a mutated engine
/// (v1 files carry no ids: row i has id i).
struct PersistedIndex {
  GraphDatabase features;
  std::vector<std::vector<uint8_t>> db_bits;
  /// External graph id per row, strictly ascending. Empty means positional
  /// (row i has id i): the v1 reader and fresh builds leave it empty; the
  /// v2/v3 readers always fill it.
  std::vector<int> ids;
  /// The id the next inserted graph gets. -1 (v1 files, fresh builds) means
  /// "derive": one past the largest persisted id. v2/v3 persist the counter
  /// so a snapshot/reload cycle never re-issues a removed graph's id.
  int next_id = -1;
};

/// v3 META section: the serving counters a durable restart must carry over.
struct PersistedMeta {
  uint64_t generation = 0;
  uint64_t epoch = 0;
};

/// v3 STOR section: the live GraphStore in id order. ids always equals the
/// index's id list (the reader enforces it), so a restarted server can seed
/// its store without the original --db file.
struct PersistedStore {
  std::vector<int> ids;
  GraphDatabase graphs;
};

/// One v3 IVFX bucket: the medoid centroid (packed words, same stride as
/// the rows) plus its live posting ids, ascending, in EXTERNAL id space.
struct PersistedIvfBucket {
  std::vector<uint64_t> centroid_words;
  std::vector<int> ids;
};

/// v3 IVFX section: the persisted IVF layout. Buckets appear in source
/// shard order; their postings partition the index ids exactly.
struct PersistedIvf {
  int num_bits = 0;
  std::vector<PersistedIvfBucket> buckets;
};

/// A persisted index loaded directly into the serving scan layout: the rows
/// live in a PackedBitMatrix instead of per-row byte vectors. For v2/v3
/// files the word block is adopted wholesale — one block read, no
/// unpack-to-bytes detour — which is what makes a cold engine start O(read)
/// on large databases. v1 text files are packed row by row on load. Id
/// semantics match PersistedIndex. The optional fields carry the v3
/// sections when the file has them (v1/v2 loads leave them empty); the
/// byte-view ReadIndexFile drops them.
struct PackedIndex {
  GraphDatabase features;
  PackedBitMatrix rows;
  std::vector<int> ids;
  int next_id = -1;
  std::optional<PersistedMeta> meta;
  std::optional<PersistedStore> store;
  std::optional<PersistedIvf> ivf;
};

/// The written format. v3 is the only one; the argument is kept for
/// callers that still spell it out.
enum class IndexFormat {
  kV3Sectioned,
};

/// Writes the dimension + mapped vectors to path as a DIMS-only v3 file;
/// rejects ragged rows. The streaming WriteIndexFileV3Words is the way to
/// persist the optional sections.
Status WriteIndexFile(const PersistedIndex& index, const std::string& path,
                      IndexFormat format = IndexFormat::kV3Sectioned);

/// Writes a packed index as v3 with every section it carries (META, STOR,
/// IVFX when present). ReadIndexFilePacked followed by this call is
/// `gdim_tool convert`: it upgrades v1/v2 files to v3 and reproduces a
/// file this writer emitted byte for byte.
Status WritePackedIndexFile(const PackedIndex& index, const std::string& path);

/// The optional v3 sections, borrowed for the duration of a
/// WriteIndexFileV3Words call. store_ids/store_graphs come as a pair (the
/// frozen-store shape) so a background snapshot never copies the graph set;
/// both or neither must be set.
struct V3Sections {
  const PersistedMeta* meta = nullptr;
  const std::vector<int>* store_ids = nullptr;
  const GraphDatabase* store_graphs = nullptr;
  const PersistedIvf* ivf = nullptr;
};

/// Streaming v3 writer: emits n rows of words_per_row packed words obtained
/// from row_words(i) — already in the scan layout — without materializing
/// byte vectors, plus the optional sections. words_per_row must equal
/// ceil(features.size() / 64); ids must be strictly ascending with n
/// entries, or empty for positional (0..n-1); next_id must exceed every id
/// (-1 = derive). The writer mirrors every reader-side check (store ids
/// must equal the index ids; IVF buckets must be non-empty, ascending, and
/// cover the ids exactly once) so it can never emit a file its own reader
/// refuses.
Status WriteIndexFileV3Words(
    const GraphDatabase& features, uint64_t n, uint64_t words_per_row,
    const std::function<const uint64_t*(uint64_t)>& row_words,
    const std::vector<int>& ids, int next_id, const V3Sections& sections,
    const std::string& path);

/// Reads a persisted index of any format (sniffed from the magic);
/// validates shape and bit values. v3 section payloads beyond the
/// dimension itself are validated but dropped — use ReadIndexFilePacked to
/// consume them.
Result<PersistedIndex> ReadIndexFile(const std::string& path);

/// Reads a persisted index of any format straight into the packed scan
/// layout. For v2/v3 files the vector block is a single block read into the
/// matrix storage (padding bits are masked); v1 falls back to the text
/// parser plus a pack. The load path of ShardedEngine::Open; v3 section
/// payloads come back in PackedIndex::meta/store/ivf.
Result<PackedIndex> ReadIndexFilePacked(const std::string& path);

}  // namespace gdim

#endif  // GDIM_CORE_INDEX_IO_H_
