#include "core/index_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/packed_bits.h"
#include "graph/graph_io.h"

namespace gdim {

namespace {

constexpr char kV1Magic[] = "gdim-index v1";
constexpr char kV2Magic[8] = {'G', 'D', 'I', 'M', 'I', 'D', 'X', '2'};
constexpr uint32_t kV2HeaderVersion = 2;
constexpr uint32_t kV2EndianTag = 0x01020304;
constexpr char kV3Magic[8] = {'G', 'D', 'I', 'M', 'I', 'D', 'X', '3'};
constexpr uint32_t kV3HeaderVersion = 3;

// The v3 section tags, exactly as they appear on disk. Keep the
// `constexpr char kSection...[5] = "...."` shape: tools/check_invariants.py
// greps it to cross-check the tag table in docs/protocol.md.
constexpr char kSectionDims[5] = "DIMS";
constexpr char kSectionMeta[5] = "META";
constexpr char kSectionStor[5] = "STOR";
constexpr char kSectionIvfx[5] = "IVFX";  // legacy: skipped, never written

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  return static_cast<bool>(
      in.read(reinterpret_cast<char*>(value), sizeof(*value)));
}

/// A section tag rendered printably for error messages (hostile bytes
/// become '?').
std::string TagName(const char tag[4]) {
  std::string name;
  for (int i = 0; i < 4; ++i) {
    const char c = tag[i];
    name += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return name;
}

bool TagIs(const char tag[4], const char (&want)[5]) {
  return std::memcmp(tag, want, 4) == 0;
}

Result<PersistedIndex> ReadIndexFileV1(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::ParseError("bad magic: expected 'gdim-index v1'");
  }
  StripTrailingCarriageReturn(&line);
  if (line != kV1Magic) {
    return Status::ParseError("bad magic: expected 'gdim-index v1'");
  }
  std::string tag;
  size_t p = 0;
  in >> tag >> p;
  if (!in || tag != "features") {
    return Status::ParseError("expected 'features <p>'");
  }
  std::getline(in, line);  // consume EOL
  // Read exactly p graphs: collect the lines until the 'vectors' header.
  std::ostringstream graph_text;
  while (std::getline(in, line)) {
    StripTrailingCarriageReturn(&line);
    if (line.rfind("vectors ", 0) == 0) break;
    graph_text << line << "\n";
  }
  std::istringstream graph_stream(graph_text.str());
  Result<GraphDatabase> features = ReadGraphStream(graph_stream);
  if (!features.ok()) return features.status();
  if (features->size() != p) {
    return Status::ParseError("feature count mismatch");
  }
  size_t n = 0, width = 0;
  {
    std::istringstream header(line);
    header >> tag >> n >> width;
    if (!header || tag != "vectors") {
      return Status::ParseError("expected 'vectors <n> <p>'");
    }
  }
  if (width != p) {
    return Status::ParseError("vector width does not match feature count");
  }
  PersistedIndex out;
  out.features = std::move(features).value();
  out.db_bits.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!std::getline(in, line)) {
      return Status::ParseError("bad vector row " + std::to_string(i));
    }
    StripTrailingCarriageReturn(&line);
    if (line.size() != p) {
      return Status::ParseError("bad vector row " + std::to_string(i));
    }
    std::vector<uint8_t> row(p);
    for (size_t r = 0; r < p; ++r) {
      if (line[r] != '0' && line[r] != '1') {
        return Status::ParseError("vector bits must be 0/1");
      }
      row[r] = line[r] == '1' ? 1 : 0;
    }
    out.db_bits.push_back(std::move(row));
  }
  return out;
}

/// Parses the dimension body — p, feature text, n, words_per_row, next_id,
/// the packed word block, the id block — consuming exactly region_bytes
/// from the stream. Shared by the v2 reader (the region is the whole file
/// after the fixed header) and the v3 DIMS section (the region is the
/// section payload). Every untrusted field is bounded before any
/// allocation: a corrupt region must come back as a Status, never as
/// std::terminate or an over-read into a sibling section.
Result<PackedIndex> ReadDimsRegion(std::istream& in, uint64_t region_bytes) {
  uint64_t left = region_bytes;
  uint64_t p = 0, feature_bytes = 0;
  if (left < 16 || !ReadPod(in, &p) || !ReadPod(in, &feature_bytes)) {
    return Status::ParseError("truncated dimension header");
  }
  left -= 16;
  if (p > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::ParseError("feature count out of range");
  }
  if (feature_bytes > left) {
    return Status::ParseError("feature section larger than file");
  }
  std::string feature_text(feature_bytes, '\0');
  if (feature_bytes > 0 &&
      !in.read(feature_text.data(),
               static_cast<std::streamsize>(feature_bytes))) {
    return Status::ParseError("truncated feature section");
  }
  left -= feature_bytes;
  std::istringstream feature_stream(feature_text);
  Result<GraphDatabase> features = ReadGraphStream(feature_stream);
  if (!features.ok()) return features.status();
  if (features->size() != p) {
    return Status::ParseError("feature count mismatch");
  }

  uint64_t n = 0, words_per_row = 0, next_id = 0;
  if (left < 24 || !ReadPod(in, &n) || !ReadPod(in, &words_per_row) ||
      !ReadPod(in, &next_id)) {
    return Status::ParseError("truncated vector header");
  }
  left -= 24;
  if (n > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::ParseError("vector count out of range");
  }
  if (next_id > static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
      next_id < n) {
    return Status::ParseError("next_id out of range");
  }
  if (words_per_row != (p + 63) / 64) {
    return Status::ParseError("vector word stride does not match width");
  }
  // The word block plus the id block must be exactly the rest of the
  // region: rejects truncation, trailing garbage, and adversarial row
  // counts before any allocation (every row costs 8 id bytes even at
  // p == 0).
  if (words_per_row != 0 &&
      n > std::numeric_limits<uint64_t>::max() / words_per_row / 8) {
    return Status::ParseError("vector count overflows");
  }
  const uint64_t need = n * words_per_row * 8 + n * 8;
  if (need != left) {
    return Status::ParseError("vector block size mismatch: expected " +
                              std::to_string(need) + " bytes, got " +
                              std::to_string(left));
  }

  PackedIndex out;
  out.features = std::move(features).value();
  // The whole vector block in one read, straight into the word storage the
  // scan kernels use — no per-bit unpack, no per-row byte materialization.
  std::vector<uint64_t> words(n * words_per_row);
  if (!words.empty() &&
      !in.read(reinterpret_cast<char*>(words.data()),
               static_cast<std::streamsize>(words.size() *
                                            sizeof(uint64_t)))) {
    return Status::ParseError("truncated vector block");
  }
  out.rows = PackedBitMatrix::FromWords(static_cast<int>(n),
                                        static_cast<int>(p),
                                        std::move(words));
  out.ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    if (!ReadPod(in, &id)) {
      return Status::ParseError("truncated id block");
    }
    // Cap at INT_MAX - 1 so the engine's next_id = last id + 1 cannot
    // overflow int.
    if (id >= static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
        (i > 0 && static_cast<int>(id) <= out.ids.back())) {
      return Status::ParseError("ids must be strictly ascending and in range");
    }
    out.ids.push_back(static_cast<int>(id));
  }
  if (!out.ids.empty() &&
      static_cast<int64_t>(next_id) <= int64_t{out.ids.back()}) {
    return Status::ParseError("next_id out of range");
  }
  out.next_id = static_cast<int>(next_id);
  return out;
}

Result<PackedIndex> ReadIndexFileV2Packed(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  char magic[sizeof(kV2Magic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kV2Magic, sizeof(magic)) != 0) {
    return Status::ParseError("bad v2 magic");
  }
  uint32_t header_version = 0, endian_tag = 0;
  if (!ReadPod(in, &header_version) || header_version != kV2HeaderVersion) {
    return Status::ParseError("unsupported v2 header version");
  }
  if (!ReadPod(in, &endian_tag) || endian_tag != kV2EndianTag) {
    return Status::ParseError("index written with foreign byte order");
  }
  const std::streampos body_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const uint64_t region = static_cast<uint64_t>(in.tellg() - body_begin);
  in.seekg(body_begin);
  return ReadDimsRegion(in, region);
}

Result<PersistedMeta> ReadMetaSection(std::istream& in, uint64_t len) {
  PersistedMeta meta;
  if (len != 16) {
    return Status::ParseError("META section size mismatch");
  }
  if (!ReadPod(in, &meta.generation) || !ReadPod(in, &meta.epoch)) {
    return Status::ParseError("truncated META section");
  }
  return meta;
}

Result<PersistedStore> ReadStoreSection(std::istream& in, uint64_t len,
                                        const std::vector<int>& index_ids) {
  uint64_t left = len;
  uint64_t count = 0;
  if (left < 8 || !ReadPod(in, &count)) {
    return Status::ParseError("truncated store section");
  }
  left -= 8;
  // The store is the graphs behind the index rows, nothing more or less:
  // its ids must reproduce the DIMS ids exactly, so a restart seeds a
  // store that agrees with the engine row for row.
  if (count != index_ids.size()) {
    return Status::ParseError("store section row count does not match the index");
  }
  if (count > left / 8) {
    return Status::ParseError("store id block larger than section");
  }
  PersistedStore store;
  store.ids.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!ReadPod(in, &id)) {
      return Status::ParseError("truncated store section");
    }
    if (id != static_cast<uint64_t>(index_ids[i])) {
      return Status::ParseError("store section ids do not match the index ids");
    }
    store.ids.push_back(index_ids[i]);
  }
  left -= count * 8;
  uint64_t text_bytes = 0;
  if (left < 8 || !ReadPod(in, &text_bytes)) {
    return Status::ParseError("truncated store section");
  }
  left -= 8;
  if (text_bytes != left) {
    return Status::ParseError("store section size mismatch");
  }
  std::string text(text_bytes, '\0');
  if (text_bytes > 0 &&
      !in.read(text.data(), static_cast<std::streamsize>(text_bytes))) {
    return Status::ParseError("truncated store section");
  }
  std::istringstream stream(text);
  Result<GraphDatabase> graphs = ReadGraphStream(stream);
  if (!graphs.ok()) return graphs.status();
  if (graphs->size() != count) {
    return Status::ParseError("store graph count does not match the index");
  }
  store.graphs = std::move(graphs).value();
  return store;
}

Result<PackedIndex> ReadIndexFileV3Packed(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  char magic[sizeof(kV3Magic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kV3Magic, sizeof(magic)) != 0) {
    return Status::ParseError("bad v3 magic");
  }
  uint32_t header_version = 0, endian_tag = 0;
  if (!ReadPod(in, &header_version) || header_version != kV3HeaderVersion) {
    return Status::ParseError("unsupported v3 header version");
  }
  if (!ReadPod(in, &endian_tag) || endian_tag != kV2EndianTag) {
    return Status::ParseError("index written with foreign byte order");
  }
  const std::streampos sections_begin = in.tellg();
  in.seekg(0, std::ios::end);
  uint64_t left = static_cast<uint64_t>(in.tellg() - sections_begin);
  in.seekg(sections_begin);

  PackedIndex out;
  bool have_dims = false;
  while (left > 0) {
    if (left < 12) {
      return Status::ParseError("truncated section header");
    }
    char tag[4];
    uint64_t len = 0;
    if (!in.read(tag, sizeof(tag)) || !ReadPod(in, &len)) {
      return Status::ParseError("truncated section header");
    }
    left -= 12;
    // Bounding the payload by the actual bytes on disk (not the claimed
    // length) is what keeps every per-section allocation file-size-bounded.
    if (len > left) {
      return Status::ParseError("section '" + TagName(tag) +
                                "' larger than file");
    }
    if (TagIs(tag, kSectionDims)) {
      if (have_dims) {
        return Status::ParseError("duplicate DIMS section");
      }
      Result<PackedIndex> dims = ReadDimsRegion(in, len);
      if (!dims.ok()) return dims.status();
      out = std::move(dims).value();
      have_dims = true;
    } else if (!have_dims) {
      // Later sections validate against the DIMS ids, so DIMS leads.
      return Status::ParseError("first section must be DIMS");
    } else if (TagIs(tag, kSectionMeta)) {
      if (out.meta.has_value()) {
        return Status::ParseError("duplicate META section");
      }
      Result<PersistedMeta> meta = ReadMetaSection(in, len);
      if (!meta.ok()) return meta.status();
      out.meta = std::move(meta).value();
    } else if (TagIs(tag, kSectionStor)) {
      if (out.store.has_value()) {
        return Status::ParseError("duplicate STOR section");
      }
      Result<PersistedStore> store = ReadStoreSection(in, len, out.ids);
      if (!store.ok()) return store.status();
      out.store = std::move(store).value();
    } else if (TagIs(tag, kSectionIvfx)) {
      // Legacy IVF layout from an older writer: the index is rebuilt from
      // the DIMS rows, so the payload is skipped unread.
      in.seekg(static_cast<std::streamoff>(len), std::ios::cur);
    } else {
      return Status::ParseError("unknown section tag '" + TagName(tag) + "'");
    }
    left -= len;
  }
  if (!have_dims) {
    return Status::ParseError("missing DIMS section");
  }
  return out;
}

/// Legacy byte-row view of a packed load: unpack the rows, drop the
/// sections. Only the paths that manipulate rows as bytes (`gdim_tool
/// query`, tests) pay for this; the serving load path stays packed.
Result<PersistedIndex> UnpackToBytes(Result<PackedIndex> packed) {
  if (!packed.ok()) return packed.status();
  PersistedIndex out;
  out.features = std::move(packed->features);
  out.db_bits.reserve(static_cast<size_t>(packed->rows.num_rows()));
  for (int i = 0; i < packed->rows.num_rows(); ++i) {
    out.db_bits.push_back(packed->rows.UnpackRow(i));
  }
  out.ids = std::move(packed->ids);
  out.next_id = packed->next_id;
  return out;
}

/// Writer-side validation of the row/id arguments. Returns the
/// normalized next_id (-1 = derive resolved to one past the largest id).
Result<int> ValidateRowIds(size_t p, uint64_t n, uint64_t words_per_row,
                           const std::vector<int>& ids, int next_id) {
  if (words_per_row != (p + 63) / 64) {
    return Status::InvalidArgument("word stride does not match width");
  }
  if (!ids.empty()) {
    if (ids.size() != n) {
      return Status::InvalidArgument("id count does not match row count");
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      // Mirror the reader's cap (INT_MAX is reserved so next_id can't
      // overflow): never emit a file our own reader refuses.
      if (ids[i] < 0 || ids[i] == std::numeric_limits<int>::max() ||
          (i > 0 && ids[i] <= ids[i - 1])) {
        return Status::InvalidArgument(
            "ids must be strictly ascending and in range");
      }
    }
  }
  const int64_t min_next_id =
      ids.empty() ? static_cast<int64_t>(n) : int64_t{ids.back()} + 1;
  if (next_id < 0) {
    next_id = static_cast<int>(min_next_id);
  } else if (next_id < min_next_id) {
    return Status::InvalidArgument("next_id must exceed every persisted id");
  }
  return next_id;
}

/// Streams the dimension body (the v3 DIMS payload; also the v2 layout after
/// its fixed header, which is why v2 files remain readable).
void WriteDimsBody(std::ostream& out, size_t p, const std::string& feature_str,
                   uint64_t n, uint64_t words_per_row,
                   const std::function<const uint64_t*(uint64_t)>& row_words,
                   const std::vector<int>& ids, int next_id) {
  WritePod(out, static_cast<uint64_t>(p));
  WritePod(out, static_cast<uint64_t>(feature_str.size()));
  out.write(feature_str.data(),
            static_cast<std::streamsize>(feature_str.size()));
  WritePod(out, n);
  WritePod(out, words_per_row);
  WritePod(out, static_cast<uint64_t>(next_id));
  if (words_per_row > 0) {  // zero-width rows occupy no bytes
    for (uint64_t i = 0; i < n; ++i) {
      out.write(
          reinterpret_cast<const char*>(row_words(i)),
          static_cast<std::streamsize>(words_per_row * sizeof(uint64_t)));
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    WritePod(out, ids.empty() ? i : static_cast<uint64_t>(ids[i]));
  }
}

}  // namespace

Status WriteIndexFileV3Words(
    const GraphDatabase& features, uint64_t n, uint64_t words_per_row,
    const std::function<const uint64_t*(uint64_t)>& row_words,
    const std::vector<int>& ids, int next_id, const V3Sections& sections,
    const std::string& path) {
  const size_t p = features.size();
  Result<int> normalized = ValidateRowIds(p, n, words_per_row, ids, next_id);
  if (!normalized.ok()) return normalized.status();

  // Mirror the reader-side section checks, so a snapshot can never emit a
  // file its own reader refuses (and a restart can never half-adopt).
  if ((sections.store_ids == nullptr) != (sections.store_graphs == nullptr)) {
    return Status::InvalidArgument("store ids and graphs must come together");
  }
  if (sections.store_ids != nullptr) {
    if (sections.store_ids->size() != n ||
        sections.store_graphs->size() != n) {
      return Status::InvalidArgument(
          "store section row count does not match the index");
    }
    for (uint64_t i = 0; i < n; ++i) {
      const int expect = ids.empty() ? static_cast<int>(i)
                                     : ids[static_cast<size_t>(i)];
      if ((*sections.store_ids)[static_cast<size_t>(i)] != expect) {
        return Status::InvalidArgument(
            "store section ids do not match the index ids");
      }
    }
  }
  std::ostringstream feature_text;
  WriteGraphStream(features, feature_text);
  const std::string feature_str = feature_text.str();

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(kV3Magic, sizeof(kV3Magic));
  WritePod(out, kV3HeaderVersion);
  WritePod(out, kV2EndianTag);

  // DIMS — always present, always first (readers validate later sections
  // against its id block).
  const uint64_t dims_len =
      16 + feature_str.size() + 24 + n * words_per_row * 8 + n * 8;
  out.write(kSectionDims, 4);
  WritePod(out, dims_len);
  WriteDimsBody(out, p, feature_str, n, words_per_row, row_words, ids,
                *normalized);

  if (sections.meta != nullptr) {
    out.write(kSectionMeta, 4);
    WritePod(out, static_cast<uint64_t>(16));
    WritePod(out, sections.meta->generation);
    WritePod(out, sections.meta->epoch);
  }

  if (sections.store_ids != nullptr) {
    std::ostringstream store_text;
    WriteGraphStream(*sections.store_graphs, store_text);
    const std::string store_str = store_text.str();
    const uint64_t store_len = 8 + n * 8 + 8 + store_str.size();
    out.write(kSectionStor, 4);
    WritePod(out, store_len);
    WritePod(out, n);
    for (uint64_t i = 0; i < n; ++i) {
      WritePod(out,
               static_cast<uint64_t>((*sections.store_ids)[
                   static_cast<size_t>(i)]));
    }
    WritePod(out, static_cast<uint64_t>(store_str.size()));
    out.write(store_str.data(),
              static_cast<std::streamsize>(store_str.size()));
  }

  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status WritePackedIndexFile(const PackedIndex& index,
                            const std::string& path) {
  if (index.rows.num_bits() != static_cast<int>(index.features.size())) {
    return Status::InvalidArgument("bit row width mismatch");
  }
  // Every section the index carries is written back, so a read-then-write
  // of a v3 file reproduces it (the writer's section order is the only
  // one it emits).
  V3Sections sections;
  if (index.meta.has_value()) sections.meta = &*index.meta;
  if (index.store.has_value()) {
    sections.store_ids = &index.store->ids;
    sections.store_graphs = &index.store->graphs;
  }
  return WriteIndexFileV3Words(
      index.features, static_cast<uint64_t>(index.rows.num_rows()),
      static_cast<uint64_t>(index.rows.words_per_row()),
      [&](uint64_t i) { return index.rows.row(static_cast<int>(i)); },
      index.ids, index.next_id, sections, path);
}

Status WriteIndexFile(const PersistedIndex& index, const std::string& path,
                      IndexFormat /*format*/) {
  const size_t p = index.features.size();
  for (const auto& row : index.db_bits) {
    if (row.size() != p) {
      return Status::InvalidArgument("bit row width mismatch");
    }
  }
  PackedIndex packed;
  packed.features = index.features;
  packed.rows = PackedBitMatrix::FromRows(index.db_bits, static_cast<int>(p));
  packed.ids = index.ids;
  packed.next_id = index.next_id;
  return WritePackedIndexFile(packed, path);
}

namespace {

enum class SniffedFormat { kV1, kV2, kV3 };

/// Sniffs the binary magics; short files simply fail the memcmp and fall
/// through to the v1 text parser.
Result<SniffedFormat> SniffFormat(const std::string& path) {
  char magic[sizeof(kV2Magic)] = {};
  std::ifstream sniff(path, std::ios::binary);
  if (!sniff) return Status::IoError("cannot open for reading: " + path);
  sniff.read(magic, sizeof(magic));
  if (std::memcmp(magic, kV2Magic, sizeof(kV2Magic)) == 0) {
    return SniffedFormat::kV2;
  }
  if (std::memcmp(magic, kV3Magic, sizeof(kV3Magic)) == 0) {
    return SniffedFormat::kV3;
  }
  return SniffedFormat::kV1;
}

}  // namespace

Result<PersistedIndex> ReadIndexFile(const std::string& path) {
  Result<SniffedFormat> format = SniffFormat(path);
  if (!format.ok()) return format.status();
  // Backstop for header fields the size checks cannot bound (e.g. a v1
  // 'vectors <n>' count or a v2 row count at p == 0, where rows occupy no
  // file bytes): a hostile count must surface as a Status, not terminate
  // the process through an uncaught allocation failure.
  try {
    switch (*format) {
      case SniffedFormat::kV2:
        return UnpackToBytes(ReadIndexFileV2Packed(path));
      case SniffedFormat::kV3:
        return UnpackToBytes(ReadIndexFileV3Packed(path));
      case SniffedFormat::kV1:
        break;
    }
    return ReadIndexFileV1(path);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("index too large to load: " + path);
  } catch (const std::length_error&) {
    return Status::ResourceExhausted("index too large to load: " + path);
  }
}

Result<PackedIndex> ReadIndexFilePacked(const std::string& path) {
  Result<SniffedFormat> format = SniffFormat(path);
  if (!format.ok()) return format.status();
  try {
    switch (*format) {
      case SniffedFormat::kV2:
        return ReadIndexFileV2Packed(path);
      case SniffedFormat::kV3:
        return ReadIndexFileV3Packed(path);
      case SniffedFormat::kV1:
        break;
    }
    Result<PersistedIndex> v1 = ReadIndexFileV1(path);
    if (!v1.ok()) return v1.status();
    PackedIndex out;
    out.rows = PackedBitMatrix::FromRows(
        v1->db_bits, static_cast<int>(v1->features.size()));
    out.features = std::move(v1->features);
    out.ids = std::move(v1->ids);
    out.next_id = v1->next_id;
    return out;
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("index too large to load: " + path);
  } catch (const std::length_error&) {
    return Status::ResourceExhausted("index too large to load: " + path);
  }
}

}  // namespace gdim
