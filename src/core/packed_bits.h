#ifndef GDIM_CORE_PACKED_BITS_H_
#define GDIM_CORE_PACKED_BITS_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace gdim {

/// Rows per scan-kernel call: 256 rows of up to a few hundred words keeps
/// the block plus the diff scratch comfortably inside L2 while amortizing
/// the virtual dispatch to nothing.
inline constexpr int kScanBlockRows = 256;

/// A binary n×p matrix packed row-major into 64-bit words, the scan layout of
/// the online query path: one database graph's mapped vector per row, rows
/// padded to a whole number of words so every row scan is an aligned
/// word-popcount loop instead of a byte-at-a-time compare.
///
/// The matrix carries its bit width even when it holds no rows, so query
/// validation works for empty databases, and it supports append-only growth
/// (the delta segment of a mutable QueryEngine shard).
///
/// Distances computed here are bit-identical to the byte-vector reference
/// (BinaryMappedDistance): the Hamming count is exact and the normalized form
/// evaluates the same sqrt(diff / p) expression. The serving scan never
/// converts per row: it selects the top k on the kernel's uint32 counts
/// (ScanTopK in core/topk.h) and takes the sqrt of the k survivors only.
class PackedBitMatrix {
 public:
  PackedBitMatrix() = default;

  /// An empty matrix of known width: AppendRow and PackQuery validate
  /// against num_bits from the start. The delta-segment constructor.
  static PackedBitMatrix WithWidth(int num_bits);

  /// Packs 0/1 byte rows (all the same length) into the word layout. The
  /// width is taken from the first row; an empty `rows` yields width 0 —
  /// pass the width explicitly via the two-argument overload when the
  /// matrix may be empty.
  static PackedBitMatrix FromRows(const std::vector<std::vector<uint8_t>>& rows);

  /// FromRows with an explicit width; every row must have exactly num_bits
  /// bits, and an empty `rows` still produces a width-num_bits matrix.
  static PackedBitMatrix FromRows(const std::vector<std::vector<uint8_t>>& rows,
                                  int num_bits);

  /// Adopts raw packed words already in the scan layout (num_rows rows of
  /// ceil(num_bits / 64) words each, bit r of a row at word r/64, bit r%64).
  /// words.size() must equal num_rows * words_per_row. Padding bits beyond
  /// num_bits in each row's last word are masked to zero, so a matrix built
  /// from untrusted words (a v2/v3 snapshot block read) still computes
  /// exact Hamming distances. The zero-copy load path of
  /// ShardedEngine::Open.
  static PackedBitMatrix FromWords(int num_rows, int num_bits,
                                   std::vector<uint64_t> words);

  /// Packs one 0/1 byte vector into words (query-side fingerprint packing).
  static std::vector<uint64_t> PackBits(const std::vector<uint8_t>& bits);

  /// PackBits padded to words_per_row() — the query-side form every scan
  /// kernel expects. The width must match the matrix width exactly; an
  /// empty database no longer accepts queries of arbitrary width (build
  /// the matrix with an explicit width for that check to bite).
  std::vector<uint64_t> PackQuery(const std::vector<uint8_t>& bits) const {
    GDIM_CHECK(bits.size() == static_cast<size_t>(num_bits_))
        << "query width " << bits.size()
        << " does not match packed database width " << num_bits_;
    std::vector<uint64_t> words = PackBits(bits);
    words.resize(words_per_row_, 0);
    return words;
  }

  int num_rows() const { return num_rows_; }
  int num_bits() const { return num_bits_; }
  size_t words_per_row() const { return words_per_row_; }

  /// Reserves storage for `rows` total rows (no-op if already larger).
  void Reserve(int rows);

  /// Appends one 0/1 byte row (width must equal num_bits()); returns the
  /// new row's index. Amortized O(p/64) via vector growth.
  int AppendRow(const std::vector<uint8_t>& bits);

  /// Appends a copy of src's row src_row as a word-level copy — no
  /// unpack/repack round trip. Widths must match. The compaction kernel.
  int AppendRowFrom(const PackedBitMatrix& src, int src_row);

  /// Word pointer of row i (words_per_row() words).
  const uint64_t* row(int i) const {
    GDIM_DCHECK(i >= 0 && i < num_rows_);
    return words_.data() + static_cast<size_t>(i) * words_per_row_;
  }

  /// Bit (row, bit) as stored; for tests and bit-exact comparisons.
  bool GetBit(int row_id, int bit) const;

  /// Row i back as a 0/1 byte vector of num_bits() entries (snapshots,
  /// compaction, and round-trip tests).
  std::vector<uint8_t> UnpackRow(int row_id) const;

  /// Hamming distance between a packed query (from PackBits, same width) and
  /// row i.
  int HammingDistance(const std::vector<uint64_t>& query, int row_id) const;

  /// Normalized Euclidean distance sqrt(hamming / p) to row i; equals
  /// BinaryMappedDistance on the unpacked vectors bit for bit.
  double NormalizedDistance(const std::vector<uint64_t>& query,
                            int row_id) const;

  /// Scores every row against the packed query into *scores (resized to
  /// num_rows()) on the process's ActiveScanKernel(), in cache-resident row
  /// blocks; every kernel is bit-identical to scalar. The ranking reference
  /// (MappedRanking) — serving selects on integer counts instead.
  void ScoreAll(const std::vector<uint64_t>& query,
                std::vector<double>* scores) const;

 private:
  int num_rows_ = 0;
  int num_bits_ = 0;
  size_t words_per_row_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace gdim

#endif  // GDIM_CORE_PACKED_BITS_H_
