#ifndef GDIM_CORE_TOPK_H_
#define GDIM_CORE_TOPK_H_

#include <cstdint>
#include <vector>

#include "core/packed_bits.h"
#include "graph/graph.h"
#include "mcs/dissimilarity.h"

namespace gdim {

/// One ranked answer: a database graph id and its score (dissimilarity or
/// mapped distance — smaller is better; for Tanimoto rankings the score is
/// 1 − similarity so that smaller stays better).
struct RankedResult {
  int id = 0;
  double score = 0.0;

  friend bool operator==(const RankedResult& a, const RankedResult& b) =
      default;
};

/// Full ranking (ascending score, ties broken by id — a deterministic total
/// order, applied identically to exact and approximate rankings so that ties
/// do not bias the quality measures).
using Ranking = std::vector<RankedResult>;

/// Ranks all database graphs by a precomputed score vector; ascending.
Ranking RankByScores(const std::vector<double>& scores);

/// First k of RankByScores(scores) without sorting the whole database:
/// nth_element partial selection plus a sort of the k survivors, with the
/// identical score-then-id tie-break, so the output equals
/// TopK(RankByScores(scores), k) entry for entry.
Ranking TopKByScores(const std::vector<double>& scores, int k);

/// One integer survivor of the serving scan: a Hamming distance and the
/// row it belongs to — a physical row inside a HammingTopK, an external id
/// once a shard has lifted it. Ordered by (distance, id), which is the
/// (score, id) order of the ranking it becomes.
struct HammingHit {
  uint32_t dist = 0;
  int id = 0;

  friend bool operator<(const HammingHit& a, const HammingHit& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
  }
  friend bool operator==(const HammingHit& a, const HammingHit& b) = default;
};

/// Survivors ascending by (distance, id).
using HammingHits = std::vector<HammingHit>;

/// Converts survivors to a ranking, each distance once to sqrt(d / p)
/// (score 0 when num_bits is 0, like PackedBitMatrix::NormalizedDistance).
/// The conversion is strictly monotone in d for a shared p, so the order is
/// kept.
Ranking ToRanking(const HammingHits& hits, int num_bits);

/// Bounded top-k over integer (Hamming distance, physical row) pairs: the
/// selection half of the serving scan, which never materializes a score
/// per row. Rows must be offered in strictly ascending order. A max-heap of
/// at most k entries keeps the k smallest pairs; since a newly offered row
/// is larger than every kept one, it belongs in the top k iff its distance
/// is strictly below the worst kept distance — one compare against
/// that threshold rejects everything else, and a tie never displaces an
/// earlier row.
///
/// sqrt(d / p) is strictly monotone in the integer d, so ordering by
/// (d, row) is ordering by (score, row); whenever external ids ascend with
/// physical rows (as every engine guarantees) ToRanking(Hits(row_ids), p)
/// equals TopK(RankByScores(scores), k) over the offered rows, bit for bit.
class HammingTopK {
 public:
  /// k <= 0 keeps nothing. max_rows bounds how many rows will be offered;
  /// it caps the heap reservation, so a huge k allocates nothing extra.
  HammingTopK(int k, int max_rows);

  void Offer(uint32_t dist, int row) {
    if (dist < threshold_) Admit(dist, row);
  }

  /// The survivors ascending by (distance, row); HammingHit::id is the
  /// physical row.
  HammingHits Hits() const;

  /// Hits() with each row lifted to its external id row_ids[row]; the
  /// order is kept because ids ascend with rows.
  HammingHits Hits(const std::vector<int>& row_ids) const;

 private:
  void Admit(uint32_t dist, int row);

  size_t k_;
  /// Offered distances strictly below this enter: the worst kept distance
  /// once k rows are kept, no limit before, and 0 (nothing) when k is 0.
  uint32_t threshold_;
  HammingHits heap_;  ///< max-heap by (dist, row)
};

/// The fused scan + select: scores every row of `rows` against num_queries
/// packed queries (PackQuery form) on ActiveScanKernel(), kScanBlockRows
/// rows per kernel call, and offers row i to selectors[q] as physical row
/// first_row + i — unless skip != nullptr and skip[i] != 0 (tombstones).
/// Distances live only in one num_queries x kScanBlockRows block of
/// scratch; nothing proportional to the row count is allocated.
void ScanTopK(const PackedBitMatrix& rows, const uint64_t* const* queries,
              int num_queries, const uint8_t* skip, int first_row,
              HammingTopK* selectors);

/// Exact ranking of db against query by MCS-based dissimilarity. This is the
/// costly reference path (the "Exact" algorithm of Exp-4/Exp-6).
Ranking ExactRanking(const Graph& query, const GraphDatabase& db,
                     DissimilarityKind kind = DissimilarityKind::kDelta2,
                     int threads = 0);

/// Approximate ranking by normalized Euclidean distance between binary
/// mapped vectors (sequential scan, as in the paper's query processing).
Ranking MappedRanking(const std::vector<uint8_t>& query_bits,
                      const std::vector<std::vector<uint8_t>>& db_bits);

/// Same ranking over the packed word layout: popcount Hamming scan instead
/// of a byte-compare loop. Bit-identical results to the byte overload.
Ranking MappedRanking(const std::vector<uint8_t>& query_bits,
                      const PackedBitMatrix& db_bits);

/// First k entries of a ranking (whole ranking if k >= size).
Ranking TopK(const Ranking& ranking, int k);

}  // namespace gdim

#endif  // GDIM_CORE_TOPK_H_
