#include "core/topk.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/parallel.h"
#include "core/kernels/scan_kernel.h"
#include "core/objective.h"

namespace gdim {

namespace {

/// The one total order every ranking path uses: ascending score, id
/// tie-break. Shared so exact, byte-scan, packed-scan, and partial top-k
/// outputs stay mutually consistent.
inline bool RankedBefore(const RankedResult& a, const RankedResult& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.id < b.id;
}

/// Unsorted ranking over ids 0..n-1.
Ranking MakeRanking(const std::vector<double>& scores) {
  Ranking r;
  r.reserve(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    r.push_back(RankedResult{static_cast<int>(i), scores[i]});
  }
  return r;
}

}  // namespace

Ranking RankByScores(const std::vector<double>& scores) {
  Ranking r = MakeRanking(scores);
  std::sort(r.begin(), r.end(), RankedBefore);
  return r;
}

namespace {

/// nth_element partial selection + sort of the k survivors; consumes r.
Ranking SelectTopK(Ranking r, int k) {
  GDIM_CHECK(k >= 0);
  if (k < static_cast<int>(r.size())) {
    std::nth_element(r.begin(), r.begin() + k, r.end(), RankedBefore);
    r.resize(static_cast<size_t>(k));
  }
  std::sort(r.begin(), r.end(), RankedBefore);
  return r;
}

}  // namespace

Ranking TopKByScores(const std::vector<double>& scores, int k) {
  return SelectTopK(MakeRanking(scores), k);
}

HammingTopK::HammingTopK(int k, int max_rows)
    : k_(static_cast<size_t>(std::max(k, 0))),
      threshold_(k > 0 ? std::numeric_limits<uint32_t>::max() : 0) {
  heap_.reserve(std::min(k_, static_cast<size_t>(std::max(max_rows, 0))));
}

void HammingTopK::Admit(uint32_t dist, int row) {
  if (heap_.size() < k_) {
    heap_.push_back(HammingHit{dist, row});
    std::push_heap(heap_.begin(), heap_.end());
    if (heap_.size() < k_) return;
  } else {
    // Full: the offered row beats the worst kept one; replace it.
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = HammingHit{dist, row};
    std::push_heap(heap_.begin(), heap_.end());
  }
  threshold_ = heap_.front().dist;
}

HammingHits HammingTopK::Hits() const {
  HammingHits kept = heap_;
  std::sort(kept.begin(), kept.end());
  return kept;
}

HammingHits HammingTopK::Hits(const std::vector<int>& row_ids) const {
  HammingHits hits = Hits();
  for (HammingHit& hit : hits) hit.id = row_ids[static_cast<size_t>(hit.id)];
  return hits;
}

Ranking ToRanking(const HammingHits& hits, int num_bits) {
  Ranking top;
  top.reserve(hits.size());
  const double p = static_cast<double>(num_bits);
  for (const HammingHit& hit : hits) {
    const double score =
        num_bits == 0 ? 0.0 : std::sqrt(static_cast<double>(hit.dist) / p);
    top.push_back(RankedResult{hit.id, score});
  }
  return top;
}

void ScanTopK(const PackedBitMatrix& rows, const uint64_t* const* queries,
              int num_queries, const uint8_t* skip, int first_row,
              HammingTopK* selectors) {
  const int num_rows = rows.num_rows();
  if (num_queries <= 0 || num_rows == 0) return;
  const ScanKernel& kernel = ActiveScanKernel();
  const size_t words = rows.words_per_row();
  std::vector<uint32_t> diffs(static_cast<size_t>(num_queries) *
                              kScanBlockRows);
  for (int begin = 0; begin < num_rows; begin += kScanBlockRows) {
    const int block = std::min(kScanBlockRows, num_rows - begin);
    // Zero-width rows are all at distance 0 (diffs stays zeroed); the
    // kernels are never asked to scan zero words.
    if (words > 0) {
      kernel.HammingBlockMulti(queries, num_queries, rows.row(begin), words,
                               block, diffs.data());
    }
    const uint8_t* block_skip = skip == nullptr ? nullptr : skip + begin;
    for (int q = 0; q < num_queries; ++q) {
      HammingTopK& selector = selectors[q];
      const uint32_t* d = diffs.data() + static_cast<size_t>(q) * block;
      for (int i = 0; i < block; ++i) {
        if (block_skip != nullptr && block_skip[i] != 0) continue;
        selector.Offer(d[i], first_row + begin + i);
      }
    }
  }
}

Ranking ExactRanking(const Graph& query, const GraphDatabase& db,
                     DissimilarityKind kind, int threads) {
  std::vector<double> scores(db.size(), 0.0);
  ParallelFor(
      0, static_cast<int>(db.size()),
      [&](int i) {
        scores[static_cast<size_t>(i)] =
            GraphDissimilarity(query, db[static_cast<size_t>(i)], kind);
      },
      threads);
  return RankByScores(scores);
}

Ranking MappedRanking(const std::vector<uint8_t>& query_bits,
                      const std::vector<std::vector<uint8_t>>& db_bits) {
  std::vector<double> scores(db_bits.size(), 0.0);
  for (size_t i = 0; i < db_bits.size(); ++i) {
    scores[i] = BinaryMappedDistance(query_bits, db_bits[i]);
  }
  return RankByScores(scores);
}

Ranking MappedRanking(const std::vector<uint8_t>& query_bits,
                      const PackedBitMatrix& db_bits) {
  std::vector<double> scores;
  db_bits.ScoreAll(db_bits.PackQuery(query_bits), &scores);
  return RankByScores(scores);
}

Ranking TopK(const Ranking& ranking, int k) {
  GDIM_CHECK(k >= 0);
  if (k >= static_cast<int>(ranking.size())) return ranking;
  return Ranking(ranking.begin(), ranking.begin() + k);
}

}  // namespace gdim
