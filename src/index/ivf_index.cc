#include "index/ivf_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/random.h"

namespace gdim {

namespace {

/// XOR-popcount over n words — the same Hamming the scan kernels compute,
/// in raw-pointer form for centroid rows.
int HammingWords(const uint64_t* a, const uint64_t* b, size_t n) {
  int distance = 0;
  for (size_t w = 0; w < n; ++w) {
    distance += std::popcount(a[w] ^ b[w]);
  }
  return distance;
}

}  // namespace

IvfIndex IvfIndex::Build(const PackedBitMatrix& rows, int bucket_override) {
  IvfIndex index;
  const int n = rows.num_rows();
  const int p = rows.num_bits();
  index.centroids_ = PackedBitMatrix::WithWidth(p);
  if (n == 0) return index;
  const int buckets = std::clamp(
      bucket_override > 0
          ? bucket_override
          : static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))),
      1, n);

  // Seeded medoid sample, sorted so bucket ids follow physical row order —
  // a canonical labeling under which two builds over the same rows agree
  // bucket for bucket.
  Rng rng(kIvfSeed);
  std::vector<int> medoids = rng.SampleWithoutReplacement(n, buckets);
  std::sort(medoids.begin(), medoids.end());
  for (int m : medoids) index.centroids_.AppendRowFrom(rows, m);

  // Two Hamming-median refinement rounds: assign every row to its nearest
  // centroid, then move each centroid to the bitwise majority of its
  // members (the coordinate-wise median under Hamming distance). Ties go
  // to 1, empty buckets keep their centroid; every step is a pure function
  // of the rows, so refinement is deterministic.
  const size_t wpr = rows.words_per_row();
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<int>> ones(
        static_cast<size_t>(buckets),
        std::vector<int>(static_cast<size_t>(p), 0));
    std::vector<int> members(static_cast<size_t>(buckets), 0);
    for (int row = 0; row < n; ++row) {
      const int b = index.NearestCentroid(rows.row(row), wpr);
      ++members[static_cast<size_t>(b)];
      const std::vector<uint8_t> bits = rows.UnpackRow(row);
      std::vector<int>& count = ones[static_cast<size_t>(b)];
      for (int r = 0; r < p; ++r) {
        count[static_cast<size_t>(r)] += bits[static_cast<size_t>(r)];
      }
    }
    PackedBitMatrix next = PackedBitMatrix::WithWidth(p);
    next.Reserve(buckets);
    std::vector<uint8_t> median(static_cast<size_t>(p), 0);
    for (int b = 0; b < buckets; ++b) {
      if (members[static_cast<size_t>(b)] == 0) {
        next.AppendRowFrom(index.centroids_, b);
        continue;
      }
      for (int r = 0; r < p; ++r) {
        median[static_cast<size_t>(r)] =
            2 * ones[static_cast<size_t>(b)][static_cast<size_t>(r)] >=
                    members[static_cast<size_t>(b)]
                ? 1
                : 0;
      }
      next.AppendRow(median);
    }
    index.centroids_ = std::move(next);
  }

  // Final assignment pass builds the postings, ascending by construction.
  index.postings_.assign(static_cast<size_t>(buckets), {});
  for (int row = 0; row < n; ++row) {
    const int b = index.NearestCentroid(rows.row(row), wpr);
    index.postings_[static_cast<size_t>(b)].push_back(row);
  }
  return index;
}

void IvfIndex::AddRow(const uint64_t* words, size_t words_per_row, int row) {
  if (postings_.empty()) {
    // The engine was built over zero rows: the first insert seeds a single
    // bucket with itself as centroid. A generation swap (which rebuilds
    // over the grown corpus) is what re-partitions from here.
    centroids_ = PackedBitMatrix::FromWords(
        1, centroids_.num_bits(),
        std::vector<uint64_t>(words, words + words_per_row));
    postings_.push_back({row});
    return;
  }
  const int b = NearestCentroid(words, words_per_row);
  // Rows only grow, so appending keeps the posting list sorted.
  postings_[static_cast<size_t>(b)].push_back(row);
}

void IvfIndex::Renumber(const std::vector<int>& old_to_new) {
  for (std::vector<int>& list : postings_) {
    size_t kept = 0;
    for (int row : list) {
      const int renumbered = old_to_new[static_cast<size_t>(row)];
      // The old→new map is monotone, so the surviving rows stay sorted.
      if (renumbered >= 0) list[kept++] = renumbered;
    }
    list.resize(kept);
  }
}

std::vector<int> IvfIndex::Probe(
    const std::vector<uint64_t>& query, int nprobe,
    const std::vector<uint8_t>& tombstones) const {
  std::vector<int> candidates;
  const int buckets = num_buckets();
  if (buckets == 0) return candidates;
  const size_t wpr = centroids_.words_per_row();
  GDIM_DCHECK(query.size() >= wpr);
  const int probes = std::clamp(nprobe, 1, buckets);
  // Rank buckets by (distance, bucket id): the pair order makes ties
  // deterministic, and nth_element keeps the common probes << buckets case
  // O(buckets). Only the probed *set* matters — candidates are re-sorted
  // below — so the unspecified prefix order inside nth_element is fine.
  std::vector<std::pair<int, int>> order;
  order.reserve(static_cast<size_t>(buckets));
  for (int b = 0; b < buckets; ++b) {
    order.emplace_back(HammingWords(query.data(), centroids_.row(b), wpr),
                       b);
  }
  if (probes < buckets) {
    std::nth_element(order.begin(), order.begin() + probes, order.end());
    order.resize(static_cast<size_t>(probes));
  }
  size_t pool = 0;
  for (const auto& [distance, b] : order) {
    pool += postings_[static_cast<size_t>(b)].size();
  }
  candidates.reserve(pool);
  for (const auto& [distance, b] : order) {
    for (int row : postings_[static_cast<size_t>(b)]) {
      if (tombstones[static_cast<size_t>(row)] == 0) {
        candidates.push_back(row);
      }
    }
  }
  // The scoring stage's tie-break (score, then physical row == id order)
  // expects ascending candidates, like every other candidate path.
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

const std::vector<int>& IvfIndex::posting(int bucket) const {
  GDIM_CHECK(bucket >= 0 && bucket < num_buckets());
  return postings_[static_cast<size_t>(bucket)];
}

int IvfIndex::NearestCentroid(const uint64_t* words,
                              size_t words_per_row) const {
  GDIM_DCHECK(centroids_.num_rows() > 0);
  GDIM_DCHECK(words_per_row == centroids_.words_per_row());
  int best = 0;
  int best_distance = HammingWords(words, centroids_.row(0), words_per_row);
  for (int b = 1; b < centroids_.num_rows(); ++b) {
    const int distance = HammingWords(words, centroids_.row(b), words_per_row);
    if (distance < best_distance) {
      best = b;
      best_distance = distance;
    }
  }
  return best;
}

}  // namespace gdim
