#ifndef GDIM_INDEX_IVF_INDEX_H_
#define GDIM_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/packed_bits.h"

namespace gdim {

/// Seed of the deterministic medoid sample. Fixed (not a knob): two builds
/// over the same rows must agree bit for bit, or the sharded engine's
/// "fresh build answers identically" contracts stop holding for approx
/// queries.
inline constexpr uint64_t kIvfSeed = 0x91f5eedcafef00dULL;

/// An IVF-style (inverted-file) coarse partition over packed fingerprint
/// rows: k-medoid-style centroid buckets under Hamming distance, each
/// holding the ascending physical rows assigned to it. The approximate scan
/// mode (QueryOptions ScanMode::kApprox) probes the NPROBE nearest
/// centroids and exact-scores only their members, pruning per-query cost
/// from all live rows to roughly nprobe/num_buckets of them.
///
/// Build is seeded-deterministic (kIvfSeed): a medoid sample of the rows,
/// refined by two Hamming-median (bitwise majority) rounds, then one final
/// assignment pass. Identical rows in → identical buckets and postings out,
/// which is what lets a generation swap rebuild the index with no
/// observable divergence from a from-scratch engine.
///
/// Maintenance is incremental and cheap: AddRow assigns a new row to its
/// nearest centroid (rows only grow, so posting lists stay sorted), removal
/// is handled lazily — Probe() skips tombstoned rows — and Compact prunes
/// and renumbers the postings through its monotone old→new row map.
/// Centroids are only re-selected by a full rebuild (engine construction /
/// generation swap), never by maintenance.
///
/// Thread-compatibility contract: the index is owned by a QueryEngine shard
/// and externally synchronized by its ShardedEngine — every mutating call
/// happens inside an engine method that REQUIRES the engine's writer role,
/// and Probe() is called from the query path under the same single-writer
/// regime as every other engine read. The class itself holds no locks.
class IvfIndex {
 public:
  IvfIndex() = default;

  /// Deterministic build over all rows of `rows` (every row live).
  /// bucket_override > 0 forces the bucket count; 0 picks ceil(sqrt(n)).
  /// An empty matrix builds an empty index (AddRow seeds it later).
  static IvfIndex Build(const PackedBitMatrix& rows, int bucket_override);

  /// Adopts an already-built layout — one packed centroid row per posting
  /// list, postings ascending — without any clustering work. The v3
  /// snapshot restore path: reload costs O(read) instead of the
  /// O(n·sqrt(n)) Build. Callers are responsible for posting soundness
  /// (the engine validates coverage against its live rows before calling).
  static IvfIndex FromParts(PackedBitMatrix centroids,
                            std::vector<std::vector<int>> postings);

  int num_buckets() const { return static_cast<int>(postings_.size()); }

  /// The engine-chosen probe width when a query does not pin one:
  /// ceil(num_buckets / 8) — an eighth of the buckets, which on a corpus
  /// with any cluster structure scans well under a quarter of the rows
  /// while keeping several buckets of slack around the nearest one.
  int default_nprobe() const {
    const int probes = (num_buckets() + 7) / 8;
    return probes > 0 ? probes : 1;
  }

  /// Assigns physical row `row` (words_per_row packed words at `words`) to
  /// its nearest centroid. The engine appends rows in ascending order, so
  /// each posting list stays sorted. On an index with no centroids yet (an
  /// engine built over zero rows), the row becomes the first centroid.
  void AddRow(const uint64_t* words, size_t words_per_row, int row);

  /// Compact hook: maps every posted row through the monotone old→new row
  /// map, dropping rows mapped to -1 (tombstoned). Lists stay sorted;
  /// centroids are kept.
  void Renumber(const std::vector<int>& old_to_new);

  /// The candidate pool of the `nprobe` nearest centroids (Hamming distance
  /// to the packed query, bucket-id tie-break): their posted rows minus
  /// tombstones, merged ascending. nprobe is clamped to [1, num_buckets],
  /// so kNprobeAll (INT_MAX) probes every bucket — the pool is then exactly
  /// the live rows and the exact-scoring stage answers bit-identically to a
  /// full scan. `query` must hold at least words_per_row words (PackQuery).
  std::vector<int> Probe(const std::vector<uint64_t>& query, int nprobe,
                         const std::vector<uint8_t>& tombstones) const;

  /// Posted rows of one bucket, ascending; tombstoned rows linger until
  /// Renumber. Observability for tests and invariant checks.
  const std::vector<int>& posting(int bucket) const;

  /// The packed centroid rows, one per bucket. Read by the snapshot writer
  /// (the v3 IVFX section persists them verbatim) and by tests.
  const PackedBitMatrix& centroids() const { return centroids_; }

 private:
  /// Nearest centroid by Hamming distance, lowest bucket id on ties.
  int NearestCentroid(const uint64_t* words, size_t words_per_row) const;

  PackedBitMatrix centroids_;  ///< one packed row per bucket
  std::vector<std::vector<int>> postings_;  ///< ascending physical rows
};

}  // namespace gdim

#endif  // GDIM_INDEX_IVF_INDEX_H_
