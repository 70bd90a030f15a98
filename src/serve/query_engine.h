#ifndef GDIM_SERVE_QUERY_ENGINE_H_
#define GDIM_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "index/ivf_index.h"
#include "serve/query_options.h"

namespace gdim {

/// Per-query observability counters from one hot-path execution.
struct ServeQueryStats {
  double latency_ms = 0.0;
  int scanned = 0;         ///< rows scored in stage 3; the full-scan path
                           ///< scores every physical row, so removed-but-not-
                           ///< compacted rows count until Compact()
  bool approx = false;     ///< served from the IVF candidate path (kApprox)
  /// kApprox only: live rows the probe pruned (alive − scanned); what the
  /// approximate mode saved relative to a full scan of the live set.
  int rows_pruned = 0;
  /// Stage timings for the observability layer, microseconds; 0 when the
  /// stage did not run. ivf_probe_usec sums the shard probes (like
  /// `scanned`) and gather_usec times the k-way merge.
  double ivf_probe_usec = 0.0;
  double gather_usec = 0.0;
  /// One sample per per-shard scan pass this query rode (the shard's wall
  /// time for its stage 2–3 work over the query's tile). A tile's passes
  /// are attributed to its first query, so the sample count matches the
  /// passes actually run.
  std::vector<double> shard_scan_usec;
};

/// Aggregate report for one ShardedEngine::QueryBatch/QueryMappedBatch
/// call.
struct ServeBatchReport {
  double wall_ms = 0.0;          ///< end-to-end batch wall time
  double qps = 0.0;              ///< queries / wall second
  LatencySummary latency_ms;     ///< per-query latency distribution
  size_t approx_queries = 0;     ///< queries served from the IVF path
  /// Candidate rows exact-scored by approx queries and the live rows their
  /// probes pruned away.
  long long approx_candidates_scanned = 0;
  long long approx_rows_pruned = 0;
  /// Per-stage samples (microseconds) for the metric registry: every
  /// per-shard scan pass, every IVF probe that ran, and every gather merge.
  /// The executor folds these into the process-wide stage histograms.
  std::vector<double> stage_scan_usec;
  std::vector<double> stage_ivf_probe_usec;
  std::vector<double> stage_gather_usec;
};

/// Aggregates per-query stats into a batch report (qps, latency
/// percentiles, scan counters). Shared by the sharded engine's batch entry
/// points and the batch executor.
void FillServeBatchReport(double wall_ms,
                          const std::vector<ServeQueryStats>& stats,
                          ServeBatchReport* report);

/// An immutable capture of one shard's live state, taken by Freeze() for
/// asynchronous snapshotting. The sealed base segment — the part that scales
/// with database size — is shared by refcount (it is only ever *replaced*,
/// by Compact, never mutated in place), so a freeze copies just the delta
/// segment, the tombstone bitset, and the id column: O(delta + n) small
/// fields, no O(n·p) word copying and no file I/O. A background writer can
/// then stream the capture to disk while the live shard keeps mutating.
struct FrozenEngineState {
  std::shared_ptr<const PackedBitMatrix> base;  ///< shared, never mutated
  PackedBitMatrix delta;                        ///< copied (small)
  std::vector<uint8_t> tombstones;              ///< copied; base + delta rows
  std::vector<int> row_ids;                     ///< copied; base + delta rows

  /// Live rows in ascending-id order as (id, packed word pointer) pairs;
  /// pointers address into this capture's own segments and stay valid for
  /// the capture's lifetime (unlike QueryEngine::LiveRowWords, which a
  /// mutation invalidates).
  std::vector<std::pair<int, const uint64_t*>> LiveRowWords() const;
};

/// One shard of a ShardedEngine — the only public engine, which owns every
/// QueryEngine, routes ids to it, and validates ids and widths at its own
/// boundary. A shard answers stages 2–3 of the hot path for its partition
/// of the database:
///   2. MODE=approx only: IVF probe for a candidate pool,
///   3. popcount-Hamming distance scan over the packed bit matrices (every
///      live row, or the MODE=approx pool), fused with the top-k selection:
///      a bounded heap per query selects on the kernel's uint32 counts
///      inside the row-block loop, and only the k survivors are converted
///      to sqrt(d / p) scores.
/// Stage 1 (VF2 fingerprinting onto the selected dimension) and the query
/// packing run once per query in the owning engine, which hands every
/// shard the same packed words (ScanPacked). No MCS computation runs at
/// query time, which is the paper's whole online-search proposition.
///
/// The shard is *mutable*: its rows are a sealed base segment plus an
/// append-only delta segment of packed rows, with a tombstone bitset over
/// both. Inserts append to the delta, Remove tombstones, and Compact
/// rewrites the live rows into a fresh sealed base. Physical row order is
/// always ascending external id, so after any mutation sequence a scan
/// ranks exactly like a fresh build over the same live rows (the same
/// deterministic score-then-id order).
///
/// Construction and mutation are private to ShardedEngine, so the compiler
/// keeps every writer behind the owner's single-writer role; what remains
/// public is the const, read-only surface (observability, the row stream a
/// snapshot or a benchmark reads, and the per-shard scan).
class QueryEngine {
 public:
  /// Live (non-tombstoned) graphs.
  int num_graphs() const { return alive_; }
  int num_features() const { return base_->num_bits(); }

  /// Monotonic mutation epoch: bumped by every successful insert/Remove and
  /// by every Compact that does work. The owner's epoch is the sum over its
  /// shards; see ShardedEngine::epoch().
  uint64_t epoch() const { return epoch_; }

  /// Physical layout observability: sealed base rows, appended delta rows,
  /// and rows removed but not yet reclaimed by Compact().
  int base_rows() const { return base_->num_rows(); }
  int delta_rows() const { return delta_.num_rows(); }
  int tombstoned_rows() const { return num_tombstones_; }

  /// Buckets of the IVF candidate-pruning index (the `ivf_buckets` STATS
  /// gauge, summed over shards by the sharded engine).
  int ivf_buckets() const { return ivf_.num_buckets(); }
  /// The index itself (perfbench's trace times its Probe).
  const IvfIndex& ivf_index() const { return ivf_; }

  /// External ids of the live graphs, ascending (= physical row order).
  std::vector<int> alive_ids() const;

  /// Live rows in physical (= ascending external id) order as (id, packed
  /// word pointer) pairs; each pointer addresses words_per_row() words and
  /// stays valid until the next mutation.
  std::vector<std::pair<int, const uint64_t*>> LiveRowWords() const;

  /// Words per packed row (= ceil(num_features() / 64)).
  size_t words_per_row() const { return base_->words_per_row(); }

  /// Stages 2–3 for one mapped fingerprint over this shard's rows: top-k
  /// ids + normalized mapped distances, ascending score with id tie-break.
  /// Width must equal num_features(). PackQuery plus the shard pass
  /// (ScanPacked) the owning engine runs.
  Ranking QueryMapped(const std::vector<uint8_t>& fingerprint,
                      const QueryOptions& options) const;

 private:
  friend class ShardedEngine;

  QueryEngine() = default;

  /// Adopts `rows` (external ids `ids`, strictly ascending — validated by
  /// the owner) as the sealed base segment, with no unpack/repack round
  /// trip, and builds the IVF index over them (IvfIndex::Build at the
  /// default bucket count). The index is a pure function of the rows, so
  /// every construction path — a fresh build, a load of any file, a
  /// generation swap — clusters identically over the same rows.
  static QueryEngine FromPacked(PackedBitMatrix rows, std::vector<int> ids);

  /// Appends a mapped row under a caller-assigned external id. The owner
  /// has checked the width and that `id` exceeds every id this shard holds.
  void InsertMappedWithId(const std::vector<uint8_t>& fingerprint, int id);

  /// Tombstones the graph with the given external id; NotFound if no live
  /// graph has that id. O(log n).
  Status Remove(int id);

  /// Rewrites the live rows into a fresh sealed base segment, drops
  /// tombstones, and empties the delta. External ids are unchanged. No-op
  /// on a shard with no delta rows and no tombstones.
  void Compact();

  /// Captures the live state for asynchronous snapshotting: the sealed base
  /// is cloned by refcount, the delta/tombstones/ids are copied. The pause
  /// is O(delta rows · words + total rows), and the capture stays bit-exact
  /// at this epoch no matter what mutations follow.
  FrozenEngineState Freeze() const;

  /// Lifts the epoch to at least `epoch` (never lowers it): how the owner
  /// restores a persisted epoch and keeps it strictly monotonic across a
  /// generation swap.
  void RaiseEpochToAtLeast(uint64_t epoch);

  int total_rows() const { return base_->num_rows() + delta_.num_rows(); }

  /// Physical row of a live external id, or -1.
  int FindLiveRow(int id) const;

  /// The shard pass: stages 2–3 for `count` packed queries (PackQuery
  /// form) over this shard's live rows. hits[q] answers queries[q] with its
  /// top-k survivors as (Hamming distance, external id), ascending.
  /// MODE=full scores the whole tile in one row-block pass (FullTopK);
  /// MODE=approx probes the IVF index per query and scores that candidate
  /// pool (CandidateTopK). Adds this shard's scanned / rows_pruned /
  /// ivf_probe_usec into stats[q].
  std::vector<HammingHits> ScanPacked(const std::vector<uint64_t>* queries,
                                      int count, const QueryOptions& options,
                                      ServeQueryStats* stats) const;

  /// Stage 3 over every live row for `count` packed queries at once: the
  /// fused scan + integer top-k (ScanTopK) over base then delta, tombstones
  /// skipped in the block loop. Scratch is O(k + count × kScanBlockRows),
  /// nothing proportional to the rows.
  std::vector<HammingHits> FullTopK(const std::vector<uint64_t>* queries,
                                    int count, int k) const;

  /// Stage 3 over an ascending list of live candidate rows (the IVF probe
  /// pool of MODE=approx), selected on integer distances.
  HammingHits CandidateTopK(const std::vector<uint64_t>& packed_query,
                            const std::vector<int>& rows, int k) const;

  /// Sealed segment. Held by shared_ptr and treated as immutable — Compact
  /// installs a fresh matrix instead of mutating — so Freeze() can clone it
  /// by refcount and a background snapshot can read it safely while the
  /// shard keeps mutating. Never null once the shard is built.
  std::shared_ptr<const PackedBitMatrix> base_;
  PackedBitMatrix delta_;  ///< append-only segment (same width as base_)
  /// tombstones_[row] = 1 iff the physical row was removed; sized to
  /// total_rows().
  std::vector<uint8_t> tombstones_;
  int num_tombstones_ = 0;
  int alive_ = 0;
  /// row_ids_[row] = stable external id; strictly increasing in row, so
  /// ranking by physical row and ranking by external id agree on ties.
  std::vector<int> row_ids_;
  /// Monotonic mutation counter; see epoch().
  uint64_t epoch_ = 0;
  /// IVF candidate-pruning index over the packed rows (ScanMode::kApprox).
  /// Built with the shard (so a generation swap re-clusters over the new
  /// generation's fingerprints), maintained by inserts (nearest-centroid
  /// assignment) and Compact (posting renumbering); removals are lazy —
  /// Probe skips tombstones.
  IvfIndex ivf_;
};

}  // namespace gdim

#endif  // GDIM_SERVE_QUERY_ENGINE_H_
