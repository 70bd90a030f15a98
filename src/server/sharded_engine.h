#ifndef GDIM_SERVER_SHARDED_ENGINE_H_
#define GDIM_SERVER_SHARDED_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "serve/query_engine.h"
#include "store/graph_store.h"

namespace gdim {

/// Knobs for the sharded serving layer.
struct ShardedOptions {
  /// Number of QueryEngine shards; must be >= 1 (1 is the single-engine
  /// case). Results are bit-identical for every shard count (the gather
  /// merge reproduces the one-shard score-then-id total order exactly).
  int num_shards = 1;

  /// Per-shard serving options. `serve.threads` also sizes the scatter pool
  /// of Query()/QueryBatch(); the rest is passed through to every shard.
  ServeOptions serve;
};

/// An immutable capture of every shard's live state plus the global
/// metadata a snapshot file needs, taken by ShardedEngine::Freeze() on the
/// engine's (single) writer thread and then streamed to disk by
/// WriteSnapshot on any thread — the engine is free to mutate in the
/// meantime. See FrozenEngineState for what the per-shard capture costs.
struct FrozenShardedState {
  GraphDatabase features;  ///< copied (small: p feature graphs)
  std::vector<FrozenEngineState> shards;
  int next_id = 0;
  size_t words_per_row = 0;
  uint64_t epoch = 0;  ///< the engine's mutation epoch at freeze time
  /// Dimension generation at freeze time; restored by a v3 reload so a
  /// restarted server reports the same `dimension_generation` gauge.
  uint64_t generation = 0;
  /// The live graph set behind the engine, when the snapshotting layer has
  /// one (the executor and `gdim_tool update` attach their GraphStore's
  /// Freeze()). Persisted as the v3 STOR section so a restart can resume
  /// REINDEX without the source database. Absent (e.g. engine-only
  /// Snapshot), the section is omitted.
  std::optional<FrozenGraphSet> store;
};

/// The online query-serving engine — the only public one; num_shards = 1 is
/// the single-engine case. It loads a built index (feature dimension +
/// mapped database vectors) in the packed word layout and hash-partitions
/// the rows across N QueryEngine shards by stable external id (shard of
/// id = id % N). A top-k query is fingerprinted once onto the selected
/// dimension (VF2, stage 1), the mapped vector is scattered to every shard
/// in parallel (stages 2–3, see QueryEngine), and the per-shard top-k lists
/// are gather-merged in ascending score-then-id order.
///
/// Invariants:
///  - External ids are global and stable: the engine owns one id sequence,
///    routes inserts/removes by id, and a snapshot/reload cycle — including
///    reloading with a *different* shard count — preserves every id (the
///    partition function is a pure function of id and N). Ids and widths
///    are validated here, once; shards trust their owner.
///  - Bit-identical answers: for any shard count and any thread count,
///    Query/QueryBatch return exactly the ids and scores of a brute-force
///    ranking of the live database, before and after any interleaved
///    insert/remove/compact sequence. Each shard's top-k is a superset of
///    the global top-k restricted to that shard, and the k-way merge breaks
///    ties by id.
///
/// Mutations are not thread-safe: callers must not run Insert/Remove/
/// Compact concurrently with each other or with queries. The contract is
/// compiler-checked: every mutating method (and Freeze) REQUIRES
/// writer_role(), acquired once by the single writer — the BatchExecutor's
/// dispatcher thread in production, a ScopedRole in single-threaded
/// tests/tools. Shards are reachable for writing only through this engine
/// (their constructors and mutators are private to it), so this role covers
/// them too.
class ShardedEngine {
 public:
  /// Partitions the persisted index across options.num_shards shards.
  /// Row ids (explicit, or positional when the index has no id block)
  /// determine placement. Rejects ragged rows, then validates as
  /// FromPacked.
  static Result<ShardedEngine> FromIndex(PersistedIndex index,
                                         ShardedOptions options = {});

  /// FromIndex over an index already in the packed scan layout: shard rows
  /// are split with word-level copies, never through byte vectors. v3
  /// sections are adopted when present: every shard projects the persisted
  /// IVF layout onto its own partition (skipping the rebuild), and META
  /// restores the dimension generation and raises the mutation epoch to at
  /// least its pre-snapshot value, so epoch-keyed consumers (the result
  /// cache) can never confuse pre- and post-restart answers. A persisted
  /// graph store (STOR) is not engine state — the serving tool extracts it
  /// before calling this.
  static Result<ShardedEngine> FromPacked(PackedIndex index,
                                          ShardedOptions options = {});

  /// Loads the index file at path (v2 through the direct packed-words
  /// path) and partitions it.
  static Result<ShardedEngine> Open(const std::string& index_path,
                                    ShardedOptions options = {});

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_features() const { return mapper_.num_features(); }
  const ShardedOptions& options() const { return options_; }
  /// The shared stage-1 mapper: the batch executor maps a coalesced run
  /// once (MapAll) and feeds the fingerprints to QueryMappedBatch.
  const FeatureMapper& mapper() const { return mapper_; }
  /// Live graphs across all shards.
  int num_graphs() const;
  /// Physical rows (sealed base + append-only delta) across all shards —
  /// what a full scan actually touches, tombstoned rows included.
  int physical_rows() const;
  /// Rows removed but not yet reclaimed by Compact(), across all shards.
  int tombstoned_rows() const;
  /// IVF candidate-pruning buckets across all shards (the `ivf_buckets`
  /// STATS gauge). Every shard rebuilds its index on construction (or
  /// adopts a persisted v3 layout), so a generation swap re-clusters over
  /// the new generation's fingerprints.
  int ivf_buckets() const;
  /// The largest single shard's IVF bucket count: any NPROBE at or above it
  /// makes every shard probe all of its buckets, i.e. behaves exactly like
  /// NPROBE=all. The executor normalizes cache keys on this threshold.
  int max_shard_ivf_buckets() const;
  /// The next external id this engine would assign (the global sequence).
  int next_id() const { return next_id_; }
  /// Shard observability (tests, STATS reporting).
  const QueryEngine& shard(int s) const;

  /// How many dimension generations this engine has adopted: 0 for the
  /// load-time generation, +1 per SwapGeneration. Exposed as the
  /// `dimension_generation` STATS gauge.
  uint64_t generation() const { return generation_; }

  /// Monotonic mutation epoch: the sum of the shard epochs, so every
  /// successful Insert/Remove and every working Compact bumps it (each
  /// mutation lands in exactly one shard; Compact may bump several).
  /// Queries never bump it, and two queries at the same epoch answer
  /// bit-identically — the invariant the executor's result cache keys on.
  uint64_t epoch() const;

  /// The single-writer capability; see the class comment.
  ThreadRole& writer_role() const GDIM_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }

  /// Inserts a graph: assigns the next global id, fingerprints once, and
  /// appends to the owning shard. Returns the stable external id, the same
  /// for every shard count.
  Result<int> Insert(const Graph& graph) GDIM_REQUIRES(writer_role_);

  /// Insert for callers that already hold the mapped fingerprint (bulk
  /// loads, benchmarks); InvalidArgument unless its width is
  /// num_features().
  Result<int> InsertMapped(const std::vector<uint8_t>& fingerprint)
      GDIM_REQUIRES(writer_role_);

  /// Tombstones the graph with the given external id in its owning shard;
  /// NotFound if no live graph has that id.
  Status Remove(int id) GDIM_REQUIRES(writer_role_);

  /// Compacts every shard (reclaims tombstones, seals deltas). Ids are
  /// unchanged.
  void Compact() GDIM_REQUIRES(writer_role_);

  /// Installs a freshly built engine — a new dimension *generation*, the
  /// product of a background reindex over the live graph set — into *this*
  /// atomically from the caller's (single writer) point of view: mapper,
  /// shards, and id sequence are replaced wholesale, the generation counter
  /// increments, and the mutation epoch is guaranteed to come out strictly
  /// greater than it was before the swap. The epoch guarantee is what makes
  /// the swap safe under the epoch-keyed result cache: an answer computed
  /// against the old generation can never be replayed against the new one,
  /// even though the two generations may rank differently (different
  /// dimensions) for the same live set. `next` would normally be built with
  /// the same options/shard count, but any valid engine is installable.
  /// Same single-writer contract as every mutation.
  void SwapGeneration(ShardedEngine next) GDIM_REQUIRES(writer_role_);

  /// External ids of the live graphs across all shards, ascending.
  std::vector<int> alive_ids() const;

  /// Every shard's live rows merged in ascending-id order as (id, packed
  /// word pointer) pairs; pointers stay valid until the next mutation.
  std::vector<std::pair<int, const uint64_t*>> LiveRowWords() const;

  /// The equivalent database: live fingerprints and ids in ascending-id
  /// order plus the global id counter. An engine of any shard count built
  /// from this answers queries bit-identically.
  PersistedIndex ToPersistedIndex() const;

  /// Writes the merged live state to one v3 index file:
  /// WriteSnapshot(Freeze(), path), so it carries Freeze's ordering
  /// contract. The engine has no graph store, so the STOR section is not
  /// written here — callers that own one (the executor, `gdim_tool update`)
  /// attach it to the frozen state and call WriteSnapshot themselves.
  Status Snapshot(const std::string& path) const GDIM_REQUIRES(writer_role_);

  /// Captures all shards for asynchronous snapshotting: sealed bases are
  /// cloned by refcount, deltas/tombstones/ids copied — a bounded pause
  /// independent of sealed-base size, on the engine's writer thread (the
  /// capture must be ordered against writers, hence REQUIRES). The capture
  /// answers for exactly this epoch's live set forever.
  FrozenShardedState Freeze() const GDIM_REQUIRES(writer_role_);

  /// Streams a frozen capture to one v3 index file, shard-count
  /// independent, word-level (no byte materialization) — safe on any
  /// thread, concurrent with live mutations, because the capture owns or
  /// shares everything it reads. The file carries DIMS (the merged live
  /// rows in global id order), META (generation + epoch), the shards' live
  /// IVF postings lifted to external ids (IVFX, in shard order), and —
  /// when the capture has one — the frozen graph store (STOR). A reload
  /// with any shard count keeps serving the same ids and skips the
  /// O(n·sqrt(n)) IVF rebuild.
  static Status WriteSnapshot(const FrozenShardedState& frozen,
                              const std::string& path);

  /// Top-k for one query: VF2-fingerprint once, scatter the mapped vector
  /// across all shards on the scatter pool, gather-merge. stats aggregates
  /// over shards (scanned rows are summed). Per-query knobs travel in
  /// `options`: engine.Query(q, {.k = 10}).
  Ranking Query(const Graph& query, const QueryOptions& options,
                ServeQueryStats* stats = nullptr) const;

  /// Query for a pre-mapped fingerprint (width must be num_features()).
  Ranking QueryMapped(const std::vector<uint8_t>& fingerprint,
                      const QueryOptions& options,
                      ServeQueryStats* stats = nullptr) const;

  /// Answers a whole batch: one MapAll fingerprinting pass, then the same
  /// scan path as QueryMappedBatch. Deterministic for any thread count and
  /// bit-identical for every scan kernel.
  std::vector<Ranking> QueryBatch(
      const GraphDatabase& queries, const QueryOptions& options,
      ServeBatchReport* report = nullptr,
      std::vector<ServeQueryStats>* per_query = nullptr) const;

  /// QueryBatch over pre-mapped fingerprints — the multi-query entry point
  /// the batch executor coalesces concurrent network queries into. Except
  /// under MODE=approx, which takes the per-query scatter path, the batch
  /// is cut into tiles of ActiveScanKernel()::tile_width() queries and each
  /// shard scores a whole tile per row-block pass (QueryEngine::
  /// QueryMappedTile) instead of looping queries outermost; the per-query
  /// gather merge is unchanged, so answers are bit-identical to the
  /// one-query-at-a-time path.
  std::vector<Ranking> QueryMappedBatch(
      const std::vector<std::vector<uint8_t>>& fingerprints,
      const QueryOptions& options, ServeBatchReport* report = nullptr,
      std::vector<ServeQueryStats>* per_query = nullptr) const;

 private:
  ShardedEngine() = default;

  int ShardOf(int id) const {
    return id % static_cast<int>(shards_.size());
  }

  /// Scatter + gather for one mapped fingerprint with an explicit scatter
  /// pool size (1 inside batch loops, options_.serve.threads for single
  /// queries).
  Ranking ScatterGather(const std::vector<uint8_t>& fingerprint,
                        const QueryOptions& options, ServeQueryStats* stats,
                        int scatter_threads) const;

  /// The shared scan body of QueryBatch/QueryMappedBatch: fills results and
  /// stats (both pre-sized to the batch) tile by tile, or per query for
  /// MODE=approx.
  void ScanMappedBatch(const std::vector<std::vector<uint8_t>>& fingerprints,
                       const QueryOptions& options,
                       std::vector<Ranking>* results,
                       std::vector<ServeQueryStats>* stats) const;

  ShardedOptions options_;
  FeatureMapper mapper_{GraphDatabase{}};
  std::vector<QueryEngine> shards_;
  /// The global id sequence; mirrors what a single engine's counter would
  /// be after the same build + mutation history.
  int next_id_ = 0;
  /// Dimension generations adopted; see generation().
  uint64_t generation_ = 0;
  /// See writer_role(). mutable: acquiring a role is not a state change.
  mutable ThreadRole writer_role_;
};

}  // namespace gdim

#endif  // GDIM_SERVER_SHARDED_ENGINE_H_
