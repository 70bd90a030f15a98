#include "server/sharded_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/kernels/scan_kernel.h"
#include "core/packed_bits.h"

namespace gdim {

namespace {

/// Deterministic k-way gather: every partial is sorted ascending by
/// (score, id), ids are globally unique, so repeatedly taking the smallest
/// head reproduces the single-engine total order exactly.
Ranking MergeTopK(const std::vector<Ranking>& partials, int k) {
  Ranking out;
  if (k <= 0) return out;
  size_t total = 0;
  for (const Ranking& p : partials) total += p.size();
  out.reserve(std::min(static_cast<size_t>(k), total));
  std::vector<size_t> cursor(partials.size(), 0);
  while (static_cast<int>(out.size()) < k) {
    size_t best = partials.size();
    for (size_t s = 0; s < partials.size(); ++s) {
      if (cursor[s] >= partials[s].size()) continue;
      if (best == partials.size()) {
        best = s;
        continue;
      }
      const RankedResult& c = partials[s][cursor[s]];
      const RankedResult& b = partials[best][cursor[best]];
      if (c.score < b.score || (c.score == b.score && c.id < b.id)) best = s;
    }
    if (best == partials.size()) break;  // every partial exhausted
    out.push_back(partials[best][cursor[best]++]);
  }
  return out;
}

/// Every shard's live (id, words) rows merged into one ascending-id stream;
/// works over live shards and frozen captures alike.
template <typename Shards>
std::vector<std::pair<int, const uint64_t*>> MergedLiveRows(
    const Shards& shards) {
  std::vector<std::pair<int, const uint64_t*>> live;
  for (const auto& shard : shards) {
    const auto shard_live = shard.LiveRowWords();
    live.insert(live.end(), shard_live.begin(), shard_live.end());
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return live;
}

}  // namespace

Result<ShardedEngine> ShardedEngine::FromIndex(PersistedIndex index,
                                               ShardedOptions options) {
  const size_t p = index.features.size();
  for (size_t i = 0; i < index.db_bits.size(); ++i) {
    if (index.db_bits[i].size() != p) {
      return Status::InvalidArgument(
          "index row " + std::to_string(i) + " has " +
          std::to_string(index.db_bits[i].size()) + " bits, expected " +
          std::to_string(p));
    }
  }
  PackedIndex packed;
  packed.rows = PackedBitMatrix::FromRows(index.db_bits, static_cast<int>(p));
  packed.features = std::move(index.features);
  packed.ids = std::move(index.ids);
  packed.next_id = index.next_id;
  return FromPacked(std::move(packed), options);
}

Result<ShardedEngine> ShardedEngine::FromPacked(PackedIndex index,
                                                ShardedOptions options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        "num_shards must be >= 1, got " + std::to_string(options.num_shards));
  }
  const int p = static_cast<int>(index.features.size());
  if (index.rows.num_bits() != p) {
    return Status::InvalidArgument(
        "packed rows are " + std::to_string(index.rows.num_bits()) +
        " bits wide, feature dimension is " + std::to_string(p));
  }
  const int n = index.rows.num_rows();
  // Every id and width check happens here, once, for all shards: a shard
  // only ever sees an ascending subsequence of the ids, so e.g. a globally
  // unsorted id list could split into shards that each look fine.
  if (!index.ids.empty()) {
    if (index.ids.size() != static_cast<size_t>(n)) {
      return Status::InvalidArgument("index id count does not match rows");
    }
    for (size_t i = 0; i < index.ids.size(); ++i) {
      if (index.ids[i] < 0 || (i > 0 && index.ids[i] <= index.ids[i - 1])) {
        return Status::InvalidArgument("index ids must be strictly ascending");
      }
    }
    if (index.ids.back() == std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("index id out of range");
    }
  }
  const int64_t min_next_id = index.ids.empty()
                                  ? static_cast<int64_t>(n)
                                  : int64_t{index.ids.back()} + 1;
  if (index.next_id >= 0 && index.next_id < min_next_id) {
    return Status::InvalidArgument("index next_id must exceed every id");
  }
  if (index.ivf.has_value() && index.ivf->num_bits != p) {
    return Status::InvalidArgument("IVF width does not match the index");
  }
  const int next_id =
      index.next_id >= 0 ? index.next_id : static_cast<int>(min_next_id);

  ShardedEngine engine;
  engine.options_ = options;
  engine.next_id_ = next_id;

  // Partition rows by id % N with word-level copies (no byte detour).
  const int num_shards = options.num_shards;
  std::vector<PackedBitMatrix> shard_rows;
  shard_rows.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_rows.push_back(PackedBitMatrix::WithWidth(p));
  }
  std::vector<std::vector<int>> shard_ids(static_cast<size_t>(num_shards));
  for (int row = 0; row < n; ++row) {
    const int id =
        index.ids.empty() ? row : index.ids[static_cast<size_t>(row)];
    const int s = id % num_shards;
    shard_rows[static_cast<size_t>(s)].AppendRowFrom(index.rows, row);
    shard_ids[static_cast<size_t>(s)].push_back(id);
  }
  engine.shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    // A persisted v3 IVF layout is offered to every shard; each keeps
    // exactly the buckets holding ids of its partition (the postings are
    // external-id, so this works at any shard count).
    Result<QueryEngine> built = QueryEngine::FromPacked(
        std::move(shard_rows[static_cast<size_t>(s)]),
        std::move(shard_ids[static_cast<size_t>(s)]), index.ivf,
        options.serve);
    if (!built.ok()) return built.status();
    engine.shards_.push_back(std::move(built).value());
  }
  if (index.meta.has_value()) {
    // Restore the persisted generation and raise the epoch sum to at least
    // its pre-snapshot value. Fresh shards each start at epoch 0, so
    // raising shard 0 alone sets the sum — which shard is immaterial, the
    // sum is the contract (see SwapGeneration).
    engine.generation_ = index.meta->generation;
    engine.shards_[0].RaiseEpochToAtLeast(index.meta->epoch);
  }
  engine.mapper_ = FeatureMapper(std::move(index.features));
  return engine;
}

Result<ShardedEngine> ShardedEngine::Open(const std::string& index_path,
                                          ShardedOptions options) {
  Result<PackedIndex> index = ReadIndexFilePacked(index_path);
  if (!index.ok()) return index.status();
  return FromPacked(std::move(index).value(), options);
}

int ShardedEngine::num_graphs() const {
  int alive = 0;
  for (const QueryEngine& shard : shards_) alive += shard.num_graphs();
  return alive;
}

int ShardedEngine::physical_rows() const {
  int rows = 0;
  for (const QueryEngine& shard : shards_) {
    rows += shard.base_rows() + shard.delta_rows();
  }
  return rows;
}

int ShardedEngine::tombstoned_rows() const {
  int tombstones = 0;
  for (const QueryEngine& shard : shards_) {
    tombstones += shard.tombstoned_rows();
  }
  return tombstones;
}

int ShardedEngine::ivf_buckets() const {
  int buckets = 0;
  for (const QueryEngine& shard : shards_) buckets += shard.ivf_buckets();
  return buckets;
}

int ShardedEngine::max_shard_ivf_buckets() const {
  int buckets = 0;
  for (const QueryEngine& shard : shards_) {
    buckets = std::max(buckets, shard.ivf_buckets());
  }
  return buckets;
}

const QueryEngine& ShardedEngine::shard(int s) const {
  GDIM_CHECK(s >= 0 && s < num_shards());
  return shards_[static_cast<size_t>(s)];
}

uint64_t ShardedEngine::epoch() const {
  uint64_t sum = 0;
  for (const QueryEngine& shard : shards_) sum += shard.epoch();
  return sum;
}

Result<int> ShardedEngine::Insert(const Graph& graph) {
  return InsertMapped(mapper_.Map(graph));
}

Result<int> ShardedEngine::InsertMapped(
    const std::vector<uint8_t>& fingerprint) {
  if (fingerprint.size() != static_cast<size_t>(num_features())) {
    return Status::InvalidArgument(
        "fingerprint has " + std::to_string(fingerprint.size()) +
        " bits, engine dimension is " + std::to_string(num_features()));
  }
  // INT_MAX itself is unassignable: next_id_ would overflow, and the
  // reader's id cap would reject the engine's own snapshot. A rejected
  // insert does not burn an id.
  const int id = next_id_;
  if (id == std::numeric_limits<int>::max()) {
    return Status::ResourceExhausted("graph id space exhausted");
  }
  // The global sequence only grows, so each shard's ids stay strictly
  // ascending (row order == id order, the score-then-id tie-break).
  shards_[static_cast<size_t>(ShardOf(id))].InsertMappedWithId(fingerprint,
                                                               id);
  ++next_id_;
  return id;
}

Status ShardedEngine::Remove(int id) {
  if (id < 0) {
    return Status::NotFound("no live graph with id " + std::to_string(id));
  }
  return shards_[static_cast<size_t>(ShardOf(id))].Remove(id);
}

void ShardedEngine::Compact() {
  for (QueryEngine& shard : shards_) shard.Compact();
}

void ShardedEngine::SwapGeneration(ShardedEngine next) {
  // The new generation's shards start at epoch 0 (they are fresh builds);
  // the installed epoch must exceed the pre-swap one so epoch-keyed
  // consumers treat the swap as a mutation. Raising one shard's epoch
  // raises the sum — which shard is immaterial, the sum is the contract.
  const uint64_t floor = epoch() + 1;
  options_ = std::move(next.options_);
  mapper_ = std::move(next.mapper_);
  shards_ = std::move(next.shards_);
  next_id_ = next.next_id_;
  ++generation_;
  const uint64_t now = epoch();
  if (now < floor) {
    shards_[0].RaiseEpochToAtLeast(shards_[0].epoch() + (floor - now));
  }
}

std::vector<int> ShardedEngine::alive_ids() const {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(num_graphs()));
  for (const QueryEngine& shard : shards_) {
    const std::vector<int> shard_ids = shard.alive_ids();
    ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::pair<int, const uint64_t*>> ShardedEngine::LiveRowWords()
    const {
  return MergedLiveRows(shards_);
}

PersistedIndex ShardedEngine::ToPersistedIndex() const {
  const std::vector<std::pair<int, const uint64_t*>> live = LiveRowWords();
  PersistedIndex index;
  index.features = mapper_.features();
  index.ids.reserve(live.size());
  index.db_bits.reserve(live.size());
  const size_t p = index.features.size();
  for (const auto& [id, words] : live) {
    std::vector<uint8_t> bits(p);
    for (size_t r = 0; r < p; ++r) bits[r] = (words[r / 64] >> (r % 64)) & 1;
    index.ids.push_back(id);
    index.db_bits.push_back(std::move(bits));
  }
  index.next_id = next_id_;
  return index;
}

Status ShardedEngine::Snapshot(const std::string& path) const {
  // The synchronous snapshot is the asynchronous one run inline, so both
  // are one code path: freeze (cheap), then stream the capture.
  return WriteSnapshot(Freeze(), path);
}

FrozenShardedState ShardedEngine::Freeze() const {
  FrozenShardedState frozen;
  frozen.features = mapper_.features();
  frozen.shards.reserve(shards_.size());
  for (const QueryEngine& shard : shards_) {
    frozen.shards.push_back(shard.Freeze());
  }
  frozen.next_id = next_id_;
  frozen.words_per_row = shards_.empty() ? 0 : shards_[0].words_per_row();
  frozen.epoch = epoch();
  frozen.generation = generation_;
  return frozen;
}

Status ShardedEngine::WriteSnapshot(const FrozenShardedState& frozen,
                                    const std::string& path) {
  // Stream every frozen shard's packed rows in global id order — word-level
  // pointers into the capture's segments, no byte materialization.
  const std::vector<std::pair<int, const uint64_t*>> live =
      MergedLiveRows(frozen.shards);
  std::vector<int> ids;
  ids.reserve(live.size());
  for (const auto& row : live) ids.push_back(row.first);

  PersistedMeta meta;
  meta.generation = frozen.generation;
  meta.epoch = frozen.epoch;

  // The IVFX section concatenates every shard's live buckets in shard
  // order, postings lifted to external ids. Restore at any shard count
  // re-partitions by keeping the buckets owning each shard's ids; at an
  // unchanged count the relative bucket order (and so the probe tiebreak)
  // is reproduced exactly.
  PersistedIvf ivf;
  ivf.num_bits = frozen.features.empty()
                     ? 0
                     : static_cast<int>(frozen.features.size());
  for (const FrozenEngineState& shard : frozen.shards) {
    PersistedIvf part = PersistIvf(shard.ivf, shard.tombstones,
                                   shard.row_ids);
    ivf.num_bits = part.num_bits;
    for (PersistedIvfBucket& bucket : part.buckets) {
      ivf.buckets.push_back(std::move(bucket));
    }
  }

  V3Sections sections;
  sections.meta = &meta;
  sections.ivf = &ivf;
  if (frozen.store.has_value()) {
    sections.store_ids = &frozen.store->ids;
    sections.store_graphs = &frozen.store->graphs;
  }
  return WriteIndexFileV3Words(
      frozen.features, static_cast<uint64_t>(live.size()),
      static_cast<uint64_t>(frozen.words_per_row),
      [&](uint64_t i) { return live[i].second; }, ids, frozen.next_id,
      sections, path);
}

Ranking ShardedEngine::ScatterGather(const std::vector<uint8_t>& fingerprint,
                                     const QueryOptions& options,
                                     ServeQueryStats* stats,
                                     int scatter_threads) const {
  const int k = options.k;
  WallTimer timer;
  const int n_shards = num_shards();

  std::vector<Ranking> partials(static_cast<size_t>(n_shards));
  std::vector<ServeQueryStats> shard_stats(static_cast<size_t>(n_shards));
  // The options travel to every shard as-is. kApprox: each shard probes
  // its own IVF index with the same nprobe, so the gather merges per-shard
  // approximate top-k lists; at kNprobeAll every shard's candidate set is
  // its full live set and the merge is bit-identical to kFull.
  ParallelScatter(
      n_shards,
      [&](int s) {
        const size_t i = static_cast<size_t>(s);
        partials[i] =
            shards_[i].QueryMapped(fingerprint, options, &shard_stats[i]);
      },
      scatter_threads);
  WallTimer gather_timer;
  Ranking merged = MergeTopK(partials, k);
  const double gather_usec = gather_timer.Micros();
  if (stats != nullptr) {
    stats->latency_ms = timer.Millis();
    stats->scanned = 0;
    stats->rows_pruned = 0;
    stats->ivf_probe_usec = 0.0;
    // Per-shard stage samples, collected in this serial tail (after the
    // scatter join) so no shard writes a shared slot concurrently.
    stats->shard_scan_usec.clear();
    stats->shard_scan_usec.reserve(static_cast<size_t>(n_shards));
    for (int s = 0; s < n_shards; ++s) {
      stats->scanned += shard_stats[static_cast<size_t>(s)].scanned;
      stats->rows_pruned += shard_stats[static_cast<size_t>(s)].rows_pruned;
      stats->ivf_probe_usec +=
          shard_stats[static_cast<size_t>(s)].ivf_probe_usec;
      stats->shard_scan_usec.push_back(
          shard_stats[static_cast<size_t>(s)].latency_ms * 1e3);
    }
    stats->approx = options.scan_mode == ScanMode::kApprox;
    stats->gather_usec = gather_usec;
  }
  return merged;
}

Ranking ShardedEngine::Query(const Graph& query, const QueryOptions& options,
                             ServeQueryStats* stats) const {
  WallTimer timer;
  Ranking top = ScatterGather(mapper_.Map(query), options, stats,
                              options_.serve.threads);
  if (stats != nullptr) stats->latency_ms = timer.Millis();  // include VF2
  return top;
}

Ranking ShardedEngine::QueryMapped(const std::vector<uint8_t>& fingerprint,
                                   const QueryOptions& options,
                                   ServeQueryStats* stats) const {
  return ScatterGather(fingerprint, options, stats, options_.serve.threads);
}

void ShardedEngine::ScanMappedBatch(
    const std::vector<std::vector<uint8_t>>& fingerprints,
    const QueryOptions& options, std::vector<Ranking>* results,
    std::vector<ServeQueryStats>* stats) const {
  const int n = static_cast<int>(fingerprints.size());
  if (options.scan_mode == ScanMode::kApprox) {
    // The IVF probe yields a per-query candidate pool, so queries cannot
    // share row passes: one pool over queries, each scattering over shards
    // serially (no nested pools). The tiled path below scans every row,
    // which would silently ignore the probe.
    ParallelFor(
        0, n,
        [&](int i) {
          WallTimer query_timer;
          (*results)[static_cast<size_t>(i)] =
              ScatterGather(fingerprints[static_cast<size_t>(i)], options,
                            &(*stats)[static_cast<size_t>(i)], 1);
          (*stats)[static_cast<size_t>(i)].latency_ms = query_timer.Millis();
        },
        options_.serve.threads);
    return;
  }
  // Block-tiled multi-query path: cut the batch into tiles of the active
  // kernel's width and let every shard score a whole tile per row-block
  // pass (QueryEngine::QueryMappedTile), then gather-merge per query. The
  // merge is the same deterministic k-way MergeTopK as the scatter path, so
  // answers are bit-identical to one-query-at-a-time scattering for every
  // tile split, shard count, and kernel.
  const int tile = ActiveScanKernel().tile_width();
  const int num_tiles = tile > 0 ? (n + tile - 1) / tile : 0;
  ParallelFor(
      0, num_tiles,
      [&](int t) {
        const int begin = t * tile;
        const int count = std::min(tile, n - begin);
        WallTimer tile_timer;
        std::vector<std::vector<Ranking>> partials(shards_.size());
        std::vector<std::vector<ServeQueryStats>> shard_stats(
            shards_.size());
        for (size_t s = 0; s < shards_.size(); ++s) {
          partials[s] = shards_[s].QueryMappedTile(
              fingerprints.data() + begin, count, options, &shard_stats[s]);
        }
        for (int q = 0; q < count; ++q) {
          std::vector<Ranking> per_shard;
          per_shard.reserve(shards_.size());
          for (size_t s = 0; s < shards_.size(); ++s) {
            per_shard.push_back(
                std::move(partials[s][static_cast<size_t>(q)]));
          }
          WallTimer gather_timer;
          (*results)[static_cast<size_t>(begin + q)] =
              MergeTopK(per_shard, options.k);
          (*stats)[static_cast<size_t>(begin + q)].gather_usec =
              gather_timer.Micros();
        }
        const double tile_ms = tile_timer.Millis();
        for (int q = 0; q < count; ++q) {
          ServeQueryStats& s = (*stats)[static_cast<size_t>(begin + q)];
          s.latency_ms = tile_ms;
          s.scanned = 0;
          for (size_t sh = 0; sh < shards_.size(); ++sh) {
            s.scanned += shard_stats[sh][static_cast<size_t>(q)].scanned;
          }
        }
        // One scan sample per per-shard tile pass, attributed to the tile's
        // first query (QueryMappedTile reports the pass's wall time in every
        // query's latency slot) — each ParallelFor iteration owns its tile's
        // stats slots, so no cross-thread writes.
        ServeQueryStats& first = (*stats)[static_cast<size_t>(begin)];
        first.shard_scan_usec.clear();
        first.shard_scan_usec.reserve(shards_.size());
        for (size_t sh = 0; sh < shards_.size(); ++sh) {
          first.shard_scan_usec.push_back(shard_stats[sh][0].latency_ms *
                                          1e3);
        }
      },
      options_.serve.threads);
}

std::vector<Ranking> ShardedEngine::QueryBatch(
    const GraphDatabase& queries, const QueryOptions& options,
    ServeBatchReport* report,
    std::vector<ServeQueryStats>* per_query) const {
  WallTimer batch_timer;
  std::vector<Ranking> results(queries.size());
  std::vector<ServeQueryStats> stats(queries.size());
  // One stage-1 pass over the whole batch, then packed scans only.
  const std::vector<std::vector<uint8_t>> fingerprints =
      mapper_.MapAll(queries, options_.serve.threads);
  ScanMappedBatch(fingerprints, options, &results, &stats);
  const double wall_ms = batch_timer.Millis();
  if (report != nullptr) FillServeBatchReport(wall_ms, stats, report);
  if (per_query != nullptr) *per_query = std::move(stats);
  return results;
}

std::vector<Ranking> ShardedEngine::QueryMappedBatch(
    const std::vector<std::vector<uint8_t>>& fingerprints,
    const QueryOptions& options, ServeBatchReport* report,
    std::vector<ServeQueryStats>* per_query) const {
  WallTimer batch_timer;
  std::vector<Ranking> results(fingerprints.size());
  std::vector<ServeQueryStats> stats(fingerprints.size());
  ScanMappedBatch(fingerprints, options, &results, &stats);
  const double wall_ms = batch_timer.Millis();
  if (report != nullptr) FillServeBatchReport(wall_ms, stats, report);
  if (per_query != nullptr) *per_query = std::move(stats);
  return results;
}

}  // namespace gdim
