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

/// Deterministic k-way gather on integers: every partial is ascending by
/// (Hamming distance, id) and ids are globally unique, so repeatedly taking
/// the smallest head reproduces the one-shard total order exactly.
HammingHits MergeTopK(const std::vector<HammingHits>& partials, int k) {
  HammingHits out;
  if (k <= 0) return out;
  size_t total = 0;
  for (const HammingHits& p : partials) total += p.size();
  out.reserve(std::min(static_cast<size_t>(k), total));
  std::vector<size_t> cursor(partials.size(), 0);
  while (static_cast<int>(out.size()) < k) {
    size_t best = partials.size();
    for (size_t s = 0; s < partials.size(); ++s) {
      if (cursor[s] >= partials[s].size()) continue;
      if (best == partials.size() ||
          partials[s][cursor[s]] < partials[best][cursor[best]]) {
        best = s;
      }
    }
    if (best == partials.size()) break;  // every partial exhausted
    out.push_back(partials[best][cursor[best]++]);
  }
  return out;
}

/// The batch report and per-query stats of a finished batch entry point.
void FinishBatch(double wall_ms, std::vector<ServeQueryStats> stats,
                 ServeBatchReport* report,
                 std::vector<ServeQueryStats>* per_query) {
  if (report != nullptr) FillServeBatchReport(wall_ms, stats, report);
  if (per_query != nullptr) *per_query = std::move(stats);
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

void ShardedEngine::Scan(const std::vector<uint8_t>* fingerprints, int count,
                         const QueryOptions& options, Ranking* results,
                         ServeQueryStats* stats) const {
  // Cut the batch into tiles of the active kernel's width. Inside a tile
  // every shard in turn runs one pass over the tile's packed queries (a
  // MODE=full pass loads each row block once for all of them), then each
  // query's integer survivors are merged across shards. The merge is the
  // same deterministic k-way MergeTopK for every tile split, shard count
  // and kernel, so answers never depend on how the batch was cut.
  const bool approx = options.scan_mode == ScanMode::kApprox;
  const int num_bits = num_features();
  const int tile = ActiveScanKernel().tile_width();
  const int num_tiles = (count + tile - 1) / tile;
  ParallelFor(
      0, num_tiles,
      [&](int t) {
        const int begin = t * tile;
        const int n = std::min(tile, count - begin);
        WallTimer tile_timer;
        // Each ParallelFor iteration owns its tile's result and stats
        // slots, so no slot is written by two threads.
        ServeQueryStats* tile_stats = stats + begin;
        std::vector<std::vector<uint64_t>> packed;
        packed.reserve(static_cast<size_t>(n));
        for (int q = 0; q < n; ++q) {
          packed.push_back(
              shards_.front().base_->PackQuery(fingerprints[begin + q]));
          tile_stats[q] = ServeQueryStats{};
          tile_stats[q].approx = approx;
        }
        std::vector<std::vector<HammingHits>> partials(
            static_cast<size_t>(n), std::vector<HammingHits>(shards_.size()));
        // One scan sample per shard pass, on the tile's first query.
        tile_stats[0].shard_scan_usec.reserve(shards_.size());
        for (size_t s = 0; s < shards_.size(); ++s) {
          WallTimer pass_timer;
          std::vector<HammingHits> hits =
              shards_[s].ScanPacked(packed.data(), n, options, tile_stats);
          tile_stats[0].shard_scan_usec.push_back(pass_timer.Micros());
          for (int q = 0; q < n; ++q) {
            partials[static_cast<size_t>(q)][s] =
                std::move(hits[static_cast<size_t>(q)]);
          }
        }
        for (int q = 0; q < n; ++q) {
          WallTimer gather_timer;
          results[begin + q] = ToRanking(
              MergeTopK(partials[static_cast<size_t>(q)], options.k),
              num_bits);
          tile_stats[q].gather_usec = gather_timer.Micros();
        }
        const double tile_ms = tile_timer.Millis();
        for (int q = 0; q < n; ++q) tile_stats[q].latency_ms = tile_ms;
      },
      options_.serve.threads);
}

Ranking ShardedEngine::Query(const Graph& query, const QueryOptions& options,
                             ServeQueryStats* stats) const {
  WallTimer timer;
  Ranking top = QueryMapped(mapper_.Map(query), options, stats);
  if (stats != nullptr) stats->latency_ms = timer.Millis();  // include VF2
  return top;
}

Ranking ShardedEngine::QueryMapped(const std::vector<uint8_t>& fingerprint,
                                   const QueryOptions& options,
                                   ServeQueryStats* stats) const {
  Ranking top;
  ServeQueryStats local;
  Scan(&fingerprint, 1, options, &top, stats != nullptr ? stats : &local);
  return top;
}

std::vector<Ranking> ShardedEngine::QueryBatch(
    const GraphDatabase& queries, const QueryOptions& options,
    ServeBatchReport* report,
    std::vector<ServeQueryStats>* per_query) const {
  WallTimer batch_timer;
  // One stage-1 pass over the whole batch, then packed scans only.
  std::vector<ServeQueryStats> stats;
  std::vector<Ranking> results = QueryMappedBatch(
      mapper_.MapAll(queries, options_.serve.threads), options, nullptr,
      &stats);
  FinishBatch(batch_timer.Millis(), std::move(stats), report, per_query);
  return results;
}

std::vector<Ranking> ShardedEngine::QueryMappedBatch(
    const std::vector<std::vector<uint8_t>>& fingerprints,
    const QueryOptions& options, ServeBatchReport* report,
    std::vector<ServeQueryStats>* per_query) const {
  WallTimer batch_timer;
  std::vector<Ranking> results(fingerprints.size());
  std::vector<ServeQueryStats> stats(fingerprints.size());
  Scan(fingerprints.data(), static_cast<int>(fingerprints.size()), options,
       results.data(), stats.data());
  FinishBatch(batch_timer.Millis(), std::move(stats), report, per_query);
  return results;
}

}  // namespace gdim
