#include "serve/query_engine.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/timer.h"

namespace gdim {

Result<QueryEngine> QueryEngine::FromPacked(
    PackedBitMatrix rows, std::vector<int> ids,
    const std::optional<PersistedIvf>& ivf, const ServeOptions& options) {
  const int n = rows.num_rows();
  const int p = rows.num_bits();
  QueryEngine engine;
  engine.base_ = std::make_shared<const PackedBitMatrix>(std::move(rows));
  engine.delta_ = PackedBitMatrix::WithWidth(p);
  engine.tombstones_.assign(static_cast<size_t>(n), 0);
  engine.alive_ = n;
  engine.row_ids_ = std::move(ids);
  if (ivf.has_value()) {
    // Adopt the persisted IVF layout instead of re-clustering: reload skips
    // the O(n·sqrt(n)) Build. Snapshot postings are in external-id space
    // and may span a different shard partition than this shard's, so keep
    // exactly the buckets holding ids this shard owns, mapped to local
    // physical rows. Relative bucket order is preserved, so at an unchanged
    // shard count the probe's (distance, bucket id) ranking reproduces the
    // snapshotted engine's exactly.
    const PersistedIvf& persisted = *ivf;
    const size_t wpc = engine.base_->words_per_row();
    std::vector<uint64_t> centroid_words;
    std::vector<std::vector<int>> postings;
    std::vector<uint8_t> seen(static_cast<size_t>(n), 0);
    int covered = 0;
    for (const PersistedIvfBucket& bucket : persisted.buckets) {
      if (bucket.centroid_words.size() != wpc) {
        return Status::InvalidArgument(
            "IVF centroid stride does not match width");
      }
      std::vector<int> bucket_rows;
      for (const int id : bucket.ids) {
        const auto it = std::lower_bound(engine.row_ids_.begin(),
                                         engine.row_ids_.end(), id);
        if (it == engine.row_ids_.end() || *it != id) {
          continue;  // another shard's row under this partition
        }
        const int row = static_cast<int>(it - engine.row_ids_.begin());
        if (seen[static_cast<size_t>(row)] != 0) {
          return Status::InvalidArgument("duplicate IVF posting id");
        }
        seen[static_cast<size_t>(row)] = 1;
        ++covered;
        // Bucket ids ascend and the id→row map is monotone, so each
        // adopted posting list stays sorted, as Probe requires.
        bucket_rows.push_back(row);
      }
      if (bucket_rows.empty()) continue;  // another shard's bucket
      centroid_words.insert(centroid_words.end(),
                            bucket.centroid_words.begin(),
                            bucket.centroid_words.end());
      postings.push_back(std::move(bucket_rows));
    }
    // Strict coverage: every owned row reachable by some probe, or
    // NPROBE=all would silently diverge from MODE=full after a restart.
    if (covered != n) {
      return Status::InvalidArgument(
          "IVF postings do not cover this shard's rows");
    }
    // Count first: the by-value parameter's move-construction below is
    // unsequenced with the other argument's postings.size() read.
    const int num_buckets = static_cast<int>(postings.size());
    engine.ivf_ = IvfIndex::FromParts(
        PackedBitMatrix::FromWords(num_buckets, p, std::move(centroid_words)),
        std::move(postings));
  } else {
    // No persisted layout: the IVF index is rebuilt with the shard — which
    // is exactly what gives a generation swap fresh clusters over the
    // refreshed fingerprints (zero stale buckets by construction).
    engine.ivf_ = IvfIndex::Build(*engine.base_, options.ivf_buckets);
  }
  return engine;
}

void QueryEngine::RaiseEpochToAtLeast(uint64_t epoch) {
  if (epoch_ < epoch) epoch_ = epoch;
}

void QueryEngine::InsertMappedWithId(const std::vector<uint8_t>& fingerprint,
                                     int id) {
  const int row = base_->num_rows() + delta_.AppendRow(fingerprint);
  tombstones_.push_back(0);
  row_ids_.push_back(id);
  ++alive_;
  ivf_.AddRow(delta_.row(row - base_->num_rows()), delta_.words_per_row(),
              row);
  ++epoch_;
}

Status QueryEngine::Remove(int id) {
  const int row = FindLiveRow(id);
  if (row < 0) {
    return Status::NotFound("no live graph with id " + std::to_string(id));
  }
  tombstones_[static_cast<size_t>(row)] = 1;
  ++num_tombstones_;
  --alive_;
  ++epoch_;
  return Status::OK();
}

void QueryEngine::Compact() {
  if (num_tombstones_ == 0 && delta_.num_rows() == 0) return;
  const int total = total_rows();
  PackedBitMatrix merged = PackedBitMatrix::WithWidth(num_features());
  merged.Reserve(alive_);
  std::vector<int> new_ids;
  new_ids.reserve(static_cast<size_t>(alive_));
  std::vector<int> old_to_new(static_cast<size_t>(total), -1);
  const int base_n = base_->num_rows();
  for (int row = 0; row < total; ++row) {
    if (tombstones_[static_cast<size_t>(row)] != 0) continue;
    old_to_new[static_cast<size_t>(row)] =
        row < base_n ? merged.AppendRowFrom(*base_, row)
                     : merged.AppendRowFrom(delta_, row - base_n);
    new_ids.push_back(row_ids_[static_cast<size_t>(row)]);
  }
  // Install a fresh sealed segment rather than mutating in place: frozen
  // snapshots may still hold a refcount on the old one.
  base_ = std::make_shared<const PackedBitMatrix>(std::move(merged));
  delta_ = PackedBitMatrix::WithWidth(num_features());
  row_ids_ = std::move(new_ids);
  tombstones_.assign(static_cast<size_t>(alive_), 0);
  num_tombstones_ = 0;
  ++epoch_;
  // Prune the IVF postings: tombstoned rows drop out (old_to_new == -1),
  // the survivors renumber monotonically. Centroids are kept — only a
  // generation swap re-clusters.
  ivf_.Renumber(old_to_new);
}

std::vector<int> QueryEngine::alive_ids() const {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(alive_));
  for (int row = 0; row < total_rows(); ++row) {
    if (tombstones_[static_cast<size_t>(row)] == 0) {
      ids.push_back(row_ids_[static_cast<size_t>(row)]);
    }
  }
  return ids;
}

std::vector<std::pair<int, const uint64_t*>> QueryEngine::LiveRowWords()
    const {
  std::vector<std::pair<int, const uint64_t*>> live;
  live.reserve(static_cast<size_t>(alive_));
  const int base_n = base_->num_rows();
  for (int row = 0; row < total_rows(); ++row) {
    if (tombstones_[static_cast<size_t>(row)] != 0) continue;
    live.emplace_back(row_ids_[static_cast<size_t>(row)],
                      row < base_n ? base_->row(row)
                                   : delta_.row(row - base_n));
  }
  return live;
}

std::vector<std::pair<int, const uint64_t*>> FrozenEngineState::LiveRowWords()
    const {
  std::vector<std::pair<int, const uint64_t*>> live;
  const int base_n = base->num_rows();
  const int total = base_n + delta.num_rows();
  live.reserve(static_cast<size_t>(total));
  for (int row = 0; row < total; ++row) {
    if (tombstones[static_cast<size_t>(row)] != 0) continue;
    live.emplace_back(row_ids[static_cast<size_t>(row)],
                      row < base_n ? base->row(row)
                                   : delta.row(row - base_n));
  }
  return live;
}

FrozenEngineState QueryEngine::Freeze() const {
  FrozenEngineState frozen;
  frozen.base = base_;  // refcount clone; Compact replaces, never mutates
  frozen.delta = delta_;
  frozen.tombstones = tombstones_;
  frozen.row_ids = row_ids_;
  frozen.ivf = ivf_;
  return frozen;
}

PersistedIvf PersistIvf(const IvfIndex& ivf,
                        const std::vector<uint8_t>& tombstones,
                        const std::vector<int>& row_ids) {
  PersistedIvf persisted;
  persisted.num_bits = ivf.centroids().num_bits();
  const size_t wpc = ivf.centroids().words_per_row();
  for (int b = 0; b < ivf.num_buckets(); ++b) {
    PersistedIvfBucket bucket;
    for (const int row : ivf.posting(b)) {
      // Persist live rows only, lifted to external ids: the snapshot has no
      // notion of this engine's physical row space, and tombstoned postings
      // would violate the reader's live-coverage invariant.
      if (tombstones[static_cast<size_t>(row)] == 0) {
        bucket.ids.push_back(row_ids[static_cast<size_t>(row)]);
      }
    }
    // The reader rejects empty buckets, and a bucket emptied by tombstones
    // carries no information worth restoring.
    if (bucket.ids.empty()) continue;
    const uint64_t* words = ivf.centroids().row(b);
    bucket.centroid_words.assign(words, words + wpc);
    persisted.buckets.push_back(std::move(bucket));
  }
  return persisted;
}

int QueryEngine::FindLiveRow(int id) const {
  const auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), id);
  if (it == row_ids_.end() || *it != id) return -1;
  const int row = static_cast<int>(it - row_ids_.begin());
  return tombstones_[static_cast<size_t>(row)] == 0 ? row : -1;
}

std::vector<Ranking> QueryEngine::FullTopK(const uint64_t* const* queries,
                                           int count, int k) const {
  // Base rows, then delta rows: physical rows ascend across the two scans,
  // as HammingTopK requires. Tombstones are skipped inside the block loop.
  const int base_n = base_->num_rows();
  const uint8_t* skip = num_tombstones_ > 0 ? tombstones_.data() : nullptr;
  std::vector<HammingTopK> selectors(static_cast<size_t>(count),
                                     HammingTopK(k, alive_));
  ScanTopK(*base_, queries, count, skip, 0, selectors.data());
  ScanTopK(delta_, queries, count, skip == nullptr ? nullptr : skip + base_n,
           base_n, selectors.data());
  std::vector<Ranking> results;
  results.reserve(static_cast<size_t>(count));
  for (const HammingTopK& selector : selectors) {
    results.push_back(selector.Ranked(num_features(), row_ids_));
  }
  return results;
}

Ranking QueryEngine::CandidateTopK(const std::vector<uint64_t>& packed_query,
                                   const std::vector<int>& rows,
                                   int k) const {
  // Candidate lists are ascending and live, so base rows form a prefix and
  // delta rows a suffix, offered in the order HammingTopK requires.
  HammingTopK selector(k, static_cast<int>(rows.size()));
  const int base_n = base_->num_rows();
  for (const int row : rows) {
    const int dist =
        row < base_n ? base_->HammingDistance(packed_query, row)
                     : delta_.HammingDistance(packed_query, row - base_n);
    selector.Offer(static_cast<uint32_t>(dist), row);
  }
  return selector.Ranked(num_features(), row_ids_);
}

Ranking QueryEngine::QueryMapped(const std::vector<uint8_t>& fingerprint,
                                 const QueryOptions& options,
                                 ServeQueryStats* stats) const {
  // A malformed k must not abort the serving process; k < 0 answers like
  // k == 0 (empty ranking). The tool boundary additionally rejects it.
  const int k = std::max(options.k, 0);
  WallTimer timer;

  int features_on = 0;
  for (uint8_t b : fingerprint) features_on += b != 0 ? 1 : 0;
  const std::vector<uint64_t> packed_query = base_->PackQuery(fingerprint);

  // Stage 2 runs only under MODE=approx: the IVF probe collects the live
  // members of the nprobe nearest centroid buckets, and stage 3 then
  // exact-scores exactly those rows. The answer differs from kFull only by
  // rows the probe pruned — at NPROBE=all nothing is pruned, the pool is
  // precisely the live rows, and the ranking is bit-identical to a full
  // scan. Stage 3 is the fused popcount scan + integer top-k; selection
  // runs over physical rows, which ascend with external ids, so the
  // score-then-id tie-break is preserved.
  const bool approx = options.scan_mode == ScanMode::kApprox;
  Ranking top;
  int scanned;
  double ivf_probe_usec = 0.0;
  if (approx) {
    const int nprobe =
        options.nprobe > 0 ? options.nprobe : ivf_.default_nprobe();
    WallTimer probe_timer;
    const std::vector<int> candidates =
        ivf_.Probe(packed_query, nprobe, tombstones_);
    ivf_probe_usec = probe_timer.Micros();
    top = CandidateTopK(packed_query, candidates, k);
    scanned = static_cast<int>(candidates.size());
  } else {
    const uint64_t* query = packed_query.data();
    top = std::move(FullTopK(&query, 1, k).front());
    scanned = total_rows();
  }

  if (stats != nullptr) {
    stats->latency_ms = timer.Millis();
    stats->features_on = features_on;
    stats->scanned = scanned;
    stats->approx = approx;
    stats->rows_pruned = approx ? alive_ - scanned : 0;
    stats->ivf_probe_usec = ivf_probe_usec;
  }
  return top;
}

void FillServeBatchReport(double wall_ms,
                          const std::vector<ServeQueryStats>& stats,
                          ServeBatchReport* report) {
  report->wall_ms = wall_ms;
  report->qps = wall_ms > 0.0
                    ? static_cast<double>(stats.size()) / (wall_ms * 1e-3)
                    : 0.0;
  std::vector<double> latencies;
  latencies.reserve(stats.size());
  report->scanned_rows = 0;
  report->approx_queries = 0;
  report->approx_candidates_scanned = 0;
  report->approx_rows_pruned = 0;
  report->stage_scan_usec.clear();
  report->stage_ivf_probe_usec.clear();
  report->stage_gather_usec.clear();
  for (const ServeQueryStats& s : stats) {
    latencies.push_back(s.latency_ms);
    report->scanned_rows += s.scanned;
    if (s.approx) {
      ++report->approx_queries;
      report->approx_candidates_scanned += s.scanned;
      report->approx_rows_pruned += s.rows_pruned;
    }
    report->stage_scan_usec.insert(report->stage_scan_usec.end(),
                                   s.shard_scan_usec.begin(),
                                   s.shard_scan_usec.end());
    if (s.ivf_probe_usec > 0.0) {
      report->stage_ivf_probe_usec.push_back(s.ivf_probe_usec);
    }
    if (s.gather_usec > 0.0) {
      report->stage_gather_usec.push_back(s.gather_usec);
    }
  }
  report->latency_ms = SummarizeLatencies(std::move(latencies));
}

std::vector<Ranking> QueryEngine::QueryMappedTile(
    const std::vector<uint8_t>* fingerprints, int count,
    const QueryOptions& options, std::vector<ServeQueryStats>* stats) const {
  const int k = std::max(options.k, 0);
  WallTimer timer;
  if (stats != nullptr) {
    stats->assign(static_cast<size_t>(std::max(count, 0)),
                  ServeQueryStats{});
  }
  if (count <= 0) return {};

  std::vector<std::vector<uint64_t>> packed(static_cast<size_t>(count));
  std::vector<const uint64_t*> query_ptrs(static_cast<size_t>(count));
  for (int q = 0; q < count; ++q) {
    packed[static_cast<size_t>(q)] = base_->PackQuery(fingerprints[q]);
    query_ptrs[static_cast<size_t>(q)] = packed[static_cast<size_t>(q)].data();
  }
  std::vector<Ranking> results = FullTopK(query_ptrs.data(), count, k);

  if (stats != nullptr) {
    const double tile_ms = timer.Millis();
    for (int q = 0; q < count; ++q) {
      ServeQueryStats& s = (*stats)[static_cast<size_t>(q)];
      s.latency_ms = tile_ms;
      int features_on = 0;
      for (uint8_t b : fingerprints[q]) features_on += b != 0 ? 1 : 0;
      s.features_on = features_on;
      s.scanned = total_rows();
    }
  }
  return results;
}

}  // namespace gdim
