#include "serve/query_engine.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "common/timer.h"

namespace gdim {

QueryEngine QueryEngine::FromPacked(PackedBitMatrix rows,
                                    std::vector<int> ids) {
  const int n = rows.num_rows();
  QueryEngine engine;
  engine.base_ = std::make_shared<const PackedBitMatrix>(std::move(rows));
  engine.delta_ = PackedBitMatrix::WithWidth(engine.base_->num_bits());
  engine.tombstones_.assign(static_cast<size_t>(n), 0);
  engine.alive_ = n;
  engine.row_ids_ = std::move(ids);
  // The IVF index is derived state, rebuilt with every shard — which is
  // exactly what gives a load or a generation swap fresh clusters over the
  // current fingerprints (zero stale buckets by construction).
  engine.ivf_ = IvfIndex::Build(*engine.base_, 0);
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

namespace {

/// The one live-row walk behind a shard's and a capture's row streams:
/// every non-tombstoned row of base then delta (physical = ascending-id
/// order) as an (external id, packed words) pair.
std::vector<std::pair<int, const uint64_t*>> LiveRows(
    const PackedBitMatrix& base, const PackedBitMatrix& delta,
    const std::vector<uint8_t>& tombstones, const std::vector<int>& row_ids) {
  std::vector<std::pair<int, const uint64_t*>> live;
  live.reserve(tombstones.size());
  const int base_n = base.num_rows();
  const int total = base_n + delta.num_rows();
  for (int row = 0; row < total; ++row) {
    if (tombstones[static_cast<size_t>(row)] != 0) continue;
    live.emplace_back(row_ids[static_cast<size_t>(row)],
                      row < base_n ? base.row(row) : delta.row(row - base_n));
  }
  return live;
}

}  // namespace

std::vector<int> QueryEngine::alive_ids() const {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(alive_));
  for (const auto& [id, words] : LiveRowWords()) ids.push_back(id);
  return ids;
}

std::vector<std::pair<int, const uint64_t*>> QueryEngine::LiveRowWords()
    const {
  return LiveRows(*base_, delta_, tombstones_, row_ids_);
}

std::vector<std::pair<int, const uint64_t*>> FrozenEngineState::LiveRowWords()
    const {
  return LiveRows(*base, delta, tombstones, row_ids);
}

FrozenEngineState QueryEngine::Freeze() const {
  FrozenEngineState frozen;
  frozen.base = base_;  // refcount clone; Compact replaces, never mutates
  frozen.delta = delta_;
  frozen.tombstones = tombstones_;
  frozen.row_ids = row_ids_;
  return frozen;
}

int QueryEngine::FindLiveRow(int id) const {
  const auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), id);
  if (it == row_ids_.end() || *it != id) return -1;
  const int row = static_cast<int>(it - row_ids_.begin());
  return tombstones_[static_cast<size_t>(row)] == 0 ? row : -1;
}

std::vector<HammingHits> QueryEngine::FullTopK(
    const std::vector<uint64_t>* queries, int count, int k) const {
  std::vector<const uint64_t*> words(static_cast<size_t>(count));
  for (int q = 0; q < count; ++q) {
    words[static_cast<size_t>(q)] = queries[q].data();
  }
  // Base rows, then delta rows: physical rows ascend across the two scans,
  // as HammingTopK requires. Tombstones are skipped inside the block loop.
  const int base_n = base_->num_rows();
  const uint8_t* skip = num_tombstones_ > 0 ? tombstones_.data() : nullptr;
  std::vector<HammingTopK> selectors(static_cast<size_t>(count),
                                     HammingTopK(k, alive_));
  ScanTopK(*base_, words.data(), count, skip, 0, selectors.data());
  ScanTopK(delta_, words.data(), count,
           skip == nullptr ? nullptr : skip + base_n, base_n,
           selectors.data());
  std::vector<HammingHits> hits;
  hits.reserve(static_cast<size_t>(count));
  for (const HammingTopK& selector : selectors) {
    hits.push_back(selector.Hits(row_ids_));
  }
  return hits;
}

HammingHits QueryEngine::CandidateTopK(
    const std::vector<uint64_t>& packed_query, const std::vector<int>& rows,
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
  return selector.Hits(row_ids_);
}

std::vector<HammingHits> QueryEngine::ScanPacked(
    const std::vector<uint64_t>* queries, int count,
    const QueryOptions& options, ServeQueryStats* stats) const {
  // A malformed k must not abort the serving process; k < 0 answers like
  // k == 0 (empty ranking). The tool boundary additionally rejects it.
  const int k = std::max(options.k, 0);
  if (options.scan_mode != ScanMode::kApprox) {
    for (int q = 0; q < count; ++q) stats[q].scanned += total_rows();
    return FullTopK(queries, count, k);
  }
  // Stage 2 runs only under MODE=approx: the IVF probe collects the live
  // members of the nprobe nearest centroid buckets, and stage 3 then
  // exact-scores exactly those rows. The answer differs from kFull only by
  // rows the probe pruned — at NPROBE=all nothing is pruned, the pool is
  // precisely the live rows, and the ranking is bit-identical to a full
  // scan. Each query has its own pool, so queries share no row passes.
  const int nprobe =
      options.nprobe > 0 ? options.nprobe : ivf_.default_nprobe();
  std::vector<HammingHits> hits;
  hits.reserve(static_cast<size_t>(count));
  for (int q = 0; q < count; ++q) {
    WallTimer probe_timer;
    const std::vector<int> candidates =
        ivf_.Probe(queries[q], nprobe, tombstones_);
    stats[q].ivf_probe_usec += probe_timer.Micros();
    const int scanned = static_cast<int>(candidates.size());
    stats[q].scanned += scanned;
    stats[q].rows_pruned += alive_ - scanned;
    hits.push_back(CandidateTopK(queries[q], candidates, k));
  }
  return hits;
}

Ranking QueryEngine::QueryMapped(const std::vector<uint8_t>& fingerprint,
                                 const QueryOptions& options) const {
  const std::vector<uint64_t> packed_query = base_->PackQuery(fingerprint);
  ServeQueryStats stats;
  return ToRanking(ScanPacked(&packed_query, 1, options, &stats).front(),
                   num_features());
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
  report->approx_queries = 0;
  report->approx_candidates_scanned = 0;
  report->approx_rows_pruned = 0;
  report->stage_scan_usec.clear();
  report->stage_ivf_probe_usec.clear();
  report->stage_gather_usec.clear();
  for (const ServeQueryStats& s : stats) {
    latencies.push_back(s.latency_ms);
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

}  // namespace gdim
