#ifndef GDIM_OBS_METRIC_REGISTRY_H_
#define GDIM_OBS_METRIC_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/sync.h"

namespace gdim {

// ---------------------------------------------------------------------------
// Pipeline stage names.
//
// One constant per instrumented stage of the serving pipeline; the metric a
// stage records under is always `gdim_stage_<stage>_usec`. These spellings
// are a wire-adjacent contract: docs/protocol.md's "Query tracing" stage
// table must list exactly this set, in both directions (enforced by
// tools/check_invariants.py check 6, the same pattern as the wire-verb and
// snapshot-section checks).
// ---------------------------------------------------------------------------

/// Submit → dispatcher pop: time spent waiting in the admission queue.
inline constexpr char kStageAdmissionWait[] = "admission_wait";
/// Result-cache key computation + lookup for one coalesced query run.
inline constexpr char kStageCacheProbe[] = "cache_probe";
/// Stage-1 VF2 mapping of one coalesced query run onto the dimension.
inline constexpr char kStageMapAll[] = "map_all";
/// One shard's exact full scan of one query span.
inline constexpr char kStageScanExact[] = "scan_exact";
/// One shard's MODE=approx candidate scan of one query span.
inline constexpr char kStageScanApprox[] = "scan_approx";
/// One query's IVF bucket probe (MODE=approx only).
inline constexpr char kStageIvfProbe[] = "ivf_probe";
/// Serial merge of per-shard top-k lists into one ranking.
inline constexpr char kStageGatherMerge[] = "gather_merge";
/// One Insert/Remove/Compact applied to the engine (+ store).
inline constexpr char kStageMutationApply[] = "mutation_apply";
/// SNAPSHOT's dispatcher-side freeze (the bounded serving pause).
inline constexpr char kStageSnapshotFreeze[] = "snapshot_freeze";
/// SNAPSHOT's background file write.
inline constexpr char kStageSnapshotWrite[] = "snapshot_write";
/// REINDEX background selection: freeze handoff → finished generation.
inline constexpr char kStageReindexBuild[] = "reindex_build";
/// REINDEX dispatcher-side reconcile + generation swap.
inline constexpr char kStageReindexSwap[] = "reindex_swap";

/// The fixed bucket layout every stage histogram uses: exponential-ish
/// upper bounds in microseconds from 1us to 60s (an implicit +Inf bucket
/// catches the rest). The 5s..60s tail keeps multi-second stages such as
/// a REINDEX build out of +Inf. Integral values only, so the exposition
/// text renders them exactly.
const std::vector<double>& StageLatencyBucketBoundsUsec();

/// Monotonically increasing event count. Lock-free; relaxed atomics — each
/// cell is an independent statistic, not a synchronization point.
class MetricCounter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depth, uptime). Lock-free.
class MetricGauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket latency histogram with one atomic cell per bucket, so hot
/// paths record without taking any lock. The exposition count is derived as
/// the sum of the bucket cells — count always equals the +Inf cumulative
/// bucket exactly, even while other threads are recording.
class LatencyHistogram {
 public:
  /// `upper_bounds_usec` must be strictly increasing; an implicit +Inf
  /// overflow bucket is appended.
  explicit LatencyHistogram(std::vector<double> upper_bounds_usec);

  /// Adds one sample (microseconds). Lock-free.
  void Record(double usec);

  /// Bulk-adds a pre-binned histogram with the same bucket bounds — how the
  /// registry folds per-shard scan histograms into the process-wide series
  /// without one atomic op per original sample. Mismatched bounds are
  /// dropped (the registry only merges histograms built from its own
  /// bounds).
  void Merge(const BucketHistogram& other);

  /// A consistent-enough copy for quantile math in tests and benches:
  /// relaxed per-cell loads, count derived from the loaded cells.
  BucketHistogram Snapshot() const;

  const std::vector<double>& upper_bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 cells; the last is the +Inf overflow bucket.
  std::vector<std::atomic<uint64_t>> cells_;
  /// Sum kept in integer nanoseconds: atomic fetch-add on an integer is
  /// portable everywhere the toolchain matrix builds, unlike atomic double.
  std::atomic<uint64_t> sum_nanos_{0};
};

/// Thread-safe name → metric registry with Prometheus text exposition.
///
/// Registration (Get*) takes a mutex and returns a pointer that stays valid
/// for the registry's lifetime, so callers resolve their cells once at
/// startup and the hot path touches only the lock-free cells. Histograms may
/// carry one pre-rendered label body (e.g. `kernel="avx2"`) distinguishing
/// series within a family; counters and gauges are unlabeled.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Finds or creates. The first registration of a family fixes its help
  /// text; later calls with the same name return the existing cell.
  MetricCounter* GetCounter(const std::string& name, const std::string& help)
      GDIM_EXCLUDES(mu_);
  MetricGauge* GetGauge(const std::string& name, const std::string& help)
      GDIM_EXCLUDES(mu_);
  /// `labels` is a pre-rendered Prometheus label body without braces, e.g.
  /// `kernel="avx2"`; empty means the unlabeled series. All histograms use
  /// StageLatencyBucketBoundsUsec().
  LatencyHistogram* GetHistogram(const std::string& name,
                                 const std::string& help,
                                 const std::string& labels = "")
      GDIM_EXCLUDES(mu_);
  /// The per-stage histogram `gdim_stage_<stage>_usec` (stage is one of the
  /// kStage* constants above).
  LatencyHistogram* GetStageHistogram(const std::string& stage,
                                      const std::string& help,
                                      const std::string& labels = "")
      GDIM_EXCLUDES(mu_);

  /// Prometheus text exposition: `# HELP` / `# TYPE` per family, families
  /// and series in stable sorted order, histograms as cumulative
  /// `_bucket{le=...}` lines plus `_sum` and `_count`. No terminator line —
  /// the wire layer appends its own `# EOF`.
  std::string ExpositionText() const GDIM_EXCLUDES(mu_);

 private:
  struct CounterFamily {
    std::string help;
    std::unique_ptr<MetricCounter> cell;
  };
  struct GaugeFamily {
    std::string help;
    std::unique_ptr<MetricGauge> cell;
  };
  struct HistogramFamily {
    std::string help;
    /// label body → series, sorted so exposition order is stable.
    std::map<std::string, std::unique_ptr<LatencyHistogram>> series;
  };

  mutable Mutex mu_;
  std::map<std::string, CounterFamily> counters_ GDIM_GUARDED_BY(mu_);
  std::map<std::string, GaugeFamily> gauges_ GDIM_GUARDED_BY(mu_);
  std::map<std::string, HistogramFamily> histograms_ GDIM_GUARDED_BY(mu_);
};

}  // namespace gdim

#endif  // GDIM_OBS_METRIC_REGISTRY_H_
