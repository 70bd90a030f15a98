#include "obs/metric_registry.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace gdim {

namespace {

/// Renders a bucket bound for a `le="..."` label. The stage bounds are all
/// integral, so this prints exact integers; a fractional bound (tests) falls
/// back to %g.
std::string FormatLe(double bound) {
  char buf[48];
  if (bound == std::floor(bound) && std::abs(bound) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", bound);
  } else {
    std::snprintf(buf, sizeof(buf), "%g", bound);
  }
  return std::string(buf);
}

std::string FormatSum(double sum) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", sum);
  return std::string(buf);
}

/// `{labels}` when a label body is present, "" otherwise.
std::string Braced(const std::string& labels) {
  if (labels.empty()) return "";
  return "{" + labels + "}";
}

/// Joins a label body with an extra `le` pair: `{le="10"}` or
/// `{kernel="avx2",le="10"}`.
std::string BracedWithLe(const std::string& labels, const std::string& le) {
  if (labels.empty()) return "{le=\"" + le + "\"}";
  return "{" + labels + ",le=\"" + le + "\"}";
}

}  // namespace

const std::vector<double>& StageLatencyBucketBoundsUsec() {
  static const std::vector<double> kBounds = {
      1,     2,     5,      10,     25,     50,      100,     250,    500,
      1000,  2500,  5000,   10000,  25000,  50000,   100000,  250000, 500000,
      1000000, 2500000, 5000000, 10000000, 30000000, 60000000};
  return kBounds;
}

LatencyHistogram::LatencyHistogram(std::vector<double> upper_bounds_usec)
    : bounds_(std::move(upper_bounds_usec)), cells_(bounds_.size() + 1) {}

void LatencyHistogram::Record(double usec) {
  size_t i = 0;
  while (i < bounds_.size() && usec > bounds_[i]) ++i;
  cells_[i].fetch_add(1, std::memory_order_relaxed);
  const double nanos = usec * 1e3;
  sum_nanos_.fetch_add(nanos > 0 ? static_cast<uint64_t>(std::llround(nanos))
                                 : 0,
                       std::memory_order_relaxed);
}

void LatencyHistogram::Merge(const BucketHistogram& other) {
  if (other.upper_bounds() != bounds_) return;
  const std::vector<uint64_t>& counts = other.bucket_counts();
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (counts[i] != 0) cells_[i].fetch_add(counts[i], std::memory_order_relaxed);
  }
  const double nanos = other.sum() * 1e3;
  sum_nanos_.fetch_add(nanos > 0 ? static_cast<uint64_t>(std::llround(nanos))
                                 : 0,
                       std::memory_order_relaxed);
}

BucketHistogram LatencyHistogram::Snapshot() const {
  std::vector<uint64_t> counts(cells_.size(), 0);
  for (size_t i = 0; i < cells_.size(); ++i) {
    counts[i] = cells_[i].load(std::memory_order_relaxed);
  }
  const double sum_usec =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) / 1e3;
  return BucketHistogram(bounds_, std::move(counts), sum_usec);
}

MetricCounter* MetricRegistry::GetCounter(const std::string& name,
                                          const std::string& help) {
  MutexLock lock(&mu_);
  CounterFamily& family = counters_[name];
  if (family.cell == nullptr) {
    family.help = help;
    family.cell = std::make_unique<MetricCounter>();
  }
  return family.cell.get();
}

MetricGauge* MetricRegistry::GetGauge(const std::string& name,
                                      const std::string& help) {
  MutexLock lock(&mu_);
  GaugeFamily& family = gauges_[name];
  if (family.cell == nullptr) {
    family.help = help;
    family.cell = std::make_unique<MetricGauge>();
  }
  return family.cell.get();
}

LatencyHistogram* MetricRegistry::GetHistogram(const std::string& name,
                                               const std::string& help,
                                               const std::string& labels) {
  MutexLock lock(&mu_);
  HistogramFamily& family = histograms_[name];
  if (family.help.empty()) family.help = help;
  std::unique_ptr<LatencyHistogram>& series = family.series[labels];
  if (series == nullptr) {
    series =
        std::make_unique<LatencyHistogram>(StageLatencyBucketBoundsUsec());
  }
  return series.get();
}

LatencyHistogram* MetricRegistry::GetStageHistogram(const std::string& stage,
                                                    const std::string& help,
                                                    const std::string& labels) {
  return GetHistogram("gdim_stage_" + stage + "_usec", help, labels);
}

std::string MetricRegistry::ExpositionText() const {
  // One pre-rendered block per family, keyed by family name so the three
  // kind-specific maps interleave in one stable sorted order.
  std::map<std::string, std::string> blocks;
  MutexLock lock(&mu_);
  for (const auto& [name, family] : counters_) {
    std::string block;
    block += "# HELP " + name + " " + family.help + "\n";
    block += "# TYPE " + name + " counter\n";
    block += name + " " + std::to_string(family.cell->value()) + "\n";
    blocks[name] = std::move(block);
  }
  for (const auto& [name, family] : gauges_) {
    std::string block;
    block += "# HELP " + name + " " + family.help + "\n";
    block += "# TYPE " + name + " gauge\n";
    block += name + " " + std::to_string(family.cell->value()) + "\n";
    blocks[name] = std::move(block);
  }
  for (const auto& [name, family] : histograms_) {
    std::string block;
    block += "# HELP " + name + " " + family.help + "\n";
    block += "# TYPE " + name + " histogram\n";
    for (const auto& [labels, series] : family.series) {
      const BucketHistogram snapshot = series->Snapshot();
      const std::vector<uint64_t> cumulative = snapshot.CumulativeCounts();
      const std::vector<double>& bounds = snapshot.upper_bounds();
      for (size_t i = 0; i < bounds.size(); ++i) {
        block += name + "_bucket" + BracedWithLe(labels, FormatLe(bounds[i])) +
                 " " + std::to_string(cumulative[i]) + "\n";
      }
      block += name + "_bucket" + BracedWithLe(labels, "+Inf") + " " +
               std::to_string(cumulative.back()) + "\n";
      block += name + "_sum" + Braced(labels) + " " +
               FormatSum(snapshot.sum()) + "\n";
      block += name + "_count" + Braced(labels) + " " +
               std::to_string(snapshot.count()) + "\n";
    }
    blocks[name] = std::move(block);
  }
  std::string out;
  for (const auto& [name, block] : blocks) out += block;
  return out;
}

}  // namespace gdim
