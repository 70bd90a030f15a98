#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "obs/metric_registry.h"

namespace gdim {
namespace {

TEST(MetricRegistryTest, GetReturnsOneCellPerName) {
  MetricRegistry registry;
  MetricCounter* a = registry.GetCounter("gdim_test_total", "a counter");
  MetricCounter* b = registry.GetCounter("gdim_test_total", "ignored help");
  EXPECT_EQ(a, b);
  a->Increment();
  b->Increment(2);
  EXPECT_EQ(a->value(), 3u);

  MetricGauge* g = registry.GetGauge("gdim_test_gauge", "a gauge");
  g->Set(-7);
  EXPECT_EQ(registry.GetGauge("gdim_test_gauge", "")->value(), -7);

  LatencyHistogram* h = registry.GetHistogram("gdim_test_usec", "a histogram");
  EXPECT_EQ(h, registry.GetHistogram("gdim_test_usec", ""));
  // Distinct label bodies are distinct series in the same family.
  EXPECT_NE(h, registry.GetHistogram("gdim_test_usec", "", "kernel=\"x\""));
}

TEST(MetricRegistryTest, StageHistogramNamesFollowTheContract) {
  MetricRegistry registry;
  LatencyHistogram* h =
      registry.GetStageHistogram(kStageMapAll, "stage-1 mapping");
  h->Record(3.0);
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("# TYPE gdim_stage_map_all_usec histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gdim_stage_map_all_usec_count 1"), std::string::npos);
}

TEST(MetricRegistryTest, HistogramBucketMath) {
  MetricRegistry registry;
  LatencyHistogram* h = registry.GetHistogram("gdim_test_usec", "buckets");
  // The shared stage bounds start 1, 2, 5, 10, ...
  h->Record(0.5);   // -> le="1"
  h->Record(1.0);   // on the bound -> still le="1"
  h->Record(3.0);   // -> le="5"
  h->Record(4e6);   // past the largest bound -> +Inf only
  const BucketHistogram snapshot = h->Snapshot();
  EXPECT_EQ(snapshot.count(), 4u);
  EXPECT_NEAR(snapshot.sum(), 0.5 + 1.0 + 3.0 + 4e6, 1e-6);
  const std::vector<uint64_t> cumulative = snapshot.CumulativeCounts();
  EXPECT_EQ(cumulative[0], 2u);  // le="1"
  EXPECT_EQ(cumulative[1], 2u);  // le="2"
  EXPECT_EQ(cumulative[2], 3u);  // le="5"
  EXPECT_EQ(cumulative.back(), 4u);  // +Inf == count
}

// A 3 s stage (a REINDEX build, say) must land in the 5 s bucket, not
// +Inf: the bounds reach 60 s so multi-second stages keep a finite reading.
TEST(MetricRegistryTest, MultiSecondSamplesLandInFiniteBuckets) {
  MetricRegistry registry;
  LatencyHistogram* h = registry.GetHistogram("gdim_slow_usec", "slow");
  h->Record(3e6);
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("gdim_slow_usec_bucket{le=\"2500000\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("gdim_slow_usec_bucket{le=\"5000000\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("gdim_slow_usec_bucket{le=\"60000000\"} 1\n"),
            std::string::npos);
  // The overflow (+Inf) cell itself stays empty.
  const BucketHistogram snapshot = h->Snapshot();
  ASSERT_EQ(snapshot.upper_bounds().back(), 60e6);
  EXPECT_EQ(snapshot.count(), 1u);
  EXPECT_EQ(snapshot.bucket_counts().back(), 0u);
}

TEST(MetricRegistryTest, MergeFoldsPreBinnedSamples) {
  MetricRegistry registry;
  LatencyHistogram* h = registry.GetHistogram("gdim_test_usec", "merge");
  h->Record(3.0);
  // A per-shard histogram binned with the shared bounds, folded in bulk —
  // the registry's aggregation path for scan samples.
  BucketHistogram shard(StageLatencyBucketBoundsUsec());
  shard.Record(7.0);
  shard.Record(40.0);
  h->Merge(shard);
  const BucketHistogram snapshot = h->Snapshot();
  EXPECT_EQ(snapshot.count(), 3u);
  EXPECT_NEAR(snapshot.sum(), 3.0 + 7.0 + 40.0, 1e-6);
  // Mismatched bounds never corrupt the series.
  BucketHistogram alien({1.0, 2.0});
  alien.Record(1.5);
  h->Merge(alien);
  EXPECT_EQ(h->Snapshot().count(), 3u);
}

TEST(MetricRegistryTest, ExpositionGolden) {
  MetricRegistry registry;
  registry.GetCounter("gdim_b_total", "second family")->Increment(5);
  registry.GetGauge("gdim_c_gauge", "third family")->Set(9);
  LatencyHistogram* h =
      registry.GetHistogram("gdim_a_usec", "first family", "kernel=\"x\"");
  h->Record(1.0);
  h->Record(3.0);
  // Families in sorted name order regardless of kind; histograms carry
  // cumulative buckets, sum, and count; the +Inf cumulative equals count.
  const std::string text = registry.ExpositionText();
  const std::string expected_head =
      "# HELP gdim_a_usec first family\n"
      "# TYPE gdim_a_usec histogram\n"
      "gdim_a_usec_bucket{kernel=\"x\",le=\"1\"} 1\n"
      "gdim_a_usec_bucket{kernel=\"x\",le=\"2\"} 1\n"
      "gdim_a_usec_bucket{kernel=\"x\",le=\"5\"} 2\n";
  EXPECT_EQ(text.substr(0, expected_head.size()), expected_head);
  const std::string expected_tail =
      "gdim_a_usec_bucket{kernel=\"x\",le=\"+Inf\"} 2\n"
      "gdim_a_usec_sum{kernel=\"x\"} 4.000\n"
      "gdim_a_usec_count{kernel=\"x\"} 2\n"
      "# HELP gdim_b_total second family\n"
      "# TYPE gdim_b_total counter\n"
      "gdim_b_total 5\n"
      "# HELP gdim_c_gauge third family\n"
      "# TYPE gdim_c_gauge gauge\n"
      "gdim_c_gauge 9\n";
  ASSERT_GE(text.size(), expected_tail.size());
  EXPECT_EQ(text.substr(text.size() - expected_tail.size()), expected_tail);
}

TEST(MetricRegistryTest, ConcurrentRecordingIsExact) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Every thread both registers (exercising the mutex) and records
      // (exercising the lock-free cells).
      MetricCounter* counter =
          registry.GetCounter("gdim_concurrent_total", "shared");
      LatencyHistogram* histogram =
          registry.GetHistogram("gdim_concurrent_usec", "shared");
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Record(static_cast<double>(t + 1));
        registry.GetGauge("gdim_concurrent_gauge", "shared")->Set(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("gdim_concurrent_total", "")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const BucketHistogram snapshot =
      registry.GetHistogram("gdim_concurrent_usec", "")->Snapshot();
  EXPECT_EQ(snapshot.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  // sum of t+1 for t in 0..7 = 36 per round.
  EXPECT_NEAR(snapshot.sum(), 36.0 * kPerThread, 1e-3);
  // count printed in the exposition equals the +Inf cumulative bucket.
  const std::string text = registry.ExpositionText();
  const std::string count_line =
      "gdim_concurrent_usec_count " + std::to_string(snapshot.count());
  EXPECT_NE(text.find(count_line), std::string::npos);
}

}  // namespace
}  // namespace gdim
