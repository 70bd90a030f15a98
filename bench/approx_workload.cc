// Approximate-serving recall gate: the accuracy/latency contract behind
// MODE=approx, proven on a 50k-row corpus and wired into CI. The corpus is
// clustered (prototype fingerprints plus per-bit noise — the structure an
// inverted-file index exploits; uniform random bits have none), and every
// query is answered three ways: exact full scan, approx at the engine's
// default probe width, and approx at NPROBE=all.
//
//   bench_approx_workload [--n=50000 --p=96 --clusters=64 --queries=100
//                          --k=10 --shards=4 --threads=4 --seed=7
//                          --recall-gate=0.9 --scan-gate=0.25]
//
// Everything is seeded, so a given flag set is fully deterministic. Exit
// gates (nonzero on violation):
//   1. NPROBE=all must be bit-identical to MODE=full for every query.
//   2. mean recall@k at the default probe width must be >= --recall-gate.
//   3. the default probe width must scan < --scan-gate of the live rows.

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/index_io.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "server/sharded_engine.h"

namespace gdim {
namespace {

/// Single-vertex features (labels 0..p-1): a fingerprint IS a row's bit
/// vector, so the corpus can be synthesized directly at any scale without
/// mining.
GraphDatabase LabelFeatures(int p) {
  GraphDatabase features;
  for (int r = 0; r < p; ++r) {
    Graph f;
    f.AddVertex(static_cast<LabelId>(r));
    features.push_back(f);
  }
  return features;
}

std::vector<uint8_t> RandomBits(int p, Rng* rng) {
  std::vector<uint8_t> bits(static_cast<size_t>(p));
  for (auto& bit : bits) bit = rng->UniformU64(2) != 0 ? 1 : 0;
  return bits;
}

/// `base` with each bit flipped with probability 1/denominator.
std::vector<uint8_t> Perturb(const std::vector<uint8_t>& base,
                             uint64_t denominator, Rng* rng) {
  std::vector<uint8_t> bits = base;
  for (auto& bit : bits) {
    if (rng->UniformU64(denominator) == 0) bit = bit != 0 ? 0 : 1;
  }
  return bits;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int n = std::max(100, flags.GetInt("n", 50000));
  const int p = std::max(8, flags.GetInt("p", 96));
  const int clusters = std::max(2, flags.GetInt("clusters", 64));
  const int num_queries = std::max(1, flags.GetInt("queries", 100));
  const int k = std::max(1, flags.GetInt("k", 10));
  const int shards = std::max(1, flags.GetInt("shards", 4));
  const int threads = std::max(1, flags.GetInt("threads", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const double recall_gate = flags.GetDouble("recall-gate", 0.9);
  const double scan_gate = flags.GetDouble("scan-gate", 0.25);

  std::printf(
      "approx_workload: n=%d p=%d clusters=%d queries=%d k=%d shards=%d "
      "threads=%d seed=%llu\n",
      n, p, clusters, num_queries, k, shards, threads,
      static_cast<unsigned long long>(seed));

  // Clustered corpus + queries near the prototypes.
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> prototypes;
  prototypes.reserve(static_cast<size_t>(clusters));
  for (int c = 0; c < clusters; ++c) prototypes.push_back(RandomBits(p, &rng));
  PersistedIndex index;
  index.features = LabelFeatures(p);
  index.db_bits.reserve(static_cast<size_t>(n));
  WallTimer timer;
  for (int i = 0; i < n; ++i) {
    const auto& proto =
        prototypes[rng.UniformU64(static_cast<uint64_t>(clusters))];
    index.db_bits.push_back(Perturb(proto, /*denominator=*/16, &rng));
  }
  std::vector<std::vector<uint8_t>> queries;
  queries.reserve(static_cast<size_t>(num_queries));
  for (int q = 0; q < num_queries; ++q) {
    const auto& proto = prototypes[static_cast<size_t>(q % clusters)];
    queries.push_back(Perturb(proto, /*denominator=*/12, &rng));
  }

  ShardedOptions opts;
  opts.num_shards = shards;
  opts.serve.threads = threads;
  Result<ShardedEngine> engine =
      ShardedEngine::FromIndex(std::move(index), opts);
  GDIM_CHECK(engine.ok()) << engine.status().ToString();
  std::printf("built engine (+IVF, %d buckets) over %d rows in %.2fs\n",
              engine->ivf_buckets(), n, timer.Seconds());

  // Exact reference + full-scan wall time.
  timer.Reset();
  std::vector<Ranking> exact(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    exact[q] =
        engine->QueryMapped(queries[q], {.k = k, .scan_mode = ScanMode::kFull});
  }
  const double full_s = timer.Seconds();

  // Gate 1: NPROBE=all must reproduce the full scan bit for bit.
  for (size_t q = 0; q < queries.size(); ++q) {
    const Ranking all = engine->QueryMapped(
        queries[q],
        {.k = k, .scan_mode = ScanMode::kApprox, .nprobe = kNprobeAll});
    if (all != exact[q]) {
      std::fprintf(stderr,
                   "FAIL: NPROBE=all diverges from MODE=full on query %zu\n",
                   q);
      return 1;
    }
  }

  // Default probe width: recall + scanned fraction + wall time.
  timer.Reset();
  std::vector<Ranking> approx(queries.size());
  long long scanned = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    ServeQueryStats stats;
    approx[q] = engine->QueryMapped(
        queries[q], {.k = k, .scan_mode = ScanMode::kApprox}, &stats);
    scanned += stats.scanned;
  }
  const double approx_s = timer.Seconds();
  double recall_sum = 0.0;
  for (size_t q = 0; q < queries.size(); ++q) {
    std::set<int> exact_ids;
    for (const RankedResult& r : exact[q]) exact_ids.insert(r.id);
    int hits = 0;
    for (const RankedResult& r : approx[q]) {
      hits += exact_ids.count(r.id) != 0 ? 1 : 0;
    }
    recall_sum += exact[q].empty() ? 1.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(exact[q].size());
  }
  const double recall = recall_sum / static_cast<double>(queries.size());
  const double scan_frac =
      static_cast<double>(scanned) /
      (static_cast<double>(num_queries) * static_cast<double>(n));
  const double full_qps = static_cast<double>(num_queries) / full_s;
  const double approx_qps = static_cast<double>(num_queries) / approx_s;
  std::printf(
      "full scan:   %7.0f q/s (%.3fs for %d queries)\n"
      "approx scan: %7.0f q/s (%.3fs, %.1f%% of rows scanned, "
      "recall@%d %.3f)\n",
      full_qps, full_s, num_queries, approx_qps, approx_s, scan_frac * 100.0,
      k, recall);
  std::printf("# approx gate: recall=%.3f (>= %.2f) scan_frac=%.3f (< %.2f) "
              "speedup=%.2fx\n",
              recall, recall_gate, scan_frac, scan_gate,
              approx_qps / full_qps);

  if (recall + 1e-9 < recall_gate) {
    std::fprintf(stderr, "FAIL: recall@%d %.3f below the %.2f gate\n", k,
                 recall, recall_gate);
    return 1;
  }
  if (scan_frac >= scan_gate) {
    std::fprintf(stderr,
                 "FAIL: default NPROBE scanned %.1f%% of rows "
                 "(gate < %.0f%%)\n",
                 scan_frac * 100.0, scan_gate * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gdim

int main(int argc, char** argv) { return gdim::Main(argc, argv); }
