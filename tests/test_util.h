#ifndef GDIM_TESTS_TEST_UTIL_H_
#define GDIM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.h"
#include "core/index_io.h"
#include "core/objective.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "graph/graph_utils.h"
#include "isomorphism/vf2.h"

namespace gdim {
namespace testing_util {

/// Random connected labeled graph with n vertices and extra random edges.
inline Graph RandomConnectedGraph(int n, int extra_edges, int vertex_labels,
                                  int edge_labels, Rng* rng) {
  Graph g;
  for (int v = 0; v < n; ++v) {
    g.AddVertex(static_cast<LabelId>(
        rng->UniformU64(static_cast<uint64_t>(vertex_labels))));
  }
  for (int v = 1; v < n; ++v) {
    int u = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(v)));
    g.AddEdge(u, v, static_cast<LabelId>(rng->UniformU64(
                        static_cast<uint64_t>(edge_labels))));
  }
  int guard = 0;
  while (extra_edges > 0 && guard < 200) {
    ++guard;
    int u = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(n)));
    int v = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(n)));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v, static_cast<LabelId>(rng->UniformU64(
                        static_cast<uint64_t>(edge_labels))));
    --extra_edges;
  }
  return g;
}

/// Random edge-subgraph of g with the given number of edges kept.
inline Graph RandomEdgeSubgraph(const Graph& g, int keep_edges, Rng* rng) {
  std::vector<EdgeId> ids;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) ids.push_back(e);
  rng->Shuffle(&ids);
  keep_edges = std::min<int>(keep_edges, static_cast<int>(ids.size()));
  ids.resize(static_cast<size_t>(keep_edges));
  return EdgeSubgraph(g, ids);
}

/// Brute-force subgraph isomorphism: tries all injective vertex mappings.
/// Only usable for tiny patterns.
inline bool BruteForceSubgraphIso(const Graph& pattern, const Graph& target) {
  const int np = pattern.NumVertices();
  const int nt = target.NumVertices();
  if (np > nt) return false;
  std::vector<int> perm(static_cast<size_t>(nt));
  for (int i = 0; i < nt; ++i) perm[static_cast<size_t>(i)] = i;
  std::sort(perm.begin(), perm.end());
  do {
    bool ok = true;
    for (int v = 0; v < np && ok; ++v) {
      if (pattern.VertexLabel(v) !=
          target.VertexLabel(perm[static_cast<size_t>(v)])) {
        ok = false;
      }
    }
    for (const Edge& e : pattern.edges()) {
      if (!ok) break;
      EdgeId te = target.FindEdge(perm[static_cast<size_t>(e.u)],
                                  perm[static_cast<size_t>(e.v)]);
      if (te < 0 || target.GetEdge(te).label != e.label) ok = false;
    }
    if (ok) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

/// Brute-force maximum common edge subgraph size: tries all edge subsets of
/// the smaller graph. Exponential; patterns must have few edges.
inline int BruteForceMcs(const Graph& a, const Graph& b) {
  const Graph& small = a.NumEdges() <= b.NumEdges() ? a : b;
  const Graph& big = a.NumEdges() <= b.NumEdges() ? b : a;
  const int ne = small.NumEdges();
  int best = 0;
  for (uint32_t mask = 0; mask < (1u << ne); ++mask) {
    int bits = __builtin_popcount(mask);
    if (bits <= best) continue;
    std::vector<EdgeId> ids;
    for (int e = 0; e < ne; ++e) {
      if (mask & (1u << e)) ids.push_back(e);
    }
    Graph sub = EdgeSubgraph(small, ids);
    if (BruteForceSubgraphIso(sub, big)) best = bits;
  }
  return best;
}

/// A persisted index over p single-vertex features (label r for feature
/// r), so a fingerprint is exactly a label set and rows can be scripted.
inline PersistedIndex LabelFeatureIndex(
    int p, std::vector<std::vector<uint8_t>> rows) {
  PersistedIndex index;
  for (int r = 0; r < p; ++r) {
    Graph f;
    f.AddVertex(static_cast<LabelId>(r));
    index.features.push_back(f);
  }
  index.db_bits = std::move(rows);
  return index;
}

/// n rows of p bits, each a copy of one of five random patterns: distances
/// to any query collapse onto a handful of values, so nearly every top-k
/// boundary is a tie.
inline std::vector<std::vector<uint8_t>> TieHeavyRows(int n, int p, Rng* rng) {
  const std::vector<std::vector<uint8_t>> pool = RandomBitRows(5, p, 0.4, rng);
  std::vector<std::vector<uint8_t>> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) rows.push_back(pool[rng->UniformU64(5)]);
  return rows;
}

/// The live fingerprints of an engine under test, keyed by external id.
using LiveRows = std::map<int, std::vector<uint8_t>>;

/// The k values every fused-select differential sweeps: nothing, one, and
/// the boundaries around the live count (k > live keeps every live row).
inline std::vector<int> BoundaryKs(const LiveRows& live) {
  const int n = static_cast<int>(live.size());
  return {0, 1, std::max(n - 1, 0), n, n + 5};
}

/// The exact top-k reference for the serving scans: BinaryMappedDistance
/// against every live fingerprint, RankByScores, truncated to k.
/// Independent of packing, kernels and selection.
inline Ranking BruteForceTopK(const std::vector<uint8_t>& query,
                              const LiveRows& live, int k) {
  std::vector<int> ids;
  std::vector<double> scores;
  for (const auto& [id, bits] : live) {
    ids.push_back(id);
    scores.push_back(BinaryMappedDistance(query, bits));
  }
  Ranking ranked = RankByScores(scores);
  for (RankedResult& r : ranked) r.id = ids[static_cast<size_t>(r.id)];
  return TopK(ranked, std::max(k, 0));
}

}  // namespace testing_util
}  // namespace gdim

#endif  // GDIM_TESTS_TEST_UTIL_H_
