#ifndef GDIM_TESTS_TEST_UTIL_H_
#define GDIM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "core/objective.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/graph_utils.h"
#include "isomorphism/vf2.h"
#include "server/sharded_engine.h"

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

/// The live rows of a persisted index keyed by external id (positional ids
/// when the index has none).
inline LiveRows LiveRowsOf(const PersistedIndex& index) {
  LiveRows live;
  for (size_t i = 0; i < index.db_bits.size(); ++i) {
    live[index.ids.empty() ? static_cast<int>(i) : index.ids[i]] =
        index.db_bits[i];
  }
  return live;
}

/// BruteForceTopK for every query graph, fingerprinted by `mapper`.
inline std::vector<Ranking> BruteForceBatch(const FeatureMapper& mapper,
                                            const GraphDatabase& queries,
                                            const LiveRows& live, int k) {
  std::vector<Ranking> out;
  out.reserve(queries.size());
  for (const Graph& q : queries) {
    out.push_back(BruteForceTopK(mapper.Map(q), live, k));
  }
  return out;
}

/// Every engine entry point against brute force: the batch
/// (QueryMappedBatch), the one-query QueryMapped, and the IVF candidate
/// path at NPROBE=all (which prunes nothing, so it must be exact too), at
/// every BoundaryKs value. Pass a fingerprint count that is not a multiple
/// of any kernel's tile width so the remainder tile runs.
inline void ExpectEngineMatchesBruteForce(
    const ShardedEngine& engine,
    const std::vector<std::vector<uint8_t>>& fingerprints,
    const LiveRows& live, const std::string& what) {
  ASSERT_EQ(engine.num_graphs(), static_cast<int>(live.size())) << what;
  for (const int k : BoundaryKs(live)) {
    const QueryOptions full{.k = k, .scan_mode = ScanMode::kFull};
    const QueryOptions approx_all{.k = k, .scan_mode = ScanMode::kApprox,
                                  .nprobe = kNprobeAll};
    const std::vector<Ranking> batch =
        engine.QueryMappedBatch(fingerprints, full);
    const std::vector<Ranking> approx_batch =
        engine.QueryMappedBatch(fingerprints, approx_all);
    ASSERT_EQ(batch.size(), fingerprints.size());
    for (size_t i = 0; i < fingerprints.size(); ++i) {
      const Ranking expected = BruteForceTopK(fingerprints[i], live, k);
      EXPECT_EQ(batch[i], expected) << what << " batch q=" << i << " k=" << k;
      EXPECT_EQ(approx_batch[i], expected)
          << what << " approx batch q=" << i << " k=" << k;
      EXPECT_EQ(engine.QueryMapped(fingerprints[i], full), expected)
          << what << " single q=" << i << " k=" << k;
    }
  }
}

inline std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

// Legacy index files for the v1/v2 reader tests. Only v3 is written by the
// library, so the tests build the older formats themselves.

/// The index as a "gdim-index v1" text file (v1 has no id block).
inline std::string V1IndexText(const PersistedIndex& index) {
  std::ostringstream out;
  out << "gdim-index v1\nfeatures " << index.features.size() << "\n";
  WriteGraphStream(index.features, out);
  out << "vectors " << index.db_bits.size() << " " << index.features.size()
      << "\n";
  for (const auto& row : index.db_bits) {
    for (const uint8_t b : row) out << (b != 0 ? '1' : '0');
    out << "\n";
  }
  return out.str();
}

/// v2 ("GDIMIDX2") bytes from a DIMS-only v3 file: the DIMS payload is the
/// v2 body verbatim, so only the fixed header changes.
inline std::string V2BytesFromV3(const std::string& v3) {
  GDIM_CHECK(v3.size() >= 28 && v3.compare(0, 8, "GDIMIDX3") == 0 &&
             v3.compare(16, 4, "DIMS") == 0)
      << "not a v3 file";
  uint64_t dims_len = 0;
  std::memcpy(&dims_len, v3.data() + 20, sizeof(dims_len));
  GDIM_CHECK(28 + dims_len == v3.size()) << "not a DIMS-only v3 file";
  const uint32_t version = 2;
  return "GDIMIDX2" +
         std::string(reinterpret_cast<const char*>(&version), 4) +
         v3.substr(12, 4) +  // endianness tag
         v3.substr(28);
}

/// Writes the index to path as a v2 file (ids and next_id included).
inline void WriteV2IndexFile(const PersistedIndex& index,
                             const std::string& path) {
  const Status written = WriteIndexFile(index, path);
  GDIM_CHECK(written.ok()) << written.ToString();
  Spit(path, V2BytesFromV3(Slurp(path)));
}

}  // namespace testing_util
}  // namespace gdim

#endif  // GDIM_TESTS_TEST_UTIL_H_
