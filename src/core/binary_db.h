#ifndef GDIM_CORE_BINARY_DB_H_
#define GDIM_CORE_BINARY_DB_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "mining/gspan.h"

namespace gdim {

/// The binary feature representation of a graph database: y_ir = 1 iff
/// frequent feature f_r is a subgraph of g_i, together with the two inverted
/// indexes the paper's optimizations rely on:
///  - IF_r (FeatureSupport): the graphs containing feature r,
///  - IG_i (GraphFeatures): the features contained in graph i.
class BinaryFeatureDb {
 public:
  BinaryFeatureDb() = default;

  /// Builds from gSpan output: pattern support sets become IF directly (no
  /// subgraph-isomorphism tests needed for database graphs).
  static BinaryFeatureDb FromPatterns(
      int num_graphs, const std::vector<FrequentPattern>& patterns);

  /// Builds from an explicit 0/1 matrix (rows = graphs); for tests and
  /// baselines. Feature graphs are left empty.
  static BinaryFeatureDb FromBitMatrix(
      const std::vector<std::vector<uint8_t>>& rows);

  int num_graphs() const { return num_graphs_; }
  int num_features() const { return static_cast<int>(supports_.size()); }

  /// y_ir.
  bool Contains(int graph, int feature) const {
    GDIM_DCHECK(graph >= 0 && graph < num_graphs_);
    GDIM_DCHECK(feature >= 0 && feature < num_features());
    return bits_[static_cast<size_t>(graph) *
                     static_cast<size_t>(num_features()) +
                 static_cast<size_t>(feature)] != 0;
  }

  /// IF_r: sorted ids of graphs containing feature r.
  const std::vector<int>& FeatureSupport(int feature) const {
    GDIM_DCHECK(feature >= 0 && feature < num_features());
    return supports_[static_cast<size_t>(feature)];
  }

  /// IG_i: sorted ids of features contained in graph i.
  const std::vector<int>& GraphFeatures(int graph) const {
    GDIM_DCHECK(graph >= 0 && graph < num_graphs_);
    return graph_features_[static_cast<size_t>(graph)];
  }

  /// |sup(f_r)|.
  int SupportSize(int feature) const {
    return static_cast<int>(FeatureSupport(feature).size());
  }

  /// The pattern graph of feature r (empty database if built FromBitMatrix).
  const GraphDatabase& feature_graphs() const { return feature_graphs_; }

  /// Restriction of this database to a subset of graphs (ids into this db,
  /// sorted ascending). Feature set is preserved (features with empty
  /// support in the subset simply have empty IF). Used by DSPMap partitions.
  BinaryFeatureDb Subset(const std::vector<int>& graph_ids) const;

 private:
  void RebuildIndexes();

  int num_graphs_ = 0;
  std::vector<uint8_t> bits_;  // dense n×m row-major
  std::vector<std::vector<int>> supports_;
  std::vector<std::vector<int>> graph_features_;
  GraphDatabase feature_graphs_;
};

/// supports[r] = sorted ids of rows with bit r set — the IF inverted lists
/// of an explicit 0/1 matrix (rows must all have the same width). Used by
/// ContainmentIndex.
std::vector<std::vector<int>> SupportsFromBitRows(
    const std::vector<std::vector<uint8_t>>& rows);

/// Intersection of the given sorted id lists, intersecting rarest-first so
/// the running set shrinks as fast as possible. Empty `lists` → empty
/// result (callers decide whether no constraints means "all" or "none").
std::vector<int> IntersectSupports(
    std::vector<const std::vector<int>*> lists);

}  // namespace gdim

#endif  // GDIM_CORE_BINARY_DB_H_
