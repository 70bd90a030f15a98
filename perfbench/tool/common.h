// Shared pieces of perfbench_tool: the workload's request chooser, the
// brute-force reference ranking, file layout of a prepared workload
// directory, and a small flat-JSON writer for results handed back to
// perfbench/run.py.
#ifndef PERFBENCH_TOOL_COMMON_H_
#define PERFBENCH_TOOL_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/topk.h"
#include "graph/graph.h"

namespace perfbench {

// Top-k size of every QUERY the benchmark sends.
inline constexpr int kTopK = 10;
// Shards of every server the benchmark starts (run.py passes --shards=4)
// and of the engines it opens in-process.
inline constexpr int kShards = 4;

// Files a prepared workload directory holds (written by `prep`).
inline std::string IndexPath(const std::string& dir) {
  return dir + "/index.gdx";
}
inline std::string CorpusPath(const std::string& dir) {
  return dir + "/corpus.gdb";
}
inline std::string QueriesPath(const std::string& dir) {
  return dir + "/queries.gdb";
}
inline std::string InsertsPath(const std::string& dir) {
  return dir + "/inserts.gdb";
}
inline std::string ReferencePath(const std::string& dir) {
  return dir + "/reference.txt";
}

// Which query a closed-loop client sends next. `full`, `approx` and `churn`
// walk the distinct queries round-robin; `hot` draws 90% of its requests
// from a Zipf(s=1) law over a hot set of `hot_distinct` queries and the rest
// uniformly over the same set, so after warm-up nearly every request is a
// repeat. Every kHotRotate draws the Zipf ranks are reshuffled and the hot
// set slides by one query along the whole query list (its oldest member
// leaves, a new one joins and costs one compulsory cache miss): the
// popularity law and the hit rate stay the same, but a run's cost no longer
// hinges on how expensive the few queries of its seed's hot set happen to
// be.
class QueryChooser {
 public:
  QueryChooser(const std::string& mode, int num_queries, uint64_t seed,
               int hot_distinct = 50);
  int Next();

 private:
  static constexpr int kHotRotate = 100;

  bool hot_ = false;
  int num_queries_ = 0;
  int next_ = 0;
  int oldest_ = 0;  // hot: the slot of the hot set's oldest member
  long long draws_ = 0;
  gdim::Rng rng_;
  std::vector<double> zipf_cdf_;
  std::vector<int> rank_to_slot_;
  std::vector<int> hot_set_;  // slot -> query
};

// Brute-force exact top-k over 0/1 fingerprint rows, written independently
// of the serving code (its own word packing and popcount loop, no scan
// kernel, no engine): score sqrt(d / p), ascending (score, id). Ids are row
// positions.
class ReferenceIndex {
 public:
  explicit ReferenceIndex(const std::vector<std::vector<uint8_t>>& rows);
  gdim::Ranking TopK(const std::vector<uint8_t>& query, int k) const;

 private:
  std::vector<uint64_t> Pack(const std::vector<uint8_t>& bits) const;

  int num_bits_ = 0;
  size_t words_ = 0;
  std::vector<uint64_t> rows_;  // row-major, words_ words per row
};

// A ranking as the wire protocol prints its entries: "id:score" tokens.
std::vector<std::string> WireTokens(const gdim::Ranking& ranking);

// Reads the reference file: one line per query of `id:score` tokens in
// the wire's 6-digit form.
std::vector<std::vector<std::string>> ReadReference(const std::string& path);

// Nearest-rank percentile of a sample (q in [0, 1]); NaN when empty.
double Percentile(std::vector<double> values, double q);

// A flat JSON object of numbers, plus optional number arrays.
class JsonOut {
 public:
  void Num(const std::string& key, double value) { nums_[key] = value; }
  void Array(const std::string& key, const std::vector<double>& values) {
    arrays_[key] = values;
  }
  std::string Dump() const;

 private:
  std::map<std::string, double> nums_;
  std::map<std::string, std::vector<double>> arrays_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_COMMON_H_
