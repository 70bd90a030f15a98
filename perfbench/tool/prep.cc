// `prep`: builds one workload's inputs from its seed, then repeats the
// set-up work the server's index needs (dimension selection on a sample,
// corpus mapping, index write) and reports each repetition's timings.
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "datasets/chemgen.h"
#include "graph/graph_io.h"
#include "tool/common.h"

namespace perfbench {
namespace {

// Scaffold families of the chem generator: 20k graphs spread over 100
// families gives the corpus the cluster structure the IVF index exploits.
constexpr int kFamilies = 100;
// Distinct graphs the INSERT traffic cycles through.
constexpr int kInsertPool = 500;

}  // namespace

int RunPrep(const gdim::Flags& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "prep: --dir is required\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int n = flags.GetInt("n", 20000);
  const int sample_size = flags.GetInt("sample", 100);
  const int reps = flags.GetInt("reps", 1);

  gdim::ChemGenOptions gen;
  gen.num_graphs = n;
  gen.num_families = kFamilies;
  gen.seed = seed;
  const gdim::GraphDatabase corpus = gdim::GenerateChemDatabase(gen);
  // Queries and the graphs to insert are unseen graphs from the corpus's
  // own family pool.
  const int num_queries = flags.GetInt("queries", 2000);
  gdim::GraphDatabase queries =
      gdim::GenerateChemQueries(gen, num_queries + kInsertPool);
  const gdim::GraphDatabase inserts(queries.begin() + num_queries,
                                    queries.end());
  queries.resize(static_cast<size_t>(num_queries));

  // The dimension is selected on a seeded sample of the corpus: DSPM's
  // pairwise dissimilarity matrix is quadratic in the graphs it sees.
  gdim::Rng rng(seed ^ 0xA5A5A5A5ULL);
  gdim::GraphDatabase sample;
  for (int i : rng.SampleWithoutReplacement(n, std::min(n, sample_size))) {
    sample.push_back(corpus[static_cast<size_t>(i)]);
  }

  gdim::IndexOptions index_opts;
  index_opts.selector = "DSPM";
  index_opts.p = flags.GetInt("p", 256);
  index_opts.seed = seed;

  JsonOut out;
  std::vector<double> total_s, mine_s, delta_s, select_s, map_s, write_s;
  gdim::GraphDatabase features;
  std::vector<std::vector<uint8_t>> rows;
  for (int rep = 0; rep < reps; ++rep) {
    gdim::WallTimer total;
    gdim::Result<gdim::GraphSearchIndex> index =
        gdim::GraphSearchIndex::Build(sample, index_opts);
    if (!index.ok()) {
      std::fprintf(stderr, "prep: %s\n", index.status().ToString().c_str());
      return 1;
    }
    gdim::WallTimer phase;
    const gdim::FeatureMapper mapper(index->dimension());
    rows = mapper.MapAll(corpus);
    map_s.push_back(phase.Seconds());
    phase.Reset();
    gdim::PersistedIndex persisted;
    persisted.features = index->dimension();
    persisted.db_bits = rows;
    const gdim::Status written = gdim::WriteIndexFile(
        persisted, IndexPath(dir), gdim::IndexFormat::kV3Sectioned);
    if (!written.ok()) {
      std::fprintf(stderr, "prep: %s\n", written.ToString().c_str());
      return 1;
    }
    write_s.push_back(phase.Seconds());
    total_s.push_back(total.Seconds());
    const gdim::IndexBuildStats& st = index->build_stats();
    mine_s.push_back(st.mining_seconds);
    delta_s.push_back(st.dissimilarity_seconds);
    select_s.push_back(st.selection_seconds);
    features = index->dimension();
    out.Num("mined_features", st.mined_features);
  }

  for (const auto& [db, path] :
       {std::pair{&corpus, CorpusPath(dir)},
        std::pair{static_cast<const gdim::GraphDatabase*>(&queries),
                  QueriesPath(dir)},
        std::pair{&inserts, InsertsPath(dir)}}) {
    const gdim::Status s = gdim::WriteGraphFile(*db, path);
    if (!s.ok()) {
      std::fprintf(stderr, "prep: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // Reference answers for the query stream, one line per query.
  const gdim::FeatureMapper mapper(features);
  const ReferenceIndex reference(rows);
  std::FILE* ref = std::fopen(ReferencePath(dir).c_str(), "w");
  if (ref == nullptr) {
    std::fprintf(stderr, "prep: cannot write %s\n", ReferencePath(dir).c_str());
    return 1;
  }
  for (const gdim::Graph& q : queries) {
    const std::vector<std::string> tokens =
        WireTokens(reference.TopK(mapper.Map(q), kTopK));
    for (size_t t = 0; t < tokens.size(); ++t) {
      std::fprintf(ref, "%s%s", t > 0 ? " " : "", tokens[t].c_str());
    }
    std::fprintf(ref, "\n");
  }
  if (std::fclose(ref) != 0) {
    std::fprintf(stderr, "prep: cannot write %s\n", ReferencePath(dir).c_str());
    return 1;
  }

  out.Num("graphs", static_cast<double>(corpus.size()));
  out.Num("features", static_cast<double>(features.size()));
  out.Array("setup_s", total_s);
  out.Array("mine_s", mine_s);
  out.Array("delta_s", delta_s);
  out.Array("select_s", select_s);
  out.Array("map_corpus_s", map_s);
  out.Array("write_s", write_s);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace perfbench
