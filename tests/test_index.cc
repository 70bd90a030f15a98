// Integration tests: the end-to-end GraphSearchIndex pipeline on generated
// chemical data — mining, selection, mapping, and top-k answering.

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/measures.h"
#include "datasets/chemgen.h"

namespace gdim {
namespace {

ChemGenOptions SmallChem() {
  ChemGenOptions opts;
  opts.num_graphs = 40;
  opts.num_families = 6;
  opts.min_vertices = 8;
  opts.max_vertices = 14;
  return opts;
}

IndexOptions FastIndex(const std::string& selector) {
  IndexOptions opts;
  opts.mining.min_support = 0.15;
  opts.mining.max_edges = 4;
  opts.selector = selector;
  opts.p = 40;
  opts.dspm.max_iters = 15;
  opts.dspmap.partition_size = 15;
  return opts;
}

TEST(IndexTest, BuildAndQueryDspm) {
  GraphDatabase db = GenerateChemDatabase(SmallChem());
  auto index = GraphSearchIndex::Build(db, FastIndex("DSPM"));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->database().size(), db.size());
  EXPECT_GT(index->build_stats().mined_features, 0);
  EXPECT_LE(index->build_stats().selected_features, 40);
  EXPECT_GT(index->build_stats().dissimilarity_seconds, 0.0);

  GraphDatabase queries = GenerateChemQueries(SmallChem(), 3);
  Ranking top = index->Query(queries[0], 5);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].score, top[i].score);
  }
}

TEST(IndexTest, QueryingDatabaseMemberRanksItFirst) {
  GraphDatabase db = GenerateChemDatabase(SmallChem());
  auto index = GraphSearchIndex::Build(db, FastIndex("DSPM"));
  ASSERT_TRUE(index.ok());
  Ranking top = index->Query(db[7], 3);
  // db[7] maps to its own bit vector: distance 0. Ties possible but id
  // tie-break guarantees a 0-distance answer at the front.
  EXPECT_DOUBLE_EQ(top[0].score, 0.0);
  Ranking exact = index->QueryExact(db[7], 3);
  EXPECT_EQ(exact[0].id, 7);
  EXPECT_DOUBLE_EQ(exact[0].score, 0.0);
}

TEST(IndexTest, QueryEqualsTruncatedMappedRankingOnTies) {
  // Five distinct graphs, each repeated eight times: the mapped rows
  // collapse onto at most five patterns, so nearly every top-k boundary is
  // a tie that only the id order breaks.
  const GraphDatabase chem = GenerateChemDatabase(SmallChem());
  GraphDatabase db;
  for (size_t i = 0; i < 40; ++i) db.push_back(chem[i % 5]);
  auto index = GraphSearchIndex::Build(db, FastIndex("Sample"));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const int n = static_cast<int>(db.size());
  GraphDatabase queries = GenerateChemQueries(SmallChem(), 4);
  queries.push_back(db[3]);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Ranking full = MappedRanking(index->MapQuery(queries[qi]),
                                       index->mapped_database());
    for (const int k : {0, 1, 5, n, n + 3}) {
      EXPECT_EQ(index->Query(queries[qi], k), TopK(full, k))
          << "q=" << qi << " k=" << k;
    }
  }
  // db[3]'s eight copies tie at distance 0 across the k = 5 boundary.
  const Ranking member = index->Query(db[3], 6);
  ASSERT_EQ(member.size(), 6u);
  EXPECT_EQ(member[4].score, member[5].score);
}

TEST(IndexTest, ApproximateBeatsRandomBaseline) {
  GraphDatabase db = GenerateChemDatabase(SmallChem());
  auto dspm = GraphSearchIndex::Build(db, FastIndex("DSPM"));
  ASSERT_TRUE(dspm.ok());
  GraphDatabase queries = GenerateChemQueries(SmallChem(), 8);
  const int k = 10;
  double total_precision = 0.0;
  for (const Graph& q : queries) {
    Ranking exact = ExactRanking(q, db);
    Ranking approx = MappedRanking(dspm->MapQuery(q), dspm->mapped_database());
    total_precision += PrecisionAtK(exact, approx, k);
  }
  double avg = total_precision / static_cast<double>(queries.size());
  // Random top-10 of 40 would hit 0.25 in expectation; a working mapping
  // must do far better.
  EXPECT_GT(avg, 0.45) << "DSPM precision too low: " << avg;
}

TEST(IndexTest, DspmapBuildWorks) {
  GraphDatabase db = GenerateChemDatabase(SmallChem());
  auto index = GraphSearchIndex::Build(db, FastIndex("DSPMap"));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  // DSPMap never computes the full matrix inside Build.
  EXPECT_DOUBLE_EQ(index->build_stats().dissimilarity_seconds, 0.0);
  Ranking top = index->Query(db[0], 5);
  EXPECT_EQ(top.size(), 5u);
}

TEST(IndexTest, BaselineSelectorsBuild) {
  GraphDatabase db = GenerateChemDatabase(SmallChem());
  for (const char* name :
       {"Original", "Sample", "SFS", "MICI", "MCFS", "UDFS", "NDFS"}) {
    IndexOptions opts = FastIndex(name);
    opts.params.eigen_iters = 30;  // keep the spectral baselines quick
    opts.params.outer_iters = 2;
    auto index = GraphSearchIndex::Build(db, opts);
    ASSERT_TRUE(index.ok()) << name << ": " << index.status().ToString();
    EXPECT_GT(index->dimension().size(), 0u) << name;
    Ranking top = index->Query(db[3], 3);
    EXPECT_EQ(top.size(), 3u) << name;
  }
}

TEST(IndexTest, BuildIsDeterministic) {
  GraphDatabase db = GenerateChemDatabase(SmallChem());
  IndexOptions opts = FastIndex("DSPM");
  auto a = GraphSearchIndex::Build(db, opts);
  auto b = GraphSearchIndex::Build(db, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->dimension().size(), b->dimension().size());
  for (size_t r = 0; r < a->dimension().size(); ++r) {
    EXPECT_EQ(a->dimension()[r], b->dimension()[r]);
  }
  EXPECT_EQ(a->mapped_database(), b->mapped_database());
}

TEST(IndexTest, MappedVectorsMatchMapperOnDatabaseGraphs) {
  // The db bit rows come from mining support sets; mapping the same graph
  // through VF2 must give identical bits (a mismatch would mean the miner
  // and the matcher disagree about containment).
  GraphDatabase db = GenerateChemDatabase(SmallChem());
  auto index = GraphSearchIndex::Build(db, FastIndex("DSPM"));
  ASSERT_TRUE(index.ok());
  for (size_t i = 0; i < db.size(); i += 7) {
    EXPECT_EQ(index->MapQuery(db[i]), index->mapped_database()[i])
        << "graph " << i;
  }
}

TEST(IndexTest, UnknownSelectorRejected) {
  GraphDatabase db = GenerateChemDatabase(SmallChem());
  auto index = GraphSearchIndex::Build(db, FastIndex("Bogus"));
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexTest, TooHighSupportYieldsNotFound) {
  GraphDatabase db = GenerateChemDatabase(SmallChem());
  IndexOptions opts = FastIndex("DSPM");
  opts.mining.min_support_count = 1000;  // impossible support
  auto index = GraphSearchIndex::Build(db, opts);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace gdim
