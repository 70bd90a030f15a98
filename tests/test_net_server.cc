// Wire-protocol and TCP front-end tests: every verb round-trips over a real
// socket, malformed lines answer ERR without dropping the connection, and
// concurrent connections all get bit-exact answers.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/index_io.h"
#include "core/kernels/scan_kernel.h"
#include "graph/graph.h"
#include "server/batch_executor.h"
#include "server/net_server.h"
#include "server/net_socket.h"
#include "server/sharded_engine.h"
#include "server/wire.h"
#include "store/graph_store.h"
#include "test_util.h"

namespace gdim {
namespace {

PersistedIndex LabelIndex(int rows) {
  const int kLabels = 5;
  PersistedIndex index;
  for (LabelId r = 0; r < kLabels; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  const std::vector<std::vector<uint8_t>> patterns = {
      {1, 1, 0, 0, 0}, {0, 0, 1, 1, 0}, {1, 0, 1, 0, 1}, {0, 1, 0, 1, 1},
  };
  for (int i = 0; i < rows; ++i) {
    index.db_bits.push_back(patterns[static_cast<size_t>(i) %
                                     patterns.size()]);
  }
  return index;
}

Graph LabelGraph(std::vector<LabelId> labels) {
  Graph g;
  for (LabelId l : labels) g.AddVertex(l);
  return g;
}

// ---------------------------------------------------------------- wire ----

TEST(WireTest, GraphInlineRoundTrip) {
  Graph g;
  g.AddVertex(3);
  g.AddVertex(7);
  g.AddVertex(3);
  g.AddEdge(0, 1, 2);
  g.AddEdge(1, 2, 0);
  const std::string spec = EncodeGraphInline(g);
  EXPECT_EQ(spec.find('\n'), std::string::npos);
  Result<Graph> back = DecodeGraphInline(spec);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, g);
}

TEST(WireTest, ParseRequestAcceptsEveryVerb) {
  const std::string spec = EncodeGraphInline(LabelGraph({1, 2}));
  auto query = ParseWireRequest("QUERY 7 " + spec);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->verb, WireVerb::kQuery);
  EXPECT_EQ(query->options.k, 7);
  EXPECT_EQ(query->graph, LabelGraph({1, 2}));

  auto insert = ParseWireRequest("INSERT " + spec);
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->verb, WireVerb::kInsert);

  auto remove = ParseWireRequest("REMOVE 42");
  ASSERT_TRUE(remove.ok());
  EXPECT_EQ(remove->verb, WireVerb::kRemove);
  EXPECT_EQ(remove->id, 42);

  auto snapshot = ParseWireRequest("SNAPSHOT /tmp/some path.idx2");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->verb, WireVerb::kSnapshot);
  EXPECT_EQ(snapshot->path, "/tmp/some path.idx2");

  auto compact = ParseWireRequest("COMPACT");
  ASSERT_TRUE(compact.ok());
  EXPECT_EQ(compact->verb, WireVerb::kCompact);

  auto reindex = ParseWireRequest("REINDEX");
  ASSERT_TRUE(reindex.ok());
  EXPECT_EQ(reindex->verb, WireVerb::kReindex);
  EXPECT_EQ(reindex->p, 0);  // keep the current dimension count

  auto reindex_p = ParseWireRequest("REINDEX 128");
  ASSERT_TRUE(reindex_p.ok());
  EXPECT_EQ(reindex_p->verb, WireVerb::kReindex);
  EXPECT_EQ(reindex_p->p, 128);

  EXPECT_EQ(ParseWireRequest("STATS")->verb, WireVerb::kStats);
  EXPECT_EQ(ParseWireRequest("PING")->verb, WireVerb::kPing);
  EXPECT_EQ(ParseWireRequest("QUIT")->verb, WireVerb::kQuit);
}

TEST(WireTest, ParseRequestAcceptsQueryOptionTokens) {
  const std::string spec = EncodeGraphInline(LabelGraph({1, 2}));
  auto full = ParseWireRequest("QUERY 7 MODE=full " + spec);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->options.k, 7);
  EXPECT_EQ(full->options.scan_mode, ScanMode::kFull);
  EXPECT_EQ(full->graph, LabelGraph({1, 2}));

  // MODE=auto is an alias of MODE=full: the same options, hence one cache
  // key and one coalescing span.
  auto automatic = ParseWireRequest("QUERY 7 MODE=auto " + spec);
  ASSERT_TRUE(automatic.ok());
  EXPECT_EQ(automatic->options.scan_mode, ScanMode::kFull);
  EXPECT_EQ(automatic->options, full->options);

  // Repeats are allowed; the last one wins, like every KEY=VALUE protocol.
  auto last = ParseWireRequest("QUERY 7 MODE=approx MODE=auto " + spec);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->options.scan_mode, ScanMode::kFull);
}

TEST(WireTest, ParseRequestRejectsMalformedLines) {
  for (const std::string& line : {
           std::string("FROB 1"), std::string("QUERY"),
           std::string("QUERY x t # 0;v 0 1"), std::string("QUERY -1 t # 0"),
           std::string("QUERY 3 not-a-graph"), std::string("REMOVE"),
           std::string("REMOVE -4"), std::string("REMOVE 1,2"),
           std::string("INSERT"), std::string("SNAPSHOT"),
           std::string("STATS now"), std::string("PING x"),
           std::string("COMPACT now"), std::string("REINDEX 0"),
           std::string("REINDEX -5"), std::string("REINDEX x"),
           std::string("REINDEX 1 2"),
           // Option-token shapes: bad value, unknown key, option but no
           // graph, option glued to a missing value.
           std::string("QUERY 3 MODE=banana t # 0;v 0 1"),
           std::string("QUERY 3 FROB=1 t # 0;v 0 1"),
           std::string("QUERY 3 MODE=full"),
           std::string("QUERY 3 MODE= t # 0;v 0 1"),
           std::string("QUERY 3 =full t # 0;v 0 1"),
       }) {
    EXPECT_FALSE(ParseWireRequest(line).ok()) << line;
  }
}

TEST(WireTest, RankingResponseRoundTrip) {
  Ranking ranking = {{3, 0.0}, {17, 0.258199}, {4, 1.0}};
  Result<Ranking> back = ParseRankingResponse(FormatRankingResponse(ranking));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), ranking.size());
  for (size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ((*back)[i].id, ranking[i].id);
    EXPECT_NEAR((*back)[i].score, ranking[i].score, 1e-6);
  }
  EXPECT_TRUE(ParseRankingResponse("OK 0")->empty());

  Result<Ranking> err = ParseRankingResponse(FormatErrorResponse(
      Status::ResourceExhausted("admission queue full")));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(err.status().message(), "admission queue full");

  EXPECT_FALSE(ParseRankingResponse("OK 2 1:0.5").ok());  // short
  EXPECT_FALSE(ParseRankingResponse("OK 1 1:0.5 9:0.7").ok());  // long
  EXPECT_FALSE(ParseRankingResponse("gibberish").ok());
}

// ---------------------------------------------------------- net server ----

/// One client connection with line-RPC convenience.
class Client {
 public:
  explicit Client(int port) {
    Result<ScopedFd> fd = ConnectTcp("127.0.0.1", port);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    fd_ = std::move(fd).value();
    reader_.emplace(fd_.get());
  }

  /// Sends one request line, returns the response line ("" on EOF/error).
  std::string Rpc(const std::string& line) {
    if (!SendAll(fd_.get(), line + "\n").ok()) return "";
    Result<std::optional<std::string>> response = reader_->ReadLine();
    if (!response.ok() || !response->has_value()) return "";
    return **response;
  }

  /// Sends one request line and reads exactly n response lines (a TRACE=1
  /// query answers two). Truncated on EOF/error.
  std::vector<std::string> RpcMulti(const std::string& line, int n) {
    std::vector<std::string> lines;
    if (!SendAll(fd_.get(), line + "\n").ok()) return lines;
    for (int i = 0; i < n; ++i) {
      Result<std::optional<std::string>> response = reader_->ReadLine();
      if (!response.ok() || !response->has_value()) return lines;
      lines.push_back(**response);
    }
    return lines;
  }

  /// Sends METRICS and returns every exposition line up to (excluding) the
  /// '# EOF' terminator. Empty on a truncated scrape.
  std::vector<std::string> ScrapeMetrics() {
    std::vector<std::string> lines;
    if (!SendAll(fd_.get(), "METRICS\n").ok()) return lines;
    for (;;) {
      Result<std::optional<std::string>> response = reader_->ReadLine();
      if (!response.ok() || !response->has_value()) return {};
      if (**response == "# EOF") return lines;
      lines.push_back(**response);
    }
  }

  /// True once the server has closed this connection.
  bool AtEof() {
    Result<std::optional<std::string>> response = reader_->ReadLine();
    return response.ok() && !response->has_value();
  }

 private:
  ScopedFd fd_;
  std::optional<LineReader> reader_;
};

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto engine = ShardedEngine::FromIndex(LabelIndex(20), [] {
      ShardedOptions opts;
      opts.num_shards = 2;
      return opts;
    }());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_.emplace(std::move(engine).value());
    BatchExecutorOptions executor_opts;
    executor_opts.cache_bytes = 1 << 20;  // serve the cached configuration
    executor_.emplace(&*engine_, executor_opts);
    server_.emplace(&*executor_);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// The expected answer over the initial 20 rows, by brute force (the
  /// served engine is owned by the executor once it runs).
  static Ranking Expected(const Graph& probe, int k) {
    const PersistedIndex index = LabelIndex(20);
    return testing_util::BruteForceTopK(
        FeatureMapper(index.features).Map(probe),
        testing_util::LiveRowsOf(index), k);
  }

  void TearDown() override {
    server_->Stop();
  }

  std::optional<ShardedEngine> engine_;
  std::optional<BatchExecutor> executor_;
  std::optional<NetServer> server_;
};

TEST_F(NetServerTest, VerbsRoundTripOverTcp) {
  Client client(server_->port());
  EXPECT_EQ(client.Rpc("PING"), "OK pong");

  const Graph probe = LabelGraph({0, 2, 4});
  const std::string expected = FormatRankingResponse(Expected(probe, 5));
  EXPECT_EQ(client.Rpc("QUERY 5 " + EncodeGraphInline(probe)), expected);

  EXPECT_EQ(client.Rpc("INSERT " + EncodeGraphInline(LabelGraph({0, 1}))),
            "OK 20");
  EXPECT_EQ(client.Rpc("REMOVE 20"), "OK removed 20");
  EXPECT_EQ(client.Rpc("REMOVE 20"),
            "ERR NotFound no live graph with id 20");

  const std::string snap = ::testing::TempDir() + "/gdim_net_snap.idx2";
  EXPECT_EQ(client.Rpc("SNAPSHOT " + snap), "OK snapshot");
  auto reloaded = ShardedEngine::Open(snap);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_graphs(), 20);

  const std::string stats = client.Rpc("STATS");
  EXPECT_EQ(stats.rfind("OK graphs=20 shards=2 features=5 ", 0), 0u)
      << stats;
  // The scan kernel this server process resolved is reported verbatim —
  // what the CI kernel matrix greps to prove GDIM_FORCE_KERNEL took.
  EXPECT_NE(
      stats.find(" kernel=" + std::string(ActiveScanKernel().name())),
      std::string::npos)
      << stats;

  EXPECT_EQ(client.Rpc("QUIT"), "OK bye");
  EXPECT_TRUE(client.AtEof());
}

TEST_F(NetServerTest, MalformedLinesAnswerErrAndKeepTheConnection) {
  Client client(server_->port());
  EXPECT_EQ(client.Rpc("FROB 1"), "ERR InvalidArgument unknown verb 'FROB'");
  EXPECT_EQ(client.Rpc("QUERY nope t # 0;v 0 1"),
            "ERR InvalidArgument bad k 'nope'");
  EXPECT_EQ(client.Rpc("REMOVE -1").rfind("ERR InvalidArgument", 0), 0u);
  EXPECT_EQ(client.Rpc("QUERY 3 garbage").rfind("ERR ", 0), 0u);
  EXPECT_EQ(client.Rpc("QUERY 3 FROB=1 t # 0;v 0 1"),
            "ERR InvalidArgument unknown QUERY option 'FROB'");
  EXPECT_EQ(client.Rpc("QUERY 3 MODE=banana t # 0;v 0 1"),
            "ERR InvalidArgument bad QUERY MODE 'banana' "
            "(want auto|full|approx)");
  // The connection survived all of it.
  EXPECT_EQ(client.Rpc("PING"), "OK pong");
}

TEST_F(NetServerTest, QueryModeOptionTravelsOverTheWire) {
  Client client(server_->port());
  const Graph probe = LabelGraph({0, 2, 4});
  const std::string spec = EncodeGraphInline(probe);
  // MODE=auto and MODE=full are the same exact scan as no option — the
  // wire option must parse, execute, and change nothing.
  const std::string expected = FormatRankingResponse(Expected(probe, 5));
  EXPECT_EQ(client.Rpc("QUERY 5 " + spec), expected);
  EXPECT_EQ(client.Rpc("QUERY 5 MODE=full " + spec), expected);
  EXPECT_EQ(client.Rpc("QUERY 5 MODE=auto " + spec), expected);
  // MODE=approx NPROBE=all probes every IVF bucket, which is bit-identical
  // to the full scan — the wire-level correctness anchor.
  EXPECT_EQ(client.Rpc("QUERY 5 MODE=approx NPROBE=all " + spec), expected);
  const std::string stats = client.Rpc("STATS");
  EXPECT_GE(StatsField(stats, "approx_queries"), 1) << stats;
  EXPECT_GT(StatsField(stats, "ivf_buckets"), 0) << stats;
  // NPROBE is meaningless outside MODE=approx and a bad value is typed.
  EXPECT_EQ(client.Rpc("QUERY 5 NPROBE=2 " + spec),
            "ERR InvalidArgument QUERY NPROBE requires MODE=approx");
  EXPECT_EQ(client.Rpc("QUERY 5 MODE=approx NPROBE=0 " + spec),
            "ERR InvalidArgument QUERY NPROBE must be >= 1 (or 'all')");
}

TEST_F(NetServerTest, ConcurrentConnectionsGetExactAnswers) {
  const std::vector<Graph> probes = {
      LabelGraph({0}), LabelGraph({1, 2}), LabelGraph({3, 4}),
      LabelGraph({0, 1, 2, 3, 4}),
  };
  std::vector<std::string> expected;
  for (const Graph& p : probes) {
    expected.push_back(FormatRankingResponse(Expected(p, 6)));
  }
  constexpr int kClients = 5;
  constexpr int kPerClient = 20;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server_->port());
      for (int i = 0; i < kPerClient; ++i) {
        const size_t which = static_cast<size_t>(c + i) % probes.size();
        if (client.Rpc("QUERY 6 " + EncodeGraphInline(probes[which])) !=
            expected[which]) {
          ++failures[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << c;
  EXPECT_EQ(server_->connections_accepted(), static_cast<uint64_t>(kClients));
}

TEST_F(NetServerTest, StatsReportsCacheEpochAndSnapshotFields) {
  Client client(server_->port());
  const std::string probe = EncodeGraphInline(LabelGraph({1, 2, 3}));
  // Cold then hot: one miss, one hit, at an unchanged epoch.
  const std::string cold = client.Rpc("QUERY 4 " + probe);
  EXPECT_EQ(client.Rpc("QUERY 4 " + probe), cold);
  std::string stats = client.Rpc("STATS");
  EXPECT_EQ(StatsField(stats, "cache_hits"), 1) << stats;
  EXPECT_EQ(StatsField(stats, "cache_misses"), 1) << stats;
  EXPECT_EQ(StatsField(stats, "cache_entries"), 1) << stats;
  EXPECT_GT(StatsField(stats, "cache_bytes"), 0) << stats;
  EXPECT_EQ(StatsField(stats, "cache_evictions"), 0) << stats;
  EXPECT_EQ(StatsField(stats, "epoch"), 0) << stats;
  EXPECT_EQ(StatsField(stats, "snapshots_in_progress"), 0) << stats;
  EXPECT_EQ(StatsField(stats, "snapshots_completed"), 0) << stats;

  // A mutation bumps the epoch over the wire; the old entry goes stale.
  EXPECT_EQ(client.Rpc("INSERT " + probe), "OK 20");
  stats = client.Rpc("STATS");
  EXPECT_EQ(StatsField(stats, "epoch"), 1) << stats;

  const std::string snap = ::testing::TempDir() + "/gdim_net_stats.idx2";
  EXPECT_EQ(client.Rpc("SNAPSHOT " + snap), "OK snapshot");
  stats = client.Rpc("STATS");
  EXPECT_EQ(StatsField(stats, "snapshots_completed"), 1) << stats;
  EXPECT_EQ(StatsField(stats, "snapshots_in_progress"), 0) << stats;
}

TEST_F(NetServerTest, CompactOverTheWireReclaimsTombstones) {
  Client client(server_->port());
  // Fresh server: nothing to reclaim.
  EXPECT_EQ(client.Rpc("COMPACT"), "OK compacted 0");

  // Full scans score removed-but-uncompacted rows; the physical_rows and
  // tombstones gauges make that visible over the wire.
  EXPECT_EQ(client.Rpc("REMOVE 4"), "OK removed 4");
  EXPECT_EQ(client.Rpc("REMOVE 11"), "OK removed 11");
  std::string stats = client.Rpc("STATS");
  EXPECT_EQ(StatsField(stats, "graphs"), 18) << stats;
  EXPECT_EQ(StatsField(stats, "physical_rows"), 20) << stats;
  EXPECT_EQ(StatsField(stats, "tombstones"), 2) << stats;

  EXPECT_EQ(client.Rpc("COMPACT"), "OK compacted 2");
  stats = client.Rpc("STATS");
  EXPECT_EQ(StatsField(stats, "graphs"), 18) << stats;
  EXPECT_EQ(StatsField(stats, "physical_rows"), 18) << stats;
  EXPECT_EQ(StatsField(stats, "tombstones"), 0) << stats;
}

TEST_F(NetServerTest, ReindexWithoutStoreIsATypedError) {
  Client client(server_->port());
  EXPECT_EQ(client.Rpc("REINDEX").rfind("ERR InvalidArgument", 0), 0u);
  const std::string stats = client.Rpc("STATS");
  EXPECT_EQ(StatsField(stats, "dimension_generation"), 0) << stats;
  EXPECT_EQ(StatsField(stats, "reindex_in_progress"), 0) << stats;
  EXPECT_EQ(StatsField(stats, "reindex_completed"), 0) << stats;
}

/// REINDEX over the wire needs a store of real (edge-bearing) graphs to
/// mine; this fixture serves a tiny path-graph corpus with the store wired
/// in, the way `serve-net --db` does.
class ReindexNetServerTest : public ::testing::Test {
 protected:
  static Graph PathGraph(LabelId a, LabelId b, LabelId c, LabelId el) {
    Graph g;
    g.AddVertex(a);
    g.AddVertex(b);
    g.AddVertex(c);
    g.AddEdge(0, 1, el);
    g.AddEdge(1, 2, el);
    return g;
  }

  void SetUp() override {
    for (int i = 0; i < 16; ++i) {
      corpus_.push_back(PathGraph(static_cast<LabelId>(i % 3),
                                  static_cast<LabelId>((i + 1) % 3),
                                  static_cast<LabelId>(i % 2), 0));
    }
    // The initial index's fingerprints are placeholders on a single-vertex
    // dimension; the REINDEX replaces them with a mined generation.
    auto engine = ShardedEngine::FromIndex(LabelIndex(16), [] {
      ShardedOptions opts;
      opts.num_shards = 2;
      return opts;
    }());
    ASSERT_TRUE(engine.ok());
    engine_.emplace(std::move(engine).value());
    {
      // The executor doesn't exist yet, so SetUp is the store's writer
      // while it seeds the corpus.
      ScopedRole store_writer(&store_.writer_role());
      for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(store_.Put(i, corpus_[static_cast<size_t>(i)]).ok());
      }
    }
    BatchExecutorOptions executor_opts;
    executor_opts.cache_bytes = 1 << 20;
    executor_opts.store = &store_;
    executor_opts.refresh.mining.min_support = 0.3;
    executor_opts.refresh.mining.max_edges = 2;
    executor_.emplace(&*engine_, executor_opts);
    server_.emplace(&*executor_);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  GraphDatabase corpus_;
  GraphStore store_;
  std::optional<ShardedEngine> engine_;
  std::optional<BatchExecutor> executor_;
  std::optional<NetServer> server_;
};

TEST_F(ReindexNetServerTest, ReindexOverTheWireSwapsAGeneration) {
  Client client(server_->port());
  std::string stats = client.Rpc("STATS");
  EXPECT_EQ(StatsField(stats, "dimension_generation"), 0) << stats;
  const long long epoch_before = StatsField(stats, "epoch");

  const std::string response = client.Rpc("REINDEX 4");
  ASSERT_EQ(response.rfind("OK reindexed generation=1 features=", 0), 0u)
      << response;

  stats = client.Rpc("STATS");
  EXPECT_EQ(StatsField(stats, "dimension_generation"), 1) << stats;
  EXPECT_EQ(StatsField(stats, "reindex_completed"), 1) << stats;
  EXPECT_EQ(StatsField(stats, "reindex_in_progress"), 0) << stats;
  EXPECT_GT(StatsField(stats, "epoch"), epoch_before) << stats;
  EXPECT_EQ(StatsField(stats, "graphs"), 16) << stats;

  // The swapped generation answers on the mined dimension: a corpus graph
  // queried against itself is an exact fingerprint match.
  const std::string answer =
      client.Rpc("QUERY 1 " + EncodeGraphInline(corpus_[0]));
  Result<Ranking> ranking = ParseRankingResponse(answer);
  ASSERT_TRUE(ranking.ok()) << answer;
  ASSERT_EQ(ranking->size(), 1u);
  EXPECT_DOUBLE_EQ((*ranking)[0].score, 0.0);
}

// ----------------------------------------------------------- wire fuzz ----

/// Every fuzz line must draw exactly one reply — ERR for garbage — and must
/// never kill the connection or the server. Seeds are fixed, so a failure
/// replays byte for byte.
TEST_F(NetServerTest, FuzzedLinesAlwaysGetOneReplyAndKeepTheConnection) {
  Rng rng(0x600D5EED);
  Client client(server_->port());
  const std::string valid_graph = EncodeGraphInline(LabelGraph({0, 1}));

  // Hand-picked shapes first: truncations, bad integers, embedded NULs,
  // overflow-sized integers, verb-case confusion, trailing garbage.
  std::vector<std::string> lines = {
      "QUERY",
      "QUERY 5",
      "QUERY 5 ",
      "QUERY 99999999999999999999 " + valid_graph,
      "QUERY -3 " + valid_graph,
      "QUERY 5 t # 0;v",
      "QUERY 5 t # 0;v 0 99999999999999999999",
      "INSERT",
      "INSERT ;;;;",
      "REMOVE 99999999999999999999",
      "REMOVE 1 2",
      "SNAPSHOT",
      "STATS plus",
      "PING pong",
      "QUIT now",
      "query 5 " + valid_graph,  // verbs are case-sensitive
      std::string("QUERY\0 5 x", 9),
      std::string("PI\0NG", 5),
      std::string("\0", 1),
      std::string("INSERT t # 0;v 0 1\0;v 1 2", 25),
  };
  // Then random byte soup (no '\n'; blank and pure-'\r' lines draw no
  // response by protocol design, so skip generating them).
  for (int i = 0; i < 200; ++i) {
    const int len = rng.UniformInt(1, 60);
    std::string line;
    for (int j = 0; j < len; ++j) {
      char c;
      do {
        c = static_cast<char>(rng.UniformInt(0, 255));
      } while (c == '\n');
      line.push_back(c);
    }
    // (std::string(1, 'x') rather than = "x": GCC 12's -O3 -Wrestrict
    // false-positives on literal assignment, see src/common/flags.cc.)
    if (line.find_first_not_of('\r') == std::string::npos) {
      line = std::string(1, 'x');
    }
    lines.push_back(std::move(line));
  }

  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string response = client.Rpc(lines[i]);
    ASSERT_FALSE(response.empty())
        << "no reply (connection dropped?) for fuzz line " << i;
    const bool typed = response.rfind("ERR ", 0) == 0 ||
                       response.rfind("OK", 0) == 0;
    EXPECT_TRUE(typed) << "untyped reply '" << response << "' for line " << i;
  }
  // The connection survived the whole barrage.
  EXPECT_EQ(client.Rpc("PING"), "OK pong");
}

TEST_F(NetServerTest, OversizedLineAnswersTypedErrorAndResynchronizes) {
  Client client(server_->port());
  // Well past the reader's 1 MiB line cap, no newline until the end.
  std::string huge(2'000'000, 'x');
  const std::string response = client.Rpc(huge);
  EXPECT_EQ(response.rfind("ERR InvalidArgument line exceeds", 0), 0u)
      << response;
  // The reader resynchronized on the terminator: the connection still works.
  EXPECT_EQ(client.Rpc("PING"), "OK pong");
  const Graph probe = LabelGraph({0, 2, 4});
  EXPECT_EQ(client.Rpc("QUERY 5 " + EncodeGraphInline(probe)),
            FormatRankingResponse(Expected(probe, 5)));
}

// --------------------------------------------------- snapshot under load --

/// Network-level non-blocking snapshot, deterministic via a FIFO: while the
/// background writer is parked on the pipe (provably in progress), other
/// connections keep getting answers; draining the pipe completes the
/// SNAPSHOT RPC with OK.
TEST_F(NetServerTest, SnapshotOverTheWireDoesNotBlockOtherConnections) {
  const std::string fifo = ::testing::TempDir() + "/gdim_net_snap_fifo_" +
                           std::to_string(::getpid());
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  auto pending = std::async(std::launch::async, [&] {
    Client snapshotter(server_->port());
    return snapshotter.Rpc("SNAPSHOT " + fifo);
  });

  Client client(server_->port());
  for (int i = 0; i < 5000; ++i) {
    const std::string stats = client.Rpc("STATS");
    if (StatsField(stats, "snapshots_in_progress") == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Sustained service while the snapshot writer is parked.
  const Graph probe = LabelGraph({1, 3});
  const std::string expected = FormatRankingResponse(Expected(probe, 6));
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(client.Rpc("QUERY 6 " + EncodeGraphInline(probe)), expected);
  }
  ASSERT_EQ(StatsField(client.Rpc("STATS"), "snapshots_in_progress"), 1);

  // Drain the pipe; the RPC must now complete with OK and valid v3 bytes.
  const std::string drained = fifo + ".idx2";
  {
    const int read_fd = ::open(fifo.c_str(), O_RDONLY);
    ASSERT_GE(read_fd, 0);
    std::ofstream out(drained, std::ios::binary);
    char buffer[4096];
    ssize_t n;
    while ((n = ::read(read_fd, buffer, sizeof(buffer))) > 0) {
      out.write(buffer, n);
    }
    ::close(read_fd);
  }
  EXPECT_EQ(pending.get(), "OK snapshot");
  Result<ShardedEngine> reloaded = ShardedEngine::Open(drained);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->num_graphs(), 20);
  ::unlink(fifo.c_str());
}

// ----------------------------------------------------- observability ------

TEST_F(NetServerTest, MetricsExpositionOverTheWire) {
  Client client(server_->port());
  const std::string probe = EncodeGraphInline(LabelGraph({0, 2, 4}));
  EXPECT_EQ(client.Rpc("QUERY 5 " + probe).rfind("OK ", 0), 0u);
  EXPECT_EQ(client.Rpc("QUERY 5 " + probe).rfind("OK ", 0), 0u);  // cache hit
  EXPECT_EQ(client.Rpc("INSERT " + probe), "OK 20");

  const std::vector<std::string> lines = client.ScrapeMetrics();
  ASSERT_FALSE(lines.empty());
  std::string text;
  for (const std::string& l : lines) text += l + "\n";

  // Counters replaced the old under-mu_ tallies and agree with STATS.
  EXPECT_NE(text.find("# TYPE gdim_requests_accepted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gdim_requests_accepted_total 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gdim_mutations_total 1"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE gdim_queue_depth gauge"), std::string::npos);
  // Per-stage histograms exist and carry this run's samples.
  EXPECT_NE(text.find("# TYPE gdim_stage_admission_wait_usec histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gdim_stage_map_all_usec histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gdim_stage_map_all_usec_count 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gdim_stage_mutation_apply_usec_count 1"),
            std::string::npos)
      << text;
  // The scan histogram is labeled with the kernel that ran it.
  EXPECT_NE(
      text.find("gdim_stage_scan_exact_usec_bucket{kernel=\"" +
                std::string(ActiveScanKernel().name()) + "\",le=\"1\"}"),
      std::string::npos)
      << text;

  // Families come out in stable sorted order, and within each histogram the
  // cumulative buckets are monotone with count == the +Inf bucket.
  std::string previous_family;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.rfind("# HELP ", 0) != 0) continue;
    const std::string family = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_LT(previous_family, family) << "unsorted at " << family;
    previous_family = family;
  }
  long long cumulative = -1;
  long long inf_bucket = -1;
  for (const std::string& line : lines) {
    if (line.rfind("gdim_stage_map_all_usec_bucket", 0) == 0) {
      const long long v =
          std::strtoll(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
      EXPECT_GE(v, cumulative) << line;
      cumulative = v;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_bucket = v;
    }
    if (line.rfind("gdim_stage_map_all_usec_count", 0) == 0) {
      EXPECT_EQ(std::strtoll(line.c_str() + line.rfind(' ') + 1, nullptr, 10),
                inf_bucket)
          << line;
    }
  }
  EXPECT_EQ(inf_bucket, 2);

  // STATS stays frozen and consistent with the registry view (the STATS
  // call itself admits one gauges request, hence 4).
  const std::string stats = client.Rpc("STATS");
  EXPECT_EQ(StatsField(stats, "accepted"), 4) << stats;
  EXPECT_GE(StatsField(stats, "uptime_seconds"), 0) << stats;
  EXPECT_GT(StatsField(stats, "start_epoch"), 0) << stats;
  EXPECT_EQ(StatsField(stats, "queue_depth"), 0) << stats;
  EXPECT_GE(StatsField(stats, "queue_high_watermark"), 1) << stats;
}

TEST_F(NetServerTest, TraceOptionReturnsAStageBreakdownLine) {
  Client client(server_->port());
  const Graph probe = LabelGraph({0, 2, 4});
  const std::string spec = EncodeGraphInline(probe);
  const std::string expected = FormatRankingResponse(Expected(probe, 5));

  WallTimer client_timer;
  const std::vector<std::string> traced =
      client.RpcMulti("QUERY 5 TRACE=1 " + spec, 2);
  const double client_usec = client_timer.Micros();
  ASSERT_EQ(traced.size(), 2u);
  EXPECT_EQ(traced[0].rfind("TRACE ", 0), 0u) << traced[0];
  EXPECT_EQ(traced[1], expected);
  const long long queue = StatsField(traced[0], "queue");
  const long long map = StatsField(traced[0], "map");
  const long long cache = StatsField(traced[0], "cache");
  const long long scan = StatsField(traced[0], "scan");
  const long long total = StatsField(traced[0], "total");
  EXPECT_GE(queue, 0);
  EXPECT_GE(map, 0);
  EXPECT_GE(cache, 0);
  EXPECT_GE(scan, 0);
  // Stages are non-overlapping segments of the query's life: their sum
  // cannot exceed the total (slack covers the four roundings), and the
  // total cannot exceed the latency the client measured around the RPC.
  EXPECT_LE(queue + map + cache + scan, total + 4) << traced[0];
  EXPECT_LE(static_cast<double>(total), client_usec) << traced[0];
  EXPECT_EQ(StatsField(traced[0], "cache_hit"), 0) << traced[0];

  // The same query again: a cache hit, scan=0, flagged as a hit.
  const std::vector<std::string> hit =
      client.RpcMulti("QUERY 5 TRACE=1 " + spec, 2);
  ASSERT_EQ(hit.size(), 2u);
  EXPECT_EQ(hit[1], expected);
  EXPECT_EQ(StatsField(hit[0], "cache_hit"), 1) << hit[0];
  EXPECT_EQ(StatsField(hit[0], "scan"), 0) << hit[0];

  // TRACE=0 and an untraced query answer exactly one line, bit-identical.
  EXPECT_EQ(client.Rpc("QUERY 5 TRACE=0 " + spec), expected);
  EXPECT_EQ(client.Rpc("QUERY 5 " + spec), expected);
  // The connection is still in sync after all the multi-line traffic.
  EXPECT_EQ(client.Rpc("PING"), "OK pong");
}

TEST_F(NetServerTest, MalformedTraceValueIsATypedError) {
  Client client(server_->port());
  const std::string spec = EncodeGraphInline(LabelGraph({0, 2}));
  EXPECT_EQ(client.Rpc("QUERY 5 TRACE=2 " + spec),
            "ERR InvalidArgument bad QUERY TRACE '2' (want 0|1)");
  EXPECT_EQ(client.Rpc("QUERY 5 TRACE= " + spec),
            "ERR InvalidArgument bad QUERY TRACE '' (want 0|1)");
  EXPECT_EQ(client.Rpc("QUERY 5 TRACE=yes " + spec),
            "ERR InvalidArgument bad QUERY TRACE 'yes' (want 0|1)");
  // The connection survived; a well-formed traced query still works.
  EXPECT_EQ(client.RpcMulti("QUERY 5 TRACE=1 " + spec, 2).size(), 2u);
}

/// Fixture with the slow-query log armed at 1us — every query is an
/// outlier — and a sink capturing the log lines instead of stderr.
class SlowQueryLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto engine = ShardedEngine::FromIndex(LabelIndex(20), ShardedOptions{});
    ASSERT_TRUE(engine.ok());
    engine_.emplace(std::move(engine).value());
    BatchExecutorOptions executor_opts;
    executor_opts.cache_bytes = 1 << 20;
    executor_opts.slow_query_usec = 1;
    executor_opts.slow_query_sink = [this](const std::string& line) {
      MutexLock lock(&mu_);
      log_lines_.push_back(line);
    };
    executor_.emplace(&*engine_, executor_opts);
    server_.emplace(&*executor_);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  std::vector<std::string> LogLines() {
    MutexLock lock(&mu_);
    return log_lines_;
  }

  Mutex mu_;
  std::vector<std::string> log_lines_ GDIM_GUARDED_BY(mu_);
  std::optional<ShardedEngine> engine_;
  std::optional<BatchExecutor> executor_;
  std::optional<NetServer> server_;
};

TEST_F(SlowQueryLogTest, FiresExactlyOncePerSlowQuery) {
  Client client(server_->port());
  const std::string a = EncodeGraphInline(LabelGraph({0, 2, 4}));
  const std::string b = EncodeGraphInline(LabelGraph({1, 3}));
  // Three queries over the 1us threshold — including a cache-hit repeat,
  // which is still a (fast) query and still gets its own log line. The sink
  // fires on the dispatcher before the response promise resolves, so by the
  // time each RPC returns its line is visible.
  EXPECT_EQ(client.Rpc("QUERY 5 " + a).rfind("OK ", 0), 0u);
  EXPECT_EQ(client.Rpc("QUERY 5 " + b).rfind("OK ", 0), 0u);
  EXPECT_EQ(client.Rpc("QUERY 5 " + a).rfind("OK ", 0), 0u);  // cache hit
  // A mutation is not a query: no slow-query line no matter how slow.
  EXPECT_EQ(client.Rpc("INSERT " + a), "OK 20");

  const std::vector<std::string> lines = LogLines();
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("slow-query total_usec=", 0), 0u) << line;
    EXPECT_GE(StatsField(line, "queue"), 0) << line;
    EXPECT_GE(StatsField(line, "scan"), 0) << line;
    EXPECT_NE(line.find(" k=5 "), std::string::npos) << line;
  }
  EXPECT_EQ(StatsField(lines[0], "cache_hit"), 0) << lines[0];
  EXPECT_EQ(StatsField(lines[2], "cache_hit"), 1) << lines[2];

  // The counter agrees with the sink.
  std::string metrics;
  for (const std::string& l : client.ScrapeMetrics()) metrics += l + "\n";
  EXPECT_NE(metrics.find("gdim_slow_queries_total 3"), std::string::npos)
      << metrics;
}

TEST_F(NetServerTest, StopSeversLiveConnections) {
  Client client(server_->port());
  EXPECT_EQ(client.Rpc("PING"), "OK pong");
  server_->Stop();
  EXPECT_TRUE(client.AtEof());
  // Stop is idempotent.
  server_->Stop();
}

}  // namespace
}  // namespace gdim
