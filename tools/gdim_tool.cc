// gdim_tool — command-line front end for the graphdim library.
//
//   gdim_tool generate --kind=chem --n=500 --out=db.gdb [--queries=...]
//   gdim_tool mine     --db=db.gdb --minsup=0.05 --maxedges=7 --out=patterns.gdb
//   gdim_tool build    --db=db.gdb --selector=DSPM --p=100 --out=index.idx
//   gdim_tool query    --index=index.idx --db=db.gdb --queries=q.gdb --k=10
//   gdim_tool serve    --index=index.idx --queries=q.gdb --k=10 [--threads=N]
//   gdim_tool serve-net --index=index.idx --port=7411 --shards=4
//                       [--queue=256 --cache-mb=64]
//                       [--db=db.gdb --reindex-every=5000]
//   gdim_tool bench-query --index=index.idx --queries=q.gdb [--repeat=R]
//   gdim_tool update   --index=index.idx --out=index2.idx
//                      [--insert=new.gdb --remove=3,17 --compact]
//   gdim_tool convert  --in=old.idx --out=index.idx
//   gdim_tool stats    --db=db.gdb
//
// All subcommands read/write the gSpan text format (`t # id / v / e` lines)
// and the gdim-index formats (see core/index_io.h): every reader accepts
// v1 text, v2 binary and v3 sectioned files (auto-detected), and every
// writer — build, update, convert — emits v3, the only format written.
// serve-net restarted from a v3 snapshot alone resumes the graph store,
// dimension generation, epoch, and IVF layout — no --db needed; update
// carries all of them through.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/index.h"
#include "core/index_io.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "datasets/graphgen.h"
#include "graph/graph_io.h"
#include "graph/graph_utils.h"
#include "mining/gspan.h"
#include "server/batch_executor.h"
#include "server/net_server.h"
#include "server/sharded_engine.h"
#include "store/graph_store.h"

namespace gdim {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: gdim_tool <generate|mine|build|query|serve|serve-net|"
      "bench-query|update|convert|stats> [--flags]\n"
      "  generate --kind=chem|synthetic --n=N --out=FILE "
      "[--queries=M --queries-out=FILE --seed=S]\n"
      "  mine     --db=FILE --out=FILE [--minsup=0.05 --maxedges=7]\n"
      "  build    --db=FILE --out=FILE [--selector=DSPM --p=100 "
      "--minsup=0.05 --maxedges=7 --seed=S]\n"
      "  query    --index=FILE --db=FILE --queries=FILE [--k=10]\n"
      "  serve    --index=FILE --queries=FILE [--k=10 --threads=N "
      "--shards=N --ivf-buckets=N --quiet]\n"
      "  serve-net --index=FILE [--host=127.0.0.1 --port=0 --shards=1 "
      "--queue=256 --batch=64 --threads=N --max-conns=256 --cache-mb=64 "
      "--ivf-buckets=N --db=GRAPHS --reindex-every=N "
      "--reindex-selector=DSPMap --reindex-p=0 --reindex-minsup=0.05 "
      "--reindex-maxedges=7 --slow-query-usec=0]\n"
      "  bench-query --index=FILE --queries=FILE [--k=10 --threads=N "
      "--shards=N --ivf-buckets=N --repeat=5]\n"
      "  update   --index=FILE --out=FILE [--insert=GRAPHS --remove=I,J,... "
      "--compact]\n"
      "  convert  --in=FILE --out=FILE   (upgrade any index file to v3)\n"
      "  stats    --db=FILE\n"
      "index files are written as v3 only; v1/v2 files are still read\n");
  return 2;
}

/// True (after saying why) when a writer command was given --format: v3 is
/// the only format written, and a silently ignored --format=v1 would hand
/// back a file the caller did not ask for.
bool FormatFlagGiven(const Flags& flags) {
  if (!flags.Has("format")) return false;
  std::fprintf(stderr,
               "error: --format is not supported: v3 is the only index "
               "format written (v1/v2 files are still read)\n");
  return true;
}

/// Rejects a malformed --k at the tool boundary so one bad request cannot
/// reach (and previously abort) the serving hot path.
Result<int> ValidatedK(const Flags& flags) {
  const int k = flags.GetInt("k", 10);
  if (k < 0) {
    return Status::InvalidArgument("--k must be >= 0, got " +
                                   std::to_string(k));
  }
  return k;
}

/// Bounds an integer flag to [min_value, max_value] at the tool boundary —
/// nonsense like --shards=0 or --port=99999 is a usage error, never a
/// silently applied default.
Result<int> ValidatedRange(const Flags& flags, const std::string& key,
                           int def, int min_value, int max_value) {
  const int value = flags.GetInt(key, def);
  if (value < min_value || value > max_value) {
    return Status::InvalidArgument(
        "--" + key + " must be in [" + std::to_string(min_value) + ", " +
        std::to_string(max_value) + "], got " + std::to_string(value));
  }
  return value;
}

int RunGenerate(const Flags& flags) {
  const std::string kind = flags.GetString("kind", "chem");
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Usage();
  const int n = flags.GetInt("n", 500);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  GraphDatabase db, queries;
  const int num_queries = flags.GetInt("queries", 0);
  if (kind == "chem") {
    ChemGenOptions opts;
    opts.num_graphs = n;
    opts.num_families = flags.GetInt("families", std::max(10, n / 8));
    opts.seed = seed;
    db = GenerateChemDatabase(opts);
    if (num_queries > 0) queries = GenerateChemQueries(opts, num_queries);
  } else if (kind == "synthetic") {
    GraphGenOptions opts;
    opts.num_graphs = n;
    opts.avg_edges = flags.GetDouble("edges", 20.0);
    opts.density = flags.GetDouble("density", 0.2);
    opts.num_vertex_labels = flags.GetInt("labels", 20);
    opts.seed = seed;
    db = GenerateSyntheticDatabase(opts);
    if (num_queries > 0) {
      opts.seed = seed ^ 0x9E3779B9ULL;
      opts.num_graphs = num_queries;
      queries = GenerateSyntheticDatabase(opts);
    }
  } else {
    return Usage();
  }
  Status s = WriteGraphFile(db, out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %zu graphs to %s\n", db.size(), out.c_str());
  if (num_queries > 0) {
    const std::string qout = flags.GetString("queries-out", out + ".queries");
    s = WriteGraphFile(queries, qout);
    if (!s.ok()) return Fail(s);
    std::printf("wrote %zu queries to %s\n", queries.size(), qout.c_str());
  }
  return 0;
}

int RunMine(const Flags& flags) {
  const std::string db_path = flags.GetString("db", "");
  const std::string out = flags.GetString("out", "");
  if (db_path.empty() || out.empty()) return Usage();
  Result<GraphDatabase> db = ReadGraphFile(db_path);
  if (!db.ok()) return Fail(db.status());
  MiningOptions opts;
  opts.min_support = flags.GetDouble("minsup", 0.05);
  opts.max_edges = flags.GetInt("maxedges", 7);
  opts.max_patterns = flags.GetInt("maxpatterns", 0);
  WallTimer timer;
  Result<std::vector<FrequentPattern>> mined =
      MineFrequentSubgraphs(*db, opts);
  if (!mined.ok()) return Fail(mined.status());
  GraphDatabase patterns;
  for (const FrequentPattern& p : *mined) patterns.push_back(p.graph);
  Status s = WriteGraphFile(patterns, out);
  if (!s.ok()) return Fail(s);
  std::printf("mined %zu frequent subgraphs from %zu graphs in %.2fs -> %s\n",
              patterns.size(), db->size(), timer.Seconds(), out.c_str());
  return 0;
}

int RunBuild(const Flags& flags) {
  const std::string db_path = flags.GetString("db", "");
  const std::string out = flags.GetString("out", "");
  if (db_path.empty() || out.empty() || FormatFlagGiven(flags)) {
    return Usage();
  }
  Result<GraphDatabase> db = ReadGraphFile(db_path);
  if (!db.ok()) return Fail(db.status());
  IndexOptions opts;
  opts.selector = flags.GetString("selector", "DSPM");
  opts.p = flags.GetInt("p", 100);
  opts.mining.min_support = flags.GetDouble("minsup", 0.05);
  opts.mining.max_edges = flags.GetInt("maxedges", 7);
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  WallTimer timer;
  Result<GraphSearchIndex> index = GraphSearchIndex::Build(*db, opts);
  if (!index.ok()) return Fail(index.status());
  PersistedIndex persisted;
  persisted.features = index->dimension();
  persisted.db_bits = index->mapped_database();
  Status s = WriteIndexFile(persisted, out);
  if (!s.ok()) return Fail(s);
  const IndexBuildStats& st = index->build_stats();
  std::printf("built %s index over %zu graphs in %.2fs "
              "(mine %.2fs + delta %.2fs + select %.2fs): %d of %d features "
              "-> %s\n",
              opts.selector.c_str(), db->size(), timer.Seconds(),
              st.mining_seconds, st.dissimilarity_seconds,
              st.selection_seconds, st.selected_features, st.mined_features,
              out.c_str());
  return 0;
}

int RunQuery(const Flags& flags) {
  const std::string index_path = flags.GetString("index", "");
  const std::string db_path = flags.GetString("db", "");
  const std::string queries_path = flags.GetString("queries", "");
  if (index_path.empty() || db_path.empty() || queries_path.empty()) {
    return Usage();
  }
  Result<int> k_flag = ValidatedK(flags);
  if (!k_flag.ok()) return Fail(k_flag.status());
  const int k = *k_flag;
  Result<PersistedIndex> index = ReadIndexFile(index_path);
  if (!index.ok()) return Fail(index.status());
  Result<GraphDatabase> db = ReadGraphFile(db_path);
  if (!db.ok()) return Fail(db.status());
  Result<GraphDatabase> queries = ReadGraphFile(queries_path);
  if (!queries.ok()) return Fail(queries.status());
  if (index->db_bits.size() != db->size()) {
    return Fail(Status::InvalidArgument(
        "index vector count does not match database size"));
  }
  FeatureMapper mapper(index->features);
  WallTimer timer;
  for (size_t qi = 0; qi < queries->size(); ++qi) {
    Ranking top =
        TopK(MappedRanking(mapper.Map((*queries)[qi]), index->db_bits), k);
    std::printf("query %zu:", qi);
    for (const RankedResult& r : top) {
      std::printf(" %d:%.4f", r.id, r.score);
    }
    std::printf("\n");
  }
  double secs = timer.Seconds();
  std::printf("# %zu queries in %.3fs (%.2f ms/query, p=%d, k=%d)\n",
              queries->size(), secs,
              secs / static_cast<double>(queries->size()) * 1e3,
              static_cast<int>(index->features.size()), k);
  return 0;
}

/// Serving flags shared by serve / serve-net / bench-query, validated.
Result<ShardedOptions> ShardedOptionsFromFlags(const Flags& flags) {
  ShardedOptions opts;
  Result<int> threads = ValidatedRange(flags, "threads", 0, 0, 256);
  if (!threads.ok()) return threads.status();
  Result<int> shards = ValidatedRange(flags, "shards", 1, 1, 4096);
  if (!shards.ok()) return shards.status();
  opts.num_shards = *shards;
  opts.serve.threads = *threads;
  // 0 keeps the per-shard default of ceil(sqrt(rows)) IVF buckets.
  Result<int> ivf = ValidatedRange(flags, "ivf-buckets", 0, 0, 1 << 20);
  if (!ivf.ok()) return ivf.status();
  opts.serve.ivf_buckets = *ivf;
  return opts;
}

/// Shared serve/bench-query setup: flag validation, engine load, query load.
/// Returns 0 to proceed, otherwise the exit code to return.
int LoadServeInputs(const Flags& flags, std::optional<ShardedEngine>* engine,
                    GraphDatabase* queries) {
  const std::string index_path = flags.GetString("index", "");
  const std::string queries_path = flags.GetString("queries", "");
  if (index_path.empty() || queries_path.empty()) return Usage();
  Result<ShardedOptions> opts = ShardedOptionsFromFlags(flags);
  if (!opts.ok()) return Fail(opts.status());
  Result<ShardedEngine> opened = ShardedEngine::Open(index_path, *opts);
  if (!opened.ok()) return Fail(opened.status());
  Result<GraphDatabase> loaded = ReadGraphFile(queries_path);
  if (!loaded.ok()) return Fail(loaded.status());
  engine->emplace(std::move(opened).value());
  *queries = std::move(loaded).value();
  return 0;
}

int RunServe(const Flags& flags) {
  std::optional<ShardedEngine> engine;
  GraphDatabase queries;
  if (int rc = LoadServeInputs(flags, &engine, &queries); rc != 0) return rc;
  Result<int> k_flag = ValidatedK(flags);
  if (!k_flag.ok()) return Fail(k_flag.status());
  const int k = *k_flag;
  const bool quiet = flags.GetBool("quiet", false);

  ServeBatchReport report;
  std::vector<ServeQueryStats> per_query;
  std::vector<Ranking> results =
      engine->QueryBatch(queries, {.k = k}, &report, &per_query);
  if (!quiet) {
    for (size_t qi = 0; qi < results.size(); ++qi) {
      std::printf("query %zu:", qi);
      for (const RankedResult& r : results[qi]) {
        std::printf(" %d:%.4f", r.id, r.score);
      }
      std::printf("  [%.3fms, scanned %d/%d]\n", per_query[qi].latency_ms,
                  per_query[qi].scanned, engine->num_graphs());
    }
  }
  std::printf(
      "# served %zu queries over %d graphs x %d dims in %.1fms "
      "(%.0f qps, %s)\n",
      results.size(), engine->num_graphs(), engine->num_features(),
      report.wall_ms, report.qps,
      FormatLatencySummaryMs(report.latency_ms).c_str());
  return 0;
}

int RunBenchQuery(const Flags& flags) {
  std::optional<ShardedEngine> engine;
  GraphDatabase queries;
  if (int rc = LoadServeInputs(flags, &engine, &queries); rc != 0) return rc;
  Result<int> k_flag = ValidatedK(flags);
  if (!k_flag.ok()) return Fail(k_flag.status());
  const int k = *k_flag;
  Result<int> repeat_flag = ValidatedRange(flags, "repeat", 5, 1, 1000000);
  if (!repeat_flag.ok()) return Fail(repeat_flag.status());
  const int repeat = *repeat_flag;

  // Warm-up pass, then timed repeats; report the aggregate distribution.
  engine->QueryBatch(queries, {.k = k});
  std::vector<double> batch_ms;
  double best_qps = 0.0;
  for (int rep = 0; rep < repeat; ++rep) {
    ServeBatchReport report;
    engine->QueryBatch(queries, {.k = k}, &report);
    batch_ms.push_back(report.wall_ms);
    best_qps = std::max(best_qps, report.qps);
    std::printf("batch %d: %.1fms (%.0f qps, %s)\n", rep, report.wall_ms,
                report.qps, FormatLatencySummaryMs(report.latency_ms).c_str());
  }
  LatencySummary batches = SummarizeLatencies(std::move(batch_ms));
  std::printf(
      "# %d x %zu queries, %d graphs x %d dims, %d shard(s), k=%d, "
      "threads=%d: best %.0f qps, batch %s\n",
      repeat, queries.size(), engine->num_graphs(), engine->num_features(),
      engine->num_shards(), k,
      engine->options().serve.threads > 0 ? engine->options().serve.threads
                                          : DefaultThreadCount(),
      best_qps, FormatLatencySummaryMs(batches).c_str());
  return 0;
}

/// Positive identity check for serve-net's --db: the supplied graphs must
/// BE the index's live graphs, in ascending-id order. A count match alone
/// would let a same-sized but mismatched file silently mis-key every entry
/// of the graph store — queries would stay correct (they never read the
/// store) until the first REINDEX built a generation whose fingerprints
/// describe graphs the ids don't own. VF2-maps a spread sample of the db
/// graphs onto the engine's current dimension and compares bit-for-bit
/// against the engine's stored rows: any positional shift misaligns nearly
/// every row, so a small sample catches it with near-certainty at a cost
/// independent of database size.
Status ValidateDbAgainstEngine(const ShardedEngine& engine,
                               const GraphDatabase& db) {
  const int p = engine.num_features();
  if (p == 0 || db.empty()) return Status::OK();
  const std::vector<std::pair<int, const uint64_t*>> live =
      engine.LiveRowWords();
  const size_t sample =
      std::min<size_t>(live.size(), 25);
  for (size_t j = 0; j < sample; ++j) {
    const size_t i =
        sample <= 1 ? 0 : j * (live.size() - 1) / (sample - 1);
    const std::vector<uint8_t> bits = engine.mapper().Map(db[i]);
    for (int r = 0; r < p; ++r) {
      const uint64_t word = live[i].second[static_cast<size_t>(r) / 64];
      const uint8_t stored = (word >> (static_cast<size_t>(r) % 64)) & 1;
      if (stored != bits[static_cast<size_t>(r)]) {
        return Status::InvalidArgument(
            "--db graph " + std::to_string(i) +
            " does not match the index row with id " +
            std::to_string(live[i].first) +
            " (fingerprints differ at feature " + std::to_string(r) +
            "); the db file must list the index's live graphs in "
            "ascending-id order");
      }
    }
  }
  return Status::OK();
}

int RunServeNet(const Flags& flags) {
  const std::string index_path = flags.GetString("index", "");
  if (index_path.empty()) return Usage();
  Result<ShardedOptions> engine_opts = ShardedOptionsFromFlags(flags);
  if (!engine_opts.ok()) return Fail(engine_opts.status());
  Result<int> port = ValidatedRange(flags, "port", 0, 0, 65535);
  if (!port.ok()) return Fail(port.status());
  Result<int> queue = ValidatedRange(flags, "queue", 256, 1, 1 << 20);
  if (!queue.ok()) return Fail(queue.status());
  Result<int> batch = ValidatedRange(flags, "batch", 64, 1, 1 << 16);
  if (!batch.ok()) return Fail(batch.status());
  Result<int> max_conns = ValidatedRange(flags, "max-conns", 256, 1, 1 << 16);
  if (!max_conns.ok()) return Fail(max_conns.status());
  // Result-cache budget in MiB; 0 disables caching (hits are bit-identical
  // to cold queries, so the cache is on by default).
  Result<int> cache_mb = ValidatedRange(flags, "cache-mb", 64, 0, 65536);
  if (!cache_mb.ok()) return Fail(cache_mb.status());
  // Reindex subsystem: the live graphs come from --db or from a v3
  // snapshot's STOR section (the index's fingerprints alone cannot be
  // re-selected from); --reindex-every=N auto-triggers a refresh after N
  // mutations.
  const std::string db_path = flags.GetString("db", "");
  Result<int> reindex_every =
      ValidatedRange(flags, "reindex-every", 0, 0, 1 << 30);
  if (!reindex_every.ok()) return Fail(reindex_every.status());
  Result<int> reindex_p = ValidatedRange(flags, "reindex-p", 0, 0, 1 << 20);
  if (!reindex_p.ok()) return Fail(reindex_p.status());
  // Refresh mining knobs are validated at the tool boundary like every
  // other serve-net flag — a typo here would otherwise surface only at the
  // first background refresh (silently, under --reindex-every).
  const double reindex_minsup = flags.GetDouble("reindex-minsup", 0.05);
  if (reindex_minsup <= 0.0 || reindex_minsup > 1.0) {
    return Fail(Status::InvalidArgument(
        "--reindex-minsup must be in (0, 1], got " +
        std::to_string(reindex_minsup)));
  }
  Result<int> reindex_maxedges =
      ValidatedRange(flags, "reindex-maxedges", 7, 1, 64);
  if (!reindex_maxedges.ok()) return Fail(reindex_maxedges.status());
  // Queries slower than this (dispatcher wall clock) are logged to stderr;
  // 0 (the default) disables the slow-query log entirely.
  Result<int> slow_query_usec =
      ValidatedRange(flags, "slow-query-usec", 0, 0, 1 << 30);
  if (!slow_query_usec.ok()) return Fail(slow_query_usec.status());

  WallTimer load_timer;
  // Read the file once in packed form so v3 sections can be split between
  // their consumers: the graph store (STOR) belongs to the tool, everything
  // else (DIMS/META/IVFX) to the engine.
  Result<PackedIndex> packed = ReadIndexFilePacked(index_path);
  if (!packed.ok()) return Fail(packed.status());
  const bool has_meta = packed->meta.has_value();
  std::optional<PersistedStore> snapshot_store = std::move(packed->store);
  packed->store.reset();
  Result<ShardedEngine> engine =
      ShardedEngine::FromPacked(std::move(*packed), *engine_opts);
  if (!engine.ok()) return Fail(engine.status());

  if (*reindex_every > 0 && db_path.empty() && !snapshot_store.has_value()) {
    return Fail(Status::InvalidArgument(
        "--reindex-every needs the live graphs to re-select from: pass "
        "--db, or restart from a v3 snapshot (its store section carries "
        "them)"));
  }
  if (!has_meta && (*reindex_every > 0 || !db_path.empty())) {
    // A file without a META section (a `build` output, or a v1/v2 file
    // taken after a REINDEX) cannot say which generation it holds: any
    // swapped generations are forgotten and this process reports
    // dimension_generation=0 — clients comparing the gauge across the
    // restart would read that as "no reindex ever happened".
    std::fprintf(
        stderr,
        "WARN: %s has no generation/epoch metadata (no META section); "
        "dimension_generation restarts at 0 and any pre-restart REINDEX "
        "history is lost. Take the next SNAPSHOT from this server to "
        "record it.\n",
        index_path.c_str());
  }

  // The live-graph store: one entry per engine row, keyed by the engine's
  // external ids. --db must list the graphs in the index's row (ascending
  // id) order — true for any `build` output and for v2/v3 snapshots'
  // merged live sets written next to a matching graph dump. A v3
  // snapshot's own store section already satisfies that by construction;
  // an explicit --db takes precedence over it.
  std::optional<GraphStore> store;
  if (!db_path.empty()) {
    Result<GraphDatabase> db = ReadGraphFile(db_path);
    if (!db.ok()) return Fail(db.status());
    if (static_cast<int>(db->size()) != engine->num_graphs()) {
      return Fail(Status::InvalidArgument(
          "--db holds " + std::to_string(db->size()) + " graphs, index has " +
          std::to_string(engine->num_graphs()) +
          " live rows; they must describe the same database"));
    }
    if (Status matches = ValidateDbAgainstEngine(*engine, *db);
        !matches.ok()) {
      return Fail(matches);
    }
    store.emplace();
    // The executor doesn't exist yet, so this thread is the store's writer
    // while it seeds the live graphs.
    ScopedRole store_writer(&store->writer_role());
    const std::vector<int> ids = engine->alive_ids();
    for (size_t i = 0; i < ids.size(); ++i) {
      Status put = store->Put(ids[i], std::move((*db)[i]));
      if (!put.ok()) return Fail(put);
    }
  } else if (snapshot_store.has_value()) {
    // Resume the store from the snapshot's own STOR section: the reader
    // already validated its ids against the index row ids, so the store is
    // in lockstep with the engine by construction — no --db, no VF2
    // cross-check needed.
    store.emplace();
    // The executor doesn't exist yet; this thread seeds the live graphs.
    ScopedRole store_writer(&store->writer_role());
    for (size_t i = 0; i < snapshot_store->ids.size(); ++i) {
      Status put = store->Put(snapshot_store->ids[i],
                              std::move(snapshot_store->graphs[i]));
      if (!put.ok()) return Fail(put);
    }
  }

  BatchExecutorOptions executor_opts;
  executor_opts.queue_capacity = *queue;
  executor_opts.max_batch = *batch;
  executor_opts.cache_bytes = static_cast<size_t>(*cache_mb) << 20;
  executor_opts.store = store.has_value() ? &*store : nullptr;
  executor_opts.reindex_every = *reindex_every;
  executor_opts.refresh.selector =
      flags.GetString("reindex-selector", "DSPMap");
  executor_opts.refresh.p = *reindex_p;
  executor_opts.refresh.mining.min_support = reindex_minsup;
  executor_opts.refresh.mining.max_edges = *reindex_maxedges;
  executor_opts.refresh.seed =
      static_cast<uint64_t>(flags.GetInt("seed", 1));
  executor_opts.slow_query_usec = static_cast<uint64_t>(*slow_query_usec);
  BatchExecutor executor(&*engine, executor_opts);

  NetServerOptions server_opts;
  server_opts.host = flags.GetString("host", "127.0.0.1");
  server_opts.port = *port;
  server_opts.max_connections = *max_conns;
  NetServer server(&executor, server_opts);
  // Snapshot the engine counters before Start(): once the server accepts
  // connections the dispatcher may mutate the engine concurrently with
  // this thread, and these getters are dispatcher-owned state.
  const int listening_graphs = engine->num_graphs();
  const int listening_features = engine->num_features();
  const int listening_shards = engine->num_shards();
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  // One greppable line for scripts (the CI smoke test parses port=N), then
  // serve until killed.
  std::printf(
      "listening on %s port=%d (%d graphs x %d dims, shards=%d, queue=%d, "
      "batch=%d, max-conns=%d, cache-mb=%d, reindex=%s every=%d, "
      "loaded in %.2fs)\n",
      server_opts.host.c_str(), server.port(), listening_graphs,
      listening_features, listening_shards, *queue, *batch,
      *max_conns, *cache_mb, store.has_value() ? "on" : "off",
      *reindex_every, load_timer.Seconds());
  std::fflush(stdout);
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

/// Parses "--remove=3,17,42" into ids. Every comma-separated token must be
/// a bare non-negative integer — empty tokens (including a trailing comma),
/// whitespace, and signs are rejected at the tool boundary.
Result<std::vector<int>> ParseRemoveIds(const std::string& spec) {
  std::vector<int> ids;
  size_t pos = 0;
  for (;;) {
    const size_t comma = spec.find(',', pos);
    const std::string token = spec.substr(
        pos, (comma == std::string::npos ? spec.size() : comma) - pos);
    const bool all_digits =
        !token.empty() &&
        std::all_of(token.begin(), token.end(),
                    [](unsigned char c) { return std::isdigit(c); });
    if (!all_digits) {
      return Status::InvalidArgument("bad graph id '" + token +
                                     "' in --remove list");
    }
    try {
      ids.push_back(std::stoi(token));
    } catch (const std::out_of_range&) {
      return Status::InvalidArgument("graph id '" + token +
                                     "' out of range in --remove list");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return ids;
}

int RunUpdate(const Flags& flags) {
  const std::string index_path = flags.GetString("index", "");
  const std::string out = flags.GetString("out", "");
  if (index_path.empty() || out.empty() || FormatFlagGiven(flags)) {
    return Usage();
  }
  // Read packed, like serve-net, so every v3 section survives the update:
  // META (generation, epoch) and IVFX through the engine, STOR through a
  // graph store kept in lockstep with the engine's rows.
  Result<PackedIndex> packed = ReadIndexFilePacked(index_path);
  if (!packed.ok()) return Fail(packed.status());
  std::optional<PersistedStore> snapshot_store = std::move(packed->store);
  packed->store.reset();
  Result<ShardedEngine> engine = ShardedEngine::FromPacked(std::move(*packed));
  if (!engine.ok()) return Fail(engine.status());
  // This single-threaded command is the engine's and the store's writer.
  ScopedRole writer(&engine->writer_role());
  GraphStore store;
  ScopedRole store_writer(&store.writer_role());
  const bool has_store = snapshot_store.has_value();
  if (has_store) {
    // The reader matched the STOR ids to the index rows already.
    for (size_t i = 0; i < snapshot_store->ids.size(); ++i) {
      Status put = store.Put(snapshot_store->ids[i],
                             std::move(snapshot_store->graphs[i]));
      if (!put.ok()) return Fail(put);
    }
  }

  // Removes first, then inserts, so a freshly inserted graph can never be
  // swept up by the same command's --remove list.
  size_t removed = 0;
  if (flags.Has("remove")) {
    Result<std::vector<int>> ids = ParseRemoveIds(flags.GetString("remove", ""));
    if (!ids.ok()) return Fail(ids.status());
    for (int id : *ids) {
      Status s = engine->Remove(id);
      if (s.ok() && has_store) s = store.Remove(id);
      if (!s.ok()) return Fail(s);
      ++removed;
    }
  }
  int first_id = -1, last_id = -1;
  size_t inserted = 0;
  if (flags.Has("insert")) {
    Result<GraphDatabase> graphs =
        ReadGraphFile(flags.GetString("insert", ""));
    if (!graphs.ok()) return Fail(graphs.status());
    WallTimer timer;
    for (Graph& g : *graphs) {
      Result<int> id = engine->Insert(g);
      if (!id.ok()) return Fail(id.status());
      if (has_store) {
        Status put = store.Put(*id, std::move(g));
        if (!put.ok()) return Fail(put);
      }
      if (first_id < 0) first_id = *id;
      last_id = *id;
      ++inserted;
    }
    if (inserted > 0) {
      std::printf("inserted %zu graphs (ids %d..%d) in %.2fs\n", inserted,
                  first_id, last_id, timer.Seconds());
    } else {
      std::printf("inserted 0 graphs (--insert file was empty)\n");
    }
  }
  if (flags.GetBool("compact", false)) {
    const int reclaimed = engine->tombstoned_rows();
    engine->Compact();
    std::printf("compacted: reclaimed %d rows, %d live rows sealed\n",
                reclaimed, engine->physical_rows());
  }
  FrozenShardedState frozen = engine->Freeze();
  if (has_store) frozen.store = store.Freeze();
  Status s = ShardedEngine::WriteSnapshot(frozen, out);
  if (!s.ok()) return Fail(s);
  std::printf(
      "updated %s: +%zu -%zu -> %d live graphs x %d dims "
      "(%d physical rows, %d tombstoned, generation %llu%s) -> %s\n",
      index_path.c_str(), inserted, removed, engine->num_graphs(),
      engine->num_features(), engine->physical_rows(),
      engine->tombstoned_rows(),
      static_cast<unsigned long long>(engine->generation()),
      has_store ? ", graph store kept" : "", out.c_str());
  return 0;
}

int RunConvert(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string out = flags.GetString("out", "");
  if (in.empty() || out.empty() || FormatFlagGiven(flags)) return Usage();
  WallTimer timer;
  // The packed read keeps every v3 section, so converting a v3 file is a
  // byte-identical copy and a v1/v2 file becomes a DIMS-only v3 file.
  Result<PackedIndex> index = ReadIndexFilePacked(in);
  if (!index.ok()) return Fail(index.status());
  Status s = WritePackedIndexFile(*index, out);
  if (!s.ok()) return Fail(s);
  std::printf(
      "converted %s -> %s (v3: DIMS%s%s%s, %d graphs x %zu dims) in %.2fs\n",
      in.c_str(), out.c_str(), index->meta.has_value() ? "+META" : "",
      index->store.has_value() ? "+STOR" : "",
      index->ivf.has_value() ? "+IVFX" : "", index->rows.num_rows(),
      index->features.size(), timer.Seconds());
  return 0;
}

int RunStats(const Flags& flags) {
  const std::string db_path = flags.GetString("db", "");
  if (db_path.empty()) return Usage();
  Result<GraphDatabase> db = ReadGraphFile(db_path);
  if (!db.ok()) return Fail(db.status());
  long long vertices = 0, edges = 0;
  int min_v = 1 << 30, max_v = 0, disconnected = 0;
  double density = 0;
  for (const Graph& g : *db) {
    vertices += g.NumVertices();
    edges += g.NumEdges();
    min_v = std::min(min_v, g.NumVertices());
    max_v = std::max(max_v, g.NumVertices());
    density += GraphDensity(g);
    disconnected += IsConnected(g) ? 0 : 1;
  }
  const double n = std::max<size_t>(db->size(), 1);
  std::printf("graphs:        %zu\n", db->size());
  std::printf("avg vertices:  %.2f (min %d, max %d)\n", vertices / n, min_v,
              max_v);
  std::printf("avg edges:     %.2f\n", edges / n);
  std::printf("avg density:   %.3f\n", density / n);
  std::printf("disconnected:  %d\n", disconnected);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv);
  if (command == "generate") return RunGenerate(flags);
  if (command == "mine") return RunMine(flags);
  if (command == "build") return RunBuild(flags);
  if (command == "query") return RunQuery(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "serve-net") return RunServeNet(flags);
  if (command == "bench-query") return RunBenchQuery(flags);
  if (command == "update") return RunUpdate(flags);
  if (command == "convert") return RunConvert(flags);
  if (command == "stats") return RunStats(flags);
  return Usage();
}

}  // namespace
}  // namespace gdim

int main(int argc, char** argv) { return gdim::Main(argc, argv); }
