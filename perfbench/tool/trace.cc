// `trace`: the benchmark's traced run. It calls each layer's public entry
// point in-process, bottom layer first, on the same corpus and query stream
// the wire run uses, and records one span per call: name, start, end,
// parent and request id. Spans stay in memory and are written out at the
// end (--spans-out, one JSON object per line); perfbench/run.py derives the
// per-layer metrics and self times from them. Nothing inside the library is
// instrumented: every span wraps a call made from this file.
//
// Per request, in order (the layer a span's parent names is the one that
// calls it when the server answers a query):
//   mapper.map            FeatureMapper::Map                  <- executor
//   kernel.hamming        ActiveScanKernel().HammingBlockMulti <- score_all
//   kernel.scalar         ScalarScanKernel(), same call (for vs_scalar)
//   topk.score_all        PackedBitMatrix::ScoreAll           <- engine
//   topk.select           TopKByScores                        <- engine
//   ivf.probe             IvfIndex::Probe                     <- engine
//   engine.full/.approx   QueryEngine::QueryMapped (shard 0)  <- sharded
//   engine.shard          QueryEngine::QueryMapped, each shard <- sharded
//   sharded.query         ShardedEngine::QueryMapped (the unbatched path)
//   sharded.batch1/4      ShardedEngine::QueryMappedBatch     <- executor
//   wire.parse/.encode    ParseWireRequest / FormatRankingResponse
//   executor.query        BatchExecutor::Query (second pass, same requests)
// then, outside the request stream: store.insert/.remove
// (ShardedEngine::Insert/Remove), snapshot.freeze/.write
// (ShardedEngine::Freeze/WriteSnapshot) and reindex.build (BuildGeneration
// over a 200-graph live store).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "common/flags.h"
#include "common/sync.h"
#include "core/index_io.h"
#include "core/kernels/scan_kernel.h"
#include "graph/graph_io.h"
#include "reindex/dimension_refresher.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"
#include "server/wire.h"
#include "store/graph_store.h"
#include "tool/common.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Enough samples that a p99 has 10 beyond it.
constexpr int kMinRequests = 1000;
constexpr int kMutations = 1000;
constexpr int kSnapshots = 5;
// REINDEX re-selects kReindexP dimensions over at most kReindexGraphs live
// graphs: churn's store (200 graphs, p=64) on every workload.
constexpr size_t kReindexGraphs = 200;
constexpr int kReindexP = 64;

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  const char* parent;
  int request;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  // Runs fn() inside a span and returns its result.
  template <typename Fn>
  auto Record(const char* name, const char* parent, int request, Fn&& fn) {
    const int64_t start = Now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back({name, start, Now(), parent, request});
    } else {
      auto result = fn();
      spans_.push_back({name, start, Now(), parent, request});
      return result;
    }
  }

  double Seconds() const { return Now() / 1e9; }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                   "\"parent\": \"%s\", \"request\": %d}\n",
                   s.name, s.start_ns / 1e3, s.end_ns / 1e3, s.parent,
                   s.request);
    }
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace

int RunTrace(const gdim::Flags& flags) {
  const std::string dir = flags.GetString("dir", "");
  const std::string mode = flags.GetString("mode", "full");
  const double seconds = flags.GetDouble("seconds", 5.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  gdim::ShardedOptions sharded_opts;
  sharded_opts.num_shards = kShards;

  gdim::Result<gdim::PackedIndex> packed =
      gdim::ReadIndexFilePacked(IndexPath(dir));
  gdim::Result<gdim::GraphDatabase> queries =
      gdim::ReadGraphFile(QueriesPath(dir));
  gdim::Result<gdim::GraphDatabase> inserts =
      gdim::ReadGraphFile(InsertsPath(dir));
  if (!packed.ok() || !queries.ok() || !inserts.ok()) {
    std::fprintf(stderr, "trace: cannot read the inputs in %s\n", dir.c_str());
    return 1;
  }
  const std::vector<std::vector<std::string>> reference =
      ReadReference(ReferencePath(dir));
  gdim::Result<gdim::ShardedEngine> sharded =
      gdim::ShardedEngine::FromPacked(*packed, sharded_opts);
  if (!sharded.ok()) {
    std::fprintf(stderr, "trace: %s\n", sharded.status().ToString().c_str());
    return 1;
  }
  const gdim::FeatureMapper& mapper = sharded->mapper();
  const gdim::QueryEngine& shard0 = sharded->shard(0);

  // Shard 0's rows as one matrix, so the kernel/top-k/IVF spans measure
  // exactly the rows the shard-0 engine span scans.
  const std::vector<std::pair<int, const uint64_t*>> live0 =
      shard0.LiveRowWords();
  const size_t wpr = shard0.words_per_row();
  std::vector<uint64_t> words0;
  for (const auto& [id, words] : live0) {
    words0.insert(words0.end(), words, words + wpr);
  }
  const int rows0_count = static_cast<int>(live0.size());
  const gdim::PackedBitMatrix rows0 = gdim::PackedBitMatrix::FromWords(
      rows0_count, mapper.num_features(), std::move(words0));
  const std::vector<uint8_t> no_tombstones(live0.size(), 0);
  const gdim::ScanKernel& active = gdim::ActiveScanKernel();
  const gdim::ScanKernel& scalar = gdim::ScalarScanKernel();
  const gdim::ScanMode engine_mode =
      mode == "approx" ? gdim::ScanMode::kApprox : gdim::ScanMode::kFull;
  const bool exact =
      mode != "approx" && reference.size() == queries->size();

  Tracer tracer;
  JsonOut out;
  long long mismatches = 0;
  long long probe_rows = 0, probes = 0;
  std::vector<int> stream;
  std::vector<std::vector<uint8_t>> recent;
  std::vector<uint32_t> diffs(live0.size());
  std::vector<double> scores;

  // Phase 1: the layers below the executor, bottom up.
  QueryChooser chooser(mode, static_cast<int>(queries->size()), seed);
  const double phase1_end = seconds * 0.6;
  for (int r = 0; tracer.Seconds() < phase1_end ||
                  static_cast<int>(stream.size()) < kMinRequests;
       ++r) {
    const int qi = chooser.Next();
    stream.push_back(qi);
    const gdim::Graph& q = (*queries)[static_cast<size_t>(qi)];
    const std::vector<uint8_t> fp = tracer.Record(
        "mapper.map", "executor.query", r, [&] { return mapper.Map(q); });
    const std::vector<uint64_t> qwords = rows0.PackQuery(fp);
    const uint64_t* qptr = qwords.data();
    tracer.Record("kernel.hamming", "topk.score_all", r, [&] {
      active.HammingBlockMulti(&qptr, 1, rows0.row(0), wpr, rows0_count,
                               diffs.data());
    });
    tracer.Record("kernel.scalar", "topk.score_all", r, [&] {
      scalar.HammingBlockMulti(&qptr, 1, rows0.row(0), wpr, rows0_count,
                               diffs.data());
    });
    tracer.Record("topk.score_all", "engine.full", r,
                  [&] { rows0.ScoreAll(qwords, &scores); });
    tracer.Record("topk.select", "engine.full", r,
                  [&] { return gdim::TopKByScores(scores, kTopK); });
    const std::vector<int> pool =
        tracer.Record("ivf.probe", "engine.approx", r, [&] {
          return shard0.ivf_index().Probe(
              qwords, shard0.ivf_index().default_nprobe(), no_tombstones);
        });
    probe_rows += static_cast<long long>(pool.size());
    ++probes;
    tracer.Record("engine.full", "sharded.batch1", r, [&] {
      return shard0.QueryMapped(
          fp, {.k = kTopK, .scan_mode = gdim::ScanMode::kFull});
    });
    tracer.Record("engine.approx", "sharded.batch1", r, [&] {
      return shard0.QueryMapped(
          fp, {.k = kTopK, .scan_mode = gdim::ScanMode::kApprox});
    });
    for (int s = 0; s < sharded->num_shards(); ++s) {
      tracer.Record("engine.shard", "sharded.batch1", r, [&] {
        return sharded->shard(s).QueryMapped(
            fp, {.k = kTopK, .scan_mode = engine_mode});
      });
    }
    const gdim::Ranking ranking =
        tracer.Record("sharded.query", "none", r, [&] {
          return sharded->QueryMapped(
              fp, {.k = kTopK, .scan_mode = engine_mode});
        });
    if (exact && WireTokens(ranking) != reference[static_cast<size_t>(qi)]) {
      ++mismatches;
    }
    tracer.Record("sharded.batch1", "executor.query", r, [&] {
      return sharded->QueryMappedBatch(
          {fp}, {.k = kTopK, .scan_mode = engine_mode});
    });
    recent.push_back(fp);
    if (recent.size() == 4) {
      tracer.Record("sharded.batch4", "executor.query", r, [&] {
        return sharded->QueryMappedBatch(
            recent, {.k = kTopK, .scan_mode = engine_mode});
      });
      recent.clear();
    }
    const std::string line =
        std::string(mode == "approx" ? "QUERY 10 MODE=approx "
                                     : "QUERY 10 MODE=full ") +
        gdim::EncodeGraphInline(q);
    tracer.Record("wire.parse", "net_server", r,
                  [&] { return gdim::ParseWireRequest(line); });
    tracer.Record("wire.encode", "net_server", r,
                  [&] { return gdim::FormatRankingResponse(ranking); });
  }

  // Phase 2: the executor, replaying the same request ids, configured like
  // the workload's server (cache on for hot and churn).
  {
    gdim::BatchExecutorOptions exec_opts;
    exec_opts.cache_bytes =
        static_cast<size_t>(flags.GetInt("cache-mb", 0)) << 20;
    gdim::BatchExecutor executor(&*sharded, exec_opts);
    const double phase2_end = tracer.Seconds() + seconds * 0.25;
    for (size_t r = 0; r < stream.size(); ++r) {
      if (tracer.Seconds() > phase2_end && r >= 200) break;
      const gdim::Graph q = (*queries)[static_cast<size_t>(stream[r])];
      const gdim::Result<gdim::Ranking> answer =
          tracer.Record("executor.query", "net_server", static_cast<int>(r),
                        [&] {
                          return executor.Query(
                              q, {.k = kTopK, .scan_mode = engine_mode});
                        });
      if (!answer.ok()) ++mismatches;
    }
  }

  // Phase 3: mutations and snapshots on the same engine (the executor is
  // gone, so this thread is the engine's writer).
  gdim::ScopedRole writer(&sharded->writer_role());
  for (int i = 0; i < kMutations; ++i) {
    const gdim::Graph& g = (*inserts)[static_cast<size_t>(i) % inserts->size()];
    const gdim::Result<int> id = tracer.Record(
        "store.insert", "executor.mutation", i,
        [&] { return sharded->Insert(g); });
    if (!id.ok()) {
      ++mismatches;
      continue;
    }
    const gdim::Status removed = tracer.Record(
        "store.remove", "executor.mutation", i,
        [&] { return sharded->Remove(*id); });
    if (!removed.ok()) ++mismatches;
  }
  // The live graph store REINDEX selects from: churn's whole store, or the
  // first kReindexGraphs corpus graphs on the scan workloads (whose servers
  // hold no store, so only churn's snapshots carry it, as on the server).
  gdim::Result<gdim::GraphDatabase> corpus =
      gdim::ReadGraphFile(CorpusPath(dir));
  if (!corpus.ok()) return 1;
  gdim::GraphStore store;
  {
    gdim::ScopedRole store_writer(&store.writer_role());
    const size_t n = std::min(corpus->size(), kReindexGraphs);
    for (size_t i = 0; i < n; ++i) {
      if (!store.Put(static_cast<int>(i), (*corpus)[i]).ok()) ++mismatches;
    }
  }
  const std::string snap_path = dir + "/trace_snapshot.gdx";
  for (int i = 0; i < kSnapshots; ++i) {
    gdim::FrozenShardedState frozen = tracer.Record(
        "snapshot.freeze", "executor.snapshot", i,
        [&] { return sharded->Freeze(); });
    if (mode == "churn") {
      gdim::ScopedRole store_writer(&store.writer_role());
      frozen.store = store.Freeze();
    }
    const gdim::Status written =
        tracer.Record("snapshot.write", "executor.snapshot", i, [&] {
          return gdim::ShardedEngine::WriteSnapshot(frozen, snap_path);
        });
    if (!written.ok()) ++mismatches;
  }
  std::error_code ec;
  out.Num("snapshot_bytes",
          static_cast<double>(std::filesystem::file_size(snap_path, ec)));
  {
    gdim::RefreshOptions refresh;
    refresh.p = kReindexP;
    refresh.seed = 1;  // serve-net's default --seed
    gdim::ScopedRole store_writer(&store.writer_role());
    const gdim::FrozenGraphSet frozen = store.Freeze();
    const gdim::Result<gdim::RefreshedGeneration> built =
        tracer.Record("reindex.build", "executor.reindex", 0,
                      [&] { return gdim::BuildGeneration(frozen, refresh); });
    if (!built.ok()) {
      ++mismatches;
    } else {
      out.Num("reindex_mine_s", built->mining_seconds);
      out.Num("reindex_select_s", built->selection_seconds);
    }
  }

  const std::string spans_out = flags.GetString("spans-out", "");
  if (!spans_out.empty() && !tracer.Write(spans_out)) {
    std::fprintf(stderr, "trace: cannot write %s\n", spans_out.c_str());
    return 1;
  }
  out.Num("requests", static_cast<double>(stream.size()));
  out.Num("mismatches", static_cast<double>(mismatches));
  out.Num("shard0_rows", rows0_count);
  out.Num("words_per_row", static_cast<double>(wpr));
  out.Num("ivf_buckets", sharded->ivf_buckets());
  out.Num("ivf_scan_frac",
          probes > 0 ? static_cast<double>(probe_rows) /
                           (static_cast<double>(probes) * rows0_count)
                     : 0.0);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace perfbench
