#ifndef GDIM_SERVER_BATCH_EXECUTOR_H_
#define GDIM_SERVER_BATCH_EXECUTOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/timer.h"
#include "core/index_io.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "obs/metric_registry.h"
#include "obs/query_trace.h"
#include "reindex/dimension_refresher.h"
#include "server/result_cache.h"
#include "server/sharded_engine.h"
#include "store/graph_store.h"

namespace gdim {

/// Admission and coalescing knobs for the batch executor.
struct BatchExecutorOptions {
  /// Bound on admitted-but-unfinished requests (queued + executing). A
  /// submit beyond this is rejected immediately with ResourceExhausted —
  /// backpressure is a typed status, never an unbounded queue and never a
  /// blocked producer. Must be >= 1.
  int queue_capacity = 256;

  /// Max queries coalesced into one packed multi-query scan. Must be >= 1.
  int max_batch = 64;

  /// Byte budget of the epoch-versioned query result cache consulted before
  /// every scan (see server/result_cache.h). 0 disables caching. Hits
  /// are bit-identical to cold queries at the same epoch; any mutation
  /// invalidates by epoch bump, so the cache never changes an answer.
  size_t cache_bytes = 0;

  /// The live-graph store behind the engine (not owned; must outlive the
  /// executor). Null means REINDEX is unavailable — the engine's
  /// fingerprints cannot be re-derived without the graphs. When set, the
  /// executor keeps it in lockstep with the engine: populated by every
  /// successful Insert, marked by Remove, pruned by Compact. Mutated only
  /// on the dispatcher thread, like the engine.
  GraphStore* store = nullptr;

  /// Defaults for dimension refreshes (REINDEX and the auto-trigger).
  /// refresh.p == 0 keeps the engine's current dimension count.
  RefreshOptions refresh;

  /// Auto-trigger: start a background refresh after this many successful
  /// Insert/Remove mutations since the last refresh began. 0 = never.
  /// Requires `store`.
  int reindex_every = 0;

  /// Slow-query log: log a per-stage breakdown (the QueryTrace fields) for
  /// every query whose end-to-end time reaches this many microseconds.
  /// 0 disables — the default; tracing costs nothing when off beyond the
  /// timestamps the executor already takes.
  uint64_t slow_query_usec = 0;

  /// Receives one line per slow query (no trailing newline); null logs to
  /// stderr. Injected by tests to assert the log fires exactly once per
  /// slow query. Called on the dispatcher thread, outside the executor
  /// lock — keep it cheap.
  std::function<void(const std::string&)> slow_query_sink;
};

/// What a completed REINDEX reports back (the wire layer prints it).
struct ReindexReport {
  uint64_t generation = 0;  ///< the engine's generation after the swap
  int features = 0;         ///< dimension count of the new generation
  /// Live graphs that churned in *during* the background selection and were
  /// therefore VF2-mapped onto the new dimension at swap time (the frozen
  /// majority is re-fingerprinted from mined supports, VF2-free).
  int remapped = 0;
};

/// Funnels every engine access — concurrent top-k queries from many
/// connections plus mutations — through one dispatcher thread:
///
///   submit (any thread) → bounded FIFO admission queue → dispatcher pops a
///   run of up to max_batch queries → one coalesced QueryBatch → promises
///   fulfilled. At the default max_batch (64) the batch scans on the
///   dispatcher thread itself (see ShardedOptions::threads).
///
/// Coalescing is what turns N closed-loop connections into packed
/// multi-query scans (a MODE=full scan tile loads each row block once for
/// all of its queries); the single dispatcher is also the mutation
/// story: Insert/Remove run inline between batches in FIFO order, so the
/// engine's "mutations are not thread-safe with queries" contract holds
/// without a lock on the hot path. Snapshot only *freezes* on the
/// dispatcher (a bounded pause) — the file write happens on a background
/// thread so queries keep flowing (see Snapshot()).
///
/// With cache_bytes > 0 the dispatcher consults an epoch-versioned result
/// cache after the stage-1 mapping and before the scan: repeated
/// fingerprints at an unchanged epoch skip the scan entirely, and every
/// miss populates the cache after the gather. Epoch keying makes hits
/// bit-identical to cold queries — the FIFO order means a mutation has
/// fully executed (and bumped the epoch) before any later query is looked
/// up.
///
/// All public methods are thread-safe. The blocking Query/Insert/... calls
/// block only on their own result; admission never blocks — a full queue
/// rejects with StatusCode::kResourceExhausted.
class BatchExecutor {
 public:
  /// The executor serves `engine` (not owned; must outlive the executor).
  /// Spawns the dispatcher thread.
  BatchExecutor(ShardedEngine* engine, BatchExecutorOptions options = {});

  /// Drains already-admitted requests, stops the dispatcher, then waits for
  /// any in-flight background snapshot writes. Submits racing with
  /// destruction are rejected.
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Top-k for one query graph; blocks until the coalesced batch holding it
  /// completes. ResourceExhausted immediately when the queue is full.
  /// Per-query knobs (k, scan mode) travel in `options`; requests with
  /// equal options coalesce into shared multi-query scans.
  Result<Ranking> Query(Graph query, const QueryOptions& options);

  /// Query with a per-stage trace: `*trace` is filled before the result is
  /// released (the promise handoff orders the writes), covering admission
  /// wait, the shared map/cache passes, the scan span, and the end-to-end
  /// total. `trace` must outlive the call. Tracing changes nothing about
  /// coalescing or caching — the traced query shares scans and cache
  /// entries with untraced ones.
  Result<Ranking> Query(Graph query, const QueryOptions& options,
                        QueryTrace* trace);

  /// Inserts a graph; returns its stable external id.
  Result<int> Insert(Graph graph);

  /// Tombstones the graph with the given external id.
  Status Remove(int id);

  /// Compacts every shard (reclaims tombstones, seals deltas) and prunes
  /// the graph store — FIFO with the other mutations, so it bumps the
  /// epoch in order and cached results from before it can never be
  /// replayed after it. Returns the number of tombstoned rows reclaimed.
  Result<int> Compact();

  /// Re-selects the serving dimension over the live database and hot-swaps
  /// the new generation in, without stopping queries. The dispatcher only
  /// *freezes* the live graph set (a bounded pause — graphs are small);
  /// mining + selection + re-fingerprinting run on a background thread, and
  /// the finished generation comes back through the request queue as an
  /// internal adopt step that reconciles churn-during-selection (graphs
  /// inserted since the freeze are VF2-mapped onto the new dimension,
  /// removed ones dropped) and installs it with ShardedEngine::
  /// SwapGeneration — an epoch bump, so the result cache can never serve an
  /// answer across the generation boundary. Like Snapshot, the call blocks
  /// only its own submitter (until the swap lands); queries and mutations
  /// flow throughout. p == 0 keeps the current dimension count.
  ///
  /// Fails with InvalidArgument when the executor has no graph store, and
  /// with ResourceExhausted when a refresh is already in progress.
  Result<ReindexReport> Reindex(int p = 0);

  /// Snapshots the engine's merged live state to a server-side path —
  /// without stalling the dispatcher for the write. The dispatcher freezes
  /// the engine in a bounded pause (sealed bases cloned by refcount, only
  /// the small delta/tombstone/id state copied) and a background thread
  /// streams the v3 file; queries and mutations keep flowing meanwhile. The
  /// call still blocks *its own* submitter until the file is written, and
  /// the file holds exactly the live set at the epoch the request was
  /// dispatched (mutations admitted after it are excluded — FIFO order).
  Status Snapshot(std::string path);

  /// The metric registry behind METRICS and STATS. Safe from any thread.
  MetricRegistry& metrics() { return registry_; }

  /// Samples the process gauges (queue depth, uptime) and renders the
  /// Prometheus text exposition — the METRICS verb's body. No terminator
  /// line; the wire layer appends `# EOF`.
  std::string MetricsText() GDIM_EXCLUDES(mu_);

  /// The STATS verb's `OK key=value ...` line, rendered from the registry
  /// (plus the in-progress flags and the result cache's counters). Reads
  /// the request counters under the lock that publishes them, so a released
  /// submitter is always counted completed. Never queued: never load-shed,
  /// never counts itself.
  std::string StatsText() GDIM_EXCLUDES(mu_);

  /// Test/drain hook: Pause() makes the dispatcher hold admitted requests
  /// unexecuted (admission and rejection still work — this is how the
  /// backpressure path is exercised deterministically); Resume() lets it
  /// drain.
  void Pause() GDIM_EXCLUDES(mu_);
  void Resume() GDIM_EXCLUDES(mu_);

  const BatchExecutorOptions& options() const { return options_; }

 private:
  struct Request {
    enum class Kind {
      kQuery,
      kInsert,
      kRemove,
      kCompact,
      kSnapshot,
      kReindex,
      /// Internal: a finished background refresh coming home for
      /// installation on the dispatcher. Never submitted by clients;
      /// admitted past the capacity bound (dropping it would strand the
      /// refresh and its submitter).
      kAdoptGeneration,
    };
    Kind kind = Kind::kQuery;
    Graph graph;        // kQuery, kInsert
    QueryOptions query_options;  // kQuery
    int id = 0;         // kRemove
    int p = 0;          // kReindex (0 = keep dimension count)
    std::string path;   // kSnapshot
    /// kAdoptGeneration: the background refresh's output.
    std::shared_ptr<Result<RefreshedGeneration>> built;
    /// kQuery with TRACE=1: filled by Execute before the promise resolves
    /// (the future's happens-before publishes it); must outlive the call.
    QueryTrace* trace = nullptr;
    WallTimer queued_at;
    /// Admission wait, stamped when the dispatcher pops the request; kept
    /// so the trace/slow-log segments and the histogram agree exactly.
    double queue_wait_usec = 0.0;
    std::promise<Result<Ranking>> ranking;      // kQuery
    std::promise<Result<int>> inserted;         // kInsert
    std::promise<Status> status;                // kRemove, kSnapshot
    std::promise<Result<int>> compacted;        // kCompact
    /// kReindex / kAdoptGeneration; travels from the REINDEX request into
    /// the refresh thread and back with the adopt request, resolving only
    /// when the swap lands (or the refresh fails).
    std::promise<Result<ReindexReport>> reindexed;  // kReindex, kAdopt...
  };

  /// Admits r or rejects with ResourceExhausted (queue at capacity or
  /// executor stopping).
  Status Admit(Request r) GDIM_EXCLUDES(mu_);

  /// Queues an admitted request and wakes the dispatcher.
  void Enqueue(Request r) GDIM_REQUIRES(mu_);

  /// Admission for internal requests (generation adoption): exempt from the
  /// capacity bound — rejecting would strand the refresh — but still
  /// refused when the executor is stopping, in which case the traveling
  /// promise is failed here.
  void AdmitInternal(Request r) GDIM_EXCLUDES(mu_);

  /// Dispatcher-side start of a refresh: freezes the store, launches the
  /// background selection, and arranges for the result to come back as a
  /// kAdoptGeneration request carrying `done`. Fails `done` immediately
  /// when no store exists, the live set is empty, or a refresh is already
  /// in flight.
  void StartReindex(int p, std::promise<Result<ReindexReport>> done)
      GDIM_REQUIRES(engine_->writer_role()) GDIM_EXCLUDES(mu_);

  /// Fires StartReindex when the mutation count since the last refresh
  /// reaches options_.reindex_every (fire-and-forget promise).
  void MaybeAutoReindex() GDIM_REQUIRES(engine_->writer_role())
      GDIM_EXCLUDES(mu_);

  /// Dispatcher-side installation of a finished refresh: reconciles the
  /// generation with churn since the freeze and swaps it into the engine.
  Result<ReindexReport> InstallGeneration(Result<RefreshedGeneration>* built)
      GDIM_REQUIRES(engine_->writer_role());

  /// Publishes the engine gauges (graphs, epoch, ...) into the registry:
  /// in the constructor, and on the dispatcher after every mutation before
  /// its promise resolves — so a client always reads its own writes.
  void PublishEngineMetrics();

  /// Sets the gauges sampled at read time: queue depth and uptime.
  void SampleProcessMetrics() GDIM_REQUIRES(mu_);

  void DispatcherLoop() GDIM_EXCLUDES(mu_);
  /// Runs one popped run of requests outside the lock; returns the
  /// promise-fulfilling closures, which the dispatcher invokes only after
  /// publishing the completion counters. All engine/store access funnels
  /// through here, on the dispatcher thread — which holds the engine's
  /// writer role for its whole lifetime, hence the REQUIRES.
  std::vector<std::function<void()>> Execute(std::vector<Request>* batch)
      GDIM_REQUIRES(engine_->writer_role()) GDIM_EXCLUDES(mu_);

  /// Spawns the background writer for a frozen snapshot; `done` is
  /// fulfilled (and snapshots_in_progress decremented) when the file is
  /// fully written. Called from a fulfill closure, after the dispatcher has
  /// published this request's completion counters. Touches only the frozen
  /// capture and mu_-guarded accounting — never the live engine, so no
  /// writer role.
  void StartAsyncSnapshot(FrozenShardedState frozen, std::string path,
                          std::promise<Status> done) GDIM_EXCLUDES(mu_);

  ShardedEngine* engine_;
  BatchExecutorOptions options_;
  /// Epoch-versioned result cache; null when options_.cache_bytes == 0.
  /// Only the dispatcher inserts/looks up (the cache locks internally for
  /// StatsText() readers).
  std::unique_ptr<ResultCache> cache_;

  /// The registry owns every number the executor reports; the raw pointers
  /// below are its cells, resolved once at construction (stable for the
  /// registry's lifetime). The cells are lock-free atomics, but accepted,
  /// rejected and completed (with the request-latency histogram) are
  /// written inside mu_ critical sections, next to in_flight_, so
  /// StatsText() reads them mutually consistent. Declared before
  /// dispatcher_ so the cells exist before any thread records into them.
  MetricRegistry registry_;
  MetricCounter* c_accepted_;
  MetricCounter* c_rejected_;
  MetricCounter* c_completed_;
  MetricCounter* c_batches_;
  MetricCounter* c_mutations_;
  MetricCounter* c_approx_queries_;
  MetricCounter* c_approx_candidates_scanned_;
  MetricCounter* c_approx_rows_pruned_;
  MetricCounter* c_snapshots_completed_;
  MetricCounter* c_reindexes_completed_;
  MetricCounter* c_slow_queries_;
  MetricGauge* g_queue_depth_;
  MetricGauge* g_queue_high_watermark_;
  MetricGauge* g_uptime_seconds_;
  MetricGauge* g_start_epoch_;
  MetricGauge* g_graphs_;
  MetricGauge* g_shards_;
  MetricGauge* g_features_;
  MetricGauge* g_physical_rows_;
  MetricGauge* g_tombstones_;
  MetricGauge* g_epoch_;
  MetricGauge* g_generation_;
  MetricGauge* g_ivf_buckets_;
  /// Client request latency, submit → completion (the STATS p50/p99).
  LatencyHistogram* h_request_;
  LatencyHistogram* h_admission_wait_;
  LatencyHistogram* h_cache_probe_;
  LatencyHistogram* h_map_all_;
  LatencyHistogram* h_scan_exact_;
  LatencyHistogram* h_scan_approx_;
  LatencyHistogram* h_ivf_probe_;
  LatencyHistogram* h_gather_merge_;
  LatencyHistogram* h_mutation_apply_;
  LatencyHistogram* h_snapshot_freeze_;
  LatencyHistogram* h_snapshot_write_;
  LatencyHistogram* h_reindex_build_;
  LatencyHistogram* h_reindex_swap_;
  WallTimer uptime_;

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Request> queue_ GDIM_GUARDED_BY(mu_);
  /// Admitted and not yet completed.
  size_t in_flight_ GDIM_GUARDED_BY(mu_) = 0;
  bool stop_ GDIM_GUARDED_BY(mu_) = false;
  bool paused_ GDIM_GUARDED_BY(mu_) = false;
  /// Background snapshot accounting. The writer threads are detached; the
  /// destructor waits on snapshot_cv_ until none remain. The completion
  /// counter lives in the registry (c_snapshots_completed_).
  uint64_t snapshots_in_progress_ GDIM_GUARDED_BY(mu_) = 0;
  CondVar snapshot_cv_;

  /// Reindex accounting (StatsText() reads it; the dispatcher and the
  /// refresh-done callback write it). Completions count in the registry.
  bool reindex_in_flight_ GDIM_GUARDED_BY(mu_) = false;
  /// Successful Insert/Remove count since the last refresh started; feeds
  /// the auto-trigger. Dispatcher-only — every function touching it
  /// REQUIRES the engine's writer role, which only the dispatcher holds.
  int mutations_since_reindex_ = 0;

  /// The live-graph store (options_.store); dispatcher-only after
  /// construction, checked through its own writer_role() (asserted under
  /// the engine's — both belong to the dispatcher).
  GraphStore* store_ = nullptr;

  std::thread dispatcher_;
  /// Declared last so it is destroyed FIRST: its destructor joins an
  /// in-flight refresh, whose done-callback touches mu_/queue_ — which must
  /// still be alive at that point.
  DimensionRefresher refresher_;
};

}  // namespace gdim

#endif  // GDIM_SERVER_BATCH_EXECUTOR_H_
