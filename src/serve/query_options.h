#ifndef GDIM_SERVE_QUERY_OPTIONS_H_
#define GDIM_SERVE_QUERY_OPTIONS_H_

#include <limits>

namespace gdim {

/// Stage-2 policy for a mapped query. kFull (the default, and the wire's
/// MODE=full and its alias MODE=auto) is the one exact path: every live row
/// is scanned and ranked by mapped distance. kApprox (MODE=approx) trades
/// exactness for scan cost: the engine probes the `nprobe` nearest IVF
/// centroid buckets (src/index/ivf_index.h) and exact-scores only their
/// members — the answer may miss rows the probe pruned, and nothing else
/// differs.
enum class ScanMode {
  kFull,
  kApprox,
};

/// QueryOptions::nprobe value meaning "probe every bucket" (the wire's
/// NPROBE=all). Probing all buckets prunes nothing, so a kApprox query at
/// this value answers bit-identically to kFull.
inline constexpr int kNprobeAll = std::numeric_limits<int>::max();

/// Per-query knobs, threaded through every query entry point of
/// ShardedEngine, its QueryEngine shards, and BatchExecutor — the one
/// options struct, and the extension point future per-query knobs (kernel
/// tile hints) land in without touching any signature. Construct with
/// designated initializers: engine.Query(q, {.k = 10}).
struct QueryOptions {
  /// Result count. Negative values answer like 0 (empty ranking) — one
  /// malformed request must not take down the serving process; boundary
  /// layers (tool flags, the wire parser) additionally reject them.
  int k = 0;

  /// Stage-2 scan policy; see ScanMode.
  ScanMode scan_mode = ScanMode::kFull;

  /// kApprox only: how many IVF centroid buckets to probe, per shard.
  /// 0 picks the engine default (IvfIndex::default_nprobe); kNprobeAll
  /// probes every bucket; values above the bucket count clamp down to it.
  /// Ignored by the other scan modes (boundary layers reject NPROBE
  /// without MODE=approx so cache keys and coalescing spans stay clean).
  int nprobe = 0;

  friend bool operator==(const QueryOptions&, const QueryOptions&) = default;
};

}  // namespace gdim

#endif  // GDIM_SERVE_QUERY_OPTIONS_H_
