#ifndef GDIM_CORE_KERNELS_SCAN_KERNEL_H_
#define GDIM_CORE_KERNELS_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gdim {

/// A Hamming-scan kernel: XOR-popcount of packed fingerprint words against a
/// contiguous block of packed database rows — the innermost loop of the
/// serving hot path, and the one place ISA-specific code is allowed to live.
///
/// Contract: every kernel is bit-identical to the scalar one. Hamming
/// distances are exact integers and the (shared) score conversion runs
/// outside the kernel, so "identical" means byte-for-byte equal diff
/// outputs for any width, any padding content (callers guarantee padding
/// bits are zero in both query and rows; PackedBitMatrix enforces that at
/// load), and any row count — which in turn makes scores and top-k tie
/// order identical for every kernel.
class ScanKernel {
 public:
  virtual ~ScanKernel() = default;

  /// Stable lowercase identifier ("scalar", "avx2", "avx512"); what
  /// GDIM_FORCE_KERNEL matches and what STATS reports as kernel=.
  virtual const char* name() const = 0;

  /// Preferred number of concurrent queries per row-block pass — how wide
  /// ShardedEngine's one scan path cuts every query batch into tiles (a
  /// single query is a tile of one). Sized so the per-query accumulators
  /// plus one row vector stay in registers.
  virtual int tile_width() const = 0;

  /// diffs[r] = popcount(query ^ rows[r]) for num_rows consecutive rows of
  /// words_per_row words each, rows row-major starting at `rows`. The query
  /// also spans words_per_row words.
  virtual void HammingBlock(const uint64_t* query, const uint64_t* rows,
                            size_t words_per_row, int num_rows,
                            uint32_t* diffs) const = 0;

  /// Multi-query form: diffs[q * num_rows + r] = popcount(queries[q] ^
  /// rows[r]). One pass over the row block serves all num_queries queries —
  /// each row's words are loaded once and XORed against every query while
  /// still cache-resident (register-tiled inside the kernel).
  virtual void HammingBlockMulti(const uint64_t* const* queries,
                                 int num_queries, const uint64_t* rows,
                                 size_t words_per_row, int num_rows,
                                 uint32_t* diffs) const = 0;
};

/// The portable baseline kernel; always available.
const ScanKernel& ScalarScanKernel();

/// Kernel by name ("scalar" | "avx2" | "avx512"), or nullptr when the name
/// is unknown, the kernel was not compiled in, or this host's CPU lacks the
/// ISA. The differential tests iterate FindScanKernel over all names and
/// skip the nullptrs.
const ScanKernel* FindScanKernel(const std::string& name);

/// Every kernel this binary can run on this host, scalar first.
std::vector<const ScanKernel*> SupportedScanKernels();

/// The kernel every scan in the process uses: the widest supported ISA
/// (avx512 > avx2 > scalar), overridable with GDIM_FORCE_KERNEL=
/// scalar|avx2|avx512 for CI determinism. A forced kernel this host cannot
/// run falls back to the auto pick with a warning on stderr — a test matrix
/// entry must degrade, not crash. Resolved once, on first use.
const ScanKernel& ActiveScanKernel();

/// Per-ISA factory hooks, defined in translation units compiled with the
/// matching -m flags (scan_kernel_avx2.cc / scan_kernel_avx512.cc); each
/// returns nullptr when the compiler could not target the ISA at all.
/// Callers must still gate on CPUID — FindScanKernel does.
const ScanKernel* Avx2ScanKernelOrNull();
const ScanKernel* Avx512ScanKernelOrNull();

}  // namespace gdim

#endif  // GDIM_CORE_KERNELS_SCAN_KERNEL_H_
