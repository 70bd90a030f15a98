// AVX-512 scan kernel (VPOPCNTDQ: hardware per-lane popcount, Ice Lake+).
// Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq (see CMakeLists.txt)
// and only ever dispatched to after runtime CPUID confirms all three, so the
// binary keeps running on hosts without them. Tail words use masked loads —
// AVX-512's masking covers the non-multiple-of-8 word remainder without a
// scalar epilogue.
//
// Rows are processed in groups of eight so the per-row horizontal reduction
// — the dominant cost at serving widths, where a whole row is one or two
// vectors — collapses into a single shuffle tree: eight lane-sum vectors in,
// one vector of eight row totals out, narrowed and stored with one
// instruction. A lone _mm512_reduce_add_epi64 per row costs more than the
// row's own XOR+POPCNT at p <= 512.
#include "core/kernels/scan_kernel.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

// GCC 12 reports -Wmaybe-uninitialized inside its own avx512fintrin.h
// wherever the unpack intrinsics of RowSums8 are inlined: their unmasked
// forms pass _mm512_undefined_epi32() — a deliberate self-initialized
// "don't care" operand — as the pass-through of the masked builtin, and the
// full mask means it is never read. The diagnostic is a false positive about
// the header's idiom, not this file's data; silencing it changes no
// generated code. Scoped to this kernel's body, GCC only (clang has no such
// warning here and would flag the unknown option).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace gdim {

namespace {

/// Reduces eight per-row lane-sum vectors to the eight row totals, as u32.
/// Stage 1 pairs rows within 128-bit lanes (unpack + add), stages 2-3 pair
/// 128-bit lanes across vectors (shuffle + add); qword i of the result is
/// the full lane sum of s[i].
inline __m256i RowSums8(const __m512i s[8]) {
  const __m512i a = _mm512_add_epi64(_mm512_unpacklo_epi64(s[0], s[1]),
                                     _mm512_unpackhi_epi64(s[0], s[1]));
  const __m512i b = _mm512_add_epi64(_mm512_unpacklo_epi64(s[2], s[3]),
                                     _mm512_unpackhi_epi64(s[2], s[3]));
  const __m512i c = _mm512_add_epi64(_mm512_unpacklo_epi64(s[4], s[5]),
                                     _mm512_unpackhi_epi64(s[4], s[5]));
  const __m512i d = _mm512_add_epi64(_mm512_unpacklo_epi64(s[6], s[7]),
                                     _mm512_unpackhi_epi64(s[6], s[7]));
  const __m512i ab = _mm512_add_epi64(_mm512_shuffle_i64x2(a, b, 0x44),
                                      _mm512_shuffle_i64x2(a, b, 0xEE));
  const __m512i cd = _mm512_add_epi64(_mm512_shuffle_i64x2(c, d, 0x44),
                                      _mm512_shuffle_i64x2(c, d, 0xEE));
  const __m512i sums = _mm512_add_epi64(_mm512_shuffle_i64x2(ab, cd, 0x88),
                                        _mm512_shuffle_i64x2(ab, cd, 0xDD));
  return _mm512_cvtepi64_epi32(sums);
}

class Avx512Kernel final : public ScanKernel {
 public:
  const char* name() const override { return "avx512"; }

  int tile_width() const override { return 8; }

  void HammingBlock(const uint64_t* query, const uint64_t* rows,
                    size_t words_per_row, int num_rows,
                    uint32_t* diffs) const override {
    const size_t vec_words = words_per_row & ~size_t{7};
    const size_t tail = words_per_row - vec_words;
    const __mmask8 tail_mask =
        static_cast<__mmask8>((uint32_t{1} << tail) - 1);
    int r = 0;
    for (; r + 8 <= num_rows; r += 8) {
      const uint64_t* row = rows + static_cast<size_t>(r) * words_per_row;
      __m512i acc[8];
      for (int j = 0; j < 8; ++j) acc[j] = _mm512_setzero_si512();
      size_t w = 0;
      for (; w < vec_words; w += 8) {
        const __m512i q = _mm512_loadu_si512(query + w);
        for (int j = 0; j < 8; ++j) {
          const __m512i d = _mm512_loadu_si512(
              row + static_cast<size_t>(j) * words_per_row + w);
          acc[j] = _mm512_add_epi64(
              acc[j], _mm512_popcnt_epi64(_mm512_xor_si512(q, d)));
        }
      }
      if (tail != 0) {
        const __m512i q = _mm512_maskz_loadu_epi64(tail_mask, query + w);
        for (int j = 0; j < 8; ++j) {
          const __m512i d = _mm512_maskz_loadu_epi64(
              tail_mask, row + static_cast<size_t>(j) * words_per_row + w);
          acc[j] = _mm512_add_epi64(
              acc[j], _mm512_popcnt_epi64(_mm512_xor_si512(q, d)));
        }
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(diffs + r),
                          RowSums8(acc));
    }
    // Row remainder (< 8 rows): per-row horizontal reduce.
    const uint64_t* row = rows + static_cast<size_t>(r) * words_per_row;
    for (; r < num_rows; ++r, row += words_per_row) {
      __m512i acc = _mm512_setzero_si512();
      size_t w = 0;
      for (; w < vec_words; w += 8) {
        const __m512i q = _mm512_loadu_si512(query + w);
        const __m512i d = _mm512_loadu_si512(row + w);
        acc = _mm512_add_epi64(acc,
                               _mm512_popcnt_epi64(_mm512_xor_si512(q, d)));
      }
      if (tail != 0) {
        const __m512i q = _mm512_maskz_loadu_epi64(tail_mask, query + w);
        const __m512i d = _mm512_maskz_loadu_epi64(tail_mask, row + w);
        acc = _mm512_add_epi64(acc,
                               _mm512_popcnt_epi64(_mm512_xor_si512(q, d)));
      }
      diffs[r] = static_cast<uint32_t>(_mm512_reduce_add_epi64(acc));
    }
  }

  void HammingBlockMulti(const uint64_t* const* queries, int num_queries,
                         const uint64_t* rows, size_t words_per_row,
                         int num_rows, uint32_t* diffs) const override {
    const size_t vec_words = words_per_row & ~size_t{7};
    const size_t tail = words_per_row - vec_words;
    const __mmask8 tail_mask =
        static_cast<__mmask8>((uint32_t{1} << tail) - 1);
    int q = 0;
    // Two queries by eight rows per pass: sixteen accumulators plus the
    // shared row vector stay within the thirty-two zmm registers, every row
    // load is amortized over two XORs, and both queries' reductions use the
    // shuffle tree.
    for (; q + 2 <= num_queries; q += 2) {
      const uint64_t* q0 = queries[q];
      const uint64_t* q1 = queries[q + 1];
      uint32_t* out0 = diffs + static_cast<size_t>(q) * num_rows;
      uint32_t* out1 = diffs + static_cast<size_t>(q + 1) * num_rows;
      int r = 0;
      for (; r + 8 <= num_rows; r += 8) {
        const uint64_t* row = rows + static_cast<size_t>(r) * words_per_row;
        __m512i a0[8], a1[8];
        for (int j = 0; j < 8; ++j) {
          a0[j] = _mm512_setzero_si512();
          a1[j] = _mm512_setzero_si512();
        }
        size_t w = 0;
        for (; w < vec_words; w += 8) {
          const __m512i v0 = _mm512_loadu_si512(q0 + w);
          const __m512i v1 = _mm512_loadu_si512(q1 + w);
          for (int j = 0; j < 8; ++j) {
            const __m512i d = _mm512_loadu_si512(
                row + static_cast<size_t>(j) * words_per_row + w);
            a0[j] = _mm512_add_epi64(
                a0[j], _mm512_popcnt_epi64(_mm512_xor_si512(d, v0)));
            a1[j] = _mm512_add_epi64(
                a1[j], _mm512_popcnt_epi64(_mm512_xor_si512(d, v1)));
          }
        }
        if (tail != 0) {
          const __m512i v0 = _mm512_maskz_loadu_epi64(tail_mask, q0 + w);
          const __m512i v1 = _mm512_maskz_loadu_epi64(tail_mask, q1 + w);
          for (int j = 0; j < 8; ++j) {
            const __m512i d = _mm512_maskz_loadu_epi64(
                tail_mask, row + static_cast<size_t>(j) * words_per_row + w);
            a0[j] = _mm512_add_epi64(
                a0[j], _mm512_popcnt_epi64(_mm512_xor_si512(d, v0)));
            a1[j] = _mm512_add_epi64(
                a1[j], _mm512_popcnt_epi64(_mm512_xor_si512(d, v1)));
          }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out0 + r),
                            RowSums8(a0));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out1 + r),
                            RowSums8(a1));
      }
      if (r < num_rows) {
        const uint64_t* rest = rows + static_cast<size_t>(r) * words_per_row;
        HammingBlock(q0, rest, words_per_row, num_rows - r, out0 + r);
        HammingBlock(q1, rest, words_per_row, num_rows - r, out1 + r);
      }
    }
    for (; q < num_queries; ++q) {
      HammingBlock(queries[q], rows, words_per_row, num_rows,
                   diffs + static_cast<size_t>(q) * num_rows);
    }
  }
};

}  // namespace

const ScanKernel* Avx512ScanKernelOrNull() {
  static const Avx512Kernel kernel;
  return &kernel;
}

}  // namespace gdim

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#else  // compiler cannot target the AVX-512 subset the kernel needs

namespace gdim {

const ScanKernel* Avx512ScanKernelOrNull() { return nullptr; }

}  // namespace gdim

#endif
