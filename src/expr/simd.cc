#include "expr/simd.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define RQP_SIMD_X86 1
#else
#define RQP_SIMD_X86 0
#endif

#include "util/env.h"

namespace rqp {

namespace {

bool CpuHasAvx2() {
#if RQP_SIMD_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Scalar fallbacks. These mirror the branch-free unconditional-store compact
// in pred_program.cc's DenseIf exactly; the AVX2 kernels below must emit the
// same ascending index sequences.
// ---------------------------------------------------------------------------

template <typename Pred>
size_t ScalarCompact(const int64_t* col, size_t n, uint32_t* sel, Pred pred) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    sel[out] = static_cast<uint32_t>(i);
    out += pred(col[i]) ? 1 : 0;
  }
  return out;
}

size_t ScalarDenseCmp(const int64_t* col, size_t n, CmpOp cmp, int64_t rhs,
                      uint32_t* sel) {
  switch (cmp) {
    case CmpOp::kEq:
      return ScalarCompact(col, n, sel, [rhs](int64_t v) { return v == rhs; });
    case CmpOp::kNe:
      return ScalarCompact(col, n, sel, [rhs](int64_t v) { return v != rhs; });
    case CmpOp::kLt:
      return ScalarCompact(col, n, sel, [rhs](int64_t v) { return v < rhs; });
    case CmpOp::kLe:
      return ScalarCompact(col, n, sel, [rhs](int64_t v) { return v <= rhs; });
    case CmpOp::kGt:
      return ScalarCompact(col, n, sel, [rhs](int64_t v) { return v > rhs; });
    case CmpOp::kGe:
      return ScalarCompact(col, n, sel, [rhs](int64_t v) { return v >= rhs; });
  }
  return 0;
}

uint64_t ScalarMix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

#if RQP_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 kernels. Compiled with a per-function target attribute instead of a
// global -march so the translation unit builds (and the scalar paths run) on
// any x86-64 baseline; ResolveSimdLevel gates entry at runtime.
// ---------------------------------------------------------------------------

/// Compressed-store positions for each 4-bit survivor mask: the lane indices
/// whose mask bit is set, in ascending order, padded with 0. Stores are
/// unconditional (4 lanes every iteration) and the cursor advances by
/// popcount, the vector analogue of the scalar unconditional-store compact.
alignas(64) constexpr uint32_t kCompactLut[16][4] = {
    {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0},
    {2, 0, 0, 0}, {0, 2, 0, 0}, {1, 2, 0, 0}, {0, 1, 2, 0},
    {3, 0, 0, 0}, {0, 3, 0, 0}, {1, 3, 0, 0}, {0, 1, 3, 0},
    {2, 3, 0, 0}, {0, 2, 3, 0}, {1, 2, 3, 0}, {0, 1, 2, 3},
};

/// Truth vector (all-ones per qualifying lane) for one signed-64 comparison.
/// AVX2 has only cmpeq/cmpgt, so the other four derive by operand swap and
/// complement; `ones` is a hoisted all-ones register for the NOT.
__attribute__((target("avx2"))) inline __m256i
CmpMask256(CmpOp cmp, __m256i v, __m256i rhs, __m256i ones) {
  switch (cmp) {
    case CmpOp::kEq: return _mm256_cmpeq_epi64(v, rhs);
    case CmpOp::kNe:
      return _mm256_xor_si256(_mm256_cmpeq_epi64(v, rhs), ones);
    case CmpOp::kLt: return _mm256_cmpgt_epi64(rhs, v);
    case CmpOp::kLe:
      return _mm256_xor_si256(_mm256_cmpgt_epi64(v, rhs), ones);
    case CmpOp::kGt: return _mm256_cmpgt_epi64(v, rhs);
    case CmpOp::kGe:
      return _mm256_xor_si256(_mm256_cmpgt_epi64(rhs, v), ones);
  }
  return _mm256_setzero_si256();
}

__attribute__((target("avx2"))) size_t
Avx2DenseCmp(const int64_t* col, size_t n, CmpOp cmp, int64_t rhs,
             uint32_t* sel) {
  const __m256i vrhs = _mm256_set1_epi64x(rhs);
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m128i step = _mm_set1_epi32(4);
  __m128i base = _mm_setzero_si128();  // broadcast chunk start, +4 per iter
  size_t out = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
    const __m256i hit = CmpMask256(cmp, v, vrhs, ones);
    // One sign bit per 64-bit lane → 4-bit mask indexing the compact LUT,
    // whose entries are in-chunk lane indices; add the broadcast chunk base.
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(hit));
    const __m128i pos =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kCompactLut[mask]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + out),
                     _mm_add_epi32(pos, base));
    out += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
    base = _mm_add_epi32(base, step);
  }
  // Scalar tail; indices continue from i so the sequence stays ascending.
  for (; i < n; ++i) {
    sel[out] = static_cast<uint32_t>(i);
    size_t take = 0;
    switch (cmp) {
      case CmpOp::kEq: take = col[i] == rhs; break;
      case CmpOp::kNe: take = col[i] != rhs; break;
      case CmpOp::kLt: take = col[i] < rhs; break;
      case CmpOp::kLe: take = col[i] <= rhs; break;
      case CmpOp::kGt: take = col[i] > rhs; break;
      case CmpOp::kGe: take = col[i] >= rhs; break;
    }
    out += take;
  }
  return out;
}

__attribute__((target("avx2"))) size_t
Avx2DenseBetween(const int64_t* col, size_t n, int64_t lo, int64_t hi,
                 uint32_t* sel) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m128i step = _mm_set1_epi32(4);
  __m128i base = _mm_setzero_si128();  // broadcast chunk start, +4 per iter
  size_t out = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
    // lo <= v <= hi  ⇔  !(lo > v) && !(v > hi)
    const __m256i ge_lo = _mm256_xor_si256(_mm256_cmpgt_epi64(vlo, v), ones);
    const __m256i le_hi = _mm256_xor_si256(_mm256_cmpgt_epi64(v, vhi), ones);
    const __m256i hit = _mm256_and_si256(ge_lo, le_hi);
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(hit));
    const __m128i pos =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kCompactLut[mask]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + out),
                     _mm_add_epi32(pos, base));
    out += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
    base = _mm_add_epi32(base, step);
  }
  for (; i < n; ++i) {
    sel[out] = static_cast<uint32_t>(i);
    out += (col[i] >= lo && col[i] <= hi) ? 1 : 0;
  }
  return out;
}

/// 64x64→64 low multiply from 32-bit pieces (AVX2 lacks mullo_epi64):
///   a*b mod 2^64 = a_lo*b_lo + ((a_lo*b_hi + a_hi*b_lo) << 32).
/// mullo_epi32 against the dword-swapped operand produces both cross terms
/// in adjacent dwords; hadd sums them and the 0x73 shuffle lifts the sums
/// into the high dword of each 64-bit lane (low dword zeroed from the hadd's
/// zero half), where the final add applies the <<32.
__attribute__((target("avx2"))) inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i bswap = _mm256_shuffle_epi32(b, 0xB1);
  const __m256i prodlh = _mm256_mullo_epi32(a, bswap);
  const __m256i prodlh2 = _mm256_hadd_epi32(prodlh, _mm256_setzero_si256());
  const __m256i prodlh3 = _mm256_shuffle_epi32(prodlh2, 0x73);
  const __m256i prodll = _mm256_mul_epu32(a, b);
  return _mm256_add_epi64(prodll, prodlh3);
}

__attribute__((target("avx2"))) void
Avx2MixBatch(const int64_t* keys, size_t n, uint64_t* out) {
  const __m256i c1 = _mm256_set1_epi64x(
      static_cast<int64_t>(0xff51afd7ed558ccdULL));
  const __m256i c2 = _mm256_set1_epi64x(
      static_cast<int64_t>(0xc4ceb9fe1a85ec53ULL));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = Mul64(h, c1);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = Mul64(h, c2);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  for (; i < n; ++i) out[i] = ScalarMix(static_cast<uint64_t>(keys[i]));
}

#endif  // RQP_SIMD_X86

}  // namespace

SimdLevel ResolveSimdLevel(int configured) {
  if (configured == 0) return SimdLevel::kScalar;
  if (configured < 0 && !EnvFlag("RQP_SIMD", /*if_unset=*/true)) {
    return SimdLevel::kScalar;
  }
  return CpuHasAvx2() ? SimdLevel::kAVX2 : SimdLevel::kScalar;
}

size_t SimdDenseCmp(const int64_t* col, size_t n, CmpOp cmp, int64_t rhs,
                    uint32_t* sel, SimdLevel level) {
#if RQP_SIMD_X86
  if (level == SimdLevel::kAVX2) return Avx2DenseCmp(col, n, cmp, rhs, sel);
#else
  (void)level;
#endif
  return ScalarDenseCmp(col, n, cmp, rhs, sel);
}

size_t SimdDenseBetween(const int64_t* col, size_t n, int64_t lo, int64_t hi,
                        uint32_t* sel, SimdLevel level) {
#if RQP_SIMD_X86
  if (level == SimdLevel::kAVX2) return Avx2DenseBetween(col, n, lo, hi, sel);
#else
  (void)level;
#endif
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    sel[out] = static_cast<uint32_t>(i);
    out += (col[i] >= lo && col[i] <= hi) ? 1 : 0;
  }
  return out;
}

void SimdMixBatch(const int64_t* keys, size_t n, uint64_t* out,
                  SimdLevel level) {
#if RQP_SIMD_X86
  if (level == SimdLevel::kAVX2) {
    Avx2MixBatch(keys, n, out);
    return;
  }
#else
  (void)level;
#endif
  for (size_t i = 0; i < n; ++i) {
    out[i] = ScalarMix(static_cast<uint64_t>(keys[i]));
  }
}

}  // namespace rqp
