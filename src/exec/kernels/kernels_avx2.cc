// AVX2 kernel implementations. This translation unit is compiled with
// -mavx2 (see src/exec/CMakeLists.txt); nothing in it may be called unless
// the dispatcher confirmed AVX2 at runtime (kernels.cc: CpuHasAvx2). The
// scalar twins in kernels.cc define the semantics; tests/kernel_test.cc
// diffs the two on randomized inputs.
#include "exec/kernels/kernels.h"

#if VDM_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <cstring>

namespace vdm {
namespace kernels {
namespace avx2 {

namespace {

// 256-entry permutation LUT for left-packing 8 int32 lanes by movemask bits:
// perm[mask] lists the set bit positions, so permutevar8x32 moves the
// matching lanes to the front of the vector.
struct CompressLut {
  alignas(32) uint32_t perm[256][8];
};

constexpr CompressLut MakeCompressLut() {
  CompressLut lut{};
  for (int mask = 0; mask < 256; ++mask) {
    int k = 0;
    for (int b = 0; b < 8; ++b) {
      if (mask & (1 << b)) lut.perm[mask][k++] = static_cast<uint32_t>(b);
    }
    for (; k < 8; ++k) lut.perm[mask][k] = 0;
  }
  return lut;
}

constexpr CompressLut kCompressLut = MakeCompressLut();

// The first four lanes of perm[mask] for a 4-bit mask: the left-pack
// permutation of four 32-bit lanes.
inline __m128i Perm4(unsigned mask) {
  return _mm_load_si128(
      reinterpret_cast<const __m128i*>(kCompressLut.perm[mask]));
}

inline unsigned MaskI32(__m256i eq_or_cmp) {
  return static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_castsi256_ps(eq_or_cmp)));
}

// The scalar twin's interval test (kernels.cc), for the tails.
inline bool InSet(int64_t v, const IntervalSet& set) {
  for (size_t j = 0; j < set.size; ++j) {
    if (static_cast<uint64_t>(v) - static_cast<uint64_t>(set.lo[j]) <=
        static_cast<uint64_t>(set.hi[j]) - static_cast<uint64_t>(set.lo[j])) {
      return true;
    }
  }
  return false;
}

// Mask/predicate pair for the code kernels: OR of one unsigned offset test
// per interval, plus the sign mask when NULL matches. A NULL code (-1)
// wraps above any code span (bounds lie in [0, INT32_MAX]), so only the
// sign mask can match it. The set is copied in by value and the first
// interval's broadcasts are hoisted: the kernels' stores may alias
// anything, so fields read through a reference would reload every vector,
// and most lowered predicates have exactly one interval.
struct CodeSetPred {
  IntervalSet set;
  __m256i lo0;
  __m256i span0;

  static __m256i Lo(const IntervalSet& s, size_t j) {
    return _mm256_set1_epi32(static_cast<int32_t>(s.lo[j]));
  }
  static __m256i Span(const IntervalSet& s, size_t j) {
    return _mm256_set1_epi32(static_cast<int32_t>(
        static_cast<uint32_t>(s.hi[j]) - static_cast<uint32_t>(s.lo[j])));
  }

  explicit CodeSetPred(const IntervalSet& s)
      : set(s),
        lo0(s.size > 0 ? Lo(s, 0) : _mm256_setzero_si256()),
        span0(s.size > 0 ? Span(s, 0) : _mm256_setzero_si256()) {}

  static __m256i InInterval(__m256i v, __m256i lo, __m256i span) {
    // (v - lo) <=u span  <=>  min_epu32(v - lo, span) == v - lo.
    const __m256i shifted = _mm256_sub_epi32(v, lo);
    return _mm256_cmpeq_epi32(_mm256_min_epu32(shifted, span), shifted);
  }

  unsigned operator()(__m256i v) const {
    __m256i m = set.match_null
                    ? _mm256_cmpgt_epi32(_mm256_setzero_si256(), v)
                    : _mm256_setzero_si256();
    if (set.size > 0) m = _mm256_or_si256(m, InInterval(v, lo0, span0));
    for (size_t j = 1; j < set.size; ++j) {
      m = _mm256_or_si256(m, InInterval(v, Lo(set, j), Span(set, j)));
    }
    return MaskI32(m);
  }

  bool operator()(int32_t c) const {
    return c < 0 ? set.match_null : InSet(c, set);
  }
};

// 4-bit lane mask of the int64 values in `v` that lie in any interval of
// the set, validity aside. A lane is outside [lo, hi] iff lo > v or v > hi
// (signed compares, so INT64_MIN / INT64_MAX bounds need no special case).
// Held by value with the first interval hoisted, as CodeSetPred.
struct Int64SetPred {
  IntervalSet set;
  __m256i lo0;
  __m256i hi0;

  explicit Int64SetPred(const IntervalSet& s)
      : set(s),
        lo0(_mm256_set1_epi64x(s.size > 0 ? s.lo[0] : 0)),
        hi0(_mm256_set1_epi64x(s.size > 0 ? s.hi[0] : 0)) {}

  static __m256i Outside(__m256i v, __m256i lo, __m256i hi) {
    return _mm256_or_si256(_mm256_cmpgt_epi64(lo, v),
                           _mm256_cmpgt_epi64(v, hi));
  }

  unsigned operator()(__m256i v) const {
    if (set.size == 0) return 0;
    __m256i outside = Outside(v, lo0, hi0);
    for (size_t j = 1; j < set.size; ++j) {
      outside = _mm256_and_si256(
          outside, Outside(v, _mm256_set1_epi64x(set.lo[j]),
                           _mm256_set1_epi64x(set.hi[j])));
    }
    return ~static_cast<unsigned>(
               _mm256_movemask_pd(_mm256_castsi256_pd(outside))) &
           0xFu;
  }
};

// Lane bits of four consecutive validity bytes that are non-zero.
inline unsigned ValidBits(const uint8_t* validity) {
  int32_t word;
  std::memcpy(&word, validity, sizeof(word));
  const __m128i nulls =
      _mm_cmpeq_epi8(_mm_cvtsi32_si128(word), _mm_setzero_si128());
  return ~static_cast<unsigned>(_mm_movemask_epi8(nulls)) & 0xFu;
}

// Lane bits of the validity bytes of four selected rows that are non-zero.
inline unsigned ValidBits(const uint8_t* validity, const uint32_t* rows) {
  unsigned valid = 0;
  for (unsigned b = 0; b < 4; ++b) {
    valid |= static_cast<unsigned>(validity[rows[b]] != 0) << b;
  }
  return valid;
}

// Folds validity into a lane mask: a NULL lane matches iff the set matches
// NULL, whatever its (meaningless) stored value.
inline unsigned ApplyValidity(unsigned mask, unsigned valid,
                              bool match_null) {
  return (mask & valid) | (match_null ? ~valid & 0xFu : 0u);
}

}  // namespace

size_t FilterCodes(const int32_t* codes, size_t n, const IntervalSet& set,
                   uint32_t* out) {
  const CodeSetPred pred(set);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    const unsigned mask = pred(v);
    if (mask != 0) {
      const __m256i idx =
          _mm256_add_epi32(lane, _mm256_set1_epi32(static_cast<int>(i)));
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kCompressLut.perm[mask]));
      // Unconditional 8-lane store: k <= i here, so out[k..k+7] stays
      // inside the n-entry out buffer; the next store overwrites the
      // lanes beyond popcount(mask).
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                          _mm256_permutevar8x32_epi32(idx, perm));
      k += static_cast<size_t>(__builtin_popcount(mask));
    }
  }
  for (; i < n; ++i) {
    if (pred(codes[i])) out[k++] = static_cast<uint32_t>(i);
  }
  return k;
}

size_t RefineCodes(const int32_t* codes, uint32_t* sel, size_t k,
                   const IntervalSet& set) {
  const CodeSetPred pred(set);
  size_t m = 0;
  size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const __m256i rows =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    const __m256i v = _mm256_i32gather_epi32(codes, rows, 4);
    const unsigned mask = pred(v);
    if (mask != 0) {
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kCompressLut.perm[mask]));
      // In-place left-pack: m <= i, and sel[i..i+7] is already in `rows`,
      // so the 8-lane store at sel[m..m+7] never clobbers unread input.
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + m),
                          _mm256_permutevar8x32_epi32(rows, perm));
      m += static_cast<size_t>(__builtin_popcount(mask));
    }
  }
  for (; i < k; ++i) {
    const uint32_t row = sel[i];
    if (pred(codes[row])) sel[m++] = row;
  }
  return m;
}

size_t FilterInt64(const int64_t* vals, const uint8_t* validity, size_t n,
                   const IntervalSet& set, uint32_t* out) {
  const Int64SetPred pred(set);
  size_t k = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    unsigned mask = pred(v);
    if (validity != nullptr) {
      mask = ApplyValidity(mask, ValidBits(validity + i), set.match_null);
    }
    // Left-pack the matching offsets with the first four lanes of the
    // compress LUT; unconditional 4-lane store as in FilterCodes (k <= i).
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k),
                     _mm_add_epi32(Perm4(mask),
                                   _mm_set1_epi32(static_cast<int>(i))));
    k += static_cast<size_t>(__builtin_popcount(mask));
  }
  for (; i < n; ++i) {
    const bool hit = validity != nullptr && validity[i] == 0
                         ? set.match_null
                         : InSet(vals[i], set);
    if (hit) out[k++] = static_cast<uint32_t>(i);
  }
  return k;
}

size_t RefineInt64(const int64_t* vals, const uint8_t* validity,
                   uint32_t* sel, size_t k, const IntervalSet& set) {
  const Int64SetPred pred(set);
  size_t m = 0;
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m128i rows =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    const __m256i v = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(vals), rows, 8);
    unsigned mask = pred(v);
    if (validity != nullptr) {
      mask = ApplyValidity(mask, ValidBits(validity, sel + i),
                           set.match_null);
    }
    // In-place left-pack as in RefineCodes: m <= i, and sel[i..i+3] is
    // already in `rows`.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + m),
                     _mm_castps_si128(_mm_permutevar_ps(
                         _mm_castsi128_ps(rows), Perm4(mask))));
    m += static_cast<size_t>(__builtin_popcount(mask));
  }
  for (; i < k; ++i) {
    const uint32_t row = sel[i];
    const bool hit = validity != nullptr && validity[row] == 0
                         ? set.match_null
                         : InSet(vals[row], set);
    if (hit) sel[m++] = row;
  }
  return m;
}

void GatherInt32(const int32_t* src, const uint32_t* sel, size_t k,
                 int32_t* dst) {
  size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const __m256i rows =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_i32gather_epi32(src, rows, 4));
  }
  for (; i < k; ++i) dst[i] = src[sel[i]];
}

void GatherInt64(const int64_t* src, const uint32_t* sel, size_t k,
                 int64_t* dst) {
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m128i rows =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_i32gather_epi64(reinterpret_cast<const long long*>(src), rows,
                               8));
  }
  for (; i < k; ++i) dst[i] = src[sel[i]];
}

void GatherDouble(const double* src, const uint32_t* sel, size_t k,
                  double* dst) {
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m128i rows =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    // Bit-copy gather through the epi64 form: GCC 12's _mm256_i32gather_pd
    // trips a -Wmaybe-uninitialized false positive on its undefined source.
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_i32gather_epi64(reinterpret_cast<const long long*>(src), rows,
                               8));
  }
  for (; i < k; ++i) dst[i] = src[sel[i]];
}

}  // namespace avx2
}  // namespace kernels
}  // namespace vdm

#endif  // VDM_KERNELS_HAVE_AVX2
