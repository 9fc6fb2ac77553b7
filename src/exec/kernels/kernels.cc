#include "exec/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace vdm {
namespace kernels {

namespace {

std::atomic<int> g_simd_override{-1};

bool EnvAllowsSimd() {
  static const bool allowed = [] {
    const char* e = std::getenv("VDM_SIMD");
    return e == nullptr || *e == '\0' || std::strcmp(e, "0") != 0;
  }();
  return allowed;
}

bool CpuHasAvx2() {
#if VDM_KERNELS_HAVE_AVX2
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

// The row test of one interval set. v in [lo, hi] iff v - lo <= hi - lo
// in modular uint64 arithmetic: one compare, defined over the whole int64
// range (no signed overflow at the domain ends), and a negative NULL code
// never fits a code interval. The first interval is held in members and
// tested without a branch, as most lowered predicates have exactly one;
// the rows' verdicts are combined with `&` / `|` for the same reason.
class SetTest {
 public:
  explicit SetTest(const IntervalSet& set)
      : set_(set),
        lo0_(set.size > 0 ? static_cast<uint64_t>(set.lo[0]) : 0),
        span0_(set.size > 0 ? static_cast<uint64_t>(set.hi[0]) - lo0_ : 0) {}

  bool Contains(int64_t v) const {
    const uint64_t u = static_cast<uint64_t>(v);
    bool hit = (set_.size > 0) & (u - lo0_ <= span0_);
    for (size_t j = 1; j < set_.size; ++j) {
      const uint64_t lo = static_cast<uint64_t>(set_.lo[j]);
      hit |= u - lo <= static_cast<uint64_t>(set_.hi[j]) - lo;
    }
    return hit;
  }

  bool MatchesCode(int32_t c) const {
    return Contains(c) | (set_.match_null & (c < 0));
  }

  // A NULL row matches iff the set matches NULL, whatever its stored value.
  bool MatchesValue(const int64_t* vals, const uint8_t* validity,
                    size_t i) const {
    const bool valid = validity == nullptr || validity[i] != 0;
    return (valid & Contains(vals[i])) | (!valid & set_.match_null);
  }

 private:
  IntervalSet set_;
  uint64_t lo0_;
  uint64_t span0_;
};

}  // namespace

bool SimdCompiled() {
#if VDM_KERNELS_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool SimdEnabled() {
  const int o = g_simd_override.load(std::memory_order_relaxed);
  if (o == 0) return false;
  if (!SimdCompiled() || !CpuHasAvx2()) return false;
  return o == 1 || EnvAllowsSimd();
}

void SetSimdOverride(int force) {
  g_simd_override.store(force, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Scalar reference implementations.
// ---------------------------------------------------------------------------
namespace scalar {

size_t FilterCodes(const int32_t* codes, size_t n, const IntervalSet& set,
                   uint32_t* out) {
  const SetTest test(set);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    // Branch-free append: out has room for n entries and k <= i.
    out[k] = static_cast<uint32_t>(i);
    k += test.MatchesCode(codes[i]) ? 1 : 0;
  }
  return k;
}

size_t FilterInt64(const int64_t* vals, const uint8_t* validity, size_t n,
                   const IntervalSet& set, uint32_t* out) {
  const SetTest test(set);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    out[k] = static_cast<uint32_t>(i);
    k += test.MatchesValue(vals, validity, i) ? 1 : 0;
  }
  return k;
}

size_t RefineCodes(const int32_t* codes, uint32_t* sel, size_t k,
                   const IntervalSet& set) {
  const SetTest test(set);
  size_t m = 0;
  for (size_t i = 0; i < k; ++i) {
    // Branch-free in-place compaction: m <= i, and sel[i] is already read.
    const uint32_t row = sel[i];
    sel[m] = row;
    m += test.MatchesCode(codes[row]) ? 1 : 0;
  }
  return m;
}

size_t RefineInt64(const int64_t* vals, const uint8_t* validity,
                   uint32_t* sel, size_t k, const IntervalSet& set) {
  const SetTest test(set);
  size_t m = 0;
  for (size_t i = 0; i < k; ++i) {
    const uint32_t row = sel[i];
    sel[m] = row;
    m += test.MatchesValue(vals, validity, row) ? 1 : 0;
  }
  return m;
}

void GatherInt32(const int32_t* src, const uint32_t* sel, size_t k,
                 int32_t* dst) {
  for (size_t i = 0; i < k; ++i) dst[i] = src[sel[i]];
}

void GatherInt64(const int64_t* src, const uint32_t* sel, size_t k,
                 int64_t* dst) {
  for (size_t i = 0; i < k; ++i) dst[i] = src[sel[i]];
}

void GatherDouble(const double* src, const uint32_t* sel, size_t k,
                  double* dst) {
  for (size_t i = 0; i < k; ++i) dst[i] = src[sel[i]];
}

void GatherBytes(const uint8_t* src, const uint32_t* sel, size_t k,
                 uint8_t* dst) {
  for (size_t i = 0; i < k; ++i) dst[i] = src[sel[i]];
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatching entry points.
// ---------------------------------------------------------------------------
#if VDM_KERNELS_HAVE_AVX2
#define VDM_DISPATCH(fn, ...) \
  return SimdEnabled() ? avx2::fn(__VA_ARGS__) : scalar::fn(__VA_ARGS__)
#define VDM_DISPATCH_VOID(fn, ...)        \
  do {                                    \
    if (SimdEnabled()) {                  \
      avx2::fn(__VA_ARGS__);              \
    } else {                              \
      scalar::fn(__VA_ARGS__);            \
    }                                     \
  } while (0)
#else
#define VDM_DISPATCH(fn, ...) return scalar::fn(__VA_ARGS__)
#define VDM_DISPATCH_VOID(fn, ...) scalar::fn(__VA_ARGS__)
#endif

size_t FilterCodes(const int32_t* codes, size_t n, const IntervalSet& set,
                   uint32_t* out) {
  VDM_DISPATCH(FilterCodes, codes, n, set, out);
}

size_t FilterInt64(const int64_t* vals, const uint8_t* validity, size_t n,
                   const IntervalSet& set, uint32_t* out) {
  VDM_DISPATCH(FilterInt64, vals, validity, n, set, out);
}

size_t RefineCodes(const int32_t* codes, uint32_t* sel, size_t k,
                   const IntervalSet& set) {
  VDM_DISPATCH(RefineCodes, codes, sel, k, set);
}

size_t RefineInt64(const int64_t* vals, const uint8_t* validity,
                   uint32_t* sel, size_t k, const IntervalSet& set) {
  VDM_DISPATCH(RefineInt64, vals, validity, sel, k, set);
}

void GatherInt32(const int32_t* src, const uint32_t* sel, size_t k,
                 int32_t* dst) {
  VDM_DISPATCH_VOID(GatherInt32, src, sel, k, dst);
}

void GatherInt64(const int64_t* src, const uint32_t* sel, size_t k,
                 int64_t* dst) {
  VDM_DISPATCH_VOID(GatherInt64, src, sel, k, dst);
}

void GatherDouble(const double* src, const uint32_t* sel, size_t k,
                  double* dst) {
  VDM_DISPATCH_VOID(GatherDouble, src, sel, k, dst);
}

void GatherBytes(const uint8_t* src, const uint32_t* sel, size_t k,
                 uint8_t* dst) {
  // Byte gathers have no AVX2 twin; the scalar loop is already load-bound.
  scalar::GatherBytes(src, sel, k, dst);
}

#undef VDM_DISPATCH
#undef VDM_DISPATCH_VOID

}  // namespace kernels
}  // namespace vdm
