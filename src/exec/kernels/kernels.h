// Vectorized filter / gather kernels over dictionary codes and fixed-width
// values (DESIGN.md §13). These are the leaves of the compressed execution
// path: the executor lowers every scan predicate it can to one form, an
// interval set (sorted dictionary codes for string columns, raw int64
// values for integer-backed ones), then runs these kernels on the raw
// fragment arrays before any value is materialized.
//
// There are eight dispatching entry points: FilterCodes / RefineCodes and
// FilterInt64 / RefineInt64 over an IntervalSet, and four typed gathers.
// Every one has a scalar reference implementation in `scalar::` and, when
// compiled with VDMQO_SIMD (the default on x86-64), an AVX2 twin selected
// by runtime CPU dispatch (GatherBytes excepted: its scalar loop is
// already load-bound). The public entry points dispatch per call; the
// `VDM_SIMD=0` environment knob and SetSimdOverride() force the scalar
// path so results can be compared byte-for-byte (tests/kernel_test.cc does
// this on randomized inputs).
//
// Conventions shared by all kernels:
//   * `codes` are int32 dictionary codes where negative means NULL (the
//     executor bit-casts MainColumn's uint32 kNullCode to -1; see table.h).
//   * int64 `validity` holds one byte per value, 0 = NULL; nullptr means
//     every value is valid.
//   * Filter kernels append matching row offsets (relative to the input
//     pointer) to `out`, which must have room for `n` entries, and return
//     the match count. Output offsets are strictly increasing; entries
//     past the returned count are scratch.
//   * Refine kernels compact a selection vector in place and return the
//     surviving count; `sel` entries must be strictly increasing row
//     offsets into the input array, and those past the returned count are
//     scratch afterwards.
#ifndef VDMQO_EXEC_KERNELS_KERNELS_H_
#define VDMQO_EXEC_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#if defined(VDMQO_SIMD) && (defined(__x86_64__) || defined(_M_X64))
#define VDM_KERNELS_HAVE_AVX2 1
#endif

namespace vdm {
namespace kernels {

// The one lowered predicate form: a value matches when it lies in any of
// the `size` inclusive intervals [lo[j], hi[j]]; a NULL matches iff
// `match_null`. Intervals may touch INT64_MIN / INT64_MAX. The executor's
// lowering keeps them sorted and disjoint; the kernels only require
// lo[j] <= hi[j]. Over dictionary codes every bound lies in
// [0, INT32_MAX].
struct IntervalSet {
  const int64_t* lo;
  const int64_t* hi;
  size_t size;
  bool match_null;
};

// ---------------------------------------------------------------------------
// Dispatch control.
// ---------------------------------------------------------------------------

// True when the AVX2 kernels were compiled into this binary (VDMQO_SIMD).
bool SimdCompiled();
// True when dispatch currently resolves to the AVX2 kernels: compiled in,
// CPU supports AVX2, VDM_SIMD env not "0", and no scalar override in force.
bool SimdEnabled();
// Test/bench hook: -1 = automatic (default), 0 = force scalar, 1 = force
// SIMD when available. Takes effect on the next kernel call.
void SetSimdOverride(int force);

// ---------------------------------------------------------------------------
// Dispatching entry points.
// ---------------------------------------------------------------------------

// Dense filters: scan [0, n), append the offsets of matching rows to out.
size_t FilterCodes(const int32_t* codes, size_t n, const IntervalSet& set,
                   uint32_t* out);
size_t FilterInt64(const int64_t* vals, const uint8_t* validity, size_t n,
                   const IntervalSet& set, uint32_t* out);

// Selection refinement: compact sel[0..k) in place, return survivors.
size_t RefineCodes(const int32_t* codes, uint32_t* sel, size_t k,
                   const IntervalSet& set);
size_t RefineInt64(const int64_t* vals, const uint8_t* validity,
                   uint32_t* sel, size_t k, const IntervalSet& set);

// Typed gathers: dst[i] = src[sel[i]] for i in [0, k).
void GatherInt32(const int32_t* src, const uint32_t* sel, size_t k,
                 int32_t* dst);
void GatherInt64(const int64_t* src, const uint32_t* sel, size_t k,
                 int64_t* dst);
void GatherDouble(const double* src, const uint32_t* sel, size_t k,
                  double* dst);
void GatherBytes(const uint8_t* src, const uint32_t* sel, size_t k,
                 uint8_t* dst);

// ---------------------------------------------------------------------------
// Scalar reference implementations. Public so the differential tests and
// the microbenchmark can pin the baseline regardless of dispatch state.
// ---------------------------------------------------------------------------
namespace scalar {
size_t FilterCodes(const int32_t* codes, size_t n, const IntervalSet& set,
                   uint32_t* out);
size_t FilterInt64(const int64_t* vals, const uint8_t* validity, size_t n,
                   const IntervalSet& set, uint32_t* out);
size_t RefineCodes(const int32_t* codes, uint32_t* sel, size_t k,
                   const IntervalSet& set);
size_t RefineInt64(const int64_t* vals, const uint8_t* validity,
                   uint32_t* sel, size_t k, const IntervalSet& set);
void GatherInt32(const int32_t* src, const uint32_t* sel, size_t k,
                 int32_t* dst);
void GatherInt64(const int64_t* src, const uint32_t* sel, size_t k,
                 int64_t* dst);
void GatherDouble(const double* src, const uint32_t* sel, size_t k,
                  double* dst);
void GatherBytes(const uint8_t* src, const uint32_t* sel, size_t k,
                 uint8_t* dst);
}  // namespace scalar

#if VDM_KERNELS_HAVE_AVX2
// AVX2 implementations, compiled in a separate translation unit with
// __attribute__((target("avx2"))). Callable only when the host CPU has
// AVX2 — use the dispatching entry points above unless benchmarking.
namespace avx2 {
size_t FilterCodes(const int32_t* codes, size_t n, const IntervalSet& set,
                   uint32_t* out);
size_t FilterInt64(const int64_t* vals, const uint8_t* validity, size_t n,
                   const IntervalSet& set, uint32_t* out);
size_t RefineCodes(const int32_t* codes, uint32_t* sel, size_t k,
                   const IntervalSet& set);
size_t RefineInt64(const int64_t* vals, const uint8_t* validity,
                   uint32_t* sel, size_t k, const IntervalSet& set);
void GatherInt32(const int32_t* src, const uint32_t* sel, size_t k,
                 int32_t* dst);
void GatherInt64(const int64_t* src, const uint32_t* sel, size_t k,
                 int64_t* dst);
void GatherDouble(const double* src, const uint32_t* sel, size_t k,
                  double* dst);
}  // namespace avx2
#endif  // VDM_KERNELS_HAVE_AVX2

}  // namespace kernels
}  // namespace vdm

#endif  // VDMQO_EXEC_KERNELS_KERNELS_H_
