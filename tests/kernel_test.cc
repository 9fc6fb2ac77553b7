// Differential tests for the compressed-execution kernels: every
// dispatching entry point must agree with its scalar reference on
// randomized inputs — interval sets of 0, 1, 2 and many intervals, with
// and without match_null, intervals touching INT64_MIN / INT64_MAX, NULL
// codes and validity bytes (or none), all-match / none-match columns,
// varying selection densities, morsel-boundary tails (length % lanes !=
// 0), and unaligned starting offsets. When the AVX2 kernels are compiled
// in and the CPU supports them, the SIMD override pins dispatch to SIMD so
// the comparison is real; otherwise the test degenerates to
// scalar-vs-scalar and still checks the harness.
#include "exec/kernels/kernels.h"

#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "types/column.h"

namespace vdm {
namespace kernels {
namespace {

class SimdOverrideGuard {
 public:
  explicit SimdOverrideGuard(int force) { SetSimdOverride(force); }
  ~SimdOverrideGuard() { SetSimdOverride(-1); }
};

/// Random codes in [-1, max_code]; null_permille rows get -1 (NULL).
std::vector<int32_t> RandomCodes(std::mt19937& rng, size_t n,
                                 int32_t max_code, int null_permille) {
  std::uniform_int_distribution<int32_t> code(0, max_code);
  std::uniform_int_distribution<int> permille(0, 999);
  std::vector<int32_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = permille(rng) < null_permille ? -1 : code(rng);
  }
  return out;
}

std::vector<int64_t> RandomInts(std::mt19937& rng, size_t n, int64_t lo,
                                int64_t hi) {
  std::uniform_int_distribution<int64_t> val(lo, hi);
  std::vector<int64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = val(rng);
  return out;
}

std::vector<uint8_t> RandomValidity(std::mt19937& rng, size_t n,
                                    int null_permille) {
  std::uniform_int_distribution<int> permille(0, 999);
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = permille(rng) < null_permille ? 0 : 1;
  }
  return out;
}

/// Strictly increasing selection keeping each row with probability
/// density/1000 — the refine kernels' input shape.
SelectionVector RandomSelection(std::mt19937& rng, size_t n, int density) {
  std::uniform_int_distribution<int> permille(0, 999);
  SelectionVector sel;
  for (size_t i = 0; i < n; ++i) {
    if (permille(rng) < density) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

// Lengths crossing every 8-lane (codes) and 4-lane (int64) boundary
// shape, plus short inputs that never reach a full vector.
const size_t kLengths[] = {0, 1, 3, 7, 8, 9, 15, 16, 31, 33, 100, 1021, 4096};
// Unaligned starts: kernels must work from any base pointer.
const size_t kOffsets[] = {0, 1, 3, 5};

template <typename DispatchFn, typename ScalarFn>
void CheckFilter(const DispatchFn& dispatch, const ScalarFn& scalar,
                 size_t n) {
  std::vector<uint32_t> got(n + 1, 0xABABABABu), want(n + 1, 0xABABABABu);
  size_t kg = dispatch(got.data());
  size_t kw = scalar(want.data());
  ASSERT_EQ(kg, kw);
  for (size_t i = 0; i < kg; ++i) ASSERT_EQ(got[i], want[i]) << "i=" << i;
}

TEST(KernelDispatchTest, OverrideForcesScalar) {
  SimdOverrideGuard guard(0);
  EXPECT_FALSE(SimdEnabled());
}

TEST(KernelDispatchTest, CompiledImpliesConsistentDispatch) {
  // With the override at automatic, SimdEnabled() may be either value,
  // but it must be stable across calls.
  bool a = SimdEnabled();
  bool b = SimdEnabled();
  EXPECT_EQ(a, b);
}

using Intervals = std::vector<std::pair<int64_t, int64_t>>;

/// An IntervalSet over owned bounds.
class SetFixture {
 public:
  SetFixture(const Intervals& ivs, bool match_null) {
    for (const auto& [l, h] : ivs) {
      lo_.push_back(l);
      hi_.push_back(h);
    }
    set_ = {lo_.data(), hi_.data(), lo_.size(), match_null};
  }
  const IntervalSet& set() const { return set_; }

 private:
  std::vector<int64_t> lo_, hi_;
  IntervalSet set_;
};

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Code interval shapes over codes drawn from [0, 20]: none, one code, one
// range, every code but one (the `<>` shape), many, all codes, and spans
// reaching past the dictionary up to INT32_MAX.
const Intervals kCodeShapes[] = {
    {},
    {{5, 5}},
    {{3, 9}},
    {{0, 4}, {6, 20}},
    {{0, 3}, {7, 9}, {15, 20}},
    {{2, 4}, {6, 6}, {10, 14}, {18, 19}, {21, 30}},
    {{0, 20}},
    {{19, 25}},
    {{12, std::numeric_limits<int32_t>::max()}},
    {{0, std::numeric_limits<int32_t>::max()}},
};

// int64 interval shapes, values drawn from [-10, 10] plus the extremes:
// none, one value, one range, the `<>` shape, many, the whole domain, and
// intervals touching INT64_MIN / INT64_MAX.
const Intervals kInt64Shapes[] = {
    {},
    {{2, 2}},
    {{-3, 7}},
    {{kMin, 1}, {3, kMax}},
    {{-9, -7}, {-2, 0}, {4, 4}, {8, 10}},
    {{kMin, kMax}},
    {{kMin, kMin}},
    {{kMax, kMax}},
    {{kMin, -5}},
    {{5, kMax}},
    {{kMin, kMin + 1}, {kMax - 1, kMax}},
};

/// Values in [-10, 10] with ~1 in 8 drawn from the int64 extremes.
std::vector<int64_t> RandomInt64s(std::mt19937& rng, size_t n) {
  const int64_t extremes[] = {kMin, kMin + 1, kMax - 1, kMax};
  std::vector<int64_t> out = RandomInts(rng, n, -10, 10);
  std::uniform_int_distribution<int> pick(0, 31);
  for (int64_t& v : out) {
    const int p = pick(rng);
    if (p < 4) v = extremes[p];
  }
  return out;
}

TEST(KernelFilterTest, CodesRandomized) {
  SimdOverrideGuard guard(1);
  std::mt19937 rng(7);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      for (int null_pm : {0, 200, 1000}) {
        std::vector<int32_t> codes = RandomCodes(rng, n + off, 20, null_pm);
        const int32_t* base = codes.data() + off;
        for (const Intervals& ivs : kCodeShapes) {
          for (bool match_null : {false, true}) {
            const SetFixture fx(ivs, match_null);
            CheckFilter(
                [&](uint32_t* out) {
                  return FilterCodes(base, n, fx.set(), out);
                },
                [&](uint32_t* out) {
                  return scalar::FilterCodes(base, n, fx.set(), out);
                },
                n);
          }
        }
      }
    }
  }
}

TEST(KernelFilterTest, Int64Randomized) {
  SimdOverrideGuard guard(1);
  std::mt19937 rng(17);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      std::vector<int64_t> vals = RandomInt64s(rng, n + off);
      std::vector<uint8_t> validity = RandomValidity(rng, n + off, 150);
      const int64_t* base = vals.data() + off;
      for (const uint8_t* v :
           {static_cast<const uint8_t*>(nullptr),
            static_cast<const uint8_t*>(validity.data() + off)}) {
        for (const Intervals& ivs : kInt64Shapes) {
          for (bool match_null : {false, true}) {
            const SetFixture fx(ivs, match_null);
            CheckFilter(
                [&](uint32_t* out) {
                  return FilterInt64(base, v, n, fx.set(), out);
                },
                [&](uint32_t* out) {
                  return scalar::FilterInt64(base, v, n, fx.set(), out);
                },
                n);
          }
        }
      }
    }
  }
}

TEST(KernelFilterTest, ScalarReferenceSemantics) {
  // The reference itself, on hand-checked rows: NULL codes and invalid
  // values match only through match_null, and intervals at the int64 ends
  // include exactly their bounds.
  const int32_t codes[] = {-1, 0, 5, 6, 20};
  const SetFixture five({{5, 5}}, false);
  const SetFixture five_or_null({{5, 5}}, true);
  std::vector<uint32_t> out(8);
  ASSERT_EQ(scalar::FilterCodes(codes, 5, five.set(), out.data()), 1u);
  EXPECT_EQ(out[0], 2u);
  ASSERT_EQ(scalar::FilterCodes(codes, 5, five_or_null.set(), out.data()),
            2u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 2u);

  const int64_t vals[] = {kMin, kMin + 1, 0, kMax - 1, kMax};
  const uint8_t valid[] = {1, 1, 0, 1, 1};
  const SetFixture ends({{kMin, kMin}, {kMax, kMax}}, false);
  ASSERT_EQ(scalar::FilterInt64(vals, nullptr, 5, ends.set(), out.data()),
            2u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 4u);
  const SetFixture all_or_null({{kMin, kMax}}, true);
  const SetFixture all({{kMin, kMax}}, false);
  EXPECT_EQ(
      scalar::FilterInt64(vals, valid, 5, all_or_null.set(), out.data()), 5u);
  EXPECT_EQ(scalar::FilterInt64(vals, valid, 5, all.set(), out.data()), 4u);
  const SetFixture null_only({}, true);
  ASSERT_EQ(scalar::FilterInt64(vals, valid, 5, null_only.set(), out.data()),
            1u);
  EXPECT_EQ(out[0], 2u);
}

/// Refines a random selection of each density with the dispatching and
/// the scalar kernel and asserts identical survivors.
template <typename RefineFn, typename ScalarFn>
void CheckRefine(std::mt19937& rng, size_t n, const RefineFn& refine,
                 const ScalarFn& ref) {
  for (int density : {0, 50, 500, 1000}) {
    SelectionVector sel = RandomSelection(rng, n, density);
    SelectionVector got = sel, want = sel;
    size_t kg = refine(got.empty() ? nullptr : got.data(), got.size());
    size_t kw = ref(want.empty() ? nullptr : want.data(), want.size());
    ASSERT_EQ(kg, kw) << "density " << density;
    for (size_t i = 0; i < kg; ++i) ASSERT_EQ(got[i], want[i]);
  }
}

TEST(KernelRefineTest, CodesRandomizedDensities) {
  SimdOverrideGuard guard(1);
  std::mt19937 rng(29);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      std::vector<int32_t> codes = RandomCodes(rng, n + off, 20, 150);
      const int32_t* base = codes.data() + off;
      for (const Intervals& ivs : kCodeShapes) {
        for (bool match_null : {false, true}) {
          const SetFixture fx(ivs, match_null);
          CheckRefine(
              rng, n,
              [&](uint32_t* s, size_t k) {
                return RefineCodes(base, s, k, fx.set());
              },
              [&](uint32_t* s, size_t k) {
                return scalar::RefineCodes(base, s, k, fx.set());
              });
        }
      }
    }
  }
}

TEST(KernelRefineTest, Int64RandomizedDensities) {
  SimdOverrideGuard guard(1);
  std::mt19937 rng(23);
  for (size_t n : kLengths) {
    for (size_t off : kOffsets) {
      std::vector<int64_t> vals = RandomInt64s(rng, n + off);
      std::vector<uint8_t> validity = RandomValidity(rng, n + off, 150);
      const int64_t* base = vals.data() + off;
      for (const uint8_t* v :
           {static_cast<const uint8_t*>(nullptr),
            static_cast<const uint8_t*>(validity.data() + off)}) {
        for (const Intervals& ivs : kInt64Shapes) {
          for (bool match_null : {false, true}) {
            const SetFixture fx(ivs, match_null);
            CheckRefine(
                rng, n,
                [&](uint32_t* s, size_t k) {
                  return RefineInt64(base, v, s, k, fx.set());
                },
                [&](uint32_t* s, size_t k) {
                  return scalar::RefineInt64(base, v, s, k, fx.set());
                });
          }
        }
      }
    }
  }
}

TEST(KernelGatherTest, TypedGathersRandomized) {
  SimdOverrideGuard guard(1);
  std::mt19937 rng(29);
  for (size_t n : kLengths) {
    if (n == 0) continue;
    std::vector<int32_t> src32(n);
    std::vector<int64_t> src64(n);
    std::vector<double> srcd(n);
    std::vector<uint8_t> srcb(n);
    for (size_t i = 0; i < n; ++i) {
      src32[i] = static_cast<int32_t>(rng());
      src64[i] = static_cast<int64_t>(rng()) << 13;
      srcd[i] = static_cast<double>(static_cast<int32_t>(rng())) / 3.0;
      srcb[i] = static_cast<uint8_t>(rng() & 1);
    }
    for (int density : {50, 500, 1000}) {
      SelectionVector sel = RandomSelection(rng, n, density);
      size_t k = sel.size();
      std::vector<int32_t> got32(k), want32(k);
      std::vector<int64_t> got64(k), want64(k);
      std::vector<double> gotd(k), wantd(k);
      std::vector<uint8_t> gotb(k), wantb(k);
      if (k > 0) {
        GatherInt32(src32.data(), sel.data(), k, got32.data());
        scalar::GatherInt32(src32.data(), sel.data(), k, want32.data());
        GatherInt64(src64.data(), sel.data(), k, got64.data());
        scalar::GatherInt64(src64.data(), sel.data(), k, want64.data());
        GatherDouble(srcd.data(), sel.data(), k, gotd.data());
        scalar::GatherDouble(srcd.data(), sel.data(), k, wantd.data());
        GatherBytes(srcb.data(), sel.data(), k, gotb.data());
        scalar::GatherBytes(srcb.data(), sel.data(), k, wantb.data());
      }
      EXPECT_EQ(got32, want32);
      EXPECT_EQ(got64, want64);
      EXPECT_EQ(gotd, wantd);
      EXPECT_EQ(gotb, wantb);
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace vdm
