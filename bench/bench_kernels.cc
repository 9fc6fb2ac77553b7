// K1 — Compressed-execution kernel microbenchmark (DESIGN.md §13).
//
// Measures the interval-set filter / refine kernels (over dictionary codes
// and int64 values) and the gathers in isolation, SIMD dispatch vs the
// scalar reference, on arrays sized to the main-fragment scans the
// executor actually issues. Emits BENCH_kernels.json with rows/sec per
// kernel and the simd/scalar speedup so regressions in either path are
// visible across commits.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "exec/kernels/kernels.h"

using namespace vdm;
using bench::JsonReporter;
using bench::MedianMillis;
using bench::TablePrinter;

namespace {

constexpr size_t kRows = 1u << 22;  // 4M values: larger than L2, like a scan
constexpr int32_t kDictSize = 1000;

struct Fixture {
  std::vector<int32_t> codes;      // ~2% NULL (-1), rest uniform [0, dict)
  std::vector<int64_t> vals;       // uniform int64 payloads
  std::vector<uint8_t> validity;   // ~2% invalid
  std::vector<uint32_t> sel_half;  // every other row, for refine/gather
  std::vector<uint32_t> out;       // filter output buffer
  std::vector<uint32_t> scratch;   // refine working copy
  std::vector<int64_t> gathered;

  Fixture() {
    std::mt19937 rng(7);
    std::uniform_int_distribution<int32_t> code(0, kDictSize - 1);
    std::uniform_int_distribution<int64_t> val(0, 1'000'000);
    std::uniform_int_distribution<int32_t> pct(0, 99);
    codes.resize(kRows);
    vals.resize(kRows);
    validity.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      bool null = pct(rng) < 2;
      codes[i] = null ? -1 : code(rng);
      vals[i] = val(rng);
      validity[i] = null ? 0 : 1;
    }
    sel_half.reserve(kRows / 2);
    for (uint32_t i = 0; i < kRows; i += 2) sel_half.push_back(i);
    out.resize(kRows);
    scratch.resize(kRows);
    gathered.resize(kRows);
  }
};

struct KernelCase {
  const char* name;
  size_t rows;  // rows processed per run (denominator for rows/s)
  std::function<void()> run;
};

}  // namespace

int main() {
  Fixture fx;
  std::printf("== Kernel microbenchmark: %zu rows, dict size %d ==\n", kRows,
              kDictSize);
  std::printf("simd compiled: %s, dispatch enabled: %s\n\n",
              kernels::SimdCompiled() ? "yes" : "no",
              kernels::SimdEnabled() ? "yes" : "no");

  // Every filter is an interval set (kernels.h). Selectivities: eq ~0.1%
  // (one code), range ~30%, set ~15% (three code intervals), null ~2%,
  // int64 ~50%.
  auto set_of = [](const std::vector<int64_t>& lo,
                   const std::vector<int64_t>& hi, bool match_null) {
    return kernels::IntervalSet{lo.data(), hi.data(), lo.size(), match_null};
  };
  const std::vector<int64_t> eq_lo{17}, eq_hi{17};
  const std::vector<int64_t> range_lo{100}, range_hi{399};
  const std::vector<int64_t> set_lo{10, 400, 800}, set_hi{59, 449, 849};
  const std::vector<int64_t> none;
  const std::vector<int64_t> lt_lo{std::numeric_limits<int64_t>::min()},
      lt_hi{499'999};
  const std::vector<int64_t> ge_lo{500'000},
      ge_hi{std::numeric_limits<int64_t>::max()};
  const kernels::IntervalSet eq = set_of(eq_lo, eq_hi, false);
  const kernels::IntervalSet range = set_of(range_lo, range_hi, false);
  const kernels::IntervalSet set = set_of(set_lo, set_hi, false);
  const kernels::IntervalSet is_null = set_of(none, none, true);
  const kernels::IntervalSet lt = set_of(lt_lo, lt_hi, false);
  const kernels::IntervalSet ge = set_of(ge_lo, ge_hi, false);

  std::vector<KernelCase> cases;
  cases.push_back({"filter_codes_eq", kRows, [&] {
                     kernels::FilterCodes(fx.codes.data(), kRows, eq,
                                          fx.out.data());
                   }});
  cases.push_back({"filter_codes_range", kRows, [&] {
                     kernels::FilterCodes(fx.codes.data(), kRows, range,
                                          fx.out.data());
                   }});
  cases.push_back({"filter_codes_set", kRows, [&] {
                     kernels::FilterCodes(fx.codes.data(), kRows, set,
                                          fx.out.data());
                   }});
  cases.push_back({"filter_codes_null", kRows, [&] {
                     kernels::FilterCodes(fx.codes.data(), kRows, is_null,
                                          fx.out.data());
                   }});
  cases.push_back({"filter_int64_lt", kRows, [&] {
                     kernels::FilterInt64(fx.vals.data(), fx.validity.data(),
                                          kRows, lt, fx.out.data());
                   }});
  cases.push_back({"refine_codes_range", fx.sel_half.size(), [&] {
                     std::copy(fx.sel_half.begin(), fx.sel_half.end(),
                               fx.scratch.begin());
                     kernels::RefineCodes(fx.codes.data(), fx.scratch.data(),
                                          fx.sel_half.size(), range);
                   }});
  cases.push_back({"refine_int64_ge", fx.sel_half.size(), [&] {
                     std::copy(fx.sel_half.begin(), fx.sel_half.end(),
                               fx.scratch.begin());
                     kernels::RefineInt64(fx.vals.data(), fx.validity.data(),
                                          fx.scratch.data(),
                                          fx.sel_half.size(), ge);
                   }});
  cases.push_back({"gather_int64", fx.sel_half.size(), [&] {
                     kernels::GatherInt64(fx.vals.data(), fx.sel_half.data(),
                                          fx.sel_half.size(),
                                          fx.gathered.data());
                   }});

  TablePrinter table({"kernel", "scalar Mrows/s", "simd Mrows/s", "speedup"});
  JsonReporter json("kernels");
  for (const KernelCase& c : cases) {
    kernels::SetSimdOverride(0);
    double scalar_ms = MedianMillis(c.run, /*runs=*/9);
    kernels::SetSimdOverride(kernels::SimdCompiled() ? 1 : 0);
    double simd_ms = MedianMillis(c.run, /*runs=*/9);
    kernels::SetSimdOverride(-1);
    auto mrows = [&](double ms) {
      return static_cast<double>(c.rows) / (ms * 1e3);
    };
    char scalar_buf[32], simd_buf[32], speed_buf[32];
    std::snprintf(scalar_buf, sizeof(scalar_buf), "%.0f", mrows(scalar_ms));
    std::snprintf(simd_buf, sizeof(simd_buf), "%.0f", mrows(simd_ms));
    std::snprintf(speed_buf, sizeof(speed_buf), "%.2fx",
                  scalar_ms / simd_ms);
    table.AddRow({c.name, scalar_buf, simd_buf, speed_buf});
    json.Add(std::string(c.name) + "_scalar", scalar_ms, c.rows);
    json.Add(std::string(c.name) + "_simd", simd_ms, c.rows);
  }
  table.Print();
  json.Write();
  return 0;
}
