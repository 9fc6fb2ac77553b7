#include "streams.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "common/string_util.h"

namespace perfbench {

using vdm::Rng;
using vdm::StrFormat;

namespace {

/// A 64-bit hash of (seed, a, b): the random source of one stream item.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  // Two rounds of the SplitMix64 finalizer over the packed inputs.
  auto fmix = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  return fmix(fmix(seed ^ 0x9E3779B97F4A7C15ULL) ^ (a * 0xD6E8FEB86659FD93ULL)
              ^ fmix(b + 0x632BE59BD9B4E019ULL));
}

std::string Company(int64_t i) {
  return StrFormat("C%03lld", static_cast<long long>(i));
}

// `count` distinct picks from `pool` (partial Fisher-Yates).
std::vector<std::string> Pick(Rng* rng, std::vector<std::string> pool,
                              size_t count) {
  count = std::min(count, pool.size());
  for (size_t i = 0; i < count; ++i) {
    const auto j = static_cast<size_t>(
        rng->Uniform(static_cast<int64_t>(i),
                     static_cast<int64_t>(pool.size()) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

// The amount of posting k in cents, and a money literal for it.
std::string Money(int64_t cents) {
  const char* sign = cents < 0 ? "-" : "";
  const int64_t abs = cents < 0 ? -cents : cents;
  return StrFormat("%s%lld.%02lld", sign, static_cast<long long>(abs / 100),
                   static_cast<long long>(abs % 100));
}

}  // namespace

const std::vector<Page>& PagingPages() {
  static const std::vector<Page> pages = [] {
    std::vector<Page> out;
    for (int64_t limit : {int64_t{10}, int64_t{100}, int64_t{1000}}) {
      for (int64_t page = 0; page < 16; ++page) {
        out.push_back({limit, page * limit});
      }
    }
    return out;
  }();
  return pages;
}

size_t CycleRequest(uint64_t seed, int stream, uint64_t k, size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(Mix(seed, 0xC1C1E, static_cast<uint64_t>(stream)));
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(
                                rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
  }
  return order[k % n];
}

AdhocPool MakeAdhocPool(uint64_t seed, const std::string& view,
                        const std::vector<std::string>& columns, size_t size,
                        double zipf_s) {
  AdhocPool pool;
  static const char* kAggs[] = {"min", "max", "count"};
  for (size_t i = 0; i < size; ++i) {
    Rng rng(Mix(seed, 0xAD0C, i));
    const std::string company = Company(rng.Uniform(1, 20));
    const std::vector<std::string> picked =
        Pick(&rng, columns, static_cast<size_t>(rng.Uniform(2, 20)));
    std::string sql;
    if (rng.Bernoulli(0.5)) {
      sql = "select count(*) as n";
      for (size_t c = 0; c < picked.size(); ++c) {
        sql += StrFormat(", %s(%s) as a%zu", kAggs[rng.Uniform(0, 2)],
                         picked[c].c_str(), c + 1);
      }
      sql += StrFormat(" from %s where rbukrs = '%s'", view.c_str(),
                       company.c_str());
    } else {
      sql = "select ";
      for (size_t c = 0; c < picked.size(); ++c) {
        sql += (c == 0 ? "" : ", ") + picked[c];
      }
      sql += StrFormat(
          " from %s where rbukrs = '%s' order by rldnr, gjahr, belnr, docln "
          "limit %d",
          view.c_str(), company.c_str(), rng.Bernoulli(0.5) ? 10 : 100);
    }
    pool.statements.push_back(std::move(sql));
  }
  // Popularity ranks map to a seeded permutation of the statements.
  pool.rank_to_statement.resize(size);
  for (size_t i = 0; i < size; ++i) {
    pool.rank_to_statement[i] = static_cast<uint32_t>(i);
  }
  Rng perm(Mix(seed, 0x9E4A, size));
  for (size_t i = size; i > 1; --i) {
    const auto j = static_cast<size_t>(
        perm.Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap(pool.rank_to_statement[i - 1], pool.rank_to_statement[j]);
  }
  for (size_t r = 0; r < size; ++r) {
    pool.weights.push_back(1.0 / std::pow(static_cast<double>(r + 1), zipf_s));
  }
  return pool;
}

std::vector<uint32_t> AdhocStream(const AdhocPool& pool, uint64_t seed,
                                  int stream, size_t length) {
  double total = 0;
  for (double w : pool.weights) total += w;
  Rng rng(Mix(seed, 0xAD57, static_cast<uint64_t>(stream)));
  std::vector<double> credit(pool.weights.size());
  for (double& c : credit) c = rng.NextDouble() * total;
  std::vector<uint32_t> out;
  out.reserve(length);
  for (size_t k = 0; k < length; ++k) {
    size_t best = 0;
    for (size_t r = 0; r < credit.size(); ++r) {
      credit[r] += pool.weights[r];
      if (credit[r] > credit[best]) best = r;
    }
    credit[best] -= total;
    out.push_back(pool.rank_to_statement[best]);
  }
  return out;
}

std::vector<std::string> MakeReports(uint64_t seed, const std::string& view,
                                     const std::vector<std::string>& columns,
                                     int count) {
  Rng rng(Mix(seed, 0xEE90, 0));
  std::vector<std::string> companies;
  for (int64_t i = 1; i <= 20; ++i) companies.push_back(Company(i));
  companies = Pick(&rng, companies, 16);
  std::vector<std::string> extras;
  for (const std::string& c : columns) {
    if (c != "rldnr" && c != "rbukrs" && c != "hsl") extras.push_back(c);
  }
  std::vector<std::string> reports;
  for (int r = 0; r < std::min(count, 16); ++r) {
    std::string sql = "select rldnr, sum(hsl) as total, count(*) as lines";
    const std::vector<std::string> picked =
        Pick(&rng, extras, static_cast<size_t>(rng.Uniform(1, 3)));
    for (size_t c = 0; c < picked.size(); ++c) {
      sql += StrFormat(", count(%s) as n%zu", picked[c].c_str(), c + 1);
    }
    sql += StrFormat(" from %s where rbukrs = '%s' group by rldnr order by rldnr",
                     view.c_str(), companies[static_cast<size_t>(r)].c_str());
    reports.push_back(std::move(sql));
  }
  return reports;
}

Posting MakePosting(uint64_t seed, int64_t first_belnr, uint64_t k) {
  Rng rng(Mix(seed, 0x7057, k));
  const std::string company = Company(rng.Uniform(1, 20));
  const int64_t belnr = first_belnr + static_cast<int64_t>(k);
  const int64_t cents = rng.Uniform(1, 5000000);
  Posting posting;
  const std::string ledger =
      StrFormat("%lldL", static_cast<long long>(rng.Uniform(0, 3)));
  const int64_t racct = rng.Uniform(1, 500);
  const int64_t kostl = rng.Uniform(1, 500);
  const int64_t prctr = rng.Uniform(1, 500);
  const int64_t land1 = rng.Uniform(1, 64);
  const int64_t day = rng.Uniform(1, 28);
  for (int line = 1; line <= 2; ++line) {
    const int64_t amount = line == 1 ? cents : -cents;
    // kunnr and lifnr stay NULL, which the view's access-control filter
    // admits, so every posted line is visible to the reports.
    std::string sql = StrFormat(
        "insert into acdoca values ('%s', '%s', 2025, %lld, %d, %lld, null, "
        "null, %lld, %lld, %lld, date '2025-03-%02lld', %s, %s, 1.00000, '%s')",
        ledger.c_str(), company.c_str(), static_cast<long long>(belnr), line,
        static_cast<long long>(racct),
        static_cast<long long>(kostl), static_cast<long long>(prctr),
        static_cast<long long>(land1), static_cast<long long>(day),
        Money(amount).c_str(), Money(amount).c_str(), line == 1 ? "S" : "H");
    (line == 1 ? posting.insert_debit : posting.insert_credit) =
        std::move(sql);
  }
  return posting;
}

}  // namespace perfbench
