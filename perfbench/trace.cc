#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

uint32_t NameTable::Id(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

const std::string& NameTable::Name(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.at(id);
}

int64_t SpanBuffer::Add(const std::string& name, int64_t start_ns,
                        int64_t end_ns, int64_t parent, uint64_t request) {
  const auto t0 = std::chrono::steady_clock::now();
  Span span;
  span.name = names_->Id(name);
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  record_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return static_cast<int64_t>(spans_.size()) - 1;
}

void AppendSpans(const std::vector<Span>& from, std::vector<Span>* into) {
  const auto offset = static_cast<int64_t>(into->size());
  into->reserve(into->size() + from.size());
  for (Span span : from) {
    if (span.parent >= 0) span.parent += offset;
    into->push_back(span);
  }
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children's intervals, clipped to the parent, grouped by parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> cover(spans.size());
  for (const Span& child : spans) {
    if (child.parent < 0 ||
        static_cast<size_t>(child.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[static_cast<size_t>(child.parent)];
    const int64_t lo = std::max(child.start_ns, parent.start_ns);
    const int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) cover[static_cast<size_t>(child.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& iv = cover[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans,
                                               const NameTable& names) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[names.Name(spans[i].name)];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const NameTable& names, size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes(spans);
  std::fprintf(f, "request\tname\tstart_ns\tend_ns\tparent\tself_ns\n");
  const size_t n = std::min(max_spans, spans.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%llu\t%s\t%lld\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.request),
                 names.Name(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
