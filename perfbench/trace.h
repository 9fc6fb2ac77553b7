// The benchmark's span recorder (traced runs only).
//
// A span is one timed call at a layer boundary: name, start, end, the
// span that caused it, and the request it belongs to. Each generator
// thread records into its own SpanBuffer, so recording takes no lock;
// buffers are merged once the thread has been joined. Spans stay in
// memory until the run ends, when WriteSpans dumps them.
//
// Self time is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
  uint32_t name = 0;     // id in the NameTable
  int64_t start_ns = 0;  // steady-clock nanoseconds
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the parent in the same list; -1 = root
  uint64_t request = 0;  // request id shared by a request's spans
};

/// Interns span names; ids are stable for the life of the table.
class NameTable {
 public:
  uint32_t Id(const std::string& name);
  const std::string& Name(uint32_t id) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, uint32_t> ids_;  // guarded by mu_
  std::deque<std::string> names_;  // guarded by mu_; stable references
};

/// One thread's spans. Not thread-safe; one buffer per generator thread.
class SpanBuffer {
 public:
  explicit SpanBuffer(NameTable* names) : names_(names) {}

  /// Records a finished span and returns its index (for children).
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  /// Nanoseconds spent inside Add: the recorder's own cost.
  int64_t record_ns() const { return record_ns_; }

 private:
  NameTable* names_;
  std::vector<Span> spans_;
  int64_t record_ns_ = 0;
};

/// Appends `from` to `into`, shifting parent indexes.
void AppendSpans(const std::vector<Span>& from, std::vector<Span>* into);

/// Self time of every span (same order as `spans`). Children must come
/// after their parent only in the sense that `parent` indexes are valid;
/// any order works.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-name totals.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;  // summed durations
  int64_t self_ns = 0;   // summed self times
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans,
                                               const NameTable& names);

/// Writes up to `max_spans` spans as tab-separated lines (request, name,
/// start, end, parent, self). Returns false if the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const NameTable& names, size_t max_spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
