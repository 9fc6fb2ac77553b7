// Per-query lifecycle governor state: cooperative cancellation, a
// steady-clock deadline, and a hierarchical memory budget.
//
// A QueryContext is created per statement (engine/database.h builds one
// from ExecLimits) and threaded through the executor and the typed hash
// tables. Every parallel phase checks CheckAlive() at morsel/partition
// granularity, so a cancel, timeout, or budget violation surfaces as a
// typed Status (kCancelled / kDeadlineExceeded / kResourceExhausted)
// within one morsel of the event on every worker thread — never as a
// crash, a leak, or a stuck thread.
//
// Memory accounting is hierarchical: each query's MemoryTracker charges
// into the process-wide tracker (MemoryTracker::Process()), so a single
// runaway analytical query hits its own budget before the shared HTAP
// process limit does — the workload-management contract the paper's VDM
// deployment assumes of the underlying database (§3–§4).
#ifndef VDMQO_COMMON_QUERY_CONTEXT_H_
#define VDMQO_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "txn/snapshot.h"

namespace vdm {

/// Thread-safe byte counter with an optional limit and an optional parent
/// that every charge rolls up into. Charges can come from any worker
/// thread; TryCharge on an over-limit tracker fails without side effects
/// (a failed local charge is not propagated to the parent, and a local
/// success followed by a parent failure is rolled back locally).
class MemoryTracker {
 public:
  static constexpr int64_t kUnlimited = -1;

  explicit MemoryTracker(int64_t limit_bytes = kUnlimited,
                         MemoryTracker* parent = nullptr,
                         std::string label = "query")
      : limit_(limit_bytes), parent_(parent), label_(std::move(label)) {}

  /// Charges `bytes` here and in every ancestor; kResourceExhausted names
  /// the tracker whose limit would be exceeded. Passing 0 is a no-op.
  Status TryCharge(int64_t bytes);
  /// Releases a previous successful charge (never fails; clamps at 0).
  void Release(int64_t bytes);

  int64_t current() const { return current_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  void set_limit(int64_t limit_bytes) {
    limit_.store(limit_bytes, std::memory_order_relaxed);
  }
  /// Degradation rung 2 (engine/database.h): keep accounting but stop
  /// enforcing THIS tracker's limit. Ancestors still enforce theirs.
  void set_enforced(bool enforced) {
    enforced_.store(enforced, std::memory_order_relaxed);
  }
  bool enforced() const { return enforced_.load(std::memory_order_relaxed); }
  const std::string& label() const { return label_; }

  /// Process-wide root every per-query tracker charges into. Its limit is
  /// VDM_PROCESS_MEM_LIMIT_MB (unlimited when unset), read once.
  static MemoryTracker& Process();

 private:
  std::atomic<int64_t> limit_;
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<bool> enforced_{true};
  MemoryTracker* parent_;
  std::string label_;
};

/// RAII wrapper for tracker charges: releases whatever was successfully
/// charged on destruction, so error paths (including injected faults)
/// cannot leak accounted bytes.
class ScopedMemoryCharge {
 public:
  explicit ScopedMemoryCharge(MemoryTracker* tracker = nullptr)
      : tracker_(tracker) {}
  ~ScopedMemoryCharge() { ReleaseAll(); }
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge(ScopedMemoryCharge&& other) noexcept
      : tracker_(other.tracker_), charged_(std::exchange(other.charged_, 0)) {}
  ScopedMemoryCharge& operator=(ScopedMemoryCharge&& other) noexcept {
    ReleaseAll();
    tracker_ = other.tracker_;
    charged_ = std::exchange(other.charged_, 0);
    return *this;
  }

  /// Charges additional bytes (no-op tracker-less). On failure nothing is
  /// retained.
  Status Charge(int64_t bytes) {
    if (tracker_ == nullptr || bytes <= 0) return Status::OK();
    Status status = tracker_->TryCharge(bytes);
    if (status.ok()) charged_ += bytes;
    return status;
  }
  void ReleaseAll() {
    if (tracker_ != nullptr && charged_ > 0) tracker_->Release(charged_);
    charged_ = 0;
  }
  int64_t charged() const { return charged_; }

 private:
  MemoryTracker* tracker_;
  int64_t charged_ = 0;
};

/// Per-query governor context. Cheap to construct; safe to poll from any
/// number of worker threads concurrently.
class QueryContext {
 public:
  QueryContext() : memory_(MemoryTracker::kUnlimited, &MemoryTracker::Process()) {}
  /// Charges this query's memory into `parent` instead of directly into
  /// the process tracker — the hook the server uses to interpose a
  /// per-tenant tracker (common/tenant.h) between query and process.
  explicit QueryContext(MemoryTracker* parent)
      : memory_(MemoryTracker::kUnlimited,
                parent != nullptr ? parent : &MemoryTracker::Process()) {}

  // --- cancellation ---
  /// Requests cooperative cancellation; callable from any thread.
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  // --- deadline ---
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_release);
  }
  /// Deadline `timeout_ms` from now; <= 0 clears the deadline.
  void SetTimeout(int64_t timeout_ms);
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != kNoDeadline;
  }

  // --- the per-morsel check ---
  /// OK while the query may keep running; kCancelled / kDeadlineExceeded
  /// otherwise. Workers call this once per morsel / partition.
  Status CheckAlive();
  /// Number of CheckAlive calls (an ExecMetrics governor counter).
  uint64_t cancel_checks() const {
    return checks_.load(std::memory_order_relaxed);
  }

  // --- memory ---
  MemoryTracker& memory() { return memory_; }
  const MemoryTracker& memory() const { return memory_; }

  // --- MVCC snapshot ---
  /// The transaction snapshot every table scan of this query reads under.
  /// Default-constructed = latest committed state, no transaction of its
  /// own (autocommit reads). Set once by the engine before execution.
  void set_snapshot(const TxnSnapshot& snap) { snapshot_ = snap; }
  const TxnSnapshot& snapshot() const { return snapshot_; }

  // --- degradation ladder ---
  /// Set by the engine when retrying serially after kResourceExhausted;
  /// hash tables switch to tight (load-factor ~0.8) slot reservations.
  void set_degraded(bool degraded) {
    degraded_.store(degraded, std::memory_order_relaxed);
  }
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

 private:
  static constexpr int64_t kNoDeadline = INT64_MAX;

  std::atomic<bool> cancelled_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
  std::atomic<uint64_t> checks_{0};
  TxnSnapshot snapshot_;
  MemoryTracker memory_;
};

}  // namespace vdm

#endif  // VDMQO_COMMON_QUERY_CONTEXT_H_
