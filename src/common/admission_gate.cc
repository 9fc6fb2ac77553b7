#include "common/admission_gate.h"

#include <algorithm>
#include <chrono>

#include "common/string_util.h"

namespace vdm {

Result<AdmissionGate::Slot> AdmissionGate::Admit(int64_t max_wait_ms,
                                                 uint64_t* waited_ns) {
  if (waited_ns != nullptr) *waited_ns = 0;
  if (limit_ == 0) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return Slot();
  }
  const auto start = std::chrono::steady_clock::now();
  const int64_t wait_ms = std::max<int64_t>(0, max_wait_ms);
  std::unique_lock<std::mutex> lock(mu_);
  const bool free = cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                                 [this] { return running_ < limit_; });
  if (waited_ns != nullptr) {
    *waited_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  if (!free) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(StrFormat(
        "admission queue timeout: %zu running (limit %zu), waited %lld ms",
        running_, limit_, static_cast<long long>(wait_ms)));
  }
  ++running_;
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return Slot(this);
}

void AdmissionGate::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
  }
  cv_.notify_one();
}

}  // namespace vdm
