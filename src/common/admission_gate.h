// Admission gate: a counting semaphore with a queue timeout. The Database
// puts one in front of every governed SELECT (VDM_MAX_CONCURRENT) and every
// tenant class owns one (common/tenant.h, conc=).
#ifndef VDMQO_COMMON_ADMISSION_GATE_H_
#define VDMQO_COMMON_ADMISSION_GATE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/status.h"

namespace vdm {

class AdmissionGate {
  struct Releaser {
    void operator()(AdmissionGate* gate) const { gate->Release(); }
  };

 public:
  /// One held slot, given back when the Slot is destroyed, so every return
  /// path of its holder releases it. Null for an open gate.
  using Slot = std::unique_ptr<AdmissionGate, Releaser>;

  /// At most `limit` slots are held at once; 0 = open (Admit never waits).
  explicit AdmissionGate(size_t limit = 0) : limit_(limit) {}

  /// Takes a slot, queueing up to `max_wait_ms` for one to free; <= 0
  /// takes a free slot or fails at once (ExecLimits::max_queued_ms).
  /// kResourceExhausted ("admission queue timeout ...") when none frees in
  /// time. `waited_ns`, when given, receives the time spent queueing.
  Result<Slot> Admit(int64_t max_wait_ms, uint64_t* waited_ns = nullptr);

  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }

 private:
  void Release();

  const size_t limit_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t running_ = 0;  // guarded by mu_; counted only when limit_ > 0
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> timeouts_{0};
};

}  // namespace vdm

#endif  // VDMQO_COMMON_ADMISSION_GATE_H_
