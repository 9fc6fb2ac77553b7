// Per-tenant admission / memory classes for the multi-session server.
//
// The governor (query_context.h) charges every query into the process-wide
// MemoryTracker and gates concurrency globally (VDM_MAX_CONCURRENT). That
// protects the *process*, not a *tenant*: one tenant's analytical scans can
// still queue out another tenant's point lookups. A TenantClass interposes
// a named layer between the two — its MemoryTracker parents the per-query
// trackers of every session declaring that tenant at HELLO, and its own
// AdmissionGate bounds the tenant's concurrent statements before they
// reach the global gate; both gates share one ExecLimits::max_queued_ms.
//
// Classes are declared in VDM_TENANT_CLASSES, a ';'-separated list of
// `name:key=value,...` entries, e.g.
//
//   VDM_TENANT_CLASSES="oltp:mem_mb=256,conc=16;olap:mem_mb=2048,conc=2"
//
// Keys: mem_mb (tenant-wide tracked-allocation limit, 0 = unlimited) and
// conc (max concurrent statements, 0 = unlimited). Sessions naming an
// undeclared tenant (including the empty name) get a shared unlimited
// "default" class, so the server works with no configuration at all.
#ifndef VDMQO_COMMON_TENANT_H_
#define VDMQO_COMMON_TENANT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/admission_gate.h"
#include "common/query_context.h"
#include "common/status.h"

namespace vdm {

struct TenantClassConfig {
  std::string name = "default";
  /// Tenant-wide tracked-allocation limit in bytes; 0 = unlimited.
  int64_t memory_limit_bytes = 0;
  /// Max concurrent statements across every session of this tenant;
  /// 0 = unlimited.
  size_t max_concurrent = 0;
};

/// One admission/memory class. Thread-safe; sessions share the instance.
class TenantClass {
 public:
  explicit TenantClass(TenantClassConfig config);
  TenantClass(const TenantClass&) = delete;
  TenantClass& operator=(const TenantClass&) = delete;

  /// Takes a statement slot (AdmissionGate::Admit; the timeout error
  /// names the tenant).
  Result<AdmissionGate::Slot> Admit(int64_t max_wait_ms,
                                    uint64_t* waited_ns = nullptr);

  /// Parent for the per-query MemoryTracker of this tenant's statements
  /// (itself parented to MemoryTracker::Process()).
  MemoryTracker* memory() { return &tracker_; }
  const TenantClassConfig& config() const { return config_; }

  uint64_t admitted() const { return gate_.admitted(); }
  uint64_t admission_timeouts() const { return gate_.timeouts(); }

 private:
  const TenantClassConfig config_;
  MemoryTracker tracker_;
  AdmissionGate gate_;
};

/// Owns every TenantClass a server hands out. Thread-safe. Classes live as
/// long as the registry — sessions keep raw TenantClass pointers.
class TenantRegistry {
 public:
  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Parses a VDM_TENANT_CLASSES spec (see file comment). Malformed
  /// entries are rejected with kInvalidArgument naming the entry; an empty
  /// spec is valid (everyone lands in the default class).
  Status Configure(const std::string& spec);

  /// The class for `name`; undeclared names (and "") resolve to the
  /// shared unlimited default class. Never null.
  TenantClass* Resolve(const std::string& name);

  /// Declared class names (excluding the implicit default), for stats.
  std::vector<std::string> DeclaredNames() const;

 private:
  TenantClass* DefaultClassLocked();

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<TenantClass>> classes_;
};

}  // namespace vdm

#endif  // VDMQO_COMMON_TENANT_H_
