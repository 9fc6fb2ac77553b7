#include "common/tenant.h"

#include <cstdlib>

#include "common/string_util.h"

namespace vdm {

TenantClass::TenantClass(TenantClassConfig config)
    : config_(std::move(config)),
      tracker_(config_.memory_limit_bytes > 0 ? config_.memory_limit_bytes
                                              : MemoryTracker::kUnlimited,
               &MemoryTracker::Process(), "tenant:" + config_.name),
      gate_(config_.max_concurrent) {}

Result<AdmissionGate::Slot> TenantClass::Admit(int64_t max_wait_ms,
                                               uint64_t* waited_ns) {
  Result<AdmissionGate::Slot> slot = gate_.Admit(max_wait_ms, waited_ns);
  if (slot.ok()) return slot;
  return Status::ResourceExhausted("tenant '" + config_.name +
                                   "': " + slot.status().message());
}

namespace {

Status ParseTenantEntry(const std::string& entry, TenantClassConfig* out) {
  const size_t colon = entry.find(':');
  out->name = colon == std::string::npos ? entry : entry.substr(0, colon);
  if (out->name.empty()) {
    return Status::InvalidArgument("tenant class entry '" + entry +
                                   "': empty name");
  }
  if (colon == std::string::npos) return Status::OK();
  for (const std::string& kv : Split(entry.substr(colon + 1), ',')) {
    if (kv.empty()) continue;
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("tenant class '" + out->name +
                                     "': expected key=value, got '" + kv + "'");
    }
    const std::string key = kv.substr(0, eq);
    char* end = nullptr;
    const long long value = std::strtoll(kv.c_str() + eq + 1, &end, 10);
    if (end == kv.c_str() + eq + 1 || *end != '\0' || value < 0) {
      return Status::InvalidArgument("tenant class '" + out->name +
                                     "': bad value in '" + kv + "'");
    }
    if (key == "mem_mb") {
      out->memory_limit_bytes = value * (1ll << 20);
    } else if (key == "conc") {
      out->max_concurrent = static_cast<size_t>(value);
    } else {
      return Status::InvalidArgument("tenant class '" + out->name +
                                     "': unknown key '" + key + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Status TenantRegistry::Configure(const std::string& spec) {
  std::map<std::string, std::unique_ptr<TenantClass>> parsed;
  for (const std::string& entry : Split(spec, ';')) {
    if (entry.empty()) continue;
    TenantClassConfig config;
    VDM_RETURN_NOT_OK(ParseTenantEntry(entry, &config));
    // Take the key before std::move(config): the RHS of the map assignment
    // is sequenced first and would gut config.name.
    const std::string name = config.name;
    if (parsed.count(name) > 0) {
      return Status::InvalidArgument("tenant class '" + name +
                                     "' declared twice");
    }
    parsed[name] = std::make_unique<TenantClass>(std::move(config));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, cls] : parsed) classes_[name] = std::move(cls);
  return Status::OK();
}

TenantClass* TenantRegistry::DefaultClassLocked() {
  auto it = classes_.find("default");
  if (it == classes_.end()) {
    it = classes_
             .emplace("default",
                      std::make_unique<TenantClass>(TenantClassConfig{}))
             .first;
  }
  return it->second.get();
}

TenantClass* TenantRegistry::Resolve(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!name.empty()) {
    auto it = classes_.find(name);
    if (it != classes_.end()) return it->second.get();
  }
  return DefaultClassLocked();
}

std::vector<std::string> TenantRegistry::DeclaredNames() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, cls] : classes_) {
    if (name != "default") names.push_back(name);
  }
  return names;
}

}  // namespace vdm
