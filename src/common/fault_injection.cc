#include "common/fault_injection.h"

#include <cstdlib>
#include <mutex>
#include <unordered_map>

#include "common/string_util.h"

namespace vdm {

namespace {

struct PointState {
  FaultSpec spec;
  uint64_t hits = 0;
  uint64_t rng = 0;  // lazily seeded from the registry seed + name hash
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, PointState> points;
  uint64_t seed = 0x5DEECE66Dull;
  bool env_parsed = false;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

/// Parses "name=p:0.01;name2=n:3" (also accepts ',' as separator).
void ParseEnvLocked(Registry& registry) {
  registry.env_parsed = true;
  if (const char* env = std::getenv("VDM_FAULT_SEED");
      env != nullptr && *env != '\0') {
    registry.seed = std::strtoull(env, nullptr, 10);
  }
  const char* env = std::getenv("VDM_FAULT");
  if (env == nullptr || *env == '\0') return;
  std::string spec_text(env);
  size_t pos = 0;
  while (pos < spec_text.size()) {
    size_t end = spec_text.find_first_of(";,", pos);
    if (end == std::string::npos) end = spec_text.size();
    std::string item = spec_text.substr(pos, end - pos);
    pos = end + 1;
    size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    std::string name = item.substr(0, eq);
    std::string mode = item.substr(eq + 1);
    FaultSpec spec;
    if (mode.size() > 2 && mode[1] == ':') {
      if (mode[0] == 'p') {
        spec.probability = std::strtod(mode.c_str() + 2, nullptr);
      } else if (mode[0] == 'n') {
        spec.nth = std::strtoll(mode.c_str() + 2, nullptr, 10);
      }
    }
    if (spec.probability > 0.0 || spec.nth > 0) {
      registry.points[name].spec = spec;
    }
  }
}

// The firing logic exists only in fault-injection builds; elsewhere
// FaultInjection::Check is an inline no-op (fault_injection.h).
#ifdef VDMQO_FAULT_INJECTION
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t NameHash(const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (char c : name) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  return h;
}

Status MakeFault(const char* point, const FaultSpec& spec) {
  StatusCode code = spec.code;
  if (code == StatusCode::kOk) {
    std::string name(point);
    bool oom = name.size() >= 4 && name.rfind(".oom") == name.size() - 4;
    code = oom ? StatusCode::kResourceExhausted : StatusCode::kExecutionError;
  }
  return Status(code, StrFormat("injected fault at %s", point));
}

/// Evaluates the armed spec for one hit; `state.hits` already counts it.
bool ShouldFire(Registry& registry, const std::string& name,
                PointState& state) {
  const FaultSpec& spec = state.spec;
  if (spec.nth > 0 && state.hits == static_cast<uint64_t>(spec.nth)) {
    return true;
  }
  if (spec.probability > 0.0) {
    if (state.rng == 0) state.rng = registry.seed ^ NameHash(name);
    state.rng = SplitMix64(state.rng);
    double draw =
        static_cast<double>(state.rng >> 11) / static_cast<double>(1ull << 53);
    if (draw < spec.probability) return true;
  }
  return false;
}
#endif  // VDMQO_FAULT_INJECTION

}  // namespace

void FaultInjection::Set(const std::string& point, FaultSpec spec) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (!registry.env_parsed) ParseEnvLocked(registry);
  PointState& state = registry.points[point];
  state.spec = spec;
  state.hits = 0;
  state.rng = 0;
}

void FaultInjection::Clear() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.env_parsed = true;  // tests own the registry from here on
  registry.points.clear();
}

void FaultInjection::SetSeed(uint64_t seed) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (!registry.env_parsed) ParseEnvLocked(registry);
  registry.seed = seed;
  for (auto& [name, state] : registry.points) state.rng = 0;
}

uint64_t FaultInjection::Hits(const std::string& point) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.points.find(point);
  return it == registry.points.end() ? 0 : it->second.hits;
}

#ifdef VDMQO_FAULT_INJECTION
Status FaultInjection::Check(const char* point) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (!registry.env_parsed) ParseEnvLocked(registry);
  if (registry.points.empty()) return Status::OK();
  std::string name(point);
  auto exact = registry.points.find(name);
  if (exact != registry.points.end()) {
    PointState& state = exact->second;
    ++state.hits;
    if (ShouldFire(registry, name, state)) {
      return MakeFault(point, state.spec);
    }
  }
  auto wildcard = registry.points.find("*");
  if (wildcard != registry.points.end()) {
    PointState& state = wildcard->second;
    ++state.hits;
    if (ShouldFire(registry, name, state)) {
      return MakeFault(point, state.spec);
    }
  }
  return Status::OK();
}
#endif

}  // namespace vdm
