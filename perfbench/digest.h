// Result digests: one 64-bit FNV-1a value per result chunk, so a response
// can be compared with an in-process recomputation without keeping rows.
#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>
#include <string_view>

#include "types/column.h"

namespace perfbench {

inline constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

/// FNV-1a over raw bytes, continuing from `h`.
uint64_t Fnv64(const void* data, size_t size, uint64_t h = kFnvBasis);
inline uint64_t Fnv64(std::string_view s, uint64_t h = kFnvBasis) {
  return Fnv64(s.data(), s.size(), h);
}

/// Digest of column names, types and every cell. With `ordered` false the
/// row order does not matter (rows hash independently and are combined in
/// sorted order), for results whose order the statement leaves open.
uint64_t ChunkDigest(const vdm::Chunk& chunk, bool ordered);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
