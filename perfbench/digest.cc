#include "digest.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace perfbench {

uint64_t Fnv64(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

uint64_t CellHash(const vdm::ColumnData& col, size_t row, uint64_t h) {
  if (col.IsNull(row)) return Fnv64("\xffnull", 5, h);
  if (col.type().IsIntegerBacked()) {
    const int64_t v = col.ints()[row];
    return Fnv64(&v, sizeof v, h);
  }
  if (col.type().id == vdm::TypeId::kDouble) {
    const double v = col.doubles()[row];
    return Fnv64(&v, sizeof v, h);
  }
  const std::string& s = col.StringAt(row);
  const uint64_t len = s.size();
  return Fnv64(s, Fnv64(&len, sizeof len, h));
}

}  // namespace

uint64_t ChunkDigest(const vdm::Chunk& chunk, bool ordered) {
  uint64_t h = kFnvBasis;
  for (size_t c = 0; c < chunk.NumColumns(); ++c) {
    h = Fnv64(chunk.names[c], h);
    const auto type = static_cast<uint8_t>(chunk.columns[c].type().id);
    h = Fnv64(&type, 1, h);
  }
  const size_t rows = chunk.NumRows();
  std::vector<uint64_t> row_hashes(rows);
  for (size_t r = 0; r < rows; ++r) {
    uint64_t rh = kFnvBasis;
    for (const vdm::ColumnData& col : chunk.columns) rh = CellHash(col, r, rh);
    row_hashes[r] = rh;
  }
  if (!ordered) std::sort(row_hashes.begin(), row_hashes.end());
  const uint64_t n = rows;
  h = Fnv64(&n, sizeof n, h);
  return Fnv64(row_hashes.data(), row_hashes.size() * sizeof(uint64_t), h);
}

}  // namespace perfbench
