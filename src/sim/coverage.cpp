#include "sim/coverage.hpp"

namespace meissa::sim {

uint8_t bucket_bits(uint8_t count) noexcept {
  if (count == 0) return 0;
  if (count == 1) return 1;
  if (count == 2) return 2;
  if (count == 3) return 4;
  if (count <= 7) return 8;
  if (count <= 15) return 16;
  if (count <= 31) return 32;
  if (count <= 127) return 64;
  return 128;
}

void CoverageMap::reset() noexcept {
  for (uint32_t i : touched_) map_[i] = 0;
  touched_.clear();
  log_.clear();
  packet_starts_.clear();
  prev_ = 0;
}

bool merge_new_coverage(const CoverageMap& cur, std::vector<uint8_t>& virgin,
                        bool commit) {
  if (virgin.size() != CoverageMap::kSize) {
    virgin.assign(CoverageMap::kSize, 0);
  }
  const std::vector<uint8_t>& map = cur.bytes();
  bool fresh = false;
  for (uint32_t i : cur.touched()) {
    uint8_t bits = bucket_bits(map[i]);
    if ((bits & ~virgin[i]) != 0) {
      fresh = true;
      if (!commit) return true;
      virgin[i] |= bits;
    }
  }
  return fresh;
}

}  // namespace meissa::sim
