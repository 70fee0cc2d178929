// AFL-style edge coverage over the device's typed trace events.
//
// The greybox lane (src/fuzz) steers mutation by behavioral novelty: each
// TraceEvent the device would record is hashed to a key, and the *pair*
// (previous key, current key) — an edge in the packet's event sequence —
// indexes a byte map of saturating hit counters. A CoverageMap can be
// attached to an ExecArena independently of trace recording, so the fuzz
// hot loop observes coverage without paying for localization data.
//
// Counts are compared through the classic AFL bucketing (1, 2, 3, 4-7,
// 8-15, 16-31, 32-127, 128+): an input is "new" when some edge reaches a
// bucket never seen before, which keeps loop-iteration noise from flooding
// the corpus while still rewarding order-of-magnitude hit-count changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace meissa::sim {

// Mixes one trace event's identity into a 32-bit key. The inputs are the
// raw TraceEvent components (kind, instance, table, aux); multiplicative
// mixing spreads near-identical events across the map.
inline uint32_t coverage_key(uint8_t kind, int16_t instance, int16_t table,
                             int32_t aux) noexcept {
  uint32_t h = 0x9e3779b9u ^ kind;
  h = (h ^ static_cast<uint16_t>(instance)) * 0x85ebca6bu;
  h = (h ^ static_cast<uint16_t>(table)) * 0xc2b2ae35u;
  h = (h ^ static_cast<uint32_t>(aux)) * 0x27d4eb2fu;
  h ^= h >> 15;
  return h;
}

// Maps a hit count to its AFL bucket bit; 0 stays 0.
uint8_t bucket_bits(uint8_t count) noexcept;

class CoverageMap {
 public:
  static constexpr size_t kSize = 1u << 16;

  CoverageMap() : map_(kSize, 0) {}

  // Zeroes the touched counters and clears the edge chain, the touched
  // list and the hit log. Costs O(touched + hits); capacities are kept, so
  // a recycled map allocates nothing in steady state.
  void reset() noexcept;

  // Breaks the edge chain (call between packets so the last event of one
  // packet and the first of the next never form a phantom edge) and opens
  // the next packet's segment of the hit log.
  void boundary() {
    prev_ = 0;
    packet_starts_.push_back(log_.size());
  }

  // Records one event key, forming an edge with the previous one.
  void hit(uint32_t key) {
    uint32_t idx = (key ^ prev_) & (kSize - 1);
    log_.push_back(idx);
    count(idx);
    prev_ = (key >> 1) & (kSize - 1);
  }

  // Adds one hit to edge `idx`'s counter (saturating at 0xff) without
  // touching the edge chain or the hit log: replays a logged edge.
  void count(uint32_t idx) {
    if (map_[idx] == 0) touched_.push_back(idx);
    if (map_[idx] != 0xff) ++map_[idx];
  }

  // Number of edges with a nonzero count.
  size_t nonzero() const noexcept { return touched_.size(); }

  // Edges with a nonzero count, in first-hit order.
  const std::vector<uint32_t>& touched() const noexcept { return touched_; }

  // Packets opened by boundary() since the last reset().
  size_t packets() const noexcept { return packet_starts_.size(); }

  // Edge indices hit by packet `i` < packets(), one per hit, in hit order;
  // hits made before the first boundary() belong to no packet.
  std::span<const uint32_t> packet_hits(size_t i) const noexcept {
    size_t end = i + 1 < packet_starts_.size() ? packet_starts_[i + 1]
                                               : log_.size();
    return {log_.data() + packet_starts_[i], log_.data() + end};
  }

  const std::vector<uint8_t>& bytes() const noexcept { return map_; }

 private:
  std::vector<uint8_t> map_;
  std::vector<uint32_t> touched_;        // indices whose counter is nonzero
  std::vector<uint32_t> log_;            // edge index of every hit
  std::vector<size_t> packet_starts_;    // log_ offset of each packet
  uint32_t prev_ = 0;
};

// Compares `cur` (bucketed) against a `virgin` map of already-seen bucket
// bits. Returns true when `cur` contains a bucket bit absent from
// `virgin`; with `commit`, the new bits are merged in. `virgin` must be
// CoverageMap::kSize bytes (it is resized if not). Walks only `cur`'s
// touched edges; a probe stops at the first new bucket.
bool merge_new_coverage(const CoverageMap& cur, std::vector<uint8_t>& virgin,
                        bool commit);

}  // namespace meissa::sim
