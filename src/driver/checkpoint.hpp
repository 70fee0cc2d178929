// Crash-safe work-unit checkpointing for generation runs.
//
// A checkpoint is the *process-split unit* of a generation run: the code-
// summary region (one SummaryUnit per encoded pipeline) plus the final-DFS
// frontier slice (one ShardProgress per prefix shard, carrying buffered
// results, the DFS cursor path, and the shard's fresh-symbol counter).
// Everything is serialized by *name* — FieldId numbering is interning-order
// (i.e. scheduling) dependent — and expressions round-trip through the
// arena's hash-consing make-functions, so a deserialized snapshot is
// structurally identical to the live one. The same format is deliberately
// what a future distributed mode would ship between processes (ROADMAP
// "distributed generation": a shard's WorkUnit is already self-contained).
//
// File format (little-endian):
//   magic "M4CKPT01" | version u32 | content_key u64 | payload_len u64 |
//   payload_crc32 u32 | payload
// Writes are atomic (tmp + rename) and rotate the previous file to
// `<name>.prev`; loads validate magic/version/key/CRC and fall back to
// `.prev`, so a write truncated or corrupted mid-crash costs at most one
// checkpoint interval, never the run.
//
// Program identity is two-tier. The content key fingerprints every
// output-affecting *option* (plus the instance inventory): a checkpoint
// from a different configuration is rejected wholesale, not misapplied.
// Program *content* is not in the key. Each summary unit carries its own
// fingerprint, and summary::summarize() decides which loaded units replay
// (early cutoff, see SummaryHooks::resume); DFS shard frontiers embed
// absolute node ids, so they survive only under an identical whole-graph
// hash (analysis::fingerprint_graph, stored in the payload). A localized
// edit therefore re-explores just the affected regions instead of
// discarding the entire checkpoint.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "summary/summary.hpp"
#include "sym/engine.hpp"
#include "util/faultinject.hpp"

namespace meissa::driver {

// CRC-32 (reflected, poly 0xEDB88320) — the file-integrity check.
uint32_t crc32(const uint8_t* data, size_t n);

// FNV-1a 64 — the content-key hash.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;
inline uint64_t fnv1a(uint64_t h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

// Everything a killed run needs to continue where it stopped.
struct CheckpointData {
  // Encoded pipelines, keyed by instance name (summary resume skips the
  // explore phase of those whose fingerprints still hold).
  std::unordered_map<std::string, summary::SummaryUnit> units;
  // Final-DFS shard progress, indexed by shard. Empty until the DFS starts.
  std::vector<sym::ShardProgress> shards;
  // Whole-graph hash of the program this checkpoint was written for
  // (analysis::fingerprint_graph), gating the shard frontiers. Zero when
  // the writer had none.
  uint64_t graph_fp = 0;
};

// Serialized payload (no file header) — exposed for tests.
std::vector<uint8_t> serialize_checkpoint(const ir::Context& ctx,
                                          const CheckpointData& data);
CheckpointData deserialize_checkpoint(ir::Context& ctx,
                                      const std::vector<uint8_t>& payload);

// Full file image: header + CRC + payload.
std::vector<uint8_t> encode_checkpoint_file(const ir::Context& ctx,
                                            uint64_t content_key,
                                            const CheckpointData& data);
// Validates magic/version/content-key/CRC and deserializes; nullopt on any
// mismatch (the caller falls back to the previous file).
std::optional<CheckpointData> decode_checkpoint_file(
    ir::Context& ctx, uint64_t content_key, const std::vector<uint8_t>& bytes);

struct GenOptions;  // driver/generator.hpp

// Fingerprint of every output-affecting generation option plus the
// instance inventory. Thread count, checkpoint cadence and static pruning
// are deliberately excluded: they never change the emitted templates, and
// a checkpoint must be resumable under a different thread count. Program
// *content* is intentionally absent — units carry their own fingerprints
// so a localized edit degrades, not discards, the checkpoint.
uint64_t checkpoint_content_key(const ir::Context& ctx, const cfg::Cfg& g,
                                const GenOptions& opts);

// Owns one checkpoint directory for one generation run. All mutators are
// thread-safe (engine progress snapshots arrive from worker threads) and
// persist the full state on every call — a wave boundary or a frontier-pop
// interval, by construction of the hook cadence. Write failures (including
// injected ones) are counted, never thrown: a failing checkpoint must not
// fail the generation it protects.
class CheckpointManager {
 public:
  // Creates `dir` if missing. `fault`, when set, is consulted at the
  // "checkpoint.serialize" (execution) and "checkpoint.write" (data)
  // sites. `graph_fp` is the current build's whole-graph hash: it is
  // stamped into every write and gates the loaded shard frontiers.
  CheckpointManager(ir::Context& ctx, std::string dir, uint64_t content_key,
                    util::FaultInjector* fault = nullptr,
                    uint64_t graph_fp = 0);

  // Loads the newest valid checkpoint (current file, else `.prev`) into
  // `out`, dropping the shard frontiers when the whole-graph hash no
  // longer matches the current build. False when neither file validates
  // or nothing is left to resume. The loaded units are handed out, not
  // kept: later persists hold only the units this run records through
  // add_unit (summarize() records replayed ones too), so the file never
  // mixes units from two runs (early cutoff needs one consistent run).
  bool load(CheckpointData& out);

  // Records one encoded pipeline (summary wave boundary) and persists.
  void add_unit(const summary::SummaryUnit& u);
  // Pre-sizes the shard table (ParallelHooks::on_shards).
  void begin_shards(size_t n);
  // Records one shard snapshot (ParallelHooks::progress) and persists.
  void update_shard(size_t i, const sym::ShardProgress& p);

  uint64_t writes() const;    // successful persists
  uint64_t failures() const;  // failed persists (run continued regardless)

  const std::string& path() const { return path_; }

 private:
  void persist_locked();

  ir::Context& ctx_;
  std::string dir_;
  std::string path_;  // dir_ + "/checkpoint.bin"
  uint64_t key_;
  util::FaultInjector* fault_;
  uint64_t graph_fp_;
  mutable std::mutex mu_;
  CheckpointData data_;
  uint64_t writes_ = 0;
  uint64_t failures_ = 0;
};

}  // namespace meissa::driver
