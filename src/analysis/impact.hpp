// Program content fingerprints: the identity summary units are replayed
// and checkpoints are resumed by.
//
//   1. *Region fingerprints*: a deterministic content hash per pipeline
//      instance subgraph, hashed by stable node content and region-local
//      discovery indices — never by NodeId or FieldId, both of which are
//      interning-/build-order artifacts. Two builds of the same program
//      agree on every fingerprint even when their contexts interned fields
//      in different orders.
//   2. A *glue* hash over the inter-pipeline glue (topology guards,
//      hand-off assigns) and the instance inventory.
//   3. A *whole-graph* hash over absolute node ids, for artifacts tied to
//      exact node numbering.
//
// Consumers: summary::summarize() keys each SummaryUnit by its region's
// unit_fingerprint (early cutoff, see SummaryHooks::resume), and the
// checkpoint layer gates final-DFS shard frontiers by fingerprint_graph.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "cfg/cfg.hpp"

namespace meissa::analysis {

// Content fingerprints of one build of one program.
struct RegionFingerprints {
  // Per-region content hash keyed by instance name (the only cross-run-
  // stable region identity): node statements/hashes/origins rendered with
  // field *names*, successors as region-local discovery indices.
  std::unordered_map<std::string, uint64_t> region;
  // The instance inventory (names in graph order) and the inter-pipeline
  // glue with instances collapsed to single super-nodes.
  uint64_t glue = 0;
};

// Fingerprints every region of `g` plus the glue.
RegionFingerprints fingerprint_regions(const ir::Context& ctx,
                                       const cfg::Cfg& g);

// The fingerprint of `instance`'s SummaryUnit: its region hash mixed with
// the glue hash.
uint64_t unit_fingerprint(const RegionFingerprints& fps,
                          const std::string& instance);

// Whole-graph content hash: every node's statement, hash, successors
// (absolute ids) and exits, plus instance metadata — rendered with field
// names so the hash is stable across processes.
uint64_t fingerprint_graph(const ir::Context& ctx, const cfg::Cfg& g);

}  // namespace meissa::analysis
