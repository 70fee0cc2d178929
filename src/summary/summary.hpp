// Code summary — the paper's core contribution (§3.3, Algorithm 2).
//
// Processes pipeline instances in topological order. For each pipeline it
//   1. computes the *public pre-condition* (C_pub, V_pub): constraints and
//      value bindings shared by every valid path from the CFG entry to the
//      pipeline's entry (inter-pipeline public pre-condition filtering),
//   2. symbolically executes the pipeline body under that pre-condition,
//      collecting its valid internal paths (intra-pipeline redundancy
//      elimination), and
//   3. replaces the pipeline subgraph with one compact branch per valid
//      path: entry-value snapshots (`@field@inst <- field`), hash
//      definitions, a single predicate node carrying the path's guard
//      conjunction, and the path's overall assignment effects — the
//      auxiliary-variable encoding of §3.3 that preserves simultaneous-
//      update atomicity.
//
// The pass preserves the set of valid paths and their path conditions
// (paper §3.4); tests/summary_test.cpp checks this property on randomized
// multi-pipeline programs.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <optional>

#include "sym/engine.hpp"

namespace meissa::summary {

// One pipeline's explore-phase output in checkpointable form: everything
// the sequential encode phase needs to splice the pipeline without
// re-exploring it. Field references are by *name* (FieldId numbering is
// interning-order — i.e. scheduling — dependent), expressions are live
// ExprRefs in the owning context; the driver's checkpoint layer turns
// those into bytes and back.
struct SummaryUnit {
  std::string instance;
  // analysis::unit_fingerprint of the program the unit was explored for:
  // the region's content hash mixed with the glue hash.
  uint64_t fingerprint = 0;
  uint64_t paths_after = 0;
  uint64_t smt_checks = 0;
  uint64_t smt_skipped = 0;
  double seconds = 0.0;  // the original explore's cost (kept over resumes)
  std::vector<sym::PathResult> internal;
  // (@snapshot name, original name, width), in seeding order.
  struct SeedSnap {
    std::string at;
    std::string orig;
    int width = 0;
  };
  std::vector<SeedSnap> seed_snaps;
};

struct SummaryHooks {
  // Fired from the sequential encode loop — a wave-boundary point, so the
  // unit is complete and every earlier unit has been spliced — with the
  // pipeline's index (instance order) and its checkpointable work.
  std::function<void(size_t, const SummaryUnit&)> on_unit;
  // Prior units by instance name (a checkpoint's, or the previous run's
  // of an incremental session). A pipeline's summary is a pure function of
  // its own code, the glue, and its upstream pipelines' outputs (its
  // public pre-condition is computed from nothing else), so a pipeline
  // replays its prior unit — skipping the explore phase and splicing the
  // restored paths — when the unit's fingerprint matches the current
  // build AND every upstream pipeline was itself replayed or re-explored
  // to output equal to its prior unit (early cutoff). Any other pipeline
  // re-explores.
  const std::unordered_map<std::string, SummaryUnit>* resume = nullptr;
};

struct SummaryOptions {
  // Inter-pipeline public pre-condition filtering (ablatable; intra-
  // pipeline redundancy elimination always runs).
  bool precondition_filtering = true;
  bool use_z3 = false;
  bool check_every_predicate = false;  // paper-faithful Algorithm 1/2 mode
  // Beyond this many prefix paths, the exact enumeration (Algorithm 2
  // lines 4-7, O(k * m^k)) gives way to the O(graph) dataflow meet.
  size_t max_precondition_paths = 4096;
  // Worker threads for the per-pipeline explore phase (1 = sequential).
  // Pipelines are grouped into dependency waves (instance k depends on j
  // when j's exit reaches k's entry); each wave's pre-condition + body
  // explorations run concurrently, then the graph splices are applied
  // sequentially in instance order — so the summarized graph (node ids
  // included) is identical for every thread count.
  int threads = 1;
  // Static pruning for the body/enumeration engines: per-instance dataflow
  // facts (validity lattice and value ranges from the instance entry) plus
  // the per-path abstract environment decide predicates before the solver.
  // Solver-equivalent, so the summarized graph is identical on/off.
  bool static_pruning = true;
  // Cooperative cancellation, polled by every explore engine and between
  // waves. A cancelled wave is never spliced (a partial exploration would
  // silently change the graph); SummaryResult::cancelled reports it and
  // the partially-summarized graph must not be used. Must outlive the run.
  const util::CancelToken* cancel = nullptr;
  // Checkpoint/resume hooks (may be null). When set, every region is
  // fingerprinted once per run. Must outlive the run.
  const SummaryHooks* hooks = nullptr;
  // Externally-owned path-condition verdict cache, handed to every
  // pre-condition and body engine (see sym::EngineOptions::shared_pc_cache
  // for the cross-engine soundness argument). The incremental re-testing
  // session warms it on the baseline run so updates re-pay only the checks
  // a change actually altered. Must outlive the run.
  smt::PathCondCache* shared_pc_cache = nullptr;
};

// The public pre-condition of one pipeline: constraints over program
// inputs, plus per-field knowledge of the value every valid path assigns
// (absent + not top = the field is untouched, i.e. still the input symbol).
struct PreCondition {
  std::vector<ir::ExprRef> conds;
  std::unordered_map<ir::FieldId, ir::ExprRef> values;
  std::unordered_set<ir::FieldId> tops;  // paths disagree: value unknown
  // For tops whose per-path values are all constants: the merged value set
  // (the paper's §7 "group pre-conditions by packet type ... merge them
  // into a full summary", kept as one disjunctive pre-condition).
  std::unordered_map<ir::FieldId, std::vector<uint64_t>> value_sets;
};

// Computes the pre-condition at `target` as a forward dataflow meet over
// the DAG (equivalent to intersecting over all entry→target paths as in
// Algorithm 2 lines 4–7, without enumerating them; the meet is the same
// intersection, computed at join points).
PreCondition compute_precondition(ir::Context& ctx, const cfg::Cfg& g,
                                  cfg::NodeId target);

// Primary implementation (Algorithm 2 verbatim): enumerates all valid
// entry→target paths and intersects their constraints and value stacks.
// Returns nullopt when more than `path_limit` prefix paths exist, in which
// case callers fall back to the dataflow meet above. `smt_checks`, when
// non-null, accumulates the solver checks spent on the enumeration.
// `fresh_ns`, when non-empty, namespaces the enumeration's fresh symbols
// (deterministic names under concurrent summarization). `smt_skipped`,
// when non-null, accumulates the checks static pruning avoided.
std::optional<PreCondition> compute_precondition_by_enumeration(
    ir::Context& ctx, const cfg::Cfg& g, cfg::NodeId target,
    size_t path_limit, uint64_t* smt_checks = nullptr,
    const std::string& fresh_ns = {}, bool static_pruning = true,
    uint64_t* smt_skipped = nullptr,
    const util::CancelToken* cancel = nullptr,
    smt::PathCondCache* shared_pc_cache = nullptr);

// The pre-condition `info`'s pipeline is summarized under; the only place
// choosing between the two above: none without precondition_filtering,
// else the enumeration (opts' pruning, cancel and cache; a cancelled one
// returns a partial path set), the meet beyond max_precondition_paths.
PreCondition public_precondition(ir::Context& ctx, const cfg::Cfg& g,
                                 const cfg::InstanceInfo& info,
                                 const SummaryOptions& opts,
                                 uint64_t* smt_checks = nullptr,
                                 uint64_t* smt_skipped = nullptr);

struct PipelineSummary {
  std::string instance;
  util::BigCount paths_before;  // possible paths in the original subgraph
  uint64_t paths_after = 0;     // summarized (valid) paths
  uint64_t smt_checks = 0;      // solver checks spent summarizing
  double seconds = 0.0;
  uint64_t smt_skipped = 0;     // checks avoided by static pruning
  bool resumed = false;         // replayed from SummaryHooks::resume
};

struct SummaryResult {
  cfg::Cfg graph;  // the summarized CFG
  std::vector<PipelineSummary> per_pipeline;
  uint64_t total_smt_checks = 0;
  uint64_t total_smt_skipped = 0;
  // SummaryOptions::cancel fired: the graph is partially summarized and
  // must not be explored; per_pipeline covers completed pipelines only.
  bool cancelled = false;
  // Pipelines restored from SummaryHooks::resume (explore skipped).
  uint64_t resumed_pipelines = 0;
};

// Runs code summary over `g` (which must have instance metadata).
SummaryResult summarize(ir::Context& ctx, const cfg::Cfg& g,
                        const SummaryOptions& opts = {});

}  // namespace meissa::summary
