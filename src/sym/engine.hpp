// The symbolic-execution engine — Algorithm 1 of the paper: DFS over the
// CFG maintaining the value stack V and condition stack C, with early
// termination (a satisfiability check at every predicate node) backed by
// an incremental solver (push on descend, pop on backtrack).
//
// The engine is reused by three callers:
//   * test-case generation over the whole (or summarized) CFG,
//   * the code-summary pass, which runs it *within* one pipeline subgraph
//     (custom start/stop nodes, seeded state and preconditions),
//   * baselines, which disable early termination and/or incrementality.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "analysis/dataflow.hpp"
#include "analysis/env.hpp"
#include "cfg/cfg.hpp"
#include "smt/cache.hpp"
#include "smt/solver.hpp"
#include "sym/state.hpp"
#include "util/cancel.hpp"
#include "util/faultinject.hpp"
#include "util/supervise.hpp"

namespace meissa::sym {

struct EngineOptions {
  // Prune at every predicate node (paper §3.2). Off = check only at leaves
  // (the Gauntlet-style model-based mode).
  bool early_termination = true;
  // Paper-faithful Algorithm 1: a solver call at EVERY predicate node
  // (Fig. 6's Sym.Predicate rule). Off (default) enables this
  // implementation's optimization of deciding constant-folded predicates
  // without touching the solver.
  bool check_every_predicate = false;
  // Reuse one incremental solver with push/pop. Off = build a fresh solver
  // and re-assert the whole condition stack at every check (p4pktgen-style).
  bool incremental = true;
  // Use the Z3 backend instead of Meissa's own solver.
  bool use_z3 = false;
  // Exploration starts here (kNoNode: the CFG entry)...
  cfg::NodeId start = cfg::kNoNode;
  // ...and treats this node as a leaf without executing it (kNoNode: run to
  // terminals). Used by code summary to stop at a pipeline's entry/exit.
  cfg::NodeId stop = cfg::kNoNode;
  // Safety cap on emitted results; 0 = unlimited.
  uint64_t max_results = 0;
  // Wall-clock budget in seconds; 0 = unlimited. Exceeding it aborts the
  // exploration and sets EngineStats::timed_out (used to reproduce the
  // paper's one-hour-budget timeouts, Fig. 9).
  double time_budget_seconds = 0;
  // Namespace for fresh "$free" symbols. Empty: draw from the shared
  // Context counter (scheduling-dependent under concurrency). Non-empty:
  // names become "$free.<ns>.<k>" with a per-exploration counter, so every
  // symbol this exploration mints is deterministic. run_parallel() extends
  // the namespace per shard ("<ns>.s<i>").
  std::string fresh_ns;
  // Decide predicates statically before the solver sees them: prune
  // branches refuted by the per-path abstract environment (and by `facts`,
  // when provided), and skip checks whose outcome the environment implies.
  // Every decision matches what the solver would conclude, so the emitted
  // path set is identical with this on or off. Disabled automatically in
  // check_every_predicate mode (the paper-faithful ablation).
  bool static_pruning = true;
  // Optional precomputed dataflow facts for this graph (refuted assume
  // nodes). Must be computed from the same start node with a TOP boundary
  // (analysis::compute_facts) and outlive the engine.
  const analysis::Facts* facts = nullptr;
  // Per-check solver resource budget. A check that exhausts it yields
  // kUnknown and the affected branch is recorded as *degraded* (counted in
  // EngineStats::degraded_paths) instead of being silently dropped or
  // aborting the run. Default = unlimited: behavior (and output) identical
  // to a build without budget support.
  smt::Budget budget;
  // Optional cooperative cancellation: polled at DFS safe points; when set
  // and fired, the exploration unwinds cleanly with partial results and
  // EngineStats::cancelled = true. Must outlive the run.
  const util::CancelToken* cancel = nullptr;
  // Caller-owned path-condition verdict cache (smt/cache.hpp), consulted
  // before any backend runs and shared by every shard of a parallel
  // exploration and by every engine the caller hands it to (the
  // incremental re-testing session warms it on the baseline run and
  // reuses it for every update). Null = no cache. Only consulted under an
  // unlimited per-check budget — with a limited budget a cached definite
  // verdict could mask a budget-dependent kUnknown and make the degraded-
  // coverage split scheduling-dependent. Sharing across engines with
  // different preconditions — and across runs — is sound because cache
  // keys cover the *full* asserted conjunct set: every exploration's
  // signature starts from the engine's precondition signature, so a
  // verdict is a pure semantic property of the formula, valid for any
  // engine over the same ir::Context. Must outlive every sharing engine.
  smt::PathCondCache* shared_pc_cache = nullptr;
};

struct EngineStats {
  uint64_t valid_paths = 0;     // results emitted
  uint64_t pruned_paths = 0;    // DFS branches cut (early termination/leaf)
  uint64_t folded_checks = 0;   // predicates decided by substitution alone
  uint64_t nodes_visited = 0;
  // Terminals reached that were not the requested stop node (stop mode).
  uint64_t offtarget_paths = 0;
  // Static pruning: branches refuted without a solver call...
  uint64_t static_prunes = 0;
  // ...and solver checks skipped because the predicate's outcome was
  // statically certain (implied by, or field-wise satisfiable under, the
  // recorded path constraints).
  uint64_t skipped_checks = 0;
  // Branches abandoned because a budgeted check returned kUnknown: the
  // solver could not decide them within its Budget. Disjoint from
  // pruned_paths (those are *proven* infeasible); exact coverage is
  // valid_paths, degraded_paths bounds what the budget may have cost.
  uint64_t degraded_paths = 0;
  bool timed_out = false;
  // The run's CancelToken fired and the exploration unwound early.
  bool cancelled = false;
  // run_parallel shard supervision/resume accounting: shards retried after
  // a watchdog trip or injected fault, shards abandoned after the retry
  // failed too (their subtree's coverage is unknown — degraded, like
  // degraded_paths, not proven empty), and shards restored or replayed
  // from a ParallelHooks::resume snapshot.
  uint64_t requeued_shards = 0;
  uint64_t degraded_shards = 0;
  uint64_t resumed_shards = 0;
  // Path-condition cache traffic (shared_pc_cache set): checks answered
  // from the cache vs. sent to a backend.
  uint64_t pc_cache_hits = 0;
  uint64_t pc_cache_misses = 0;
  smt::SolverStats solver;      // checks = the paper's "# of SMT calls"

  // Accumulate counters from another exploration (per-shard workers).
  EngineStats& operator+=(const EngineStats& o) {
    valid_paths += o.valid_paths;
    pruned_paths += o.pruned_paths;
    folded_checks += o.folded_checks;
    nodes_visited += o.nodes_visited;
    offtarget_paths += o.offtarget_paths;
    static_prunes += o.static_prunes;
    skipped_checks += o.skipped_checks;
    degraded_paths += o.degraded_paths;
    timed_out = timed_out || o.timed_out;
    cancelled = cancelled || o.cancelled;
    requeued_shards += o.requeued_shards;
    degraded_shards += o.degraded_shards;
    resumed_shards += o.resumed_shards;
    pc_cache_hits += o.pc_cache_hits;
    pc_cache_misses += o.pc_cache_misses;
    solver += o.solver;
    return *this;
  }
};

// One explored valid path, in input terms.
struct PathResult {
  cfg::Path path;
  std::vector<ir::ExprRef> conds;  // path condition conjuncts
  std::unordered_map<ir::FieldId, ir::ExprRef> values;  // final V
  std::vector<HashObligation> obligations;
  cfg::ExitKind exit = cfg::ExitKind::kNone;
  int emit_instance = -1;
};

// Externally serializable progress of one prefix shard in run_parallel:
// the results buffered so far, the *frontier* (the full node path of the
// last emitted result, shard start to leaf — the DFS work-unit cursor),
// and the fresh-symbol counter at that point. A ShardProgress round-
// tripped through the checkpoint format and fed back via
// ParallelHooks::resume continues the shard to the exact result set an
// uninterrupted run produces: the frontier is replayed check-free (every
// prefix mint pinned to its original name), then exploration proceeds
// with the siblings the original run had not yet visited.
struct ShardProgress {
  bool done = false;
  std::vector<PathResult> results;
  cfg::Path frontier;          // empty until the first result is emitted
  uint64_t fresh_counter = 0;  // SymState counter at the frontier
  EngineStats stats;           // shard stats at the frontier (final if done)
};

// Supervised attempts per shard: a tripped attempt is re-queued once on a
// fresh context, then the shard degrades (see ParallelHooks::supervisor).
inline constexpr int kMaxShardAttempts = 2;

// Optional supervision / checkpointing hooks for run_parallel.
struct ParallelHooks {
  // Snapshot cadence: fire `progress` after every N emitted results per
  // shard (0 = only at shard completion, when `progress` is set).
  uint64_t checkpoint_every = 0;
  // Fired once, before any worker starts, with the shard count of this
  // graph's decomposition (so a checkpoint can pre-size its shard table —
  // every index passed to `progress` is below this count).
  std::function<void(size_t)> on_shards;
  // Consistent snapshot of shard `i`'s progress. Called from worker
  // threads — the receiver synchronizes.
  std::function<void(size_t, const ShardProgress&)> progress;
  // Per-shard prior progress to resume from. Ignored (fresh run) unless
  // its size matches this graph's shard decomposition.
  const std::vector<ShardProgress>* resume = nullptr;
  // Watchdog: every shard attempt runs as a supervised task whose token
  // the DFS polls; a tripped attempt discards its partials and is re-run
  // on a fresh context (kMaxShardAttempts total), after which the shard is
  // marked degraded (EngineStats::degraded_shards) and contributes no
  // results — accounted, never silently dropped.
  util::Supervisor* supervisor = nullptr;
  // Fault injection: execution sites "shard.<i>" fire at attempt start.
  util::FaultInjector* fault = nullptr;
};

class Engine {
 public:
  using Sink = std::function<void(const PathResult&)>;

  Engine(ir::Context& ctx, const cfg::Cfg& g, EngineOptions opts = {});

  // Asserted before exploration; constrains every path (used for public
  // pre-conditions and LPI assumes).
  void add_precondition(ir::ExprRef c);
  // Seeds the value stack (used by code summary: entry snapshots / V_pub).
  void seed_value(ir::FieldId f, ir::ExprRef value);

  // Runs the DFS; invokes `sink` for every valid path found.
  void run(const Sink& sink);

  // Parallel DFS: decomposes the exploration into a fixed, thread-count-
  // independent set of prefix shards, explores them on `threads` workers
  // (0 = hardware concurrency), each with its own SymState and incremental
  // solver, then replays buffered results to `sink` in shard order — i.e.
  // sequential-DFS pre-order. The emitted result set is identical for every
  // thread count (fresh symbols are namespaced per shard, so set fresh_ns
  // for fully deterministic names). Requires a time budget of 0 or generous
  // enough not to trigger; on timeout the result set is scheduling-
  // dependent, exactly as a timed-out sequential run is input-dependent.
  void run_parallel(const Sink& sink, int threads);
  // As above, with checkpoint/resume snapshots, watchdog supervision and
  // fault injection (see ParallelHooks). The emitted result set stays
  // byte-identical across thread counts, across checkpoint cadences, and
  // across kill/resume cycles; only degraded shards (supervision gave up)
  // subtract from it, and those are counted.
  void run_parallel(const Sink& sink, int threads, const ParallelHooks& hooks);

  const EngineStats& stats() const { return stats_; }

  // Solves this result's path condition (plus preconditions) and returns a
  // satisfying input assignment; nullopt if (unexpectedly) unsat. The model
  // covers every field mentioned; unmentioned inputs are free.
  // Thread-safe: builds a fresh solver per call.
  std::optional<smt::Model> solve_for_model(const PathResult& r);

 private:
  // All per-exploration mutable state (value/condition stacks, incremental
  // solver, current path, stats, deadline). run() uses one; run_parallel()
  // one per shard.
  struct ExplorationContext;

  // Expands the DFS tree from the start node, in successor order, into at
  // least `target` prefix paths (fewer when the tree is smaller). Pure
  // function of the graph — independent of thread count.
  std::vector<cfg::Path> compute_shards(size_t target) const;
  std::unique_ptr<smt::Solver> make_solver() const;

  ir::Context& ctx_;
  const cfg::Cfg& g_;
  EngineOptions opts_;
  std::vector<ir::ExprRef> preconds_;
  // Commutative signature of the asserted preconditions (multiset — a
  // re-added conjunct shifts the key but never the verdict). Every
  // exploration's path signature starts here, so cache keys cover the full
  // formula and verdicts transfer across engines and runs.
  smt::PathSig precond_sig_;
  std::vector<std::pair<ir::FieldId, ir::ExprRef>> seeds_;
  std::vector<bool> reaches_stop_;  // stop mode: region that reaches stop
  // Static gates active: pruning on, not in the paper-faithful ablation,
  // and the facts (if any) cover this graph.
  bool gates_ = false;
  bool use_facts_ = false;
  EngineStats stats_;
};

}  // namespace meissa::sym
