// Test-case generation facade: CFG build → (optional) code summary →
// DFS test-case template generation, with the statistics the paper's
// evaluation reports (time, SMT calls, path counts).
#pragma once

#include <memory>

#include "analysis/validate.hpp"
#include "cfg/build.hpp"
#include "summary/summary.hpp"
#include "sym/template.hpp"
#include "util/faultinject.hpp"
#include "util/supervise.hpp"

namespace meissa::driver {

struct GenOptions {
  // The paper's headline technique; off = the basic framework (§3.2).
  bool code_summary = true;
  cfg::BuildOptions build;
  // Summary pass settings; the rest derive from the fields below.
  bool precondition_filtering = true;  // see summary::SummaryOptions
  // Unit capture/replay; checkpoint_dir displaces it. Must outlive generate().
  const summary::SummaryHooks* summary_hooks = nullptr;
  // Engine ablations (also used by the baseline reimplementations).
  bool early_termination = true;
  bool check_every_predicate = false;  // paper-faithful Algorithm 1 mode
  bool incremental = true;
  // Generation-time assumptions over in.* fields (LPI assumes).
  std::vector<ir::ExprRef> assumes;
  // Decide predicates statically ahead of the solver (summary pass and
  // final DFS). Solver-equivalent: the emitted templates are identical
  // with this on or off; only the SMT-call count changes.
  bool static_pruning = true;
  uint64_t max_templates = 0;  // 0 = unlimited
  double time_budget_seconds = 0;  // 0 = unlimited (final DFS budget)
  // Worker threads for the summary pass and the final DFS (0 = hardware
  // concurrency). Any value yields the same templates: the exploration is
  // sharded deterministically and results merge in sequential DFS order.
  int threads = 0;
  // Per-check solver budget for the final DFS. Applies to the final DFS
  // only, never to the summary pass: a degraded check inside a summary
  // would silently change the summarized graph every later run depends on,
  // whereas a degraded final-DFS branch is visibly accounted (exact vs.
  // degraded coverage). Default = unlimited → output byte-identical.
  smt::Budget smt_budget;
  // Translation validation of the code-summary transform: after
  // summarize(), prove every eliminated path-fragment infeasible and the
  // surviving summary a simulation of the original. A refuted obligation
  // fails generation (util::ValidationError naming the pipeline and edge);
  // budget-exhausted obligations are reported as unproven in GenStats but
  // do not fail. Off by default: validation adds solver work and the
  // emitted templates are identical either way. Obligations run unbudgeted.
  bool validate_summary = false;
  // Externally-owned verdict cache shared across Generator runs (the
  // incremental session warms it on the baseline and reuses it per
  // update). Null = no cache. Forwarded to the summary pass and the final
  // DFS as EngineOptions::shared_pc_cache — see the precondition contract
  // there. Output-transparent: templates are byte-identical with or
  // without it. Must outlive generate().
  smt::PathCondCache* shared_pc_cache = nullptr;
  // Optional cooperative stop for the whole generation (polled by the DFS
  // workers). Must outlive generate().
  const util::CancelToken* cancel = nullptr;
  // Crash safety: non-empty = write versioned work-unit checkpoints into
  // this directory at summary wave boundaries and every `checkpoint_every`
  // emitted results per DFS shard. With `resume`, a valid checkpoint from
  // a prior (killed) run of the *same* program and options — content-key
  // guarded — is loaded first, and the run continues to templates byte-
  // identical to an uninterrupted run's.
  std::string checkpoint_dir;
  bool resume = false;
  uint64_t checkpoint_every = 8;
  // Shard supervision: when enabled, every DFS shard attempt runs under a
  // watchdog (per-shard heartbeats; stall/deadline trips cancel the
  // attempt). A tripped shard is re-queued once on a fresh context; a
  // second failure degrades it (counted, never silently dropped).
  util::SuperviseOptions supervise;
  // Runtime fault injection (tests/stress): consulted at shard starts and
  // checkpoint writes. Must outlive generate().
  util::FaultInjector* fault = nullptr;
};

struct GenStats {
  bool timed_out = false;
  // The GenOptions::cancel token fired and generation stopped early.
  bool cancelled = false;
  double build_seconds = 0;
  double summary_seconds = 0;
  double dfs_seconds = 0;
  double total_seconds = 0;
  uint64_t smt_checks = 0;  // summary + final DFS ("# of SMT calls")
  // Solver calls avoided by static pruning (summary + final DFS): branches
  // refuted and checks skipped without touching the solver.
  uint64_t smt_calls_skipped = 0;
  uint64_t templates = 0;
  uint64_t diagnostics = 0;  // invalid-header reads (unsummarized graph only)
  // Coverage split under solver budgets (final DFS): exact_paths are the
  // emitted templates, degraded_paths the branches a budgeted check could
  // not decide. exact + degraded = every branch the DFS tried to settle
  // and did not prove infeasible. smt_unknowns counts the kUnknown checks.
  uint64_t exact_paths = 0;
  uint64_t degraded_paths = 0;
  uint64_t smt_unknowns = 0;
  // Final-DFS traffic of GenOptions::shared_pc_cache: checks answered by
  // the cache vs. sent to a backend.
  uint64_t pc_cache_hits = 0;
  uint64_t pc_cache_misses = 0;
  // Always 0: no engine reuses sat models. Kept only because the gw-4
  // benchmark driver (perfbench) reports it as its smt.model_reuse metric.
  uint64_t pc_model_reuse = 0;
  // Summary translation validation (GenOptions::validate_summary).
  uint64_t validate_obligations = 0;
  uint64_t validate_unsat = 0;
  uint64_t validate_unproven = 0;
  uint64_t validate_refuted = 0;
  double validate_seconds = 0;
  // Crash safety & supervision (GenOptions::checkpoint_dir / supervise):
  // a loaded checkpoint saved work (a pipeline replayed or a DFS shard
  // restored; an accepted checkpoint whose units all went stale leaves it
  // false); pipelines whose explore phase was skipped; checkpoint persists that
  // succeeded / failed (failures never abort the run — it just keeps the
  // previous file). Shard-level requeue/degrade/resume counts live in
  // `engine` (EngineStats).
  bool resumed = false;
  uint64_t resumed_pipelines = 0;
  uint64_t checkpoint_writes = 0;
  uint64_t checkpoint_failures = 0;
  util::BigCount paths_original;    // possible paths, original CFG
  util::BigCount paths_summarized;  // possible paths after code summary
  std::vector<summary::PipelineSummary> pipelines;
  sym::EngineStats engine;

  // Accumulate another run's stats (benchmark aggregation across apps).
  GenStats& operator+=(const GenStats& o) {
    timed_out = timed_out || o.timed_out;
    cancelled = cancelled || o.cancelled;
    build_seconds += o.build_seconds;
    summary_seconds += o.summary_seconds;
    dfs_seconds += o.dfs_seconds;
    total_seconds += o.total_seconds;
    smt_checks += o.smt_checks;
    smt_calls_skipped += o.smt_calls_skipped;
    templates += o.templates;
    diagnostics += o.diagnostics;
    exact_paths += o.exact_paths;
    degraded_paths += o.degraded_paths;
    smt_unknowns += o.smt_unknowns;
    pc_cache_hits += o.pc_cache_hits;
    pc_cache_misses += o.pc_cache_misses;
    pc_model_reuse += o.pc_model_reuse;
    validate_obligations += o.validate_obligations;
    validate_unsat += o.validate_unsat;
    validate_unproven += o.validate_unproven;
    validate_refuted += o.validate_refuted;
    validate_seconds += o.validate_seconds;
    resumed = resumed || o.resumed;
    resumed_pipelines += o.resumed_pipelines;
    checkpoint_writes += o.checkpoint_writes;
    checkpoint_failures += o.checkpoint_failures;
    paths_original += o.paths_original;
    paths_summarized += o.paths_summarized;
    pipelines.insert(pipelines.end(), o.pipelines.begin(), o.pipelines.end());
    engine += o.engine;
    return *this;
  }
};

class Generator {
 public:
  Generator(ir::Context& ctx, const p4::DataPlane& dp,
            const p4::RuleSet& rules, GenOptions opts = {});

  // Runs summary (once) + DFS and returns all templates.
  std::vector<sym::TestCaseTemplate> generate();

  const GenStats& stats() const { return stats_; }
  const cfg::Cfg& graph() const { return *active_; }          // DFS graph
  const cfg::Cfg& original_graph() const { return original_; }
  // Full validation result (GenOptions::validate_summary); nullptr when
  // validation did not run.
  const analysis::ValidationResult* validation() const {
    return validation_ ? &*validation_ : nullptr;
  }
  // The engine used for the final DFS; valid after generate(). Exposes
  // solve_for_model for the sender.
  sym::Engine& engine() { return *engine_; }

  const p4::DataPlane& dataplane() const { return dp_; }

 private:
  ir::Context& ctx_;
  const p4::DataPlane& dp_;
  GenOptions opts_;
  cfg::Cfg original_;
  std::optional<summary::SummaryResult> summarized_;
  std::optional<analysis::ValidationResult> validation_;
  const cfg::Cfg* active_ = nullptr;
  // Dataflow facts for the final-DFS graph; must outlive engine_.
  analysis::Facts facts_;
  std::unique_ptr<sym::Engine> engine_;
  GenStats stats_;
};

}  // namespace meissa::driver
