#include "driver/generator.hpp"

#include <algorithm>
#include <chrono>

#include "analysis/dataflow.hpp"
#include "analysis/impact.hpp"
#include "driver/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spec/intent.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace meissa::driver {

namespace {
double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

Generator::Generator(ir::Context& ctx, const p4::DataPlane& dp,
                     const p4::RuleSet& rules, GenOptions opts)
    : ctx_(ctx), dp_(dp), opts_(std::move(opts)) {
  auto t0 = std::chrono::steady_clock::now();
  {
    obs::Span span("build cfg", "gen");
    original_ = cfg::build_cfg(dp, rules, ctx, opts_.build);
    span.arg("nodes", original_.size());
  }
  stats_.build_seconds = secs_since(t0);
  stats_.paths_original = original_.count_paths();
  active_ = &original_;
}

std::vector<sym::TestCaseTemplate> Generator::generate() {
  const int threads = util::resolve_threads(opts_.threads);

  // Crash safety: checkpoint manager + the prior run's state, when asked
  // to resume. The content key guards against applying a checkpoint from
  // a different option set — load() simply finds nothing — while unit
  // fingerprints let the summary replay just the regions a changed
  // *program* left intact, and the whole-graph hash gates the frontiers.
  std::unique_ptr<CheckpointManager> ckpt;
  CheckpointData prior;
  bool have_prior = false;
  if (!opts_.checkpoint_dir.empty()) {
    const uint64_t key = checkpoint_content_key(ctx_, original_, opts_);
    ckpt = std::make_unique<CheckpointManager>(
        ctx_, opts_.checkpoint_dir, key, opts_.fault,
        analysis::fingerprint_graph(ctx_, original_));
    if (opts_.resume) {
      have_prior = ckpt->load(prior);
      if (have_prior) obs::instant("checkpoint loaded", "gen");
    }
  }
  summary::SummaryHooks shooks;
  if (ckpt != nullptr) {
    shooks.on_unit = [&](size_t, const summary::SummaryUnit& u) {
      ckpt->add_unit(u);
    };
    if (have_prior) shooks.resume = &prior.units;
  }

  if (opts_.code_summary && !summarized_) {
    auto t0 = std::chrono::steady_clock::now();
    obs::Span span("summary", "gen");
    summary::SummaryOptions so;
    so.precondition_filtering = opts_.precondition_filtering;
    so.check_every_predicate = opts_.check_every_predicate;
    so.threads = threads;
    so.static_pruning = opts_.static_pruning;
    so.cancel = opts_.cancel;
    so.shared_pc_cache = opts_.shared_pc_cache;
    so.hooks = ckpt != nullptr ? &shooks : opts_.summary_hooks;
    summarized_ = summary::summarize(ctx_, original_, so);
    stats_.summary_seconds = secs_since(t0);
    stats_.resumed_pipelines = summarized_->resumed_pipelines;
    if (summarized_->cancelled) {
      // A partially summarized graph must never be explored; report the
      // cancel and stop before the DFS.
      stats_.cancelled = true;
      stats_.resumed = have_prior && stats_.resumed_pipelines > 0;
      stats_.total_seconds = stats_.build_seconds + stats_.summary_seconds;
      summarized_.reset();  // a later generate() re-runs the summary
      return {};
    }
    stats_.pipelines = summarized_->per_pipeline;
    stats_.smt_checks += summarized_->total_smt_checks;
    stats_.smt_calls_skipped += summarized_->total_smt_skipped;
    active_ = &summarized_->graph;
    span.arg("pipelines", summarized_->per_pipeline.size());
    span.arg("smt_checks", summarized_->total_smt_checks);

    if (opts_.validate_summary) {
      auto tv = std::chrono::steady_clock::now();
      obs::Span vspan("validate summary", "gen");
      analysis::ValidateOptions vo;
      vo.summary = so;
      validation_ = analysis::validate_summary(ctx_, original_,
                                               summarized_->graph, vo);
      stats_.validate_seconds = secs_since(tv);
      stats_.validate_obligations = validation_->obligations;
      stats_.validate_unsat = validation_->unsat;
      stats_.validate_unproven = validation_->unproven;
      stats_.validate_refuted = validation_->refuted;
      stats_.smt_checks += validation_->smt_checks;
      vspan.arg("obligations", validation_->obligations);
      vspan.arg("refuted", validation_->refuted);
      if (const analysis::Obligation* o = validation_->first_refuted()) {
        throw util::ValidationError(util::format(
            "summary validation refuted [%s] in pipeline '%s' at edge "
            "%u->%u: %s",
            analysis::obligation_kind_name(o->kind), o->pipeline.c_str(),
            o->orig_from, o->orig_node, o->detail.c_str()));
      }
    }
  }
  stats_.paths_summarized = active_->count_paths();

  sym::EngineOptions eopts;
  eopts.early_termination = opts_.early_termination;
  eopts.check_every_predicate = opts_.check_every_predicate;
  eopts.incremental = opts_.incremental;
  eopts.max_results = opts_.max_templates;
  eopts.time_budget_seconds = opts_.time_budget_seconds;
  eopts.fresh_ns = "dfs";
  eopts.static_pruning = opts_.static_pruning;
  eopts.budget = opts_.smt_budget;
  eopts.cancel = opts_.cancel;
  eopts.shared_pc_cache = opts_.shared_pc_cache;
  if (opts_.static_pruning && !opts_.check_every_predicate) {
    facts_ = analysis::compute_facts(ctx_, *active_, active_->entry());
    eopts.facts = &facts_;
  }
  engine_ = std::make_unique<sym::Engine>(ctx_, *active_, eopts);
  for (ir::ExprRef a : opts_.assumes) {
    engine_->add_precondition(spec::assume_to_precondition(a, ctx_));
  }

  auto t0 = std::chrono::steady_clock::now();
  obs::Span dfs_span("dfs", "gen");
  std::vector<sym::TestCaseTemplate> templates;
  const bool diagnose = !opts_.code_summary;

  // Supervision / checkpointing hooks for the sharded DFS. The supervisor
  // is per-run (its watchdog joins before run_parallel returns its merge).
  util::Supervisor supervisor(opts_.supervise);
  sym::ParallelHooks phooks;
  phooks.checkpoint_every = opts_.checkpoint_every;
  if (ckpt != nullptr) {
    phooks.on_shards = [&](size_t n) { ckpt->begin_shards(n); };
    phooks.progress = [&](size_t i, const sym::ShardProgress& p) {
      ckpt->update_shard(i, p);
    };
    if (have_prior && !prior.shards.empty()) phooks.resume = &prior.shards;
  }
  phooks.supervisor = opts_.supervise.enabled() ? &supervisor : nullptr;
  phooks.fault = opts_.fault;

  // Always the sharded exploration, whatever the thread count: threads=1
  // runs the same shards inline, so shard namespaces — and therefore the
  // emitted templates — are byte-identical across thread counts.
  engine_->run_parallel([&](const sym::PathResult& r) {
    sym::TestCaseTemplate t =
        sym::make_template(ctx_, *active_, r, templates.size());
    if (diagnose) {
      t.diagnostics = sym::find_invalid_header_reads(ctx_, *active_, t.path);
      stats_.diagnostics += t.diagnostics.size();
    }
    templates.push_back(std::move(t));
  }, threads, phooks);
  // Emission order is already sequential-DFS order; keep the contract
  // explicit (and robust to future sink changes).
  std::stable_sort(templates.begin(), templates.end(),
                   [](const sym::TestCaseTemplate& a,
                      const sym::TestCaseTemplate& b) { return a.id < b.id; });
  stats_.dfs_seconds = secs_since(t0);
  stats_.engine = engine_->stats();
  stats_.resumed = have_prior && (stats_.resumed_pipelines > 0 ||
                                  stats_.engine.resumed_shards > 0);
  stats_.timed_out = engine_->stats().timed_out;
  stats_.cancelled = engine_->stats().cancelled;
  stats_.exact_paths = engine_->stats().valid_paths;
  stats_.degraded_paths = engine_->stats().degraded_paths;
  stats_.smt_unknowns = engine_->stats().solver.unknowns;
  stats_.pc_cache_hits = engine_->stats().pc_cache_hits;
  stats_.pc_cache_misses = engine_->stats().pc_cache_misses;
  stats_.smt_checks += engine_->stats().solver.checks;
  stats_.smt_calls_skipped +=
      engine_->stats().static_prunes + engine_->stats().skipped_checks;
  stats_.templates = templates.size();
  if (ckpt != nullptr) {
    stats_.checkpoint_writes = ckpt->writes();
    stats_.checkpoint_failures = ckpt->failures();
  }
  stats_.total_seconds = stats_.build_seconds + stats_.summary_seconds +
                         stats_.validate_seconds + stats_.dfs_seconds;
  dfs_span.arg("templates", templates.size());
  dfs_span.arg("smt_checks", engine_->stats().solver.checks);
  if (obs::metrics_enabled()) {
    obs::metrics().counter("gen.templates").add(templates.size());
    obs::metrics().counter("gen.smt_checks").add(stats_.smt_checks);
    obs::metrics()
        .counter("gen.smt_calls_skipped")
        .add(stats_.smt_calls_skipped);
    obs::metrics().counter("gen.pc_cache_hits").add(stats_.pc_cache_hits);
    obs::metrics().counter("gen.pc_cache_misses").add(stats_.pc_cache_misses);
    if (ckpt != nullptr) {
      obs::metrics().counter("checkpoint.writes").add(stats_.checkpoint_writes);
      obs::metrics()
          .counter("checkpoint.failures")
          .add(stats_.checkpoint_failures);
    }
  }
  return templates;
}

}  // namespace meissa::driver
