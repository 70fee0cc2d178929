#include "driver/incremental.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::driver {

namespace {

const std::string& instance_name(const cfg::Cfg& g, int idx,
                                 const std::string& fallback) {
  if (idx < 0 || static_cast<size_t>(idx) >= g.instances().size()) {
    return fallback;
  }
  return g.instances()[idx].name;
}

}  // namespace

std::string IncrementalSession::coverage_signature(
    const ir::Context& ctx, const cfg::Cfg& g,
    const sym::TestCaseTemplate& t) {
  static const std::string kNone = "-";
  std::string s;
  s += t.exit == cfg::ExitKind::kEmit   ? "emit"
       : t.exit == cfg::ExitKind::kDrop ? "drop"
                                        : "none";
  s += '|';
  s += instance_name(g, t.entry_instance, kNone);
  s += '|';
  s += instance_name(g, t.emit_instance, kNone);
  s += '|';
  if (t.path_condition != nullptr) {
    s += ir::to_string(t.path_condition, ctx.fields);
  }
  std::vector<std::pair<std::string, ir::ExprRef>> values;
  values.reserve(t.final_values.size());
  for (const auto& [f, v] : t.final_values) {
    values.emplace_back(ctx.fields.name(f), v);
  }
  std::sort(values.begin(), values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [name, v] : values) {
    s += '|';
    s += name;
    s += '=';
    s += ir::to_string(v, ctx.fields);
  }
  for (const sym::HashObligation& o : t.obligations) {
    s += "|#";
    if (o.placeholder != ir::kInvalidField) {
      s += ctx.fields.name(o.placeholder);
    }
    for (ir::ExprRef k : o.key_exprs) {
      s += ',';
      s += ir::to_string(k, ctx.fields);
    }
  }
  return s;
}

std::string IncrementalSession::full_signature(const ir::Context& ctx,
                                               const cfg::Cfg& g,
                                               const sym::TestCaseTemplate& t) {
  std::string s = coverage_signature(ctx, g, t);
  s += "|path:";
  for (cfg::NodeId n : t.path) {
    s += util::format("%u,", n);
  }
  return s;
}

IncrementalSession::IncrementalSession(ir::Context& ctx,
                                       const p4::DataPlane& dp,
                                       IncrementalOptions opts)
    : ctx_(ctx), dp_(dp), opts_(std::move(opts)) {
  util::check(opts_.gen.code_summary,
              "incremental: code_summary is the reuse grain and must be on");
  util::check(opts_.gen.checkpoint_dir.empty(),
              "incremental: checkpoint_dir displaces the session's summary "
              "hooks; use one or the other");
}

UpdateReport IncrementalSession::run(const p4::RuleSet& rules) {
  UpdateReport report;
  report.run = runs_;
  obs::Span span("incremental.update", "incremental");
  span.arg("run", runs_);

  // The session's own summary hooks: capture every unit (for the next
  // run's replay) and hand all of the previous run's units back as resume
  // input; the summary decides which of them replay. Valid only because
  // checkpoint_dir is empty — the generator installs its own hooks
  // otherwise.
  std::unordered_map<std::string, summary::SummaryUnit> captured;
  summary::SummaryHooks hooks;
  hooks.on_unit = [&](size_t, const summary::SummaryUnit& u) {
    captured[u.instance] = u;
  };
  if (!units_.empty()) hooks.resume = &units_;
  GenOptions gopts = opts_.gen;
  gopts.summary_hooks = &hooks;
  gopts.shared_pc_cache = &cache_;

  Generator gen(ctx_, dp_, rules, gopts);
  report.templates = gen.generate();
  report.stats = gen.stats();
  report.summaries_reused = report.stats.resumed_pipelines;
  // The summary reports a replayed unit's *stored* solver counts (so the
  // per-pipeline table stays meaningful); those checks were never paid
  // this run and must not count against the update.
  uint64_t replayed_checks = 0;
  for (const summary::PipelineSummary& p : report.stats.pipelines) {
    (p.resumed ? report.impact.clean : report.impact.dirty)
        .push_back(p.instance);
    if (p.resumed) replayed_checks += p.smt_checks;
  }
  report.smt_checks = report.stats.smt_checks >= replayed_checks
                          ? report.stats.smt_checks - replayed_checks
                          : 0;
  report.pc_cache_hits = report.stats.pc_cache_hits;
  report.seconds = report.stats.total_seconds;

  // Delta coverage: sorted-multiset diff of semantic signatures against
  // the previous run.
  std::vector<std::string> sigs;
  sigs.reserve(report.templates.size());
  for (const sym::TestCaseTemplate& t : report.templates) {
    sigs.push_back(coverage_signature(ctx_, gen.graph(), t));
    report.full_sigs.push_back(full_signature(ctx_, gen.graph(), t));
  }
  std::sort(sigs.begin(), sigs.end());
  std::sort(report.full_sigs.begin(), report.full_sigs.end());
  {
    size_t i = 0;
    size_t j = 0;
    while (i < sigs.size() && j < prev_sigs_.size()) {
      if (sigs[i] == prev_sigs_[j]) {
        ++report.unchanged;
        ++i;
        ++j;
      } else if (sigs[i] < prev_sigs_[j]) {
        ++report.added;
        ++i;
      } else {
        ++report.removed;
        ++j;
      }
    }
    report.added += sigs.size() - i;
    report.removed += prev_sigs_.size() - j;
  }

  if (obs::metrics_enabled()) {
    obs::metrics()
        .counter("impact.regions_dirty")
        .add(report.impact.dirty.size());
    obs::metrics()
        .counter("impact.regions_clean")
        .add(report.impact.clean.size());
    obs::metrics()
        .counter("impact.summaries_reused")
        .add(report.summaries_reused);
  }
  span.arg("dirty", report.impact.dirty.size());
  span.arg("clean", report.impact.clean.size());
  span.arg("reused", report.summaries_reused);
  span.arg("added", report.added);
  span.arg("removed", report.removed);

  units_ = std::move(captured);
  report.coverage_sigs = sigs;
  prev_sigs_ = std::move(sigs);
  ++runs_;
  return report;
}

}  // namespace meissa::driver
