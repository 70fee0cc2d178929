#include "summary/summary.hpp"

#include <algorithm>
#include <chrono>

#include "analysis/dataflow.hpp"
#include "analysis/impact.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace meissa::summary {

namespace {

// Sorts fields by name. FieldIds are assigned in interning order, which is
// scheduling-dependent when explorations run concurrently; names are not,
// so every ordering decision that shapes the summarized graph uses names.
void sort_fields_by_name(std::vector<ir::FieldId>& fs,
                         const ir::FieldTable& fields) {
  std::sort(fs.begin(), fs.end(), [&](ir::FieldId a, ir::FieldId b) {
    return fields.name(a) < fields.name(b);
  });
}

// Dataflow state: C as a set for O(1) intersection, V/tops as in
// PreCondition. `reached` distinguishes "no path reaches this node yet"
// (bottom) from "reachable with empty knowledge".
struct FlowState {
  bool reached = false;
  std::unordered_set<ir::ExprRef> conds;
  std::unordered_map<ir::FieldId, ir::ExprRef> values;
  std::unordered_set<ir::FieldId> tops;
};

// Symbolic value of `f` in a flow state: explicit binding, TOP, or the
// input symbol itself.
ir::ExprRef flow_value(const FlowState& s, ir::Context& ctx, ir::FieldId f) {
  auto it = s.values.find(f);
  if (it != s.values.end()) return it->second;
  if (s.tops.count(f)) return nullptr;  // TOP
  return ctx.var(f);
}

void meet_into(FlowState& a, const FlowState& b, ir::Context& ctx) {
  if (!b.reached) return;
  if (!a.reached) {
    a = b;
    return;
  }
  // C: intersection.
  for (auto it = a.conds.begin(); it != a.conds.end();) {
    it = b.conds.count(*it) ? std::next(it) : a.conds.erase(it);
  }
  // V: fields known to either side must agree, else TOP.
  std::vector<ir::FieldId> interesting;
  for (const auto& [f, v] : a.values) interesting.push_back(f);
  for (ir::FieldId f : a.tops) interesting.push_back(f);
  for (const auto& [f, v] : b.values) interesting.push_back(f);
  for (ir::FieldId f : b.tops) interesting.push_back(f);
  std::unordered_map<ir::FieldId, ir::ExprRef> values;
  std::unordered_set<ir::FieldId> tops;
  for (ir::FieldId f : interesting) {
    if (tops.count(f) || values.count(f)) continue;
    ir::ExprRef va = flow_value(a, ctx, f);
    ir::ExprRef vb = flow_value(b, ctx, f);
    if (va == nullptr || vb == nullptr || va != vb) {
      tops.insert(f);
    } else if (va != ctx.var(f)) {
      values.emplace(f, va);
    }
  }
  a.values = std::move(values);
  a.tops = std::move(tops);
}

// Transfer function for one node.
void transfer(FlowState& s, const cfg::Node& n, ir::Context& ctx) {
  auto subst_known = [&](ir::ExprRef e) -> ir::ExprRef {
    // Substitute V; nullptr result when any referenced field is TOP.
    std::unordered_set<ir::FieldId> fs;
    ir::collect_fields(e, fs);
    for (ir::FieldId f : fs) {
      if (s.tops.count(f)) return nullptr;
    }
    return ir::substitute(e, ctx.arena, [&](ir::FieldId f, int) {
      auto it = s.values.find(f);
      return it != s.values.end() ? it->second : nullptr;
    });
  };
  if (n.is_hash) {
    s.values.erase(n.hash.dest);
    s.tops.insert(n.hash.dest);
    return;
  }
  switch (n.stmt.kind) {
    case ir::StmtKind::kNop:
      return;
    case ir::StmtKind::kAssign: {
      ir::ExprRef v = subst_known(n.stmt.expr);
      if (v == nullptr) {
        s.values.erase(n.stmt.target);
        s.tops.insert(n.stmt.target);
      } else {
        s.tops.erase(n.stmt.target);
        if (v == ctx.var(n.stmt.target)) {
          s.values.erase(n.stmt.target);
        } else {
          s.values[n.stmt.target] = v;
        }
      }
      return;
    }
    case ir::StmtKind::kAssume: {
      ir::ExprRef c = subst_known(n.stmt.expr);
      if (c != nullptr && c->is_false()) {
        // Constant-infeasible branch: no valid path continues through it,
        // so it must not weaken the meet (Algorithm 2 intersects over
        // *valid* paths only).
        s.reached = false;
        return;
      }
      if (c != nullptr && !c->is_true()) s.conds.insert(c);
      return;
    }
  }
}

// Nodes from which `target` is reachable, and their predecessors within
// that set.
struct Region {
  std::unordered_set<cfg::NodeId> nodes;
  std::unordered_map<cfg::NodeId, std::vector<cfg::NodeId>> preds;
  std::vector<cfg::NodeId> topo;  // topological order, entry first
};

Region region_reaching(const cfg::Cfg& g, cfg::NodeId target) {
  // Reverse reachability over the predecessor relation.
  std::unordered_map<cfg::NodeId, std::vector<cfg::NodeId>> all_preds;
  for (cfg::NodeId id = 0; id < g.size(); ++id) {
    for (cfg::NodeId s : g.node(id).succ) all_preds[s].push_back(id);
  }
  Region r;
  std::vector<cfg::NodeId> work{target};
  r.nodes.insert(target);
  while (!work.empty()) {
    cfg::NodeId cur = work.back();
    work.pop_back();
    for (cfg::NodeId p : all_preds[cur]) {
      if (r.nodes.insert(p).second) work.push_back(p);
    }
  }
  for (cfg::NodeId id : r.nodes) {
    for (cfg::NodeId p : all_preds[id]) {
      if (r.nodes.count(p)) r.preds[id].push_back(p);
    }
  }
  // Kahn topological order within the region (edges restricted to region,
  // and not leaving `target`).
  std::unordered_map<cfg::NodeId, size_t> indeg;
  for (cfg::NodeId id : r.nodes) indeg[id] = r.preds[id].size();
  std::vector<cfg::NodeId> ready;
  for (auto& [id, d] : indeg) {
    if (d == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    cfg::NodeId cur = ready.back();
    ready.pop_back();
    r.topo.push_back(cur);
    if (cur == target) continue;
    for (cfg::NodeId s : g.node(cur).succ) {
      if (!r.nodes.count(s)) continue;
      if (--indeg[s] == 0) ready.push_back(s);
    }
  }
  util::check(r.topo.size() == r.nodes.size(),
              "region_reaching: cyclic region");
  return r;
}

}  // namespace

PreCondition compute_precondition(ir::Context& ctx, const cfg::Cfg& g,
                                  cfg::NodeId target) {
  Region region = region_reaching(g, target);
  std::unordered_map<cfg::NodeId, FlowState> in;
  for (cfg::NodeId id : region.topo) {
    FlowState state;
    if (id == g.entry()) {
      state.reached = true;
    }
    for (cfg::NodeId p : region.preds[id]) {
      // OUT(p) = transfer(p, IN(p)); compute lazily per edge.
      FlowState out = in[p];
      if (out.reached) transfer(out, g.node(p), ctx);
      meet_into(state, out, ctx);
    }
    in[id] = std::move(state);
  }
  FlowState& t = in[target];
  PreCondition pc;
  if (!t.reached) {
    // Unreachable pipeline: an impossible pre-condition prunes everything.
    pc.conds.push_back(ctx.arena.bool_const(false));
    return pc;
  }
  pc.conds.assign(t.conds.begin(), t.conds.end());
  // The set iterates in pointer order, which varies with interning order;
  // sort by rendering for a scheduling-independent result.
  std::sort(pc.conds.begin(), pc.conds.end(),
            [&](ir::ExprRef a, ir::ExprRef b) {
              return ir::to_string(a, ctx.fields) < ir::to_string(b, ctx.fields);
            });
  pc.values = std::move(t.values);
  pc.tops = std::move(t.tops);
  return pc;
}

std::optional<PreCondition> compute_precondition_by_enumeration(
    ir::Context& ctx, const cfg::Cfg& g, cfg::NodeId target,
    size_t path_limit, uint64_t* smt_checks, const std::string& fresh_ns,
    bool static_pruning, uint64_t* smt_skipped,
    const util::CancelToken* cancel, smt::PathCondCache* shared_pc_cache) {
  sym::EngineOptions opts;
  opts.stop = target;
  opts.max_results = path_limit + 1;
  opts.fresh_ns = fresh_ns;
  opts.static_pruning = static_pruning;
  opts.cancel = cancel;
  opts.shared_pc_cache = shared_pc_cache;
  sym::Engine eng(ctx, g, opts);
  bool first = true;
  std::vector<ir::ExprRef> cond_order;  // first path's conds, in path order
  std::unordered_set<ir::ExprRef> conds;
  std::unordered_map<ir::FieldId, ir::ExprRef> values;  // agreeing values
  std::unordered_set<ir::FieldId> tops;
  // Per-field constant sets across paths (for value-set pre-conditions);
  // a field leaves the map when any path gives it a non-constant value or
  // the set grows beyond the merge limit.
  constexpr size_t kMaxValueSet = 96;
  std::unordered_map<ir::FieldId, std::unordered_set<uint64_t>> const_sets;
  size_t count = 0;
  eng.run([&](const sym::PathResult& r) {
    if (++count > path_limit) return;
    std::unordered_set<ir::ExprRef> rc(r.conds.begin(), r.conds.end());
    if (first) {
      conds = std::move(rc);
      for (ir::ExprRef c : r.conds) {
        if (cond_order.empty() || std::find(cond_order.begin(),
                                            cond_order.end(),
                                            c) == cond_order.end()) {
          cond_order.push_back(c);
        }
      }
      values = r.values;
      first = false;
      for (auto& [f, v] : r.values) {
        if (v->is_const()) const_sets[f].insert(v->value);
      }
      return;
    }
    for (auto it = conds.begin(); it != conds.end();) {
      it = rc.count(*it) ? std::next(it) : conds.erase(it);
    }
    std::vector<ir::FieldId> interesting;
    for (auto& [f, v] : values) interesting.push_back(f);
    for (auto& [f, v] : r.values) interesting.push_back(f);
    for (ir::FieldId f : interesting) {
      if (tops.count(f)) continue;
      auto a = values.find(f);
      ir::ExprRef va = a != values.end() ? a->second : ctx.var(f);
      auto b = r.values.find(f);
      ir::ExprRef vb = b != r.values.end() ? b->second : ctx.var(f);
      if (va != vb) {
        tops.insert(f);
        values.erase(f);
      }
    }
    for (auto it = const_sets.begin(); it != const_sets.end();) {
      auto b = r.values.find(it->first);
      if (b == r.values.end() || !b->second->is_const() ||
          it->second.size() > kMaxValueSet) {
        it = const_sets.erase(it);
      } else {
        it->second.insert(b->second->value);
        ++it;
      }
    }
  });
  if (smt_checks != nullptr) *smt_checks += eng.stats().solver.checks;
  if (smt_skipped != nullptr) {
    *smt_skipped += eng.stats().static_prunes + eng.stats().skipped_checks;
  }
  if (count > path_limit) return std::nullopt;
  PreCondition pc;
  if (first) {
    pc.conds.push_back(ctx.arena.bool_const(false));
    return pc;
  }
  // Surviving conjuncts in first-path order: deterministic because the
  // enumeration itself is a sequential DFS.
  for (ir::ExprRef c : cond_order) {
    if (conds.count(c)) pc.conds.push_back(c);
  }
  for (auto& [f, v] : values) {
    if (v != ctx.var(f)) pc.values.emplace(f, v);
  }
  for (ir::FieldId f : tops) {
    auto it = const_sets.find(f);
    if (it != const_sets.end() && !it->second.empty()) {
      std::vector<uint64_t> vals(it->second.begin(), it->second.end());
      std::sort(vals.begin(), vals.end());
      pc.value_sets.emplace(f, std::move(vals));
    }
  }
  pc.tops = std::move(tops);
  return pc;
}

PreCondition public_precondition(ir::Context& ctx, const cfg::Cfg& g,
                                 const cfg::InstanceInfo& info,
                                 const SummaryOptions& opts,
                                 uint64_t* smt_checks, uint64_t* smt_skipped) {
  if (!opts.precondition_filtering) return {};
  std::optional<PreCondition> exact = compute_precondition_by_enumeration(
      ctx, g, info.entry, opts.max_precondition_paths, smt_checks,
      "pre." + info.name, opts.static_pruning, smt_skipped, opts.cancel,
      opts.shared_pc_cache);
  return exact ? std::move(*exact) : compute_precondition(ctx, g, info.entry);
}

namespace {

// Encodes one internal valid path as a compact branch (Algorithm 2 lines
// 12–25) and splices it between `entry` and `exit`.
class PathEncoder {
 public:
  PathEncoder(ir::Context& ctx, cfg::Cfg& g, int instance,
              const std::string& inst_name,
              const std::unordered_map<ir::FieldId, ir::ExprRef>& seeds)
      : ctx_(ctx), g_(g), instance_(instance), inst_name_(inst_name),
        seeds_(seeds) {}

  void encode(const sym::PathResult& r, cfg::NodeId entry, cfg::NodeId exit) {
    // Changed fields: assigned inside the pipeline to something other than
    // their seed. Skip snapshot fields themselves.
    std::vector<std::pair<ir::FieldId, ir::ExprRef>> changed;
    for (const auto& [f, v] : r.values) {
      auto s = seeds_.find(f);
      if (s != seeds_.end() && s->second == v) continue;  // still the seed
      if (s == seeds_.end() && v == ctx_.var(f)) continue;  // identity
      changed.push_back({f, v});
    }
    std::sort(changed.begin(), changed.end(),
              [&](const auto& a, const auto& b) {
                return ctx_.fields.name(a.first) < ctx_.fields.name(b.first);
              });  // deterministic (name-based) order

    // Substitution for raw reads of fields this path changes: a raw field
    // occurrence means "value at pipeline entry", which Phase A snapshots.
    std::unordered_set<ir::FieldId> changed_unseeded;
    for (const auto& [f, v] : changed) {
      if (!seeds_.count(f)) changed_unseeded.insert(f);
    }
    auto at_entry = [&](ir::ExprRef e) {
      return ir::substitute(e, ctx_.arena, [&](ir::FieldId f, int w) -> ir::ExprRef {
        if (changed_unseeded.count(f)) {
          return ctx_.arena.field(snapshot_fid(f), w);
        }
        return nullptr;
      });
    };

    std::vector<ir::ExprRef> conds;
    conds.reserve(r.conds.size());
    for (ir::ExprRef c : r.conds) conds.push_back(at_entry(c));
    std::vector<std::pair<ir::FieldId, ir::ExprRef>> assigns;
    for (const auto& [f, v] : changed) assigns.push_back({f, at_entry(v)});
    std::vector<sym::HashObligation> obligations = r.obligations;
    for (sym::HashObligation& o : obligations) {
      for (ir::ExprRef& k : o.key_exprs) k = at_entry(k);
    }

    // Phase A: snapshot every @field the encoded expressions mention.
    std::unordered_set<ir::FieldId> mentioned;
    for (ir::ExprRef c : conds) ir::collect_fields(c, mentioned);
    for (auto& [f, v] : assigns) ir::collect_fields(v, mentioned);
    for (auto& o : obligations) {
      for (ir::ExprRef k : o.key_exprs) ir::collect_fields(k, mentioned);
    }
    cfg::NodeId cur = entry;
    auto link_next = [&](cfg::NodeId n) {
      g_.node(n).instance = instance_;
      g_.link(cur, n);
      cur = n;
    };
    std::vector<ir::FieldId> snaps;
    for (ir::FieldId f : mentioned) {
      auto it = snapshot_of_.find(f);
      if (it != snapshot_of_.end()) snaps.push_back(f);
    }
    sort_fields_by_name(snaps, ctx_.fields);
    for (ir::FieldId at : snaps) {
      ir::FieldId orig = snapshot_of_.at(at);
      link_next(g_.add(ir::Stmt::assign(at, ctx_.var(orig))));
    }

    // Phase B: hash definitions (into their fresh placeholders).
    for (const sym::HashObligation& o : obligations) {
      cfg::HashStmt h;
      h.dest = o.placeholder;
      h.algo = o.algo;
      h.key_exprs = o.key_exprs;
      link_next(g_.add_hash(std::move(h)));
    }

    // Guard: one predicate node with the whole path condition.
    link_next(g_.add(ir::Stmt::assume(ctx_.arena.all_of(conds))));

    // Phase C: the path's overall effects (order-independent: right-hand
    // sides only mention snapshots, placeholders and untouched inputs).
    for (const auto& [f, v] : assigns) {
      link_next(g_.add(ir::Stmt::assign(f, v)));
    }
    g_.link(cur, exit);
  }

  // Snapshot field ("@<name>@<inst>") for `f`, record reverse mapping.
  ir::FieldId snapshot_fid(ir::FieldId f) {
    auto it = snapshot_for_.find(f);
    if (it != snapshot_for_.end()) return it->second;
    int w = ctx_.fields.width(f);
    ir::FieldId at =
        ctx_.fields.intern("@" + ctx_.fields.name(f) + "@" + inst_name_, w);
    snapshot_for_.emplace(f, at);
    snapshot_of_.emplace(at, f);
    return at;
  }

  // Registers seed snapshots (fields seeded to @f by the summarizer).
  void note_seed_snapshot(ir::FieldId at_field, ir::FieldId orig) {
    snapshot_of_.emplace(at_field, orig);
    snapshot_for_.emplace(orig, at_field);
  }

 private:
  ir::Context& ctx_;
  cfg::Cfg& g_;
  int instance_;
  const std::string& inst_name_;
  const std::unordered_map<ir::FieldId, ir::ExprRef>& seeds_;
  std::unordered_map<ir::FieldId, ir::FieldId> snapshot_for_;  // f -> @f
  std::unordered_map<ir::FieldId, ir::FieldId> snapshot_of_;   // @f -> f
};

}  // namespace

namespace {

// Everything the explore phase of one pipeline produces, kept until the
// (sequential) encode phase splices it into the graph.
struct InstanceWork {
  PipelineSummary ps;
  std::vector<sym::PathResult> internal;
  std::unordered_map<ir::FieldId, ir::ExprRef> seeds;
  // (@field, field) pairs, in seeding order, replayed into the encoder.
  std::vector<std::pair<ir::FieldId, ir::FieldId>> seed_snaps;
};

// Pipeline dependency: k depends on j when j's exit reaches k's entry in
// the original graph (then j's summarized branches lie inside k's
// pre-condition region and must exist before k's explore phase).
std::vector<std::vector<size_t>> instance_deps(const cfg::Cfg& g) {
  const size_t n = g.instances().size();
  std::vector<std::vector<size_t>> deps(n);
  for (size_t j = 0; j < n; ++j) {
    // Forward reachability from j's exit.
    std::vector<bool> seen(g.size(), false);
    std::vector<cfg::NodeId> work{g.instances()[j].exit};
    seen[g.instances()[j].exit] = true;
    while (!work.empty()) {
      cfg::NodeId cur = work.back();
      work.pop_back();
      for (cfg::NodeId s : g.node(cur).succ) {
        if (!seen[s]) {
          seen[s] = true;
          work.push_back(s);
        }
      }
    }
    for (size_t k = 0; k < n; ++k) {
      if (k != j && seen[g.instances()[k].entry]) deps[k].push_back(j);
    }
  }
  return deps;
}

// Equal explore output: everything encode() splices. PathResult::path is
// left out — encode never reads it, and absolute node ids shift whenever
// any table's expansion changes size. Expressions are hash-consed, so
// pointer equality is structural equality.
bool same_output(const SummaryUnit& a, const SummaryUnit& b) {
  auto same_obligation = [](const sym::HashObligation& x,
                            const sym::HashObligation& y) {
    return x.placeholder == y.placeholder && x.algo == y.algo &&
           x.key_exprs == y.key_exprs && x.key_widths == y.key_widths;
  };
  auto same_path = [&](const sym::PathResult& x, const sym::PathResult& y) {
    return x.conds == y.conds && x.values == y.values && x.exit == y.exit &&
           x.emit_instance == y.emit_instance &&
           std::equal(x.obligations.begin(), x.obligations.end(),
                      y.obligations.begin(), y.obligations.end(),
                      same_obligation);
  };
  auto same_snap = [](const SummaryUnit::SeedSnap& x,
                      const SummaryUnit::SeedSnap& y) {
    return x.at == y.at && x.orig == y.orig && x.width == y.width;
  };
  return std::equal(a.internal.begin(), a.internal.end(), b.internal.begin(),
                    b.internal.end(), same_path) &&
         std::equal(a.seed_snaps.begin(), a.seed_snaps.end(),
                    b.seed_snaps.begin(), b.seed_snaps.end(), same_snap);
}

}  // namespace

SummaryResult summarize(ir::Context& ctx, const cfg::Cfg& original,
                        const SummaryOptions& opts) {
  SummaryResult result;
  result.graph = original;  // working copy
  cfg::Cfg& g = result.graph;
  const size_t n = g.instances().size();
  if (n == 0) return result;

  const std::vector<std::vector<size_t>> deps = instance_deps(g);
  // Early cutoff (SummaryHooks::resume): each region's unit fingerprint,
  // and whether its output this run equals its prior unit's.
  std::vector<uint64_t> fps(n, 0);
  if (opts.hooks != nullptr) {
    const analysis::RegionFingerprints rf =
        analysis::fingerprint_regions(ctx, original);
    for (size_t k = 0; k < n; ++k) {
      fps[k] = analysis::unit_fingerprint(rf, g.instances()[k].name);
    }
  }
  std::vector<bool> same(n, false);
  auto prior_unit = [&](size_t k) -> const SummaryUnit* {
    if (opts.hooks == nullptr || opts.hooks->resume == nullptr) return nullptr;
    auto it = opts.hooks->resume->find(g.instances()[k].name);
    return it != opts.hooks->resume->end() ? &it->second : nullptr;
  };

  // Explore one pipeline: pre-condition, seeding, body exploration. Reads
  // the graph and interns fields/expressions, but never mutates the graph —
  // safe to run concurrently for independent pipelines.
  auto explore = [&](size_t k, InstanceWork& w) {
    const cfg::InstanceInfo& info = g.instances()[k];
    obs::Span span("summary " + info.name, "summary");
    auto t0 = std::chrono::steady_clock::now();
    w.ps.instance = info.name;
    w.ps.paths_before = g.count_instance_paths(static_cast<int>(k));

    // Replay (SummaryHooks::resume): the prior unit was explored for this
    // region's code and glue, and every upstream region's output is
    // unchanged, so re-exploring would reproduce it. Restore its paths and
    // seeds and let the sequential encode phase splice them as usual.
    // paths_before is recomputed — it is a pure function of the graph and
    // cheaper than serializing a BigCount.
    const SummaryUnit* u = prior_unit(k);
    bool replay = u != nullptr && u->fingerprint == fps[k];
    for (size_t j : deps[k]) replay = replay && same[j];
    if (replay) {
      w.ps.resumed = true;
      w.ps.paths_after = u->paths_after;
      w.ps.smt_checks = u->smt_checks;
      w.ps.smt_skipped = u->smt_skipped;
      w.ps.seconds = u->seconds;
      w.internal = u->internal;
      for (const SummaryUnit::SeedSnap& s : u->seed_snaps) {
        ir::FieldId at = ctx.fields.intern(s.at, s.width);
        ir::FieldId orig = ctx.fields.intern(s.orig, s.width);
        w.seed_snaps.emplace_back(at, orig);
        w.seeds.emplace(orig, ctx.arena.field(at, s.width));
      }
      span.arg("resumed", uint64_t{1});
      return;
    }

    // 1. Public pre-condition (Algorithm 2 lines 4–7).
    const PreCondition pc = public_precondition(
        ctx, g, info, opts, &w.ps.smt_checks, &w.ps.smt_skipped);

    // 2. Symbolic execution within the pipeline (line 9), seeded so that
    // every expression it produces is in pipeline-entry terms.
    sym::EngineOptions eopts;
    eopts.start = info.entry;
    eopts.stop = info.exit;
    eopts.use_z3 = opts.use_z3;
    eopts.check_every_predicate = opts.check_every_predicate;
    eopts.fresh_ns = info.name;
    eopts.static_pruning = opts.static_pruning;
    eopts.cancel = opts.cancel;
    eopts.shared_pc_cache = opts.shared_pc_cache;
    // Per-instance dataflow facts, computed from the pipeline's entry with a
    // TOP boundary — valid for any seeds/pre-conditions rooted there.
    analysis::Facts facts;
    if (opts.static_pruning && !opts.check_every_predicate) {
      facts = analysis::compute_facts(ctx, g, info.entry);
      eopts.facts = &facts;
    }
    sym::Engine eng(ctx, g, eopts);
    for (ir::ExprRef c : pc.conds) eng.add_precondition(c);
    auto seed_snapshot = [&](ir::FieldId f) {
      int width = ctx.fields.width(f);
      ir::FieldId at =
          ctx.fields.intern("@" + ctx.fields.name(f) + "@" + info.name, width);
      w.seed_snaps.emplace_back(at, f);
      ir::ExprRef at_var = ctx.arena.field(at, width);
      w.seeds.emplace(f, at_var);
      eng.seed_value(f, at_var);
      return at_var;
    };
    // Seed in field-name order: FieldId numbering is interning order,
    // which is scheduling-dependent under concurrent exploration.
    std::vector<ir::FieldId> tops(pc.tops.begin(), pc.tops.end());
    sort_fields_by_name(tops, ctx.fields);
    for (ir::FieldId f : tops) {
      ir::ExprRef at_var = seed_snapshot(f);
      auto vs = pc.value_sets.find(f);
      if (vs != pc.value_sets.end()) {
        // Merged per-packet-type pre-condition: the entry value is one of
        // the constants the predecessor paths produce (paper §7).
        std::vector<ir::ExprRef> eqs;
        for (uint64_t v : vs->second) {
          eqs.push_back(ctx.arena.cmp(
              ir::CmpOp::kEq, at_var,
              ctx.arena.constant(v, ctx.fields.width(f))));
        }
        eng.add_precondition(ctx.arena.any_of(eqs));
      }
    }
    std::vector<ir::FieldId> known;
    known.reserve(pc.values.size());
    for (const auto& [f, v] : pc.values) known.push_back(f);
    sort_fields_by_name(known, ctx.fields);
    for (ir::FieldId f : known) {
      // Known entry value: seed the snapshot and teach the solver the
      // binding @f == V_pub(f).
      ir::ExprRef at_var = seed_snapshot(f);
      eng.add_precondition(
          ctx.arena.cmp(ir::CmpOp::kEq, at_var, pc.values.at(f)));
    }

    eng.run([&](const sym::PathResult& r) { w.internal.push_back(r); });

    w.ps.paths_after = w.internal.size();
    w.ps.smt_checks += eng.stats().solver.checks;
    w.ps.smt_skipped += eng.stats().static_prunes + eng.stats().skipped_checks;
    w.ps.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    span.arg("paths_after", w.ps.paths_after);
    span.arg("smt_checks", w.ps.smt_checks);
    if (obs::metrics_enabled()) {
      obs::metrics().counter("summary.pipelines").add();
      obs::metrics().counter("summary.smt_checks").add(w.ps.smt_checks);
      obs::metrics()
          .histogram("summary.pipeline_us")
          .observe(static_cast<uint64_t>(w.ps.seconds * 1e6));
      // "Paths eliminated" per pipeline: original subgraph paths minus the
      // surviving summarized branches. The original count can exceed any
      // fixed-width integer (that is the point of summarization), so clamp
      // the eliminated count into a saturating uint64.
      if (w.ps.paths_before.is_exact() &&
          w.ps.paths_before.exact() >= w.ps.paths_after) {
        obs::metrics()
            .counter("summary.paths_eliminated")
            .add(w.ps.paths_before.exact() - w.ps.paths_after);
      } else {
        obs::metrics().counter("summary.paths_eliminated_saturated").add();
      }
    }
  };

  // Encode one explored pipeline: replace the subgraph with the summarized
  // branches (lines 11–25). Mutates the graph — runs sequentially, in
  // instance order, so node ids are thread-count-independent.
  auto encode = [&](size_t k, InstanceWork& w) {
    const cfg::InstanceInfo& info = g.instances()[k];
    PathEncoder encoder(ctx, g, static_cast<int>(k), info.name, w.seeds);
    for (const auto& [at, f] : w.seed_snaps) encoder.note_seed_snapshot(at, f);
    g.node(info.entry).succ.clear();
    if (w.internal.empty()) {
      // No packet can traverse this pipeline: a false guard keeps the
      // subgraph single-entry single-exit while pruning all paths.
      cfg::NodeId dead = g.add(ir::Stmt::assume(ctx.arena.bool_const(false)));
      g.node(dead).instance = static_cast<int>(k);
      g.link(info.entry, dead);
      g.link(dead, info.exit);
    }
    for (const sym::PathResult& r : w.internal) {
      encoder.encode(r, info.entry, info.exit);
    }
  };

  // Builds the checkpointable form of one explored pipeline (names, not
  // FieldIds — numbering is scheduling-dependent).
  auto to_unit = [&](size_t k, const InstanceWork& w) {
    SummaryUnit u;
    u.instance = w.ps.instance;
    u.fingerprint = fps[k];
    u.paths_after = w.ps.paths_after;
    u.smt_checks = w.ps.smt_checks;
    u.smt_skipped = w.ps.smt_skipped;
    u.seconds = w.ps.seconds;
    u.internal = w.internal;
    for (const auto& [at, f] : w.seed_snaps) {
      SummaryUnit::SeedSnap s;
      s.at = ctx.fields.name(at);
      s.orig = ctx.fields.name(f);
      s.width = ctx.fields.width(at);
      u.seed_snaps.push_back(std::move(s));
    }
    return u;
  };

  // Process in dependency waves: explore a wave's pipelines concurrently
  // (read-only on the graph), then splice their summaries sequentially.
  std::vector<InstanceWork> work(n);
  std::vector<bool> done(n, false);
  util::ThreadPool pool(util::resolve_threads(opts.threads));
  size_t completed = 0;
  auto cancelled = [&] {
    return opts.cancel != nullptr && opts.cancel->cancelled();
  };
  while (completed < n && !result.cancelled) {
    std::vector<size_t> wave;
    for (size_t k = 0; k < n; ++k) {
      if (done[k]) continue;
      bool ready = true;
      for (size_t j : deps[k]) ready &= done[j];
      if (ready) wave.push_back(k);
    }
    util::check(!wave.empty(), "summarize: cyclic pipeline dependencies");
    if (cancelled()) {
      result.cancelled = true;
      break;
    }
    pool.run(wave.size(), [&](size_t i) { explore(wave[i], work[wave[i]]); });
    // A cancel during the wave leaves *partial* explorations; splicing one
    // would silently shrink the summarized graph, so the whole wave is
    // discarded and the result marked cancelled.
    if (cancelled()) {
      result.cancelled = true;
      break;
    }
    for (size_t k : wave) {
      encode(k, work[k]);
      done[k] = true;
      ++completed;
      if (work[k].ps.resumed) ++result.resumed_pipelines;
      if (opts.hooks != nullptr) {
        SummaryUnit u = to_unit(k, work[k]);
        const SummaryUnit* p = prior_unit(k);
        same[k] = work[k].ps.resumed || (p != nullptr && same_output(*p, u));
        if (opts.hooks->on_unit) opts.hooks->on_unit(k, u);
      }
    }
  }
  for (size_t k = 0; k < n; ++k) {
    if (!done[k]) continue;  // cancelled before completion
    result.total_smt_checks += work[k].ps.smt_checks;
    result.total_smt_skipped += work[k].ps.smt_skipped;
    result.per_pipeline.push_back(std::move(work[k].ps));
  }
  return result;
}

}  // namespace meissa::summary
