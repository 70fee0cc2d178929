#include "smt/bv_solver.hpp"

#include <chrono>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace meissa::smt {

using ir::ExprKind;

BvSolver::BvSolver(ir::Context& ctx) : ctx_(ctx), blaster_(sat_) {
  scopes_.emplace_back();  // base scope
}

void BvSolver::push() {
  ++stats_.pushes;
  scopes_.emplace_back();
  if (obs::metrics_enabled()) {
    // High-water mark of the incremental assertion stack (the DFS depth as
    // the solver sees it). Base scope excluded.
    obs::metrics().gauge("smt.push_depth_max").record_max(scopes_.size() - 1);
  }
}

void BvSolver::pop() {
  ++stats_.pops;
  util::check(scopes_.size() > 1, "pop: no scope to pop");
  Scope& top = scopes_.back();
  if (top.has_selector) {
    // Permanently retire this scope's selector; its guarded clauses become
    // vacuously satisfied and any clauses learned from them stay sound.
    sat_.add_unit(~top.selector);
  }
  scopes_.pop_back();
}

void BvSolver::add(ir::ExprRef bexp) {
  util::check(bexp != nullptr && bexp->is_bool(), "add: boolean required");
  scopes_.back().asserts.push_back(bexp);
}

bool BvSolver::as_value_set(ir::ExprRef e, ir::FieldId& field, int& width,
                            std::vector<uint64_t>& values) {
  switch (e->kind) {
    case ExprKind::kBool:
      if (e->bool_op() != ir::BoolOp::kOr) return false;
      return as_value_set(e->lhs, field, width, values) &&
             as_value_set(e->rhs, field, width, values);
    case ExprKind::kCmp: {
      if (e->cmp_op() != ir::CmpOp::kEq ||
          e->lhs->kind != ExprKind::kField ||
          e->rhs->kind != ExprKind::kConst) {
        return false;
      }
      if (field == ir::kInvalidField) {
        field = e->lhs->field;
        width = e->lhs->width;
      } else if (field != e->lhs->field) {
        return false;  // mixed fields: not a single-field set
      }
      values.push_back(e->rhs->value);
      return true;
    }
    default:
      return false;
  }
}

bool BvSolver::decompose(ir::ExprRef e, std::vector<Atom>& atoms) const {
  switch (e->kind) {
    case ExprKind::kBoolConst:
      if (e->is_true()) return true;
      // `false` as an atom: an unsatisfiable constraint on a dummy field.
      atoms.push_back({ir::kInvalidField, 1, ir::CmpOp::kEq, 0, 0, {}});
      return true;
    case ExprKind::kBool:
      if (e->bool_op() == ir::BoolOp::kAnd) {
        bool a = decompose(e->lhs, atoms);
        bool b = decompose(e->rhs, atoms);
        return a && b;
      }
      {
        // Same-field value-set disjunction (the merged per-packet-type
        // pre-condition shape, paper §7).
        ir::FieldId f = ir::kInvalidField;
        int w = 0;
        std::vector<uint64_t> values;
        if (as_value_set(e, f, w, values)) {
          Atom a{f, w, ir::CmpOp::kEq, 0, 0, std::move(values)};
          atoms.push_back(std::move(a));
          return true;
        }
      }
      return false;  // general disjunction: not a conjunction of atoms
    case ExprKind::kCmp: {
      ir::ExprRef lhs = e->lhs;
      ir::ExprRef rhs = e->rhs;
      if (rhs->kind != ExprKind::kConst) return false;
      uint64_t mask = util::mask_bits(lhs->width == 0 ? 1 : lhs->width);
      ir::ExprRef base = lhs;
      if (lhs->kind == ExprKind::kArith &&
          lhs->arith_op() == ir::ArithOp::kAnd &&
          lhs->rhs->kind == ExprKind::kConst) {
        // Masked comparisons are only decidable by the Domain for ==/!=.
        if (e->cmp_op() != ir::CmpOp::kEq && e->cmp_op() != ir::CmpOp::kNe) {
          return false;
        }
        mask = lhs->rhs->value;
        base = lhs->lhs;
      }
      if (base->kind != ExprKind::kField) return false;
      atoms.push_back(
          {base->field, base->width, e->cmp_op(), mask, rhs->value, {}});
      return true;
    }
    default:
      return false;
  }
}

CheckResult BvSolver::try_fast_path() {
  std::vector<Atom> atoms;
  bool complete = true;
  for (const Scope& s : scopes_) {
    for (ir::ExprRef a : s.asserts) {
      if (!decompose(a, atoms)) complete = false;
    }
  }
  const uint64_t full = ~uint64_t{0};
  std::unordered_map<ir::FieldId, Domain> domains;
  for (const Atom& at : atoms) {
    if (at.field == ir::kInvalidField) return CheckResult::kUnsat;
    auto [it, fresh] = domains.try_emplace(at.field, Domain(at.width));
    (void)fresh;
    Domain& d = it->second;
    if (!at.set.empty()) {
      d.require_value_set(at.set);
      continue;
    }
    const bool exact = util::truncate(at.mask, at.width) ==
                       util::mask_bits(at.width);
    switch (at.op) {
      case ir::CmpOp::kEq: d.require_masked_eq(at.mask, at.value); break;
      case ir::CmpOp::kNe: d.require_masked_ne(at.mask, at.value); break;
      case ir::CmpOp::kLt:
        if (!exact) return CheckResult::kUnknown;
        d.require_lt(at.value);
        break;
      case ir::CmpOp::kLe:
        if (!exact) return CheckResult::kUnknown;
        d.require_le(at.value);
        break;
      case ir::CmpOp::kGt:
        if (!exact) return CheckResult::kUnknown;
        d.require_gt(at.value);
        break;
      case ir::CmpOp::kGe:
        if (!exact) return CheckResult::kUnknown;
        d.require_ge(at.value);
        break;
    }
    (void)full;
  }
  Model candidate;
  for (auto& [fid, d] : domains) {
    bool decided = true;
    std::optional<uint64_t> v = d.pick_value(decided);
    if (!decided) return CheckResult::kUnknown;
    if (!v) return CheckResult::kUnsat;  // sound even for partial decompose
    candidate.emplace(fid, *v);
  }
  if (!complete) return CheckResult::kUnknown;
  model_ = std::move(candidate);
  model_from_fast_path_ = true;
  return CheckResult::kSat;
}

void BvSolver::blast_pending() {
  // Between-blast boundary: safe point to epoch-clear the memoization
  // caches (never mid-recursion — see BitBlaster::maybe_epoch_clear).
  blaster_.maybe_epoch_clear(blast_cache_cap_);
  for (size_t i = 0; i < scopes_.size(); ++i) {
    Scope& s = scopes_[i];
    if (s.next_unblasted < s.asserts.size() && i > 0 && !s.has_selector) {
      s.selector = Lit::make(sat_.new_var(), false);
      s.has_selector = true;
    }
    for (; s.next_unblasted < s.asserts.size(); ++s.next_unblasted) {
      Lit l = blaster_.blast_bool(s.asserts[s.next_unblasted]);
      if (i == 0) {
        sat_.add_unit(l);
      } else {
        sat_.add_binary(~s.selector, l);
      }
    }
  }
}

CheckResult BvSolver::check() {
  if (!obs::metrics_enabled()) return check_impl();
  // Per-check CDCL effort: delta of the cumulative SAT-core counters
  // around one check. Fast-path checks record zeros, which keeps the
  // histogram an honest per-check distribution.
  const SatSolver::Stats before = sat_.stats();
  CheckResult r = check_impl();
  const SatSolver::Stats& after = sat_.stats();
  obs::metrics()
      .histogram("smt.conflicts_per_check")
      .observe(after.conflicts - before.conflicts);
  obs::metrics()
      .histogram("smt.propagations_per_check")
      .observe(after.propagations - before.propagations);
  // Memory-shape gauges: translation-cache population (bounded by
  // set_blast_cache_cap) and the learned-clause database high-water mark.
  obs::metrics()
      .gauge("smt.bitblast.cache_entries")
      .record_max(blaster_.cache_entries());
  obs::metrics().gauge("smt.sat.learned_db").record_max(sat_.num_learned());
  return r;
}

CheckResult BvSolver::check_impl() {
  ++stats_.checks;
  model_.clear();
  model_from_fast_path_ = false;

  // The interval/equality fast path first, the SAT core when it cannot
  // decide; the verdict is backend-independent.
  if (!force_blast_) {
    CheckResult fp = try_fast_path();
    if (fp != CheckResult::kUnknown) {
      ++stats_.fast_path_hits;
      if (obs::metrics_enabled()) {
        obs::metrics().counter("smt.fast_path.hits").add(1);
      }
      return fp;
    }
    if (obs::metrics_enabled()) {
      obs::metrics().counter("smt.fast_path.misses").add(1);
    }
  }

  ++stats_.sat_calls;
  blast_pending();
  std::vector<Lit> assumptions;
  for (size_t i = 1; i < scopes_.size(); ++i) {
    if (scopes_[i].has_selector) assumptions.push_back(scopes_[i].selector);
  }
  if (budget_.unlimited()) {
    bool sat = sat_.solve(assumptions);
    return sat ? CheckResult::kSat : CheckResult::kUnsat;
  }
  ResourceLimits limits;
  limits.max_conflicts = budget_.max_conflicts;
  limits.max_propagations = budget_.max_propagations;
  if (budget_.max_wall_ms > 0) {
    limits.has_deadline = true;
    limits.deadline = budget_.deadline_after(std::chrono::steady_clock::now());
  }
  switch (sat_.solve_limited(assumptions, limits)) {
    case SolveStatus::kSat:
      return CheckResult::kSat;
    case SolveStatus::kUnsat:
      return CheckResult::kUnsat;
    case SolveStatus::kUnknown:
      ++stats_.unknowns;
      return CheckResult::kUnknown;
  }
  util::check(false, "solve_limited: bad status");
  return CheckResult::kUnknown;
}

Model BvSolver::model() {
  if (model_from_fast_path_) return model_;
  // SAT-core model: read back every field the blaster knows about.
  // Iterate the blaster's own field map — scanning the context-global
  // field table here cost ~5ms per call on gw-4 (the table holds every
  // field of every pipeline; the blaster knows a few dozen).
  Model m;
  blaster_.for_each_known_field(
      [&](ir::FieldId f) { m.emplace(f, blaster_.model_value(f)); });
  return m;
}

std::unique_ptr<Solver> make_bv_solver(ir::Context& ctx) {
  return std::make_unique<BvSolver>(ctx);
}

}  // namespace meissa::smt
