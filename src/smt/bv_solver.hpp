// Meissa's own incremental bit-vector solver (see solver.hpp).
#pragma once

#include <memory>
#include <vector>

#include "smt/bitblast.hpp"
#include "smt/domain.hpp"
#include "smt/sat.hpp"
#include "smt/solver.hpp"

namespace meissa::smt {

class BvSolver final : public Solver {
 public:
  explicit BvSolver(ir::Context& ctx);

  void push() override;
  void pop() override;
  void add(ir::ExprRef bexp) override;
  CheckResult check() override;
  Model model() override;
  void set_budget(const Budget& budget) override { budget_ = budget; }
  const SolverStats& stats() const override { return stats_; }

  // Underlying SAT statistics (exposed for the micro benchmarks).
  const SatSolver::Stats& sat_stats() const { return sat_.stats(); }

  // Caps the bit-blaster's memoization caches (0 = unbounded); they are
  // epoch-cleared between blasts once past the cap. Tests use tiny caps.
  void set_blast_cache_cap(size_t cap) { blast_cache_cap_ = cap; }
  size_t blast_cache_entries() const { return blaster_.cache_entries(); }

  // Forces every check through bit-blasting (fast path never consulted).
  // Differential-testing hook; not part of the Solver interface.
  void set_force_blast(bool on) { force_blast_ = on; }

 private:
  // One decomposed per-field atom: (field & mask) op constant (mask is
  // all-ones for pure comparisons), or — when `set` is non-empty — a
  // same-field value-set disjunction (f == v1 || f == v2 || ...).
  struct Atom {
    ir::FieldId field;
    int width;
    ir::CmpOp op;
    uint64_t mask;
    uint64_t value;
    std::vector<uint64_t> set;
  };

  // Recognizes Or-trees whose leaves are `field == const` on one field.
  static bool as_value_set(ir::ExprRef e, ir::FieldId& field, int& width,
                           std::vector<uint64_t>& values);

  // Walks the conjunction structure of `e`, extracting single-field atoms.
  // Returns false when parts of `e` do not fit the atom shape (the
  // extracted atoms are still sound conjuncts).
  bool decompose(ir::ExprRef e, std::vector<Atom>& atoms) const;

  // Attempts the pure-domain decision procedure.
  CheckResult try_fast_path();

  // check() minus the observability wrapper.
  CheckResult check_impl();

  void blast_pending();

  struct Scope {
    std::vector<ir::ExprRef> asserts;
    size_t next_unblasted = 0;
    Lit selector{0};
    bool has_selector = false;
  };

  ir::Context& ctx_;
  SatSolver sat_;
  BitBlaster blaster_;
  std::vector<Scope> scopes_;
  SolverStats stats_;
  Budget budget_;
  Model model_;
  bool model_from_fast_path_ = false;
  bool force_blast_ = false;
  size_t blast_cache_cap_ = size_t{1} << 20;
};

}  // namespace meissa::smt
