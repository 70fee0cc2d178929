// Incremental SMT solving over Meissa's bit-vector expressions.
//
// The symbolic executor (paper §3.2) pushes one constraint per predicate
// node and pops on DFS backtrack; the solver is expected to reuse work
// across checks. Two interchangeable backends implement this interface:
//
//   * BvSolver  — Meissa's own: algebraic simplification, a single-field
//                 interval/bit-domain fast path, and bit-blasting into an
//                 incremental CDCL SAT core (src/smt/sat.hpp).
//   * Z3Solver  — a thin adapter over libz3, built when available; used to
//                 cross-check BvSolver in tests and benchmarks.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "ir/stmt.hpp"

namespace meissa::smt {

enum class CheckResult { kSat, kUnsat, kUnknown };

// Resource budget for one check() call. A check that exhausts its budget
// returns kUnknown instead of diverging; the caller decides what a
// non-verdict means (the engine records the branch as *degraded* rather
// than dropping it silently). Default-constructed = unlimited, in which
// case solving behaves exactly as if no budget machinery existed.
struct Budget {
  // CDCL conflicts a single check may spend (0 = unlimited).
  uint64_t max_conflicts = 0;
  // Unit propagations a single check may spend (0 = unlimited).
  uint64_t max_propagations = 0;
  // Wall-clock milliseconds for a single check (0 = unlimited). Deadlines
  // derived from this value must come from deadline_after(): a monotonic
  // (steady_clock) base plus *saturating* addition, so max_wall_ms up to
  // UINT64_MAX means "roomy" rather than overflowing into a deadline in
  // the past.
  uint64_t max_wall_ms = 0;

  bool unlimited() const noexcept {
    return max_conflicts == 0 && max_propagations == 0 && max_wall_ms == 0;
  }

  // `now + max_wall_ms`, clamped to time_point::max() when the addition
  // would overflow the clock's representation.
  std::chrono::steady_clock::time_point deadline_after(
      std::chrono::steady_clock::time_point now) const noexcept {
    using clock = std::chrono::steady_clock;
    using std::chrono::milliseconds;
    const auto headroom = std::chrono::duration_cast<milliseconds>(
        clock::time_point::max() - now);
    if (max_wall_ms >= static_cast<uint64_t>(headroom.count())) {
      return clock::time_point::max();
    }
    return now + milliseconds(max_wall_ms);
  }
};

// A satisfying assignment: values for every field the solver saw.
// Fields never mentioned in any assertion are unconstrained and absent.
using Model = std::unordered_map<ir::FieldId, uint64_t>;

struct SolverStats {
  // check() invocations — the paper's "# of SMT calls" (Fig. 11b/12b).
  uint64_t checks = 0;
  // checks decided by the single-field domain fast path.
  uint64_t fast_path_hits = 0;
  // checks that reached the SAT core (or Z3).
  uint64_t sat_calls = 0;
  // checks that exhausted their Budget and returned kUnknown.
  uint64_t unknowns = 0;
  uint64_t pushes = 0;
  uint64_t pops = 0;

  // Accumulate counters from another solver (e.g. per-worker solvers in a
  // parallel exploration).
  SolverStats& operator+=(const SolverStats& o) {
    checks += o.checks;
    fast_path_hits += o.fast_path_hits;
    sat_calls += o.sat_calls;
    unknowns += o.unknowns;
    pushes += o.pushes;
    pops += o.pops;
    return *this;
  }
};

// Field-wise wrapping subtraction `a - b` for the cumulative counters.
// Used by the engine to rebase a resumed shard's incremental-solver stats:
// the checkpoint holds counters *at the frontier*, the fresh solver
// restarts at zero and spends a few pushes on the check-free replay;
// (saved - at_replay_end) may wrap field-wise, and the later `+=` of the
// solver's cumulative counters un-wraps it to the uninterrupted values.
inline SolverStats stats_minus(SolverStats a, const SolverStats& b) {
  a.checks -= b.checks;
  a.fast_path_hits -= b.fast_path_hits;
  a.sat_calls -= b.sat_calls;
  a.unknowns -= b.unknowns;
  a.pushes -= b.pushes;
  a.pops -= b.pops;
  return a;
}

class Solver {
 public:
  virtual ~Solver() = default;

  // Opens a new assertion scope (incremental solving).
  virtual void push() = 0;
  // Discards the most recent scope and its assertions.
  virtual void pop() = 0;
  // Asserts a boolean expression in the current scope.
  virtual void add(ir::ExprRef bexp) = 0;
  // Decides satisfiability of the conjunction of all active assertions.
  virtual CheckResult check() = 0;
  // Model of the last kSat check. Invalidated by the next add/pop/check.
  virtual Model model() = 0;

  // Installs a per-check resource budget (applies to subsequent checks).
  // The default-constructed Budget restores unlimited solving.
  virtual void set_budget(const Budget& budget) { (void)budget; }

  virtual const SolverStats& stats() const = 0;
};

// Creates Meissa's own bit-vector solver. `ctx` must outlive the solver.
std::unique_ptr<Solver> make_bv_solver(ir::Context& ctx);

// Creates the Z3-backed solver; returns nullptr when built without Z3.
std::unique_ptr<Solver> make_z3_solver(ir::Context& ctx);

// True when this build has the Z3 backend.
bool have_z3();

}  // namespace meissa::smt
