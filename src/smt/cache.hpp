// Canonicalized path-condition result cache (ROADMAP "solver throughput").
//
// Its one owner is the incremental re-testing session
// (driver::IncrementalSession), whose runs replay near-identical
// constraint sets: the session hands one cache to every summary and
// final-DFS engine of every run, so an update re-pays only the checks its
// rule change altered. Within a run, shards re-check their forced
// prefixes and sibling paths re-assert the guard the parent already
// proved, so the same sets recur there too. Hash-consed ExprRefs make
// canonicalization cheap: within one ir::Context, structural equality is
// pointer equality, so a path condition canonicalizes to its *set* of
// conjunct pointers (conjunction is commutative, associative, and
// idempotent — order and duplicates on the conds stack don't change the
// formula).
//
// Key representation: a 128-bit commutative signature — the component-wise
// sum (mod 2^64) of two independent mixes of each distinct conjunct
// pointer. Sums commute, so the signature is order-insensitive, and it
// extends/retracts in O(1) as the DFS pushes and pops conjuncts (the
// engine tracks distinctness with a multiset count; see
// Engine::ExplorationContext). Two earlier designs lost to this one: a
// sorted-pointer-vector key paid a sort + copy of the whole condition
// vector per check, and a hash-consed (parent, cond) prefix chain was
// O(1) but order-sensitive, which turned out to miss every real
// duplicate — the repeats in practice are *permutations with re-asserted
// conjuncts* (shards re-checking shared forced prefixes, sibling paths
// re-asserting a guard the parent already carries), not literal sequence
// replays.
//
// Collisions: two different conjunct sets colliding in all 128 bits would
// return a wrong verdict, so the signature is treated as exact. With
// splitmix64-mixed summands the collision probability over a cache of
// 2^20 entries is ~2^-89 — far below, say, the probability of corrupted
// RAM flipping the verdict bit.
//
// Soundness:
//   * A verdict is a semantic property of the conjunct set — independent
//     of scope nesting, solver backend, and which thread ran the deciding
//     check. Returning a cached kSat/kUnsat therefore never changes the
//     engine's branch decisions relative to a cache-off run, which is
//     what keeps templates byte-identical with the cache on/off and
//     across thread counts.
//   * kUnknown (budget exhaustion) is never cached: it is a property of
//     the *run*, not the formula. Callers must also not consult the cache
//     under a limited per-check budget — a cached definite verdict could
//     mask a budget-dependent kUnknown and make the degraded-coverage
//     split scheduling-dependent (see Engine::ExplorationContext).
//   * Keys cover the engine's preconditions too: every exploration's
//     signature starts from the precondition signature base, so a verdict
//     is a property of the *full* asserted formula — portable across
//     engines with different preconditions and across runs, as long as
//     they share one ir::Context (pointer identity is the canonical form).
//
// Thread safety: lock-sharded by signature hash, like ir::ExprArena.
// Workers of one parallel exploration share a cache; which shard warms an
// entry first is scheduling-dependent, but by the argument above only the
// hit/miss *counters* vary — never a verdict.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "ir/expr.hpp"
#include "smt/solver.hpp"

namespace meissa::smt {

// Commutative 128-bit signature of a set of conjunct pointers. The
// default-constructed value is the signature of the empty set (a check
// with no path conditions yet, e.g. the precondition precheck).
struct PathSig {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const PathSig& o) const noexcept {
    return lo == o.lo && hi == o.hi;
  }
};

class PathCondCache {
 public:
  // `max_entries` bounds memory: once full, new results are no longer
  // recorded (lookups still hit; nothing is evicted). 0 = unbounded.
  explicit PathCondCache(size_t max_entries = size_t{1} << 20)
      : max_entries_(max_entries) {}
  PathCondCache(const PathCondCache&) = delete;
  PathCondCache& operator=(const PathCondCache&) = delete;

  // Signature of `s`'s set extended by / shrunk by `cond`. Callers own the
  // distinctness contract: extend() when `cond` *enters* the set (was not
  // on the stack), retract() when it *leaves* (last occurrence popped).
  // retract(extend(s, c), c) == s, and extension order never matters.
  static PathSig extend(PathSig s, ir::ExprRef cond) noexcept;
  static PathSig retract(PathSig s, ir::ExprRef cond) noexcept;

  // True on hit; `*out` then holds the cached verdict (kSat or kUnsat).
  bool lookup(const PathSig& key, CheckResult* out) const;

  // Records a definite verdict. kUnknown is ignored (see header comment).
  void insert(const PathSig& key, CheckResult verdict);

  // Cached verdicts (O(#shards) mutex hops; for stats and tests, not hot
  // paths).
  size_t size() const;

 private:
  struct SigHash {
    size_t operator()(const PathSig& s) const noexcept;
  };
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<PathSig, CheckResult, SigHash> map;
  };

  size_t per_shard_cap() const noexcept {
    return max_entries_ == 0 ? 0 : max_entries_ / kShards + 1;
  }

  std::array<Shard, kShards> shards_;
  size_t max_entries_;
};

}  // namespace meissa::smt
