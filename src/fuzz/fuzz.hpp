// The greybox fuzzing lane (FP4-style, PAPERS.md): coverage-guided
// mutation of concrete DeviceInputs over the batched execution core, with
// a differential oracle.
//
// Two devices run every input: the *target* (the compiled-with-faults or
// misprogrammed data plane under test) and the *reference* (the intended
// program, compiled cleanly). Any observable disagreement — accept/drop
// verdict, egress port, or emitted bytes — is a divergence, i.e. a bug
// manifestation Meissa's symbolic lane would have had to enumerate a path
// for. Coverage (sim/coverage.hpp) is measured on the target only and
// steers the corpus: inputs reaching a new edge bucket are kept and
// mutated further.
//
// The loop is deterministic for a fixed (seed, corpus): all randomness is
// one util::Rng, execution order is fixed, and wall-clock time is used
// only for the execs/sec report, never for decisions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/mutator.hpp"
#include "sim/coverage.hpp"
#include "sim/device.hpp"
#include "util/cancel.hpp"

namespace meissa::fuzz {

inline constexpr size_t kMaxCorpus = 4096;      // corpus growth cap
inline constexpr size_t kMaxDivergences = 64;  // samples kept (with traces)
inline constexpr size_t kRandomSeeds = 16;  // synthesized when none added

struct FuzzOptions {
  uint64_t execs = 20000;     // total target executions (incl. seed runs)
  uint64_t seed = 1;
  size_t batch = 64;          // inputs per run_batch submission
  // Cooperative stop, polled between batches: a fired token ends the run
  // cleanly with the divergences found so far (FuzzResult::cancelled).
  // Must outlive run().
  const util::CancelToken* cancel = nullptr;
};

// One disagreement between target and reference, with traces re-rendered
// for localization (the hot loop runs trace-off; the divergent input is
// replayed trace-on).
struct Divergence {
  uint64_t exec = 0;     // execution index where it surfaced
  std::string kind;      // "accepted" | "dropped" | "port" | "bytes"
  sim::DeviceInput input;
  std::vector<std::string> target_trace;
  std::vector<std::string> reference_trace;
};

struct FuzzResult {
  uint64_t execs = 0;
  size_t seeds = 0;           // corpus size before the mutation loop
  size_t corpus = 0;          // final corpus size
  size_t coverage_edges = 0;  // distinct map bytes with any bucket seen
  uint64_t corpus_adds = 0;   // inputs admitted by new coverage
  size_t max_corpus = 0;          // corpus growth cap (kMaxCorpus)
  size_t dictionary_entries = 0;  // mutator dictionary (rule constants)
  size_t wire_layouts = 0;        // parseable header layouts enumerated
  size_t coverage_map_bytes = 0;  // coverage map size (CoverageMap::kSize)
  uint64_t divergences = 0;   // total divergent executions
  // FuzzOptions::cancel fired: execs stops short of the requested budget.
  bool cancelled = false;
  std::vector<Divergence> samples;
  double seconds = 0;
  double execs_per_sec = 0;

  bool found() const noexcept { return divergences > 0; }
  std::string to_json() const;
};

class Fuzzer {
 public:
  // Both devices must outlive the fuzzer and be compiled against the same
  // ir::Context as `dp` (field ids are shared).
  Fuzzer(sim::Device& target, sim::Device& reference, const p4::DataPlane& dp,
         const p4::RuleSet& rules, FuzzOptions opts = {});

  // Adds a corpus seed; `registers` (e.g. a test template's model) are
  // installed on BOTH devices immediately, merging over earlier installs —
  // with conflicting cells across seeds, the last install wins.
  void add_seed(sim::DeviceInput in, const ir::ConcreteState& registers = {});

  FuzzResult run();

 private:
  // Runs one batch through both devices, compares, and scores coverage.
  void execute(std::vector<sim::DeviceInput>& ins, bool from_corpus,
               uint64_t exec_base);
  void record_divergence(uint64_t exec, const char* kind,
                         const sim::DeviceInput& in);

  sim::Device& target_;
  sim::Device& reference_;
  Mutator mutator_;
  FuzzOptions opts_;

  std::vector<sim::DeviceInput> corpus_;
  sim::CoverageMap cov_;        // the target's hits over one batch
  sim::CoverageMap input_cov_;  // one input's counts, replayed from cov_
  std::vector<uint8_t> virgin_;
  // Work counters for the metrics snapshot: touched entries handed to
  // merge_new_coverage, and mutation batches scored input by input.
  uint64_t entries_scored_ = 0;
  uint64_t batches_rescored_ = 0;
  sim::ExecArena tgt_arena_;
  sim::ExecArena ref_arena_;
  std::vector<sim::DeviceOutput> tgt_out_;
  std::vector<sim::DeviceOutput> ref_out_;
  FuzzResult result_;
};

}  // namespace meissa::fuzz
