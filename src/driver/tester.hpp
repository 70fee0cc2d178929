// The Meissa facade: end-to-end testing of a data plane against a device.
// Wires together generation (CFG, code summary, DFS), the sender, the
// device under test, and the checker, producing a TestReport (Fig. 2).
#pragma once

#include "driver/report.hpp"

namespace meissa::driver {

// Failures recorded in TestReport::failures, with symbolic + physical traces.
inline constexpr size_t kMaxRecordedFailures = 25;
// Cases per run_batch submission on the perfect-link path (batches also
// flush at register installs, so verdicts match per-case injection).
inline constexpr size_t kSendBatch = 64;
// Flaky link: resends before a case is quarantined (a 5%-lossy link then
// quarantines with probability ~5e-12 per case), retries per register
// install, and the cap on the simulated backoff exponent (accounted in
// TestReport::backoff_units, not slept).
inline constexpr int kMaxSendRetries = 8;
inline constexpr int kMaxInstallRetries = 8;
inline constexpr int kMaxBackoffExponent = 6;

struct TestRunOptions {
  GenOptions gen;
  uint64_t seed = 1;

  // Transport faults on the tester<->device link. Default = perfect link,
  // in which case the driver takes the exact direct injection path (one
  // install + one inject per case, no retry machinery on the wire).
  sim::LinkFaultSpec link;
};

class Meissa {
 public:
  Meissa(ir::Context& ctx, const p4::DataPlane& dp, const p4::RuleSet& rules,
         TestRunOptions opts = {});

  // Generation only (no device): the paper's scalability experiments.
  std::vector<sym::TestCaseTemplate> generate();

  // Full run: generate, inject into `device`, check against `intents`.
  // `cancel`, when set, is polled between cases: a fired token stops the
  // run cleanly with the verdicts settled so far (TestReport::cancelled).
  TestReport test(sim::Device& device, const std::vector<spec::Intent>& intents,
                  const util::CancelToken* cancel = nullptr);

  const GenStats& gen_stats() const { return gen_.stats(); }
  const cfg::Cfg& graph() const { return gen_.graph(); }
  Generator& generator() { return gen_; }

 private:
  ir::Context& ctx_;
  const p4::DataPlane& dp_;
  TestRunOptions opts_;
  Generator gen_;
  std::vector<sym::TestCaseTemplate> templates_;
  bool generated_ = false;
};

}  // namespace meissa::driver
