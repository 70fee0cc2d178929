// Non-code bug hunting: the program is correct, the toolchain is not.
// Reproduces the paper's issue #14 (bf-p4c setValid bug, §6): the compiled
// gateway silently drops the setValid(vxlan) of the encap action. Meissa's
// tests diverge from the model, and the failure report carries both the
// symbolic trace and the device's physical trace for localization (§7).
//
//   $ ./bug_hunt
#include <cstdio>

#include "apps/apps.hpp"
#include "sim/toolchain.hpp"

int main() {
  using namespace meissa;

  ir::Context ctx;
  apps::GwConfig cfg;
  cfg.level = 1;
  cfg.elastic_ips = 4;
  apps::AppBundle app = apps::make_gateway(ctx, cfg);

  // The vendor toolchain miscompiles setValid on this program version.
  sim::FaultSpec fault;
  fault.kind = sim::FaultKind::kDropSetValid;
  fault.header = "vxlan";
  std::printf("compiling with injected toolchain fault: %s\n\n",
              sim::fault_kind_name(fault.kind));
  sim::DeviceProgram buggy = sim::compile(app.dp, app.rules, ctx, fault);
  sim::Device device(buggy, ctx);

  driver::Meissa meissa(ctx, app.dp, app.rules);
  driver::TestReport report = meissa.test(device, app.intents);
  std::printf("%s\n", report.str().c_str());

  if (!report.failures.empty()) {
    const driver::CaseRecord& f = report.failures.front();
    std::printf("--- symbolic trace (model) ---\n%s\n",
                f.symbolic_trace.c_str());
    std::printf("--- physical trace (device) ---\n");
    for (const std::string& line : f.physical_trace) {
      std::printf("  %s\n", line.c_str());
    }
    std::printf("\nThe model emits vxlan; the device never does: the bug is "
                "not in the P4 code.\n");
  }
  // A bug hunt succeeds when it finds the bug.
  return report.failed > 0 ? 0 : 1;
}
