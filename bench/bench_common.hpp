// Shared helpers for the evaluation benches (one binary per paper
// table/figure). Each binary prints a plain-text table mirroring the
// paper's rows/series plus the shape expectations being reproduced.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "baselines/baseline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/toolchain.hpp"
#include "util/strings.hpp"

namespace meissa::bench {

// The eight evaluation programs (paper Table 1), sized for a single-core
// reproduction: structure (pipes/switches/features) matches the paper;
// absolute rule counts are scaled down.
inline apps::AppBundle make_program(ir::Context& ctx, const std::string& name,
                                    int rule_scale = 1) {
  if (name == "Router") return apps::make_router(ctx, 16 * rule_scale);
  if (name == "mTag") return apps::make_mtag(ctx, 12 * rule_scale);
  if (name == "ACL") return apps::make_acl(ctx, 12 * rule_scale, 10);
  if (name == "switch.p4") {
    apps::SwitchP4Config cfg;
    cfg.routes = 12 * rule_scale;
    return apps::make_switchp4(ctx, cfg);
  }
  apps::GwConfig cfg;
  if (name == "gw-1") cfg.level = 1;
  if (name == "gw-2") cfg.level = 2;
  if (name == "gw-3") cfg.level = 3;
  if (name == "gw-4") cfg.level = 4;
  // Like the paper: gw-1..gw-3 use parts of the rule sets, gw-4 the full
  // set family (base 4 keeps the single-core run bounded; rule_scale is
  // the Figure 10/12 sweep knob).
  cfg.elastic_ips = apps::elastic_ips_for_set(cfg.level, /*base=*/4) * rule_scale;
  return apps::make_gateway(ctx, cfg);
}

inline const std::vector<std::string>& program_names() {
  static const std::vector<std::string> names = {
      "Router", "mTag", "ACL", "switch.p4", "gw-1", "gw-2", "gw-3", "gw-4"};
  return names;
}

inline bool is_production(const std::string& name) {
  return name.rfind("gw-", 0) == 0;
}

// Formats a baseline outcome like the paper's Figure 9 marks:
// a time, "timeout" (◦), or "no-support" (×).
inline std::string outcome(const baselines::BaselineResult& r) {
  if (!r.supported) return "x (no-support)";
  if (r.timed_out) return "o (timeout)";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fs", r.seconds);
  return buf;
}

// Parses `--threads N` (0 = hardware concurrency) from the bench binary's
// command line; any other argument is ignored.
inline int parse_threads(int argc, char** argv, int fallback = 1) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--threads") return std::atoi(argv[i + 1]);
  }
  return fallback;
}

// Parses `<name> FILE` from the command line; empty when absent.
inline std::string parse_path_arg(int argc, char** argv,
                                  const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return {};
}

// Observability session for a bench binary: `--metrics FILE` turns the
// metrics registry on, `--trace FILE` starts span collection; both files
// are written when the session object leaves scope (end of main). Declare
// one of these first thing in main() — with neither flag it is inert and
// the bench's output is unchanged.
struct ObsSession {
  std::string metrics_file;
  std::string trace_file;

  ObsSession(int argc, char** argv)
      : metrics_file(parse_path_arg(argc, argv, "--metrics")),
        trace_file(parse_path_arg(argc, argv, "--trace")) {
    if (!metrics_file.empty()) obs::MetricsRegistry::set_enabled(true);
    if (!trace_file.empty()) obs::trace_start();
  }
  ~ObsSession() {
    if (!trace_file.empty()) {
      obs::trace_stop();
      if (!obs::write_trace_file(trace_file)) {
        std::fprintf(stderr, "bench: cannot write trace to '%s'\n",
                     trace_file.c_str());
      }
    }
    if (!metrics_file.empty() && !obs::write_metrics_file(metrics_file)) {
      std::fprintf(stderr, "bench: cannot write metrics to '%s'\n",
                   metrics_file.c_str());
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;
};

// One machine-readable line per run: per-phase wall times and headline
// counters, for scripted scaling sweeps over --threads.
inline void print_phase_json(const std::string& program, const char* variant,
                             int threads, const driver::GenStats& s) {
  std::printf(
      "{\"program\":\"%s\",\"variant\":\"%s\",\"threads\":%d,"
      "\"build_seconds\":%.6f,\"summary_seconds\":%.6f,"
      "\"dfs_seconds\":%.6f,\"total_seconds\":%.6f,"
      "\"templates\":%llu,\"smt_checks\":%llu,\"smt_calls_skipped\":%llu,"
      "\"timed_out\":%s}\n",
      util::json_escape(program).c_str(), util::json_escape(variant).c_str(),
      threads, s.build_seconds, s.summary_seconds,
      s.dfs_seconds, s.total_seconds,
      static_cast<unsigned long long>(s.templates),
      static_cast<unsigned long long>(s.smt_checks),
      static_cast<unsigned long long>(s.smt_calls_skipped),
      s.timed_out ? "true" : "false");
}

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Timer {
  double t0 = now_seconds();
  double elapsed() const { return now_seconds() - t0; }
};

}  // namespace meissa::bench
