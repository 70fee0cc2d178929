// Tests for the application corpus: every program must pass its own
// end-to-end Meissa run on a clean compile (no false positives), with and
// without code summary, and the gateway family must exercise its
// multi-pipe topologies.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/apps.hpp"
#include "cfg/build.hpp"
#include "sim/toolchain.hpp"

namespace meissa::apps {
namespace {

driver::TestReport clean_run(ir::Context& ctx, const AppBundle& app,
                             bool code_summary = true) {
  sim::DeviceProgram compiled = sim::compile(app.dp, app.rules, ctx);
  sim::Device device(compiled, ctx);
  driver::TestRunOptions opts;
  opts.gen.code_summary = code_summary;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  return meissa.test(device, app.intents);
}

TEST(Apps, RouterCleanRunPasses) {
  ir::Context ctx;
  AppBundle app = make_router(ctx, 8);
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_GT(r.cases, 8u);
  EXPECT_TRUE(r.all_passed()) << r.str();
  EXPECT_EQ(r.gen.diagnostics, 0u);
}

TEST(Apps, RouterWithoutSummaryAgrees) {
  ir::Context ctx;
  AppBundle app = make_router(ctx, 6);
  driver::TestReport with = clean_run(ctx, app, true);
  ir::Context ctx2;
  AppBundle app2 = make_router(ctx2, 6);
  driver::TestReport without = clean_run(ctx2, app2, false);
  EXPECT_EQ(with.templates, without.templates);
  EXPECT_TRUE(with.all_passed()) << with.str();
  EXPECT_TRUE(without.all_passed()) << without.str();
}

TEST(Apps, MtagCleanRunPasses) {
  ir::Context ctx;
  AppBundle app = make_mtag(ctx, 6);
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_TRUE(r.all_passed()) << r.str();
}

TEST(Apps, AclCleanRunPasses) {
  ir::Context ctx;
  AppBundle app = make_acl(ctx, 6, 6);
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_TRUE(r.all_passed()) << r.str();
}

TEST(Apps, SwitchP4CleanRunPasses) {
  ir::Context ctx;
  SwitchP4Config cfg;
  cfg.l2_hosts = 4;
  cfg.routes = 4;
  cfg.ecmp_ways = 2;
  cfg.acls = 3;
  cfg.mpls_labels = 3;
  AppBundle app = make_switchp4(ctx, cfg);
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_GT(r.templates, 10u);
  EXPECT_TRUE(r.all_passed()) << r.str();
}

class GatewayLevels : public ::testing::TestWithParam<int> {};

TEST_P(GatewayLevels, CleanRunPasses) {
  ir::Context ctx;
  GwConfig cfg;
  cfg.level = GetParam();
  cfg.elastic_ips = 4;
  AppBundle app = make_gateway(ctx, cfg);
  EXPECT_EQ(app.dp.topology.instances.size(),
            static_cast<size_t>(cfg.level == 1 ? 1
                                : cfg.level == 2 ? 2
                                : cfg.level == 3 ? 4
                                                 : 8));
  driver::TestReport r = clean_run(ctx, app);
  EXPECT_GT(r.cases, 4u);
  EXPECT_TRUE(r.all_passed()) << r.str();
}

INSTANTIATE_TEST_SUITE_P(Levels, GatewayLevels, ::testing::Values(1, 2, 3, 4));

TEST(Apps, Gw4CoversBothSwitches) {
  ir::Context ctx;
  GwConfig cfg;
  cfg.level = 4;
  cfg.elastic_ips = 4;
  AppBundle app = make_gateway(ctx, cfg);
  driver::TestRunOptions opts;
  driver::Meissa meissa(ctx, app.dp, app.rules, opts);
  auto templates = meissa.generate();
  // Some templates must leave via switch 1 (flow B) and some via switch 0.
  bool sw0 = false, sw1 = false;
  for (const auto& t : templates) {
    if (t.exit != cfg::ExitKind::kEmit) continue;
    int sw = meissa.graph()
                 .instances()[static_cast<size_t>(t.emit_instance)]
                 .switch_id;
    sw0 |= sw == 0;
    sw1 |= sw == 1;
  }
  EXPECT_TRUE(sw0);
  EXPECT_TRUE(sw1);
}

TEST(Apps, RuleSetScalingDoublesElasticIps) {
  EXPECT_EQ(elastic_ips_for_set(1), 8);
  EXPECT_EQ(elastic_ips_for_set(2), 16);
  EXPECT_EQ(elastic_ips_for_set(3), 32);
  EXPECT_EQ(elastic_ips_for_set(4), 64);
  ir::Context a, b2;
  GwConfig c1{1, elastic_ips_for_set(1), 5};
  GwConfig c2{1, elastic_ips_for_set(2), 5};
  AppBundle s1 = make_gateway(a, c1);
  AppBundle s2 = make_gateway(b2, c2);
  EXPECT_GT(s2.rules.loc(), s1.rules.loc());
}

TEST(Apps, GatewayFlowClassesFitTheIdFieldAtAnyScale) {
  // F = max(4, E/4) flow_class ranges over the 16-bit hdr.ipv4.id: 4096
  // wide while they fit (E <= 67, rule sets unchanged), an even split of
  // the field beyond — 4096-wide ranges overflowed it from E = 68 on.
  for (int e : {64, 68, 128, 1024}) {
    ir::Context ctx;
    GwConfig cfg;
    cfg.level = 4;
    cfg.elastic_ips = e;
    AppBundle app = make_gateway(ctx, cfg);
    EXPECT_NO_THROW(sim::compile(app.dp, app.rules, ctx)) << "E=" << e;
    EXPECT_NO_THROW(cfg::build_cfg(app.dp, app.rules, ctx)) << "E=" << e;
    const uint64_t classes = static_cast<uint64_t>(std::max(4, e / 4));
    const uint64_t step = e <= 67 ? 4096 : 65536 / classes;
    uint64_t seen = 0;
    for (const p4::TableEntry& r : app.rules.entries) {
      if (r.table == "flow_class") {
        const uint64_t i = r.args.at(0);
        EXPECT_EQ(r.matches.at(0).lo, i * step) << "E=" << e;
        EXPECT_EQ(r.matches.at(0).hi, (i + 1) * step - 1) << "E=" << e;
        EXPECT_LE(r.matches.at(0).hi, 0xffffu) << "E=" << e;
        ++seen;
      } else if (r.table == "policer") {
        EXPECT_EQ(r.matches.at(0).value % step, 7u) << "E=" << e;
      }
    }
    EXPECT_EQ(seen, classes) << "E=" << e;
  }
}

TEST(Apps, ProgramLocGrowsWithLevel) {
  ir::Context ctx;
  size_t prev = 0;
  size_t prev_pipes = 0;
  for (int level = 1; level <= 4; ++level) {
    ir::Context c;
    GwConfig cfg;
    cfg.level = level;
    cfg.elastic_ips = 4;
    AppBundle app = make_gateway(c, cfg);
    size_t loc = app.dp.program.loc();
    // gw-4 reuses gw-3's program over twice the pipes/switches.
    EXPECT_GE(loc, prev) << "level " << level;
    EXPECT_GT(app.dp.topology.instances.size(), prev_pipes);
    prev = loc;
    prev_pipes = app.dp.topology.instances.size();
  }
}

}  // namespace
}  // namespace meissa::apps
