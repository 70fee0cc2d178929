// driver::IncrementalSession: summary-unit reuse + shared verdict cache
// across rule updates. The soundness bar is byte-identity — an incremental
// update's templates must equal a from-scratch regeneration of the updated
// program — and early cutoff's upstream condition is load-bearing for it:
// some update leaves a region's fingerprint unchanged while changing what
// re-exploring the region produces.
#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/apps.hpp"
#include "cfg/build.hpp"
#include "driver/incremental.hpp"
#include "gtest/gtest.h"

namespace meissa::driver {
namespace {

apps::AppBundle gateway(ir::Context& ctx, int level = 2) {
  apps::GwConfig cfg;
  cfg.level = level;
  cfg.elastic_ips = 4;
  return apps::make_gateway(ctx, cfg);
}

// Removes the target table's last remaining entry; false when none left.
bool remove_last_entry(p4::RuleSet& rules, const std::string& table) {
  for (auto it = rules.entries.rbegin(); it != rules.entries.rend(); ++it) {
    if (it->table == table) {
      rules.entries.erase(std::next(it).base());
      return true;
    }
  }
  return false;
}

// Sorted strict signatures of a from-scratch generation of `rules`.
std::vector<std::string> full_regen_sigs(const p4::DataPlane& dp,
                                         const p4::RuleSet& rules,
                                         ir::Context& ctx,
                                         uint64_t* checks = nullptr) {
  Generator gen(ctx, dp, rules, GenOptions{});
  std::vector<sym::TestCaseTemplate> ts = gen.generate();
  std::vector<std::string> sigs;
  for (const sym::TestCaseTemplate& t : ts) {
    sigs.push_back(IncrementalSession::full_signature(ctx, gen.graph(), t));
  }
  std::sort(sigs.begin(), sigs.end());
  if (checks != nullptr) *checks = gen.stats().smt_checks;
  return sigs;
}

TEST(Incremental, GatewayUpdateIsByteIdenticalAndReusesCleanRegions) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx);
  IncrementalSession session(ctx, app.dp);

  p4::RuleSet rules = app.rules;
  UpdateReport base = session.run(rules);
  EXPECT_EQ(base.run, 0);
  EXPECT_FALSE(base.templates.empty());

  const std::string table = rules.entries.back().table;
  ASSERT_TRUE(remove_last_entry(rules, table));
  UpdateReport up = session.run(rules);
  EXPECT_EQ(up.run, 1);
  EXPECT_FALSE(up.impact.dirty.empty());
  EXPECT_FALSE(up.impact.clean.empty()) << "tail update dirtied everything";
  EXPECT_GT(up.summaries_reused, 0u);
  // Delta coverage is an exact partition of the update's template set.
  EXPECT_EQ(up.added + up.unchanged, up.templates.size());

  // Byte-identity against a from-scratch regeneration in a fresh context.
  ir::Context ctx2;
  apps::AppBundle app2 = gateway(ctx2);
  p4::RuleSet rules2 = app2.rules;
  ASSERT_TRUE(remove_last_entry(rules2, table));
  uint64_t full_checks = 0;
  std::vector<std::string> fresh =
      full_regen_sigs(app2.dp, rules2, ctx2, &full_checks);
  EXPECT_EQ(up.full_sigs, fresh);
  // The point of the machinery: the update pays fewer backend checks than
  // regenerating from scratch.
  EXPECT_LT(up.smt_checks, full_checks);
}

// Every unit a from-scratch summary of `rules` produces, by instance.
std::unordered_map<std::string, summary::SummaryUnit> explore_all(
    ir::Context& ctx, const p4::DataPlane& dp, const p4::RuleSet& rules) {
  std::unordered_map<std::string, summary::SummaryUnit> units;
  summary::SummaryHooks hooks;
  hooks.on_unit = [&](size_t, const summary::SummaryUnit& u) {
    units[u.instance] = u;
  };
  summary::SummaryOptions so;
  so.hooks = &hooks;
  summary::summarize(ctx, cfg::build_cfg(dp, rules, ctx), so);
  return units;
}

// A unit's explore output rendered by name (node paths excluded: they are
// absolute ids, which shift with any table's expansion size).
std::string render_unit(const ir::Context& ctx,
                        const summary::SummaryUnit& u) {
  std::ostringstream os;
  for (const sym::PathResult& r : u.internal) {
    os << "path";
    for (ir::ExprRef c : r.conds) os << '|' << ir::to_string(c, ctx.fields);
    std::vector<std::string> values;
    for (const auto& [f, v] : r.values) {
      values.push_back(ctx.fields.name(f) + '=' + ir::to_string(v, ctx.fields));
    }
    std::sort(values.begin(), values.end());
    for (const std::string& v : values) os << '|' << v;
    for (const sym::HashObligation& o : r.obligations) {
      os << "|#" << ctx.fields.name(o.placeholder);
      for (ir::ExprRef k : o.key_exprs) os << ',' << ir::to_string(k, ctx.fields);
    }
    os << "|exit" << static_cast<int>(r.exit) << '@' << r.emit_instance
       << '\n';
  }
  for (const summary::SummaryUnit::SeedSnap& snap : u.seed_snaps) {
    os << "seed|" << snap.at << '|' << snap.orig << '\n';
  }
  return os.str();
}

TEST(Incremental, DependencyEdgesAreLoadBearing) {
  // A fingerprint alone does not license replay. On gw-3, dropping an
  // elastic_ip entry edits one region, and the regions downstream of it
  // see a different public pre-condition: some region whose fingerprint
  // is unchanged re-explores to a different unit. Replaying it on its
  // fingerprint would splice a stale summary; the session re-explores it
  // because an upstream output changed, and stays byte-identical.
  const std::string table = "elastic_ip";
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx, 3);
  p4::RuleSet rules = app.rules;
  const auto base = explore_all(ctx, app.dp, rules);
  ASSERT_TRUE(remove_last_entry(rules, table));
  const auto edited = explore_all(ctx, app.dp, rules);

  std::vector<std::string> stale;  // same fingerprint, different unit
  size_t fps_changed = 0;
  for (const auto& [name, u] : edited) {
    const summary::SummaryUnit& b = base.at(name);
    if (u.fingerprint != b.fingerprint) {
      ++fps_changed;
    } else if (render_unit(ctx, u) != render_unit(ctx, b)) {
      stale.push_back(name);
    }
  }
  EXPECT_EQ(fps_changed, 1u);
  ASSERT_FALSE(stale.empty())
      << "no region's output moved without its fingerprint — the upstream "
         "condition of early cutoff would be dead weight";

  ir::Context ctx2;
  apps::AppBundle app2 = gateway(ctx2, 3);
  IncrementalSession session(ctx2, app2.dp);
  p4::RuleSet rules2 = app2.rules;
  session.run(rules2);
  ASSERT_TRUE(remove_last_entry(rules2, table));
  UpdateReport up = session.run(rules2);
  for (const std::string& name : stale) {
    EXPECT_NE(std::find(up.impact.dirty.begin(), up.impact.dirty.end(), name),
              up.impact.dirty.end())
        << name << " was replayed from a stale unit";
  }
  ir::Context ctx3;
  apps::AppBundle app3 = gateway(ctx3, 3);
  p4::RuleSet rules3 = app3.rules;
  ASSERT_TRUE(remove_last_entry(rules3, table));
  EXPECT_EQ(up.full_sigs, full_regen_sigs(app3.dp, rules3, ctx3));
}

TEST(Incremental, DirtySetsMatchTheDefUseAnalysis) {
  // Precision pin: on single-entry updates of the switch tables, early
  // cutoff re-explores exactly the regions the static def-use impact
  // analysis it replaced marked dirty.
  struct Pin {
    int level;
    std::string table;
    std::vector<std::string> dirty;
  };
  const std::vector<Pin> pins = {
      {3, "qos", {"sw0.geg"}},
      {3, "sw_l3", {"sw0.sig", "sw0.geg"}},
      {3, "sw_dmac", {"sw0.seg", "sw0.sig", "sw0.geg"}},
      {4, "qos", {"sw0.geg", "sw1.gig", "sw1.seg", "sw1.sig", "sw1.geg"}},
      {4,
       "sw_l3",
       {"sw0.sig", "sw0.geg", "sw1.gig", "sw1.seg", "sw1.sig", "sw1.geg"}},
      {4,
       "sw_dmac",
       {"sw0.seg", "sw0.sig", "sw0.geg", "sw1.gig", "sw1.seg", "sw1.sig",
        "sw1.geg"}},
  };
  for (const Pin& pin : pins) {
    ir::Context ctx;
    apps::AppBundle app = gateway(ctx, pin.level);
    IncrementalSession session(ctx, app.dp);
    p4::RuleSet rules = app.rules;
    session.run(rules);
    ASSERT_TRUE(remove_last_entry(rules, pin.table));
    UpdateReport up = session.run(rules);
    EXPECT_EQ(up.impact.dirty, pin.dirty)
        << "gw-" << pin.level << " " << pin.table;
    EXPECT_EQ(up.impact.dirty.size() + up.impact.clean.size(),
              static_cast<size_t>(pin.level == 3 ? 4 : 8));
  }
}

TEST(Incremental, SecondIdenticalRunIsAllClean) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx, 1);
  IncrementalSession session(ctx, app.dp);
  UpdateReport base = session.run(app.rules);
  UpdateReport again = session.run(app.rules);
  EXPECT_TRUE(again.impact.dirty.empty());
  EXPECT_EQ(again.impact.clean.size(), base.impact.clean.size() +
                                           base.impact.dirty.size());
  EXPECT_EQ(again.added, 0u);
  EXPECT_EQ(again.removed, 0u);
  EXPECT_EQ(again.unchanged, again.templates.size());
  EXPECT_EQ(again.full_sigs, base.full_sigs);
}

}  // namespace
}  // namespace meissa::driver
