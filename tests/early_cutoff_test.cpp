// Early cutoff (summary::SummaryHooks::resume) and the fingerprints it
// keys summary units by (analysis/impact). A pipeline replays its prior
// unit only when the unit's fingerprint matches the current build and
// every upstream pipeline was replayed or re-explored to output equal to
// its prior unit. The fingerprints' load-bearing property is interning-
// order independence — they hash field *names* and region-local discovery
// indices, never FieldId or NodeId, so two contexts that interned the same
// program differently must agree on every hash.
#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/impact.hpp"
#include "apps/apps.hpp"
#include "cfg/build.hpp"
#include "gtest/gtest.h"
#include "summary/summary.hpp"

namespace meissa {
namespace {

using Units = std::unordered_map<std::string, summary::SummaryUnit>;

apps::AppBundle gateway(ir::Context& ctx, int level = 2) {
  apps::GwConfig cfg;
  cfg.level = level;
  cfg.elastic_ips = 4;
  return apps::make_gateway(ctx, cfg);
}

// Builds the gateway, optionally pre-interning the reference context's
// field inventory in a shuffled order first, so the program's FieldIds
// (and the expressions hash-consed over them) come out permuted relative
// to the reference build.
struct Build {
  ir::Context ctx;
  apps::AppBundle app;
  cfg::Cfg g;
};

void make_build(Build& b, const ir::Context* shuffle_from, uint64_t seed) {
  if (shuffle_from != nullptr) {
    std::vector<ir::FieldId> order(shuffle_from->fields.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<ir::FieldId>(i);
    }
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    for (ir::FieldId f : order) {
      b.ctx.fields.intern(shuffle_from->fields.name(f),
                          shuffle_from->fields.width(f));
    }
  }
  b.app = gateway(b.ctx);
  b.g = cfg::build_cfg(b.app.dp, b.app.rules, b.ctx);
}

TEST(Fingerprints, IndependentOfInterningOrder) {
  Build ref;
  make_build(ref, nullptr, 0);
  ASSERT_GT(ref.ctx.fields.size(), 0u);
  const analysis::RegionFingerprints a =
      analysis::fingerprint_regions(ref.ctx, ref.g);
  for (uint64_t seed : {1u, 7u}) {
    Build sh;
    make_build(sh, &ref.ctx, seed);
    // Sanity: the shuffle actually permuted at least one field id.
    bool permuted = false;
    for (ir::FieldId f = 0; f < ref.ctx.fields.size(); ++f) {
      permuted = permuted || sh.ctx.fields.name(f) != ref.ctx.fields.name(f);
    }
    EXPECT_TRUE(permuted) << "seed " << seed << " left the interner as-is";

    const analysis::RegionFingerprints b =
        analysis::fingerprint_regions(sh.ctx, sh.g);
    EXPECT_EQ(a.region, b.region);
    EXPECT_EQ(a.glue, b.glue);
    // The whole-graph hash covers absolute node ids, which the same
    // builder produces identically regardless of interning order.
    EXPECT_EQ(analysis::fingerprint_graph(ref.ctx, ref.g),
              analysis::fingerprint_graph(sh.ctx, sh.g));
  }
}

// One summarize() run capturing every unit, resuming from `resume`.
struct Summary {
  summary::SummaryResult result;
  Units units;
  std::vector<bool> replayed;  // instance order
};

Summary summarize_with(ir::Context& ctx, const cfg::Cfg& g,
                   const Units* resume = nullptr) {
  Summary run;
  summary::SummaryHooks hooks;
  hooks.on_unit = [&](size_t, const summary::SummaryUnit& u) {
    run.units[u.instance] = u;
  };
  hooks.resume = resume;
  summary::SummaryOptions so;
  so.hooks = &hooks;
  run.result = summary::summarize(ctx, g, so);
  for (const summary::PipelineSummary& p : run.result.per_pipeline) {
    run.replayed.push_back(p.resumed);
  }
  return run;
}

// True when instance `j`'s exit reaches instance `k`'s entry.
bool upstream_of(const cfg::Cfg& g, size_t j, size_t k) {
  std::vector<bool> seen(g.size(), false);
  std::vector<cfg::NodeId> work{g.instances()[j].exit};
  while (!work.empty()) {
    const cfg::NodeId cur = work.back();
    work.pop_back();
    if (cur == g.instances()[k].entry) return true;
    for (cfg::NodeId s : g.node(cur).succ) {
      if (!seen[s]) {
        seen[s] = true;
        work.push_back(s);
      }
    }
  }
  return false;
}

// The last instance (in instance order) with a downstream instance: on a
// pipeline chain it has upstream instances too.
size_t last_upstream(const cfg::Cfg& g) {
  for (size_t j = g.instances().size(); j-- > 0;) {
    for (size_t k = 0; k < g.instances().size(); ++k) {
      if (k != j && upstream_of(g, j, k)) return j;
    }
  }
  ADD_FAILURE() << "no instance has a downstream instance";
  return 0;
}

TEST(EarlyCutoff, UnchangedProgramReplaysEveryRegion) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx);
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  const Summary base = summarize_with(ctx, g);
  const Summary again = summarize_with(ctx, g, &base.units);
  EXPECT_EQ(again.replayed, std::vector<bool>(g.instances().size(), true));
  EXPECT_EQ(again.result.resumed_pipelines, g.instances().size());
  EXPECT_EQ(analysis::fingerprint_graph(ctx, again.result.graph),
            analysis::fingerprint_graph(ctx, base.result.graph));
}

TEST(EarlyCutoff, ChangedFingerprintReexploresTheEditedRegion) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx);
  cfg::Cfg g0 = cfg::build_cfg(app.dp, app.rules, ctx);
  const Summary base = summarize_with(ctx, g0);

  // Remove the last installed rule — by construction a late-pipeline
  // table, so some upstream region must survive untouched.
  p4::RuleSet edited = app.rules;
  edited.entries.pop_back();
  cfg::Cfg g1 = cfg::build_cfg(app.dp, edited, ctx);
  const Summary up = summarize_with(ctx, g1, &base.units);

  const analysis::RegionFingerprints f0 =
      analysis::fingerprint_regions(ctx, g0);
  const analysis::RegionFingerprints f1 =
      analysis::fingerprint_regions(ctx, g1);
  size_t edited_regions = 0;
  size_t replayed = 0;
  for (size_t k = 0; k < g1.instances().size(); ++k) {
    const std::string& name = g1.instances()[k].name;
    if (f0.region.at(name) != f1.region.at(name)) {
      ++edited_regions;
      EXPECT_FALSE(up.replayed[k]) << name << " changed but was replayed";
    }
    replayed += up.replayed[k] ? 1 : 0;
  }
  EXPECT_GT(edited_regions, 0u);
  EXPECT_GT(replayed, 0u) << "a tail update re-explored everything";
  // Replay is invisible in the output: the summarized graph equals a
  // from-scratch summary of the edited program.
  const Summary fresh = summarize_with(ctx, g1);
  EXPECT_EQ(analysis::fingerprint_graph(ctx, up.result.graph),
            analysis::fingerprint_graph(ctx, fresh.result.graph));
}

TEST(EarlyCutoff, EqualUpstreamOutputKeepsDownstreamReplayed) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx, 3);
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  const Summary base = summarize_with(ctx, g);

  // A stale fingerprint forces upstream region j to re-explore; the
  // program is unchanged, so its output equals its prior unit and every
  // region downstream of it still replays.
  const size_t j = last_upstream(g);
  Units units = base.units;
  units.at(g.instances()[j].name).fingerprint ^= 1;
  const Summary up = summarize_with(ctx, g, &units);
  for (size_t k = 0; k < g.instances().size(); ++k) {
    EXPECT_EQ(up.replayed[k], k != j) << g.instances()[k].name;
  }
  EXPECT_EQ(analysis::fingerprint_graph(ctx, up.result.graph),
            analysis::fingerprint_graph(ctx, base.result.graph));
}

TEST(EarlyCutoff, ChangedUpstreamOutputReexploresDownstream) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx, 3);
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx);
  const Summary base = summarize_with(ctx, g);

  // Region j re-explores (stale fingerprint) and its output differs from
  // its prior unit (a path dropped from the prior): every region
  // downstream of j re-explores although its own fingerprint matches,
  // and every other region replays.
  const size_t j = last_upstream(g);
  Units units = base.units;
  summary::SummaryUnit& uj = units.at(g.instances()[j].name);
  ASSERT_FALSE(uj.internal.empty());
  uj.fingerprint ^= 1;
  uj.internal.pop_back();
  const Summary up = summarize_with(ctx, g, &units);
  for (size_t k = 0; k < g.instances().size(); ++k) {
    const bool reexplore = k == j || upstream_of(g, j, k);
    EXPECT_EQ(up.replayed[k], !reexplore) << g.instances()[k].name;
  }
  EXPECT_GT(up.result.resumed_pipelines, 0u) << "region j has no upstream";
  EXPECT_EQ(analysis::fingerprint_graph(ctx, up.result.graph),
            analysis::fingerprint_graph(ctx, base.result.graph));
}

TEST(EarlyCutoff, ChangedGlueReexploresEverything) {
  ir::Context ctx;
  apps::AppBundle app = gateway(ctx);
  cfg::Cfg g0 = cfg::build_cfg(app.dp, app.rules, ctx);
  const Summary base = summarize_with(ctx, g0);

  // A no-op glue node in front of the entry: every region's code is
  // untouched, but the inter-pipeline glue changed.
  cfg::Cfg g1 = g0;
  const cfg::NodeId pre = g1.add(ir::Stmt::nop());
  g1.link(pre, g1.entry());
  g1.set_entry(pre);
  const analysis::RegionFingerprints f0 =
      analysis::fingerprint_regions(ctx, g0);
  const analysis::RegionFingerprints f1 =
      analysis::fingerprint_regions(ctx, g1);
  EXPECT_EQ(f0.region, f1.region);
  EXPECT_NE(f0.glue, f1.glue);

  const Summary up = summarize_with(ctx, g1, &base.units);
  EXPECT_EQ(up.replayed, std::vector<bool>(g1.instances().size(), false));
  EXPECT_EQ(up.result.resumed_pipelines, 0u);
}

}  // namespace
}  // namespace meissa
