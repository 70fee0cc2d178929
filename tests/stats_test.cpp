// Tests for the stats merge operators used when aggregating per-worker
// explorations and per-app benchmark runs.
#include <gtest/gtest.h>

#include "driver/generator.hpp"

namespace meissa {
namespace {

TEST(StatsMerge, SolverStatsSumsAllCounters) {
  smt::SolverStats a;
  a.checks = 10;
  a.fast_path_hits = 4;
  a.sat_calls = 6;
  a.unknowns = 1;
  a.pushes = 20;
  a.pops = 18;
  smt::SolverStats b;
  b.checks = 1;
  b.fast_path_hits = 1;
  b.sat_calls = 0;
  b.unknowns = 2;
  b.pushes = 2;
  b.pops = 2;
  a += b;
  EXPECT_EQ(a.checks, 11u);
  EXPECT_EQ(a.fast_path_hits, 5u);
  EXPECT_EQ(a.sat_calls, 6u);
  EXPECT_EQ(a.unknowns, 3u);
  EXPECT_EQ(a.pushes, 22u);
  EXPECT_EQ(a.pops, 20u);
}

TEST(StatsMerge, EngineStatsSumsAndOrsTimeout) {
  sym::EngineStats a;
  a.valid_paths = 3;
  a.pruned_paths = 2;
  a.folded_checks = 7;
  a.nodes_visited = 40;
  a.offtarget_paths = 1;
  a.static_prunes = 4;
  a.skipped_checks = 6;
  a.degraded_paths = 2;
  a.pc_cache_hits = 8;
  a.pc_cache_misses = 12;
  a.solver.checks = 5;
  sym::EngineStats b;
  b.valid_paths = 2;
  b.pruned_paths = 1;
  b.degraded_paths = 3;
  b.cancelled = true;
  b.folded_checks = 3;
  b.nodes_visited = 10;
  b.offtarget_paths = 0;
  b.static_prunes = 1;
  b.skipped_checks = 2;
  b.timed_out = true;
  b.pc_cache_hits = 2;
  b.pc_cache_misses = 3;
  b.solver.checks = 4;
  a += b;
  EXPECT_EQ(a.valid_paths, 5u);
  EXPECT_EQ(a.pruned_paths, 3u);
  EXPECT_EQ(a.folded_checks, 10u);
  EXPECT_EQ(a.nodes_visited, 50u);
  EXPECT_EQ(a.offtarget_paths, 1u);
  EXPECT_EQ(a.static_prunes, 5u);
  EXPECT_EQ(a.skipped_checks, 8u);
  EXPECT_EQ(a.degraded_paths, 5u);
  EXPECT_TRUE(a.timed_out);
  EXPECT_TRUE(a.cancelled);
  EXPECT_EQ(a.pc_cache_hits, 10u);
  EXPECT_EQ(a.pc_cache_misses, 15u);
  EXPECT_EQ(a.solver.checks, 9u);
  // timed_out and cancelled are sticky in both directions.
  sym::EngineStats c;
  a += c;
  EXPECT_TRUE(a.timed_out);
  EXPECT_TRUE(a.cancelled);
}

TEST(StatsMerge, GenStatsSumsTimesCountersAndPipelines) {
  driver::GenStats a;
  a.build_seconds = 1.0;
  a.summary_seconds = 2.0;
  a.dfs_seconds = 3.0;
  a.total_seconds = 6.0;
  a.smt_checks = 100;
  a.smt_calls_skipped = 30;
  a.templates = 5;
  a.diagnostics = 1;
  a.paths_original = util::BigCount::of(1000);
  a.paths_summarized = util::BigCount::of(10);
  a.pipelines.push_back({"ingress0", util::BigCount::of(100), 4, 9, 0.5});
  a.engine.valid_paths = 5;
  a.exact_paths = 5;
  a.degraded_paths = 1;
  a.smt_unknowns = 1;
  driver::GenStats b;
  b.timed_out = true;
  b.cancelled = true;
  b.exact_paths = 2;
  b.degraded_paths = 4;
  b.smt_unknowns = 6;
  b.build_seconds = 0.5;
  b.summary_seconds = 0.25;
  b.dfs_seconds = 0.25;
  b.total_seconds = 1.0;
  b.smt_checks = 10;
  b.smt_calls_skipped = 5;
  b.templates = 2;
  b.paths_original = util::BigCount::of(24);
  b.paths_summarized = util::BigCount::of(6);
  b.pipelines.push_back({"egress0", util::BigCount::of(8), 2, 3, 0.1});
  b.engine.valid_paths = 2;
  a += b;
  EXPECT_TRUE(a.timed_out);
  EXPECT_TRUE(a.cancelled);
  EXPECT_EQ(a.exact_paths, 7u);
  EXPECT_EQ(a.degraded_paths, 5u);
  EXPECT_EQ(a.smt_unknowns, 7u);
  EXPECT_DOUBLE_EQ(a.build_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.summary_seconds, 2.25);
  EXPECT_DOUBLE_EQ(a.dfs_seconds, 3.25);
  EXPECT_DOUBLE_EQ(a.total_seconds, 7.0);
  EXPECT_EQ(a.smt_checks, 110u);
  EXPECT_EQ(a.smt_calls_skipped, 35u);
  EXPECT_EQ(a.templates, 7u);
  EXPECT_EQ(a.diagnostics, 1u);
  EXPECT_EQ(a.paths_original.exact(), 1024u);
  EXPECT_EQ(a.paths_summarized.exact(), 16u);
  ASSERT_EQ(a.pipelines.size(), 2u);
  EXPECT_EQ(a.pipelines[0].instance, "ingress0");
  EXPECT_EQ(a.pipelines[1].instance, "egress0");
  EXPECT_EQ(a.engine.valid_paths, 7u);
}

}  // namespace
}  // namespace meissa
