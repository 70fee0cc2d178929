// Greybox-lane tests: coverage-map bucketing and edge accounting, mutator
// determinism, fuzzer same-seed reproducibility, divergence detection on a
// seeded toolchain bug, seed-register installation, per-input attribution
// from a batch run, and campaign outcomes pinned across scorer changes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "fuzz/fuzz.hpp"
#include "sim/coverage.hpp"
#include "sim/toolchain.hpp"
#include "testlib.hpp"

namespace meissa::fuzz {
namespace {

// ----------------------------------------------------------- coverage map

TEST(Coverage, BucketBitsLadder) {
  EXPECT_EQ(sim::bucket_bits(0), 0);
  EXPECT_EQ(sim::bucket_bits(1), 1);
  EXPECT_EQ(sim::bucket_bits(2), 2);
  EXPECT_EQ(sim::bucket_bits(3), 4);
  EXPECT_EQ(sim::bucket_bits(5), 8);
  EXPECT_EQ(sim::bucket_bits(15), 16);
  EXPECT_EQ(sim::bucket_bits(31), 32);
  EXPECT_EQ(sim::bucket_bits(100), 64);
  EXPECT_EQ(sim::bucket_bits(255), 128);
}

TEST(Coverage, EdgesAndBoundaries) {
  sim::CoverageMap cov;
  cov.hit(1);
  cov.hit(2);
  EXPECT_EQ(cov.nonzero(), 2u);  // edge 0->1 and edge 1->2

  // boundary() breaks the chain: the same two keys after a boundary land
  // on the same two edges as a fresh map would.
  sim::CoverageMap cov2;
  cov2.hit(1);
  cov2.boundary();
  cov2.hit(1);
  cov2.hit(2);
  sim::CoverageMap ref;
  ref.hit(1);
  ref.hit(2);
  // cov2 saw edge 0->1 twice plus 1->2 once; same *edges* as ref.
  size_t shared = 0;
  for (size_t i = 0; i < sim::CoverageMap::kSize; ++i) {
    shared += cov2.bytes()[i] != 0 && ref.bytes()[i] != 0;
  }
  EXPECT_EQ(shared, ref.nonzero());

  cov.reset();
  EXPECT_EQ(cov.nonzero(), 0u);
}

TEST(Coverage, MergeNewCoverage) {
  sim::CoverageMap cov;
  cov.hit(7);
  std::vector<uint8_t> virgin;

  // Probe without commit: fresh, and virgin stays unchanged.
  EXPECT_TRUE(sim::merge_new_coverage(cov, virgin, /*commit=*/false));
  EXPECT_TRUE(sim::merge_new_coverage(cov, virgin, /*commit=*/false));

  // Commit: absorbed, then no longer fresh.
  EXPECT_TRUE(sim::merge_new_coverage(cov, virgin, /*commit=*/true));
  EXPECT_FALSE(sim::merge_new_coverage(cov, virgin, /*commit=*/false));

  // A new bucket (more hits on the same edge) is fresh again.
  cov.hit(7);  // second hit: bucket 1 -> bucket 2
  EXPECT_TRUE(sim::merge_new_coverage(cov, virgin, /*commit=*/false));
}

// Reference semantics: full scans of the 64 KiB map.
size_t full_scan_nonzero(const std::vector<uint8_t>& map) {
  size_t n = 0;
  for (uint8_t b : map) n += b != 0;
  return n;
}

bool full_scan_merge(const std::vector<uint8_t>& map,
                     std::vector<uint8_t>& virgin, bool commit) {
  bool fresh = false;
  for (size_t i = 0; i < map.size(); ++i) {
    uint8_t bits = sim::bucket_bits(map[i]);
    if ((bits & ~virgin[i]) != 0) {
      fresh = true;
      if (!commit) return true;
      virgin[i] |= bits;
    }
  }
  return fresh;
}

TEST(Coverage, TouchedListMatchesFullScan) {
  util::Rng rng(0xc0ffee);
  sim::CoverageMap cov;  // reused across rounds through reset()
  std::vector<uint8_t> virgin(sim::CoverageMap::kSize, 0);
  std::vector<uint8_t> ref_virgin = virgin;
  bool saturated = false;
  for (int round = 0; round < 40; ++round) {
    cov.reset();
    ASSERT_EQ(cov.nonzero(), 0u);
    ASSERT_EQ(cov.packets(), 0u);
    ASSERT_EQ(full_scan_nonzero(cov.bytes()), 0u);

    const size_t packets = 1 + rng.below(8);
    size_t logged = 0;
    for (size_t p = 0; p < packets; ++p) {
      cov.boundary();
      if (rng.chance(1, 6)) {
        // One key repeated: its self-edge counter saturates at 0xff.
        const uint32_t key = static_cast<uint32_t>(rng.next());
        for (int k = 0; k < 300; ++k) cov.hit(key);
        logged += 300;
        continue;
      }
      const size_t hits = rng.below(40);
      for (size_t k = 0; k < hits; ++k) {
        // Small key space: edges repeat and counters climb the buckets.
        cov.hit(static_cast<uint32_t>(rng.below(24)) * 0x9e3779b1u);
      }
      logged += hits;
    }
    ASSERT_EQ(cov.packets(), packets);
    size_t segmented = 0;
    for (size_t p = 0; p < packets; ++p) segmented += cov.packet_hits(p).size();
    EXPECT_EQ(segmented, logged);
    for (uint8_t b : cov.bytes()) saturated |= b == 0xff;

    EXPECT_EQ(cov.nonzero(), full_scan_nonzero(cov.bytes()));
    for (uint32_t i : cov.touched()) EXPECT_NE(cov.bytes()[i], 0);

    EXPECT_EQ(sim::merge_new_coverage(cov, virgin, /*commit=*/false),
              full_scan_merge(cov.bytes(), ref_virgin, /*commit=*/false));
    EXPECT_EQ(virgin, ref_virgin);
    // Commit every other round so later probes see both outcomes.
    if (round % 2 == 0) {
      EXPECT_EQ(sim::merge_new_coverage(cov, virgin, /*commit=*/true),
                full_scan_merge(cov.bytes(), ref_virgin, /*commit=*/true));
      EXPECT_EQ(virgin, ref_virgin);
    }
  }
  EXPECT_TRUE(saturated);
}

// --------------------------------------------------------------- mutator

TEST(Mutator, DeterministicForFixedSeed) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 4);
  Mutator mut(app.dp, app.rules);

  util::Rng a(123), b(123);
  for (int i = 0; i < 32; ++i) {
    sim::DeviceInput x = mut.random_packet(a);
    sim::DeviceInput y = mut.random_packet(b);
    EXPECT_EQ(x.port, y.port);
    EXPECT_EQ(x.bytes, y.bytes);
    mut.mutate(x, a);
    mut.mutate(y, b);
    EXPECT_EQ(x.port, y.port);
    EXPECT_EQ(x.bytes, y.bytes);
  }
  EXPECT_GT(mut.dictionary_size(), 0u);
  EXPECT_GT(mut.layouts(), 0u);
}

// ---------------------------------------------------------------- fuzzer

FuzzResult fuzz_bug(ir::Context& ctx, int index, uint64_t seed,
                    uint64_t execs) {
  apps::BugScenario s = apps::make_bug(ctx, index);
  apps::AppBundle intended = apps::make_bug_intended(ctx, index);
  sim::Device target(sim::compile(s.bundle.dp, s.bundle.rules, ctx, s.fault),
                     ctx);
  sim::Device reference(sim::compile(intended.dp, intended.rules, ctx), ctx);
  FuzzOptions opts;
  opts.execs = execs;
  opts.seed = seed;
  Fuzzer fuzzer(target, reference, s.bundle.dp, s.bundle.rules, opts);
  return fuzzer.run();
}

TEST(Fuzzer, FindsParserSelectBug) {
  // Bug 7: the toolchain compiles away a parser select; random walks that
  // pin the select constant diverge almost immediately.
  ir::Context ctx;
  FuzzResult r = fuzz_bug(ctx, 7, 1, 2000);
  EXPECT_TRUE(r.found());
  EXPECT_GT(r.coverage_edges, 0u);
  ASSERT_FALSE(r.samples.empty());
  EXPECT_FALSE(r.samples[0].target_trace.empty());
  EXPECT_FALSE(r.samples[0].reference_trace.empty());
}

TEST(Fuzzer, SameSeedReproducesCoverageAndVerdicts) {
  ir::Context ctx1, ctx2;
  FuzzResult a = fuzz_bug(ctx1, 8, 5, 1500);
  FuzzResult b = fuzz_bug(ctx2, 8, 5, 1500);
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.coverage_edges, b.coverage_edges);
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.corpus_adds, b.corpus_adds);
  EXPECT_EQ(a.divergences, b.divergences);
}

TEST(Fuzzer, IdenticalDevicesNeverDiverge) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_mtag(ctx, 4);
  sim::Device target(sim::compile(app.dp, app.rules, ctx), ctx);
  sim::Device reference(sim::compile(app.dp, app.rules, ctx), ctx);
  FuzzOptions opts;
  opts.execs = 1000;
  Fuzzer fuzzer(target, reference, app.dp, app.rules, opts);
  FuzzResult r = fuzzer.run();
  EXPECT_EQ(r.divergences, 0u);
  EXPECT_GT(r.coverage_edges, 0u);
}

TEST(Fuzzer, AddSeedInstallsRegistersOnBothDevices) {
  ir::Context ctx;
  apps::GwConfig cfg;
  cfg.level = 1;
  cfg.elastic_ips = 2;
  apps::AppBundle app = apps::make_gateway(ctx, cfg);
  sim::Device target(sim::compile(app.dp, app.rules, ctx), ctx);
  sim::Device reference(sim::compile(app.dp, app.rules, ctx), ctx);
  Fuzzer fuzzer(target, reference, app.dp, app.rules, {});

  ir::ConcreteState regs;
  regs[ctx.fields.intern(p4::register_field("gw_stats", 0), 32)] = 5;
  fuzzer.add_seed(sim::DeviceInput{0, {0xde, 0xad}}, regs);
  EXPECT_EQ(target.get_register("gw_stats", 0), 5u);
  EXPECT_EQ(reference.get_register("gw_stats", 0), 5u);
}

// Each input's counts, replayed from its segment of a batch's hit log,
// equal the map a fresh single-input run builds (what Fuzzer::execute
// relies on to score inputs without running them again).
void expect_batch_attribution(sim::Device& device, const p4::DataPlane& dp,
                              const p4::RuleSet& rules, uint64_t seed) {
  Mutator mut(dp, rules);
  util::Rng rng(seed);
  sim::CoverageMap batch_cov, replayed, single;
  sim::ExecArena batch_arena, single_arena;
  batch_arena.collect_trace = false;
  batch_arena.coverage = &batch_cov;
  single_arena.collect_trace = false;
  single_arena.coverage = &single;
  for (size_t n : {1u, 7u, 64u}) {
    std::vector<sim::DeviceInput> ins;
    for (size_t i = 0; i < n; ++i) {
      sim::DeviceInput in = mut.random_packet(rng);
      mut.mutate(in, rng);
      ins.push_back(std::move(in));
    }
    std::vector<sim::DeviceOutput> outs(n);
    batch_cov.reset();
    device.run_batch(ins, outs, batch_arena);
    ASSERT_EQ(batch_cov.packets(), n);
    for (size_t i = 0; i < n; ++i) {
      replayed.reset();
      for (uint32_t idx : batch_cov.packet_hits(i)) replayed.count(idx);
      single.reset();
      sim::DeviceOutput out;
      device.run_batch({&ins[i], 1}, {&out, 1}, single_arena);
      EXPECT_GT(single.nonzero(), 0u);
      EXPECT_EQ(replayed.nonzero(), single.nonzero()) << "input " << i;
      EXPECT_TRUE(replayed.bytes() == single.bytes())
          << "batch of " << n << ", input " << i;
    }
  }
}

TEST(Fuzzer, BatchAttributionMatchesSingleRun) {
  {
    ir::Context ctx;
    apps::AppBundle app = apps::make_router(ctx, 6);
    sim::Device dev(sim::compile(app.dp, app.rules, ctx), ctx);
    expect_batch_attribution(dev, app.dp, app.rules, 1);
  }
  for (int level : {1, 4}) {
    ir::Context ctx;
    apps::GwConfig cfg;
    cfg.level = level;
    cfg.elastic_ips = 4;
    apps::AppBundle app = apps::make_gateway(ctx, cfg);
    sim::Device dev(sim::compile(app.dp, app.rules, ctx), ctx);
    expect_batch_attribution(dev, app.dp, app.rules, 10 + level);
    // Installed seed registers are every packet's starting snapshot.
    ir::ConcreteState regs;
    for (uint64_t cell = 0; cell < 4; ++cell) {
      regs[ctx.fields.intern(p4::register_field("gw_stats", cell), 32)] =
          3 + cell;
    }
    dev.set_registers(regs);
    expect_batch_attribution(dev, app.dp, app.rules, 20 + level);
  }
  for (int bug : {7, 14}) {
    ir::Context ctx;
    apps::BugScenario s = apps::make_bug(ctx, bug);
    sim::Device dev(
        sim::compile(s.bundle.dp, s.bundle.rules, ctx, s.fault), ctx);
    expect_batch_attribution(dev, s.bundle.dp, s.bundle.rules, 30 + bug);
  }
}

// Campaign outcomes pinned to what the full-scan scorer, which re-ran
// every input of a flagged batch, produced: `m4fuzz --app gw-N --seed S
// --execs 5000 --no-template-seeds --json` before per-input attribution.
TEST(Fuzzer, PinnedCampaignOutcomes) {
  struct Pin {
    int level;
    uint64_t seed;
    size_t corpus;
    uint64_t corpus_adds;
    size_t coverage_edges;
  };
  const Pin pins[] = {
      {1, 7, 60, 44, 87},
      {1, 31, 53, 37, 78},
      {4, 7, 32, 16, 36},
      {4, 31, 37, 21, 135},
  };
  for (const Pin& pin : pins) {
    ir::Context ctx;
    apps::GwConfig cfg;
    cfg.level = pin.level;
    cfg.elastic_ips = 4;
    apps::AppBundle app = apps::make_gateway(ctx, cfg);
    sim::Device target(sim::compile(app.dp, app.rules, ctx), ctx);
    sim::Device reference(sim::compile(app.dp, app.rules, ctx), ctx);
    FuzzOptions opts;
    opts.execs = 5000;
    opts.seed = pin.seed;
    Fuzzer fuzzer(target, reference, app.dp, app.rules, opts);
    FuzzResult r = fuzzer.run();
    SCOPED_TRACE("gw-" + std::to_string(pin.level) + " seed " +
                 std::to_string(pin.seed));
    EXPECT_EQ(r.execs, 5000u);
    EXPECT_EQ(r.divergences, 0u);
    EXPECT_EQ(r.corpus, pin.corpus);
    EXPECT_EQ(r.corpus_adds, pin.corpus_adds);
    EXPECT_EQ(r.coverage_edges, pin.coverage_edges);
  }
}

TEST(Fuzzer, ResultJsonRoundTrips) {
  ir::Context ctx;
  FuzzResult r = fuzz_bug(ctx, 7, 2, 500);
  testlib::json::Value v = testlib::json::parse(r.to_json());
  EXPECT_EQ(static_cast<uint64_t>(v.at("execs").as_number()), r.execs);
  EXPECT_EQ(static_cast<size_t>(v.at("coverage_edges").as_number()),
            r.coverage_edges);
  EXPECT_EQ(static_cast<uint64_t>(v.at("divergences").as_number()),
            r.divergences);
  EXPECT_EQ(v.at("samples").array.size(), r.samples.size());
}

}  // namespace
}  // namespace meissa::fuzz
