// Crash-safe checkpointing (driver/checkpoint): payload round-trips are
// name-based (a fresh Context re-serializes to the same bytes), the file
// image rejects every corruption class (magic, version, key, truncation,
// payload bit-flips) via its CRC, the manager falls back to `.prev` when
// the current file fails validation, and an engine-level mid-flight
// frontier resumes to the exact result stream of an uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "driver/checkpoint.hpp"
#include "driver/generator.hpp"
#include "sym/engine.hpp"
#include "testlib.hpp"

namespace meissa {
namespace {

// A per-test scratch directory, cleaned on entry (stale state from a
// previous run must never validate a test).
std::string temp_dir(const std::string& name) {
  std::filesystem::path p =
      std::filesystem::temp_directory_path() / ("m4ckpt_" + name);
  std::filesystem::remove_all(p);
  return p.string();
}

std::vector<uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Real DFS results + per-shard snapshots from the Fig. 7 running example:
// run the sharded engine with a cadence-1 progress hook and keep every
// snapshot — exactly the write sequence a checkpointing run produces.
struct CapturedRun {
  std::vector<sym::PathResult> results;
  std::vector<std::vector<sym::ShardProgress>> snapshots;  // per shard
  std::vector<sym::ShardProgress> final_state;             // last per shard
};

CapturedRun run_fig7_captured(ir::Context& ctx, const cfg::Cfg& g) {
  CapturedRun run;
  std::mutex mu;
  sym::Engine eng(ctx, g);
  sym::ParallelHooks hooks;
  hooks.checkpoint_every = 1;
  hooks.on_shards = [&](size_t n) {
    std::lock_guard<std::mutex> lk(mu);
    run.snapshots.assign(n, {});
    run.final_state.assign(n, {});
  };
  hooks.progress = [&](size_t i, const sym::ShardProgress& p) {
    std::lock_guard<std::mutex> lk(mu);
    run.snapshots[i].push_back(p);
    run.final_state[i] = p;
  };
  eng.run_parallel([&](const sym::PathResult& r) { run.results.push_back(r); },
                   4, hooks);
  return run;
}

std::vector<std::string> render(ir::Context& ctx,
                                const std::vector<sym::PathResult>& rs) {
  std::vector<std::string> out;
  for (const sym::PathResult& r : rs) {
    std::ostringstream os;
    for (cfg::NodeId n : r.path) os << n << " ";
    os << "| " << ir::to_string(ctx.arena.all_of(r.conds), ctx.fields);
    out.push_back(os.str());
  }
  return out;
}

driver::CheckpointData make_fig7_data(ir::Context& ctx, const cfg::Cfg& g) {
  CapturedRun run = run_fig7_captured(ctx, g);
  driver::CheckpointData d;
  d.shards = run.final_state;
  summary::SummaryUnit u;
  u.instance = "p0";
  u.paths_after = run.results.size();
  u.smt_checks = 17;
  u.smt_skipped = 3;
  u.seconds = 0.25;
  u.internal = run.results;
  u.seed_snaps.push_back({"@p0.hdr.f1", "hdr.f1", 8});
  d.units[u.instance] = u;
  return d;
}

TEST(Crc32, KnownAnswer) {
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(driver::crc32(check, sizeof(check)), 0xCBF43926u);
  EXPECT_EQ(driver::crc32(nullptr, 0), 0u);
}

TEST(Checkpoint, PayloadRoundTripIsNameBased) {
  ir::Context ctx1;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx1);
  cfg::Cfg g = cfg::build_cfg(dp, testlib::fig7_rules(3), ctx1);
  driver::CheckpointData d = make_fig7_data(ctx1, g);
  ASSERT_FALSE(d.shards.empty());
  const std::vector<uint8_t> bytes1 = driver::serialize_checkpoint(ctx1, d);

  // Deserialize into a *fresh* Context — FieldId numbering there genuinely
  // differs — and re-serialize: the payload must be byte-identical, which
  // is only possible if every reference went through names.
  ir::Context ctx2;
  driver::CheckpointData d2 = driver::deserialize_checkpoint(ctx2, bytes1);
  EXPECT_EQ(d2.units.size(), d.units.size());
  ASSERT_EQ(d2.shards.size(), d.shards.size());
  for (size_t i = 0; i < d.shards.size(); ++i) {
    EXPECT_EQ(d2.shards[i].done, d.shards[i].done) << "shard " << i;
    EXPECT_EQ(d2.shards[i].results.size(), d.shards[i].results.size());
    EXPECT_EQ(d2.shards[i].frontier, d.shards[i].frontier);
    EXPECT_EQ(d2.shards[i].fresh_counter, d.shards[i].fresh_counter);
  }
  const std::vector<uint8_t> bytes2 = driver::serialize_checkpoint(ctx2, d2);
  EXPECT_EQ(bytes2, bytes1);
}

TEST(Checkpoint, TruncatedPayloadThrowsNotCrashes) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  cfg::Cfg g = cfg::build_cfg(dp, testlib::fig7_rules(2), ctx);
  std::vector<uint8_t> bytes =
      driver::serialize_checkpoint(ctx, make_fig7_data(ctx, g));
  ASSERT_GT(bytes.size(), 8u);
  bytes.resize(bytes.size() / 2);
  ir::Context fresh;
  EXPECT_THROW(driver::deserialize_checkpoint(fresh, bytes), util::Error);
}

TEST(Checkpoint, FileImageRejectsEveryCorruptionClass) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  cfg::Cfg g = cfg::build_cfg(dp, testlib::fig7_rules(3), ctx);
  driver::CheckpointData d = make_fig7_data(ctx, g);
  const uint64_t key = 0x1122334455667788ull;
  const std::vector<uint8_t> image = driver::encode_checkpoint_file(ctx, key, d);

  ir::Context fresh;
  ASSERT_TRUE(driver::decode_checkpoint_file(fresh, key, image).has_value());

  // Wrong content key: a checkpoint from another program/config.
  EXPECT_FALSE(driver::decode_checkpoint_file(fresh, key + 1, image));

  // Bad magic and bad version.
  std::vector<uint8_t> bad = image;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(driver::decode_checkpoint_file(fresh, key, bad));
  bad = image;
  bad[8] ^= 0xFF;  // version u32 follows the 8-byte magic
  EXPECT_FALSE(driver::decode_checkpoint_file(fresh, key, bad));

  // Truncation: drop the tail (a crash mid-write).
  bad = image;
  bad.resize(bad.size() - 7);
  EXPECT_FALSE(driver::decode_checkpoint_file(fresh, key, bad));
  bad.clear();
  EXPECT_FALSE(driver::decode_checkpoint_file(fresh, key, bad));

  // A single flipped payload bit must fail the CRC.
  bad = image;
  bad[bad.size() - 1] ^= 0x10;
  EXPECT_FALSE(driver::decode_checkpoint_file(fresh, key, bad));
  bad = image;
  bad[bad.size() / 2] ^= 0x01;
  EXPECT_FALSE(driver::decode_checkpoint_file(fresh, key, bad));
}

TEST(Checkpoint, ManagerPersistsAndReloads) {
  const std::string dir = temp_dir("manager");
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  cfg::Cfg g = cfg::build_cfg(dp, testlib::fig7_rules(3), ctx);
  driver::CheckpointData d = make_fig7_data(ctx, g);
  const uint64_t key = 42;
  {
    driver::CheckpointManager m(ctx, dir, key);
    m.begin_shards(d.shards.size());
    for (size_t i = 0; i < d.shards.size(); ++i) m.update_shard(i, d.shards[i]);
    m.add_unit(d.units.at("p0"));
    EXPECT_GE(m.writes(), d.shards.size() + 1);  // begin_shards persists too
    EXPECT_EQ(m.failures(), 0u);
  }
  ir::Context fresh;
  driver::CheckpointManager m2(fresh, dir, key);
  driver::CheckpointData loaded;
  ASSERT_TRUE(m2.load(loaded));
  EXPECT_EQ(loaded.units.count("p0"), 1u);
  EXPECT_EQ(loaded.shards.size(), d.shards.size());

  // The same directory under a different content key finds nothing.
  driver::CheckpointManager wrong(fresh, dir, key + 1);
  driver::CheckpointData none;
  EXPECT_FALSE(wrong.load(none));
}

TEST(Checkpoint, CorruptCurrentFallsBackToPrev) {
  const std::string dir = temp_dir("fallback");
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  cfg::Cfg g = cfg::build_cfg(dp, testlib::fig7_rules(3), ctx);
  driver::CheckpointData d = make_fig7_data(ctx, g);
  const uint64_t key = 7;
  std::string current;
  {
    driver::CheckpointManager m(ctx, dir, key);
    current = m.path();
    summary::SummaryUnit u = d.units.at("p0");
    m.add_unit(u);      // write 1 → becomes .prev
    u.instance = "p1";  // write 2 → current (two units)
    m.add_unit(u);
    EXPECT_EQ(m.writes(), 2u);
  }
  // Flip one byte of the current file: the crash left torn data on disk.
  std::vector<uint8_t> bytes = read_all(current);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x40;
  write_all(current, bytes);

  ir::Context fresh;
  driver::CheckpointManager m2(fresh, dir, key);
  driver::CheckpointData loaded;
  ASSERT_TRUE(m2.load(loaded));  // .prev: one checkpoint interval lost
  EXPECT_EQ(loaded.units.size(), 1u);
  EXPECT_EQ(loaded.units.count("p0"), 1u);

  // With .prev gone too, the load reports nothing rather than bad data.
  std::filesystem::remove(current + ".prev");
  driver::CheckpointManager m3(fresh, dir, key);
  driver::CheckpointData none;
  EXPECT_FALSE(m3.load(none));
}

TEST(Checkpoint, InjectedWriteCorruptionCostsOneInterval) {
  const std::string dir = temp_dir("injected");
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  cfg::Cfg g = cfg::build_cfg(dp, testlib::fig7_rules(3), ctx);
  driver::CheckpointData d = make_fig7_data(ctx, g);
  const uint64_t key = 9;
  util::FaultInjector inj;
  // Corrupt the *second* write's bytes on their way to disk.
  inj.add(util::parse_fault_spec("checkpoint.write:corrupt:1:100:1"));
  {
    driver::CheckpointManager m(ctx, dir, key, &inj);
    summary::SummaryUnit u = d.units.at("p0");
    m.add_unit(u);
    u.instance = "p1";
    m.add_unit(u);  // damaged image lands in checkpoint.bin
    EXPECT_EQ(inj.fired(), 1u);
  }
  ir::Context fresh;
  driver::CheckpointManager m2(fresh, dir, key);
  driver::CheckpointData loaded;
  ASSERT_TRUE(m2.load(loaded));  // falls back to the first write
  EXPECT_EQ(loaded.units.size(), 1u);
}

TEST(Checkpoint, InjectedSerializeAbortCountsAsFailure) {
  const std::string dir = temp_dir("serfail");
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  cfg::Cfg g = cfg::build_cfg(dp, testlib::fig7_rules(2), ctx);
  driver::CheckpointData d = make_fig7_data(ctx, g);
  util::FaultInjector inj;
  inj.add(util::parse_fault_spec("checkpoint.serialize:abort:0:0:1"));
  driver::CheckpointManager m(ctx, dir, 1, &inj);
  summary::SummaryUnit u = d.units.at("p0");
  m.add_unit(u);  // injected abort: counted, never thrown
  EXPECT_EQ(m.failures(), 1u);
  EXPECT_EQ(m.writes(), 0u);
  u.instance = "p1";
  m.add_unit(u);  // fault consumed: the next persist succeeds
  EXPECT_EQ(m.writes(), 1u);
  EXPECT_EQ(m.failures(), 1u);
}

TEST(ContentKey, DiscriminatesInventoryAndOutputAffectingOptions) {
  ir::Context ctx;
  apps::AppBundle app = apps::make_router(ctx, 6);
  driver::GenOptions opts;
  cfg::Cfg g = cfg::build_cfg(app.dp, app.rules, ctx, opts.build);

  const uint64_t base = driver::checkpoint_content_key(ctx, g, opts);
  EXPECT_EQ(driver::checkpoint_content_key(ctx, g, opts), base);

  // A different pipeline inventory → a different key.
  ir::Context ctx2;
  apps::AppBundle app2 = apps::make_mtag(ctx2, 4);
  cfg::Cfg g2 = cfg::build_cfg(app2.dp, app2.rules, ctx2, opts.build);
  EXPECT_NE(driver::checkpoint_content_key(ctx2, g2, opts), base);

  // A *content* change with the same inventory (fewer routes installed)
  // keeps the key: program content is tracked by the payload's unit
  // fingerprints, so a localized edit degrades the checkpoint instead of
  // rejecting it wholesale.
  ir::Context ctx3;
  apps::AppBundle app3 = apps::make_router(ctx3, 4);
  cfg::Cfg g3 = cfg::build_cfg(app3.dp, app3.rules, ctx3, opts.build);
  EXPECT_EQ(driver::checkpoint_content_key(ctx3, g3, opts), base);

  // Every output-affecting option the key hashes changes it...
  const std::vector<std::pair<const char*,
                              std::function<void(driver::GenOptions&)>>>
      flips = {
          {"code_summary", [](auto& o) { o.code_summary = false; }},
          {"early_termination", [](auto& o) { o.early_termination = false; }},
          {"check_every_predicate",
           [](auto& o) { o.check_every_predicate = true; }},
          {"incremental", [](auto& o) { o.incremental = false; }},
          {"max_templates", [](auto& o) { o.max_templates = 3; }},
          {"smt_budget.max_conflicts",
           [](auto& o) { o.smt_budget.max_conflicts = 1; }},
          {"smt_budget.max_propagations",
           [](auto& o) { o.smt_budget.max_propagations = 1; }},
          {"smt_budget.max_wall_ms",
           [](auto& o) { o.smt_budget.max_wall_ms = 1; }},
          {"precondition_filtering",
           [](auto& o) { o.precondition_filtering = false; }},
          {"assumes",
           [&](auto& o) {
             o.assumes = {ctx.arena.bool_const(true)};
           }},
      };
  driver::GenOptions changed;
  for (const auto& [name, flip] : flips) {
    changed = opts;
    flip(changed);
    EXPECT_NE(driver::checkpoint_content_key(ctx, g, changed), base) << name;
  }

  // ...output-neutral ones (threads, cadence, static pruning) must not:
  // a checkpoint is resumable under a different thread count.
  changed = opts;
  changed.threads = 7;
  changed.checkpoint_every = 1;
  changed.static_pruning = !opts.static_pruning;
  EXPECT_EQ(driver::checkpoint_content_key(ctx, g, changed), base);
}

TEST(Checkpoint, LoadKeepsFrontiersOnlyForTheSameGraph) {
  // Shard frontiers embed absolute node ids: they survive a load only under
  // the same whole-graph hash. Units survive either way, fingerprints
  // intact — summarize() decides which of them replay
  // (tests/early_cutoff_test.cpp).
  const std::string dir = temp_dir("fpfilter");
  const uint64_t key = 42;
  const uint64_t graph_fp = 100;

  ir::Context ctx;
  {
    driver::CheckpointManager m(ctx, dir, key, nullptr, graph_fp);
    summary::SummaryUnit ua;
    ua.instance = "A";
    ua.fingerprint = 11;
    m.add_unit(ua);
    summary::SummaryUnit ub;
    ub.instance = "B";
    ub.fingerprint = 22;
    m.add_unit(ub);
    m.begin_shards(1);
    m.update_shard(0, {});
    EXPECT_GT(m.writes(), 0u);
  }

  // Same graph: everything survives.
  {
    ir::Context fresh;
    driver::CheckpointManager m(fresh, dir, key, nullptr, graph_fp);
    driver::CheckpointData out;
    ASSERT_TRUE(m.load(out));
    EXPECT_EQ(out.units.size(), 2u);
    EXPECT_EQ(out.shards.size(), 1u);
  }

  // Another graph: the frontier is cleared, the units are kept.
  {
    ir::Context fresh;
    driver::CheckpointManager m(fresh, dir, key, nullptr, graph_fp + 1);
    driver::CheckpointData out;
    ASSERT_TRUE(m.load(out));
    EXPECT_TRUE(out.shards.empty());
    ASSERT_EQ(out.units.size(), 2u);
    EXPECT_EQ(out.units.at("A").fingerprint, 11u);
    EXPECT_EQ(out.units.at("B").fingerprint, 22u);
  }

  // A checkpoint holding only a frontier, loaded for another graph, has
  // nothing left to resume.
  const std::string dir2 = temp_dir("fpfilter2");
  {
    driver::CheckpointManager m(ctx, dir2, key, nullptr, graph_fp);
    m.begin_shards(1);
    m.update_shard(0, {});
  }
  {
    ir::Context fresh;
    driver::CheckpointManager m(fresh, dir2, key, nullptr, graph_fp + 1);
    driver::CheckpointData out;
    EXPECT_FALSE(m.load(out));
  }
}

TEST(Resume, EngineMidFlightFrontierMatchesUninterrupted) {
  ir::Context ctx;
  p4::DataPlane dp = testlib::make_fig7_plane(ctx);
  cfg::Cfg g = cfg::build_cfg(dp, testlib::fig7_rules(3), ctx);
  CapturedRun run = run_fig7_captured(ctx, g);
  const std::vector<std::string> base = render(ctx, run.results);
  ASSERT_FALSE(base.empty());

  // Round-trip the snapshots through the serialized format — resume must
  // work from *deserialized* state, exactly as after a real kill.
  driver::CheckpointData d;
  d.shards = run.final_state;
  const std::vector<uint8_t> bytes = driver::serialize_checkpoint(ctx, d);

  // Case 1: every shard done (the kill landed after the DFS finished).
  {
    ir::Context c2;
    p4::DataPlane dp2 = testlib::make_fig7_plane(c2);
    cfg::Cfg g2 = cfg::build_cfg(dp2, testlib::fig7_rules(3), c2);
    driver::CheckpointData prior = driver::deserialize_checkpoint(c2, bytes);
    sym::Engine eng(c2, g2);
    sym::ParallelHooks hooks;
    hooks.resume = &prior.shards;
    std::vector<sym::PathResult> got;
    eng.run_parallel([&](const sym::PathResult& r) { got.push_back(r); }, 4,
                     hooks);
    EXPECT_EQ(render(c2, got), base);
    EXPECT_EQ(eng.stats().resumed_shards, prior.shards.size());
  }

  // Case 2: mid-flight — for every shard that emitted results, resume from
  // its *first* cadence snapshot (the rest of the subtree re-explores from
  // the frontier); untouched shards restart from scratch.
  {
    driver::CheckpointData mid;
    mid.shards.assign(run.final_state.size(), {});
    size_t mid_shards = 0;
    for (size_t i = 0; i < run.snapshots.size(); ++i) {
      if (!run.snapshots[i].empty() && !run.snapshots[i][0].done) {
        mid.shards[i] = run.snapshots[i][0];
        ++mid_shards;
      }
    }
    ASSERT_GT(mid_shards, 0u);
    const std::vector<uint8_t> mid_bytes =
        driver::serialize_checkpoint(ctx, mid);

    ir::Context c2;
    p4::DataPlane dp2 = testlib::make_fig7_plane(c2);
    cfg::Cfg g2 = cfg::build_cfg(dp2, testlib::fig7_rules(3), c2);
    driver::CheckpointData prior =
        driver::deserialize_checkpoint(c2, mid_bytes);
    sym::Engine eng(c2, g2);
    sym::ParallelHooks hooks;
    hooks.resume = &prior.shards;
    std::vector<sym::PathResult> got;
    eng.run_parallel([&](const sym::PathResult& r) { got.push_back(r); }, 4,
                     hooks);
    EXPECT_EQ(render(c2, got), base);
    EXPECT_EQ(eng.stats().resumed_shards, mid_shards);
  }
}

}  // namespace
}  // namespace meissa
