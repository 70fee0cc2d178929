#include "driver/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "driver/generator.hpp"
#include "util/error.hpp"

namespace meissa::driver {

namespace {

constexpr char kMagic[8] = {'M', '4', 'C', 'K', 'P', 'T', '0', '1'};
// v2: solver-throughput counters (fast-path skips, EngineStats::pc_cache_*,
// model reuses). A v1 checkpoint simply fails the version guard and the
// run starts fresh — never misparsed.
// v3: payload carries region fingerprints (graph/glue/per-region) and the
// content key covers options only — readers of v2 and earlier reject.
// v4: drops the fast-path-skip and model-reuse counters.
// v5: each unit carries its fingerprint; the payload keeps only the
// whole-graph hash (glue and per-region hashes are gone).
constexpr uint32_t kVersion = 5;

// --- primitive byte streams (little-endian) -------------------------------

struct ByteWriter {
  std::vector<uint8_t> bytes;

  void u8(uint8_t v) { bytes.push_back(v); }
  void u32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(uint8_t(v >> (8 * i)));
  }
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(uint8_t(v >> (8 * i)));
  }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void f64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes.insert(bytes.end(), s.begin(), s.end());
  }
};

struct ByteReader {
  const uint8_t* p;
  const uint8_t* end;

  void need(size_t n) const {
    util::check(size_t(end - p) >= n, "checkpoint: truncated payload");
  }
  uint8_t u8() {
    need(1);
    return *p++;
  }
  uint32_t u32() {
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(*p++) << (8 * i);
    return v;
  }
  uint64_t u64() {
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(*p++) << (8 * i);
    return v;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  double f64() {
    uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    return s;
  }
};

// --- expressions ----------------------------------------------------------
// Recursive tag-based encoding; fields by name. Deserialization rebuilds
// through the arena make-functions — interning is idempotent and the
// original node was itself arena-made, so the round trip reproduces the
// exact (pointer-identical within one context) structure.

void put_expr(ByteWriter& w, const ir::FieldTable& fields, ir::ExprRef e) {
  w.u8(static_cast<uint8_t>(e->kind));
  switch (e->kind) {
    case ir::ExprKind::kConst:
      w.u64(e->value);
      w.i32(e->width);
      break;
    case ir::ExprKind::kField:
      w.str(fields.name(e->field));
      w.i32(e->width);
      break;
    case ir::ExprKind::kArith:
      w.u8(e->op);
      put_expr(w, fields, e->lhs);
      put_expr(w, fields, e->rhs);
      break;
    case ir::ExprKind::kBoolConst:
      w.u8(e->value != 0 ? 1 : 0);
      break;
    case ir::ExprKind::kCmp:
      w.u8(e->op);
      put_expr(w, fields, e->lhs);
      put_expr(w, fields, e->rhs);
      break;
    case ir::ExprKind::kBool:
      w.u8(e->op);
      put_expr(w, fields, e->lhs);
      put_expr(w, fields, e->rhs);
      break;
    case ir::ExprKind::kNot:
      put_expr(w, fields, e->lhs);
      break;
  }
}

ir::ExprRef get_expr(ByteReader& r, ir::Context& ctx) {
  const auto kind = static_cast<ir::ExprKind>(r.u8());
  switch (kind) {
    case ir::ExprKind::kConst: {
      uint64_t v = r.u64();
      int width = r.i32();
      return ctx.arena.constant(v, width);
    }
    case ir::ExprKind::kField: {
      std::string name = r.str();
      int width = r.i32();
      return ctx.arena.field(ctx.fields.intern(name, width), width);
    }
    case ir::ExprKind::kArith: {
      auto op = static_cast<ir::ArithOp>(r.u8());
      ir::ExprRef a = get_expr(r, ctx);
      ir::ExprRef b = get_expr(r, ctx);
      return ctx.arena.arith(op, a, b);
    }
    case ir::ExprKind::kBoolConst:
      return ctx.arena.bool_const(r.u8() != 0);
    case ir::ExprKind::kCmp: {
      auto op = static_cast<ir::CmpOp>(r.u8());
      ir::ExprRef a = get_expr(r, ctx);
      ir::ExprRef b = get_expr(r, ctx);
      return ctx.arena.cmp(op, a, b);
    }
    case ir::ExprKind::kBool: {
      auto op = static_cast<ir::BoolOp>(r.u8());
      ir::ExprRef a = get_expr(r, ctx);
      ir::ExprRef b = get_expr(r, ctx);
      return op == ir::BoolOp::kAnd ? ctx.arena.band(a, b)
                                    : ctx.arena.bor(a, b);
    }
    case ir::ExprKind::kNot:
      return ctx.arena.bnot(get_expr(r, ctx));
  }
  throw util::ValidationError("checkpoint: unknown expression tag");
}

// --- engine structures ----------------------------------------------------

void put_solver_stats(ByteWriter& w, const smt::SolverStats& s) {
  w.u64(s.checks);
  w.u64(s.fast_path_hits);
  w.u64(s.sat_calls);
  w.u64(s.unknowns);
  w.u64(s.pushes);
  w.u64(s.pops);
}

smt::SolverStats get_solver_stats(ByteReader& r) {
  smt::SolverStats s;
  s.checks = r.u64();
  s.fast_path_hits = r.u64();
  s.sat_calls = r.u64();
  s.unknowns = r.u64();
  s.pushes = r.u64();
  s.pops = r.u64();
  return s;
}

void put_engine_stats(ByteWriter& w, const sym::EngineStats& s) {
  w.u64(s.valid_paths);
  w.u64(s.pruned_paths);
  w.u64(s.folded_checks);
  w.u64(s.nodes_visited);
  w.u64(s.offtarget_paths);
  w.u64(s.static_prunes);
  w.u64(s.skipped_checks);
  w.u64(s.degraded_paths);
  w.u8(s.timed_out ? 1 : 0);
  w.u8(s.cancelled ? 1 : 0);
  w.u64(s.requeued_shards);
  w.u64(s.degraded_shards);
  w.u64(s.resumed_shards);
  w.u64(s.pc_cache_hits);
  w.u64(s.pc_cache_misses);
  put_solver_stats(w, s.solver);
}

sym::EngineStats get_engine_stats(ByteReader& r) {
  sym::EngineStats s;
  s.valid_paths = r.u64();
  s.pruned_paths = r.u64();
  s.folded_checks = r.u64();
  s.nodes_visited = r.u64();
  s.offtarget_paths = r.u64();
  s.static_prunes = r.u64();
  s.skipped_checks = r.u64();
  s.degraded_paths = r.u64();
  s.timed_out = r.u8() != 0;
  s.cancelled = r.u8() != 0;
  s.requeued_shards = r.u64();
  s.degraded_shards = r.u64();
  s.resumed_shards = r.u64();
  s.pc_cache_hits = r.u64();
  s.pc_cache_misses = r.u64();
  s.solver = get_solver_stats(r);
  return s;
}

void put_path_result(ByteWriter& w, const ir::Context& ctx,
                     const sym::PathResult& pr) {
  w.u64(pr.path.size());
  for (cfg::NodeId n : pr.path) w.u32(n);
  w.u64(pr.conds.size());
  for (ir::ExprRef c : pr.conds) put_expr(w, ctx.fields, c);
  // The value map sorted by field *name*: FieldId order is interning order,
  // which differs between the writing and the reading process.
  std::vector<std::pair<ir::FieldId, ir::ExprRef>> vals(pr.values.begin(),
                                                        pr.values.end());
  std::sort(vals.begin(), vals.end(),
            [&](const auto& a, const auto& b) {
              return ctx.fields.name(a.first) < ctx.fields.name(b.first);
            });
  w.u64(vals.size());
  for (const auto& [f, e] : vals) {
    w.str(ctx.fields.name(f));
    w.i32(ctx.fields.width(f));
    put_expr(w, ctx.fields, e);
  }
  w.u64(pr.obligations.size());
  for (const sym::HashObligation& o : pr.obligations) {
    w.str(ctx.fields.name(o.placeholder));
    w.i32(ctx.fields.width(o.placeholder));
    w.u8(static_cast<uint8_t>(o.algo));
    w.u64(o.key_exprs.size());
    for (ir::ExprRef k : o.key_exprs) put_expr(w, ctx.fields, k);
    w.u64(o.key_widths.size());
    for (int kw : o.key_widths) w.i32(kw);
  }
  w.u8(static_cast<uint8_t>(pr.exit));
  w.i32(pr.emit_instance);
}

sym::PathResult get_path_result(ByteReader& r, ir::Context& ctx) {
  sym::PathResult pr;
  pr.path.resize(r.u64());
  for (cfg::NodeId& n : pr.path) n = r.u32();
  pr.conds.resize(r.u64());
  for (ir::ExprRef& c : pr.conds) c = get_expr(r, ctx);
  uint64_t nvals = r.u64();
  for (uint64_t i = 0; i < nvals; ++i) {
    std::string name = r.str();
    int width = r.i32();
    ir::FieldId f = ctx.fields.intern(name, width);
    pr.values[f] = get_expr(r, ctx);
  }
  pr.obligations.resize(r.u64());
  for (sym::HashObligation& o : pr.obligations) {
    std::string name = r.str();
    int width = r.i32();
    o.placeholder = ctx.fields.intern(name, width);
    o.algo = static_cast<p4::HashAlgo>(r.u8());
    o.key_exprs.resize(r.u64());
    for (ir::ExprRef& k : o.key_exprs) k = get_expr(r, ctx);
    o.key_widths.resize(r.u64());
    for (int& kw : o.key_widths) kw = r.i32();
  }
  pr.exit = static_cast<cfg::ExitKind>(r.u8());
  pr.emit_instance = r.i32();
  return pr;
}

void put_shard(ByteWriter& w, const ir::Context& ctx,
               const sym::ShardProgress& s) {
  w.u8(s.done ? 1 : 0);
  w.u64(s.results.size());
  for (const sym::PathResult& pr : s.results) put_path_result(w, ctx, pr);
  w.u64(s.frontier.size());
  for (cfg::NodeId n : s.frontier) w.u32(n);
  w.u64(s.fresh_counter);
  put_engine_stats(w, s.stats);
}

sym::ShardProgress get_shard(ByteReader& r, ir::Context& ctx) {
  sym::ShardProgress s;
  s.done = r.u8() != 0;
  s.results.resize(r.u64());
  for (sym::PathResult& pr : s.results) pr = get_path_result(r, ctx);
  s.frontier.resize(r.u64());
  for (cfg::NodeId& n : s.frontier) n = r.u32();
  s.fresh_counter = r.u64();
  s.stats = get_engine_stats(r);
  return s;
}

void put_unit(ByteWriter& w, const ir::Context& ctx,
              const summary::SummaryUnit& u) {
  w.str(u.instance);
  w.u64(u.fingerprint);
  w.u64(u.paths_after);
  w.u64(u.smt_checks);
  w.u64(u.smt_skipped);
  w.f64(u.seconds);
  w.u64(u.internal.size());
  for (const sym::PathResult& pr : u.internal) put_path_result(w, ctx, pr);
  w.u64(u.seed_snaps.size());
  for (const summary::SummaryUnit::SeedSnap& s : u.seed_snaps) {
    w.str(s.at);
    w.str(s.orig);
    w.i32(s.width);
  }
}

summary::SummaryUnit get_unit(ByteReader& r, ir::Context& ctx) {
  summary::SummaryUnit u;
  u.instance = r.str();
  u.fingerprint = r.u64();
  u.paths_after = r.u64();
  u.smt_checks = r.u64();
  u.smt_skipped = r.u64();
  u.seconds = r.f64();
  u.internal.resize(r.u64());
  for (sym::PathResult& pr : u.internal) pr = get_path_result(r, ctx);
  u.seed_snaps.resize(r.u64());
  for (summary::SummaryUnit::SeedSnap& s : u.seed_snaps) {
    s.at = r.str();
    s.orig = r.str();
    s.width = r.i32();
  }
  return u;
}

// --- content-key helpers --------------------------------------------------

uint64_t key_str(uint64_t h, const std::string& s) {
  uint64_t n = s.size();
  h = fnv1a(h, &n, sizeof(n));
  return fnv1a(h, s.data(), s.size());
}

uint64_t key_u64(uint64_t h, uint64_t v) { return fnv1a(h, &v, sizeof(v)); }

// --- file I/O -------------------------------------------------------------

bool read_file(const std::string& path, std::vector<uint8_t>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return true;
}

bool write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool ok = written == bytes.size();
  ok = std::fflush(f) == 0 && ok;
  std::fclose(f);
  return ok;
}

}  // namespace

uint32_t crc32(const uint8_t* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

std::vector<uint8_t> serialize_checkpoint(const ir::Context& ctx,
                                          const CheckpointData& data) {
  ByteWriter w;
  w.u64(data.graph_fp);
  // Units in sorted instance order: the file bytes are a pure function of
  // the state, not of map iteration order.
  std::vector<const summary::SummaryUnit*> units;
  units.reserve(data.units.size());
  for (const auto& [name, u] : data.units) units.push_back(&u);
  std::sort(units.begin(), units.end(),
            [](const summary::SummaryUnit* a, const summary::SummaryUnit* b) {
              return a->instance < b->instance;
            });
  w.u64(units.size());
  for (const summary::SummaryUnit* u : units) put_unit(w, ctx, *u);
  w.u64(data.shards.size());
  for (const sym::ShardProgress& s : data.shards) put_shard(w, ctx, s);
  return std::move(w.bytes);
}

CheckpointData deserialize_checkpoint(ir::Context& ctx,
                                      const std::vector<uint8_t>& payload) {
  ByteReader r{payload.data(), payload.data() + payload.size()};
  CheckpointData data;
  data.graph_fp = r.u64();
  uint64_t nunits = r.u64();
  for (uint64_t i = 0; i < nunits; ++i) {
    summary::SummaryUnit u = get_unit(r, ctx);
    std::string name = u.instance;
    data.units.emplace(std::move(name), std::move(u));
  }
  data.shards.resize(r.u64());
  for (sym::ShardProgress& s : data.shards) s = get_shard(r, ctx);
  util::check(r.p == r.end, "checkpoint: trailing bytes in payload");
  return data;
}

std::vector<uint8_t> encode_checkpoint_file(const ir::Context& ctx,
                                            uint64_t content_key,
                                            const CheckpointData& data) {
  std::vector<uint8_t> payload = serialize_checkpoint(ctx, data);
  ByteWriter w;
  w.bytes.insert(w.bytes.end(), kMagic, kMagic + sizeof(kMagic));
  w.u32(kVersion);
  w.u64(content_key);
  w.u64(payload.size());
  w.u32(crc32(payload.data(), payload.size()));
  w.bytes.insert(w.bytes.end(), payload.begin(), payload.end());
  return std::move(w.bytes);
}

std::optional<CheckpointData> decode_checkpoint_file(
    ir::Context& ctx, uint64_t content_key,
    const std::vector<uint8_t>& bytes) {
  constexpr size_t kHeader = sizeof(kMagic) + 4 + 8 + 8 + 4;
  if (bytes.size() < kHeader) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  ByteReader r{bytes.data() + sizeof(kMagic), bytes.data() + bytes.size()};
  if (r.u32() != kVersion) return std::nullopt;
  if (r.u64() != content_key) return std::nullopt;
  uint64_t payload_len = r.u64();
  uint32_t crc = r.u32();
  if (uint64_t(r.end - r.p) != payload_len) return std::nullopt;
  if (crc32(r.p, payload_len) != crc) return std::nullopt;
  std::vector<uint8_t> payload(r.p, r.end);
  try {
    return deserialize_checkpoint(ctx, payload);
  } catch (const util::Error&) {
    // CRC passed but the payload is structurally invalid (version-skewed
    // writer): treat like corruption and let the caller fall back.
    return std::nullopt;
  }
}

uint64_t checkpoint_content_key(const ir::Context& ctx, const cfg::Cfg& g,
                                const GenOptions& opts) {
  uint64_t h = kFnvOffset;
  // The instance inventory only — program *content* lives in the payload
  // (unit fingerprints, and analysis::fingerprint_graph gating the shard
  // frontiers), so an edited region degrades the checkpoint instead of
  // discarding it.
  h = key_u64(h, g.instances().size());
  for (const cfg::InstanceInfo& info : g.instances()) {
    h = key_str(h, info.name);
    h = key_str(h, info.pipeline);
  }
  // Output-affecting options. Thread count, static pruning, cadence and
  // supervision are excluded: solver-equivalent or schedule-only.
  h = key_u64(h, opts.code_summary ? 1 : 0);
  h = key_u64(h, opts.early_termination ? 1 : 0);
  h = key_u64(h, opts.check_every_predicate ? 1 : 0);
  h = key_u64(h, opts.incremental ? 1 : 0);
  h = key_u64(h, opts.max_templates);
  h = key_u64(h, opts.smt_budget.max_conflicts);
  h = key_u64(h, opts.smt_budget.max_propagations);
  h = key_u64(h, opts.smt_budget.max_wall_ms);
  h = key_u64(h, opts.precondition_filtering ? 1 : 0);
  h = key_u64(h, opts.assumes.size());
  for (ir::ExprRef a : opts.assumes) {
    h = key_str(h, ir::to_string(a, ctx.fields));
  }
  return h;
}

CheckpointManager::CheckpointManager(ir::Context& ctx, std::string dir,
                                     uint64_t content_key,
                                     util::FaultInjector* fault,
                                     uint64_t graph_fp)
    : ctx_(ctx),
      dir_(std::move(dir)),
      path_(dir_ + "/checkpoint.bin"),
      key_(content_key),
      fault_(fault),
      graph_fp_(graph_fp) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best-effort; write fails
  data_.graph_fp = graph_fp_;
}

bool CheckpointManager::load(CheckpointData& out) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint8_t> bytes;
  for (const std::string& candidate : {path_, path_ + ".prev"}) {
    if (!read_file(candidate, bytes)) continue;
    std::optional<CheckpointData> data =
        decode_checkpoint_file(ctx_, key_, bytes);
    if (!data.has_value()) continue;
    // Shard frontiers embed absolute node ids. Units are kept whatever
    // their fingerprints: summarize() decides which of them replay.
    if (data->graph_fp != graph_fp_) data->shards.clear();
    if (data->units.empty() && data->shards.empty()) continue;
    out = std::move(*data);
    // Subsequent persists describe the CURRENT run only. summarize()
    // reports every unit it replays or re-explores through on_unit, so the
    // loaded units are not carried forward: a stored unit explored under
    // an upstream output this run has since replaced would otherwise
    // outlive a kill and replay on its fingerprint at the next resume.
    data_.units.clear();
    data_.shards = out.shards;
    data_.graph_fp = graph_fp_;
    return true;
  }
  return false;
}

void CheckpointManager::add_unit(const summary::SummaryUnit& u) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.units[u.instance] = u;
  persist_locked();
}

void CheckpointManager::begin_shards(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  // A fresh DFS phase: prior shard progress (from the loaded checkpoint)
  // has been handed to the engine as resume input; the table restarts and
  // is repopulated by the engine's progress snapshots (resumed-done shards
  // re-fire theirs immediately).
  data_.shards.assign(n, sym::ShardProgress{});
  persist_locked();
}

void CheckpointManager::update_shard(size_t i, const sym::ShardProgress& p) {
  std::lock_guard<std::mutex> lock(mu_);
  if (i >= data_.shards.size()) data_.shards.resize(i + 1);
  data_.shards[i] = p;
  persist_locked();
}

uint64_t CheckpointManager::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

uint64_t CheckpointManager::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

void CheckpointManager::persist_locked() {
  // A failing checkpoint must never fail the generation it protects:
  // every failure mode — allocation, injected fault, filesystem — lands
  // in the failure counter and the run continues on the previous file.
  try {
    if (fault_ != nullptr) fault_->hit("checkpoint.serialize");
    std::vector<uint8_t> bytes = encode_checkpoint_file(ctx_, key_, data_);
    if (fault_ != nullptr) fault_->mutate("checkpoint.write", bytes);
    const std::string tmp = path_ + ".tmp";
    if (!write_file(tmp, bytes)) {
      ++failures_;
      return;
    }
    // Rotate: current → .prev (keeps one known-good fallback), tmp →
    // current (atomic on POSIX). A crash between the renames leaves a
    // loadable .prev.
    std::error_code ec;
    std::filesystem::rename(path_, path_ + ".prev", ec);  // ok to miss
    std::filesystem::rename(tmp, path_, ec);
    if (ec) {
      ++failures_;
      return;
    }
    ++writes_;
  } catch (...) {
    ++failures_;
  }
}

}  // namespace meissa::driver
