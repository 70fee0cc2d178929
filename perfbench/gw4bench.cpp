// Workload driver of the repository benchmark (see README.md).
//
// Runs one seeded, closed-loop workload on gw-4 (2 switches x 4 pipes) for
// a wall-clock budget and prints one JSON record of raw measurements as the
// last line of stdout: set-up samples, one entry per timed operation,
// correctness gates and counts. run.py turns the record into metrics.
//
// Every layer is timed from outside, around calls into public functions;
// where a layer has no entry point of its own (CFG build, summary and DFS
// inside a generation) the phase timers of the public GenStats are read.
// With --trace 1 every other operation runs traced: its spans are kept in
// memory and written to --spans FILE (Chrome trace-event JSON) at the end.
//
//   gw4bench --workload test-gw4|churn-gw4|fuzz-gw4 --seed N --seconds S
//            --trace 0|1 [--spans FILE]
//
// Exit code 0 whenever the record was printed; the gates inside it decide
// whether the run was correct. Exit 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "driver/incremental.hpp"
#include "fuzz/fuzz.hpp"
#include "sim/toolchain.hpp"

namespace meissa::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Fixed so that the thread count never depends on the machine.
constexpr int kThreads = 4;
// test-gw4: 671 templates. churn-gw4: 32 entries, 8 regions. fuzz-gw4: 370
// entries, the largest table make_gateway builds today (elastic_ips > 64
// overflows the 16-bit flow_class ranges and throws).
constexpr int kTestEips = 16;
constexpr int kChurnEips = 4;
constexpr int kFuzzEips = 64;
// Executions per fuzz campaign (one timed operation), and the number of
// fuzz seeds whose coverage recorded.json holds.
constexpr uint64_t kFuzzExecs = 20000;
constexpr uint64_t kFuzzSeedClasses = 256;
// A churn stream has at least this many updates, so that at least ten
// latency samples lie beyond its p90.
constexpr size_t kMinUpdates = 100;
// Set-up is timed at least this many times and for at least this long.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 0.5;

const Clock::time_point kEpoch = Clock::now();

double since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------------ spans

// In-memory span store. Ids start at 1; parent 0 marks a root. `n` is the
// number of calls a span aggregates (1 for a single call).
class Tracer {
 public:
  uint64_t next_id() { return ++last_id_; }

  void add(uint64_t id, const char* name, const char* layer,
           Clock::time_point t0, Clock::time_point t1, uint64_t parent,
           uint64_t n = 1, bool synthetic = false) {
    spans_.push_back({name, layer, since(kEpoch, t0) * 1e6,
                      since(t0, t1) * 1e6, id, parent, n, synthetic});
  }
  uint64_t add(const char* name, const char* layer, Clock::time_point t0,
               Clock::time_point t1, uint64_t parent, uint64_t n = 1) {
    uint64_t id = next_id();
    add(id, name, layer, t0, t1, parent, n);
    return id;
  }

  // Phase spans read from a generation's GenStats timers: CFG build at the
  // start of the timed call, then summary and DFS ending at its end. Marked
  // synthetic: their durations are measured, their placement is not.
  void add_phases(const driver::GenStats& st, Clock::time_point t0,
                  Clock::time_point t1, uint64_t parent) {
    auto d = [](double s) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(s));
    };
    add(next_id(), "cfg.build", "cfg", t0, t0 + d(st.build_seconds), parent,
        1, true);
    const auto dfs0 = t1 - d(st.dfs_seconds);
    add(next_id(), "summary", "summary", dfs0 - d(st.summary_seconds), dfs0,
        parent, 1, true);
    add(next_id(), "sym.dfs", "sym", dfs0, t1, parent, 1, true);
  }

  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"id\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"n\":%" PRIu64
                   ",\"synthetic\":%d}}",
                   i == 0 ? "" : ",", s.name, s.layer, s.ts_us, s.dur_us,
                   s.id, s.parent, s.n, s.synthetic ? 1 : 0);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* layer;
    double ts_us;
    double dur_us;
    uint64_t id;
    uint64_t parent;
    uint64_t n;
    bool synthetic;
  };
  std::vector<Span> spans_;
  uint64_t last_id_ = 0;
};

// ----------------------------------------------------------- JSON record

// Minimal writer for the flat record run.py reads.
class Json {
 public:
  Json& open(const char* key = nullptr, char bracket = '{') {
    sep(key);
    s_ += bracket;
    first_ = true;
    return *this;
  }
  Json& close(char bracket = '}') {
    s_ += bracket;
    first_ = false;
    return *this;
  }
  Json& num(const char* key, double v) {
    sep(key);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s_ += buf;
    return *this;
  }
  Json& num(const char* key, uint64_t v) {
    sep(key);
    s_ += std::to_string(v);
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    sep(key);
    s_ += v ? "true" : "false";
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    sep(key);
    s_ += '"';
    s_ += v;  // only fixed identifiers are written
    s_ += '"';
    return *this;
  }
  const std::string& text() const { return s_; }

 private:
  void sep(const char* key) {
    if (!first_) s_ += ',';
    first_ = false;
    if (key != nullptr) {
      s_ += '"';
      s_ += key;
      s_ += "\":";
    }
  }
  std::string s_;
  bool first_ = true;
};

// What one run measured, independent of the workload.
struct Record {
  std::vector<double> setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> gates;
  Json ops;  // array body, one object per timed operation
  Json extra;  // workload-level fields
};

void gate(Record& rec, const char* name, bool ok) {
  rec.gates.emplace_back(name, ok);
}

// Repeats `make` until set-up has been timed kMinSetups times and for
// kMinSetupSeconds; returns the last result, which the workload goes on to
// use. A median over many samples stays steady where one set-up takes 3 ms.
template <typename Make>
auto timed_setups(Record& rec, Make make) {
  auto first = Clock::now();
  for (int n = 1;; ++n) {
    auto t0 = Clock::now();
    auto made = make();
    auto t1 = Clock::now();
    rec.setup_s.push_back(since(t0, t1));
    if (n >= kMinSetups && since(first, t1) >= kMinSetupSeconds) return made;
  }
}

// Bundles live on the heap because sessions, fuzzers and mutators keep
// references into them while the set-up structs move.
std::unique_ptr<apps::AppBundle> gw4(ir::Context& ctx, int elastic_ips,
                                     uint64_t seed) {
  apps::GwConfig cfg;
  cfg.level = 4;
  cfg.elastic_ips = elastic_ips;
  cfg.seed = seed;
  return std::make_unique<apps::AppBundle>(apps::make_gateway(ctx, cfg));
}

// --------------------------------------------------------------- test-gw4

// Everything a one-shot tester builds before its first timed call: a fresh
// context, the gw-4 bundle, the device under test and, for the fault gate,
// the same program compiled with a Table-2 toolchain fault (#7: the select
// cases of every parser's start state are compiled away, so each packet
// takes the default branch). Of the faults that fail gw-4 cases it is the
// one whose first failing case comes earliest (case 69 of 671), which
// keeps the gate cheap.
struct TestSetup {
  std::unique_ptr<ir::Context> ctx;
  std::unique_ptr<apps::AppBundle> app;
  std::unique_ptr<sim::Device> clean;
  std::unique_ptr<sim::Device> faulty;
};

TestSetup make_test_setup(uint64_t seed) {
  TestSetup s;
  s.ctx = std::make_unique<ir::Context>();
  s.app = gw4(*s.ctx, kTestEips, seed);
  s.clean = std::make_unique<sim::Device>(
      sim::compile(s.app->dp, s.app->rules, *s.ctx), *s.ctx);
  sim::FaultSpec fault;
  fault.kind = sim::FaultKind::kParserSkipSelect;
  fault.parser_state = "start";
  s.faulty = std::make_unique<sim::Device>(
      sim::compile(s.app->dp, s.app->rules, *s.ctx, fault), *s.ctx);
  return s;
}

driver::TestRunOptions test_options(uint64_t seed) {
  driver::TestRunOptions o;
  o.gen.threads = kThreads;
  o.seed = seed;
  return o;
}

struct TestOp {
  double gen_s = 0;
  double test_s = 0;
  uint64_t templates = 0;
  uint64_t cases = 0;
  uint64_t passed = 0;
  uint64_t failed = 0;  // failed or quarantined on the clean device
  uint64_t removed_by_hash = 0;
  uint64_t hash_repairs = 0;
  driver::GenStats gen;
};

// The user's path: Meissa::generate() then Meissa::test() on a perfect link.
TestOp test_untraced(TestSetup& s, uint64_t seed,
                     std::unique_ptr<driver::Meissa>& meissa) {
  TestOp op;
  auto t0 = Clock::now();
  meissa = std::make_unique<driver::Meissa>(*s.ctx, s.app->dp, s.app->rules,
                                            test_options(seed));
  meissa->generate();
  auto t1 = Clock::now();
  driver::TestReport rep = meissa->test(*s.clean, s.app->intents);
  auto t2 = Clock::now();
  op.gen_s = since(t0, t1);
  op.test_s = since(t0, t2);
  op.templates = rep.templates;
  op.cases = rep.cases;
  op.passed = rep.passed;
  op.failed = rep.failed + rep.quarantined.size();
  op.removed_by_hash = rep.removed_by_hash;
  op.hash_repairs = rep.hash_repair_attempts;
  op.gen = rep.gen;
  return op;
}

// The same calls Meissa::test makes on a perfect link (generate, then per
// template concretize, batched run_batch flushed at register installs, and
// check_case), each timed into a span under `op_id`.
TestOp test_traced(TestSetup& s, uint64_t seed, Tracer& tr, uint64_t op_id,
                   std::unique_ptr<driver::Meissa>& meissa) {
  TestOp op;
  const uint64_t gen_id = tr.next_id();
  auto t0 = Clock::now();
  meissa = std::make_unique<driver::Meissa>(*s.ctx, s.app->dp, s.app->rules,
                                            test_options(seed));
  std::vector<sym::TestCaseTemplate> templates = meissa->generate();
  auto t1 = Clock::now();
  tr.add(gen_id, "driver.generate", "driver", t0, t1, op_id);
  tr.add_phases(meissa->gen_stats(), t0, t1, gen_id);

  const p4::DataPlane& dp = s.app->dp;
  driver::Sender sender(*s.ctx, dp, meissa->graph(), seed);
  sim::ExecArena arena;  // collect_trace on, as Meissa::test's default
  std::vector<driver::TestCase> pend;
  std::vector<sim::DeviceInput> inputs;
  std::vector<sim::DeviceOutput> outputs;
  auto flush = [&] {
    if (pend.empty()) return;
    inputs.clear();
    for (driver::TestCase& tc : pend) inputs.push_back(std::move(tc.input));
    outputs.resize(pend.size());
    auto b0 = Clock::now();
    s.clean->run_batch(inputs, outputs, arena);
    tr.add("sim.run_batch", "sim", b0, Clock::now(), op_id, pend.size());
    for (size_t i = 0; i < pend.size(); ++i) {
      pend[i].input = std::move(inputs[i]);
      auto c0 = Clock::now();
      driver::CheckResult cr = driver::check_case(
          *s.ctx, dp.program, pend[i], outputs[i], s.app->intents);
      tr.add("checker.check_case", "driver", c0, Clock::now(), op_id);
      ++op.cases;
      if (cr.pass) {
        ++op.passed;
      } else {
        ++op.failed;
      }
    }
    pend.clear();
  };
  for (const sym::TestCaseTemplate& t : templates) {
    auto c0 = Clock::now();
    std::optional<driver::TestCase> tc =
        sender.concretize(t, meissa->generator().engine());
    tr.add("sender.concretize", "driver", c0, Clock::now(), op_id);
    if (!tc) continue;
    if (!tc->registers.empty()) {
      flush();
      auto r0 = Clock::now();
      s.clean->set_registers(tc->registers);
      tr.add("sim.set_registers", "sim", r0, Clock::now(), op_id);
    }
    pend.push_back(std::move(*tc));
    if (pend.size() >= 64) flush();  // TestRunOptions::batch default
  }
  flush();
  auto t2 = Clock::now();
  op.gen_s = since(t0, t1);
  op.test_s = since(t0, t2);
  op.templates = templates.size();
  op.removed_by_hash = sender.removed_by_hash();
  op.hash_repairs = sender.hash_repair_attempts();
  op.gen = meissa->gen_stats();
  return op;
}

// Fault gate: concretizes the templates of a finished test again, in order
// and from the same sender seed, and runs each case on the clean and the
// faulty device until the faulty one fails it. Returns the number of cases
// run; `found` tells whether the faulty device failed one, `clean_ok`
// whether the clean device passed every case run.
uint64_t fault_gate(TestSetup& s, uint64_t seed, driver::Meissa& m,
                    bool& found, bool& clean_ok) {
  found = false;
  clean_ok = true;
  std::vector<sym::TestCaseTemplate> templates = m.generate();  // cached
  driver::Sender sender(*s.ctx, s.app->dp, m.graph(), seed);
  uint64_t run = 0;
  for (const sym::TestCaseTemplate& t : templates) {
    std::optional<driver::TestCase> tc =
        sender.concretize(t, m.generator().engine());
    if (!tc) continue;
    if (!tc->registers.empty()) {
      s.clean->set_registers(tc->registers);
      s.faulty->set_registers(tc->registers);
    }
    ++run;
    auto check = [&](sim::Device& d) {
      return driver::check_case(*s.ctx, s.app->dp.program, *tc,
                                d.inject(tc->input), s.app->intents)
          .pass;
    };
    if (!check(*s.clean)) {
      clean_ok = false;
      break;
    }
    if (!check(*s.faulty)) {
      found = true;
      break;
    }
  }
  return run;
}

void run_test(Record& rec, uint64_t seed, double seconds, bool trace,
              Tracer& tr) {
  TestSetup setup = timed_setups(rec, [&] { return make_test_setup(seed); });
  std::unique_ptr<driver::Meissa> meissa;
  bool consistent = true;
  bool all_pass = true;
  std::optional<TestOp> first;
  auto start = Clock::now();
  rec.ops.open("ops", '[');
  for (int i = 0;; ++i) {
    if (i > 0) {
      meissa.reset();
      auto t0 = Clock::now();
      setup = make_test_setup(seed);  // a fresh context per one-shot run
      rec.setup_s.push_back(since(t0, Clock::now()));
    }
    // Traced runs alternate untraced and traced operations so that the
    // tracing overhead is measured in the same run.
    const bool traced = trace && i % 2 == 1;
    TestOp op;
    if (traced) {
      const uint64_t op_id = tr.next_id();
      auto t0 = Clock::now();
      op = test_traced(setup, seed, tr, op_id, meissa);
      tr.add(op_id, "op", "bench", t0, Clock::now(), 0);
    } else {
      op = test_untraced(setup, seed, meissa);
    }
    rec.attempted += op.cases;
    rec.failed += op.failed;
    all_pass = all_pass && op.cases > 0 && op.passed == op.cases;
    if (!first) first = op;
    consistent = consistent && op.templates == first->templates &&
                 op.cases == first->cases;
    const driver::GenStats& g = op.gen;
    rec.ops.open()
        .boolean("traced", traced)
        .num("ms", op.test_s * 1e3)
        .num("gen_s", op.gen_s)
        .num("test_s", op.test_s)
        .num("templates", op.templates)
        .num("cases", op.cases)
        .num("removed_by_hash", op.removed_by_hash)
        .num("hash_repairs", op.hash_repairs)
        .num("concretize_calls", op.templates)
        .num("smt_checks", g.smt_checks)
        .num("smt_skipped", g.smt_calls_skipped)
        .num("cache_hits", g.pc_cache_hits)
        .num("cache_misses", g.pc_cache_misses)
        .num("model_reuse", g.pc_model_reuse)
        .close();
    const double elapsed = since(start, Clock::now());
    if (elapsed >= seconds && (!trace || i >= 1)) break;
  }
  rec.ops.close(']');

  bool found = false;
  bool clean_ok = true;
  const uint64_t fault_cases =
      fault_gate(setup, seed, *meissa, found, clean_ok);
  gate(rec, "clean_device_all_pass", all_pass && clean_ok);
  gate(rec, "ops_agree", consistent);
  gate(rec, "fault_detected", found);
  rec.extra.num("templates", first->templates)
      .num("cases", first->cases)
      .num("fault_cases_run", fault_cases);
}

// -------------------------------------------------------------- churn-gw4

struct ChurnSetup {
  std::unique_ptr<ir::Context> ctx;
  std::unique_ptr<apps::AppBundle> app;
  std::unique_ptr<driver::IncrementalSession> session;
};

ChurnSetup make_churn_setup(uint64_t seed) {
  ChurnSetup s;
  s.ctx = std::make_unique<ir::Context>();
  s.app = gw4(*s.ctx, kChurnEips, seed);
  driver::IncrementalOptions io;
  io.gen.threads = kThreads;
  s.session = std::make_unique<driver::IncrementalSession>(*s.ctx, s.app->dp,
                                                           io);
  s.session->run(s.app->rules);  // the baseline: every region dirty
  return s;
}

std::vector<std::string> scratch_signatures(const p4::RuleSet& rules,
                                            uint64_t seed) {
  ir::Context ctx;
  std::unique_ptr<apps::AppBundle> app = gw4(ctx, kChurnEips, seed);
  driver::GenOptions g;
  g.threads = kThreads;
  driver::Generator gen(ctx, app->dp, rules, g);
  std::vector<std::string> sigs;
  for (const sym::TestCaseTemplate& t : gen.generate()) {
    sigs.push_back(
        driver::IncrementalSession::full_signature(ctx, gen.graph(), t));
  }
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

void run_churn(Record& rec, uint64_t seed, double seconds, bool trace,
               Tracer& tr) {
  ChurnSetup s = timed_setups(rec, [&] { return make_churn_setup(seed); });
  p4::RuleSet rules = s.app->rules;
  // Updates alternate: remove a uniformly chosen installed entry, then
  // re-insert it where it was. The rule set thus stays within one entry of
  // the full set, so the work per update does not drift with the seed.
  std::optional<std::pair<size_t, p4::TableEntry>> removed;
  util::Rng rng(seed);
  driver::UpdateReport last;

  auto start = Clock::now();
  rec.ops.open("ops", '[');
  for (size_t i = 0;; ++i) {
    if (removed) {
      rules.entries.insert(rules.entries.begin() + removed->first,
                           std::move(removed->second));
      removed.reset();
    } else {
      const size_t k = rng.below(rules.entries.size());
      removed.emplace(k, rules.entries[k]);
      rules.entries.erase(rules.entries.begin() + k);
    }
    const bool traced = trace && i % 2 == 1;
    const uint64_t op_id = traced ? tr.next_id() : 0;
    auto t0 = Clock::now();
    last = s.session->run(rules);
    auto t1 = Clock::now();
    if (traced) {
      const uint64_t run_id = tr.next_id();
      tr.add(run_id, "incremental.run", "incremental", t0, t1, op_id);
      tr.add_phases(last.stats, t0, t1, run_id);
      tr.add(op_id, "op", "bench", t0, t1, 0);
    }
    ++rec.attempted;
    const driver::GenStats& g = last.stats;
    rec.ops.open()
        .boolean("traced", traced)
        .num("ms", since(t0, t1) * 1e3)
        .num("templates", last.templates.size())
        .num("dirty", last.impact.dirty.size())
        .num("regions", last.impact.dirty.size() + last.impact.clean.size())
        .num("summaries_reused", last.summaries_reused)
        .num("smt_checks", last.smt_checks)
        .num("smt_skipped", g.smt_calls_skipped)
        .num("cache_hits", g.pc_cache_hits)
        .num("cache_misses", g.pc_cache_misses)
        .num("model_reuse", g.pc_model_reuse)
        .close();
    // The stream ends on a removal, so the final check below compares a
    // rule set that differs from the baseline.
    const double elapsed = since(start, t1);
    if (elapsed >= seconds && i + 1 >= kMinUpdates && removed) break;
  }
  const double stream_s = since(start, Clock::now());
  rec.ops.close(']');

  // Soundness of the whole stream: the last update's templates are
  // byte-identical to a from-scratch generation of the final rule set.
  const bool identical = last.full_sigs == scratch_signatures(rules, seed);
  gate(rec, "final_byte_identical", identical);
  if (!identical) rec.failed = rec.attempted;
  rec.extra.num("stream_s", stream_s);
}

// --------------------------------------------------------------- fuzz-gw4

struct FuzzSetup {
  std::unique_ptr<ir::Context> ctx;
  std::unique_ptr<apps::AppBundle> app;
  std::unique_ptr<sim::Device> target;
  std::unique_ptr<sim::Device> reference;
  std::unique_ptr<fuzz::Fuzzer> fuzzer;
};

fuzz::FuzzOptions fuzz_options(uint64_t fuzz_seed) {
  fuzz::FuzzOptions fo;
  fo.execs = kFuzzExecs;
  fo.seed = fuzz_seed;
  return fo;
}

FuzzSetup make_fuzz_setup(uint64_t seed, uint64_t fuzz_seed) {
  FuzzSetup s;
  s.ctx = std::make_unique<ir::Context>();
  s.app = gw4(*s.ctx, kFuzzEips, seed);
  // Self-diff: target and reference are the same program compiled cleanly.
  s.target = std::make_unique<sim::Device>(
      sim::compile(s.app->dp, s.app->rules, *s.ctx), *s.ctx);
  s.reference = std::make_unique<sim::Device>(
      sim::compile(s.app->dp, s.app->rules, *s.ctx), *s.ctx);
  s.fuzzer = std::make_unique<fuzz::Fuzzer>(*s.target, *s.reference,
                                            s.app->dp, s.app->rules,
                                            fuzz_options(fuzz_seed));
  return s;
}

// Device and mutation cost of a campaign, measured apart from it: the same
// number of executions, mutated from 16 synthesized seeds like Fuzzer::run
// does, run through both devices in 64-input batches with coverage on the
// target. Spans go under a root of their own, outside the operation.
void fuzz_replay(FuzzSetup& s, uint64_t fuzz_seed, uint64_t execs,
                 Tracer& tr) {
  const uint64_t root = tr.next_id();
  auto r0 = Clock::now();
  fuzz::Mutator mut(s.app->dp, s.app->rules);
  util::Rng rng(fuzz_seed ^ 0x5eed5eed5eed5eedull);
  std::vector<sim::DeviceInput> seeds;
  for (int i = 0; i < 16; ++i) seeds.push_back(mut.random_packet(rng));
  std::vector<sim::DeviceInput> ins = seeds;
  ins.reserve(execs);
  while (ins.size() < execs) {
    const size_t n = std::min<uint64_t>(64, execs - ins.size());
    auto m0 = Clock::now();
    for (size_t k = 0; k < n; ++k) {
      sim::DeviceInput in = seeds[rng.below(seeds.size())];
      mut.mutate(in, rng);
      ins.push_back(std::move(in));
    }
    tr.add("fuzz.mutate", "fuzz", m0, Clock::now(), root, n);
  }
  sim::CoverageMap cov;
  sim::ExecArena ta;
  sim::ExecArena ra;
  ta.collect_trace = false;
  ta.coverage = &cov;
  ra.collect_trace = false;
  std::vector<sim::DeviceOutput> out(64);
  for (size_t i = 0; i < ins.size(); i += 64) {
    const size_t n = std::min<size_t>(64, ins.size() - i);
    std::span<const sim::DeviceInput> batch(ins.data() + i, n);
    std::span<sim::DeviceOutput> outs(out.data(), n);
    cov.reset();
    auto b0 = Clock::now();
    s.target->run_batch(batch, outs, ta);
    s.reference->run_batch(batch, outs, ra);
    tr.add("sim.run_batch", "sim", b0, Clock::now(), root, 2 * n);
  }
  tr.add(root, "replay", "bench", r0, Clock::now(), 0);
}

// Campaign i of a run uses fuzz seed (seed + i) mod kFuzzSeedClasses: the
// work of a campaign depends on its seed, so a run's median spans many
// seeds instead of resting on one. recorded.json holds the coverage of
// every seed class.
void run_fuzz(Record& rec, uint64_t seed, double seconds, bool trace,
              Tracer& tr) {
  auto fuzz_seed = [&](int i) { return (seed + i) % kFuzzSeedClasses; };
  FuzzSetup s =
      timed_setups(rec, [&] { return make_fuzz_setup(seed, fuzz_seed(0)); });
  auto start = Clock::now();
  rec.ops.open("ops", '[');
  for (int i = 0;; ++i) {
    if (!s.fuzzer) {
      s.fuzzer = std::make_unique<fuzz::Fuzzer>(*s.target, *s.reference,
                                                s.app->dp, s.app->rules,
                                                fuzz_options(fuzz_seed(i)));
    }
    const bool traced = trace && i % 2 == 1;
    auto t0 = Clock::now();
    fuzz::FuzzResult r = s.fuzzer->run();
    auto t1 = Clock::now();
    s.fuzzer.reset();  // every campaign starts from an empty corpus
    if (traced) {
      const uint64_t op_id = tr.next_id();
      tr.add("fuzz.run", "fuzz", t0, t1, op_id, r.execs);
      tr.add(op_id, "op", "bench", t0, t1, 0);
      fuzz_replay(s, fuzz_seed(i), r.execs, tr);
    }
    rec.attempted += r.execs;
    rec.failed += r.divergences;
    rec.ops.open()
        .boolean("traced", traced)
        .num("ms", since(t0, t1) * 1e3)
        .num("fuzz_seed", fuzz_seed(i))
        .num("execs", r.execs)
        .num("divergences", r.divergences)
        .num("coverage_edges", uint64_t{r.coverage_edges})
        .num("corpus", uint64_t{r.corpus})
        .close();
    const double elapsed = since(start, Clock::now());
    if (elapsed >= seconds && (!trace || i >= 1)) break;
  }
  rec.ops.close(']');
  gate(rec, "no_divergence", rec.failed == 0);
}

// ------------------------------------------------------------------- main

int usage(const char* why) {
  std::fprintf(stderr,
               "gw4bench: %s\nusage: gw4bench --workload "
               "test-gw4|churn-gw4|fuzz-gw4 --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  return 2;
}

bool parse_u64(const std::string& s, uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-' || s[0] == '+') return false;
  out = v;
  return true;
}

}  // namespace
}  // namespace meissa::perfbench

int main(int argc, char** argv) {
  using namespace meissa::perfbench;
  std::string workload;
  std::string spans;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--spans") {
      spans = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, seed)) return usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, seconds) || seconds == 0) return usage("bad --seconds");
    } else if (a == "--trace") {
      if (!parse_u64(v, trace) || trace > 1) return usage("bad --trace");
    } else {
      return usage("unknown argument");
    }
  }
  if (!have_seed || seconds == 0 || trace > 1) return usage("missing argument");
  if (trace == 1 && spans.empty()) return usage("--trace 1 needs --spans");

  Record rec;
  Tracer tr;
  const double secs = static_cast<double>(seconds);
  if (workload == "test-gw4") {
    run_test(rec, seed, secs, trace == 1, tr);
  } else if (workload == "churn-gw4") {
    run_churn(rec, seed, secs, trace == 1, tr);
  } else if (workload == "fuzz-gw4") {
    run_fuzz(rec, seed, secs, trace == 1, tr);
  } else {
    return usage("unknown --workload");
  }
  if (trace == 1 && !tr.write(spans)) {
    std::fprintf(stderr, "gw4bench: cannot write spans to '%s'\n",
                 spans.c_str());
    return 1;
  }

  Json out;
  out.open()
      .str("workload", workload)
      .num("seed", seed)
      .num("trace", trace)
      .num("attempted", rec.attempted)
      .num("failed", rec.failed)
      .num("peak_rss_mb", peak_rss_mb());
  out.open("setup_s", '[');
  for (double v : rec.setup_s) out.num(nullptr, v);
  out.close(']');
  out.open("gates");
  for (const auto& [name, ok] : rec.gates) out.boolean(name.c_str(), ok);
  out.close();
  std::string text = out.text();
  text += ',';
  text += rec.ops.text();
  if (!rec.extra.text().empty()) {
    text += ',';
    text += rec.extra.text();
  }
  text += '}';
  std::printf("%s\n", text.c_str());
  return 0;
}
