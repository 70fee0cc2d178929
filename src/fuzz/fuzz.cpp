#include "fuzz/fuzz.hpp"

#include <chrono>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace meissa::fuzz {

namespace {

std::string bytes_hex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xf]);
  }
  return s;
}

void append_trace(std::ostringstream& os,
                  const std::vector<std::string>& trace) {
  os << "[";
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i) os << ",";
    os << "\"" << util::json_escape(trace[i]) << "\"";
  }
  os << "]";
}

}  // namespace

std::string FuzzResult::to_json() const {
  std::ostringstream os;
  os << "{\"execs\":" << execs << ",\"seeds\":" << seeds
     << ",\"corpus\":" << corpus << ",\"coverage_edges\":" << coverage_edges
     << ",\"corpus_adds\":" << corpus_adds
     << ",\"max_corpus\":" << max_corpus
     << ",\"dictionary_entries\":" << dictionary_entries
     << ",\"wire_layouts\":" << wire_layouts
     << ",\"coverage_map_bytes\":" << coverage_map_bytes
     << ",\"divergences\":" << divergences
     << ",\"cancelled\":" << (cancelled ? "true" : "false")
     << ",\"seconds\":" << seconds
     << ",\"execs_per_sec\":" << execs_per_sec << ",\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Divergence& d = samples[i];
    if (i) os << ",";
    os << "{\"exec\":" << d.exec << ",\"kind\":\"" << d.kind
       << "\",\"port\":" << d.input.port << ",\"bytes\":\""
       << bytes_hex(d.input.bytes) << "\",\"target_trace\":";
    append_trace(os, d.target_trace);
    os << ",\"reference_trace\":";
    append_trace(os, d.reference_trace);
    os << "}";
  }
  os << "]}";
  return os.str();
}

Fuzzer::Fuzzer(sim::Device& target, sim::Device& reference,
               const p4::DataPlane& dp, const p4::RuleSet& rules,
               FuzzOptions opts)
    : target_(target),
      reference_(reference),
      mutator_(dp, rules),
      opts_(opts) {
  if (opts_.batch == 0) opts_.batch = 1;
  // Hot loop: coverage on, localization off. Traces are re-rendered only
  // for the sampled divergences, through fresh trace-on arenas.
  tgt_arena_.collect_trace = false;
  tgt_arena_.coverage = &cov_;
  ref_arena_.collect_trace = false;
}

void Fuzzer::add_seed(sim::DeviceInput in, const ir::ConcreteState& regs) {
  if (!regs.empty()) {
    target_.set_registers(regs);
    reference_.set_registers(regs);
  }
  corpus_.push_back(std::move(in));
}

void Fuzzer::record_divergence(uint64_t exec, const char* kind,
                               const sim::DeviceInput& in) {
  ++result_.divergences;
  obs::instant("fuzz divergence", "fuzz");
  if (result_.samples.size() >= kMaxDivergences) return;
  Divergence d;
  d.exec = exec;
  d.kind = kind;
  d.input = in;
  sim::ExecArena ta, ra;  // trace-on replays for localization
  sim::DeviceOutput to, ro;
  target_.run_batch({&d.input, 1}, {&to, 1}, ta);
  reference_.run_batch({&d.input, 1}, {&ro, 1}, ra);
  d.target_trace = target_.render_trace(to.trace);
  d.reference_trace = reference_.render_trace(ro.trace);
  result_.samples.push_back(std::move(d));
}

void Fuzzer::execute(std::vector<sim::DeviceInput>& ins, bool from_corpus,
                     uint64_t exec_base) {
  cov_.reset();
  tgt_out_.resize(ins.size());
  ref_out_.resize(ins.size());
  target_.run_batch(ins, tgt_out_, tgt_arena_);
  reference_.run_batch(ins, ref_out_, ref_arena_);

  for (size_t i = 0; i < ins.size(); ++i) {
    const sim::DeviceOutput& t = tgt_out_[i];
    const sim::DeviceOutput& r = ref_out_[i];
    uint64_t exec = exec_base + i;
    if (t.accepted != r.accepted) {
      record_divergence(exec, "accepted", ins[i]);
    } else if (t.dropped != r.dropped) {
      record_divergence(exec, "dropped", ins[i]);
    } else if (!t.dropped && t.accepted && t.port != r.port) {
      record_divergence(exec, "port", ins[i]);
    } else if (!t.dropped && t.accepted && t.bytes != r.bytes) {
      record_divergence(exec, "bytes", ins[i]);
    }
  }

  // Coverage scoring. One cheap probe over the whole batch first; only a
  // batch that actually saw something new pays for per-input attribution.
  entries_scored_ += cov_.nonzero();
  if (!sim::merge_new_coverage(cov_, virgin_, /*commit=*/false)) return;
  if (from_corpus) {
    // Seed replay: the corpus is already admitted, just absorb its edges.
    entries_scored_ += cov_.nonzero();
    sim::merge_new_coverage(cov_, virgin_, /*commit=*/true);
    return;
  }
  // Each input's counts are its own segment of the batch's hit log: every
  // packet starts from the installed register snapshot and writes nothing
  // back, so a fresh single-input run would count exactly the same hits.
  ++batches_rescored_;
  util::check(cov_.packets() == ins.size(),
              "fuzz: one coverage segment per input");
  for (size_t i = 0; i < ins.size(); ++i) {
    if (corpus_.size() >= kMaxCorpus) break;
    input_cov_.reset();
    for (uint32_t idx : cov_.packet_hits(i)) input_cov_.count(idx);
    entries_scored_ += input_cov_.nonzero();
    if (sim::merge_new_coverage(input_cov_, virgin_, /*commit=*/true)) {
      ++result_.corpus_adds;
      corpus_.push_back(ins[i]);
    }
  }
}

FuzzResult Fuzzer::run() {
  obs::Span span("fuzz/run", "fuzz");
  util::Rng rng(opts_.seed);
  result_ = {};
  entries_scored_ = 0;
  batches_rescored_ = 0;
  virgin_.assign(sim::CoverageMap::kSize, 0);

  if (corpus_.empty()) {
    for (size_t i = 0; i < kRandomSeeds; ++i) {
      corpus_.push_back(mutator_.random_packet(rng));
    }
  }
  result_.seeds = corpus_.size();
  span.arg("seeds", result_.seeds);

  auto start = std::chrono::steady_clock::now();
  std::vector<sim::DeviceInput> batch;
  auto stop_requested = [&] {
    if (opts_.cancel == nullptr || !opts_.cancel->cancelled()) return false;
    result_.cancelled = true;
    return true;
  };

  // Phase 1: replay the seeds (counted against the exec budget).
  {
    obs::Span sp("fuzz/seed-replay", "fuzz");
    for (size_t i = 0; i < corpus_.size() && result_.execs < opts_.execs &&
                       !stop_requested();) {
      batch.clear();
      while (i < corpus_.size() && batch.size() < opts_.batch &&
             result_.execs + batch.size() < opts_.execs) {
        batch.push_back(corpus_[i++]);
      }
      if (batch.empty()) break;
      execute(batch, /*from_corpus=*/true, result_.execs);
      result_.execs += batch.size();
    }
  }

  // Phase 2: mutate until the budget runs out.
  {
    obs::Span sp("fuzz/mutate", "fuzz");
    while (result_.execs < opts_.execs && !stop_requested()) {
      batch.clear();
      while (batch.size() < opts_.batch &&
             result_.execs + batch.size() < opts_.execs) {
        sim::DeviceInput in = corpus_[rng.below(corpus_.size())];
        mutator_.mutate(in, rng);
        batch.push_back(std::move(in));
      }
      execute(batch, /*from_corpus=*/false, result_.execs);
      result_.execs += batch.size();
    }
  }

  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  result_.seconds = secs;
  result_.execs_per_sec =
      secs > 0 ? static_cast<double>(result_.execs) / secs : 0;
  result_.corpus = corpus_.size();
  result_.max_corpus = kMaxCorpus;
  result_.dictionary_entries = mutator_.dictionary_size();
  result_.wire_layouts = mutator_.layouts();
  result_.coverage_map_bytes = sim::CoverageMap::kSize;

  size_t edges = 0;
  for (uint8_t b : virgin_) edges += b != 0;
  result_.coverage_edges = edges;

  if (obs::metrics_enabled()) {
    obs::metrics().counter("fuzz.execs").add(result_.execs);
    obs::metrics().counter("fuzz.divergences").add(result_.divergences);
    obs::metrics().counter("fuzz.corpus_adds").add(result_.corpus_adds);
    obs::metrics().counter("fuzz.new_edges").add(result_.coverage_edges);
    obs::metrics().counter("fuzz.coverage_entries_scored").add(entries_scored_);
    obs::metrics().counter("fuzz.batches_rescored").add(batches_rescored_);
  }
  span.arg("execs", result_.execs);
  span.arg("divergences", result_.divergences);
  return result_;
}

}  // namespace meissa::fuzz
