// Solver performance suite: fuzzes the committed corpus with the
// cross-iteration query cache off and on, and writes BENCH_solver.json
// with per-config throughput (transactions/sec), solver wall time, Z3
// query counts and cache hit rates.
//
// The suite doubles as an end-to-end parity gate: both configurations must
// produce identical findings, adaptive-seed counts and coverage for every
// contract — the cache is a pure performance knob, so ANY downstream
// divergence fails the bench (exit 1). CI runs this on every push.
//
// Corpus: the `examples/wasm/testgen_<seed>.wasm` modules (regenerated
// from the seed encoded in the filename, which also yields their ABIs)
// plus one vulnerable sample of each corpus template family.
//
// Knobs: WASAI_BENCH_ITERATIONS (default 36 fuzzing rounds per contract),
// WASAI_BENCH_OUT (default BENCH_solver.json in the working directory).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "corpus/templates.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "testgen/generator.hpp"
#include "util/jsonl.hpp"
#include "wasai/wasai.hpp"
#include "wasm/encoder.hpp"

#ifndef WASAI_EXAMPLES_DIR
#error "build must define WASAI_EXAMPLES_DIR"
#endif

namespace {

using namespace wasai;

struct Contract {
  std::string id;
  util::Bytes wasm;
  abi::Abi abi;
};

struct Config {
  std::string name;
  bool cache;
};

/// What each configuration must reproduce exactly, per contract. Seeds are
/// applied back into the fuzz loop, so a single diverging model would
/// cascade into different transactions/branches/findings here.
struct Fingerprint {
  std::size_t adaptive_seeds = 0;
  std::size_t distinct_branches = 0;
  std::size_t transactions = 0;
  std::string findings;

  bool operator==(const Fingerprint&) const = default;
};

struct ConfigTotals {
  double solver_wall_ms = 0;
  double fuzz_ms = 0;
  std::size_t transactions = 0;
  std::size_t queries = 0;
  std::size_t sat = 0;
  std::size_t unsat = 0;
  std::size_t unknown = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t adaptive_seeds = 0;
  obs::PhaseTotals phases;
  std::vector<Fingerprint> fingerprints;

  [[nodiscard]] double transactions_per_sec() const {
    return fuzz_ms > 0 ? static_cast<double>(transactions) / (fuzz_ms / 1e3)
                       : 0.0;
  }
  [[nodiscard]] double hit_rate() const {
    const std::size_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
};

std::vector<Contract> build_corpus() {
  namespace fs = std::filesystem;
  std::vector<Contract> corpus;

  // Committed testgen modules: the filename encodes the generator seed,
  // which deterministically reproduces both the module and its ABI.
  std::vector<std::uint64_t> seeds;
  const fs::path dir = fs::path(WASAI_EXAMPLES_DIR) / "wasm";
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string stem = entry.path().stem().string();
    if (entry.path().extension() != ".wasm") continue;
    if (stem.rfind("testgen_", 0) != 0) continue;
    seeds.push_back(std::stoull(stem.substr(8)));
  }
  std::sort(seeds.begin(), seeds.end());
  for (const auto seed : seeds) {
    const auto gen = testgen::generate(seed);
    corpus.push_back(Contract{"testgen_" + std::to_string(seed),
                              wasm::encode(gen.module), gen.abi});
  }

  // One vulnerable sample per template family — branchy contracts whose
  // paths actually exercise the flip solver.
  util::Rng rng(2022);
  const auto add = [&corpus](corpus::Sample sample) {
    corpus.push_back(
        Contract{sample.tag, std::move(sample.wasm), std::move(sample.abi)});
  };
  add(corpus::make_fake_eos_sample(rng, /*vulnerable=*/true));
  add(corpus::make_fake_notif_sample(rng, /*vulnerable=*/true));
  add(corpus::make_missauth_sample(rng, /*vulnerable=*/true));
  add(corpus::make_blockinfo_sample(rng, /*vulnerable=*/true));
  return corpus;
}

std::string findings_fingerprint(const AnalysisResult& result) {
  std::string out;
  for (const auto& finding : result.report.findings) {
    out += scanner::to_string(finding.type);
    out += ';';
  }
  return out;
}

ConfigTotals run_config(const std::vector<Contract>& corpus,
                        const Config& config, int iterations) {
  ConfigTotals totals;
  // One obs registry per configuration: the per-phase breakdown lands in
  // BENCH_solver.json next to the wall clocks, so a perf regression can be
  // attributed to a phase (replay vs solve_flips vs execute) without a
  // rerun. Spans are neutral w.r.t. the parity gate — pinned by
  // tests/obs_neutrality_test.cpp.
  obs::Registry registry;
  obs::Obs& obs = registry.track("bench");
  for (const auto& contract : corpus) {
    AnalysisOptions options;
    options.fuzz.iterations = iterations;
    options.fuzz.rng_seed = 1;
    options.fuzz.obs = &obs;
    options.fuzz.solver_cache = config.cache;
    const auto result = analyze(contract.wasm, contract.abi, options);
    const auto& d = result.details;
    totals.solver_wall_ms += d.solver_wall_ms;
    totals.fuzz_ms += d.fuzz_ms;
    totals.transactions += d.transactions;
    totals.queries += d.solver_queries;
    totals.sat += d.solver_sat;
    totals.unsat += d.solver_unsat;
    totals.unknown += d.solver_unknown;
    totals.cache_hits += d.solver_cache_hits;
    totals.cache_misses += d.solver_cache_misses;
    totals.adaptive_seeds += d.adaptive_seeds;
    totals.fingerprints.push_back(Fingerprint{
        d.adaptive_seeds, d.distinct_branches, d.transactions,
        findings_fingerprint(result)});
  }
  totals.phases = registry.aggregate_all();
  return totals;
}

util::Json totals_to_json(const ConfigTotals& t) {
  util::JsonObject out;
  const auto num = [](auto v) {
    return util::Json(static_cast<double>(v));
  };
  out.emplace("solver_wall_ms", num(t.solver_wall_ms));
  out.emplace("fuzz_ms", num(t.fuzz_ms));
  out.emplace("transactions_per_sec", num(t.transactions_per_sec()));
  out.emplace("transactions", num(t.transactions));
  out.emplace("queries", num(t.queries));
  out.emplace("sat", num(t.sat));
  out.emplace("unsat", num(t.unsat));
  out.emplace("unknown", num(t.unknown));
  out.emplace("cache_hits", num(t.cache_hits));
  out.emplace("cache_misses", num(t.cache_misses));
  out.emplace("cache_hit_rate", num(t.hit_rate()));
  out.emplace("adaptive_seeds", num(t.adaptive_seeds));
  out.emplace("obs", obs::phase_totals_json(t.phases));
  return util::Json(std::move(out));
}

}  // namespace

int main() {
  const int iterations =
      static_cast<int>(bench::env_long("WASAI_BENCH_ITERATIONS", 36));
  const char* out_env = std::getenv("WASAI_BENCH_OUT");
  const std::string out_path =
      out_env == nullptr ? "BENCH_solver.json" : out_env;

  const auto corpus = build_corpus();
  std::printf("bench_perf_solver: %zu contracts, %d iterations each\n",
              corpus.size(), iterations);

  const Config configs[] = {
      {"uncached", false},
      {"cached", true},
  };

  std::map<std::string, ConfigTotals> totals;
  for (const auto& config : configs) {
    const auto t0 = std::chrono::steady_clock::now();
    totals[config.name] = run_config(corpus, config, iterations);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const ConfigTotals& t = totals[config.name];
    std::printf(
        "  %-9s %7.1f solver ms, %5zu queries, %5zu hits (%4.1f%%), "
        "%7.1f txn/sec  (%.1fs)\n",
        config.name.c_str(), t.solver_wall_ms, t.queries, t.cache_hits,
        100.0 * t.hit_rate(), t.transactions_per_sec(), secs);
  }

  // Parity gate: the cached run must reproduce the uncached run's
  // per-contract outcomes exactly.
  bool parity_ok = true;
  const auto& reference = totals["uncached"].fingerprints;
  for (const auto& config : configs) {
    if (totals[config.name].fingerprints == reference) continue;
    parity_ok = false;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (totals[config.name].fingerprints[i] == reference[i]) continue;
      std::printf("PARITY DIVERGENCE: %s on %s\n", config.name.c_str(),
                  corpus[i].id.c_str());
    }
  }

  const ConfigTotals& uncached = totals["uncached"];
  const ConfigTotals& cached = totals["cached"];
  const bool wall_reduced = cached.solver_wall_ms < uncached.solver_wall_ms;
  const bool queries_reduced = cached.queries < uncached.queries;
  std::printf(
      "cached vs uncached: solver wall %.1f -> %.1f ms (%s), "
      "queries %zu -> %zu (%s), parity %s\n",
      uncached.solver_wall_ms, cached.solver_wall_ms,
      wall_reduced ? "reduced" : "NOT reduced", uncached.queries,
      cached.queries,
      queries_reduced ? "reduced" : "NOT reduced",
      parity_ok ? "ok" : "DIVERGED");

  util::JsonObject doc;
  util::JsonArray ids;
  for (const auto& contract : corpus) ids.emplace_back(contract.id);
  doc.emplace("corpus", util::Json(std::move(ids)));
  doc.emplace("iterations", util::Json(static_cast<double>(iterations)));
  util::JsonObject config_obj;
  for (const auto& [name, t] : totals) config_obj.emplace(name, totals_to_json(t));
  doc.emplace("configs", util::Json(std::move(config_obj)));
  doc.emplace("parity_ok", util::Json(parity_ok));
  doc.emplace("solver_wall_reduced", util::Json(wall_reduced));
  doc.emplace("queries_reduced", util::Json(queries_reduced));

  std::ofstream out(out_path, std::ios::trunc);
  out << util::dump_json(util::Json(std::move(doc))) << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  // Only parity is a hard failure: timing is hardware-dependent, but a
  // diverging seed stream is a correctness bug.
  return parity_ok ? 0 : 1;
}
