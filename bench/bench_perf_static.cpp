// Static pre-analysis performance suite: runs the shared perf corpus
// through the full concolic pipeline with the static pass off (baseline)
// and on (the default configuration), and writes BENCH_static.json.
//
// What it measures, per configuration and corpus-wide:
//   * per-contract static analysis cost (analyze_ms; also reported as the
//     corpus total so the "pruning must pay for itself" argument has both
//     sides on one page);
//   * Z3 flip-query work: solver queries issued, flips pruned by the gate,
//     replays skipped wholesale on feedback-futile contracts;
//   * end-to-end pipeline wall time.
//
// Gate: the baseline and the default static configuration must produce
// identical per-contract fingerprints — findings, transactions, coverage,
// adaptive seeds AND a digest of the final captured trace bytes — and zero
// oracle-gate violations. The static pass is advertised as verdict- and
// fingerprint-neutral; ANY divergence fails the bench (exit 1). `pruned_ok`
// additionally reports whether the gate removed any solver work at all on
// this corpus (recorded in the JSON, not an exit criterion: the committed
// corpus evolves).
//
// Knobs: WASAI_BENCH_ITERATIONS (default 24 rounds per contract),
// WASAI_BENCH_OUT (default BENCH_static.json in the working directory).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_corpus.hpp"
#include "bench/bench_util.hpp"
#include "engine/fuzzer.hpp"
#include "instrument/trace_io.hpp"
#include "util/digest.hpp"
#include "util/jsonl.hpp"

namespace {

using namespace wasai;

using bench::Contract;
using bench::Fingerprint;

struct Config {
  std::string name;
  bool static_analysis;
};

struct ConfigTotals {
  double fuzz_ms = 0;
  double analyze_ms = 0;
  std::size_t transactions = 0;
  std::size_t solver_queries = 0;
  std::size_t flips_pruned = 0;
  std::size_t replays = 0;
  std::size_t replays_skipped = 0;
  std::size_t gate_violations = 0;
  std::size_t adaptive_seeds = 0;
  std::vector<Fingerprint> fingerprints;
};

ConfigTotals run_config(const std::vector<Contract>& corpus,
                        const Config& config, int iterations) {
  ConfigTotals totals;
  for (const auto& contract : corpus) {
    engine::FuzzOptions options;
    options.iterations = iterations;
    options.rng_seed = 1;
    options.static_analysis = config.static_analysis;
    engine::Fuzzer fuzzer(contract.wasm, contract.abi, options);
    const auto report = fuzzer.run();

    util::Digest digest;
    digest.bytes(
        instrument::serialize_traces(fuzzer.harness().sink().actions()));
    totals.fingerprints.push_back(Fingerprint{
        report.adaptive_seeds, report.distinct_branches, report.transactions,
        bench::findings_fingerprint(report), digest.value()});

    totals.fuzz_ms += report.fuzz_ms;
    totals.transactions += report.transactions;
    totals.solver_queries += report.solver_queries;
    totals.flips_pruned += report.flips_pruned;
    totals.replays += report.replays;
    totals.replays_skipped += report.replays_skipped;
    totals.gate_violations += report.oracle_gate_violations;
    totals.adaptive_seeds += report.adaptive_seeds;
    if (report.static_report.has_value()) {
      totals.analyze_ms += report.static_report->analyze_ms;
    }
  }
  return totals;
}

util::Json totals_to_json(const ConfigTotals& t) {
  util::JsonObject out;
  const auto num = [](auto v) { return util::Json(static_cast<double>(v)); };
  out.emplace("fuzz_ms", num(t.fuzz_ms));
  out.emplace("analyze_ms", num(t.analyze_ms));
  out.emplace("transactions", num(t.transactions));
  out.emplace("solver_queries", num(t.solver_queries));
  out.emplace("flips_pruned", num(t.flips_pruned));
  out.emplace("replays", num(t.replays));
  out.emplace("replays_skipped", num(t.replays_skipped));
  out.emplace("gate_violations", num(t.gate_violations));
  out.emplace("adaptive_seeds", num(t.adaptive_seeds));
  return util::Json(std::move(out));
}

}  // namespace

int main() {
  const int iterations =
      static_cast<int>(bench::env_long("WASAI_BENCH_ITERATIONS", 24));
  const char* out_env = std::getenv("WASAI_BENCH_OUT");
  const std::string out_path =
      out_env == nullptr ? "BENCH_static.json" : out_env;

  const auto corpus = bench::build_perf_corpus();
  std::printf("bench_perf_static: %zu contracts, %d iterations each\n",
              corpus.size(), iterations);

  const Config configs[] = {
      {"baseline", false},
      {"static", true},
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
        "  %-18s %8.1f fuzz ms, %4zu queries, %4zu pruned, %3zu replays "
        "skipped, %5.2f analyze ms  (%.1fs)\n",
        config.name.c_str(), t.fuzz_ms, t.solver_queries, t.flips_pruned,
        t.replays_skipped, t.analyze_ms, secs);
  }

  // Parity gate: the default static configuration must reproduce the
  // baseline's per-contract outcomes (including the trace bytes) exactly,
  // with zero oracle-gate violations.
  bool parity_ok = totals["static"].gate_violations == 0;
  if (!parity_ok) {
    std::printf("GATE VIOLATIONS: %zu findings fired against statically "
                "impossible verdicts\n",
                totals["static"].gate_violations);
  }
  const auto& reference = totals["baseline"].fingerprints;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (totals["static"].fingerprints[i] == reference[i]) continue;
    parity_ok = false;
    std::printf("PARITY DIVERGENCE: static on %s\n", corpus[i].id.c_str());
  }

  const std::size_t baseline_queries = totals["baseline"].solver_queries;
  const std::size_t static_queries = totals["static"].solver_queries;
  const bool pruned_ok = totals["static"].flips_pruned > 0 &&
                         static_queries <= baseline_queries;
  std::printf(
      "flip queries: %zu -> %zu (%zu pruned, %zu replays skipped), "
      "parity %s, pruning %s\n",
      baseline_queries, static_queries, totals["static"].flips_pruned,
      totals["static"].replays_skipped, parity_ok ? "ok" : "DIVERGED",
      pruned_ok ? "effective" : "inert on this corpus");

  util::JsonObject doc;
  util::JsonArray ids;
  for (const auto& contract : corpus) ids.emplace_back(contract.id);
  doc.emplace("corpus", util::Json(std::move(ids)));
  doc.emplace("iterations", util::Json(static_cast<double>(iterations)));
  util::JsonObject config_obj;
  for (const auto& [name, t] : totals) {
    config_obj.emplace(name, totals_to_json(t));
  }
  doc.emplace("configs", util::Json(std::move(config_obj)));
  doc.emplace("parity_ok", util::Json(parity_ok));
  doc.emplace("pruned_ok", util::Json(pruned_ok));

  std::ofstream out(out_path, std::ios::trunc);
  out << util::dump_json(util::Json(std::move(doc))) << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  // Only parity is a hard failure: whether pruning fires depends on the
  // corpus composition, but any baseline/static divergence breaks the
  // pass's neutrality contract.
  return parity_ok ? 0 : 1;
}
