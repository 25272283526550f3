// Engine-level parity for the solver performance layer: the
// cross-iteration query cache is a pure performance knob, so a full fuzzing
// campaign must produce identical findings, coverage and adaptive-seed
// counts with it on or off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testgen/generator.hpp"
#include "wasai/wasai.hpp"
#include "wasm/encoder.hpp"

namespace wasai {
namespace {

struct Outcome {
  std::size_t adaptive_seeds;
  std::size_t distinct_branches;
  std::size_t transactions;
  std::size_t solver_sat;
  std::size_t solver_unsat;
  std::string findings;

  bool operator==(const Outcome&) const = default;
};

Outcome run_once(const util::Bytes& wasm, const abi::Abi& abi, bool cache,
                 std::size_t cache_capacity = 4096) {
  AnalysisOptions options;
  options.fuzz.iterations = 12;
  options.fuzz.rng_seed = 1;
  options.fuzz.solver_cache = cache;
  options.fuzz.solver_cache_capacity = cache_capacity;
  const auto result = analyze(wasm, abi, options);
  Outcome out{result.details.adaptive_seeds,
              result.details.distinct_branches,
              result.details.transactions,
              result.details.solver_sat,
              result.details.solver_unsat,
              {}};
  for (const auto& finding : result.report.findings) {
    out.findings += scanner::to_string(finding.type);
    out.findings += ';';
  }
  // Counter invariants: every flip the cache answered or Z3 decided.
  if (cache) {
    EXPECT_EQ(result.details.solver_cache_misses,
              result.details.solver_queries);
  } else {
    EXPECT_EQ(result.details.solver_cache_hits, 0u);
    EXPECT_EQ(result.details.solver_cache_misses, 0u);
  }
  return out;
}

TEST(SolverPerfParity, ConfigsAgreeOnFixedSeedTestgenModules) {
  // Deterministic generator seeds; small modules, quick campaigns.
  for (const std::uint64_t seed : {7ull, 1234567ull}) {
    const auto gen = testgen::generate(seed);
    const auto wasm = wasm::encode(gen.module);

    const Outcome uncached = run_once(wasm, gen.abi, /*cache=*/false);
    EXPECT_EQ(run_once(wasm, gen.abi, /*cache=*/true), uncached)
        << "cached, seed " << seed;
  }
}

TEST(SolverPerfParity, TinyCacheEvictionKeepsParity) {
  // A capacity below the flip count evicts entries, and releases their
  // pinned ASTs, in the middle of every solve call. Parity against the
  // uncached walk must survive that constant eviction pressure.
  for (const std::uint64_t seed : {7ull, 1234567ull}) {
    const auto gen = testgen::generate(seed);
    const auto wasm = wasm::encode(gen.module);

    const Outcome uncached = run_once(wasm, gen.abi, /*cache=*/false);
    EXPECT_EQ(run_once(wasm, gen.abi, /*cache=*/true, /*cache_capacity=*/2),
              uncached)
        << "tiny cache, seed " << seed;
  }
}

}  // namespace
}  // namespace wasai
