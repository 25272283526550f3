// Run-to-run determinism of the fuzz loop: the same contract, RNG seed and
// iteration budget must reproduce the same run — findings, counts, the
// coverage curve and the bytes of the final captured traces — over the
// tier-1 testgen corpus and every template family.
#include <gtest/gtest.h>

#include <string>

#include "corpus/templates.hpp"
#include "engine/fuzzer.hpp"
#include "instrument/trace_io.hpp"
#include "testgen/generator.hpp"
#include "tests/test_support.hpp"
#include "wasm/encoder.hpp"

namespace {

using namespace wasai;

/// Everything observable about one run except wall-clock times, flattened
/// into one comparable string.
std::string fingerprint(const util::Bytes& wasm_bytes,
                        const wasai::abi::Abi& contract_abi) {
  engine::FuzzOptions options;
  options.iterations = 12;
  options.rng_seed = 1;
  engine::Fuzzer fuzzer(wasm_bytes, contract_abi, options);
  const engine::FuzzReport r = fuzzer.run();

  std::string fp;
  fp += "tx=" + std::to_string(r.transactions);
  fp += " iters=" + std::to_string(r.iterations_run);
  fp += " branches=" + std::to_string(r.distinct_branches);
  fp += " adaptive=" + std::to_string(r.adaptive_seeds);
  fp += " queries=" + std::to_string(r.solver_queries);
  fp += " replays=" + std::to_string(r.replays);
  fp += "/" + std::to_string(r.replay_failures);
  fp += " findings=";
  for (const auto& finding : r.scan.findings) {
    fp += scanner::to_string(finding.type);
    fp += ';';
  }
  fp += " curve=";
  for (const auto& p : r.curve) {
    fp += std::to_string(p.iteration) + ":" + std::to_string(p.branches) + ",";
  }
  fp += " traces=";
  for (const auto b :
       instrument::serialize_traces(fuzzer.harness().sink().actions())) {
    fp += "0123456789abcdef"[b >> 4];
    fp += "0123456789abcdef"[b & 0xf];
  }
  return fp;
}

TEST(FuzzDeterminism, TestgenTier1CorpusIsRunToRunDeterministic) {
  for (std::uint64_t offset = 0; offset < 3; ++offset) {
    const std::uint64_t seed = test::kTestgenTier1Seed + offset;
    const auto gen = testgen::generate(seed);
    const util::Bytes wasm_bytes = wasm::encode(gen.module);
    EXPECT_EQ(fingerprint(wasm_bytes, gen.abi),
              fingerprint(wasm_bytes, gen.abi))
        << "testgen_" << seed;
  }
}

TEST(FuzzDeterminism, TemplateFamiliesAreRunToRunDeterministic) {
  util::Rng rng(2022);
  for (const auto& sample : {corpus::make_fake_eos_sample(rng, true),
                             corpus::make_fake_notif_sample(rng, true),
                             corpus::make_missauth_sample(rng, true),
                             corpus::make_blockinfo_sample(rng, true),
                             corpus::make_rollback_sample(rng, true)}) {
    EXPECT_EQ(fingerprint(sample.wasm, sample.abi),
              fingerprint(sample.wasm, sample.abi))
        << sample.tag;
  }
}

}  // namespace
