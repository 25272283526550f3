// Static-soundness regression suite: the pre-analysis pass must be
// verdict- and fingerprint-neutral. Fuzzing the identical contract with
// the pass on and off must yield identical oracle findings, adaptive-seed
// streams, coverage and final trace bytes — the pass may only remove
// provably futile solver work, never dynamic behaviour. Checked over the
// tier-1 testgen module family and all five vulnerability-template
// families (vulnerable and safe variants), plus the oracle-gate tripwire:
// a finding fired against a statically "impossible" verdict is a
// conservatism-contract bug even when the fingerprints agree.
#include <gtest/gtest.h>

#include <string>

#include "corpus/templates.hpp"
#include "engine/fuzzer.hpp"
#include "instrument/trace_io.hpp"
#include "testgen/generator.hpp"
#include "util/digest.hpp"
#include "wasm/encoder.hpp"

#include "test_support.hpp"

namespace wasai {
namespace {

using util::Rng;

struct Outcome {
  std::string fingerprint;
  std::size_t flips_pruned = 0;
  std::size_t gate_violations = 0;
  bool had_static_report = false;
};

Outcome run_once(const util::Bytes& wasm_bytes, const abi::Abi& contract_abi,
                 bool static_analysis) {
  engine::FuzzOptions options;
  options.iterations = 16;
  options.rng_seed = 7;
  options.static_analysis = static_analysis;
  engine::Fuzzer fuzzer(wasm_bytes, contract_abi, options);
  const auto report = fuzzer.run();

  Outcome out;
  for (const auto& finding : report.scan.findings) {
    out.fingerprint += scanner::to_string(finding.type);
    out.fingerprint += ';';
  }
  const auto add = [&](std::size_t v) {
    out.fingerprint += std::to_string(v);
    out.fingerprint += ',';
  };
  add(report.adaptive_seeds);
  add(report.distinct_branches);
  add(report.transactions);
  add(report.replays);
  util::Digest digest;
  digest.bytes(
      instrument::serialize_traces(fuzzer.harness().sink().actions()));
  out.fingerprint += std::to_string(digest.value());
  out.flips_pruned = report.flips_pruned;
  out.gate_violations = report.oracle_gate_violations;
  out.had_static_report = report.static_report.has_value();
  return out;
}

/// One contract's A/B check.
void expect_neutral(const util::Bytes& wasm_bytes,
                    const abi::Abi& contract_abi, const std::string& label) {
  const Outcome on =
      run_once(wasm_bytes, contract_abi, /*static_analysis=*/true);
  const Outcome off =
      run_once(wasm_bytes, contract_abi, /*static_analysis=*/false);
  EXPECT_EQ(on.gate_violations, 0u) << label;
  EXPECT_EQ(on.fingerprint, off.fingerprint) << label;
  // The run with the pass disabled must not carry a report (schema parity
  // for the campaign JSONL), the enabled run must.
  EXPECT_TRUE(on.had_static_report) << label;
  EXPECT_FALSE(off.had_static_report) << label;
  // Whatever was pruned, it never reached the dynamic stages.
  EXPECT_EQ(off.flips_pruned, 0u) << label;
}

TEST(StaticSoundness, TestgenTier1Family) {
  for (std::uint64_t seed = test::kTestgenTier1Seed;
       seed < test::kTestgenTier1Seed + 4; ++seed) {
    const auto gen = testgen::generate(seed);
    expect_neutral(wasm::encode(gen.module), gen.abi,
                   "testgen seed " + std::to_string(seed));
  }
}

TEST(StaticSoundness, TemplateFamiliesVulnerableAndSafe) {
  corpus::TemplateOptions options;
  options.assert_gates = 1;
  options.verification_depth = 1;
  for (const bool vulnerable : {true, false}) {
    const auto check = [&](const corpus::Sample& sample, const char* name) {
      expect_neutral(sample.wasm, sample.abi,
                     std::string(name) +
                         (vulnerable ? " (vulnerable)" : " (safe)"));
    };
    Rng rng(13);
    check(corpus::make_fake_eos_sample(rng, vulnerable, options), "fake_eos");
    check(corpus::make_fake_notif_sample(rng, vulnerable, options),
          "fake_notif");
    check(corpus::make_missauth_sample(rng, vulnerable, options),
          "miss_auth");
    check(corpus::make_blockinfo_sample(rng, vulnerable, options),
          "blockinfo");
    check(corpus::make_rollback_sample(rng, vulnerable, options), "rollback");
  }
}

}  // namespace
}  // namespace wasai
