// Obs-neutrality regression suite: observability must be a pure read-only
// tap. Running the identical fuzz (same contract, same seed) with obs on
// and off must produce identical adaptive-seed streams, identical
// FuzzReport counters, and campaign JSONL records that are byte-identical
// once the `obs` block and wall-clock timings (which differ run-to-run
// regardless of obs) are stripped. This is the --no-obs determinism
// guarantee the README documents.
#include <gtest/gtest.h>

#include <string>

#include "abi/abi_json.hpp"
#include "campaign/report.hpp"
#include "corpus/templates.hpp"
#include "obs/obs.hpp"
#include "testgen/generator.hpp"
#include "wasai/wasai.hpp"
#include "wasm/encoder.hpp"

#include "test_support.hpp"

namespace wasai {
namespace {

using util::Json;
using util::JsonArray;
using util::JsonObject;
using util::Rng;

/// A contract that exercises the whole pipeline — assert gates force
/// symbolic replay + flip solving, so every obs-instrumented phase
/// (decode, instrument, deploy, execute, replay, solve_flips) runs.
corpus::Sample solver_heavy_sample() {
  Rng rng(5);
  corpus::TemplateOptions options;
  options.assert_gates = 1;
  options.verification_depth = 1;
  return corpus::make_fake_eos_sample(rng, true, options);
}

engine::FuzzReport run_once(const corpus::Sample& sample, obs::Obs* obs) {
  engine::FuzzOptions options;
  options.iterations = 24;
  options.rng_seed = 11;
  options.obs = obs;
  engine::Fuzzer fuzzer(sample.wasm, sample.abi, options);
  return fuzzer.run();
}

/// Everything deterministic in a FuzzReport (wall clocks excluded).
std::string report_fingerprint(const engine::FuzzReport& r) {
  std::string out;
  for (const auto t : r.scan.found) {
    out += scanner::to_string(t);
    out += ';';
  }
  const auto add = [&](std::size_t v) {
    out += std::to_string(v);
    out += ',';
  };
  add(r.distinct_branches);
  add(r.transactions);
  add(r.adaptive_seeds);
  add(r.solver_queries);
  add(r.replays);
  add(r.replay_failures);
  add(r.solver_sat);
  add(r.solver_unsat);
  add(r.solver_unknown);
  add(r.solver_cache_hits);
  add(r.solver_cache_misses);
  add(r.solver_cache_evictions);
  add(static_cast<std::size_t>(r.iterations_run));
  // The coverage curve pins the adaptive seed stream: any RNG divergence
  // shifts which iteration discovered which branch.
  for (const auto& point : r.curve) {
    out += '[' + std::to_string(point.iteration) + ':' +
           std::to_string(point.branches) + ']';
  }
  return out;
}

TEST(ObsNeutrality, FuzzReportIdenticalWithObsOnAndOff) {
  const auto sample = solver_heavy_sample();

  obs::Registry registry;
  const auto with_obs = run_once(sample, &registry.track("main"));
  const auto without_obs = run_once(sample, nullptr);

  // The sample must actually exercise the symbolic path for this test to
  // mean anything.
  ASSERT_GT(with_obs.replays, 0u);
  ASSERT_GT(with_obs.solver_queries, 0u);
  ASSERT_GT(with_obs.adaptive_seeds, 0u);

  EXPECT_EQ(report_fingerprint(with_obs), report_fingerprint(without_obs));

  // And the obs run did record real phase data — neutrality is not vacuous.
  const auto phases = registry.aggregate_all();
  ASSERT_TRUE(phases.contains("fuzz"));
  ASSERT_TRUE(phases.contains("replay"));
  ASSERT_TRUE(phases.contains("solve_flips"));
}

TEST(ObsNeutrality, TestgenModuleIdenticalWithObsOnAndOff) {
  // Same property on the tier-1 differential-testing module family.
  const auto gen = testgen::generate(test::kTestgenTier1Seed);
  const util::Bytes wasm = wasm::encode(gen.module);

  engine::FuzzOptions options;
  options.iterations = 16;
  options.rng_seed = 3;
  obs::Registry registry;
  options.obs = &registry.track("main");
  engine::Fuzzer with_obs(wasm, gen.abi, options);
  const auto on = with_obs.run();

  options.obs = nullptr;
  engine::Fuzzer without_obs(wasm, gen.abi, options);
  const auto off = without_obs.run();

  EXPECT_EQ(report_fingerprint(on), report_fingerprint(off));
}

// ---------------------------------------------------------------- JSONL

/// Strip the `obs` block and zero every wall-clock-derived field; what
/// remains must be byte-identical between obs-on and obs-off campaigns.
Json normalize_record(const Json& record) {
  JsonObject out = record.as_object();
  out.erase("obs");
  JsonObject timings;
  for (const auto& [key, value] : out.at("timings").as_object()) {
    timings.emplace(key, Json(0.0));
  }
  out["timings"] = Json(std::move(timings));
  out["transactions_per_sec"] = Json(0.0);
  if (out.contains("static")) {
    JsonObject static_block = out.at("static").as_object();
    static_block["analyze_ms"] = Json(0.0);  // wall clock, like timings
    out["static"] = Json(std::move(static_block));
  }
  JsonArray curve;
  for (const auto& point : out.at("coverage_curve").as_array()) {
    const auto& triple = point.as_array();
    JsonArray normalized;
    normalized.push_back(triple.at(0));
    normalized.emplace_back(0.0);  // elapsed_ms
    normalized.push_back(triple.at(2));
    curve.emplace_back(std::move(normalized));
  }
  out["coverage_curve"] = Json(std::move(curve));
  return Json(std::move(out));
}

TEST(ObsNeutrality, CampaignRecordsByteIdenticalModuloObsBlock) {
  std::vector<campaign::ContractInput> inputs;
  {
    const auto sample = solver_heavy_sample();
    campaign::ContractInput input;
    input.id = "gated";
    input.wasm = sample.wasm;
    input.abi_json = abi::abi_to_json(sample.abi);
    inputs.push_back(std::move(input));
  }
  {
    const auto gen = testgen::generate(test::kTestgenTier1Seed);
    campaign::ContractInput input;
    input.id = "testgen";
    input.wasm = wasm::encode(gen.module);
    input.abi_json = abi::abi_to_json(gen.abi);
    inputs.push_back(std::move(input));
  }

  const auto run = [&](obs::Registry* registry) {
    campaign::CampaignOptions options;
    options.fuzz.iterations = 16;
    options.fuzz.rng_seed = 9;
    options.obs = registry;
    campaign::CampaignRunner runner(options);
    return runner.run(inputs);
  };

  obs::Registry registry;
  const auto with_obs = run(&registry);
  const auto without_obs = run(nullptr);

  ASSERT_EQ(with_obs.records.size(), without_obs.records.size());
  for (std::size_t i = 0; i < with_obs.records.size(); ++i) {
    const Json on = campaign::record_to_json(with_obs.records[i]);
    const Json off = campaign::record_to_json(without_obs.records[i]);
    // Obs-on records carry the block; obs-off records must omit the key
    // entirely (the pre-obs schema, not an empty placeholder).
    EXPECT_NE(on.find("obs"), nullptr) << with_obs.records[i].id;
    EXPECT_EQ(off.find("obs"), nullptr) << without_obs.records[i].id;
    EXPECT_EQ(util::dump_json(normalize_record(on)),
              util::dump_json(normalize_record(off)))
        << with_obs.records[i].id;
  }

  // Summary parity modulo the rollup block and wall clocks.
  JsonObject on_summary =
      campaign::summary_to_json(with_obs.summary).as_object();
  JsonObject off_summary =
      campaign::summary_to_json(without_obs.summary).as_object();
  EXPECT_TRUE(on_summary.contains("obs"));
  EXPECT_FALSE(off_summary.contains("obs"));
  for (auto* summary : {&on_summary, &off_summary}) {
    summary->erase("obs");
    (*summary)["wall_ms"] = Json(0.0);
    (*summary)["solver_ms"] = Json(0.0);
  }
  EXPECT_EQ(util::dump_json(Json(std::move(on_summary))),
            util::dump_json(Json(std::move(off_summary))));
}

}  // namespace
}  // namespace wasai
