// Tier-1 differential batch: a fixed-seed run of generated modules must
// round-trip the codec byte-identically, validate, and replay symbolically
// to exactly the interpreter's state — zero divergences, zero
// non-concretizable values. Also pins down generator reproducibility,
// coverage (all 23 memory instructions appear across the batch) and the
// delta-minimizer's shrinking behaviour.
#include <gtest/gtest.h>

#include <set>

#include "testgen/generator.hpp"
#include "testgen/minimize.hpp"
#include "testgen/oracle.hpp"
#include "tests/test_support.hpp"
#include "util/rng.hpp"
#include "wasm/encoder.hpp"
#include "wasm/validator.hpp"

namespace wasai::testgen {
namespace {

constexpr std::size_t kBatchModules = 200;

/// All 23 Wasm memory instructions (14 loads + 9 stores).
const std::set<wasm::Opcode> kMemoryOps = {
    wasm::Opcode::I32Load,    wasm::Opcode::I64Load,
    wasm::Opcode::F32Load,    wasm::Opcode::F64Load,
    wasm::Opcode::I32Load8S,  wasm::Opcode::I32Load8U,
    wasm::Opcode::I32Load16S, wasm::Opcode::I32Load16U,
    wasm::Opcode::I64Load8S,  wasm::Opcode::I64Load8U,
    wasm::Opcode::I64Load16S, wasm::Opcode::I64Load16U,
    wasm::Opcode::I64Load32S, wasm::Opcode::I64Load32U,
    wasm::Opcode::I32Store,   wasm::Opcode::I64Store,
    wasm::Opcode::F32Store,   wasm::Opcode::F64Store,
    wasm::Opcode::I32Store8,  wasm::Opcode::I32Store16,
    wasm::Opcode::I64Store8,  wasm::Opcode::I64Store16,
    wasm::Opcode::I64Store32};

TEST(TestgenDiff, FixedSeedBatchHasZeroDivergences) {
  util::Rng base(test::kTestgenTier1Seed);
  std::set<wasm::Opcode> seen;
  std::size_t events = 0;
  std::size_t values = 0;
  for (std::size_t i = 0; i < kBatchModules; ++i) {
    const std::uint64_t module_seed = base.next();
    const auto gen = generate(module_seed);
    for (const auto& f : gen.module.functions) {
      for (const auto& instr : f.body) {
        if (kMemoryOps.contains(instr.op)) seen.insert(instr.op);
      }
    }
    const auto result = check_module(gen);
    EXPECT_TRUE(result.roundtrip_ok) << "module seed " << module_seed;
    EXPECT_TRUE(result.error.empty())
        << "module seed " << module_seed << ": " << result.error;
    EXPECT_EQ(result.divergences.size(), 0u) << "module seed " << module_seed;
    EXPECT_EQ(result.unknown_values(), 0u) << "module seed " << module_seed;
    ASSERT_TRUE(result.ok())
        << "module seed " << module_seed << " diverged; reproduce with:\n"
        << "  wasai-testgen minimize --seed " << module_seed
        << " --dump-dir /tmp";
    for (const auto& a : result.actions) {
      events += a.events_compared;
      values += a.values_compared;
    }
  }
  // Exact totals (`wasai-testgen check --seed 20260806 --modules 200`):
  // the batch must exercise real work, and a change to the oracle's
  // compare loops must not silently skip stack slots, locals, globals or
  // final memory bytes.
  EXPECT_EQ(events, 52'050u);
  EXPECT_EQ(values, 722'410u);
  // Every memory instruction shows up somewhere in the batch.
  EXPECT_EQ(seen, kMemoryOps);
}

TEST(TestgenDiff, GenerationIsByteForByteReproducible) {
  util::Rng base(test::kTestgenTier1Seed);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t module_seed = base.next();
    const auto bytes_a = wasm::encode(generate(module_seed).module);
    const auto bytes_b = wasm::encode(generate(module_seed).module);
    ASSERT_EQ(bytes_a, bytes_b) << "module seed " << module_seed;
  }
}

TEST(TestgenDiff, DistinctSeedsProduceDistinctModules) {
  const auto a = wasm::encode(generate(1).module);
  const auto b = wasm::encode(generate(2).module);
  EXPECT_NE(a, b);
}

TEST(TestgenDiff, SpecSubsetsStayMaterializable) {
  // The minimizer's contract: dropping any statement or action from a spec
  // must still produce a valid module.
  // (At least one action must remain: ContractBuilder rejects action-less
  // contracts, and the minimizer never produces them.)
  ModuleSpec spec = generate_spec(42);
  ASSERT_FALSE(spec.actions.empty());
  for (;;) {
    EXPECT_NO_THROW(wasm::validate(materialize(spec).module));
    if (!spec.actions.back().statements.empty()) {
      spec.actions.back().statements.pop_back();
    } else if (spec.actions.size() > 1) {
      spec.actions.pop_back();
    } else {
      break;
    }
  }
}

/// A hand-built spec that violates the generator's taint discipline: f64.add
/// (a concrete-fallback op in the replayer) applied to a parameter-derived
/// value. The oracle must flag it as non-concretizable, and the minimizer
/// must strip the padding statements around it.
ModuleSpec broken_spec() {
  ModuleSpec spec;
  spec.seed = 77;
  ActionSpec action;
  action.def.name = abi::name("badaction");
  action.def.params = {abi::ParamType::U64};
  action.seed = {std::uint64_t{12345}};
  Statement nop;
  nop.code = {wasm::Instr(wasm::Opcode::Nop)};
  for (int i = 0; i < 6; ++i) action.statements.push_back(nop);
  Statement bad;
  // local 1 = the u64 parameter (tainted); convert + f64 add -> fresh var.
  bad.code = {wasm::local_get(1),
              wasm::Instr(wasm::Opcode::F64ConvertI64U),
              wasm::f64_const(1.5),
              wasm::Instr(wasm::Opcode::F64Add),
              wasm::Instr(wasm::Opcode::Drop)};
  action.statements.insert(action.statements.begin() + 3, bad);
  for (int i = 0; i < 3; ++i) action.statements.push_back(nop);
  spec.actions.push_back(std::move(action));
  return spec;
}

TEST(TestgenDiff, OracleFlagsTaintDisciplineViolation) {
  const auto result = check_module(materialize(broken_spec()));
  EXPECT_TRUE(result.roundtrip_ok);  // still a valid module
  EXPECT_FALSE(result.ok());
  EXPECT_GT(result.unknown_values(), 0u);
}

TEST(TestgenDiff, MinimizerShrinksToTheFailingStatement) {
  const ModuleSpec failing = broken_spec();
  ASSERT_TRUE(oracle_fails(failing));
  const auto minimized = minimize(failing, oracle_fails);
  ASSERT_EQ(minimized.spec.actions.size(), 1u);
  // All nine nop padding statements are gone; the f64.add statement stays.
  ASSERT_EQ(minimized.spec.actions[0].statements.size(), 1u);
  const auto& kept = minimized.spec.actions[0].statements[0].code;
  ASSERT_FALSE(kept.empty());
  EXPECT_EQ(kept[3].op, wasm::Opcode::F64Add);
  // The minimized spec still reproduces the failure.
  EXPECT_TRUE(oracle_fails(minimized.spec));
  EXPECT_GT(minimized.tests, 0u);
}

TEST(TestgenDiff, CheckSeedMatchesCheckModule) {
  const auto direct = check_seed(9);
  const auto via_module = check_module(generate(9));
  EXPECT_EQ(direct.state_digest, via_module.state_digest);
  EXPECT_TRUE(direct.ok());
}

}  // namespace
}  // namespace wasai::testgen
