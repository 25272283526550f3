// End-to-end soundness property: for randomly generated arithmetic guards
// E(amount) == C, a seed produced by flipping the guard's constraint must
// actually steer the concrete execution into the guarded branch. This
// exercises the whole loop — instrumentation, trace capture, symbolic
// replay (ops + memory model + input inference) and model extraction —
// against the interpreter as ground truth.
#include <gtest/gtest.h>

#include "abi/serializer.hpp"
#include "chain/controller.hpp"
#include "corpus/contract_builder.hpp"
#include "engine/fuzzer.hpp"
#include "instrument/instrumenter.hpp"
#include "instrument/trace_sink.hpp"
#include "scanner/facts.hpp"
#include "symbolic/solver.hpp"
#include "testgen/generator.hpp"
#include "util/rng.hpp"
#include "wasm/decoder.hpp"
#include "wasm/encoder.hpp"
#include "wasm/printer.hpp"
#include "wasm/validator.hpp"

namespace wasai {
namespace {

using abi::eos;
using abi::name;
using abi::ParamValue;
using util::Rng;
using wasm::Instr;
using wasm::Opcode;

/// Build a random invertible-ish expression over `amount` and evaluate it
/// concretely alongside. Returns the instruction sequence (stack: one i64)
/// and fills `eval` with a concrete evaluator.
std::vector<Instr> random_expr(Rng& rng, int ops,
                               std::function<std::uint64_t(std::uint64_t)>* eval) {
  std::vector<Instr> code = {wasm::local_get(3),
                             wasm::mem_load(Opcode::I64Load)};
  auto f = [](std::uint64_t x) { return x; };
  std::function<std::uint64_t(std::uint64_t)> acc = f;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t k = rng.next() | 1;  // odd constants are invertible
    switch (rng.below(5)) {
      case 0:
        code.push_back(wasm::i64_const_u(k));
        code.emplace_back(Opcode::I64Add);
        acc = [acc, k](std::uint64_t x) { return acc(x) + k; };
        break;
      case 1:
        code.push_back(wasm::i64_const_u(k));
        code.emplace_back(Opcode::I64Sub);
        acc = [acc, k](std::uint64_t x) { return acc(x) - k; };
        break;
      case 2:
        code.push_back(wasm::i64_const_u(k));
        code.emplace_back(Opcode::I64Mul);
        acc = [acc, k](std::uint64_t x) { return acc(x) * k; };
        break;
      case 3:
        code.push_back(wasm::i64_const_u(k));
        code.emplace_back(Opcode::I64Xor);
        acc = [acc, k](std::uint64_t x) { return acc(x) ^ k; };
        break;
      default: {
        const std::uint32_t sh = 1 + static_cast<std::uint32_t>(rng.below(7));
        code.push_back(wasm::i64_const(sh));
        code.emplace_back(Opcode::I64Rotl);
        acc = [acc, sh](std::uint64_t x) {
          const std::uint64_t v = acc(x);
          return (v << sh) | (v >> (64 - sh));
        };
        break;
      }
    }
  }
  *eval = acc;
  return code;
}

TEST(Property, SolvedSeedsSteerExecution) {
  Rng rng(20240705);
  int solved = 0;
  for (int round = 0; round < 25; ++round) {
    // Target: E(amount) == E(witness) for a random expression E.
    std::function<std::uint64_t(std::uint64_t)> eval;
    corpus::ContractBuilder b;
    const auto env = b.env();
    std::vector<Instr> expr =
        random_expr(rng, 1 + static_cast<int>(rng.below(5)), &eval);
    const std::int64_t witness = rng.range(1, 1'000'0000);
    const std::uint64_t target = eval(static_cast<std::uint64_t>(witness));

    std::vector<Instr> body = std::move(expr);
    body.push_back(wasm::i64_const_u(target));
    body.emplace_back(Opcode::I64Eq);
    body.push_back(wasm::if_());
    body.push_back(wasm::call(env.tapos_block_num));
    body.emplace_back(Opcode::Drop);
    body.emplace_back(Opcode::End);
    body.emplace_back(Opcode::End);
    corpus::ActionOptions opts;
    opts.require_code_match = false;
    b.add_action(abi::transfer_action_def(), {}, std::move(body), opts);
    const abi::Abi abi_def = b.abi();
    const wasm::Module original =
        std::move(b).build_module(corpus::DispatcherStyle::Standard);
    const auto inst = instrument::instrument(original);

    chain::Controller chain;
    instrument::TraceSink sink;
    chain.set_observer(&sink);
    chain.deploy_contract(name("victim"), wasm::encode(inst.module), abi_def);
    chain.create_account(name("attacker"));

    const auto run = [&](const std::vector<ParamValue>& params) {
      sink.clear();
      chain::Action act;
      act.account = name("victim");
      act.name = name("transfer");
      act.authorization = {chain::active(name("attacker"))};
      act.data = abi::pack(abi::transfer_action_def(), params);
      chain.push_transaction(chain::Transaction{{act}});
      return sink.actions_of(name("victim")).front();
    };

    // Round 1: a seed that misses the target (unless we got lucky).
    std::vector<ParamValue> params = {name("attacker"), name("victim"),
                                      eos(witness == 5 ? 6 : 5),
                                      std::string("m")};
    const auto* trace = run(params);
    symbolic::Z3Env env_z3;
    const auto site =
        symbolic::locate_action_call(*trace, inst.sites, original, 5);
    ASSERT_TRUE(site.has_value()) << "round " << round;
    const auto replayed =
        symbolic::replay(env_z3, original, inst.sites, *trace, *site,
                         abi::transfer_action_def(), params);
    ASSERT_EQ(replayed.path.size(), 1u) << "round " << round;
    EXPECT_FALSE(replayed.path[0].taken);

    symbolic::SolverOptions solver_opts;
    solver_opts.timeout_ms = 2000;
    const auto adaptive =
        symbolic::solve_flips(env_z3, replayed, params, solver_opts);
    if (adaptive.seeds.empty()) continue;  // solver timeout: skip round
    ++solved;

    // Round 2: the adaptive seed must take the branch (tapos called).
    const auto* trace2 = run(adaptive.seeds[0]);
    const auto facts = scanner::extract_facts(*trace2, inst.sites, original);
    EXPECT_TRUE(facts.called_api("tapos_block_num"))
        << "round " << round << ": solver model did not steer execution";
  }
  // The solver must succeed on the large majority of random expressions.
  EXPECT_GE(solved, 20) << "too many solver timeouts";
}

TEST(Property, InstrumentedExecutionNeverDiverges) {
  // Random seeds through random guards: the instrumented contract's
  // concrete behaviour (branch taken or not) must match the plain
  // evaluation of the expression — instrumentation must not perturb
  // results even across rotates/multiplies.
  Rng rng(77);
  for (int round = 0; round < 15; ++round) {
    std::function<std::uint64_t(std::uint64_t)> eval;
    corpus::ContractBuilder b;
    const auto env = b.env();
    std::vector<Instr> expr = random_expr(rng, 3, &eval);
    const std::int64_t amount = rng.range(1, 1'000'0000);
    const std::uint64_t target = eval(static_cast<std::uint64_t>(amount));
    const bool expect_taken = rng.chance(0.5);
    std::vector<Instr> body = std::move(expr);
    body.push_back(wasm::i64_const_u(expect_taken ? target : target + 1));
    body.emplace_back(Opcode::I64Eq);
    body.push_back(wasm::if_());
    body.push_back(wasm::call(env.tapos_block_num));
    body.emplace_back(Opcode::Drop);
    body.emplace_back(Opcode::End);
    body.emplace_back(Opcode::End);
    corpus::ActionOptions opts;
    opts.require_code_match = false;
    b.add_action(abi::transfer_action_def(), {}, std::move(body), opts);
    const abi::Abi abi_def = b.abi();
    const wasm::Module original =
        std::move(b).build_module(corpus::DispatcherStyle::Standard);
    const auto inst = instrument::instrument(original);

    chain::Controller chain;
    instrument::TraceSink sink;
    chain.set_observer(&sink);
    chain.deploy_contract(name("victim"), wasm::encode(inst.module), abi_def);
    chain.create_account(name("attacker"));
    chain::Action act;
    act.account = name("victim");
    act.name = name("transfer");
    act.authorization = {chain::active(name("attacker"))};
    act.data = abi::pack(
        abi::transfer_action_def(),
        {name("attacker"), name("victim"), eos(amount), std::string("m")});
    ASSERT_TRUE(chain.push_action(act).success);
    const auto traces = sink.actions_of(name("victim"));
    ASSERT_EQ(traces.size(), 1u);
    const auto facts = scanner::extract_facts(*traces[0], inst.sites,
                                              original);
    EXPECT_EQ(facts.called_api("tapos_block_num"), expect_taken)
        << "round " << round;
  }
}

// ---------------------------------------------- generator-driven properties

TEST(Property, GeneratedModulesAlwaysValidateAndRoundTrip) {
  // The testgen builder's output contract: every generated module validates,
  // and encode∘decode is byte-identity on encoder output.
  Rng seeds(20260806);
  for (int i = 0; i < 25; ++i) {
    const std::uint64_t seed = seeds.next();
    const auto gen = testgen::generate(seed);
    EXPECT_NO_THROW(wasm::validate(gen.module)) << "seed " << seed;
    const auto bytes = wasm::encode(gen.module);
    const wasm::Module back = wasm::decode(bytes);
    EXPECT_NO_THROW(wasm::validate(back)) << "seed " << seed;
    EXPECT_EQ(wasm::encode(back), bytes) << "seed " << seed;
  }
}

TEST(Property, PrinterStableAcrossRoundTrip) {
  // Debug names are not encoded, so printing is compared on the decoded
  // module: one more encode/decode round must not change the rendering.
  Rng seeds(424242);
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t seed = seeds.next();
    const wasm::Module once =
        wasm::decode(wasm::encode(testgen::generate(seed).module));
    const wasm::Module twice = wasm::decode(wasm::encode(once));
    EXPECT_EQ(wasm::to_string(once), wasm::to_string(twice))
        << "seed " << seed;
  }
}

TEST(Property, ValidatorNeverAcceptsWhatDecoderRejects) {
  // Single-byte corruption of a valid binary: the decoder either rejects
  // with DecodeError (the only acceptable escape) or yields a module that
  // the validator in turn either accepts or rejects with ValidationError.
  // Any other exception type propagates and fails the test.
  Rng rng(123);
  const auto bytes = wasm::encode(testgen::generate(rng.next()).module);
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    auto mutated = bytes;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    try {
      const wasm::Module m = wasm::decode(mutated);
      ++decoded;
      try {
        wasm::validate(m);
      } catch (const util::ValidationError&) {
      }
    } catch (const util::DecodeError&) {
      ++rejected;
    }
  }
  // The mutation set must exercise both outcomes to mean anything.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// ------------------------------------------- forked rng & coverage curve

TEST(Property, ForkedStreamsAreDeterministicAndPairwiseDistinct) {
  // The dataset builder and the testgen generator derive one child stream
  // per sample, helper or action with Rng::fork(salt). Determinism of that
  // derivation (same seed, same salt -> same stream) is what makes a corpus
  // reproducible from its seed; pairwise distinctness is what keeps sibling
  // samples from being generated in lockstep.
  const auto prefix = [](Rng rng, int n) {
    std::vector<std::uint64_t> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) out.push_back(rng.next());
    return out;
  };
  Rng meta(20260807);
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t seed = meta.next();
    const Rng parent(seed);
    std::vector<std::vector<std::uint64_t>> streams;
    streams.push_back(prefix(parent, 32));  // the parent's own stream
    for (std::uint64_t salt = 0; salt < 8; ++salt) {
      EXPECT_EQ(prefix(parent.fork(salt), 32),
                prefix(Rng(seed).fork(salt), 32))
          << "seed " << seed << " salt " << salt;
      streams.push_back(prefix(parent.fork(salt), 32));
    }
    for (std::size_t a = 0; a < streams.size(); ++a) {
      for (std::size_t b = a + 1; b < streams.size(); ++b) {
        EXPECT_NE(streams[a], streams[b])
            << "seed " << seed << ": streams " << a << " and " << b
            << " coincide";
      }
    }
    // fork() is const: deriving children must not advance the parent.
    Rng forked(seed);
    (void)forked.fork(5);
    EXPECT_EQ(prefix(forked, 8), prefix(Rng(seed), 8)) << "seed " << seed;
  }
}

TEST(Property, MergedCoverageCurveIsMonotonic) {
  // Each iteration folds its branch keys into the run's coverage set and
  // appends one curve point: the curve must record one point per
  // iteration, strictly increasing iteration numbers, a non-decreasing
  // cumulative branch count, and a final value equal to distinct_branches.
  Rng seeds(20260807);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t seed = seeds.next();
    const auto gen = testgen::generate(seed);
    const auto binary = wasm::encode(gen.module);
    engine::FuzzOptions options;
    options.iterations = 16;
    options.rng_seed = 1;
    engine::Fuzzer fuzzer(binary, gen.abi, options);
    const auto report = fuzzer.run();
    ASSERT_EQ(report.curve.size(), 16u) << "seed " << seed;
    for (std::size_t i = 1; i < report.curve.size(); ++i) {
      EXPECT_GT(report.curve[i].iteration, report.curve[i - 1].iteration)
          << "seed " << seed << " point " << i;
      EXPECT_GE(report.curve[i].branches, report.curve[i - 1].branches)
          << "seed " << seed << " point " << i;
      EXPECT_GE(report.curve[i].elapsed_ms, report.curve[i - 1].elapsed_ms)
          << "seed " << seed << " point " << i;
    }
    EXPECT_EQ(report.curve.back().branches, report.distinct_branches)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace wasai
