// Replayer edge cases: loops over symbolic data, helper-function call
// chains, symbolic selects, br_table constraints, Table-3 memory.size
// semantics (including a zero divisor only the replay sees), float
// fallbacks and corrupt-trace robustness.
#include <gtest/gtest.h>

#include "abi/serializer.hpp"
#include "chain/controller.hpp"
#include "corpus/contract_builder.hpp"
#include "instrument/instrumenter.hpp"
#include "instrument/trace_sink.hpp"
#include "symbolic/solver.hpp"
#include "wasm/encoder.hpp"

namespace wasai::symbolic {
namespace {

using abi::eos;
using abi::name;
using abi::Name;
using abi::ParamValue;
using corpus::ContractBuilder;
using wasm::FuncType;
using wasm::Instr;
using wasm::Opcode;
using wasm::ValType;

constexpr ValType I32 = ValType::I32;
constexpr ValType I64 = ValType::I64;

/// Lean harness: deploy an instrumented single-eosponser contract whose
/// body (and optional helper functions) the test supplies, run a direct
/// transfer, replay.
class EdgeFixture {
 public:
  explicit EdgeFixture(ContractBuilder builder)
      : abi_(builder.abi()),
        original_(std::move(builder).build_module(
            corpus::DispatcherStyle::Standard)) {
    const auto inst = instrument::instrument(original_);
    sites_ = inst.sites;
    chain_.set_observer(&sink_);
    chain_.deploy_contract(victim_, wasm::encode(inst.module), abi_);
    chain_.create_account(attacker_);
  }

  ReplayResult run_and_replay(std::vector<ParamValue> params) {
    sink_.clear();
    chain::Action act;
    act.account = victim_;
    act.name = name("transfer");
    act.authorization = {chain::active(attacker_)};
    act.data = abi::pack(abi::transfer_action_def(), params);
    last_params_ = std::move(params);
    last_result_ = chain_.push_transaction(chain::Transaction{{act}});
    const auto traces = sink_.actions_of(victim_);
    if (traces.empty()) throw util::UsageError("no trace");
    last_trace_ = *traces.front();
    const auto site = locate_action_call(last_trace_, sites_, original_, 5);
    if (!site) throw util::UsageError("action call not located");
    return replay(env_, original_, sites_, last_trace_, *site,
                  abi::transfer_action_def(), last_params_);
  }

  Z3Env env_;
  chain::Controller chain_;
  instrument::TraceSink sink_;
  abi::Abi abi_;
  wasm::Module original_;
  instrument::SiteTable sites_;
  Name victim_ = name("victim");
  Name attacker_ = name("attacker");
  std::vector<ParamValue> last_params_;
  chain::TxResult last_result_;
  instrument::ActionTrace last_trace_;
};

std::vector<ParamValue> seed(std::int64_t amount, const std::string& memo) {
  return {name("attacker"), name("victim"), eos(amount), memo};
}

corpus::ActionOptions eosponser_opts() {
  corpus::ActionOptions o;
  o.require_code_match = false;
  return o;
}

TEST(ReplayEdge, LoopOverSymbolicMemoBytes) {
  // sum = Σ memo[i]; if (sum == 'a'+'b') tapos. The loop replays one
  // iteration per executed byte; the flip constrains the byte sum.
  ContractBuilder b;
  const auto env = b.env();
  // locals: 5=i (i32), 6=sum (i32), 7=len (i32)
  std::vector<Instr> body = {
      wasm::local_get(4),
      wasm::mem_load(Opcode::I32Load8U),
      wasm::local_set(7),
      wasm::block(),
      wasm::loop(),
      wasm::local_get(5),
      wasm::local_get(7),
      Instr(Opcode::I32GeU),
      wasm::br_if(1),
      wasm::local_get(4),
      wasm::local_get(5),
      Instr(Opcode::I32Add),
      wasm::mem_load(Opcode::I32Load8U, 1),
      wasm::local_get(6),
      Instr(Opcode::I32Add),
      wasm::local_set(6),
      wasm::local_get(5),
      wasm::i32_const(1),
      Instr(Opcode::I32Add),
      wasm::local_set(5),
      wasm::br(0),
      Instr(Opcode::End),
      Instr(Opcode::End),
      wasm::local_get(6),
      wasm::i32_const('a' + 'b'),
      Instr(Opcode::I32Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  b.add_action(abi::transfer_action_def(), {I32, I32, I32}, std::move(body),
               eosponser_opts());
  EdgeFixture fx(std::move(b));

  const auto r = fx.run_and_replay(seed(5, "zz"));
  // Loop exit checks per iteration + the final equality.
  EXPECT_GE(r.path.size(), 3u);
  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_GT(adaptive.seeds.size(), 0u);
  // One of the adaptive seeds must satisfy memo[0]+memo[1] == 'a'+'b'.
  bool satisfied = false;
  for (const auto& params : adaptive.seeds) {
    const auto& memo = std::get<std::string>(params[3]);
    if (memo.size() >= 2 &&
        static_cast<unsigned char>(memo[0]) +
                static_cast<unsigned char>(memo[1]) ==
            'a' + 'b') {
      satisfied = true;
    }
  }
  EXPECT_TRUE(satisfied);
}

TEST(ReplayEdge, ConstraintThroughHelperFunction) {
  // helper(x) = x * 2 + 6; if (helper(amount) == 20) tapos ⇒ amount == 7.
  ContractBuilder b;
  const auto env = b.env();
  const auto helper = b.raw().add_func(
      FuncType{{I64}, {I64}}, {},
      {wasm::local_get(0), wasm::i64_const(2), Instr(Opcode::I64Mul),
       wasm::i64_const(6), Instr(Opcode::I64Add), Instr(Opcode::End)},
      "helper");
  std::vector<Instr> body = {
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      wasm::call(helper),
      wasm::i64_const(20),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  b.add_action(abi::transfer_action_def(), {}, std::move(body),
               eosponser_opts());
  EdgeFixture fx(std::move(b));

  const auto r = fx.run_and_replay(seed(5, "m"));
  ASSERT_EQ(r.path.size(), 1u);
  // The helper entered and returned within the replay scope.
  EXPECT_GE(r.function_chain.size(), 2u);
  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  EXPECT_EQ(std::get<abi::Asset>(adaptive.seeds[0][2]).amount, 7);
}

TEST(ReplayEdge, SymbolicSelectBecomesIte) {
  // x = select(amount, 10, 20, cond=(from==victim)); if (x == 10) tapos.
  ContractBuilder b;
  const auto env = b.env();
  std::vector<Instr> body = {
      wasm::i64_const(10),
      wasm::i64_const(20),
      wasm::local_get(1),  // from
      wasm::i64_const_u(name("victim").value()),
      Instr(Opcode::I64Eq),
      Instr(Opcode::Select),
      wasm::i64_const(10),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  b.add_action(abi::transfer_action_def(), {}, std::move(body),
               eosponser_opts());
  EdgeFixture fx(std::move(b));
  const auto r = fx.run_and_replay(seed(5, "m"));
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_FALSE(r.path[0].taken);  // from != victim -> 20 != 10
  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  EXPECT_EQ(std::get<Name>(adaptive.seeds[0][0]), name("victim"));
}

TEST(ReplayEdge, BrTableRecordsHoldConstraint) {
  // br_table over (amount & 3): arms set a local; no flips, but the taken
  // arm contributes a hold constraint for later flips.
  ContractBuilder b;
  const auto env = b.env();
  Instr bt(Opcode::BrTable);
  bt.table = {0, 1};
  bt.a = 2;
  std::vector<Instr> body = {
      wasm::block(), wasm::block(), wasm::block(),
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(3), Instr(Opcode::I64And),
      Instr(Opcode::I32WrapI64), bt,
      Instr(Opcode::End),  // arm 0
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop), wasm::br(1),
      Instr(Opcode::End),  // arm 1
      wasm::br(0),
      Instr(Opcode::End),  // default lands here
      Instr(Opcode::End),
  };
  b.add_action(abi::transfer_action_def(), {}, std::move(body),
               eosponser_opts());
  EdgeFixture fx(std::move(b));
  const auto r = fx.run_and_replay(seed(6, "m"));  // 6 & 3 == 2 -> default
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_FALSE(r.path[0].can_flip);  // br_table is not a flip target
  EXPECT_TRUE(r.path[0].hold.has_value());
}

TEST(ReplayEdge, MemorySizeBalancedPerTable3) {
  // Table 3: memory.size pushes the constant 4096 during replay. The
  // contract stores memory.size and branches on it; the replay must not
  // diverge even though the runtime value differs (4 pages).
  ContractBuilder b;
  const auto env = b.env();
  std::vector<Instr> body = {
      Instr(Opcode::MemorySize),
      Instr(Opcode::Drop),
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(77),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  b.add_action(abi::transfer_action_def(), {}, std::move(body),
               eosponser_opts());
  EdgeFixture fx(std::move(b));
  const auto r = fx.run_and_replay(seed(5, "m"));
  EXPECT_TRUE(r.completed_scope);
  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  EXPECT_EQ(std::get<abi::Asset>(adaptive.seeds[0][2]).amount, 77);
}

TEST(ReplayEdge, ZeroDivisorFromMemorySizeFoldsToSmtValue) {
  // The divisor is memory.size - 4096. At runtime the contract has 4 pages,
  // so it is non-zero; replay models memory.size as 4096 (Table 3), so it
  // divides by zero. The fold must take the SMT-LIB value (bvudiv x 0 =
  // all-ones, bvsrem x 0 = x) rather than trap, or the fuzzer would drop
  // the replay and the flip that follows it.
  struct Variant {
    const char* name;
    std::vector<Instr> quotient;  // leaves an i64 on the stack
    std::uint64_t replayed;       // the SMT-LIB value
  };
  const Variant variants[] = {
      {"i32.div_u",
       {wasm::i32_const(7), Instr(Opcode::MemorySize), wasm::i32_const(4096),
        Instr(Opcode::I32Sub), Instr(Opcode::I32DivU),
        Instr(Opcode::I64ExtendI32U)},
       0xffffffffull},  // runtime: 7 / 0xfffff004 = 0
      {"i64.rem_s",
       {wasm::i64_const(10000), Instr(Opcode::MemorySize),
        Instr(Opcode::I64ExtendI32U), wasm::i64_const(4096),
        Instr(Opcode::I64Sub), Instr(Opcode::I64RemS)},
       10000},  // runtime: 10000 rem_s -4092 = 1816
  };
  for (const auto& v : variants) {
    ContractBuilder b;
    const auto env = b.env();
    std::vector<Instr> body = v.quotient;
    const std::vector<Instr> tail = {
        wasm::call(env.printi),
        wasm::local_get(3),
        wasm::mem_load(Opcode::I64Load),
        wasm::i64_const(77),
        Instr(Opcode::I64Eq),
        wasm::if_(),
        wasm::call(env.tapos_block_num),
        Instr(Opcode::Drop),
        Instr(Opcode::End),
        Instr(Opcode::End),
    };
    body.insert(body.end(), tail.begin(), tail.end());
    b.add_action(abi::transfer_action_def(), {}, std::move(body),
                 eosponser_opts());
    EdgeFixture fx(std::move(b));
    const auto r = fx.run_and_replay(seed(5, "m"));
    EXPECT_TRUE(r.completed_scope) << v.name;
    const ApiCall* printed = nullptr;
    for (const auto& call : r.api_calls) {
      if (call.name == "printi") printed = &call;
    }
    ASSERT_NE(printed, nullptr) << v.name;
    ASSERT_EQ(printed->args.size(), 1u) << v.name;
    EXPECT_EQ(printed->args[0].concrete(), v.replayed) << v.name;
    const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
    ASSERT_EQ(adaptive.seeds.size(), 1u) << v.name;
    EXPECT_EQ(std::get<abi::Asset>(adaptive.seeds[0][2]).amount, 77)
        << v.name;
  }
}

TEST(ReplayEdge, FloatBranchFallsBackGracefully) {
  // f64 comparison over converted amount: the condition becomes a fresh
  // variable; the flip may be vacuously satisfiable but must not crash or
  // corrupt the replay.
  ContractBuilder b;
  const auto env = b.env();
  std::vector<Instr> body = {
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      Instr(Opcode::F64ConvertI64S),
      wasm::f64_const(100.5),
      Instr(Opcode::F64Gt),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  b.add_action(abi::transfer_action_def(), {}, std::move(body),
               eosponser_opts());
  EdgeFixture fx(std::move(b));
  const auto r = fx.run_and_replay(seed(5, "m"));
  EXPECT_TRUE(r.completed_scope);
  EXPECT_NO_THROW(solve_flips(fx.env_, r, fx.last_params_));
}

TEST(ReplayEdge, CorruptTraceRaisesReplayError) {
  ContractBuilder b;
  const auto env = b.env();
  std::vector<Instr> body = {
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1), Instr(Opcode::I64Eq), wasm::if_(),
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End), Instr(Opcode::End)};
  b.add_action(abi::transfer_action_def(), {}, std::move(body),
               eosponser_opts());
  EdgeFixture fx(std::move(b));
  fx.run_and_replay(seed(5, "m"));  // populates last_trace_

  // Corrupt: splice an event whose site belongs to a different function
  // (apply's sites come last — the action function is defined first).
  instrument::ActionTrace corrupt = fx.last_trace_;
  const auto site = locate_action_call(corrupt, fx.sites_, fx.original_, 5);
  ASSERT_TRUE(site.has_value());
  std::uint32_t foreign_site = 0;
  for (std::uint32_t s = 0; s < fx.sites_.size(); ++s) {
    if (fx.sites_.at(s).func_index != site->func_index) foreign_site = s;
  }
  ASSERT_NE(fx.sites_.at(foreign_site).func_index, site->func_index);
  instrument::TraceEvent bogus;
  bogus.kind = instrument::EventKind::Instr;
  bogus.site = foreign_site;
  corrupt.events.insert(
      corrupt.events.begin() +
          static_cast<std::ptrdiff_t>(site->begin_event + 2),
      bogus);
  EXPECT_THROW(replay(fx.env_, fx.original_, fx.sites_, corrupt, *site,
                      abi::transfer_action_def(), fx.last_params_),
               ReplayError);
}

TEST(ReplayEdge, GlobalsReplaySymbolically) {
  // g = amount; if (g == 123) tapos. Covers global.set/get in Table 3.
  ContractBuilder b;
  const auto env = b.env();
  const auto g = b.raw().add_global(I64, true, 0);
  std::vector<Instr> body = {
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      wasm::global_set(g),
      wasm::global_get(g),
      wasm::i64_const(123),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  b.add_action(abi::transfer_action_def(), {}, std::move(body),
               eosponser_opts());
  EdgeFixture fx(std::move(b));
  const auto r = fx.run_and_replay(seed(5, "m"));
  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  EXPECT_EQ(std::get<abi::Asset>(adaptive.seeds[0][2]).amount, 123);
}

}  // namespace
}  // namespace wasai::symbolic
