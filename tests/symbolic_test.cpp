// Symback tests: memory model, symbolic ops, trace replay, input inference,
// constraint flipping and adaptive-seed generation — exercised end-to-end
// through instrumented SDK-shaped contracts running on the local chain.
#include <gtest/gtest.h>

#include <csignal>
#include <thread>

#include "abi/serializer.hpp"
#include "baselines/eosafe_memory.hpp"
#include "chain/controller.hpp"
#include "corpus/contract_builder.hpp"
#include "instrument/instrumenter.hpp"
#include "instrument/trace_sink.hpp"
#include "symbolic/ops.hpp"
#include "symbolic/solver.hpp"
#include "util/rng.hpp"
#include "wasm/encoder.hpp"

namespace wasai::symbolic {
namespace {

using abi::eos;
using abi::name;
using abi::Name;
using abi::ParamValue;
using corpus::ContractBuilder;
using corpus::DispatcherStyle;
using instrument::Instrumented;
using wasm::Instr;
using wasm::Opcode;
using wasm::ValType;

// ------------------------------------------------------------ memory model

TEST(MemoryModel, StoreLoadRoundTripsSymbolicValue) {
  Z3Env env;
  MemoryModel mem(env);
  z3::expr v = env.var("x", 64);
  mem.store(100, SymValue{ValType::I64, v}, 8);
  const SymValue loaded = mem.load(100, 8, false, ValType::I64);
  // (loaded == x) must be valid.
  z3::solver s(env.ctx());
  s.add(loaded.expr(env) != v);
  EXPECT_EQ(s.check(), z3::unsat);
}

TEST(MemoryModel, OverlappingStoreWins) {
  Z3Env env;
  MemoryModel mem(env);
  mem.store(0, SymValue{ValType::I64, 0x1111111111111111ull}, 8);
  mem.store(2, SymValue{ValType::I32, 0xffffffffu}, 4);
  const SymValue loaded = mem.load(0, 8, false, ValType::I64);
  ASSERT_TRUE(loaded.is_concrete());
  EXPECT_EQ(loaded.concrete().value(), 0x1111ffffffff1111ull);
}

TEST(MemoryModel, UnknownLoadCreatesStableSymbolicLoadObject) {
  Z3Env env;
  MemoryModel mem(env);
  const SymValue a = mem.load(500, 4, false, ValType::I32);
  const SymValue b = mem.load(500, 4, false, ValType::I32);
  EXPECT_EQ(mem.unknown_loads(), 4u);  // four fresh bytes, reused by b
  z3::solver s(env.ctx());
  s.add(a.expr(env) != b.expr(env));
  EXPECT_EQ(s.check(), z3::unsat);  // repeated loads agree
}

TEST(MemoryModel, NarrowLoadSignExtends) {
  Z3Env env;
  MemoryModel mem(env);
  mem.store(10, SymValue{ValType::I32, 0x80}, 1);
  const SymValue s_ext = mem.load(10, 1, true, ValType::I32);
  const SymValue z_ext = mem.load(10, 1, false, ValType::I32);
  EXPECT_EQ(s_ext.concrete().value(), 0xffffff80u);
  EXPECT_EQ(z_ext.concrete().value(), 0x80u);
}

TEST(MemoryModel, BindSeedsParameterBytes) {
  Z3Env env;
  MemoryModel mem(env);
  z3::expr amount = env.var("amount", 64);
  mem.bind(1040, amount, 8);
  const SymValue lo = mem.load(1040, 4, false, ValType::I32);
  z3::solver s(env.ctx());
  s.add(lo.expr(env) != amount.extract(31, 0));
  EXPECT_EQ(s.check(), z3::unsat);
}

// ------------------------------------------------------------ symbolic ops

TEST(SymOps, ConcreteFolding) {
  Z3Env env;
  const SymValue a{ValType::I64, 30};
  const SymValue b{ValType::I64, 12};
  EXPECT_EQ(sym_binary(env, Opcode::I64Add, a, b).concrete().value(), 42u);
  EXPECT_EQ(sym_binary(env, Opcode::I64GtS, a, b).concrete().value(), 1u);
  EXPECT_EQ(sym_unary(env, Opcode::I64Eqz, a).concrete().value(), 0u);
  EXPECT_EQ(sym_unary(env, Opcode::I32WrapI64,
                      SymValue{ValType::I64, 0xaabbccdd11223344ull})
                .concrete()
                .value(),
            0x11223344u);
}

TEST(SymOps, SymbolicComparisonSolvable) {
  Z3Env env;
  z3::expr x = env.var("x", 64);
  const SymValue cmp = sym_binary(env, Opcode::I64Eq,
                                  SymValue{ValType::I64, x},
                                  SymValue{ValType::I64, 77});
  z3::solver s(env.ctx());
  s.add(env.truthy(cmp.expr(env)));
  ASSERT_EQ(s.check(), z3::sat);
  EXPECT_EQ(s.get_model().eval(x, true).get_numeral_uint64(), 77u);
}

// True when `e` is a quantifier-free bitvector term: every subterm is a
// bitvector or Boolean application, and only constants are uninterpreted.
bool in_qf_bv(const z3::expr& e) {
  if (!e.is_app() || (!e.is_bv() && !e.is_bool())) return false;
  if (e.num_args() != 0 && e.decl().decl_kind() == Z3_OP_UNINTERPRETED) {
    return false;
  }
  for (unsigned i = 0; i < e.num_args(); ++i) {
    if (!in_qf_bv(e.arg(i))) return false;
  }
  return true;
}

// Concrete folds must equal Z3's simplification of the term the symbolic
// path builds for the same operands, so folding changes no constraint. That
// includes the inputs where Wasm traps but SMT-LIB defines a value: zero
// divisors, INT_MIN / -1, and shift counts of at least the width. The same
// terms must lie in QF_BV (solve_flips no longer fixes the logic, but every
// flip query is built from such terms), and the solver it decides flips
// with must reproduce the folded value.
TEST(SymOps, IntegerFoldsMatchZ3Simplify) {
  Z3Env env;
  util::Rng rng(5);
  const Opcode binary_ops[][2] = {
      {Opcode::I32Eq, Opcode::I64Eq},       {Opcode::I32Ne, Opcode::I64Ne},
      {Opcode::I32LtS, Opcode::I64LtS},     {Opcode::I32LtU, Opcode::I64LtU},
      {Opcode::I32GtS, Opcode::I64GtS},     {Opcode::I32GtU, Opcode::I64GtU},
      {Opcode::I32LeS, Opcode::I64LeS},     {Opcode::I32LeU, Opcode::I64LeU},
      {Opcode::I32GeS, Opcode::I64GeS},     {Opcode::I32GeU, Opcode::I64GeU},
      {Opcode::I32Add, Opcode::I64Add},     {Opcode::I32Sub, Opcode::I64Sub},
      {Opcode::I32Mul, Opcode::I64Mul},     {Opcode::I32DivS, Opcode::I64DivS},
      {Opcode::I32DivU, Opcode::I64DivU},   {Opcode::I32RemS, Opcode::I64RemS},
      {Opcode::I32RemU, Opcode::I64RemU},   {Opcode::I32And, Opcode::I64And},
      {Opcode::I32Or, Opcode::I64Or},       {Opcode::I32Xor, Opcode::I64Xor},
      {Opcode::I32Shl, Opcode::I64Shl},     {Opcode::I32ShrS, Opcode::I64ShrS},
      {Opcode::I32ShrU, Opcode::I64ShrU},   {Opcode::I32Rotl, Opcode::I64Rotl},
      {Opcode::I32Rotr, Opcode::I64Rotr}};
  // Unary ops with an operand-to-result term (clz/ctz/popcnt have none:
  // their symbolic path yields a fresh variable; see below).
  const Opcode unary_ops[] = {
      Opcode::I32Eqz,        Opcode::I64Eqz,        Opcode::I32WrapI64,
      Opcode::I64ExtendI32S, Opcode::I64ExtendI32U, Opcode::I32ReinterpretF32,
      Opcode::I64ReinterpretF64};
  const Opcode counting_ops[] = {Opcode::I32Clz,    Opcode::I32Ctz,
                                 Opcode::I32Popcnt, Opcode::I64Clz,
                                 Opcode::I64Ctz,    Opcode::I64Popcnt};

  for (const unsigned bits : {32u, 64u}) {
    const std::uint64_t mask =
        bits == 32 ? 0xffffffffull : ~std::uint64_t{0};
    const std::uint64_t int_min = std::uint64_t{1} << (bits - 1);
    std::vector<std::uint64_t> values = {
        0,           1,           2,        3,         7,
        mask,        mask - 1,    int_min,  int_min - 1, int_min + 1,
        bits - 1,    bits,        bits + 1, 2 * bits,  0x80000000ull};
    for (int i = 0; i < 6; ++i) values.push_back(rng.next() & mask);
    for (auto& v : values) v &= mask;

    // Reference: substitute the operands into the term built from
    // variables, then simplify.
    const auto reference = [&](const SymValue& term,
                               const std::vector<z3::expr>& vars,
                               const std::vector<std::uint64_t>& vals) {
      z3::expr_vector src(env.ctx());
      z3::expr_vector dst(env.ctx());
      for (std::size_t k = 0; k < vars.size(); ++k) {
        src.push_back(vars[k]);
        dst.push_back(env.bv(vals[k], vars[k].get_sort().bv_size()));
      }
      const z3::expr r = term.expr(env).substitute(src, dst).simplify();
      EXPECT_TRUE(r.is_numeral()) << r;
      return r.is_numeral() ? r.get_numeral_uint64() : ~std::uint64_t{0};
    };
    // Solver path, one flip-solver query per op: for every sampled case it
    // asserts v_i == a (and v_j == b) over fresh variables plus
    // r == term(v_i, v_j), and the model's r must equal the fold.
    using SolvedCases = std::vector<std::pair<z3::expr, std::uint64_t>>;
    const auto bound_var = [&](z3::solver& solver, std::uint64_t value) {
      const z3::expr v = env.fresh("v", bits);
      solver.add(v == env.bv(value, bits));
      return v;
    };
    const auto add_case = [&](z3::solver& solver, SolvedCases& cases,
                              const SymValue& term, std::uint64_t folded) {
      const z3::expr t = term.expr(env);
      EXPECT_TRUE(in_qf_bv(t)) << t;
      const z3::expr r = env.fresh("r", t.get_sort().bv_size());
      solver.add(r == t);
      cases.emplace_back(r, folded);
    };
    const auto expect_solved = [](z3::solver& solver, const SolvedCases& cases,
                                  std::string_view name) {
      ASSERT_EQ(solver.check(), z3::sat) << name;
      const z3::model model = solver.get_model();
      for (const auto& [r, folded] : cases) {
        EXPECT_EQ(model.eval(r, true).get_numeral_uint64(), folded)
            << name << " " << r;
      }
    };

    for (const auto& pair : binary_ops) {
      const Opcode op = pair[bits == 32 ? 0 : 1];
      const ValType t = wasm::op_info(op).operand;
      const z3::expr x = env.var("x", bits);
      const z3::expr y = env.var("y", bits);
      const SymValue term = sym_binary(env, op, {t, x}, {t, y});
      z3::solver solver = make_flip_solver(env.ctx());
      SolvedCases cases;
      for (const std::uint64_t a : values) {
        for (const std::uint64_t b : values) {
          const SymValue got = sym_binary(env, op, {t, a}, {t, b});
          ASSERT_TRUE(got.is_concrete()) << wasm::op_info(op).name;
          ASSERT_EQ(*got.concrete(), reference(term, {x, y}, {a, b}))
              << wasm::op_info(op).name << " x=" << a << " y=" << b;
          add_case(solver, cases,
                   sym_binary(env, op, {t, bound_var(solver, a)},
                              {t, bound_var(solver, b)}),
                   *got.concrete());
          // A mixed term keeps the concrete operand as a numeral; it too
          // must reduce to the folded value.
          const SymValue mixed = sym_binary(env, op, {t, x}, {t, b});
          ASSERT_EQ(*got.concrete(), reference(mixed, {x}, {a}))
              << wasm::op_info(op).name << " x=" << a << " y=" << b;
        }
      }
      expect_solved(solver, cases, wasm::op_info(op).name);
    }

    for (const Opcode op : unary_ops) {
      const auto& info = wasm::op_info(op);
      if (width_of(info.operand) != bits) continue;
      const z3::expr x = env.var("x", bits);
      const SymValue term = sym_unary(env, op, {info.operand, x});
      z3::solver solver = make_flip_solver(env.ctx());
      SolvedCases cases;
      for (const std::uint64_t a : values) {
        const SymValue got = sym_unary(env, op, {info.operand, a});
        ASSERT_TRUE(got.is_concrete()) << info.name;
        ASSERT_EQ(got.type, info.result) << info.name;
        ASSERT_EQ(*got.concrete(), reference(term, {x}, {a}))
            << info.name << " x=" << a;
        add_case(solver, cases,
                 sym_unary(env, op, {info.operand, bound_var(solver, a)}),
                 *got.concrete());
      }
      expect_solved(solver, cases, info.name);
    }

    for (const Opcode op : counting_ops) {
      const auto& info = wasm::op_info(op);
      if (width_of(info.operand) != bits) continue;
      for (const std::uint64_t a : values) {
        const SymValue got = sym_unary(env, op, {info.operand, a});
        ASSERT_EQ(*got.concrete(),
                  vm::eval_unary_op(op, vm::Value{info.operand, a}).bits)
            << info.name << " x=" << a;
      }
    }
  }
}

// extract_simplified skips simplify() on a partial extract of a bare
// variable, which memory stores and i32.wrap_i64 build for every symbolic
// parameter. That is only sound while Z3 returns such an extract as it is.
TEST(SymOps, PartialExtractOfAVariableSimplifiesToItself) {
  Z3Env env;
  for (const unsigned bits : {8u, 16u, 32u, 64u}) {
    const z3::expr v = env.var("v" + std::to_string(bits), bits);
    for (unsigned lo = 0; lo < bits; ++lo) {
      for (unsigned hi = lo; hi < bits; ++hi) {
        const z3::expr part = v.extract(hi, lo);
        const z3::expr simplified = part.simplify();
        const bool full_width = hi - lo + 1 == bits;
        EXPECT_TRUE(z3::eq(simplified, full_width ? v : part)) << part;
        EXPECT_TRUE(z3::eq(extract_simplified(v, hi, lo), simplified))
            << part;
      }
    }
  }
}

TEST(SymOps, FloatFallbackProducesFreshVarForSymbolicOperands) {
  Z3Env env;
  z3::expr x = env.var("x", 64);
  const auto r = sym_binary(env, Opcode::F64Add, SymValue{ValType::F64, x},
                            SymValue{ValType::F64, 0});
  EXPECT_EQ(r.type, ValType::F64);
  EXPECT_FALSE(r.is_concrete());
}

// ----------------------------------------------------- end-to-end replay

/// Harness: a deployed, instrumented one-action contract + trace capture.
class ReplayFixture {
 public:
  explicit ReplayFixture(std::vector<Instr> transfer_body,
                         std::vector<ValType> extra_locals = {}) {
    ContractBuilder builder;
    env_imports_ = builder.env();
    corpus::ActionOptions opts;
    opts.require_code_match = false;  // eosponser accepts notifications
    builder.add_action(abi::transfer_action_def(), std::move(extra_locals),
                       std::move(transfer_body), opts);
    abi_ = builder.abi();
    original_ = std::move(builder).build_module(DispatcherStyle::Standard);
    const Instrumented inst = instrument::instrument(original_);
    sites_ = inst.sites;
    chain_.set_observer(&sink_);
    chain_.deploy_contract(victim_, wasm::encode(inst.module), abi_);
    chain_.create_account(attacker_);
  }

  /// Execute transfer@victim directly with the given params; returns the
  /// victim's trace.
  const instrument::ActionTrace& run(std::vector<ParamValue> params) {
    sink_.clear();
    chain::Action act;
    act.account = victim_;
    act.name = name("transfer");
    act.authorization = {chain::active(attacker_)};
    act.data = abi::pack(abi::transfer_action_def(), params);
    last_params_ = std::move(params);
    last_result_ = chain_.push_transaction(chain::Transaction{{act}});
    const auto traces = sink_.actions_of(victim_);
    if (traces.empty()) throw util::UsageError("no trace captured");
    return *traces.front();
  }

  ReplayResult replay_last(const instrument::ActionTrace& trace) {
    const auto site = locate_action_call(trace, sites_, original_);
    EXPECT_TRUE(site.has_value());
    return replay(env_, original_, sites_, trace, *site,
                  *abi_.find(name("transfer")), last_params_);
  }

  Z3Env env_;
  chain::Controller chain_;
  instrument::TraceSink sink_;
  wasm::Module original_;
  instrument::SiteTable sites_;
  abi::Abi abi_;
  corpus::EnvImports env_imports_;
  Name victim_ = name("victim");
  Name attacker_ = name("attacker");
  std::vector<ParamValue> last_params_;
  chain::TxResult last_result_;
};

std::vector<ParamValue> default_seed(std::int64_t amount,
                                     const std::string& memo = "m") {
  return {name("attacker"), name("victim"), eos(amount), memo};
}

/// transfer body: if (quantity.amount == 1337) tapos_block_num().
std::vector<Instr> amount_eq_branch_body(const corpus::EnvImports& env) {
  return {
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1337),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
}

TEST(Replay, LocatesActionFunctionAndCapturedArgs) {
  ContractBuilder probe;  // only to learn the import layout
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const auto site = locate_action_call(trace, fx.sites_, fx.original_);
  ASSERT_TRUE(site.has_value());
  // transfer(self, from, to, qty*, memo*) = 5 captured args.
  EXPECT_EQ(site->concrete_args.size(), 5u);
  EXPECT_EQ(site->concrete_args[0].u64(), name("victim").value());
  EXPECT_EQ(site->concrete_args[1].u64(), name("attacker").value());
  EXPECT_EQ(site->concrete_args[3].u32(), corpus::kActionBuf + 16);
}

TEST(Replay, RecordsSymbolicBranchWithConcreteDirection) {
  ContractBuilder probe;
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);
  EXPECT_TRUE(r.completed_scope);
  EXPECT_FALSE(r.trapped);
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_FALSE(r.path[0].taken);  // 5 != 1337
  EXPECT_TRUE(r.path[0].can_flip);
  EXPECT_TRUE(r.function_chain.size() >= 1);
}

TEST(Replay, FlipSolvesAmountEquality) {
  ContractBuilder probe;
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);
  Z3Env& env = fx.env_;
  const auto adaptive = solve_flips(env, r, fx.last_params_);
  ASSERT_EQ(adaptive.sat, 1u);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  const auto& mutated = adaptive.seeds[0];
  EXPECT_EQ(std::get<abi::Asset>(mutated[2]).amount, 1337);

  // Execute the adaptive seed: the deep branch must now run.
  const auto& trace2 = fx.run(mutated);
  const ReplayResult r2 = fx.replay_last(trace2);
  bool tapos_called = false;
  for (const auto& api : r2.api_calls) {
    tapos_called |= (api.name == "tapos_block_num");
  }
  EXPECT_TRUE(tapos_called);
  EXPECT_TRUE(r2.path[0].taken);
}

TEST(Replay, FailedAssertBecomesFlipCandidate) {
  // eosio_assert(amount >= 1000) then tapos.
  ContractBuilder probe;
  const auto env = probe.env();
  std::vector<Instr> body = {
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1000),
      Instr(Opcode::I64GeS),
      wasm::i32_const(corpus::kMsgRegion),
      wasm::call(env.eosio_assert),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
  };
  ReplayFixture fx(body);
  const auto& trace = fx.run(default_seed(5));
  EXPECT_FALSE(fx.last_result_.success);  // the assert reverted the tx
  const ReplayResult r = fx.replay_last(trace);
  EXPECT_TRUE(r.trapped);
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_TRUE(r.path[0].is_assert);
  EXPECT_TRUE(r.path[0].can_flip);

  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  EXPECT_GE(std::get<abi::Asset>(adaptive.seeds[0][2]).amount, 1000);

  const auto& trace2 = fx.run(adaptive.seeds[0]);
  EXPECT_TRUE(fx.last_result_.success) << fx.last_result_.error;
  const ReplayResult r2 = fx.replay_last(trace2);
  bool tapos_called = false;
  for (const auto& api : r2.api_calls) {
    tapos_called |= (api.name == "tapos_block_num");
  }
  EXPECT_TRUE(tapos_called);
}

TEST(Replay, PassedAssertBecomesPathConstraint) {
  ContractBuilder probe;
  const auto env = probe.env();
  // assert(amount >= 1); if (amount == 42) tapos;
  std::vector<Instr> body = {
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1), Instr(Opcode::I64GeS),
      wasm::i32_const(corpus::kMsgRegion), wasm::call(env.eosio_assert),
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(42), Instr(Opcode::I64Eq), wasm::if_(),
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End), Instr(Opcode::End)};
  ReplayFixture fx(body);
  const auto& trace = fx.run(default_seed(7));
  const ReplayResult r = fx.replay_last(trace);
  ASSERT_EQ(r.path.size(), 2u);
  EXPECT_TRUE(r.path[0].is_assert);
  EXPECT_FALSE(r.path[0].can_flip);  // passed assert: constraint, not flip
  EXPECT_TRUE(r.path[1].can_flip);

  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  // The flip target respects the earlier assert: amount == 42 (>= 1).
  EXPECT_EQ(std::get<abi::Asset>(adaptive.seeds[0][2]).amount, 42);
}

TEST(Replay, StringByteConstraintSolved) {
  ContractBuilder probe;
  const auto env = probe.env();
  // if (memo[0] == 'x') tapos;   (memo content byte at ptr+1)
  std::vector<Instr> body = {
      wasm::local_get(4),
      wasm::mem_load(Opcode::I32Load8U, /*offset=*/1),
      wasm::i32_const('x'),
      Instr(Opcode::I32Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  ReplayFixture fx(body);
  const auto& trace = fx.run(default_seed(5, "m"));
  const ReplayResult r = fx.replay_last(trace);
  ASSERT_EQ(r.path.size(), 1u);
  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  EXPECT_EQ(std::get<std::string>(adaptive.seeds[0][3])[0], 'x');
}

TEST(Replay, NameParameterConstraint) {
  ContractBuilder probe;
  const auto env = probe.env();
  // Fake Notif guard shape: if (to == self) tapos; — operands recorded.
  std::vector<Instr> body = {
      wasm::local_get(2),  // to
      wasm::local_get(0),  // self
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  ReplayFixture fx(body);
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);
  // The i64.eq operands were captured concretely for the guard oracle.
  ASSERT_EQ(r.i64_comparisons.size(), 1u);
  EXPECT_EQ(r.i64_comparisons[0].lhs, name("victim").value());
  EXPECT_EQ(r.i64_comparisons[0].rhs, name("victim").value());

  const auto adaptive = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(adaptive.seeds.size(), 1u);
  // Flip: to != victim.
  EXPECT_NE(std::get<Name>(adaptive.seeds[0][1]), name("victim"));
}

TEST(Replay, NestedVerificationChainSolvedIteratively) {
  // Two nested equality checks on from/amount: each replay exposes the
  // next branch, as in the fuzzing loop of Algorithm 1.
  ContractBuilder probe;
  const auto env = probe.env();
  std::vector<Instr> body = {
      wasm::local_get(1),                           // from
      wasm::i64_const_u(name("lucky").value()),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(999),
      Instr(Opcode::I64Eq),
      wasm::if_(),
      wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  ReplayFixture fx(body);
  // Round 1: random seed, outer branch false.
  auto params = default_seed(5);
  const auto r1 = fx.replay_last(fx.run(params));
  ASSERT_EQ(r1.path.size(), 1u);
  auto seeds1 = solve_flips(fx.env_, r1, params);
  ASSERT_EQ(seeds1.seeds.size(), 1u);
  EXPECT_EQ(std::get<Name>(seeds1.seeds[0][0]), name("lucky"));

  // Round 2: adaptive seed reaches the inner branch.
  const auto r2 = fx.replay_last(fx.run(seeds1.seeds[0]));
  ASSERT_EQ(r2.path.size(), 2u);
  auto seeds2 = solve_flips(fx.env_, r2, seeds1.seeds[0]);
  // Flips: outer (back to false) and inner (amount == 999).
  ASSERT_EQ(seeds2.seeds.size(), 2u);
  const auto& final_seed = seeds2.seeds[1];
  EXPECT_EQ(std::get<Name>(final_seed[0]), name("lucky"));
  EXPECT_EQ(std::get<abi::Asset>(final_seed[2]).amount, 999);

  // Round 3: the jackpot path executes.
  const auto r3 = fx.replay_last(fx.run(final_seed));
  bool tapos_called = false;
  for (const auto& api : r3.api_calls) {
    tapos_called |= (api.name == "tapos_block_num");
  }
  EXPECT_TRUE(tapos_called);
}

TEST(Solver, CancelledTokenAbortsBeforeAnyQuery) {
  ContractBuilder probe;
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);

  const auto token = util::CancelToken::with_deadline(0);
  token->cancel();
  SolverOptions opts;
  opts.cancel = token.get();
  const auto aborted = solve_flips(fx.env_, r, fx.last_params_, opts);
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.queries, 0u);
  EXPECT_TRUE(aborted.seeds.empty());
}

TEST(Solver, ReportsWallTimeAndPartitionsVerdicts) {
  ContractBuilder probe;
  ReplayFixture fx(amount_eq_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5));
  const ReplayResult r = fx.replay_last(trace);

  const auto normal = solve_flips(fx.env_, r, fx.last_params_);
  EXPECT_GT(normal.wall_ms, 0.0);
  EXPECT_FALSE(normal.aborted);
  EXPECT_GT(normal.queries, 0u);
  // Without a cache every attempted flip is one Z3 query with one verdict.
  EXPECT_EQ(normal.queries, normal.sat + normal.unsat + normal.unknown);
}

// Three flippable branches over different parameters, so the solver emits
// three adaptive seeds in path order.
std::vector<Instr> three_branch_body(const corpus::EnvImports& env) {
  return {
      // if (amount == 1337) tapos
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      wasm::i64_const(1337), Instr(Opcode::I64Eq), wasm::if_(),
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End),
      // if (from == lucky) tapos
      wasm::local_get(1), wasm::i64_const_u(name("lucky").value()),
      Instr(Opcode::I64Eq), wasm::if_(), wasm::call(env.tapos_block_num),
      Instr(Opcode::Drop), Instr(Opcode::End),
      // if (memo[0] == 'x') tapos
      wasm::local_get(4), wasm::mem_load(Opcode::I32Load8U, /*offset=*/1),
      wasm::i32_const('x'), Instr(Opcode::I32Eq), wasm::if_(),
      wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End), Instr(Opcode::End)};
}

void expect_same_seeds(const AdaptiveSeeds& actual,
                       const AdaptiveSeeds& expected, const char* label) {
  ASSERT_EQ(actual.seeds.size(), expected.seeds.size()) << label;
  for (std::size_t i = 0; i < expected.seeds.size(); ++i) {
    ASSERT_EQ(actual.seeds[i].size(), expected.seeds[i].size()) << label;
    for (std::size_t j = 0; j < expected.seeds[i].size(); ++j) {
      EXPECT_EQ(abi::to_string(actual.seeds[i][j]),
                abi::to_string(expected.seeds[i][j]))
          << label << ", seed " << i << ", param " << j;
    }
  }
}

TEST(Solver, CachedRerunAnswersEveryFlipWithoutZ3) {
  ContractBuilder probe;
  ReplayFixture fx(three_branch_body(probe.env()));
  const auto& trace = fx.run(default_seed(5, "m"));
  const ReplayResult r = fx.replay_last(trace);

  const auto uncached = solve_flips(fx.env_, r, fx.last_params_);
  ASSERT_EQ(uncached.seeds.size(), 3u);
  EXPECT_EQ(std::get<abi::Asset>(uncached.seeds[0][2]).amount, 1337);
  EXPECT_EQ(std::get<Name>(uncached.seeds[1][0]), name("lucky"));
  EXPECT_EQ(std::get<std::string>(uncached.seeds[2][3])[0], 'x');

  SolverCache cache(64);
  SolverOptions opts;
  opts.cache = &cache;
  const auto first = solve_flips(fx.env_, r, fx.last_params_, opts);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, first.queries);
  expect_same_seeds(first, uncached, "first cached vs uncached");

  const auto second = solve_flips(fx.env_, r, fx.last_params_, opts);
  EXPECT_EQ(second.queries, 0u);  // every flip answered by the cache
  EXPECT_EQ(second.cache_hits, first.queries);
  EXPECT_EQ(second.sat, first.sat);
  EXPECT_EQ(second.unsat, first.unsat);
  expect_same_seeds(second, first, "second cached vs first");
  EXPECT_EQ(cache.stats().hits, second.cache_hits);
  EXPECT_EQ(cache.stats().entries, first.queries);
}

/// A replay whose path is one flippable branch: `flip` and nothing else.
ReplayResult one_flip(const z3::expr& flip) {
  ReplayResult r;
  PathStep step{};
  step.can_flip = true;
  step.flip = flip;
  r.path.push_back(std::move(step));
  return r;
}

TEST(Solver, BudgetExhaustedFlipIsUnknownEveryRunAndCached) {
  // Factoring the product of the two largest 64-bit primes, 2^64-59 and
  // 2^64-83: far beyond kFlipRlimit. The budget counts Z3's work, not wall
  // time, so the verdict is unknown on every run and the cache keeps it
  // like unsat.
  Z3Env env;
  const z3::expr x = env.var("x", 64);
  const z3::expr y = env.var("y", 64);
  const z3::expr product =
      env.ctx().bv_val("340282366920938460843936948965011886881", 128);
  const ReplayResult r =
      one_flip(z3::zext(x, 64) * z3::zext(y, 64) == product &&
               z3::ugt(x, env.bv(1, 64)) && z3::ugt(y, env.bv(1, 64)));
  const std::vector<ParamValue> no_params;

  const auto uncached = solve_flips(env, r, no_params);
  EXPECT_EQ(uncached.queries, 1u);
  EXPECT_EQ(uncached.unknown, 1u);

  SolverCache cache(8);
  SolverOptions opts;
  opts.cache = &cache;
  const auto first = solve_flips(env, r, no_params, opts);
  EXPECT_EQ(first.queries, 1u);
  EXPECT_EQ(first.unknown, 1u);

  const auto second = solve_flips(env, r, no_params, opts);
  EXPECT_EQ(second.queries, 0u);  // answered by the cache
  EXPECT_EQ(second.cache_hits, 1u);
  EXPECT_EQ(second.unknown, 1u);
  EXPECT_TRUE(second.seeds.empty());
}

/// Z3's process-wide allocation high-water mark in MB, as its statistics
/// report it.
double z3_max_memory_mb(const z3::solver& solver) {
  const z3::stats stats = solver.statistics();
  for (unsigned i = 0; i < stats.size(); ++i) {
    if (stats.key(i) == "max memory") return stats.double_value(i);
  }
  ADD_FAILURE() << "Z3 reports no max memory statistic";
  return 0;
}

TEST(Solver, FlipCheckKeepsZ3PeakMemoryFlat) {
  // A QF_BV solver allocates a spare 8,519,688-byte block on 49 of the 320
  // flip checks of a templates pass, and that block sets the fuzzer's peak
  // memory. A flip check must leave Z3's high-water mark where the context
  // put it. The mark is per process, and ctest runs each test in its own.
  // The query is a template contract's `p2_amount` flip.
  Z3Env env;
  const z3::expr amount = env.var("p2_amount", 64);
  z3::solver solver = make_flip_solver(env.ctx());
  const double before = z3_max_memory_mb(solver);
  const z3::expr hold = env.bool_to_bv32(z3::sle(env.bv(100000, 64), amount));
  const z3::expr flip = z3::ite(z3::sle(amount, env.bv(4765133750, 64)),
                                env.bv(0, 32), env.bv(1, 32));
  solver.add(env.truthy(hold));
  solver.add(env.truthy(flip));
  ASSERT_EQ(solver.check(), z3::sat);
  const double grown_mb = z3_max_memory_mb(solver) - before;
  RecordProperty("z3_max_memory_growth_kb",
                 std::to_string(static_cast<int>(grown_mb * 1024)));
  EXPECT_LT(grown_mb, 2.0) << "Z3 peak memory grew by " << grown_mb << " MB";
}

void on_sigint(int /*signal*/) {}

TEST(Solver, ConcurrentFlipSolvingKeepsTheSigintHandler) {
  // Z3's default check installs its own SIGINT handler and puts back the
  // one it found when it returns. Checks on concurrent threads interleave
  // those swaps and can leave Z3's handler installed, which turns off a
  // campaign's drain-on-SIGINT. Flip checks must leave SIGINT alone.
  struct sigaction ours {};
  ours.sa_handler = on_sigint;
  sigemptyset(&ours.sa_mask);
  struct sigaction saved {};
  ASSERT_EQ(sigaction(SIGINT, &ours, &saved), 0);

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      Z3Env env;
      const ReplayResult r = one_flip(env.var("x", 64) == env.bv(1337, 64));
      for (int i = 0; i < 200; ++i) solve_flips(env, r, {});
    });
  }
  for (auto& worker : workers) worker.join();

  struct sigaction now {};
  ASSERT_EQ(sigaction(SIGINT, nullptr, &now), 0);
  ASSERT_EQ(sigaction(SIGINT, &saved, nullptr), 0);
  EXPECT_EQ(now.sa_handler, &on_sigint);
}

// ------------------------------------------------------------ term lifetime

// A holder that overwrites a term must release it. z3++ 4.8.12's move
// assignment onto a live z3::expr keeps the old term until the context is
// deleted (see MaybeTerm), which shows as Z3 heap growing with the number
// of overwrites. Each test below does thousands of overwrites in one Z3Env
// and bounds the growth of Z3's own allocation counter.
constexpr std::int64_t kLeakBoundBytes = 1 << 20;

std::int64_t z3_alloc_bytes() {
  return static_cast<std::int64_t>(Z3_get_estimated_alloc_size());
}

/// Checks Z3's heap grew less than the bound since `before`, and records
/// the growth as a test property.
void expect_bounded_growth(std::int64_t before) {
  const std::int64_t grown_kb = (z3_alloc_bytes() - before) / 1024;
  testing::Test::RecordProperty("z3_alloc_growth_kb", std::to_string(grown_kb));
  EXPECT_LT(grown_kb * 1024, kLeakBoundBytes)
      << "Z3 heap grew by " << grown_kb << " KB";
}

TEST(TermLifetime, MaybeTermMoveEmptiesSourceAndSurvivesSelfMove) {
  Z3Env env;
  const z3::expr x = env.var("x", 64);
  MaybeTerm a = x;
  MaybeTerm& same = a;
  a = std::move(same);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(z3::eq(*a, x));
  MaybeTerm b = std::move(a);
  EXPECT_FALSE(a.has_value());
  b = MaybeTerm{};
  EXPECT_FALSE(b.has_value());
}

TEST(TermLifetime, OverwrittenSymValueReleasesItsTerm) {
  Z3Env env;
  const z3::expr x = env.var("x", 64);
  SymValue v{ValType::I64, x};
  const std::int64_t before = z3_alloc_bytes();
  for (std::uint64_t i = 1; i <= 20'000; ++i) {
    v = SymValue{ValType::I64, x * env.bv(i, 64)};
  }
  EXPECT_FALSE(v.is_concrete());
  expect_bounded_growth(before);
}

TEST(TermLifetime, MemoryStoreOverSymbolicBytesReleasesThem) {
  Z3Env env;
  MemoryModel mem(env);
  const z3::expr x = env.var("x", 64);
  mem.store(100, SymValue{ValType::I64, x}, 8);
  const std::int64_t before = z3_alloc_bytes();
  for (std::uint64_t i = 1; i <= 20'000; ++i) {
    mem.store(100, SymValue{ValType::I64, x * env.bv(i, 64)}, 8);
    const SymValue loaded = mem.load(100, 8, false, ValType::I64);
    ASSERT_FALSE(loaded.is_concrete());
  }
  expect_bounded_growth(before);
}

TEST(TermLifetime, EosafeWidthChangingLoadReleasesItsTerms) {
  Z3Env env;
  const z3::expr x = env.var("x", 64);
  const z3::expr addr = env.bv(64, 32);
  const std::int64_t before = z3_alloc_bytes();
  for (std::uint64_t i = 1; i <= 20'000; ++i) {
    baselines::EosafeMemory mem(env);
    // i64.store32 then i32.load: the stored term is narrowed.
    mem.store(addr, x * env.bv(i, 64), 4);
    const SymValue narrow = mem.load(addr, 4, false, ValType::I32);
    // i32.store8 then i64.load8_s: the stored term is sign-extended.
    mem.store(addr + env.bv(8, 32), narrow.expr(env), 1);
    const SymValue wide =
        mem.load(addr + env.bv(8, 32), 1, true, ValType::I64);
    ASSERT_FALSE(wide.is_concrete());
  }
  expect_bounded_growth(before);
}

/// transfer body with extra locals [i64 f, i32 i, i64 acc]. f is a fresh
/// variable (popcnt has no term, so each replay names a new one), and 40
/// loop rounds overwrite acc with a new symbolic value over f, store it
/// over the symbolic bytes of the previous round and load part of it back.
/// A final symbolic branch on acc puts a term in the path.
std::vector<Instr> overwrite_loop_body(const corpus::EnvImports& env) {
  const std::uint32_t f = 5;
  const std::uint32_t i = 6;
  const std::uint32_t acc = 7;
  return {
      wasm::local_get(3), wasm::mem_load(Opcode::I64Load),
      Instr(Opcode::I64Popcnt), wasm::local_set(f),
      wasm::loop(),
      // acc = f * i + amount
      wasm::local_get(f), wasm::local_get(i), Instr(Opcode::I64ExtendI32U),
      Instr(Opcode::I64Mul), wasm::local_get(3),
      wasm::mem_load(Opcode::I64Load), Instr(Opcode::I64Add),
      wasm::local_set(acc),
      // scratch[0..8) = acc; acc = acc + sext(load32(scratch))
      wasm::i32_const(corpus::kScratchRegion), wasm::local_get(acc),
      wasm::mem_store(Opcode::I64Store), wasm::local_get(acc),
      wasm::i32_const(corpus::kScratchRegion),
      wasm::mem_load(Opcode::I64Load32S), Instr(Opcode::I64Add),
      wasm::local_set(acc),
      // while (++i < 40)
      wasm::local_get(i), wasm::i32_const(1), Instr(Opcode::I32Add),
      wasm::local_tee(i), wasm::i32_const(40), Instr(Opcode::I32LtU),
      wasm::br_if(0), Instr(Opcode::End),
      // if (acc == 1337) tapos
      wasm::local_get(acc), wasm::i64_const(1337), Instr(Opcode::I64Eq),
      wasm::if_(), wasm::call(env.tapos_block_num), Instr(Opcode::Drop),
      Instr(Opcode::End), Instr(Opcode::End)};
}

TEST(TermLifetime, RepeatedReplayReleasesOverwrittenTerms) {
  ContractBuilder probe;
  ReplayFixture fx(overwrite_loop_body(probe.env()),
                   {ValType::I64, ValType::I32, ValType::I64});
  const auto& trace = fx.run(default_seed(5));
  ASSERT_EQ(fx.replay_last(trace).path.size(), 1u);
  const std::int64_t before = z3_alloc_bytes();
  for (int k = 0; k < 200; ++k) {
    const ReplayResult r = fx.replay_last(trace);
    ASSERT_TRUE(r.completed_scope);
  }
  expect_bounded_growth(before);
}

TEST(Replay, DbApiCallsRecordedWithConcreteArgs) {
  ContractBuilder probe;
  const auto env = probe.env();
  // db_find(self, self, "tab", 1); store result; no branching.
  std::vector<Instr> body = {
      wasm::local_get(0), wasm::local_get(0),
      wasm::i64_const_u(name("tab").value()), wasm::i64_const(1),
      wasm::call(env.db_find), Instr(Opcode::Drop), Instr(Opcode::End)};
  ReplayFixture fx(body);
  const auto r = fx.replay_last(fx.run(default_seed(5)));
  ASSERT_EQ(r.api_calls.size(), 1u);
  EXPECT_EQ(r.api_calls[0].name, "db_find_i64");
  EXPECT_TRUE(r.api_calls[0].completed);
  ASSERT_EQ(r.api_calls[0].args.size(), 4u);
  EXPECT_EQ(r.api_calls[0].args[2].concrete().value(),
            name("tab").value());
  ASSERT_TRUE(r.api_calls[0].ret.has_value());
  EXPECT_EQ(r.api_calls[0].ret->s32(), -1);  // row absent
}

}  // namespace
}  // namespace wasai::symbolic
