#include "symbolic/ops.hpp"

#include <optional>

#include "eosvm/vm.hpp"

namespace wasai::symbolic {

namespace {

using wasm::Opcode;
using wasm::ValType;

/// SMT-LIB value of an integer division or remainder that traps in Wasm
/// (zero divisor, INT_MIN / -1); nullopt where Wasm defines the result.
/// Concrete folds use it so a folded value is exactly what Z3 simplifies
/// the matching bitvector term to.
std::optional<std::uint64_t> smt_total_division(Opcode op, unsigned bits,
                                                std::uint64_t x,
                                                std::uint64_t y) {
  const std::uint64_t ones = bits == 32 ? 0xffffffffull : ~std::uint64_t{0};
  const std::uint64_t int_min = std::uint64_t{1} << (bits - 1);
  switch (op) {
    case Opcode::I32DivU:
    case Opcode::I64DivU:
      if (y == 0) return ones;  // bvudiv x 0
      break;
    case Opcode::I32DivS:
    case Opcode::I64DivS:
      if (y == 0) return (x & int_min) != 0 ? 1 : ones;  // bvsdiv x 0
      if (x == int_min && y == ones) return int_min;     // wraps
      break;
    case Opcode::I32RemU:
    case Opcode::I64RemU:
    case Opcode::I32RemS:
    case Opcode::I64RemS:
      if (y == 0) return x;  // bvurem / bvsrem x 0
      break;
    default:
      break;
  }
  return std::nullopt;
}

z3::expr masked_shift(Z3Env& env, const z3::expr& amount, unsigned bits) {
  return amount & env.bv(bits - 1, bits);
}

z3::expr rotl_expr(Z3Env& env, const z3::expr& a, const z3::expr& n,
                   unsigned bits) {
  const z3::expr k = masked_shift(env, n, bits);
  return z3::shl(a, k) | z3::lshr(a, env.bv(bits, bits) - k);
}

z3::expr rotr_expr(Z3Env& env, const z3::expr& a, const z3::expr& n,
                   unsigned bits) {
  const z3::expr k = masked_shift(env, n, bits);
  return z3::lshr(a, k) | z3::shl(a, env.bv(bits, bits) - k);
}

}  // namespace

SymValue sym_unary(Z3Env& env, Opcode op, const SymValue& x) {
  const auto& info = wasm::op_info(op);
  if (const auto v = x.concrete()) {
    return SymValue{info.result, vm::eval_unary_op(op, {x.type, *v}).bits};
  }
  const z3::expr e = x.expr(env);
  switch (op) {
    case Opcode::I32Eqz:
    case Opcode::I64Eqz:
      return {ValType::I32,
              env.bool_to_bv32(e == env.bv(0, x.bits())).simplify()};
    case Opcode::I32WrapI64:
      return {ValType::I32, extract_simplified(e, 31, 0)};
    case Opcode::I64ExtendI32S:
      return {ValType::I64, z3::sext(e, 32).simplify()};
    case Opcode::I64ExtendI32U:
      return {ValType::I64, z3::zext(e, 32).simplify()};
    case Opcode::I32ReinterpretF32:
    case Opcode::I64ReinterpretF64:
    case Opcode::F32ReinterpretI32:
    case Opcode::F64ReinterpretI64:
      return {info.result, e};
    default:
      // clz/ctz/popcnt and all float unaries/conversions.
      return {info.result, env.fresh(info.name, width_of(info.result))};
  }
}

SymValue sym_binary(Z3Env& env, Opcode op, const SymValue& a,
                    const SymValue& b) {
  const auto& info = wasm::op_info(op);
  if (a.is_concrete() && b.is_concrete()) {
    const std::uint64_t x = *a.concrete();
    const std::uint64_t y = *b.concrete();
    if (const auto q = smt_total_division(op, a.bits(), x, y)) {
      return SymValue{info.result, *q};
    }
    return SymValue{info.result,
                    vm::eval_binary_op(op, {a.type, x}, {b.type, y}).bits};
  }
  const z3::expr x = a.expr(env);
  const z3::expr y = b.expr(env);
  const auto bv32 = [&](const z3::expr& cond) {
    return SymValue{ValType::I32, env.bool_to_bv32(cond).simplify()};
  };
  const auto arith = [&](const z3::expr& e) {
    return SymValue{info.result, e.simplify()};
  };
  switch (op) {
    // relational (i32/i64)
    case Opcode::I32Eq:
    case Opcode::I64Eq:
      return bv32(x == y);
    case Opcode::I32Ne:
    case Opcode::I64Ne:
      return bv32(x != y);
    case Opcode::I32LtS:
    case Opcode::I64LtS:
      return bv32(x < y);
    case Opcode::I32LtU:
    case Opcode::I64LtU:
      return bv32(z3::ult(x, y));
    case Opcode::I32GtS:
    case Opcode::I64GtS:
      return bv32(x > y);
    case Opcode::I32GtU:
    case Opcode::I64GtU:
      return bv32(z3::ugt(x, y));
    case Opcode::I32LeS:
    case Opcode::I64LeS:
      return bv32(x <= y);
    case Opcode::I32LeU:
    case Opcode::I64LeU:
      return bv32(z3::ule(x, y));
    case Opcode::I32GeS:
    case Opcode::I64GeS:
      return bv32(x >= y);
    case Opcode::I32GeU:
    case Opcode::I64GeU:
      return bv32(z3::uge(x, y));
    // arithmetic / bitwise
    case Opcode::I32Add:
    case Opcode::I64Add:
      return arith(x + y);
    case Opcode::I32Sub:
    case Opcode::I64Sub:
      return arith(x - y);
    case Opcode::I32Mul:
    case Opcode::I64Mul:
      return arith(x * y);
    case Opcode::I32DivS:
    case Opcode::I64DivS:
      return arith(x / y);  // bvsdiv
    case Opcode::I32DivU:
    case Opcode::I64DivU:
      return arith(z3::udiv(x, y));
    case Opcode::I32RemS:
    case Opcode::I64RemS:
      return arith(z3::srem(x, y));
    case Opcode::I32RemU:
    case Opcode::I64RemU:
      return arith(z3::urem(x, y));
    case Opcode::I32And:
    case Opcode::I64And:
      return arith(x & y);
    case Opcode::I32Or:
    case Opcode::I64Or:
      return arith(x | y);
    case Opcode::I32Xor:
    case Opcode::I64Xor:
      return arith(x ^ y);
    case Opcode::I32Shl:
    case Opcode::I64Shl:
      return arith(z3::shl(x, masked_shift(env, y, a.bits())));
    case Opcode::I32ShrS:
    case Opcode::I64ShrS:
      return arith(z3::ashr(x, masked_shift(env, y, a.bits())));
    case Opcode::I32ShrU:
    case Opcode::I64ShrU:
      return arith(z3::lshr(x, masked_shift(env, y, a.bits())));
    case Opcode::I32Rotl:
    case Opcode::I64Rotl:
      return arith(rotl_expr(env, x, y, a.bits()));
    case Opcode::I32Rotr:
    case Opcode::I64Rotr:
      return arith(rotr_expr(env, x, y, a.bits()));
    default:
      // Float arithmetic and comparisons.
      return {info.result, env.fresh(info.name, width_of(info.result))};
  }
}

}  // namespace wasai::symbolic
