// Symbolic counterparts of the Wasm numeric instructions (Table 3's unary /
// binary rows). All-concrete operands fold natively with the interpreter's
// semantics, except where Wasm traps but SMT-LIB is total (x/0, x%0,
// INT_MIN/-1): there the fold takes the SMT-LIB value. Otherwise integer
// ops map directly onto Z3 bitvector theory, and float ops degrade to fresh
// variables.
#pragma once

#include "symbolic/symvalue.hpp"
#include "wasm/opcode.hpp"

namespace wasai::symbolic {

SymValue sym_unary(Z3Env& env, wasm::Opcode op, const SymValue& x);
SymValue sym_binary(Z3Env& env, wasm::Opcode op, const SymValue& lhs,
                    const SymValue& rhs);

}  // namespace wasai::symbolic
