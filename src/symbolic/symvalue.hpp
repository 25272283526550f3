// Symbolic values: Wasm stack slots that are either concrete bit patterns
// or Z3 bitvector terms. A value carries a term only while it depends on a
// symbolic input or an unknown-memory load; everything else stays a plain
// integer, so replaying concrete code never touches Z3. Floats are modelled
// as bit patterns; symbolic float arithmetic falls back to fresh variables
// (the corpus never branches on symbolic float math, and the fuzzer
// tolerates unconstrained seeds).
#pragma once

#include <z3++.h>

#include <optional>
#include <string>
#include <utility>

#include "eosvm/value.hpp"
#include "wasm/types.hpp"

namespace wasai::symbolic {

/// Z3 environment shared by one analysis (context + helper constructors).
class Z3Env {
 public:
  z3::context& ctx() { return ctx_; }

  /// Bitvector constant of the given width.
  z3::expr bv(std::uint64_t value, unsigned bits) {
    return ctx_.bv_val(static_cast<std::uint64_t>(value), bits);
  }

  /// Fresh named bitvector variable.
  z3::expr var(const std::string& name, unsigned bits) {
    return ctx_.bv_const(name.c_str(), bits);
  }

  /// bool -> i32-style 0/1 bitvector.
  z3::expr bool_to_bv32(const z3::expr& b) {
    return z3::ite(b, bv(1, 32), bv(0, 32));
  }

  /// i32-style truthiness: value != 0.
  z3::expr truthy(const z3::expr& e) {
    return e != bv(0, e.get_sort().bv_size());
  }

  /// Fresh variable with a unique generated name.
  z3::expr fresh(const std::string& prefix, unsigned bits) {
    return var(prefix + "_" + std::to_string(fresh_counter_++), bits);
  }

 private:
  z3::context ctx_;
  std::uint64_t fresh_counter_ = 0;
};

/// Bit width of a Wasm value type (floats are modelled as bit patterns).
constexpr unsigned width_of(wasm::ValType t) {
  return (t == wasm::ValType::I32 || t == wasm::ValType::F32) ? 32 : 64;
}

/// A Z3 term or nothing, holding one reference to the term. z3++ 4.8.12's
/// `ast::operator=(ast&&)` takes the source's reference without releasing
/// the target's, so a move assignment onto a live `z3::expr` (directly, or
/// through a `std::optional<z3::expr>`) keeps the old term alive until
/// `Z3_del_context` sweeps it out of the AST table. The replay's
/// overwritable term holders (SymValue, SymByte) store their term here, and
/// this move assignment releases the old term first, so a term is released
/// when its last holder drops it or is overwritten. A moved-from MaybeTerm
/// is empty.
class MaybeTerm {
 public:
  MaybeTerm() = default;
  MaybeTerm(z3::expr term) : term_(std::move(term)) {}
  MaybeTerm(const MaybeTerm&) = default;
  MaybeTerm& operator=(const MaybeTerm&) = default;
  MaybeTerm(MaybeTerm&& other) noexcept { term_.swap(other.term_); }
  MaybeTerm& operator=(MaybeTerm&& other) noexcept {
    if (this != &other) {
      term_.reset();
      term_.swap(other.term_);
    }
    return *this;
  }

  [[nodiscard]] bool has_value() const { return term_.has_value(); }
  [[nodiscard]] const z3::expr& operator*() const { return *term_; }

 private:
  std::optional<z3::expr> term_;
};

/// One Wasm stack slot under symbolic execution.
class SymValue {
 public:
  /// A concrete value: `value` masked to the type's width.
  SymValue(wasm::ValType t, std::uint64_t value)
      : type(t),
        value_(width_of(t) == 32 ? static_cast<std::uint32_t>(value)
                                 : value) {}

  /// The value of `term`, whose width must match the type. A numeral term
  /// yields a concrete value, so no term outlives its last variable.
  SymValue(wasm::ValType t, const z3::expr& term) : type(t) {
    if (term.is_numeral()) {
      value_ = term.get_numeral_uint64();
    } else {
      term_ = term;
    }
  }

  wasm::ValType type;

  [[nodiscard]] unsigned bits() const { return width_of(type); }

  [[nodiscard]] bool is_concrete() const { return !term_.has_value(); }

  /// Numeric value when concrete.
  [[nodiscard]] std::optional<std::uint64_t> concrete() const {
    if (term_.has_value()) return std::nullopt;
    return value_;
  }

  /// The value as a Z3 bitvector: its term, or a numeral of the concrete
  /// bits.
  [[nodiscard]] z3::expr expr(Z3Env& env) const {
    return term_.has_value() ? *term_ : env.bv(value_, bits());
  }

 private:
  std::uint64_t value_ = 0;
  MaybeTerm term_;
};

/// Lift a concrete runtime value into a SymValue.
inline SymValue lift(const vm::Value& v) { return SymValue{v.type, v.bits}; }

/// True when the expression mentions any uninterpreted constant (i.e. it
/// depends on symbolic input or unknown memory).
bool has_variables(const z3::expr& e);

/// Bits [hi, lo] of `e`, simplified. Z3's simplify returns a partial extract
/// of a bare variable as it is, so that case skips the call; every other
/// extract is simplified (a full-width one of a variable to the variable).
z3::expr extract_simplified(const z3::expr& e, unsigned hi, unsigned lo);

}  // namespace wasai::symbolic
