// The WASAI memory model (§3.4.1): a byte-granular store keyed by the
// CONCRETE addresses observed in the runtime traces. Loads of bytes never
// written return "symbolic load objects" ⟨a, s⟩ — fresh variables standing
// for the unknown memory content — which flow into path constraints and are
// resolved by the SMT solver. Concrete bytes are stored as bytes; only
// bytes that depend on a symbolic input or an unknown load carry a term.
#pragma once

#include <unordered_map>

#include "symbolic/symvalue.hpp"

namespace wasai::symbolic {

/// One tracked memory byte: its concrete value, or an 8-bit term.
struct SymByte {
  std::uint8_t value = 0;
  MaybeTerm term;
};

class MemoryModel {
 public:
  explicit MemoryModel(Z3Env& env) : env_(&env) {}

  /// Δ.store(μm, addr, size, val): split `value` into bytes and record them
  /// at [addr, addr+size).
  void store(std::uint64_t addr, const SymValue& value, unsigned size_bytes);

  /// Δ.load(μm, addr, size): concatenate the recorded bytes; unknown bytes
  /// become fresh variables (and are recorded so later loads agree).
  /// The result is extended to the requested value type.
  SymValue load(std::uint64_t addr, unsigned size_bytes, bool sign_extend,
                wasm::ValType result_type);

  /// Pre-place a symbolic value at a concrete address (input inference uses
  /// this to bind asset/string parameter content to seed variables).
  void bind(std::uint64_t addr, const z3::expr& value, unsigned size_bytes);

  [[nodiscard]] std::size_t bytes_tracked() const { return bytes_.size(); }

  /// Every byte the model knows (stored, bound, or created by an unknown
  /// load). The differential oracle checks these against the concrete
  /// machine's final memory image.
  [[nodiscard]] const std::unordered_map<std::uint64_t, SymByte>&
  tracked_bytes() const {
    return bytes_;
  }

  /// Count of symbolic load objects created so far.
  [[nodiscard]] std::size_t unknown_loads() const { return unknown_loads_; }

 private:
  z3::expr byte_at(std::uint64_t addr);

  Z3Env* env_;
  std::unordered_map<std::uint64_t, SymByte> bytes_;
  std::size_t unknown_loads_ = 0;
};

}  // namespace wasai::symbolic
