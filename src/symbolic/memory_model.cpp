#include "symbolic/memory_model.hpp"

namespace wasai::symbolic {

void MemoryModel::store(std::uint64_t addr, const SymValue& value,
                        unsigned size_bytes) {
  // Concrete values split into concrete bytes without touching Z3 (the
  // common case when replaying deserialized data).
  if (const auto concrete = value.concrete()) {
    for (unsigned i = 0; i < size_bytes; ++i) {
      bytes_.insert_or_assign(
          addr + i,
          SymByte{static_cast<std::uint8_t>(*concrete >> (i * 8)), {}});
    }
    return;
  }
  // Widen the expression so byte extraction is uniform.
  const z3::expr v = value.expr(*env_);
  const unsigned have = v.get_sort().bv_size();
  const z3::expr e = have < size_bytes * 8
                         ? z3::zext(v, size_bytes * 8 - have)
                         : v;
  for (unsigned i = 0; i < size_bytes; ++i) {
    const z3::expr byte = e.extract(i * 8 + 7, i * 8).simplify();
    SymByte b;
    if (byte.is_numeral()) {
      b.value = static_cast<std::uint8_t>(byte.get_numeral_uint64());
    } else {
      b.term = byte;
    }
    bytes_.insert_or_assign(addr + i, std::move(b));
  }
}

void MemoryModel::bind(std::uint64_t addr, const z3::expr& value,
                       unsigned size_bytes) {
  for (unsigned i = 0; i < size_bytes; ++i) {
    bytes_.insert_or_assign(addr + i,
                            SymByte{0, value.extract(i * 8 + 7, i * 8)});
  }
}

z3::expr MemoryModel::byte_at(std::uint64_t addr) {
  const auto it = bytes_.find(addr);
  if (it != bytes_.end()) {
    const SymByte& b = it->second;
    return b.term.has_value() ? *b.term : env_->bv(b.value, 8);
  }
  // Symbolic load object ⟨a, 1⟩: unknown memory content at a concrete
  // address. Recorded so repeated loads observe a consistent value.
  ++unknown_loads_;
  z3::expr fresh = env_->var("mem_" + std::to_string(addr), 8);
  bytes_.emplace(addr, SymByte{0, fresh});
  return fresh;
}

SymValue MemoryModel::load(std::uint64_t addr, unsigned size_bytes,
                           bool sign_extend, wasm::ValType result_type) {
  const unsigned target_bits = width_of(result_type);
  const unsigned have = size_bytes * 8;

  // Fast path: all bytes present and concrete.
  bool all_concrete = true;
  std::uint64_t raw = 0;
  for (unsigned i = 0; i < size_bytes && all_concrete; ++i) {
    const auto it = bytes_.find(addr + i);
    if (it == bytes_.end() || it->second.term.has_value()) {
      all_concrete = false;
    } else {
      raw |= std::uint64_t{it->second.value} << (i * 8);
    }
  }
  if (all_concrete) {
    if (sign_extend && have < 64) {
      raw = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(raw << (64 - have)) >>
          (64 - have));
    }
    return SymValue{result_type, raw};
  }

  // Little-endian concat over ascending addresses, so unknown bytes get
  // fresh variables in address order. Each step copy-assigns, which
  // releases the previous partial concat (a move assignment would leak it;
  // see MaybeTerm).
  z3::expr value = byte_at(addr);
  for (unsigned i = 1; i < size_bytes; ++i) {
    const z3::expr wider = z3::concat(byte_at(addr + i), value);
    value = wider;
  }
  if (have >= target_bits) return SymValue{result_type, value.simplify()};
  const z3::expr extended = sign_extend
                                ? z3::sext(value, target_bits - have)
                                : z3::zext(value, target_bits - have);
  return SymValue{result_type, extended.simplify()};
}

bool has_variables(const z3::expr& e) {
  if (e.is_numeral()) return false;
  if (e.is_const()) return true;  // uninterpreted constant (a variable)
  for (unsigned i = 0; i < e.num_args(); ++i) {
    if (has_variables(e.arg(i))) return true;
  }
  return false;
}

}  // namespace wasai::symbolic
