#include "baselines/eosafe_memory.hpp"

namespace wasai::baselines {

using symbolic::SymValue;

void EosafeMemory::store(const z3::expr& addr, const z3::expr& value,
                         unsigned size_bytes) {
  writes_.push_back(Entry{addr.simplify(), size_bytes, value});
}

SymValue EosafeMemory::load(const z3::expr& addr, unsigned size_bytes,
                            bool sign_extend, wasm::ValType result_type) {
  const unsigned target_bits =
      (result_type == wasm::ValType::I32 || result_type == wasm::ValType::F32)
          ? 32
          : 64;
  const z3::expr key = addr.simplify();
  // Newest-to-oldest scan; syntactic equality is EOSAFE's match criterion
  // (aliasing through distinct expressions stays unresolved until the
  // solver runs — exactly the imprecision §3.2 describes).
  for (auto it = writes_.rbegin(); it != writes_.rend(); ++it) {
    if (it->size == size_bytes && z3::eq(it->addr, key)) {
      // Built as a new value rather than move-assigned over the stored
      // one, which z3++ would leak (see symbolic::MaybeTerm).
      const z3::expr& stored = it->value;
      const unsigned have = stored.get_sort().bv_size();
      const z3::expr value =
          have > target_bits   ? stored.extract(target_bits - 1, 0)
          : have == target_bits ? stored
          : sign_extend         ? z3::sext(stored, target_bits - have)
                                : z3::zext(stored, target_bits - have);
      return SymValue{result_type, value.simplify()};
    }
  }
  return SymValue{result_type, env_->fresh("eosafe_mem", target_bits)};
}

}  // namespace wasai::baselines
