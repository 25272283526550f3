#include "symbolic/inputs.hpp"

#include "util/error.hpp"

namespace wasai::symbolic {

using abi::ParamType;
using wasm::ValType;

InferredInputs infer_inputs(Z3Env& env, MemoryModel& mem,
                            const abi::ActionDef& def,
                            const std::vector<abi::ParamValue>& seed_params,
                            std::span<const vm::Value> concrete_args) {
  if (concrete_args.size() != def.params.size() + 1) {
    throw util::UsageError(
        "input inference: captured argument count " +
        std::to_string(concrete_args.size()) + " does not match signature " +
        def.name.to_string() + " (+self)");
  }
  if (seed_params.size() != def.params.size()) {
    throw util::UsageError("input inference: seed arity mismatch");
  }

  InferredInputs out;
  // μ_l[0]: the contract's own name (`this` in SDK-generated code).
  out.params.push_back(SymValue{ValType::I64, concrete_args[0].bits});

  for (std::uint32_t i = 0; i < def.params.size(); ++i) {
    const std::string base = "p" + std::to_string(i);
    const vm::Value& captured = concrete_args[i + 1];
    switch (def.params[i]) {
      case ParamType::Name:
      case ParamType::U64:
      case ParamType::I64: {
        z3::expr v = env.var(base, 64);
        out.params.push_back(SymValue{ValType::I64, v});
        out.bindings.push_back(
            InputBinding{i, InputBinding::Kind::Whole, 0, v});
        break;
      }
      case ParamType::U32: {
        z3::expr v = env.var(base, 32);
        out.params.push_back(SymValue{ValType::I32, v});
        out.bindings.push_back(
            InputBinding{i, InputBinding::Kind::Whole, 0, v});
        break;
      }
      case ParamType::F64: {
        z3::expr v = env.var(base, 64);
        out.params.push_back(SymValue{ValType::F64, v});
        out.bindings.push_back(
            InputBinding{i, InputBinding::Kind::Whole, 0, v});
        break;
      }
      case ParamType::Asset: {
        // The Local slot holds the concrete pointer; the pointed-to 16
        // bytes become two symbolic 64-bit items (Table 2).
        const std::uint64_t ptr = captured.u32();
        out.params.push_back(SymValue{ValType::I32, ptr});
        z3::expr amount = env.var(base + "_amount", 64);
        z3::expr symbol = env.var(base + "_symbol", 64);
        mem.bind(ptr, amount, 8);
        mem.bind(ptr + 8, symbol, 8);
        out.bindings.push_back(
            InputBinding{i, InputBinding::Kind::AssetAmount, 0, amount});
        out.bindings.push_back(
            InputBinding{i, InputBinding::Kind::AssetSymbol, 0, symbol});
        break;
      }
      case ParamType::String: {
        // Layout: one length byte followed by the content bytes. Content
        // variables are created for the *current* seed's length; length
        // itself mutates through the random mutator, not the solver.
        const std::uint64_t ptr = captured.u32();
        out.params.push_back(SymValue{ValType::I32, ptr});
        z3::expr len = env.var(base + "_len", 8);
        mem.bind(ptr, len, 1);
        out.bindings.push_back(
            InputBinding{i, InputBinding::Kind::StringLen, 0, len});
        const auto& s = std::get<std::string>(seed_params[i]);
        for (std::uint32_t k = 0; k < s.size(); ++k) {
          z3::expr b = env.var(base + "_b" + std::to_string(k), 8);
          mem.bind(ptr + 1 + k, b, 1);
          out.bindings.push_back(
              InputBinding{i, InputBinding::Kind::StringByte, k, b});
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace wasai::symbolic
