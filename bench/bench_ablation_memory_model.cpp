// Ablation (§3.2-C2): WASAI's concrete-address byte-map memory model vs
// EOSAFE's list-scan-and-merge model. The paper's claim: the trace-derived
// concrete addresses make memory recovery fast enough for fuzzing
// throughput, where EOSAFE degrades as analyses touch deeper memory.
#include <benchmark/benchmark.h>

#include "baselines/eosafe_memory.hpp"
#include "symbolic/memory_model.hpp"

namespace {

using wasai::baselines::EosafeMemory;
using wasai::symbolic::MemoryModel;
using wasai::symbolic::SymValue;
using wasai::symbolic::Z3Env;

// The paper's scenario (§3.2-C2): analyses that touch deeper code leave a
// long history of writes; every subsequent load has to recover the right
// content. WASAI's map keyed by the trace's concrete addresses answers in
// O(1); EOSAFE's list must scan-and-merge, so early-written locations cost
// a pass over the entire write history. The loads below deliberately hit
// the OLDEST writes — the deep-code access pattern.

void BM_WasaiMemoryModel(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  Z3Env env;
  MemoryModel mem(env);
  for (std::uint64_t i = 0; i < depth; ++i) {
    mem.store(1024 + i * 8, SymValue{wasai::wasm::ValType::I64, i}, 8);
  }
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < 32; ++i) {  // hit the oldest writes
      const auto loaded =
          mem.load(1024 + i * 8, 8, false, wasai::wasm::ValType::I64);
      acc ^= loaded.concrete().value_or(0);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}

void BM_EosafeMemoryModel(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  Z3Env env;
  EosafeMemory mem(env);
  for (std::uint64_t i = 0; i < depth; ++i) {
    mem.store(env.bv(1024 + i * 8, 32), env.bv(i, 64), 8);
  }
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < 32; ++i) {  // oldest writes: full scans
      const auto loaded = mem.load(env.bv(1024 + i * 8, 32), 8, false,
                                   wasai::wasm::ValType::I64);
      acc ^= loaded.concrete().value_or(0);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}

BENCHMARK(BM_WasaiMemoryModel)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_EosafeMemoryModel)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
