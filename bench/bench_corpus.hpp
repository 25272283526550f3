// Shared corpus for the perf benches (bench_perf_vm, bench_perf_static):
// the committed `examples/wasm/testgen_<seed>.wasm` modules (regenerated
// from the seed in the filename), one vulnerable sample per corpus template
// family, and a compute-representative `hotloop` contract. Keeping one
// definition ensures the benches measure the same workload and that their
// fingerprint gates cover identical inputs.
#pragma once

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "corpus/contract_builder.hpp"
#include "corpus/templates.hpp"
#include "engine/fuzzer.hpp"
#include "testgen/generator.hpp"
#include "wasm/encoder.hpp"

#ifndef WASAI_EXAMPLES_DIR
#error "build must define WASAI_EXAMPLES_DIR"
#endif

namespace wasai::bench {

struct Contract {
  std::string id;
  util::Bytes wasm;
  abi::Abi abi;
};

/// What every configuration of a perf bench must reproduce exactly, per
/// contract. The trace digest covers the serialized bytes of the final
/// iteration's captured traces, so a single diverging value, event order or
/// payload byte shows up even when the aggregate counters happen to agree.
struct Fingerprint {
  std::size_t adaptive_seeds = 0;
  std::size_t distinct_branches = 0;
  std::size_t transactions = 0;
  std::string findings;
  std::uint64_t trace_digest = 0;

  bool operator==(const Fingerprint&) const = default;
};

inline std::string findings_fingerprint(const engine::FuzzReport& report) {
  std::string out;
  for (const auto& finding : report.scan.findings) {
    out += scanner::to_string(finding.type);
    out += ';';
  }
  return out;
}

/// Compute-representative contract. The testgen modules and template
/// families execute a few dozen instructions per transaction, so chain-side
/// per-transaction costs (abi packing, scheduling, native token transfers)
/// dominate the exec phase and mask interpreter throughput. Real contracts
/// spend most of an action inside loops — memo parsing, token math, table
/// scans — so the corpus gets one contract whose action runs a counted LCG
/// loop: ~17 interpreted instructions plus two hook sites (the loop-exit
/// br_if and an i64 comparison) per round. The loop state is seeded from a
/// constant, not the action parameter, so the symbolic-feedback phase sees
/// concrete branch conditions and the pipeline stays solver-light.
inline Contract make_hotloop_contract() {
  constexpr std::int64_t kRounds = 4000;
  constexpr std::uint32_t kAcc = 2;  // extra locals follow self + param
  constexpr std::uint32_t kIdx = 3;
  corpus::ContractBuilder b;
  const abi::ActionDef def{abi::name("churn"), {abi::ParamType::U64}};
  std::vector<wasm::Instr> body = {
      wasm::i64_const(0x9e3779b9),
      wasm::local_set(kAcc),
      wasm::block(),
      wasm::loop(),
      wasm::local_get(kIdx),
      wasm::i64_const(kRounds),
      wasm::Instr(wasm::Opcode::I64GeS),
      wasm::br_if(1),
      wasm::local_get(kAcc),
      wasm::i64_const_u(0x5851f42d4c957f2dULL),
      wasm::Instr(wasm::Opcode::I64Mul),
      wasm::i64_const_u(0x14057b7ef767814fULL),
      wasm::Instr(wasm::Opcode::I64Add),
      wasm::local_get(kIdx),
      wasm::Instr(wasm::Opcode::I64Xor),
      wasm::local_set(kAcc),
      wasm::local_get(kIdx),
      wasm::i64_const(1),
      wasm::Instr(wasm::Opcode::I64Add),
      wasm::local_set(kIdx),
      wasm::br(0),
      wasm::Instr(wasm::Opcode::End),  // loop
      wasm::Instr(wasm::Opcode::End),  // block
      wasm::Instr(wasm::Opcode::End),  // function
  };
  b.add_action(def, {wasm::ValType::I64, wasm::ValType::I64},
               std::move(body));
  const abi::Abi contract_abi = b.abi();
  return Contract{"hotloop",
                  std::move(b).build_binary(corpus::DispatcherStyle::Standard),
                  contract_abi};
}

inline std::vector<Contract> build_perf_corpus() {
  namespace fs = std::filesystem;
  std::vector<Contract> corpus;

  std::vector<std::uint64_t> seeds;
  const fs::path dir = fs::path(WASAI_EXAMPLES_DIR) / "wasm";
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string stem = entry.path().stem().string();
    if (entry.path().extension() != ".wasm") continue;
    if (stem.rfind("testgen_", 0) != 0) continue;
    seeds.push_back(std::stoull(stem.substr(8)));
  }
  std::sort(seeds.begin(), seeds.end());
  for (const auto seed : seeds) {
    const auto gen = testgen::generate(seed);
    corpus.push_back(Contract{"testgen_" + std::to_string(seed),
                              wasm::encode(gen.module), gen.abi});
  }

  util::Rng rng(2022);
  const auto add = [&corpus](corpus::Sample sample) {
    corpus.push_back(
        Contract{sample.tag, std::move(sample.wasm), std::move(sample.abi)});
  };
  add(corpus::make_fake_eos_sample(rng, /*vulnerable=*/true));
  add(corpus::make_fake_notif_sample(rng, /*vulnerable=*/true));
  add(corpus::make_missauth_sample(rng, /*vulnerable=*/true));
  add(corpus::make_blockinfo_sample(rng, /*vulnerable=*/true));
  add(corpus::make_rollback_sample(rng, /*vulnerable=*/true));
  corpus.push_back(make_hotloop_contract());
  return corpus;
}

}  // namespace wasai::bench
