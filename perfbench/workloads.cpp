#include "workloads.hpp"

#include "abi/abi_json.hpp"
#include "corpus/contract_builder.hpp"
#include "corpus/dataset.hpp"
#include "testgen/generator.hpp"
#include "util/rng.hpp"
#include "wasm/encoder.hpp"

namespace wasai::perfbench {

namespace {

/// Emit the ABI as JSON and parse it back, as a campaign over files on disk
/// would see it; a round trip that loses an action is a setup failure.
std::string abi_round_trip(const abi::Abi& contract_abi) {
  std::string json = abi::abi_to_json(contract_abi);
  if (abi::abi_from_json(json).actions.size() != contract_abi.actions.size()) {
    throw util::Error("ABI JSON round trip lost an action");
  }
  return json;
}

void add_input(Workload& w, std::string id, util::Bytes wasm,
               const abi::Abi& contract_abi, Label label) {
  campaign::ContractInput input;
  input.id = std::move(id);
  input.wasm = std::move(wasm);
  input.abi_json = abi_round_trip(contract_abi);
  w.inputs.push_back(std::move(input));
  w.labels.push_back(label);
}

/// Whether any function of `module` calls the tapos_block_num import.
bool calls_tapos(const wasm::Module& module) {
  std::uint32_t import_index = 0;
  std::optional<std::uint32_t> tapos;
  for (const auto& import : module.imports) {
    if (import.kind != wasm::ExternalKind::Function) continue;
    if (import.field == "tapos_block_num") tapos = import_index;
    ++import_index;
  }
  if (!tapos) return false;
  for (const auto& function : module.functions) {
    for (const auto& instr : function.body) {
      if (instr.op == wasm::Opcode::Call && instr.a == *tapos) return true;
    }
  }
  return false;
}

// testgen-campaign: the ROADMAP's 100-module batch (`wasai-testgen generate
// --seed 7 --count 100`), one worker. Z3 flip solving dominates and
// per-contract time is heavy-tailed, so per-query solver cost shows in both
// the median and the tail. The corpus is fixed and the workload seed is the
// fuzzer's RNG seed: batches drawn from other generator seeds differ up to
// 2x in total work (one 400-module batch holds a 5.9 s module), which would
// make every seed a different benchmark. One worker, as on every workload:
// on a shared host, contracts run side by side slowed each other by a share
// that changed from pass to pass. With four workers contracts_per_s spread
// 14-29% between runs of the same code, and 10-19% with two.
//
// Runnable by name but left out of BENCHMARK.json: even on one worker its
// latency_p50_ms (~8 ms contracts) spread 12-24% over five seeds, and Z3's
// wall-clock timeouts make its work depend on machine load.
constexpr std::uint64_t kTestgenCorpusSeed = 7;
constexpr std::size_t kTestgenModules = 100;
// 89 of 100 modules agree at this corpus seed, for every fuzzer seed tried.
constexpr double kTestgenAgreementFloor = 0.85;

Workload testgen_campaign(std::uint64_t seed) {
  Workload w;
  w.name = "testgen-campaign";
  w.rng_seed = seed;
  w.agreement_floor = kTestgenAgreementFloor;
  util::Rng base(kTestgenCorpusSeed);
  for (std::size_t i = 0; i < kTestgenModules; ++i) {
    const std::uint64_t module_seed = base.next();
    const auto gen = testgen::generate(module_seed);
    // Generated modules hold no payable, auth or payout logic; the one
    // oracle they can trip is BlockinfoDep, which fires on an executed
    // tapos_block_num call. The label is "the code calls it"; calls the
    // fuzzer never reaches count as disagreements.
    add_input(w, "testgen_" + std::to_string(module_seed),
              wasm::encode(gen.module), gen.abi,
              Label{scanner::VulnType::BlockinfoDep, calls_tapos(gen.module)});
  }
  return w;
}

// templates-serial: the Table-4 labelled corpus at 3% of the paper's counts
// (100 samples, enough for a p90 with ten beyond it), one worker.
// Chain-heavy (adversary payloads, notifications, inline/deferred actions,
// DBG-guided db dependencies) with cheap, mostly cached solver queries; no
// worker contention, so latency is clean. At 5% (164 samples) a pass took
// ~10 s, so a run held only three repeats of each contract. As on
// testgen-campaign, the corpus is fixed and the workload seed drives the
// fuzzer's RNG, so seeds vary the fuzzing but not which samples make up the
// corpus.
constexpr double kTemplateScale = 0.03;
constexpr std::uint64_t kTemplateCorpusSeed = 7;
// 97 or 98 of 100 samples agree over 45 corpus seeds; the floor allows
// five misses.
constexpr double kTemplateAgreementFloor = 0.95;

Workload templates_serial(std::uint64_t seed) {
  Workload w;
  w.name = "templates-serial";
  w.rng_seed = seed;
  w.agreement_floor = kTemplateAgreementFloor;
  corpus::BenchmarkSpec spec;
  spec.seed = kTemplateCorpusSeed;
  spec.scale = kTemplateScale;
  for (auto& sample : corpus::make_benchmark(spec)) {
    add_input(w, sample.tag, std::move(sample.wasm), sample.abi,
              Label{sample.category, sample.vulnerable});
  }
  return w;
}

// long-trace: compute-heavy contracts whose single action runs a counted LCG
// loop (a generalisation of the perf benches' `hotloop` with seeded bounds
// and constants), one worker. The loop state never depends on the action
// parameter, so every branch is concrete: symbolic replay of ~8.5k-event
// traces is nearly all the work and no Z3 query is issued. A solver change
// predicts no change here; a replay, memory-model or interpreter change
// shows. 100 contracts give the p90 ten samples beyond it; 12 iterations
// and ~500 rounds on average keep a pass near 4 s so a run holds several.
// Loop bounds are stratified: contract i draws its bound from the i-th of
// 100 equal slices of [300, 700), so every seed spreads the work the same
// way and p50/p90 sit on contracts of distinct size; with equal bounds the
// percentiles only ranked timing noise. One worker: with two or four, a
// pass's median contract time swung by up to 1.6x from pass to pass, and
// with one it held within ~5% in most passes.
constexpr std::size_t kLongTraceContracts = 100;
constexpr int kLongTraceIterations = 12;
constexpr std::int64_t kMinRounds = 300;
constexpr std::int64_t kRoundsPerSlice = 4;  // 100 slices up to 700 rounds

util::Bytes long_trace_contract(util::Rng& rng, std::size_t slice,
                                abi::Abi& out_abi) {
  constexpr std::uint32_t kAcc = 2;  // extra locals follow self + param
  constexpr std::uint32_t kIdx = 3;
  const std::int64_t lo =
      kMinRounds + static_cast<std::int64_t>(slice) * kRoundsPerSlice;
  const std::int64_t rounds = rng.range(lo, lo + kRoundsPerSlice - 1);
  const std::uint64_t mul = rng.next() | 1;
  const std::uint64_t inc = rng.next();
  const std::uint64_t init = rng.next();
  corpus::ContractBuilder b;
  const abi::ActionDef def{abi::name("churn"), {abi::ParamType::U64}};
  std::vector<wasm::Instr> body = {
      wasm::i64_const_u(init),
      wasm::local_set(kAcc),
      wasm::block(),
      wasm::loop(),
      wasm::local_get(kIdx),
      wasm::i64_const(rounds),
      wasm::Instr(wasm::Opcode::I64GeS),
      wasm::br_if(1),
      wasm::local_get(kAcc),
      wasm::i64_const_u(mul),
      wasm::Instr(wasm::Opcode::I64Mul),
      wasm::i64_const_u(inc),
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
  out_abi = b.abi();
  return std::move(b).build_binary(corpus::DispatcherStyle::Standard);
}

Workload long_trace(std::uint64_t seed) {
  Workload w;
  w.name = "long-trace";
  w.iterations = kLongTraceIterations;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < kLongTraceContracts; ++i) {
    abi::Abi contract_abi;
    util::Bytes wasm = long_trace_contract(rng, i, contract_abi);
    add_input(w, "long_trace_" + std::to_string(i), std::move(wasm),
              contract_abi, Label{});
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "testgen-campaign", "templates-serial", "long-trace"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "testgen-campaign") return testgen_campaign(seed);
  if (name == "templates-serial") return templates_serial(seed);
  if (name == "long-trace") return long_trace(seed);
  return std::nullopt;
}

}  // namespace wasai::perfbench
