// The `wasai` command-line tool: analyze an on-disk contract (.wasm + .abi)
// the way a release of the paper's system would be used.
//
//   wasai analyze <contract.wasm> <contract.abi> [options]
//   wasai emit-sample <family> <out-prefix> [--vulnerable|--safe]
//
// Options for analyze:
//   --iterations N       fuzzing rounds (default 48)
//   --seed N             RNG seed (default 1)
//   --no-feedback        disable symbolic feedback (blind-fuzzer ablation)
//   --no-solver-cache    disable the cross-iteration flip query cache
//   --solver-cache-capacity N
//                        cached verdicts kept (default 4096)
//   --no-fastpath        legacy VM interpreter (A/B perf baseline; output
//                        is byte-identical to the default fast path)
//   --no-static          disable the static pre-analysis pass (flip-query
//                        pruning + oracle verdicts off; verdicts and the
//                        fingerprint are identical either way — A/B switch)
//   --static-prioritize  let statically pruned flips free their budget
//                        slots so deeper taint-reachable flips are reached
//                        (opt-in: changes the flip schedule)
//   --address-pool       enable the dynamic sender pool extension
//   --trace-out FILE     save the final campaign's traces (§3.3.1 format)
//   --obs-trace FILE     save a Chrome trace-event JSON of the analysis
//                        phases (chrome://tracing / Perfetto); distinct
//                        from --trace-out, which saves action traces
//   --no-obs             observability kill switch (spans become no-ops;
//                        output drops the obs summary but is otherwise
//                        byte-identical)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "abi/abi_json.hpp"
#include "corpus/templates.hpp"
#include "instrument/instrumenter.hpp"
#include "instrument/trace_io.hpp"
#include "obs/trace_export.hpp"
#include "wasai/wasai.hpp"
#include "wasm/decoder.hpp"
#include "wasm/printer.hpp"

namespace {

using namespace wasai;

util::Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::UsageError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  return util::Bytes(s.begin(), s.end());
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw util::UsageError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  wasai analyze <contract.wasm> <contract.abi> [--iterations N]\n"
      "        [--seed N] [--no-feedback] [--no-solver-cache]\n"
      "        [--solver-cache-capacity N]\n"
      "        [--no-fastpath] [--no-static]\n"
      "        [--static-prioritize] [--address-pool]\n"
      "        [--trace-out FILE]\n"
      "        [--obs-trace FILE] [--no-obs]\n"
      "  wasai emit-sample <fake-eos|fake-notif|miss-auth|blockinfo|"
      "rollback>\n"
      "        <out-prefix> [--safe]\n"
      "  wasai dump <contract.wasm> [--instrumented]\n");
  return 2;
}

int cmd_dump(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto bytes = read_file(argv[2]);
  wasm::Module module = wasm::decode(bytes);
  bool instrumented = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--instrumented") == 0) instrumented = true;
  }
  if (instrumented) {
    auto result = instrument::instrument(module);
    std::printf("%s", wasm::to_string(result.module).c_str());
    std::printf(";; %zu instrumentation sites\n", result.sites.size());
  } else {
    std::printf("%s", wasm::to_string(module).c_str());
  }
  return 0;
}

int cmd_analyze(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string wasm_path = argv[2];
  const std::string abi_path = argv[3];

  AnalysisOptions options;
  options.fuzz.iterations = 48;
  std::string trace_out;
  std::string obs_trace_out;
  bool no_obs = false;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iterations" && i + 1 < argc) {
      options.fuzz.iterations = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      options.fuzz.rng_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--no-feedback") {
      options.fuzz.symbolic_feedback = false;
    } else if (arg == "--no-solver-cache") {
      options.fuzz.solver_cache = false;
    } else if (arg == "--solver-cache-capacity" && i + 1 < argc) {
      options.fuzz.solver_cache_capacity =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--no-fastpath") {
      options.fuzz.vm_fastpath = false;
    } else if (arg == "--no-static") {
      options.fuzz.static_analysis = false;
    } else if (arg == "--static-prioritize") {
      options.fuzz.static_prioritize = true;
    } else if (arg == "--address-pool") {
      options.fuzz.dynamic_address_pool = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--obs-trace" && i + 1 < argc) {
      obs_trace_out = argv[++i];
    } else if (arg == "--no-obs") {
      no_obs = true;
    } else {
      return usage();
    }
  }
  if (!obs_trace_out.empty() && no_obs) {
    // Fail before the analysis runs, not after it has burned the budget.
    throw util::UsageError("--obs-trace requires observability (--no-obs)");
  }

  const auto wasm_bytes = read_file(wasm_path);
  const auto abi_bytes = read_file(abi_path);
  const abi::Abi contract_abi = abi::abi_from_json(
      std::string(abi_bytes.begin(), abi_bytes.end()));

  std::printf("wasai: analyzing %s (%zu bytes, %zu actions)\n",
              wasm_path.c_str(), wasm_bytes.size(),
              contract_abi.actions.size());

  obs::Registry registry;
  obs::Obs* obs = no_obs ? nullptr : &registry.track("main");
  options.fuzz.obs = obs;

  engine::Fuzzer fuzzer(wasm_bytes, contract_abi, options.fuzz);
  const auto report = fuzzer.run();

  if (report.scan.found.empty()) {
    std::printf("verdict: no vulnerabilities detected\n");
  } else {
    std::printf("verdict: VULNERABLE\n");
    for (const auto& finding : report.scan.findings) {
      std::printf("  [%s] %s\n", scanner::to_string(finding.type),
                  finding.detail.c_str());
    }
  }
  std::printf(
      "stats: %zu transactions, %zu branches, %zu replays, %zu SMT queries, "
      "%zu cache hits, %zu adaptive seeds\n",
      report.transactions, report.distinct_branches, report.replays,
      report.solver_queries, report.solver_cache_hits, report.adaptive_seeds);
  if (report.static_report.has_value()) {
    const auto& st = *report.static_report;
    std::size_t impossible = 0;
    for (const auto& verdict : st.oracles) {
      if (!verdict.possible) ++impossible;
    }
    std::printf(
        "static: %zu/%zu functions reachable, branches "
        "%zu const / %zu untainted / %zu tainted / %zu dead; "
        "%zu oracles impossible, %zu flips pruned, %zu replays skipped, "
        "%zu gate violations (%.2f ms)\n",
        st.functions_reachable, st.functions_total, st.constant_branches,
        st.untainted_branches, st.taint_reachable_branches,
        st.unreachable_branches, impossible, report.flips_pruned,
        report.replays_skipped, report.oracle_gate_violations, st.analyze_ms);
  }

  if (obs != nullptr) {
    // Per-phase wall/self breakdown of this analysis (the same numbers the
    // campaign JSONL `obs` block carries).
    std::printf("obs: %s\n",
                util::dump_json(
                    obs::phase_totals_json(registry.aggregate_all()))
                    .c_str());
  }

  if (!trace_out.empty()) {
    instrument::save_traces(trace_out, fuzzer.harness().sink().actions());
    std::printf("traces: %zu action traces saved to %s\n",
                fuzzer.harness().sink().actions().size(), trace_out.c_str());
  }
  if (!obs_trace_out.empty()) {
    std::ofstream out(obs_trace_out, std::ios::trunc);
    if (!out) throw util::UsageError("cannot open " + obs_trace_out);
    out << util::dump_json(obs::chrome_trace_json(registry)) << '\n';
    std::printf("obs trace: saved to %s\n", obs_trace_out.c_str());
  }
  return report.scan.found.empty() ? 0 : 1;
}

int cmd_emit_sample(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string family = argv[2];
  const std::string prefix = argv[3];
  bool vulnerable = true;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--safe") == 0) vulnerable = false;
  }

  util::Rng rng(2022);
  corpus::Sample sample;
  if (family == "fake-eos") {
    sample = corpus::make_fake_eos_sample(rng, vulnerable);
  } else if (family == "fake-notif") {
    sample = corpus::make_fake_notif_sample(rng, vulnerable);
  } else if (family == "miss-auth") {
    sample = corpus::make_missauth_sample(rng, vulnerable);
  } else if (family == "blockinfo") {
    sample = corpus::make_blockinfo_sample(rng, vulnerable);
  } else if (family == "rollback") {
    sample = corpus::make_rollback_sample(rng, vulnerable);
  } else {
    return usage();
  }

  write_file(prefix + ".wasm", sample.wasm);
  const std::string abi_json = abi::abi_to_json(sample.abi);
  write_file(prefix + ".abi",
             std::span(reinterpret_cast<const std::uint8_t*>(abi_json.data()),
                       abi_json.size()));
  std::printf("wrote %s.wasm and %s.abi (%s)\n", prefix.c_str(),
              prefix.c_str(), sample.tag.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "analyze") == 0) return cmd_analyze(argc, argv);
    if (std::strcmp(argv[1], "emit-sample") == 0) {
      return cmd_emit_sample(argc, argv);
    }
    if (std::strcmp(argv[1], "dump") == 0) return cmd_dump(argc, argv);
    return usage();
  } catch (const wasai::util::Error& e) {
    std::fprintf(stderr, "wasai: %s\n", e.what());
    return 2;
  }
}
