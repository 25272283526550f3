// wasai-static: inspect and validate the static pre-analysis pass.
//
//   wasai-static dump <contract.wasm> [--table]
//   wasai-static check <corpus-dir> [--iterations N] [--seed N]
//
// `dump` runs the call graph + CFG + dataflow pass over one module and
// prints the StaticReport as JSON (--table embeds the full per-site branch
// classification table).
//
// `check` is the soundness gate CI runs over a generated testgen corpus:
// every `<stem>.wasm` + `<stem>.abi` pair is fuzzed twice — static
// pre-analysis on and off — and the two runs must agree exactly (findings,
// adaptive seeds, coverage, transactions and the serialized bytes of the
// final captured traces), with zero oracle-gate violations. Any divergence
// means the static pass pruned something the dynamic stages needed, i.e. a
// conservatism-contract bug; exit 1. The per-corpus totals it prints show
// how much work the gate actually removed (pruned flips, skipped replays).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "abi/abi_json.hpp"
#include "analysis/report.hpp"
#include "campaign/campaign.hpp"
#include "instrument/trace_io.hpp"
#include "util/digest.hpp"
#include "wasai/wasai.hpp"
#include "wasm/decoder.hpp"

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

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wasai-static dump <contract.wasm> [--table]\n"
               "  wasai-static check <corpus-dir> [--iterations N] "
               "[--seed N]\n");
  return 2;
}

int cmd_dump(int argc, char** argv) {
  if (argc < 3) return usage();
  bool include_table = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--table") == 0) {
      include_table = true;
    } else {
      return usage();
    }
  }
  const auto bytes = read_file(argv[2]);
  const wasm::Module module = wasm::decode(bytes);
  const analysis::StaticReport report = analysis::analyze_module(module);
  std::printf("%s\n",
              util::dump_json(analysis::report_to_json(report, include_table))
                  .c_str());
  return 0;
}

/// Everything one fuzzing run must reproduce for the A/B comparison.
struct RunOutcome {
  std::size_t adaptive_seeds = 0;
  std::size_t distinct_branches = 0;
  std::size_t transactions = 0;
  std::string findings;
  std::uint64_t trace_digest = 0;
  std::size_t flips_pruned = 0;
  std::size_t replays_skipped = 0;
  std::size_t gate_violations = 0;

  [[nodiscard]] bool agrees(const RunOutcome& other) const {
    return adaptive_seeds == other.adaptive_seeds &&
           distinct_branches == other.distinct_branches &&
           transactions == other.transactions && findings == other.findings &&
           trace_digest == other.trace_digest;
  }
};

RunOutcome run_one(const util::Bytes& wasm_bytes, const abi::Abi& contract_abi,
                   bool static_analysis, int iterations, std::uint64_t seed) {
  engine::FuzzOptions options;
  options.iterations = iterations;
  options.rng_seed = seed;
  options.static_analysis = static_analysis;
  engine::Fuzzer fuzzer(wasm_bytes, contract_abi, options);
  const auto report = fuzzer.run();
  RunOutcome out;
  out.adaptive_seeds = report.adaptive_seeds;
  out.distinct_branches = report.distinct_branches;
  out.transactions = report.transactions;
  for (const auto& finding : report.scan.findings) {
    out.findings += scanner::to_string(finding.type);
    out.findings += ';';
  }
  util::Digest digest;
  digest.bytes(
      instrument::serialize_traces(fuzzer.harness().sink().actions()));
  out.trace_digest = digest.value();
  out.flips_pruned = report.flips_pruned;
  out.replays_skipped = report.replays_skipped;
  out.gate_violations = report.oracle_gate_violations;
  return out;
}

int cmd_check(int argc, char** argv) {
  if (argc < 3) return usage();
  int iterations = 16;
  std::uint64_t seed = 1;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iterations" && i + 1 < argc) {
      iterations = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      return usage();
    }
  }

  const auto inputs = campaign::scan_directory(argv[2]);
  if (inputs.empty()) {
    throw util::UsageError(std::string(argv[2]) +
                           " holds no .wasm/.abi contract pairs");
  }
  std::printf("wasai-static: checking %zu contracts (%d iterations each)\n",
              inputs.size(), iterations);

  std::size_t violations = 0;
  std::size_t total_pruned = 0;
  std::size_t total_replays_skipped = 0;
  for (const auto& input : inputs) {
    const auto wasm_bytes = read_file(input.wasm_path);
    const auto abi_bytes = read_file(input.abi_path);
    const abi::Abi contract_abi =
        abi::abi_from_json(std::string(abi_bytes.begin(), abi_bytes.end()));
    RunOutcome gated;
    RunOutcome plain;
    try {
      gated = run_one(wasm_bytes, contract_abi, /*static_analysis=*/true,
                      iterations, seed);
      plain = run_one(wasm_bytes, contract_abi, /*static_analysis=*/false,
                      iterations, seed);
    } catch (const util::Error& e) {
      // Contracts the pipeline rejects outright (bad wasm, no apply)
      // teach the soundness gate nothing; skip, matching the campaign's
      // per-contract fault isolation.
      std::printf("  skip %s: %s\n", input.id.c_str(), e.what());
      continue;
    }
    if (gated.gate_violations != 0) {
      ++violations;
      std::printf("SOUNDNESS VIOLATION %s: %zu findings fired against a "
                  "statically impossible verdict\n",
                  input.id.c_str(), gated.gate_violations);
      continue;
    }
    total_pruned += gated.flips_pruned;
    total_replays_skipped += gated.replays_skipped;
    if (!gated.agrees(plain)) {
      ++violations;
      std::printf(
          "SOUNDNESS VIOLATION %s: static on/off diverged (seeds %zu/%zu, "
          "branches %zu/%zu, txns %zu/%zu, findings \"%s\"/\"%s\", trace "
          "%016llx/%016llx)\n",
          input.id.c_str(), gated.adaptive_seeds, plain.adaptive_seeds,
          gated.distinct_branches, plain.distinct_branches,
          gated.transactions, plain.transactions, gated.findings.c_str(),
          plain.findings.c_str(),
          static_cast<unsigned long long>(gated.trace_digest),
          static_cast<unsigned long long>(plain.trace_digest));
    }
  }
  std::printf(
      "wasai-static: %zu violations over %zu contracts "
      "(%zu flips pruned, %zu replays skipped by the gate)\n",
      violations, inputs.size(), total_pruned, total_replays_skipped);
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "dump") == 0) return cmd_dump(argc, argv);
    if (std::strcmp(argv[1], "check") == 0) return cmd_check(argc, argv);
    return usage();
  } catch (const wasai::util::Error& e) {
    std::fprintf(stderr, "wasai-static: %s\n", e.what());
    return 2;
  }
}
