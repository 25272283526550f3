// Behavioural reproduction of EOSAFE (He et al., USENIX Security 2021),
// the static symbolic-execution baseline:
//   * a dispatcher pattern heuristic locates action functions — it only
//     recognises the standard SDK idiom (action compare + call_indirect),
//     so diverse dispatchers and obfuscation prologues defeat it (§4.2);
//   * per-action bounded symbolic execution over a list-based memory model;
//   * Fake Notif treats budget exhaustion as VULNERABLE (high recall, low
//     precision);
//   * Rollback is satisfiability-blind: any send_inline call flags the
//     contract, even behind unsatisfiable branches (50.5% precision);
//   * BlockinfoDep is not supported.
#pragma once

#include <optional>
#include <set>

#include "abi/abi_def.hpp"
#include "util/bytes.hpp"
#include "scanner/scanner.hpp"
#include "wasm/module.hpp"

namespace wasai::baselines {

struct EosafeOptions {
  std::size_t step_budget = 2500;  // total symbolic steps per contract
  std::size_t path_budget = 64;    // max completed paths per function
};

struct EosafeReport {
  std::set<scanner::VulnType> found;
  bool dispatcher_matched = false;
  bool timed_out = false;

  [[nodiscard]] bool has(scanner::VulnType t) const {
    return found.contains(t);
  }
};

/// One dispatcher match: an action the heuristic could locate.
struct DispatchEntry {
  std::uint64_t action_name = 0;
  std::uint32_t func_index = 0;
  bool has_code_guard = false;  // a code == eosio.token check was seen
};

/// Exposed for unit tests: run only the dispatcher pattern heuristic.
std::vector<DispatchEntry> match_dispatcher(const wasm::Module& module);

class Eosafe {
 public:
  Eosafe(const util::Bytes& contract_wasm, abi::Abi abi,
         EosafeOptions options = {});

  EosafeReport run();

 private:
  EosafeOptions options_;
  wasm::Module module_;
  abi::Abi abi_;
};

}  // namespace wasai::baselines
