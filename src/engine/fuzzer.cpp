#include "engine/fuzzer.hpp"

#include <algorithm>
#include <unordered_set>

#include "scanner/facts.hpp"

namespace wasai::engine {

using scanner::PayloadMode;

namespace {

std::vector<abi::Name> default_accounts(const HarnessNames& names) {
  return {names.attacker, names.victim, names.token, names.fake_token,
          names.fake_notif, abi::name("lucky"), abi::name("admin")};
}

// count_contradicted_oracles maps scanner types to static verdicts by index.
static_assert(static_cast<int>(analysis::Oracle::FakeEos) ==
              static_cast<int>(scanner::VulnType::FakeEos));
static_assert(static_cast<int>(analysis::Oracle::FakeNotif) ==
              static_cast<int>(scanner::VulnType::FakeNotif));
static_assert(static_cast<int>(analysis::Oracle::MissAuth) ==
              static_cast<int>(scanner::VulnType::MissAuth));
static_assert(static_cast<int>(analysis::Oracle::BlockinfoDep) ==
              static_cast<int>(scanner::VulnType::BlockinfoDep));
static_assert(static_cast<int>(analysis::Oracle::Rollback) ==
              static_cast<int>(scanner::VulnType::Rollback));

}  // namespace

std::size_t count_contradicted_oracles(
    const scanner::Report& scan, const analysis::StaticReport& static_report) {
  return static_cast<std::size_t>(std::count_if(
      scan.found.begin(), scan.found.end(), [&](scanner::VulnType type) {
        return !static_report.oracles[static_cast<std::size_t>(type)].possible;
      }));
}

Fuzzer::Fuzzer(const util::Bytes& contract_wasm, abi::Abi abi,
               FuzzOptions options)
    : options_(options),
      harness_(contract_wasm, std::move(abi), HarnessNames{}, options.obs,
               options.vm_fastpath),
      scanner_(scanner::Scanner::Config{
          harness_.names().victim, harness_.names().token,
          harness_.names().fake_token, harness_.names().fake_notif}),
      mutator_(util::Rng(options.rng_seed), default_accounts(harness_.names())),
      rng_(options.rng_seed ^ 0xfeedfacecafebeefull) {
  if (options_.solver_cache) {
    solver_cache_ = std::make_unique<symbolic::SolverCache>(
        options_.solver_cache_capacity);
  }
  // L2 of Algorithm 1: fill the seed pool with random data. The eosponser
  // ("transfer") is exercised by the payload modes; Normal mode rotates
  // over the remaining actions.
  for (const auto& def : harness_.contract_abi().actions) {
    if (def.name != abi::name("transfer")) {
      action_rotation_.push_back(def.name);
    }
    for (int i = 0; i < 2; ++i) pool_.add(mutator_.random_seed(def));
  }
  // Payload transfers mutate transfer-shaped seeds even when the ABI does
  // not declare a transfer action.
  if (harness_.contract_abi().find(abi::name("transfer")) == nullptr) {
    pool_.add(mutator_.random_seed(abi::transfer_action_def()));
  }
  harness_.set_dynamic_senders(options_.dynamic_address_pool);

  // Static pre-analysis: one pass over the original module at deploy time.
  // Everything it feeds downstream is a proof of futility, so the fuzz
  // loop's observable outcome (seeds, coverage, verdicts) is unchanged —
  // only the wasted work goes away.
  if (options_.static_analysis) {
    analysis::StaticReport static_report =
        analysis::analyze_module(harness_.original(), options_.obs);
    flip_gate_ = analysis::make_flip_gate(static_report, harness_.sites());
    replay_skip_ =
        static_report.flip_feedback_futile && !static_report.uses_db;
    report_.static_report = std::move(static_report);
  }
}

PayloadMode Fuzzer::schedule(int iteration) const {
  if (!options_.adversary_payloads) return PayloadMode::Normal;
  if (iteration == 0) return PayloadMode::ValidTransfer;
  switch (iteration % 6) {
    case 1:
      return PayloadMode::DirectFakeEos;
    case 2:
      return PayloadMode::FakeTokenTransfer;
    case 3:
      return PayloadMode::FakeNotifForward;
    case 4:
      return PayloadMode::ValidTransfer;
    default:
      return PayloadMode::Normal;
  }
}

Seed Fuzzer::select_seed(PayloadMode mode) {
  const abi::ActionDef transfer_def = abi::transfer_action_def();
  if (mode != PayloadMode::Normal) {
    // All payloads are parameterized by a transfer-shaped seed. The fake
    // payloads revert at patched dispatchers regardless of the seed, so
    // they peek at the best candidate instead of consuming it — adaptive
    // seeds stay at the front for the modes that can actually run them.
    auto seed = (mode == PayloadMode::DirectFakeEos ||
                 mode == PayloadMode::FakeTokenTransfer)
                    ? pool_.peek(transfer_def.name)
                    : pool_.next(transfer_def.name);
    if (!seed) seed = mutator_.random_seed(transfer_def);
    if (rng_.chance(0.3)) mutator_.mutate(*seed, transfer_def);
    return *seed;
  }

  // Normal mode: §3.3.2's transaction-dependency-aware selection.
  abi::Name action;
  if (action_rotation_.empty()) {
    // Transfer-only contract: another valid payment beats a direct call
    // that a patched dispatcher would reject anyway.
    auto seed = pool_.next(transfer_def.name);
    if (!seed) seed = mutator_.random_seed(transfer_def);
    return *seed;
  } else {
    action = action_rotation_[rotation_pos_++ % action_rotation_.size()];
    if (options_.use_dbg && dbg_.blocked(action)) {
      if (const auto writer = dbg_.writer_for(action)) action = *writer;
    }
  }
  const abi::ActionDef* def = harness_.contract_abi().find(action);
  if (def == nullptr) def = &transfer_def;
  auto seed = pool_.next(action);
  if (!seed || rng_.chance(0.25)) {
    Seed fresh = mutator_.random_seed(*def);
    if (seed && rng_.chance(0.5)) {
      fresh = *seed;
      mutator_.mutate(fresh, *def);
    }
    return fresh;
  }
  return *seed;
}

FuzzReport Fuzzer::run() {
  const obs::Span fuzz_span(options_.obs, obs::span_name::kFuzz);
  const auto start = Clock::now();
  std::unordered_set<std::uint64_t> branches;
  // Sized for both directions of every branch site — the cap on distinct
  // coverage keys — so the set never rehashes mid-campaign.
  branches.reserve(2 * harness_.sites().size());
  report_.curve.reserve(static_cast<std::size_t>(
      std::max(options_.iterations, 0)));

  for (int i = 0; i < options_.iterations; ++i) {
    if (options_.cancel && options_.cancel->expired()) {
      report_.deadline_hit = true;
      break;
    }
    PayloadMode mode = schedule(i);
    const Seed seed = select_seed(mode);
    if (mode == PayloadMode::Normal &&
        seed.action == abi::name("transfer")) {
      mode = PayloadMode::ValidTransfer;  // transfer-only contract
    }

    chain::TxResult result;
    switch (mode) {
      case PayloadMode::ValidTransfer:
        result = harness_.run_valid_transfer(seed);
        break;
      case PayloadMode::DirectFakeEos:
        result = harness_.run_direct_fake_eos(seed);
        break;
      case PayloadMode::FakeTokenTransfer:
        result = harness_.run_fake_token_transfer(seed);
        break;
      case PayloadMode::FakeNotifForward:
        result = harness_.run_fake_notif_forward(seed);
        break;
      case PayloadMode::Normal:
        result = harness_.run_normal(seed);
        break;
    }
    ++report_.transactions;

    // Vulnerability detection on every victim trace (L7 of Algorithm 1).
    {
      const obs::Span scan_span(options_.obs, obs::span_name::kOracleScan);
      for (const auto* trace : harness_.victim_traces()) {
        const auto facts =
            scanner::extract_facts(*trace, harness_.site_index());
        scanner_.observe(mode, trace->action, facts, result.success);
        for (const auto& oracle : custom_oracles_) {
          oracle->observe(mode, trace->action, facts, result.success);
        }
      }
    }

    harness_.accumulate_branches(branches);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    report_.curve.push_back(
        CoveragePoint{i, elapsed_ms, branches.size()});

    // Symbolic feedback (L8-11 of Algorithm 1).
    if (options_.symbolic_feedback) {
      for (const auto* trace : harness_.victim_traces()) {
        feedback_trace(*trace);
        break;  // one replay per iteration keeps throughput high
      }
    }
    pool_.trim(options_.max_pool_per_action);
    ++report_.iterations_run;
  }

  finalize_report(branches, start);
  return report_;
}

void Fuzzer::finalize_report(
    const std::unordered_set<std::uint64_t>& branches,
    Clock::time_point start) {
  report_.scan = scanner_.report();
  for (const auto& oracle : custom_oracles_) {
    if (const auto detail = oracle->verdict()) {
      report_.custom.push_back(
          scanner::CustomFinding{oracle->id(), *detail});
    }
  }
  report_.distinct_branches = branches.size();
  if (report_.static_report) {
    report_.oracle_gate_violations =
        count_contradicted_oracles(report_.scan, *report_.static_report);
  }
  if (solver_cache_ != nullptr) {
    report_.solver_cache_evictions = solver_cache_->stats().evictions;
  }
  report_.fuzz_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void Fuzzer::feedback_trace(const instrument::ActionTrace& trace) {
  if (replay_skip_) {
    // Statically proven futile: no flip site can bind action input and the
    // DBG has no database traffic to observe, so the replay could neither
    // add a seed nor change seed selection.
    ++report_.replays_skipped;
    return;
  }
  static const abi::ActionDef kTransferDef = abi::transfer_action_def();
  ChainHarness& h = harness_;
  const abi::ActionDef* def = h.contract_abi().find(trace.action);
  if (def == nullptr && trace.action == kTransferDef.name) {
    def = &kTransferDef;
  }
  if (def == nullptr) return;

  const auto site =
      symbolic::locate_action_call(trace, h.sites(), h.original(),
                                   def->params.size() + 1);
  if (!site) return;
  if (site->concrete_args.size() != def->params.size() + 1) return;
  if (h.last_params().size() != def->params.size()) return;

  ++report_.replays;
  try {
    const auto replayed =
        symbolic::replay(env_, h.original(), h.sites(), trace, *site, *def,
                         h.last_params(), /*observer=*/nullptr, options_.obs);
    dbg_.record(trace.action, replayed.api_calls);
    symbolic::SolverOptions solver_opts = options_.solver;
    if (solver_opts.cancel == nullptr) {
      solver_opts.cancel = options_.cancel.get();
    }
    if (solver_opts.cache == nullptr) {
      solver_opts.cache = solver_cache_.get();
    }
    if (solver_opts.obs == nullptr) solver_opts.obs = options_.obs;
    if (!flip_gate_.empty() && solver_opts.prune_flip_sites == nullptr) {
      solver_opts.prune_flip_sites = &flip_gate_;
      solver_opts.pruned_flips_free_budget = options_.static_prioritize;
    }
    auto adaptive =
        symbolic::solve_flips(env_, replayed, h.last_params(), solver_opts);
    report_.solver_queries += adaptive.queries;
    report_.solver_sat += adaptive.sat;
    report_.solver_sat_late += adaptive.sat_late;
    report_.solver_unsat += adaptive.unsat;
    report_.solver_unknown += adaptive.unknown;
    report_.solver_wall_ms += adaptive.wall_ms;
    report_.solver_cache_hits += adaptive.cache_hits;
    report_.solver_cache_misses += adaptive.cache_misses;
    report_.flips_pruned += adaptive.pruned;
    for (auto& params : adaptive.seeds) {
      pool_.add_priority(Seed{trace.action, std::move(params)});
      ++report_.adaptive_seeds;
    }
  } catch (const util::Error&) {
    ++report_.replay_failures;
  }
}

}  // namespace wasai::engine
