#include "engine/fuzzer.hpp"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "scanner/facts.hpp"

namespace wasai::engine {

using scanner::PayloadMode;

namespace {

std::vector<abi::Name> default_accounts(const HarnessNames& names) {
  return {names.attacker, names.victim, names.token, names.fake_token,
          names.fake_notif, abi::name("lucky"), abi::name("admin")};
}

// The verdict-to-gate lowering below maps by index.
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

Fuzzer::Fuzzer(const util::Bytes& contract_wasm, abi::Abi abi,
               FuzzOptions options)
    : options_(options),
      harness_(contract_wasm, std::move(abi), HarnessNames{}, options.obs,
               options.vm_fastpath),
      scanner_(scanner::Scanner::Config{
          harness_.names().victim, harness_.names().token,
          harness_.names().fake_token, harness_.names().fake_notif}) {
  if (options_.solver_cache) {
    solver_cache_ = std::make_unique<symbolic::SolverCache>(
        options_.solver_cache_capacity);
  }
  // Lane 0 runs the serial loop's exact RNG streams (and executes on the
  // primary harness), so serial and --fuzz-shards 1 draw identical seeds.
  shards_.emplace_back(
      &harness_,
      Mutator(util::Rng(options_.rng_seed), default_accounts(harness_.names())),
      util::Rng(options_.rng_seed ^ 0xfeedfacecafebeefull), options_.obs);
  // L2 of Algorithm 1: fill the seed pool with random data. The eosponser
  // ("transfer") is exercised by the payload modes; Normal mode rotates
  // over the remaining actions.
  Mutator& mutator = shards_.front().mutator;
  for (const auto& def : harness_.contract_abi().actions) {
    if (def.name != abi::name("transfer")) {
      action_rotation_.push_back(def.name);
    }
    for (int i = 0; i < 2; ++i) pool_.add(mutator.random_seed(def));
  }
  // Payload transfers mutate transfer-shaped seeds even when the ABI does
  // not declare a transfer action.
  if (harness_.contract_abi().find(abi::name("transfer")) == nullptr) {
    pool_.add(mutator.random_seed(abi::transfer_action_def()));
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
    scanner::OracleGate gate;
    for (std::size_t i = 0; i < analysis::kNumOracles; ++i) {
      if (!static_report.oracles[i].possible) {
        gate.forbid(static_cast<scanner::VulnType>(i));
      }
    }
    scanner_.set_gate(gate);
    replay_skip_ =
        static_report.flip_feedback_futile && !static_report.uses_db;
    report_.static_report = std::move(static_report);
  }
}

void Fuzzer::ensure_lanes(int lanes) {
  while (static_cast<int>(shards_.size()) < lanes) {
    const std::uint64_t k = shards_.size();
    obs::Obs* track = nullptr;
    if (options_.obs != nullptr) {
      track = &options_.obs->registry().track("fuzz-shard-" +
                                              std::to_string(k));
    }
    // Lanes beyond the first fork both of lane 0's streams by shard index:
    // deterministic per lane, uncorrelated across lanes (see Rng::fork).
    shards_.emplace_back(
        nullptr,
        Mutator(util::Rng(options_.rng_seed).fork(k),
                default_accounts(harness_.names())),
        util::Rng(options_.rng_seed ^ 0xfeedfacecafebeefull).fork(k), track);
    shards_.back().owned = harness_.clone_for_shard(track);
    shards_.back().harness = shards_.back().owned.get();
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

Seed Fuzzer::select_seed(PayloadMode mode, Shard& shard) {
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
    if (!seed) seed = shard.mutator.random_seed(transfer_def);
    if (shard.rng.chance(0.3)) shard.mutator.mutate(*seed, transfer_def);
    return *seed;
  }

  // Normal mode: §3.3.2's transaction-dependency-aware selection.
  abi::Name action;
  if (action_rotation_.empty()) {
    // Transfer-only contract: another valid payment beats a direct call
    // that a patched dispatcher would reject anyway.
    auto seed = pool_.next(transfer_def.name);
    if (!seed) seed = shard.mutator.random_seed(transfer_def);
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
  if (!seed || shard.rng.chance(0.25)) {
    Seed fresh = shard.mutator.random_seed(*def);
    if (seed && shard.rng.chance(0.5)) {
      fresh = *seed;
      shard.mutator.mutate(fresh, *def);
    }
    return fresh;
  }
  return *seed;
}

FuzzReport Fuzzer::run() {
  if (options_.fuzz_shards >= 1) return run_sharded(options_.fuzz_shards);
  return run_serial();
}

FuzzReport Fuzzer::run_serial() {
  const obs::Span fuzz_span(options_.obs, obs::span_name::kFuzz);
  const auto start = Clock::now();
  Shard& lane = shards_.front();
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
    const Seed seed = select_seed(mode, lane);
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
    ++lane.transactions;

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
        feedback_trace(lane, *trace);
        break;  // one replay per iteration keeps throughput high
      }
    }
    pool_.trim(options_.max_pool_per_action);
    ++report_.iterations_run;
  }

  finalize_report(branches, start, /*lanes=*/1);
  return report_;
}

FuzzReport Fuzzer::run_sharded(int lanes) {
  const obs::Span fuzz_span(options_.obs, obs::span_name::kFuzz);
  const auto start = Clock::now();
  ensure_lanes(lanes);
  std::unordered_set<std::uint64_t> branches;
  branches.reserve(2 * harness_.sites().size());
  report_.curve.reserve(static_cast<std::size_t>(
      std::max(options_.iterations, 0)));

  int i = 0;
  while (i < options_.iterations) {
    if (options_.cancel && options_.cancel->expired()) {
      report_.deadline_hit = true;
      break;
    }
    const int batch = std::min(lanes, options_.iterations - i);
    // Planning mutates the shared pool / rotation / DBG state, so the
    // coordinator assigns the batch's iterations to lanes sequentially —
    // the same draws the serial loop would make, in the same order.
    for (int k = 0; k < batch; ++k) plan_iteration(i + k, shards_[k]);
    // Execution is embarrassingly parallel: each lane owns its chain.
    // Lane 0 runs on the calling thread (with --fuzz-shards 1 no thread is
    // ever spawned); the join gives the coordinator a happens-before edge
    // over every lane's scratch before merging.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(batch > 0 ? batch - 1 : 0));
    for (int k = 1; k < batch; ++k) {
      workers.emplace_back([this, k] { execute_planned(shards_[k]); });
    }
    execute_planned(shards_.front());
    for (auto& worker : workers) worker.join();
    // Merge in shard-index order: the observable outcome depends only on
    // (rng_seed, iterations, N), never on thread scheduling.
    for (int k = 0; k < batch; ++k) {
      merge_iteration(i + k, shards_[k], branches, start);
    }
    i += batch;
  }

  finalize_report(branches, start, lanes);
  return report_;
}

void Fuzzer::plan_iteration(int iteration, Shard& shard) {
  shard.mode = schedule(iteration);
  shard.seed = select_seed(shard.mode, shard);
  if (shard.mode == PayloadMode::Normal &&
      shard.seed.action == abi::name("transfer")) {
    shard.mode = PayloadMode::ValidTransfer;  // transfer-only contract
  }
}

void Fuzzer::execute_planned(Shard& shard) noexcept {
  shard.error = nullptr;
  shard.traces.clear();
  shard.facts.clear();
  shard.fresh_branches.clear();
  try {
    ChainHarness& h = *shard.harness;
    switch (shard.mode) {
      case PayloadMode::ValidTransfer:
        shard.result = h.run_valid_transfer(shard.seed);
        break;
      case PayloadMode::DirectFakeEos:
        shard.result = h.run_direct_fake_eos(shard.seed);
        break;
      case PayloadMode::FakeTokenTransfer:
        shard.result = h.run_fake_token_transfer(shard.seed);
        break;
      case PayloadMode::FakeNotifForward:
        shard.result = h.run_fake_notif_forward(shard.seed);
        break;
      case PayloadMode::Normal:
        shard.result = h.run_normal(shard.seed);
        break;
    }
    shard.traces = h.victim_traces();
    // Fact extraction is pure (per-trace, per-shard SiteIndex), so it runs
    // here in the worker; the stateful scanner stays with the coordinator.
    {
      const obs::Span scan_span(shard.obs, obs::span_name::kOracleScan);
      shard.facts.reserve(shard.traces.size());
      for (const auto* trace : shard.traces) {
        shard.facts.push_back(scanner::extract_facts(*trace, h.site_index()));
      }
    }
    h.fresh_branch_keys(shard.seen_branches, shard.fresh_branches);
  } catch (...) {
    shard.error = std::current_exception();
  }
}

void Fuzzer::merge_iteration(int iteration, Shard& shard,
                             std::unordered_set<std::uint64_t>& branches,
                             Clock::time_point start) {
  if (shard.error) std::rethrow_exception(shard.error);
  ++report_.transactions;
  ++shard.transactions;

  for (std::size_t t = 0; t < shard.traces.size(); ++t) {
    scanner_.observe(shard.mode, shard.traces[t]->action, shard.facts[t],
                     shard.result.success);
    for (const auto& oracle : custom_oracles_) {
      oracle->observe(shard.mode, shard.traces[t]->action, shard.facts[t],
                      shard.result.success);
    }
  }

  // `fresh_branches` holds keys this lane saw for the first time; the global
  // set dedups across lanes, so it equals the union the serial accumulation
  // would have built.
  branches.insert(shard.fresh_branches.begin(), shard.fresh_branches.end());
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  report_.curve.push_back(CoveragePoint{iteration, elapsed_ms,
                                        branches.size()});

  // Symbolic feedback (L8-11 of Algorithm 1): one replay per iteration,
  // applied coordinator-side so pool insertions land in shard-index order.
  if (options_.symbolic_feedback && !shard.traces.empty()) {
    feedback_trace(shard, *shard.traces.front());
  }
  pool_.trim(options_.max_pool_per_action);
  ++report_.iterations_run;
}

void Fuzzer::finalize_report(
    const std::unordered_set<std::uint64_t>& branches,
    Clock::time_point start, int lanes) {
  report_.scan = scanner_.report();
  for (const auto& oracle : custom_oracles_) {
    if (const auto detail = oracle->verdict()) {
      report_.custom.push_back(
          scanner::CustomFinding{oracle->id(), *detail});
    }
  }
  report_.distinct_branches = branches.size();
  report_.oracle_gate_violations = scanner_.gate_violations();
  if (solver_cache_ != nullptr) {
    report_.solver_cache_evictions = solver_cache_->stats().evictions;
  }
  report_.fuzz_shards = static_cast<std::size_t>(lanes);
  report_.shard_transactions.clear();
  for (int k = 0; k < lanes; ++k) {
    report_.shard_transactions.push_back(
        shards_[static_cast<std::size_t>(k)].transactions);
  }
  report_.fuzz_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void Fuzzer::feedback_trace(Shard& shard,
                            const instrument::ActionTrace& trace) {
  if (replay_skip_) {
    // Statically proven futile: no flip site can bind action input and the
    // DBG has no database traffic to observe, so the replay could neither
    // add a seed nor change seed selection.
    ++report_.replays_skipped;
    return;
  }
  static const abi::ActionDef kTransferDef = abi::transfer_action_def();
  ChainHarness& h = *shard.harness;
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
