// The WASAI fuzzing loop — Algorithm 1: instrument, initiate a local
// blockchain, then iterate seed selection → execution → trace capture →
// vulnerability detection → symbolic feedback.
//
// Two execution engines share the per-iteration machinery:
//  * the serial loop (fuzz_shards == 0, the default) — one transaction per
//    iteration on the primary harness, exactly the paper's Algorithm 1;
//  * the batch-synchronous sharded engine (--fuzz-shards N) — each batch
//    plans N consecutive iterations sequentially (seed selection mutates
//    the shared pool/DBG state, so it stays on the coordinator), executes
//    them concurrently on N shard lanes (each lane owns a cloned chain
//    snapshot, a forked mutator stream and a private trace sink), then
//    merges results in shard-index order: scanner observations, coverage
//    keys, the coverage-curve point and the single symbolic-feedback
//    replay are applied by the coordinator exactly as the serial loop
//    would. Lane 0 runs the serial loop's RNG streams on the calling
//    thread, so `--fuzz-shards 1` is byte-identical to the serial loop
//    (pinned by fuzz_shard_test); any fixed N is run-to-run deterministic
//    because nothing observable depends on thread scheduling.
#pragma once

#include <chrono>
#include <memory>
#include <unordered_set>

#include "analysis/report.hpp"
#include "engine/dbg.hpp"
#include "engine/harness.hpp"
#include "engine/mutator.hpp"
#include "scanner/custom.hpp"
#include "scanner/scanner.hpp"
#include "symbolic/solver.hpp"

namespace wasai::engine {

struct FuzzOptions {
  int iterations = 48;
  std::uint64_t rng_seed = 1;
  /// Symbolic feedback on/off (off ≈ a blind fuzzer; ablation knob).
  bool symbolic_feedback = true;
  /// DBG-guided seed selection (§3.3.2) on/off (ablation knob).
  bool use_dbg = true;
  /// Run the adversary payload transactions (§2.3 oracles). Off restricts
  /// the loop to Normal mode — useful for pure coverage measurements.
  bool adversary_payloads = true;
  /// Cross-iteration flip dedup: cache solver verdicts + models keyed by
  /// the query's AST-identity digest, so a flip already decided in an
  /// earlier iteration costs a hash lookup instead of a Z3 call. Off =
  /// every flip goes to Z3 (perf-bench/ablation knob; findings, coverage
  /// and adaptive-seed counts are the same either way).
  bool solver_cache = true;
  std::size_t solver_cache_capacity = 4096;
  /// Extension of §4.2's "address pool" future work: let the fuzzer create
  /// and authorize additional local sender accounts, so contracts that
  /// serve only specific addresses (e.g. an administrator) can still be
  /// driven. Off by default — the paper's WASAI lacks this, producing the
  /// documented Rollback false negatives.
  bool dynamic_address_pool = false;
  /// VM fast path (pre-flattened instruction streams + direct hook
  /// dispatch). Off = legacy interpreter; the two are observably identical
  /// (byte-identical traces, seeds and report), so this is purely an A/B
  /// benchmarking kill switch (--no-fastpath).
  bool vm_fastpath = true;
  /// Batch-synchronous in-contract sharding. 0 (default) runs the serial
  /// loop; N >= 1 runs the sharded engine with N lanes over cloned chain
  /// snapshots. N == 1 is byte-identical to the serial loop; N > 1 trades
  /// the serial schedule's cross-iteration state coupling for concurrency
  /// (each lane's chain evolves independently) while staying run-to-run
  /// deterministic for fixed N. See DESIGN.md "Sharded fuzzing".
  int fuzz_shards = 0;
  /// Static pre-analysis (call graph + CFGs + taint pass) at construction
  /// time: flip queries on provably input-independent branches are skipped,
  /// replay+solve is skipped wholesale on feedback-futile contracts, and
  /// statically impossible oracles are gated (non-suppressively — see
  /// scanner::OracleGate). Verdict- and fingerprint-neutral by design; the
  /// --no-static kill switch turns it off for A/B comparison.
  bool static_analysis = true;
  /// Opt-in, NOT schedule-neutral: let pruned flips free their max_flips
  /// slots so the budget reaches deeper taint-reachable flip targets (see
  /// SolverOptions::pruned_flips_free_budget). Off by default.
  bool static_prioritize = false;
  symbolic::SolverOptions solver{};
  std::size_t max_pool_per_action = 32;
  /// Cooperative cancellation: checked at every iteration-batch boundary
  /// and between solver queries. When it expires the loop unwinds cleanly
  /// and the report carries whatever was found so far (deadline_hit =
  /// true). The campaign runner uses this to enforce per-contract
  /// deadlines.
  std::shared_ptr<const util::CancelToken> cancel = nullptr;
  /// Observability track of the thread running this fuzzer (may be null =
  /// off). Threaded to the harness (decode/instrument/deploy/execute), the
  /// replayer and the solvers; the run itself records `fuzz` and
  /// `oracle_scan` spans. Shard lanes beyond the first get their own
  /// "fuzz-shard-K" tracks from the same registry (their execute spans
  /// come from shard threads, and tracks are single-writer). Observability
  /// never touches the RNG or any dataflow, so the seed stream and report
  /// are identical either way.
  obs::Obs* obs = nullptr;
};

struct CoveragePoint {
  int iteration;
  double elapsed_ms;
  std::size_t branches;
};

struct FuzzReport {
  scanner::Report scan;
  std::vector<scanner::CustomFinding> custom;  // §5 extension detectors
  std::size_t distinct_branches = 0;
  std::vector<CoveragePoint> curve;
  std::size_t transactions = 0;
  std::size_t adaptive_seeds = 0;
  std::size_t solver_queries = 0;
  std::size_t replays = 0;
  std::size_t replay_failures = 0;
  // Solver verdict breakdown and wall time (campaign observability).
  std::size_t solver_sat = 0;
  std::size_t solver_sat_late = 0;  // sat past the hard cap, model discarded
  std::size_t solver_unsat = 0;
  std::size_t solver_unknown = 0;
  double solver_wall_ms = 0;
  // Cross-iteration query-cache effectiveness (zero when the cache is off).
  std::size_t solver_cache_hits = 0;
  std::size_t solver_cache_misses = 0;
  std::size_t solver_cache_evictions = 0;
  /// Shard lanes the run used (1 for the serial loop and --fuzz-shards 1).
  std::size_t fuzz_shards = 1;
  /// Transactions executed per shard lane, indexed by lane; sums to
  /// `transactions`. The serial loop reports the single-lane vector.
  std::vector<std::size_t> shard_transactions;
  /// Static pre-analysis results; engaged when static_analysis was on.
  std::optional<analysis::StaticReport> static_report;
  /// Flip queries skipped by the static gate across the whole run.
  std::size_t flips_pruned = 0;
  /// Replay+solve invocations skipped because the contract is statically
  /// feedback-futile (no taint-reachable flip site, no database traffic).
  std::size_t replays_skipped = 0;
  /// Scanner findings that contradicted a statically impossible verdict
  /// (always 0 when the analysis is sound; see Scanner::gate_violations).
  std::size_t oracle_gate_violations = 0;
  /// Wall time of the fuzz loop itself (excludes harness construction).
  double fuzz_ms = 0;
  /// Iterations actually executed (< options.iterations when cancelled).
  int iterations_run = 0;
  /// True when a cancel token expired and the loop stopped early.
  bool deadline_hit = false;
};

class Fuzzer {
 public:
  Fuzzer(const util::Bytes& contract_wasm, abi::Abi abi,
         FuzzOptions options = {});

  FuzzReport run();

  /// Register a §5-style extension detector; call before run().
  void add_oracle(std::shared_ptr<scanner::CustomOracle> oracle) {
    custom_oracles_.push_back(std::move(oracle));
  }

  [[nodiscard]] ChainHarness& harness() { return harness_; }

 private:
  /// One shard lane: a harness (lane 0 borrows the primary, lanes >= 1 own
  /// a chain-snapshot clone), the lane's RNG streams, and the per-batch
  /// scratch the lane's worker fills for the coordinator to merge. Lane 0
  /// carries the serial loop's exact streams (seed-pool fill included), so
  /// the serial engine is simply "lane 0, batch size 1".
  struct Shard {
    Shard(ChainHarness* h, Mutator m, util::Rng r, obs::Obs* o)
        : harness(h), mutator(std::move(m)), rng(r), obs(o) {}

    ChainHarness* harness;
    std::unique_ptr<ChainHarness> owned;  // backing storage for lanes >= 1
    Mutator mutator;
    util::Rng rng;
    obs::Obs* obs;
    std::size_t transactions = 0;
    // ---- per-batch scratch (worker-written, coordinator-read) ----------
    scanner::PayloadMode mode{};
    Seed seed;
    chain::TxResult result;
    std::vector<const instrument::ActionTrace*> traces;
    std::vector<scanner::TraceFacts> facts;
    /// Branch keys this lane has ever emitted; fresh holds the keys first
    /// seen in the current batch (what the coordinator folds in).
    std::unordered_set<std::uint64_t> seen_branches;
    std::vector<std::uint64_t> fresh_branches;
    std::exception_ptr error;
  };

  using Clock = std::chrono::steady_clock;

  FuzzReport run_serial();
  FuzzReport run_sharded(int lanes);
  /// Clone shard lanes 1..lanes-1 off the primary harness (lane 0 exists
  /// from construction).
  void ensure_lanes(int lanes);

  scanner::PayloadMode schedule(int iteration) const;
  Seed select_seed(scanner::PayloadMode mode, Shard& shard);
  /// Coordinator step: pick mode + seed for global iteration `i` on `shard`
  /// (mutates the shared pool / rotation / DBG state — sequential only).
  void plan_iteration(int iteration, Shard& shard);
  /// Worker step: run the planned transaction on the shard's chain and
  /// pre-extract everything the merge needs (facts, fresh branch keys).
  /// Exceptions land in shard.error. Safe to run concurrently across
  /// distinct shards.
  void execute_planned(Shard& shard) noexcept;
  /// Coordinator step: fold one executed iteration into the shared scanner,
  /// coverage set, curve and (optionally) the symbolic feedback loop —
  /// identical to the serial loop's post-execution tail.
  void merge_iteration(int iteration, Shard& shard,
                       std::unordered_set<std::uint64_t>& branches,
                       Clock::time_point start);
  void finalize_report(const std::unordered_set<std::uint64_t>& branches,
                       Clock::time_point start, int lanes);
  void feedback_trace(Shard& shard, const instrument::ActionTrace& trace);

  FuzzOptions options_;
  ChainHarness harness_;
  /// Static flip gate by site id (empty when static_analysis is off).
  std::vector<std::uint8_t> flip_gate_;
  /// Statically proven: replay+solve can produce nothing (no taint-reachable
  /// flip and no DBG-observable database traffic).
  bool replay_skip_ = false;
  SeedPool pool_;
  Dbg dbg_;
  scanner::Scanner scanner_;
  symbolic::Z3Env env_;
  std::unique_ptr<symbolic::SolverCache> solver_cache_;
  FuzzReport report_;
  std::vector<abi::Name> action_rotation_;
  std::vector<std::shared_ptr<scanner::CustomOracle>> custom_oracles_;
  std::size_t rotation_pos_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace wasai::engine
