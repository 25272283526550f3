// Constraint flipping and solving (§3.4.4): negate each flippable
// conditional state, conjoin the path prefix, and ask Z3 for a model —
// each model becomes an adaptive seed.
//
// One serial path: every flip is decided by a fresh solver built from Z3's
// SMT core, the `smt` tactic (make_flip_solver), in the replay's own Z3
// context, which re-asserts the path prefix and the flip. The queries are
// tiny: a few ite/extract comparisons over one to three parameters, no
// arrays. Their cost is the solver's fixed cost, so the engine is the one
// with the least. The 320 queries of one templates-serial pass (perfbench,
// seed 7), replayed with a fresh context per three queries, gave the same
// verdict on every query under every engine. Mean time per query over
// seven repeats (Release, Z3 4.8.12; in each repeat the SMT core took
// 0.38-0.45x the time of the QF_BV solver):
//   - `smt` tactic:                        0.74-0.99 ms (p90 1.15-1.34 ms)
//   - z3::solver::simple():                0.77-1.11 ms
//   - bare `qfbv` tactic:                  1.61-1.98 ms
//   - z3::solver(ctx, "QF_BV") (previous): 1.80-2.24 ms (p90 4.8-5.8 ms)
// The QF_BV solver and the `qfbv` tactic also allocate a spare 8,519,688-
// byte block on 49 of those 320 checks, which set the fuzzer's peak
// memory; the SMT core allocates none.
//
// Why not push/pop: a walker solver that asserts each hold once and checks
// every flip inside a push() scope saves only the O(path²) re-assertions,
// which cost little on these short paths (it measured about 1.1 ms per
// query, no faster). Its models come from the incremental engine's
// accumulated state rather than from the query, and on the Table-4
// template corpus that lost 21 of 80 findings.
//
// Determinism: every check runs under a fixed Z3 resource budget
// (kFlipRlimit) and no wall-clock timeout, so sat, unsat and unknown are
// all functions of the query. The model Z3 picks depends on the query and
// on the context's AST history; both are fixed by the inputs and the seed,
// so runs are reproducible (DESIGN.md, "Determinism", has the solver
// contract and the budget's calibration). An optional cross-iteration
// SolverCache short-circuits queries that were already decided in an
// earlier iteration (see solver_cache.hpp).
#pragma once

#include "symbolic/replayer.hpp"
#include "symbolic/solver_cache.hpp"
#include "util/cancel.hpp"

namespace wasai::symbolic {

/// Z3 resource units (`rlimit`) one flip check may spend before it answers
/// unknown. Calibrated for the SMT core in DESIGN.md, "Determinism": about
/// twice the largest query seen on four 100-module testgen batches
/// (2,260,628 units), 2,700x the largest on the template corpus.
inline constexpr unsigned kFlipRlimit = 5'000'000;
/// Cap on flip targets per executed seed.
inline constexpr std::size_t kMaxFlips = 24;

struct SolverOptions {
  /// Cross-iteration query cache; not owned, may be null (= no caching).
  /// One cache must only ever see queries from one Z3Env, and must be
  /// destroyed before it: entries pin that context's ASTs.
  SolverCache* cache = nullptr;
  /// Static flip gate (the pre-analysis branch table lowered onto site
  /// ids): a non-zero entry at PathStep.site marks that flip as provably
  /// futile — its condition can never depend on action input — and the
  /// walk skips the query entirely. A pruned flip still consumes a flip
  /// slot, so the schedule under kMaxFlips is identical with and without
  /// the gate. Sites beyond the vector (or a null pointer) are never
  /// pruned. Not owned.
  const std::vector<std::uint8_t>* prune_flip_sites = nullptr;
  /// Cooperative cancellation checked between queries (campaign deadlines).
  /// Not owned; may be null.
  const util::CancelToken* cancel = nullptr;
  /// Observability track of the calling thread (may be null = off). The
  /// whole call is wrapped in a `solve_flips` span; per-query wall times
  /// feed the `solver.query_us` histogram.
  obs::Obs* obs = nullptr;
};

struct AdaptiveSeeds {
  /// One mutated parameter vector per satisfiable flip, in flip (i.e.
  /// serial path) order.
  std::vector<std::vector<abi::ParamValue>> seeds;
  /// Z3 check() calls actually issued (cache hits do not count).
  std::size_t queries = 0;
  // Verdict accounting: sat + unsat + unknown covers every flip attempted
  // (whether answered by Z3 or by the cache).
  std::size_t sat = 0;
  std::size_t unsat = 0;
  std::size_t unknown = 0;   // budget exhausted (kFlipRlimit)
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;  // flips that went to Z3 despite a cache
  /// Flips skipped by the static gate (prune_flip_sites). Not part of the
  /// sat/unsat/unknown partition: a pruned flip was never decided.
  std::size_t pruned = 0;
  double wall_ms = 0;            // total wall time spent solving
  bool aborted = false;  // stopped early by cancellation
};

/// The solver solve_flips decides each flip with: a fresh solver from Z3's
/// SMT core (the `smt` tactic) in `ctx`, limited to kFlipRlimit. On
/// templates-serial a query (build, assert, check) takes about 0.8 ms p50
/// and 1.5-1.7 ms p90, where the QF_BV solver took 1.6 ms and 5.6 ms, and
/// it allocates no spare 8.5 MB block
/// (Solver.FlipCheckKeepsZ3PeakMemoryFlat). It leaves SIGINT alone: Z3's
/// default swaps in its own handler around every check, and checks on
/// concurrent threads interleave that swap and lose the process's handler.
z3::solver make_flip_solver(z3::context& ctx);

/// Solve every flippable conditional of `replay` against the path prefix,
/// mapping each model back onto the executed seed's parameters through the
/// input bindings.
AdaptiveSeeds solve_flips(Z3Env& env, const ReplayResult& replay,
                          const std::vector<abi::ParamValue>& seed_params,
                          const SolverOptions& opts = {});

}  // namespace wasai::symbolic
