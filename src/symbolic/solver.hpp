// Constraint flipping and solving (§3.4.4): negate each flippable
// conditional state, conjoin the path prefix, and ask Z3 for a model —
// each model becomes an adaptive seed.
//
// One serial path: every flip is decided by a fresh QF_BV solver
// (make_flip_solver) in the replay's own Z3 context, which re-asserts the
// path prefix and the flip. Every replayed term is a bitvector, so QF_BV
// is exact. The queries are tiny (a few asserts, no arrays), so their cost
// is set-up: a QF_BV solver in a live context answers in about a
// millisecond, where a fresh context, SMT-LIB2 parsing and Z3's default
// solver combination cost about ten times that.
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
/// unknown. Calibrated in DESIGN.md, "Determinism": about twice the largest
/// query seen on four 100-module testgen batches, 800x the largest on the
/// template corpus.
inline constexpr unsigned kFlipRlimit = 2'000'000;
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

/// The solver solve_flips decides each flip with: a fresh QF_BV solver in
/// `ctx` limited to kFlipRlimit. It leaves SIGINT alone: Z3's default
/// swaps in its own handler around every check, and checks on concurrent
/// threads interleave that swap and lose the process's handler.
z3::solver make_flip_solver(z3::context& ctx);

/// Solve every flippable conditional of `replay` against the path prefix,
/// mapping each model back onto the executed seed's parameters through the
/// input bindings.
AdaptiveSeeds solve_flips(Z3Env& env, const ReplayResult& replay,
                          const std::vector<abi::ParamValue>& seed_params,
                          const SolverOptions& opts = {});

}  // namespace wasai::symbolic
