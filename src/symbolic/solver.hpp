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
// Determinism: the model Z3 picks depends on the query and on the
// context's AST history; both are fixed by the inputs and the seed, so runs
// are reproducible (DESIGN.md, "Determinism", has the solver contract).
// An optional cross-iteration SolverCache short-circuits queries that were
// already decided in an earlier iteration (see solver_cache.hpp).
#pragma once

#include "symbolic/replayer.hpp"
#include "symbolic/solver_cache.hpp"
#include "util/cancel.hpp"

namespace wasai::symbolic {

struct SolverOptions {
  unsigned timeout_ms = 200;    // per-query budget (paper used 3,000 ms)
  std::size_t max_flips = 24;   // cap on flip targets per executed seed
  /// Cross-iteration query cache; not owned, may be null (= no caching).
  /// One cache must only ever see queries from one Z3Env, and must be
  /// destroyed before it: entries pin that context's ASTs.
  SolverCache* cache = nullptr;
  /// Hard wall-clock cap per query. Z3's "timeout" parameter is a soft
  /// limit that the solver can overshoot. Accounting for a query whose
  /// wall time exceeds this cap:
  ///  * verdict sat  -> counted as `sat_late`; the model is still discarded
  ///    (using it would make the seed stream timing-dependent);
  ///  * anything else -> counted as `unknown`.
  /// Overshot queries are never cached. 0 derives a generous default
  /// (10×timeout_ms + 1000) so the cap only fires on genuinely stuck
  /// queries, not on scheduler jitter — keeping the seed stream
  /// deterministic in practice.
  unsigned hard_timeout_ms = 0;
  /// Total wall budget for one solve_flips call; once exhausted, remaining
  /// flips are skipped (`aborted` is set). 0 = unlimited.
  unsigned wall_budget_ms = 0;
  /// Static flip gate (the pre-analysis branch table lowered onto site
  /// ids): a non-zero entry at PathStep.site marks that flip as provably
  /// futile — its condition can never depend on action input — and the
  /// walk skips the query entirely. A pruned flip still consumes a flip
  /// slot, so the schedule under max_flips is identical with and without
  /// the gate. Sites beyond the vector (or a null pointer) are never
  /// pruned. Not owned.
  const std::vector<std::uint8_t>* prune_flip_sites = nullptr;
  /// Opt-in prioritization (NOT schedule-neutral): pruned flips stop
  /// consuming max_flips slots, so the freed budget reaches deeper
  /// taint-reachable flip targets the cap would otherwise cut off. Off by
  /// default — turning it on changes the flip schedule whenever the cap
  /// binds.
  bool pruned_flips_free_budget = false;
  /// Cooperative cancellation checked between queries (campaign deadlines).
  /// Not owned; may be null.
  const util::CancelToken* cancel = nullptr;
  /// Observability track of the calling thread (may be null = off). The
  /// whole call is wrapped in a `solve_flips` span; per-query wall times
  /// feed the `solver.query_us` histogram.
  obs::Obs* obs = nullptr;

  [[nodiscard]] unsigned effective_hard_timeout_ms() const {
    return hard_timeout_ms != 0 ? hard_timeout_ms : 10 * timeout_ms + 1000;
  }
};

struct AdaptiveSeeds {
  /// One mutated parameter vector per satisfiable flip, in flip (i.e.
  /// serial path) order.
  std::vector<std::vector<abi::ParamValue>> seeds;
  /// Z3 check() calls actually issued (cache hits do not count).
  std::size_t queries = 0;
  // Verdict accounting: sat + sat_late + unsat + unknown covers every flip
  // attempted (whether answered by Z3 or by the cache).
  std::size_t sat = 0;
  std::size_t sat_late = 0;  // sat, but past the hard cap: model discarded
  std::size_t unsat = 0;
  std::size_t unknown = 0;   // timeouts and non-sat wall overshoots
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;  // flips that went to Z3 despite a cache
  /// Flips skipped by the static gate (prune_flip_sites). Not part of the
  /// sat/unsat/unknown partition: a pruned flip was never decided.
  std::size_t pruned = 0;
  double wall_ms = 0;            // total wall time spent solving
  bool aborted = false;  // stopped early (wall budget or cancellation)
};

/// The solver solve_flips decides each flip with: a fresh QF_BV solver in
/// `ctx` with Z3's soft per-query `timeout`.
z3::solver make_flip_solver(z3::context& ctx, unsigned timeout_ms);

/// Solve every flippable conditional of `replay` against the path prefix,
/// mapping each model back onto the executed seed's parameters through the
/// input bindings.
AdaptiveSeeds solve_flips(Z3Env& env, const ReplayResult& replay,
                          const std::vector<abi::ParamValue>& seed_params,
                          const SolverOptions& opts = {});

}  // namespace wasai::symbolic
