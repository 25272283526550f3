#include "symbolic/solver.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

namespace wasai::symbolic {

namespace {

using abi::ParamValue;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Apply one solved binding onto a parameter vector.
void apply_model_binding(std::vector<ParamValue>& params,
                         const InputBinding& b, std::uint64_t value) {
  ParamValue& p = params.at(b.param_index);
  switch (b.kind) {
    case InputBinding::Kind::Whole:
      if (std::holds_alternative<abi::Name>(p)) {
        p = abi::Name(value);
      } else if (std::holds_alternative<std::uint64_t>(p)) {
        p = value;
      } else if (std::holds_alternative<std::int64_t>(p)) {
        p = static_cast<std::int64_t>(value);
      } else if (std::holds_alternative<std::uint32_t>(p)) {
        p = static_cast<std::uint32_t>(value);
      } else if (std::holds_alternative<double>(p)) {
        p = std::bit_cast<double>(value);
      }
      break;
    case InputBinding::Kind::AssetAmount:
      std::get<abi::Asset>(p).amount = static_cast<std::int64_t>(value);
      break;
    case InputBinding::Kind::AssetSymbol:
      std::get<abi::Asset>(p).symbol = abi::Symbol(value);
      break;
    case InputBinding::Kind::StringLen: {
      auto& s = std::get<std::string>(p);
      // Lengths are clamped; bytes beyond the executed length were not
      // symbolic, so they are padded (the paper's §4.4 false-positive
      // analysis stems from exactly this limitation).
      const std::size_t target = std::min<std::uint64_t>(value & 0xff, 64);
      s.resize(target, 'a');
      break;
    }
    case InputBinding::Kind::StringByte: {
      auto& s = std::get<std::string>(p);
      if (b.byte_index < s.size()) {
        s[b.byte_index] = static_cast<char>(value & 0xff);
      }
      break;
    }
  }
}

/// Every zero-arity numeral interpretation of `model` as (name, value)
/// pairs — the representation the cache stores.
ModelValues extract_model_values(const z3::model& model) {
  ModelValues out;
  out.reserve(model.size());
  for (unsigned i = 0; i < model.size(); ++i) {
    const z3::func_decl decl = model.get_const_decl(i);
    if (decl.arity() != 0) continue;
    const z3::expr value = model.get_const_interp(decl);
    if (value.is_numeral()) {
      out.emplace_back(decl.name().str(), value.get_numeral_uint64());
    }
  }
  return out;
}

/// Apply model values onto a copy of the seed parameters through the
/// input bindings.
std::vector<ParamValue> seed_from_model_values(
    const std::vector<ParamValue>& seed_params,
    const std::vector<InputBinding>& bindings, const ModelValues& values) {
  std::vector<ParamValue> mutated = seed_params;
  for (const auto& binding : bindings) {
    // Mutate only the parameters the model actually mentions;
    // unconstrained variables keep their executed-seed values.
    const std::string name = binding.var.decl().name().str();
    const auto it =
        std::find_if(values.begin(), values.end(),
                     [&](const auto& nv) { return nv.first == name; });
    if (it == values.end()) continue;
    apply_model_binding(mutated, binding, it->second);
  }
  return mutated;
}

}  // namespace

z3::solver make_flip_solver(z3::context& ctx) {
  z3::solver solver = z3::tactic(ctx, "smt").mk_solver();
  z3::params p(ctx);
  p.set("rlimit", kFlipRlimit);
  p.set("ctrl_c", false);
  solver.set(p);
  return solver;
}

AdaptiveSeeds solve_flips(Z3Env& env, const ReplayResult& replay,
                          const std::vector<ParamValue>& seed_params,
                          const SolverOptions& opts) {
  const obs::Span span(opts.obs, obs::span_name::kSolve);
  AdaptiveSeeds out;
  std::size_t flips_attempted = 0;
  const auto start = Clock::now();

  QueryDigest digest;                   // rolling prefix digest (cache keys)
  std::vector<const z3::expr*> prefix;  // holds walked so far

  const auto push_hold = [&](const PathStep& step) {
    if (step.hold) {
      prefix.push_back(&*step.hold);
      if (opts.cache != nullptr) digest.extend(*step.hold);
    }
  };
  // The ASTs a cache key was digested from, for the entry to pin.
  const auto query_asts = [&](const z3::expr& flip) {
    std::vector<z3::expr> asts;
    asts.reserve(prefix.size() + 1);
    for (const z3::expr* hold : prefix) asts.push_back(*hold);
    asts.push_back(flip);
    return asts;
  };
  const auto statically_pruned = [&](const PathStep& step) {
    return opts.prune_flip_sites != nullptr &&
           step.site < opts.prune_flip_sites->size() &&
           (*opts.prune_flip_sites)[step.site] != 0;
  };

  for (std::size_t k = 0; k < replay.path.size(); ++k) {
    const PathStep& step = replay.path[k];
    if (step.can_flip && step.flip) {
      if (flips_attempted >= kMaxFlips) break;
      if (opts.cancel != nullptr && opts.cancel->expired()) {
        out.aborted = true;
        break;
      }
      // The static pre-analysis proved this condition cannot depend on
      // action input: no model could change the seed, so skip the query.
      // The flip slot is still consumed, keeping the schedule under
      // kMaxFlips identical with and without the gate.
      ++flips_attempted;
      if (statically_pruned(step)) {
        ++out.pruned;
        if (opts.obs != nullptr) opts.obs->count("solver.flips_pruned");
        push_hold(step);
        continue;
      }

      QueryKey key;
      const CacheEntry* entry = nullptr;  // this flip's verdict and model
      if (opts.cache != nullptr) {
        key = digest.flip_key(*step.flip);
        entry = opts.cache->lookup(key);
      }
      CacheEntry decided;
      if (entry != nullptr) {
        ++out.cache_hits;
        if (opts.obs != nullptr) opts.obs->count("solver.cache_hits");
      } else {
        if (opts.cache != nullptr) ++out.cache_misses;
        ++out.queries;

        const auto query_begin = Clock::now();
        // Path prefix must stay feasible (§3.4.4: AND of prior constraints).
        z3::solver solver = make_flip_solver(env.ctx());
        for (const z3::expr* hold : prefix) solver.add(*hold);
        solver.add(*step.flip);
        const z3::check_result verdict = solver.check();
        if (opts.obs != nullptr) {
          opts.obs->count("solver.queries");
          opts.obs->latency_us("solver.query_us",
                               ms_since(query_begin) * 1000.0);
        }
        if (verdict == z3::sat) {
          decided = {CachedVerdict::Sat,
                     extract_model_values(solver.get_model())};
        } else {
          // Unknown means out of budget, which is as reproducible as unsat.
          decided.verdict = verdict == z3::unsat ? CachedVerdict::Unsat
                                                 : CachedVerdict::Unknown;
        }
        entry = &decided;
        if (opts.cache != nullptr) {
          entry = &opts.cache->insert(key, query_asts(*step.flip),
                                      decided.verdict,
                                      std::move(decided.model));
        }
      }
      switch (entry->verdict) {
        case CachedVerdict::Sat:
          ++out.sat;
          out.seeds.push_back(seed_from_model_values(
              seed_params, replay.bindings, entry->model));
          break;
        case CachedVerdict::Unsat:
          ++out.unsat;
          break;
        case CachedVerdict::Unknown:
          ++out.unknown;
          break;
      }
    }
    push_hold(step);
  }
  out.wall_ms = ms_since(start);
  return out;
}

}  // namespace wasai::symbolic
