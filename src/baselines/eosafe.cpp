#include "baselines/eosafe.hpp"

#include <deque>

#include "baselines/eosafe_memory.hpp"
#include "symbolic/ops.hpp"
#include "wasm/control.hpp"
#include "wasm/decoder.hpp"

namespace wasai::baselines {

namespace {

using scanner::VulnType;
using symbolic::SymValue;
using symbolic::Z3Env;
using wasm::FuncType;
using wasm::Instr;
using wasm::kNoMatch;
using wasm::Module;
using wasm::Opcode;
using wasm::ValType;

bool contains_var(const z3::expr& e, const std::string& name) {
  if (e.is_numeral()) return false;
  if (e.is_const()) return e.decl().name().str() == name;
  for (unsigned i = 0; i < e.num_args(); ++i) {
    if (contains_var(e.arg(i), name)) return true;
  }
  return false;
}

std::vector<std::uint32_t> table_image(const Module& m) {
  std::vector<std::uint32_t> table;
  if (!m.tables.empty()) table.assign(m.tables[0].limits.min, kNoMatch);
  for (const auto& seg : m.elements) {
    for (std::size_t i = 0; i < seg.func_indices.size(); ++i) {
      if (seg.offset + i < table.size()) {
        table[seg.offset + i] = seg.func_indices[i];
      }
    }
  }
  return table;
}

struct SeCtrl {
  std::uint32_t opener;
  std::uint32_t end_idx;
  bool is_loop;
  std::size_t height;
  std::uint8_t arity;
};

struct SeState {
  std::uint32_t pc = 0;
  std::vector<SymValue> stack;
  std::vector<SymValue> locals;
  std::vector<SeCtrl> ctrls;
  std::vector<z3::expr> constraints;
  EosafeMemory mem;
  bool auth_seen = false;

  explicit SeState(Z3Env& env) : mem(env) {}
};

void shrink_to(std::vector<SymValue>& v, std::size_t n) {
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(n), v.end());
}

/// Bounded DFS symbolic executor over a single function body.
class SeExplorer {
 public:
  SeExplorer(Z3Env& env, const Module& module, std::uint32_t func_index,
             const EosafeOptions& options, std::size_t& steps_used)
      : env_(env),
        module_(module),
        fn_(module.defined(func_index)),
        cmap_(wasm::analyze_control(fn_.body)),
        options_(options),
        steps_used_(steps_used),
        solver_(env.ctx()) {
    z3::params p(env.ctx());
    p.set("timeout", options.solver_timeout_ms);
    solver_.set(p);
  }

  void explore(std::vector<SymValue> params) {
    SeState init(env_);
    init.locals = std::move(params);
    for (const auto t : fn_.locals) init.locals.push_back(SymValue{t, 0});
    worklist_.push_back(std::move(init));

    while (!worklist_.empty()) {
      if (steps_used_ >= options_.step_budget ||
          completed_paths_ >= options_.path_budget) {
        timed_out = true;
        return;
      }
      SeState state = std::move(worklist_.back());
      worklist_.pop_back();
      run_path(std::move(state));
    }
  }

  bool guard_found = false;          // i64 eq/ne over (to, self)
  bool effect_without_auth = false;  // MissAuth evidence
  bool timed_out = false;

 private:
  void run_path(SeState s) {
    for (;;) {
      if (++steps_used_ > options_.step_budget) {
        timed_out = true;
        return;
      }
      if (s.pc >= fn_.body.size()) break;
      if (!step(s)) break;
    }
    ++completed_paths_;
  }

  /// Returns false when the path ended (return/end/trap/prune).
  bool step(SeState& s) {
    const Instr& ins = fn_.body[s.pc];
    const auto& info = wasm::op_info(ins.op);
    switch (ins.op) {
      case Opcode::Nop:
        ++s.pc;
        return true;
      case Opcode::Unreachable:
        return false;
      case Opcode::Block:
      case Opcode::Loop:
        s.ctrls.push_back(SeCtrl{s.pc, cmap_.end_idx[s.pc],
                                 ins.op == Opcode::Loop, s.stack.size(),
                                 arity(ins)});
        ++s.pc;
        return true;
      case Opcode::If: {
        const SymValue cond = pop(s);
        const auto end = cmap_.end_idx[s.pc];
        const auto els = cmap_.else_idx[s.pc];
        const auto enter_then = [&](SeState& st) {
          st.ctrls.push_back(
              SeCtrl{st.pc, end, false, st.stack.size(), arity(ins)});
          ++st.pc;
        };
        const auto enter_else = [&](SeState& st) {
          if (els != kNoMatch) {
            st.ctrls.push_back(
                SeCtrl{st.pc, end, false, st.stack.size(), arity(ins)});
            st.pc = els + 1;
          } else {
            st.pc = end + 1;
          }
        };
        if (cond.is_concrete()) {
          if (cond.concrete().value() != 0) {
            enter_then(s);
          } else {
            enter_else(s);
          }
          return true;
        }
        // Fork: queue the else side, continue with the then side.
        SeState other = s;
        const z3::expr c = env_.truthy(cond.expr(env_));
        other.constraints.push_back(!c);
        enter_else(other);
        if (feasible(other)) worklist_.push_back(std::move(other));
        s.constraints.push_back(c);
        enter_then(s);
        return feasible(s);
      }
      case Opcode::Else: {
        if (s.ctrls.empty()) return false;
        const SeCtrl c = s.ctrls.back();
        s.ctrls.pop_back();
        s.pc = c.end_idx + 1;
        return true;
      }
      case Opcode::End:
        if (s.ctrls.empty()) return false;  // function end
        s.ctrls.pop_back();
        ++s.pc;
        return true;
      case Opcode::Br:
        return unwind(s, ins.a);
      case Opcode::BrIf: {
        const SymValue cond = pop(s);
        if (cond.is_concrete()) {
          if (cond.concrete().value() != 0) return unwind(s, ins.a);
          ++s.pc;
          return true;
        }
        // Fork: queue the taken side, continue fall-through first (this
        // is what unrolls symbolic-bound loops until the budget dies).
        const z3::expr c = env_.truthy(cond.expr(env_));
        SeState taken = s;
        taken.constraints.push_back(c);
        if (feasible(taken) && unwind(taken, ins.a)) {
          worklist_.push_back(std::move(taken));
        }
        s.constraints.push_back(!c);
        ++s.pc;
        return feasible(s);
      }
      case Opcode::BrTable: {
        const SymValue idx = pop(s);
        std::uint32_t v = 0;
        if (const auto c = idx.concrete()) {
          v = static_cast<std::uint32_t>(*c);
        }
        const std::uint32_t depth =
            v < ins.table.size() ? ins.table[v] : ins.a;
        return unwind(s, depth);
      }
      case Opcode::Return:
        return false;
      case Opcode::Drop:
        pop(s);
        ++s.pc;
        return true;
      case Opcode::Select: {
        const SymValue cond = pop(s);
        const SymValue v2 = pop(s);
        const SymValue v1 = pop(s);
        if (cond.is_concrete()) {
          push(s, cond.concrete().value() != 0 ? v1 : v2);
        } else {
          push(s, SymValue{v1.type, z3::ite(env_.truthy(cond.expr(env_)),
                                            v1.expr(env_), v2.expr(env_))});
        }
        ++s.pc;
        return true;
      }
      case Opcode::LocalGet:
        push(s, s.locals.at(ins.a));
        ++s.pc;
        return true;
      case Opcode::LocalSet:
        s.locals.at(ins.a) = pop(s);
        ++s.pc;
        return true;
      case Opcode::LocalTee:
        s.locals.at(ins.a) = s.stack.back();
        ++s.pc;
        return true;
      case Opcode::GlobalGet:
        push(s, SymValue{ValType::I64, env_.fresh("se_glob", 64)});
        ++s.pc;
        return true;
      case Opcode::GlobalSet:
        pop(s);
        ++s.pc;
        return true;
      case Opcode::MemorySize:
        push(s, SymValue{ValType::I32, env_.fresh("se_memsz", 32)});
        ++s.pc;
        return true;
      case Opcode::MemoryGrow:
        pop(s);
        push(s, SymValue{ValType::I32, env_.fresh("se_memgrow", 32)});
        ++s.pc;
        return true;
      case Opcode::Call:
        return do_call(s, ins.a);
      case Opcode::CallIndirect: {
        pop(s);  // element index
        const FuncType& ft = module_.types.at(ins.a);
        for (std::size_t k = 0; k < ft.params.size(); ++k) pop(s);
        for (const auto r : ft.results) {
          push(s, fresh_of(r, "se_indirect"));
        }
        ++s.pc;
        return true;
      }
      default:
        break;
    }
    switch (info.cls) {
      case wasm::OpClass::Const:
        push(s, SymValue{info.result, ins.imm});
        ++s.pc;
        return true;
      case wasm::OpClass::Load: {
        const SymValue addr = pop(s);
        push(s, s.mem.load(addr.expr(env_) + env_.bv(ins.b, 32),
                           info.access_bytes,
                           info.sign_extend, info.result));
        ++s.pc;
        return true;
      }
      case wasm::OpClass::Store: {
        const SymValue value = pop(s);
        const SymValue addr = pop(s);
        s.mem.store(addr.expr(env_) + env_.bv(ins.b, 32), value.expr(env_),
                    info.access_bytes);
        ++s.pc;
        return true;
      }
      case wasm::OpClass::Unary: {
        const SymValue x = pop(s);
        push(s, symbolic::sym_unary(env_, ins.op, x));
        ++s.pc;
        return true;
      }
      case wasm::OpClass::Binary: {
        const SymValue rhs = pop(s);
        const SymValue lhs = pop(s);
        if (ins.op == Opcode::I64Eq || ins.op == Opcode::I64Ne) {
          const auto mentions = [&](const std::string& var) {
            return (!lhs.is_concrete() && contains_var(lhs.expr(env_), var)) ||
                   (!rhs.is_concrete() && contains_var(rhs.expr(env_), var));
          };
          if (mentions("se_to") && mentions("se_self")) guard_found = true;
        }
        push(s, symbolic::sym_binary(env_, ins.op, lhs, rhs));
        ++s.pc;
        return true;
      }
      default:
        return false;  // unsupported: abandon the path
    }
  }

  bool do_call(SeState& s, std::uint32_t target) {
    const FuncType& ft = module_.function_type(target);
    if (!module_.is_imported_function(target)) {
      // Defined callee: identity summary for unary helpers (keeps argument
      // taint through obfuscation decoders), fresh values otherwise.
      std::vector<SymValue> args;
      for (std::size_t k = 0; k < ft.params.size(); ++k) {
        args.push_back(pop(s));
      }
      if (ft.params.size() == 1 && ft.results.size() == 1 &&
          ft.params[0] == ft.results[0]) {
        push(s, args[0]);
      } else {
        for (const auto r : ft.results) push(s, fresh_of(r, "se_call"));
      }
      ++s.pc;
      return true;
    }

    const std::string& name = module_.function_import(target).field;
    std::vector<SymValue> args(ft.params.size(), SymValue{ValType::I32, 0});
    for (std::size_t k = ft.params.size(); k-- > 0;) args[k] = pop(s);

    if (name == "eosio_assert") {
      s.constraints.push_back(env_.truthy(args[0].expr(env_)));
      ++s.pc;
      return feasible(s);
    }
    if (name == "require_auth" || name == "require_auth2") {
      s.auth_seen = true;
    } else if (name == "has_auth") {
      s.auth_seen = true;
    } else if (name == "send_inline" || name == "db_store_i64" ||
               name == "db_update_i64" || name == "db_remove_i64") {
      if (!s.auth_seen) effect_without_auth = true;
    }
    for (const auto r : ft.results) {
      push(s, fresh_of(r, "se_" + name));
    }
    ++s.pc;
    return true;
  }

  bool unwind(SeState& s, std::uint32_t depth) {
    if (depth >= s.ctrls.size()) return false;  // function label: return
    const std::size_t target = s.ctrls.size() - 1 - depth;
    const SeCtrl c = s.ctrls[target];
    if (c.is_loop) {
      s.ctrls.resize(target + 1);
      shrink_to(s.stack, c.height);
      s.pc = c.opener + 1;
    } else {
      for (std::uint8_t i = 0; i < c.arity; ++i) {
        s.stack[c.height + i] = s.stack[s.stack.size() - c.arity + i];
      }
      shrink_to(s.stack, c.height + c.arity);
      s.ctrls.resize(target);
      s.pc = c.end_idx + 1;
    }
    return true;
  }

  bool feasible(const SeState& s) {
    // Only the most recent constraints are checked — EOSAFE-style
    // under-approximation that keeps per-branch query cost bounded (deep
    // paths therefore stay "feasible" and eat budget, feeding the
    // timeout-means-vulnerable rule). The solver is reused via push/pop.
    const std::size_t window = 8;
    const std::size_t begin =
        s.constraints.size() > window ? s.constraints.size() - window : 0;
    solver_.push();
    for (std::size_t i = begin; i < s.constraints.size(); ++i) {
      solver_.add(s.constraints[i]);
    }
    const auto verdict = solver_.check();
    solver_.pop();
    return verdict != z3::unsat;  // unknown counts as feasible
  }

  SymValue fresh_of(ValType t, const std::string& prefix) {
    return SymValue{t, env_.fresh(prefix, symbolic::width_of(t))};
  }

  static std::uint8_t arity(const Instr& ins) {
    return ins.a == wasm::kBlockVoid ? 0 : 1;
  }

  void push(SeState& s, SymValue v) { s.stack.push_back(std::move(v)); }

  SymValue pop(SeState& s) {
    if (s.stack.empty()) {
      // Malformed path bookkeeping; treat as an opaque value.
      return SymValue{ValType::I64, env_.fresh("se_underflow", 64)};
    }
    SymValue v = std::move(s.stack.back());
    s.stack.pop_back();
    return v;
  }

  Z3Env& env_;
  const Module& module_;
  const wasm::Function& fn_;
  wasm::ControlMap cmap_;
  const EosafeOptions& options_;
  std::size_t& steps_used_;
  std::vector<SeState> worklist_;
  std::size_t completed_paths_ = 0;
  z3::solver solver_;
};

/// Locate the eosponser by its transfer-shaped signature among the
/// call_indirect targets (works regardless of dispatcher obfuscation).
std::optional<std::uint32_t> locate_eosponser_by_signature(const Module& m) {
  const FuncType transfer_sig{
      {ValType::I64, ValType::I64, ValType::I64, ValType::I32, ValType::I32},
      {}};
  for (const auto f : table_image(m)) {
    if (f == kNoMatch) continue;
    if (m.function_type(f) == transfer_sig) return f;
  }
  return std::nullopt;
}

}  // namespace

std::vector<DispatchEntry> match_dispatcher(const Module& module) {
  const auto apply = module.find_export("apply");
  if (!apply || module.is_imported_function(*apply)) return {};
  const wasm::Function& fn = module.defined(*apply);
  const auto table = table_image(module);
  const std::uint64_t token = abi::name("eosio.token").value();

  std::vector<DispatchEntry> out;
  std::optional<DispatchEntry> cur;
  bool saw_compare = false;

  for (std::size_t i = 0; i < fn.body.size(); ++i) {
    const Instr& ins = fn.body[i];
    // The SDK's apply is loop-free and calls nothing before dispatching.
    if (ins.op == Opcode::Loop) return {};
    if (!saw_compare && ins.op == Opcode::Call &&
        !module.is_imported_function(ins.a)) {
      return {};
    }
    // Window: local.get 2; i64.const C; i64.ne; br_if
    if (i + 3 < fn.body.size() && ins.op == Opcode::LocalGet && ins.a == 2 &&
        fn.body[i + 1].op == Opcode::I64Const &&
        fn.body[i + 2].op == Opcode::I64Ne &&
        fn.body[i + 3].op == Opcode::BrIf) {
      saw_compare = true;
      cur = DispatchEntry{fn.body[i + 1].imm, 0, false};
      continue;
    }
    if (!cur) continue;
    // Code guard: a comparison of `code` (local 1) against eosio.token.
    if (ins.op == Opcode::LocalGet && ins.a == 1 &&
        i + 1 < fn.body.size() && fn.body[i + 1].op == Opcode::I64Const &&
        fn.body[i + 1].imm == token) {
      cur->has_code_guard = true;
    }
    // Target: i32.const j; call_indirect.
    if (ins.op == Opcode::CallIndirect && i > 0 &&
        fn.body[i - 1].op == Opcode::I32Const) {
      const auto elem = static_cast<std::uint32_t>(fn.body[i - 1].imm);
      if (elem < table.size() && table[elem] != kNoMatch) {
        cur->func_index = table[elem];
        out.push_back(*cur);
      }
      cur.reset();
    }
  }
  return out;
}

Eosafe::Eosafe(const util::Bytes& contract_wasm, abi::Abi abi,
               EosafeOptions options)
    : options_(options),
      module_(wasm::decode(contract_wasm)),
      abi_(std::move(abi)) {}

EosafeReport Eosafe::run() {
  EosafeReport report;
  Z3Env env;
  std::size_t steps_used = 0;

  // ---- Rollback: satisfiability-blind send_inline scan -----------------
  for (const auto& fn : module_.functions) {
    for (const auto& ins : fn.body) {
      if (ins.op == Opcode::Call && module_.is_imported_function(ins.a) &&
          module_.function_import(ins.a).field == "send_inline") {
        report.found.insert(VulnType::Rollback);
      }
    }
  }

  // ---- dispatcher heuristic ---------------------------------------------
  const auto entries = match_dispatcher(module_);
  report.dispatcher_matched = !entries.empty();
  const std::uint64_t transfer = abi::name("transfer").value();

  // ---- Fake EOS: pattern-level (needs the dispatcher) -------------------
  for (const auto& e : entries) {
    if (e.action_name == transfer && !e.has_code_guard) {
      report.found.insert(VulnType::FakeEos);
    }
  }

  // ---- Fake Notif: bounded SE in the eosponser --------------------------
  std::optional<std::uint32_t> eosponser =
      locate_eosponser_by_signature(module_);
  if (!eosponser) {
    for (const auto& e : entries) {
      if (e.action_name == transfer) eosponser = e.func_index;
    }
  }
  if (eosponser) {
    SeExplorer ex(env, module_, *eosponser, options_, steps_used);
    ex.explore({SymValue{ValType::I64, env.var("se_self", 64)},
                SymValue{ValType::I64, env.var("se_from", 64)},
                SymValue{ValType::I64, env.var("se_to", 64)},
                SymValue{ValType::I32, env.var("se_qty", 32)},
                SymValue{ValType::I32, env.var("se_memo", 32)}});
    report.timed_out |= ex.timed_out;
    if (ex.timed_out || !ex.guard_found) {
      report.found.insert(VulnType::FakeNotif);  // timeout => vulnerable
    }
  } else if (abi_.find(abi::Name(transfer)) != nullptr) {
    // An eosponser exists per the ABI but could not be analyzed: EOSAFE
    // reports the timeout default.
    report.timed_out = true;
    report.found.insert(VulnType::FakeNotif);
  }

  // ---- MissAuth: bounded SE per located non-transfer action -------------
  for (const auto& e : entries) {
    if (e.action_name == transfer) continue;
    const FuncType& ft = module_.function_type(e.func_index);
    std::vector<SymValue> params;
    params.push_back(SymValue{ValType::I64, env.var("se_self", 64)});
    for (std::size_t p = 1; p < ft.params.size(); ++p) {
      const unsigned bits = (ft.params[p] == ValType::I32 ||
                             ft.params[p] == ValType::F32)
                                ? 32
                                : 64;
      params.push_back(SymValue{
          ft.params[p], env.var("se_p" + std::to_string(p), bits)});
    }
    SeExplorer ex(env, module_, e.func_index, options_, steps_used);
    ex.explore(std::move(params));
    report.timed_out |= ex.timed_out;
    if (ex.effect_without_auth) {
      report.found.insert(VulnType::MissAuth);
    }
  }

  // BlockinfoDep is not supported by EOSAFE ("-" in the tables).
  return report;
}

}  // namespace wasai::baselines
