#include "symbolic/replayer.hpp"

#include <map>

#include "symbolic/ops.hpp"
#include "wasm/control.hpp"

namespace wasai::symbolic {

namespace {

using instrument::ActionTrace;
using instrument::EventKind;
using instrument::SiteTable;
using instrument::TraceEvent;
using wasm::FuncType;
using wasm::Instr;
using wasm::kNoMatch;
using wasm::Module;
using wasm::Opcode;
using wasm::ValType;

struct Ctrl {
  bool is_loop;
  std::size_t height;
  std::uint8_t arity;
};

/// vector<SymValue>::resize requires default construction (SymValue has
/// none); shrinking via erase avoids that.
void shrink_to(std::vector<SymValue>& v, std::size_t n) {
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(n), v.end());
}

struct Frame {
  std::uint32_t func_index;
  const wasm::Function* fn;
  std::vector<SymValue> locals;
  std::size_t stack_base;
  std::size_t ctrl_base;
  std::uint8_t result_arity;
};

struct PendingCall {
  std::uint32_t site;
  bool is_import;
  std::size_t api_index = 0;           // import: index into api_calls
  std::vector<SymValue> args;          // defined callee: invocation args
  const FuncType* type = nullptr;
};

class ReplayMachine {
 public:
  ReplayMachine(Z3Env& env, const Module& module, const SiteTable& sites,
                const ActionTrace& trace, const ActionCallSite& call_site,
                const abi::ActionDef& def,
                const std::vector<abi::ParamValue>& seed_params,
                ReplayObserver* observer)
      : env_(env),
        module_(module),
        sites_(sites),
        trace_(trace),
        call_site_(call_site),
        observer_(observer),
        mem_(env) {
    // Table image for resolving call_indirect targets.
    std::uint32_t table_size = 0;
    if (!module.tables.empty()) table_size = module.tables[0].limits.min;
    table_.assign(table_size, wasm::kNoMatch);
    for (const auto& seg : module.elements) {
      for (std::size_t i = 0; i < seg.func_indices.size(); ++i) {
        table_.at(seg.offset + i) = seg.func_indices[i];
      }
    }
    for (const auto& g : module.globals) {
      globals_.push_back(SymValue{g.type.type, g.init_bits});
    }
    InferredInputs inputs = infer_inputs(env_, mem_, def, seed_params,
                                         call_site.concrete_args);
    root_params_ = std::move(inputs.params);
    result_.bindings = std::move(inputs.bindings);
  }

  ReplayResult run() {
    for (std::size_t i = call_site_.begin_event; i < trace_.events.size();
         ++i) {
      if (done_) break;
      step(trace_.events[i], i == call_site_.begin_event);
      ++result_.events_replayed;
    }
    finalize();
    if (observer_ != nullptr) observer_->on_finish(mem_, globals_);
    return std::move(result_);
  }

 private:
  void step(const TraceEvent& ev, bool is_root_begin) {
    if (observer_ != nullptr && !frames_.empty() &&
        (ev.kind == EventKind::Instr || ev.kind == EventKind::CallDirect ||
         ev.kind == EventKind::CallIndirect)) {
      const auto& info = sites_.at(ev.site);
      ReplayStepView view;
      view.kind = ev.kind;
      view.site = ev.site;
      view.func_index = info.func_index;
      view.instr_index = info.instr_index;
      view.stack = stack_;
      view.frame_stack_base = frames_.back().stack_base;
      view.locals = frames_.back().locals;
      view.globals = globals_;
      observer_->on_event(view);
    }
    switch (ev.kind) {
      case EventKind::FunctionBegin:
        on_function_begin(ev, is_root_begin);
        break;
      case EventKind::Instr:
        on_instr(ev);
        break;
      case EventKind::CallDirect: {
        const Instr& ins = instr_at(ev.site);
        begin_call(ev.site, ins.a);
        break;
      }
      case EventKind::CallIndirect: {
        const std::uint32_t elem = ev.val(0).u32();
        if (elem >= table_.size() || table_[elem] == wasm::kNoMatch) {
          throw ReplayError("call_indirect to invalid element");
        }
        pop();  // the element index operand
        begin_call(ev.site, table_[elem]);
        break;
      }
      case EventKind::CallArg:
        break;  // used only by locate_action_call
      case EventKind::CallPost:
        on_call_post(ev);
        break;
    }
  }

  void on_function_begin(const TraceEvent& ev, bool is_root_begin) {
    const std::uint32_t func_index = ev.site;
    const wasm::Function& fn = module_.defined(func_index);
    const FuncType& ft = module_.types.at(fn.type_index);
    result_.function_chain.push_back(func_index);

    Frame frame;
    frame.func_index = func_index;
    frame.fn = &fn;
    frame.stack_base = stack_.size();
    frame.ctrl_base = ctrls_.size();
    frame.result_arity = static_cast<std::uint8_t>(ft.results.size());

    if (is_root_begin) {
      if (func_index != call_site_.func_index) {
        throw ReplayError("unexpected root function");
      }
      frame.locals = root_params_;
    } else {
      if (pending_.empty() || pending_.back().is_import) {
        throw ReplayError("function_begin without a pending call");
      }
      frame.locals = pending_.back().args;
    }
    if (frame.locals.size() != ft.params.size()) {
      throw ReplayError("argument count mismatch entering function " +
                        std::to_string(func_index));
    }
    for (const auto t : fn.locals) frame.locals.push_back(SymValue{t, 0});
    frames_.push_back(std::move(frame));
  }

  void on_instr(const TraceEvent& ev) {
    const Instr& ins = instr_at(ev.site);
    const auto& info = wasm::op_info(ins.op);
    switch (ins.op) {
      case Opcode::Nop:
        return;
      case Opcode::Unreachable:
        result_.trapped = true;
        done_ = true;
        return;
      case Opcode::Block:
      case Opcode::Loop:
        ctrls_.push_back(Ctrl{ins.op == Opcode::Loop, stack_.size(),
                              block_arity(ins)});
        return;
      case Opcode::If: {
        const SymValue cond = pop();
        const bool taken = ev.val(0).truthy();
        record_branch(ev.site, cond, taken);
        const bool has_else = else_index(ev.site) != kNoMatch;
        if (taken || has_else) {
          ctrls_.push_back(Ctrl{false, stack_.size(), block_arity(ins)});
        }
        return;
      }
      case Opcode::Else:
        if (ctrls_.empty()) throw ReplayError("else without control frame");
        ctrls_.pop_back();
        return;
      case Opcode::End:
        if (ctrls_.size() == cur().ctrl_base) {
          pop_frame();
        } else {
          ctrls_.pop_back();
        }
        return;
      case Opcode::Br:
        unwind(ins.a);
        return;
      case Opcode::BrIf: {
        const SymValue cond = pop();
        const bool taken = ev.val(0).truthy();
        record_branch(ev.site, cond, taken);
        if (taken) unwind(ins.a);
        return;
      }
      case Opcode::BrTable: {
        const SymValue idx = pop();
        const std::uint32_t v = ev.val(0).u32();
        if (depends_on_input(idx)) {
          PathStep step;
          step.site = ev.site;
          step.hold = (idx.expr(env_) == env_.bv(v, idx.bits()));
          step.can_flip = false;
          result_.path.push_back(std::move(step));
        }
        const std::uint32_t depth =
            v < ins.table.size() ? ins.table[v] : ins.a;
        unwind(depth);
        return;
      }
      case Opcode::Return:
        pop_frame();
        return;
      case Opcode::Drop:
        pop();
        return;
      case Opcode::Select: {
        const SymValue cond = pop();
        const SymValue v2 = pop();
        const SymValue v1 = pop();
        if (cond.is_concrete()) {
          push(cond.concrete().value() != 0 ? v1 : v2);
        } else {
          push(SymValue{v1.type, z3::ite(env_.truthy(cond.expr(env_)),
                                         v1.expr(env_), v2.expr(env_))
                                     .simplify()});
        }
        return;
      }
      case Opcode::LocalGet:
        push(local(ins.a));
        return;
      case Opcode::LocalSet:
        local(ins.a) = pop();
        return;
      case Opcode::LocalTee:
        local(ins.a) = top();
        return;
      case Opcode::GlobalGet:
        push(globals_.at(ins.a));
        return;
      case Opcode::GlobalSet:
        globals_.at(ins.a) = pop();
        return;
      case Opcode::MemorySize:
        // Table 3: balance the stack with the default EOSIO memory size.
        push(SymValue{ValType::I32, 4096});
        return;
      case Opcode::MemoryGrow:
        pop();
        push(SymValue{ValType::I32, 4096});
        return;
      default:
        break;
    }
    switch (info.cls) {
      case wasm::OpClass::Const:
        push(SymValue{info.result, ins.imm});
        return;
      case wasm::OpClass::Load: {
        pop();  // symbolic address expression (concrete one is in the trace)
        const std::uint64_t addr =
            static_cast<std::uint64_t>(ev.val(0).u32()) + ins.b;
        push(mem_.load(addr, info.access_bytes, info.sign_extend,
                       info.result));
        return;
      }
      case wasm::OpClass::Store: {
        const SymValue value = pop();
        pop();  // symbolic address
        const std::uint64_t addr =
            static_cast<std::uint64_t>(ev.val(0).u32()) + ins.b;
        mem_.store(addr, value, info.access_bytes);
        return;
      }
      case wasm::OpClass::Unary: {
        const SymValue x = pop();
        push(sym_unary(env_, ins.op, x));
        return;
      }
      case wasm::OpClass::Binary: {
        if ((ins.op == Opcode::I64Eq || ins.op == Opcode::I64Ne) &&
            ev.nvals == 2) {
          result_.i64_comparisons.push_back(
              ComparisonRecord{ev.site, ev.val(0).u64(), ev.val(1).u64()});
        }
        const SymValue rhs = pop();
        const SymValue lhs = pop();
        push(sym_binary(env_, ins.op, lhs, rhs));
        return;
      }
      default:
        throw ReplayError(std::string("unhandled instruction ") + info.name);
    }
  }

  void begin_call(std::uint32_t site, std::uint32_t target) {
    const FuncType& ft = module_.function_type(target);
    std::vector<SymValue> args;
    args.resize(ft.params.size(), SymValue{ValType::I32, 0});  // placeholder
    for (std::size_t k = ft.params.size(); k-- > 0;) args[k] = pop();

    PendingCall pc;
    pc.site = site;
    pc.type = &ft;
    if (module_.is_imported_function(target)) {
      pc.is_import = true;
      ApiCall api;
      api.name = module_.function_import(target).field;
      api.site = site;
      api.args = args;
      result_.api_calls.push_back(std::move(api));
      pc.api_index = result_.api_calls.size() - 1;
    } else {
      pc.is_import = false;
      pc.args = std::move(args);
    }
    pending_.push_back(std::move(pc));
  }

  void on_call_post(const TraceEvent& ev) {
    if (pending_.empty()) throw ReplayError("call_post without pending call");
    PendingCall pc = std::move(pending_.back());
    pending_.pop_back();
    if (pc.site != ev.site) throw ReplayError("call_post site mismatch");
    if (pc.is_import) {
      ApiCall& api = result_.api_calls[pc.api_index];
      api.completed = true;
      if (ev.nvals > 0) {
        api.ret = ev.val(0);
        push(lift(ev.val(0)));  // returns from library APIs (§3.4.3)
      }
      if (api.name == "eosio_assert") {
        // The assertion passed on this trace: its condition is a path
        // constraint that must keep holding (§3.4.4).
        add_assert_step(api, /*passed=*/true);
      }
    }
    // Defined callees already pushed their results when their frame ended.
  }

  void add_assert_step(const ApiCall& api, bool passed) {
    if (api.args.empty() || !depends_on_input(api.args[0])) return;
    const z3::expr cond = api.args[0].expr(env_);
    PathStep step;
    step.site = api.site;
    step.is_assert = true;
    if (passed) {
      step.hold = env_.truthy(cond);
      step.can_flip = false;
      step.taken = true;
    } else {
      step.flip = env_.truthy(cond);
      step.can_flip = true;
      step.taken = false;
    }
    result_.path.push_back(std::move(step));
  }

  void record_branch(std::uint32_t site, const SymValue& cond, bool taken) {
    if (!depends_on_input(cond)) return;
    PathStep step;
    step.site = site;
    step.taken = taken;
    const z3::expr t = env_.truthy(cond.expr(env_));
    step.hold = taken ? t : !t;
    step.flip = taken ? !t : t;
    step.can_flip = true;
    result_.path.push_back(std::move(step));
  }

  void pop_frame() {
    Frame& f = frames_.back();
    const std::uint8_t arity = f.result_arity;
    for (std::uint8_t i = 0; i < arity; ++i) {
      stack_[f.stack_base + i] = stack_[stack_.size() - arity + i];
    }
    shrink_to(stack_, f.stack_base + arity);
    ctrls_.resize(f.ctrl_base);
    frames_.pop_back();
    if (frames_.empty()) {
      result_.completed_scope = true;
      done_ = true;
    }
  }

  void unwind(std::uint32_t depth) {
    const auto target =
        static_cast<std::int64_t>(ctrls_.size()) - 1 - depth;
    if (target < static_cast<std::int64_t>(cur().ctrl_base)) {
      pop_frame();
      return;
    }
    const Ctrl c = ctrls_[static_cast<std::size_t>(target)];
    if (c.is_loop) {
      ctrls_.resize(static_cast<std::size_t>(target) + 1);
      shrink_to(stack_, c.height);
    } else {
      for (std::uint8_t i = 0; i < c.arity; ++i) {
        stack_[c.height + i] = stack_[stack_.size() - c.arity + i];
      }
      shrink_to(stack_, c.height + c.arity);
      ctrls_.resize(static_cast<std::size_t>(target));
    }
  }

  void finalize() {
    if (!done_) {
      // The trace ended inside the scope: the action trapped. If the last
      // pending call is a failed eosio_assert with a symbolic condition,
      // flipping it is the paper's assert rule: μ̂s[0] == 1 must hold.
      result_.trapped = true;
      if (!pending_.empty() && pending_.back().is_import) {
        ApiCall& api = result_.api_calls[pending_.back().api_index];
        if (api.name == "eosio_assert") add_assert_step(api, false);
      }
    }
    if (!trace_.completed) result_.trapped = true;
  }

  // ---- helpers --------------------------------------------------------

  /// Only conditions that depend on symbolic input become path steps.
  bool depends_on_input(const SymValue& v) {
    return !v.is_concrete() && has_variables(v.expr(env_));
  }

  const Instr& instr_at(std::uint32_t site) {
    const auto& info = sites_.at(site);
    const wasm::Function& fn = module_.defined(info.func_index);
    if (!frames_.empty() && frames_.back().func_index != info.func_index) {
      throw ReplayError("event does not belong to the executing function");
    }
    return fn.body.at(info.instr_index);
  }

  std::uint32_t else_index(std::uint32_t site) {
    const auto& info = sites_.at(site);
    auto [it, inserted] = cmaps_.try_emplace(info.func_index);
    if (inserted) {
      it->second =
          wasm::analyze_control(module_.defined(info.func_index).body);
    }
    return it->second.else_idx.at(info.instr_index);
  }

  Frame& cur() {
    if (frames_.empty()) throw ReplayError("no active frame");
    return frames_.back();
  }

  SymValue& local(std::uint32_t idx) {
    Frame& f = cur();
    if (idx >= f.locals.size()) throw ReplayError("local index out of range");
    return f.locals[idx];
  }

  void push(SymValue v) { stack_.push_back(std::move(v)); }

  SymValue pop() {
    if (stack_.size() <= (frames_.empty() ? 0 : cur().stack_base)) {
      throw ReplayError("symbolic stack underflow");
    }
    SymValue v = std::move(stack_.back());
    stack_.pop_back();
    return v;
  }

  SymValue& top() {
    if (stack_.empty()) throw ReplayError("symbolic stack empty");
    return stack_.back();
  }

  static std::uint8_t block_arity(const Instr& ins) {
    return ins.a == wasm::kBlockVoid ? 0 : 1;
  }

  Z3Env& env_;
  const Module& module_;
  const SiteTable& sites_;
  const ActionTrace& trace_;
  const ActionCallSite& call_site_;
  ReplayObserver* observer_;

  MemoryModel mem_;
  ReplayResult result_;
  std::vector<SymValue> stack_;
  std::vector<Ctrl> ctrls_;
  std::vector<Frame> frames_;
  std::vector<PendingCall> pending_;
  std::vector<SymValue> globals_;
  std::vector<std::uint32_t> table_;
  std::vector<SymValue> root_params_;
  std::map<std::uint32_t, wasm::ControlMap> cmaps_;
  bool done_ = false;
};

}  // namespace

std::optional<ActionCallSite> locate_action_call(
    const ActionTrace& trace, const SiteTable& sites, const Module& module,
    std::optional<std::size_t> expected_params) {
  const auto apply_index = module.find_export("apply");
  if (!apply_index) return std::nullopt;

  // Table image for call_indirect resolution.
  std::vector<std::uint32_t> table;
  if (!module.tables.empty()) {
    table.assign(module.tables[0].limits.min, wasm::kNoMatch);
  }
  for (const auto& seg : module.elements) {
    for (std::size_t i = 0; i < seg.func_indices.size(); ++i) {
      if (seg.offset + i < table.size()) {
        table[seg.offset + i] = seg.func_indices[i];
      }
    }
  }

  // Arguments captured for the current call site (call_pre events).
  std::vector<vm::Value> args;
  std::uint32_t args_site = wasm::kNoMatch;

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& ev = trace.events[i];
    if (ev.kind == EventKind::CallArg) {
      if (ev.site != args_site) {
        args.clear();
        args_site = ev.site;
      }
      args.push_back(ev.val(0));
      continue;
    }
    if (ev.kind != EventKind::CallDirect &&
        ev.kind != EventKind::CallIndirect) {
      continue;
    }
    const auto& info = sites.at(ev.site);
    if (info.func_index != *apply_index) continue;

    std::uint32_t target = wasm::kNoMatch;
    if (ev.kind == EventKind::CallIndirect) {
      const std::uint32_t elem = ev.val(0).u32();
      if (elem < table.size()) target = table[elem];
    } else {
      target = module.defined(info.func_index).body[info.instr_index].a;
    }
    if (target == wasm::kNoMatch || module.is_imported_function(target)) {
      continue;
    }
    if (expected_params &&
        module.function_type(target).params.size() != *expected_params) {
      continue;  // helper invoked from apply, not the action function
    }
    // Find the FunctionBegin of the callee right after this event.
    for (std::size_t j = i + 1; j < trace.events.size(); ++j) {
      const TraceEvent& next = trace.events[j];
      if (next.kind == EventKind::FunctionBegin) {
        if (next.site != target) break;
        ActionCallSite out;
        out.func_index = target;
        out.begin_event = j;
        out.concrete_args = (args_site == ev.site) ? args
                                                   : std::vector<vm::Value>{};
        return out;
      }
      if (next.kind != EventKind::CallArg) break;
    }
  }
  return std::nullopt;
}

ReplayResult replay(Z3Env& env, const Module& module, const SiteTable& sites,
                    const ActionTrace& trace, const ActionCallSite& site,
                    const abi::ActionDef& def,
                    const std::vector<abi::ParamValue>& seed_params,
                    ReplayObserver* observer, obs::Obs* obs) {
  const obs::Span span(obs, obs::span_name::kReplay);
  ReplayMachine machine(env, module, sites, trace, site, def, seed_params,
                        observer);
  ReplayResult result = machine.run();
  if (obs != nullptr) {
    obs->count("replay.runs");
    obs->count("replay.events", result.events_replayed);
  }
  return result;
}

}  // namespace wasai::symbolic
