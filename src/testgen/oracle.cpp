#include "testgen/oracle.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "util/error.hpp"

#include "abi/serializer.hpp"
#include "corpus/contract_builder.hpp"
#include "eosvm/vm.hpp"
#include "instrument/instrumenter.hpp"
#include "instrument/trace_sink.hpp"
#include "symbolic/replayer.hpp"
#include "util/digest.hpp"
#include "wasm/decoder.hpp"
#include "wasm/encoder.hpp"
#include "wasm/validator.hpp"

namespace wasai::testgen {

namespace {

using symbolic::SymValue;
using vm::Value;
using wasm::ValType;

// --------------------------------------------------------------- test host

/// Deterministic host for oracle runs. Binding ids at/above kSinkBase are
/// delegated to the trace sink (the "wasai" hook imports of instrumented
/// modules); everything below dispatches by import name.
class TestgenHost : public vm::HostInterface {
 public:
  TestgenHost(std::uint64_t self, util::Bytes action_data,
              vm::HostInterface* sink)
      : self_(self), data_(std::move(action_data)), sink_(sink) {}

  std::uint32_t bind(std::string_view module, std::string_view field,
                     const wasm::FuncType& type) override {
    if (module != "env") {
      if (sink_ == nullptr) {
        throw util::ValidationError("testgen host: unexpected import module " +
                                    std::string(module));
      }
      return kSinkBase + sink_->bind(module, field, type);
    }
    names_.emplace_back(field);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  vm::HookSink* hook_sink(std::uint32_t binding,
                          std::uint32_t& sink_binding) override {
    // Forward hook resolution so the trace sink's imports dispatch directly
    // on the VM fast path, exactly as they do under the chain controller.
    if (binding >= kSinkBase && sink_ != nullptr) {
      return sink_->hook_sink(binding - kSinkBase, sink_binding);
    }
    return nullptr;
  }

  std::optional<Value> call_host(std::uint32_t binding,
                                 std::span<const Value> args,
                                 vm::Instance& instance) override {
    if (binding >= kSinkBase) {
      return sink_->call_host(binding - kSinkBase, args, instance);
    }
    const std::string& name = names_.at(binding);
    if (name == "eosio_assert") {
      if (!args[0].truthy()) {
        throw util::Trap("eosio_assert: " + read_cstring(instance,
                                                         args[1].u32()));
      }
      return std::nullopt;
    }
    if (name == "read_action_data") {
      const std::uint32_t ptr = args[0].u32();
      const auto len = std::min<std::size_t>(args[1].u32(), data_.size());
      if (len > 0) {
        auto dst = instance.memory_at(ptr, len);
        std::copy_n(data_.data(), len, dst.begin());
      }
      return Value::i32(static_cast<std::uint32_t>(len));
    }
    if (name == "action_data_size") {
      return Value::i32(static_cast<std::uint32_t>(data_.size()));
    }
    if (name == "current_receiver") return Value::i64(self_);
    if (name == "has_auth") return Value::i32(1);
    if (name == "tapos_block_num") return Value::i32(3141);
    if (name == "tapos_block_prefix") return Value::i32(59265);
    if (name == "current_time") return Value::i64(1'700'000'000'000'000ULL);
    if (name == "db_store_i64") return Value::i32(0);
    if (name == "db_find_i64" || name == "db_next_i64" ||
        name == "db_lowerbound_i64") {
      return Value::i32s(-1);
    }
    if (name == "db_get_i64") return Value::i32(0);
    // require_auth, require_auth2, require_recipient, send_inline,
    // send_deferred, db_update_i64, db_remove_i64, printi: void no-ops.
    return std::nullopt;
  }

 private:
  static constexpr std::uint32_t kSinkBase = 0x4000'0000;

  static std::string read_cstring(vm::Instance& instance, std::uint32_t ptr) {
    std::string out;
    for (std::uint32_t i = 0; i < 256; ++i) {
      const auto b = instance.memory_at(ptr + i, 1)[0];
      if (b == 0) break;
      out.push_back(static_cast<char>(b));
    }
    return out;
  }

  std::uint64_t self_;
  util::Bytes data_;
  vm::HostInterface* sink_;
  std::vector<std::string> names_;
};

// ----------------------------------------------------------- probe records

/// One probe snapshot. Values live in the owning Recorder's shared arena
/// (offset + length), not in per-record vectors: snapshotting every executed
/// instruction with three heap allocations apiece dominated oracle runtime.
struct ProbeRecord {
  std::uint32_t func = 0;
  std::uint32_t pc = 0;
  std::size_t frame_base = 0;
  std::size_t stack_off = 0;
  std::size_t stack_len = 0;
  std::size_t locals_off = 0;
  std::size_t locals_len = 0;
  std::size_t globals_off = 0;
};

class Recorder : public vm::ExecProbe {
 public:
  explicit Recorder(std::uint32_t num_globals) : num_globals_(num_globals) {}

  void on_instr(const vm::ExecProbeView& view, vm::Instance& inst) override {
    ProbeRecord r;
    r.func = view.func_index;
    r.pc = view.pc;
    r.frame_base = view.frame_stack_base;
    r.stack_off = arena_.size();
    r.stack_len = view.stack.size();
    arena_.insert(arena_.end(), view.stack.begin(), view.stack.end());
    r.locals_off = arena_.size();
    r.locals_len = view.locals.size();
    arena_.insert(arena_.end(), view.locals.begin(), view.locals.end());
    r.globals_off = arena_.size();
    for (std::uint32_t g = 0; g < num_globals_; ++g) {
      arena_.push_back(inst.global(g));
    }
    records.push_back(r);
  }

  [[nodiscard]] std::span<const Value> stack(const ProbeRecord& r) const {
    return {arena_.data() + r.stack_off, r.stack_len};
  }
  [[nodiscard]] std::span<const Value> locals(const ProbeRecord& r) const {
    return {arena_.data() + r.locals_off, r.locals_len};
  }
  [[nodiscard]] std::span<const Value> globals(const ProbeRecord& r) const {
    return {arena_.data() + r.globals_off, num_globals_};
  }

  std::vector<ProbeRecord> records;

 private:
  std::uint32_t num_globals_;
  std::vector<Value> arena_;
};

// ------------------------------------------------------------ concretizer

std::uint64_t mask_to(std::uint64_t v, unsigned bits) {
  return bits >= 64 ? v : (v & ((std::uint64_t{1} << bits) - 1));
}

std::uint64_t whole_binding_value(const abi::ParamValue& p) {
  if (const auto* n = std::get_if<abi::Name>(&p)) return n->value();
  if (const auto* u = std::get_if<std::uint64_t>(&p)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&p)) {
    return static_cast<std::uint64_t>(*i);
  }
  if (const auto* u32 = std::get_if<std::uint32_t>(&p)) return *u32;
  if (const auto* d = std::get_if<double>(&p)) {
    return std::bit_cast<std::uint64_t>(*d);
  }
  throw util::UsageError("testgen: pointer parameter bound as Whole");
}

std::uint64_t binding_value(const symbolic::InputBinding& b,
                            const std::vector<abi::ParamValue>& seed) {
  using Kind = symbolic::InputBinding::Kind;
  const abi::ParamValue& p = seed.at(b.param_index);
  switch (b.kind) {
    case Kind::Whole:
      return whole_binding_value(p);
    case Kind::AssetAmount:
      return static_cast<std::uint64_t>(std::get<abi::Asset>(p).amount);
    case Kind::AssetSymbol:
      return std::get<abi::Asset>(p).symbol.value();
    case Kind::StringLen:
      return std::get<std::string>(p).size();
    case Kind::StringByte:
      return static_cast<std::uint8_t>(
          std::get<std::string>(p).at(b.byte_index));
  }
  return 0;
}

/// Substitutes every input variable with its concrete seed value and
/// simplifies; a fully-concrete replay must reduce every state expression
/// to a numeral this way.
class Concretizer {
 public:
  Concretizer(symbolic::Z3Env& env,
              const std::vector<symbolic::InputBinding>& bindings,
              const std::vector<abi::ParamValue>& seed)
      : src_(env.ctx()), dst_(env.ctx()) {
    for (const auto& b : bindings) {
      src_.push_back(b.var);
      dst_.push_back(env.bv(mask_to(binding_value(b, seed),
                                    b.var.get_sort().bv_size()),
                            b.var.get_sort().bv_size()));
    }
  }

  std::optional<std::uint64_t> eval(const z3::expr& e) {
    z3::expr r = z3::expr(e).substitute(src_, dst_).simplify();
    if (!r.is_numeral()) return std::nullopt;
    return r.get_numeral_uint64();
  }

 private:
  z3::expr_vector src_;
  z3::expr_vector dst_;
};

// ----------------------------------------------------------- diff observer

/// A symbolic value whose comparison must wait for the input bindings
/// (available only once replay() returns).
struct PendingCompare {
  z3::expr e;
  std::uint64_t expected;
  unsigned bits;
  std::string where;
};

/// Pairs each replayed event with the corresponding concrete probe record.
/// Alignment is 1:1 and contiguous: the instrumenter hooks every original
/// instruction, so the replayed event stream mirrors the probe stream from
/// the action function's entry until it returns.
class DiffObserver : public symbolic::ReplayObserver {
 public:
  DiffObserver(symbolic::Z3Env& env, const Recorder& recorder,
               std::size_t start, std::size_t stack_offset, ActionCheck& check,
               std::vector<Divergence>& divergences)
      : env_(&env),
        recorder_(recorder),
        cursor_(start),
        stack_offset_(stack_offset),
        check_(&check),
        divergences_(&divergences) {}

  void on_event(const symbolic::ReplayStepView& view) override {
    if (cursor_ >= recorder_.records.size()) {
      diverge("replay event at site " + std::to_string(view.site) +
              " has no concrete counterpart");
      return;
    }
    const ProbeRecord& rec = recorder_.records[cursor_++];
    const auto stack = recorder_.stack(rec);
    const auto locals = recorder_.locals(rec);
    const auto globals = recorder_.globals(rec);
    ++check_->events_compared;
    const std::string at = "func " + std::to_string(view.func_index) +
                           " instr " + std::to_string(view.instr_index);
    if (rec.func != view.func_index || rec.pc != view.instr_index) {
      diverge("control divergence: concrete at func " +
              std::to_string(rec.func) + " instr " + std::to_string(rec.pc) +
              ", replay at " + at);
      return;
    }
    if (stack.size() < stack_offset_ ||
        stack.size() - stack_offset_ != view.stack.size()) {
      diverge(at + ": stack height " +
              std::to_string(stack.size() - stack_offset_) +
              " concrete vs " + std::to_string(view.stack.size()) + " replay");
      return;
    }
    if (rec.frame_base - stack_offset_ != view.frame_stack_base) {
      diverge(at + ": frame base mismatch");
      return;
    }
    for (std::size_t i = 0; i < view.stack.size(); ++i) {
      compare(view.stack[i], stack[stack_offset_ + i],
              at + " stack[" + std::to_string(i) + "]");
    }
    if (locals.size() != view.locals.size()) {
      diverge(at + ": locals count mismatch");
    } else {
      for (std::size_t i = 0; i < view.locals.size(); ++i) {
        compare(view.locals[i], locals[i],
                at + " local[" + std::to_string(i) + "]");
      }
    }
    if (globals.size() != view.globals.size()) {
      diverge(at + ": globals count mismatch");
    } else {
      for (std::size_t i = 0; i < view.globals.size(); ++i) {
        compare(view.globals[i], globals[i],
                at + " global[" + std::to_string(i) + "]");
      }
    }
  }

  void on_finish(const symbolic::MemoryModel& memory,
                 std::span<const SymValue> globals) override {
    for (const auto& [addr, b] : memory.tracked_bytes()) {
      final_bytes_.emplace_back(addr, b);
    }
    final_globals_.assign(globals.begin(), globals.end());
  }

  /// Deferred symbolic comparisons plus the final-state snapshot; resolved
  /// by the oracle once bindings are known.
  std::vector<PendingCompare> pending;
  std::vector<std::pair<std::uint64_t, symbolic::SymByte>> final_bytes_;
  std::vector<SymValue> final_globals_;

  void compare(const SymValue& sym, const Value& conc,
               const std::string& where) {
    ++check_->values_compared;
    const unsigned bits = sym.bits();
    const std::uint64_t expected = mask_to(conc.bits, bits);
    if (const auto v = sym.concrete()) {
      if (*v != expected) {
        diverge(where + ": concrete " + std::to_string(expected) +
                " vs replay " + std::to_string(*v));
      }
      return;
    }
    pending.push_back(PendingCompare{sym.expr(*env_), expected, bits, where});
  }

  void diverge(const std::string& what) {
    ++check_->divergences;
    if (divergences_->size() < kMaxReported) {
      divergences_->push_back(Divergence{check_->action, what});
    }
  }

 private:
  static constexpr std::size_t kMaxReported = 32;

  symbolic::Z3Env* env_;
  const Recorder& recorder_;
  std::size_t cursor_;
  std::size_t stack_offset_;
  ActionCheck* check_;
  std::vector<Divergence>* divergences_;
};

// ---------------------------------------------------------------- plumbing

std::uint32_t apply_index(const wasm::Module& m) {
  const auto idx = m.find_export("apply");
  if (!idx.has_value()) {
    throw util::UsageError("testgen: module has no apply export");
  }
  return *idx;
}

/// Execute apply(self, self, action) and report whether it completed.
bool run_apply(vm::Vm& vm, vm::Instance& inst, std::uint64_t self,
               std::uint64_t action, std::string* trap_message) {
  const Value args[3] = {Value::i64(self), Value::i64(self),
                         Value::i64(action)};
  try {
    vm.invoke(inst, apply_index(inst.module()), args);
    return true;
  } catch (const util::Trap& t) {
    if (trap_message != nullptr) *trap_message = t.what();
    return false;
  }
}

void check_action(const std::shared_ptr<const wasm::Module>& original,
                  const std::shared_ptr<const wasm::Module>& instrumented,
                  const std::shared_ptr<const vm::FlatModule>& instr_flat,
                  const instrument::SiteTable& sites, const ActionSpec& spec,
                  std::uint64_t self, OracleResult& out, util::Digest& digest) {
  ActionCheck check;
  check.action = spec.def.name.to_string();
  const util::Bytes data = abi::pack(spec.def, spec.seed);
  const auto num_globals =
      static_cast<std::uint32_t>(original->globals.size());

  // Run A: the ORIGINAL module under a per-instruction probe.
  TestgenHost host_a(self, data, nullptr);
  vm::Instance inst_a(original, host_a);
  Recorder recorder(num_globals);
  vm::Vm vm_a;
  vm_a.set_probe(&recorder);
  std::string trap_a;
  const bool ok_a = run_apply(vm_a, inst_a, self, spec.def.name.value(),
                              &trap_a);
  if (!ok_a) {
    out.error = "concrete execution trapped (" + check.action + "): " + trap_a;
    out.actions.push_back(check);
    return;
  }

  // Run B: the INSTRUMENTED module on the VM fast path, capturing the
  // trace. Run A stays on the legacy interpreter, so every oracle action is
  // also a legacy-vs-fastpath differential check.
  instrument::TraceSink sink;
  TestgenHost host_b(self, data, &sink);
  vm::Instance inst_b(instrumented, host_b, instr_flat);
  vm::Vm vm_b;
  sink.on_action_begin(abi::Name(self), abi::Name(self), spec.def.name);
  std::string trap_b;
  const bool ok_b = run_apply(vm_b, inst_b, self, spec.def.name.value(),
                              &trap_b);
  sink.on_action_end(ok_b);
  if (!ok_b) {
    out.error =
        "instrumented execution trapped (" + check.action + "): " + trap_b;
    out.actions.push_back(check);
    return;
  }
  const instrument::ActionTrace& trace = sink.actions().front();

  const auto site = symbolic::locate_action_call(trace, sites, *original,
                                                 1 + spec.def.params.size());
  if (!site.has_value()) {
    out.error = "locate_action_call failed (" + check.action + ")";
    out.actions.push_back(check);
    return;
  }

  // Alignment origin: the first probe record inside the action function.
  std::size_t start = recorder.records.size();
  for (std::size_t i = 0; i < recorder.records.size(); ++i) {
    if (recorder.records[i].func == site->func_index &&
        recorder.records[i].pc == 0) {
      start = i;
      break;
    }
  }
  if (start == recorder.records.size()) {
    out.error = "action entry not found in probe stream (" + check.action +
                ")";
    out.actions.push_back(check);
    return;
  }
  const std::size_t stack_offset = recorder.records[start].stack_len;

  symbolic::Z3Env env;
  DiffObserver observer(env, recorder, start, stack_offset, check,
                        out.divergences);
  symbolic::ReplayResult replayed;
  try {
    replayed = symbolic::replay(env, *original, sites, trace, *site, spec.def,
                                spec.seed, &observer);
  } catch (const symbolic::ReplayError& e) {
    out.error = std::string("replay failed (") + check.action +
                "): " + e.what();
    out.actions.push_back(check);
    return;
  }
  if (!replayed.completed_scope || replayed.trapped) {
    out.error = "replay did not complete the action scope (" + check.action +
                ")";
    out.actions.push_back(check);
    return;
  }

  // Resolve the deferred symbolic comparisons now that bindings exist.
  Concretizer conc(env, replayed.bindings, spec.seed);
  for (const auto& p : observer.pending) {
    const auto v = conc.eval(p.e);
    if (!v.has_value()) {
      ++check.unknown_values;
      if (out.divergences.size() < 32) {
        out.divergences.push_back(
            Divergence{check.action, p.where + ": not concretizable"});
      }
      continue;
    }
    if (*v != p.expected) {
      ++check.divergences;
      if (out.divergences.size() < 32) {
        out.divergences.push_back(Divergence{
            check.action, p.where + ": concrete " +
                              std::to_string(p.expected) + " vs replay " +
                              std::to_string(*v)});
      }
    }
  }

  // Final-state comparison: every byte the memory model tracked must match
  // the interpreter's final memory image, and globals must agree.
  for (const auto& [addr, b] : observer.final_bytes_) {
    ++check.values_compared;
    const auto v = b.term.has_value() ? conc.eval(*b.term)
                                      : std::optional<std::uint64_t>(b.value);
    const std::uint8_t actual = inst_a.memory_at(addr, 1)[0];
    if (!v.has_value()) {
      ++check.unknown_values;
      continue;
    }
    if (static_cast<std::uint8_t>(*v) != actual) {
      ++check.divergences;
      if (out.divergences.size() < 32) {
        out.divergences.push_back(Divergence{
            check.action, "final memory[" + std::to_string(addr) +
                              "]: concrete " + std::to_string(actual) +
                              " vs replay " + std::to_string(*v)});
      }
    }
  }
  if (observer.final_globals_.size() == num_globals) {
    const std::size_t already_resolved = observer.pending.size();
    for (std::uint32_t g = 0; g < num_globals; ++g) {
      observer.compare(observer.final_globals_[g], inst_a.global(g),
                       "final global[" + std::to_string(g) + "]");
    }
    // compare() queues symbolic values; resolve the newly queued tail.
    for (std::size_t i = already_resolved; i < observer.pending.size(); ++i) {
      const auto& p = observer.pending[i];
      const auto v = conc.eval(p.e);
      if (!v.has_value()) {
        ++check.unknown_values;
      } else if (*v != p.expected) {
        ++check.divergences;
        if (out.divergences.size() < 32) {
          out.divergences.push_back(Divergence{
              check.action, p.where + ": concrete " +
                                std::to_string(p.expected) + " vs replay " +
                                std::to_string(*v)});
        }
      }
    }
  } else {
    ++check.divergences;
    out.divergences.push_back(
        Divergence{check.action, "final globals count mismatch"});
  }

  // Fold run A's final state into the batch fingerprint.
  digest.u64(spec.def.name.value());
  digest.u64(recorder.records.size());
  for (std::uint32_t g = 0; g < num_globals; ++g) {
    digest.u64(inst_a.global(g).bits);
  }
  const auto mem = inst_a.memory_at(0, inst_a.memory_size());
  digest.bytes(mem);

  out.actions.push_back(check);
}

}  // namespace

OracleResult check_module(const Generated& gen) {
  OracleResult out;
  util::Digest digest;
  try {
    // (1) codec round-trip: encode → decode → encode must be byte-identical
    // and both sides must validate.
    const util::Bytes bytes = wasm::encode(gen.module);
    const wasm::Module decoded = wasm::decode(bytes);
    const util::Bytes bytes2 = wasm::encode(decoded);
    wasm::validate(gen.module);
    wasm::validate(decoded);
    out.roundtrip_ok = (bytes == bytes2);
    if (!out.roundtrip_ok) {
      out.error = "encode/decode round-trip is not byte-identical";
      return out;
    }

    // (2)+(3) concrete execution vs instrumented trace replay, per action.
    const instrument::Instrumented instrumented =
        instrument::instrument(gen.module);
    auto original = std::make_shared<const wasm::Module>(gen.module);
    auto instr_mod =
        std::make_shared<const wasm::Module>(instrumented.module);
    const auto instr_flat = vm::FlatModule::build(instr_mod);
    const std::uint64_t self = abi::name("testgen").value();
    for (const ActionSpec& action : gen.spec.actions) {
      check_action(original, instr_mod, instr_flat, instrumented.sites,
                   action, self, out, digest);
      if (!out.error.empty()) break;
    }
  } catch (const util::Error& e) {
    out.error = e.what();
  }
  out.state_digest = digest.value();
  return out;
}

OracleResult check_seed(std::uint64_t seed) {
  return check_module(generate(seed));
}

}  // namespace wasai::testgen
