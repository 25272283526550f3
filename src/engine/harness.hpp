// The Engine's blockchain harness (§3.1 "Initiation"): a local chain with
// eosio.token, the instrumented fuzzing target, and the adversary agent
// contracts the oracles need (fake.token, fake.notif).
#pragma once

#include <memory>
#include <set>
#include <unordered_set>

#include "chain/controller.hpp"
#include "engine/seed.hpp"
#include "instrument/instrumenter.hpp"
#include "instrument/trace_sink.hpp"
#include "scanner/facts.hpp"

namespace wasai::engine {

struct HarnessNames {
  abi::Name victim = abi::name("fuzztarget");
  abi::Name attacker = abi::name("attacker");
  abi::Name token = abi::name("eosio.token");
  abi::Name fake_token = abi::name("fake.token");
  abi::Name fake_notif = abi::name("fake.notif");
};

class ChainHarness {
 public:
  /// Instruments `contract_wasm` and deploys it along with eosio.token, a
  /// counterfeit token and the notification-forwarding agent. Funds the
  /// attacker with real and fake EOS and the victim with a bankroll.
  /// A non-null `obs` is handed to the decoder, instrumenter and chain so
  /// their phases land on the owning thread's track (null = off).
  /// `vm_fastpath` selects the VM execution path (see FuzzOptions).
  ChainHarness(const util::Bytes& contract_wasm, abi::Abi abi,
               HarnessNames names = {}, obs::Obs* obs = nullptr,
               bool vm_fastpath = true);
  /// Not copyable: the chain reports to this harness's own trace sink.
  ChainHarness(const ChainHarness&) = delete;
  ChainHarness& operator=(const ChainHarness&) = delete;

  [[nodiscard]] const HarnessNames& names() const { return names_; }
  [[nodiscard]] chain::Controller& chain() { return chain_; }
  [[nodiscard]] instrument::TraceSink& sink() { return sink_; }
  [[nodiscard]] const wasm::Module& original() const { return original_; }
  [[nodiscard]] const instrument::SiteTable& sites() const { return sites_; }
  /// Per-site metadata precomputed once at construction; the per-iteration
  /// consumers (branch accumulation, fact extraction) index it instead of
  /// re-deriving opcode info per event.
  [[nodiscard]] const scanner::SiteIndex& site_index() const {
    return site_index_;
  }
  [[nodiscard]] const abi::Abi& contract_abi() const { return abi_; }

  /// Effective transfer parameters used by the last payload run (the ρ⃗ the
  /// victim actually saw — needed to seed the replayer).
  [[nodiscard]] const std::vector<abi::ParamValue>& last_params() const {
    return last_params_;
  }

  // ---- payload runners (each clears the sink, pushes one transaction and
  // then drains deferred actions) --------------------------------------

  /// ① of Figure 1: a real EOS payment from the attacker to the victim.
  chain::TxResult run_valid_transfer(const Seed& seed);
  /// §2.3.1 exploit (a): invoke transfer@victim directly.
  chain::TxResult run_direct_fake_eos(const Seed& seed);
  /// §2.3.1 exploit (b): counterfeit EOS issued by fake.token.
  chain::TxResult run_fake_token_transfer(const Seed& seed);
  /// §2.3.2 exploit: real transfer to fake.notif, forwarded to the victim.
  chain::TxResult run_fake_notif_forward(const Seed& seed);
  /// Plain fuzzing seed: invoke seed.action on the victim directly.
  chain::TxResult run_normal(const Seed& seed);

  /// Victim traces captured by the last run.
  [[nodiscard]] std::vector<const instrument::ActionTrace*> victim_traces()
      const {
    return sink_.actions_of(names_.victim);
  }

  /// Fold the last run's distinct (branch site, direction) keys into `out`.
  void accumulate_branches(std::unordered_set<std::uint64_t>& out) const;

  /// Enable the dynamic address pool: payload senders follow the seed's
  /// `from` parameter, creating and funding local accounts on demand.
  void set_dynamic_senders(bool enabled) { dynamic_senders_ = enabled; }

 private:
  /// Sender account for a payload: the attacker, or (with the address pool
  /// enabled) the seed's `from` name, created and funded on first use.
  abi::Name sender_for(const Seed& seed);
  void ensure_funded(abi::Name account);
  chain::TxResult execute(chain::Action act);
  /// Sanitize a seed into a real-token transfer quantity/memo.
  std::pair<abi::Asset, std::string> sanitize(const Seed& seed) const;

  HarnessNames names_;
  chain::Controller chain_;
  instrument::TraceSink sink_;
  wasm::Module original_;
  instrument::SiteTable sites_;
  scanner::SiteIndex site_index_;
  abi::Abi abi_;
  std::vector<abi::ParamValue> last_params_;
  bool dynamic_senders_ = false;
  std::set<std::uint64_t> funded_;
};

}  // namespace wasai::engine
