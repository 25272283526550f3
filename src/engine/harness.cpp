#include "engine/harness.hpp"

#include "abi/serializer.hpp"
#include "chain/agents.hpp"
#include "chain/token.hpp"
#include "wasm/decoder.hpp"
#include "wasm/encoder.hpp"

namespace wasai::engine {

using abi::Asset;
using abi::eos;
using abi::ParamValue;
using chain::Action;
using chain::active;
using chain::token_create;
using chain::token_issue;
using chain::token_transfer;

ChainHarness::ChainHarness(const util::Bytes& contract_wasm, abi::Abi abi,
                           HarnessNames names, obs::Obs* obs,
                           bool vm_fastpath)
    : names_(names), abi_(std::move(abi)) {
  chain_.set_fastpath(vm_fastpath);
  original_ = wasm::decode(contract_wasm, obs);
  instrument::Instrumented inst = instrument::instrument(original_, obs);
  sites_ = std::move(inst.sites);
  site_index_ = scanner::SiteIndex(sites_, original_);

  chain_.set_observer(&sink_);
  chain_.set_obs(obs);
  chain_.create_account(names_.attacker);

  chain_.deploy_native(names_.token, std::make_shared<chain::TokenContract>());
  chain_.deploy_native(names_.fake_token,
                       std::make_shared<chain::TokenContract>());
  chain_.deploy_native(names_.fake_notif,
                       std::make_shared<chain::ForwardNotifAgent>(
                           names_.token, names_.victim));
  chain_.deploy_contract(names_.victim, wasm::encode(inst.module), abi_);

  // Funding: real EOS for the attacker and the victim's bankroll, fake EOS
  // for the counterfeit payload.
  auto must = [&](chain::TxResult r) {
    if (!r.success) throw util::UsageError("harness setup failed: " + r.error);
  };
  must(chain_.push_action(
      token_create(names_.token, names_.token, eos(4'000'000'000'0000ll))));
  must(chain_.push_action(token_issue(names_.token, names_.token,
                                      names_.attacker,
                                      eos(1'000'000'000'0000ll), "fund")));
  must(chain_.push_action(token_issue(names_.token, names_.token,
                                      names_.victim,
                                      eos(1'000'000'000'0000ll), "bankroll")));
  must(chain_.push_action(token_create(names_.fake_token, names_.fake_token,
                                       eos(4'000'000'000'0000ll))));
  must(chain_.push_action(token_issue(names_.fake_token, names_.fake_token,
                                      names_.attacker,
                                      eos(1'000'000'000'0000ll), "fake")));
  sink_.clear();  // setup traces are not part of any fuzzing run
}

std::pair<Asset, std::string> ChainHarness::sanitize(const Seed& seed) const {
  Asset quantity = eos(1'0000);
  std::string memo = "wasai";
  for (std::size_t i = 0; i < seed.params.size(); ++i) {
    if (const auto* a = std::get_if<Asset>(&seed.params[i])) {
      // Force a valid, affordable EOS quantity but keep the seed's amount
      // signal so solver-derived amounts survive.
      std::int64_t amount = a->amount;
      if (amount <= 0 || amount > 1'000'000'0000ll) amount = 1'0000;
      quantity = eos(amount);
    } else if (const auto* s = std::get_if<std::string>(&seed.params[i])) {
      memo = *s;
    }
  }
  return {quantity, memo};
}

chain::TxResult ChainHarness::execute(Action act) {
  sink_.clear();
  auto result = chain_.push_transaction(chain::Transaction{{std::move(act)}});
  // Deferred actions run as their own transactions (§2.3.5); their traces
  // accumulate in the same capture window.
  chain_.execute_deferred();
  return result;
}

abi::Name ChainHarness::sender_for(const Seed& seed) {
  if (!dynamic_senders_) return names_.attacker;
  for (const auto& p : seed.params) {
    if (const auto* n = std::get_if<abi::Name>(&p)) {
      if (!n->empty() && *n != names_.victim && *n != names_.token &&
          *n != names_.fake_token) {
        ensure_funded(*n);
        return *n;
      }
    }
  }
  return names_.attacker;
}

void ChainHarness::ensure_funded(abi::Name account) {
  if (!funded_.insert(account.value()).second) return;
  chain_.create_account(account);
  // Funding mints directly; the setup transactions' traces are dropped by
  // the next run's sink.clear().
  chain_.push_action(token_issue(names_.token, names_.token, account,
                                 eos(1'000'000'0000ll), "pool"));
}

chain::TxResult ChainHarness::run_valid_transfer(const Seed& seed) {
  const auto [quantity, memo] = sanitize(seed);
  const abi::Name sender = sender_for(seed);
  last_params_ = {sender, names_.victim, quantity, memo};
  return execute(
      token_transfer(names_.token, sender, names_.victim, quantity, memo));
}

chain::TxResult ChainHarness::run_direct_fake_eos(const Seed& seed) {
  // All four transfer parameters are attacker-controlled here.
  const abi::ActionDef def = abi::transfer_action_def();
  std::vector<ParamValue> params = seed.params;
  if (params.size() != def.params.size()) {
    params = {names_.attacker, names_.victim, eos(1'0000),
              std::string("direct")};
  }
  last_params_ = params;
  Action act;
  act.account = names_.victim;
  act.name = abi::name("transfer");
  act.authorization = {active(names_.attacker)};
  act.data = abi::pack(def, params);
  return execute(std::move(act));
}

chain::TxResult ChainHarness::run_fake_token_transfer(const Seed& seed) {
  const auto [quantity, memo] = sanitize(seed);
  last_params_ = {names_.attacker, names_.victim, quantity, memo};
  return execute(token_transfer(names_.fake_token, names_.attacker,
                                names_.victim, quantity, memo));
}

chain::TxResult ChainHarness::run_fake_notif_forward(const Seed& seed) {
  const auto [quantity, memo] = sanitize(seed);
  const abi::Name sender = sender_for(seed);
  // The victim sees the original transfer parameters: to == fake.notif.
  last_params_ = {sender, names_.fake_notif, quantity, memo};
  return execute(token_transfer(names_.token, sender, names_.fake_notif,
                                quantity, memo));
}

chain::TxResult ChainHarness::run_normal(const Seed& seed) {
  const abi::ActionDef* def = abi_.find(seed.action);
  if (def == nullptr) {
    throw util::UsageError("unknown action " + seed.action.to_string());
  }
  last_params_ = seed.params;
  Action act;
  act.account = names_.victim;
  act.name = seed.action;
  act.authorization = {active(names_.attacker)};
  if (dynamic_senders_) {
    // Also authorize the seed's name parameters (pool accounts the fuzzer
    // controls), so require_auth(<param>) guards can be satisfied.
    for (const auto& p : seed.params) {
      if (const auto* n = std::get_if<abi::Name>(&p)) {
        if (!n->empty() && *n != names_.victim) {
          ensure_funded(*n);
          act.authorization.push_back(active(*n));
        }
      }
    }
  }
  act.data = abi::pack(*def, seed.params);
  return execute(std::move(act));
}

void ChainHarness::accumulate_branches(
    std::unordered_set<std::uint64_t>& out) const {
  for (const auto* trace : victim_traces()) {
    for (const auto& ev : trace->events) {
      if (ev.kind != instrument::EventKind::Instr || ev.nvals != 1) continue;
      if (site_index_.site(ev.site).is_branch) {
        out.insert((static_cast<std::uint64_t>(ev.site) << 1) |
                   (ev.val(0).truthy() ? 1 : 0));
      }
    }
  }
}

}  // namespace wasai::engine
