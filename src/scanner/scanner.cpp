#include "scanner/scanner.hpp"

namespace wasai::scanner {

namespace {

bool is_auth_api(std::string_view name) {
  return name == "require_auth" || name == "require_auth2" ||
         name == "has_auth";
}

/// Side-effect APIs (the paper's Effects set): inline actions and database
/// writes.
bool is_effect_api(std::string_view name) {
  return name == "send_inline" || name == "db_store_i64" ||
         name == "db_update_i64" || name == "db_remove_i64";
}

}  // namespace

void Scanner::observe(PayloadMode mode, abi::Name action,
                      const TraceFacts& facts, bool transaction_succeeded) {
  // Locate id_e: the action function a *valid* EOS transfer lands in —
  // the first transfer-shaped function the trace enters (robust against
  // helper functions, e.g. obfuscation decoders, running first).
  if (mode == PayloadMode::ValidTransfer && !eosponser_id_) {
    if (!facts.transfer_shaped.empty()) {
      eosponser_id_ = facts.transfer_shaped.front();
    } else if (facts.function_ids.size() >= 2) {
      eosponser_id_ = facts.function_ids[1];
    }
  }

  // Fake EOS (§3.5): the eosponser executed on a counterfeit transfer. The
  // exploit only lands if the victim did not revert — a reverted
  // transaction leaves no effect for the attacker to profit from.
  if (transaction_succeeded &&
      (mode == PayloadMode::DirectFakeEos ||
       mode == PayloadMode::FakeTokenTransfer) &&
      eosponser_id_ && facts.ran_function(*eosponser_id_)) {
    add(VulnType::FakeEos,
        mode == PayloadMode::DirectFakeEos
            ? "eosponser invoked directly without a code check"
            : "eosponser accepted tokens issued by " +
                  config_.fake_token.to_string());
  }

  // Fake Notif: remember whether the eosponser ran on a forwarded
  // notification, and whether the guard comparison (to == _self, i.e.
  // fake.notif vs victim) ever executed. Verdict at report() time — the
  // guard may only be reached by later, deeper seeds.
  if (transaction_succeeded && mode == PayloadMode::FakeNotifForward &&
      eosponser_id_ && facts.ran_function(*eosponser_id_)) {
    eosponser_ran_on_fake_notif_ = true;
  }
  for (const auto& cmp : facts.i64_comparisons) {
    if (cmp.matches(config_.fake_notif.value(), config_.victim.value())) {
      fake_notif_guard_seen_ = true;
    }
  }

  // BlockinfoDep: any executed call to a blockchain-state API.
  if (facts.called_api("tapos_block_num") ||
      facts.called_api("tapos_block_prefix")) {
    add(VulnType::BlockinfoDep,
        "blockchain state used as a randomness source in " +
            action.to_string());
  }

  // Rollback: an inline action was issued (§3.5: #send_inline ∈ id⃗).
  if (facts.called_api("send_inline")) {
    add(VulnType::Rollback,
        "inline action issued by " + action.to_string() +
            " can be reverted by the caller");
  }

  // MissAuth: a side effect before any permission check, on a directly
  // invoked (non-eosponser) action.
  if (mode == PayloadMode::Normal &&
      action != abi::name("transfer")) {
    bool auth_seen = false;
    for (const auto& api : facts.api_calls) {
      if (is_auth_api(api.name)) auth_seen = true;
      if (is_effect_api(api.name) && !auth_seen) {
        add(VulnType::MissAuth,
            "side effect (" + api.name + ") in " + action.to_string() +
                " without prior authorization check");
        break;
      }
    }
  }
}

Report Scanner::report() const {
  Report out = report_;
  // Fake Notif verdict: the eosponser ran on a forged notification and no
  // guard comparison was observed before timeout.
  if (eosponser_ran_on_fake_notif_ && !fake_notif_guard_seen_) {
    out.found.insert(VulnType::FakeNotif);
    out.findings.push_back(
        Finding{VulnType::FakeNotif,
                "eosponser accepted a notification forwarded by " +
                    config_.fake_notif.to_string() +
                    " without validating the payee"});
  }
  return out;
}

void Scanner::add(VulnType type, std::string detail) {
  if (report_.found.insert(type).second) {
    report_.findings.push_back(Finding{type, std::move(detail)});
  }
}

const char* to_string(VulnType t) {
  switch (t) {
    case VulnType::FakeEos:
      return "Fake EOS";
    case VulnType::FakeNotif:
      return "Fake Notif";
    case VulnType::MissAuth:
      return "MissAuth";
    case VulnType::BlockinfoDep:
      return "BlockinfoDep";
    case VulnType::Rollback:
      return "Rollback";
  }
  return "?";
}

std::optional<VulnType> vuln_from_string(std::string_view name) {
  for (const VulnType t :
       {VulnType::FakeEos, VulnType::FakeNotif, VulnType::MissAuth,
        VulnType::BlockinfoDep, VulnType::Rollback}) {
    if (name == to_string(t)) return t;
  }
  return std::nullopt;
}

}  // namespace wasai::scanner
