// The vulnerability Scanner (§3.5): consumes per-transaction trace facts
// gathered by the fuzzing Engine under the adversary oracles of §2.3 and
// decides, per vulnerability class, whether an exploit event occurred.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "abi/name.hpp"
#include "scanner/facts.hpp"

namespace wasai::scanner {

enum class VulnType : std::uint8_t {
  FakeEos,
  FakeNotif,
  MissAuth,
  BlockinfoDep,
  Rollback,
};

const char* to_string(VulnType t);

/// Inverse of to_string; nullopt for unknown names. Used when campaign
/// records are parsed back from JSONL (checkpoint/resume).
std::optional<VulnType> vuln_from_string(std::string_view name);

/// How the transaction that produced a trace was constructed — the oracle
/// payloads of §2.3.
enum class PayloadMode : std::uint8_t {
  Normal,            // fuzzing seed invoked directly (code == receiver)
  ValidTransfer,     // real EOS via eosio.token (locates the eosponser id_e)
  DirectFakeEos,     // attacker invokes transfer@victim directly
  FakeTokenTransfer, // counterfeit EOS issued by fake.token
  FakeNotifForward,  // real transfer relayed through the fake.notif agent
};

struct Finding {
  VulnType type;
  std::string detail;
};

struct Report {
  std::set<VulnType> found;
  std::vector<Finding> findings;

  [[nodiscard]] bool has(VulnType t) const { return found.contains(t); }
};

class Scanner {
 public:
  struct Config {
    abi::Name victim;
    abi::Name token;       // eosio.token
    abi::Name fake_token;  // the counterfeit issuer
    abi::Name fake_notif;  // the notification relay agent
  };

  explicit Scanner(Config config) : config_(config) {}

  /// Feed one trace of the victim contract, produced under `mode`.
  /// `action` is the action name that reached the victim.
  void observe(PayloadMode mode, abi::Name action, const TraceFacts& facts,
               bool transaction_succeeded);

  /// The eosponser's function id, once a valid transfer located it.
  [[nodiscard]] std::optional<std::uint32_t> eosponser_id() const {
    return eosponser_id_;
  }

  [[nodiscard]] Report report() const;

 private:
  void add(VulnType type, std::string detail);

  Config config_;
  std::optional<std::uint32_t> eosponser_id_;
  bool eosponser_ran_on_fake_notif_ = false;
  bool fake_notif_guard_seen_ = false;
  Report report_;
};

}  // namespace wasai::scanner
