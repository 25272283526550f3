// Baseline behaviour tests: EOSFuzzer's blind fuzzing + flawed oracles and
// EOSAFE's dispatcher heuristic, bounded symbolic execution and
// timeout/satisfiability blind spots — each failure mode the paper
// documents must reproduce here.
#include <gtest/gtest.h>

#include "baselines/eosafe.hpp"
#include "baselines/eosfuzzer.hpp"
#include "corpus/obfuscator.hpp"
#include "corpus/templates.hpp"
#include "wasm/decoder.hpp"

namespace wasai::baselines {
namespace {

using corpus::DispatcherStyle;
using corpus::RollbackSafeVariant;
using corpus::Sample;
using corpus::TemplateOptions;
using scanner::VulnType;
using util::Rng;

EosFuzzerReport fuzz(const Sample& s, int iterations = 36) {
  EosFuzzer fuzzer(s.wasm, s.abi, EosFuzzerOptions{iterations, 3});
  return fuzzer.run();
}

EosafeReport analyze(const Sample& s) {
  Eosafe eosafe(s.wasm, s.abi);
  return eosafe.run();
}

// ------------------------------------------------------------- EOSFuzzer

TEST(EosFuzzer, DetectsPlainFakeEos) {
  Rng rng(1);
  EXPECT_TRUE(fuzz(corpus::make_fake_eos_sample(rng, true))
                  .has(VulnType::FakeEos));
}

TEST(EosFuzzer, PatchedFakeEosNotFlagged) {
  Rng rng(2);
  EXPECT_FALSE(fuzz(corpus::make_fake_eos_sample(rng, false))
                   .has(VulnType::FakeEos));
}

TEST(EosFuzzer, MissesGatedFakeEos) {
  // The assert gate demands an exact amount; random seeds never pass.
  Rng rng(3);
  TemplateOptions o;
  o.assert_gates = 1;
  EXPECT_FALSE(fuzz(corpus::make_fake_eos_sample(rng, true, o))
                   .has(VulnType::FakeEos));
}

TEST(EosFuzzer, HoneypotIsAFalsePositive) {
  // "it reports positive no matter which action is invoked after
  // receiving fake EOS" (§4.2).
  Rng rng(4);
  EXPECT_TRUE(fuzz(corpus::make_fake_eos_sample(rng, false, {}, true))
                  .has(VulnType::FakeEos));
}

TEST(EosFuzzer, AllFailedCampaignFlagsFakeEos) {
  // Under complicated verification nothing executes successfully, and the
  // flawed oracle turns that into a positive (§4.3: 50% precision).
  Rng rng(5);
  TemplateOptions o;
  o.complicated_verification = true;
  const auto report = fuzz(corpus::make_fake_eos_sample(rng, false, o));
  EXPECT_FALSE(report.any_success);
  EXPECT_TRUE(report.has(VulnType::FakeEos));
}

TEST(EosFuzzer, DetectsPlainFakeNotif) {
  Rng rng(6);
  EXPECT_TRUE(fuzz(corpus::make_fake_notif_sample(rng, true))
                  .has(VulnType::FakeNotif));
}

TEST(EosFuzzer, PatchedFakeNotifNotFlagged) {
  Rng rng(7);
  EXPECT_FALSE(fuzz(corpus::make_fake_notif_sample(rng, false))
                   .has(VulnType::FakeNotif));
}

TEST(EosFuzzer, MissesGatedFakeNotif) {
  Rng rng(8);
  TemplateOptions o;
  o.assert_gates = 1;
  EXPECT_FALSE(fuzz(corpus::make_fake_notif_sample(rng, true, o))
                   .has(VulnType::FakeNotif));
}

TEST(EosFuzzer, NoMissAuthOrRollbackOracle) {
  Rng rng(9);
  EXPECT_FALSE(fuzz(corpus::make_missauth_sample(rng, true))
                   .has(VulnType::MissAuth));
  Rng rng2(10);
  EXPECT_FALSE(fuzz(corpus::make_rollback_sample(rng2, true))
                   .has(VulnType::Rollback));
}

TEST(EosFuzzer, CannotReachEqualityGatedBlockinfo) {
  Rng rng(11);
  EXPECT_FALSE(fuzz(corpus::make_blockinfo_sample(rng, true))
                   .has(VulnType::BlockinfoDep));
}

// ---------------------------------------------------------------- EOSAFE

const DispatchEntry* find_transfer(const std::vector<DispatchEntry>& entries) {
  for (const auto& e : entries) {
    if (e.action_name == abi::name("transfer").value()) return &e;
  }
  return nullptr;
}

TEST(Eosafe, DispatcherHeuristicMatchesStandardStyle) {
  Rng rng(20);
  const auto s = corpus::make_fake_eos_sample(rng, true);
  const auto entries = match_dispatcher(wasm::decode(s.wasm));
  EXPECT_EQ(entries.size(), 2u);  // transfer + ping
  const auto* transfer = find_transfer(entries);
  ASSERT_NE(transfer, nullptr);
  EXPECT_FALSE(transfer->has_code_guard);
}

TEST(Eosafe, DispatcherHeuristicSeesCodeGuard) {
  Rng rng(21);
  const auto s = corpus::make_fake_eos_sample(rng, false);
  const auto entries = match_dispatcher(wasm::decode(s.wasm));
  const auto* transfer = find_transfer(entries);
  ASSERT_NE(transfer, nullptr);
  EXPECT_TRUE(transfer->has_code_guard);
}

TEST(Eosafe, DispatcherHeuristicFailsOnDiverseStyles) {
  Rng rng(22);
  TemplateOptions obscured;
  obscured.style = DispatcherStyle::Obscured;
  EXPECT_TRUE(match_dispatcher(
                  wasm::decode(
                      corpus::make_fake_eos_sample(rng, true, obscured).wasm))
                  .empty());
  TemplateOptions direct;
  direct.style = DispatcherStyle::DirectCall;
  EXPECT_TRUE(match_dispatcher(
                  wasm::decode(
                      corpus::make_fake_eos_sample(rng, true, direct).wasm))
                  .empty());
}

TEST(Eosafe, DispatcherHeuristicFailsOnObfuscatedBinary) {
  Rng rng(23);
  const auto s = corpus::make_fake_eos_sample(rng, true);
  EXPECT_FALSE(match_dispatcher(wasm::decode(s.wasm)).empty());
  EXPECT_TRUE(
      match_dispatcher(wasm::decode(corpus::obfuscate(s.wasm))).empty());
}

TEST(Eosafe, FakeEosDetectedOnlyWithStandardDispatcher) {
  Rng rng(24);
  EXPECT_TRUE(analyze(corpus::make_fake_eos_sample(rng, true))
                  .has(VulnType::FakeEos));
  TemplateOptions obscured;
  obscured.style = DispatcherStyle::Obscured;
  EXPECT_FALSE(analyze(corpus::make_fake_eos_sample(rng, true, obscured))
                   .has(VulnType::FakeEos));
  EXPECT_FALSE(analyze(corpus::make_fake_eos_sample(rng, false))
                   .has(VulnType::FakeEos));
}

TEST(Eosafe, HoneypotCodeCheckCountsAsGuard) {
  Rng rng(25);
  EXPECT_FALSE(analyze(corpus::make_fake_eos_sample(rng, false, {}, true))
                   .has(VulnType::FakeEos));
}

TEST(Eosafe, ObfuscationZeroesFakeEosAndMissAuth) {
  Rng rng(26);
  auto fe = corpus::make_fake_eos_sample(rng, true);
  fe.wasm = corpus::obfuscate(fe.wasm);
  EXPECT_FALSE(analyze(fe).has(VulnType::FakeEos));

  Rng rng2(27);
  auto ma = corpus::make_missauth_sample(rng2, true);
  ma.wasm = corpus::obfuscate(ma.wasm);
  EXPECT_FALSE(analyze(ma).has(VulnType::MissAuth));
}

TEST(Eosafe, FakeNotifGuardRecognised) {
  Rng rng(28);
  EXPECT_FALSE(analyze(corpus::make_fake_notif_sample(rng, false))
                   .has(VulnType::FakeNotif));
  EXPECT_TRUE(analyze(corpus::make_fake_notif_sample(rng, true))
                  .has(VulnType::FakeNotif));
}

TEST(Eosafe, MemoScanLoopTimesOutAndFlagsFakeNotif) {
  // The memo checksum loop has a symbolic bound; the explorer unrolls it
  // until the budget dies, and timeout means vulnerable — a false
  // positive on a safe contract.
  Rng rng(29);
  TemplateOptions o;
  o.memo_scan = true;
  const auto report = analyze(corpus::make_fake_notif_sample(rng, false, o));
  EXPECT_TRUE(report.timed_out);
  EXPECT_TRUE(report.has(VulnType::FakeNotif));
}

TEST(Eosafe, FakeNotifGuardSurvivesObfuscation) {
  // Guard detection tracks arguments through the unary decoder's identity
  // summary, so (like the paper's Table 5) Fake Notif accuracy holds.
  Rng rng(30);
  auto safe = corpus::make_fake_notif_sample(rng, false);
  safe.wasm = corpus::obfuscate(safe.wasm);
  EXPECT_FALSE(analyze(safe).has(VulnType::FakeNotif));
  auto vul = corpus::make_fake_notif_sample(rng, true);
  vul.wasm = corpus::obfuscate(vul.wasm);
  EXPECT_TRUE(analyze(vul).has(VulnType::FakeNotif));
}

TEST(Eosafe, MissAuthDetectedOnStandardDispatcher) {
  Rng rng(31);
  EXPECT_TRUE(analyze(corpus::make_missauth_sample(rng, true))
                  .has(VulnType::MissAuth));
  EXPECT_FALSE(analyze(corpus::make_missauth_sample(rng, false))
                   .has(VulnType::MissAuth));
}

TEST(Eosafe, RollbackScanIsSatisfiabilityBlind) {
  Rng rng(32);
  EXPECT_TRUE(analyze(corpus::make_rollback_sample(rng, true))
                  .has(VulnType::Rollback));
  // Deferred payout: no send_inline instruction at all.
  EXPECT_FALSE(analyze(corpus::make_rollback_sample(rng, false))
                   .has(VulnType::Rollback));
  // Inline payout behind an unsatisfiable branch: flagged anyway (FP).
  EXPECT_TRUE(analyze(corpus::make_rollback_sample(
                          rng, false, {}, false,
                          RollbackSafeVariant::UnreachableInline))
                  .has(VulnType::Rollback));
  // Admin-gated inline payout: flagged (EOSAFE's recall advantage).
  EXPECT_TRUE(analyze(corpus::make_rollback_sample(rng, true, {}, true))
                  .has(VulnType::Rollback));
}

TEST(Eosafe, NoBlockinfoOracle) {
  Rng rng(33);
  EXPECT_FALSE(analyze(corpus::make_blockinfo_sample(rng, true))
                   .has(VulnType::BlockinfoDep));
}

}  // namespace
}  // namespace wasai::baselines
