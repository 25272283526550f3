// Tests for the feature extensions: offline trace files (§3.3.1), flip
// solving on verification-heavy contracts (§3.4.4) and the dynamic address
// pool (the paper's §4.2 future-work fix for address-gated contracts).
#include <gtest/gtest.h>

#include <cstdio>

#include "corpus/templates.hpp"
#include "engine/fuzzer.hpp"
#include "instrument/trace_io.hpp"
#include "wasai/wasai.hpp"

namespace wasai {
namespace {

using abi::name;
using instrument::ActionTrace;
using instrument::EventKind;
using instrument::TraceEvent;
using scanner::VulnType;
using util::Rng;

// ------------------------------------------------------------- trace files

std::vector<ActionTrace> sample_traces() {
  ActionTrace t1;
  t1.receiver = name("victim");
  t1.code = name("eosio.token");
  t1.action = name("transfer");
  t1.completed = true;
  TraceEvent e1;
  e1.kind = EventKind::FunctionBegin;
  e1.site = 21;
  t1.events.push_back(e1);
  TraceEvent e2;
  e2.kind = EventKind::Instr;
  e2.site = 7;
  e2.nvals = 2;
  e2.vals[0] = vm::Value::i32(1040);
  e2.vals[1] = vm::Value::i64(0xdeadbeef);
  t1.events.push_back(e2);
  ActionTrace t2;
  t2.receiver = name("victim");
  t2.code = name("victim");
  t2.action = name("withdraw");
  t2.completed = false;
  return {t1, t2};
}

TEST(TraceIo, RoundTripsTraces) {
  const auto traces = sample_traces();
  const auto bytes = instrument::serialize_traces(traces);
  const auto back = instrument::deserialize_traces(bytes);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].receiver, name("victim"));
  EXPECT_EQ(back[0].code, name("eosio.token"));
  EXPECT_TRUE(back[0].completed);
  ASSERT_EQ(back[0].events.size(), 2u);
  EXPECT_EQ(back[0].events[0].kind, EventKind::FunctionBegin);
  EXPECT_EQ(back[0].events[1].nvals, 2);
  EXPECT_EQ(back[0].events[1].vals[0], vm::Value::i32(1040));
  EXPECT_EQ(back[0].events[1].vals[1], vm::Value::i64(0xdeadbeef));
  EXPECT_FALSE(back[1].completed);
}

TEST(TraceIo, EmptyVectorRoundTrips) {
  const auto back =
      instrument::deserialize_traces(instrument::serialize_traces({}));
  EXPECT_TRUE(back.empty());
}

TEST(TraceIo, RejectsCorruptInput) {
  auto bytes = instrument::serialize_traces(sample_traces());
  bytes[0] ^= 0xff;  // magic
  EXPECT_THROW(instrument::deserialize_traces(bytes), util::DecodeError);
  bytes[0] ^= 0xff;
  bytes.push_back(0);  // trailing garbage
  EXPECT_THROW(instrument::deserialize_traces(bytes), util::DecodeError);
  util::Bytes truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_THROW(instrument::deserialize_traces(truncated), util::DecodeError);
}

TEST(TraceIo, FileSaveLoadRoundTrips) {
  const std::string path = "/tmp/wasai_trace_io_test.wtrc";
  instrument::save_traces(path, sample_traces());
  const auto back = instrument::load_traces(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].action, name("withdraw"));
  std::remove(path.c_str());
  EXPECT_THROW(instrument::load_traces(path), util::UsageError);
}

TEST(TraceIo, CapturedFuzzingTracesRoundTrip) {
  // End-to-end: real captured traces survive serialization with facts
  // intact.
  Rng rng(1);
  const auto sample = corpus::make_fake_eos_sample(rng, true);
  engine::Fuzzer fuzzer(sample.wasm, sample.abi,
                        engine::FuzzOptions{.iterations = 4});
  fuzzer.run();
  const auto& traces = fuzzer.harness().sink().actions();
  ASSERT_FALSE(traces.empty());
  const auto back =
      instrument::deserialize_traces(instrument::serialize_traces(traces));
  ASSERT_EQ(back.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    ASSERT_EQ(back[i].events.size(), traces[i].events.size());
    const auto f1 = scanner::extract_facts(traces[i],
                                           fuzzer.harness().sites(),
                                           fuzzer.harness().original());
    const auto f2 = scanner::extract_facts(back[i], fuzzer.harness().sites(),
                                           fuzzer.harness().original());
    ASSERT_EQ(f1.function_ids, f2.function_ids);
    ASSERT_EQ(f1.api_calls.size(), f2.api_calls.size());
  }
}

// ------------------------------------------------------------ flip solving

TEST(FlipSolving, FuzzerSolvesComplicatedVerification) {
  Rng rng(2);
  corpus::TemplateOptions o;
  o.complicated_verification = true;
  const auto sample = corpus::make_fake_eos_sample(rng, true, o);
  AnalysisOptions ao;
  ao.fuzz.iterations = 48;
  const auto result = analyze(sample.wasm, sample.abi, ao);
  EXPECT_TRUE(result.has(VulnType::FakeEos));
  EXPECT_GT(result.details.adaptive_seeds, 0u);
}

TEST(FlipSolving, RollbackVerdictsAcrossSeeds) {
  for (std::uint64_t s = 10; s < 14; ++s) {
    Rng rng_a(s), rng_b(s);
    const auto vul = corpus::make_rollback_sample(rng_a, true);
    const auto safe = corpus::make_rollback_sample(rng_b, false);
    AnalysisOptions ao;
    ao.fuzz.iterations = 36;
    ao.fuzz.rng_seed = s;
    EXPECT_TRUE(analyze(vul.wasm, vul.abi, ao).has(VulnType::Rollback))
        << "seed=" << s;
    EXPECT_FALSE(analyze(safe.wasm, safe.abi, ao).has(VulnType::Rollback))
        << "seed=" << s;
  }
}

// ------------------------------------------------------ dynamic addresses

TEST(AddressPool, AdminGatedRollbackDetectedWithPool) {
  // The §4.2 false negative: only the admin can reach the inline payout.
  // With the dynamic address pool the fuzzer creates and authorizes the
  // solved sender name, so the gated code becomes reachable.
  Rng rng(3);
  const auto sample = corpus::make_rollback_sample(rng, true, {}, true);

  AnalysisOptions without;
  without.fuzz.iterations = 60;
  EXPECT_FALSE(analyze(sample.wasm, sample.abi, without)
                   .has(VulnType::Rollback));

  AnalysisOptions with = without;
  with.fuzz.dynamic_address_pool = true;
  EXPECT_TRUE(analyze(sample.wasm, sample.abi, with).has(VulnType::Rollback));
}

TEST(AddressPool, DoesNotDisturbOtherVerdicts) {
  Rng rng(4);
  const auto safe = corpus::make_rollback_sample(rng, false);
  AnalysisOptions ao;
  ao.fuzz.iterations = 36;
  ao.fuzz.dynamic_address_pool = true;
  const auto result = analyze(safe.wasm, safe.abi, ao);
  EXPECT_FALSE(result.has(VulnType::Rollback));

  Rng rng2(5);
  const auto vul = corpus::make_fake_eos_sample(rng2, true);
  EXPECT_TRUE(analyze(vul.wasm, vul.abi, ao).has(VulnType::FakeEos));
}

}  // namespace
}  // namespace wasai
