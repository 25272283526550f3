// Campaign-runner tests: fault isolation over a mixed corpus (valid,
// truncated, garbage, missing-apply contracts), per-contract deadlines,
// determinism across worker counts, directory scanning and the JSONL
// record schema.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "abi/abi_json.hpp"
#include "campaign/report.hpp"
#include "campaign/resume.hpp"
#include "corpus/templates.hpp"
#include "testgen/generator.hpp"
#include "util/jsonl.hpp"
#include "wasm/builder.hpp"
#include "wasm/encoder.hpp"

namespace wasai::campaign {
namespace {

using corpus::Sample;
using util::Rng;

ContractInput from_sample(std::string id, const Sample& sample) {
  ContractInput input;
  input.id = std::move(id);
  input.wasm = sample.wasm;
  input.abi_json = abi::abi_to_json(sample.abi);
  return input;
}

/// A structurally valid module that exports no `apply` — deployment must
/// reject it with a ValidationError.
ContractInput missing_apply_input(const Sample& donor_abi) {
  wasm::ModuleBuilder builder;
  builder.add_memory(1);
  const auto noop =
      builder.add_func(wasm::FuncType{{}, {}}, {},
                       {wasm::Instr(wasm::Opcode::End)}, "noop");
  builder.export_func("noop", noop);
  ContractInput input;
  input.id = "no-apply";
  input.wasm = wasm::encode(std::move(builder).build());
  input.abi_json = abi::abi_to_json(donor_abi.abi);
  return input;
}

CampaignOptions quick_options(int iterations = 12) {
  CampaignOptions options;
  options.fuzz.iterations = iterations;
  options.fuzz.rng_seed = 7;
  return options;
}

std::vector<ContractInput> mixed_corpus() {
  Rng rng(11);
  const auto vulnerable = corpus::make_fake_eos_sample(rng, true);
  const auto safe = corpus::make_missauth_sample(rng, false);

  std::vector<ContractInput> inputs;
  inputs.push_back(from_sample("fake-eos", vulnerable));

  ContractInput truncated;
  truncated.id = "truncated";
  truncated.wasm.assign(vulnerable.wasm.begin(),
                        vulnerable.wasm.begin() +
                            static_cast<long>(vulnerable.wasm.size() / 2));
  truncated.abi_json = abi::abi_to_json(vulnerable.abi);
  inputs.push_back(std::move(truncated));

  ContractInput garbage;
  garbage.id = "garbage";
  const std::string junk = "this is not wasm";
  garbage.wasm.assign(junk.begin(), junk.end());
  garbage.abi_json = R"({"structs":[],"actions":[],"tables":[]})";
  inputs.push_back(std::move(garbage));

  inputs.push_back(missing_apply_input(safe));
  inputs.push_back(from_sample("miss-auth-safe", safe));

  ContractInput bad_abi = from_sample("bad-abi", vulnerable);
  bad_abi.id = "bad-abi";
  bad_abi.abi_json = "{not json";
  inputs.push_back(std::move(bad_abi));

  ContractInput missing_file;
  missing_file.id = "missing-file";
  missing_file.wasm_path = "/nonexistent/contract.wasm";
  missing_file.abi_path = "/nonexistent/contract.abi";
  inputs.push_back(std::move(missing_file));
  return inputs;
}

// ------------------------------------------------------- fault isolation

TEST(Campaign, MixedCorpusFinishesWithPerContractRecords) {
  const auto inputs = mixed_corpus();
  CampaignRunner runner(quick_options());
  const auto report = runner.run(inputs);

  ASSERT_EQ(report.records.size(), inputs.size());
  // Records stay in input order regardless of scheduling.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(report.records[i].id, inputs[i].id);
  }

  const auto& by_id = [&](const std::string& id) -> const ContractRecord& {
    for (const auto& record : report.records) {
      if (record.id == id) return record;
    }
    throw util::UsageError("no record " + id);
  };

  EXPECT_EQ(by_id("fake-eos").status, ContractStatus::Ok);
  EXPECT_TRUE(by_id("fake-eos").scan.has(scanner::VulnType::FakeEos));
  EXPECT_GT(by_id("fake-eos").transactions, 0u);
  EXPECT_GT(by_id("fake-eos").timings.total_ms, 0.0);

  EXPECT_EQ(by_id("truncated").status, ContractStatus::BadInput);
  EXPECT_FALSE(by_id("truncated").error.empty());
  EXPECT_EQ(by_id("garbage").status, ContractStatus::BadInput);
  EXPECT_EQ(by_id("no-apply").status, ContractStatus::BadInput);
  EXPECT_NE(by_id("no-apply").error.find("apply"), std::string::npos);
  EXPECT_EQ(by_id("bad-abi").status, ContractStatus::BadInput);
  EXPECT_EQ(by_id("missing-file").status, ContractStatus::IoError);
  EXPECT_EQ(by_id("miss-auth-safe").status, ContractStatus::Ok);
  EXPECT_TRUE(by_id("miss-auth-safe").scan.findings.empty());

  // Malformed inputs are deterministic faults: exactly one attempt each.
  EXPECT_EQ(by_id("truncated").attempts, 1);

  const auto& summary = report.summary;
  EXPECT_EQ(summary.contracts, inputs.size());
  EXPECT_EQ(summary.ok, 2u);
  EXPECT_EQ(summary.bad_input, 4u);
  EXPECT_EQ(summary.io_error, 1u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(summary.vulnerable, 1u);
}

// ------------------------------------------------- generated-module corpus

TEST(Campaign, GeneratedCorpusRunsWithFaultIsolation) {
  // Random well-typed contracts from the testgen generator must survive the
  // campaign pipeline end to end; a deliberately-truncated generated module
  // goes through the fault-isolation path without poisoning its neighbours.
  util::Rng seeds(555);
  std::vector<ContractInput> inputs;
  for (int i = 0; i < 3; ++i) {
    const auto gen = testgen::generate(seeds.next());
    ContractInput input;
    input.id = "testgen-" + std::to_string(i);
    input.wasm = wasm::encode(gen.module);
    input.abi_json = abi::abi_to_json(gen.abi);
    inputs.push_back(std::move(input));
  }
  const auto bad = testgen::generate(seeds.next());
  ContractInput truncated;
  truncated.id = "testgen-truncated";
  const auto bad_bytes = wasm::encode(bad.module);
  truncated.wasm.assign(bad_bytes.begin(),
                        bad_bytes.begin() +
                            static_cast<long>(bad_bytes.size() / 3));
  truncated.abi_json = abi::abi_to_json(bad.abi);
  inputs.push_back(std::move(truncated));

  CampaignRunner runner(quick_options(6));
  const auto report = runner.run(inputs);
  ASSERT_EQ(report.records.size(), inputs.size());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(report.records[i].status, ContractStatus::Ok)
        << report.records[i].id << ": " << report.records[i].error;
    EXPECT_GT(report.records[i].transactions, 0u) << report.records[i].id;
  }
  EXPECT_EQ(report.records[3].status, ContractStatus::BadInput);
  EXPECT_FALSE(report.records[3].error.empty());
  EXPECT_EQ(report.summary.ok, 3u);
  EXPECT_EQ(report.summary.bad_input, 1u);
  EXPECT_EQ(report.summary.failed, 0u);
}

// ------------------------------------------------------------- deadlines

TEST(Campaign, DeadlinePreemptsSlowContract) {
  Rng rng(3);
  const auto sample = corpus::make_fake_eos_sample(rng, true);
  // An absurd iteration budget that could only finish via preemption.
  CampaignOptions options = quick_options(1000000);
  options.deadline_ms = 120;

  CampaignRunner runner(options);
  const auto report = runner.run({from_sample("slow", sample)});
  ASSERT_EQ(report.records.size(), 1u);
  const auto& record = report.records[0];
  EXPECT_EQ(record.status, ContractStatus::Deadline);
  EXPECT_TRUE(record.completed());  // partial results survive
  EXPECT_GT(record.iterations_run, 0);
  EXPECT_LT(record.iterations_run, 1000000);
  // The loop unwound near the deadline, not after the full budget.
  EXPECT_LT(record.timings.total_ms, 5000.0);
  EXPECT_EQ(report.summary.deadline, 1u);
}

TEST(Campaign, CancelTokenExpiresOnDeadlineAndOnRequest) {
  const auto token = util::CancelToken::with_deadline(0);
  EXPECT_FALSE(token->expired());
  token->cancel();
  EXPECT_TRUE(token->expired());
  EXPECT_EQ(token->remaining_ms(), 0.0);

  const auto expired = util::CancelToken::with_deadline(0.0001);
  // A sub-microsecond budget lapses essentially immediately.
  while (!expired->expired()) {
  }
  EXPECT_TRUE(expired->expired());
}

// ----------------------------------------------------------- determinism

TEST(Campaign, FindingsAreIdenticalForAnyJobCount) {
  const auto inputs = mixed_corpus();

  const auto findings_dump = [&](unsigned jobs) {
    CampaignOptions options = quick_options();
    options.jobs = jobs;
    CampaignRunner runner(options);
    const auto report = runner.run(inputs);
    std::string out;
    for (const auto& record : report.records) {
      out += util::dump_json(findings_to_json(record));
      out += '\n';
    }
    return out;
  };

  const std::string serial = findings_dump(1);
  EXPECT_EQ(findings_dump(4), serial);
  EXPECT_EQ(findings_dump(3), serial);
}

// ------------------------------------------------------ directory intake

TEST(Campaign, ScanDirectoryPairsAndSorts) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "wasai_campaign_scan_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto touch = [&](const std::string& name) {
    std::ofstream(dir / name) << "x";
  };
  touch("b.wasm");
  touch("b.abi");
  touch("a.wasm");
  touch("a.abi");
  touch("unpaired.wasm");  // no .abi: skipped
  touch("stray.abi");      // no .wasm: skipped

  const auto inputs = scan_directory((dir).string());
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0].id, "a");
  EXPECT_EQ(inputs[1].id, "b");
  EXPECT_FALSE(inputs[0].wasm_path.empty());
  EXPECT_FALSE(inputs[0].abi_path.empty());
  fs::remove_all(dir);

  EXPECT_THROW(scan_directory((dir / "nope").string()), util::UsageError);
}

// ------------------------------------------------------------ JSONL shape

TEST(Campaign, JsonlRecordsParseWithExpectedSchema) {
  const auto inputs = mixed_corpus();
  CampaignRunner runner(quick_options());
  const auto report = runner.run(inputs);

  std::ostringstream out;
  const std::size_t lines = write_records_jsonl(out, report);
  EXPECT_EQ(lines, inputs.size());

  std::istringstream in(out.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    const auto record = util::parse_json(line);
    for (const char* key :
         {"id", "status", "attempts", "timings", "iterations",
          "transactions", "branches", "solver", "coverage_curve",
          "findings", "custom_findings"}) {
      EXPECT_NE(record.find(key), nullptr) << "missing " << key;
    }
    EXPECT_NE(record.at("timings").find("fuzz_ms"), nullptr);
    EXPECT_NE(record.at("solver").find("unknown"), nullptr);
    ++parsed;
  }
  EXPECT_EQ(parsed, inputs.size());

  const auto summary = summary_to_json(report.summary);
  EXPECT_EQ(summary.at("contracts").as_number(),
            static_cast<double>(inputs.size()));
  EXPECT_NE(summary.find("findings_by_type"), nullptr);
  // The summary line round-trips through the parser too.
  EXPECT_NO_THROW(util::parse_json(util::dump_json(summary)));
}

// ------------------------------------------------------ graceful shutdown

TEST(Campaign, CancelTokenParentTripsDerivedDeadlineTokens) {
  const auto parent = util::CancelToken::with_deadline(0);
  const auto child = util::CancelToken::with_deadline(60000, parent);
  EXPECT_FALSE(child->expired());
  EXPECT_GT(child->remaining_ms(), 0.0);
  parent->cancel();  // campaign-wide signal trips every derived token
  EXPECT_TRUE(child->expired());
  EXPECT_EQ(child->remaining_ms(), 0.0);
}

TEST(Campaign, ShutdownDrainsInFlightAndLeavesRestUnclaimed) {
  Rng rng(11);
  const auto sample = corpus::make_fake_eos_sample(rng, true);
  std::vector<ContractInput> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(from_sample("c" + std::to_string(i), sample));
  }

  const auto cancel = util::CancelToken::with_deadline(0);
  CampaignOptions options = quick_options();
  options.jobs = 1;
  options.deadline_ms = 60000;
  options.cancel = cancel;
  std::atomic<int> calls{0};
  options.analyze_fn = [&](const util::Bytes&, const abi::Abi&,
                           const AnalysisOptions& analysis) {
    ++calls;
    // The shutdown signal arrives mid-contract...
    cancel->cancel();
    // ...and is visible through the per-contract deadline token, which is
    // parented to the campaign token.
    EXPECT_NE(analysis.fuzz.cancel, nullptr);
    EXPECT_TRUE(analysis.fuzz.cancel->expired());
    AnalysisResult result;
    result.details.deadline_hit = true;  // loop unwound via the token
    return result;
  };

  CampaignRunner runner(options);
  const auto report = runner.run(inputs);
  // The in-flight contract drained as `interrupted`; the worker claimed no
  // further contracts, and unclaimed contracts produce no record at all, so
  // a --resume re-analyzes everything that is not final.
  EXPECT_EQ(calls.load(), 1);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].status, ContractStatus::Interrupted);
  EXPECT_FALSE(report.records[0].completed());
  EXPECT_FALSE(report.records[0].resumable_skip());
  EXPECT_FALSE(report.records[0].digest.empty());
  EXPECT_EQ(report.summary.interrupted, 1u);
  EXPECT_EQ(report.summary.contracts, 1u);
}

// --------------------------------------------------- watchdog escalation

TEST(Campaign, WatchdogAbandonsWedgedContractAndPoolDrains) {
  // One contract wedges inside (stub) analysis, ignoring its cancel token
  // until the latch opens — a stand-in for a Z3 query that ignores its soft
  // timeout. The watchdog must record it as `hung` after
  // deadline_ms * hung_grace and spawn a replacement worker so the rest of
  // the corpus still drains.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> wedge_exited{0};
  };
  const auto latch = std::make_shared<Latch>();

  const util::Bytes wedge_bytes = {0xde, 0xad};
  const std::string abi_json = R"({"structs":[],"actions":[],"tables":[]})";
  std::vector<ContractInput> inputs;
  ContractInput wedge;
  wedge.id = "wedge";
  wedge.wasm = wedge_bytes;
  wedge.abi_json = abi_json;
  inputs.push_back(std::move(wedge));
  for (int i = 0; i < 3; ++i) {
    ContractInput quick;
    quick.id = "quick-" + std::to_string(i);
    quick.wasm = {static_cast<std::uint8_t>(i + 1)};
    quick.abi_json = abi_json;
    inputs.push_back(std::move(quick));
  }

  CampaignOptions options;
  options.jobs = 2;
  options.deadline_ms = 50;
  options.hung_grace = 2;
  options.watchdog_poll_ms = 10;
  options.analyze_fn = [latch, wedge_bytes](const util::Bytes& wasm,
                                            const abi::Abi&,
                                            const AnalysisOptions&) {
    if (wasm == wedge_bytes) {
      std::unique_lock<std::mutex> lock(latch->mu);
      latch->cv.wait(lock, [&] { return latch->open; });
      latch->wedge_exited.store(1);
    }
    return AnalysisResult{};
  };

  CampaignRunner runner(options);
  const auto report = runner.run(inputs);

  // run() returned while the wedged thread was still blocked: the watchdog
  // wrote the hung record and retired the seat.
  ASSERT_EQ(report.records.size(), inputs.size());
  const auto& hung = report.records[0];
  EXPECT_EQ(hung.id, "wedge");
  EXPECT_EQ(hung.status, ContractStatus::Hung);
  EXPECT_FALSE(hung.resumable_skip());  // a resume re-analyzes it
  EXPECT_FALSE(hung.digest.empty());    // published before analysis began
  EXPECT_NE(hung.error.find("watchdog"), std::string::npos);
  for (std::size_t i = 1; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].status, ContractStatus::Ok)
        << report.records[i].id;
  }
  EXPECT_EQ(report.summary.hung, 1u);
  EXPECT_EQ(report.summary.ok, inputs.size() - 1);

  // Unblock the zombie so it stands down before the test ends. (Its state —
  // including the latch — is shared_ptr-held, so this is tidiness, not a
  // correctness requirement.)
  {
    std::lock_guard<std::mutex> lock(latch->mu);
    latch->open = true;
  }
  latch->cv.notify_all();
  while (latch->wedge_exited.load() == 0) {
    std::this_thread::yield();
  }
  // The zombie holds the last shared_ptr to the campaign state; give it
  // time to unwind past the latch and release it, so the sanitizer jobs'
  // leak checker never sees the (deliberately) detached thread mid-exit.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
}

// ----------------------------------------------------- checkpoint/resume

TEST(Campaign, ContentDigestIsStableAndKeyedByBothInputs) {
  const util::Bytes wasm = {1, 2, 3};
  EXPECT_EQ(content_digest(wasm, "abi"), content_digest(wasm, "abi"));
  EXPECT_EQ(content_digest(wasm, "abi").size(), 16u);
  EXPECT_NE(content_digest(wasm, "abi"), content_digest(wasm, "ab"));
  EXPECT_NE(content_digest(wasm, "abi"), content_digest({1, 2}, "abi"));
  // The 0x00 separator keeps (wasm, abi) splits from colliding.
  EXPECT_NE(content_digest({1, 2, 3}, "abi"),
            content_digest({1, 2, 3, 'a'}, "bi"));
}

TEST(Campaign, RecordJsonRoundTripsByteIdentically) {
  const auto inputs = mixed_corpus();
  CampaignRunner runner(quick_options());
  const auto report = runner.run(inputs);
  for (const auto& record : report.records) {
    const std::string dumped = util::dump_json(record_to_json(record));
    const ContractRecord reparsed =
        record_from_json(util::parse_json(dumped));
    EXPECT_EQ(util::dump_json(record_to_json(reparsed)), dumped)
        << record.id;
  }
}

TEST(Campaign, RecordsWithLaneCountsStillParseAndResume) {
  namespace fs = std::filesystem;
  // A record line as written while the fuzz loop still had lanes: it
  // carries the lane count and per-lane transaction keys.
  const std::string old_line =
      R"({"adaptive_seeds":2,"attempts":1,"branches":4,)"
      R"("coverage_curve":[[0,0.784095,4],[1,3.841647,4]],)"
      R"("custom_findings":[],"digest":"f904e73caec8376f","findings":)"
      R"([{"detail":"eosponser invoked directly without a code check",)"
      R"("type":"Fake EOS"}],"fuzz_shards":2,"id":"fake-eos",)"
      R"("iterations":2,"replay_failures":0,"replays":2,)"
      R"("shard_transactions":[1,1],"solver":{"cache_evictions":0,)"
      R"("cache_hits":1,"cache_misses":1,"queries":1,"sat":2,"sat_late":0,)"
      R"("unknown":0,"unsat":0},"static":{"analyze_ms":0.321955,)"
      R"("branch_classes":{"constant":0,"taint_reachable":4,)"
      R"("unreachable":0,"untainted":1},"converged":true,"flips_pruned":0,)"
      R"("gate_violations":0,"oracles":{"BlockinfoDep":false,)"
      R"("Fake EOS":true,"Fake Notif":true,"MissAuth":true,)"
      R"("Rollback":false},"passes":1,"replays_skipped":0},"status":"ok",)"
      R"("timings":{"fuzz_ms":4.170547,"init_ms":15.85761,)"
      R"("load_ms":0.269716,"solver_ms":2.485635,"total_ms":22.495347},)"
      R"("transactions":2,"transactions_per_sec":479.5534015082434})";

  // It still parses.
  const ContractRecord old = record_from_json(util::parse_json(old_line));
  EXPECT_EQ(old.id, "fake-eos");
  EXPECT_EQ(old.digest, "f904e73caec8376f");
  EXPECT_EQ(old.status, ContractStatus::Ok);
  EXPECT_EQ(old.transactions, 2u);
  EXPECT_TRUE(old.scan.has(scanner::VulnType::FakeEos));

  // The resume merge keeps the line byte for byte and skips its contract.
  const fs::path path =
      fs::temp_directory_path() / "wasai_resume_lane_counts_test.jsonl";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << old_line << '\n';
  }
  const ResumeState state = load_resume_state(path.string());
  fs::remove(path);
  EXPECT_FALSE(state.torn_tail);
  EXPECT_EQ(state.dropped, 0u);
  ASSERT_EQ(state.kept_lines.size(), 1u);
  EXPECT_EQ(state.kept_lines[0], old_line);
  EXPECT_EQ(state.skip_digests.count(old.digest), 1u);

  // New records emit neither key.
  Rng rng(11);
  const auto sample = corpus::make_fake_eos_sample(rng, true);
  CampaignRunner runner(quick_options());
  const auto report = runner.run({from_sample("fake-eos", sample)});
  ASSERT_EQ(report.records.size(), 1u);
  const auto fresh = record_to_json(report.records[0]);
  EXPECT_EQ(fresh.find("fuzz_shards"), nullptr);
  EXPECT_EQ(fresh.find("shard_transactions"), nullptr);
}

TEST(Campaign, ResumeAfterTornStreamMergesWithoutReanalysis) {
  namespace fs = std::filesystem;
  const auto inputs = mixed_corpus();

  // Uninterrupted baseline run -> full record stream.
  CampaignRunner runner(quick_options());
  const auto full = runner.run(inputs);
  std::ostringstream full_stream;
  write_records_jsonl(full_stream, full);
  std::vector<std::string> full_lines;
  {
    std::istringstream in(full_stream.str());
    for (std::string line; std::getline(in, line);) {
      full_lines.push_back(line);
    }
  }
  ASSERT_EQ(full_lines.size(), inputs.size());

  // Simulated crash: the first 4 records survived, the 5th was torn
  // mid-write (no terminating newline, half a document).
  const fs::path checkpoint =
      fs::temp_directory_path() / "wasai_resume_test.jsonl";
  {
    std::ofstream out(checkpoint, std::ios::trunc | std::ios::binary);
    for (std::size_t i = 0; i < 4; ++i) out << full_lines[i] << '\n';
    out << full_lines[4].substr(0, full_lines[4].size() / 2);
  }

  const ResumeState state = load_resume_state(checkpoint.string());
  EXPECT_TRUE(state.torn_tail);
  ASSERT_EQ(state.kept_records.size(), 4u);  // ok + 3x bad-input: all final
  EXPECT_EQ(state.dropped, 0u);
  EXPECT_EQ(state.skip_digests.size(), 4u);
  // Kept lines are the previous stream's bytes, not a re-serialization.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(state.kept_lines[i], full_lines[i]);
  }

  // Resumed run: recorded digests are skipped without re-analysis.
  CampaignOptions options = quick_options();
  options.skip_digests = state.skip_digests;
  CampaignRunner resumed_runner(options);
  const auto resumed = resumed_runner.run(inputs);
  EXPECT_EQ(resumed.summary.skipped, 4u);
  ASSERT_EQ(resumed.records.size(), inputs.size() - 4);

  // Merged stream = kept lines + new records: every contract exactly once.
  std::set<std::string> ids;
  for (const auto& record : state.kept_records) ids.insert(record.id);
  for (const auto& record : resumed.records) {
    EXPECT_TRUE(ids.insert(record.id).second)
        << record.id << " analyzed twice";
  }
  EXPECT_EQ(ids.size(), inputs.size());

  // The re-analyzed records' findings are byte-identical to the baseline
  // run's (analysis is deterministic; only timings/obs may differ).
  const auto baseline_findings = [&](const std::string& id) {
    for (const auto& record : full.records) {
      if (record.id == id) {
        return util::dump_json(findings_to_json(record));
      }
    }
    throw util::UsageError("no baseline record " + id);
  };
  for (const auto& record : resumed.records) {
    EXPECT_EQ(util::dump_json(findings_to_json(record)),
              baseline_findings(record.id));
  }

  // The merged summary matches the uninterrupted run on every outcome
  // count (wall_ms/phases are per-run and excluded by summarize_records).
  std::vector<ContractRecord> merged = state.kept_records;
  merged.insert(merged.end(), resumed.records.begin(),
                resumed.records.end());
  const CampaignSummary merged_summary = summarize_records(merged);
  EXPECT_EQ(merged_summary.contracts, full.summary.contracts);
  EXPECT_EQ(merged_summary.ok, full.summary.ok);
  EXPECT_EQ(merged_summary.bad_input, full.summary.bad_input);
  EXPECT_EQ(merged_summary.io_error, full.summary.io_error);
  EXPECT_EQ(merged_summary.vulnerable, full.summary.vulnerable);
  EXPECT_EQ(merged_summary.findings_by_type, full.summary.findings_by_type);

  fs::remove(checkpoint);
}

TEST(Campaign, ResumeDropsNonFinalRecords) {
  namespace fs = std::filesystem;
  // A stream holding one final and one interrupted record: the interrupted
  // line is dropped (its contract gets re-analyzed), the final one kept.
  ContractRecord done;
  done.id = "done";
  done.digest = content_digest({1}, "a");
  done.status = ContractStatus::Ok;
  ContractRecord cut;
  cut.id = "cut";
  cut.digest = content_digest({2}, "b");
  cut.status = ContractStatus::Interrupted;

  const fs::path path =
      fs::temp_directory_path() / "wasai_resume_drop_test.jsonl";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << util::dump_json(record_to_json(done)) << '\n'
        << util::dump_json(record_to_json(cut)) << '\n';
  }
  const ResumeState state = load_resume_state(path.string());
  EXPECT_FALSE(state.torn_tail);
  ASSERT_EQ(state.kept_records.size(), 1u);
  EXPECT_EQ(state.kept_records[0].id, "done");
  EXPECT_EQ(state.dropped, 1u);
  EXPECT_EQ(state.skip_digests.count(done.digest), 1u);
  EXPECT_EQ(state.skip_digests.count(cut.digest), 0u);
  fs::remove(path);

  EXPECT_THROW(load_resume_state("/nonexistent/stream.jsonl"),
               util::UsageError);
}

}  // namespace
}  // namespace wasai::campaign
