// The `wasai-campaign` tool: batch-analyze a directory of contracts
// (`<stem>.wasm` + `<stem>.abi` pairs) with per-contract fault isolation.
//
//   wasai-campaign run <corpus-dir> [options]
//   wasai-campaign check-trace <trace.json>
//
// Options (run):
//   --jobs N          worker threads (default 1; 0 = hardware concurrency)
//   --iterations N    fuzzing rounds per contract (default 48)
//   --seed N          RNG seed shared by every contract (default 1)
//   --deadline-ms N   wall-clock budget per contract (default 0 = none)
//   --hung-grace N    watchdog factor: abandon a contract exceeding
//                     deadline-ms * N as `hung` (default 4; needs a
//                     deadline to be active)
//   --retries N       total attempts per contract (default 2)
//   --no-solver-cache disable the cross-iteration flip query cache
//   --solver-cache-capacity N
//                     cached verdicts kept per contract (default 4096)
//   --no-fastpath     legacy VM interpreter (A/B perf baseline)
//   --no-static       disable the static pre-analysis pass (per-record
//                     `static` blocks disappear; findings are identical)
//   --out FILE        JSONL records destination (default: stdout)
//   --resume FILE     checkpoint/resume: parse FILE as a previous run's
//                     record stream (tolerating a torn final line), skip
//                     contracts whose content digest it already records,
//                     and rewrite FILE as kept + new records. Implies
//                     --out FILE; the summary covers the merged set.
//   --summary FILE    aggregate summary JSON destination (default: stderr)
//   --findings-only   emit the stable findings projection instead of full
//                     records (byte-identical across --jobs values)
//   --trace-out FILE  write a Chrome trace-event JSON of the campaign (one
//                     track per worker; load in chrome://tracing/Perfetto)
//   --no-obs          observability kill switch: spans/counters become
//                     no-ops; records drop the `obs` block but are
//                     otherwise byte-identical (same seeds, same findings)
//
// Signals: SIGINT/SIGTERM trip a campaign-wide cancel token. Workers stop
// claiming contracts; in-flight contracts drain through their cooperative
// deadline and are recorded with status `interrupted`; records and the
// (partial) summary are still written, so a later --resume of the record
// file picks up exactly where the shutdown left off.
//
// `check-trace` parses a trace produced by --trace-out and validates it
// (matching B/E pairs per track, monotonic timestamps, known span names);
// exit 0 = valid, 1 = rejected. CI gates the obs-trace artifact on it.
//
// Exit status: 0 when the campaign ran (even if every contract errored),
// 2 on usage errors. Per-contract faults are data, not process failures.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "campaign/report.hpp"
#include "campaign/resume.hpp"
#include "obs/trace_export.hpp"
#include "util/jsonl.hpp"

namespace {

using namespace wasai;

/// Campaign-wide shutdown token, created before the handlers are installed.
/// The handler only performs async-signal-safe work: CancelToken::cancel()
/// is a lock-free atomic store, and the progress note goes through write(2).
std::shared_ptr<util::CancelToken> g_shutdown;

extern "C" void handle_shutdown_signal(int) {
  if (g_shutdown != nullptr) g_shutdown->cancel();
  static const char msg[] =
      "\nwasai-campaign: shutdown requested; draining in-flight contracts "
      "(repeat records as `interrupted`, unclaimed contracts left for "
      "--resume)\n";
  const ssize_t rc = ::write(2, msg, sizeof(msg) - 1);
  (void)rc;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  wasai-campaign run <corpus-dir> [--jobs N] [--iterations N]\n"
      "        [--seed N] [--deadline-ms N] [--hung-grace N] [--retries N]\n"
      "        [--no-solver-cache] [--solver-cache-capacity N]\n"
      "        [--no-fastpath] [--no-static]\n"
      "        [--out FILE] [--resume FILE] [--summary FILE]\n"
      "        [--findings-only] [--trace-out FILE] [--no-obs]\n"
      "  wasai-campaign check-trace <trace.json>\n");
  return 2;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string corpus_dir = argv[2];

  campaign::CampaignOptions options;
  std::string out_path;
  std::string resume_path;
  std::string summary_path;
  std::string trace_path;
  bool findings_only = false;
  bool no_obs = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      options.jobs = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--iterations" && i + 1 < argc) {
      options.fuzz.iterations = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      options.fuzz.rng_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      options.deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--hung-grace" && i + 1 < argc) {
      options.hung_grace = std::atof(argv[++i]);
    } else if (arg == "--retries" && i + 1 < argc) {
      options.max_attempts = std::atoi(argv[++i]);
    } else if (arg == "--no-solver-cache") {
      options.fuzz.solver_cache = false;
    } else if (arg == "--solver-cache-capacity" && i + 1 < argc) {
      options.fuzz.solver_cache_capacity =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--no-fastpath") {
      options.fuzz.vm_fastpath = false;
    } else if (arg == "--no-static") {
      options.fuzz.static_analysis = false;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--resume" && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (arg == "--summary" && i + 1 < argc) {
      summary_path = argv[++i];
    } else if (arg == "--findings-only") {
      findings_only = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--no-obs") {
      no_obs = true;
    } else {
      return usage();
    }
  }
  if (!trace_path.empty() && no_obs) {
    // Fail before the campaign runs, not after it has burned the budget.
    throw util::UsageError("--trace-out requires observability (--no-obs)");
  }
  if (!resume_path.empty() && findings_only) {
    // The findings projection carries no digests, so it cannot seed a
    // resume; mixing the two would write a stream --resume cannot read.
    throw util::UsageError("--findings-only cannot be combined with --resume");
  }
  if (!resume_path.empty() && !out_path.empty() && out_path != resume_path) {
    throw util::UsageError(
        "--resume appends to the resumed file; drop --out or point it at "
        "the same path");
  }

  // ---- checkpoint/resume: fold in the previous run's record stream ------
  campaign::ResumeState resume;
  if (!resume_path.empty()) {
    resume = campaign::load_resume_state(resume_path);
    out_path = resume_path;
    options.skip_digests = resume.skip_digests;
    std::fprintf(stderr,
                 "wasai-campaign: resuming from %s: %zu records kept, %zu "
                 "re-analyzed%s\n",
                 resume_path.c_str(), resume.kept_records.size(),
                 resume.dropped,
                 resume.torn_tail ? ", torn final line discarded" : "");
  }

  const auto inputs = campaign::scan_directory(corpus_dir);
  std::fprintf(stderr, "wasai-campaign: %zu contracts in %s, %u jobs\n",
               inputs.size(), corpus_dir.c_str(),
               options.jobs == 0 ? 0u : options.jobs);

  // ---- graceful shutdown: SIGINT/SIGTERM cancel, workers drain ----------
  g_shutdown = util::CancelToken::with_deadline(0);
  options.cancel = g_shutdown;
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);

  // Observability is on by default (the spans are nanoseconds per contract);
  // --no-obs passes a null registry so every span/counter no-ops. The
  // registry lives on the heap because a watchdog-abandoned zombie thread
  // may still append to its (quarantined) track after the campaign returns:
  // if any contract hung, the registry is deliberately leaked at exit
  // rather than freed under a live writer.
  auto* registry = new obs::Registry;
  if (!no_obs) options.obs = registry;

  campaign::CampaignRunner runner(options);
  auto report = runner.run(inputs);

  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path, std::ios::trunc);
    if (!trace_file) throw util::UsageError("cannot open " + trace_path);
    trace_file << util::dump_json(obs::chrome_trace_json(*registry)) << '\n';
  }

  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path, std::ios::trunc);
    if (!out_file) throw util::UsageError("cannot open " + out_path);
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;
  if (findings_only) {
    util::JsonlWriter writer(out);
    for (const auto& record : report.records) {
      writer.write(campaign::findings_to_json(record));
    }
  } else {
    // Kept lines are replayed byte-for-byte (not re-serialized), so a
    // resumed stream is byte-identical to an uninterrupted run's stream
    // modulo the records that were actually re-analyzed.
    for (const auto& line : resume.kept_lines) out << line << '\n';
    campaign::write_records_jsonl(out, report);
  }

  // The summary covers the merged record set on resume; wall time and the
  // per-phase rollup describe this run only (the previous run's are gone).
  if (!resume.kept_records.empty()) {
    std::vector<campaign::ContractRecord> merged = resume.kept_records;
    merged.insert(merged.end(), report.records.begin(), report.records.end());
    campaign::CampaignSummary merged_summary =
        campaign::summarize_records(merged);
    merged_summary.skipped = report.summary.skipped;
    merged_summary.wall_ms = report.summary.wall_ms;
    merged_summary.phases = report.summary.phases;
    report.summary = std::move(merged_summary);
  }

  // With observability on, the summary's `obs` block is upgraded from the
  // per-phase rollup to the full metrics document (phases + counters +
  // histograms).
  util::JsonObject summary_obj =
      campaign::summary_to_json(report.summary).as_object();
  if (!no_obs) {
    summary_obj["obs"] = obs::metrics_json(*registry);
  }
  const std::string summary =
      util::dump_json(util::Json(std::move(summary_obj)));
  if (summary_path.empty()) {
    std::fprintf(stderr, "%s\n", summary.c_str());
  } else {
    std::ofstream summary_file(summary_path, std::ios::trunc);
    if (!summary_file) {
      throw util::UsageError("cannot open " + summary_path);
    }
    summary_file << summary << '\n';
  }
  if (report.summary.hung == 0) {
    delete registry;  // no zombies: safe to free
  }
  return 0;
}

int cmd_check_trace(int argc, char** argv) {
  if (argc < 3) return usage();
  std::ifstream in(argv[2], std::ios::binary);
  if (!in) throw util::UsageError(std::string("cannot open ") + argv[2]);
  std::ostringstream ss;
  ss << in.rdbuf();
  const util::Json doc = util::parse_json(ss.str());
  if (const auto problem = obs::validate_chrome_trace(doc)) {
    std::fprintf(stderr, "wasai-campaign: invalid trace: %s\n",
                 problem->c_str());
    return 1;
  }
  std::size_t events = 0;
  if (const util::Json* arr = doc.find("traceEvents")) {
    events = arr->as_array().size();
  }
  std::fprintf(stderr, "wasai-campaign: trace ok (%zu events)\n", events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "run") == 0) return cmd_run(argc, argv);
    if (std::strcmp(argv[1], "check-trace") == 0) {
      return cmd_check_trace(argc, argv);
    }
    return usage();
  } catch (const wasai::util::Error& e) {
    std::fprintf(stderr, "wasai-campaign: %s\n", e.what());
    return 2;
  }
}
