// Multi-contract campaign runner: fans wasai::analyze() out over a worker
// pool with per-contract fault isolation. One malformed binary, missing
// apply export or runaway solver query produces an error record for that
// contract — never a crashed or hung campaign. This is the batch layer the
// paper's evaluation implies (§4 runs the pipeline over thousands of EOSIO
// contracts) and the substrate for the ROADMAP's "as fast as the hardware
// allows" scaling work.
//
// Determinism: every contract is analyzed with the same FuzzOptions (same
// RNG seed), records are collected indexed by input order, and workers
// never share mutable analysis state — so the findings of a campaign are
// byte-identical for any `jobs` value.
//
// Robustness (crash-safe campaigns):
//  * Graceful shutdown — a campaign-wide CancelToken (tripped by the CLI's
//    SIGINT/SIGTERM handler) stops workers from claiming new contracts;
//    in-flight contracts drain through their cooperative deadline and are
//    recorded with status `interrupted`. Contracts never claimed produce
//    no record, so a later --resume picks them up.
//  * Watchdog escalation — a monitor thread detects contracts that ignore
//    the cooperative deadline by more than `hung_grace` (a wedged Z3 query
//    deep inside a worker), records them as `hung`, abandons the wedged
//    worker thread and spawns a replacement so the pool keeps draining.
//  * Checkpoint/resume — every record carries a content digest of the
//    wasm+abi bytes; `skip_digests` makes the runner skip contracts whose
//    digest is already in a previous run's record stream (see resume.hpp).
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/obs.hpp"
#include "wasai/wasai.hpp"

namespace wasai::campaign {

/// One unit of campaign work. Either on-disk paths (loaded lazily inside
/// the worker, so I/O failures are contained per contract) or in-memory
/// bytes (tests, embedding).
struct ContractInput {
  std::string id;         // report key; usually the .wasm stem
  std::string wasm_path;  // if non-empty, read in the worker
  std::string abi_path;   // if non-empty, read in the worker
  util::Bytes wasm;       // used when wasm_path is empty
  std::string abi_json;   // used when abi_path is empty
};

enum class ContractStatus : std::uint8_t {
  Ok,        // analysis completed (findings may be empty)
  Deadline,  // per-contract deadline preempted the fuzz loop; partial report
  IoError,   // input file missing/unreadable
  BadInput,  // malformed Wasm/ABI or missing apply export — not retried
  Failed,    // analysis kept throwing after every retry attempt
  Interrupted,  // campaign-wide shutdown drained this in-flight contract
  Hung,      // ignored the cooperative deadline; abandoned by the watchdog
  Skipped,   // digest found in skip_digests (resume); dropped from records
};

const char* to_string(ContractStatus s);

/// Content digest of one contract: util::fnv1a over the wasm bytes, a 0x00
/// separator, and the ABI JSON bytes, rendered as 16 hex digits. The key a
/// resume uses to recognize contracts that were already analyzed — stable
/// across renames, paths and campaign composition.
std::string content_digest(const util::Bytes& wasm,
                           const std::string& abi_json);

/// Compact static pre-analysis summary for one contract — the JSONL
/// `static` block. Engaged only when the fuzz loop ran with
/// static_analysis on (absent under --no-static, keeping that record
/// stream byte-identical to the pre-static schema).
struct StaticRecord {
  bool converged = false;      // dataflow fixpoint reached (facts kept)
  std::size_t passes = 0;      // dataflow passes to fixpoint
  /// Per-oracle static verdicts in scanner::VulnType order; false =
  /// statically impossible (a finding for one counts in gate_violations).
  std::array<bool, analysis::kNumOracles> oracle_possible{};
  // Branch classification table counts (see analysis::BranchClass).
  std::size_t constant_branches = 0;
  std::size_t untainted_branches = 0;
  std::size_t taint_reachable_branches = 0;
  std::size_t unreachable_branches = 0;
  // Dynamic effect of the gates over the whole run:
  std::size_t flips_pruned = 0;     // flip queries skipped by the gate
  std::size_t replays_skipped = 0;  // feedback replays skipped wholesale
  std::size_t gate_violations = 0;  // found oracles contradicting one (0!)
  double analyze_ms = 0;            // static pass wall time
};

struct PhaseTimings {
  double load_ms = 0;    // file read + ABI parse
  double init_ms = 0;    // instrumentation + chain initiation
  double fuzz_ms = 0;    // the fuzz loop
  double solver_ms = 0;  // Z3 wall time inside the fuzz loop
  double total_ms = 0;   // whole attempt, queue wait excluded
};

/// Per-contract observability record — one JSONL line per contract.
struct ContractRecord {
  std::string id;
  /// content_digest() of the analyzed bytes; empty when loading failed
  /// before both inputs were in memory (io-error).
  std::string digest;
  ContractStatus status = ContractStatus::Ok;
  std::string error;  // what() of the last failure, empty on Ok
  int attempts = 0;   // 1 on first-try success
  PhaseTimings timings;
  // Analysis payload (meaningful for Ok, Deadline and Interrupted):
  scanner::Report scan;
  std::vector<scanner::CustomFinding> custom;
  std::vector<engine::CoveragePoint> curve;
  std::size_t transactions = 0;
  std::size_t distinct_branches = 0;
  std::size_t adaptive_seeds = 0;
  std::size_t replays = 0;
  std::size_t replay_failures = 0;
  std::size_t solver_queries = 0;
  std::size_t solver_sat = 0;
  /// Always 0 and not serialized: flip checks run under a fixed resource
  /// budget, so no sat verdict arrives late any more. Kept because the
  /// end-to-end benchmark still reads it.
  std::size_t solver_sat_late = 0;
  std::size_t solver_unsat = 0;
  std::size_t solver_unknown = 0;
  std::size_t solver_cache_hits = 0;
  std::size_t solver_cache_misses = 0;
  std::size_t solver_cache_evictions = 0;
  /// Fuzz throughput: transactions per second of fuzz-loop wall time.
  double transactions_per_sec = 0;
  /// Static pre-analysis block; disengaged under --no-static (and for
  /// records parsed from pre-static JSONL streams).
  std::optional<StaticRecord> static_record;
  int iterations_run = 0;
  /// Per-phase wall/self time of this contract's span slice (empty with
  /// observability off). Serialized as the record's `obs` JSONL block.
  obs::PhaseTotals phases;

  /// Terminal analysis outcomes whose findings are final. Interrupted and
  /// hung records carry partial payloads but will be re-analyzed by a
  /// resume, so they are excluded (their findings would double-count).
  [[nodiscard]] bool completed() const {
    return status == ContractStatus::Ok ||
           status == ContractStatus::Deadline;
  }
  /// Statuses a resume does not re-analyze: completed analyses plus
  /// deterministic input faults (retrying malformed bytes cannot help).
  [[nodiscard]] bool resumable_skip() const {
    return completed() || status == ContractStatus::BadInput;
  }
};

struct CampaignSummary {
  std::size_t contracts = 0;
  std::size_t ok = 0;
  std::size_t deadline = 0;
  std::size_t io_error = 0;
  std::size_t bad_input = 0;
  std::size_t failed = 0;
  std::size_t interrupted = 0;  // drained by a campaign-wide shutdown
  std::size_t hung = 0;         // abandoned by the watchdog
  std::size_t skipped = 0;      // resume: digest already recorded
  std::size_t vulnerable = 0;   // completed contracts with ≥1 finding
  std::size_t total_transactions = 0;
  std::size_t total_solver_queries = 0;
  std::size_t total_solver_cache_hits = 0;
  std::size_t total_solver_cache_misses = 0;
  /// Static-gate rollups over completed records (zero under --no-static).
  std::size_t total_flips_pruned = 0;
  std::size_t total_replays_skipped = 0;
  /// Soundness tripwire: any finding that contradicted a statically
  /// impossible verdict, summed campaign-wide. Non-zero means the static
  /// pass broke its conservatism contract — CI gates on this being 0.
  std::size_t total_gate_violations = 0;
  double total_solver_ms = 0;
  double wall_ms = 0;  // whole-campaign wall time
  /// Finding counts keyed by vulnerability name ("FakeEos", ...).
  std::vector<std::pair<std::string, std::size_t>> findings_by_type;
  /// Campaign-wide per-phase rollup over every worker track (empty with
  /// observability off).
  obs::PhaseTotals phases;
};

struct CampaignReport {
  /// Input order, one per analyzed input. Contracts skipped via
  /// skip_digests and contracts never claimed before a shutdown are absent.
  std::vector<ContractRecord> records;
  CampaignSummary summary;
};

/// Pluggable analysis entry point — wasai::analyze by default. Tests
/// substitute stubs (a contract that ignores its cancel token, a shutdown
/// trigger) to drive the watchdog and signal-drain paths deterministically.
using AnalyzeFn = std::function<AnalysisResult(
    const util::Bytes& wasm, const abi::Abi& abi, const AnalysisOptions&)>;

struct CampaignOptions {
  /// Worker threads analyzing contracts concurrently. 0 = hardware
  /// concurrency. Findings are identical for any value (see header note).
  unsigned jobs = 1;
  /// Wall-clock budget per contract in ms; 0 = none. Enforced through the
  /// cooperative cancel token threaded into the fuzz loop and solver.
  double deadline_ms = 0;
  /// Total analysis attempts per contract (≥1). Transient failures —
  /// anything other than malformed input and resource exhaustion — are
  /// retried up to this count.
  int max_attempts = 2;
  /// Fuzzing configuration shared by every contract (same RNG seed each,
  /// keeping records independent of campaign composition and job count).
  engine::FuzzOptions fuzz{};
  /// Observability registry for this campaign; not owned, may be null
  /// (= off, the --no-obs kill switch). Each worker thread creates its own
  /// track ("worker-0", ...), so the Chrome trace export shows one row per
  /// worker with the nested per-contract phase spans. Findings, records
  /// and seed streams are byte-identical with or without it.
  obs::Registry* obs = nullptr;
  /// Campaign-wide cancellation (graceful shutdown). Not owned via raw
  /// use; shared so per-contract deadline tokens can link to it as their
  /// parent. Null = no external shutdown path.
  std::shared_ptr<const util::CancelToken> cancel;
  /// Content digests of contracts already analyzed by a previous run
  /// (checkpoint/resume). A matching contract is skipped after its bytes
  /// load: no record, `summary.skipped` incremented.
  std::unordered_set<std::string> skip_digests;
  /// Watchdog escalation factor: a contract whose attempt exceeds
  /// deadline_ms * hung_grace is presumed wedged inside non-cooperative
  /// code (e.g. one Z3 query ignoring its soft timeout), recorded as
  /// `hung`, and its worker thread abandoned. Only active when
  /// deadline_ms > 0. Must be > 1 so the cooperative deadline always gets
  /// the first chance.
  double hung_grace = 4.0;
  /// Watchdog poll interval.
  double watchdog_poll_ms = 250;
  /// Analysis entry point; null = wasai::analyze.
  AnalyzeFn analyze_fn;
};

/// Summary over an arbitrary record set (no wall_ms/phases — those describe
/// one run, not a record set). Used both by CampaignRunner::run and by the
/// resume path, which recomputes the summary over merged old + new records.
CampaignSummary summarize_records(const std::vector<ContractRecord>& records);

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Analyze every input; never throws for per-contract faults. Records
  /// come back in input order regardless of worker interleaving.
  CampaignReport run(const std::vector<ContractInput>& inputs);

 private:
  CampaignOptions options_;
};

/// Collect `<stem>.wasm` + `<stem>.abi` pairs under `dir` (non-recursive),
/// sorted by path for deterministic campaign order. A .wasm without a
/// sibling .abi is skipped. Throws util::UsageError when `dir` is not a
/// directory.
std::vector<ContractInput> scan_directory(const std::string& dir);

}  // namespace wasai::campaign
