#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <sstream>
#include <thread>

#include "abi/abi_json.hpp"

namespace wasai::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

util::Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::UsageError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  return util::Bytes(s.begin(), s.end());
}

/// Malformed input is deterministic — retrying cannot help. Everything
/// else (a z3 hiccup, a transient resource failure) gets another attempt.
bool is_permanent_input_fault(const util::Error& e) {
  return dynamic_cast<const util::DecodeError*>(&e) != nullptr ||
         dynamic_cast<const util::ValidationError*>(&e) != nullptr;
}

void fill_analysis(ContractRecord& record, const AnalysisResult& result) {
  record.scan = result.report;
  record.custom = result.details.custom;
  record.curve = result.details.curve;
  record.transactions = result.details.transactions;
  record.distinct_branches = result.details.distinct_branches;
  record.adaptive_seeds = result.details.adaptive_seeds;
  record.replays = result.details.replays;
  record.replay_failures = result.details.replay_failures;
  record.solver_queries = result.details.solver_queries;
  record.solver_sat = result.details.solver_sat;
  record.solver_sat_late = result.details.solver_sat_late;
  record.solver_unsat = result.details.solver_unsat;
  record.solver_unknown = result.details.solver_unknown;
  record.solver_cache_hits = result.details.solver_cache_hits;
  record.solver_cache_misses = result.details.solver_cache_misses;
  record.solver_cache_evictions = result.details.solver_cache_evictions;
  if (result.details.fuzz_ms > 0) {
    record.transactions_per_sec =
        static_cast<double>(result.details.transactions) /
        (result.details.fuzz_ms / 1000.0);
  }
  if (result.details.static_report.has_value()) {
    const analysis::StaticReport& sr = *result.details.static_report;
    StaticRecord st;
    st.converged = sr.converged;
    st.passes = sr.dataflow_passes;
    for (std::size_t i = 0; i < analysis::kNumOracles; ++i) {
      st.oracle_possible[i] = sr.oracles[i].possible;
    }
    st.constant_branches = sr.constant_branches;
    st.untainted_branches = sr.untainted_branches;
    st.taint_reachable_branches = sr.taint_reachable_branches;
    st.unreachable_branches = sr.unreachable_branches;
    st.flips_pruned = result.details.flips_pruned;
    st.replays_skipped = result.details.replays_skipped;
    st.gate_violations = result.details.oracle_gate_violations;
    st.analyze_ms = sr.analyze_ms;
    record.static_record = st;
  }
  record.iterations_run = result.details.iterations_run;
  record.timings.init_ms = result.init_ms;
  record.timings.fuzz_ms = result.details.fuzz_ms;
  record.timings.solver_ms = result.details.solver_wall_ms;
  record.status = result.details.deadline_hit ? ContractStatus::Deadline
                                              : ContractStatus::Ok;
}

// -------------------------------------------------------- shared run state

/// Lifecycle of one input slot. Exactly one writer ever touches the record:
/// the worker that CASes Running -> Done, or the watchdog that CASes
/// Running -> Abandoned (and then writes the `hung` record itself).
enum SlotState : int {
  kSlotOpen = 0,      // not claimed (stays Open if shutdown preempts it)
  kSlotRunning = 1,   // claimed by a worker
  kSlotDone = 2,      // worker stored its record
  kSlotAbandoned = 3  // watchdog stored a `hung` record
};

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// One worker thread's seat at the pool. Seats are never removed — a
/// watchdog-abandoned (zombie) thread keeps a pointer to its seat, which
/// the owning CampaignState keeps alive for as long as any thread runs.
struct Seat {
  std::thread thread;
  obs::Obs* obs = nullptr;
  std::atomic<std::size_t> slot{kNoSlot};    // input index being analyzed
  std::atomic<std::int64_t> claimed_at_ns{0};
  std::atomic<bool> abandoned{false};
  /// Exactly-once retirement latch: whoever wins (worker on clean exit,
  /// watchdog on escalation) decrements the live-worker count.
  std::atomic<bool> retired{false};
};

/// Everything workers, the watchdog and run() share. Held by shared_ptr so
/// an abandoned zombie thread keeps the state (its inputs, its seat, the
/// record slots it may still CAS-lose on) alive even after run() returned —
/// the state leaks only if a zombie never wakes up, which is the safe
/// direction.
struct CampaignState {
  CampaignState(CampaignOptions opts, const std::vector<ContractInput>& in)
      : options(std::move(opts)),
        inputs(in),
        records(in.size()),
        slots(in.size()),
        digests(in.size()) {}

  const CampaignOptions options;
  const std::vector<ContractInput> inputs;  // owned copy: zombies outlive
                                            // the caller's vector
  std::vector<ContractRecord> records;
  std::vector<std::atomic<int>> slots;
  std::atomic<std::size_t> next{0};

  /// Content digest per slot, published by the worker during the load phase
  /// (before analysis can wedge) so the watchdog can stamp it into a `hung`
  /// record without re-reading files from a monitoring thread.
  std::mutex digest_mu;
  std::vector<std::string> digests;

  std::mutex seats_mu;
  std::vector<std::unique_ptr<Seat>> seats;
  unsigned next_track = 0;

  /// Drain accounting: live = seats spawned minus seats retired. When it
  /// hits zero no further record can appear and run() may collect.
  std::mutex done_mu;
  std::condition_variable done_cv;
  int live_workers = 0;

  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_stop = false;

  [[nodiscard]] bool cancelled() const {
    return options.cancel != nullptr && options.cancel->expired();
  }

  void retire(Seat* seat) {
    bool expected = false;
    if (!seat->retired.compare_exchange_strong(expected, true)) return;
    {
      std::lock_guard<std::mutex> lock(done_mu);
      --live_workers;
    }
    done_cv.notify_all();
  }
};

// ------------------------------------------------------------ one contract

ContractRecord run_one(CampaignState& state, std::size_t index,
                       obs::Obs* obs) {
  const CampaignOptions& options = state.options;
  const ContractInput& input = state.inputs[index];
  ContractRecord record;
  record.id = input.id;
  const auto start = Clock::now();
  const std::size_t obs_mark = obs != nullptr ? obs->mark() : 0;
  const auto campaign_cancelled = [&] {
    return options.cancel != nullptr && options.cancel->expired();
  };

  const auto body = [&] {
    // ---- load phase: file reads and ABI parse, contained per contract --
    util::Bytes wasm_bytes;
    abi::Abi contract_abi;
    try {
      const obs::Span load_span(obs, obs::span_name::kLoad);
      wasm_bytes = input.wasm_path.empty() ? input.wasm
                                           : read_file(input.wasm_path);
      std::string abi_json = input.abi_json;
      if (!input.abi_path.empty()) {
        const auto bytes = read_file(input.abi_path);
        abi_json.assign(bytes.begin(), bytes.end());
      }
      record.digest = content_digest(wasm_bytes, abi_json);
      {
        // Published before analysis starts: if this contract wedges, the
        // watchdog stamps the digest into the `hung` record from here.
        std::lock_guard<std::mutex> lock(state.digest_mu);
        state.digests[index] = record.digest;
      }
      contract_abi = abi::abi_from_json(abi_json);
    } catch (const util::UsageError& e) {
      record.status = ContractStatus::IoError;
      record.error = e.what();
      return;
    } catch (const util::Error& e) {
      record.status = ContractStatus::BadInput;
      record.error = e.what();
      return;
    }
    record.timings.load_ms = ms_since(start);

    // ---- resume skip: this content was already analyzed ----------------
    if (options.skip_digests.contains(record.digest)) {
      record.status = ContractStatus::Skipped;
      return;
    }

    // ---- analysis phase: bounded retry around the whole pipeline ------
    for (int attempt = 1; attempt <= options.max_attempts; ++attempt) {
      record.attempts = attempt;
      AnalysisOptions analysis;
      analysis.fuzz = options.fuzz;
      analysis.fuzz.obs = obs;
      if (options.deadline_ms > 0 || options.cancel != nullptr) {
        // Per-contract deadline token, parented to the campaign-wide
        // shutdown token: a SIGINT trips every in-flight contract at once.
        analysis.fuzz.cancel = util::CancelToken::with_deadline(
            options.deadline_ms, options.cancel);
      }
      try {
        const AnalysisResult result =
            options.analyze_fn != nullptr
                ? options.analyze_fn(wasm_bytes, contract_abi, analysis)
                : analyze(wasm_bytes, contract_abi, analysis);
        fill_analysis(record, result);
        record.error.clear();
        if (record.status == ContractStatus::Deadline &&
            campaign_cancelled()) {
          // The loop unwound because the campaign is shutting down, not
          // because this contract exhausted its own budget: the partial
          // payload stands, but a resume must re-analyze it.
          record.status = ContractStatus::Interrupted;
        }
        break;
      } catch (const util::Error& e) {
        record.error = e.what();
        if (is_permanent_input_fault(e)) {
          record.status = ContractStatus::BadInput;
          break;
        }
        record.status = ContractStatus::Failed;
      } catch (const std::bad_alloc&) {
        // Resource exhaustion is not a transient solver hiccup: retrying
        // on a memory-starved worker just thrashes (and usually throws the
        // same bad_alloc slower). Fail fast, keep the pool healthy.
        record.error = "out of memory (std::bad_alloc)";
        record.status = ContractStatus::Failed;
        break;
      } catch (const std::exception& e) {
        // z3::exception and friends do not derive util::Error; treat them
        // as transient solver failures and retry.
        record.error = e.what();
        record.status = ContractStatus::Failed;
      } catch (...) {
        record.error = "unknown exception";
        record.status = ContractStatus::Failed;
      }
      if (campaign_cancelled()) {
        // Shutdown arrived between attempts; drain instead of retrying.
        record.status = ContractStatus::Interrupted;
        break;
      }
    }
  };

  {
    // Root span for this contract, closed (RAII, even on the fault paths)
    // BEFORE the slice is aggregated: the record's phase block therefore
    // includes `contract` itself, whose self time is exactly the wall time
    // no child phase accounts for (retry bookkeeping, analyzer teardown).
    // Summed self times telescope to the contract's inclusive time by
    // construction — the invariant the obs tests pin. Interrupted records
    // drain through this same unwind, so their spans close too.
    const obs::Span contract_span(obs, obs::span_name::kContract, input.id);
    body();
  }
  record.timings.total_ms = ms_since(start);
  if (obs != nullptr) {
    obs->count("campaign.contracts");
    record.phases = obs->aggregate_since(obs_mark);
  }
  return record;
}

// ------------------------------------------------------------ worker loop

void worker_loop(const std::shared_ptr<CampaignState>& state, Seat* seat) {
  for (;;) {
    if (seat->abandoned.load()) break;  // zombie woke up: stand down
    if (state->cancelled()) break;      // graceful shutdown: stop claiming
    const std::size_t index = state->next.fetch_add(1);
    if (index >= state->inputs.size()) break;

    state->slots[index].store(kSlotRunning);
    seat->claimed_at_ns.store(
        Clock::now().time_since_epoch().count());
    seat->slot.store(index);

    ContractRecord record = run_one(*state, index, seat->obs);
    seat->slot.store(kNoSlot);

    int expected = kSlotRunning;
    if (state->slots[index].compare_exchange_strong(expected, kSlotDone)) {
      state->records[index] = std::move(record);
    } else {
      // The watchdog abandoned this slot (and this seat) while we were
      // wedged; the hung record stands, ours is dropped. Exit without
      // touching any more shared state.
      break;
    }
  }
  state->retire(seat);
}

void spawn_seat(const std::shared_ptr<CampaignState>& state) {
  // seats_mu must be held by the caller.
  auto seat = std::make_unique<Seat>();
  if (state->options.obs != nullptr) {
    seat->obs = &state->options.obs->track(
        "worker-" + std::to_string(state->next_track));
  }
  ++state->next_track;
  {
    std::lock_guard<std::mutex> lock(state->done_mu);
    ++state->live_workers;
  }
  Seat* raw = seat.get();
  raw->thread = std::thread(worker_loop, state, raw);
  state->seats.push_back(std::move(seat));
}

// --------------------------------------------------------------- watchdog

void watchdog_loop(const std::shared_ptr<CampaignState>& state) {
  const CampaignOptions& options = state->options;
  const double limit_ms = options.deadline_ms * options.hung_grace;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state->wd_mu);
      state->wd_cv.wait_for(
          lock,
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(
                  options.watchdog_poll_ms)),
          [&] { return state->wd_stop; });
      if (state->wd_stop) return;
    }
    std::lock_guard<std::mutex> seats_lock(state->seats_mu);
    // Escalate every wedged seat: the cooperative deadline had its chance
    // (and then `hung_grace` times more). The contract is recorded as hung,
    // the worker thread is abandoned in place — std::thread offers no safe
    // kill, and the wedge is usually inside a Z3 query that ignores its
    // soft timeout — and a replacement seat keeps the pool at strength.
    const std::size_t seats_now = state->seats.size();
    for (std::size_t s = 0; s < seats_now; ++s) {
      Seat* seat = state->seats[s].get();
      if (seat->abandoned.load()) continue;
      const std::size_t index = seat->slot.load();
      if (index == kNoSlot) continue;
      const auto claimed_at =
          Clock::time_point(Clock::duration(seat->claimed_at_ns.load()));
      const double elapsed = ms_since(claimed_at);
      if (elapsed <= limit_ms) continue;
      int expected = kSlotRunning;
      if (!state->slots[index].compare_exchange_strong(expected,
                                                       kSlotAbandoned)) {
        continue;  // the worker finished in the meantime — not wedged
      }
      ContractRecord hung;
      hung.id = state->inputs[index].id;
      {
        std::lock_guard<std::mutex> digest_lock(state->digest_mu);
        hung.digest = state->digests[index];
      }
      hung.status = ContractStatus::Hung;
      hung.attempts = 1;
      hung.timings.total_ms = elapsed;
      {
        std::ostringstream msg;
        msg << "watchdog: contract ignored its cooperative deadline ("
            << elapsed << " ms > " << options.deadline_ms << " ms x "
            << options.hung_grace << " grace); worker thread abandoned";
        hung.error = msg.str();
      }
      state->records[index] = std::move(hung);
      seat->abandoned.store(true);
      if (seat->obs != nullptr) seat->obs->abandon();
      state->retire(seat);
      spawn_seat(state);
    }
  }
}

}  // namespace

const char* to_string(ContractStatus s) {
  switch (s) {
    case ContractStatus::Ok:
      return "ok";
    case ContractStatus::Deadline:
      return "deadline";
    case ContractStatus::IoError:
      return "io-error";
    case ContractStatus::BadInput:
      return "bad-input";
    case ContractStatus::Failed:
      return "failed";
    case ContractStatus::Interrupted:
      return "interrupted";
    case ContractStatus::Hung:
      return "hung";
    case ContractStatus::Skipped:
      return "skipped";
  }
  return "?";
}

std::string content_digest(const util::Bytes& wasm,
                           const std::string& abi_json) {
  util::Digest d;
  d.bytes(wasm);
  d.u8(0);  // separator: (wasm, abi) pairs must not collide on shifts
  for (const char c : abi_json) d.u8(static_cast<std::uint8_t>(c));
  return d.hex();
}

CampaignSummary summarize_records(
    const std::vector<ContractRecord>& records) {
  CampaignSummary s;
  s.contracts = records.size();
  std::map<std::string, std::size_t> by_type;
  for (const auto& record : records) {
    switch (record.status) {
      case ContractStatus::Ok:
        ++s.ok;
        break;
      case ContractStatus::Deadline:
        ++s.deadline;
        break;
      case ContractStatus::IoError:
        ++s.io_error;
        break;
      case ContractStatus::BadInput:
        ++s.bad_input;
        break;
      case ContractStatus::Failed:
        ++s.failed;
        break;
      case ContractStatus::Interrupted:
        ++s.interrupted;
        break;
      case ContractStatus::Hung:
        ++s.hung;
        break;
      case ContractStatus::Skipped:
        ++s.skipped;  // defensive: run() drops these before summarizing
        break;
    }
    if (!record.completed()) continue;
    if (!record.scan.findings.empty() || !record.custom.empty()) {
      ++s.vulnerable;
    }
    for (const auto& finding : record.scan.findings) {
      ++by_type[scanner::to_string(finding.type)];
    }
    for (const auto& finding : record.custom) {
      ++by_type[finding.id];
    }
    s.total_transactions += record.transactions;
    s.total_solver_queries += record.solver_queries;
    s.total_solver_cache_hits += record.solver_cache_hits;
    s.total_solver_cache_misses += record.solver_cache_misses;
    if (record.static_record.has_value()) {
      s.total_flips_pruned += record.static_record->flips_pruned;
      s.total_replays_skipped += record.static_record->replays_skipped;
      s.total_gate_violations += record.static_record->gate_violations;
    }
    s.total_solver_ms += record.timings.solver_ms;
  }
  s.findings_by_type.assign(by_type.begin(), by_type.end());
  return s;
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {
  if (options_.jobs == 0) {
    options_.jobs = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  if (options_.hung_grace < 1.0) options_.hung_grace = 1.0;
  if (options_.watchdog_poll_ms <= 0) options_.watchdog_poll_ms = 250;
}

CampaignReport CampaignRunner::run(const std::vector<ContractInput>& inputs) {
  const auto start = Clock::now();
  const auto state = std::make_shared<CampaignState>(options_, inputs);

  const unsigned n = std::min<unsigned>(
      options_.jobs,
      static_cast<unsigned>(std::max<std::size_t>(inputs.size(), 1)));
  {
    std::lock_guard<std::mutex> lock(state->seats_mu);
    for (unsigned t = 0; t < n; ++t) spawn_seat(state);
  }

  // The watchdog only makes sense with a per-contract deadline to escalate
  // from; without one there is no baseline to call "exceeded".
  std::thread watchdog;
  if (options_.deadline_ms > 0) {
    watchdog = std::thread(watchdog_loop, state);
  }

  // Drain: wait until every live (non-abandoned) worker retired. Abandoned
  // zombies are retired by the watchdog the moment it gives up on them, so
  // a wedged contract never stalls this wait — the exact failure the
  // watchdog exists for.
  {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&] { return state->live_workers == 0; });
  }
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(state->wd_mu);
      state->wd_stop = true;
    }
    state->wd_cv.notify_all();
    watchdog.join();
  }
  {
    // Retired workers have exited (join returns immediately); abandoned
    // zombies are detached — they hold the shared state alive and stand
    // down on wake-up without touching the report.
    std::lock_guard<std::mutex> lock(state->seats_mu);
    for (auto& seat : state->seats) {
      if (!seat->thread.joinable()) continue;
      if (seat->abandoned.load()) {
        seat->thread.detach();
      } else {
        seat->thread.join();
      }
    }
  }

  // ---- collect + aggregate ---------------------------------------------
  CampaignReport report;
  report.records.reserve(inputs.size());
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const int slot = state->slots[i].load();
    if (slot != kSlotDone && slot != kSlotAbandoned) continue;  // never ran
    if (state->records[i].status == ContractStatus::Skipped) {
      ++skipped;
      continue;
    }
    report.records.push_back(std::move(state->records[i]));
  }
  report.summary = summarize_records(report.records);
  report.summary.skipped = skipped;
  // Campaign rollup: merge the per-record slices (workers are joined, so
  // the record totals are final). Using the record slices rather than
  // Registry::aggregate_all keeps the rollup scoped to THIS run even when
  // the registry is shared across campaigns.
  for (const auto& record : report.records) {
    obs::merge_totals(report.summary.phases, record.phases);
  }
  report.summary.wall_ms = ms_since(start);
  return report;
}

std::vector<ContractInput> scan_directory(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw util::UsageError(dir + " is not a directory");
  }
  std::vector<ContractInput> inputs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".wasm") continue;
    fs::path abi_path = path;
    abi_path.replace_extension(".abi");
    if (!fs::exists(abi_path)) continue;  // unpaired binary: not a contract
    ContractInput input;
    input.id = path.stem().string();
    input.wasm_path = path.string();
    input.abi_path = abi_path.string();
    inputs.push_back(std::move(input));
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const ContractInput& a, const ContractInput& b) {
              return a.wasm_path < b.wasm_path;
            });
  return inputs;
}

}  // namespace wasai::campaign
