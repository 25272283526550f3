// End-to-end WASAI benchmark. Runs one workload through the public campaign
// pipeline (campaign::CampaignRunner::run with default FuzzOptions apart
// from a per-contract RNG seed, analysis through the
// CampaignOptions::analyze_fn hook) for a fixed wall-clock
// window, checks the outputs, and prints its metrics as one JSON object on
// the last line of stdout:
//
//   perfbench --workload NAME --seed N --seconds T --trace 0|1
//
// --trace 0 measures the end-to-end metrics with observability off.
// --trace 1 alternates untraced passes with traced passes (an obs::Registry
// attached through CampaignOptions::obs) and reports the per-layer split
// from the traced ones, plus the observability tax between the two.
//
// Exit status: 0 when every check passed, 1 when an output check failed
// (the JSON line still reports the run), 2 on a usage or setup error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "util/digest.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace wasai;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

/// Set-up is timed this many times before the first pass and again after
/// every pass; setup_s is the median. Spreading the repeats over the run
/// keeps a burst of load from another process, which would slow repeats
/// made back to back all alike, out of setup_s.
constexpr int kSetupRepeats = 3;
/// Per-contract deadline: far above the slowest contract (~1.2 s), so it
/// only turns a wedged Z3 query into a failed contract instead of a stalled
/// run.
constexpr double kDeadlineMs = 20000;
/// Contracts analysed once before timing, so lazily initialised state (Z3,
/// allocator pools) is warm when the first timed pass starts.
constexpr std::size_t kWarmupContracts = 4;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Percentile of an obs log2 histogram, interpolated inside the bucket that
/// holds the rank (bucket b spans [2^(b-1), 2^b) microseconds).
double histogram_percentile_us(const obs::Histogram& h, double q) {
  const std::uint64_t count = h.count();
  if (count == 0) return 0;
  const double rank = q * static_cast<double>(count);
  double seen = 0;
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    const auto in_bucket = static_cast<double>(h.bucket(b));
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      const double lo = b == 0 ? 0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      const double hi = b == 0 ? 1 : std::ldexp(1.0, static_cast<int>(b));
      return lo + (hi - lo) * (rank - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return static_cast<double>(h.max_us());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds) {
    return std::nullopt;
  }
  return args;
}

// ------------------------------------------------------------------ passes

/// Input indices by fnv1a of the contract's wasm bytes: analyze_fn sees only
/// the bytes, so this is how a call span finds its contract. Corpora may
/// hold byte-identical contracts; their calls are dealt out in turn.
using ContractIndex =
    std::unordered_map<std::uint64_t, std::vector<std::size_t>>;

ContractIndex index_contracts(const Workload& w) {
  ContractIndex index;
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    index[util::fnv1a(w.inputs[i].wasm)].push_back(i);
  }
  return index;
}

/// The benchmark's own span around one analyze_fn call.
struct CallSpan {
  Clock::time_point begin;
  Clock::time_point end;
  std::size_t contract = 0;
  std::thread::id worker;
  double init_ms = 0;   // AnalysisResult::init_ms
  double total_ms = 0;  // AnalysisResult::total_ms (excludes teardown)
};

/// One CampaignRunner::run over the whole corpus.
struct Pass {
  bool traced = false;
  Clock::time_point begin;
  Clock::time_point end;
  double peak_rss_mb = 0;  // process peak RSS while the pass ran
  std::vector<CallSpan> calls;
  campaign::CampaignReport report;
  std::unique_ptr<obs::Registry> registry;  // traced passes only

  [[nodiscard]] double wall_ms() const { return ms_between(begin, end); }
};

Pass run_pass(const Workload& w, const ContractIndex& index,
              const std::vector<campaign::ContractInput>& inputs,
              bool traced) {
  // Shared with analyze_fn: a worker the campaign watchdog abandons may
  // return from analyze() after this function has.
  struct CallLog {
    std::mutex mu;  // guards calls and dealt
    std::vector<CallSpan> calls;
    std::unordered_map<std::uint64_t, std::size_t> dealt;
  };
  const auto log = std::make_shared<CallLog>();
  Pass pass;
  pass.traced = traced;
  campaign::CampaignOptions options;
  options.jobs = w.jobs;
  options.deadline_ms = kDeadlineMs;
  options.fuzz.iterations = w.iterations;
  options.fuzz.rng_seed = w.rng_seed;
  if (traced) {
    pass.registry = std::make_unique<obs::Registry>();
    options.obs = pass.registry.get();
  }
  options.analyze_fn = [log, &index](const util::Bytes& wasm,
                                     const abi::Abi& abi,
                                     const AnalysisOptions& analysis) {
    CallSpan span;
    const std::uint64_t digest = util::fnv1a(wasm);
    // Each contract fuzzes from the workload seed mixed with its own bytes.
    // With one seed for all, similar contracts did the same extra work
    // together: the ten memo-scan samples of templates-serial all took
    // either 1.0x or 1.45x depending on the seed, which moved p90 by 20%.
    AnalysisOptions own = analysis;
    own.fuzz.rng_seed ^= digest;
    span.worker = std::this_thread::get_id();
    span.begin = Clock::now();
    AnalysisResult result = analyze(wasm, abi, own);
    span.end = Clock::now();
    span.init_ms = result.init_ms;
    span.total_ms = result.total_ms;
    const std::vector<std::size_t>& same_bytes = index.at(digest);
    const std::lock_guard<std::mutex> lock(log->mu);
    span.contract = same_bytes[log->dealt[digest]++ % same_bytes.size()];
    log->calls.push_back(span);
    return result;
  };
  campaign::CampaignRunner runner(std::move(options));
  pass.begin = Clock::now();
  pass.report = runner.run(inputs);
  pass.end = Clock::now();
  const std::lock_guard<std::mutex> lock(log->mu);
  pass.calls = log->calls;
  return pass;
}

// ----------------------------------------------------------------- metrics

struct Metric {
  double value;
  std::string unit;
};

class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{std::isfinite(value) ? value : 0, unit};
  }
  [[nodiscard]] util::Json json() const {
    util::JsonObject out;
    for (const auto& [name, m] : metrics_) {
      out.emplace(name, util::JsonObject{{"value", m.value},
                                         {"unit", m.unit}});
    }
    return out;
  }
  [[nodiscard]] const std::map<std::string, Metric>& all() const {
    return metrics_;
  }

 private:
  std::map<std::string, Metric> metrics_;
};

double contracts_per_s(const Pass& pass) {
  return static_cast<double>(pass.report.records.size()) /
         (pass.wall_ms() / 1000.0);
}

template <typename F>
double sum_records(const Pass& pass, F field) {
  double total = 0;
  for (const auto& r : pass.report.records) {
    total += static_cast<double>(field(r));
  }
  return total;
}

using Record = campaign::ContractRecord;
using Count = std::size_t Record::*;

double pass_total(const Pass& pass, Count field) {
  return sum_records(pass, [field](const auto& r) { return r.*field; });
}

template <typename F>
double median_over(const std::vector<const Pass*>& passes, F per_pass) {
  std::vector<double> values;
  values.reserve(passes.size());
  for (const Pass* p : passes) values.push_back(per_pass(*p));
  return median(values);
}

/// Max minus min of a per-pass count over every pass of the run: 0 means
/// the count repeated exactly and may back a count-based claim.
template <typename F>
double range_over(const std::vector<Pass>& passes, F per_pass) {
  double lo = INFINITY, hi = -INFINITY;
  for (const Pass& p : passes) {
    const double v = per_pass(p);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi - lo;
}

/// One latency sample per contract: the fastest of its analyze_fn times
/// over the given passes. Other tenants of a shared host only ever add
/// time, in bursts of seconds that slowed a pass's median contract by up to
/// 1.6x; each contract's fastest repeat is the closest to the program's own
/// cost. Over five long-trace runs, p50 and contracts_per_s spread 11-13%
/// with each contract's median repeat and 3-4% with its fastest.
std::vector<double> contract_latencies_ms(
    const std::vector<const Pass*>& passes, std::size_t contracts) {
  std::vector<double> fastest(contracts, INFINITY);
  for (const Pass* p : passes) {
    for (const CallSpan& c : p->calls) {
      fastest[c.contract] =
          std::min(fastest[c.contract], ms_between(c.begin, c.end));
    }
  }
  std::erase(fastest, INFINITY);
  return fastest;
}

/// End-to-end contracts_per_s on one worker: contracts over the sum of each
/// contract's fastest analyze_fn time and the campaign's fastest own time
/// in a pass (its wall time minus the analyze_fn calls in it). With one
/// worker a pass's wall time is exactly those two parts.
double serial_contracts_per_s(const std::vector<const Pass*>& passes,
                              const std::vector<double>& latencies_ms) {
  double own_ms = INFINITY;
  for (const Pass* p : passes) {
    double calls_ms = 0;
    for (const CallSpan& c : p->calls) calls_ms += ms_between(c.begin, c.end);
    own_ms = std::min(own_ms, p->wall_ms() - calls_ms);
  }
  double total_ms = own_ms;
  for (const double ms : latencies_ms) total_ms += ms;
  return static_cast<double>(latencies_ms.size()) / (total_ms / 1000.0);
}

/// Share of inputs whose verdict for the label's category matches the
/// label; an input labelled without a category must have no finding.
double label_agreement(const Workload& w, const Pass& pass) {
  std::size_t agree = 0;
  const auto& records = pass.report.records;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& found = records[i].scan.found;
    const perfbench::Label& label = w.labels[i];
    agree += (label.category ? found.contains(*label.category) ==
                                   label.vulnerable
                             : found.empty())
                 ? 1
                 : 0;
  }
  return records.empty() ? 0
                         : static_cast<double>(agree) /
                               static_cast<double>(records.size());
}

/// Lowers the process's peak RSS to its current RSS, so the next
/// peak_rss_mb() covers only what runs after this call (Linux).
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

/// Peak RSS since the last reset_peak_rss() (VmHWM); over the whole process
/// (ru_maxrss) where /proc/self/status is missing.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The campaign layer seen from the benchmark's analyze_fn spans.
struct CampaignShape {
  double busy_frac = 0;     // sum of call time / (jobs x wall)
  double tail_idle_ms = 0;  // mean per worker of (end - its last return)
};

CampaignShape campaign_shape(const Pass& pass, unsigned jobs) {
  CampaignShape shape;
  double busy_ms = 0;
  std::map<std::thread::id, Clock::time_point> last_return;
  for (const CallSpan& c : pass.calls) {
    busy_ms += ms_between(c.begin, c.end);
    auto [it, inserted] = last_return.emplace(c.worker, c.end);
    if (!inserted) it->second = std::max(it->second, c.end);
  }
  shape.busy_frac = busy_ms / (static_cast<double>(jobs) * pass.wall_ms());
  double idle_ms = 0;
  for (const auto& [worker, t] : last_return) {
    idle_ms += ms_between(t, pass.end);
  }
  // Seats that never got a contract idle for the whole pass.
  const std::size_t unused = jobs > last_return.size()
                                 ? jobs - last_return.size()
                                 : 0;
  idle_ms += static_cast<double>(unused) * pass.wall_ms();
  shape.tail_idle_ms = idle_ms / static_cast<double>(jobs);
  return shape;
}

double counter(const obs::Registry& registry, const std::string& name) {
  for (const auto& [n, c] : registry.counters()) {
    if (n == name) return static_cast<double>(c->value());
  }
  return 0;
}

const obs::Histogram* histogram(const obs::Registry& registry,
                                const std::string& name) {
  for (const auto& [n, h] : registry.histograms()) {
    if (n == name) return h;
  }
  return nullptr;
}

/// Per-layer metrics of one traced pass.
MetricSet layer_metrics(const Workload& w, const Pass& pass) {
  MetricSet m;
  const obs::Registry& reg = *pass.registry;
  const obs::PhaseTotals phases = reg.aggregate_all();
  const auto phase = [&phases](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? obs::PhaseStat{} : it->second;
  };
  const auto self_ms = [&](const char* name) {
    return phase(name).self_us / 1000.0;
  };
  const auto per_s = [&](double count, const char* name) {
    const double total_s = phase(name).total_us / 1e6;
    return total_s > 0 ? count / total_s : 0;
  };
  const auto p = [&reg](const char* name, double q) {
    const obs::Histogram* h = histogram(reg, name);
    return h != nullptr ? histogram_percentile_us(*h, q) : 0;
  };
  const auto total = [&pass](Count field) { return pass_total(pass, field); };
  namespace span = obs::span_name;

  // campaign
  const CampaignShape shape = campaign_shape(pass, w.jobs);
  m.add("campaign.worker_busy_frac", shape.busy_frac, "ratio");
  m.add("campaign.tail_idle_ms", shape.tail_idle_ms, "ms");
  m.add("campaign.retries",
        sum_records(pass, [](const Record& r) { return r.attempts - 1; }),
        "count");

  // wasai: init, and the teardown analyze() does after total_ms is taken.
  double init_ms = 0, teardown_ms = 0;
  for (const CallSpan& c : pass.calls) {
    init_ms += c.init_ms;
    teardown_ms += ms_between(c.begin, c.end) - c.total_ms;
  }
  const double n = static_cast<double>(pass.report.records.size());
  m.add("analyze.init_ms", init_ms / n, "ms");
  m.add("analyze.teardown_ms", teardown_ms / n, "ms");
  m.add("contract.self_ms", self_ms(span::kContract), "ms");
  m.add("load.self_ms", self_ms(span::kLoad), "ms");
  m.add("init.self_ms", self_ms(span::kInit), "ms");
  m.add("deploy.self_ms", self_ms(span::kDeploy), "ms");

  // engine
  const double seeds = total(&Record::adaptive_seeds);
  const double queries = total(&Record::solver_queries);
  const double cache_hits = total(&Record::solver_cache_hits);
  const double flips = queries + cache_hits;
  m.add("engine.transactions", total(&Record::transactions), "count");
  m.add("engine.adaptive_seeds", seeds, "count");
  m.add("engine.seed_yield", flips > 0 ? seeds / flips : 0, "ratio");
  m.add("fuzz.self_ms", self_ms(span::kFuzz), "ms");

  // wasm / instrument / analysis (init-time)
  m.add("decode.self_ms", self_ms(span::kDecode), "ms");
  m.add("instrument.self_ms", self_ms(span::kInstrument), "ms");
  m.add("instrument.sites", counter(reg, "instrument.sites"), "count");
  m.add("static_analyze.self_ms", self_ms(span::kStaticAnalyze), "ms");
  m.add("static.flips_pruned", sum_records(pass, [](const Record& r) {
          return r.static_record ? r.static_record->flips_pruned : 0;
        }),
        "count");
  m.add("static.replays_skipped", sum_records(pass, [](const Record& r) {
          return r.static_record ? r.static_record->replays_skipped : 0;
        }),
        "count");

  // chain + eosvm
  const double steps = counter(reg, "execute.steps");
  m.add("execute.self_ms", self_ms(span::kExecute), "ms");
  m.add("execute.steps", steps, "count");
  m.add("execute.steps_per_s", per_s(steps, span::kExecute), "1/s");
  m.add("execute.tx_us.p50", p("execute.tx_us", 0.5), "us");

  // symbolic replay
  const double events = counter(reg, "replay.events");
  m.add("replay.runs", counter(reg, "replay.runs"), "count");
  m.add("replay.events", events, "count");
  m.add("replay.self_ms", self_ms(span::kReplay), "ms");
  m.add("replay.events_per_s", per_s(events, span::kReplay), "1/s");
  m.add("replay.failures", total(&Record::replay_failures), "count");

  // symbolic solver
  m.add("solver.queries", queries, "count");
  m.add("solver.sat", total(&Record::solver_sat), "count");
  m.add("solver.unsat", total(&Record::solver_unsat), "count");
  m.add("solver.unknown", total(&Record::solver_unknown), "count");
  m.add("solver.sat_late", total(&Record::solver_sat_late), "count");
  m.add("solver.query_us.p50", p("solver.query_us", 0.5), "us");
  m.add("solver.query_us.p90", p("solver.query_us", 0.9), "us");
  m.add("solve_flips.self_ms", self_ms(span::kSolve), "ms");
  m.add("solver.cache_hits", cache_hits, "count");
  m.add("solver.cache_hit_rate", flips > 0 ? cache_hits / flips : 0,
        "ratio");

  // scanner
  m.add("oracle_scan.self_ms", self_ms(span::kOracleScan), "ms");
  m.add("scanner.findings",
        sum_records(pass,
                    [](const Record& r) { return r.scan.findings.size(); }),
        "count");

  // Shares of all self time, for the dominant-phase claims (solve_flips on
  // testgen-campaign, replay on long-trace) and the unattributed `contract`
  // self time.
  double all_self_ms = 0;
  for (const auto& [name, stat] : phases) all_self_ms += stat.self_us / 1000.0;
  for (const char* name :
       {span::kSolve, span::kReplay, span::kExecute, span::kContract}) {
    m.add(std::string(name) + ".self_pct",
          all_self_ms > 0 ? 100 * self_ms(name) / all_self_ms : 0, "%");
  }

  // obs
  double span_events = 0;
  for (const obs::Obs* track : reg.tracks()) {
    span_events += static_cast<double>(track->events().size());
  }
  m.add("obs.span_events", span_events, "count");
  return m;
}

// ------------------------------------------------------------------ checks

using Verdicts = std::vector<std::set<scanner::VulnType>>;

Verdicts verdicts(const Pass& pass) {
  Verdicts out;
  for (const auto& r : pass.report.records) out.push_back(r.scan.found);
  return out;
}

int run(const Args& args) {
  // ---- set-up: build the workload's inputs ------------------------------
  std::vector<double> setup_s;
  const auto time_setups = [&] {
    std::optional<Workload> built;
    for (int i = 0; i < kSetupRepeats; ++i) {
      built.reset();
      const auto t0 = Clock::now();
      built = perfbench::make_workload(args.workload, args.seed);
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
    return built;
  };
  const std::optional<Workload> workload = time_setups();
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Workload& w = *workload;
  const ContractIndex index = index_contracts(w);

  // ---- warm-up ----------------------------------------------------------
  {
    const std::size_t n = std::min(kWarmupContracts, w.inputs.size());
    const std::vector<campaign::ContractInput> head(w.inputs.begin(),
                                                    w.inputs.begin() + n);
    (void)run_pass(w, index, head, /*traced=*/false);
  }

  // ---- timed window -----------------------------------------------------
  std::vector<Pass> passes;
  const auto window_start = Clock::now();
  const auto elapsed_s = [&] {
    return ms_between(window_start, Clock::now()) / 1000.0;
  };
  std::size_t untraced = 0, traced = 0;
  while (elapsed_s() < args.seconds || untraced == 0 ||
         (args.trace && traced == 0)) {
    const bool trace_this = args.trace && traced < untraced;
    // Each pass's own peak; see peak_rss_mb below.
    reset_peak_rss();
    passes.push_back(run_pass(w, index, w.inputs, trace_this));
    passes.back().peak_rss_mb = peak_rss_mb();
    (trace_this ? traced : untraced) += 1;
    (void)time_setups();
  }

  std::vector<const Pass*> plain, obs_on;
  for (const Pass& p : passes) (p.traced ? obs_on : plain).push_back(&p);

  // ---- output checks ----------------------------------------------------
  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  for (const Pass& p : passes) {
    attempted += w.inputs.size();
    if (p.report.records.size() != w.inputs.size()) {
      failed += w.inputs.size() - p.report.records.size();
      correct = false;
    }
    for (const auto& r : p.report.records) {
      if (r.status != campaign::ContractStatus::Ok) {
        ++failed;
        correct = false;
        std::cerr << "perfbench: " << r.id << " ended "
                  << campaign::to_string(r.status) << ": " << r.error << "\n";
      }
    }
  }
  const Verdicts reference = verdicts(passes.front());
  for (const Pass& p : passes) {
    if (verdicts(p) != reference) {
      correct = false;
      std::cerr << "perfbench: findings differ between passes"
                << (p.traced ? " (traced vs untraced)" : "") << "\n";
    }
  }
  const double agreement = label_agreement(w, passes.front());
  if (agreement < w.agreement_floor) {
    correct = false;
    std::cerr << "perfbench: label_agreement " << agreement
              << " below the floor " << w.agreement_floor << "\n";
  }
  for (const Pass* p : obs_on) {
    if (const auto err = obs::validate_chrome_trace(
            obs::chrome_trace_json(*p->registry))) {
      correct = false;
      std::cerr << "perfbench: invalid trace: " << *err << "\n";
    }
  }

  // ---- metrics ----------------------------------------------------------
  MetricSet metrics;
  const std::vector<double> latencies =
      contract_latencies_ms(plain, w.inputs.size());
  if (!args.trace) {
    metrics.add("contracts_per_s", serial_contracts_per_s(plain, latencies),
                "1/s");
    metrics.add("latency_p50_ms", percentile(latencies, 0.5), "ms");
    metrics.add("latency_p90_ms", percentile(latencies, 0.9), "ms");
    metrics.add("setup_s", median(setup_s), "s");
    // The lowest per-pass peak: a pass's peak also holds whatever freed
    // memory the allocator kept from earlier passes, which now and then
    // added 7-12% to one pass's reading, to the first pass's, or to most
    // passes of a run.
    double rss_mb = INFINITY;
    for (const Pass* p : plain) rss_mb = std::min(rss_mb, p->peak_rss_mb);
    metrics.add("peak_rss_mb", rss_mb, "MB");
    metrics.add("branches_covered", median_over(plain, [](const Pass& p) {
                  return pass_total(p, &Record::distinct_branches);
                }),
                "count");
    metrics.add("label_agreement", agreement, "ratio");
  } else {
    std::map<std::string, std::vector<double>> per_pass;
    std::map<std::string, std::string> units;
    for (const Pass* p : obs_on) {
      const MetricSet layers = layer_metrics(w, *p);
      for (const auto& [name, m] : layers.all()) {
        per_pass[name].push_back(m.value);
        units[name] = m.unit;
      }
    }
    for (const auto& [name, values] : per_pass) {
      metrics.add(name, median(values), units[name]);
    }
    const double plain_cps = median_over(plain, contracts_per_s);
    const double traced_cps = median_over(obs_on, contracts_per_s);
    metrics.add("obs.overhead_pct", (plain_cps / traced_cps - 1) * 100, "%");
    metrics.add("latency.samples", static_cast<double>(latencies.size()),
                "count");
    metrics.add("passes.untraced", static_cast<double>(plain.size()), "count");
    metrics.add("passes.traced", static_cast<double>(obs_on.size()), "count");
    // Counts that differ between passes of the same inputs leak timing
    // (Z3 wall-clock timeouts); only a range of 0 backs a count claim.
    const std::pair<const char*, Count> repeat_counts[] = {
        {"repeat.adaptive_seeds.range", &Record::adaptive_seeds},
        {"repeat.branches_covered.range", &Record::distinct_branches},
        {"repeat.solver_unknown.range", &Record::solver_unknown},
        {"repeat.solver_sat_late.range", &Record::solver_sat_late},
    };
    for (const auto& [name, field] : repeat_counts) {
      metrics.add(name, range_over(passes, [field](const Pass& p) {
                    return pass_total(p, field);
                  }),
                  "count");
    }
  }

  std::fprintf(stderr,
               "perfbench: %s seed=%llu passes=%zu untraced + %zu traced, "
               "%zu contracts/pass, %zu latency samples\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               plain.size(), obs_on.size(), w.inputs.size(),
               latencies.size());
  std::fprintf(stderr, "  findings:");
  for (const auto& [type, count] :
       passes.front().report.summary.findings_by_type) {
    std::fprintf(stderr, " %s=%zu", type.c_str(), count);
  }
  std::fprintf(stderr, "\n");
  for (const auto& [name, m] : metrics.all()) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
  const util::Json result = util::JsonObject{
      {"correct", correct},
      {"attempted", static_cast<double>(attempted)},
      {"failed", static_cast<double>(failed)},
      {"metrics", metrics.json()},
  };
  std::cout << util::dump_json(result) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds T "
                 "[--trace 0|1]\n  workloads:";
    for (const auto& name : perfbench::workload_names()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
