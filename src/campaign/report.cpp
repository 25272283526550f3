#include "campaign/report.hpp"

#include "obs/trace_export.hpp"
#include "util/jsonl.hpp"

namespace wasai::campaign {

namespace {

using util::Json;
using util::JsonArray;
using util::JsonObject;

Json num(double v) { return Json(v); }
Json num(std::size_t v) { return Json(static_cast<double>(v)); }
Json num(int v) { return Json(static_cast<double>(v)); }

Json findings_array(const scanner::Report& scan) {
  JsonArray findings;
  findings.reserve(scan.findings.size());
  for (const auto& finding : scan.findings) {
    JsonObject entry;
    entry.emplace("type", Json(std::string(scanner::to_string(finding.type))));
    entry.emplace("detail", Json(finding.detail));
    findings.emplace_back(std::move(entry));
  }
  return Json(std::move(findings));
}

Json custom_array(const std::vector<scanner::CustomFinding>& custom) {
  JsonArray out;
  out.reserve(custom.size());
  for (const auto& finding : custom) {
    JsonObject entry;
    entry.emplace("id", Json(finding.id));
    entry.emplace("detail", Json(finding.detail));
    out.emplace_back(std::move(entry));
  }
  return Json(std::move(out));
}

ContractStatus status_from_string(const std::string& name) {
  for (const ContractStatus s :
       {ContractStatus::Ok, ContractStatus::Deadline, ContractStatus::IoError,
        ContractStatus::BadInput, ContractStatus::Failed,
        ContractStatus::Interrupted, ContractStatus::Hung,
        ContractStatus::Skipped}) {
    if (name == to_string(s)) return s;
  }
  throw util::DecodeError("unknown contract status: " + name);
}

double get_num(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->as_number() : 0.0;
}

std::size_t get_size(const Json& obj, const char* key) {
  return static_cast<std::size_t>(get_num(obj, key));
}

std::string get_str(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

}  // namespace

Json record_to_json(const ContractRecord& record) {
  JsonObject timings;
  timings.emplace("load_ms", num(record.timings.load_ms));
  timings.emplace("init_ms", num(record.timings.init_ms));
  timings.emplace("fuzz_ms", num(record.timings.fuzz_ms));
  timings.emplace("solver_ms", num(record.timings.solver_ms));
  timings.emplace("total_ms", num(record.timings.total_ms));

  JsonArray curve;
  curve.reserve(record.curve.size());
  for (const auto& point : record.curve) {
    JsonArray triple;
    triple.emplace_back(num(point.iteration));
    triple.emplace_back(num(point.elapsed_ms));
    triple.emplace_back(num(point.branches));
    curve.emplace_back(std::move(triple));
  }

  JsonObject solver;
  solver.emplace("queries", num(record.solver_queries));
  solver.emplace("sat", num(record.solver_sat));
  solver.emplace("sat_late", num(record.solver_sat_late));
  solver.emplace("unsat", num(record.solver_unsat));
  solver.emplace("unknown", num(record.solver_unknown));
  solver.emplace("cache_hits", num(record.solver_cache_hits));
  solver.emplace("cache_misses", num(record.solver_cache_misses));
  solver.emplace("cache_evictions", num(record.solver_cache_evictions));

  JsonObject out;
  out.emplace("id", Json(record.id));
  // Content digest keys --resume dedup; absent when loading failed before
  // both inputs were in memory (the digest covers wasm AND abi bytes).
  if (!record.digest.empty()) out.emplace("digest", Json(record.digest));
  out.emplace("status", Json(std::string(to_string(record.status))));
  out.emplace("attempts", num(record.attempts));
  out.emplace("timings", Json(std::move(timings)));
  out.emplace("iterations", num(record.iterations_run));
  out.emplace("transactions", num(record.transactions));
  out.emplace("transactions_per_sec", num(record.transactions_per_sec));
  out.emplace("branches", num(record.distinct_branches));
  out.emplace("adaptive_seeds", num(record.adaptive_seeds));
  out.emplace("replays", num(record.replays));
  out.emplace("replay_failures", num(record.replay_failures));
  out.emplace("solver", Json(std::move(solver)));
  // Static pre-analysis block; absent entirely under --no-static, so that
  // record stream keeps the pre-static schema byte-for-byte.
  if (record.static_record.has_value()) {
    const StaticRecord& st = *record.static_record;
    JsonObject oracles;
    for (std::size_t i = 0; i < analysis::kNumOracles; ++i) {
      oracles.emplace(
          analysis::to_string(static_cast<analysis::Oracle>(i)),
          Json(st.oracle_possible[i]));
    }
    JsonObject branches;
    branches.emplace("constant", num(st.constant_branches));
    branches.emplace("untainted", num(st.untainted_branches));
    branches.emplace("taint_reachable", num(st.taint_reachable_branches));
    branches.emplace("unreachable", num(st.unreachable_branches));
    JsonObject st_json;
    st_json.emplace("converged", Json(st.converged));
    st_json.emplace("passes", num(st.passes));
    st_json.emplace("oracles", Json(std::move(oracles)));
    st_json.emplace("branch_classes", Json(std::move(branches)));
    st_json.emplace("flips_pruned", num(st.flips_pruned));
    st_json.emplace("replays_skipped", num(st.replays_skipped));
    st_json.emplace("gate_violations", num(st.gate_violations));
    st_json.emplace("analyze_ms", num(st.analyze_ms));
    out.emplace("static", Json(std::move(st_json)));
  }
  out.emplace("coverage_curve", Json(std::move(curve)));
  out.emplace("findings", findings_array(record.scan));
  out.emplace("custom_findings", custom_array(record.custom));
  if (!record.error.empty()) out.emplace("error", Json(record.error));
  // Per-phase observability block; absent entirely when obs is off, so the
  // --no-obs record is the byte-identical pre-obs schema.
  if (!record.phases.empty()) {
    out.emplace("obs", obs::phase_totals_json(record.phases));
  }
  return Json(std::move(out));
}

ContractRecord record_from_json(const Json& json) {
  ContractRecord record;
  record.id = json.at("id").as_string();
  record.digest = get_str(json, "digest");
  record.status = status_from_string(json.at("status").as_string());
  record.error = get_str(json, "error");
  record.attempts = static_cast<int>(get_num(json, "attempts"));
  if (const Json* timings = json.find("timings")) {
    record.timings.load_ms = get_num(*timings, "load_ms");
    record.timings.init_ms = get_num(*timings, "init_ms");
    record.timings.fuzz_ms = get_num(*timings, "fuzz_ms");
    record.timings.solver_ms = get_num(*timings, "solver_ms");
    record.timings.total_ms = get_num(*timings, "total_ms");
  }
  record.iterations_run = static_cast<int>(get_num(json, "iterations"));
  record.transactions = get_size(json, "transactions");
  record.transactions_per_sec = get_num(json, "transactions_per_sec");
  record.distinct_branches = get_size(json, "branches");
  record.adaptive_seeds = get_size(json, "adaptive_seeds");
  record.replays = get_size(json, "replays");
  record.replay_failures = get_size(json, "replay_failures");
  if (const Json* solver = json.find("solver")) {
    record.solver_queries = get_size(*solver, "queries");
    record.solver_sat = get_size(*solver, "sat");
    record.solver_sat_late = get_size(*solver, "sat_late");
    record.solver_unsat = get_size(*solver, "unsat");
    record.solver_unknown = get_size(*solver, "unknown");
    record.solver_cache_hits = get_size(*solver, "cache_hits");
    record.solver_cache_misses = get_size(*solver, "cache_misses");
    record.solver_cache_evictions = get_size(*solver, "cache_evictions");
  }
  // Pre-static streams carry no `static` block; the record stays
  // disengaged (exactly like a --no-static run).
  if (const Json* st_json = json.find("static")) {
    StaticRecord st;
    const Json* converged = st_json->find("converged");
    st.converged = converged != nullptr && converged->as_bool();
    st.passes = get_size(*st_json, "passes");
    if (const Json* oracles = st_json->find("oracles")) {
      for (std::size_t i = 0; i < analysis::kNumOracles; ++i) {
        const Json* possible =
            oracles->find(analysis::to_string(static_cast<analysis::Oracle>(i)));
        st.oracle_possible[i] = possible == nullptr || possible->as_bool();
      }
    }
    if (const Json* branches = st_json->find("branch_classes")) {
      st.constant_branches = get_size(*branches, "constant");
      st.untainted_branches = get_size(*branches, "untainted");
      st.taint_reachable_branches = get_size(*branches, "taint_reachable");
      st.unreachable_branches = get_size(*branches, "unreachable");
    }
    st.flips_pruned = get_size(*st_json, "flips_pruned");
    st.replays_skipped = get_size(*st_json, "replays_skipped");
    st.gate_violations = get_size(*st_json, "gate_violations");
    st.analyze_ms = get_num(*st_json, "analyze_ms");
    record.static_record = st;
  }
  if (const Json* curve = json.find("coverage_curve")) {
    for (const Json& point : curve->as_array()) {
      const JsonArray& triple = point.as_array();
      if (triple.size() != 3) {
        throw util::DecodeError("coverage_curve point is not a triple");
      }
      engine::CoveragePoint cp;
      cp.iteration = static_cast<int>(triple[0].as_number());
      cp.elapsed_ms = triple[1].as_number();
      cp.branches = static_cast<std::size_t>(triple[2].as_number());
      record.curve.push_back(cp);
    }
  }
  if (const Json* findings = json.find("findings")) {
    for (const Json& entry : findings->as_array()) {
      const std::string& type_name = entry.at("type").as_string();
      const auto type = scanner::vuln_from_string(type_name);
      if (!type.has_value()) {
        throw util::DecodeError("unknown vulnerability type: " + type_name);
      }
      record.scan.found.insert(*type);
      record.scan.findings.push_back(
          scanner::Finding{*type, entry.at("detail").as_string()});
    }
  }
  if (const Json* custom = json.find("custom_findings")) {
    for (const Json& entry : custom->as_array()) {
      scanner::CustomFinding finding;
      finding.id = entry.at("id").as_string();
      finding.detail = entry.at("detail").as_string();
      record.custom.push_back(std::move(finding));
    }
  }
  // The `obs` block is intentionally not parsed back: phase totals feed the
  // campaign rollup of the run that produced them, not a merged summary.
  return record;
}

Json findings_to_json(const ContractRecord& record) {
  JsonObject out;
  out.emplace("id", Json(record.id));
  out.emplace("status", Json(std::string(to_string(record.status))));
  out.emplace("findings", findings_array(record.scan));
  out.emplace("custom_findings", custom_array(record.custom));
  return Json(std::move(out));
}

Json summary_to_json(const CampaignSummary& summary) {
  JsonObject by_type;
  for (const auto& [type, count] : summary.findings_by_type) {
    by_type.emplace(type, num(count));
  }
  JsonObject out;
  out.emplace("contracts", num(summary.contracts));
  out.emplace("ok", num(summary.ok));
  out.emplace("deadline", num(summary.deadline));
  out.emplace("io_error", num(summary.io_error));
  out.emplace("bad_input", num(summary.bad_input));
  out.emplace("failed", num(summary.failed));
  out.emplace("interrupted", num(summary.interrupted));
  out.emplace("hung", num(summary.hung));
  out.emplace("skipped", num(summary.skipped));
  out.emplace("vulnerable", num(summary.vulnerable));
  out.emplace("transactions", num(summary.total_transactions));
  out.emplace("solver_queries", num(summary.total_solver_queries));
  out.emplace("solver_cache_hits", num(summary.total_solver_cache_hits));
  out.emplace("solver_cache_misses", num(summary.total_solver_cache_misses));
  out.emplace("flips_pruned", num(summary.total_flips_pruned));
  out.emplace("replays_skipped", num(summary.total_replays_skipped));
  out.emplace("gate_violations", num(summary.total_gate_violations));
  out.emplace("solver_ms", num(summary.total_solver_ms));
  out.emplace("wall_ms", num(summary.wall_ms));
  out.emplace("findings_by_type", Json(std::move(by_type)));
  if (!summary.phases.empty()) {
    out.emplace("obs", obs::phase_totals_json(summary.phases));
  }
  return Json(std::move(out));
}

std::size_t write_records_jsonl(std::ostream& out,
                                const CampaignReport& report) {
  util::JsonlWriter writer(out);
  for (const auto& record : report.records) {
    writer.write(record_to_json(record));
  }
  return writer.lines();
}

}  // namespace wasai::campaign
