// The benchmark's workloads (BENCHMARK.json runs two of the three): each
// builds a fixed contract corpus from a seed and names the campaign shape
// (workers, iteration budget) it runs with.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace wasai::perfbench {

/// Ground truth for one input: the category its verdict is read for and
/// whether the input is vulnerable in it. No category means the input holds
/// no vulnerable pattern, so any finding disagrees with the label.
struct Label {
  std::optional<scanner::VulnType> category;
  bool vulnerable = false;
};

struct Workload {
  std::string name;
  unsigned jobs = 1;
  int iterations = 36;
  std::uint64_t rng_seed = 1;
  std::vector<campaign::ContractInput> inputs;
  std::vector<Label> labels;  // one per input
  /// label_agreement may not fall below this share.
  double agreement_floor = 1.0;
};

/// Workload names in the order the benchmark documents them.
const std::vector<std::string>& workload_names();

/// Build `name`'s corpus from `seed`: the same seed gives byte-identical
/// inputs. Returns nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

}  // namespace wasai::perfbench
