// Ablation for the dynamic address pool (§4.2 future work): recall on
// admin-gated Rollback contracts, the paper's documented false-negative
// class, with and without the pool.
#include <cstdio>

#include "corpus/templates.hpp"
#include "wasai/wasai.hpp"

int main() {
  using namespace wasai;

  std::printf("Ablation: extensions\n\n");
  std::printf(
      "admin-gated Rollback recall (paper: 9 FNs from the missing "
      "address pool):\n");
  int detected_without = 0, detected_with = 0;
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    util::Rng rng(100 + i);
    const auto sample =
        corpus::make_rollback_sample(rng, true, {}, /*admin_gated=*/true);
    AnalysisOptions base;
    base.fuzz.iterations = 60;
    base.fuzz.rng_seed = i + 1;
    detected_without +=
        analyze(sample.wasm, sample.abi, base).has(scanner::VulnType::Rollback);
    AnalysisOptions pool = base;
    pool.fuzz.dynamic_address_pool = true;
    detected_with +=
        analyze(sample.wasm, sample.abi, pool).has(scanner::VulnType::Rollback);
  }
  std::printf("  without pool: %d/%d detected (the paper's WASAI)\n",
              detected_without, n);
  std::printf("  with pool   : %d/%d detected (extension)\n", detected_with, n);
  return 0;
}
