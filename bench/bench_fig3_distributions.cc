// Reproduces Figure 3: the per-request total-work distributions of the
// Bing web-search workload (3a) and the option-pricing finance workload
// (3b), printed as probability histograms — exactly the presentation of
// the paper's figure — plus an empirical-sample cross-check and the
// synthetic log-normal workload's histogram for completeness.
#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "src/metrics/table.h"
#include "src/sim/rng.h"
#include "src/workload/distributions.h"

namespace {

using namespace pjsched;

void print_discrete(const workload::DiscreteWorkDistribution& dist,
                    const char* label) {
  std::cout << "# " << label << " — request total-work distribution '"
            << dist.name() << "', mean " << dist.mean_ms() << " ms\n";
  // Empirical check: 200k samples against the analytic pmf.
  sim::Rng rng(7);
  std::map<double, std::size_t> counts;
  constexpr std::size_t kSamples = 200000;
  for (std::size_t i = 0; i < kSamples; ++i) ++counts[dist.sample_ms(rng)];

  metrics::Table table({"work_ms", "probability", "empirical", "bar"});
  for (std::size_t b = 0; b < dist.bins().size(); ++b) {
    const double p = dist.pmf()[b];
    const double emp =
        static_cast<double>(counts[dist.bins()[b].work_ms]) / kSamples;
    table.add_row({metrics::Table::cell(dist.bins()[b].work_ms),
                   metrics::Table::cell(p), metrics::Table::cell(emp),
                   std::string(static_cast<std::size_t>(p * 60.0), '#')});
  }
  table.print(std::cout);
  std::cout << "\n";
}

void print_lognormal() {
  const auto dist = workload::default_lognormal_distribution();
  std::cout << "# synthetic log-normal workload, mean " << dist.mean_ms()
            << " ms (histogram over [0, 60) ms, 12 bins)\n";
  sim::Rng rng(11);
  // Fixed-width 5 ms bins; samples are non-negative and the tail past
  // 60 ms clamps into the last bin.
  constexpr std::size_t kBins = 12;
  constexpr double kBinMs = 60.0 / kBins;
  constexpr std::size_t kSamples = 200000;
  std::vector<std::size_t> counts(kBins, 0);
  for (std::size_t i = 0; i < kSamples; ++i)
    ++counts[static_cast<std::size_t>(
        std::min(dist.sample_ms(rng) / kBinMs, kBins - 1.0))];
  metrics::Table table({"bin_center_ms", "fraction", "bar"});
  for (std::size_t b = 0; b < kBins; ++b) {
    const double center = kBinMs * (static_cast<double>(b) + 0.5);
    const double f =
        static_cast<double>(counts[b]) / static_cast<double>(kSamples);
    table.add_row({metrics::Table::cell(center),
                   metrics::Table::cell(f),
                   std::string(static_cast<std::size_t>(f * 60.0), '#')});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  print_discrete(workload::bing_distribution(),
                 "Figure 3(a): Bing search server");
  print_discrete(workload::finance_distribution(),
                 "Figure 3(b): finance server");
  print_lognormal();
  return 0;
}
