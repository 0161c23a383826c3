// Sample summaries and the result line the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// q-quantile (0 <= q <= 1) of `v` by linear interpolation between order
/// statistics (numpy's default). Empty input gives 0.
double quantile(std::vector<double> v, double q);

/// Number of samples strictly above the q-quantile.
std::size_t samples_beyond(const std::vector<double>& v, double q);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Process peak resident set size in MiB (getrusage ru_maxrss).
double peak_rss_mb();

}  // namespace perfbench
