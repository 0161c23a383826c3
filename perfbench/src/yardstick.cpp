#include "yardstick.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

/// Keeps the result observable so the job is not optimized away.
volatile std::uint64_t g_sink = 0;

/// Creates 10000 small vectors of ints, dropping the oldest half whenever
/// more than 500 are alive.
void job() {
  std::vector<std::vector<int>> small;
  for (int i = 0; i < 10000; ++i) {
    small.emplace_back(static_cast<std::size_t>(1 + (i * 7) % 13), i);
    if (small.size() > 500) small.erase(small.begin(), small.begin() + 250);
  }
  g_sink = g_sink + small.size() + static_cast<std::uint64_t>(small.back().front());
}

}  // namespace

double yardstick_s() {
  // The first run brings the job's heap chunks back into the caches the op
  // just used, so the timed run does not depend on what the op left there.
  job();
  const auto t0 = std::chrono::steady_clock::now();
  job();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
