#include "reference.h"

#include <algorithm>
#include <deque>

#include "core/apsp.h"

namespace perfbench {

using namespace cclique;

std::vector<int> hop_distances(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> hops(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
  for (int s = 0; s < n; ++s) {
    int* row = &hops[static_cast<std::size_t>(s) * static_cast<std::size_t>(n)];
    std::deque<int> queue{s};
    row[s] = 0;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : g.neighbors(u)) {
        if (row[v] >= 0) continue;
        row[v] = row[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return hops;
}

std::uint64_t triangles_brute(const Graph& g) {
  const int n = g.num_vertices();
  std::uint64_t count = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (!g.has_edge(a, b)) continue;
      for (int c = b + 1; c < n; ++c) {
        if (g.has_edge(a, c) && g.has_edge(b, c)) ++count;
      }
    }
  }
  return count;
}

std::uint64_t four_cycles_brute(const Graph& g) {
  // Each 4-cycle a-x-b-y has two diagonals {a, b} and {x, y}; summing
  // C(common neighbours, 2) over unordered pairs counts it once per diagonal.
  const int n = g.num_vertices();
  std::uint64_t twice = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      std::uint64_t common = 0;
      for (int x = 0; x < n; ++x) {
        if (x != a && x != b && g.has_edge(a, x) && g.has_edge(b, x)) ++common;
      }
      twice += common * (common - (common > 0 ? 1 : 0)) / 2;
    }
  }
  return twice / 2;
}

TropicalMat min_plus_square_naive(const TropicalMat& d) {
  const int n = d.n();
  TropicalMat out(n);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < n; ++k) {
      const std::uint64_t dik = d.get(i, k);
      if (dik == kTropicalInf) continue;
      for (int j = 0; j < n; ++j) {
        const std::uint64_t dkj = d.get(k, j);
        if (dkj == kTropicalInf) continue;
        out.min_at(i, j, dik + dkj);
      }
    }
  }
  return out;
}

ServingReference serving_reference(const Graph& g, const std::vector<std::uint32_t>& weights) {
  ServingReference r;
  r.n = g.num_vertices();
  r.dist = apsp_dijkstra_reference(g, weights);
  r.ecc.assign(static_cast<std::size_t>(r.n), 0);
  for (int v = 0; v < r.n; ++v) {
    for (int u = 0; u < r.n; ++u) {
      r.ecc[static_cast<std::size_t>(v)] =
          std::max(r.ecc[static_cast<std::size_t>(v)], r.dist.get(v, u));
    }
  }
  r.diameter = *std::max_element(r.ecc.begin(), r.ecc.end());
  r.radius = *std::min_element(r.ecc.begin(), r.ecc.end());
  r.triangles = triangles_brute(g);
  r.four_cycles = four_cycles_brute(g);
  r.hops = hop_distances(g);
  return r;
}

}  // namespace perfbench
