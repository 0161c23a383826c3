// Single-machine references the benchmark checks every output against. They
// share no code with the protocols they check, except
// apsp_dijkstra_reference, the library's own ground truth for APSP.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "linalg/tropical.h"

namespace perfbench {

/// BFS hop distance for every ordered pair; -1 when unreachable.
std::vector<int> hop_distances(const cclique::Graph& g);

std::uint64_t triangles_brute(const cclique::Graph& g);
std::uint64_t four_cycles_brute(const cclique::Graph& g);

/// D ⊗ D over (min, +) by the schoolbook triple loop.
cclique::TropicalMat min_plus_square_naive(const cclique::TropicalMat& d);

/// Everything a serving query can ask about one graph version.
struct ServingReference {
  cclique::TropicalMat dist;
  std::vector<std::uint64_t> ecc;
  std::uint64_t diameter = 0;
  std::uint64_t radius = 0;
  std::uint64_t triangles = 0;
  std::uint64_t four_cycles = 0;
  std::vector<int> hops;
  int n = 0;
};

ServingReference serving_reference(const cclique::Graph& g,
                                   const std::vector<std::uint32_t>& weights);

}  // namespace perfbench
