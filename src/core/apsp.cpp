#include "core/apsp.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "core/block_mm.h"
#include "core/sparse_mm.h"

namespace cclique {

namespace {

/// The reference-kernel variant of the tropical adapter, for the
/// TropicalKernel::kSchoolbook ablation.
struct TropicalOpsSchoolbook : blockmm::TropicalOps {
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return tropical_multiply_schoolbook(a, b);
  }
};

/// Smallest s with 2^s >= x (x >= 1).
int ceil_log2(std::uint64_t x) {
  int s = 0;
  while ((1ULL << s) < x) ++s;
  return s;
}

}  // namespace

ApspPlan apsp_plan(int n, int bandwidth) {
  // Plan-function sink: the full squaring schedule is priced from (n, b)
  // alone — edge weights never enter (see DESIGN.md, obliviousness contract).
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("apsp_plan"));
  CC_REQUIRE(n >= 1, "need at least one player");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  ApspPlan plan;
  plan.n = n;
  plan.squarings = n >= 2 ? ceil_log2(static_cast<std::uint64_t>(n) - 1) : 0;
  plan.product = algebraic_mm_plan(n, /*word_bits=*/61, bandwidth);
  // The eccentricity exchange is one all-gather of a 61-bit value.
  const ExchangeCost ecc = all_gather_cost(n, 61, bandwidth);
  plan.ecc_rounds = ecc.rounds;
  plan.total_rounds = plan.squarings * plan.product.total_rounds + plan.ecc_rounds;
  plan.total_bits =
      static_cast<std::uint64_t>(plan.squarings) * plan.product.total_bits + ecc.bits;
  plan.series_rounds =
      plan.product.series_rounds * static_cast<double>(ceil_log2(static_cast<std::uint64_t>(n)));
  return plan;
}

namespace {

/// Product driver with the (expensive to recompute) plan passed in, so
/// apsp_run prices the schedule once instead of once per squaring.
MinPlusResult run_product(CliqueUnicast& net, const TropicalMat& a,
                          const TropicalMat& b, TropicalMat* c,
                          TropicalKernel kernel, const AlgebraicMmPlan& plan) {
  if (kernel == TropicalKernel::kSchoolbook) {
    return blockmm::run_block_mm<TropicalOpsSchoolbook, MinPlusResult>(net, a, b, c, plan);
  }
  return blockmm::run_block_mm<blockmm::TropicalOps, MinPlusResult>(net, a, b, c, plan);
}

}  // namespace

MinPlusResult min_plus_mm(CliqueUnicast& net, const TropicalMat& a,
                          const TropicalMat& b, TropicalMat* c,
                          TropicalKernel kernel) {
  const AlgebraicMmPlan plan = algebraic_mm_plan(a.n(), /*word_bits=*/61, net.bandwidth());
  return run_product(net, a, b, c, kernel, plan);
}

MinPlusResult min_plus_mm(CliqueUnicast& net, const TropicalMat& a,
                          const TropicalMat& b, TropicalMat* c,
                          const AlgebraicMmPlan& plan) {
  CC_REQUIRE(plan.n == a.n() && plan.word_bits == 61 && plan.bandwidth == net.bandwidth(),
             "plan must be algebraic_mm_plan(n, 61, net.bandwidth())");
  return run_product(net, a, b, c, TropicalKernel::kBlocked, plan);
}

MinPlusResult min_plus_mm_sharded(CliqueUnicast& net, const TropicalMat& a,
                                  const TropicalMat& b, TropicalMat* c,
                                  const blockmm::ShardLayout& layout) {
  const AlgebraicMmPlan plan =
      sharded_mm_plan(a.n(), /*word_bits=*/61, net.bandwidth(), layout);
  return blockmm::run_block_mm<blockmm::TropicalOps, MinPlusResult>(net, a, b, c, plan, layout);
}

ApspResult apsp_run(CliqueUnicast& net, const Graph& g,
                    const std::vector<std::uint32_t>& weights,
                    TropicalKernel kernel, ApspArtifacts* artifacts) {
  const int n = g.num_vertices();
  CC_REQUIRE(n >= 1, "need at least one vertex");
  CC_REQUIRE(net.n() == n, "one player per vertex");

  ApspResult out;
  out.plan = apsp_plan(n, net.bandwidth());
  const int rounds_before = net.stats().rounds;
  const std::uint64_t bits_before = net.stats().total_bits;

  // ---- Repeated squaring: D_0 = W (0 diagonal), D_{s+1} = D_s ⊗ D_s.
  // D_s is the exact shortest-path distance over walks of <= 2^s edges, and
  // simple shortest paths have <= n-1 edges, so ⌈log2(n-1)⌉ squarings reach
  // the closure. Every squaring is one full distributed product of the
  // globally-known geometry — weights only change entry *values*, never a
  // payload length — which is what keeps the whole run on the planned
  // data-independent schedule.
  out.dist = TropicalMat::from_weighted_graph(g, weights);
  if (artifacts != nullptr) {
    // Artifact retention is a local copy per squaring: the power chain is
    // exactly what the protocol computes anyway, so keeping it cannot touch
    // the metered schedule.
    artifacts->powers.clear();
    artifacts->powers.reserve(static_cast<std::size_t>(out.plan.squarings) + 1);
    artifacts->powers.push_back(out.dist);
  }
  out.products.reserve(static_cast<std::size_t>(out.plan.squarings));
  for (int s = 0; s < out.plan.squarings; ++s) {
    TropicalMat next;
    out.products.push_back(
        run_product(net, out.dist, out.dist, &next, kernel, out.plan.product));
    out.dist = std::move(next);
    if (artifacts != nullptr) artifacts->powers.push_back(out.dist);
  }

  // ---- Eccentricity spectrum: player v derives ecc[v] = max_u d(v, u)
  // from its own distance row, then a 61-bit all-gather makes the spectrum
  // (hence diameter and radius) common knowledge — the same closing shape
  // as the counting protocols' partial-sum share.
  // Each value is player-private (ownership-tagged) until the exchange
  // below hands it off into the common-knowledge result struct.
  locality::PerPlayer<std::uint64_t> ecc(
      n, CC_LOCALITY_SITE("per-player eccentricity"));
  for (int v = 0; v < n; ++v) {
    std::uint64_t e = 0;
    for (int u = 0; u < n; ++u) e = std::max(e, out.dist.get(v, u));
    ecc[v] = e;
  }
  out.ecc_rounds = all_gather(net, 1, 61, [&ecc](int v, int /*f*/) { return ecc[v]; });
  out.eccentricity = ecc.take();
  out.diameter = *std::max_element(out.eccentricity.begin(), out.eccentricity.end());
  out.radius = *std::min_element(out.eccentricity.begin(), out.eccentricity.end());

  out.total_rounds = net.stats().rounds - rounds_before;
  out.total_bits = net.stats().total_bits - bits_before;
  CC_CHECK(out.ecc_rounds == out.plan.ecc_rounds,
           "eccentricity exchange left the planned schedule");
  CC_CHECK(out.total_rounds == out.plan.total_rounds,
           "APSP rounds diverged from the planned schedule");
  CC_CHECK(out.total_bits == out.plan.total_bits,
           "APSP bits diverged from the planned schedule");
  return out;
}

ApspSparseResult apsp_run_sparse(CliqueUnicast& net, const Graph& g,
                                 const std::vector<std::uint32_t>& weights) {
  const int n = g.num_vertices();
  CC_REQUIRE(n >= 1, "need at least one vertex");
  CC_REQUIRE(net.n() == n, "one player per vertex");

  ApspSparseResult out;
  const int rounds_before = net.stats().rounds;
  const std::uint64_t bits_before = net.stats().total_bits;
  const int squarings =
      n >= 2 ? ceil_log2(static_cast<std::uint64_t>(n) - 1) : 0;

  out.dist = TropicalMat::from_weighted_graph(g, weights);
  out.steps.reserve(static_cast<std::size_t>(squarings));
  for (int s = 0; s < squarings; ++s) {
    // Re-sparsify and re-declare each squaring: D_s's finite entries are
    // this round's explicit structure, so the crossover is priced against
    // the *current* fill, not the input graph's.
    const int step_rounds_before = net.stats().rounds;
    const std::uint64_t step_bits_before = net.stats().total_bits;
    const Csr61 cur = Csr61::from_dense(out.dist);
    const SparseNnzProfile profile = declared_nnz_profile(cur, cur);
    const SparseMmPlan plan =
        sparse_mm_plan(n, /*word_bits=*/61, net.bandwidth(), profile);
    ApspSparseStep step;
    step.declared_nnz = plan.a_nnz;
    step.dense_bits = plan.dense.total_bits;
    TropicalMat next;
    if (sparse_backend_preferred(plan)) {
      sparse_min_plus_mm(net, cur, cur, &next, profile, plan);
      step.used_sparse = true;
      step.planned_rounds = plan.total_rounds;
      step.planned_bits = plan.total_bits;
    } else {
      CC_CHECK(run_nnz_announcement(net, profile, plan.count_bits) == plan.announce_rounds,
               "nnz announcement left the planned schedule");
      const MinPlusResult r = min_plus_mm(net, out.dist, out.dist, &next, plan.dense);
      step.planned_rounds = plan.announce_rounds + r.plan.total_rounds;
      step.planned_bits = plan.announce_bits + r.plan.total_bits;
    }
    step.rounds = net.stats().rounds - step_rounds_before;
    step.bits = net.stats().total_bits - step_bits_before;
    CC_CHECK(step.rounds == step.planned_rounds && step.bits == step.planned_bits,
             "APSP squaring left its planned schedule");
    out.dist = std::move(next);
    out.steps.push_back(step);
  }

  out.total_rounds = net.stats().rounds - rounds_before;
  out.total_bits = net.stats().total_bits - bits_before;
  return out;
}

TropicalMat apsp_dijkstra_reference(const Graph& g,
                                    const std::vector<std::uint32_t>& weights) {
  const int n = g.num_vertices();
  const std::vector<Edge> edges = g.edges();
  CC_REQUIRE(weights.size() == edges.size(), "one weight per edge");
  // Adjacency-indexed weight table (the core/mst convention): adj[v] lists
  // (neighbor, weight) pairs.
  std::vector<std::vector<std::pair<int, std::uint32_t>>> adj(
      static_cast<std::size_t>(n));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    adj[static_cast<std::size_t>(edges[e].u)].push_back({edges[e].v, weights[e]});
    adj[static_cast<std::size_t>(edges[e].v)].push_back({edges[e].u, weights[e]});
  }
  TropicalMat dist(n);
  using Item = std::pair<std::uint64_t, int>;  // (distance, vertex)
  for (int s = 0; s < n; ++s) {
    std::vector<std::uint64_t> d(static_cast<std::size_t>(n), kTropicalInf);
    d[static_cast<std::size_t>(s)] = 0;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    pq.push({0, s});
    while (!pq.empty()) {
      const auto [du, u] = pq.top();
      pq.pop();
      if (du != d[static_cast<std::size_t>(u)]) continue;  // stale entry
      for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
        const std::uint64_t cand = du + w;  // < kInf: n * 2^32 distances can't saturate
        if (cand < d[static_cast<std::size_t>(v)]) {
          d[static_cast<std::size_t>(v)] = cand;
          pq.push({cand, v});
        }
      }
    }
    for (int v = 0; v < n; ++v) dist.set(s, v, d[static_cast<std::size_t>(v)]);
  }
  return dist;
}

}  // namespace cclique
