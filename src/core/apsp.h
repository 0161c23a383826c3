// Exact all-pairs shortest paths on the unicast clique via distributed
// min-plus (distance) products.
//
// The paper's central message — the congested clique can run powerful
// centralized algebraic algorithms in few rounds — extends beyond rings:
// Censor-Hillel et al., *Algebraic Methods in the Congested Clique*
// (PODC'15) §4, and Le Gall (DISC'16) show the same block-decomposed
// distributed matrix product computes *semiring* products, and min-plus
// products give APSP. This module runs exactly the PR 3 machinery
// (core/block_mm.h: [m]^3 decomposition + two-hop balanced relay) over the
// tropical semiring (linalg/tropical):
//
//  * one distance product C_ij = min_k (A_ik + B_kj) costs the identical
//    data-independent schedule as the F_{2^61-1} product — elements are
//    61-bit words (kTropicalInf = all-ones encodes +infinity), so
//    O(n^{1/3} · w / b) rounds, exactly 6·n^{1/3} at perfect cubes with
//    b = 64;
//  * exact APSP is ⌈log2(n-1)⌉ repeated squarings of the one-step weight
//    matrix W (0 diagonal): W^{⊗ 2^s} is the shortest-path distance using
//    ≤ 2^s edges, and simple shortest paths have ≤ n-1 edges. Squaring
//    preserves the data-independent plan because every squaring moves the
//    *same* globally-known length matrix — payload sizes depend on (n, w)
//    only, never on weights — so apsp_plan is just `squarings` copies of
//    the product schedule plus one eccentricity exchange;
//  * derived queries: per-vertex eccentricities (a 61-bit all-gather, like
//    the counting protocols' partial-sum share), and from them diameter and
//    radius, all exact and +infinity-aware (disconnected inputs yield
//    infinite eccentricities).
//
// The protocol CC_CHECKs measured rounds and bits against apsp_plan on
// every run, the same contract as algebraic_mm_plan / mst_phase_plan.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "graph/graph.h"
#include "linalg/tropical.h"

namespace cclique {

/// Which local kernel the triple players run for their block distance
/// products. Both compute the identical product; the metered schedule is
/// kernel-independent (the bench_e18 ablation asserts exactly that).
enum class TropicalKernel {
  kBlocked,     ///< i-k-j row-streaming kernel with +inf-lane skipping (default)
  kSchoolbook,  ///< per-entry reference kernel (ablation / cross-check)
};

/// The data-independent cost schedule of one APSP run: `squarings` distance
/// products (each with the shared block-MM schedule) plus the final
/// eccentricity exchange. A function of (n, bandwidth) alone — never of
/// edge weights — so every run can be checked against it.
struct ApspPlan {
  int n = 0;
  int squarings = 0;      ///< ⌈log2(n-1)⌉ for n >= 2, else 0
  AlgebraicMmPlan product;  ///< per-squaring schedule (word_bits = 61)
  int ecc_rounds = 0;     ///< final 61-bit eccentricity all-gather
  int total_rounds = 0;   ///< squarings * product.total_rounds + ecc_rounds
  std::uint64_t total_bits = 0;
  /// Asymptotic reference the measured series is printed against:
  /// 6 · n^{1/3} · w / b · ⌈log2 n⌉ (one product per squaring).
  double series_rounds = 0;
};

/// Computes the exact round/bit schedule of apsp_run for n players at
/// per-edge bandwidth `bandwidth` bits. Preconditions: n >= 1,
/// bandwidth >= 1.
ApspPlan apsp_plan(int n, int bandwidth);

/// Outcome of one distributed distance product (min_plus_mm): the shared
/// block-MM result shape — measured rounds/bits, equal to the plan.
using MinPlusResult = AlgebraicMmResult;

/// Distributed distance product C = A ⊗ B over (min, +): player v holds
/// row v of A and B and ends holding row v of C; `*c` assembles all rows.
/// Runs the identical [m]^3 relay schedule as algebraic_mm_m61 (61-bit
/// words). Throws ModelViolation/InvariantError if the run leaves the
/// planned schedule.
MinPlusResult min_plus_mm(CliqueUnicast& net, const TropicalMat& a,
                          const TropicalMat& b, TropicalMat* c,
                          TropicalKernel kernel = TropicalKernel::kBlocked);

/// min_plus_mm (blocked kernel) on a plan already in hand — the dense
/// branch of apsp_run_sparse runs on the dense plan its SparseMmPlan
/// carries instead of pricing it again. Preconditions: plan ==
/// algebraic_mm_plan(n, 61, net.bandwidth()) (its n, word width and
/// bandwidth are CC_REQUIREd); the run CC_CHECKs its measured cost against
/// `plan`.
MinPlusResult min_plus_mm(CliqueUnicast& net, const TropicalMat& a,
                          const TropicalMat& b, TropicalMat* c,
                          const AlgebraicMmPlan& plan);

/// Distance product with operands/outputs owned per `layout`
/// (core/block_mm.h) — the tropical twin of algebraic_mm_m61_sharded.
/// Values match min_plus_mm; rounds/bits follow sharded_mm_plan(n, 61, b,
/// layout) and are CC_CHECKed against it.
MinPlusResult min_plus_mm_sharded(CliqueUnicast& net, const TropicalMat& a,
                                  const TropicalMat& b, TropicalMat* c,
                                  const blockmm::ShardLayout& layout);

/// Retained intermediate state of one APSP run — the squaring chain the
/// serving layer (core/query_service) caches so hop-bounded queries are
/// answered from local reads long after the protocol finished. powers[0] is
/// the one-step matrix W and powers[s] the matrix after s squarings: the
/// exact shortest-path distance restricted to walks of <= 2^s edges (so
/// powers.back() equals the result's dist). Retention is pure local
/// copying — requesting artifacts never changes the metered schedule.
struct ApspArtifacts {
  std::vector<TropicalMat> powers;  ///< squarings + 1 matrices
};

/// Outcome of the APSP protocol.
struct ApspResult {
  ApspPlan plan;
  /// Exact shortest-path distances: dist.get(u, v) = d_w(u, v),
  /// kTropicalInf iff v is unreachable from u. Row v is what player v holds.
  TropicalMat dist;
  std::vector<MinPlusResult> products;  ///< one entry per squaring
  /// ecc[v] = max_u d(v, u); kTropicalInf iff the graph is disconnected.
  std::vector<std::uint64_t> eccentricity;
  std::uint64_t diameter = 0;  ///< max eccentricity (kTropicalInf if disconnected)
  std::uint64_t radius = 0;    ///< min eccentricity
  int ecc_rounds = 0;     ///< measured; equals plan.ecc_rounds
  int total_rounds = 0;   ///< measured; equals plan.total_rounds
  std::uint64_t total_bits = 0;  ///< measured; equals plan.total_bits
};

/// Runs exact APSP over the clique: player v initially holds row v of the
/// one-step weight matrix (the weights of edges incident to vertex v;
/// weights[e] indexed by g.edges() order, the core/mst convention) and ends
/// holding row v of the distance matrix plus the clique-wide eccentricity
/// spectrum. Weights are non-negative 32-bit values, so no finite distance
/// can saturate (see linalg/tropical.h). Measured rounds/bits are
/// CC_CHECKed against apsp_plan(n, net.bandwidth()) on every run.
/// When `artifacts` is non-null the full squaring chain is retained in it
/// (local copies only — the schedule and every CommStats counter are
/// identical with or without retention).
ApspResult apsp_run(CliqueUnicast& net, const Graph& g,
                    const std::vector<std::uint32_t>& weights,
                    TropicalKernel kernel = TropicalKernel::kBlocked,
                    ApspArtifacts* artifacts = nullptr);

/// One squaring of the adaptive sparse APSP run.
struct ApspSparseStep {
  bool used_sparse = false;      ///< which branch the crossover picked
  std::uint64_t declared_nnz = 0;  ///< finite entries of D_s (the profile's a_nnz)
  int planned_rounds = 0;          ///< chosen branch's planned rounds (announcement included)
  std::uint64_t planned_bits = 0;  ///< chosen branch's planned bits (announcement included)
  std::uint64_t dense_bits = 0;    ///< the oblivious schedule's bits, for reference
  int rounds = 0;                  ///< measured rounds of this squaring; equals planned_rounds
  std::uint64_t bits = 0;          ///< measured bits of this squaring; equals planned_bits
};

/// Outcome of the adaptive sparse APSP run (distances only — the
/// eccentricity exchange is identical to apsp_run's and orthogonal to the
/// backend question).
struct ApspSparseResult {
  TropicalMat dist;  ///< exact distances, identical to apsp_run's
  std::vector<ApspSparseStep> steps;  ///< one per squaring
  int total_rounds = 0;
  std::uint64_t total_bits = 0;
};

/// Repeated distance-product squaring where every squaring re-declares the
/// current matrix's nnz profile (core/sparse_mm.h) and routes through the
/// sparse schedule iff the crossover rule prices it cheaper — distance
/// matrices *densify* as powers close the graph's transitive closure, so a
/// typical sparse input starts on the sparse branch and crosses to dense
/// once fill-in wins. Distances are identical to apsp_run's; every product
/// is still CC_CHECKed against its own (dense or sparse) plan, the dense
/// branch additionally pays the announcement that made the decision common
/// knowledge, and every squaring's measured rounds and bits are CC_CHECKed
/// against its step's plan, announcement included.
ApspSparseResult apsp_run_sparse(CliqueUnicast& net, const Graph& g,
                                 const std::vector<std::uint32_t>& weights);

/// Reference single-machine APSP: one Dijkstra per source over an
/// adjacency-indexed weight table (non-negative weights; zero-weight edges
/// allowed). Returns the full distance matrix, kTropicalInf for unreachable
/// pairs — the ground truth apsp_run is tested against.
TropicalMat apsp_dijkstra_reference(const Graph& g,
                                    const std::vector<std::uint32_t>& weights);

}  // namespace cclique
