// Sparse distributed matrix products: the sparse payload encoding of the
// block-MM executor.
//
// The dense encoding (core/block_mm.h) ships every block entry at full
// width — Θ(n^{4/3} · w) bits per player regardless of the input. On sparse
// operands almost all of that traffic carries the implicit zero. The sparse
// encoding runs the same executor (blockmm::run_block_mm: the same [m]^3
// decomposition, slice walk, two-hop relay and aggregation), but each row
// owner ships only its *explicit* entries as (local-index, value) pairs, so
// per-block payload lengths are proportional to the declared nnz counts
// instead of the dense block widths.
//
// That makes the schedule *data-dependent* — exactly what the oblivious
// guard exists to police. The contract (DESIGN.md §2.7–2.8, following the
// mst_phase_plan precedent for common-knowledge aggregates):
//
//  1. The dependence is *declared*: declared_nnz_profile() is the single
//     choke point where tainted sparsity structure (Csr61 row_ptr/cols
//     reads) becomes a plain-integer SparseNnzProfile, under an explicit
//     oblivious::declared_dependence scope. No other plan-side code reads
//     CSR structure; the static analyzer (tools/cc_oblivious.py, check 5)
//     enforces that any *_plan/*_profile body reading nnz structure names a
//     declared dependence.
//  2. The dependence is *announced*: the encoding's pre-phase all-gathers
//     every player's 2m per-block counts (count_bits each), so the relay's
//     required globally-known length matrix really is common knowledge
//     before any nnz-dependent payload moves — the profile is the protocol
//     input, not a hidden oracle.
//  3. The run is *checked*: sparse_mm_plan() prices all three phases
//     (announce, distribute, aggregate) from (n, w, b) plus the declared
//     profile, and the executor CC_CHECKs measured rounds and bits against
//     it on every run, like every other plan in the repo.
//
// Aggregation stays dense-width: the output's sparsity is fill-in dependent
// (a product of sparse blocks need not be sparse, and pricing it would need
// a second declared announcement of *output* structure), so partial blocks
// travel at w bits per entry exactly like the dense schedule. The sparse
// win is the distribution phase plus nothing else — which is why the
// crossover (sparse_backend_preferred) is a genuine tradeoff and not a
// foregone conclusion.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/clique_unicast.h"
#include "core/block_mm.h"
#include "linalg/sparse.h"

namespace cclique {

/// Common-knowledge sparsity profile of one product's operands: for each
/// (row v, column block t) of the [m]-interval grid, how many explicit
/// entries the row owner will ship. Plain integers — constructing one from
/// CSR operands is the declared tainted->plain boundary
/// (declared_nnz_profile); everything downstream (sparse_mm_plan, the
/// sparse encoding's decode) reads only this struct.
struct SparseNnzProfile {
  int n = 0;
  int grid = 0;  ///< m, matching blockmm::BlockGrid(n).m
  /// a_block_nnz[v * grid + k]: explicit entries of A in row v with column
  /// in interval K_k. Likewise b_block_nnz[v * grid + j] for B over J_j.
  std::vector<std::size_t> a_block_nnz;
  std::vector<std::size_t> b_block_nnz;
  std::uint64_t a_nnz = 0;  ///< total explicit entries of A
  std::uint64_t b_nnz = 0;  ///< total explicit entries of B

  /// The declared count of one operand slice's explicit entries.
  std::size_t slice_nnz(const blockmm::OperandSlice& s) const {
    const std::vector<std::size_t>& nnz = s.is_b ? b_block_nnz : a_block_nnz;
    return nnz[static_cast<std::size_t>(s.row) * static_cast<std::size_t>(grid) +
               static_cast<std::size_t>(s.cols)];
  }
};

/// Buckets both operands' explicit entries by (row, column block) under an
/// explicit oblivious::declared_dependence — the one sanctioned reading of
/// sparsity structure for scheduling purposes (DESIGN.md §2.8). Requires
/// a.n() == b.n().
SparseNnzProfile declared_nnz_profile(const Csr61& a, const Csr61& b);

/// The nnz-dependent cost schedule of one sparse product: a pure function
/// of (n, word_bits, bandwidth) and the declared profile.
struct SparseMmPlan {
  int n = 0;
  int grid = 0;        ///< m: block grid dimension
  int block = 0;       ///< ⌈n/m⌉ rows per interval
  int word_bits = 0;   ///< serialized bits per value
  int index_bits = 0;  ///< bits per local column index (bits_for(block))
  int count_bits = 0;  ///< bits per announced per-block count (bits_for(block+1))
  int bandwidth = 0;
  std::uint64_t a_nnz = 0;  ///< from the declared profile
  std::uint64_t b_nnz = 0;
  int announce_rounds = 0;    ///< per-player 2m-count broadcast
  int distribute_rounds = 0;  ///< (index, value)-pair delivery (two relay hops)
  int aggregate_rounds = 0;   ///< dense-width partial delivery (two relay hops)
  int total_rounds = 0;
  std::uint64_t announce_bits = 0;
  std::uint64_t total_bits = 0;  ///< all three phases
  /// The dense schedule, algebraic_mm_plan(n, word_bits, bandwidth): its
  /// aggregation phase is this plan's, and dense.total_bits is the cost of
  /// running the oblivious schedule on the same input. An adaptive caller
  /// that picks the dense branch runs it on this plan.
  AlgebraicMmPlan dense;
};

/// Prices the three-phase sparse schedule for the declared profile.
/// Preconditions: profile matches (n, BlockGrid(n).m); word_bits in [1, 64];
/// bandwidth >= 1.
SparseMmPlan sparse_mm_plan(int n, int word_bits, int bandwidth,
                            const SparseNnzProfile& profile);

/// The adaptive-protocol crossover rule (DESIGN.md §2.8): both branches of
/// an adaptive protocol must pay the announcement before choosing, so
/// sparse wins iff its full cost beats announcement + the dense schedule.
inline bool sparse_backend_preferred(const SparseMmPlan& p) {
  return p.total_bits <= p.announce_bits + p.dense.total_bits;
}

/// Outcome of one sparse distributed product.
struct SparseMmResult {
  SparseMmPlan plan;
  int announce_rounds = 0;    ///< measured; equals plan.announce_rounds
  int distribute_rounds = 0;  ///< measured; equals plan.distribute_rounds
  int aggregate_rounds = 0;   ///< measured; equals plan.aggregate_rounds
  int total_rounds = 0;       ///< measured; equals plan.total_rounds
  std::uint64_t total_bits = 0;  ///< measured; equals plan.total_bits
};

/// The announcement phase on its own: an all-gather of every player's 2m
/// per-block counts (count_bits each, A counts then B counts) so the
/// profile becomes common knowledge; player 0's inbox is CC_CHECKed against
/// the profile. Returns the rounds used — ceil(2m * count_bits / b) for
/// n >= 2. Adaptive protocols that *reject* the sparse branch still run
/// this (the decision needs the profile), then fall through to the dense
/// schedule.
int run_nnz_announcement(CliqueUnicast& net, const SparseNnzProfile& profile,
                         int count_bits);

/// Sparse distributed C = A·B over F_{2^61-1}: declares the profile, prices
/// the plan at net.bandwidth(), and runs the three-phase schedule.
/// Preconditions: both operands kM61, a.n() == b.n() == net.n().
SparseMmResult sparse_mm_m61(CliqueUnicast& net, const Csr61& a, const Csr61& b,
                             Mat61* c);

/// As above, on a profile and plan the caller already holds — the adaptive
/// callers (apsp_run_sparse, four_cycle_count_algebraic) price the crossover
/// first and run the product on that same plan instead of pricing it twice.
/// Preconditions: profile == declared_nnz_profile(a, b) and plan ==
/// sparse_mm_plan(n, 61, net.bandwidth(), profile); the run CC_CHECKs its
/// measured cost against `plan`.
SparseMmResult sparse_mm_m61(CliqueUnicast& net, const Csr61& a, const Csr61& b,
                             Mat61* c, const SparseNnzProfile& profile,
                             const SparseMmPlan& plan);

/// Sparse distributed distance product over (min, +); both operands
/// kTropical. The sparse twin of min_plus_mm.
SparseMmResult sparse_min_plus_mm(CliqueUnicast& net, const Csr61& a,
                                  const Csr61& b, TropicalMat* c);

/// sparse_min_plus_mm on a profile and plan already in hand (preconditions
/// as for the sparse_mm_m61 overload above).
SparseMmResult sparse_min_plus_mm(CliqueUnicast& net, const Csr61& a,
                                  const Csr61& b, TropicalMat* c,
                                  const SparseNnzProfile& profile,
                                  const SparseMmPlan& plan);

}  // namespace cclique
