// Shared [m]^3 block-decomposition machinery for distributed semiring
// matrix products on CLIQUE-UCAST (internal to core/).
//
// PR 3 built the machinery for ring products (core/algebraic_mm): with
// m = ⌊n^{1/3}⌋ and the index set [n] cut into m row intervals, C = A·B
// splits into m³ block products C_ij ⊕= A_ik ⊗ B_kj, one triple per player,
// shipped through the two-hop balanced relay (unicast_payloads_relayed).
// Nothing in the decomposition, the relay schedule, or the plan accounting
// depends on the *algebra* — only on (n, element width w, bandwidth b). This
// header factors the geometry (BlockGrid), the data-independent length
// matrices and their closed-form relay cost, and the generic executor
// (run_block_mm) out of algebraic_mm.cpp so the min-plus/APSP workload
// (core/apsp) runs the identical schedule over the tropical semiring.
//
// The Ops concept run_block_mm consumes:
//
//   struct Ops {
//     using Matrix = ...;               // Matrix(int n) = the semiring-zero
//                                       // matrix (additive identity entries:
//                                       // 0 for rings, +inf for min-plus)
//     static constexpr int kWordBits;   // serialized bits per element
//     static std::uint64_t get(const Matrix&, int i, int j);   // < 2^kWordBits
//     static void set(Matrix&, int i, int j, std::uint64_t v);
//     static void accumulate(Matrix&, int i, int j, std::uint64_t v);  // ⊕=
//     static Matrix multiply(const Matrix&, const Matrix&);    // local ⊗
//   };
//
// Block padding relies on Matrix(n) being the semiring zero so padding rows
// and columns contribute nothing to any block product.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "comm/clique_unicast.h"
#include "util/check.h"
#include "util/math_util.h"

namespace cclique {
namespace blockmm {

/// The [m]^3 block grid: interval t covers rows [lo(t), hi(t)), triple
/// (i, j, k) lives at player (i*m + j)*m + k. All of it is a function of n
/// alone, so every player derives the same geometry.
struct BlockGrid {
  int n = 0;
  int m = 0;
  int bs = 0;

  explicit BlockGrid(int n_in) : n(n_in) {
    CC_REQUIRE(n >= 1, "need at least one player");
    m = static_cast<int>(icbrt(static_cast<std::uint64_t>(n)));
    if (m < 1) m = 1;
    bs = static_cast<int>(ceil_div(static_cast<std::uint64_t>(n),
                                   static_cast<std::uint64_t>(m)));
    // (m-1)^2 < n guarantees every interval is non-empty (m <= n^{1/3}).
    CC_CHECK((m - 1) * bs < n, "degenerate block interval");
  }

  int triples() const { return m * m * m; }
  int lo(int t) const { return t * bs; }
  int hi(int t) const { return std::min(n, (t + 1) * bs); }
  int len(int t) const { return hi(t) - lo(t); }
  int ti(int p) const { return p / (m * m); }
  int tj(int p) const { return (p / m) % m; }
  int tk(int p) const { return p % m; }
};

/// Operand-ownership policy: which player holds entry (i, j) of the input
/// operands and of the output matrix. PR 3 hardcoded whole-row ownership
/// (player i holds row i) into the payload builders and length matrices;
/// the policy factors that decision out so the same [m]^3 decomposition,
/// relay schedule, and plan accounting run over any data placement that is
/// common knowledge (a pure function of (n, i, j)).
///
/// Contract: owner(i, j) in [0, n) and every player evaluates the same
/// function — the relay needs globally agreed payload lengths, so ownership
/// can never be data-dependent. The driver reads entry (i, j) locally iff
/// its player owns it, and the length matrices below price exactly the
/// entries whose owner differs from the consuming triple player.
class ShardLayout {
 public:
  virtual ~ShardLayout() = default;
  /// The player holding entry (i, j) of A, B, and C.
  virtual int owner(int i, int j) const = 0;
  /// Short stable label for plans, benches, and error messages.
  virtual const char* name() const = 0;
};

/// The classic whole-row placement: player i owns row i of every operand —
/// Θ(n) words of state per player, and the layout every committed baseline
/// was measured under (the generic driver reproduces PR 3's byte stream
/// exactly under this instance; see tests/sparse_test).
class RowShardLayout final : public ShardLayout {
 public:
  int owner(int i, int /*j*/) const override { return i; }
  const char* name() const override { return "row"; }
};

/// Square-tile placement: the matrix is cut into ~sqrt(n) x sqrt(n) tiles
/// of side ceil(n / floor(sqrt(n))) and tile (ti, tj) lands on player
/// (ti * grid + tj) mod n. Each player then holds O(n^2 / n) = O(n) words
/// — the same per-player footprint as row ownership — but no player holds
/// any full row, which is the placement regime sharded inputs arrive in
/// (e.g. when an upstream protocol leaves C block-distributed).
class BlockShardLayout final : public ShardLayout {
 public:
  explicit BlockShardLayout(int n) : n_(n) {
    CC_REQUIRE(n >= 1, "need at least one player");
    int s = static_cast<int>(isqrt(static_cast<std::uint64_t>(n)));
    if (s < 1) s = 1;
    tile_ = static_cast<int>(ceil_div(static_cast<std::uint64_t>(n),
                                      static_cast<std::uint64_t>(s)));
    grid_ = static_cast<int>(ceil_div(static_cast<std::uint64_t>(n),
                                      static_cast<std::uint64_t>(tile_)));
  }
  int owner(int i, int j) const override {
    return ((i / tile_) * grid_ + (j / tile_)) % n_;
  }
  const char* name() const override { return "block"; }
  int tile() const { return tile_; }

 private:
  int n_ = 1;
  int tile_ = 1;
  int grid_ = 1;
};

using LengthMatrix = std::vector<std::vector<std::size_t>>;

/// Distribution-phase payload lengths in bits: for each triple player p =
/// (i, j, k), every entry of A over I_i x K_k and of B over K_k x J_j that
/// p does not own itself travels from the entry's owner to p (A entries
/// before B entries, row-major within each block — the decode order). Under
/// RowShardLayout this is exactly PR 3's "row owner v ships its row slices"
/// matrix: |K_k| * w bits per A-row and |J_j| * w per B-row.
inline LengthMatrix distribute_lengths(const BlockGrid& g, int w,
                                       const ShardLayout& layout) {
  // Length computation is a sink: the matrix must be a function of the grid
  // geometry, the element width, and the (common-knowledge) layout alone,
  // never of matrix entries.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("distribute_lengths"));
  LengthMatrix len(static_cast<std::size_t>(g.n),
                   std::vector<std::size_t>(static_cast<std::size_t>(g.n), 0));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
    for (int r = g.lo(i); r < g.hi(i); ++r) {
      for (int col = g.lo(k); col < g.hi(k); ++col) {
        const int v = layout.owner(r, col);
        if (v == p) continue;
        len[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)] +=
            static_cast<std::size_t>(w);
      }
    }
    for (int r = g.lo(k); r < g.hi(k); ++r) {
      for (int col = g.lo(j); col < g.hi(j); ++col) {
        const int v = layout.owner(r, col);
        if (v == p) continue;
        len[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)] +=
            static_cast<std::size_t>(w);
      }
    }
  }
  return len;
}

inline LengthMatrix distribute_lengths(const BlockGrid& g, int w) {
  return distribute_lengths(g, w, RowShardLayout());
}

/// Aggregation-phase payload lengths: triple (i, j, k) ships each entry of
/// its partial block C_ij (over I_i x J_j) to that output entry's owner.
/// Under RowShardLayout: one |J_j|-element row slice per output row owner.
inline LengthMatrix aggregate_lengths(const BlockGrid& g, int w,
                                      const ShardLayout& layout) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("aggregate_lengths"));
  LengthMatrix len(static_cast<std::size_t>(g.n),
                   std::vector<std::size_t>(static_cast<std::size_t>(g.n), 0));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p);
    for (int r = g.lo(i); r < g.hi(i); ++r) {
      for (int col = g.lo(j); col < g.hi(j); ++col) {
        const int d = layout.owner(r, col);
        if (d == p) continue;
        len[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] +=
            static_cast<std::size_t>(w);
      }
    }
  }
  return len;
}

inline LengthMatrix aggregate_lengths(const BlockGrid& g, int w) {
  return aggregate_lengths(g, w, RowShardLayout());
}

/// Cost of shipping a length matrix through unicast_payloads_relayed, in
/// closed form: the per-link loads come from relay_link_loads, the same
/// chunk walk the executor cuts its streams with (comm/clique_unicast.h), so
/// each link carries Σ⌊l/n⌋ plus its count of extra-bit chunks. Each hop
/// takes ceil(heaviest link / b) rounds; bits are the sum over all links.
struct RelayCost {
  int rounds = 0;
  std::uint64_t bits = 0;
};

inline RelayCost relay_cost(const LengthMatrix& len, int n, int bandwidth) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("relay_cost"));
  const RelayLinkLoads loads = relay_link_loads(n, [&len](int v, int p) {
    return len[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
  });
  const std::size_t b = static_cast<std::size_t>(bandwidth);
  RelayCost out;
  out.rounds = static_cast<int>(ceil_div(loads.max1, b) + ceil_div(loads.max2, b));
  out.bits = loads.bits;
  return out;
}

/// One distributed semiring product C = A ⊗ B over the grid: distribution
/// (entry owners ship block entries to triple players through the relay),
/// local block products, aggregation (partial entries back to the output
/// owners, ⊕-accumulated). Ownership of every operand/output entry comes
/// from `layout`; under RowShardLayout the payload byte streams are
/// identical to PR 3's row-sliced messages (A entries then B entries per
/// (owner, triple) pair, row-major within each block), which is what keeps
/// the committed baselines byte-stable across this refactor. `Plan` /
/// `Result` are the caller's plan/result structs (AlgebraicMmPlan /
/// AlgebraicMmResult for both current semirings); the measured schedule is
/// CC_CHECKed against `plan` on every run.
template <typename Ops, typename Result, typename Plan>
Result run_block_mm(CliqueUnicast& net, const typename Ops::Matrix& a,
                    const typename Ops::Matrix& b, typename Ops::Matrix* c,
                    const Plan& plan, const ShardLayout& layout) {
  using Matrix = typename Ops::Matrix;
  constexpr int w = Ops::kWordBits;
  const int n = a.n();
  CC_REQUIRE(net.n() == n, "one player per matrix row");
  CC_REQUIRE(b.n() == n, "size mismatch");
  CC_REQUIRE(c != nullptr, "output matrix required");
  const BlockGrid g(n);

  Result res;
  res.plan = plan;
  const int rounds_before = net.stats().rounds;
  const std::uint64_t bits_before = net.stats().total_bits;

  // ---- Distribution: entry owners ship block entries to triple players.
  std::vector<std::vector<Message>> payload(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
    for (int r = g.lo(i); r < g.hi(i); ++r) {
      for (int col = g.lo(k); col < g.hi(k); ++col) {
        const int v = layout.owner(r, col);
        if (v == p) continue;  // the triple player reads its own entries directly
        payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)]
            .push_uint(Ops::get(a, r, col), w);
      }
    }
    for (int r = g.lo(k); r < g.hi(k); ++r) {
      for (int col = g.lo(j); col < g.hi(j); ++col) {
        const int v = layout.owner(r, col);
        if (v == p) continue;
        payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)]
            .push_uint(Ops::get(b, r, col), w);
      }
    }
  }
  std::vector<std::vector<Message>> recv;
  res.distribute_rounds = unicast_payloads_relayed(net, payload, &recv);

  // ---- Local block products (blocks padded to bs x bs with the semiring
  // zero — Matrix(n)'s fill — so padding rows/columns contribute nothing).
  // Each triple player's block product is its private state until the
  // aggregation hop ships the partial entries out (ownership-tagged).
  // Decode mirrors the build exactly: same (triple, entry) iteration order,
  // one sequential cursor per source owner.
  locality::PerPlayer<Matrix> partial(
      g.triples(), CC_LOCALITY_SITE("triple player's block product"));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
    Matrix ablk(g.bs), bblk(g.bs);
    std::vector<std::size_t> cur(static_cast<std::size_t>(n), 0);
    for (int r = g.lo(i); r < g.hi(i); ++r) {
      for (int t = 0; t < g.len(k); ++t) {
        const int col = g.lo(k) + t;
        const int src_owner = layout.owner(r, col);
        std::uint64_t v;
        if (src_owner == p) {
          v = Ops::get(a, r, col);
        } else {
          const Message& src =
              recv[static_cast<std::size_t>(p)][static_cast<std::size_t>(src_owner)];
          v = src.read_uint(cur[static_cast<std::size_t>(src_owner)], w);
          cur[static_cast<std::size_t>(src_owner)] += static_cast<std::size_t>(w);
        }
        Ops::set(ablk, r - g.lo(i), t, v);
      }
    }
    for (int r = g.lo(k); r < g.hi(k); ++r) {
      for (int t = 0; t < g.len(j); ++t) {
        const int col = g.lo(j) + t;
        const int src_owner = layout.owner(r, col);
        std::uint64_t v;
        if (src_owner == p) {
          v = Ops::get(b, r, col);
        } else {
          const Message& src =
              recv[static_cast<std::size_t>(p)][static_cast<std::size_t>(src_owner)];
          v = src.read_uint(cur[static_cast<std::size_t>(src_owner)], w);
          cur[static_cast<std::size_t>(src_owner)] += static_cast<std::size_t>(w);
        }
        Ops::set(bblk, r - g.lo(k), t, v);
      }
    }
    partial[p] = Ops::multiply(ablk, bblk);
  }

  // ---- Aggregation: partial entries travel to the output owners, who
  // ⊕-combine the m contributions (one per k) for each output entry.
  std::vector<std::vector<Message>> payload2(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p);
    for (int r = g.lo(i); r < g.hi(i); ++r) {
      for (int t = 0; t < g.len(j); ++t) {
        const int d = layout.owner(r, g.lo(j) + t);
        if (d == p) continue;
        payload2[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)]
            .push_uint(Ops::get(partial[p], r - g.lo(i), t), w);
      }
    }
  }
  std::vector<std::vector<Message>> recv2;
  res.aggregate_rounds = unicast_payloads_relayed(net, payload2, &recv2);

  *c = Matrix(n);
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p);
    std::vector<std::size_t> cur2(static_cast<std::size_t>(n), 0);
    for (int r = g.lo(i); r < g.hi(i); ++r) {
      for (int t = 0; t < g.len(j); ++t) {
        const int col = g.lo(j) + t;
        const int d = layout.owner(r, col);
        std::uint64_t v;
        if (d == p) {
          v = Ops::get(partial[p], r - g.lo(i), t);
        } else {
          const Message& src =
              recv2[static_cast<std::size_t>(d)][static_cast<std::size_t>(p)];
          v = src.read_uint(cur2[static_cast<std::size_t>(d)], w);
          cur2[static_cast<std::size_t>(d)] += static_cast<std::size_t>(w);
        }
        Ops::accumulate(*c, r, col, v);
      }
    }
  }

  res.total_rounds = net.stats().rounds - rounds_before;
  res.total_bits = net.stats().total_bits - bits_before;
  CC_CHECK(res.total_rounds == res.distribute_rounds + res.aggregate_rounds,
           "round accounting out of sync");
  CC_CHECK(res.total_rounds == res.plan.total_rounds,
           "block MM rounds diverged from the planned schedule");
  CC_CHECK(res.total_bits == res.plan.total_bits,
           "block MM bits diverged from the planned schedule");
  return res;
}

template <typename Ops, typename Result, typename Plan>
Result run_block_mm(CliqueUnicast& net, const typename Ops::Matrix& a,
                    const typename Ops::Matrix& b, typename Ops::Matrix* c,
                    const Plan& plan) {
  return run_block_mm<Ops, Result, Plan>(net, a, b, c, plan, RowShardLayout());
}

/// Fills the shared schedule fields of a plan struct (AlgebraicMmPlan
/// shape): grid geometry, per-phase relay rounds/bits, and the heaviest
/// pre-relay per-player payload load. The schedule is a pure function of
/// (n, w, b) and the common-knowledge layout.
template <typename Plan>
void fill_plan_schedule(Plan* plan, int n, int word_bits, int bandwidth,
                        const ShardLayout& layout) {
  // Plan-function sink: the whole schedule is priced from (n, w, b, layout).
  // Note run_block_mm above is deliberately NOT a sink — it is the executor,
  // and its payload building legitimately reads matrix entries.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("fill_plan_schedule"));
  CC_REQUIRE(word_bits >= 1 && word_bits <= 64, "word width out of range");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  const BlockGrid g(n);
  plan->n = n;
  plan->grid = g.m;
  plan->block = g.bs;
  plan->word_bits = word_bits;
  plan->bandwidth = bandwidth;
  const LengthMatrix dist = distribute_lengths(g, word_bits, layout);
  const LengthMatrix agg = aggregate_lengths(g, word_bits, layout);
  const RelayCost dc = relay_cost(dist, n, bandwidth);
  const RelayCost ac = relay_cost(agg, n, bandwidth);
  plan->distribute_rounds = dc.rounds;
  plan->aggregate_rounds = ac.rounds;
  plan->total_rounds = dc.rounds + ac.rounds;
  plan->total_bits = dc.bits + ac.bits;
  plan->aggregate_bits = ac.bits;
  plan->max_player_send_bits = 0;
  for (int v = 0; v < n; ++v) {
    std::uint64_t send = 0;
    for (int p = 0; p < n; ++p) {
      send += dist[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)] +
              agg[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
    }
    plan->max_player_send_bits = std::max(plan->max_player_send_bits, send);
  }
  const double cbrt_n = static_cast<double>(icbrt(static_cast<std::uint64_t>(n)));
  plan->series_rounds = 6.0 * cbrt_n * static_cast<double>(word_bits) /
                        static_cast<double>(bandwidth);
}

template <typename Plan>
void fill_plan_schedule(Plan* plan, int n, int word_bits, int bandwidth) {
  fill_plan_schedule(plan, n, word_bits, bandwidth, RowShardLayout());
}

}  // namespace blockmm
}  // namespace cclique
