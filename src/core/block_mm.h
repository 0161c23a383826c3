// Shared [m]^3 block-decomposition machinery for distributed semiring
// matrix products on CLIQUE-UCAST (internal to core/).
//
// With m = ⌊n^{1/3}⌋ and the index set [n] cut into m row intervals,
// C = A·B splits into m³ block products C_ij ⊕= A_ik ⊗ B_kj, one triple per
// player, shipped through the two-hop balanced relay
// (unicast_payloads_relayed). Nothing here depends on the *algebra*: the
// schedule is a function of (n, element width w, bandwidth b) and, for
// sparse operands, of the declared nnz profile (core/sparse_mm.h).
//
// One executor, two encodings. run_block_mm owns distribution, the
// per-triple product slot, aggregation and the measured == plan CC_CHECKs;
// a payload encoding (a template policy) supplies the rest:
//  * DenseEncoding (below): w bits per non-owned entry under any
//    ShardLayout, dense block product (Ops::multiply);
//  * SparseEncoding (core/sparse_mm.cpp): an nnz announcement as pre-phase,
//    then (index, value) pairs from the row owner, CSR A block × dense B
//    block (Ops::spmm).
// Encode, decode and the length matrices the plans price all follow
// for_each_operand_slice, so plan and executor cannot drift apart.
//
//   struct Encoding {
//     using Ops = ...;                    // element adapter, below
//     using Matrix = typename Ops::Matrix;
//     int n() const;                      // operand dimension
//     const ShardLayout& layout() const;  // owner of every entry of C
//     int pre_phase(CliqueUnicast&, Result*) const;  // its rounds
//     // Appends slice s to payload[owner][s.p].
//     void encode(const BlockGrid&, const OperandSlice& s, Payloads*) const;
//     // Reads slice s into row s.local_row of a block; inbox[v] is what v
//     // sent s.p, read front to back with cursor (*cur)[v].
//     void decode(const BlockGrid&, const OperandSlice& s, const std::vector<Message>& inbox,
//                 std::vector<std::size_t>* cur, Matrix* blk) const;
//     Matrix multiply(const Matrix& a_blk, const Matrix& b_blk) const;  // local ⊗
//   };
//
//   struct Ops {                        // element adapter
//     using Matrix = ...;               // Matrix(int n) = the semiring-zero
//                                       // matrix (0 for rings, +inf for min-plus)
//     static constexpr int kWordBits;   // serialized bits per element
//     static std::uint64_t get(const Matrix&, int i, int j);   // < 2^kWordBits
//     static void set(Matrix&, int i, int j, std::uint64_t v);
//     static void accumulate(Matrix&, int i, int j, std::uint64_t v);  // ⊕=
//     static Matrix multiply(const Matrix&, const Matrix&);    // local ⊗
//   };
//
// The sparse encoding also needs Ops::kRing (the Csr61 ring tag) and
// Ops::spmm(const Csr61&, const Matrix&). Block padding relies on Matrix(n)
// being the semiring zero so padding rows and columns contribute nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "comm/clique_unicast.h"
#include "linalg/kernels.h"
#include "util/check.h"
#include "util/math_util.h"

namespace cclique {

/// The data-independent cost schedule of one distributed product — a pure
/// function of (n, word_bits, bandwidth), shared by every semiring the
/// block driver runs (the min-plus product of core/apsp reuses this struct
/// verbatim at word_bits = 61).
struct AlgebraicMmPlan {
  int n = 0;
  int grid = 0;        ///< m: block grid dimension; one triple of [m]^3 per player
  int block = 0;       ///< ⌈n/m⌉ rows per interval
  int word_bits = 0;   ///< serialized bits per element (1 for F2, 61 for F_{2^61-1})
  int bandwidth = 0;   ///< per-edge per-round budget the schedule was planned for
  int distribute_rounds = 0;  ///< input-block delivery (two relay hops)
  int aggregate_rounds = 0;   ///< partial-sum delivery (two relay hops)
  int total_rounds = 0;
  std::uint64_t total_bits = 0;           ///< exact network bits, both phases
  std::uint64_t aggregate_bits = 0;       ///< the aggregation phase's share of total_bits
  std::uint64_t max_player_send_bits = 0; ///< heaviest per-player payload load (pre-relay)
  /// Asymptotic reference the measured series is printed against:
  /// 6 · n^{1/3} · w / b (three per-player loads of ~2n^{4/3}w bits, each
  /// spread over n links and two hops).
  double series_rounds = 0;
};

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

/// One operand row a triple player p = (i, j, k) needs: row `row` of A over
/// the columns of K_k, or row `row` of B over the columns of J_j.
struct OperandSlice {
  int p = 0;          ///< the consuming triple player
  bool is_b = false;  ///< false: an A row of I_i; true: a B row of K_k
  int row = 0;        ///< global row index
  int local_row = 0;  ///< the row's index inside the bs x bs block
  int cols = 0;       ///< column interval: k for A, j for B
};

/// The one walk over operand slices. It fixes every payload's order: for
/// triple p, the A rows of I_i over K_k, then the B rows of K_k over J_j.
/// The length matrices, the sparse plan and both encodings' encode and
/// decode all walk it.
template <typename F>
void for_each_operand_slice(const BlockGrid& g, int p, F&& f) {
  const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
  for (int r = g.lo(i); r < g.hi(i); ++r) f(OperandSlice{p, false, r, r - g.lo(i), k});
  for (int r = g.lo(k); r < g.hi(k); ++r) f(OperandSlice{p, true, r, r - g.lo(k), j});
}

/// The walk over every triple, in player order.
template <typename F>
void for_each_operand_slice(const BlockGrid& g, F&& f) {
  for (int p = 0; p < g.triples(); ++p) for_each_operand_slice(g, p, f);
}

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
using Payloads = std::vector<std::vector<Message>>;

/// Distribution-phase payload lengths in bits: for each triple player p,
/// every entry of its operand slices that p does not own itself travels
/// from the entry's owner to p, w bits each. Under RowShardLayout this is
/// exactly PR 3's "row owner v ships its row slices" matrix: |K_k| * w bits
/// per A-row and |J_j| * w per B-row.
inline LengthMatrix distribute_lengths(const BlockGrid& g, int w,
                                       const ShardLayout& layout) {
  // Length computation is a sink: the matrix must be a function of the grid
  // geometry, the element width, and the (common-knowledge) layout alone,
  // never of matrix entries.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("distribute_lengths"));
  LengthMatrix len(static_cast<std::size_t>(g.n),
                   std::vector<std::size_t>(static_cast<std::size_t>(g.n), 0));
  for_each_operand_slice(g, [&](const OperandSlice& s) {
    for (int col = g.lo(s.cols); col < g.hi(s.cols); ++col) {
      const int v = layout.owner(s.row, col);
      if (v == s.p) continue;
      len[static_cast<std::size_t>(v)][static_cast<std::size_t>(s.p)] +=
          static_cast<std::size_t>(w);
    }
  });
  return len;
}

inline LengthMatrix distribute_lengths(const BlockGrid& g, int w) {
  return distribute_lengths(g, w, RowShardLayout());
}

/// The walk over triple p's partial block C_ij: f(r, t, d) for each row r
/// of I_i and column lo(j) + t, whose output owner is d. aggregate_lengths
/// and the executor's aggregation encode and decode all walk it.
template <typename F>
void for_each_partial_entry(const BlockGrid& g, const ShardLayout& layout, int p, F&& f) {
  const int i = g.ti(p), j = g.tj(p);
  for (int r = g.lo(i); r < g.hi(i); ++r) {
    for (int t = 0; t < g.len(j); ++t) f(r, t, layout.owner(r, g.lo(j) + t));
  }
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
    for_each_partial_entry(g, layout, p, [&](int /*r*/, int /*t*/, int d) {
      if (d != p) len[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)] += w;
    });
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
inline ExchangeCost relay_cost(const LengthMatrix& len, int n, int bandwidth) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("relay_cost"));
  const RelayLinkLoads loads = relay_link_loads(n, [&len](int v, int p) {
    return len[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
  });
  const std::size_t b = static_cast<std::size_t>(bandwidth);
  ExchangeCost out;
  out.rounds = static_cast<int>(ceil_div(loads.max1, b) + ceil_div(loads.max2, b));
  out.bits = loads.bits;
  return out;
}

/// Element adapters, one per 61-bit semiring, shared by both encodings.
/// Elements travel as 61-bit words (kTropicalInf = all-ones round-trips
/// through push_uint/read_uint unchanged). The local kernels go through the
/// linalg/kernels.h dispatch: the CC_KERNEL / CC_THREADS choice changes
/// wall-clock only, never the product values or any CommStats counter.
struct M61Ops {
  using Matrix = Mat61;
  static constexpr int kWordBits = 61;
  static constexpr SparseRing kRing = SparseRing::kM61;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j); }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, v); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) { m.add_at(i, j, v); }
  static Matrix multiply(const Matrix& a, const Matrix& b) { return m61_multiply_dispatch(a, b); }
  static Matrix spmm(const Csr61& a, const Matrix& b) { return m61_spmm_dispatch(a, b); }
};

struct TropicalOps {
  using Matrix = TropicalMat;
  static constexpr int kWordBits = 61;
  static constexpr SparseRing kRing = SparseRing::kTropical;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j); }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, v); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) { m.min_at(i, j, v); }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return tropical_multiply_dispatch(a, b);
  }
  static Matrix spmm(const Csr61& a, const Matrix& b) { return tropical_spmm_dispatch(a, b); }
};

/// The dense payload encoding: every slice entry a triple does not own
/// travels from its owner (per `layout`) at w = Ops::kWordBits bits, so the
/// payload (owner, triple) holds A entries then B entries, row-major within
/// each block. Under RowShardLayout these are PR 3's row-sliced messages
/// byte for byte, which keeps the committed baselines stable.
template <typename OpsT>
class DenseEncoding {
 public:
  using Ops = OpsT;
  using Matrix = typename Ops::Matrix;

  DenseEncoding(const Matrix& a, const Matrix& b, const ShardLayout& layout)
      : a_(a), b_(b), layout_(layout) {
    CC_REQUIRE(b.n() == a.n(), "size mismatch");
  }

  int n() const { return a_.n(); }
  const ShardLayout& layout() const { return layout_; }

  /// No pre-phase: the dense schedule is a function of (n, w, b, layout).
  template <typename Result>
  int pre_phase(CliqueUnicast& /*net*/, Result* /*res*/) const {
    return 0;
  }

  void encode(const BlockGrid& g, const OperandSlice& s, Payloads* payload) const {
    const Matrix& src = s.is_b ? b_ : a_;
    for (int col = g.lo(s.cols); col < g.hi(s.cols); ++col) {
      const int v = layout_.owner(s.row, col);
      if (v == s.p) continue;  // the triple player reads its own entries directly
      (*payload)[static_cast<std::size_t>(v)][static_cast<std::size_t>(s.p)].push_uint(
          Ops::get(src, s.row, col), Ops::kWordBits);
    }
  }

  void decode(const BlockGrid& g, const OperandSlice& s, const std::vector<Message>& inbox,
              std::vector<std::size_t>* cur, Matrix* blk) const {
    const Matrix& src = s.is_b ? b_ : a_;
    for (int col = g.lo(s.cols); col < g.hi(s.cols); ++col) {
      const int v = layout_.owner(s.row, col);
      std::uint64_t x;
      if (v == s.p) {
        x = Ops::get(src, s.row, col);
      } else {
        std::size_t& off = (*cur)[static_cast<std::size_t>(v)];
        x = inbox[static_cast<std::size_t>(v)].read_uint(off, Ops::kWordBits);
        off += static_cast<std::size_t>(Ops::kWordBits);
      }
      Ops::set(*blk, s.local_row, col - g.lo(s.cols), x);
    }
  }

  Matrix multiply(const Matrix& a_blk, const Matrix& b_blk) const {
    return Ops::multiply(a_blk, b_blk);
  }

 private:
  const Matrix& a_;
  const Matrix& b_;
  const ShardLayout& layout_;
};

/// One distributed semiring product C = A ⊗ B over the grid, in either
/// encoding: the encoding's pre-phase; distribution (each triple's operand
/// slices, encoded, through the relay); the local block products; and
/// aggregation (partial entries back to the owners of C per enc.layout(),
/// w bits each, ⊕-accumulated). `Result` is the caller's result struct
/// (AlgebraicMmResult or SparseMmResult). The measured schedule is
/// CC_CHECKed against `plan` phase by phase on every run.
template <typename Result, typename Encoding, typename Plan>
Result run_block_mm(CliqueUnicast& net, const Encoding& enc, typename Encoding::Matrix* c,
                    const Plan& plan) {
  using Ops = typename Encoding::Ops;
  using Matrix = typename Encoding::Matrix;
  constexpr int w = Ops::kWordBits;
  const int n = enc.n();
  CC_REQUIRE(net.n() == n, "one player per matrix row");
  CC_REQUIRE(c != nullptr, "output matrix required");
  const BlockGrid g(n);
  const ShardLayout& layout = enc.layout();

  Result res;
  res.plan = plan;
  const int rounds_before = net.stats().rounds;
  const std::uint64_t bits_before = net.stats().total_bits;
  const int pre_rounds = enc.pre_phase(net, &res);

  // ---- Distribution: entry owners ship slice entries to triple players.
  Payloads payload(static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  for_each_operand_slice(g, [&](const OperandSlice& s) { enc.encode(g, s, &payload); });
  Payloads recv;
  res.distribute_rounds = unicast_payloads_relayed(net, payload, &recv);

  // ---- Local block products (blocks padded to bs x bs with the semiring
  // zero). Each triple player's block product is its private state until
  // the aggregation hop ships the partial entries out (ownership-tagged).
  locality::PerPlayer<Matrix> partial(
      g.triples(), CC_LOCALITY_SITE("triple player's block product"));
  for (int p = 0; p < g.triples(); ++p) {
    Matrix ablk(g.bs), bblk(g.bs);
    std::vector<std::size_t> cur(static_cast<std::size_t>(n), 0);
    for_each_operand_slice(g, p, [&](const OperandSlice& s) {
      enc.decode(g, s, recv[static_cast<std::size_t>(p)], &cur, s.is_b ? &bblk : &ablk);
    });
    partial[p] = enc.multiply(ablk, bblk);
  }

  // ---- Aggregation: partial entries travel to the output owners, who
  // ⊕-combine the m contributions (one per k) for each output entry.
  Payloads payload2(static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  for (int p = 0; p < g.triples(); ++p) {
    for_each_partial_entry(g, layout, p, [&](int r, int t, int d) {
      if (d == p) return;
      payload2[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)].push_uint(
          Ops::get(partial[p], r - g.lo(g.ti(p)), t), w);
    });
  }
  Payloads recv2;
  res.aggregate_rounds = unicast_payloads_relayed(net, payload2, &recv2);

  *c = Matrix(n);
  for (int p = 0; p < g.triples(); ++p) {
    std::vector<std::size_t> cur(static_cast<std::size_t>(n), 0);
    for_each_partial_entry(g, layout, p, [&](int r, int t, int d) {
      std::uint64_t x;
      if (d == p) {
        x = Ops::get(partial[p], r - g.lo(g.ti(p)), t);
      } else {
        std::size_t& off = cur[static_cast<std::size_t>(d)];
        x = recv2[static_cast<std::size_t>(d)][static_cast<std::size_t>(p)].read_uint(off, w);
        off += static_cast<std::size_t>(w);
      }
      Ops::accumulate(*c, r, g.lo(g.tj(p)) + t, x);
    });
  }

  res.total_rounds = net.stats().rounds - rounds_before;
  res.total_bits = net.stats().total_bits - bits_before;
  CC_CHECK(res.total_rounds == pre_rounds + res.distribute_rounds + res.aggregate_rounds,
           "round accounting out of sync");
  CC_CHECK(res.distribute_rounds == res.plan.distribute_rounds,
           "block MM distribution left the planned schedule");
  CC_CHECK(res.aggregate_rounds == res.plan.aggregate_rounds,
           "block MM aggregation left the planned schedule");
  CC_CHECK(res.total_rounds == res.plan.total_rounds,
           "block MM rounds diverged from the planned schedule");
  CC_CHECK(res.total_bits == res.plan.total_bits,
           "block MM bits diverged from the planned schedule");
  return res;
}

/// The dense product: run_block_mm in DenseEncoding<Ops> with operand and
/// output ownership from `layout`.
template <typename Ops, typename Result, typename Plan>
Result run_block_mm(CliqueUnicast& net, const typename Ops::Matrix& a,
                    const typename Ops::Matrix& b, typename Ops::Matrix* c,
                    const Plan& plan, const ShardLayout& layout) {
  return run_block_mm<Result>(net, DenseEncoding<Ops>(a, b, layout), c, plan);
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
  const ExchangeCost dc = relay_cost(dist, n, bandwidth);
  const ExchangeCost ac = relay_cost(agg, n, bandwidth);
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

}  // namespace blockmm
}  // namespace cclique
