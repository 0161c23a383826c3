#include "core/algebraic_mm.h"

#include <vector>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "core/block_mm.h"

namespace cclique {

namespace {

/// GF(2) adapter for the dense encoding (F_{2^61-1} uses blockmm::M61Ops).
/// Elements travel as 1-bit fields; Matrix(n) is the all-zero matrix, the
/// additive identity blocks are padded with.
struct F2Ops {
  using Matrix = F2Matrix;
  static constexpr int kWordBits = 1;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j) ? 1 : 0; }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, (v & 1ULL) != 0); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) {
    if ((v & 1ULL) != 0) m.set(i, j, !m.get(i, j));
  }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return f2_multiply_naive(a, b);
  }
};

template <typename Ops>
AlgebraicMmResult run_mm(CliqueUnicast& net, const typename Ops::Matrix& a,
                         const typename Ops::Matrix& b, typename Ops::Matrix* c) {
  const AlgebraicMmPlan plan =
      algebraic_mm_plan(a.n(), Ops::kWordBits, net.bandwidth());
  return blockmm::run_block_mm<Ops, AlgebraicMmResult>(net, a, b, c, plan);
}

/// All-gathers a tuple of 61-bit local partials per player (the
/// clique-wide sum exchange ending the counting protocols) and sums each
/// field mod p into *totals. Returns the rounds used.
int share_partials(CliqueUnicast& net, const std::vector<std::vector<std::uint64_t>>& fields,
                   std::vector<std::uint64_t>* totals) {
  const int rounds = all_gather(net, static_cast<int>(fields.size()), 61, [&](int v, int f) {
    return fields[static_cast<std::size_t>(f)][static_cast<std::size_t>(v)];
  });
  totals->assign(fields.size(), 0);
  for (std::size_t f = 0; f < fields.size(); ++f) {
    for (const std::uint64_t x : fields[f]) (*totals)[f] = Mersenne61::add((*totals)[f], x);
  }
  return rounds;
}

}  // namespace

AlgebraicMmPlan algebraic_mm_plan(int n, int word_bits, int bandwidth) {
  // Plan functions are length sinks: the schedule is a function of
  // (n, w, b) alone, and the guard proves no payload read sneaks in.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("algebraic_mm_plan"));
  AlgebraicMmPlan plan;
  blockmm::fill_plan_schedule(&plan, n, word_bits, bandwidth, blockmm::RowShardLayout());
  return plan;
}

AlgebraicMmResult algebraic_mm_f2(CliqueUnicast& net, const F2Matrix& a,
                                  const F2Matrix& b, F2Matrix* c) {
  return run_mm<F2Ops>(net, a, b, c);
}

AlgebraicMmResult algebraic_mm_m61(CliqueUnicast& net, const Mat61& a,
                                   const Mat61& b, Mat61* c) {
  return run_mm<blockmm::M61Ops>(net, a, b, c);
}

AlgebraicMmResult algebraic_mm_m61(CliqueUnicast& net, const Mat61& a,
                                   const Mat61& b, Mat61* c,
                                   const AlgebraicMmPlan& plan) {
  CC_REQUIRE(plan.n == a.n() && plan.word_bits == blockmm::M61Ops::kWordBits &&
                 plan.bandwidth == net.bandwidth(),
             "plan must be algebraic_mm_plan(n, 61, net.bandwidth())");
  return blockmm::run_block_mm<blockmm::M61Ops, AlgebraicMmResult>(net, a, b, c, plan);
}

AlgebraicMmPlan sharded_mm_plan(int n, int word_bits, int bandwidth,
                                const blockmm::ShardLayout& layout) {
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("sharded_mm_plan"));
  AlgebraicMmPlan plan;
  blockmm::fill_plan_schedule(&plan, n, word_bits, bandwidth, layout);
  return plan;
}

AlgebraicMmResult algebraic_mm_m61_sharded(CliqueUnicast& net, const Mat61& a,
                                           const Mat61& b, Mat61* c,
                                           const blockmm::ShardLayout& layout) {
  const AlgebraicMmPlan plan =
      sharded_mm_plan(a.n(), blockmm::M61Ops::kWordBits, net.bandwidth(), layout);
  return blockmm::run_block_mm<blockmm::M61Ops, AlgebraicMmResult>(net, a, b, c, plan, layout);
}

AlgebraicCountResult triangle_count_algebraic(CliqueUnicast& net, const Graph& g) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(n >= 1 && n <= (1 << 15), "exact counting needs trace(A^3) < 2^61");
  const Mat61 a = Mat61::adjacency(g);
  Mat61 a2;
  AlgebraicCountResult out;
  out.mm = algebraic_mm_m61(net, a, a, &a2);

  // Player v's local share of trace(A^3): (A^3)_vv = <row_v(A^2), row_v(A)>
  // (A is symmetric). True value < n^3 < p, so mod-p arithmetic is exact.
  locality::PerPlayer<std::uint64_t> diag(
      n, CC_LOCALITY_SITE("local trace(A^3) share"));
  for (int v = 0; v < n; ++v) {
    std::uint64_t acc = 0;
    for (int j : g.neighbors(v)) acc = Mersenne61::add(acc, a2.get(v, j));
    diag[v] = acc;
  }
  std::vector<std::uint64_t> totals;
  out.share_rounds = share_partials(net, {diag.raw()}, &totals);
  const std::uint64_t trace = totals[0];
  CC_CHECK(trace % 6 == 0, "trace(A^3) must be 6 * #triangles");
  out.count = trace / 6;
  out.total_rounds = out.mm.total_rounds + out.share_rounds;
  return out;
}

AlgebraicCountResult four_cycle_count_algebraic(CliqueUnicast& net, const Graph& g,
                                                CountBackend backend) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(n >= 1 && n <= (1 << 15), "exact counting needs trace(A^4) < 2^61");
  const Mat61 a = Mat61::adjacency(g);
  Mat61 a2;
  AlgebraicCountResult out;
  int mm_rounds = 0;
  if (backend == CountBackend::kDense) {
    out.mm = algebraic_mm_m61(net, a, a, &a2);
    mm_rounds = out.mm.total_rounds;
  } else {
    const Csr61 sa = Csr61::from_dense(a);
    const SparseNnzProfile profile = declared_nnz_profile(sa, sa);
    const SparseMmPlan splan =
        sparse_mm_plan(n, /*word_bits=*/61, net.bandwidth(), profile);
    out.used_sparse =
        backend == CountBackend::kSparse || sparse_backend_preferred(splan);
    if (out.used_sparse) {
      out.sparse_mm = sparse_mm_m61(net, sa, sa, &a2, profile, splan);
      mm_rounds = out.sparse_mm.total_rounds;
    } else {
      // kAuto chose dense: the decision itself consumed the announcement,
      // then the oblivious schedule runs unchanged.
      out.announce_rounds = run_nnz_announcement(net, profile, splan.count_bits);
      CC_CHECK(out.announce_rounds == splan.announce_rounds,
               "nnz announcement left the planned schedule");
      out.mm = algebraic_mm_m61(net, a, a, &a2, splan.dense);
      mm_rounds = out.announce_rounds + out.mm.total_rounds;
    }
  }

  // trace(A^4) = sum_v ||row_v(A^2)||^2 (A^2 is symmetric); each player also
  // contributes deg(v)^2 and deg(v) for the degenerate-walk correction
  //   #C4 = (trace(A^4) - 2*sum_v deg(v)^2 + 2|E|) / 8.
  locality::PerPlayer<std::uint64_t> walk(
      n, CC_LOCALITY_SITE("local trace(A^4) share"));
  locality::PerPlayer<std::uint64_t> deg2(
      n, CC_LOCALITY_SITE("local squared-degree share"));
  locality::PerPlayer<std::uint64_t> deg(
      n, CC_LOCALITY_SITE("local degree share"));
  for (int v = 0; v < n; ++v) {
    std::uint64_t acc = 0;
    for (int j = 0; j < n; ++j) {
      const std::uint64_t e = a2.get(v, j);
      acc = Mersenne61::add(acc, Mersenne61::mul(e, e));
    }
    walk[v] = acc;
    const std::uint64_t d = static_cast<std::uint64_t>(g.degree(v));
    deg2[v] = Mersenne61::mul(d, d);
    deg[v] = d;
  }
  std::vector<std::uint64_t> totals;
  out.share_rounds = share_partials(net, {walk.raw(), deg2.raw(), deg.raw()}, &totals);
  const std::uint64_t trace4 = totals[0];  // < n^4 < p: exact
  const std::uint64_t sum_deg2 = totals[1];
  const std::uint64_t twice_edges = totals[2];  // sum of degrees = 2|E|
  CC_CHECK(trace4 + twice_edges >= 2 * sum_deg2, "closed-walk identity violated");
  const std::uint64_t numerator = trace4 + twice_edges - 2 * sum_deg2;
  CC_CHECK(numerator % 8 == 0, "trace identity must yield 8 * #C4");
  out.count = numerator / 8;
  out.total_rounds = mm_rounds + out.share_rounds;
  return out;
}

CountingArtifactPlan counting_artifacts_plan(int n, int bandwidth) {
  // Plan-function sink: the combined counting schedule is priced from
  // (n, b) alone — the adjacency payload never enters.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("counting_artifacts_plan"));
  CC_REQUIRE(n >= 1, "need at least one player");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  CountingArtifactPlan plan;
  plan.n = n;
  plan.product = algebraic_mm_plan(n, /*word_bits=*/61, bandwidth);
  // One all-gather of the four 61-bit fields.
  const ExchangeCost share = all_gather_cost(n, 4 * 61, bandwidth);
  plan.share_rounds = share.rounds;
  plan.total_rounds = plan.product.total_rounds + plan.share_rounds;
  plan.total_bits = plan.product.total_bits + share.bits;
  return plan;
}

CountingArtifact counting_artifacts_run(CliqueUnicast& net, const Graph& g) {
  const int n = g.num_vertices();
  CC_REQUIRE(net.n() == n, "one player per vertex");
  CC_REQUIRE(n >= 1 && n <= (1 << 15), "exact counting needs trace(A^4) < 2^61");
  CountingArtifact out;
  out.plan = counting_artifacts_plan(n, net.bandwidth());
  const int rounds_before = net.stats().rounds;
  const std::uint64_t bits_before = net.stats().total_bits;

  const Mat61 a = Mat61::adjacency(g);
  const AlgebraicMmResult mm = algebraic_mm_m61(net, a, a, &out.a2);
  (void)mm;

  // Per-player shares of all four counting statistics, shipped in one
  // exchange: trace(A³) diagonal, trace(A⁴) walk norm, deg², deg (see the
  // standalone protocols above for the identities).
  locality::PerPlayer<std::uint64_t> diag(
      n, CC_LOCALITY_SITE("local trace(A^3) share"));
  locality::PerPlayer<std::uint64_t> walk(
      n, CC_LOCALITY_SITE("local trace(A^4) share"));
  locality::PerPlayer<std::uint64_t> deg2(
      n, CC_LOCALITY_SITE("local squared-degree share"));
  locality::PerPlayer<std::uint64_t> deg(
      n, CC_LOCALITY_SITE("local degree share"));
  for (int v = 0; v < n; ++v) {
    std::uint64_t acc3 = 0;
    for (int j : g.neighbors(v)) acc3 = Mersenne61::add(acc3, out.a2.get(v, j));
    diag[v] = acc3;
    std::uint64_t acc4 = 0;
    for (int j = 0; j < n; ++j) {
      const std::uint64_t e = out.a2.get(v, j);
      acc4 = Mersenne61::add(acc4, Mersenne61::mul(e, e));
    }
    walk[v] = acc4;
    const std::uint64_t d = static_cast<std::uint64_t>(g.degree(v));
    deg2[v] = Mersenne61::mul(d, d);
    deg[v] = d;
  }
  std::vector<std::uint64_t> totals;
  const int share_rounds = share_partials(
      net, {diag.raw(), walk.raw(), deg2.raw(), deg.raw()}, &totals);
  const std::uint64_t trace3 = totals[0];
  const std::uint64_t trace4 = totals[1];
  const std::uint64_t sum_deg2 = totals[2];
  const std::uint64_t twice_edges = totals[3];
  CC_CHECK(trace3 % 6 == 0, "trace(A^3) must be 6 * #triangles");
  out.triangles = trace3 / 6;
  CC_CHECK(trace4 + twice_edges >= 2 * sum_deg2, "closed-walk identity violated");
  const std::uint64_t numerator = trace4 + twice_edges - 2 * sum_deg2;
  CC_CHECK(numerator % 8 == 0, "trace identity must yield 8 * #C4");
  out.four_cycles = numerator / 8;

  out.total_rounds = net.stats().rounds - rounds_before;
  out.total_bits = net.stats().total_bits - bits_before;
  CC_CHECK(share_rounds == out.plan.share_rounds,
           "counting share left the planned schedule");
  CC_CHECK(out.total_rounds == out.plan.total_rounds,
           "counting-artifact rounds diverged from the planned schedule");
  CC_CHECK(out.total_bits == out.plan.total_bits,
           "counting-artifact bits diverged from the planned schedule");
  return out;
}

}  // namespace cclique
