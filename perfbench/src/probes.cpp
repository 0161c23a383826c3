#include "probes.h"

#include <vector>

#include "core/algebraic_mm.h"
#include "linalg/kernels.h"

namespace perfbench {

using namespace cclique;

namespace {

// Results of probe calls are folded in here so no call can be elided.
volatile std::uint64_t g_sink = 0;

using Payload = std::vector<std::vector<Message>>;

Payload zero_payload(const blockmm::LengthMatrix& len) {
  Payload p(len.size());
  for (std::size_t v = 0; v < len.size(); ++v) {
    p[v].reserve(len[v].size());
    for (std::size_t d = 0; d < len[v].size(); ++d) p[v].emplace_back(len[v][d]);
  }
  return p;
}

/// Copies block (I_i x K_k) of `a` into a bs x bs matrix, the rest left at
/// the semiring zero — the operands the block executor hands its kernel.
template <typename Mat>
Mat dense_block(const Mat& a, const blockmm::BlockGrid& g, int rows, int cols) {
  Mat blk(g.bs);
  for (int r = g.lo(rows); r < g.hi(rows); ++r) {
    for (int c = g.lo(cols); c < g.hi(cols); ++c) {
      blk.set(r - g.lo(rows), c - g.lo(cols), a.get(r, c));
    }
  }
  return blk;
}

// The block executor's element adapters, as the library's min_plus_mm and
// algebraic_mm_m61 instantiate blockmm::run_block_mm.
struct TropicalOps {
  using Matrix = TropicalMat;
  static constexpr int kWordBits = 61;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j); }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, v); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) { m.min_at(i, j, v); }
  static Matrix multiply(const Matrix& a, const Matrix& b) {
    return tropical_multiply_dispatch(a, b);
  }
};
struct M61Ops {
  using Matrix = Mat61;
  static constexpr int kWordBits = 61;
  static std::uint64_t get(const Matrix& m, int i, int j) { return m.get(i, j); }
  static void set(Matrix& m, int i, int j, std::uint64_t v) { m.set(i, j, v); }
  static void accumulate(Matrix& m, int i, int j, std::uint64_t v) { m.add_at(i, j, v); }
  static Matrix multiply(const Matrix& a, const Matrix& b) { return m61_multiply_dispatch(a, b); }
};

template <typename Ops>
void probe_dense(Tracer& t, int parent, CliqueUnicast& net, const typename Ops::Matrix& a,
                 const AlgebraicMmPlan& plan, bool executor, bool plan_in_call,
                 LayerCounts* counts, const char* kernel_name) {
  using Matrix = typename Ops::Matrix;
  const int n = a.n();
  const blockmm::BlockGrid g(n);
  if (plan_in_call) {
    ScopedSpan s(&t, "algebraic_mm_plan", Layer::kPlan, true, parent);
    g_sink = g_sink + algebraic_mm_plan(n, 61, net.bandwidth()).total_bits;
  }
  int p = parent;
  if (executor) {
    ScopedSpan e(&t, "blockmm::run_block_mm", Layer::kBlockMm, true, parent);
    Matrix c;
    blockmm::run_block_mm<Ops, AlgebraicMmResult>(net, a, a, &c, plan);
    g_sink = g_sink + c.get(0, 0);
    p = e.id();
  }
  probe_relay(t, p, "unicast_payloads_relayed(distribute)", net,
              blockmm::distribute_lengths(g, 61), counts);
  probe_relay(t, p, "unicast_payloads_relayed(aggregate)", net,
              blockmm::aggregate_lengths(g, 61), counts);
  std::vector<Matrix> ablk, bblk;
  for (int q = 0; q < g.triples(); ++q) {
    ablk.push_back(dense_block(a, g, g.ti(q), g.tk(q)));
    bblk.push_back(dense_block(a, g, g.tk(q), g.tj(q)));
  }
  {
    ScopedSpan s(&t, kernel_name, Layer::kKernels, true, p);
    for (std::size_t q = 0; q < ablk.size(); ++q) {
      g_sink = g_sink + Ops::multiply(ablk[q], bblk[q]).get(0, 0);
    }
  }
  const double bs = g.bs;
  counts->kernel_ops += g.triples() * 2.0 * bs * bs * bs;
  counts->kernel_bytes += g.triples() * 3.0 * bs * bs * 8.0;
}

}  // namespace

void probe_relay(Tracer& t, int parent, const char* name, CliqueUnicast& net,
                 const blockmm::LengthMatrix& len, LayerCounts* counts) {
  const Payload payload = zero_payload(len);
  Payload recv;
  const std::uint64_t before = net.stats().total_bits;
  {
    ScopedSpan s(&t, name, Layer::kRelay, true, parent);
    unicast_payloads_relayed(net, payload, &recv);
  }
  counts->relay_bits += net.stats().total_bits - before;
}

void probe_dense_tropical(Tracer& t, int parent, CliqueUnicast& net, const TropicalMat& a,
                          const AlgebraicMmPlan& plan, bool executor, bool plan_in_call,
                          LayerCounts* counts) {
  probe_dense<TropicalOps>(t, parent, net, a, plan, executor, plan_in_call, counts,
                           "tropical_multiply_dispatch");
}

void probe_dense_m61(Tracer& t, int parent, CliqueUnicast& net, const Mat61& a,
                     const AlgebraicMmPlan& plan, bool executor, bool plan_in_call,
                     LayerCounts* counts) {
  probe_dense<M61Ops>(t, parent, net, a, plan, executor, plan_in_call, counts,
                      "m61_multiply_dispatch");
}

void probe_sparse_tropical(Tracer& t, int parent, CliqueUnicast& net, const Csr61& cur,
                           const TropicalMat& dense, const SparseNnzProfile& profile,
                           LayerCounts* counts) {
  const int n = cur.n();
  const blockmm::BlockGrid g(n);
  const std::size_t m = static_cast<std::size_t>(g.m);
  SparseMmPlan plan;
  {
    ScopedSpan s(&t, "sparse_mm_plan", Layer::kPlan, true, parent);
    plan = sparse_mm_plan(n, 61, net.bandwidth(), profile);
  }
  // Distribution ships (index, value) pairs per declared block count; the
  // aggregation is dense-width, as in run_sparse_mm.
  const std::size_t pair_bits = static_cast<std::size_t>(plan.index_bits + 61);
  blockmm::LengthMatrix dist(static_cast<std::size_t>(n),
                             std::vector<std::size_t>(static_cast<std::size_t>(n), 0));
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
    for (int v = g.lo(i); v < g.hi(i); ++v) {
      if (v == p) continue;
      dist[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)] +=
          profile.a_block_nnz[static_cast<std::size_t>(v) * m + static_cast<std::size_t>(k)] *
          pair_bits;
    }
    for (int v = g.lo(k); v < g.hi(k); ++v) {
      if (v == p) continue;
      dist[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)] +=
          profile.b_block_nnz[static_cast<std::size_t>(v) * m + static_cast<std::size_t>(j)] *
          pair_bits;
    }
  }
  probe_relay(t, parent, "unicast_payloads_relayed(distribute)", net, dist, counts);
  probe_relay(t, parent, "unicast_payloads_relayed(aggregate)", net,
              blockmm::aggregate_lengths(g, 61), counts);

  std::vector<Csr61> ablk;
  std::vector<TropicalMat> bblk;
  double nnz = 0;
  for (int p = 0; p < g.triples(); ++p) {
    const int i = g.ti(p), j = g.tj(p), k = g.tk(p);
    std::vector<std::size_t> row_ptr(static_cast<std::size_t>(g.bs) + 1, 0);
    std::vector<int> cols;
    std::vector<std::uint64_t> vals;
    for (int r = 0; r < g.bs; ++r) {
      const int v = g.lo(i) + r;
      if (v < g.hi(i)) {
        for (std::size_t e = cur.row_ptr()[v]; e < cur.row_ptr()[v + 1]; ++e) {
          const int c = cur.cols()[e];
          if (c < g.lo(k) || c >= g.hi(k)) continue;
          cols.push_back(c - g.lo(k));
          vals.push_back(cur.vals()[e]);
        }
      }
      row_ptr[static_cast<std::size_t>(r) + 1] = cols.size();
    }
    nnz += static_cast<double>(cols.size());
    ablk.emplace_back(g.bs, SparseRing::kTropical, std::move(row_ptr), std::move(cols),
                      std::move(vals));
    bblk.push_back(dense_block(dense, g, k, j));
  }
  {
    ScopedSpan s(&t, "tropical_spmm_dispatch", Layer::kKernels, true, parent);
    for (std::size_t q = 0; q < ablk.size(); ++q) {
      g_sink = g_sink + tropical_spmm_dispatch(ablk[q], bblk[q]).get(0, 0);
    }
  }
  const double bs = g.bs;
  counts->kernel_ops += 2.0 * nnz * bs;
  counts->kernel_bytes += nnz * 12.0 + g.triples() * 2.0 * bs * bs * 8.0;
}

double probe_round_us(int n, int bandwidth, int rounds) {
  CliqueUnicast net(n, bandwidth);
  auto fill = [n, bandwidth](int player, Message* outbox) {
    for (int j = 0; j < n; ++j) {
      if (j == player) continue;
      for (int left = bandwidth; left > 0; left -= 64) {
        outbox[j].push_uint(0, left < 64 ? left : 64);
      }
    }
  };
  auto recv = [](int, const std::vector<Message>& inbox) {
    g_sink = g_sink + inbox.size();
  };
  net.round_fill(fill, recv);  // binds the engine's thread pool
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) net.round_fill(fill, recv);
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  return s * 1e6 / rounds;
}

double probe_two_phase(Tracer& t, int parent, CliqueUnicast& net, std::size_t records,
                       int payload_bits) {
  const int n = net.n();
  RoutingDemand demand;
  demand.payload_bits = payload_bits;
  const std::uint64_t mask =
      payload_bits >= 64 ? ~0ULL : ((1ULL << payload_bits) - 1);
  for (std::size_t q = 0; q < records; ++q) {
    const int src = static_cast<int>(q % static_cast<std::size_t>(n));
    const int hop = 1 + static_cast<int>((q / static_cast<std::size_t>(n)) %
                                         static_cast<std::size_t>(n - 1));
    demand.messages.push_back(RoutedMessage{src, (src + hop) % n, q & mask});
  }
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan s(&t, "route_two_phase", Layer::kRouting, true, parent);
    g_sink = g_sink + static_cast<std::uint64_t>(route_two_phase(net, demand).rounds);
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace perfbench
