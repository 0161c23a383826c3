#include "core/sparse_mm.h"

#include <vector>

#include "core/algebraic_mm.h"

namespace cclique {

SparseNnzProfile declared_nnz_profile(const Csr61& a, const Csr61& b) {
  CC_REQUIRE(a.n() == b.n(), "size mismatch");
  const int n = a.n();
  const blockmm::BlockGrid g(n);
  SparseNnzProfile prof;
  prof.n = n;
  prof.grid = g.m;
  prof.a_block_nnz.assign(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(g.m), 0);
  prof.b_block_nnz.assign(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(g.m), 0);
  // This is the sanctioned tainted->plain boundary (DESIGN.md §2.8): the
  // sparse schedule legitimately depends on the operands' sparsity
  // structure, so the structure reads happen under an explicit declaration
  // — the guard counts them (declared_use_count) instead of throwing, and
  // the announcement phase makes the resulting profile common knowledge
  // before any nnz-dependent payload moves.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("declared_nnz_profile"));
  [[maybe_unused]] auto dd = oblivious::declared_dependence(
      CC_OBLIVIOUS_SITE("sparse schedule depends on announced nnz counts"));
  const std::size_t* arp = a.row_ptr();
  const int* acols = a.cols();
  const std::size_t* brp = b.row_ptr();
  const int* bcols = b.cols();
  for (int v = 0; v < n; ++v) {
    for (std::size_t e = arp[v]; e < arp[v + 1]; ++e) {
      const int k = acols[e] / g.bs;
      ++prof.a_block_nnz[static_cast<std::size_t>(v) * static_cast<std::size_t>(g.m) +
                         static_cast<std::size_t>(k)];
    }
    for (std::size_t e = brp[v]; e < brp[v + 1]; ++e) {
      const int j = bcols[e] / g.bs;
      ++prof.b_block_nnz[static_cast<std::size_t>(v) * static_cast<std::size_t>(g.m) +
                         static_cast<std::size_t>(j)];
    }
  }
  prof.a_nnz = static_cast<std::uint64_t>(a.nnz());
  prof.b_nnz = static_cast<std::uint64_t>(b.nnz());
  return prof;
}

SparseMmPlan sparse_mm_plan(int n, int word_bits, int bandwidth,
                            const SparseNnzProfile& profile) {
  // Plan-function sink: the schedule is a function of (n, w, b) and the
  // *declared* profile alone — plain integers, no CSR structure reads here.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("sparse_mm_plan"));
  CC_REQUIRE(word_bits >= 1 && word_bits <= 64, "word width out of range");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  const blockmm::BlockGrid g(n);
  const int m = g.m;
  CC_REQUIRE(profile.n == n && profile.grid == m,
             "profile built for another grid");
  CC_REQUIRE(profile.a_block_nnz.size() ==
                     static_cast<std::size_t>(n) * static_cast<std::size_t>(m) &&
                 profile.b_block_nnz.size() == profile.a_block_nnz.size(),
             "profile table size mismatch");
  SparseMmPlan plan;
  plan.n = n;
  plan.grid = m;
  plan.block = g.bs;
  plan.word_bits = word_bits;
  plan.index_bits = static_cast<int>(bits_for(static_cast<std::uint64_t>(g.bs)));
  plan.count_bits =
      static_cast<int>(bits_for(static_cast<std::uint64_t>(g.bs) + 1));
  plan.bandwidth = bandwidth;
  plan.a_nnz = profile.a_nnz;
  plan.b_nnz = profile.b_nnz;

  // Announcement: one all-gather of 2m counts per player.
  const ExchangeCost announce = all_gather_cost(
      n, 2 * static_cast<std::size_t>(m) * static_cast<std::size_t>(plan.count_bits), bandwidth);
  plan.announce_rounds = announce.rounds;
  plan.announce_bits = announce.bits;

  // Distribution: row owner v ships each slice it serves as its declared
  // count of (index, value) pairs, index_bits + w bits each.
  const std::size_t pair_bits =
      static_cast<std::size_t>(plan.index_bits + word_bits);
  blockmm::LengthMatrix dist(
      static_cast<std::size_t>(n),
      std::vector<std::size_t>(static_cast<std::size_t>(n), 0));
  blockmm::for_each_operand_slice(g, [&](const blockmm::OperandSlice& s) {
    if (s.row == s.p) return;
    dist[static_cast<std::size_t>(s.row)][static_cast<std::size_t>(s.p)] +=
        profile.slice_nnz(s) * pair_bits;
  });
  const ExchangeCost dc = blockmm::relay_cost(dist, n, bandwidth);

  // Aggregation: dense widths (fill-in makes output structure unpriceable
  // without a second announcement; see sparse_mm.h) — exactly the dense
  // schedule's aggregation phase, so it is priced once, by the dense plan.
  plan.dense = algebraic_mm_plan(n, word_bits, bandwidth);

  plan.distribute_rounds = dc.rounds;
  plan.aggregate_rounds = plan.dense.aggregate_rounds;
  plan.total_rounds = plan.announce_rounds + dc.rounds + plan.dense.aggregate_rounds;
  plan.total_bits = plan.announce_bits + dc.bits + plan.dense.aggregate_bits;
  return plan;
}

int run_nnz_announcement(CliqueUnicast& net, const SparseNnzProfile& profile,
                         int count_bits) {
  CC_REQUIRE(net.n() == profile.n, "one player per matrix row");
  const std::size_t m = static_cast<std::size_t>(profile.grid);
  return all_gather(net, 2 * profile.grid, count_bits, [&](int v, int f) {
    const std::size_t row = static_cast<std::size_t>(v) * m;
    const std::size_t t = static_cast<std::size_t>(f);
    return static_cast<std::uint64_t>(t < m ? profile.a_block_nnz[row + t]
                                            : profile.b_block_nnz[row + t - m]);
  });
}

namespace {

/// The sparse payload encoding of blockmm::run_block_mm (core/block_mm.h):
/// the row owner ships each slice's explicit entries as (local column
/// index, value) pairs, index_bits + w bits each, in CSR column order. The
/// pre-phase announces the declared profile, whose counts bound every read;
/// the triple multiplies its A block, as CSR, by its dense B block
/// (Ops::spmm). Operands and output are row-owned.
template <typename OpsT>
class SparseEncoding {
 public:
  using Ops = OpsT;
  using Matrix = typename Ops::Matrix;

  SparseEncoding(const Csr61& a, const Csr61& b, const SparseNnzProfile& profile,
                 const SparseMmPlan& plan)
      : a_(a), b_(b), profile_(profile), plan_(plan) {
    CC_REQUIRE(b.n() == a.n(), "size mismatch");
    CC_REQUIRE(a.ring() == Ops::kRing && b.ring() == Ops::kRing,
               "CSR ring does not match the Ops carrier");
    CC_REQUIRE(profile.n == a.n() && plan.n == a.n(), "profile/plan built for another n");
  }

  int n() const { return a_.n(); }
  const blockmm::ShardLayout& layout() const { return layout_; }

  /// Makes the declared profile common knowledge.
  int pre_phase(CliqueUnicast& net, SparseMmResult* res) const {
    res->announce_rounds = run_nnz_announcement(net, profile_, plan_.count_bits);
    return res->announce_rounds;
  }

  void encode(const blockmm::BlockGrid& g, const blockmm::OperandSlice& s,
              blockmm::Payloads* payload) const {
    if (s.row == s.p) return;  // the triple player reads its own row directly
    Message& msg = (*payload)[static_cast<std::size_t>(s.row)][static_cast<std::size_t>(s.p)];
    for_each_entry(g, s, [&](int col, std::uint64_t x) {
      msg.push_uint(static_cast<std::uint64_t>(col), plan_.index_bits);
      msg.push_uint(x, Ops::kWordBits);
    });
  }

  /// Reads the declared count of pairs (or the local row) into the block.
  void decode(const blockmm::BlockGrid& g, const blockmm::OperandSlice& s,
              const std::vector<Message>& inbox, std::vector<std::size_t>* cur,
              Matrix* blk) const {
    const int index_bits = plan_.index_bits;
    const std::size_t cnt = profile_.slice_nnz(s);
    if (s.row == s.p) {
      std::size_t found = 0;
      for_each_entry(g, s, [&](int col, std::uint64_t x) {
        Ops::set(*blk, s.local_row, col, x);
        ++found;
      });
      CC_CHECK(found == cnt, "local row diverged from the declared profile");
      return;
    }
    const Message& src = inbox[static_cast<std::size_t>(s.row)];
    std::size_t& off = (*cur)[static_cast<std::size_t>(s.row)];
    for (std::size_t t = 0; t < cnt; ++t) {
      Ops::set(*blk, s.local_row, static_cast<int>(src.read_uint(off, index_bits)),
               src.read_uint(off + static_cast<std::size_t>(index_bits), Ops::kWordBits));
      off += static_cast<std::size_t>(index_bits + Ops::kWordBits);
    }
  }

  /// The A block's explicit entries as CSR times the dense B block.
  Matrix multiply(const Matrix& a_blk, const Matrix& b_blk) const {
    return Ops::spmm(Csr61::from_dense(a_blk), b_blk);
  }

 private:
  /// Calls f(local column, value) for slice s's explicit entries, in CSR
  /// order. Executor-side CSR reads are sanctioned: source_touch is free
  /// outside sinks — only *planning* on structure needs the declared
  /// dependence.
  template <typename F>
  void for_each_entry(const blockmm::BlockGrid& g, const blockmm::OperandSlice& s, F&& f) const {
    const Csr61& src = s.is_b ? b_ : a_;
    const std::size_t* rp = src.row_ptr();
    const int* cols = src.cols();
    const std::uint64_t* vals = src.vals();
    const int lo = g.lo(s.cols), hi = g.hi(s.cols);
    for (std::size_t e = rp[s.row]; e < rp[s.row + 1]; ++e) {
      if (cols[e] >= lo && cols[e] < hi) f(cols[e] - lo, vals[e]);
    }
  }

  const Csr61& a_;
  const Csr61& b_;
  const SparseNnzProfile& profile_;
  const SparseMmPlan& plan_;
  blockmm::RowShardLayout layout_;
};

}  // namespace

SparseMmResult sparse_mm_m61(CliqueUnicast& net, const Csr61& a, const Csr61& b,
                             Mat61* c) {
  const SparseNnzProfile profile = declared_nnz_profile(a, b);
  return sparse_mm_m61(net, a, b, c, profile,
                       sparse_mm_plan(a.n(), /*word_bits=*/61, net.bandwidth(), profile));
}

SparseMmResult sparse_mm_m61(CliqueUnicast& net, const Csr61& a, const Csr61& b,
                             Mat61* c, const SparseNnzProfile& profile,
                             const SparseMmPlan& plan) {
  return blockmm::run_block_mm<SparseMmResult>(
      net, SparseEncoding<blockmm::M61Ops>(a, b, profile, plan), c, plan);
}

SparseMmResult sparse_min_plus_mm(CliqueUnicast& net, const Csr61& a,
                                  const Csr61& b, TropicalMat* c) {
  const SparseNnzProfile profile = declared_nnz_profile(a, b);
  return sparse_min_plus_mm(net, a, b, c, profile,
                            sparse_mm_plan(a.n(), /*word_bits=*/61, net.bandwidth(), profile));
}

SparseMmResult sparse_min_plus_mm(CliqueUnicast& net, const Csr61& a,
                                  const Csr61& b, TropicalMat* c,
                                  const SparseNnzProfile& profile,
                                  const SparseMmPlan& plan) {
  return blockmm::run_block_mm<SparseMmResult>(
      net, SparseEncoding<blockmm::TropicalOps>(a, b, profile, plan), c, plan);
}

}  // namespace cclique
