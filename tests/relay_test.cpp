// The two-hop balanced relay's chunk walk against a division-per-chunk
// replay oracle.
//
// The relay schedule lives in one place (comm/clique_unicast.h): the
// RelayChunkWalk, which both the closed-form cost (relay_link_loads,
// blockmm::relay_cost) and the executor (unicast_payloads_relayed) step
// through. This suite keeps the original definition beside it — chunk c of a
// len-bit payload is bits [len*c/n, len*(c+1)/n) and rides relay
// (c - v - p) mod n — replayed over all n^3 (source, destination, relay)
// triples, and checks on seeded random and block-MM length matrices that:
//  * the walk visits exactly the non-empty chunks of the definition;
//  * the closed-form relay_cost equals the O(n^3) replay;
//  * the executor round-trips every payload, its CommStats equal those of
//    the replayed executor built from the definition, and its rounds/bits
//    equal relay_cost of the same lengths, also for chunks over 64 bits,
//    empty rows and columns, and lengths ending on word boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "comm/clique_unicast.h"
#include "comm/engine.h"
#include "core/block_mm.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace cclique {
namespace {

using blockmm::LengthMatrix;
using Payloads = std::vector<std::vector<Message>>;

// ---- The replay oracle: the relay's chunk map by its definition.

std::size_t oracle_chunk_lo(std::size_t len, int c, int n) {
  return len * static_cast<std::size_t>(c) / static_cast<std::size_t>(n);
}

std::size_t oracle_chunk_len(std::size_t len, int c, int n) {
  return oracle_chunk_lo(len, c + 1, n) - oracle_chunk_lo(len, c, n);
}

// Which chunk of the (v -> p) payload relay t carries.
int oracle_chunk_index(int v, int p, int t, int n) { return (t + v + p) % n; }

// The replayed per-hop maxima and total bits: O(n^3) triples, two
// divisions each. relay_cost at any bandwidth follows from these.
struct OracleLoads {
  std::size_t max1 = 0, max2 = 0;
  std::uint64_t bits = 0;

  ExchangeCost at(int bandwidth) const {
    const std::size_t b = static_cast<std::size_t>(bandwidth);
    return {static_cast<int>(ceil_div(max1, b) + ceil_div(max2, b)), bits};
  }
};

OracleLoads oracle_loads(const LengthMatrix& len, int n) {
  OracleLoads out;
  for (int v = 0; v < n; ++v) {
    for (int t = 0; t < n; ++t) {
      if (t == v) continue;
      std::size_t sum = 0;
      for (int p = 0; p < n; ++p) {
        if (p == v) continue;
        sum += oracle_chunk_len(len[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)],
                                oracle_chunk_index(v, p, t, n), n);
      }
      out.max1 = std::max(out.max1, sum);
      out.bits += sum;
    }
  }
  for (int t = 0; t < n; ++t) {
    for (int p = 0; p < n; ++p) {
      if (p == t) continue;
      std::size_t sum = 0;
      for (int v = 0; v < n; ++v) {
        if (v == p) continue;
        sum += oracle_chunk_len(len[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)],
                                oracle_chunk_index(v, p, t, n), n);
      }
      out.max2 = std::max(out.max2, sum);
      out.bits += sum;
    }
  }
  return out;
}

// The relayed executor replayed from the definition: hop-1 streams built
// per (source, relay) over every destination, the relay stage per (relay,
// source), reassembly per (destination, source) over every chunk.
int oracle_relayed(CliqueUnicast& net, const Payloads& payload, Payloads* received) {
  const int n = net.n();
  auto sz = [](int i) { return static_cast<std::size_t>(i); };
  Payloads h1(sz(n), std::vector<Message>(sz(n)));
  for (int v = 0; v < n; ++v) {
    for (int t = 0; t < n; ++t) {
      if (t == v) continue;
      for (int p = 0; p < n; ++p) {
        if (p == v) continue;
        const Message& full = payload[sz(v)][sz(p)];
        const int c = oracle_chunk_index(v, p, t, n);
        const std::size_t clen = oracle_chunk_len(full.size_bits(), c, n);
        if (clen != 0) {
          h1[sz(v)][sz(t)].append_slice(full, oracle_chunk_lo(full.size_bits(), c, n), clen);
        }
      }
    }
  }
  Payloads recv1;
  const int rounds1 = unicast_payloads(net, h1, &recv1);
  Payloads h2(sz(n), std::vector<Message>(sz(n)));
  std::vector<Message> hold(sz(n));
  for (int t = 0; t < n; ++t) {
    for (int v = 0; v < n; ++v) {
      if (v == t) {
        for (int p = 0; p < n; ++p) {
          if (p == t) continue;
          const Message& full = payload[sz(t)][sz(p)];
          const int c = oracle_chunk_index(t, p, t, n);
          const std::size_t clen = oracle_chunk_len(full.size_bits(), c, n);
          if (clen != 0) {
            h2[sz(t)][sz(p)].append_slice(full, oracle_chunk_lo(full.size_bits(), c, n), clen);
          }
        }
        continue;
      }
      const Message& src = recv1[sz(t)][sz(v)];
      std::size_t cur = 0;
      for (int p = 0; p < n; ++p) {
        if (p == v) continue;
        const std::size_t clen = oracle_chunk_len(payload[sz(v)][sz(p)].size_bits(),
                                                  oracle_chunk_index(v, p, t, n), n);
        if (clen == 0) continue;
        Message& out = p == t ? hold[sz(t)] : h2[sz(t)][sz(p)];
        out.append_slice(src, cur, clen);
        cur += clen;
      }
    }
  }
  Payloads recv2;
  const int rounds2 = unicast_payloads(net, h2, &recv2);
  received->assign(sz(n), std::vector<Message>(sz(n)));
  for (int r = 0; r < n; ++r) {
    std::vector<std::size_t> cur(sz(n), 0);
    for (int v = 0; v < n; ++v) {
      if (v == r) continue;
      const std::size_t len = payload[sz(v)][sz(r)].size_bits();
      for (int c = 0; c < n; ++c) {
        const std::size_t clen = oracle_chunk_len(len, c, n);
        if (clen == 0) continue;
        const int t = ((c - v - r) % n + n) % n;
        const Message& src = t == r ? hold[sz(r)] : recv2[sz(r)][sz(t)];
        (*received)[sz(r)][sz(v)].append_slice(src, cur[sz(t)], clen);
        cur[sz(t)] += clen;
      }
    }
  }
  return rounds1 + rounds2;
}

// ---- Seeded random length matrices across the walk's regimes.

enum class Regime { kMixed, kZeroRows, kBelowN, kExactlyN, kHuge };

LengthMatrix random_lengths(int n, Regime regime, Rng& rng) {
  const std::size_t nn = static_cast<std::size_t>(n);
  LengthMatrix len(nn, std::vector<std::size_t>(nn, 0));
  auto below = [&rng](std::size_t bound) {
    return bound == 0 ? std::size_t{0} : static_cast<std::size_t>(rng.uniform(bound));
  };
  for (std::size_t v = 0; v < nn; ++v) {
    const bool zero_row = regime == Regime::kZeroRows && rng.uniform(3) == 0;
    for (std::size_t p = 0; p < nn; ++p) {
      if (p == v || zero_row) continue;
      switch (regime) {
        case Regime::kBelowN:
          len[v][p] = below(nn);  // chunks of 0 or 1 bits
          break;
        case Regime::kExactlyN:
          len[v][p] = rng.uniform(2) == 0 ? nn : 0;
          break;
        default:
          len[v][p] = rng.uniform(4) == 0 ? 0 : below(6 * nn + 7);
          break;
      }
    }
  }
  if (regime == Regime::kHuge && n >= 2) {
    const std::size_t v = below(nn);
    const std::size_t p = (v + 1 + below(nn - 1)) % nn;
    len[v][p] = 64 * nn + 1 + below(4 * nn);
  }
  return len;
}

Payloads random_payloads(const LengthMatrix& len, Rng& rng) {
  Payloads payload(len.size(), std::vector<Message>(len.size()));
  for (std::size_t v = 0; v < len.size(); ++v) {
    for (std::size_t p = 0; p < len.size(); ++p) {
      for (std::size_t b = 0; b < len[v][p]; ++b) payload[v][p].push_bit(rng.coin());
    }
  }
  return payload;
}

const Regime kRegimes[] = {Regime::kMixed, Regime::kZeroRows, Regime::kBelowN,
                           Regime::kExactlyN, Regime::kHuge};

TEST(RelayChunkWalk, VisitsExactlyTheNonEmptyChunksOfTheDefinition) {
  for (int n = 1; n <= 40; ++n) {
    for (std::size_t len :
         {std::size_t{0}, std::size_t{1}, static_cast<std::size_t>(n) - 1,
          static_cast<std::size_t>(n), static_cast<std::size_t>(n) + 1,
          static_cast<std::size_t>(3 * n + 2), static_cast<std::size_t>(64 * n + 5),
          static_cast<std::size_t>(977)}) {
      std::vector<std::tuple<int, std::size_t, std::size_t>> want, got;
      std::vector<int> want_extra, got_extra;
      for (int c = 0; c < n; ++c) {
        const std::size_t clen = oracle_chunk_len(len, c, n);
        if (clen != 0) want.emplace_back(c, oracle_chunk_lo(len, c, n), clen);
        if (clen > len / static_cast<std::size_t>(n)) want_extra.push_back(c);
      }
      const RelayChunkWalk walk(len, n);
      walk.for_each_chunk([&](int c, std::size_t lo, std::size_t clen) {
        got.emplace_back(c, lo, clen);
      });
      walk.for_each_extra([&](int c) { got_extra.push_back(c); });
      EXPECT_EQ(got, want) << "n=" << n << " len=" << len;
      EXPECT_EQ(got_extra, want_extra) << "n=" << n << " len=" << len;
      EXPECT_EQ(walk.base(), len / static_cast<std::size_t>(n));
    }
  }
}

TEST(RelayChunkWalk, RelayOfChunkInvertsTheRotation) {
  for (int n = 1; n <= 12; ++n) {
    for (int v = 0; v < n; ++v) {
      for (int p = 0; p < n; ++p) {
        for (int t = 0; t < n; ++t) {
          EXPECT_EQ(relay_of_chunk(v, p, oracle_chunk_index(v, p, t, n), n), t);
        }
      }
    }
  }
}

TEST(RelayCost, ClosedFormMatchesReplayOnRandomLengths) {
  Rng rng(0x5e1a7);
  int cases = 0;
  for (int n = 1; n <= 40; ++n) {
    for (Regime regime : kRegimes) {
      for (int rep = 0; rep < 3; ++rep) {
        const LengthMatrix len = random_lengths(n, regime, rng);
        const int b = 1 + static_cast<int>(rng.uniform(96));
        const ExchangeCost got = blockmm::relay_cost(len, n, b);
        const ExchangeCost want = oracle_loads(len, n).at(b);
        ASSERT_EQ(got.rounds, want.rounds) << "n=" << n << " b=" << b;
        ASSERT_EQ(got.bits, want.bits) << "n=" << n << " b=" << b;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 40 * 5 * 3);
}

class RelayCostBlockMm : public ::testing::TestWithParam<int> {};

// The dense distribution/aggregation matrices every block-MM plan prices,
// under both common-knowledge layouts, at the cube and non-cube sizes the
// benches run.
TEST_P(RelayCostBlockMm, ClosedFormMatchesReplay) {
  const int n = GetParam();
  const blockmm::BlockGrid g(n);
  const blockmm::RowShardLayout row;
  const blockmm::BlockShardLayout block(n);
  for (const blockmm::ShardLayout* layout :
       {static_cast<const blockmm::ShardLayout*>(&row),
        static_cast<const blockmm::ShardLayout*>(&block)}) {
    for (const LengthMatrix& len : {blockmm::distribute_lengths(g, 61, *layout),
                                    blockmm::aggregate_lengths(g, 61, *layout)}) {
      const OracleLoads oracle = oracle_loads(len, n);
      for (int b : {1, 64}) {
        const ExchangeCost got = blockmm::relay_cost(len, n, b);
        const ExchangeCost want = oracle.at(b);
        EXPECT_EQ(got.rounds, want.rounds) << layout->name() << " b=" << b;
        EXPECT_EQ(got.bits, want.bits) << layout->name() << " b=" << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelayCostBlockMm, ::testing::Values(27, 64, 125, 343));

void expect_relay_matches_replay(const LengthMatrix& len, int bandwidth, Rng& rng) {
  const int n = static_cast<int>(len.size());
  const Payloads payload = random_payloads(len, rng);
  CliqueUnicast net(n, bandwidth), oracle_net(n, bandwidth);
  Payloads got, want;
  const int rounds = unicast_payloads_relayed(net, payload, &got);
  const int oracle_rounds = oracle_relayed(oracle_net, payload, &want);
  for (int r = 0; r < n; ++r) {
    for (int v = 0; v < n; ++v) {
      if (v == r) continue;
      ASSERT_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)],
                payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(r)])
          << "payload " << v << " -> " << r << " at n=" << n;
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(rounds, oracle_rounds);
  EXPECT_EQ(net.stats(), oracle_net.stats()) << "n=" << n << " b=" << bandwidth;
  const ExchangeCost cost = blockmm::relay_cost(len, n, bandwidth);
  EXPECT_EQ(net.stats().rounds, cost.rounds);
  EXPECT_EQ(net.stats().total_bits, cost.bits);
}

TEST(RelayedPayloads, FuzzMatchesReplayExecutorAndClosedForm) {
  Rng rng(0xc0ffee);
  for (int n = 1; n <= 40; n += (n < 12 ? 1 : 7)) {
    for (Regime regime : kRegimes) {
      const LengthMatrix len = random_lengths(n, regime, rng);
      const int b = 1 + static_cast<int>(rng.uniform(96));
      SCOPED_TRACE(::testing::Message() << "n=" << n << " regime="
                                        << static_cast<int>(regime) << " b=" << b);
      expect_relay_matches_replay(len, b, rng);
    }
  }
}

// Length shapes the executor's word-level chunk copies must survive: chunks
// over 64 bits (l > 64n), a fully empty row and column, and lengths ending
// exactly on a 64-bit word boundary.
enum class Shape { kWideChunks, kEmptyRowAndColumn, kWordBoundaries };

LengthMatrix shaped_lengths(int n, Shape shape, Rng& rng) {
  const std::size_t nn = static_cast<std::size_t>(n);
  LengthMatrix len(nn, std::vector<std::size_t>(nn, 0));
  const std::size_t empty = static_cast<std::size_t>(rng.uniform(nn));
  for (std::size_t v = 0; v < nn; ++v) {
    for (std::size_t p = 0; p < nn; ++p) {
      if (p == v) continue;
      switch (shape) {
        case Shape::kWideChunks:
          len[v][p] = 64 * nn + 1 + static_cast<std::size_t>(rng.uniform(130 * nn));
          break;
        case Shape::kEmptyRowAndColumn:
          if (v != empty && p != empty) {
            len[v][p] = static_cast<std::size_t>(rng.uniform(70 * nn + 3));
          }
          break;
        case Shape::kWordBoundaries:
          len[v][p] = 64 * (1 + static_cast<std::size_t>(rng.uniform(3 * nn)));
          break;
      }
    }
  }
  return len;
}

TEST(RelayedPayloads, FuzzEdgeShapesMatchReplayExecutor) {
  Rng rng(0xed9e);
  for (int n : {1, 2, 3, 5}) {
    for (int b : {1, 17, 64, 100}) {
      for (Shape shape : {Shape::kWideChunks, Shape::kEmptyRowAndColumn, Shape::kWordBoundaries}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " b=" << b
                                          << " shape=" << static_cast<int>(shape));
        expect_relay_matches_replay(shaped_lengths(n, shape, rng), b, rng);
      }
    }
  }
  // Large enough that every stage clears the serial grain and runs as pool
  // tasks at CC_THREADS > 1.
  for (Shape shape : {Shape::kWideChunks, Shape::kEmptyRowAndColumn, Shape::kWordBoundaries}) {
    SCOPED_TRACE(::testing::Message() << "n=16 shape=" << static_cast<int>(shape));
    const LengthMatrix len = shaped_lengths(16, shape, rng);
    std::uint64_t total = 0;
    for (const auto& row : len) {
      for (std::size_t l : row) total += l;
    }
    ASSERT_GE(total, EngineCore::serial_grain(16));
    expect_relay_matches_replay(len, 64, rng);
  }
}

TEST(RelayedPayloads, BlockMmLengthsMatchReplayExecutor) {
  Rng rng(0xb10c);
  const int n = 27;
  const blockmm::BlockGrid g(n);
  const blockmm::BlockShardLayout block(n);
  expect_relay_matches_replay(blockmm::distribute_lengths(g, 61), 64, rng);
  expect_relay_matches_replay(blockmm::aggregate_lengths(g, 61, block), 64, rng);
}

}  // namespace
}  // namespace cclique
