// Tests for the routing substrate — correctness of all three routers and
// the balanced-demand round bounds the Theorem 2 simulation relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <vector>

#include "routing/router.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace cclique {
namespace {

// Sorts delivered (source, payload) pairs for comparison.
using Delivered = std::vector<std::vector<std::pair<int, std::uint64_t>>>;

std::multiset<std::tuple<int, int, std::uint64_t>> flatten(const RoutingDemand& d) {
  std::multiset<std::tuple<int, int, std::uint64_t>> out;
  for (const auto& m : d.messages) out.insert({m.dest, m.source, m.payload});
  return out;
}

std::multiset<std::tuple<int, int, std::uint64_t>> flatten(const Delivered& del) {
  std::multiset<std::tuple<int, int, std::uint64_t>> out;
  for (std::size_t v = 0; v < del.size(); ++v) {
    for (const auto& [src, payload] : del[v]) {
      out.insert({static_cast<int>(v), src, payload});
    }
  }
  return out;
}

RoutingDemand random_balanced_demand(int n, int per_player, int width, Rng& rng) {
  RoutingDemand d;
  d.payload_bits = width;
  // Per-player out quota exactly per_player; destinations drawn from a
  // random permutation-of-slots construction keeping in-load balanced too.
  std::vector<int> dest_slots;
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < per_player; ++k) dest_slots.push_back(v);
  }
  rng.shuffle(dest_slots);
  std::size_t cursor = 0;
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < per_player; ++k) {
      d.messages.push_back(RoutedMessage{
          v, dest_slots[cursor++],
          rng.uniform(width >= 64 ? ~0ULL : (1ULL << width))});
    }
  }
  return d;
}

TEST(Routing, DemandLoadHelpers) {
  RoutingDemand d;
  d.payload_bits = 4;
  d.messages = {{0, 1, 5}, {0, 2, 6}, {1, 2, 7}};
  EXPECT_EQ(d.max_out(3), 2u);
  EXPECT_EQ(d.max_in(3), 2u);
}

TEST(Routing, DirectDeliversEverything) {
  Rng rng(1);
  CliqueUnicast net(6, 8);
  RoutingDemand d = random_balanced_demand(6, 4, 8, rng);
  RoutingResult r = route_direct(net, d);
  EXPECT_EQ(flatten(r.delivered), flatten(d));
}

TEST(Routing, TwoPhaseDeliversEverything) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    CliqueUnicast net(8, 16);
    RoutingDemand d = random_balanced_demand(8, 6, 10, rng);
    RoutingResult r = route_two_phase(net, d);
    EXPECT_EQ(flatten(r.delivered), flatten(d));
  }
}

TEST(Routing, ValiantDeliversEverything) {
  Rng rng(3);
  CliqueUnicast net(8, 16);
  RoutingDemand d = random_balanced_demand(8, 6, 10, rng);
  RoutingResult r = route_valiant(net, d, rng);
  EXPECT_EQ(flatten(r.delivered), flatten(d));
}

TEST(Routing, EmptyDemand) {
  CliqueUnicast net(4, 8);
  RoutingDemand d;
  d.payload_bits = 4;
  RoutingResult r = route_two_phase(net, d);
  EXPECT_EQ(r.rounds, 0);
  for (const auto& v : r.delivered) EXPECT_TRUE(v.empty());
}

TEST(Routing, SelfMessagesDeliveredLocally) {
  CliqueUnicast net(3, 8);
  RoutingDemand d;
  d.payload_bits = 5;
  d.messages = {{1, 1, 17}, {2, 0, 9}};
  RoutingResult r = route_direct(net, d);
  ASSERT_EQ(r.delivered[1].size(), 1u);
  EXPECT_EQ(r.delivered[1][0].second, 17u);
}

TEST(Routing, PayloadWidthValidated) {
  CliqueUnicast net(3, 8);
  RoutingDemand d;
  d.payload_bits = 3;
  d.messages = {{0, 1, 9}};  // 9 needs 4 bits
  EXPECT_THROW(route_direct(net, d), PreconditionError);
}

// Every router validates endpoints before it indexes by them: an
// out-of-range source or destination is a PreconditionError, not an
// out-of-bounds write.
TEST(Routing, EndpointsOutOfRangeRejected) {
  const int n = 4;
  RoutingDemand bad_source;
  bad_source.payload_bits = 4;
  bad_source.messages = {{0, 1, 3}, {n, 1, 3}};
  RoutingDemand bad_dest;
  bad_dest.payload_bits = 4;
  bad_dest.messages = {{0, 1, 3}, {2, -1, 3}};
  for (const RoutingDemand* d : {&bad_source, &bad_dest}) {
    CliqueUnicast net(n, 8);
    Rng rng(12);
    EXPECT_THROW(route_direct(net, *d), PreconditionError);
    EXPECT_THROW(route_two_phase(net, *d), PreconditionError);
    EXPECT_THROW(route_valiant(net, *d, rng), PreconditionError);
    EXPECT_THROW(two_phase_schedule(n, *d), PreconditionError);
    EXPECT_THROW(d->max_out(n), PreconditionError);
    EXPECT_THROW(d->max_in(n), PreconditionError);
    EXPECT_EQ(net.stats().rounds, 0) << "a rejected demand must not run";
  }
}

// The schedule as first written: nested per-row load tables, a comparison
// sort of the message indices by (dest, source, index), and a scan keeping
// the relay of least (max, sum) load, lowest id on ties. Kept as the oracle
// for two_phase_schedule.
std::vector<int> two_phase_schedule_oracle(int n, const RoutingDemand& demand) {
  const std::size_t nn = static_cast<std::size_t>(n);
  std::vector<std::vector<std::uint32_t>> load_out(nn, std::vector<std::uint32_t>(nn, 0));
  std::vector<std::vector<std::uint32_t>> load_in(nn, std::vector<std::uint32_t>(nn, 0));
  std::vector<std::size_t> order(demand.messages.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& ma = demand.messages[a];
    const auto& mb = demand.messages[b];
    if (ma.dest != mb.dest) return ma.dest < mb.dest;
    if (ma.source != mb.source) return ma.source < mb.source;
    return a < b;
  });
  std::vector<int> relay_of(demand.messages.size(), 0);
  for (std::size_t k : order) {
    const auto& m = demand.messages[k];
    const std::size_t s = static_cast<std::size_t>(m.source);
    const std::size_t d = static_cast<std::size_t>(m.dest);
    int best = -1;
    std::uint32_t best_max = 0, best_sum = 0;
    for (int r = 0; r < n; ++r) {
      const std::uint32_t lo = load_out[s][static_cast<std::size_t>(r)];
      const std::uint32_t li = load_in[static_cast<std::size_t>(r)][d];
      const std::uint32_t mx = std::max(lo, li);
      const std::uint32_t sum = lo + li;
      if (best < 0 || mx < best_max || (mx == best_max && sum < best_sum)) {
        best = r;
        best_max = mx;
        best_sum = sum;
      }
    }
    relay_of[k] = best;
    ++load_out[s][static_cast<std::size_t>(best)];
    ++load_in[static_cast<std::size_t>(best)][d];
  }
  return relay_of;
}

// Seeded demands of every shape the routers meet, for one clique size.
std::vector<RoutingDemand> schedule_demands(int n, Rng& rng) {
  std::vector<RoutingDemand> out;
  auto draw = [&](int bound) { return static_cast<int>(rng.uniform(static_cast<std::uint64_t>(bound))); };
  RoutingDemand empty;
  empty.payload_bits = 8;
  out.push_back(empty);
  RoutingDemand uniform;
  uniform.payload_bits = 8;
  const int per_player = 1 + draw(3 * n);
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < per_player; ++k) {
      uniform.messages.push_back(RoutedMessage{v, draw(n), rng.uniform(256)});
    }
  }
  out.push_back(uniform);
  out.push_back(random_balanced_demand(n, 1 + draw(2 * n), 8, rng));
  // Hot pair: one (source, dest) pair carries c·n messages, over a light
  // uniform background.
  RoutingDemand hot = uniform;
  const int hs = draw(n), hd = draw(n);
  for (int k = 0; k < 2 * n + 1; ++k) hot.messages.push_back(RoutedMessage{hs, hd, 7});
  rng.shuffle(hot.messages);
  out.push_back(hot);
  // All to one: every player sends to one destination.
  RoutingDemand to_one;
  to_one.payload_bits = 8;
  const int sink = draw(n);
  for (int v = 0; v < n; ++v) {
    const int count = 1 + draw(4);
    for (int k = 0; k < count; ++k) to_one.messages.push_back(RoutedMessage{v, sink, 1});
  }
  out.push_back(to_one);
  // Self messages mixed with ordinary ones, and exact duplicates.
  RoutingDemand mixed;
  mixed.payload_bits = 8;
  for (int k = 0; k < 4 * n; ++k) {
    const int v = draw(n);
    mixed.messages.push_back(RoutedMessage{v, k % 3 == 0 ? v : draw(n), rng.uniform(4)});
    if (k % 5 == 0) mixed.messages.push_back(mixed.messages.back());
  }
  out.push_back(mixed);
  return out;
}

TEST(Routing, TwoPhaseScheduleMatchesOracle) {
  Rng rng(13);
  for (int n = 1; n <= 64; ++n) {
    for (const RoutingDemand& d : schedule_demands(n, rng)) {
      ASSERT_EQ(two_phase_schedule(n, d), two_phase_schedule_oracle(n, d))
          << "n=" << n << " messages=" << d.messages.size();
    }
  }
}

// More than 2^15 messages, so loads and bucket offsets pass 16 bits.
TEST(Routing, TwoPhaseScheduleMatchesOracleOnLargeDemand) {
  Rng rng(14);
  const int n = 24;
  RoutingDemand d;
  d.payload_bits = 8;
  for (int k = 0; k < (1 << 15) + 1000; ++k) {
    const int s = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    // A third of the traffic lands on player 0, so some edge loads grow large.
    const int t = k % 3 == 0 ? 0 : static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    d.messages.push_back(RoutedMessage{s, t, rng.uniform(256)});
  }
  ASSERT_GT(d.messages.size(), std::size_t{1} << 15);
  EXPECT_EQ(two_phase_schedule(n, d), two_phase_schedule_oracle(n, d));
  CliqueUnicast net(n, 32);
  EXPECT_EQ(flatten(route_two_phase(net, d).delivered), flatten(d));
}

// The headline property: hot-pair demands (all of one player's messages to
// a single destination) sink the direct router but stay O(c) for the
// two-phase router.
TEST(Routing, TwoPhaseSpreadsHotPairs) {
  const int n = 16;
  RoutingDemand d;
  d.payload_bits = 8;
  // Player 0 sends n messages, all to player 1 (in-load of 1 is n = c*n
  // with c=1; out-load of 0 is n).
  for (int k = 0; k < n; ++k) {
    d.messages.push_back(RoutedMessage{0, 1, static_cast<std::uint64_t>(k)});
  }
  CliqueUnicast direct_net(n, 16);
  const int direct_rounds = route_direct(direct_net, d).rounds;
  CliqueUnicast relay_net(n, 16);
  const int relay_rounds = route_two_phase(relay_net, d).rounds;
  EXPECT_GE(direct_rounds, n / 2) << "direct routing must serialize the hot pair";
  EXPECT_LE(relay_rounds, 6) << "two-phase routing must spread the hot pair";
}

// Deterministic O(c) bound: for c-balanced demands the two-phase router's
// rounds must not grow with n (at fixed record width / bandwidth ratio).
TEST(Routing, TwoPhaseRoundsScaleWithLoadNotSize) {
  Rng rng(5);
  std::map<int, int> rounds_by_n;
  for (int n : {8, 16, 32}) {
    CliqueUnicast net(n, 32);
    RoutingDemand d = random_balanced_demand(n, 2 * n, 8, rng);  // c = 2
    rounds_by_n[n] = route_two_phase(net, d).rounds;
  }
  // Allow slack of 2 rounds for addressing-width growth.
  EXPECT_LE(rounds_by_n[32], rounds_by_n[8] + 2)
      << "two-phase rounds should be O(c), not O(n)";
}

TEST(Routing, TwoPhaseRoundsGrowLinearlyInC) {
  Rng rng(6);
  const int n = 12;
  std::vector<int> rounds;
  for (int c : {1, 2, 4}) {
    CliqueUnicast net(n, 32);
    RoutingDemand d = random_balanced_demand(n, c * n, 8, rng);
    rounds.push_back(route_two_phase(net, d).rounds);
  }
  EXPECT_LT(rounds[2], 8 * rounds[0] + 8) << "rounds should track c roughly linearly";
  EXPECT_GT(rounds[2], rounds[0]) << "more load must cost more rounds";
}

// DESIGN.md §4a, asserted directly from the per-player accounting: both
// relay phases have per-edge load <= ceil(M/n) + 1 records when every
// player sends and receives <= M messages. Summed over a player's n links
// and the two phases, that caps every player's sent (and received) bits at
// 2 * n * (ceil(M/n) + 1) * record_bits — a certificate the aggregate
// max_edge_bits_in_round cannot give.
TEST(Routing, TwoPhasePerPlayerLoadCertificate) {
  Rng rng(11);
  const int n = 16;
  const int c = 3;  // per-player demand M = c * n
  const int width = 8;
  CliqueUnicast net(n, 32);
  RoutingDemand d = random_balanced_demand(n, c * n, width, rng);
  const std::size_t M = static_cast<std::size_t>(c) * static_cast<std::size_t>(n);
  ASSERT_EQ(d.max_out(n), M);
  ASSERT_EQ(d.max_in(n), M);
  route_two_phase(net, d);

  const std::uint64_t record_bits =
      static_cast<std::uint64_t>(bits_for(static_cast<std::uint64_t>(n)) + width);
  const std::uint64_t edge_cap_records = M / static_cast<std::size_t>(n) + 1;  // ceil(M/n) + 1
  const std::uint64_t player_cap_bits =
      2 * static_cast<std::uint64_t>(n) * edge_cap_records * record_bits;
  const CommStats& s = net.stats();
  ASSERT_EQ(s.per_player_sent_bits.size(), static_cast<std::size_t>(n));
  std::uint64_t sent_sum = 0, recv_sum = 0;
  for (int i = 0; i < n; ++i) {
    EXPECT_LE(s.per_player_sent_bits[static_cast<std::size_t>(i)], player_cap_bits)
        << "player " << i << " overloaded on send";
    EXPECT_LE(s.per_player_recv_bits[static_cast<std::size_t>(i)], player_cap_bits)
        << "player " << i << " overloaded on receive";
    sent_sum += s.per_player_sent_bits[static_cast<std::size_t>(i)];
    recv_sum += s.per_player_recv_bits[static_cast<std::size_t>(i)];
  }
  // Unicast delivers every sent bit to exactly one receiver.
  EXPECT_EQ(sent_sum, s.total_bits);
  EXPECT_EQ(recv_sum, s.total_bits);
}

TEST(Routing, ValiantNearBalanced) {
  Rng rng(7);
  const int n = 16;
  CliqueUnicast net(n, 32);
  RoutingDemand d = random_balanced_demand(n, n, 8, rng);  // c = 1
  RoutingResult r = route_valiant(net, d, rng);
  EXPECT_LE(r.rounds, 16) << "valiant should stay near O(c + log n / log log n)";
}

TEST(Routing, DeterministicScheduleIsReproducible) {
  Rng rng(8);
  RoutingDemand d = random_balanced_demand(8, 8, 8, rng);
  CliqueUnicast net1(8, 16), net2(8, 16);
  RoutingResult r1 = route_two_phase(net1, d);
  RoutingResult r2 = route_two_phase(net2, d);
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(flatten(r1.delivered), flatten(r2.delivered));
  EXPECT_EQ(net1.stats().total_bits, net2.stats().total_bits);
}

TEST(Routing, DuplicatePayloadsSurvive) {
  // Identical (source, dest, payload) triples must all arrive (multiset
  // semantics) — the circuit simulator relies on counts.
  CliqueUnicast net(4, 16);
  RoutingDemand d;
  d.payload_bits = 4;
  d.messages = {{0, 2, 7}, {0, 2, 7}, {0, 2, 7}};
  RoutingResult r = route_two_phase(net, d);
  EXPECT_EQ(r.delivered[2].size(), 3u);
}

TEST(Routing, BandwidthOneStillCorrect) {
  Rng rng(9);
  CliqueUnicast net(5, 1);
  RoutingDemand d = random_balanced_demand(5, 3, 4, rng);
  RoutingResult r = route_two_phase(net, d);
  EXPECT_EQ(flatten(r.delivered), flatten(d));
  EXPECT_GT(r.rounds, 4) << "b=1 must chunk multi-bit records over rounds";
}

}  // namespace
}  // namespace cclique
