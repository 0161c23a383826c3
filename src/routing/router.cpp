#include "routing/router.h"

#include <algorithm>
#include <limits>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"
#include "util/math_util.h"

namespace cclique {

namespace {

void check_endpoints(const RoutingDemand& d, int n) {
  for (const auto& m : d.messages) {
    CC_REQUIRE(m.source >= 0 && m.source < n && m.dest >= 0 && m.dest < n,
               "message endpoints out of range");
  }
}

std::vector<std::size_t> out_counts(const RoutingDemand& d, int n) {
  check_endpoints(d, n);
  std::vector<std::size_t> c(static_cast<std::size_t>(n), 0);
  for (const auto& m : d.messages) ++c[static_cast<std::size_t>(m.source)];
  return c;
}

std::vector<std::size_t> in_counts(const RoutingDemand& d, int n) {
  check_endpoints(d, n);
  std::vector<std::size_t> c(static_cast<std::size_t>(n), 0);
  for (const auto& m : d.messages) ++c[static_cast<std::size_t>(m.dest)];
  return c;
}

// The shared demand check, run before any router indexes by an endpoint:
// every endpoint is a player of the n-clique and every payload fits the
// declared width.
void check_demand(const RoutingDemand& d, int n) {
  CC_REQUIRE(d.payload_bits >= 0 && d.payload_bits <= 64,
             "payload width must be in [0, 64]");
  check_endpoints(d, n);
  for (const auto& m : d.messages) {
    CC_REQUIRE(d.payload_bits == 64 || (m.payload >> d.payload_bits) == 0,
               "payload does not fit declared width");
  }
}

// Runs the relay plan: phase 1 ships [dest, payload] records to relays,
// phase 2 ships [source, payload] records to destinations. `relay_of[k]`
// gives message k's relay. Shared by the deterministic and randomized
// routers. The record counts per (source, relay) and (relay, dest) link
// follow from `relay_of` before packing, so the streams, the relays' hold
// lists and the delivery lists are sized once and the record loops below
// never reallocate.
RoutingResult run_relay_plan(CliqueUnicast& net, const RoutingDemand& demand,
                             const std::vector<int>& relay_of) {
  const int n = net.n();
  const std::size_t nn = static_cast<std::size_t>(n);
  const int addr = bits_for(static_cast<std::uint64_t>(n));
  const int w = demand.payload_bits;
  const std::size_t record_bits = static_cast<std::size_t>(addr + w);
  auto at = [nn](int a, int b) {
    return static_cast<std::size_t>(a) * nn + static_cast<std::size_t>(b);
  };

  std::vector<std::size_t> hop1(nn * nn, 0), hop2(nn * nn, 0);
  std::vector<std::size_t> held_count(nn, 0), in_count(nn, 0);
  for (std::size_t k = 0; k < demand.messages.size(); ++k) {
    const auto& m = demand.messages[k];
    const int r = relay_of[k];
    ++held_count[static_cast<std::size_t>(r)];
    ++in_count[static_cast<std::size_t>(m.dest)];
    if (r != m.source) ++hop1[at(m.source, r)];
    if (r != m.dest) ++hop2[at(r, m.dest)];
  }
  auto sized_streams = [&](const std::vector<std::size_t>& records) {
    std::vector<std::vector<Message>> p(nn, std::vector<Message>(nn));
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        const std::size_t c = records[at(a, b)];
        if (c != 0) p[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)].reserve_bits(c * record_bits);
      }
    }
    return p;
  };

  // Phase 1: source -> relay, record = [dest | payload]. Self-relay records
  // (relay == source) skip the wire.
  std::vector<std::vector<Message>> p1 = sized_streams(hop1);
  locality::PerPlayer<std::vector<RoutedMessage>> held(
      n, CC_LOCALITY_SITE("relay's held records"));
  for (int r = 0; r < n; ++r) held[r].reserve(held_count[static_cast<std::size_t>(r)]);
  for (std::size_t k = 0; k < demand.messages.size(); ++k) {
    const auto& m = demand.messages[k];
    const int r = relay_of[k];
    if (r == m.source) {
      held[r].push_back(m);
      continue;
    }
    Message& stream = p1[static_cast<std::size_t>(m.source)][static_cast<std::size_t>(r)];
    stream.push_uint(static_cast<std::uint64_t>(m.dest), addr);
    stream.push_uint(m.payload, w);
  }
  std::vector<std::vector<Message>> recv1;
  int rounds = unicast_payloads(net, p1, &recv1);

  for (int r = 0; r < n; ++r) {
    for (int src = 0; src < n; ++src) {
      const Message& stream = recv1[static_cast<std::size_t>(r)][static_cast<std::size_t>(src)];
      BitReader reader(stream);
      while (reader.remaining() > 0) {
        RoutedMessage m;
        m.source = src;
        m.dest = static_cast<int>(reader.read_uint(addr));
        m.payload = reader.read_uint(w);
        held[r].push_back(m);
      }
    }
  }

  // Phase 2: relay -> dest, record = [source | payload].
  std::vector<std::vector<Message>> p2 = sized_streams(hop2);
  RoutingResult result;
  result.delivered.resize(nn);
  for (std::size_t j = 0; j < nn; ++j) result.delivered[j].reserve(in_count[j]);
  for (int r = 0; r < n; ++r) {
    for (const auto& m : held[r]) {
      if (m.dest == r) {
        result.delivered[static_cast<std::size_t>(r)].emplace_back(m.source, m.payload);
        continue;
      }
      Message& stream = p2[static_cast<std::size_t>(r)][static_cast<std::size_t>(m.dest)];
      stream.push_uint(static_cast<std::uint64_t>(m.source), addr);
      stream.push_uint(m.payload, w);
    }
  }
  std::vector<std::vector<Message>> recv2;
  rounds += unicast_payloads(net, p2, &recv2);

  for (int j = 0; j < n; ++j) {
    for (int r = 0; r < n; ++r) {
      const Message& stream = recv2[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)];
      BitReader reader(stream);
      while (reader.remaining() > 0) {
        const int src = static_cast<int>(reader.read_uint(addr));
        const std::uint64_t payload = reader.read_uint(w);
        result.delivered[static_cast<std::size_t>(j)].emplace_back(src, payload);
      }
    }
  }
  result.rounds = rounds;
  return result;
}

// (max, sum) of two loads orders as (max, min), and max·2^32 + min is an
// exact integer key for every pair of 32-bit loads.
std::uint64_t load_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(std::max(a, b)) << 32) | std::min(a, b);
}

// One side of the two-phase schedule's edge loads: an n x n table of 32-bit
// record counts and, per row, a bit mask of the entries at the row's
// minimum. A row's minimum rises only after all n entries passed it, so
// keeping the masks costs O(1) amortised per add.
class LoadTable {
 public:
  explicit LoadTable(std::size_t n) : n_(n), words_((n + 63) / 64), load_(n * n, 0), min_mask_(n * words_, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) min_mask_[i * words_ + j / 64] |= 1ULL << (j % 64);
    }
  }

  std::size_t words() const { return words_; }
  const std::uint32_t* row(std::size_t i) const { return &load_[i * n_]; }
  const std::uint64_t* min_mask(std::size_t i) const { return &min_mask_[i * words_]; }

  void add(std::size_t i, std::size_t j) {
    std::uint32_t* r = &load_[i * n_];
    std::uint64_t* mask = &min_mask_[i * words_];
    const std::uint32_t level = ++r[j];
    const std::uint64_t bit = 1ULL << (j % 64);
    if ((mask[j / 64] & bit) == 0) return;
    mask[j / 64] &= ~bit;
    if (std::any_of(mask, mask + words_, [](std::uint64_t w) { return w != 0; })) return;
    // Every entry left the old minimum, so the new one is level, one above.
    for (std::size_t k = 0; k < n_; ++k) {
      if (r[k] == level) mask[k / 64] |= 1ULL << (k % 64);
    }
  }

 private:
  std::size_t n_;
  std::size_t words_;
  std::vector<std::uint32_t> load_;
  std::vector<std::uint64_t> min_mask_;
};

}  // namespace

std::size_t RoutingDemand::max_out(int n) const {
  auto c = out_counts(*this, n);
  return c.empty() ? 0 : *std::max_element(c.begin(), c.end());
}

std::size_t RoutingDemand::max_in(int n) const {
  auto c = in_counts(*this, n);
  return c.empty() ? 0 : *std::max_element(c.begin(), c.end());
}

RoutingResult route_direct(CliqueUnicast& net, const RoutingDemand& demand) {
  const int n = net.n();
  check_demand(demand, n);
  const int w = demand.payload_bits;
  std::vector<std::vector<Message>> p(
      static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  RoutingResult result;
  result.delivered.assign(static_cast<std::size_t>(n), {});
  for (const auto& m : demand.messages) {
    if (m.dest == m.source) {
      result.delivered[static_cast<std::size_t>(m.dest)].emplace_back(m.source, m.payload);
      continue;
    }
    p[static_cast<std::size_t>(m.source)][static_cast<std::size_t>(m.dest)].push_uint(m.payload, w);
  }
  std::vector<std::vector<Message>> recv;
  result.rounds = unicast_payloads(net, p, &recv);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const Message& stream = recv[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
      BitReader reader(stream);
      while (reader.remaining() > 0) {
        result.delivered[static_cast<std::size_t>(j)].emplace_back(i, reader.read_uint(w));
      }
    }
  }
  return result;
}

std::vector<int> two_phase_schedule(int n, const RoutingDemand& demand) {
  CC_REQUIRE(n >= 1, "need at least one player");
  check_endpoints(demand, n);
  const std::size_t count = demand.messages.size();
  CC_REQUIRE(count <= std::numeric_limits<std::uint32_t>::max(),
             "the schedule indexes messages and counts loads in 32 bits");
  // Schedule-computation sink: the relay assignment may read the demand
  // *pattern* (sources, destinations — common knowledge) but never the
  // message payloads. run_relay_plan is the executor and is exempt.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("two_phase_schedule relay choice"));
  const std::size_t nn = static_cast<std::size_t>(n);
  auto bucket = [nn](const RoutedMessage& m) {
    return static_cast<std::size_t>(m.dest) * nn + static_cast<std::size_t>(m.source);
  };

  // Processing order (dest, source, index): a counting sort over the n^2
  // (dest, source) buckets, stable in the message index.
  std::vector<std::uint32_t> next(nn * nn + 1, 0);
  for (const auto& m : demand.messages) ++next[bucket(m) + 1];
  for (std::size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  std::vector<std::uint32_t> order(count);
  for (std::size_t k = 0; k < count; ++k) {
    order[next[bucket(demand.messages[k])]++] = static_cast<std::uint32_t>(k);
  }

  // Edge loads in records: out.row(source)[relay], and the in-loads
  // transposed, in.row(dest)[relay], so one message's scan reads two
  // contiguous rows. A load never exceeds count, so 32 bits hold it.
  LoadTable out(nn), in(nn);
  std::vector<int> relay_of(count, 0);
  for (const std::uint32_t k : order) {
    const RoutedMessage& m = demand.messages[k];
    const std::size_t s = static_cast<std::size_t>(m.source);
    const std::size_t d = static_cast<std::size_t>(m.dest);
    // The relay minimising (max, sum) of its two loads, lowest id on ties.
    // No relay's key is below the one built from the two row minima, and a
    // relay reaches it exactly when it sits at both minima, so the lowest
    // set bit of the two masks' intersection is the answer when there is
    // one. Otherwise a full scan keeps the running minimum branch-free:
    // which relay wins is data, and a branch on it mispredicts.
    int best = -1;
    const std::uint64_t* at_out_min = out.min_mask(s);
    const std::uint64_t* at_in_min = in.min_mask(d);
    for (std::size_t w = 0; w < out.words(); ++w) {
      const std::uint64_t both = at_out_min[w] & at_in_min[w];
      if (both != 0) {
        best = static_cast<int>(w * 64) + __builtin_ctzll(both);
        break;
      }
    }
    if (best < 0) {
      const std::uint32_t* lo = out.row(s);
      const std::uint32_t* li = in.row(d);
      std::uint64_t best_key = std::numeric_limits<std::uint64_t>::max();
      for (int r = 0; r < n; ++r) {
        const std::uint64_t key = load_key(lo[r], li[r]);
        const bool better = key < best_key;
        best = better ? r : best;
        best_key = better ? key : best_key;
      }
    }
    relay_of[k] = best;
    out.add(s, static_cast<std::size_t>(best));
    in.add(d, static_cast<std::size_t>(best));
  }
  return relay_of;
}

RoutingResult route_two_phase(CliqueUnicast& net, const RoutingDemand& demand) {
  check_demand(demand, net.n());
  return run_relay_plan(net, demand, two_phase_schedule(net.n(), demand));
}

RoutingResult route_valiant(CliqueUnicast& net, const RoutingDemand& demand, Rng& rng) {
  const int n = net.n();
  check_demand(demand, n);
  std::vector<int> relay_of(demand.messages.size());
  {
    // Randomized schedules are still oblivious: the draws depend on the rng
    // stream and n, never on payloads, so Rng is deliberately not a taint
    // source and this sink stays quiet.
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("route_valiant relay draws"));
    for (auto& r : relay_of) r = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
  }
  return run_relay_plan(net, demand, relay_of);
}

}  // namespace cclique
