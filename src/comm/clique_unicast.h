// CLIQUE-UCAST(n, b): the unicast congested clique.
//
// n players over a complete network; in each round every ordered pair (i, j)
// may carry a message of at most b bits from i to j — players may send
// *different* messages on different links (Θ(n^2 b) bits/round total
// capacity). This is the model of Sections 1–2 of the paper.
//
// Built on the shared metered transport core (comm/engine.h): send callbacks
// may run concurrently (CC_THREADS) with bit-identical accounting, and the
// arena-backed round_fill path performs O(1) heap allocations per round.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "comm/engine.h"
#include "comm/model.h"
#include "util/check.h"

namespace cclique {

/// One stream of a fixed-length exchange: bits [pos, pos + len) of *buf.
/// After the exchange commits it is also the receiver's read-only view of
/// the stream, zero-copy in the sender's buffer.
struct StreamView {
  const Message* buf = nullptr;
  std::size_t pos = 0;
  std::size_t len = 0;
};

/// Round-synchronous engine for the unicast congested clique.
///
/// Determinism: all accounting (stats()) is bit-identical at any
/// CC_THREADS value — see the contract in comm/engine.h / DESIGN.md §2.1.
/// Cost model: one round() / round_fill() call = exactly one round and at
/// most n(n-1)·b network bits; every bit is charged to stats(), never
/// estimated.
class CliqueUnicast {
 public:
  /// Preconditions: n >= 1 players, per-edge per-round bandwidth
  /// `bandwidth` >= 1 bits (CC_REQUIRE).
  CliqueUnicast(int n, int bandwidth);

  int n() const { return core_.n(); }
  int bandwidth() const { return core_.bandwidth(); }

  /// Sender callback: given a player id, return its outbox — a vector of n
  /// messages where slot j is the message for player j (empty = nothing).
  /// Slot `player` (self) must be empty. Each message must fit in
  /// bandwidth() bits or the engine throws ModelViolation.
  using SendFn = std::function<std::vector<Message>(int player)>;

  /// Receiver callback: inbox[j] is the message player j sent this round.
  /// The inbox (and any borrowed messages in it) is valid only for the
  /// duration of the callback — copy what must outlive it.
  using RecvFn = std::function<void(int player, const std::vector<Message>& inbox)>;

  /// Executes one synchronous round: all outboxes are collected and
  /// validated against pre-round state, then delivered. Cost: 1 round,
  /// sum-of-message-sizes bits. Send callbacks may run concurrently
  /// (locality discipline: read only the player's own pre-round state);
  /// receive callbacks run serially in player order. A message over
  /// bandwidth() bits, a non-empty self-slot, or a wrong-size outbox
  /// throws ModelViolation and the round charges nothing.
  void round(const SendFn& send, const RecvFn& recv);

  /// Outbox-filling callback for the arena-backed fast path: `outbox` points
  /// at n engine-owned messages (initially empty, capacity bandwidth()
  /// bits); append to outbox[j] to address player j. Writing past the
  /// capacity throws ModelViolation immediately.
  using FillFn = std::function<void(int player, Message* outbox)>;

  /// Executes one round without per-round heap allocation: outboxes live in
  /// the engine's arena and inboxes alias them (zero-copy delivery).
  /// Semantics, cost, and accounting are identical to round(); borrowed
  /// messages are valid only until the next round begins (DESIGN.md §2.1,
  /// arena lifetime rule).
  void round_fill(const FillFn& fill, const RecvFn& recv);

  /// Executes a fixed-length stream exchange, the unit the payload drivers
  /// and both relay hops run on. streams[i·n + j] is the stream i -> j; its
  /// length is known before round 0, so the exchange takes
  /// ceil(max len / b) rounds, round k carrying bits [k·b, (k+1)·b) of each
  /// stream. Every (round, edge) piece of min(b, len − k·b) bits is charged
  /// through charge_message and each round commits in player order, so
  /// stats() end exactly as if each round's pieces had gone through
  /// round_fill. Nothing is delivered before the last round commits; then
  /// receiver r reads stream (j -> r) through the view streams[j·n + r], in
  /// sender j's buffer (DESIGN.md §2.1, lifetime rule: a view is valid while
  /// that buffer lives unmodified). A non-empty self-stream throws
  /// ModelViolation before round 0 and commits nothing. Returns the rounds
  /// used. Preconditions: n² streams, each inside its buffer (CC_REQUIRE).
  int exchange_streams(const std::vector<StreamView>& streams);

  /// Runs one local computation step, fn(player) for every player under
  /// that player's locality scope: one pool task per player, or inline in
  /// player order when `work_bits` is below EngineCore::serial_grain(n).
  /// Charges nothing. Every player runs; the lowest player's exception is
  /// rethrown.
  void run_local(std::uint64_t work_bits, const std::function<void(int)>& fn);

  /// Registers a 2-party partition (side[i] in {0,1}) so stats().cut_bits
  /// accumulates the bits crossing it — the quantity 2-party reductions pay.
  void set_cut(std::vector<int> side) { core_.set_cut(std::move(side)); }

  const CommStats& stats() const { return core_.stats(); }

  /// Resets accounting (not the cut registration).
  void reset_stats() { core_.reset_stats(); }

 private:
  void ensure_slots();
  void deliver(std::vector<std::vector<Message>>& out, const RecvFn& recv);

  EngineCore core_;
  /// round_fill outbox matrix: slot i*n+j is the message i -> j, borrowed
  /// from the arena (allocated once — the engine's geometry is fixed).
  std::vector<Message> slots_;
  /// Legacy-path outbox collection and the reused delivery inbox.
  std::vector<std::vector<Message>> legacy_out_;
  std::vector<Message> inbox_;
};

/// Delivers arbitrarily long per-edge payloads as one stream exchange
/// (CliqueUnicast::exchange_streams: ceil(L/b) rounds, all edges in
/// parallel). payload[i][j] is what player i wants player j to end up
/// holding; on return, received[j][i] holds an owned copy of it. Returns the
/// number of rounds used.
///
/// Preconditions: payload is an n x n matrix (CC_REQUIRE); diagonal
/// entries are ignored only if empty (a non-empty self-payload trips the
/// engine's self-message rule). Cost: exactly ceil(max payload bits / b)
/// rounds and sum-of-payload-bits network bits. Deterministic: the chunk
/// schedule is a pure function of the payload lengths.
int unicast_payloads(CliqueUnicast& net,
                     const std::vector<std::vector<Message>>& payload,
                     std::vector<std::vector<Message>>* received);

/// Rounds and network bits of one metered exchange.
struct ExchangeCost {
  int rounds = 0;
  std::uint64_t bits = 0;
};

/// All-gather: every player v sends the same k fields of `width` bits,
/// value(v, 0), ..., value(v, k-1), to every other player, so all the values
/// become common knowledge. One unicast_payloads exchange of a k·width-bit
/// message per ordered pair; player 0's inbox is CC_CHECKed against `value`
/// (a cheap representative of the clique-wide agreement). Returns the rounds
/// used, all_gather_cost(n, k·width, b).rounds. Preconditions: k >= 0,
/// width in [1, 64], value(v, f) < 2^width.
int all_gather(CliqueUnicast& net, int k, int width,
               const std::function<std::uint64_t(int v, int f)>& value);

/// Cost of an all-gather of `bits`-bit messages among n players at per-edge
/// bandwidth b: ceil(bits / b) rounds and n(n-1)·bits network bits (nothing
/// moves on a 1-clique).
ExchangeCost all_gather_cost(int n, std::size_t bits, int bandwidth);

/// The relay's chunk map: the n-way balanced split of a len-bit payload that
/// the relayed delivery below ships, one chunk per relay. Chunk c covers bits
/// [⌊len·c/n⌋, ⌊len·(c+1)/n⌋), so with q = ⌊len/n⌋ and r = len mod n it is q
/// bits long, plus one extra bit exactly at c_k = ⌈k·n/r⌉ − 1 for k = 1..r
/// (DESIGN.md §2.2). Both walks below step Bresenham-style, with no division
/// per chunk. This one walk is the whole relay schedule: the executor
/// (unicast_payloads_relayed) cuts and splices streams with it, and the cost
/// side (relay_link_loads, core/block_mm.h relay_cost) prices the same
/// chunks in closed form, so the two cannot drift apart. Where the executor
/// needs one chunk, not all n, it locates ⌊len·c/n⌋ directly, and its fill
/// check holds that to the same loads.
class RelayChunkWalk {
 public:
  /// Preconditions: n >= 1.
  RelayChunkWalk(std::size_t len, int n)
      : n_(static_cast<std::size_t>(n)), base_(len / n_), rem_(len % n_) {}

  /// ⌊len/n⌋: the length every chunk has at least.
  std::size_t base() const { return base_; }

  /// Calls f(c) for each of the r chunks one bit longer than base(), in
  /// increasing c: c_k = ⌈k·n/r⌉ − 1 = ⌊(k·n − 1)/r⌋, stepped by n per k.
  template <typename F>
  void for_each_extra(F&& f) const {
    if (rem_ == 0) return;
    const std::size_t step = n_ / rem_, step_rem = n_ % rem_;
    std::size_t c = (n_ - 1) / rem_, acc = (n_ - 1) % rem_;
    for (std::size_t k = 0; k < rem_; ++k) {
      f(static_cast<int>(c));
      c += step;
      acc += step_rem;
      if (acc >= rem_) {
        acc -= rem_;
        ++c;
      }
    }
  }

  /// Calls f(c, lo, clen) for every non-empty chunk in increasing c: bits
  /// [lo, lo + clen) of the payload. Below n bits only the r one-bit extra
  /// chunks are visited.
  template <typename F>
  void for_each_chunk(F&& f) const {
    if (base_ == 0) {
      std::size_t lo = 0;
      for_each_extra([&](int c) { f(c, lo++, std::size_t{1}); });
      return;
    }
    // acc = r·c mod n; chunk c gains the extra bit when r·(c+1) crosses the
    // next multiple of n.
    std::size_t lo = 0, acc = 0;
    for (std::size_t c = 0; c < n_; ++c) {
      std::size_t clen = base_;
      acc += rem_;
      if (acc >= n_) {
        acc -= n_;
        ++clen;
      }
      f(static_cast<int>(c), lo, clen);
      lo += clen;
    }
  }

 private:
  std::size_t n_;
  std::size_t base_;
  std::size_t rem_;
};

/// The relay that carries chunk c of the (v -> p) payload: t = c − v − p
/// mod n. The one-bit-heavier extra chunks of equal-length payloads sit at
/// the same chunk indices, so an identity map would pile them all onto the
/// same relays (measurably: ~4x the ideal hop load for the MM distribution
/// phase); rotating the map by (v + p) spreads them across relays. All
/// three arguments lie in [0, n), so two conditional adds replace the mod.
inline int relay_of_chunk(int v, int p, int c, int n) {
  int t = c - v - p;
  if (t < 0) t += n;
  if (t < 0) t += n;
  return t;
}

/// Per-link bit loads of both relay hops for a length matrix, in closed
/// form, with the per-hop maxima and the total that price a delivery. Link
/// (v, t) of hop 1 carries Σ_p ⌊len(v,p)/n⌋ plus one bit per extra chunk of
/// a v-payload that relay t carries; link (t, p) of hop 2 likewise with
/// Σ_v ⌊len(v,p)/n⌋. Visits only non-empty payloads and their extra
/// chunks: O(n² + Σ len mod n). Diagonal entries are the chunks that
/// never cross the network (hop1[v·n+v]: chunks v relays itself;
/// hop2[p·n+p]: chunks relay p holds for itself). Self-payloads (v == p)
/// are ignored.
struct RelayLinkLoads {
  std::vector<std::size_t> hop1;  ///< hop1[v * n + t]: source v -> relay t
  std::vector<std::size_t> hop2;  ///< hop2[t * n + p]: relay t -> destination p
  std::size_t max1 = 0;           ///< heaviest network link of hop 1
  std::size_t max2 = 0;           ///< heaviest network link of hop 2
  std::uint64_t bits = 0;         ///< bits crossing the network, both hops
};

/// `len(v, p)` returns the (v -> p) payload length in bits.
template <typename LenFn>
RelayLinkLoads relay_link_loads(int n, LenFn&& len) {
  const std::size_t nn = static_cast<std::size_t>(n);
  RelayLinkLoads out;
  out.hop1.assign(nn * nn, 0);
  out.hop2.assign(nn * nn, 0);
  std::vector<std::size_t> base1(nn, 0), base2(nn, 0);
  for (int v = 0; v < n; ++v) {
    for (int p = 0; p < n; ++p) {
      if (p == v) continue;
      const std::size_t l = len(v, p);
      if (l == 0) continue;
      const RelayChunkWalk walk(l, n);
      base1[static_cast<std::size_t>(v)] += walk.base();
      base2[static_cast<std::size_t>(p)] += walk.base();
      walk.for_each_extra([&](int c) {
        const std::size_t t = static_cast<std::size_t>(relay_of_chunk(v, p, c, n));
        ++out.hop1[static_cast<std::size_t>(v) * nn + t];
        ++out.hop2[t * nn + static_cast<std::size_t>(p)];
      });
    }
  }
  for (std::size_t a = 0; a < nn; ++a) {
    for (std::size_t b = 0; b < nn; ++b) {
      const std::size_t l1 = out.hop1[a * nn + b] += base1[a];
      const std::size_t l2 = out.hop2[a * nn + b] += base2[b];
      if (a == b) continue;  // diagonal chunks never cross the network
      out.max1 = std::max(out.max1, l1);
      out.max2 = std::max(out.max2, l2);
      out.bits += l1 + l2;
    }
  }
  return out;
}

/// Delivers a payload matrix through the deterministic two-hop relay
/// schedule (oblivious Valiant-style balancing; the same idea as the
/// message-level router of DESIGN.md §4a, lifted to bit streams): every
/// payload is split into n near-equal chunks by RelayChunkWalk, chunk c
/// travels source -> relay relay_of_chunk(v, p, c) -> destination. Each
/// hop is one stream exchange (CliqueUnicast::exchange_streams) of one
/// stream per link, the link's chunks back to back. A player's streams for
/// a hop sit in one buffer sized from relay_link_loads. Three per-player
/// local stages (CliqueUnicast::run_local) move the chunks: source v fills
/// its hop-1 buffer, relay t regroups straight from its delivered views
/// into its hop-2 buffer, destination p splices into payloads allocated at
/// full length. Each stage CC_CHECKs every stream's measured fill against
/// relay_link_loads, and the exchanges charge the measured fill. Per-edge
/// load per hop is therefore ~(per-player total)/n instead of the largest
/// single payload, which is what turns the skewed block-distribution demand
/// of the algebraic MM protocol into its O(n^{1/3}) round bound.
///
/// Contract: the *length* matrix of `payload` must be globally known (a
/// data-independent function of the protocol's parameters, never of input
/// values) — relays and receivers locate chunks by recomputing lengths, so
/// data-dependent lengths would leak information outside the accounting.
/// payload[v][v] must be empty, n < 2^16 and every payload shorter than
/// 2^32 bits (CC_REQUIRE). On return received[r][v] holds payload[v][r].
/// Returns the number of rounds used (both hops).
///
/// Cost: with per-player total load <= M bits, each hop's per-edge load is
/// <= ceil(M/n) + (payload count) remainder bits, so the delivery takes
/// ~2·ceil(M/(n·b)) rounds versus direct chunking's ceil(max single
/// payload / b) — the skew-flattening the block-MM protocols ride
/// (DESIGN.md §2.2/§2.4). Exact costs follow from the length matrix alone:
/// hop h takes ceil(relay_link_loads max_h / b) rounds, and the delivery
/// carries relay_link_loads bits in total. That is how the *_plan
/// functions predict rounds and bits without running the protocol. Non-uniform payload
/// widths (including zero-length pairs) are fine; the widths just must not
/// depend on input data.
int unicast_payloads_relayed(CliqueUnicast& net,
                             const std::vector<std::vector<Message>>& payload,
                             std::vector<std::vector<Message>>* received);

}  // namespace cclique
