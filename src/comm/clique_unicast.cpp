#include "comm/clique_unicast.h"

#include <algorithm>

#include "analysis/locality_guard.h"
#include "analysis/oblivious_guard.h"

namespace cclique {

CliqueUnicast::CliqueUnicast(int n, int bandwidth) : core_(n, bandwidth) {}

void CliqueUnicast::round(const SendFn& send, const RecvFn& recv) {
  // Collect and validate all outboxes before any delivery: a synchronous
  // round means sends are based on pre-round state only. Send callbacks may
  // run concurrently (see comm/engine.h for the determinism contract).
  const int nn = n();
  legacy_out_.resize(static_cast<std::size_t>(nn));
  core_.send_phase([&](int i, PlayerCharge& charge) {
    locality::PlayerScope scope(i);
    // The callback's outputs become this round's message lengths, so the
    // whole callback is a length sink: payloads must be pre-serialized
    // (comm/model.h), never read here.
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("CLIQUE-UCAST send callback"));
    std::vector<Message> box = send(i);
    CC_MODEL(static_cast<int>(box.size()) == nn,
             "outbox must have one slot per player");
    for (int j = 0; j < nn; ++j) {
      const Message& msg = box[static_cast<std::size_t>(j)];
      if (j == i) {
        CC_MODEL(msg.empty(), "players cannot message themselves");
        continue;
      }
      core_.charge_message(i, j, msg.size_bits(), charge,
                           "per-edge bandwidth exceeded in CLIQUE-UCAST");
    }
    legacy_out_[static_cast<std::size_t>(i)] = std::move(box);
  });
  deliver(legacy_out_, recv);
}

void CliqueUnicast::ensure_slots() {
  if (slots_.empty()) {
    const std::size_t nn = static_cast<std::size_t>(n());
    slots_ = core_.borrow_slots(nn * nn);
  }
}

void CliqueUnicast::round_fill(const FillFn& fill, const RecvFn& recv) {
  ensure_slots();
  const int nn = n();
  core_.send_phase([&](int i, PlayerCharge& charge) {
    locality::PlayerScope scope(i);
    oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("CLIQUE-UCAST fill callback"));
    Message* box = &slots_[static_cast<std::size_t>(i) * static_cast<std::size_t>(nn)];
    for (int j = 0; j < nn; ++j) box[j].clear();
    fill(i, box);
    for (int j = 0; j < nn; ++j) {
      if (j == i) {
        CC_MODEL(box[j].empty(), "players cannot message themselves");
        continue;
      }
      core_.charge_message(i, j, box[j].size_bits(), charge,
                           "per-edge bandwidth exceeded in CLIQUE-UCAST");
    }
  });
  // Zero-copy delivery: receiver r's inbox aliases column r of the outbox
  // matrix. Serial, player order (see comm/engine.h).
  inbox_.resize(static_cast<std::size_t>(nn));
  for (int r = 0; r < nn; ++r) {
    std::uint64_t recv_bits = 0;
    for (int j = 0; j < nn; ++j) {
      const Message& msg =
          slots_[static_cast<std::size_t>(j) * static_cast<std::size_t>(nn) +
                 static_cast<std::size_t>(r)];
      recv_bits += msg.size_bits();
      inbox_[static_cast<std::size_t>(j)] = Message::alias(msg);
    }
    core_.charge_receive(r, recv_bits);
    locality::PlayerScope scope(r);
    recv(r, inbox_);
  }
}

void CliqueUnicast::deliver(std::vector<std::vector<Message>>& out,
                            const RecvFn& recv) {
  const int nn = n();
  inbox_.resize(static_cast<std::size_t>(nn));
  for (int r = 0; r < nn; ++r) {
    std::uint64_t recv_bits = 0;
    for (int j = 0; j < nn; ++j) {
      // Each message is delivered to exactly one receiver, so moving it out
      // of the outbox matrix is safe and saves the per-message copy.
      inbox_[static_cast<std::size_t>(j)] =
          std::move(out[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)]);
      recv_bits += inbox_[static_cast<std::size_t>(j)].size_bits();
    }
    core_.charge_receive(r, recv_bits);
    locality::PlayerScope scope(r);
    recv(r, inbox_);
  }
}

namespace {

/// The chunked stream transport both payload helpers run on: stream
/// (i -> j), len(i, j) bits long, crosses the network in
/// ceil(max len / b) rounds, round k carrying its bits [k·b, (k+1)·b) in
/// the arena slot. pack(i, j, offset, take, slot) appends those bits of
/// stream (i, j) to the sender's slot; unpack(r, j, offset, piece) hands
/// receiver r the piece of stream (j, r) that starts at `offset`. Self
/// streams (i == j) never travel.
template <typename LenFn, typename PackFn, typename UnpackFn>
int stream_rounds(CliqueUnicast& net, std::size_t max_len, const LenFn& len,
                  const PackFn& pack, const UnpackFn& unpack) {
  const int n = net.n();
  const std::size_t b = static_cast<std::size_t>(net.bandwidth());
  const int rounds = static_cast<int>((max_len + b - 1) / b);
  for (int k = 0; k < rounds; ++k) {
    const std::size_t offset = static_cast<std::size_t>(k) * b;
    net.round_fill(
        [&](int i, Message* box) {
          for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            const std::size_t l = len(i, j);
            if (offset >= l) continue;
            pack(i, j, offset, std::min(b, l - offset), box[j]);
          }
        },
        [&](int r, const std::vector<Message>& inbox) {
          for (int j = 0; j < n; ++j) {
            const Message& piece = inbox[static_cast<std::size_t>(j)];
            if (!piece.empty()) unpack(r, j, offset, piece);
          }
        });
  }
  return rounds;
}

/// Per-player stream buffers: lane a holds a's streams to b = 0..n-1 back
/// to back, stream (a, b) at bits [start(a, b), start(a, b) + size(a, b)).
/// Sized once from the closed-form loads, so a relay hop costs n buffers
/// instead of n² messages. Each stream also keeps a cursor for writing
/// (put) or reading (next) it front to back.
class Lanes {
 public:
  template <typename SizeFn>
  Lanes(int n, const SizeFn& size) : n_(static_cast<std::size_t>(n)), start_(n_ * n_) {
    lanes_.reserve(n_);
    for (std::size_t a = 0; a < n_; ++a) {
      std::size_t total = 0;
      for (std::size_t b = 0; b < n_; ++b) {
        start_[a * n_ + b] = total;
        total += size(static_cast<int>(a), static_cast<int>(b));
      }
      lanes_.emplace_back(total);
    }
    cursor_ = start_;
  }

  Message& lane(int a) { return lanes_[static_cast<std::size_t>(a)]; }
  std::size_t start(int a, int b) const { return start_[index(a, b)]; }

  /// Stream (a, b)'s cursor, then advances it by `len`.
  std::size_t next(int a, int b, std::size_t len) {
    std::size_t& c = cursor_[index(a, b)];
    const std::size_t at = c;
    c += len;
    return at;
  }

  /// Writes `len` bits of `src` from bit `pos` at stream (a, b)'s cursor.
  void put(int a, int b, const Message& src, std::size_t pos, std::size_t len) {
    lane(a).write_slice(next(a, b, len), src, pos, len);
  }

  /// Moves every cursor back to its stream's start.
  void rewind() { cursor_ = start_; }

 private:
  std::size_t index(int a, int b) const {
    return static_cast<std::size_t>(a) * n_ + static_cast<std::size_t>(b);
  }

  std::size_t n_;
  std::vector<std::size_t> start_;
  std::vector<std::size_t> cursor_;
  std::vector<Message> lanes_;
};

}  // namespace

int unicast_payloads(CliqueUnicast& net,
                     const std::vector<std::vector<Message>>& payload,
                     std::vector<std::vector<Message>>* received) {
  const int n = net.n();
  // The whole driver is a chunk-schedule sink: rounds and slice lengths
  // derive from Message *sizes* (already-committed lengths), never from
  // payload values, and the blanket scope makes that machine-checked.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("unicast_payloads chunk schedule"));
  CC_REQUIRE(static_cast<int>(payload.size()) == n, "payload matrix must be n x n");
  std::size_t max_len = 0;
  for (const auto& row : payload) {
    CC_REQUIRE(static_cast<int>(row.size()) == n, "payload matrix must be n x n");
    for (const auto& msg : row) max_len = std::max(max_len, msg.size_bits());
  }
  received->assign(static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
  // Preallocate the assembly buffers: every received stream's final length
  // is known up front, so the chunk rounds below never reallocate.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      (*received)[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)].reserve_bits(
          payload[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)].size_bits());
    }
  }
  auto full = [&payload](int i, int j) -> const Message& {
    return payload[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  };
  return stream_rounds(
      net, max_len, [&](int i, int j) { return full(i, j).size_bits(); },
      [&](int i, int j, std::size_t offset, std::size_t take, Message& slot) {
        slot.append_slice(full(i, j), offset, take);
      },
      [&](int r, int j, std::size_t /*offset*/, const Message& piece) {
        (*received)[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)].append(piece);
      });
}

int all_gather(CliqueUnicast& net, int k, int width,
               const std::function<std::uint64_t(int v, int f)>& value) {
  const int n = net.n();
  const std::size_t nn = static_cast<std::size_t>(n);
  std::vector<std::vector<Message>> payload(nn, std::vector<Message>(nn));
  for (int v = 0; v < n; ++v) {
    Message msg;
    for (int f = 0; f < k; ++f) msg.push_uint(value(v, f), width);
    for (int j = 0; j < n; ++j) {
      if (j != v) payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(j)] = msg;
    }
  }
  std::vector<std::vector<Message>> recv;
  const int rounds = unicast_payloads(net, payload, &recv);
  for (int v = 1; v < n; ++v) {
    const Message& msg = recv[0][static_cast<std::size_t>(v)];
    for (int f = 0; f < k; ++f) {
      CC_CHECK(msg.read_uint(static_cast<std::size_t>(f) * static_cast<std::size_t>(width),
                             width) == value(v, f),
               "all-gather corrupted a value");
    }
  }
  return rounds;
}

ExchangeCost all_gather_cost(int n, std::size_t bits, int bandwidth) {
  CC_REQUIRE(n >= 1, "need at least one player");
  CC_REQUIRE(bandwidth >= 1, "bandwidth must be positive");
  ExchangeCost out;
  if (n < 2) return out;
  out.rounds = static_cast<int>((bits + static_cast<std::size_t>(bandwidth) - 1) /
                                static_cast<std::size_t>(bandwidth));
  out.bits = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) *
             static_cast<std::uint64_t>(bits);
  return out;
}

int unicast_payloads_relayed(CliqueUnicast& net,
                             const std::vector<std::vector<Message>>& payload,
                             std::vector<std::vector<Message>>* received) {
  const int n = net.n();
  const std::size_t nn = static_cast<std::size_t>(n);
  oblivious::SinkScope sink(
      CC_OBLIVIOUS_SITE("unicast_payloads_relayed chunk schedule"));
  CC_REQUIRE(static_cast<int>(payload.size()) == n, "payload matrix must be n x n");
  for (int v = 0; v < n; ++v) {
    const auto& row = payload[static_cast<std::size_t>(v)];
    CC_REQUIRE(static_cast<int>(row.size()) == n, "payload matrix must be n x n");
    CC_REQUIRE(row[static_cast<std::size_t>(v)].empty(),
               "relayed payloads cannot address the sender itself");
  }
  auto full = [&payload](int v, int p) -> const Message& {
    return payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
  };
  auto at = [nn](int a, int b) {
    return static_cast<std::size_t>(a) * nn + static_cast<std::size_t>(b);
  };
  // The closed-form link loads are every stream's exact length, so each
  // stage's streams live in one lane per player, sized up front.
  const RelayLinkLoads loads =
      relay_link_loads(n, [&](int v, int p) { return full(v, p).size_bits(); });
  auto hop1 = [&](int v, int t) { return v == t ? std::size_t{0} : loads.hop1[at(v, t)]; };
  auto hop2 = [&](int t, int p) { return t == p ? std::size_t{0} : loads.hop2[at(t, p)]; };
  // Every stage walks the non-empty payloads in (source, destination) order
  // and each payload's chunks in chunk order. For a fixed stream that
  // visits its chunks in the order the stream holds them, so one cursor
  // per stream places or finds every chunk.
  auto for_each_relayed_chunk = [&](const auto& f) {
    for (int v = 0; v < n; ++v) {
      for (int p = 0; p < n; ++p) {
        const std::size_t len = full(v, p).size_bits();
        if (len == 0) continue;
        RelayChunkWalk(len, n).for_each_chunk([&](int c, std::size_t lo, std::size_t clen) {
          f(v, p, relay_of_chunk(v, p, c, n), lo, clen);
        });
      }
    }
  };
  // One hop: sender a's lane streams cross into receiver b's lane at the
  // same offsets.
  auto ship = [&net](Lanes& out, Lanes& in, std::size_t max_len, const auto& len) {
    return stream_rounds(
        net, max_len, len,
        [&](int a, int b, std::size_t offset, std::size_t take, Message& slot) {
          slot.append_slice(out.lane(a), out.start(a, b) + offset, take);
        },
        [&](int b, int a, std::size_t offset, const Message& piece) {
          in.lane(b).write_slice(in.start(b, a) + offset, piece, 0, piece.size_bits());
        });
  };

  // Hop 1: source v's stream to relay t holds the chunks relay t carries,
  // in destination order. The chunks v relays itself stay local.
  Lanes out1(n, hop1);
  for_each_relayed_chunk([&](int v, int p, int t, std::size_t lo, std::size_t clen) {
    if (t != v) out1.put(v, t, full(v, p), lo, clen);
  });
  Lanes in1(n, [&](int t, int v) { return hop1(v, t); });
  const int rounds1 = ship(out1, in1, loads.max1, hop1);

  // Relay stage (local): relay t re-groups the chunks it holds by final
  // destination, in source order — its own chunks straight from its
  // payloads, the rest from the incoming hop-1 streams. Stream (t, t) of
  // out2 is the hold: chunks whose destination is t itself, which never
  // cross the network.
  Lanes out2(n, [&](int t, int p) { return loads.hop2[at(t, p)]; });
  for_each_relayed_chunk([&](int v, int p, int t, std::size_t lo, std::size_t clen) {
    if (t == v) {
      out2.put(t, p, full(v, p), lo, clen);
    } else {
      out2.put(t, p, in1.lane(t), in1.next(t, v, clen), clen);
    }
  });
  Lanes in2(n, [&](int p, int t) { return hop2(t, p); });
  const int rounds2 = ship(out2, in2, loads.max2, hop2);

  // Reassembly: destination p splices each payload back together in chunk
  // order, from relay t's stream (or its own hold when t == p).
  out2.rewind();
  received->assign(nn, std::vector<Message>(nn));
  for_each_relayed_chunk([&](int v, int p, int t, std::size_t /*lo*/, std::size_t clen) {
    Message& out = (*received)[static_cast<std::size_t>(p)][static_cast<std::size_t>(v)];
    if (out.empty()) out.reserve_bits(full(v, p).size_bits());
    Lanes& src = t == p ? out2 : in2;
    out.append_slice(src.lane(p), src.next(p, t, clen), clen);
  });
  return rounds1 + rounds2;
}

}  // namespace cclique
