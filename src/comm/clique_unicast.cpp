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

int CliqueUnicast::exchange_streams(const std::vector<StreamView>& streams) {
  const std::size_t nn = static_cast<std::size_t>(n());
  CC_REQUIRE(streams.size() == nn * nn, "stream matrix must be n x n");
  std::size_t max_len = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const StreamView& st = streams[s];
    if (st.len == 0) continue;
    CC_REQUIRE(st.buf != nullptr && st.pos <= st.buf->size_bits() &&
                   st.len <= st.buf->size_bits() - st.pos,
               "stream outside its buffer");
    CC_MODEL(s / nn != s % nn, "players cannot message themselves");
    max_len = std::max(max_len, st.len);
  }
  const std::size_t b = static_cast<std::size_t>(bandwidth());
  const int rounds = static_cast<int>((max_len + b - 1) / b);
  for (int k = 0; k < rounds; ++k) {
    const std::size_t offset = static_cast<std::size_t>(k) * b;
    core_.metered_round([&](int i, PlayerCharge& charge) {
      const StreamView* row = &streams[static_cast<std::size_t>(i) * nn];
      for (std::size_t j = 0; j < nn; ++j) {
        const std::size_t l = row[j].len;
        if (l <= offset) continue;
        core_.charge_message(i, static_cast<int>(j), std::min(b, l - offset), charge,
                             "per-edge bandwidth exceeded in CLIQUE-UCAST");
      }
    });
  }
  // Delivery: the views themselves, now that every round has committed.
  for (std::size_t r = 0; r < nn; ++r) {
    std::uint64_t recv_bits = 0;
    for (std::size_t j = 0; j < nn; ++j) recv_bits += streams[j * nn + r].len;
    core_.charge_receive(static_cast<int>(r), recv_bits);
  }
  return rounds;
}

void CliqueUnicast::run_local(std::uint64_t work_bits, const std::function<void(int)>& fn) {
  core_.run_players(work_bits, [&fn](int player) {
    locality::PlayerScope scope(player);
    fn(player);
  });
}

int unicast_payloads(CliqueUnicast& net,
                     const std::vector<std::vector<Message>>& payload,
                     std::vector<std::vector<Message>>* received) {
  const int n = net.n();
  const std::size_t nn = static_cast<std::size_t>(n);
  // The whole driver is a chunk-schedule sink: rounds and slice lengths
  // derive from Message *sizes* (already-committed lengths), never from
  // payload values, and the blanket scope makes that machine-checked.
  oblivious::SinkScope sink(CC_OBLIVIOUS_SITE("unicast_payloads chunk schedule"));
  CC_REQUIRE(payload.size() == nn, "payload matrix must be n x n");
  std::vector<StreamView> streams(nn * nn);
  for (std::size_t i = 0; i < nn; ++i) {
    CC_REQUIRE(payload[i].size() == nn, "payload matrix must be n x n");
    for (std::size_t j = 0; j < nn; ++j) {
      streams[i * nn + j] = StreamView{&payload[i][j], 0, payload[i][j].size_bits()};
    }
  }
  received->assign(nn, std::vector<Message>(nn));
  const int rounds = net.exchange_streams(streams);
  for (std::size_t r = 0; r < nn; ++r) {
    for (std::size_t j = 0; j < nn; ++j) {
      if (j != r) (*received)[r][j] = payload[j][r];
    }
  }
  return rounds;
}

int all_gather(CliqueUnicast& net, int k, int width,
               const std::function<std::uint64_t(int v, int f)>& value) {
  const int n = net.n();
  const std::size_t nn = static_cast<std::size_t>(n);
  std::vector<std::vector<Message>> payload(nn, std::vector<Message>(nn));
  for (int v = 0; v < n; ++v) {
    Message msg;
    msg.reserve_bits(static_cast<std::size_t>(k) * static_cast<std::size_t>(width));
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

namespace {

/// ⌊x/n⌋ by one multiply-high with the reciprocal M = ⌈2^64/n⌉, computed
/// once per call (Lemire, Kaser and Kurz, "Faster remainder by direct
/// computation", 2019). With M·n = 2^64 + e, 0 <= e < n, the result is
/// exact whenever x·e < 2^64, so for every x < 2^64/n; the relay's
/// numerators l·c stay below 2^48 <= 2^64/n.
class Divider {
 public:
  explicit Divider(std::size_t n) : m_(~std::uint64_t{0} / n + 1) {}
  std::size_t operator()(std::size_t x) const {
    return static_cast<std::size_t>((static_cast<__uint128_t>(m_) * x) >> 64);
  }

 private:
  std::uint64_t m_;
};

/// Bits [sp, sp + take) of `s`, 1 <= take <= 64, low-aligned: a two-word
/// extract with no branch. The second read is the word holding the last
/// bit, which is the first word again when the range does not straddle, so
/// no word past the range is ever read.
inline std::uint64_t extract_bits(const std::uint64_t* s, std::size_t sp, unsigned take) {
  const unsigned so = static_cast<unsigned>(sp & 63);
  const std::uint64_t* w = s + (sp >> 6);
  const std::uint64_t x = (w[0] >> so) | ((w[(so + take - 1) >> 6] << 1) << (63 - so));
  return x & (~std::uint64_t{0} >> (64 - take));
}

/// Writes a buffer front to back from bit 0, a word at a time: chunks
/// accumulate in a register and each word is stored whole, with no
/// read-modify-write and no branch per chunk. Every stage of the relay
/// builds its buffers this way, so each chunk costs one extract and one
/// deposit. finish() stores the last partial word.
class StreamWriter {
 public:
  explicit StreamWriter(Message& buf) : w_(buf.data()), end_(buf.size_bits()) {}

  std::size_t pos() const { return pos_; }

  void finish() {
    if (fill_ != 0) *w_ = acc_;
  }

  /// Appends `len` bits of `s` from bit `sp`.
  void put(const std::uint64_t* s, std::size_t sp, std::size_t len) {
    if (len > end_ - pos_) overrun();
    pos_ += len;
    while (len > 0) {
      const unsigned take = len < 64 ? static_cast<unsigned>(len) : 64u;
      const std::uint64_t x = extract_bits(s, sp, take);
      acc_ |= x << fill_;
      *w_ = acc_;
      const unsigned next = fill_ + take;
      const unsigned carry = next >> 6;  // 1 when the word is full
      fill_ = next & 63;
      w_ += carry;
      // On a carry, the chunk's bits that did not fit open the next word.
      acc_ = carry != 0 ? (x >> 1) >> (take - 1 - fill_) : acc_;
      sp += take;
      len -= take;
    }
  }

 private:
  /// Out of line, so put() stays small enough to inline.
  [[noreturn]] static void overrun() {
    throw InvariantError(detail::format_failure("invariant", "len <= end - pos", __FILE__,
                                                __LINE__, "relay stage overran its buffer"));
  }

  std::uint64_t* w_;
  std::size_t end_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// One relay hop's send buffers: lane a holds a's streams to b = 0..n-1
/// back to back, stream (a, b) from bit start[a·n + b], sized once from
/// the closed-form loads. A stage writes lane a front to back, stream by
/// stream, and `filled` checks each stream's measured fill.
struct Lanes {
  template <typename SizeFn>
  Lanes(std::size_t n, const SizeFn& size) : lane(n), start(n * n) {
    std::size_t total = 0;
    for (std::size_t a = 0; a < n; ++a) {
      const std::size_t base = total;
      for (std::size_t b = 0; b < n; ++b) {
        start[a * n + b] = total - base;
        total += size(a, b);
      }
      lane[a] = Message(total - base);
    }
  }

  /// CC_CHECKs that the writer of lane a ended stream ab, which began at
  /// start[ab], at exactly the planned length, naming the hop.
  void filled(const StreamWriter& w, std::size_t ab, std::size_t planned,
              const char* what) const {
    CC_CHECK(w.pos() - start[ab] == planned, what);
  }

  StreamView view(std::size_t a, std::size_t ab, std::size_t len) const {
    return StreamView{&lane[a], start[ab], len};
  }

  std::vector<Message> lane;
  std::vector<std::size_t> start;
};

/// The non-empty payloads of a payload matrix, by row and by column, so
/// each stage visits only the payloads that exist.
struct NonEmpty {
  struct Entry {
    std::size_t other;         ///< the column (in a row list) or row (in a column list)
    std::size_t len;           ///< payload bits
    const std::uint64_t* src;  ///< payload words
  };

  NonEmpty(std::size_t n, const std::vector<std::vector<Message>>& payload)
      : row_begin(n + 1, 0), col_begin(n + 1, 0) {
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t p = 0; p < n; ++p) {
        const Message& msg = payload[v][p];
        if (msg.empty()) continue;
        rows.push_back({p, msg.size_bits(), msg.data()});
        ++col_begin[p + 1];
      }
      row_begin[v + 1] = rows.size();
    }
    for (std::size_t p = 0; p < n; ++p) col_begin[p + 1] += col_begin[p];
    cols.resize(rows.size());
    std::vector<std::size_t> at(col_begin.begin(), col_begin.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t k = row_begin[v]; k < row_begin[v + 1]; ++k) {
        cols[at[rows[k].other]++] = {v, rows[k].len, rows[k].src};
      }
    }
  }

  std::vector<std::size_t> row_begin, col_begin;
  std::vector<Entry> rows, cols;  ///< row-major (v, then p); column-major (p, then v)
};

}  // namespace

int unicast_payloads_relayed(CliqueUnicast& net,
                             const std::vector<std::vector<Message>>& payload,
                             std::vector<std::vector<Message>>* received) {
  const int n = net.n();
  const std::size_t nn = static_cast<std::size_t>(n);
  oblivious::SinkScope sink(
      CC_OBLIVIOUS_SITE("unicast_payloads_relayed chunk schedule"));
  CC_REQUIRE(payload.size() == nn, "payload matrix must be n x n");
  CC_REQUIRE(nn < (std::size_t{1} << 16), "the relay supports fewer than 2^16 players");
  // With l < 2^32 and n < 2^16 every chunk bound l·c is below 2^48, inside
  // Divider's exact range.
  std::uint64_t total_bits = 0;
  for (std::size_t v = 0; v < nn; ++v) {
    CC_REQUIRE(payload[v].size() == nn, "payload matrix must be n x n");
    CC_REQUIRE(payload[v][v].empty(), "relayed payloads cannot address the sender itself");
    for (const Message& msg : payload[v]) {
      CC_REQUIRE(msg.size_bits() < (std::size_t{1} << 32),
                 "relayed payloads must be shorter than 2^32 bits");
      total_bits += msg.size_bits();
    }
  }
  received->assign(nn, std::vector<Message>(nn));
  if (n == 1) return 0;
  // The closed-form link loads are every stream's planned length: they size
  // the lanes, and each stage's measured fill is checked against them.
  const RelayLinkLoads loads = relay_link_loads(n, [&](int v, int p) {
    return payload[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)].size_bits();
  });
  const NonEmpty nz(nn, payload);
  const Divider div(nn);
  // Chunk c = t + v + p mod n of the (v -> p) payload is the one relay t
  // carries; it covers bits [⌊l·c/n⌋, ⌊l·(c+1)/n⌋).
  auto chunk_of = [nn](std::size_t v, std::size_t p, std::size_t t) {
    std::size_t c = t + v + p;
    c = c >= nn ? c - nn : c;
    return c >= nn ? c - nn : c;
  };
  // Each stage is one task per player (run_local), in the same sink as the
  // driver: it moves bits, and every length it uses is a payload size.
  auto stage = [&](const std::function<void(std::size_t)>& fn) {
    net.run_local(total_bits, [&](int player) {
      oblivious::SinkScope stage_sink(CC_OBLIVIOUS_SITE("unicast_payloads_relayed stage"));
      fn(static_cast<std::size_t>(player));
    });
  };

  // Stage 1, per source v: stream (v, t) is the chunk relay t carries of
  // each of v's payloads, in destination order. The chunks v relays itself
  // stay in the payload.
  Lanes hop1(nn, [&](std::size_t v, std::size_t t) {
    return v == t ? 0 : loads.hop1[v * nn + t];
  });
  stage([&](std::size_t v) {
    StreamWriter out(hop1.lane[v]);
    for (std::size_t t = 0; t < nn; ++t) {
      if (t == v) continue;
      for (std::size_t k = nz.row_begin[v]; k < nz.row_begin[v + 1]; ++k) {
        const NonEmpty::Entry& e = nz.rows[k];
        const std::size_t c = chunk_of(v, e.other, t);
        const std::size_t lo = div(e.len * c);
        out.put(e.src, lo, div(e.len * (c + 1)) - lo);
      }
      hop1.filled(out, v * nn + t, loads.hop1[v * nn + t],
                  "relay hop 1 stream fill diverged from relay_link_loads");
    }
    out.finish();
  });
  std::vector<StreamView> streams(nn * nn);
  for (std::size_t v = 0; v < nn; ++v) {
    for (std::size_t t = 0; t < nn; ++t) {
      if (t != v) streams[v * nn + t] = hop1.view(v, v * nn + t, loads.hop1[v * nn + t]);
    }
  }
  const int rounds1 = net.exchange_streams(streams);

  // Stage 2, per relay t: stream (t, p) is the chunk t carries of each
  // (v -> p) payload, in source order, read straight from the delivered
  // hop-1 views (or t's own payloads). Stream (t, t) is the hold: chunks
  // for t itself, which never cross the network.
  Lanes hop2(nn, [&](std::size_t t, std::size_t p) { return loads.hop2[t * nn + p]; });
  stage([&](std::size_t t) {
    StreamWriter out(hop2.lane[t]);
    std::vector<const std::uint64_t*> in(nn, nullptr);
    std::vector<std::size_t> at(nn);
    for (std::size_t v = 0; v < nn; ++v) {
      const StreamView& view = streams[v * nn + t];
      if (view.buf != nullptr) in[v] = view.buf->data();
      at[v] = view.pos;
    }
    for (std::size_t p = 0; p < nn; ++p) {
      for (std::size_t k = nz.col_begin[p]; k < nz.col_begin[p + 1]; ++k) {
        const NonEmpty::Entry& e = nz.cols[k];
        const std::size_t v = e.other;
        const std::size_t c = chunk_of(v, p, t);
        const std::size_t lo = div(e.len * c), clen = div(e.len * (c + 1)) - lo;
        if (v == t) {
          out.put(e.src, lo, clen);
        } else {
          out.put(in[v], at[v], clen);
          at[v] += clen;
        }
      }
      hop2.filled(out, t * nn + p, loads.hop2[t * nn + p],
                  "relay hop 2 stream fill diverged from relay_link_loads");
    }
    out.finish();
    for (std::size_t v = 0; v < nn; ++v) {
      const StreamView& view = streams[v * nn + t];
      CC_CHECK(at[v] == view.pos + view.len, "relay stage left hop-1 stream bits unread");
    }
  });
  for (std::size_t t = 0; t < nn; ++t) {
    for (std::size_t p = 0; p < nn; ++p) {
      const std::size_t tp = t * nn + p;
      streams[tp] = p == t ? StreamView{} : hop2.view(t, tp, loads.hop2[tp]);
    }
  }
  const int rounds2 = net.exchange_streams(streams);

  // Stage 3, per destination p: each payload spliced back together in chunk
  // order from the delivered hop-2 views (or p's own hold), into a buffer
  // allocated at full length.
  stage([&](std::size_t p) {
    const int dest = static_cast<int>(p);
    std::vector<StreamView> from(nn);
    std::vector<const std::uint64_t*> in(nn);
    std::vector<std::size_t> at(nn);
    for (std::size_t t = 0; t < nn; ++t) {
      from[t] = t == p ? hop2.view(p, p * nn + p, loads.hop2[p * nn + p]) : streams[t * nn + p];
      in[t] = from[t].buf->data();
      at[t] = from[t].pos;
    }
    for (std::size_t k = nz.col_begin[p]; k < nz.col_begin[p + 1]; ++k) {
      const NonEmpty::Entry& e = nz.cols[k];
      const int v = static_cast<int>(e.other);
      Message& msg = (*received)[p][e.other];
      msg = Message(e.len);
      StreamWriter out(msg);
      RelayChunkWalk(e.len, n).for_each_chunk([&](int c, std::size_t /*lo*/, std::size_t clen) {
        const std::size_t t = static_cast<std::size_t>(relay_of_chunk(v, dest, c, n));
        out.put(in[t], at[t], clen);
        at[t] += clen;
      });
      out.finish();
    }
    for (std::size_t t = 0; t < nn; ++t) {
      CC_CHECK(at[t] == from[t].pos + from[t].len,
               "relay reassembly left hop-2 stream bits unread");
    }
  });
  return rounds1 + rounds2;
}

}  // namespace cclique
