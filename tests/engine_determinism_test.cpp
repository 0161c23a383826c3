// Adversarial tests for the transport core's parallel round scheduler
// (comm/engine.h): CommStats must be bit-identical at every CC_THREADS
// setting, and exceptions raised on worker threads must propagate
// deterministically (lowest player wins, nothing committed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "analysis/locality_guard.h"
#include "comm/clique_broadcast.h"
#include "comm/clique_unicast.h"
#include "comm/congest.h"
#include "comm/engine.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace cclique {
namespace {

/// Scoped CC_THREADS override. Engines read the variable when they first
/// schedule a round, so each protocol run constructs fresh engines.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv("CC_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv("CC_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (had_old_) {
      ::setenv("CC_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("CC_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

Message bits_of(std::uint64_t v, int w) {
  Message m;
  m.push_uint(v, w);
  return m;
}

/// A fixed protocol exercising every engine and both round paths: a legacy
/// unicast round, chunked all-pairs payloads (a stream exchange), chunked
/// broadcasts, and a CONGEST round — all with a registered cut.
struct ProtocolStats {
  CommStats unicast;
  CommStats broadcast;
  CommStats congest;
};

ProtocolStats run_fixed_protocol() {
  ProtocolStats out;
  const int n = 12;
  {
    CliqueUnicast net(n, 16);
    std::vector<int> side(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) side[static_cast<std::size_t>(i)] = i % 2;
    net.set_cut(side);
    // Legacy round: deterministic per-pair messages of varying width.
    net.round(
        [&](int i) {
          std::vector<Message> box(static_cast<std::size_t>(n));
          for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            box[static_cast<std::size_t>(j)] =
                bits_of(static_cast<std::uint64_t>(i * n + j), 1 + (i + j) % 13);
          }
          return box;
        },
        [](int, const std::vector<Message>&) {});
    // Arena path: all-pairs payload streams of varying lengths.
    std::vector<std::vector<Message>> payload(
        static_cast<std::size_t>(n), std::vector<Message>(static_cast<std::size_t>(n)));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        Message& m = payload[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        for (int t = 0; t < 5 + 7 * ((i + 3 * j) % 9); ++t) m.push_bit((i + j + t) % 3 == 0);
      }
    }
    std::vector<std::vector<Message>> received;
    unicast_payloads(net, payload, &received);
    // Spot-check delivery so the determinism test also proves transport.
    EXPECT_EQ(received[1][0], payload[0][1]);
    out.unicast = net.stats();
  }
  {
    CliqueBroadcast net(n, 8);
    std::vector<int> side(static_cast<std::size_t>(n), 0);
    side[0] = 1;
    net.set_cut(side);
    std::vector<Message> payloads(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int t = 0; t < 3 + 5 * (i % 4); ++t) {
        payloads[static_cast<std::size_t>(i)].push_bit((i + t) % 2 == 0);
      }
    }
    int rounds = 0;
    const auto assembled = broadcast_payloads(net, payloads, &rounds);
    EXPECT_EQ(assembled[3], payloads[3]);
    out.broadcast = net.stats();
  }
  {
    CongestUnicast net(cycle_graph(n), 6);
    net.round(
        [&](int v) {
          std::vector<Message> box(2);
          box[0] = bits_of(static_cast<std::uint64_t>(v), 5);
          box[1] = bits_of(static_cast<std::uint64_t>(v) + 1, 3 + v % 4);
          return box;
        },
        [](int, const std::vector<Message>&) {});
    out.congest = net.stats();
  }
  return out;
}

TEST(EngineDeterminism, CommStatsBitIdenticalAcrossThreadCounts) {
  ScopedThreads base("1");
  const ProtocolStats serial = run_fixed_protocol();
  // Fixed protocol sanity: something nontrivial was charged everywhere.
  EXPECT_GT(serial.unicast.total_bits, 0u);
  EXPECT_GT(serial.unicast.cut_bits, 0u);
  EXPECT_GT(serial.broadcast.cut_bits, 0u);
  EXPECT_GT(serial.congest.total_bits, 0u);
  for (const char* threads : {"2", "8"}) {
    ScopedThreads scoped(threads);
    const ProtocolStats parallel = run_fixed_protocol();
    // Every field, including cut_bits, max_edge_bits_in_round, and the
    // per-player vectors, must match the serial run exactly.
    EXPECT_EQ(parallel.unicast, serial.unicast) << "CC_THREADS=" << threads;
    EXPECT_EQ(parallel.broadcast, serial.broadcast) << "CC_THREADS=" << threads;
    EXPECT_EQ(parallel.congest, serial.congest) << "CC_THREADS=" << threads;
  }
}

TEST(EngineDeterminism, ModelViolationPropagatesFromWorkerThread) {
  ScopedThreads scoped("8");
  CliqueUnicast net(8, 4);
  const auto oversend = [&](int i) {
    std::vector<Message> box(8);
    if (i == 5) box[2] = bits_of(0, 5);  // 5 > 4 bits, raised on a worker
    return box;
  };
  EXPECT_THROW(net.round(oversend, [](int, const std::vector<Message>&) {}),
               ModelViolation);
  // A violating round commits nothing and leaves the engine usable.
  EXPECT_EQ(net.stats().rounds, 0);
  EXPECT_EQ(net.stats().total_bits, 0u);
  net.round([&](int) { return std::vector<Message>(8); },
            [](int, const std::vector<Message>&) {});
  EXPECT_EQ(net.stats().rounds, 1);
}

TEST(EngineDeterminism, ArenaOverflowThrowsFromWorkerThread) {
  ScopedThreads scoped("8");
  CliqueUnicast net(8, 4);
  EXPECT_THROW(net.round_fill(
                   [&](int i, Message* box) {
                     if (i == 3) box[6].push_uint(0, 5);  // past capacity 4
                   },
                   [](int, const std::vector<Message>&) {}),
               ModelViolation);
  EXPECT_EQ(net.stats().rounds, 0);
}

TEST(EngineDeterminism, LowestPlayerExceptionWinsAtEveryThreadCount) {
  for (const char* threads : {"1", "2", "8"}) {
    ScopedThreads scoped(threads);
    CliqueUnicast net(16, 8);
    // Two different players fail with different exception types; the
    // scheduler must always surface player 2's, regardless of which worker
    // observed its own failure first.
    const auto send = [&](int i) -> std::vector<Message> {
      if (i == 2) throw PreconditionError("player 2 failed");
      if (i == 9) throw InvariantError("player 9 failed");
      return std::vector<Message>(16);
    };
    EXPECT_THROW(net.round(send, [](int, const std::vector<Message>&) {}),
                 PreconditionError)
        << "CC_THREADS=" << threads;
  }
}

TEST(EngineDeterminism, LocalityViolationPropagatesAtEveryThreadCount) {
  // A cross-player access tripped by the locality guard must behave exactly
  // like every other worker-thread exception: it escapes the engine at any
  // CC_THREADS setting, the violating round commits nothing, and the engine
  // stays usable. In guard-off builds the same protocol runs untouched.
  for (const char* threads : {"1", "2", "8"}) {
    ScopedThreads scoped(threads);
    const int n = 12;
    CliqueUnicast net(n, 8);
    locality::PerPlayer<std::uint64_t> secret(
        n, CC_LOCALITY_SITE("thread-test secret"));
    const auto leaky_send = [&](int i) {
      std::vector<Message> box(static_cast<std::size_t>(n));
      if (i == 7) box[0] = bits_of(secret[4], 3);  // 7 reads 4's state
      return box;
    };
    const auto no_recv = [](int, const std::vector<Message>&) {};
    if (locality::enabled()) {
      EXPECT_THROW(net.round(leaky_send, no_recv), ModelViolation)
          << "CC_THREADS=" << threads;
      EXPECT_EQ(net.stats().rounds, 0) << "CC_THREADS=" << threads;
      EXPECT_EQ(net.stats().total_bits, 0u) << "CC_THREADS=" << threads;
    } else {
      EXPECT_NO_THROW(net.round(leaky_send, no_recv));
    }
    net.round([&](int) { return std::vector<Message>(static_cast<std::size_t>(n)); },
              no_recv);
    EXPECT_GE(net.stats().rounds, 1) << "CC_THREADS=" << threads;
  }
}

TEST(EngineDeterminism, LowestPlayerWinsForLocalityViolations) {
  if (!locality::enabled()) GTEST_SKIP() << "guard compiled out";
  // Two players violate the locality discipline in the same round; the
  // scheduler's lowest-player-wins rule applies to guard exceptions exactly
  // as it does to CC_* exceptions, so the surfaced message must name the
  // lower violator at every thread count.
  for (const char* threads : {"1", "2", "8"}) {
    ScopedThreads scoped(threads);
    const int n = 16;
    CliqueUnicast net(n, 8);
    locality::PerPlayer<std::uint64_t> secret(
        n, CC_LOCALITY_SITE("contested secret"));
    const auto send = [&](int i) {
      std::vector<Message> box(static_cast<std::size_t>(n));
      if (i == 3 || i == 11) box[0] = bits_of(secret[(i + 1) % n], 3);
      return box;
    };
    try {
      net.round(send, [](int, const std::vector<Message>&) {});
      FAIL() << "seeded violations must throw (CC_THREADS=" << threads << ")";
    } catch (const ModelViolation& e) {
      EXPECT_NE(std::string(e.what()).find("player 3"), std::string::npos)
          << "CC_THREADS=" << threads << ": " << e.what();
    }
    EXPECT_EQ(net.stats().rounds, 0) << "CC_THREADS=" << threads;
  }
}

/// A fixed-length stream matrix with every length regime the exchange must
/// meter: empty streams, streams shorter than, equal to and longer than the
/// bandwidth, and one much longer than the rest (so late rounds carry few
/// messages). Stream (i -> j) sits in one shared buffer per sender.
struct StreamFixture {
  int n = 0;
  std::vector<Message> lane;
  std::vector<StreamView> streams;
};

StreamFixture stream_fixture(int n, int b) {
  StreamFixture f;
  f.n = n;
  const std::size_t nn = static_cast<std::size_t>(n);
  f.lane.resize(nn);
  f.streams.resize(nn * nn);
  Rng rng(0x57ea + static_cast<std::uint64_t>(n));
  for (std::size_t i = 0; i < nn; ++i) {
    std::vector<std::size_t> len(nn, 0);
    for (std::size_t j = 0; j < nn; ++j) {
      if (j == i || (i + 2 * j) % 5 == 0) continue;
      len[j] = static_cast<std::size_t>(rng.uniform(static_cast<std::uint64_t>(3 * b + 2)));
    }
    if (i == 1 && nn > 2) len[2] = static_cast<std::size_t>(7 * b + 3);
    for (std::size_t j = 0; j < nn; ++j) {
      f.streams[i * nn + j] = StreamView{&f.lane[i], f.lane[i].size_bits(), len[j]};
      for (std::size_t t = 0; t < len[j]; ++t) f.lane[i].push_bit(rng.coin());
    }
  }
  return f;
}

/// The same pieces through round_fill, one round per b-bit slice: the
/// per-round reference the stream exchange must meter identically.
int round_fill_reference(CliqueUnicast& net, const StreamFixture& f) {
  const std::size_t nn = static_cast<std::size_t>(f.n);
  const std::size_t b = static_cast<std::size_t>(net.bandwidth());
  std::size_t max_len = 0;
  for (const StreamView& st : f.streams) max_len = std::max(max_len, st.len);
  const int rounds = static_cast<int>((max_len + b - 1) / b);
  for (int k = 0; k < rounds; ++k) {
    const std::size_t off = static_cast<std::size_t>(k) * b;
    net.round_fill(
        [&](int i, Message* box) {
          for (std::size_t j = 0; j < nn; ++j) {
            const StreamView& st = f.streams[static_cast<std::size_t>(i) * nn + j];
            if (st.len > off) box[j].append_slice(*st.buf, st.pos + off, std::min(b, st.len - off));
          }
        },
        [](int, const std::vector<Message>&) {});
  }
  return rounds;
}

TEST(EngineDeterminism, StreamExchangeMetersLikeRoundFillAtEveryThreadCount) {
  for (const char* threads : {"1", "4"}) {
    ScopedThreads scoped(threads);
    for (int n : {2, 5, 12}) {
      for (int b : {1, 17, 64}) {
        const StreamFixture f = stream_fixture(n, b);
        std::vector<int> side(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) side[static_cast<std::size_t>(i)] = (i * 7) % 3 == 0;
        CliqueUnicast net(n, b), ref(n, b);
        net.set_cut(side);
        ref.set_cut(side);
        const int rounds = net.exchange_streams(f.streams);
        EXPECT_EQ(rounds, round_fill_reference(ref, f));
        // Every field: totals, cut bits, the per-round edge maximum and the
        // per-player sent and received vectors.
        EXPECT_EQ(net.stats(), ref.stats())
            << "CC_THREADS=" << threads << " n=" << n << " b=" << b;
        EXPECT_GT(net.stats().cut_bits, 0u);
        if (n > 2) {  // the long stream 1 -> 2 fills whole rounds
          EXPECT_EQ(net.stats().max_edge_bits_in_round, static_cast<std::uint64_t>(b));
        }
      }
    }
  }
}

TEST(EngineDeterminism, StreamExchangeRejectsSelfStreamsAndCommitsNothing) {
  const int n = 4;
  Message buf;
  for (int t = 0; t < 40; ++t) buf.push_bit(t % 3 == 0);
  std::vector<StreamView> streams(static_cast<std::size_t>(n * n));
  streams[0 * n + 1] = StreamView{&buf, 0, 30};
  streams[2 * n + 2] = StreamView{&buf, 30, 1};  // player 2 -> itself
  CliqueUnicast net(n, 8);
  EXPECT_THROW(net.exchange_streams(streams), ModelViolation);
  EXPECT_EQ(net.stats(), CliqueUnicast(n, 8).stats());
  // A view outside its buffer is a caller error, also caught before round 0.
  streams[2 * n + 2] = StreamView{};
  streams[3 * n + 0] = StreamView{&buf, 35, 6};
  EXPECT_THROW(net.exchange_streams(streams), PreconditionError);
  EXPECT_EQ(net.stats().rounds, 0);
  streams[3 * n + 0] = StreamView{};
  EXPECT_EQ(net.exchange_streams(streams), 4);
}

TEST(EngineDeterminism, ThreadCountParsing) {
  {
    ScopedThreads scoped("3");
    EXPECT_EQ(cc_thread_count(), 3);
  }
  {
    ScopedThreads scoped("not-a-number");
    EXPECT_EQ(cc_thread_count(), 1);
  }
  {
    ScopedThreads scoped("-2");
    EXPECT_EQ(cc_thread_count(), 1);
  }
}

}  // namespace
}  // namespace cclique
