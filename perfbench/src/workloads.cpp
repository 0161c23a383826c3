#include "workloads.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "circuit/builders.h"
#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "core/apsp.h"
#include "core/circuit_sim.h"
#include "core/query_service.h"
#include "core/sparse_mm.h"
#include "graph/generators.h"
#include "linalg/sparse.h"
#include "reference.h"
#include "util/rng.h"

namespace perfbench {

using namespace cclique;

namespace {

constexpr int kBandwidth = 64;

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Independent random stream per (seed, purpose, index).
Rng stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
  return Rng(fnv(fnv(fnv(kFnvBasis, seed), purpose), index));
}

std::uint64_t hash_graph(std::uint64_t h, const Graph& g,
                         const std::vector<std::uint32_t>& weights) {
  h = fnv(h, static_cast<std::uint64_t>(g.num_vertices()));
  for (const Edge& e : g.edges()) h = fnv(h, (static_cast<std::uint64_t>(e.u) << 32) | e.v);
  for (std::uint32_t w : weights) h = fnv(h, w);
  return h;
}

std::vector<std::uint32_t> random_weights(const Graph& g, Rng& rng) {
  std::vector<std::uint32_t> w(g.num_edges());
  for (auto& x : w) x = static_cast<std::uint32_t>(1 + rng.uniform(1 << 10));
  return w;
}

ModelDigest delta(const CommStats& before, const CommStats& after) {
  ModelDigest d;
  d.rounds = static_cast<std::uint64_t>(after.rounds - before.rounds);
  d.bits = after.total_bits - before.total_bits;
  d.messages = after.total_messages - before.total_messages;
  return d;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Squarings of an APSP chain on n vertices: ceil(log2(n - 1)).
int squarings_for(int n) {
  int s = 0;
  while ((1 << s) < n - 1) ++s;
  return s;
}

void fail(OpRecord* r, const std::string& why) {
  if (r->ok) r->error = why;
  r->ok = false;
}

/// D_0 .. D_{S-1} of an APSP squaring chain starting at `d`, by naive
/// min-plus squaring: the operands each distributed squaring receives.
std::vector<TropicalMat> chain_of(TropicalMat d) {
  std::vector<TropicalMat> out;
  for (int s = 0; s < squarings_for(d.n()); ++s) {
    TropicalMat next = min_plus_square_naive(d);
    out.push_back(std::move(d));
    d = std::move(next);
  }
  return out;
}

// ------------------------------------------------------------ apsp_sparse

/// Back-to-back apsp_run_sparse at n = 64 over a pool of inputs alternating
/// random trees and weighted G(n, 3/n). The pool cycles, so each input's
/// reference, planned cost and squaring chain are built once, outside the
/// timed region.
class ApspSparse final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    n_ = cfg_.small ? 16 : 64;
    const int pool = cfg_.small ? 4 : 16;
    inputs_.clear();
    std::uint64_t h = kFnvBasis;
    for (int i = 0; i < pool; ++i) {
      Rng rng = stream(cfg_.seed, 1, static_cast<std::uint64_t>(i));
      Input in;
      in.g = i % 2 == 0 ? random_tree(n_, rng) : gnp(n_, 3.0 / n_, rng);
      in.w = random_weights(in.g, rng);
      h = hash_graph(h, in.g, in.w);
      inputs_.push_back(std::move(in));
    }
    inputs_digest_ = h;
    net_ = std::make_unique<CliqueUnicast>(n_, kBandwidth);
    probe_net_ = std::make_unique<CliqueUnicast>(n_, kBandwidth);
    warm_ = execute(~0ULL, nullptr, &warm_res_);
  }

  void check_warmup() override {
    dense_plan_ = algebraic_mm_plan(n_, 61, kBandwidth);
    verify(&warm_, &warm_res_, nullptr);
    record_warmup(warm_);
  }

  OpRecord run_op(std::uint64_t index, Tracer* tracer) override {
    ApspSparseResult res;
    OpRecord r = execute(index, tracer, &res);
    verify(&r, &res, tracer);
    return r;
  }

  std::string describe() const override {
    return "n=" + std::to_string(n_) + " bandwidth=" + std::to_string(kBandwidth) +
           " pool=" + std::to_string(inputs_.size()) +
           " inputs=random_tree|gnp(n,3/n) weights=1..1024";
  }
  int players() const override { return n_; }
  int bandwidth() const override { return kBandwidth; }

 private:
  struct Input {
    Graph g;
    std::vector<std::uint32_t> w;
    bool ready = false;              // the fields below are built
    TropicalMat reference;           // apsp_dijkstra_reference
    ModelDigest planned;             // rounds and bits from the per-squaring plans
    std::vector<TropicalMat> chain;  // D_s of every squaring (probe operands)
  };

  /// The timed call; with a tracer it runs in the op's root span.
  OpRecord execute(std::uint64_t index, Tracer* t, ApspSparseResult* res) {
    OpRecord r;
    r.index = index;
    r.key = index % inputs_.size();
    const Input& in = inputs_[r.key];
    const CommStats before = net_->stats();
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan op(t, "apsp_run_sparse", Layer::kBench);
      *res = apsp_run_sparse(*net_, in.g, in.w);
      r.latency_s = since(t0);
      span_ = op.id();
    } catch (const std::exception& e) {
      r.latency_s = since(t0);
      fail(&r, std::string("threw: ") + e.what());
    }
    r.model = delta(before, net_->stats());
    return r;
  }

  void verify(OpRecord* r, ApspSparseResult* res, Tracer* t) {
    if (!r->ok) return;
    Input& in = inputs_[r->key];
    if (!in.ready) {
      in.reference = apsp_dijkstra_reference(in.g, in.w);
      in.planned = planned_cost(in);
      in.chain = chain_of(TropicalMat::from_weighted_graph(in.g, in.w));
      in.ready = true;
    }
    TropicalMat& dist = res->dist;
    if (corrupt(r->index) && dist.n() > 1) dist.set(0, 1, dist.get(0, 1) + 1);
    if (dist != in.reference) fail(r, "distances differ from apsp_dijkstra_reference");
    if (r->model.rounds != in.planned.rounds || r->model.bits != in.planned.bits) {
      fail(r, "rounds/bits differ from the per-squaring plans");
    }
    if (t != nullptr) probe_steps(*t, in, res->steps, r);
  }

  // The layers inside apsp_run_sparse: each squaring's public calls are
  // repeated on the probe engine with D_s from the naive chain, as probes
  // under the op's span, and the products' plan, relay and kernels are
  // probed under those. Each repeated squaring must take the branch and
  // the rounds the real one took.
  void probe_steps(Tracer& t, const Input& in, const std::vector<ApspSparseStep>& steps,
                   OpRecord* r) {
    if (steps.size() != in.chain.size()) {
      fail(r, "squaring count differs from ceil(log2(n - 1))");
      return;
    }
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const TropicalMat& d = in.chain[s];
      Csr61 cur;
      SparseNnzProfile profile;
      SparseMmPlan plan;
      {
        ScopedSpan sp(&t, "Csr61::from_dense", Layer::kKernels, true, span_);
        cur = Csr61::from_dense(d);
      }
      {
        ScopedSpan sp(&t, "declared_nnz_profile", Layer::kSparseMm, true, span_);
        profile = declared_nnz_profile(cur, cur);
      }
      {
        ScopedSpan sp(&t, "sparse_mm_plan", Layer::kPlan, true, span_);
        plan = sparse_mm_plan(n_, 61, kBandwidth, profile);
      }
      ++counts_.squarings;
      counts_.layer.kernel_ops += static_cast<double>(n_) * n_;
      counts_.layer.kernel_bytes +=
          static_cast<double>(n_) * n_ * 8.0 + static_cast<double>(cur.nnz()) * 12.0;
      const bool sparse = sparse_backend_preferred(plan);
      const int rounds_before = probe_net_->stats().rounds;
      TropicalMat next;
      int product = -1;
      if (sparse) {
        ScopedSpan sp(&t, "sparse_min_plus_mm", Layer::kSparseMm, true, span_);
        sparse_min_plus_mm(*probe_net_, cur, cur, &next);
        product = sp.id();
      } else {
        {
          ScopedSpan sp(&t, "run_nnz_announcement", Layer::kSparseMm, true, span_);
          run_nnz_announcement(*probe_net_, profile, plan.count_bits);
        }
        ScopedSpan sp(&t, "min_plus_mm", Layer::kBlockMm, true, span_);
        min_plus_mm(*probe_net_, d, d, &next);
        product = sp.id();
      }
      if (sparse != steps[s].used_sparse ||
          probe_net_->stats().rounds - rounds_before != steps[s].rounds) {
        fail(r, "a probed squaring took another branch or round count than the real one");
        return;
      }
      if (sparse) {
        ++counts_.sparse_squarings;
        probe_sparse_tropical(t, product, *probe_net_, cur, d, profile, &counts_.layer);
      } else {
        probe_dense_tropical(t, product, *probe_net_, d, dense_plan_,
                             /*executor=*/false, /*plan_in_call=*/true, &counts_.layer);
      }
    }
  }

  /// Rounds and bits the per-squaring plans predict. The finite entries of
  /// D_s are the pairs within 2^s hops, so each squaring's nnz profile comes
  /// from BFS, not from the protocol's own matrices.
  ModelDigest planned_cost(const Input& in) const {
    const std::vector<int> hops = hop_distances(in.g);
    const blockmm::BlockGrid g(n_);
    const AlgebraicMmPlan& dense = dense_plan_;
    ModelDigest out;
    for (int s = 0; s < squarings_for(n_); ++s) {
      SparseNnzProfile p;
      p.n = n_;
      p.grid = g.m;
      p.a_block_nnz.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(g.m), 0);
      const int reach = 1 << s;
      for (int v = 0; v < n_; ++v) {
        for (int c = 0; c < n_; ++c) {
          const int h = hops[static_cast<std::size_t>(v) * static_cast<std::size_t>(n_) +
                             static_cast<std::size_t>(c)];
          if (h < 0 || h > reach) continue;
          ++p.a_block_nnz[static_cast<std::size_t>(v) * static_cast<std::size_t>(g.m) +
                          static_cast<std::size_t>(c / g.bs)];
          ++p.a_nnz;
        }
      }
      p.b_block_nnz = p.a_block_nnz;
      p.b_nnz = p.a_nnz;
      const SparseMmPlan plan = sparse_mm_plan(n_, 61, kBandwidth, p);
      if (sparse_backend_preferred(plan)) {
        out.rounds += static_cast<std::uint64_t>(plan.total_rounds);
        out.bits += plan.total_bits;
      } else {
        out.rounds += static_cast<std::uint64_t>(plan.announce_rounds + dense.total_rounds);
        out.bits += plan.announce_bits + dense.total_bits;
      }
    }
    return out;
  }

  int n_ = 0;
  AlgebraicMmPlan dense_plan_;  // one dense squaring's planned cost
  std::vector<Input> inputs_;
  std::unique_ptr<CliqueUnicast> net_;
  std::unique_ptr<CliqueUnicast> probe_net_;
  int span_ = -1;  // the last traced op's span
  OpRecord warm_;
  ApspSparseResult warm_res_;
};

// ------------------------------------------------------------ circuit_sim

/// Back-to-back CircuitSimulation compile plus run_round_robin of a fresh
/// random layered circuit per op: n^2 inputs, width n^2/2, depth 8,
/// fan-in 6, on n = 48 players at the recommended bandwidth. At n = 128 an
/// op's working set (about 75 MB) made its time follow the host's memory
/// traffic; at n = 48 it is about 14 MB.
class CircuitSim final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    n_ = cfg_.small ? 12 : 48;
    const Circuit c = make_circuit(0);
    inputs_digest_ = fnv(fnv(kFnvBasis, static_cast<std::uint64_t>(c.num_gates())),
                         c.num_wires());
    for (int g = 0; g < c.num_gates(); ++g) {
      for (int in : c.gate(g).inputs) inputs_digest_ = fnv(inputs_digest_, in);
      inputs_digest_ = fnv(inputs_digest_, static_cast<std::uint64_t>(c.gate(g).kind));
    }
    warm_ = execute(~0ULL, nullptr, &warm_run_);
  }

  void check_warmup() override {
    verify(&warm_, &warm_run_, nullptr);
    record_warmup(warm_);
  }

  OpRecord run_op(std::uint64_t index, Tracer* tracer) override {
    Run run;
    OpRecord r = execute(index, tracer, &run);
    verify(&r, &run, tracer);
    return r;
  }

  std::string describe() const override {
    const int in = n_ * n_;
    return "n=" + std::to_string(n_) + " inputs=" + std::to_string(in) +
           " width=" + std::to_string(in / 2) + " depth=8 fanin=6 bandwidth=" +
           std::to_string(bw_) + " (recommended_bandwidth)";
  }
  int players() const override { return n_; }
  int bandwidth() const override { return bw_; }

 private:
  struct Run {
    Circuit circuit;
    std::vector<bool> inputs;
    std::vector<bool> outputs;
    std::unique_ptr<CircuitSimulation> sim;
    int run_span = -1;
  };

  /// Input generation, then the timed compile and run.
  OpRecord execute(std::uint64_t index, Tracer* tracer, Run* run) {
    OpRecord r;
    r.index = index;
    r.key = index;
    run->circuit = make_circuit(index);
    run->inputs.assign(static_cast<std::size_t>(run->circuit.num_inputs()), false);
    Rng rng = stream(cfg_.seed, 3, index);
    for (auto&& x : run->inputs) x = rng.coin();

    CircuitSimResult res;
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan op(tracer, "circuit op", Layer::kBench);
      {
        ScopedSpan sp(tracer, "CircuitSimulation::CircuitSimulation", Layer::kCircuit);
        run->sim = std::make_unique<CircuitSimulation>(run->circuit, n_);
      }
      const Clock::time_point t1 = Clock::now();
      {
        ScopedSpan sp(tracer, "run_round_robin", Layer::kCircuit);
        CliqueUnicast net(n_, run->sim->plan().recommended_bandwidth);
        res = run->sim->run_round_robin(net, run->inputs);
        run->run_span = sp.id();
      }
      r.latency_s = since(t0);
      if (tracer != nullptr) {
        counts_.compile_s += std::chrono::duration<double>(t1 - t0).count();
        counts_.run_s += since(t1);
      }
    } catch (const std::exception& e) {
      r.latency_s = since(t0);
      fail(&r, std::string("threw: ") + e.what());
      return r;
    }
    r.model.rounds = static_cast<std::uint64_t>(res.stats.rounds);
    r.model.bits = res.stats.total_bits;
    r.model.messages = res.stats.total_messages;
    run->outputs = std::move(res.outputs);
    bw_ = run->sim->plan().recommended_bandwidth;
    return r;
  }

  void verify(OpRecord* r, Run* run, Tracer* tracer) {
    if (!r->ok) return;
    if (corrupt(r->index) && !run->outputs.empty()) run->outputs[0] = !run->outputs[0];
    if (run->outputs != run->circuit.evaluate(run->inputs)) {
      fail(r, "outputs differ from Circuit::evaluate");
    }
    if (tracer != nullptr) probe_routing(*tracer, run->run_span, run->circuit, *run->sim);
  }

  Circuit make_circuit(std::uint64_t index) const {
    Rng rng = stream(cfg_.seed, 2, index);
    const int inputs = n_ * n_;
    return random_layered_circuit(inputs, inputs / 2, 8, 6, rng);
  }

  // The light-to-light records each layer routes, from the compiled
  // ownership: one per (consumer player, source gate) pair not yet known to
  // the consumer. Heavy gates take the aggregation path and are skipped.
  void probe_routing(Tracer& t, int parent, const Circuit& c, const CircuitSimulation& sim) {
    const CircuitSimPlan& plan = sim.plan();
    const std::vector<int> fan_out = c.fan_outs();
    auto heavy = [&](int g) {
      return c.gate(g).inputs.size() + static_cast<std::size_t>(fan_out[static_cast<std::size_t>(g)]) >=
             plan.heavy_threshold;
    };
    auto owner = [&](int g) { return plan.owner[static_cast<std::size_t>(g)]; };
    const int gate_bits = [&] {
      int b = 0;
      while ((1ULL << b) < static_cast<std::uint64_t>(std::max(1, c.num_gates()))) ++b;
      return b + 1;
    }();
    CliqueUnicast net(n_, plan.recommended_bandwidth);
    std::unordered_set<std::uint64_t> known;
    const auto layers = c.layers();
    for (std::size_t layer = 1; layer < layers.size(); ++layer) {
      std::size_t records = 0;
      for (int g : layers[layer]) {
        if (heavy(g)) continue;
        for (int src : c.gate(g).inputs) {
          if (heavy(src) || owner(src) == owner(g)) continue;
          const std::uint64_t k =
              (static_cast<std::uint64_t>(owner(g)) << 32) | static_cast<std::uint32_t>(src);
          if (known.insert(k).second) ++records;
        }
      }
      if (records == 0) continue;
      counts_.route_probe_ms += probe_two_phase(t, parent, net, records, gate_bits);
      ++counts_.route_probes;
    }
  }

  int n_ = 0;
  int bw_ = 0;
  OpRecord warm_;
  Run warm_run_;
};

// ------------------------------------------------------------- serving_rw

/// One QueryService over weighted G(64, 6/n) with e20's cap: one graph
/// version's artifact set fits, two do not. Each request is a batch of 1024
/// mixed queries; every 16th request is a write (alternately add a random
/// absent edge, then revert it) followed by its batch, which rebuilds.
class ServingRw final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    n_ = cfg_.small ? 16 : 64;
    per_batch_ = cfg_.small ? 64 : 1024;
    Rng rng = stream(cfg_.seed, 4, 0);
    base_ = gnp(n_, 6.0 / n_, rng);
    base_w_ = random_weights(base_, rng);
    inputs_digest_ = hash_graph(kFnvBasis, base_, base_w_);
    const std::size_t nn = static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
    const std::size_t set_words = (nn + static_cast<std::size_t>(n_)) + nn +
                                  static_cast<std::size_t>(squarings_for(n_) + 1) * nn;
    QueryService::Config config;
    config.bandwidth = kBandwidth;
    config.capacity_words = 2 * set_words - 1;
    svc_ = std::make_unique<QueryService>(base_, base_w_, config);
    base_fp_ = svc_->fingerprint();
    probe_net_ = std::make_unique<CliqueUnicast>(n_, kBandwidth);
    refs_.clear();
    added_ = {-1, -1};
    warm_ = serve(~0ULL, /*write=*/false, nullptr, &warm_req_);
  }

  void check_warmup() override {
    apsp_plan_ = apsp_plan(n_, kBandwidth);
    counting_plan_ = counting_artifacts_plan(n_, kBandwidth);
    verify(&warm_, &warm_req_, nullptr);
    record_warmup(warm_);
  }

  OpRecord run_op(std::uint64_t index, Tracer* tracer) override {
    Request req;
    OpRecord r = serve(index, /*write=*/index % 16 == 15, tracer, &req);
    verify(&r, &req, tracer);
    return r;
  }

  // A read request, then the probes of a full rebuild: reads never probe
  // the products, so they alone would leave the rebuild probes cold.
  void warm_traced(Tracer& discard) override {
    Workload::warm_traced(discard);
    ServingPlan all;
    all.run_apsp = all.run_counting = all.run_hops = true;
    probe_answer(discard, -1, ArtifactNeed{true, true, true}, all, reference());
  }

  std::string describe() const override {
    return "n=" + std::to_string(n_) + " graph=gnp(n,6/n) weights=1..1024 batch=" +
           std::to_string(per_batch_) + " write_every=16 cap=one version's artifact set";
  }
  int players() const override { return n_; }
  int bandwidth() const override { return kBandwidth; }

 private:
  struct VersionRef {
    ServingReference ref;
    std::vector<TropicalMat> chain;       // weighted squaring chain (probe operands)
    std::vector<TropicalMat> unit_chain;  // unit-weight squaring chain
  };

  /// Deterministic mixed stream over all seven kinds, as e20's mixed_stream.
  std::vector<Query> queries(std::uint64_t index) const {
    Rng rng = stream(cfg_.seed, 5, index);
    std::vector<Query> qs;
    qs.reserve(static_cast<std::size_t>(per_batch_));
    for (int i = 0; i < per_batch_; ++i) {
      const int u = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n_)));
      const int v = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n_)));
      switch (rng.uniform(8)) {
        case 0: qs.push_back(Query::ecc(v)); break;
        case 1: qs.push_back(Query::diameter()); break;
        case 2: qs.push_back(Query::radius()); break;
        case 3: qs.push_back(Query::triangles()); break;
        case 4: qs.push_back(Query::four_cycles()); break;
        case 5: qs.push_back(Query::reach(u, v, static_cast<int>(rng.uniform(8)))); break;
        default: qs.push_back(Query::dist(u, v)); break;
      }
    }
    return qs;
  }

  /// References of the base version and the current one; older mutated
  /// versions never return, so they are dropped to keep the benchmark's own
  /// memory out of peak_rss_mb.
  const VersionRef& reference() {
    auto it = refs_.find(svc_->fingerprint());
    if (it != refs_.end()) return it->second;
    for (auto old = refs_.begin(); old != refs_.end();) {
      old = old->first == base_fp_ ? std::next(old) : refs_.erase(old);
    }
    const Graph& g = svc_->graph();
    std::vector<std::uint32_t> w;
    for (const Edge& e : g.edges()) {
      w.push_back(e.u == added_.first && e.v == added_.second ? added_w_
                                                              : base_weight(e.u, e.v));
    }
    VersionRef v;
    v.ref = serving_reference(g, w);
    v.chain = chain_of(TropicalMat::from_weighted_graph(g, w));
    v.unit_chain =
        chain_of(TropicalMat::from_weighted_graph(g, std::vector<std::uint32_t>(w.size(), 1)));
    return refs_.emplace(svc_->fingerprint(), std::move(v)).first->second;
  }

  std::uint32_t base_weight(int u, int v) const {
    const std::vector<Edge> edges = base_.edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].u == u && edges[e].v == v) return base_w_[e];
    }
    return 0;
  }

  static std::uint64_t expected(const Query& q, const ServingReference& r) {
    const int n = r.n;
    switch (q.kind) {
      case QueryKind::kDist: return r.dist.get(q.u, q.v);
      case QueryKind::kEcc: return r.ecc[static_cast<std::size_t>(q.v)];
      case QueryKind::kDiameter: return r.diameter;
      case QueryKind::kRadius: return r.radius;
      case QueryKind::kTriangles: return r.triangles;
      case QueryKind::kFourCycles: return r.four_cycles;
      case QueryKind::kReach: {
        if (q.u == q.v) return 1;
        const int h = r.hops[static_cast<std::size_t>(q.u) * static_cast<std::size_t>(n) +
                             static_cast<std::size_t>(q.v)];
        return h >= 0 && h <= q.k ? 1 : 0;
      }
    }
    return ~0ULL;
  }

  /// The edge a write adds: a seeded random pair absent from the base graph.
  std::pair<int, int> absent_edge(std::uint64_t write) const {
    Rng rng = stream(cfg_.seed, 6, write);
    for (;;) {
      int u = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n_)));
      int v = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n_)));
      if (u == v || base_.has_edge(u, v)) continue;
      if (u > v) std::swap(u, v);
      return {u, v};
    }
  }

  struct Request {
    std::vector<Query> queries;
    ArtifactNeed need;
    BatchResult res;
    std::uint64_t evictions = 0;
    double answer_s = 0;
    int answer_span = -1;
  };

  /// Builds the request, then the timed write and answer().
  OpRecord serve(std::uint64_t index, bool write, Tracer* t, Request* req) {
    OpRecord r;
    r.index = index;
    r.key = index;
    req->queries = queries(index);
    std::pair<int, int> edge{-1, -1};
    std::uint32_t edge_w = 0;
    const bool add = write && added_.first < 0;
    if (write) {
      if (add) {
        edge = absent_edge(index / 16);
        edge_w = static_cast<std::uint32_t>(1 + stream(cfg_.seed, 7, index).uniform(1 << 10));
      } else {
        edge = added_;
      }
    }
    ArtifactNeed& need = req->need;
    for (const Query& q : req->queries) {
      need.apsp = need.apsp || q.kind == QueryKind::kDist || q.kind == QueryKind::kEcc ||
                  q.kind == QueryKind::kDiameter || q.kind == QueryKind::kRadius;
      need.counting = need.counting || q.kind == QueryKind::kTriangles ||
                      q.kind == QueryKind::kFourCycles;
      need.hops = need.hops || q.kind == QueryKind::kReach;
    }

    const std::uint64_t evictions_before = svc_->cache_evictions();
    const CommStats before = svc_->stats();
    // Timed: the write and answer() only. Filling the batch is the client's
    // work, and it must follow the write, whose version the batch carries.
    double write_s = 0;
    try {
      ScopedSpan op(t, write ? "write request" : "read request", Layer::kBench);
      if (write) {
        const Clock::time_point tw = Clock::now();
        ScopedSpan sp(t, add ? "QueryService::add_edge" : "QueryService::remove_edge",
                      Layer::kQueryService);
        const bool changed = add ? svc_->add_edge(edge.first, edge.second, edge_w)
                                 : svc_->remove_edge(edge.first, edge.second);
        write_s = since(tw);
        if (!changed) throw std::runtime_error("write did not change the graph");
      }
      QueryBatch batch = svc_->new_batch();
      for (const Query& q : req->queries) batch.push(q);
      const Clock::time_point ta = Clock::now();
      {
        ScopedSpan sp(t, "QueryService::answer", Layer::kQueryService);
        req->res = svc_->answer(batch);
        req->answer_span = sp.id();
      }
      req->answer_s = since(ta);
      r.latency_s = write_s + req->answer_s;
    } catch (const std::exception& e) {
      r.latency_s = write_s + req->answer_s;
      fail(&r, std::string("threw: ") + e.what());
      return r;
    }
    if (write) {
      if (add) {
        added_ = edge;
        added_w_ = edge_w;
      } else {
        added_ = {-1, -1};
      }
    }
    r.model = delta(before, svc_->stats());
    r.units = req->res.answers.size();
    r.rebuilt = req->res.misses > 0;
    req->evictions = svc_->cache_evictions() - evictions_before;
    return r;
  }

  void verify(OpRecord* r, Request* req, Tracer* t) {
    if (!r->ok) return;
    BatchResult& res = req->res;
    const ArtifactNeed& need = req->need;
    // Planned cost from the plan functions alone: each class the batch
    // missed costs its protocol's plan, a hit costs nothing.
    const ApspPlan& ap = apsp_plan_;
    const CountingArtifactPlan& cp = counting_plan_;
    const ServingPlan& planned = res.plan;
    std::uint64_t rounds = 0, bits = 0;
    if (planned.run_apsp) rounds += ap.total_rounds, bits += ap.total_bits;
    if (planned.run_hops) rounds += ap.total_rounds, bits += ap.total_bits;
    if (planned.run_counting) rounds += cp.total_rounds, bits += cp.total_bits;
    const std::uint64_t classes = (need.apsp ? 1 : 0) + (need.counting ? 1 : 0) + (need.hops ? 1 : 0);
    const std::uint64_t ran = (planned.run_apsp ? 1 : 0) + (planned.run_counting ? 1 : 0) +
                              (planned.run_hops ? 1 : 0);
    if (r->model.rounds != rounds || r->model.bits != bits) {
      fail(r, "rounds/bits differ from apsp_plan/counting_artifacts_plan");
    }
    if (res.hits + res.misses != classes || res.misses != ran) {
      fail(r, "hit/miss accounting differs from the classes rebuilt");
    }

    const VersionRef& ref = reference();
    if (corrupt(r->index) && !res.answers.empty()) {
      res.answers[0] ^= 1;
    }
    const std::vector<Query>& qs = req->queries;
    if (res.answers.size() != qs.size()) {
      fail(r, "answer count differs from the batch size");
    } else {
      for (std::size_t i = 0; i < qs.size(); ++i) {
        if (res.answers[i] != expected(qs[i], ref.ref)) {
          fail(r, "answer differs from the reference");
          break;
        }
      }
    }

    if (t != nullptr) {
      ++counts_.requests;
      counts_.hits += res.hits;
      counts_.misses += res.misses;
      counts_.evictions += req->evictions;
      counts_.rebuild_apsp += planned.run_apsp ? 1 : 0;
      counts_.rebuild_counting += planned.run_counting ? 1 : 0;
      counts_.rebuild_hops += planned.run_hops ? 1 : 0;
      if (!r->rebuilt) {
        counts_.read_answer_s += req->answer_s;
        counts_.read_queries += res.answers.size();
      }
      probe_answer(*t, req->answer_span, need, planned, ref);
    }
  }

  // The layers inside answer(): serving_plan every batch, and for each class
  // rebuilt its plan plus one product probe per squaring (apsp_run shares one
  // plan across its squarings, counting_artifacts_run plans its product).
  void probe_answer(Tracer& t, int parent, const ArtifactNeed& need, const ServingPlan& plan,
                    const VersionRef& ref) {
    {
      const ServingResidency before{!plan.run_apsp && need.apsp,
                                    !plan.run_counting && need.counting,
                                    !plan.run_hops && need.hops};
      ScopedSpan sp(&t, "serving_plan", Layer::kPlan, true, parent);
      serving_plan(n_, kBandwidth, need, before);
    }
    auto apsp_chain = [&](const std::vector<TropicalMat>& chain) {
      {
        ScopedSpan sp(&t, "apsp_plan", Layer::kPlan, true, parent);
        apsp_plan(n_, kBandwidth);
      }
      for (const TropicalMat& d : chain) {
        probe_dense_tropical(t, parent, *probe_net_, d, apsp_plan_.product,
                             /*executor=*/true, /*plan_in_call=*/false, &counts_.layer);
      }
    };
    if (plan.run_apsp) apsp_chain(ref.chain);
    if (plan.run_counting) {
      {
        ScopedSpan sp(&t, "counting_artifacts_plan", Layer::kPlan, true, parent);
        counting_artifacts_plan(n_, kBandwidth);
      }
      probe_dense_m61(t, parent, *probe_net_, Mat61::adjacency(svc_->graph()),
                      counting_plan_.product, /*executor=*/true, /*plan_in_call=*/true,
                      &counts_.layer);
    }
    if (plan.run_hops) apsp_chain(ref.unit_chain);
  }

  int n_ = 0;
  int per_batch_ = 0;
  Graph base_;
  std::vector<std::uint32_t> base_w_;
  std::unique_ptr<QueryService> svc_;
  std::unique_ptr<CliqueUnicast> probe_net_;
  std::uint64_t base_fp_ = 0;
  std::map<std::uint64_t, VersionRef> refs_;  // by QueryService fingerprint
  std::pair<int, int> added_{-1, -1};
  std::uint32_t added_w_ = 0;
  ApspPlan apsp_plan_;                // planned cost of one APSP chain
  CountingArtifactPlan counting_plan_;  // planned cost of the counting pack
  OpRecord warm_;
  Request warm_req_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"apsp_sparse", "circuit_sim", "serving_rw"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadConfig& cfg) {
  if (name == "apsp_sparse") return std::make_unique<ApspSparse>(cfg);
  if (name == "circuit_sim") return std::make_unique<CircuitSim>(cfg);
  if (name == "serving_rw") return std::make_unique<ServingRw>(cfg);
  return nullptr;
}

}  // namespace perfbench
