// cc_perfbench: wall-clock benchmark of the congested-clique simulator.
//
//   cc_perfbench --workload <apsp_sparse|circuit_sim|serving_rw> --seed <n>
//                --seconds <s> --trace <0|1> [--small] [--ops <k>]
//                [--corrupt-op <i>] [--trace-out <file>]
//
// Measured passes run at CC_THREADS=1. --trace 0 measures the end-to-end
// metrics with no tracing. --trace 1 makes three passes of a third of the
// time each: untraced (the trace-overhead base), traced (spans and probes),
// and untraced at CC_THREADS=min(nproc, 4); it reports the per-layer
// metrics. Every op's model cost must agree across the three passes. The last stdout line is the result
// object; every line before it starts with '#'. Every op is followed by one
// timed run of the yardstick (yardstick.h), and op times are reported in
// yardsticks.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "linalg/kernels.h"
#include "metrics.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"
#include "yardstick.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool small = false;
  std::uint64_t ops = 0;  ///< fixed op count instead of a time budget
  long long corrupt_op = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cc_perfbench: %s\nusage: cc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--small] [--ops <k>] [--corrupt-op <i>] "
               "[--trace-out <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (a == "--trace") {
      o.trace = std::atoi(value().c_str());
    } else if (a == "--small") {
      o.small = true;
    } else if (a == "--ops") {
      o.ops = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--corrupt-op") {
      o.corrupt_op = std::atoll(value().c_str());
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const std::string& n : workload_names()) known = known || n == o.workload;
  if (!known) usage("unknown or missing --workload");
  if (!have_seed) usage("missing --seed");
  if (!have_seconds || !(o.seconds > 0)) usage("--seconds must be positive");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Pass {
  std::unique_ptr<Workload> wl;
  std::vector<OpRecord> ops;
  std::vector<double> setup_s;
  double wall_s = 0;
};

/// Sets up at least `setups` times and, up to 64 set-ups, until
/// `setup_seconds` have passed (fast set-ups get a steadier median), then
/// runs ops on the last set-up for `seconds`.
Pass run_pass(const Options& o, double seconds, int setups, double setup_seconds,
              Tracer* tracer) {
  WorkloadConfig cfg;
  cfg.seed = o.seed;
  cfg.small = o.small;
  cfg.corrupt_op = o.corrupt_op;
  Pass p;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < setups || (i < 64 && since(setup_start) < setup_seconds); ++i) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> wl = make_workload(o.workload, cfg);
    wl->setup();
    p.setup_s.push_back(since(t0));
    wl->check_warmup();
    p.wl = std::move(wl);
    if (!p.wl->warmup_ok()) break;
  }
  if (tracer != nullptr) {
    Tracer discard;
    p.wl->warm_traced(discard);
    p.wl->reset_counts();
  }
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    if (o.ops > 0 ? i >= o.ops : (i > 0 && since(start) >= seconds)) break;
    if (tracer != nullptr) tracer->set_op(i);
    p.ops.push_back(p.wl->run_op(i, tracer));
    p.ops.back().yardstick_s = yardstick_s();
  }
  p.wall_s = since(start);
  return p;
}

/// Fails every op whose model cost differs from the first op seen with the
/// same input key (within and across passes).
void check_digests(std::map<std::uint64_t, ModelDigest>* seen, Pass* p, const char* pass) {
  for (OpRecord& r : p->ops) {
    if (!r.ok) continue;
    const auto [it, fresh] = seen->emplace(r.key, r.model);
    if (!fresh && it->second != r.model) {
      r.ok = false;
      r.error = std::string("model cost differs from an earlier run of the same input (") +
                pass + " pass)";
    }
  }
}

std::uint64_t model_hash(const Pass& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const ModelDigest& w = p.wl->warmup_model();
  mix(w.rounds), mix(w.bits), mix(w.messages);
  for (const OpRecord& r : p.ops) mix(r.key), mix(r.model.rounds), mix(r.model.bits), mix(r.model.messages);
  return h;
}

enum class Ops { kAll, kResident, kRebuilt };

std::vector<double> latencies_ms(const Pass& p, Ops which) {
  std::vector<double> v;
  for (const OpRecord& r : p.ops) {
    if (which == Ops::kResident && r.rebuilt) continue;
    if (which == Ops::kRebuilt && !r.rebuilt) continue;
    v.push_back(r.latency_s * 1e3);
  }
  return v;
}

/// Each op's time in yardsticks: its latency over the yardstick run right
/// after it.
std::vector<double> relative(const Pass& p) {
  std::vector<double> v;
  for (const OpRecord& r : p.ops) v.push_back(r.yardstick_s > 0 ? r.latency_s / r.yardstick_s : 0);
  return v;
}

std::size_t failures(const Pass& p, std::string* first) {
  std::size_t f = 0;
  for (const OpRecord& r : p.ops) {
    if (r.ok) continue;
    if (f == 0 && first->empty()) {
      *first = "op " + std::to_string(r.index) + ": " + r.error;
    }
    ++f;
  }
  return f;
}

void print_tail(const char* label, const std::vector<double>& v, double q, double scale,
                const char* unit) {
  std::printf("# %s: %.6g %s (p%g of %zu samples, %zu beyond%s)\n", label,
              quantile(v, q) * scale, unit, q * 100, v.size(), samples_beyond(v, q),
              samples_beyond(v, q) >= 10 ? "" : "; fewer than 10, not a stable tail");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  // CC_THREADS defaults to the hardware concurrency, so it is pinned. The
  // measured passes use one thread: extra threads do not speed any workload
  // up yet (comm.engine.thread_speedup), and every parallel round then waits
  // on wake-ups of other CPUs, which on a shared host add noise to every
  // timing. The wide pass measures what min(nproc, 4) threads buy.
  const unsigned hw = std::thread::hardware_concurrency();
  const int nproc = hw == 0 ? 1 : static_cast<int>(hw);
  const int wide = nproc < 4 ? nproc : 4;
  setenv("CC_THREADS", "1", 1);

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace,
              o.small ? " small" : "");
  std::printf("# host nproc=%d CC_THREADS=1 (wide pass %d) kernel=%s build=%s "
              "loop=closed clients=1\n",
              nproc, wide, cclique::kernel_name(cclique::active_kernel()),
              PERFBENCH_BUILD_TYPE);

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_failure;
  std::map<std::uint64_t, ModelDigest> seen;

  auto warmup_failures = [&](const Pass& p, const Pass* ref) {
    std::uint64_t f = 0;
    if (!p.wl->warmup_ok()) {
      if (first_failure.empty()) first_failure = "warm-up: " + p.wl->warmup_error();
      ++f;
    } else if (ref != nullptr && p.wl->warmup_model() != ref->wl->warmup_model()) {
      if (first_failure.empty()) first_failure = "warm-up model cost differs between passes";
      ++f;
    }
    return f;
  };

  if (o.trace == 0) {
    Pass p = run_pass(o, o.seconds, /*setups=*/7, /*setup_seconds=*/2, nullptr);
    check_digests(&seen, &p, "untraced");
    attempted = p.ops.size() + 1;
    failed = failures(p, &first_failure) + warmup_failures(p, nullptr);
    const std::vector<double> lat = latencies_ms(p, Ops::kAll);
    const std::vector<double> rel = relative(p);
    double units = 0, busy_s = 0, busy_rel = 0;
    std::vector<double> yard_ms;
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
      units += static_cast<double>(p.ops[i].units);
      busy_s += p.ops[i].latency_s;
      busy_rel += rel[i];
      yard_ms.push_back(p.ops[i].yardstick_s * 1e3);
    }

    std::printf("# sizes %s\n", p.wl->describe().c_str());
    std::printf("# inputs_digest=%016llx model_digest=%016llx warmup_model rounds=%llu "
                "bits=%llu messages=%llu\n",
                static_cast<unsigned long long>(p.wl->inputs_digest()),
                static_cast<unsigned long long>(model_hash(p)),
                static_cast<unsigned long long>(p.wl->warmup_model().rounds),
                static_cast<unsigned long long>(p.wl->warmup_model().bits),
                static_cast<unsigned long long>(p.wl->warmup_model().messages));
    std::printf("# samples ops=%zu setup=%zu wall_s=%.3f timed_s=%.3f units=%.0f\n",
                p.ops.size(), p.setup_s.size(), p.wall_s, busy_s, units);
    std::printf("# yardstick_ms p50=%.6g min=%.6g max=%.6g (host speed during the run)\n",
                quantile(yard_ms, 0.5), quantile(yard_ms, 0), quantile(yard_ms, 1));
    std::printf("# in seconds: op_p50_ms=%.6g ops_per_s=%.6g (per second of timed op time)\n",
                quantile(lat, 0.5), busy_s > 0 ? units / busy_s : 0);
    print_tail("op_p80_ms", lat, 0.8, 1, "ms");
    print_tail("op_p80_rel", rel, 0.8, 1, "yardsticks");
    if (o.workload == "serving_rw") {
      print_tail("read_p50_us", latencies_ms(p, Ops::kResident), 0.5, 1e3, "us");
      print_tail("read_p99_us", latencies_ms(p, Ops::kResident), 0.99, 1e3, "us");
      print_tail("rebuild_p50_ms", latencies_ms(p, Ops::kRebuilt), 0.5, 1, "ms");
      print_tail("rebuild_p90_ms", latencies_ms(p, Ops::kRebuilt), 0.9, 1, "ms");
    }
    std::printf("# fail_ratio=%.6g (%llu of %llu ops, warm-up included)%s%s\n",
                attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted), first_failure.empty() ? "" : "; ",
                first_failure.c_str());

    metrics.push_back({"setup_s", quantile(p.setup_s, 0.5), "s"});
    metrics.push_back({"ops_per_yardstick", busy_rel > 0 ? units / busy_rel : 0, "1/yardstick"});
    metrics.push_back({"op_p50_rel", quantile(rel, 0.5), "yardsticks"});
    metrics.push_back({"op_p80_rel", quantile(rel, 0.8), "yardsticks"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    const double third = o.seconds / 3;
    Pass a = run_pass(o, third, 1, 0, nullptr);
    Tracer tracer;
    Pass b = run_pass(o, third, 1, 0, &tracer);
    const double round_us = probe_round_us(b.wl->players(), b.wl->bandwidth(), 20);
    setenv("CC_THREADS", std::to_string(wide).c_str(), 1);
    Pass c = run_pass(o, third, 1, 0, nullptr);
    setenv("CC_THREADS", "1", 1);

    check_digests(&seen, &a, "untraced");
    check_digests(&seen, &b, "traced");
    check_digests(&seen, &c, "wide");
    attempted = a.ops.size() + b.ops.size() + c.ops.size() + 3;
    failed = failures(a, &first_failure) + failures(b, &first_failure) +
             failures(c, &first_failure) + warmup_failures(a, nullptr) +
             warmup_failures(b, &a) + warmup_failures(c, &a);

    const LayerTimes lt = tracer.layer_times();
    const TraceCounts& k = b.wl->counts();
    const double ops = static_cast<double>(b.ops.size());
    const double total = lt.op_s;
    auto share = [&](Layer l) { return total > 0 ? lt[l] / total : 0.0; };
    auto per_op = [&](double x) { return ops > 0 ? x / ops : 0.0; };
    auto calls = [&](Layer l) {
      return per_op(static_cast<double>(lt.calls[static_cast<std::size_t>(l)]));
    };
    auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
    ModelDigest sum;
    for (const OpRecord& r : b.ops) {
      sum.rounds += r.model.rounds;
      sum.bits += r.model.bits;
      sum.messages += r.model.messages;
    }
    const double p50_a = quantile(relative(a), 0.5);
    const double p50_b = quantile(relative(b), 0.5);
    const double p50_c = quantile(relative(c), 0.5);
    // Threads speed up the op but not the yardstick run after it, and idle
    // workers slow that run, so thread_speedup compares milliseconds.
    const double ms_a = quantile(latencies_ms(a, Ops::kAll), 0.5);
    const double ms_c = quantile(latencies_ms(c, Ops::kAll), 0.5);
    double share_sum = 0;
    for (int l = 0; l < kLayerCount; ++l) share_sum += share(static_cast<Layer>(l));
    const double req = static_cast<double>(k.requests);

    std::printf("# sizes %s\n", b.wl->describe().c_str());
    std::printf("# samples untraced=%zu traced=%zu wide=%zu (ops per pass)\n", a.ops.size(),
                b.ops.size(), c.ops.size());
    std::printf("# op_p50_rel untraced=%.6g traced=%.6g wide=%.6g; op_p50_ms untraced=%.6g "
                "wide=%.6g\n",
                p50_a, p50_b, p50_c, ms_a, ms_c);
    std::printf("# layer self time over %zu traced ops (%.6g s; measured spans, "
                "probe-derived where a layer runs inside another call):\n",
                b.ops.size(), total);
    for (int l = 0; l < kLayerCount; ++l) {
      const Layer layer = static_cast<Layer>(l);
      std::printf("#   %-20s %10.6f s  %6.2f%%  %6llu spans\n", layer_name(layer), lt[layer],
                  100 * share(layer),
                  static_cast<unsigned long long>(lt.calls[static_cast<std::size_t>(l)]));
    }
    std::printf("# shares sum to %.4f = 1 + clamped_share=%.4f (%.6g s of negative "
                "self time clamped, where probes overshoot)\n",
                share_sum, ratio(lt.clamped_s, total), lt.clamped_s);
    std::printf("# fail_ratio=%.6g (%llu of %llu ops over three passes)%s%s\n",
                ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted), first_failure.empty() ? "" : "; ",
                first_failure.c_str());
    if (!o.trace_out.empty()) {
      if (tracer.write_chrome_json(o.trace_out)) {
        std::printf("# trace %zu spans -> %s\n", tracer.spans().size(), o.trace_out.c_str());
      } else {
        std::printf("# trace could not be written to %s\n", o.trace_out.c_str());
        ++failed;
      }
    }

    metrics = {
        {"core.plan.calls", calls(Layer::kPlan), "calls/op"},
        {"core.plan.busy_s", per_op(lt[Layer::kPlan]), "s/op"},
        {"core.plan.share", share(Layer::kPlan), "ratio"},
        {"comm.relay.calls", calls(Layer::kRelay), "calls/op"},
        {"comm.relay.busy_s", per_op(lt[Layer::kRelay]), "s/op"},
        {"comm.relay.bits", per_op(static_cast<double>(k.layer.relay_bits)), "bits/op"},
        {"comm.relay.share", share(Layer::kRelay), "ratio"},
        {"comm.engine.rounds", per_op(static_cast<double>(sum.rounds)), "rounds/op"},
        {"comm.engine.messages", per_op(static_cast<double>(sum.messages)), "messages/op"},
        {"comm.engine.bits", per_op(static_cast<double>(sum.bits)), "bits/op"},
        {"comm.engine.round_us", round_us, "us/round"},
        {"comm.engine.thread_speedup", ratio(ms_a, ms_c), "x"},
        {"routing.two_phase_ms", ratio(k.route_probe_ms, static_cast<double>(k.route_probes)), "ms/call"},
        {"routing.share", share(Layer::kRouting), "ratio"},
        {"circuit.compile_ms", per_op(k.compile_s * 1e3), "ms/op"},
        {"circuit.run_ms", per_op(k.run_s * 1e3), "ms/op"},
        {"circuit.share", share(Layer::kCircuit), "ratio"},
        {"core.block_mm.calls", calls(Layer::kBlockMm), "calls/op"},
        {"core.block_mm.self_s", per_op(lt[Layer::kBlockMm]), "s/op"},
        {"core.block_mm.share", share(Layer::kBlockMm), "ratio"},
        {"core.sparse_mm.calls", calls(Layer::kSparseMm), "calls/op"},
        {"core.sparse_mm.self_s", per_op(lt[Layer::kSparseMm]), "s/op"},
        {"core.sparse_mm.sparse_step_ratio",
         ratio(static_cast<double>(k.sparse_squarings), static_cast<double>(k.squarings)), "ratio"},
        {"core.sparse_mm.share", share(Layer::kSparseMm), "ratio"},
        {"linalg.kernels.busy_s", per_op(lt[Layer::kKernels]), "s/op"},
        {"linalg.kernels.share", share(Layer::kKernels), "ratio"},
        {"linalg.kernels.ops", per_op(k.layer.kernel_ops), "ops/op"},
        {"linalg.kernels.bytes", per_op(k.layer.kernel_bytes), "bytes/op"},
        {"core.query_service.hits", ratio(static_cast<double>(k.hits), req), "count/req"},
        {"core.query_service.misses", ratio(static_cast<double>(k.misses), req), "count/req"},
        {"core.query_service.hit_ratio",
         ratio(static_cast<double>(k.hits), static_cast<double>(k.hits + k.misses)), "ratio"},
        {"core.query_service.evictions", ratio(static_cast<double>(k.evictions), req), "count/req"},
        {"core.query_service.rebuilds.apsp", ratio(static_cast<double>(k.rebuild_apsp), req),
         "count/req"},
        {"core.query_service.rebuilds.counting",
         ratio(static_cast<double>(k.rebuild_counting), req), "count/req"},
        {"core.query_service.rebuilds.hops", ratio(static_cast<double>(k.rebuild_hops), req),
         "count/req"},
        {"core.query_service.answer_ns_per_query",
         ratio(k.read_answer_s * 1e9, static_cast<double>(k.read_queries)), "ns/query"},
        {"core.query_service.share", share(Layer::kQueryService), "ratio"},
        {"model.rounds", static_cast<double>(b.wl->warmup_model().rounds), "count"},
        {"model.bits", static_cast<double>(b.wl->warmup_model().bits), "count"},
        {"model.messages", static_cast<double>(b.wl->warmup_model().messages), "count"},
        {"bench.unattributed.share", share(Layer::kBench), "ratio"},
        {"bench.trace_overhead", ratio(p50_b, p50_a), "x"},
    };
  }

  std::printf("%s\n", result_json(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}
