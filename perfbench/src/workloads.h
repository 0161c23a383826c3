// The benchmark's workloads. Each runs as a closed loop with one client: an
// op starts only when the previous one returned. The seed reaches only the
// input generators here; the library receives the generated inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "trace.h"

namespace perfbench {

struct WorkloadConfig {
  std::uint64_t seed = 1;
  bool small = false;           ///< self-test sizes: each op takes milliseconds
  long long corrupt_op = -1;    ///< self-test: corrupt this op's answer before the check
};

/// Exact model cost of one op, from CommStats.
struct ModelDigest {
  std::uint64_t rounds = 0;
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;
  bool operator==(const ModelDigest& o) const {
    return rounds == o.rounds && bits == o.bits && messages == o.messages;
  }
  bool operator!=(const ModelDigest& o) const { return !(*this == o); }
};

struct OpRecord {
  std::uint64_t index = 0;
  std::uint64_t key = 0;  ///< input identity: equal keys must give equal digests
  bool rebuilt = false;   ///< serving: the batch missed at least one class
  double latency_s = 0;   ///< the timed library calls only
  double yardstick_s = 0; ///< the yardstick timed right after the op
  std::size_t units = 1;  ///< queries answered (serving_rw) or 1
  bool ok = true;
  std::string error;      ///< why the op failed
  ModelDigest model;
};

/// Layer counters of the traced pass that spans do not carry.
struct TraceCounts {
  LayerCounts layer;
  std::uint64_t squarings = 0;
  std::uint64_t sparse_squarings = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rebuild_apsp = 0;
  std::uint64_t rebuild_counting = 0;
  std::uint64_t rebuild_hops = 0;
  double read_answer_s = 0;
  std::uint64_t read_queries = 0;
  double compile_s = 0;
  double run_s = 0;
  double route_probe_ms = 0;
  std::uint64_t route_probes = 0;
};

class Workload {
 public:
  explicit Workload(const WorkloadConfig& cfg) : cfg_(cfg) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Input generation, engine or service construction and one warm-up op
  /// (for serving_rw: the first cold build). This is what setup_s times, so
  /// the warm-up is checked later, by check_warmup().
  virtual void setup() = 0;
  /// Checks the warm-up op against the references and the plans.
  virtual void check_warmup() = 0;
  /// One checked op; with a tracer, its calls run in spans and the layers
  /// inside them are probed after the op.
  virtual OpRecord run_op(std::uint64_t index, Tracer* tracer) = 0;
  /// Runs the traced code paths once into a discarded tracer, so the first
  /// recorded probe is not a cold one. The default runs one traced op whose
  /// index no measured op has.
  virtual void warm_traced(Tracer& discard) { run_op(~0ULL - 1, &discard); }
  void reset_counts() { counts_ = TraceCounts{}; }

  /// Model cost of the warm-up op: a pure function of the seed.
  const ModelDigest& warmup_model() const { return warmup_; }
  bool warmup_ok() const { return warmup_ok_; }
  const std::string& warmup_error() const { return warmup_error_; }
  /// Hash of every generated input of the setup.
  std::uint64_t inputs_digest() const { return inputs_digest_; }
  /// Sizes, for the result header.
  virtual std::string describe() const = 0;
  /// Players and bandwidth of the engine round probe.
  virtual int players() const = 0;
  virtual int bandwidth() const = 0;
  const TraceCounts& counts() const { return counts_; }

 protected:
  void record_warmup(const OpRecord& r) {
    warmup_ = r.model;
    warmup_ok_ = r.ok;
    warmup_error_ = r.error;
  }

  bool corrupt(std::uint64_t index) const {
    return cfg_.corrupt_op >= 0 && index == static_cast<std::uint64_t>(cfg_.corrupt_op);
  }

  WorkloadConfig cfg_;
  TraceCounts counts_;
  std::uint64_t inputs_digest_ = 0;

 private:
  ModelDigest warmup_;
  bool warmup_ok_ = true;
  std::string warmup_error_;
};

const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadConfig& cfg);

}  // namespace perfbench
