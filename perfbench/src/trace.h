// In-memory span recorder for the traced benchmark pass.
//
// A span covers one call the benchmark makes into a layer's public function.
// Layers the benchmark cannot call on their own (the plan inside
// min_plus_mm, the relay inside sparse_min_plus_mm, ...) are measured by
// probes: after the op, the benchmark repeats that layer's public call with
// identical arguments and records it as a probe span whose parent is the real
// span it explains. Self time is a span's duration minus its children's
// durations, so per op the self times of all spans sum
// to the op span's duration exactly; a probe that overshoots the call it
// explains shows as a negative self time, which the share check reports.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer {
  kBench,         ///< the op itself: time outside every named layer
  kPlan,          ///< core.plan
  kRelay,         ///< comm.relay
  kRouting,       ///< routing
  kCircuit,       ///< circuit
  kBlockMm,       ///< core.block_mm
  kSparseMm,      ///< core.sparse_mm
  kKernels,       ///< linalg.kernels
  kQueryService,  ///< core.query_service
  kCount,
};

constexpr int kLayerCount = static_cast<int>(Layer::kCount);
const char* layer_name(Layer layer);

using Clock = std::chrono::steady_clock;

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 for an op's root span
  std::uint64_t op = 0;
  const char* name = "";
  Layer layer = Layer::kBench;
  bool probe = false;
  Clock::time_point start;
  Clock::time_point end;

  double seconds() const { return std::chrono::duration<double>(end - start).count(); }
};

/// Per-layer self seconds of one or more ops.
struct LayerTimes {
  std::array<double, kLayerCount> self_s{};
  std::array<std::uint64_t, kLayerCount> calls{};  ///< spans per layer
  double op_s = 0;           ///< summed root-span durations
  double clamped_s = 0;      ///< negative per-op layer self time clamped to zero

  double& operator[](Layer l) { return self_s[static_cast<std::size_t>(l)]; }
  double operator[](Layer l) const { return self_s[static_cast<std::size_t>(l)]; }
};

class Tracer {
 public:
  /// Opens a span. Its parent is the innermost open span, or `parent` when
  /// given (a probe names the real span it explains, which has closed).
  int begin(const char* name, Layer layer, bool probe = false, int parent = -2);
  void end(int id);

  /// Id of the innermost open span, or -1.
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  void set_op(std::uint64_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer over every recorded op.
  LayerTimes layer_times() const;
  /// Self seconds of each span, indexed by span id.
  std::vector<double> self_seconds() const;

  /// Writes every span as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t op_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, Layer layer, bool probe = false,
             int parent = -2)
      : t_(t), id_(t ? t->begin(name, layer, probe, parent) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
