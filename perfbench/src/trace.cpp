#include "trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kPlan: return "core.plan";
    case Layer::kRelay: return "comm.relay";
    case Layer::kRouting: return "routing";
    case Layer::kCircuit: return "circuit";
    case Layer::kBlockMm: return "core.block_mm";
    case Layer::kSparseMm: return "core.sparse_mm";
    case Layer::kKernels: return "linalg.kernels";
    case Layer::kQueryService: return "core.query_service";
    case Layer::kCount: break;
  }
  return "?";
}

int Tracer::begin(const char* name, Layer layer, bool probe, int parent) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent == -2 ? current() : parent;
  s.op = op_;
  s.name = name;
  s.layer = layer;
  s.probe = probe;
  spans_.push_back(s);
  stack_.push_back(s.id);
  spans_.back().start = Clock::now();
  return s.id;
}

void Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  spans_[static_cast<std::size_t>(id)].end = now;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  return self;
}

LayerTimes Tracer::layer_times() const {
  const std::vector<double> self = self_seconds();
  LayerTimes out;
  // A probe can run a little slower or faster than the call it explains;
  // summing each layer's self time per op before clamping lets that jitter
  // cancel, while a layer whose probes overshoot systematically still
  // leaves negative time, which shows as shares summing above 1.
  std::map<std::uint64_t, std::array<double, kLayerCount>> per_op;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) out.op_s += s.seconds();
    per_op[s.op][static_cast<std::size_t>(s.layer)] += self[i];
    ++out.calls[static_cast<std::size_t>(s.layer)];
  }
  for (const auto& [op, layers] : per_op) {
    for (int l = 0; l < kLayerCount; ++l) {
      const double v = layers[static_cast<std::size_t>(l)];
      if (v < 0) {
        out.clamped_s += -v;
      } else {
        out.self_s[static_cast<std::size_t>(l)] += v;
      }
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_seconds();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start - epoch_).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    // Real calls on thread 1, probes on thread 2, so the viewer keeps them
    // apart; the parent link is in args.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                 "\"parent\":%d,\"op\":%llu,\"probe\":%s,"
                 "\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name, layer_name(s.layer), s.probe ? 2 : 1, ts,
                 dur, s.id, s.parent, static_cast<unsigned long long>(s.op),
                 s.probe ? "true" : "false", self[i] * 1e6);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
