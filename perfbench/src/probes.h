// Probes: repeat a layer's public call with the arguments it received
// inside a compound call, on a separate engine, and record it as a probe
// span under the real span it explains (see trace.h). Used only by the
// traced pass; the untraced pass never runs a probe.
#pragma once

#include <cstdint>

#include "comm/clique_unicast.h"
#include "core/algebraic_mm.h"
#include "core/block_mm.h"
#include "core/sparse_mm.h"
#include "linalg/mat61.h"
#include "linalg/tropical.h"
#include "routing/router.h"
#include "trace.h"

namespace perfbench {

/// Work counted by the traced pass beyond span times.
struct LayerCounts {
  std::uint64_t relay_bits = 0;  ///< bits the relay probes moved
  double kernel_ops = 0;         ///< computed semiring operations
  double kernel_bytes = 0;       ///< computed operand/result bytes
};

/// unicast_payloads_relayed over zero-filled payloads of the given length
/// matrix (the relay's cost depends on lengths only).
void probe_relay(Tracer& t, int parent, const char* name, cclique::CliqueUnicast& net,
                 const cclique::blockmm::LengthMatrix& len, LayerCounts* counts);

/// The layers inside one dense product of `a` with itself over the tropical
/// (min_plus_mm) or F_{2^61-1} (algebraic_mm_m61) semiring: both relay hops
/// and the m^3 block kernels, plus the plan when the real call computes it
/// (`plan_in_call`; apsp_run instead passes one plan to every squaring).
/// With `executor`, blockmm::run_block_mm is run again with `plan` as a
/// core.block_mm probe and the relay and kernel probes become its children,
/// for products that run inside another public call.
void probe_dense_tropical(Tracer& t, int parent, cclique::CliqueUnicast& net,
                          const cclique::TropicalMat& a, const cclique::AlgebraicMmPlan& plan,
                          bool executor, bool plan_in_call, LayerCounts* counts);
void probe_dense_m61(Tracer& t, int parent, cclique::CliqueUnicast& net,
                     const cclique::Mat61& a, const cclique::AlgebraicMmPlan& plan,
                     bool executor, bool plan_in_call, LayerCounts* counts);

/// The layers inside sparse_min_plus_mm(cur, cur): its plan, both relay hops
/// and the m^3 sparse block kernels; `dense` is cur as a dense matrix.
void probe_sparse_tropical(Tracer& t, int parent, cclique::CliqueUnicast& net,
                           const cclique::Csr61& cur, const cclique::TropicalMat& dense,
                           const cclique::SparseNnzProfile& profile,
                           LayerCounts* counts);

/// Mean microseconds of one full engine round: every player sends a
/// bandwidth-wide message to every other player.
double probe_round_us(int n, int bandwidth, int rounds);

/// Milliseconds of route_two_phase on a balanced demand of `records`
/// messages of `payload_bits` bits each, recorded under `parent`.
double probe_two_phase(Tracer& t, int parent, cclique::CliqueUnicast& net, std::size_t records,
                       int payload_bits);

}  // namespace perfbench
