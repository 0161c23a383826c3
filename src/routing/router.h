// Balanced routing on the unicast congested clique (Lenzen [28] substrate).
//
// The routing task: each player i holds a multiset of (destination, payload)
// messages; a *demand* is c-balanced when every player sends at most c*n
// messages and every player is the destination of at most c*n messages.
// Lenzen's PODC'13 result delivers any O(n)-balanced demand in O(1) rounds
// deterministically. The paper uses it as a black box in Theorem 2 (light
// wires, input rebalancing, operator outputs).
//
// We implement three routers over the same interface:
//  * DirectRouter — sends everything straight to its destination; rounds =
//    max per-edge queue (the naive baseline a congested edge punishes);
//  * TwoPhaseRouter — deterministic Lenzen-style relay routing. Every
//    player computes the same relay schedule from the demand's (source,
//    destination) pattern (two_phase_schedule): messages are taken in
//    (destination, sender, index) order, and each goes through the relay
//    that minimises (max, sum) of its two edge loads so far — sender to
//    relay and relay to destination — lowest relay id on ties. The greedy
//    tracks the fractional schedule that sends 1/n of every (sender,
//    destination) group through each relay. Phase 1 scatters to the
//    relays, phase 2 delivers. Computing the schedule costs an O(M + n^2)
//    counting sort plus at most an O(M·n) scan of flat load tables for M
//    messages; a relay at both rows' minimum loads is found from bit masks
//    without the scan.
//    The schedule assumes the demand pattern is common knowledge; the
//    announcement that would make it so is not charged (DESIGN.md §4a).
//  * ValiantRouter — randomized relay choice (ablation baseline; O(c) rounds
//    w.h.p. with slightly worse constants).
//
// Payloads are fixed-width bit strings; a router run reports exact rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/clique_unicast.h"
#include "util/rng.h"

namespace cclique {

/// One message in a routing demand.
struct RoutedMessage {
  int source = 0;
  int dest = 0;
  std::uint64_t payload = 0;  ///< payload value, `payload_bits` wide
};

/// A routing demand: messages plus the payload width in bits.
struct RoutingDemand {
  std::vector<RoutedMessage> messages;
  int payload_bits = 0;

  /// Max over players of outgoing message count.
  std::size_t max_out(int n) const;
  /// Max over players of incoming message count.
  std::size_t max_in(int n) const;
};

/// Result of a routing run.
struct RoutingResult {
  int rounds = 0;
  /// delivered[v] lists (source, payload) pairs received by player v, in
  /// arbitrary order.
  std::vector<std::vector<std::pair<int, std::uint64_t>>> delivered;
};

// All three routers CC_REQUIRE (PreconditionError) that every message
// endpoint is in [0, net.n()) and every payload fits `payload_bits`, before
// any of them indexes by an endpoint.

/// Naive direct delivery. Rounds = max number of messages sharing one
/// directed (source, dest) edge, times ceil(width/b).
RoutingResult route_direct(CliqueUnicast& net, const RoutingDemand& demand);

/// The two-phase router's relay schedule on an n-clique: relay_of[k] is the
/// relay of demand.messages[k] (greedy min-(max, sum) placement; see the
/// header comment). A pure function of n and the messages' endpoints; it
/// never reads a payload. Preconditions: n >= 1, every endpoint in [0, n),
/// fewer than 2^32 messages.
std::vector<int> two_phase_schedule(int n, const RoutingDemand& demand);

/// Deterministic two-phase relay routing (Lenzen-style; see header comment)
/// on the two_phase_schedule relays. Requires every endpoint to be a player
/// and every payload to fit `payload_bits` bits. Rounds =
/// O((max_load/n + 1) * ceil((payload_bits + addressing) / b)).
RoutingResult route_two_phase(CliqueUnicast& net, const RoutingDemand& demand);

/// Randomized Valiant-style relay routing: each message picks a uniform
/// relay. With balanced demands the maximum relay congestion is
/// O(c + log n / log log n) w.h.p.
RoutingResult route_valiant(CliqueUnicast& net, const RoutingDemand& demand, Rng& rng);

}  // namespace cclique
