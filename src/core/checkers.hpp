/**
 * @file
 * The NoCAlert checker bank: one lightweight combinational predicate
 * per Table-1 invariant, evaluated over a router's per-cycle wire
 * record (paper Section 4).
 *
 * Checkers observe the inputs and outputs of the module they guard;
 * they never recompute the module's function (that would be modular
 * redundancy) — they only test the cheap necessary conditions every
 * legal output satisfies. They also never influence router behaviour.
 */

#ifndef NOCALERT_CORE_CHECKERS_HPP
#define NOCALERT_CORE_CHECKERS_HPP

#include <vector>

#include "core/invariant.hpp"
#include "noc/interface.hpp"
#include "noc/network.hpp"
#include "noc/router.hpp"
#include "noc/signals.hpp"

namespace nocalert::core {

/** One raised assertion (a checker firing in a particular cycle). */
struct Assertion
{
    InvariantId id = InvariantId::IllegalTurn;
    noc::Cycle cycle = 0;
    noc::NodeId router = noc::kInvalidNode;
    int port = -1; ///< Port the checker instance guards (-1 = router-wide).
    int vc = -1;   ///< VC involved (-1 when not applicable).
};

/** Static configuration shared by all checker banks of a network. */
struct CheckerContext
{
    const noc::NetworkConfig *config = nullptr;
    const noc::RoutingAlgorithm *routing = nullptr;
};

/**
 * Evaluate all applicable invariance checkers of one router for the
 * cycle described by @p wires, appending raised assertions to @p out.
 *
 * Pure: no state is kept between cycles; everything a checker needs
 * (including pre-cycle register snapshots) is part of the wire record
 * or the router's architectural state, exactly as a hardware checker
 * would tap flops and wires.
 *
 * With @p use_quiescence_shortcut (the default), the per-port checker
 * groups of provably quiescent ports are skipped: a quiescent wire
 * bundle satisfies every checker of that port trivially (certified at
 * start-up by verifyQuiescentInvariant, and by construction of the
 * predicates — every gated condition is zero). The router-wide groups
 * (crossbar, extended allocation-table, ejection) always run, since
 * unit tests and faults can raise them on otherwise quiescent wires.
 * Passing false evaluates every checker unconditionally; both settings
 * produce identical assertions for any wire record.
 */
void evaluateCheckers(const noc::Router &router,
                      const noc::RouterWires &wires,
                      const CheckerContext &ctx,
                      std::vector<Assertion> &out,
                      bool use_quiescence_shortcut = true);

/**
 * One-shot certificate behind the bitmask kernel and the checker
 * shortcut: evaluate a fresh (reset-state) router of @p config with no
 * link inputs and assert that (a) it stays quiescent, (b) its wires
 * satisfy the quiescence predicates, (c) it drives no link outputs,
 * and (d) the full ungated checker bank raises nothing. Aborts via
 * NOCALERT_ASSERT on violation. Cheap enough to run per engine.
 */
void verifyQuiescentInvariant(const noc::NetworkConfig &config);

/**
 * Evaluate the network-level (end-to-end) checkers attached to a
 * network interface, mapping its anomaly wires onto invariants 28
 * and 32.
 */
void evaluateNiCheckers(const noc::NetworkInterface &ni,
                        const noc::NiWires &wires,
                        std::vector<Assertion> &out);

} // namespace nocalert::core

#endif // NOCALERT_CORE_CHECKERS_HPP
