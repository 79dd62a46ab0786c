#include "core/nocalert.hpp"

#include "core/alert_matrix.hpp"

namespace nocalert::core {

NoCAlertEngine::NoCAlertEngine(noc::Network &network, bool attach_now)
    : network_(network)
{
    ctx_.config = &network.config();
    ctx_.routing = &network.routing();

    // Certify the quiescence invariant the bitmask kernel and the
    // checker shortcut rely on for this configuration (aborts if a
    // quiescent router could ever raise or drive anything).
    verifyQuiescentInvariant(network.config());

    if (attach_now) {
        network.setRouterObserver(
            [this](const noc::Router &router,
                   const noc::RouterWires &wires) {
                observeRouter(router, wires);
            });
        network.setNiObserver(
            [this](const noc::NetworkInterface &ni,
                   const noc::NiWires &wires) { observeNi(ni, wires); });
        network.setPackedObserver(
            [this](const noc::Router &router,
                   const noc::PackedCycleEvents &ev) {
                observePacked(router, ev);
            });
    }
}

void
NoCAlertEngine::observeRouter(const noc::Router &router,
                              const noc::RouterWires &wires)
{
    scratch_.clear();
    evaluateCheckers(router, wires, ctx_, scratch_);
    for (const Assertion &a : scratch_) {
        log_.record(a);
        if (callback_)
            callback_(a);
    }
}

void
NoCAlertEngine::observePacked(const noc::Router & /*router*/,
                              const noc::PackedCycleEvents &ev)
{
    scratch_.clear();
    expandPackedEvents(ev, scratch_);
    for (const Assertion &a : scratch_) {
        log_.record(a);
        if (callback_)
            callback_(a);
    }
}

void
NoCAlertEngine::observeNi(const noc::NetworkInterface &ni,
                          const noc::NiWires &wires)
{
    scratch_.clear();
    evaluateNiCheckers(ni, wires, scratch_);
    for (const Assertion &a : scratch_) {
        log_.record(a);
        if (callback_)
            callback_(a);
    }
}

} // namespace nocalert::core
