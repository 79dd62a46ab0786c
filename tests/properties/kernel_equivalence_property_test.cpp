/**
 * @file
 * Differential proof of the fast kernel: for every configuration in
 * the matrix — injection rates, seeds, VC counts, mesh sizes, with
 * and without injected faults (warm and cycle-0), detection-only and
 * full recovery stack — a simulation on the bitmask kernel must be
 * bit-identical to the same simulation on the dense kernel in every
 * observable: the ejection logs (cycle, node, flit), the aggregate
 * statistics, the complete NoCAlert assertion stream, and the
 * complete ForEVeR alert stream (composed as the fault campaign
 * composes it, so its allocation comparator sees only branchy-path
 * routers on the bitmask kernel). This harness is what licenses
 * shipping the bitmask kernel as the default.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/nocalert.hpp"
#include "fault/injector.hpp"
#include "fault/site.hpp"
#include "forever/forever.hpp"
#include "noc/network.hpp"
#include "recovery/orchestrator.hpp"

namespace nocalert::noc {
namespace {

struct KernelCase
{
    int mesh;             ///< Mesh width == height.
    unsigned vcs;
    double rate;
    std::uint64_t seed;
    bool inject;          ///< Arm a fault.
    Cycle onset;          ///< Fault onset cycle (0 = cycle-0 fault).
    std::uint64_t siteSeed;
    /** Full recovery stack: end-to-end retransmission, QAdaptive
     *  routing, and the quarantine-and-purge orchestrator. */
    bool recovery = false;
    fault::FaultKind kind = fault::FaultKind::Transient;
    /** Enable the extended (group-9) output-table checks. */
    bool extended = false;
    /** Which of the stratified sample's sites to arm (one per signal
     *  class in catalog order: 0 = WriteEnable, 3 = Sa1Grant, ...).
     *  One byte, like signal below, so both sit in the struct's tail
     *  padding: gtest prints sizeof(KernelCase) into each case's name. */
    std::uint8_t siteIndex = 0;
    /** The signal class siteIndex names; the armed site must be one. */
    fault::SignalClass signal = fault::SignalClass::WriteEnable;
};

std::string
caseName(const testing::TestParamInfo<KernelCase> &info)
{
    const KernelCase &c = info.param;
    std::string name = "m" + std::to_string(c.mesh) + "_v" +
                       std::to_string(c.vcs) + "_r" +
                       std::to_string(static_cast<int>(c.rate * 1000)) +
                       "_s" + std::to_string(c.seed);
    if (c.inject)
        name += "_f" + std::to_string(c.onset) + "_ss" +
                std::to_string(c.siteSeed);
    if (c.kind == fault::FaultKind::Permanent)
        name += "_perm";
    if (c.recovery)
        name += "_rec";
    if (c.extended)
        name += "_ext";
    if (c.siteIndex != 0)
        name += "_i" + std::to_string(c.siteIndex);
    return name;
}

/** Everything a run can externally produce. */
struct RunObservables
{
    std::vector<EjectionRecord> ejections;
    NetworkStats stats;
    std::vector<core::Assertion> alerts;
    std::vector<forever::ForeverAlert> foreverAlerts;
    std::uint64_t routerEvals = 0;
    fault::FaultSite armed; ///< The injected site (when c.inject).

    // Recovery-stack observables (zero without recovery).
    std::uint64_t retransmits = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t abandoned = 0;
    unsigned recoveryActions = 0;
    std::uint64_t purgedFlits = 0;
};

RunObservables
simulate(const KernelCase &c, KernelMode mode)
{
    NetworkConfig config;
    config.width = c.mesh;
    config.height = c.mesh;
    config.router.numVcs = c.vcs;
    config.router.extendedChecks = c.extended;
    if (c.recovery) {
        config.retransmit.enabled = true;
        config.routing = RoutingAlgo::QAdaptive;
    }

    TrafficSpec traffic;
    traffic.injectionRate = c.rate;
    traffic.seed = c.seed;
    traffic.stopCycle = 600;

    Network net(config, traffic);
    net.setKernelMode(mode);

    // NoCAlert and ForEVeR observe one run side by side, wired the way
    // FaultCampaign::runSingle wires them.
    core::NoCAlertEngine engine(net, /*attach_now=*/false);
    const forever::ForeverConfig fc;
    forever::ForeverModel fever(net, fc, /*attach_now=*/false);
    net.setPackedObserver(
        [&](const Router &router, const PackedCycleEvents &ev) {
            engine.observePacked(router, ev);
        });
    net.setRouterObserver(
        [&](const Router &router, const RouterWires &wires) {
            engine.observeRouter(router, wires);
            fever.observeRouter(router, wires);
        });
    net.setNiObserver(
        [&](const NetworkInterface &ni, const NiWires &wires) {
            engine.observeNi(ni, wires);
            fever.observeNi(ni, wires);
        });

    std::optional<recovery::RecoveryOrchestrator> orch;
    if (c.recovery)
        orch.emplace(net, engine);
    net.setCycleObserver([&](const Network &n) {
        fever.onCycleEnd(n);
        if (orch)
            orch->onCycleEnd(n.cycle());
    });

    RunObservables obs;
    fault::FaultInjector injector;
    if (c.inject) {
        const auto sites = fault::FaultSiteCatalog::sampleNetwork(
            config, std::max(8u, c.siteIndex + 1u), c.siteSeed);
        obs.armed = sites.at(c.siteIndex);
        fault::FaultSpec spec;
        spec.site = obs.armed;
        spec.cycle = c.onset;
        spec.kind = c.kind;
        injector.arm(spec);
        injector.attach(net);
    }

    net.run(600);
    net.drain(c.recovery ? 8000 : 6000);
    net.run(fc.epochLength + 2); // ForEVeR's epoch horizon

    obs.ejections = net.collectEjections();
    obs.stats = net.stats();
    obs.alerts = engine.log().alerts();
    obs.foreverAlerts = fever.alerts();
    obs.routerEvals = net.routerEvaluations();
    for (NodeId node = 0; node < config.numNodes(); ++node) {
        obs.retransmits += net.ni(node).retransmits();
        obs.duplicates += net.ni(node).duplicatesSuppressed();
        obs.abandoned += net.ni(node).packetsAbandoned();
    }
    if (orch) {
        obs.recoveryActions = orch->stats().actions;
        obs.purgedFlits = orch->stats().purgedFlits;
    }
    return obs;
}

/** Field-by-field comparison of @p fast against the dense oracle. */
void
expectSameObservables(const RunObservables &dense,
                      const RunObservables &fast, const char *label)
{
    SCOPED_TRACE(label);

    // Ejection logs: same flits at the same nodes at the same cycles.
    ASSERT_EQ(dense.ejections.size(), fast.ejections.size());
    for (std::size_t i = 0; i < dense.ejections.size(); ++i) {
        EXPECT_EQ(dense.ejections[i].cycle, fast.ejections[i].cycle);
        EXPECT_EQ(dense.ejections[i].node, fast.ejections[i].node);
        EXPECT_EQ(dense.ejections[i].flit, fast.ejections[i].flit);
    }

    // Statistics.
    EXPECT_EQ(dense.stats.packetsCreated, fast.stats.packetsCreated);
    EXPECT_EQ(dense.stats.packetsInjected, fast.stats.packetsInjected);
    EXPECT_EQ(dense.stats.packetsEjected, fast.stats.packetsEjected);
    EXPECT_EQ(dense.stats.flitsInjected, fast.stats.flitsInjected);
    EXPECT_EQ(dense.stats.flitsEjected, fast.stats.flitsEjected);
    EXPECT_EQ(dense.stats.latencySum, fast.stats.latencySum);

    // Complete assertion streams, field by field, in arrival order.
    ASSERT_EQ(dense.alerts.size(), fast.alerts.size());
    for (std::size_t i = 0; i < dense.alerts.size(); ++i) {
        EXPECT_EQ(dense.alerts[i].id, fast.alerts[i].id);
        EXPECT_EQ(dense.alerts[i].cycle, fast.alerts[i].cycle);
        EXPECT_EQ(dense.alerts[i].router, fast.alerts[i].router);
        EXPECT_EQ(dense.alerts[i].port, fast.alerts[i].port);
        EXPECT_EQ(dense.alerts[i].vc, fast.alerts[i].vc);
    }
    ASSERT_EQ(dense.foreverAlerts.size(), fast.foreverAlerts.size());
    for (std::size_t i = 0; i < dense.foreverAlerts.size(); ++i) {
        EXPECT_EQ(dense.foreverAlerts[i].source,
                  fast.foreverAlerts[i].source);
        EXPECT_EQ(dense.foreverAlerts[i].cycle,
                  fast.foreverAlerts[i].cycle);
        EXPECT_EQ(dense.foreverAlerts[i].node, fast.foreverAlerts[i].node);
    }

    // The recovery stack's own observables: retransmission counters
    // and quarantine-and-purge actions must agree exactly too.
    EXPECT_EQ(dense.retransmits, fast.retransmits);
    EXPECT_EQ(dense.duplicates, fast.duplicates);
    EXPECT_EQ(dense.abandoned, fast.abandoned);
    EXPECT_EQ(dense.recoveryActions, fast.recoveryActions);
    EXPECT_EQ(dense.purgedFlits, fast.purgedFlits);
}

class KernelEquivalence : public testing::TestWithParam<KernelCase>
{
};

TEST_P(KernelEquivalence, FastKernelsBitIdenticalToDense)
{
    const KernelCase &c = GetParam();
    const RunObservables dense = simulate(c, KernelMode::Dense);
    const RunObservables bitmask = simulate(c, KernelMode::Bitmask);

    expectSameObservables(dense, bitmask, "bitmask");

    if (c.inject) {
        EXPECT_EQ(dense.armed.signal, c.signal) << dense.armed.describe();
    }

    // A grant fault trips the allocation comparator; make sure the
    // grant-fault cases still do.
    const fault::SignalClass armed = dense.armed.signal;
    if (armed == fault::SignalClass::Sa1Grant ||
        armed == fault::SignalClass::Sa2Grant ||
        armed == fault::SignalClass::Va2Grant) {
        EXPECT_TRUE(std::any_of(
            dense.foreverAlerts.begin(), dense.foreverAlerts.end(),
            [](const forever::ForeverAlert &alert) {
                return alert.source ==
                       forever::ForeverAlert::Source::AllocationComparator;
            }));
    }

    // And the fast kernel must actually have skipped work (at these
    // loads a dense run evaluates strictly more routers), except when
    // a raw tap pin forces density.
    if (!c.inject) {
        EXPECT_LT(bitmask.routerEvals, dense.routerEvals);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, KernelEquivalence,
    testing::Values(
        // Clean runs across rates, seeds, VC counts, mesh sizes.
        KernelCase{4, 4, 0.02, 1, false, 0, 0},
        KernelCase{4, 4, 0.05, 2, false, 0, 0},
        KernelCase{4, 4, 0.12, 3, false, 0, 0},
        KernelCase{4, 2, 0.05, 4, false, 0, 0},
        KernelCase{4, 8, 0.05, 5, false, 0, 0},
        KernelCase{3, 4, 0.08, 6, false, 0, 0},
        KernelCase{8, 4, 0.05, 7, false, 0, 0},
        KernelCase{6, 4, 0.20, 8, false, 0, 0},
        // Injected faults: cycle-0 (idle network) and warm.
        KernelCase{4, 4, 0.05, 10, true, 0, 21},
        KernelCase{4, 4, 0.05, 11, true, 0, 22},
        KernelCase{4, 4, 0.08, 12, true, 300, 23},
        KernelCase{4, 4, 0.05, 13, true, 300, 24},
        KernelCase{4, 2, 0.08, 14, true, 150, 25},
        KernelCase{5, 4, 0.05, 15, true, 450, 26},
        // Recovery stack: clean (protocol overhead only), transient
        // faults, and permanent faults that exercise quarantine,
        // purge, retransmission, and the retry-pending active set.
        KernelCase{4, 4, 0.05, 30, false, 0, 0, true},
        KernelCase{4, 4, 0.08, 31, true, 300, 41, true},
        KernelCase{4, 4, 0.05, 32, true, 150, 42, true,
                   fault::FaultKind::Permanent},
        KernelCase{5, 4, 0.05, 33, true, 300, 43, true,
                   fault::FaultKind::Permanent},
        KernelCase{4, 2, 0.08, 34, true, 0, 44, true,
                   fault::FaultKind::Intermittent},
        // Extended (group-9) checks: the bitmask fast path re-derives
        // suspectOut after every fast cycle, so these runs exercise
        // that screen clean and faulted.
        KernelCase{4, 4, 0.08, 50, false, 0, 0, false,
                   fault::FaultKind::Transient, true},
        KernelCase{4, 4, 0.05, 51, true, 300, 52, false,
                   fault::FaultKind::Transient, true},
        // Arbiter grant faults: the cases that trip ForEVeR's
        // allocation comparator, which on the bitmask kernel sees only
        // branchy-path routers.
        KernelCase{4, 4, 0.08, 62, true, 300, 63, false,
                   fault::FaultKind::Permanent, false, 3,
                   fault::SignalClass::Sa1Grant},
        KernelCase{4, 4, 0.08, 66, true, 300, 67, false,
                   fault::FaultKind::Permanent, false, 5,
                   fault::SignalClass::Sa2Grant},
        KernelCase{4, 4, 0.08, 68, true, 300, 69, false,
                   fault::FaultKind::Transient, false, 8,
                   fault::SignalClass::Va2Grant},
        KernelCase{4, 4, 0.08, 70, true, 300, 71, false,
                   fault::FaultKind::Permanent, false, 8,
                   fault::SignalClass::Va2Grant},
        // Architectural-register faults, applied at CycleStart rather
        // than at a wire tap: VC state, credit counter and schedule
        // valid bit.
        KernelCase{4, 4, 0.08, 72, true, 300, 73, false,
                   fault::FaultKind::Transient, false, 12,
                   fault::SignalClass::StVcState},
        KernelCase{4, 4, 0.08, 74, true, 300, 75, false,
                   fault::FaultKind::Permanent, false, 12,
                   fault::SignalClass::StVcState},
        KernelCase{4, 4, 0.08, 76, true, 300, 77, false,
                   fault::FaultKind::Permanent, false, 16,
                   fault::SignalClass::StCredits},
        KernelCase{4, 4, 0.08, 78, true, 300, 79, false,
                   fault::FaultKind::Transient, false, 20,
                   fault::SignalClass::StSchedValid}),
    caseName);

TEST(KernelEquivalence, CheckerShortcutMatchesUngatedBank)
{
    // Every wire record a live network produces must yield the same
    // assertion list with and without the per-port quiescence
    // shortcut. The dense kernel produces a wire record for every
    // router on every cycle (the bitmask kernel's fast path produces
    // none).
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    TrafficSpec traffic;
    traffic.injectionRate = 0.1;
    traffic.seed = 99;
    traffic.stopCycle = 300;

    Network net(config, traffic);
    net.setKernelMode(KernelMode::Dense);
    core::CheckerContext ctx{&net.config(), &net.routing()};
    std::uint64_t records = 0;
    net.setRouterObserver([&](const Router &router,
                              const RouterWires &wires) {
        std::vector<core::Assertion> gated;
        std::vector<core::Assertion> full;
        core::evaluateCheckers(router, wires, ctx, gated, true);
        core::evaluateCheckers(router, wires, ctx, full, false);
        ASSERT_EQ(gated.size(), full.size());
        ++records;
    });
    net.run(400);
    EXPECT_GT(records, 0u);
}

TEST(KernelEquivalence, DenseCampaignTailDominatesActiveWins)
{
    // The campaign shape: generation stops, the network drains, then
    // a long quiescent tail runs for the ForEVeR epoch horizon. The
    // default kernel's cost in the tail must be near zero.
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    TrafficSpec traffic;
    traffic.injectionRate = 0.05;
    traffic.seed = 7;
    traffic.stopCycle = 200;

    Network net(config, traffic);
    net.run(200);
    ASSERT_TRUE(net.drain(4000));
    const std::uint64_t before = net.routerEvaluations();
    net.run(1500); // quiescent tail
    // drain() keys off buffered/in-flight flits, so a straggler
    // credit may still wake a router once; beyond that the tail must
    // be free (a dense tail would cost 16 * 1500 evaluations).
    EXPECT_LE(net.routerEvaluations() - before, 16u);
}

} // namespace
} // namespace nocalert::noc
