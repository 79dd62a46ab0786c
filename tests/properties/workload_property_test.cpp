/**
 * @file
 * The workload-engine extension of the kernel-equivalence and
 * snapshot property suites: for phase-program (with and without
 * bursts) and trace-replay workloads, the active and bitmask kernels
 * must be bit-identical to the dense kernel in every observable, and
 * a network snapshotted mid-phase (or mid-replay) and resumed must
 * replay the exact phase position — the properties the campaign's
 * warm-snapshot methodology rests on.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "core/nocalert.hpp"
#include "fault/injector.hpp"
#include "fault/site.hpp"
#include "noc/network.hpp"
#include "traffic/workload.hpp"

namespace nocalert::noc {
namespace {

namespace fs = std::filesystem;

using traffic::WorkloadKind;
using traffic::WorkloadSpec;

NetworkConfig
mesh4()
{
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    return config;
}

/**
 * A phase program exercising every schedule feature: a pattern and
 * rate change, an idle gap [180, 240), and a hotspot phase.
 */
WorkloadSpec
phasedWorkload(bool burst, bool repeat = false)
{
    WorkloadSpec workload;
    workload.kind = WorkloadKind::Phased;
    workload.phased.seed = 21;
    workload.phased.repeat = repeat;
    workload.phased.segments = {
        {.begin = 0,
         .end = 180,
         .pattern = TrafficPattern::UniformRandom,
         .rate = 0.08,
         .classWeights = {},
         .hotspot = {}},
        {.begin = 240,
         .end = 420,
         .pattern = TrafficPattern::Transpose,
         .rate = 0.15,
         .classWeights = {},
         .hotspot = {}},
        {.begin = 420,
         .end = 600,
         .pattern = TrafficPattern::Hotspot,
         .rate = 0.05,
         .classWeights = {},
         .hotspot = {.node = 5, .fraction = 0.5}},
    };
    if (burst) {
        workload.phased.burst.enabled = true;
        workload.phased.burst.period = 32;
        workload.phased.burst.onProbability = 0.4;
        workload.phased.burst.onMultiplier = 3.0;
        workload.phased.burst.offMultiplier = 0.1;
        workload.phased.burst.layers = 2;
    }
    return workload;
}

/** Record @p base into a temp trace and wrap it as a replay spec. */
WorkloadSpec
traceWorkload(const NetworkConfig &config, const WorkloadSpec &base,
              Cycle cycles, const std::string &tag)
{
    const fs::path file =
        fs::temp_directory_path() /
        ("nocalert_wlprop_" + std::to_string(::getpid()) + "_" + tag +
         ".trace");
    std::string error;
    EXPECT_TRUE(traffic::recordTrace(config, base, cycles, file.string(),
                                     &error))
        << error;
    WorkloadSpec replay;
    replay.kind = WorkloadKind::Trace;
    replay.trace.path = file.string();
    EXPECT_TRUE(traffic::stampTraceSpec(replay.trace, &error)) << error;
    return replay;
}

struct Observables
{
    std::vector<EjectionRecord> ejections;
    NetworkStats stats;
    std::vector<core::Assertion> alerts;
};

Observables
simulate(const NetworkConfig &config, const WorkloadSpec &workload,
         KernelMode mode, bool inject, Cycle cycles = 600)
{
    Network net(config, workload);
    net.setKernelMode(mode);
    core::NoCAlertEngine engine(net);

    fault::FaultInjector injector;
    if (inject) {
        const auto sites =
            fault::FaultSiteCatalog::sampleNetwork(config, 8, 31);
        fault::FaultSpec spec;
        spec.site = sites.at(0);
        spec.cycle = 300;
        spec.kind = fault::FaultKind::Transient;
        injector.arm(spec);
        injector.attach(net);
    }

    net.run(cycles);
    net.drain(6000);

    Observables obs;
    obs.ejections = net.collectEjections();
    obs.stats = net.stats();
    obs.alerts = engine.log().alerts();
    return obs;
}

void
expectSame(const Observables &dense, const Observables &fast,
           const char *label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(dense.ejections.size(), fast.ejections.size());
    for (std::size_t i = 0; i < dense.ejections.size(); ++i) {
        EXPECT_EQ(dense.ejections[i].cycle, fast.ejections[i].cycle);
        EXPECT_EQ(dense.ejections[i].node, fast.ejections[i].node);
        EXPECT_EQ(dense.ejections[i].flit, fast.ejections[i].flit);
    }
    EXPECT_EQ(dense.stats.packetsCreated, fast.stats.packetsCreated);
    EXPECT_EQ(dense.stats.packetsEjected, fast.stats.packetsEjected);
    EXPECT_EQ(dense.stats.flitsInjected, fast.stats.flitsInjected);
    EXPECT_EQ(dense.stats.latencySum, fast.stats.latencySum);
    ASSERT_EQ(dense.alerts.size(), fast.alerts.size());
    for (std::size_t i = 0; i < dense.alerts.size(); ++i) {
        EXPECT_EQ(dense.alerts[i].id, fast.alerts[i].id);
        EXPECT_EQ(dense.alerts[i].cycle, fast.alerts[i].cycle);
        EXPECT_EQ(dense.alerts[i].router, fast.alerts[i].router);
    }
}

struct WorkloadCase
{
    const char *name;
    bool burst;
    bool trace;   ///< Re-record the program and replay it instead.
    bool inject;
};

class WorkloadKernelEquivalence
    : public testing::TestWithParam<WorkloadCase>
{
};

TEST_P(WorkloadKernelEquivalence, FastKernelsBitIdenticalToDense)
{
    const WorkloadCase &c = GetParam();
    const NetworkConfig config = mesh4();
    WorkloadSpec workload = phasedWorkload(c.burst);
    if (c.trace)
        workload = traceWorkload(config, workload, 600, c.name);

    const Observables dense =
        simulate(config, workload, KernelMode::Dense, c.inject);
    const Observables active =
        simulate(config, workload, KernelMode::Active, c.inject);
    const Observables bitmask =
        simulate(config, workload, KernelMode::Bitmask, c.inject);

    // The run must actually move packets for the comparison to mean
    // anything.
    EXPECT_GT(dense.stats.packetsEjected, 0u);
    expectSame(dense, active, "active");
    expectSame(dense, bitmask, "bitmask");

    if (workload.kind == WorkloadKind::Trace) {
        std::error_code ec;
        fs::remove(workload.trace.path, ec);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadKernelEquivalence,
    testing::Values(
        WorkloadCase{"phased", false, false, false},
        WorkloadCase{"phased_fault", false, false, true},
        WorkloadCase{"bursty", true, false, false},
        WorkloadCase{"bursty_fault", true, false, true},
        WorkloadCase{"trace", false, true, false},
        WorkloadCase{"trace_fault", false, true, true},
        WorkloadCase{"bursty_trace", true, true, false}),
    [](const testing::TestParamInfo<WorkloadCase> &info) {
        return info.param.name;
    });

// gtest names each case after the raw bytes of its parameter, so the
// name is stored inline and the layout has no padding: the bytes (and
// with them the test names) hold no address and nothing uninitialised.
struct SplitCase
{
    char name[14];
    bool burst;
    bool trace;
    Cycle split;
};
static_assert(std::has_unique_object_representations_v<SplitCase>,
              "SplitCase must have no padding bytes");

class WorkloadSnapshotProperty : public testing::TestWithParam<SplitCase>
{
};

TEST_P(WorkloadSnapshotProperty, MidPhaseCopyResumesExactly)
{
    const SplitCase &c = GetParam();
    const NetworkConfig config = mesh4();
    WorkloadSpec workload = phasedWorkload(c.burst);
    if (c.trace)
        workload = traceWorkload(config, workload, 600,
                                 std::string("snap_") + c.name);

    Network straight(config, workload);
    Network split_run(config, workload);

    split_run.run(c.split);
    Network resumed(split_run); // the warm snapshot
    straight.run(600);
    resumed.run(600 - c.split);

    ASSERT_TRUE(straight.drain(8000));
    ASSERT_TRUE(resumed.drain(8000));

    const auto ea = straight.collectEjections();
    const auto eb = resumed.collectEjections();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].cycle, eb[i].cycle);
        EXPECT_EQ(ea[i].node, eb[i].node);
        EXPECT_EQ(ea[i].flit, eb[i].flit);
    }
    EXPECT_EQ(straight.stats().packetsCreated,
              resumed.stats().packetsCreated);
    EXPECT_EQ(straight.stats().latencySum, resumed.stats().latencySum);
    EXPECT_GT(straight.stats().packetsEjected, 0u);

    if (workload.kind == WorkloadKind::Trace) {
        std::error_code ec;
        fs::remove(workload.trace.path, ec);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Splits, WorkloadSnapshotProperty,
    testing::Values(
        // Mid-first-phase, inside the idle gap, mid-second-phase,
        // and inside the hotspot tail — for both backends.
        SplitCase{"phase0", false, false, 90},
        SplitCase{"gap", false, false, 200},
        SplitCase{"phase1", true, false, 300},
        SplitCase{"hotspot", false, false, 500},
        SplitCase{"trace_mid", false, true, 130},
        SplitCase{"trace_gap", true, true, 210}),
    [](const testing::TestParamInfo<SplitCase> &info) {
        return info.param.name;
    });

TEST(WorkloadRepeatProperty, RepeatingProgramKeepsInjecting)
{
    // A wrapped program must keep generating past its nominal end and
    // stay kernel-equivalent while doing so.
    const NetworkConfig config = mesh4();
    WorkloadSpec workload = phasedWorkload(false, /*repeat=*/true);
    workload.setStopCycle(900);

    const Observables dense =
        simulate(config, workload, KernelMode::Dense, false, 900);
    const Observables bitmask =
        simulate(config, workload, KernelMode::Bitmask, false, 900);
    expectSame(dense, bitmask, "bitmask");

    // Cycles 600..900 wrap back into phase 0: more packets than the
    // non-repeating program can make.
    WorkloadSpec once = phasedWorkload(false, /*repeat=*/false);
    once.setStopCycle(900);
    const Observables single =
        simulate(config, once, KernelMode::Dense, false, 900);
    EXPECT_GT(dense.stats.packetsCreated, single.stats.packetsCreated);
}

} // namespace
} // namespace nocalert::noc
