/**
 * @file
 * Property sweep: copying a network mid-flight and resuming must be
 * indistinguishable from an uninterrupted run — the foundation of the
 * campaign's warm-snapshot methodology.
 */

#include <gtest/gtest.h>

#include "core/nocalert.hpp"
#include "noc/network.hpp"

namespace nocalert::noc {
namespace {

struct SnapshotCase
{
    Cycle split;     ///< Cycle at which the snapshot is taken.
    double rate;
    std::uint64_t seed;
    unsigned vcs;
};

std::string
caseName(const testing::TestParamInfo<SnapshotCase> &info)
{
    const SnapshotCase &c = info.param;
    return "split" + std::to_string(c.split) + "_r" +
           std::to_string(static_cast<int>(c.rate * 1000)) + "_s" +
           std::to_string(c.seed) + "_v" + std::to_string(c.vcs);
}

class SnapshotProperty : public testing::TestWithParam<SnapshotCase>
{
};

TEST_P(SnapshotProperty, CopyResumeEqualsStraightRun)
{
    const SnapshotCase &c = GetParam();
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    config.router.numVcs = c.vcs;

    TrafficSpec traffic;
    traffic.injectionRate = c.rate;
    traffic.seed = c.seed;
    traffic.stopCycle = c.split + 400;

    Network straight(config, traffic);
    Network split_run(config, traffic);

    split_run.run(c.split);
    Network resumed(split_run); // snapshot
    straight.run(c.split + 400);
    resumed.run(400);

    ASSERT_TRUE(straight.drain(6000));
    ASSERT_TRUE(resumed.drain(6000));

    const auto ea = straight.collectEjections();
    const auto eb = resumed.collectEjections();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].cycle, eb[i].cycle);
        EXPECT_EQ(ea[i].node, eb[i].node);
        EXPECT_EQ(ea[i].flit, eb[i].flit);
    }

    const NetworkStats sa = straight.stats();
    const NetworkStats sb = resumed.stats();
    EXPECT_EQ(sa.packetsEjected, sb.packetsEjected);
    EXPECT_EQ(sa.latencySum, sb.latencySum);
}

INSTANTIATE_TEST_SUITE_P(
    Splits, SnapshotProperty,
    testing::Values(SnapshotCase{0, 0.05, 1, 4},
                    SnapshotCase{1, 0.05, 2, 4},
                    SnapshotCase{137, 0.08, 3, 4},
                    SnapshotCase{500, 0.05, 4, 4},
                    SnapshotCase{250, 0.12, 5, 4},
                    SnapshotCase{250, 0.05, 6, 2},
                    SnapshotCase{250, 0.05, 7, 8}),
    caseName);

TEST(SnapshotProperty, CheckersStayQuietAfterResume)
{
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    TrafficSpec traffic;
    traffic.injectionRate = 0.08;
    traffic.seed = 17;

    Network base(config, traffic);
    base.run(300);
    Network copy(base);
    core::NoCAlertEngine engine(copy);
    copy.run(600);
    EXPECT_EQ(engine.log().count(), 0u);
}

TEST(SnapshotProperty, MidFlightCopyCarriesTheActiveSet)
{
    // Snapshot while flits are in flight everywhere: the copy must
    // rebuild its active set from the copied state (not inherit the
    // original's pins or caches) and still resume bit-exactly.
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    TrafficSpec traffic;
    traffic.injectionRate = 0.1;
    traffic.seed = 31;
    traffic.stopCycle = 500;

    Network a(config, traffic);
    // Pins on the original must not leak into copies.
    a.setTapHook([](Router &, TapPoint, RouterWires &) {});
    a.run(250);
    ASSERT_FALSE(a.quiescent()); // mid-flight, active set populated

    Network b(a);
    a.setTapHook(nullptr);
    a.run(250);
    b.run(250);
    ASSERT_TRUE(a.drain(6000));
    ASSERT_TRUE(b.drain(6000));

    const auto ea = a.collectEjections();
    const auto eb = b.collectEjections();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].cycle, eb[i].cycle);
        EXPECT_EQ(ea[i].node, eb[i].node);
        EXPECT_EQ(ea[i].flit, eb[i].flit);
    }
    EXPECT_EQ(a.stats().latencySum, b.stats().latencySum);
}

TEST(SnapshotProperty, CrossKernelResumeIsBitExact)
{
    // A dense-warmed snapshot resumed on the bitmask kernel (and on
    // the dense one) must match a straight dense run: the kernels share one
    // state space, so mode is a per-instance execution detail.
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    TrafficSpec traffic;
    traffic.injectionRate = 0.08;
    traffic.seed = 41;
    traffic.stopCycle = 400;

    Network dense(config, traffic);
    dense.setKernelMode(KernelMode::Dense);
    dense.run(200);

    Network on_bitmask(dense);
    on_bitmask.setKernelMode(KernelMode::Bitmask);
    Network on_dense(dense);

    dense.run(200);
    on_bitmask.run(200);
    on_dense.run(200);
    ASSERT_TRUE(dense.drain(6000));
    ASSERT_TRUE(on_bitmask.drain(6000));
    ASSERT_TRUE(on_dense.drain(6000));

    const auto ed = dense.collectEjections();
    for (const Network *net : {&on_bitmask, &on_dense}) {
        const auto e = net->collectEjections();
        ASSERT_EQ(ed.size(), e.size());
        for (std::size_t i = 0; i < ed.size(); ++i) {
            EXPECT_EQ(ed[i].cycle, e[i].cycle);
            EXPECT_EQ(ed[i].node, e[i].node);
            EXPECT_EQ(ed[i].flit, e[i].flit);
        }
        EXPECT_EQ(dense.stats().latencySum, net->stats().latencySum);
    }
}

TEST(SnapshotProperty, AssignmentAlsoSnapshots)
{
    NetworkConfig config;
    config.width = 3;
    config.height = 3;
    TrafficSpec traffic;
    traffic.injectionRate = 0.1;
    traffic.stopCycle = 400;

    Network a(config, traffic);
    a.run(200);
    Network b(config, traffic);
    b = a;
    a.run(300);
    b.run(300);
    EXPECT_EQ(a.stats().flitsEjected, b.stats().flitsEjected);
    EXPECT_EQ(a.cycle(), b.cycle());
}

} // namespace
} // namespace nocalert::noc
