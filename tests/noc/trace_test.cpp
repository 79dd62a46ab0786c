#include "noc/trace.hpp"

#include <gtest/gtest.h>

#include "noc/network.hpp"

namespace nocalert::noc {
namespace {

NetworkConfig
mesh()
{
    NetworkConfig config;
    config.width = 4;
    config.height = 4;
    return config;
}

TrafficSpec
traffic(double rate = 0.1)
{
    TrafficSpec spec;
    spec.injectionRate = rate;
    spec.seed = 77;
    return spec;
}

/**
 * Record @p net's wires into @p recorder. A trace is built from wire
 * records, which only the dense kernel produces for every evaluated
 * router (the bitmask fast path commits without one).
 */
void
attach(Network &net, TraceRecorder &recorder)
{
    net.setKernelMode(KernelMode::Dense);
    net.setRouterObserver(
        [&recorder](const Router &router, const RouterWires &wires) {
            recorder.observeRouter(router, wires);
        });
    net.setNiObserver(
        [&recorder](const NetworkInterface &ni, const NiWires &wires) {
            recorder.observeNi(ni, wires);
        });
}

TEST(Trace, RecordsLifecycleOfAPacket)
{
    Network net(mesh(), traffic());
    TraceRecorder recorder;
    attach(net, recorder);
    net.run(300);

    ASSERT_FALSE(recorder.events().empty());

    // Find one injected packet and check its lifecycle events exist.
    PacketId packet = kInvalidPacket;
    for (const TraceEvent &event : recorder.events()) {
        if (event.kind == TraceKind::Inject) {
            packet = event.flit.packet;
            break;
        }
    }
    ASSERT_NE(packet, kInvalidPacket);

    bool wrote = false;
    bool routed = false;
    bool ejected = false;
    for (const TraceEvent &event : recorder.events()) {
        if (event.flit.packet != packet)
            continue;
        wrote |= event.kind == TraceKind::BufferWrite;
        routed |= event.kind == TraceKind::RcDone;
        ejected |= event.kind == TraceKind::Eject;
    }
    EXPECT_TRUE(wrote);
    EXPECT_TRUE(routed);
}

TEST(Trace, EventsRenderReadably)
{
    TraceEvent event;
    event.kind = TraceKind::SaGrant;
    event.cycle = 120;
    event.router = 5;
    event.port = portIndex(Port::East);
    event.vc = 2;
    const std::string text = event.toString();
    EXPECT_NE(text.find("c=120"), std::string::npos);
    EXPECT_NE(text.find("r5"), std::string::npos);
    EXPECT_NE(text.find("SA"), std::string::npos);
    EXPECT_NE(text.find("p=E"), std::string::npos);
}

TEST(Trace, RouterFilterRestricts)
{
    Network net(mesh(), traffic());
    TraceRecorder recorder;
    recorder.setFilter(TraceRecorder::routerFilter(5));
    attach(net, recorder);
    net.run(200);
    ASSERT_FALSE(recorder.events().empty());
    for (const TraceEvent &event : recorder.events())
        EXPECT_EQ(event.router, 5);
}

TEST(Trace, PacketFilterFollowsOnePacket)
{
    Network net(mesh(), traffic());
    TraceRecorder probe;
    attach(net, probe);
    net.run(100);
    PacketId packet = kInvalidPacket;
    for (const TraceEvent &event : probe.events())
        if (event.kind == TraceKind::Inject)
            packet = event.flit.packet;
    ASSERT_NE(packet, kInvalidPacket);

    Network net2(mesh(), traffic());
    TraceRecorder recorder;
    recorder.setFilter(TraceRecorder::packetFilter(packet));
    attach(net2, recorder);
    net2.run(200);
    ASSERT_FALSE(recorder.events().empty());
    for (const TraceEvent &event : recorder.events())
        EXPECT_EQ(event.flit.packet, packet);
}

TEST(Trace, WindowFilterBoundsCycles)
{
    Network net(mesh(), traffic());
    TraceRecorder recorder;
    recorder.setFilter(TraceRecorder::windowFilter(50, 60));
    attach(net, recorder);
    net.run(200);
    for (const TraceEvent &event : recorder.events()) {
        EXPECT_GE(event.cycle, 50);
        EXPECT_LE(event.cycle, 60);
    }
}

TEST(Trace, LimitBoundsMemory)
{
    Network net(mesh(), traffic(0.2));
    TraceRecorder recorder;
    recorder.setLimit(100);
    attach(net, recorder);
    net.run(500);
    EXPECT_EQ(recorder.events().size(), 100u);
    // The kept events are the most recent ones.
    EXPECT_GT(recorder.events().front().cycle, 100);
}

TEST(Trace, DumpOneLinePerEvent)
{
    Network net(mesh(), traffic());
    TraceRecorder recorder;
    recorder.setLimit(10);
    attach(net, recorder);
    net.run(100);
    const std::string dump = recorder.dump();
    std::size_t lines = 0;
    for (char ch : dump)
        lines += ch == '\n' ? 1 : 0;
    EXPECT_EQ(lines, recorder.events().size());
    recorder.clear();
    EXPECT_TRUE(recorder.events().empty());
}

} // namespace
} // namespace nocalert::noc
