/**
 * @file
 * The mesh network: routers, links, network interfaces, and the
 * synchronous cycle loop.
 *
 * The network is value-semantic: copying it snapshots the *entire*
 * machine state (buffers, credits, arbiter pointers, in-flight link
 * values, NI queues, traffic-generator RNG streams). The fault
 * campaign warms one network up and then copies it once per injection
 * run, which is what makes thousands of injections affordable.
 *
 * Observers (the NoCAlert engine, the ForEVeR model, fault injectors)
 * attach to a network instance and are deliberately *not* copied.
 */

#ifndef NOCALERT_NOC_NETWORK_HPP
#define NOCALERT_NOC_NETWORK_HPP

#include <cstddef>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "noc/config.hpp"
#include "noc/interface.hpp"
#include "noc/link.hpp"
#include "noc/router.hpp"
#include "noc/stats.hpp"
#include "noc/traffic.hpp"
#include "traffic/workload.hpp"

namespace nocalert::noc {

/**
 * Simulation kernel selection: one fast sparse kernel and one
 * reference oracle.
 *
 * Bitmask (default) schedules sparsely: a cycle only evaluates
 * routers with flit stimulus or non-quiescent state, NIs with work or
 * arriving flits, and busy links; a quiescent router or idle NI woken
 * only by returning credits takes a credit fast path (the capped
 * counter increment is the evaluation's entire effect). An evaluated
 * router whose packed state passes the eligibility screen then
 * commits its cycle on the struct-of-arrays fast path
 * (Router::evaluateFast) by sparse bitmask iteration — no wire
 * record, no snapshots, no branchy checker bank — and reports any
 * invariant fires as one violation word through the packed observer.
 * Routers the screen rejects (suspect state, anomalous stimulus) and
 * pinned routers (tap hooks, forced-active) take the branchy path
 * with the full checker bank.
 *
 * Dense evaluates everything every cycle through the branchy path —
 * the original kernel and the reference the kernel-equivalence tests
 * compare against. Use it when an external observer must see every
 * router's wires every cycle (e.g. whole-network tracing).
 *
 * The two are bit-exact on every observable (ejection logs, stats,
 * NoCAlert and ForEVeR alert streams, recovery counters): a skipped
 * module's evaluation is an architectural no-op whose observers could
 * only see quiescent wires, and a fast-path commit is exactly the
 * branchy pipeline's on state that passes the screen. What differs
 * is not observable: the traffic RNG streams stop advancing once
 * generation stopped; per-router/per-NI observers do not fire for
 * skipped modules, nor the router observer for fast-path routers
 * (install a packed observer to receive their violations); and tap
 * hooks are only delivered to pinned routers.
 */
enum class KernelMode : std::uint8_t {
    Dense,
    Bitmask,
    /// Named by `perfbench/src/layers.cpp`, which is frozen with the
    /// benchmark; drop it in the next benchmark change.
    Active = Bitmask,
};

/** A complete mesh NoC with attached traffic sources. */
class Network
{
  public:
    /**
     * Called once per router per cycle after the router finished
     * evaluating (all wires final). Checker engines live here.
     */
    using RouterObserver =
        std::function<void(const Router &, const RouterWires &)>;

    /** Called once per NI per cycle after it evaluated. */
    using NiObserver =
        std::function<void(const NetworkInterface &, const NiWires &)>;

    /** Called once at the end of every step() (all state committed). */
    using CycleObserver = std::function<void(const Network &)>;

    /**
     * Called for a fast-path router evaluation that fired at least
     * one invariant (bitmask kernel only), at the router's position
     * in the per-cycle observer sequence. Fast-path evaluations with
     * an empty violation mask are not reported.
     */
    using PackedObserver =
        std::function<void(const Router &, const PackedCycleEvents &)>;

    /** Build a network for @p config driven by @p workload. */
    Network(const NetworkConfig &config,
            const nocalert::traffic::WorkloadSpec &workload);

    /** Convenience: a network driven by legacy synthetic traffic. */
    Network(const NetworkConfig &config, const TrafficSpec &traffic);

    /** Deep copy; hooks and observers are NOT carried over. */
    Network(const Network &other);
    Network &operator=(const Network &other);

    Network(Network &&) = default;
    Network &operator=(Network &&) = default;

    /** Configuration the network was built with. */
    const NetworkConfig &config() const { return config_; }

    /** The routing algorithm instance in use. */
    const RoutingAlgorithm &routing() const { return *routing_; }

    /** Current simulation time (cycles completed). */
    Cycle cycle() const { return cycle_; }

    /** Kernel in use. Copies inherit the mode. */
    KernelMode kernelMode() const { return kernel_mode_; }

    /** Select the kernel. Safe to switch at any cycle boundary. */
    void setKernelMode(KernelMode mode);

    /** Routers evaluated so far (kernel-effort instrumentation). */
    std::uint64_t routerEvaluations() const { return router_evals_; }

    /** NIs evaluated so far (kernel-effort instrumentation). */
    std::uint64_t niEvaluations() const { return ni_evals_; }

    /**
     * Narrow tap delivery to @p nodes. setTapHook() conservatively
     * pins *every* router active (a hook may need to see any router's
     * taps); callers that only tap specific routers — the fault
     * injector taps the armed sites — call this afterwards so the
     * remaining routers can be scheduled out again.
     */
    void setTapFocus(const std::vector<NodeId> &nodes);

    /** Advance one clock cycle. */
    void step();

    /** Advance @p cycles clock cycles. */
    void run(Cycle cycles);

    /**
     * Run until no traffic remains anywhere (delivered or stuck) or
     * @p max_cycles additional cycles elapse. Returns true iff the
     * network fully drained. Traffic generation should have stopped
     * (TrafficSpec::stopCycle) for this to terminate.
     */
    bool drain(Cycle max_cycles);

    /** True iff no flit is buffered, queued, scheduled, or in flight. */
    bool quiescent() const;

    /**
     * Router of node @p node. The non-const accessor also wakes the
     * router: callers may mutate architectural state directly (tests,
     * fault models), which can turn a scheduled-out router live again.
     */
    Router &router(NodeId node);
    const Router &router(NodeId node) const;

    /** Network interface of node @p node. */
    NetworkInterface &ni(NodeId node);
    const NetworkInterface &ni(NodeId node) const;

    /** Workload generator (shared by all nodes). */
    nocalert::traffic::WorkloadGenerator &workload() { return traffic_; }
    const nocalert::traffic::WorkloadGenerator &workload() const
    {
        return traffic_;
    }

    /**
     * Install the per-router tap hook (fault injection). A non-null
     * hook pins every router active (see setTapFocus to narrow); a
     * null hook releases the pin.
     */
    void setTapHook(Router::TapHook hook)
    {
        tap_hook_ = std::move(hook);
        tap_force_all_ = static_cast<bool>(tap_hook_);
    }

    /** Install the per-router cycle observer (checker engines). */
    void setRouterObserver(RouterObserver obs)
    {
        router_observer_ = std::move(obs);
    }

    /** Install the per-NI cycle observer. */
    void setNiObserver(NiObserver obs) { ni_observer_ = std::move(obs); }

    /** Install the fast-path violation observer (bitmask kernel). */
    void setPackedObserver(PackedObserver obs)
    {
        packed_observer_ = std::move(obs);
    }

    /** Install the end-of-cycle observer. */
    void setCycleObserver(CycleObserver obs)
    {
        cycle_observer_ = std::move(obs);
    }

    /**
     * Count in-flight flits grouped by destination node: flits in
     * router buffers, on links, and the unsent remainder of packets
     * already streaming out of an NI. With @p include_queued, packets
     * still waiting in NI queues are counted too. Used to initialize
     * end-to-end monitors attached to a warmed-up network.
     */
    std::vector<std::uint64_t>
    countInFlightFlitsPerDst(bool include_queued = true) const;

    // ------------------------------------------------------------------
    // Recovery actions (quarantine and purge). These are maintenance
    // operations driven by the recovery orchestrator at end-of-cycle,
    // not architectural behaviour of the modelled hardware.
    // ------------------------------------------------------------------

    /**
     * Quarantine both directions of the physical channel(s) at
     * (@p node, @p port) in the routing algorithm's quarantine set:
     * the port itself plus the neighbor's opposite port. A negative
     * @p port quarantines all four mesh ports of the node (whole
     * router implicated). The Local port is never quarantined — there
     * is no detour around a node's own NI. Only quarantine-aware
     * routing (RoutingAlgo::QAdaptive) changes behaviour. Quarantine
     * lives in the routing instance, so a Network copy starts clean.
     * Returns the number of (node, port) pairs newly quarantined.
     */
    std::size_t quarantinePort(NodeId node, int port);

    /**
     * Packets implicated by a fault at (@p node, @p port): packets
     * holding the port's input VCs or buffered in them, packets
     * holding the port's output VCs, and flits in flight on the links
     * incident to the port. A negative @p port implicates the whole
     * router. Corrupted (garbage) packet ids are included on purpose:
     * purging them removes the corrupt flits themselves.
     */
    std::unordered_set<PacketId> implicatedPackets(NodeId node,
                                                   int port) const;

    /**
     * Network-wide purge of every flit belonging to the @p suspects
     * packets — router buffers, pipeline state, link stages, and NI
     * streams — repairing credits along the way. Sources re-queue
     * aborted streams when retransmission is enabled. Returns the
     * number of flits removed.
     */
    std::uint64_t
    purgePackets(const std::unordered_set<PacketId> &suspects);

    /** Aggregate statistics collected so far. */
    NetworkStats stats() const;

    /** Concatenated ejection logs of all NIs, by node then time. */
    std::vector<EjectionRecord> collectEjections() const;

    /** Discard all NI ejection logs (e.g. after warmup). */
    void clearEjectionLogs();

  private:
    void buildTopology();
    void stepDense();
    void stepBitmask();
    void recomputeLiveness();
    int inLinkIndex(NodeId node, int port) const;
    int outLinkIndex(NodeId node, int port) const;

    NetworkConfig config_;
    std::unique_ptr<RoutingAlgorithm> routing_;

    std::vector<Router> routers_;
    std::vector<NetworkInterface> nis_;
    std::vector<Link> links_;
    std::vector<int> in_link_;  // [node * kNumPorts + port]
    std::vector<int> out_link_; // [node * kNumPorts + port]

    /**
     * Batched link delivery (bitmask kernel): per-link consumer nodes
     * (inverse of in_link_/out_link_, built lazily) and the per-node
     * arrival flags one link sweep per cycle derives from them —
     * bit 0: a flit arrived on some input port, bit 1: a credit
     * arrived on some output port. Routers whose flags are clear are
     * scheduled without touching any of their ten link slots.
     */
    std::vector<int> link_flit_dst_;
    std::vector<int> link_credit_dst_;
    std::vector<std::uint8_t> node_io_flags_;
    /**
     * Cycle node_io_flags_ describes, or -1 when invalid. The flags
     * for cycle c+1 are computed for free while the links advance at
     * the end of bitmask cycle c; a dedicated sweep is only needed
     * when the previous cycle ran on another kernel or something else
     * touched the links in between (copies, purges — anything through
     * recomputeLiveness()).
     */
    Cycle io_flags_cycle_ = -1;
    /**
     * Bit li set iff links_[li] may hold any in-flight state (send or
     * recv side). The end-of-cycle pass ticks only these links instead
     * of scanning the whole array; drive sites set a link's bit when
     * they write its send side, the pass keeps a bit while the recv
     * side stays non-empty. Valid exactly when io_flags_cycle_ ==
     * cycle_ (rebuilt by the same sweep that rebuilds the flags).
     */
    std::vector<std::uint64_t> link_busy_bits_;

    nocalert::traffic::WorkloadGenerator traffic_;
    Cycle cycle_ = 0;

    KernelMode kernel_mode_ = KernelMode::Bitmask;
    /** Per router: last evaluation left it non-quiescent. */
    std::vector<char> router_live_;
    /** Per router: packed state cache (bitmask kernel). */
    std::vector<PackedRouterState> packed_;
    /** Shared VA scratch for fast-path evaluations. */
    PackedScratch packed_scratch_;
    /** Per router: pinned active (setTapFocus: armed fault sites). */
    std::vector<char> force_active_;
    /** Tap hook present and not narrowed: pin all routers active. */
    bool tap_force_all_ = false;
    std::uint64_t router_evals_ = 0;
    std::uint64_t ni_evals_ = 0;

    Router::TapHook tap_hook_;
    RouterObserver router_observer_;
    NiObserver ni_observer_;
    CycleObserver cycle_observer_;
    PackedObserver packed_observer_;
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_NETWORK_HPP
