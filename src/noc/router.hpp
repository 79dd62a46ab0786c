/**
 * @file
 * The five-stage pipelined virtual-channel wormhole router
 * (paper Section 3.1, Figure 1).
 *
 * Pipeline: BW+RC (buffer write / routing computation, header flits),
 * VA (VA1 local / VA2 global virtual-channel allocation, header
 * flits), SA (SA1 local / SA2 global switch arbitration), ST (switch
 * traversal), LT (link traversal, modelled by the registered links).
 *
 * Within a cycle the stages are evaluated in *reverse* pipeline order
 * (ST, SA, VA, BW+RC), which yields exact one-stage-per-cycle
 * progression without duplicating every pipeline register: a flit
 * whose state advances in stage k this cycle is first seen by stage
 * k+1 next cycle. Under the speculative variant (Section 4.4) VA is
 * evaluated before SA so a header can win both in the same cycle.
 *
 * Every control decision is computed into the RouterWires record and
 * then *read back* from it when the router commits state, so fault
 * injection on the wires genuinely alters machine behaviour.
 */

#ifndef NOCALERT_NOC_ROUTER_HPP
#define NOCALERT_NOC_ROUTER_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/config.hpp"
#include "noc/packed.hpp"
#include "noc/routing.hpp"
#include "noc/signals.hpp"

namespace nocalert::noc {

/**
 * Allocation and credit state of one output VC, tracked by the
 * upstream router (this is the "credits" half of credit-based flow
 * control plus the output-VC occupancy table VA consults).
 */
struct OutVcState
{
    bool free = true;      ///< No packet currently holds this output VC.
    int ownerPort = -1;    ///< Input port of the holder (-1 when free).
    int ownerVc = -1;      ///< Input VC of the holder (-1 when free).
    std::uint8_t credits = 0; ///< Free flit slots downstream.
};

/**
 * Pipeline register between SA and ST: the crossbar schedule for the
 * next cycle's switch traversal, one entry per input port.
 */
struct XbarSchedule
{
    bool valid = false;       ///< A read is scheduled for this port.
    std::uint8_t vc = 0;      ///< Input VC to read.
    std::uint32_t rowMask = 0; ///< Output ports to drive (1-hot normally).
    std::uint8_t outVcWire = 0; ///< VC id stamped on the departing flit.
};

/** Five-port mesh router. */
class Router
{
  public:
    /** Per-evaluation context shared by all routers of a network. */
    struct Context
    {
        const NetworkConfig *config = nullptr;
        const RoutingAlgorithm *routing = nullptr;
    };

    /** Flit/credit exchange with the incident links for one cycle. */
    struct LinkIo
    {
        /** Arriving flit per input port. */
        std::array<bool, kNumPorts> inValid = {};
        std::array<Flit, kNumPorts> inFlit = {};

        /**
         * Bit p set iff inValid[p] (maintained by the bitmask
         * kernel's gather; evaluateFast iterates its set bits instead
         * of scanning all ports). The branchy pipeline ignores it.
         */
        std::uint8_t inMask = 0;

        /** Credits arriving per output port (per-VC bitmask). */
        std::array<std::uint32_t, kNumPorts> creditIn = {};

        /** Departing flit per output port (filled by evaluate). */
        std::array<bool, kNumPorts> outValid = {};
        std::array<Flit, kNumPorts> outFlit = {};

        /** Credits returned upstream per input port (filled). */
        std::array<std::uint32_t, kNumPorts> creditOut = {};

        /**
         * Bit o set iff outValid[o] and bit p set iff creditOut[p]
         * nonzero — filled by evaluateFast only, so the bitmask
         * kernel's drive side touches just the ports that carry
         * something. Meaningless after the branchy pipeline.
         */
        std::uint8_t outMask = 0;
        std::uint8_t creditOutMask = 0;
    };

    /**
     * Observer invoked at each tap point during evaluation. The hook
     * may mutate the wires (fault injection) and, through the router
     * reference, the architectural state.
     */
    using TapHook =
        std::function<void(Router &, TapPoint, RouterWires &)>;

    /** Construct a router for node @p node of @p config. */
    Router(const NetworkConfig &config, NodeId node);

    /** Node id of this router. */
    NodeId node() const { return node_; }

    /** Micro-architectural parameters. */
    const RouterParams &params() const { return params_; }

    /**
     * Evaluate one clock cycle.
     *
     * @param ctx   Network-wide configuration and routing algorithm.
     * @param cycle Current simulation time.
     * @param io    Link inputs (filled by the caller) and outputs
     *              (filled here).
     * @param hook  Optional tap observer (fault injection / tracing).
     */
    void evaluate(const Context &ctx, Cycle cycle, LinkIo &io,
                  const TapHook *hook);

    /**
     * Bitmask-kernel fast path: evaluate one cycle operating only on
     * the set bits of @p ps, skipping the wire record, the snapshots,
     * and the branchy checker bank (whose only possible fires are
     * computed inline into @p ev — see PackedCheck).
     *
     * A read-only eligibility screen runs first; if any condition a
     * Table-1 checker could trip on is not provably absent (suspect
     * state, malformed schedule, anomalous buffer write), the call
     * returns false WITHOUT mutating anything and the caller must
     * fall back to evaluate(). On a true return, the architectural
     * state transition is bit-identical to evaluate() with no hook:
     * same flits moved, same arbiter pointer updates, same credits —
     * the three-way kernel-equivalence property tests pin this. @p ps
     * is updated incrementally and stays authoritative; @p scratch is
     * caller-provided reusable VA workspace.
     */
    bool evaluateFast(const Context &ctx, Cycle cycle, LinkIo &io,
                      PackedRouterState &ps, PackedScratch &scratch,
                      PackedCycleEvents &ev);

    /** Rebuild @p ps from the architectural state (slow, exact). */
    void recomputePacked(const NetworkConfig &config,
                         PackedRouterState &ps) const;

    /** Wire record of the most recently evaluated cycle. */
    const RouterWires &wires() const { return wires_; }

    /** True iff no flits are buffered and no reads are scheduled. */
    bool idle() const;

    /**
     * True iff evaluating this router with no link inputs is provably
     * a no-op on architectural state: every buffer empty, every VC
     * state machine Idle, and no switch traversal scheduled. Stronger
     * than idle(), which tolerates RouteWait/VcAllocWait records that
     * would still drive the RC and VA pipelines. The active-set
     * kernel skips quiescent routers until a link carries a flit or a
     * credit back into them.
     */
    bool quiescent() const;

    /**
     * Credit-only fast path for the bitmask kernel: apply arriving
     * credits (@p credit_in, per-output-port per-VC masks) to a
     * quiescent router without evaluating the pipeline. For a
     * quiescent router with no arriving flits this is the *only*
     * state change a full evaluate() would make — every other stage
     * finds nothing to do and every checker input stays zero — and it
     * leaves the router quiescent, so the caller need not re-examine
     * liveness. Must not be used on non-quiescent routers.
     */
    void applyCreditIncrements(
        const std::array<std::uint32_t, kNumPorts> &credit_in);

    // ------------------------------------------------------------------
    // Architectural state surface (unit tests and fault injection).
    // ------------------------------------------------------------------

    /** Status record of input VC (@p port, @p vc). */
    VcRecord &vcRecord(int port, unsigned vc);
    const VcRecord &vcRecord(int port, unsigned vc) const;

    /** FIFO buffer of input VC (@p port, @p vc). */
    VcFifo &fifo(int port, unsigned vc);
    const VcFifo &fifo(int port, unsigned vc) const;

    /** Allocation/credit state of output VC (@p port, @p vc). */
    OutVcState &outVcState(int port, unsigned vc);
    const OutVcState &outVcState(int port, unsigned vc) const;

    /** SA1 arbiter of input port @p port. */
    RoundRobinArbiter &sa1Arbiter(int port) { return sa1Arb_[port]; }

    /** SA2 arbiter of output port @p port. */
    RoundRobinArbiter &sa2Arbiter(int port) { return sa2Arb_[port]; }

    /** VA2 arbiter of output VC (@p port, @p vc). */
    RoundRobinArbiter &va2Arbiter(int port, unsigned vc);

    /** RC service arbiter of input port @p port. */
    RoundRobinArbiter &rcArbiter(int port) { return rcArb_[port]; }

    /** VA1 candidate-selection pointer of input VC (@p port, @p vc). */
    std::uint8_t &va1Pointer(int port, unsigned vc);

    /** SA->ST schedule register of input port @p port. */
    XbarSchedule &schedule(int port) { return sched_[port]; }
    const XbarSchedule &schedule(int port) const { return sched_[port]; }

    /**
     * Recovery purge: remove every buffered flit belonging to a packet
     * in @p suspects and release the pipeline state those packets hold
     * — input VC records, the SA->ST schedule entry (restoring the
     * credits its SA2 grant reserved), and output VC allocations.
     * @p removed_upstream is invoked once per (input port, vc) with
     * the number of flits removed so the caller can return the freed
     * buffer slots' credits to whoever is upstream of that port.
     * Returns the total number of flits removed. Best-effort by
     * design: under fault-corrupted state some references may dangle,
     * in which case they are skipped rather than repaired.
     */
    std::uint64_t purgePackets(
        const std::unordered_set<PacketId> &suspects,
        const std::function<void(int port, unsigned vc, unsigned removed)>
            &removed_upstream);

    /** Grant @p count credits to output VC (@p port, @p vc), capped. */
    void addOutputCredits(int port, unsigned vc, unsigned count);

  private:
    /** Flattened [port][vc] index (hot path: no bounds checks). */
    unsigned
    vcIndex(int port, unsigned vc) const
    {
        return static_cast<unsigned>(port) * params_.numVcs + vc;
    }

    void takeSnapshots();
    void applyCredits(const Context &ctx);
    void doSwitchTraversal(const Context &ctx, LinkIo &io);
    void doSwitchArbitration(const Context &ctx, const TapHook *hook);
    void doVcAllocation(const Context &ctx, const TapHook *hook);
    void doBufferWriteAndRc(const Context &ctx, const TapHook *hook);
    void tap(TapPoint point, const TapHook *hook);

    /** Truncate an output-VC register value to the link wire width. */
    std::uint8_t
    vcWireValue(int out_vc) const
    {
        // The VC id field on the link is bitsFor(numVcs) wires wide;
        // whatever the register holds is truncated to that width.
        return static_cast<std::uint8_t>(
            static_cast<unsigned>(out_vc) &
            lowMask(bitsFor(params_.numVcs)));
    }

    /** Deterministic garbage destination for illegal RC reads. */
    static NodeId garbageDst(const Flit &flit, NodeId router,
                             int num_nodes);

    /** Group-9 predicate: out-VC allocation table self-consistent. */
    bool outVcTableConsistent() const;

    NodeId node_;
    RouterParams params_;

    std::vector<VcFifo> fifos_;          // [port][vc]
    std::vector<VcRecord> records_;      // [port][vc]
    std::vector<OutVcState> outVcs_;     // [port][vc]
    std::array<XbarSchedule, kNumPorts> sched_ = {};

    std::array<RoundRobinArbiter, kNumPorts> sa1Arb_;
    std::array<RoundRobinArbiter, kNumPorts> sa2Arb_;
    std::array<RoundRobinArbiter, kNumPorts> rcArb_;
    std::vector<RoundRobinArbiter> va2Arb_; // [port][vc]
    std::vector<std::uint8_t> va1Ptr_;      // [port][vc]

    RouterWires wires_;
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_ROUTER_HPP
