/**
 * @file
 * Per-cycle wire record of one router: every control signal the
 * pipeline produces or consumes in a clock cycle.
 *
 * This struct is the contract between three parties:
 *  - the router, which fills it while evaluating a cycle and *acts on
 *    its contents* (so a corrupted wire really changes behaviour);
 *  - the fault injector, which mutates it at well-defined tap points
 *    (the inputs/outputs of each module — the paper's fault model);
 *  - the NoCAlert checkers, which are pure combinational functions of
 *    this record plus the pre-cycle architectural snapshots it embeds.
 *
 * Flit *contents* (destination, packet id, payload) are assumed to be
 * protected by error-detecting codes (paper Section 3.3), so they are
 * not fault-injection targets; the control fields derived from them
 * (enables, grants, selects, state registers) are.
 */

#ifndef NOCALERT_NOC_SIGNALS_HPP
#define NOCALERT_NOC_SIGNALS_HPP

#include <array>
#include <cstdint>

#include "noc/buffer.hpp"
#include "noc/flit.hpp"
#include "noc/types.hpp"

namespace nocalert::noc {

/** Maximum supported VCs per port (hardware sweep upper bound). */
inline constexpr unsigned kMaxVcs = 8;

/** Flattened (input port, input VC) client index for VA2 arbiters. */
constexpr unsigned
vaClient(int port, unsigned vc)
{
    return static_cast<unsigned>(port) * kMaxVcs + vc;
}

/** Pre-cycle snapshot of one input VC's architectural state. */
struct VcSnapshot
{
    VcState state = VcState::Idle;
    int outPort = kInvalidPort;   ///< RC result register.
    int outVc = -1;               ///< VA result register.
    unsigned occupancy = 0;       ///< Buffered flits before this cycle.
    bool headValid = false;       ///< occupancy > 0.
    FlitType headType = FlitType::Head; ///< Type of head slot (stale-capable).
    unsigned flitsArrived = 0;    ///< Flits of current packet so far.
    unsigned expectedLength = 0;  ///< Class packet length (0 = unknown).
    FlitType lastWrittenType = FlitType::Tail; ///< Write-side history.
    bool tailArrived = false;     ///< Current packet's tail was written.

    /** VA1 stage: candidate output VC requested this cycle (-1 none). */
    int va1CandidateVc = -1;
};

/** Wire bundle of one input port for one cycle. */
struct InputPortWires
{
    // ---- Link input / buffer write (BW) ----
    bool inValid = false;         ///< A flit arrived on the link.
    Flit inFlit;                  ///< Its contents (vc field = demux select).
    std::uint32_t writeEnable = 0; ///< Per-VC write-enable (normally 1-hot).
    std::uint32_t writeDropped = 0; ///< Writes that hit a full buffer.

    // ---- Routing computation (RC) ----
    std::uint32_t rcWaiting = 0;  ///< Per-VC mask: VCs awaiting routing.
    std::uint32_t rcDone = 0;     ///< Per-VC mask: RC completed this cycle.
    int rcVc = -1;                ///< VC the RC unit served (-1 = none).
    int rcOutPort = kInvalidPort; ///< RC unit output direction.
    bool rcHeadValid = false;     ///< The served VC had a buffered flit.
    FlitType rcHeadType = FlitType::Head; ///< Type of the flit RC saw.
    Flit rcFlit;                  ///< The flit the RC unit examined.

    // ---- Switch arbitration, local stage (SA1) ----
    std::uint64_t sa1Req = 0;     ///< Request vector over VCs.
    std::uint64_t sa1Grant = 0;   ///< Grant vector over VCs.

    // ---- Buffer read (ST stage, scheduled by last cycle's SA) ----
    std::uint32_t readEnable = 0; ///< Per-VC read-enable (normally <=1-hot).
    std::uint32_t readEmpty = 0;  ///< Reads that hit an empty buffer.

    // ---- Credit return to the upstream router ----
    std::uint32_t creditSend = 0; ///< Per-VC credits sent upstream.

    /** Pre-cycle snapshots of this port's VCs. */
    std::array<VcSnapshot, kMaxVcs> vc;
};

/** Per-output-VC credit/allocation snapshot (pre-cycle). */
struct OutVcSnapshot
{
    bool free = true;             ///< Not currently allocated to a packet.
    std::uint8_t credits = 0;     ///< Free slots in the downstream buffer.
};

/** Wire bundle of one output port for one cycle. */
struct OutputPortWires
{
    // ---- Virtual-channel allocation, global stage (VA2) ----
    /** Request vector per output VC, over vaClient(port, vc) clients. */
    std::array<std::uint64_t, kMaxVcs> va2Req = {};
    /** Grant vector per output VC (normally <=1-hot). */
    std::array<std::uint64_t, kMaxVcs> va2Grant = {};

    // ---- Switch arbitration, global stage (SA2) ----
    std::uint64_t sa2Req = 0;     ///< Request vector over input ports.
    std::uint64_t sa2Grant = 0;   ///< Grant vector over input ports.

    // ---- Link output (result of ST) ----
    bool outValid = false;        ///< A flit leaves through this port.
    Flit outFlit;                 ///< Its contents.

    // ---- Incoming credits from downstream ----
    std::uint32_t creditRecv = 0; ///< Per-VC credits received this cycle.

    /** Pre-cycle snapshots of this port's output VC state. */
    std::array<OutVcSnapshot, kMaxVcs> outVc;
};

/** Complete wire record of one router for one cycle. */
struct RouterWires
{
    Cycle cycle = 0;
    NodeId router = kInvalidNode;

    std::array<InputPortWires, kNumPorts> in;
    std::array<OutputPortWires, kNumPorts> out;

    // ---- Crossbar control ----
    /** Row control: per input port, 1-hot select over output ports. */
    std::array<std::uint32_t, kNumPorts> xbarRow = {};
    /** Column control: per output port, 1-hot select over input ports. */
    std::array<std::uint32_t, kNumPorts> xbarCol = {};
    /** Flits presented to the crossbar this cycle. */
    int xbarFlitsIn = 0;
    /** Flits leaving the crossbar this cycle. */
    int xbarFlitsOut = 0;

    // ---- Ejection (local port delivery, network-level checks) ----
    bool ejectValid = false;      ///< A flit was delivered to the local NI.
    Flit ejectFlit;               ///< Its contents.

    /** Reset all wires for a new cycle (snapshots refreshed by router). */
    void clear(Cycle cycle, NodeId router);
};

// ---------------------------------------------------------------------
// Quiescence predicates (bitmask kernel / checker short-circuit).
//
// A port is *quiescent* when its wire bundle proves that no module
// guarding it did any work this cycle; every Table-1 checker instance
// of a quiescent port is then trivially satisfied (verified once at
// start-up by core::verifyQuiescentInvariant). The predicates read only
// the wire record — they are as cheap as the hardware idle-detect tree
// they model.
// ---------------------------------------------------------------------

/** True iff @p in carries no activity: no arriving flit, no buffer
 *  write/read, no RC service, no SA1 traffic, no credit return, and
 *  every VC snapshot Idle and empty with no VA1 candidate. */
bool inputPortQuiescent(const InputPortWires &in, unsigned num_vcs);

/** True iff @p out carries no activity: no SA2 traffic, no VA2
 *  requests or grants, no departing flit, no arriving credit. */
bool outputPortQuiescent(const OutputPortWires &out);

/** True iff every port of @p wires is quiescent and nothing ejected. */
bool routerWiresQuiescent(const RouterWires &wires, unsigned num_vcs);

/**
 * Tap points at which the fault injector may mutate wires or state.
 * Listed in the order the router visits them within one cycle.
 */
enum class TapPoint : std::uint8_t {
    CycleStart,   ///< Before anything: architectural-state faults.
    AfterInputs,  ///< Link inputs latched; write enables derived.
    AfterSt,      ///< Switch traversal done; output/eject wires final.
    AfterSa1Req,  ///< SA local request vectors built (module inputs).
    AfterSa1,     ///< SA local grants computed (module outputs).
    AfterSa2Req,  ///< SA global request vectors built.
    AfterSa2,     ///< SA global grants computed (feeds the ST schedule).
    AfterVa1,     ///< VA candidate selections computed.
    AfterVa2Req,  ///< VA global request vectors built.
    AfterVa2,     ///< VA global grants computed.
    AfterRcReq,   ///< RC service requests (route-waiting masks) built.
    AfterRc,      ///< Routing computation outputs final.
    CycleEnd,     ///< All wires final; checkers evaluate here.
};

/** Number of tap points. */
inline constexpr unsigned kNumTapPoints = 13;

/** Name of a tap point. */
const char *tapPointName(TapPoint tap);

} // namespace nocalert::noc

#endif // NOCALERT_NOC_SIGNALS_HPP
