#include "fault/injector.hpp"

#include "util/bits.hpp"
#include "util/log.hpp"

namespace nocalert::fault {

using noc::RouterWires;
using noc::TapPoint;

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Transient: return "transient";
      case FaultKind::Intermittent: return "intermittent";
      case FaultKind::Permanent: return "permanent";
    }
    return "?";
}

std::optional<FaultKind>
faultKindFromName(std::string_view name)
{
    for (int i = 0; i <= static_cast<int>(FaultKind::Permanent); ++i) {
        const auto kind = static_cast<FaultKind>(i);
        if (name == faultKindName(kind))
            return kind;
    }
    return std::nullopt;
}

void
FaultInjector::attach(noc::Network &network)
{
    network.setTapHook(hook());

    // The hook only ever acts on the armed routers; narrow the tap
    // focus so the bitmask kernel may still skip the rest, while
    // the armed routers evaluate every cycle — a transient scheduled
    // on an idle router fires at exactly its configured cycle.
    std::vector<noc::NodeId> armed;
    armed.reserve(faults_.size());
    for (const FaultSpec &spec : faults_)
        armed.push_back(spec.site.router);
    network.setTapFocus(armed);
}

noc::Router::TapHook
FaultInjector::hook()
{
    return [this](noc::Router &router, TapPoint tap, RouterWires &wires) {
        onTap(router, tap, wires);
    };
}

bool
FaultInjector::activeAt(const FaultSpec &spec, noc::Cycle cycle)
{
    switch (spec.kind) {
      case FaultKind::Transient:
        return cycle == spec.cycle;
      case FaultKind::Permanent:
        return cycle >= spec.cycle;
      case FaultKind::Intermittent:
        return cycle >= spec.cycle && spec.period > 0 &&
               (cycle - spec.cycle) % spec.period < spec.duty;
    }
    return false;
}

void
FaultInjector::onTap(noc::Router &router, TapPoint tap, RouterWires &wires)
{
    for (const FaultSpec &spec : faults_) {
        if (spec.site.router != router.node())
            continue;
        if (signalTapPoint(spec.site.signal) != tap)
            continue;
        if (!activeAt(spec, wires.cycle))
            continue;
        applyToRouter(router, wires, spec.site);
        ++applications_;
    }
}

namespace {

/** Flip one bit of a small register field given an "invalid" encoding
 *  for negative sentinels (hardware registers have no -1). */
int
flipField(int value, unsigned bit, unsigned width)
{
    const auto mask = static_cast<unsigned>(lowMask(width));
    unsigned encoded =
        value >= 0 ? (static_cast<unsigned>(value) & mask) : mask;
    encoded ^= (1u << bit) & mask;
    return static_cast<int>(encoded);
}

} // namespace

void
FaultInjector::applyToRouter(noc::Router &router, RouterWires &wires,
                             const FaultSite &site)
{
    const unsigned num_vcs = router.params().numVcs;
    const unsigned vc_bits = bitsFor(num_vcs);
    const int p = site.port;
    const unsigned bit = site.bit;
    NOCALERT_ASSERT(p >= 0 && p < noc::kNumPorts,
                    "fault site port out of range: ", p);

    switch (site.signal) {
      case SignalClass::WriteEnable:
        wires.in[p].writeEnable = static_cast<std::uint32_t>(
            flipBit(wires.in[p].writeEnable, bit));
        break;
      case SignalClass::CreditRecv:
        wires.out[p].creditRecv = static_cast<std::uint32_t>(
            flipBit(wires.out[p].creditRecv, bit));
        break;
      case SignalClass::Sa1Req:
        wires.in[p].sa1Req = flipBit(wires.in[p].sa1Req, bit);
        break;
      case SignalClass::Sa1Grant:
        wires.in[p].sa1Grant = flipBit(wires.in[p].sa1Grant, bit);
        break;
      case SignalClass::Sa2Req:
        wires.out[p].sa2Req = flipBit(wires.out[p].sa2Req, bit);
        break;
      case SignalClass::Sa2Grant:
        wires.out[p].sa2Grant = flipBit(wires.out[p].sa2Grant, bit);
        break;
      case SignalClass::Va1Candidate: {
        // The candidate field has a validity notion: with no candidate
        // selected this cycle the downstream request decoder is
        // disabled, so flipping value bits has no effect.
        int &cand =
            wires.in[p].vc[static_cast<unsigned>(site.vc)].va1CandidateVc;
        if (cand >= 0)
            cand = flipField(cand, bit, vc_bits);
        break;
      }
      case SignalClass::Va2Req:
        wires.out[p].va2Req[static_cast<unsigned>(site.vc)] = flipBit(
            wires.out[p].va2Req[static_cast<unsigned>(site.vc)], bit);
        break;
      case SignalClass::Va2Grant:
        wires.out[p].va2Grant[static_cast<unsigned>(site.vc)] = flipBit(
            wires.out[p].va2Grant[static_cast<unsigned>(site.vc)], bit);
        break;
      case SignalClass::RcWaiting:
        wires.in[p].rcWaiting = static_cast<std::uint32_t>(
            flipBit(wires.in[p].rcWaiting, bit));
        break;
      case SignalClass::RcDone:
        wires.in[p].rcDone = static_cast<std::uint32_t>(
            flipBit(wires.in[p].rcDone, bit));
        break;
      case SignalClass::RcOutPort:
        wires.in[p].rcOutPort = flipField(wires.in[p].rcOutPort, bit, 3);
        break;

      case SignalClass::StVcState: {
        noc::VcRecord &rec =
            router.vcRecord(p, static_cast<unsigned>(site.vc));
        const unsigned encoded =
            static_cast<unsigned>(rec.state) ^ (1u << bit);
        rec.state = static_cast<noc::VcState>(encoded & 3u);
        break;
      }
      case SignalClass::StVcOutPort: {
        noc::VcRecord &rec =
            router.vcRecord(p, static_cast<unsigned>(site.vc));
        rec.outPort = flipField(rec.outPort, bit, 3);
        break;
      }
      case SignalClass::StVcOutVc: {
        noc::VcRecord &rec =
            router.vcRecord(p, static_cast<unsigned>(site.vc));
        rec.outVc = flipField(rec.outVc, bit, vc_bits);
        break;
      }
      case SignalClass::StOutVcFree: {
        noc::OutVcState &ov =
            router.outVcState(p, static_cast<unsigned>(site.vc));
        ov.free = !ov.free;
        break;
      }
      case SignalClass::StCredits: {
        noc::OutVcState &ov =
            router.outVcState(p, static_cast<unsigned>(site.vc));
        const unsigned width = bitsFor(router.params().bufferDepth + 1);
        ov.credits = static_cast<std::uint8_t>(
            (ov.credits ^ (1u << bit)) & lowMask(width));
        break;
      }
      case SignalClass::StSa1Pointer:
        router.sa1Arbiter(p).setPointer(
            router.sa1Arbiter(p).pointer() ^ (1u << bit));
        break;
      case SignalClass::StSa2Pointer:
        router.sa2Arbiter(p).setPointer(
            router.sa2Arbiter(p).pointer() ^ (1u << bit));
        break;
      case SignalClass::StRcPointer:
        router.rcArbiter(p).setPointer(
            router.rcArbiter(p).pointer() ^ (1u << bit));
        break;
      case SignalClass::StSchedValid:
        router.schedule(p).valid = !router.schedule(p).valid;
        break;
      case SignalClass::StSchedVc:
        router.schedule(p).vc = static_cast<std::uint8_t>(
            (router.schedule(p).vc ^ (1u << bit)) & lowMask(vc_bits));
        break;
      case SignalClass::StSchedRow:
        router.schedule(p).rowMask = static_cast<std::uint32_t>(
            flipBit(router.schedule(p).rowMask, bit));
        break;
      case SignalClass::StSchedOutVc:
        router.schedule(p).outVcWire = static_cast<std::uint8_t>(
            (router.schedule(p).outVcWire ^ (1u << bit)) &
            lowMask(vc_bits));
        break;
    }
}

} // namespace nocalert::fault
