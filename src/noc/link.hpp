/**
 * @file
 * Inter-router links: registered flit and credit channels.
 *
 * A Link is one *directed* flit channel plus the credit channel
 * flowing in the opposite direction. Both have one cycle of latency
 * (the LT pipeline stage): values written during cycle t become
 * visible to the consumer at cycle t+1 when the network ticks all
 * links simultaneously, which keeps the whole system synchronous
 * regardless of router evaluation order.
 */

#ifndef NOCALERT_NOC_LINK_HPP
#define NOCALERT_NOC_LINK_HPP

#include <cstdint>

#include "noc/flit.hpp"

namespace nocalert::noc {

/** One directed link with its reverse credit channel. */
struct Link
{
    // ---- Forward flit channel (producer -> consumer) ----
    bool sendValid = false; ///< Producer wrote a flit this cycle.
    Flit sendFlit;          ///< The flit being transmitted.
    bool recvValid = false; ///< A flit is arriving this cycle.
    Flit recvFlit;          ///< The arriving flit.

    // ---- Reverse credit channel (consumer -> producer) ----
    /** Per-VC credit bits written by the consumer this cycle. */
    std::uint32_t creditSend = 0;
    /** Per-VC credit bits arriving at the producer this cycle. */
    std::uint32_t creditRecv = 0;

    /**
     * True iff anything is in flight on either channel. A non-busy
     * link carries no information: ticking it is a no-op apart from
     * refreshing the (never observed) stale flit payload, which is
     * what lets the bitmask kernel skip it.
     */
    bool
    busy() const
    {
        return sendValid || recvValid || creditSend != 0 ||
               creditRecv != 0;
    }

    /** Advance one cycle: move written values to the arrival side. */
    void
    tick()
    {
        recvValid = sendValid;
        recvFlit = sendFlit;
        sendValid = false;

        creditRecv = creditSend;
        creditSend = 0;
    }

    /** Drop any in-flight values (used when resetting a network). */
    void clear();
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_LINK_HPP
