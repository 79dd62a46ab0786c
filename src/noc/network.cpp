#include "noc/network.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace nocalert::noc {

Network::Network(const NetworkConfig &config,
                 const nocalert::traffic::WorkloadSpec &workload)
    : config_(config),
      routing_(makeRouting(config.routing)),
      traffic_(config, workload)
{
    config_.validate();
    const int nodes = config_.numNodes();
    routers_.reserve(nodes);
    nis_.reserve(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        routers_.emplace_back(config_, n);
        nis_.emplace_back(config_, n);
    }
    buildTopology();
    router_live_.assign(static_cast<std::size_t>(nodes), 0);
    force_active_.assign(static_cast<std::size_t>(nodes), 0);
    packed_.assign(static_cast<std::size_t>(nodes), PackedRouterState{});
}

Network::Network(const NetworkConfig &config, const TrafficSpec &traffic)
    : Network(config,
              nocalert::traffic::WorkloadSpec::fromSynthetic(traffic))
{
}

Network::Network(const Network &other)
    : config_(other.config_),
      routing_(makeRouting(other.config_.routing)),
      routers_(other.routers_),
      nis_(other.nis_),
      links_(other.links_),
      in_link_(other.in_link_),
      out_link_(other.out_link_),
      traffic_(other.traffic_),
      cycle_(other.cycle_),
      kernel_mode_(other.kernel_mode_)
{
    // Hooks and observers intentionally not copied: they are bound to
    // engines observing the original instance. The activity pins that
    // exist for their benefit (tap_force_all_, force_active_) reset
    // with them; liveness is recomputed from the copied state.
    force_active_.assign(
        static_cast<std::size_t>(config_.numNodes()), 0);
    recomputeLiveness();
}

Network &
Network::operator=(const Network &other)
{
    if (this == &other)
        return *this;
    config_ = other.config_;
    routing_ = makeRouting(other.config_.routing);
    routers_ = other.routers_;
    nis_ = other.nis_;
    links_ = other.links_;
    in_link_ = other.in_link_;
    out_link_ = other.out_link_;
    traffic_ = other.traffic_;
    cycle_ = other.cycle_;
    kernel_mode_ = other.kernel_mode_;
    tap_force_all_ = false;
    force_active_.assign(
        static_cast<std::size_t>(config_.numNodes()), 0);
    recomputeLiveness();
    router_evals_ = 0;
    ni_evals_ = 0;
    tap_hook_ = nullptr;
    router_observer_ = nullptr;
    ni_observer_ = nullptr;
    cycle_observer_ = nullptr;
    packed_observer_ = nullptr;
    return *this;
}

void
Network::setKernelMode(KernelMode mode)
{
    kernel_mode_ = mode;
    // The packed caches may have rotted while another kernel ran
    // (they are only maintained by stepBitmask); force a rebuild.
    for (PackedRouterState &ps : packed_)
        ps.stale = true;
}

void
Network::recomputeLiveness()
{
    const std::size_t nodes =
        static_cast<std::size_t>(config_.numNodes());
    router_live_.resize(nodes);
    for (std::size_t n = 0; n < nodes; ++n)
        router_live_[n] = routers_[n].quiescent() ? 0 : 1;
    // Anything that invalidates liveness certificates (copies,
    // purges) invalidates the packed mirrors and the cached link
    // arrival flags too (a purge can pull a flit off a link after
    // the flags were computed; a copy may have a different topology).
    packed_.assign(nodes, PackedRouterState{});
    link_flit_dst_.clear();
    link_credit_dst_.clear();
    io_flags_cycle_ = -1;
}

void
Network::setTapFocus(const std::vector<NodeId> &nodes)
{
    tap_force_all_ = false;
    for (NodeId n : nodes)
        if (n >= 0 && n < config_.numNodes())
            force_active_[static_cast<std::size_t>(n)] = 1;
}

void
Network::buildTopology()
{
    const int nodes = config_.numNodes();
    in_link_.assign(static_cast<std::size_t>(nodes) * kNumPorts, -1);
    out_link_.assign(static_cast<std::size_t>(nodes) * kNumPorts, -1);

    auto add_link = [&]() {
        links_.emplace_back();
        return static_cast<int>(links_.size() - 1);
    };

    for (NodeId n = 0; n < nodes; ++n) {
        // Mesh links: one directed link into each connected input port.
        for (int p = 0; p < 4; ++p) {
            const NodeId m = config_.neighborOf(n, p);
            if (m == kInvalidNode)
                continue;
            const int link = add_link();
            in_link_[static_cast<std::size_t>(n) * kNumPorts +
                     static_cast<std::size_t>(p)] = link;
            out_link_[static_cast<std::size_t>(m) * kNumPorts +
                      static_cast<std::size_t>(oppositePort(p))] = link;
        }
        // Local links: NI -> router (injection) and router -> NI.
        const int lp = portIndex(Port::Local);
        in_link_[static_cast<std::size_t>(n) * kNumPorts +
                 static_cast<std::size_t>(lp)] = add_link();
        out_link_[static_cast<std::size_t>(n) * kNumPorts +
                  static_cast<std::size_t>(lp)] = add_link();
    }
}

int
Network::inLinkIndex(NodeId node, int port) const
{
    return in_link_[static_cast<std::size_t>(node) * kNumPorts +
                    static_cast<std::size_t>(port)];
}

int
Network::outLinkIndex(NodeId node, int port) const
{
    return out_link_[static_cast<std::size_t>(node) * kNumPorts +
                     static_cast<std::size_t>(port)];
}

Router &
Network::router(NodeId node)
{
    // The caller may mutate architectural state behind the kernel's
    // back; drop the router's quiescence certificate so the bitmask
    // kernel re-evaluates it, and its packed mirror so the fast path
    // rebuilds before trusting the masks.
    router_live_[static_cast<std::size_t>(node)] = 1;
    packed_[static_cast<std::size_t>(node)].stale = true;
    return routers_[static_cast<std::size_t>(node)];
}

const Router &
Network::router(NodeId node) const
{
    return routers_[static_cast<std::size_t>(node)];
}

NetworkInterface &
Network::ni(NodeId node)
{
    return nis_[static_cast<std::size_t>(node)];
}

const NetworkInterface &
Network::ni(NodeId node) const
{
    return nis_[static_cast<std::size_t>(node)];
}

void
Network::step()
{
    switch (kernel_mode_) {
    case KernelMode::Dense:
        stepDense();
        break;
    case KernelMode::Bitmask:
        stepBitmask();
        break;
    }
}

void
Network::stepDense()
{
    const int nodes = config_.numNodes();
    const int lp = portIndex(Port::Local);

    // ---- Network interfaces: traffic generation, inject, eject ----
    for (NodeId n = 0; n < nodes; ++n) {
        if (auto pkt = traffic_.generate(config_, n, cycle_))
            nis_[static_cast<std::size_t>(n)].enqueue(*pkt);

        Link &inj = links_[static_cast<std::size_t>(inLinkIndex(n, lp))];
        Link &ejc = links_[static_cast<std::size_t>(outLinkIndex(n, lp))];

        NetworkInterface::LinkIo io;
        io.inValid = ejc.recvValid;
        io.inFlit = ejc.recvFlit;
        io.creditIn = inj.creditRecv;

        NetworkInterface &ni = nis_[static_cast<std::size_t>(n)];
        ni.evaluate(cycle_, io);
        ++ni_evals_;

        if (io.outValid) {
            inj.sendValid = true;
            inj.sendFlit = io.outFlit;
        }
        ejc.creditSend |= io.creditOut;

        if (ni_observer_)
            ni_observer_(ni, ni.wires());
    }

    // ---- Routers ----
    Router::Context ctx{&config_, routing_.get()};
    for (NodeId n = 0; n < nodes; ++n) {
        Router::LinkIo io;
        for (int p = 0; p < kNumPorts; ++p) {
            const int li = inLinkIndex(n, p);
            if (li >= 0) {
                const Link &link = links_[static_cast<std::size_t>(li)];
                io.inValid[p] = link.recvValid;
                io.inFlit[p] = link.recvFlit;
            }
            const int lo = outLinkIndex(n, p);
            if (lo >= 0)
                io.creditIn[p] =
                    links_[static_cast<std::size_t>(lo)].creditRecv;
        }

        Router &router = routers_[static_cast<std::size_t>(n)];
        router.evaluate(ctx, cycle_, io,
                        tap_hook_ ? &tap_hook_ : nullptr);
        ++router_evals_;
        router_live_[static_cast<std::size_t>(n)] =
            router.quiescent() ? 0 : 1;

        for (int p = 0; p < kNumPorts; ++p) {
            const int lo = outLinkIndex(n, p);
            if (lo >= 0 && io.outValid[p]) {
                Link &link = links_[static_cast<std::size_t>(lo)];
                link.sendValid = true;
                link.sendFlit = io.outFlit[p];
            }
            const int li = inLinkIndex(n, p);
            if (li >= 0)
                links_[static_cast<std::size_t>(li)].creditSend |=
                    io.creditOut[p];
        }

        if (router_observer_)
            router_observer_(router, router.wires());
    }

    // ---- Links advance ----
    for (Link &link : links_)
        link.tick();

    ++cycle_;

    if (cycle_observer_)
        cycle_observer_(*this);
}

void
Network::stepBitmask()
{
    const int nodes = config_.numNodes();
    const int lp = portIndex(Port::Local);

    // ---- Batched link delivery ----
    // One sweep over the links derives, for every node, whether
    // anything arrived: bit 0 - a flit on some router input port,
    // bit 1 - a credit on some router output port, bit 2 - a flit on
    // the ejection link (for the NI), bit 3 - a credit on the
    // injection link (for the NI). The recv sides the sweep reads are
    // registered - only tick() at end of cycle moves send to recv,
    // and the NI loop below writes send sides only - so the flags
    // stay valid for both module loops, and a node with clear flags
    // is scheduled without loading any of its link slots. Ordinarily
    // the flags were already computed for free by the previous
    // cycle's link pass; the sweep here only runs when something
    // invalidated them (another kernel ran, a copy, a purge).
    // Links whose send side gets written this cycle join the busy
    // set; the end-of-cycle pass visits only busy links.
    const auto mark_busy = [this](int li) {
        link_busy_bits_[static_cast<std::size_t>(li) >> 6] |=
            std::uint64_t{1} << (static_cast<unsigned>(li) & 63u);
    };

    if (io_flags_cycle_ != cycle_) {
        if (link_flit_dst_.size() != links_.size()) {
            // Every link has exactly one flit and one credit
            // consumer; router consumers are stored as the node id,
            // NI consumers (ejection flits, injection credits) as
            // ~node.
            link_flit_dst_.assign(links_.size(), -1);
            link_credit_dst_.assign(links_.size(), -1);
            for (NodeId n = 0; n < nodes; ++n) {
                for (int p = 0; p < kNumPorts; ++p) {
                    const int li = inLinkIndex(n, p);
                    if (li >= 0)
                        link_flit_dst_[static_cast<std::size_t>(li)] = n;
                    const int lo = outLinkIndex(n, p);
                    if (lo >= 0)
                        link_credit_dst_[static_cast<std::size_t>(lo)] =
                            n;
                }
                link_flit_dst_[static_cast<std::size_t>(
                    outLinkIndex(n, lp))] = ~n;
                link_credit_dst_[static_cast<std::size_t>(
                    inLinkIndex(n, lp))] = ~n;
            }
        }
        node_io_flags_.assign(static_cast<std::size_t>(nodes), 0);
        link_busy_bits_.assign((links_.size() + 63) / 64, 0);
        for (std::size_t li = 0; li < links_.size(); ++li) {
            const Link &link = links_[li];
            if (link.busy())
                mark_busy(static_cast<int>(li));
            if (link.recvValid) {
                const int d = link_flit_dst_[li];
                if (d >= 0)
                    node_io_flags_[static_cast<std::size_t>(d)] |= 1;
                else
                    node_io_flags_[static_cast<std::size_t>(~d)] |= 4;
            }
            if (link.creditRecv != 0) {
                const int d = link_credit_dst_[li];
                if (d >= 0)
                    node_io_flags_[static_cast<std::size_t>(d)] |= 2;
                else
                    node_io_flags_[static_cast<std::size_t>(~d)] |= 8;
            }
        }
        io_flags_cycle_ = cycle_;
    }

    // ---- Network interfaces ----
    // An idle NI with no arriving flit cannot change state or drive
    // outputs (its wires would show nothing), so it is skipped with
    // its observer; one woken only by returning credits takes the
    // credit fast path (NetworkInterface::applyCreditIncrements).
    // Workload draws are skipped only on cycles where no node can
    // fire (WorkloadGenerator::idleAt), so the synthetic backend's
    // sequential streams stay aligned with a dense run while they
    // still matter. The flag bits stand in for the NI link loads.
    const bool idle = traffic_.idleAt(cycle_);
    for (NodeId n = 0; n < nodes; ++n) {
        std::optional<Packet> pkt;
        if (!idle)
            pkt = traffic_.generate(config_, n, cycle_);

        NetworkInterface &ni = nis_[static_cast<std::size_t>(n)];
        const std::uint8_t nflags =
            node_io_flags_[static_cast<std::size_t>(n)];

        const bool active =
            pkt.has_value() || !ni.idle() || (nflags & 4) != 0;
        if (pkt)
            ni.enqueue(*pkt);
        if (!active) {
            if (nflags & 8)
                ni.applyCreditIncrements(
                    links_[static_cast<std::size_t>(inLinkIndex(n, lp))]
                        .creditRecv);
            continue;
        }

        Link &inj = links_[static_cast<std::size_t>(inLinkIndex(n, lp))];
        Link &ejc = links_[static_cast<std::size_t>(outLinkIndex(n, lp))];

        NetworkInterface::LinkIo io;
        io.inValid = ejc.recvValid;
        io.inFlit = ejc.recvFlit;
        io.creditIn = inj.creditRecv;

        ni.evaluate(cycle_, io);
        ++ni_evals_;

        if (io.outValid) {
            inj.sendValid = true;
            inj.sendFlit = io.outFlit;
            mark_busy(inLinkIndex(n, lp));
        }
        if (io.creditOut != 0) {
            ejc.creditSend |= io.creditOut;
            mark_busy(outLinkIndex(n, lp));
        }

        if (ni_observer_)
            ni_observer_(ni, ni.wires());
    }

    // ---- Routers: active-set scheduling + packed fast path ----
    // A quiescent router (Router::quiescent) with no arriving flit
    // performs no state transition, drives no output, and its checkers
    // would see all-zero wires (core::verifyQuiescentInvariant
    // certifies they pass), so it is skipped; one woken only by
    // returning credits takes the credit fast path
    // (Router::applyCreditIncrements). An evaluated router tries the
    // struct-of-arrays fast path unless it is pinned (tap hooks and
    // forced-active routers need the wire record and tap delivery);
    // pinned routers and rejected screens take the branchy pipeline
    // with the full checker bank.
    Router::Context ctx{&config_, routing_.get()};
    const bool hook_all = tap_force_all_ && tap_hook_;
    PackedCycleEvents ev;
    Router::LinkIo io;
    for (NodeId n = 0; n < nodes; ++n) {
        const std::size_t idx = static_cast<std::size_t>(n);
        const std::uint8_t flags = node_io_flags_[idx];

        const bool pinned = hook_all || force_active_[idx];
        if ((flags & 1) == 0 && !router_live_[idx] && !pinned) {
            if (flags & 2) {
                std::array<std::uint32_t, kNumPorts> credits = {};
                for (int p = 0; p < kNumPorts; ++p) {
                    const int lo = outLinkIndex(n, p);
                    if (lo >= 0)
                        credits[p] =
                            links_[static_cast<std::size_t>(lo)]
                                .creditRecv;
                }
                routers_[idx].applyCreditIncrements(credits);
            }
            continue;
        }

        // Fill the reused LinkIo: flag-gated gathers, and only the
        // output fields evaluate() writes conditionally need
        // clearing (flit payloads are guarded by their valid bits).
        io.outValid = {};
        io.creditOut = {};
        io.inValid = {};
        io.creditIn = {};
        io.inMask = 0;
        io.outMask = 0;
        io.creditOutMask = 0;
        if (flags & 1) {
            for (int p = 0; p < kNumPorts; ++p) {
                const int li = inLinkIndex(n, p);
                if (li >= 0) {
                    const Link &link =
                        links_[static_cast<std::size_t>(li)];
                    if (link.recvValid) {
                        io.inValid[p] = true;
                        io.inFlit[p] = link.recvFlit;
                        io.inMask |= static_cast<std::uint8_t>(1u << p);
                    }
                }
            }
        }
        if (flags & 2) {
            for (int p = 0; p < kNumPorts; ++p) {
                const int lo = outLinkIndex(n, p);
                if (lo >= 0)
                    io.creditIn[p] =
                        links_[static_cast<std::size_t>(lo)].creditRecv;
            }
        }

        Router &router = routers_[idx];
        bool fast = false;
        if (!pinned) {
            PackedRouterState &ps = packed_[idx];
            if (ps.stale)
                router.recomputePacked(config_, ps);
            fast = router.evaluateFast(ctx, cycle_, io, ps,
                                       packed_scratch_, ev);
            if (fast) {
                ++router_evals_;
                router_live_[idx] = ps.quiescentPacked() ? 0 : 1;
                if (ev.mask != 0 && packed_observer_)
                    packed_observer_(router, ev);
            }
        }
        if (!fast) {
            router.evaluate(ctx, cycle_, io,
                            tap_hook_ ? &tap_hook_ : nullptr);
            ++router_evals_;
            router_live_[idx] = router.quiescent() ? 0 : 1;
            packed_[idx].stale = true;

            if (router_observer_)
                router_observer_(router, router.wires());
        }

        if (fast) {
            // The fast path reports exactly which ports it drove;
            // only those links need touching. (A corrupted schedule
            // can aim at a disconnected port — mirror the slow
            // path's index guards so the flit just vanishes.)
            for (std::uint32_t m = io.outMask; m != 0;) {
                const int p = lowestSetBit(m);
                m = static_cast<std::uint32_t>(
                    clearBit(m, static_cast<unsigned>(p)));
                const int lo = outLinkIndex(n, p);
                if (lo >= 0) {
                    Link &link = links_[static_cast<std::size_t>(lo)];
                    link.sendValid = true;
                    link.sendFlit = io.outFlit[p];
                    mark_busy(lo);
                }
            }
            for (std::uint32_t m = io.creditOutMask; m != 0;) {
                const int p = lowestSetBit(m);
                m = static_cast<std::uint32_t>(
                    clearBit(m, static_cast<unsigned>(p)));
                const int li = inLinkIndex(n, p);
                if (li >= 0) {
                    links_[static_cast<std::size_t>(li)].creditSend |=
                        io.creditOut[p];
                    mark_busy(li);
                }
            }
            continue;
        }

        for (int p = 0; p < kNumPorts; ++p) {
            const int lo = outLinkIndex(n, p);
            if (lo >= 0 && io.outValid[p]) {
                Link &link = links_[static_cast<std::size_t>(lo)];
                link.sendValid = true;
                link.sendFlit = io.outFlit[p];
                mark_busy(lo);
            }
            const int li = inLinkIndex(n, p);
            if (li >= 0 && io.creditOut[p] != 0) {
                links_[static_cast<std::size_t>(li)].creditSend |=
                    io.creditOut[p];
                mark_busy(li);
            }
        }
    }

    // ---- Links advance; next cycle's arrival flags fall out of the
    // same pass (the freshly ticked recv sides are exactly what the
    // dedicated sweep above would read at the top of the next step).
    // Only busy links are visited: a link outside the set has nothing
    // on either side, so ticking it is a no-op and it contributes no
    // flags. A bit survives into the next cycle exactly while the
    // freshly ticked recv side still carries something (the clearing
    // tick is then next cycle's visit).
    std::fill(node_io_flags_.begin(), node_io_flags_.end(), 0);
    for (std::size_t w = 0; w < link_busy_bits_.size(); ++w) {
        std::uint64_t bits = link_busy_bits_[w];
        if (bits == 0)
            continue;
        std::uint64_t keep = 0;
        while (bits != 0) {
            const unsigned b =
                static_cast<unsigned>(lowestSetBit(bits));
            bits = clearBit(bits, b);
            const std::size_t li = w * 64 + b;
            Link &link = links_[li];
            link.tick();
            bool still = false;
            if (link.recvValid) {
                const int d = link_flit_dst_[li];
                if (d >= 0)
                    node_io_flags_[static_cast<std::size_t>(d)] |= 1;
                else
                    node_io_flags_[static_cast<std::size_t>(~d)] |= 4;
                still = true;
            }
            if (link.creditRecv != 0) {
                const int d = link_credit_dst_[li];
                if (d >= 0)
                    node_io_flags_[static_cast<std::size_t>(d)] |= 2;
                else
                    node_io_flags_[static_cast<std::size_t>(~d)] |= 8;
                still = true;
            }
            if (still)
                keep |= std::uint64_t{1} << b;
        }
        link_busy_bits_[w] = keep;
    }

    ++cycle_;
    io_flags_cycle_ = cycle_;

    if (cycle_observer_)
        cycle_observer_(*this);
}

std::vector<std::uint64_t>
Network::countInFlightFlitsPerDst(bool include_queued) const
{
    std::vector<std::uint64_t> counts(
        static_cast<std::size_t>(config_.numNodes()), 0);
    auto tally = [&](NodeId dst, std::uint64_t n) {
        if (dst >= 0 && dst < config_.numNodes())
            counts[static_cast<std::size_t>(dst)] += n;
    };

    for (const NetworkInterface &ni : nis_)
        for (const auto &[dst, n] : ni.pendingFlitsByDst(include_queued))
            tally(dst, n);

    for (const Router &router : routers_) {
        for (int p = 0; p < kNumPorts; ++p) {
            for (unsigned v = 0; v < config_.router.numVcs; ++v) {
                const VcFifo &fifo = router.fifo(p, v);
                for (unsigned i = 0; i < fifo.size(); ++i)
                    tally(fifo.peek(i).dst, 1);
            }
        }
    }

    for (const Link &link : links_) {
        if (link.sendValid)
            tally(link.sendFlit.dst, 1);
        if (link.recvValid)
            tally(link.recvFlit.dst, 1);
    }
    return counts;
}

void
Network::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        step();
}

bool
Network::drain(Cycle max_cycles)
{
    for (Cycle i = 0; i < max_cycles; ++i) {
        if (quiescent())
            return true;
        step();
    }
    return quiescent();
}

bool
Network::quiescent() const
{
    for (const Router &router : routers_)
        if (!router.idle())
            return false;
    for (const NetworkInterface &ni : nis_)
        if (!ni.idle())
            return false;
    for (const Link &link : links_)
        if (link.sendValid || link.recvValid)
            return false;
    return true;
}

std::size_t
Network::quarantinePort(NodeId node, int port)
{
    if (node < 0 || node >= config_.numNodes())
        return 0;
    std::size_t added = 0;
    auto mark = [&](NodeId n, int p) {
        if (p < 0 || p >= kNumPorts || p == portIndex(Port::Local))
            return;
        if (!config_.portConnected(n, p))
            return;
        if (routing_->isQuarantined(n, p))
            return;
        routing_->quarantine(n, p);
        ++added;
    };
    auto both_directions = [&](int p) {
        mark(node, p);
        const NodeId m = config_.neighborOf(node, p);
        if (m != kInvalidNode)
            mark(m, oppositePort(p));
    };
    if (port >= 0) {
        both_directions(port);
    } else {
        for (int p = 0; p < 4; ++p)
            both_directions(p);
    }
    return added;
}

std::unordered_set<PacketId>
Network::implicatedPackets(NodeId node, int port) const
{
    std::unordered_set<PacketId> ids;
    if (node < 0 || node >= config_.numNodes())
        return ids;
    const Router &r = routers_[static_cast<std::size_t>(node)];
    const unsigned num_vcs = config_.router.numVcs;

    auto add_flit = [&](const Flit &flit) {
        if (flit.packet != kInvalidPacket)
            ids.insert(flit.packet);
    };
    auto add_link = [&](int index) {
        if (index < 0)
            return;
        const Link &link = links_[static_cast<std::size_t>(index)];
        if (link.sendValid)
            add_flit(link.sendFlit);
        if (link.recvValid)
            add_flit(link.recvFlit);
    };
    auto add_port = [&](int p) {
        if (p < 0 || p >= kNumPorts)
            return;
        for (unsigned v = 0; v < num_vcs; ++v) {
            const VcRecord &rec = r.vcRecord(p, v);
            if (rec.state != VcState::Idle &&
                rec.packet != kInvalidPacket) {
                ids.insert(rec.packet);
            }
            const VcFifo &fifo = r.fifo(p, v);
            for (unsigned i = 0; i < fifo.size(); ++i)
                add_flit(fifo.peek(i));
            const OutVcState &ov = r.outVcState(p, v);
            if (!ov.free && ov.ownerPort >= 0 &&
                ov.ownerPort < kNumPorts && ov.ownerVc >= 0 &&
                ov.ownerVc < static_cast<int>(num_vcs)) {
                const VcRecord &owner = r.vcRecord(
                    ov.ownerPort, static_cast<unsigned>(ov.ownerVc));
                if (owner.packet != kInvalidPacket)
                    ids.insert(owner.packet);
            }
        }
        add_link(inLinkIndex(node, p));
        add_link(outLinkIndex(node, p));
    };

    if (port >= 0 && port < kNumPorts) {
        add_port(port);
    } else {
        for (int p = 0; p < kNumPorts; ++p)
            add_port(p);
    }
    return ids;
}

std::uint64_t
Network::purgePackets(const std::unordered_set<PacketId> &suspects)
{
    if (suspects.empty())
        return 0;
    std::uint64_t removed = 0;
    const int nodes = config_.numNodes();
    const int lp = portIndex(Port::Local);

    // Router buffers and pipeline state; freed buffer slots hand their
    // credits back to whoever sits upstream of the port.
    for (NodeId n = 0; n < nodes; ++n) {
        Router &r = routers_[static_cast<std::size_t>(n)];
        removed += r.purgePackets(
            suspects, [&](int p, unsigned v, unsigned count) {
                if (p == lp) {
                    nis_[static_cast<std::size_t>(n)].restoreCredits(
                        v, count);
                } else {
                    const NodeId m = config_.neighborOf(n, p);
                    if (m != kInvalidNode) {
                        routers_[static_cast<std::size_t>(m)]
                            .addOutputCredits(oppositePort(p), v, count);
                    }
                }
            });
    }

    // In-flight link flits. Iterating every (node, input port) link
    // plus each node's ejection link touches every link exactly once;
    // the sender whose flit vanishes gets its credit back.
    auto purge_stage = [&](bool &valid, Flit &flit, const auto &restore) {
        if (valid && suspects.count(flit.packet) != 0) {
            restore(flit);
            valid = false;
            ++removed;
        }
    };
    for (NodeId n = 0; n < nodes; ++n) {
        for (int p = 0; p < kNumPorts; ++p) {
            const int li = inLinkIndex(n, p);
            if (li < 0)
                continue;
            Link &link = links_[static_cast<std::size_t>(li)];
            auto restore = [&](const Flit &flit) {
                if (p == lp) {
                    nis_[static_cast<std::size_t>(n)].restoreCredits(
                        flit.vc, 1);
                } else {
                    const NodeId m = config_.neighborOf(n, p);
                    if (m != kInvalidNode) {
                        routers_[static_cast<std::size_t>(m)]
                            .addOutputCredits(oppositePort(p), flit.vc,
                                              1);
                    }
                }
            };
            purge_stage(link.sendValid, link.sendFlit, restore);
            purge_stage(link.recvValid, link.recvFlit, restore);
        }
        const int lo = outLinkIndex(n, lp);
        if (lo >= 0) {
            Link &link = links_[static_cast<std::size_t>(lo)];
            auto restore = [&](const Flit &flit) {
                routers_[static_cast<std::size_t>(n)].addOutputCredits(
                    lp, flit.vc, 1);
            };
            purge_stage(link.sendValid, link.sendFlit, restore);
            purge_stage(link.recvValid, link.recvFlit, restore);
        }
    }

    // Source/destination NI state (aborted streams, staged ejections).
    for (NetworkInterface &ni : nis_)
        ni.purgePackets(suspects);

    // Purging changes quiescence both ways; recertify everything.
    recomputeLiveness();
    return removed;
}

NetworkStats
Network::stats() const
{
    NetworkStats stats;
    stats.cycles = cycle_;
    stats.packetsCreated = traffic_.packetsCreated();
    for (const NetworkInterface &ni : nis_) {
        stats.packetsInjected += ni.packetsInjected();
        stats.packetsEjected += ni.packetsEjected();
        stats.flitsInjected += ni.flitsInjected();
        stats.flitsEjected += ni.flitsEjected();
        stats.latencySum += ni.latencySum();
    }
    return stats;
}

std::vector<EjectionRecord>
Network::collectEjections() const
{
    std::vector<EjectionRecord> all;
    for (const NetworkInterface &ni : nis_) {
        all.insert(all.end(), ni.ejectionLog().begin(),
                   ni.ejectionLog().end());
    }
    return all;
}

void
Network::clearEjectionLogs()
{
    for (NetworkInterface &ni : nis_)
        ni.clearLog();
}

} // namespace nocalert::noc
