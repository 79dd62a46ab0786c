/**
 * @file
 * Synthetic traffic generation (paper Section 5.1: uniform random at
 * various injection rates; classic permutation patterns are provided
 * for broader stress testing).
 *
 * Generation is a pure function of (node, cycle, per-node RNG stream):
 * it never observes network state, so a golden run and a fault-
 * injected run of the same seed see byte-identical packet sequences —
 * the property the golden-reference comparison rests on. Every other
 * workload backend (src/traffic) preserves the same contract.
 */

#ifndef NOCALERT_NOC_TRAFFIC_HPP
#define NOCALERT_NOC_TRAFFIC_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "util/rng.hpp"

namespace nocalert::noc {

/** Spatial traffic patterns. */
enum class TrafficPattern {
    UniformRandom, ///< Destination uniform over all other nodes.
    Transpose,     ///< (x,y) -> (y,x).
    BitComplement, ///< (x,y) -> (W-1-x, H-1-y).
    Hotspot,       ///< Uniform, with extra probability mass on one node.
    Tornado,       ///< (x,y) -> ((x + W/2) mod W, y).
    Shuffle,       ///< Node-id left-rotate by one bit (power-of-two meshes).
    BitReverse,    ///< Node-id bit reversal (power-of-two meshes).
    Neighbor,      ///< (x,y) -> ((x+1) mod W, y): nearest-neighbor.
};

/** Name of a traffic pattern. */
const char *trafficPatternName(TrafficPattern pattern);

/** Inverse of trafficPatternName (nullopt for unknown names). */
std::optional<TrafficPattern> trafficPatternFromName(std::string_view name);

/**
 * Parameters of the Hotspot pattern, and only that pattern: folding
 * them into their own sub-spec keeps pattern-specific knobs out of the
 * shared TrafficSpec surface (they used to leak into every spec as
 * top-level fields). The JSON serialization still emits the legacy
 * flat `hotspot` / `hotspotFraction` keys, so old artifacts round-trip
 * unchanged.
 */
struct HotspotSpec
{
    /** Node receiving the extra probability mass. */
    NodeId node = 0;

    /** Probability a packet targets the hotspot. */
    double fraction = 0.2;

    bool operator==(const HotspotSpec &) const = default;
};

/** Traffic generator parameters. */
struct TrafficSpec
{
    TrafficPattern pattern = TrafficPattern::UniformRandom;

    /** Packet injection probability per node per cycle. */
    double injectionRate = 0.05;

    /** RNG seed; per-node streams are derived from it. */
    std::uint64_t seed = 1;

    /** Cycle at which generation stops (-1 = never). */
    Cycle stopCycle = -1;

    /**
     * Relative weights of the message classes; empty = equal weights.
     * Must match the number of classes configured on the routers.
     */
    std::vector<double> classWeights;

    /** Hotspot-pattern parameters (ignored by every other pattern). */
    HotspotSpec hotspot;

    bool operator==(const TrafficSpec &) const = default;
};

/**
 * Why @p spec cannot drive @p config (empty = valid). Every message
 * names the offending field, so a bad spec is rejected at construction
 * instead of deep inside generation.
 */
std::string validateTrafficSpec(const NetworkConfig &config,
                                const TrafficSpec &spec);

/**
 * Destination of a packet from @p node under @p pattern, consuming the
 * draws the pattern needs from @p rng. Shared by the synthetic
 * generator and the phase-program workload backend so both pick
 * byte-identical destinations from the same stream position. May
 * return @p node itself (self-directed permutation slot = idle).
 */
NodeId trafficDestination(const NetworkConfig &config,
                          TrafficPattern pattern,
                          const HotspotSpec &hotspot, NodeId node,
                          Pcg32 &rng);

/**
 * Message-class pick by @p weights (empty = equal weights), consuming
 * exactly one draw from @p rng. Shared like trafficDestination.
 */
std::uint8_t trafficMessageClass(const NetworkConfig &config,
                                 const std::vector<double> &weights,
                                 Pcg32 &rng);

/**
 * Deterministic per-node traffic source.
 *
 * Value-semantic: copying a Network copies the generator state, so a
 * snapshot resumed later produces exactly the traffic the original
 * would have.
 */
class TrafficGenerator
{
  public:
    /** Construct for @p config with parameters @p spec. */
    TrafficGenerator(const NetworkConfig &config, const TrafficSpec &spec);

    /** The parameters this generator runs with. */
    const TrafficSpec &spec() const { return spec_; }

    /**
     * Decide whether node @p node creates a packet at @p cycle, and
     * build it if so. Draws a fixed number of random values per call
     * so generator state stays aligned across runs. The Bernoulli
     * miss — the overwhelmingly common outcome at realistic rates —
     * stays inline; packet construction is out of line.
     */
    std::optional<Packet>
    generate(const NetworkConfig &config, NodeId node, Cycle cycle)
    {
        Pcg32 &rng = rngs_[static_cast<std::size_t>(node)];
        if (!rng.nextBool(spec_.injectionRate))
            return std::nullopt;
        return generateFire(config, node, cycle, rng);
    }

    /** Packets created so far (all nodes). */
    std::uint64_t packetsCreated() const { return packets_created_; }

    /**
     * True iff generation has permanently stopped by @p cycle: every
     * later generate() call returns nullopt regardless of its draws.
     * The bitmask kernel then skips the draws entirely; the RNG
     * streams diverge from a dense run's, but they are never consulted
     * again, so every observable (packets, ejections, stats) is
     * unaffected.
     */
    bool
    stopped(Cycle cycle) const
    {
        return spec_.stopCycle >= 0 && cycle >= spec_.stopCycle;
    }

  private:
    std::optional<Packet> generateFire(const NetworkConfig &config,
                                       NodeId node, Cycle cycle,
                                       Pcg32 &rng);

    TrafficSpec spec_;
    std::vector<Pcg32> rngs_;            // per node
    std::vector<std::uint64_t> counts_;  // per node packet counter
    std::uint64_t packets_created_ = 0;
};

} // namespace nocalert::noc

#endif // NOCALERT_NOC_TRAFFIC_HPP
