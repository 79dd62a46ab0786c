/**
 * @file
 * Recovery orchestrator: turns the policy engine's Triggered decision
 * into concrete in-network actions, closing the detection->recovery
 * loop the paper positions NoCAlert inside (Section 1, contribution 2).
 *
 * On each trigger the orchestrator
 *  1. collects the suspect packets implicated by the triggering
 *     assertion's (router, port) locus,
 *  2. quarantines the implicated link(s) so quarantine-aware routing
 *     (RoutingAlgo::QAdaptive) detours subsequent traffic, and
 *  3. purges the suspect packets' flits network-wide, repairing
 *     credits; the sources' end-to-end retransmission layer
 *     (NetworkConfig::retransmit) re-delivers the purged payloads.
 *
 * Actions run at end-of-cycle (the network's cycle observer) so the
 * mid-cycle wire evaluation both kernels agree on is never disturbed —
 * this keeps recovery bit-exact between the dense and bitmask
 * kernels. After each action the policy controller is reset so later,
 * independent faults can trigger again, up to a configurable cap.
 */

#ifndef NOCALERT_RECOVERY_ORCHESTRATOR_HPP
#define NOCALERT_RECOVERY_ORCHESTRATOR_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/nocalert.hpp"
#include "noc/network.hpp"
#include "recovery/policy.hpp"

namespace nocalert::recovery {

/** Orchestrator parameters. */
struct OrchestratorConfig
{
    /** Escalation policy driving the trigger decision. */
    RecoveryConfig policy;

    /** Maximum recovery actions per run (bounds purge/retry churn). */
    unsigned maxActions = 32;

    /** Quarantine implicated ports (requires QAdaptive to matter). */
    bool quarantineEnabled = true;

    /**
     * Repeated triggers at the same router mean the fault outlives a
     * single-port quarantine (the permanent-fault signature); from
     * this many triggers on, the whole router is quarantined and
     * purged so traffic detours around it entirely.
     */
    unsigned escalateThreshold = 2;
};

/** Counters describing what recovery did during a run. */
struct OrchestratorStats
{
    unsigned actions = 0;          ///< Triggers acted upon.
    unsigned quarantinedPorts = 0; ///< (node, port) pairs quarantined.
    std::uint64_t purgedFlits = 0; ///< Flits removed by purges.
    noc::Cycle firstActionCycle = -1; ///< Cycle of the first action.
};

/**
 * Wires a RecoveryController to a network and a NoCAlert engine and
 * executes quarantine-and-purge actions when the policy triggers.
 *
 * The orchestrator installs itself as the engine's alert callback;
 * the owner must forward end-of-cycle control to onCycleEnd() (e.g.
 * from the network's cycle observer, composed with any other
 * end-of-cycle consumers).
 */
class RecoveryOrchestrator
{
  public:
    RecoveryOrchestrator(noc::Network &network, core::NoCAlertEngine &engine,
                         OrchestratorConfig config = {});

    /** Policy engine (for inspection in tests). */
    const RecoveryController &controller() const { return controller_; }

    /** What recovery has done so far. */
    const OrchestratorStats &stats() const { return stats_; }

    /** Recovery actions taken, in order (trigger loci). */
    const std::vector<RecoveryEvent> &actions() const { return actions_; }

    /**
     * Advance the policy clock and execute a pending trigger. Call
     * once per cycle after all state is committed.
     */
    void onCycleEnd(noc::Cycle cycle);

  private:
    void act(const RecoveryEvent &event);

    noc::Network &network_;
    OrchestratorConfig config_;
    RecoveryController controller_;
    OrchestratorStats stats_;
    std::vector<RecoveryEvent> actions_;
    std::unordered_map<noc::NodeId, unsigned> router_triggers_;
};

} // namespace nocalert::recovery

#endif // NOCALERT_RECOVERY_ORCHESTRATOR_HPP
