package stable

import "stabledispatch/internal/obs"

// Gale–Shapley telemetry. Proposals are pref-list entries consumed
// (each is one Proposal/Refusal round of Algorithm 1 or its taxi-
// proposing mirror); displacements are the refusals that bump an
// already-matched partner back into the proposing pool. The kernel
// accumulates locally and publishes once per matching, so the counters
// cost three atomic adds per matching rather than any per proposal.
var (
	obsProposals     = obs.GetOrCreateCounter("stable_gs_proposals_total")
	obsDisplacements = obs.GetOrCreateCounter("stable_gs_displacements_total")
	obsMatchings     = obs.GetOrCreateCounter("stable_gs_matchings_total")
)
