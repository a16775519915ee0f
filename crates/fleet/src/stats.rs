//! The fleet's one store of counts.
//!
//! Every number a fleet run reports about what happened — the paper's
//! cold / lukewarm / warm classification, the fault layer's outcome, the
//! resilience, prediction and tenancy tallies — lives in one
//! [`HostStats`]. A host keeps its own while it processes arrivals
//! ([`crate::FleetHost::stats`]), [`crate::run_fleet`] folds them in
//! host-id order into the run's, and [`HostStats::fill_registry`] is the
//! one list of registry names they export under.

use luke_obs::Registry;

use crate::config::FleetConfig;
use crate::route::RoutingPolicy;

/// One host's (or, merged, the whole fleet's) counts.
///
/// The router's route-phase counts (`failovers`, `hedges`,
/// `placement_routed`) are zero on every host; the run folds them in
/// once, as one more contributor.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostStats {
    /// Invocations processed (hedge copies included, shed arrivals not).
    pub invocations: u64,
    /// Invocations that found no live instance (or lost it to a fault):
    /// first touches, expiries, evictions, crash respawns.
    pub cold_starts: u64,
    /// Warm hits below the lukewarm threshold.
    pub warm_hits: u64,
    /// Warm hits at or above the lukewarm threshold — the paper's
    /// lukewarm invocations.
    pub lukewarm_hits: u64,
    /// Sum of interleaving degrees over all warm hits.
    pub degree_sum: f64,
    /// Sum of end-to-end latencies, ms, over the latency histogram's
    /// samples (a hedged pair counts once, as its joined outcome).
    pub latency_sum_ms: f64,
    /// Invocations that completed (fault layer).
    pub completed: u64,
    /// Invocations abandoned by the retry policy.
    pub abandoned: u64,
    /// Whole-host chaos crashes applied: pool wiped, keep-alive state gone.
    pub host_crashes: u64,
    /// Invocations abandoned because the host stayed down past the retry
    /// budget.
    pub down_failures: u64,
    /// Retries spent: fault-layer re-attempts plus down-host reconnects.
    pub retries: u64,
    /// Dispatches routed around an unhealthy preferred host.
    pub failovers: u64,
    /// Hedged dispatches issued (each added one extra copy of load).
    pub hedges: u64,
    /// Arrivals the admission ladder let through.
    pub admitted: u64,
    /// Arrivals rejected by the admission ladder.
    pub shed: u64,
    /// Cold starts degraded to lazy-paging restores under memory
    /// pressure.
    pub degraded_restores: u64,
    /// Warm-pool occupancy in instance-milliseconds through the last
    /// arrival — what a provider pays to run the keep-alive policy.
    pub memory_ms: f64,
    /// Instances still warm at the end of the run.
    pub warm_instances: usize,
    /// Pre-restores the prediction policy scheduled (scheduled ≥
    /// spawned: a raised hold cancels a pending pre-warm).
    pub prewarms_scheduled: u64,
    /// Pre-restores actually spawned ahead of a predicted arrival.
    pub prewarm_spawns: u64,
    /// Arrivals that landed on a pre-warmed instance.
    pub prewarm_hits: u64,
    /// Arrivals processed under a tightened (below-cap) adaptive hold.
    pub early_decays: u64,
    /// Dispatches scored by the placement-aware policy.
    pub placement_routed: u64,
    /// Distinct shared pages registered.
    pub shared_pages: u64,
    /// Shared-page registrations that found the page already resident.
    pub dedup_hits: u64,
    /// Bytes dedup avoided materializing.
    pub dedup_bytes_saved: u64,
    /// Total latency contention pressure added, ms.
    pub contention_extra_ms: f64,
    /// Invocations that ran with a contention slowdown above 1.
    pub slowed_invocations: u64,
}

impl HostStats {
    /// Adds `other` into `self`. The integer counts add associatively;
    /// the `f64` sums do not, so a fleet folds its hosts in host-id
    /// order, which no thread schedule can change.
    pub fn merge(&mut self, other: &HostStats) {
        self.invocations += other.invocations;
        self.cold_starts += other.cold_starts;
        self.warm_hits += other.warm_hits;
        self.lukewarm_hits += other.lukewarm_hits;
        self.degree_sum += other.degree_sum;
        self.latency_sum_ms += other.latency_sum_ms;
        self.completed += other.completed;
        self.abandoned += other.abandoned;
        self.host_crashes += other.host_crashes;
        self.down_failures += other.down_failures;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.hedges += other.hedges;
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.degraded_restores += other.degraded_restores;
        self.memory_ms += other.memory_ms;
        self.warm_instances += other.warm_instances;
        self.prewarms_scheduled += other.prewarms_scheduled;
        self.prewarm_spawns += other.prewarm_spawns;
        self.prewarm_hits += other.prewarm_hits;
        self.early_decays += other.early_decays;
        self.placement_routed += other.placement_routed;
        self.shared_pages += other.shared_pages;
        self.dedup_hits += other.dedup_hits;
        self.dedup_bytes_saved += other.dedup_bytes_saved;
        self.contention_extra_ms += other.contention_extra_ms;
        self.slowed_invocations += other.slowed_invocations;
    }

    /// Adds these counts to `registry` under their `fleet.*`,
    /// `admission.*`, `predict.*` and `tenancy.*` names. Each family
    /// exists only when its feature is on in `config`, so a disabled
    /// feature exports byte-identical telemetry. Additive: call it once
    /// per contributor (every host, then the router) on one registry.
    pub fn fill_registry(&self, registry: &mut Registry, config: &FleetConfig) {
        registry.counter_add("fleet.invocations", self.invocations);
        registry.counter_add("fleet.cold_starts", self.cold_starts);
        registry.counter_add("fleet.warm_hits", self.warm_hits);
        registry.counter_add("fleet.lukewarm_hits", self.lukewarm_hits);
        if config.resilience_enabled() {
            registry.counter_add("fleet.host_crashes", self.host_crashes);
            registry.counter_add("fleet.retries", self.retries);
            registry.counter_add("fleet.down_failures", self.down_failures);
            registry.counter_add("fleet.failovers", self.failovers);
            registry.counter_add("fleet.hedges", self.hedges);
        }
        if config.policy == RoutingPolicy::PlacementAware {
            registry.counter_add("fleet.placement_routed", self.placement_routed);
        }
        if config.admission.enabled {
            registry.counter_add("admission.admitted", self.admitted);
            registry.counter_add("admission.degraded_restores", self.degraded_restores);
            registry.counter_add("admission.shed", self.shed);
        }
        if config.prewarm_enabled() {
            registry.counter_add("predict.prewarms_scheduled", self.prewarms_scheduled);
            registry.counter_add("predict.prewarm_spawns", self.prewarm_spawns);
            registry.counter_add("predict.prewarm_hits", self.prewarm_hits);
            registry.counter_add("predict.early_decays", self.early_decays);
        }
        if config.tenancy_enabled() {
            registry.counter_add("tenancy.shared_pages", self.shared_pages);
            registry.counter_add("tenancy.dedup_hits", self.dedup_hits);
            registry.counter_add("tenancy.dedup_bytes_saved", self.dedup_bytes_saved);
            registry.counter_add("tenancy.slowed_invocations", self.slowed_invocations);
            // Total contention-added latency, rounded to whole ms per
            // contributor — the registry speaks integers.
            registry.counter_add(
                "tenancy.contention_slowdown",
                self.contention_extra_ms.round() as u64,
            );
        }
    }

    /// Warm hits of either temperature.
    pub fn hits(&self) -> u64 {
        self.warm_hits + self.lukewarm_hits
    }

    /// Mean interleaving degree over warm hits (0 when there were none).
    pub fn mean_degree(&self) -> f64 {
        ratio(self.degree_sum, self.hits())
    }

    /// Fraction of invocations that found no warm instance.
    pub fn cold_start_rate(&self) -> f64 {
        ratio(self.cold_starts as f64, self.invocations)
    }

    /// Fraction of invocations served warm but microarchitecturally
    /// cold — the paper's lukewarm share.
    pub fn lukewarm_fraction(&self) -> f64 {
        ratio(self.lukewarm_hits as f64, self.invocations)
    }

    /// Retry amplification: dispatched attempts per admitted arrival
    /// (1.0 when nothing ever retried).
    pub fn retry_amplification(&self) -> f64 {
        1.0 + ratio(self.retries as f64, self.invocations)
    }

    /// Shared-page hit rate: the share of shareable page registrations
    /// that found the page already resident on the host (0.0 when
    /// nothing registered — dedup off or tenancy disabled).
    pub fn shared_page_hit_rate(&self) -> f64 {
        ratio(self.dedup_hits as f64, self.shared_pages + self.dedup_hits)
    }

    /// Warm-pool occupancy in instance-seconds — the frontier's x-axis
    /// in its natural unit.
    pub fn memory_instance_s(&self) -> f64 {
        self.memory_ms / 1000.0
    }
}

/// `sum / count`, or 0.0 when `count` is 0.
pub(crate) fn ratio(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_and_the_default_is_its_identity() {
        let one = HostStats {
            invocations: 3,
            cold_starts: 1,
            warm_hits: 1,
            lukewarm_hits: 1,
            degree_sum: 0.5,
            memory_ms: 2.0,
            warm_instances: 2,
            shed: 4,
            ..HostStats::default()
        };
        let mut two = one;
        two.merge(&one);
        assert_eq!(two.invocations, 6);
        assert_eq!(two.hits(), 4);
        assert_eq!(two.warm_instances, 4);
        assert_eq!(two.shed, 8);
        assert_eq!(two.memory_ms, 4.0);
        assert_eq!(two.mean_degree(), 0.25);
        // Folding into the default is the identity.
        let mut folded = HostStats::default();
        folded.merge(&one);
        assert_eq!(folded, one);
    }

    #[test]
    fn empty_stats_report_neutral_ratios() {
        let empty = HostStats::default();
        assert_eq!(empty.mean_degree(), 0.0);
        assert_eq!(empty.cold_start_rate(), 0.0);
        assert_eq!(empty.retry_amplification(), 1.0);
        assert_eq!(empty.shared_page_hit_rate(), 0.0);
    }
}
