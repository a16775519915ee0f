//! The per-host policy engine: one predictor per function, two
//! decision streams out.

use crate::config::PrewarmConfig;
use crate::predictor::Predictor;

/// A bank of per-function predictors plus the policy state derived from
/// them: the current adaptive keep-alive per function.
///
/// One bank lives inside each simulated host, fed only by that host's
/// arrival stream — shard-local state, so the fleet's parallel phase
/// needs no cross-thread coordination and merges stay deterministic.
///
/// A host has the whole population deployed but serves only a few of
/// its functions, so a function's [`Predictor`] is created on its first
/// [`PredictorBank::observe`]: predictor memory is O(functions seen),
/// not O(functions deployed). A function never observed answers exactly
/// what a fresh predictor would — hold at the cap, nothing scheduled.
#[derive(Clone, Debug)]
pub struct PredictorBank {
    config: PrewarmConfig,
    cap_ms: f64,
    /// Per function: its model, once it has seen an arrival. `None` is
    /// a null pointer, so the table comes from a lazily-faulted zero
    /// mapping and costs nothing for functions never routed here.
    predictors: Vec<Option<Box<Predictor>>>,
    holds: Vec<f64>,
    prewarms_scheduled: u64,
    early_decays: u64,
}

impl PredictorBank {
    /// A bank covering `functions` function ids, with the pool's global
    /// keep-alive `cap_ms` as every function's starting hold.
    pub fn new(config: PrewarmConfig, functions: usize, cap_ms: f64) -> Self {
        PredictorBank {
            config,
            cap_ms,
            predictors: vec![None; functions],
            holds: vec![cap_ms; functions],
            prewarms_scheduled: 0,
            early_decays: 0,
        }
    }

    /// The policy knobs this bank runs under.
    pub fn config(&self) -> &PrewarmConfig {
        &self.config
    }

    /// Feeds one arrival of `function` at simulated time `now_ms` and
    /// refreshes both decision streams. `restore_est_ms` is the current
    /// estimate of a REAP pre-restore's cost for this function, used to
    /// back-date the pre-warm to `predicted_arrival − restore_cost`.
    ///
    /// A pre-restore is scheduled only when the predicted arrival falls
    /// *after* the adaptive keep-alive expires — while the instance
    /// would still be resident, a pre-warm buys nothing.
    ///
    /// Returns the newly scheduled pre-restore time, if any; the caller
    /// owns the timer. Each observe *replaces* the function's pending
    /// pre-restore (at most one outstanding), so the return value also
    /// invalidates any timer from a prior observe, `None` included.
    pub fn observe(&mut self, function: usize, now_ms: f64, restore_est_ms: f64) -> Option<f64> {
        let predictor = self.predictors[function].get_or_insert_with(Box::default);
        predictor.observe(now_ms);
        let hold = predictor.hold_ms(&self.config, self.cap_ms);
        if hold < self.cap_ms {
            self.early_decays += 1;
        }
        self.holds[function] = hold;
        let t_pre = now_ms + predictor.predicted_iat_ms(&self.config)? - restore_est_ms.max(0.0);
        if t_pre > now_ms + hold {
            self.prewarms_scheduled += 1;
            Some(t_pre)
        } else {
            None
        }
    }

    /// The current adaptive keep-alive per function id, for the pool's
    /// adaptive sweep. Functions the model has not yet justified a
    /// deviation for sit at the global cap.
    pub fn holds(&self) -> &[f64] {
        &self.holds
    }

    /// Read-only view of one function's predictor, or `None` before the
    /// function's first arrival.
    pub fn predictor(&self, function: usize) -> Option<&Predictor> {
        self.predictors[function].as_deref()
    }

    /// Pre-restores scheduled so far.
    pub fn prewarms_scheduled(&self) -> u64 {
        self.prewarms_scheduled
    }

    /// Arrivals processed while a tightened (below-cap) hold was in
    /// force for their function.
    pub fn early_decays(&self) -> u64 {
        self.early_decays
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bank_holds_every_function_at_the_cap() {
        let bank = PredictorBank::new(PrewarmConfig::default_enabled(), 4, 600_000.0);
        assert_eq!(bank.holds(), &[600_000.0; 4]);
        assert_eq!(bank.prewarms_scheduled(), 0);
    }

    #[test]
    fn periodic_function_schedules_a_prewarm_after_its_hold() {
        let mut bank = PredictorBank::new(PrewarmConfig::default_enabled(), 2, 600_000.0);
        let mut scheduled = None;
        for i in 0..8 {
            scheduled = bank.observe(0, i as f64 * 5_000.0, 100.0);
        }
        // Period 5 s, hold floor 1 s: the predicted arrival lands after
        // expiry, so the last observe schedules a pre-restore at
        // 35_000 + 5_000 − 100.
        assert!(bank.prewarms_scheduled() > 0);
        let t_pre = scheduled.expect("periodic arrivals schedule a pre-restore");
        assert!((t_pre - 39_900.0).abs() < 1.0, "scheduled at {t_pre}");
        // Only the observed function has a model.
        assert!(bank.predictor(0).is_some());
        assert!(bank.predictor(1).is_none());
    }

    #[test]
    fn no_prewarm_while_the_instance_would_still_be_resident() {
        let config = PrewarmConfig {
            min_hold_ms: 60_000.0,
            ..PrewarmConfig::default_enabled()
        };
        let mut bank = PredictorBank::new(config, 1, 600_000.0);
        for i in 0..8 {
            bank.observe(0, i as f64 * 5_000.0, 100.0);
        }
        // Period 5 s but the hold floor is 60 s: every predicted
        // arrival lands while the instance is still warm.
        assert_eq!(bank.prewarms_scheduled(), 0);
    }

    #[test]
    fn early_decays_count_tightened_holds() {
        let mut bank = PredictorBank::new(PrewarmConfig::default_enabled(), 1, 600_000.0);
        for i in 0..8 {
            bank.observe(0, i as f64 * 5_000.0, 100.0);
        }
        assert!(bank.early_decays() > 0);
        assert!(bank.holds()[0] < 600_000.0);
    }
}
