//! Property-based tests for the `luke-predict` subsystem: IAT-histogram
//! quantile monotonicity, merge determinism, the adaptive hold floor,
//! the sparse bank's per-function equivalence to standalone predictors,
//! and the fleet-level bit-transparency of a disabled `PrewarmConfig`.

use lukewarm::fleet::{run_fleet, FleetConfig, PrewarmConfig, ServiceModel};
use lukewarm::predict::{IatHistogram, Predictor, PredictorBank};
use lukewarm::workloads::paper_suite;
use luke_obs::export::{to_csv, to_json};
use luke_obs::Export;
use proptest::prelude::*;

/// Arrival gaps bounded to the histogram's meaningful range (sub-ms to
/// hours), as a generatable vector.
fn iats() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1f64..7_200_000.0, 1..200)
}

/// Strictly increasing arrival times built from generated gaps.
fn arrivals(gaps: &[f64]) -> Vec<f64> {
    let mut at = 0.0;
    let mut out = Vec::with_capacity(gaps.len());
    for gap in gaps {
        at += gap;
        out.push(at);
    }
    out
}

/// Arrivals of several functions merged into one time-ordered stream, as
/// `(time, function)`. Even functions arrive on a strict period (the
/// periodicity head fires), odd ones on generated gaps (the quantile
/// path).
fn interleaved_arrivals() -> impl Strategy<Value = Vec<(f64, usize)>> {
    prop::collection::vec((100.0f64..60_000.0, iats()), 1..24).prop_map(|lanes| {
        let mut stream = Vec::new();
        for (function, (period, gaps)) in lanes.iter().enumerate() {
            let times = if function % 2 == 0 {
                (1..=gaps.len()).map(|i| i as f64 * period).collect()
            } else {
                arrivals(gaps)
            };
            stream.extend(times.into_iter().map(|at| (at, function)));
        }
        stream.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        stream
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- IAT histogram ---

    #[test]
    fn quantiles_are_monotone_in_q(values in iats(), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let mut hist = IatHistogram::new();
        for v in &values {
            hist.record(*v);
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ql = hist.quantile(lo).expect("non-empty histogram");
        let qh = hist.quantile(hi).expect("non-empty histogram");
        prop_assert!(ql <= qh, "q({lo}) = {ql} > q({hi}) = {qh}");
        // Every quantile sits within the recorded range's bucket bounds.
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(qh <= max.ceil(), "q({hi}) = {qh} beyond max {max}");
    }

    #[test]
    fn histogram_merge_equals_recording_the_union(a in iats(), b in iats()) {
        let mut merged = IatHistogram::new();
        let mut left = IatHistogram::new();
        let mut right = IatHistogram::new();
        for v in &a {
            merged.record(*v);
            left.record(*v);
        }
        for v in &b {
            merged.record(*v);
            right.record(*v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), merged.count());
        prop_assert_eq!(left.max_ms(), merged.max_ms());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(left.quantile(q), merged.quantile(q), "q = {}", q);
        }
    }

    // --- Predictor merge determinism ---

    #[test]
    fn predictor_merge_is_deterministic(a in iats(), b in iats()) {
        let config = PrewarmConfig::default_enabled();
        let observe_all = |gaps: &[f64]| {
            let mut p = Predictor::new();
            for at in arrivals(gaps) {
                p.observe(at);
            }
            p
        };
        let mut first = observe_all(&a);
        first.merge(&observe_all(&b));
        let mut second = observe_all(&a);
        second.merge(&observe_all(&b));
        prop_assert_eq!(first.samples(), second.samples());
        prop_assert_eq!(first.last_arrival_ms(), second.last_arrival_ms());
        prop_assert_eq!(
            first.predicted_iat_ms(&config),
            second.predicted_iat_ms(&config)
        );
        prop_assert_eq!(
            first.hold_ms(&config, 600_000.0),
            second.hold_ms(&config, 600_000.0)
        );
        // The merged anchor is the later of the two sides' anchors
        // (both sides saw at least one arrival, so both are anchored).
        let left_anchor = observe_all(&a).last_arrival_ms().expect("anchored");
        let right_anchor = observe_all(&b).last_arrival_ms().expect("anchored");
        prop_assert_eq!(first.last_arrival_ms(), Some(left_anchor.max(right_anchor)));
    }

    // --- Adaptive hold floor ---

    #[test]
    fn holds_never_drop_below_the_configured_floor(
        gaps in iats(),
        cap_ms in 10_000.0f64..1_200_000.0,
    ) {
        let config = PrewarmConfig {
            min_hold_ms: 1_000.0,
            ..PrewarmConfig::default_enabled()
        };
        let floor = config.min_hold_ms.min(cap_ms);
        let mut bank = PredictorBank::new(config, 1, cap_ms);
        for at in arrivals(&gaps) {
            bank.observe(0, at, 5.0);
            let hold = bank.holds()[0];
            prop_assert!(
                hold >= floor && hold <= cap_ms,
                "hold {hold} outside [{floor}, {cap_ms}]"
            );
        }
    }

    // --- Sparse bank ---

    #[test]
    fn bank_answers_each_function_like_a_standalone_predictor(
        stream in interleaved_arrivals(),
        cap_ms in 10_000.0f64..1_200_000.0,
    ) {
        let config = PrewarmConfig {
            min_samples: 4,
            ..PrewarmConfig::default_enabled()
        };
        let functions = 24;
        let mut bank = PredictorBank::new(config, functions, cap_ms);
        let mut alone: Vec<Option<Predictor>> = vec![None; functions];
        for (at, function) in stream {
            let restore_est = 10.0 * function as f64;
            let decays_before = bank.early_decays();
            let scheduled = bank.observe(function, at, restore_est);
            let model = alone[function].get_or_insert_with(Predictor::new);
            model.observe(at);
            let hold = model.hold_ms(&config, cap_ms);
            let expected = model
                .predicted_iat_ms(&config)
                .map(|iat| at + iat - restore_est)
                .filter(|&t_pre| t_pre > at + hold);
            prop_assert_eq!(bank.holds()[function], hold, "hold of {}", function);
            prop_assert_eq!(scheduled, expected, "pre-restore of {}", function);
            prop_assert_eq!(
                bank.early_decays() - decays_before,
                u64::from(hold < cap_ms),
                "early decay of {}",
                function
            );
        }
        // A function never observed has no model and sits at the cap.
        for (function, model) in alone.iter().enumerate() {
            let samples = bank.predictor(function).map(Predictor::samples);
            prop_assert_eq!(samples, model.as_ref().map(Predictor::samples));
            if model.is_none() {
                prop_assert_eq!(bank.holds()[function], cap_ms);
            }
        }
    }
}

/// Predictor memory is O(functions seen): a bank over a million
/// functions holds exactly one model after one arrival.
#[test]
fn bank_creates_a_predictor_on_a_function_first_arrival_only() {
    let functions = 1 << 20;
    let mut bank = PredictorBank::new(PrewarmConfig::default_enabled(), functions, 600_000.0);
    assert_eq!(bank.observe(12_345, 1_000.0, 5.0), None);
    let tracked: Vec<usize> = (0..functions)
        .filter(|&function| bank.predictor(function).is_some())
        .collect();
    assert_eq!(tracked, vec![12_345]);
    assert_eq!(bank.holds()[0], 600_000.0);
}

/// A pool-level restatement of the floor property: an instance invoked
/// at `t` survives any adaptive sweep before `t + floor`.
#[test]
fn adaptive_sweeps_respect_the_last_arrival_plus_minimum_hold() {
    use lukewarm::server::InstancePool;

    let cap_ms = 60_000.0;
    let config = PrewarmConfig::default_enabled();
    let floor = config.min_hold_ms.min(cap_ms);
    let mut bank = PredictorBank::new(config, 1, cap_ms);
    let mut pool = InstancePool::try_new(cap_ms).expect("valid window");
    let id = pool.spawn(0, 0.0);

    // A burst of sub-second arrivals drives the adaptive hold toward the
    // floor; sweeps strictly inside last-arrival + floor must never
    // expire the instance.
    let mut last = 0.0;
    for i in 0..256u64 {
        let at = i as f64 * 100.0;
        bank.observe(0, at, 5.0);
        pool.invoke(id, at).expect("instance is live");
        last = at;
        let just_before = at + bank.holds()[0] - 1e-6;
        let expired = pool.sweep_adaptive(just_before.max(at), bank.holds());
        assert!(expired.is_empty(), "expired {expired:?} before the hold at {at}");
    }
    assert!(pool.instance(id).is_some());
    // Past last-arrival + hold the instance does expire.
    let hold = bank.holds()[0];
    assert!(hold >= floor, "hold {hold} below floor {floor}");
    let expired = pool.sweep_adaptive(last + hold + 1.0, bank.holds());
    assert_eq!(expired, vec![id], "instance must expire after the hold");
}

// --- Fleet-level bit-transparency ---

/// A disabled `PrewarmConfig` must be indistinguishable from a config
/// predating the prediction layer: same RNG draws, same telemetry, no
/// `predict.*` or `fleet.prewarm` series anywhere — at 1 and 4 threads.
#[test]
fn disabled_prewarm_reproduces_the_plain_fleet_bit_for_bit() {
    let config = FleetConfig {
        hosts: 16,
        invocations: 8_000,
        population: 120,
        keep_alive_ms: 30_000.0,
        ..FleetConfig::default()
    };
    let model = ServiceModel::analytic(&paper_suite()).expect("paper suite is valid");
    let plain = run_fleet(&config, &model, false).expect("plain run");
    for threads in [1usize, 4] {
        let explicit = run_fleet(
            &FleetConfig {
                threads,
                prewarm: PrewarmConfig::disabled(),
                ..config.clone()
            },
            &model,
            false,
        )
        .expect("explicitly-disabled run");
        assert_eq!(
            plain.snapshot.to_json(),
            explicit.snapshot.to_json(),
            "snapshot ({threads} threads)"
        );
        assert_eq!(plain.latency_us, explicit.latency_us, "latency histogram");
        assert_eq!(plain.per_host, explicit.per_host, "per-host summaries");
        assert_eq!(
            to_json(&plain.datasets()),
            to_json(&explicit.datasets()),
            "JSON export ({threads} threads)"
        );
        assert_eq!(
            to_csv(&plain.datasets()),
            to_csv(&explicit.datasets()),
            "CSV export ({threads} threads)"
        );
    }
    let json = plain.snapshot.to_json();
    assert!(!json.contains("predict."), "predict.* leaked into a plain run");
    assert!(
        !to_json(&plain.datasets()).contains("fleet.prewarm"),
        "fleet.prewarm leaked into a plain run"
    );
}
