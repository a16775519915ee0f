//! Fleet workloads: whole `run_fleet` calls over an open-loop Poisson
//! arrival stream in simulated time, generated from the seed.

use crate::span::Recorder;
use crate::{fnv1a, median, peak_rss_mib, ratio, Checks, Layers, Measured, FNV_OFFSET};
use luke_fleet::health::HealthView;
use luke_fleet::{
    run_fleet, AdmissionConfig, ArrivalStream, ChaosConfig, ChaosPlan, ColdStartModel,
    ContentionConfig, FleetConfig, FleetRun, HedgeConfig, Population, PrewarmConfig, RetryBudget,
    Router, RoutingPolicy, ServiceModel, SurgeConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Every fleet workload prices warm hits with Jukebox.
const JUKEBOX: bool = true;

/// Measured `run_fleet` calls per run, at least.
const MIN_CALLS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// 16 hosts, `FleetConfig::default()`: the stream hot path.
    Dense,
    /// 2,048 hosts with placement-aware routing, dedup, contention, light
    /// chaos and span sampling, on two worker threads.
    Cluster,
    /// 512 hosts with predictive pre-warming.
    Prewarm,
}

impl Shape {
    pub fn parse(name: &str) -> Option<Shape> {
        match name {
            "fleet-dense" => Some(Shape::Dense),
            "fleet-cluster" => Some(Shape::Cluster),
            "fleet-prewarm" => Some(Shape::Prewarm),
            _ => None,
        }
    }

    /// The thread count the output check compares against.
    fn other_threads(self) -> usize {
        match self {
            Shape::Cluster => 1,
            Shape::Dense | Shape::Prewarm => 2,
        }
    }
}

/// The workload's configuration; the seed is `FleetConfig::seed`.
pub fn config(shape: Shape, seed: u64) -> FleetConfig {
    match shape {
        Shape::Dense => FleetConfig {
            // ~10-ms calls: a run holds over a thousand, so its fastest
            // call finds the host at full speed.
            invocations: 50_000,
            seed,
            ..FleetConfig::default()
        },
        Shape::Cluster => {
            let hosts = 2_048;
            let mut config = FleetConfig {
                hosts,
                threads: 2,
                invocations: hosts * 64,
                population: 4 * hosts,
                policy: RoutingPolicy::PlacementAware,
                seed,
                trace_sample: 64,
                ..FleetConfig::default()
            };
            config.tenancy.dedup = true;
            config.cold_start_model = ColdStartModel::ReapPrefetch;
            config.tenancy.contention = ContentionConfig::default_enabled();
            // The resilience stack `lukewarm fleet --chaos light` applies.
            config.chaos = ChaosConfig {
                host_mtbf_ms: 30_000.0,
                crash_downtime_ms: 2_000.0,
                degrade_mtbf_ms: 25_000.0,
                degrade_duration_ms: 3_000.0,
                degrade_slowdown: 5.0,
            };
            config.hedge = HedgeConfig {
                enabled: true,
                max_fraction: 0.05,
            };
            config.retry_budget = RetryBudget::new(10.0, 0.1).expect("preset knobs are valid");
            config.admission = AdmissionConfig {
                enabled: true,
                reserved_concurrency: 2,
                burst_concurrency: 4,
                host_concurrency: 32,
                memory_pressure_instances: 60,
            };
            config.surge = SurgeConfig {
                diurnal_amplitude: 0.3,
                diurnal_period_ms: 60_000.0,
                flash_multiplier: 6.0,
                flash_start_ms: 10_000.0,
                flash_duration_ms: 15_000.0,
            };
            config.series_window_ms = 5_000.0;
            config.series_slo_ms = 50.0;
            config
        }
        Shape::Prewarm => {
            let hosts = 512;
            FleetConfig {
                hosts,
                invocations: hosts * 128,
                population: 4 * hosts,
                seed,
                prewarm: PrewarmConfig::default_enabled(),
                ..FleetConfig::default()
            }
        }
    }
}

/// The one place the benchmark builds its service-time model.
fn service_model() -> ServiceModel {
    ServiceModel::analytic(&workloads::paper_suite())
        .expect("the paper suite is a valid model input")
}

/// The same configuration with one invocation per host: the run's fixed
/// per-host set-up and merge.
fn tiny(config: &FleetConfig) -> FleetConfig {
    FleetConfig {
        invocations: config.hosts,
        ..config.clone()
    }
}

fn call(config: &FleetConfig, model: &ServiceModel) -> Result<FleetRun, String> {
    match catch_unwind(AssertUnwindSafe(|| run_fleet(config, model, JUKEBOX))) {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(format!("run_fleet returned {e}")),
        Err(_) => Err("run_fleet panicked".to_string()),
    }
}

/// Digest of every simulated statistic of a run.
fn digest(run: &FleetRun) -> u64 {
    let mut d = FNV_OFFSET;
    fnv1a(&mut d, format!("{run:?}").as_bytes());
    d
}

/// Accounting identities the fleet's counters satisfy, and finiteness.
fn run_problem(config: &FleetConfig, run: &FleetRun) -> Option<String> {
    let by_host: u64 = run.per_host.iter().map(|h| h.invocations).sum();
    // Arrivals abandoned while their host was down never get a start class.
    let down_failures = run.snapshot.counter("fleet.down_failures");
    let scalars = [
        run.latency_sum_ms,
        run.memory_ms,
        run.contention_extra_ms,
        run.p50_ms(),
        run.p99_ms(),
        run.mean_latency_ms(),
    ];
    let finite = scalars.iter().all(|v| v.is_finite())
        && run
            .per_host
            .iter()
            .all(|h| h.mean_degree.is_finite() && h.mean_latency_ms.is_finite());
    let identities = [
        (
            "cold + warm + lukewarm + down failures = invocations",
            run.cold_starts + run.warm_hits + run.lukewarm_hits + down_failures == run.invocations,
        ),
        (
            "per-host invocations sum to the fleet's",
            by_host == run.invocations,
        ),
        (
            "completed + abandoned = invocations",
            run.completed + run.abandoned == run.invocations,
        ),
        (
            "served + shed = arrivals + hedge copies",
            run.invocations + run.shed == config.invocations as u64 + run.hedges,
        ),
        (
            "latency samples = invocations - hedge copies (a hedged pair is one sample)",
            run.latency_us.count() + run.hedges == run.invocations,
        ),
        (
            "registry fleet.invocations = invocations",
            run.snapshot.counter("fleet.invocations") == run.invocations,
        ),
        (
            "registry fleet.cold_starts = cold starts",
            run.snapshot.counter("fleet.cold_starts") == run.cold_starts,
        ),
        ("all numbers finite", finite),
    ];
    identities
        .iter()
        .find(|(_, holds)| !holds)
        .map(|(name, _)| format!("identity violated: {name}"))
}

pub fn setup(shape: Shape, seed: u64) -> f64 {
    let start = Instant::now();
    let config = config(shape, seed);
    let model = service_model();
    let run = run_fleet(&tiny(&config), &model, JUKEBOX).expect("set-up run succeeds");
    std::hint::black_box(run);
    start.elapsed().as_secs_f64()
}

/// Checks one measured run and compares it with the first one; returns
/// the failure, if any.
fn check_call(
    config: &FleetConfig,
    result: Result<FleetRun, String>,
    reference: &mut Option<(u64, String)>,
) -> Option<String> {
    let run = match result {
        Ok(run) => run,
        Err(e) => return Some(e),
    };
    if let Some(problem) = run_problem(config, &run) {
        return Some(problem);
    }
    let d = digest(&run);
    match reference {
        None => {
            *reference = Some((d, run.snapshot.to_json()));
            None
        }
        Some((first, json)) => {
            if d != *first {
                Some(format!(
                    "digest {d:016x} differs from the first run's {first:016x}"
                ))
            } else if run.snapshot.to_json() != *json {
                Some(format!(
                    "snapshot JSON differs at {} thread(s)",
                    config.threads
                ))
            } else {
                None
            }
        }
    }
}

pub fn measure(shape: Shape, seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let start = Instant::now();
    let config = config(shape, seed);
    let model = service_model();
    let setup = call(&tiny(&config), &model);
    let setup_s = start.elapsed().as_secs_f64();
    checks.record("set-up run_fleet", setup.err());

    let measure_start = Instant::now();
    let mut rates = Vec::new();
    let mut reference = None;
    while rates.len() < MIN_CALLS || measure_start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let result = call(&config, &model);
        rates.push(config.invocations as f64 / t.elapsed().as_secs_f64());
        let problem = check_call(&config, result, &mut reference);
        checks.record("run_fleet", problem);
    }
    // Peak memory of the workload itself, before the cross-check below
    // runs it at another thread count.
    let peak_rss_mib = peak_rss_mib();

    // Output check: the same run at another thread count is identical.
    let other = FleetConfig {
        threads: shape.other_threads(),
        ..config.clone()
    };
    let problem = if reference.is_none() {
        Some("no successful run to compare with".to_string())
    } else {
        check_call(&other, call(&other, &model), &mut reference)
    };
    checks.record(
        &format!("run_fleet at {} thread(s)", other.threads),
        problem,
    );

    // The host's speed drifts in phases of seconds (shared cores): the
    // median of a run moves with the phase it lands in, while the fastest
    // of many short calls, the least disturbed one, repeats across runs.
    let fastest = rates.iter().copied().fold(0.0, f64::max);
    println!(
        "info: inv_per_s is the fastest of {} run_fleet calls of {} arrivals (median {:.0})",
        rates.len(),
        config.invocations,
        median(&rates)
    );
    println!(
        "info: {shape:?} fleet numbers are unvalidated: the repository holds no reference \
         measurement for them"
    );
    Measured {
        setup_s,
        inv_per_s: fastest,
        peak_rss_mib,
        digest: reference.map_or(0, |(d, _)| d),
    }
}

/// Generation and routing of `run_fleet`'s arrival stream, replayed
/// outside it in chunks so the two layers are timed separately.
struct Replay {
    generated: usize,
    routed_per_host: Vec<u64>,
    gen_s: f64,
    route_s: f64,
    failovers: u64,
    hedges: u64,
    placement_routed: u64,
    stationary_count: Option<u64>,
}

const CHUNK: usize = 1024;

fn replay(config: &FleetConfig, model: &ServiceModel) -> Result<Replay, String> {
    let t = Instant::now();
    let population = Population::synthesize(config);
    let mut stream = ArrivalStream::synthesize(config, &population).map_err(|e| e.to_string())?;
    let mut gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let chaos = ChaosPlan::synthesize(config);
    let mut health = HealthView::new(config.hosts, config.health);
    let warm_ms: Vec<f64> = (0..model.functions())
        .map(|p| model.timing(p).warm_ms)
        .collect();
    let mut router = if config.policy == RoutingPolicy::PlacementAware {
        let lang_of = workloads::paper_suite()
            .iter()
            .map(|profile| luke_tenancy::language_slot(profile.language))
            .collect();
        Router::with_languages(config.policy, config.hosts, lang_of)
    } else {
        Router::new(config.policy, config.hosts)
    };
    let mut routed_per_host = vec![0u64; config.hosts];
    let mut route_s = t.elapsed().as_secs_f64();

    let mut generated = 0;
    let mut chunk = Vec::with_capacity(CHUNK);
    while generated < config.invocations {
        let t = Instant::now();
        chunk.clear();
        chunk.extend(
            stream
                .by_ref()
                .take(CHUNK.min(config.invocations - generated)),
        );
        gen_s += t.elapsed().as_secs_f64();
        if chunk.is_empty() {
            break;
        }
        generated += chunk.len();
        let t = Instant::now();
        for event in &chunk {
            let expected_ms = warm_ms[event.instance % warm_ms.len()];
            if chaos.is_none() {
                routed_per_host[router.route(event.instance, expected_ms)] += 1;
            } else {
                health.advance_to(event.at_ms, &chaos);
                if chaos.all_down_at(event.at_ms) {
                    return Err(format!("all hosts down at {} ms", event.at_ms));
                }
                let decision =
                    router.route_resilient(event.instance, expected_ms, &health, &config.hedge);
                routed_per_host[decision.host] += 1;
                if let Some(second) = decision.hedge {
                    routed_per_host[second] += 1;
                }
            }
        }
        route_s += t.elapsed().as_secs_f64();
    }
    let stationary_count = match &stream {
        ArrivalStream::Stationary(g) => Some(g.events_generated()),
        ArrivalStream::Surging(_) => None,
    };
    Ok(Replay {
        generated,
        routed_per_host,
        gen_s,
        route_s,
        failovers: router.failovers(),
        hedges: router.hedges(),
        placement_routed: router.placement_routed(),
        stationary_count,
    })
}

/// Where the replay disagrees with `run_fleet`'s own routing, if anywhere.
fn replay_problem(config: &FleetConfig, replay: &Replay, run: &FleetRun) -> Option<String> {
    if replay.generated != config.invocations {
        return Some(format!(
            "generated {} of {} arrivals",
            replay.generated, config.invocations
        ));
    }
    if let Some(count) = replay.stationary_count {
        if count != config.invocations as u64 {
            return Some(format!(
                "traffic.events_generated {count} != {}",
                config.invocations
            ));
        }
    }
    if (replay.failovers, replay.hedges, replay.placement_routed)
        != (run.failovers, run.hedges, run.placement_routed)
    {
        return Some("route counters differ from run_fleet's".to_string());
    }
    // Without admission control every routed copy is served on its host.
    if !config.admission.enabled {
        let served: Vec<u64> = run.per_host.iter().map(|h| h.invocations).collect();
        if served != replay.routed_per_host {
            return Some("per-host routed counts differ from run_fleet's".to_string());
        }
    }
    None
}

pub fn trace(shape: Shape, seed: u64, rec: &mut Recorder, checks: &mut Checks) -> (Layers, u64) {
    let config = config(shape, seed);
    let span = rec.open("fleet.model_build", 0, 0);
    let model = service_model();
    rec.close(span);
    let span = rec.open("fleet.fixed", 0, 0);
    checks.record("set-up run_fleet", call(&tiny(&config), &model).err());
    rec.close(span);

    // Untraced reference call.
    let span = rec.open("fleet.run_fleet", 0, 0);
    let untraced = call(&config, &model);
    rec.close(span);
    let untraced_s = rec.total("fleet.run_fleet");
    let mut reference = None;
    checks.record("run_fleet", check_call(&config, untraced, &mut reference));

    // Traced pass: the replayed generate/route loop, then the same call.
    let pass = rec.open("traced.pass", 0, 1);
    let loop_span = rec.open("fleet.replay", pass, 1);
    let replayed = catch_unwind(AssertUnwindSafe(|| replay(&config, &model)))
        .unwrap_or_else(|_| Err("replay panicked".to_string()));
    rec.close(loop_span);
    let call_span = rec.open("fleet.run_fleet", pass, 1);
    let result = call(&config, &model);
    rec.close(call_span);
    rec.close(pass);
    let traced_s = rec.total("traced.pass");
    let run_s = rec.total("fleet.run_fleet") - untraced_s;

    let run = result.as_ref().ok().cloned();
    checks.record(
        "traced run_fleet",
        check_call(&config, result, &mut reference),
    );
    let mut layers = Layers::new();
    match (&replayed, &run) {
        (Ok(r), Some(run)) => {
            rec.summed_child("traffic.generate", loop_span, 1, r.gen_s);
            rec.summed_child("route.route", loop_span, 1, r.route_s);
            checks.record("replayed generate/route", replay_problem(&config, r, run));
            layers.insert("traffic.gen_s", r.gen_s);
            layers.insert("traffic.events_per_s", r.generated as f64 / r.gen_s);
            layers.insert("route.route_s", r.route_s);
            layers.insert("route.decisions_per_s", r.generated as f64 / r.route_s);
            layers.insert("fleet.process_merge_s", run_s - r.gen_s - r.route_s);
        }
        (Err(e), _) => checks.record("replayed generate/route", Some(e.clone())),
        (_, None) => {}
    }
    if let Some(run) = &run {
        let counter = |name: &str| run.snapshot.counter(name) as f64;
        layers.insert("server.pool.cold_starts", run.cold_starts as f64);
        layers.insert(
            "server.pool.warm_frac",
            ratio(run.warm_hits, run.invocations),
        );
        layers.insert("server.pool.evictions", counter("pool.evictions"));
        layers.insert("snapshot.restores", counter("snapshot.restores"));
        layers.insert(
            "snapshot.pages_prefetched",
            counter("snapshot.pages_prefetched"),
        );
        layers.insert("snapshot.pages_faulted", counter("snapshot.pages_faulted"));
        layers.insert("tenancy.dedup_hit_frac", run.shared_page_hit_rate());
        layers.insert("tenancy.slowed_invocations", run.slowed_invocations as f64);
        layers.insert("predict.prewarm_spawns", run.prewarm_spawns as f64);
        layers.insert(
            "predict.prewarm_hit_frac",
            ratio(run.prewarm_hits, run.prewarm_spawns),
        );
        layers.insert("resilience.hedges", run.hedges as f64);
        layers.insert("resilience.retries", run.retries as f64);
        layers.insert("resilience.shed", run.shed as f64);
        layers.insert("obs.spans", run.spans.len() as f64);
    }
    layers.insert("fleet.fixed_s", rec.total("fleet.fixed"));
    layers.insert("fleet.model_build_s", rec.total("fleet.model_build"));
    layers.insert("trace.overhead_s", traced_s - untraced_s);
    (layers, reference.map_or(0, |(d, _)| d))
}
