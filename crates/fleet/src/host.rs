//! One simulated host: an instance pool, a fault plan, and the
//! interleaving-degree estimate that prices every warm hit.
//!
//! A host is deliberately self-contained — it owns its pool, fault
//! stream, counters, histogram, and a private
//! [`CalendarQueue`] of timers (keep-alive expiries, adaptive-decay
//! re-checks, pre-warm restores), and consumes its pre-routed arrival
//! queue with no shared state. Timers drain at each arrival boundary in
//! `(time, kind, seq)` order, so everything between two arrivals is a
//! pure function of the host's own history. That is what makes the
//! fleet *embarrassingly deterministic*: hosts can be processed in any
//! order, on any number of threads, and merging their state in host-id
//! order reproduces the sequential run bit for bit.

use std::num::NonZeroU32;
use std::ops::ControlFlow;
use std::sync::Arc;

use luke_common::rng::DetRng;
use luke_obs::span::{tick_us, trace_id, SpanKind, SpanRing, SpanScope};
use luke_predict::PredictorBank;
use luke_obs::{Histogram, Registry, StartClass, TimeWindows};
use luke_snapshot::{ColdStartModel, PageWorkingSet, SnapshotStore};
use luke_tenancy::{language_slot, FunctionLayout};
use server::{
    AdmissionControl, AdmissionDecision, AttemptCosts, FaultPlan, FaultStats, InstancePool,
    InvocationResult, RetryPolicy,
};

use crate::chaos::{HostSchedule, HostState};
use crate::config::FleetConfig;
use crate::event::{CalendarQueue, FleetEventKind};
use crate::route::RoutingPolicy;
use crate::stats::HostStats;
use crate::tenant::HostTenancy;
use crate::timing::ServiceModel;
use crate::traffic::Population;

/// Seed-space tag for per-host fault plans.
const FAULT_STREAM: u64 = 0x66_6C_74; // "flt"
/// Seed-space tag for down-host reconnect backoff jitter.
const DOWN_STREAM: u64 = 0x646F_776E; // "down"
/// First span id the host side hands out: the root is id 0 and the
/// route-phase spans own ids 1–3.
const HOST_SPAN_FIRST_ID: u32 = 4;

/// A routed invocation waiting on a host's queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutedInvocation {
    /// Arrival time, ms since fleet start.
    pub at_ms: f64,
    /// Logical function id (`id % profiles` = suite profile).
    pub function: usize,
    /// Fleet-wide dispatch sequence number (hedge copies share it; the
    /// merge joins them back together).
    pub dispatch: u64,
    /// Whether this is one copy of a hedged dispatch. Hedged copies are
    /// real load but report through [`FleetHost::hedge_outcomes`] so the
    /// merge can keep only the faster completion.
    pub hedge: bool,
    /// Whether this copy is the hedged *duplicate* (the second lane of
    /// the pair). The primary copy of a hedged dispatch has `hedge ==
    /// true, duplicate == false`; span trees use this to pick the lane.
    pub duplicate: bool,
}

impl RoutedInvocation {
    /// A plain (non-hedged) routed invocation.
    pub fn new(at_ms: f64, function: usize) -> Self {
        RoutedInvocation {
            at_ms,
            function,
            dispatch: 0,
            hedge: false,
            duplicate: false,
        }
    }
}

/// The fate of one routed copy. A hedged copy's is joined with its
/// pair's across hosts at merge time; a plain copy's is recorded as it
/// retires (both through [`record_outcome`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeOutcome {
    /// The dispatch id both copies share.
    pub dispatch: u64,
    /// The shared arrival time, ms (for time-series attribution).
    pub at_ms: f64,
    /// This copy's end-to-end latency, ms.
    pub latency_ms: f64,
    /// Whether this copy completed.
    pub completed: bool,
    /// How this copy's instance was found (cold/lukewarm/warm).
    pub class: StartClass,
}

/// Records one latency sample: the latency histogram, the latency sum
/// and the series outcome with its SLO verdict (`slo_ms` 0 = no SLO). A
/// host records each plain invocation it retires through here, and
/// [`crate::run_fleet`] each joined hedge pair.
pub(crate) fn record_outcome(
    latency_us: &mut Histogram,
    latency_sum_ms: &mut f64,
    series: &mut TimeWindows,
    slo_ms: f64,
    outcome: &HedgeOutcome,
) {
    *latency_sum_ms += outcome.latency_ms;
    let sample_us = (outcome.latency_ms * 1000.0).round() as u64;
    latency_us.record(sample_us);
    let over_slo = slo_ms > 0.0 && outcome.latency_ms > slo_ms;
    series.record_outcome(outcome.at_ms, sample_us, outcome.class, over_slo);
}

/// Read-only tables every host of a run shares. Each is a pure function
/// of the config, so [`crate::run_fleet`] builds them once and every
/// [`FleetHost::new`] borrows them instead of rebuilding its own copy.
/// A feature that is off leaves its table empty, so the default config
/// allocates nothing here.
#[derive(Clone, Debug)]
pub struct HostTables {
    /// Admission priority class per function (admission on).
    pub(crate) priorities: Option<Arc<[u8]>>,
    /// Page working set per suite profile (a snapshot cold-start model).
    pub(crate) working_sets: Option<Arc<[PageWorkingSet]>>,
    /// Tenancy page layout per suite profile (some tenancy knob on).
    pub(crate) layouts: Option<Arc<[FunctionLayout]>>,
    /// Language slot per suite profile, which placement-aware routing
    /// scores affinity by (empty under every other policy: the router
    /// then treats all functions as one language).
    pub(crate) lang_of: Vec<u8>,
}

impl HostTables {
    /// The tables `config` needs. Call `config.validate()` first.
    pub fn new(config: &FleetConfig) -> Self {
        let suite = workloads::paper_suite;
        HostTables {
            // Priorities are a pure function of the config, so every
            // host derives the same classes the router would.
            priorities: config
                .admission
                .enabled
                .then(|| Population::synthesize(config).priorities().into()),
            working_sets: (config.cold_start_model != ColdStartModel::Instant)
                .then(|| suite().iter().map(PageWorkingSet::from_profile).collect()),
            layouts: config
                .tenancy
                .enabled()
                .then(|| suite().iter().map(FunctionLayout::for_profile).collect()),
            lang_of: if config.policy == RoutingPolicy::PlacementAware {
                suite()
                    .iter()
                    .map(|profile| language_slot(profile.language))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// What one host knows about one function, from that function's first
/// arrival on the host. A host holds one slot per function it has
/// served, so its per-function state grows with what it serves, not
/// with the population deployed fleet-wide.
#[derive(Clone, Debug)]
struct FnState {
    /// The function's live instance id, if it has one.
    live: Option<u64>,
    /// Invocations of the function seen by this host — the "own rate"
    /// term of the interleaving estimate.
    invocations: u64,
    /// The time of the function's expiry entry currently in the queue —
    /// the lazy-invalidation key. A popped entry whose time no longer
    /// matches was superseded by a re-key and is dropped; a matching
    /// entry re-checks the true idle predicate before acting, so at
    /// most one expiry entry per function does work.
    expiry_queued: Option<f64>,
    /// Retry-budget token bucket (always 0 and unread when the budget
    /// is unlimited).
    retry_tokens: f64,
    /// The simulated time a pending pre-restored instance becomes
    /// ready, while one is waiting untouched for its predicted arrival.
    prewarm_ready: Option<f64>,
    /// Most recent observed restore (or boot) cost, ms — the lead time
    /// pre-warms are back-dated by. Until a restore is observed it is
    /// the flat boot cost, the only estimate available cold.
    last_restore_ms: f64,
    /// The scheduled time of the valid pre-warm timer, if any. Each
    /// model observation *replaces* the function's pending pre-restore,
    /// so updating this key is what cancels a stale timer still sitting
    /// in the queue.
    prewarm_pending: Option<f64>,
}

impl FnState {
    /// The state a function starts from on its first arrival at a host.
    fn new(config: &FleetConfig) -> Self {
        FnState {
            live: None,
            invocations: 0,
            expiry_queued: None,
            retry_tokens: config.retry_budget.initial_tokens(),
            prewarm_ready: None,
            last_restore_ms: config.cold_start_ms,
            prewarm_pending: None,
        }
    }

    /// Forgets the function's live instance and its pending pre-warm
    /// ready time: the instance is gone (torn down, or wiped with its
    /// host).
    fn clear_instance(&mut self) {
        self.live = None;
        self.prewarm_ready = None;
    }
}

/// One invocation on its way through a host's stages (see
/// [`FleetHost::process`]).
struct Invocation<'a> {
    config: &'a FleetConfig,
    model: &'a ServiceModel,
    /// Whether Jukebox prices warm hits.
    jukebox: bool,
    routed: RoutedInvocation,
    /// The function's slot in the host's `fns`.
    slot: usize,
    /// Host-local invocation index: the fault and jitter streams' key.
    index: u64,
    /// Suite profile the function is priced as.
    profile: usize,
    /// The host's chaos state at arrival: read once per arrival.
    host_state: HostState,
    /// Attempts the retry budget allows in total: reconnects against a
    /// down host and fault-layer retries draw from the same allowance.
    allowed_attempts: u64,
    /// Reconnect wait and retries spent against a down host.
    down_wait_ms: f64,
    down_retries: u64,
    /// Admission's memory-pressure rung: restore by lazy paging.
    degrade_restore: bool,
    /// One attempt's costs, priced by the start and contend stages.
    costs: AttemptCosts,
    /// How the instance was found.
    class: StartClass,
}

/// How an invocation leaves the pipeline.
enum Exit {
    /// It ran, or was abandoned: end-to-end latency, ms, and whether it
    /// completed.
    Retired(f64, bool),
    /// Admission control shed it before it touched the pool.
    Shed,
}

/// One host's complete simulation state.
#[derive(Clone, Debug)]
pub struct FleetHost {
    /// This host's index in the fleet (also its shard-merge position).
    pub host_id: usize,
    pool: InstancePool,
    faults: FaultPlan,
    /// Slot in `fns` per logical function, stored as `slot + 1`, or
    /// `None` before the function's first arrival here. The only
    /// population-length table a host keeps: 4 B per function.
    slot_of: Vec<Option<NonZeroU32>>,
    /// Per-function state of every function this host has served, in
    /// first-arrival order.
    fns: Vec<FnState>,
    /// The counts this host keeps as it goes. The admission, tenancy
    /// and predictor-bank counts live in those components and join
    /// these in [`FleetHost::stats`].
    stats: HostStats,
    /// End-to-end latency distribution, µs.
    pub latency_us: Histogram,
    /// Fault-layer tallies.
    pub fault_stats: FaultStats,
    /// This host's chaos timeline (empty without chaos).
    schedule: HostSchedule,
    /// Next crash boundary to apply (index into the schedule).
    next_crash: usize,
    /// Outcomes of hedged copies, joined fleet-wide at merge time.
    pub hedge_outcomes: Vec<HedgeOutcome>,
    /// Span trees of this host's sampled invocations (empty ring when
    /// tracing is off).
    pub spans: SpanRing,
    /// This host's windowed time-series (disabled when the window is 0).
    pub series: TimeWindows,
    /// Admission controller (present only when enabled).
    admission: Option<AdmissionControl>,
    /// Seed for down-host reconnect backoff jitter.
    chaos_seed: u64,
    /// Predictive pre-warm / adaptive keep-alive policy bank (present
    /// only when prediction is enabled; `None` takes the exact
    /// fixed-keep-alive code path).
    prewarm: Option<PredictorBank>,
    /// The host's private calendar queue: keep-alive expiries,
    /// adaptive-decay re-checks, and pre-warm timers, drained at each
    /// arrival boundary (see [`crate::event`]).
    timers: CalendarQueue,
    /// Cross-function page sharing and contention state (present only
    /// when some tenancy knob is on; `None` takes the exact pre-tenancy
    /// code path).
    tenancy: Option<HostTenancy>,
}

/// Per-host span-ring capacity: generous enough that no sampled trace is
/// ever overwritten, even if routing skews every sampled dispatch (and
/// its hedge copy) onto one host. The ring allocates lazily, so the
/// bound is free until spans actually record.
fn span_capacity(config: &FleetConfig) -> usize {
    if config.trace_sample == 0 {
        return 0;
    }
    // Worst case per lane: a restore + execute + backoff per attempt,
    // plus reconnects, the admission verdict and the root.
    let per_lane = (3 * config.retry.max_attempts + 8) as usize;
    let sampled = config.invocations / config.trace_sample as usize + 1;
    sampled * 2 * per_lane
}

impl FleetHost {
    /// Builds host `host_id` over the run's shared `tables` (built from
    /// the same `config`). The fault stream is split from the fleet
    /// seed per host; all-zero rates make an inert plan, so a
    /// fault-free fleet never touches fault RNG state.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid — call `config.validate()` first
    /// (run-level entry points do).
    pub fn new(config: &FleetConfig, host_id: usize, tables: &HostTables) -> Self {
        let mut pool = InstancePool::try_new(config.keep_alive_ms)
            .expect("config validated upstream: keep_alive_ms");
        // Snapshot models price each routed cold start as a restore of
        // the suite profile's page working set; `Instant` (no working
        // sets) leaves the pool untouched so the pre-snapshot numbers
        // reproduce bit for bit.
        if let Some(working_sets) = &tables.working_sets {
            let store = SnapshotStore::try_new(
                config.cold_start_model,
                config.snapshot_timings,
                Arc::clone(working_sets),
            )
            .expect("config validated upstream: snapshot_timings");
            pool = pool.with_snapshots(store);
        }
        let seed = DetRng::new(config.seed)
            .split(FAULT_STREAM)
            .split(host_id as u64)
            .seed();
        let faults = FaultPlan::new(seed, config.fault_rates)
            .expect("config validated upstream: fault_rates");
        let admission = tables
            .priorities
            .as_ref()
            .map(|priorities| AdmissionControl::new(config.admission, Arc::clone(priorities)));
        let prewarm = config.prewarm.enabled.then(|| {
            PredictorBank::new(config.prewarm, config.population, config.keep_alive_ms)
        });
        FleetHost {
            host_id,
            pool,
            faults,
            slot_of: vec![None; config.population],
            fns: Vec::new(),
            stats: HostStats::default(),
            latency_us: Histogram::new(),
            fault_stats: FaultStats::default(),
            schedule: HostSchedule::synthesize(config, host_id),
            next_crash: 0,
            hedge_outcomes: Vec::new(),
            spans: SpanRing::with_capacity(span_capacity(config)),
            series: TimeWindows::new(config.series_window_ms),
            admission,
            chaos_seed: DetRng::new(config.seed)
                .split(DOWN_STREAM)
                .split(host_id as u64)
                .seed(),
            prewarm,
            timers: CalendarQueue::new(),
            tenancy: HostTenancy::new(config, tables),
        }
    }

    /// `function`'s slot, created on its first arrival here.
    fn slot_for(&mut self, config: &FleetConfig, function: usize) -> usize {
        match self.slot_of[function] {
            Some(slot) => slot.get() as usize - 1,
            None => {
                self.fns.push(FnState::new(config));
                let number = u32::try_from(self.fns.len()).ok().and_then(NonZeroU32::new);
                self.slot_of[function] =
                    Some(number.expect("a host serves at most u32::MAX functions"));
                self.fns.len() - 1
            }
        }
    }

    /// The slot of `function`, which has arrived on this host (every
    /// queued timer belongs to such a function).
    fn slot(&self, function: usize) -> usize {
        self.slot_of[function].expect("timer for a function this host served").get() as usize - 1
    }

    /// Applies every chaos crash boundary at or before `at`: the pool is
    /// wiped (in-flight work fails, snapshots-in-memory and keep-alive
    /// state are gone) and every function starts cold afterwards.
    fn apply_crash_boundaries(&mut self, at: f64) {
        while self.next_crash < self.schedule.crash_count()
            && self.schedule.crash_start(self.next_crash) <= at
        {
            self.pool.evict_all();
            self.fns.iter_mut().for_each(FnState::clear_instance);
            if let Some(tenancy) = self.tenancy.as_mut() {
                tenancy.clear_resident();
            }
            self.stats.host_crashes += 1;
            self.next_crash += 1;
        }
    }

    /// Makes the freshly-spawned instance `id` `function`'s live one:
    /// registers its pages and weights its pool memory accounting by
    /// the deduped fraction (tenancy off leaves the spawn weight 1.0).
    fn go_live(&mut self, slot: usize, function: usize, id: u64) {
        self.fns[slot].live = Some(id);
        if let Some(tenancy) = self.tenancy.as_mut() {
            let weight = tenancy.register(function);
            self.pool.set_weight(id, weight);
        }
    }

    /// Tears down `function`'s live instance `id` and everything tied
    /// to it: a keep-alive expiry credits residency through `deadline`,
    /// while `None` evicts it (a crash or memory pressure). Its pending
    /// pre-warm ready time goes, and its page registration is released.
    /// Every teardown of a single instance comes through here, so a
    /// release always undoes exactly one [`FleetHost::go_live`].
    fn tear_down(&mut self, slot: usize, function: usize, id: u64, deadline: Option<f64>) {
        match deadline {
            Some(deadline_ms) => self.pool.expire_with_deadline(id, deadline_ms),
            None => self.pool.evict(id),
        };
        self.fns[slot].clear_instance();
        if let Some(tenancy) = self.tenancy.as_mut() {
            tenancy.release(function);
        }
    }

    /// The last invocation time of `function`'s live instance, if it
    /// has one. A live id always names a pooled instance: every path
    /// that takes one out of the pool clears it.
    fn live_last_invoked(&self, slot: usize) -> Option<(u64, f64)> {
        let id = self.fns[slot].live?;
        let last = self.pool.last_invoked_ms(id).expect("a live id is in the pool");
        Some((id, last))
    }

    /// The keep-alive hold in force for `function`: its adaptive hold
    /// under prediction, the pool's global window otherwise.
    fn hold_for(&self, function: usize) -> f64 {
        match &self.prewarm {
            Some(bank) => bank.holds()[function],
            None => self.pool.keep_alive_ms(),
        }
    }

    /// Registers `deadline_ms` as `function`'s expiry deadline, queueing
    /// a `kind` entry for it. If an entry that fires no later is already
    /// queued, only the deadline moves — the queued entry re-checks the
    /// idle predicate when it fires and re-arms itself at the true
    /// deadline, so a hot function keeps a single long-lived entry
    /// instead of one per invocation.
    fn push_expiry(&mut self, slot: usize, function: usize, deadline_ms: f64, kind: FleetEventKind) {
        let queued = &mut self.fns[slot].expiry_queued;
        if queued.is_none_or(|queued| queued > deadline_ms) {
            *queued = Some(deadline_ms);
            self.timers
                .push(deadline_ms, self.host_id as u32, kind, function as u32);
        }
    }

    /// Pops and fires every timer due at the arrival boundary `at`: all
    /// events strictly before it, plus pre-warm timers scheduled
    /// exactly at it. (Pre-warm firing was inclusive in the polled
    /// implementation; expiry stays strict because the keep-alive
    /// predicate is `idle > hold`. The [`FleetEventKind::rank`] order
    /// makes the pre-warm reachable at the heap head when both share an
    /// instant.)
    fn drain_timers(&mut self, at: f64) {
        while let Some(next) = self.timers.peek() {
            let due = next.time_ms < at
                || (next.time_ms == at && next.kind == FleetEventKind::PrewarmTimer);
            if !due {
                break;
            }
            let event = self.timers.pop().expect("peeked event is still queued");
            let function = event.function as usize;
            let slot = self.slot(function);
            match event.kind {
                FleetEventKind::PrewarmTimer => {
                    self.fire_prewarm(slot, function, event.time_ms, at);
                }
                FleetEventKind::KeepAliveExpiry | FleetEventKind::AdaptiveDecay => {
                    self.fire_expiry(slot, function, event.time_ms, at);
                }
                // Arrivals, chaos boundaries and hedge joins never enter
                // the per-host queue — they live in the run loop.
                FleetEventKind::Arrival
                | FleetEventKind::ChaosTransition
                | FleetEventKind::HedgeJoin => {}
            }
        }
    }

    /// Retires `function`'s live instance if it has been idle past its
    /// hold at `at`, crediting residency through the deadline. Returns
    /// the surviving instance's deadline, or `None` when no instance is
    /// left.
    fn expire_if_idle(&mut self, slot: usize, function: usize, at: f64) -> Option<f64> {
        let (id, last) = self.live_last_invoked(slot)?;
        let hold = self.hold_for(function);
        if at - last > hold {
            self.tear_down(slot, function, id, Some(last + hold));
            return None;
        }
        Some(last + hold)
    }

    /// A keep-alive expiry (or adaptive-decay re-check) popped at
    /// `fired_ms` while processing the arrival at `at`. Lazy
    /// invalidation: the entry only acts if it still carries the
    /// function's queued-entry key, and the true predicate is re-checked
    /// against the hold in force — an entry that fired ahead of the real
    /// deadline (the instance was re-invoked, or its hold grew) re-arms
    /// itself there instead of expiring. A genuine expiry credits
    /// residency through the deadline, exactly what the lazy sweep used
    /// to charge.
    fn fire_expiry(&mut self, slot: usize, function: usize, fired_ms: f64, at: f64) {
        if self.fns[slot].expiry_queued != Some(fired_ms) {
            return;
        }
        self.fns[slot].expiry_queued = None;
        if let Some(deadline) = self.expire_if_idle(slot, function, at) {
            self.push_expiry(slot, function, deadline, FleetEventKind::KeepAliveExpiry);
        }
    }

    /// A pre-warm timer popped at its scheduled time `t_pre` while
    /// processing the arrival at `at`. If the function's instance will
    /// have lapsed by `at`, it is retired first (the polled
    /// implementation swept before firing pre-warms); if it genuinely
    /// survives this arrival, the pre-restore buys nothing and is
    /// dropped. Otherwise a restored instance spawns back-dated to
    /// `t_pre`, leaving its ready time behind so an arrival that beats
    /// the restore pays the residual wait.
    fn fire_prewarm(&mut self, slot: usize, function: usize, t_pre: f64, at: f64) {
        if self.fns[slot].prewarm_pending != Some(t_pre) {
            return;
        }
        self.fns[slot].prewarm_pending = None;
        if self.expire_if_idle(slot, function, at).is_some() {
            // The instance survived after all (e.g. the hold was raised
            // by a later observation): nothing to pre-warm.
            return;
        }
        let (_, restore_ms) = self.spawn_live(slot, function, t_pre, false);
        self.fns[slot].prewarm_ready = Some(t_pre + restore_ms);
        self.stats.prewarm_spawns += 1;
        let deadline = t_pre + self.hold_for(function);
        self.push_expiry(slot, function, deadline, FleetEventKind::KeepAliveExpiry);
    }

    /// Processes one routed invocation and returns its end-to-end
    /// latency in milliseconds: the host's invocation pipeline. Every
    /// arrival runs the stages in this order, and a stage whose feature
    /// is off does nothing. A stage that ends the invocation early (the
    /// host still down after the reconnect allowance, an admission shed)
    /// breaks straight to `finish`, the one exit.
    pub fn process(
        &mut self,
        config: &FleetConfig,
        model: &ServiceModel,
        jukebox: bool,
        routed: RoutedInvocation,
    ) -> f64 {
        // The span ring leaves `self` for the duration so the recording
        // scope can borrow it while the host mutates its own state.
        let mut spans = std::mem::take(&mut self.spans);
        let mut off = SpanRing::disabled();
        let ring = if config.samples(routed.dispatch) {
            &mut spans
        } else {
            &mut off
        };
        let trace = trace_id(routed.dispatch, routed.duplicate);
        let scope = &mut SpanScope::new(ring, trace, HOST_SPAN_FIRST_ID);
        let inv = &mut self.arrive(config, model, jukebox, routed);
        let (ControlFlow::Break(exit) | ControlFlow::Continue(exit)) = self.stages(inv, scope);
        let latency_ms = self.finish(inv, exit, scope);
        self.spans = spans;
        latency_ms
    }

    /// The stages between arrive and finish.
    fn stages(&mut self, inv: &mut Invocation, scope: &mut SpanScope) -> ControlFlow<Exit, Exit> {
        self.reconnect(inv, scope)?;
        // Fire every timer due at this arrival boundary — keep-alive
        // expiries retire idle instances with the same deadline credit
        // the lazy sweep used to charge, and pre-restores spawn
        // back-dated instances — all in calendar order. Every live
        // instance keeps a queued expiry entry at or before its true
        // deadline, so the drain alone reproduces the old per-arrival
        // sweep's strict `at − last > hold` predicate exactly.
        self.drain_timers(inv.routed.at_ms);
        self.predict(inv);
        self.admit(inv, scope)?;
        self.start(inv);
        self.contend(inv);
        let (result, crashed) = self.attempt(inv, scope);
        ControlFlow::Continue(self.settle(inv, result, crashed))
    }

    /// Arrive: applies due chaos crashes, counts the arrival, and opens
    /// the invocation's record on its function's slot.
    fn arrive<'a>(
        &mut self,
        config: &'a FleetConfig,
        model: &'a ServiceModel,
        jukebox: bool,
        routed: RoutedInvocation,
    ) -> Invocation<'a> {
        let index = self.stats.invocations;
        let slot = self.slot_for(config, routed.function);
        self.apply_crash_boundaries(routed.at_ms);
        // Hedge copies are duplicate load, not arrivals: the merge
        // records the joined pair once, so only plain copies count here.
        if !routed.hedge {
            self.series.record_arrival(routed.at_ms);
        }
        Invocation {
            config,
            model,
            jukebox,
            routed,
            slot,
            index,
            profile: routed.function % model.functions(),
            host_state: self.schedule.state_at(routed.at_ms),
            allowed_attempts: config
                .retry_budget
                .allowed_attempts(self.fns[slot].retry_tokens, config.retry.max_attempts),
            down_wait_ms: 0.0,
            down_retries: 0,
            degrade_restore: false,
            costs: AttemptCosts {
                service_ms: 0.0,
                cold_start_ms: config.cold_start_ms,
                timeout_ms: config.timeout_ms,
                starts_cold: false,
            },
            class: StartClass::Cold,
        }
    }

    /// Reconnect (chaos): against a down host the connection fails
    /// outright, so the invocation retries with bounded exponential
    /// backoff until the host is back or the allowance is spent. Jitter
    /// comes from a per-invocation split stream, so the wait is a pure
    /// function of (seed, host, invocation). Breaks when the host is
    /// still down with nothing left to spend: abandoned without ever
    /// executing.
    fn reconnect(&mut self, inv: &mut Invocation, scope: &mut SpanScope) -> ControlFlow<Exit> {
        if inv.host_state != HostState::Down {
            return ControlFlow::Continue(());
        }
        let at = inv.routed.at_ms;
        let config = inv.config;
        let mut rng = DetRng::new(self.chaos_seed).split(inv.index);
        // Right edge of each reconnect wait, kept only while a span
        // scope is live so the tiling can be emitted afterwards.
        let mut edges: Vec<f64> = Vec::new();
        while inv.down_retries + 1 < inv.allowed_attempts
            && self.schedule.state_at(at + inv.down_wait_ms) == HostState::Down
        {
            inv.down_retries += 1;
            inv.down_wait_ms += config.retry.bounded_backoff_ms(inv.down_retries, &mut rng);
            if scope.is_enabled() {
                edges.push(inv.down_wait_ms);
            }
        }
        self.stats.retries += inv.down_retries;
        let still_down = self.schedule.state_at(at + inv.down_wait_ms) == HostState::Down;
        // Reconnect spans tile [0, down_wait) exactly; the last one
        // is flagged when the wait ended in abandonment.
        let mut prev = 0.0;
        for (i, &edge) in edges.iter().enumerate() {
            let abandoned = u64::from(still_down && i + 1 == edges.len());
            scope.child(SpanKind::Reconnect, prev, edge, (i + 1) as u64, abandoned);
            prev = edge;
        }
        if !still_down {
            return ControlFlow::Continue(());
        }
        let tokens = &mut self.fns[inv.slot].retry_tokens;
        config.retry_budget.settle(tokens, inv.down_retries, false);
        self.stats.down_failures += 1;
        self.fault_stats.abandoned += 1;
        ControlFlow::Break(Exit::Retired(inv.down_wait_ms, false))
    }

    /// Predict (prediction): feeds the arrival to the function's
    /// predictor; each observation replaces the function's pending
    /// pre-restore, and moving the key cancels any stale timer still in
    /// the queue.
    fn predict(&mut self, inv: &Invocation) {
        let Some(bank) = self.prewarm.as_mut() else {
            return;
        };
        let function = inv.routed.function;
        let state = &mut self.fns[inv.slot];
        let scheduled = bank.observe(function, inv.routed.at_ms, state.last_restore_ms);
        state.prewarm_pending = scheduled;
        if let Some(t_pre) = scheduled {
            self.timers.push(
                t_pre,
                self.host_id as u32,
                FleetEventKind::PrewarmTimer,
                function as u32,
            );
        }
    }

    /// Admit (admission control): the ladder's verdict, taken before any
    /// pool state is touched. A degraded admit restores by lazy paging;
    /// a shed breaks, never executing.
    fn admit(&mut self, inv: &mut Invocation, scope: &mut SpanScope) -> ControlFlow<Exit> {
        let Some(ctl) = self.admission.as_mut() else {
            return ControlFlow::Continue(());
        };
        let at = inv.routed.at_ms;
        let function = inv.routed.function;
        let verdict = match ctl.decide(at, function, self.pool.warm_count()) {
            AdmissionDecision::Admit => 0,
            AdmissionDecision::AdmitDegraded => 1,
            AdmissionDecision::Shed => 2,
        };
        inv.degrade_restore = verdict == 1;
        scope.instant(SpanKind::Admission, inv.down_wait_ms, verdict, 0);
        if verdict != 2 {
            return ControlFlow::Continue(());
        }
        if !inv.routed.hedge {
            self.series.record_shed(at);
        }
        // The observation above may have tightened this function's hold
        // without an invocation to re-key it: a tightened hold needs an
        // adaptive-decay re-check at the earlier deadline, while a
        // raised hold rides on the outstanding entry (which revalidates
        // when it fires).
        if let Some((_, last)) = self.live_last_invoked(inv.slot) {
            let deadline = last + self.hold_for(function);
            self.push_expiry(inv.slot, function, deadline, FleetEventKind::AdaptiveDecay);
        }
        ControlFlow::Break(Exit::Shed)
    }

    /// Start: finds or makes the instance the invocation runs on and
    /// prices its start — a cold restore, a pre-warmed instance, or a
    /// warm hit classified by its interleaving degree.
    fn start(&mut self, inv: &mut Invocation) {
        // A memory-pressure eviction during the idle gap takes the warm
        // instance away before the invocation lands. The fault plan only
        // draws (and counts) this on warm starts, so when we act on it
        // here — evicting from the pool and flipping to a cold start —
        // we take over the bookkeeping it would have done.
        if let Some(id) = self.fns[inv.slot].live {
            if self.faults.evicted_before(inv.index) {
                self.tear_down(inv.slot, inv.routed.function, id, None);
                self.fault_stats.evictions += 1;
            }
        }
        inv.costs.starts_cold = self.fns[inv.slot].live.is_none();
        inv.costs.service_ms = if inv.costs.starts_cold {
            self.start_cold(inv)
        } else if let Some(ready_ms) = self.fns[inv.slot].prewarm_ready.take() {
            // The arrival landed on an instance pre-restored ahead of
            // it. Memory is up (no boot, no restore burst on the
            // critical path — only the residual wait if the arrival
            // beat the restore), but nothing is cache-resident from a
            // *prior invocation*: microarchitecturally this is the
            // paper's lukewarm case at full interleaving penalty, and
            // Jukebox replays the snapshot's recorded history.
            let at = inv.routed.at_ms;
            let id = self.fns[inv.slot]
                .live
                .expect("prewarmed path has a live id");
            self.pool.invoke(id, at).expect("live id is in the pool");
            self.stats.lukewarm_hits += 1;
            self.stats.prewarm_hits += 1;
            inv.class = StartClass::Lukewarm;
            self.stats.degree_sum += 1.0;
            (ready_ms - at).max(0.0) + inv.model.service_ms(inv.profile, 1.0, inv.jukebox)
        } else {
            self.start_warm(inv)
        };
    }

    /// Spawns `function`'s instance at `at` and makes it live, pricing
    /// its bring-up: the snapshot model's restore of the working set
    /// (lazy faults or a REAP prefetch of the recorded pages), or the
    /// flat boot without a snapshot store. The price becomes the
    /// function's pre-warm lead time. Returns the instance and its price.
    fn spawn_live(&mut self, slot: usize, function: usize, at: f64, degraded: bool) -> (u64, f64) {
        let (id, restore_ms) = if degraded && self.pool.snapshots().is_some() {
            // Memory-pressure rung: restore by lazy paging instead of a
            // prefetch burst the pressured host can't afford. Pays the
            // full page count — a pressured host can't count on
            // co-resident sharing either.
            let spawned = self.pool.spawn_restored_degraded(function, at);
            if let Some(ctl) = self.admission.as_mut() {
                ctl.note_degraded_restore();
            }
            spawned
        } else {
            // Pages already resident from co-located same-language
            // instances come off the restore bill (0 resident — the
            // disabled path — prices identically to pre-tenancy).
            let resident = self
                .tenancy
                .as_ref()
                .map_or(0, |t| t.resident_pages(function));
            self.pool.spawn_restored_shared(function, at, resident)
        };
        self.go_live(slot, function, id);
        let state = &mut self.fns[slot];
        if self.pool.snapshots().is_some() {
            state.last_restore_ms = restore_ms;
        }
        (id, state.last_restore_ms)
    }

    /// A cold start: spawns and restores the instance. Returns the
    /// service time.
    fn start_cold(&mut self, inv: &mut Invocation) -> f64 {
        let at = inv.routed.at_ms;
        let function = inv.routed.function;
        let (id, restore_ms) = self.spawn_live(inv.slot, function, at, inv.degrade_restore);
        inv.costs.cold_start_ms = restore_ms;
        self.pool.invoke(id, at);
        self.stats.cold_starts += 1;
        // A fresh container has nothing resident: full penalty, and
        // Jukebox has no prior invocation to replay.
        inv.model.service_ms(inv.profile, 1.0, false)
    }

    /// A warm hit: warm or lukewarm by the interleaving degree other
    /// functions' traffic built up over the idle gap. Returns the
    /// service time.
    fn start_warm(&mut self, inv: &mut Invocation) -> f64 {
        let at = inv.routed.at_ms;
        let model = inv.model;
        let id = self.fns[inv.slot].live.expect("warm path has a live id");
        let gap_ms = self.pool.invoke(id, at).expect("live id is in the pool");
        let elapsed_sec = at / 1000.0;
        let other_per_sec = if elapsed_sec > 0.0 {
            let host_rate = self.stats.invocations as f64 / elapsed_sec;
            let own_rate = self.fns[inv.slot].invocations as f64 / elapsed_sec;
            (host_rate - own_rate).max(0.0)
        } else {
            0.0
        };
        let degree = model.degree(other_per_sec, gap_ms);
        if degree >= model.lukewarm_threshold {
            self.stats.lukewarm_hits += 1;
            inv.class = StartClass::Lukewarm;
        } else {
            self.stats.warm_hits += 1;
            inv.class = StartClass::Warm;
        }
        self.stats.degree_sum += degree;
        model.service_ms(inv.profile, degree, inv.jukebox)
    }

    /// Contend (chaos, contention): a degraded host is up but slow —
    /// thermal throttling or a noisy neighbour stretches execution, not
    /// queueing or restores. When the registered working sets crowd the
    /// host's memory, every page access — execution and restore faults
    /// alike — slows by the contention curve's factor: a continuous
    /// penalty, not a binary cliff.
    fn contend(&mut self, inv: &mut Invocation) {
        let costs = &mut inv.costs;
        if inv.host_state == HostState::Degraded {
            costs.service_ms *= inv.config.chaos.degrade_slowdown;
        }
        let Some(tenancy) = self.tenancy.as_mut() else {
            return;
        };
        let slowdown = tenancy.slowdown();
        if slowdown > 1.0 {
            let charged =
                |c: &AttemptCosts| c.service_ms + if c.starts_cold { c.cold_start_ms } else { 0.0 };
            let before = charged(costs);
            costs.service_ms *= slowdown;
            costs.cold_start_ms *= slowdown;
            tenancy.note_slowed(charged(costs) - before);
        }
    }

    /// Attempt: runs the invocation through the fault layer, which owns
    /// the retry loop and the fault-free single attempt alike. Returns
    /// the result and whether an instance crashed on the way.
    fn attempt(&mut self, inv: &Invocation, scope: &mut SpanScope) -> (InvocationResult, bool) {
        // Reconnect retries already spent their share of the allowance;
        // the fault layer gets what is left (always ≥ 1 attempt here).
        let policy = RetryPolicy {
            max_attempts: inv.allowed_attempts - inv.down_retries,
            ..inv.config.retry
        };
        let crashes_before = self.fault_stats.crashes;
        let result = self.faults.run_invocation_spanned(
            &policy,
            inv.index,
            &inv.costs,
            &mut self.fault_stats,
            scope,
            inv.down_wait_ms,
        );
        (result, self.fault_stats.crashes > crashes_before)
    }

    /// Settle: reconciles the pool with the attempt's fate, re-keys the
    /// live instance's keep-alive deadline, and charges the retry budget
    /// and admission ledger.
    fn settle(&mut self, inv: &Invocation, result: InvocationResult, crashed: bool) -> Exit {
        let at = inv.routed.at_ms;
        let function = inv.routed.function;
        let slot = inv.slot;
        // Crashes tear the instance down. If the retry layer recovered,
        // its final attempt ran on a fresh spawn; reflect that in the
        // pool. If it gave up, the function has no live instance left.
        if let Some(id) = self.fns[slot].live {
            if crashed || !result.completed {
                self.tear_down(slot, function, id, None);
            }
            if crashed && result.completed {
                let fresh = self.pool.spawn(function, at);
                self.pool.invoke(fresh, at);
                self.go_live(slot, function, fresh);
            }
        }
        // Whatever instance is live now was just invoked at `at`: re-key
        // its keep-alive deadline under the hold in force.
        if self.fns[slot].live.is_some() {
            let deadline = at + self.hold_for(function);
            self.push_expiry(slot, function, deadline, FleetEventKind::KeepAliveExpiry);
        }
        let fault_retries = result.attempts.saturating_sub(1);
        self.stats.retries += fault_retries;
        let spent = inv.down_retries + fault_retries;
        let budget = &inv.config.retry_budget;
        budget.settle(&mut self.fns[slot].retry_tokens, spent, result.completed);
        let latency_ms = inv.down_wait_ms + result.latency_ms;
        if let Some(ctl) = self.admission.as_mut() {
            ctl.commit(at, function, latency_ms);
        }
        Exit::Retired(latency_ms, result.completed)
    }

    /// Finish, the one exit: emits the root span, then retires the
    /// invocation into the totals and either the latency record or, for
    /// a hedge copy, the side list the merge joins. A shed invocation
    /// never executed: its root covers only the reconnect wait it burned
    /// getting here, and it retires nothing (latency 0).
    fn finish(&mut self, inv: &Invocation, exit: Exit, scope: &mut SpanScope) -> f64 {
        let routed = inv.routed;
        let host = self.host_id as u64;
        let arrival_us = tick_us(routed.at_ms);
        let Exit::Retired(latency_ms, completed) = exit else {
            scope.root(inv.down_wait_ms, host, arrival_us);
            return 0.0;
        };
        // The root's tick duration equals the histogram's recorded value
        // exactly (same float, same rounding), and the children tiled
        // every contributing window — exact critical-path attribution.
        scope.root(latency_ms, host, arrival_us);
        self.stats.invocations += 1;
        self.fns[inv.slot].invocations += 1;
        let outcome = HedgeOutcome {
            dispatch: routed.dispatch,
            at_ms: routed.at_ms,
            latency_ms,
            completed,
            class: inv.class,
        };
        if routed.hedge {
            self.hedge_outcomes.push(outcome);
        } else {
            record_outcome(
                &mut self.latency_us,
                &mut self.stats.latency_sum_ms,
                &mut self.series,
                inv.config.series_slo_ms,
                &outcome,
            );
        }
        latency_ms
    }

    /// This host's counts as of `end_ms`, the run's last arrival: the
    /// ones it kept while processing, plus the admission, tenancy and
    /// predictor-bank counters, the fault layer's outcome, the warm pool
    /// left standing, and its occupancy bill.
    pub fn stats(&self, end_ms: f64) -> HostStats {
        let mut stats = HostStats {
            completed: self.fault_stats.completed,
            abandoned: self.fault_stats.abandoned,
            warm_instances: self.pool.warm_count(),
            // Occupancy through `end_ms` under the holds in force
            // (adaptive under prediction, the global keep-alive
            // otherwise); see `InstancePool::residency_ms_through`.
            memory_ms: self
                .pool
                .residency_ms_through(end_ms, self.prewarm.as_ref().map(|b| b.holds())),
            ..self.stats
        };
        if let Some(ctl) = &self.admission {
            stats.admitted = ctl.admitted();
            stats.shed = ctl.shed();
            stats.degraded_restores = ctl.degraded_restores();
        }
        if let Some(bank) = &self.prewarm {
            stats.prewarms_scheduled = bank.prewarms_scheduled();
            stats.early_decays = bank.early_decays();
        }
        if let Some(tenancy) = &self.tenancy {
            stats.shared_pages = tenancy.shared_pages();
            stats.dedup_hits = tenancy.dedup_hits();
            stats.dedup_bytes_saved = tenancy.dedup_bytes_saved();
            stats.contention_extra_ms = tenancy.extra_ms();
            stats.slowed_invocations = tenancy.slowed();
        }
        stats
    }

    /// Contributes the telemetry this host's layers keep themselves: the
    /// pool's and fault layer's series and the latency histogram. The
    /// fleet counts come from [`FleetHost::stats`] through
    /// [`HostStats::fill_registry`]. Additive, like both of those.
    pub fn fill_registry(&self, registry: &mut Registry) {
        self.pool.fill_registry(registry);
        self.fault_stats.fill_registry(registry);
        registry.hist_merge("fleet.latency_us", &self.latency_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::ServiceModel;
    use workloads::paper_suite;

    fn host(config: &FleetConfig) -> FleetHost {
        FleetHost::new(config, 0, &HostTables::new(config))
    }

    /// Everything `host` exports, fleet counts included, as a snapshot.
    fn exported(host: &FleetHost, config: &FleetConfig) -> luke_obs::Snapshot {
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        host.stats(0.0).fill_registry(&mut registry, config);
        registry.snapshot()
    }

    fn setup() -> (FleetConfig, ServiceModel) {
        let config = FleetConfig {
            population: 10,
            ..FleetConfig::default()
        };
        let model = ServiceModel::analytic(&paper_suite()).unwrap();
        (config, model)
    }

    #[test]
    fn first_touch_is_cold_then_warm() {
        let (config, model) = setup();
        let mut host = host(&config);
        let cold = host.process(
            &config,
            &model,
            false,
            RoutedInvocation::new(0.0, 3),
        );
        assert_eq!(host.stats.cold_starts, 1);
        assert_eq!(host.stats.hits(), 0);
        let warm = host.process(
            &config,
            &model,
            false,
            RoutedInvocation::new(10.0, 3),
        );
        assert_eq!(host.stats.hits(), 1);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
        assert_eq!(host.stats.invocations, 2);
        assert_eq!(host.pool.warm_count(), 1);
    }

    #[test]
    fn keep_alive_expiry_forces_a_new_cold_start() {
        let (config, model) = setup();
        let mut host = host(&config);
        host.process(&config, &model, false, RoutedInvocation::new(0.0, 0));
        let later = config.keep_alive_ms + 1000.0;
        host.process(&config, &model, false, RoutedInvocation::new(later, 0));
        assert_eq!(host.stats.cold_starts, 2);
        assert_eq!(host.stats.hits(), 0);
    }

    #[test]
    fn long_gaps_classify_as_lukewarm_short_as_warm() {
        let (config, model) = setup();
        let mut host = host(&config);
        // Foreign traffic so the interleaving estimate has pressure.
        for i in 0..2000 {
            let at = i as f64 * 2.0;
            host.process(&config, &model, false, RoutedInvocation::new(at, 1 + (i % 9)));
        }
        host.process(&config, &model, false, RoutedInvocation::new(4000.0, 0));
        let before = (host.stats.warm_hits, host.stats.lukewarm_hits);
        // 1ms gap: caches still hot.
        host.process(&config, &model, false, RoutedInvocation::new(4001.0, 0));
        assert_eq!(host.stats.warm_hits, before.0 + 1, "short gap should stay warm");
        // 10s gap inside keep-alive: lukewarm.
        host.process(&config, &model, false, RoutedInvocation::new(14_001.0, 0));
        assert_eq!(host.stats.lukewarm_hits, before.1 + 1, "long gap should be lukewarm");
    }

    #[test]
    fn jukebox_only_speeds_up_warm_traffic() {
        let (config, model) = setup();
        let mut base = host(&config);
        let mut jb = host(&config);
        let mut base_sum = 0.0;
        let mut jb_sum = 0.0;
        for i in 0..500 {
            let routed = RoutedInvocation::new(i as f64 * 50.0, i % 5);
            base_sum += base.process(&config, &model, false, routed);
            jb_sum += jb.process(&config, &model, true, routed);
        }
        assert_eq!(base.stats.cold_starts, jb.stats.cold_starts);
        assert!(jb_sum < base_sum, "jukebox {jb_sum} vs base {base_sum}");
    }

    #[test]
    fn fault_free_hosts_share_no_fault_state() {
        let (config, model) = setup();
        let mut host = host(&config);
        for i in 0..100 {
            host.process(&config, &model, false, RoutedInvocation::new(i as f64 * 10.0, i % 10));
        }
        assert_eq!(host.fault_stats.total_faults(), 0);
        assert_eq!(host.fault_stats.completed, 100);
        assert_eq!(host.latency_us.count(), 100);
    }

    #[test]
    fn faulty_host_keeps_pool_and_liveness_consistent() {
        let (mut config, model) = setup();
        config.fault_rates = server::FaultRates {
            crash: 0.2,
            timeout: 0.1,
            cold_start_failure: 0.1,
            memory_pressure: 0.2,
        };
        config.validate().unwrap();
        let mut host = host(&config);
        for i in 0..500 {
            host.process(&config, &model, false, RoutedInvocation::new(i as f64 * 10.0, i % 10));
        }
        assert!(host.fault_stats.total_faults() > 0, "faults should strike");
        assert_eq!(
            host.fault_stats.completed + host.fault_stats.abandoned,
            500
        );
        // Every live entry must point at a real pool instance.
        for (slot, state) in host.fns.iter().enumerate() {
            if let Some(id) = state.live {
                assert!(
                    host.pool.instance(id).is_some(),
                    "slot {slot} maps to dead instance {id}"
                );
            }
        }
    }

    #[test]
    fn per_function_state_grows_with_the_functions_served() {
        let (config, model) = setup();
        let config = FleetConfig {
            population: 1 << 20,
            ..config
        };
        let mut host = host(&config);
        let served = [7, 1 << 19, 3, (1 << 20) - 1, 7, 3];
        for (i, &function) in served.iter().enumerate() {
            host.process(&config, &model, false, RoutedInvocation::new(i as f64 * 10.0, function));
        }
        assert_eq!(host.fns.len(), 4, "one slot per distinct function served");
        assert_eq!(host.slot_of.len(), config.population);
        assert_eq!(host.slot_of.iter().flatten().count(), 4);
    }

    /// Every instance teardown releases its page registration exactly
    /// once: after a run that expires, evicts, crashes and respawns
    /// instances, the host's page store holds exactly what registering
    /// its live functions into a fresh store holds.
    #[test]
    fn page_store_holds_exactly_the_live_functions() {
        use crate::chaos::ChaosConfig;
        use luke_tenancy::TenancyConfig;
        let (config, model) = setup();
        let config = FleetConfig {
            hosts: 1,
            invocations: 4_000,
            population: 40,
            keep_alive_ms: 5_000.0,
            cold_start_model: ColdStartModel::ReapPrefetch,
            fault_rates: server::FaultRates {
                crash: 0.05,
                timeout: 0.02,
                cold_start_failure: 0.05,
                memory_pressure: 0.05,
            },
            chaos: ChaosConfig {
                host_mtbf_ms: 20_000.0,
                crash_downtime_ms: 500.0,
                degrade_mtbf_ms: 15_000.0,
                degrade_duration_ms: 2_000.0,
                degrade_slowdown: 3.0,
            },
            tenancy: TenancyConfig::default_enabled(),
            ..config
        };
        config.validate().unwrap();
        let tables = HostTables::new(&config);
        let mut host = FleetHost::new(&config, 0, &tables);
        let mut rng = DetRng::new(0x7e57);
        let mut at = 0.0;
        for _ in 0..config.invocations {
            at += rng.exponential(50.0);
            let function = rng.below(config.population as u64) as usize;
            host.process(&config, &model, false, RoutedInvocation::new(at, function));
        }
        assert!(host.stats.host_crashes > 0, "chaos should crash the host");
        assert!(host.fault_stats.evictions > 0, "memory pressure should evict");
        assert!(host.fault_stats.crashes > 0, "instances should crash");

        let mut fresh = HostTenancy::new(&config, &tables).unwrap();
        let mut live = 0;
        for (function, slot) in host.slot_of.iter().enumerate() {
            let slot = slot.map(|slot| slot.get() as usize - 1);
            if slot.is_some_and(|slot| host.fns[slot].live.is_some()) {
                fresh.register(function);
                live += 1;
            }
        }
        assert!(live > 0, "some functions should still be live");
        assert_eq!(
            host.tenancy.as_ref().unwrap().resident_bytes(),
            fresh.resident_bytes()
        );
    }

    #[test]
    fn reap_restores_are_cheaper_than_lazy_paging() {
        let (config, model) = setup();
        let lazy_config = FleetConfig {
            cold_start_model: ColdStartModel::LazyPaging,
            ..config.clone()
        };
        let reap_config = FleetConfig {
            cold_start_model: ColdStartModel::ReapPrefetch,
            ..config.clone()
        };
        let mut lazy = host(&lazy_config);
        let mut reap = host(&reap_config);
        let mut lazy_sum = 0.0;
        let mut reap_sum = 0.0;
        // Space invocations past keep-alive so every one restarts cold;
        // REAP has metadata from the second restore on.
        for i in 0..8 {
            let routed = RoutedInvocation::new(i as f64 * (config.keep_alive_ms + 1000.0), 0);
            lazy_sum += lazy.process(&lazy_config, &model, false, routed);
            reap_sum += reap.process(&reap_config, &model, false, routed);
        }
        assert_eq!(lazy.stats.cold_starts, 8);
        assert_eq!(reap.stats.cold_starts, 8);
        assert!(
            reap_sum < lazy_sum,
            "reap {reap_sum} should beat lazy {lazy_sum}"
        );
    }

    #[test]
    fn instant_model_exports_no_snapshot_series() {
        let (config, model) = setup();
        let mut host = host(&config);
        for i in 0..20 {
            host.process(&config, &model, false, RoutedInvocation::new(i as f64 * 10.0, i % 10));
        }
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        assert!(
            !registry.snapshot().to_json().contains("snapshot."),
            "Instant hosts must not grow snapshot.* series"
        );
    }

    #[test]
    fn snapshot_hosts_export_restore_telemetry() {
        let (config, model) = setup();
        let config = FleetConfig {
            cold_start_model: ColdStartModel::ReapPrefetch,
            ..config
        };
        let mut host = host(&config);
        for i in 0..20 {
            host.process(&config, &model, false, RoutedInvocation::new(i as f64 * 10.0, i % 10));
        }
        let mut registry = Registry::new();
        host.fill_registry(&mut registry);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("snapshot.restores"), host.stats.cold_starts);
        assert!(snapshot.counter("snapshot.pages_recorded") > 0);
    }

    #[test]
    fn prewarmed_periodic_function_skips_the_cold_start() {
        use luke_predict::PrewarmConfig;
        let (config, model) = setup();
        let keep_alive_ms = 2_000.0;
        let plain_config = FleetConfig {
            keep_alive_ms,
            ..config.clone()
        };
        let prewarm_config = FleetConfig {
            keep_alive_ms,
            prewarm: PrewarmConfig {
                min_samples: 4,
                ..PrewarmConfig::default_enabled()
            },
            ..config
        };
        let mut plain = host(&plain_config);
        let mut warm = host(&prewarm_config);
        // Strict 5 s period, far past the 2 s keep-alive: without
        // prediction every arrival is a cold boot; with it, the
        // periodicity head schedules a pre-restore before each one.
        for i in 0..40 {
            let routed = RoutedInvocation::new(i as f64 * 5_000.0, 0);
            plain.process(&plain_config, &model, false, routed);
            warm.process(&prewarm_config, &model, false, routed);
        }
        assert_eq!(plain.stats.cold_starts, 40);
        assert!(
            warm.stats.prewarm_hits > 30,
            "prewarm hits {} of 40 arrivals",
            warm.stats.prewarm_hits
        );
        assert!(warm.stats.cold_starts < 10, "cold starts {}", warm.stats.cold_starts);
        assert!(
            warm.stats.latency_sum_ms < plain.stats.latency_sum_ms,
            "prewarmed {} vs plain {}",
            warm.stats.latency_sum_ms,
            plain.stats.latency_sum_ms
        );
    }

    #[test]
    fn disabled_prewarm_keeps_the_exact_fixed_keep_alive_state() {
        let (config, model) = setup();
        let mut host = host(&config);
        for i in 0..200 {
            host.process(&config, &model, false, RoutedInvocation::new(i as f64 * 25.0, i % 10));
        }
        assert_eq!(host.stats.prewarm_spawns, 0);
        assert_eq!(host.stats.prewarm_hits, 0);
        assert_eq!(host.stats(5_000.0).prewarms_scheduled, 0);
        assert_eq!(host.stats(5_000.0).early_decays, 0);
        assert!(
            !exported(&host, &config).to_json().contains("predict."),
            "disabled hosts must not grow predict.* series"
        );
    }

    #[test]
    fn prewarm_registry_series_appear_when_enabled() {
        use luke_predict::PrewarmConfig;
        let (config, model) = setup();
        let config = FleetConfig {
            keep_alive_ms: 2_000.0,
            prewarm: PrewarmConfig {
                min_samples: 4,
                ..PrewarmConfig::default_enabled()
            },
            ..config
        };
        let mut host = host(&config);
        for i in 0..40 {
            host.process(&config, &model, false, RoutedInvocation::new(i as f64 * 5_000.0, 0));
        }
        let snapshot = exported(&host, &config);
        assert_eq!(snapshot.counter("predict.prewarm_spawns"), host.stats.prewarm_spawns);
        assert_eq!(snapshot.counter("predict.prewarm_hits"), host.stats.prewarm_hits);
        assert!(snapshot.counter("predict.early_decays") > 0);
    }

    #[test]
    fn memory_accounting_tracks_the_pool() {
        let (config, model) = setup();
        let mut host = host(&config);
        for i in 0..50 {
            host.process(&config, &model, false, RoutedInvocation::new(i as f64 * 100.0, i % 10));
        }
        // 10 functions resident from their first touch through the
        // horizon (all gaps far inside keep-alive).
        let end_ms = 4_900.0;
        let memory = host.stats(end_ms).memory_ms;
        assert!(memory > 0.0);
        assert!(
            memory <= 10.0 * end_ms,
            "{memory} exceeds 10 instances × horizon"
        );
    }

    #[test]
    fn registry_contribution_is_additive() {
        let (config, model) = setup();
        let mut host = host(&config);
        for i in 0..50 {
            host.process(&config, &model, false, RoutedInvocation::new(i as f64 * 20.0, i % 10));
        }
        let snapshot = exported(&host, &config);
        assert_eq!(snapshot.counter("fleet.invocations"), 50);
        assert_eq!(
            snapshot.counter("fleet.cold_starts")
                + snapshot.counter("fleet.warm_hits")
                + snapshot.counter("fleet.lukewarm_hits"),
            50
        );
    }
}
