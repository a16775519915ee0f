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

/// The fate of one hedged copy, joined across hosts at merge time.
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
    /// SLO threshold the series' burn rate counts against, ms (0 = none).
    series_slo_ms: f64,
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
    /// seed per host; all-zero rates get the bit-transparent
    /// [`FaultPlan::none`] so a fault-free fleet never touches fault
    /// RNG state.
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
        let faults = if config.fault_rates == server::FaultRates::zero() {
            FaultPlan::none()
        } else {
            let seed = DetRng::new(config.seed)
                .split(FAULT_STREAM)
                .split(host_id as u64)
                .seed();
            FaultPlan::new(seed, config.fault_rates)
                .expect("config validated upstream: fault_rates")
        };
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
            series_slo_ms: config.series_slo_ms,
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
            for state in &mut self.fns {
                state.live = None;
                state.prewarm_ready = None;
            }
            if let Some(tenancy) = self.tenancy.as_mut() {
                tenancy.clear_resident();
            }
            self.stats.host_crashes += 1;
            self.next_crash += 1;
        }
    }

    /// Records one invocation's terminal accounting: totals, and the
    /// histogram or the hedge-outcome side list.
    fn retire(
        &mut self,
        routed: RoutedInvocation,
        slot: usize,
        latency_ms: f64,
        completed: bool,
        class: StartClass,
    ) -> f64 {
        self.stats.invocations += 1;
        self.fns[slot].invocations += 1;
        if routed.hedge {
            // Hedge copies report through the side list; the merge joins
            // the pair and records the winner (histogram and series).
            self.hedge_outcomes.push(HedgeOutcome {
                dispatch: routed.dispatch,
                at_ms: routed.at_ms,
                latency_ms,
                completed,
                class,
            });
        } else {
            self.stats.latency_sum_ms += latency_ms;
            let latency_us = (latency_ms * 1000.0).round() as u64;
            self.latency_us.record(latency_us);
            self.series
                .record_outcome(routed.at_ms, latency_us, class, self.over_slo(latency_ms));
        }
        latency_ms
    }

    /// Whether `latency_ms` blew the series SLO (false when no SLO set).
    fn over_slo(&self, latency_ms: f64) -> bool {
        self.series_slo_ms > 0.0 && latency_ms > self.series_slo_ms
    }

    /// Shareable pages of `function` already resident on this host —
    /// the restore discount. Always 0 with tenancy off (or dedup off),
    /// which prices the restore identically to the pre-tenancy path.
    fn tenancy_resident(&self, function: usize) -> usize {
        self.tenancy
            .as_ref()
            .map_or(0, |tenancy| tenancy.resident_pages(function))
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
        let state = &mut self.fns[slot];
        state.live = None;
        state.prewarm_ready = None;
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
        let resident = self.tenancy_resident(function);
        let (id, restore_ms) = self.pool.spawn_restored_shared(function, t_pre, resident);
        self.go_live(slot, function, id);
        let state = &mut self.fns[slot];
        // Without a snapshot store the pre-boot still takes the flat
        // cold-start time before the instance is ready.
        if self.pool.snapshots().is_some() {
            state.last_restore_ms = restore_ms;
        }
        state.prewarm_ready = Some(t_pre + state.last_restore_ms);
        self.stats.prewarm_spawns += 1;
        let deadline = t_pre + self.hold_for(function);
        self.push_expiry(slot, function, deadline, FleetEventKind::KeepAliveExpiry);
    }

    /// Processes one routed invocation and returns its end-to-end
    /// latency in milliseconds.
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
        let out = {
            let mut off = SpanRing::disabled();
            let ring = if config.samples(routed.dispatch) {
                &mut spans
            } else {
                &mut off
            };
            let mut scope = SpanScope::new(
                ring,
                trace_id(routed.dispatch, routed.duplicate),
                HOST_SPAN_FIRST_ID,
            );
            self.process_scoped(config, model, jukebox, routed, &mut scope)
        };
        self.spans = spans;
        out
    }

    /// [`FleetHost::process`] with an explicit span-recording scope.
    fn process_scoped(
        &mut self,
        config: &FleetConfig,
        model: &ServiceModel,
        jukebox: bool,
        routed: RoutedInvocation,
        scope: &mut SpanScope<'_>,
    ) -> f64 {
        let at = routed.at_ms;
        let function = routed.function;
        let profile = function % model.functions();
        let invocation = self.stats.invocations;
        let slot = self.slot_for(config, function);

        self.apply_crash_boundaries(at);

        // Hedge copies are duplicate load, not arrivals: the merge
        // records the joined pair once, so only plain copies count here.
        if !routed.hedge {
            self.series.record_arrival(at);
        }

        // The retry budget caps how many attempts this invocation may
        // spend in total — reconnects against a down host and fault-layer
        // retries draw from the same allowance.
        let budget = &config.retry_budget;
        let allowed_attempts =
            budget.allowed_attempts(self.fns[slot].retry_tokens, config.retry.max_attempts);

        // Down-window: the connection fails outright. Retry with bounded
        // exponential backoff until the host is back or the allowance is
        // spent. Jitter comes from a per-invocation split stream, so the
        // wait is a pure function of (seed, host, invocation).
        let mut down_wait_ms = 0.0;
        let mut down_retries = 0u64;
        if !self.schedule.is_none() && self.schedule.state_at(at) == HostState::Down {
            let mut rng = DetRng::new(self.chaos_seed).split(invocation);
            // Right edge of each reconnect wait, kept only while a span
            // scope is live so the tiling can be emitted afterwards.
            let mut edges: Vec<f64> = Vec::new();
            while down_retries + 1 < allowed_attempts
                && self.schedule.state_at(at + down_wait_ms) == HostState::Down
            {
                down_retries += 1;
                down_wait_ms += config.retry.bounded_backoff_ms(down_retries, &mut rng);
                if scope.is_enabled() {
                    edges.push(down_wait_ms);
                }
            }
            self.stats.retries += down_retries;
            let still_down = self.schedule.state_at(at + down_wait_ms) == HostState::Down;
            // Reconnect spans tile [0, down_wait) exactly; the last one
            // is flagged when the wait ended in abandonment.
            let mut prev = 0.0;
            for (i, &edge) in edges.iter().enumerate() {
                let last = i + 1 == edges.len();
                scope.child(
                    SpanKind::Reconnect,
                    prev,
                    edge,
                    (i + 1) as u64,
                    u64::from(still_down && last),
                );
                prev = edge;
            }
            if still_down {
                // Still down with nothing left to spend: abandoned
                // without ever executing.
                budget.settle(&mut self.fns[slot].retry_tokens, down_retries, false);
                self.stats.down_failures += 1;
                self.fault_stats.abandoned += 1;
                scope.root(down_wait_ms, self.host_id as u64, tick_us(at));
                return self.retire(routed, slot, down_wait_ms, false, StartClass::Cold);
            }
        }

        // Fire every timer due at this arrival boundary — keep-alive
        // expiries retire idle instances with the same deadline credit
        // the lazy sweep used to charge, and pre-restores spawn
        // back-dated instances — all in calendar order. Every live
        // instance keeps a queued expiry entry at or before its true
        // deadline, so the drain alone reproduces the old per-arrival
        // sweep's strict `at − last > hold` predicate exactly.
        self.drain_timers(at);

        if let Some(bank) = self.prewarm.as_mut() {
            let state = &mut self.fns[slot];
            let scheduled = bank.observe(function, at, state.last_restore_ms);
            // Each observation replaces the function's pending
            // pre-restore; moving the key cancels any stale timer still
            // in the queue.
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

        // Admission ladder: shed before any pool state is touched.
        let mut degrade_restore = false;
        if let Some(ctl) = self.admission.as_mut() {
            let verdict = match ctl.decide(at, function, self.pool.warm_count()) {
                AdmissionDecision::Admit => 0,
                AdmissionDecision::AdmitDegraded => {
                    degrade_restore = true;
                    1
                }
                AdmissionDecision::Shed => 2,
            };
            scope.instant(SpanKind::Admission, down_wait_ms, verdict, 0);
            if verdict == 2 {
                if !routed.hedge {
                    self.series.record_shed(at);
                }
                // The observation above may have tightened this
                // function's hold without an invocation to re-key it: a
                // tightened hold needs an adaptive-decay re-check at the
                // earlier deadline, while a raised hold rides on the
                // outstanding entry (which revalidates when it fires).
                if let Some((_, last)) = self.live_last_invoked(slot) {
                    let deadline = last + self.hold_for(function);
                    self.push_expiry(slot, function, deadline, FleetEventKind::AdaptiveDecay);
                }
                // A shed invocation never executes: its root covers only
                // the reconnect wait it burned getting here.
                scope.root(down_wait_ms, self.host_id as u64, tick_us(at));
                return 0.0;
            }
        }

        // A memory-pressure eviction during the idle gap takes the warm
        // instance away before the invocation lands. The fault plan only
        // draws (and counts) this on warm starts, so when we act on it
        // here — evicting from the pool and flipping to a cold start —
        // we take over the bookkeeping it would have done.
        let mut starts_cold = self.fns[slot].live.is_none();
        if let Some(id) = self.fns[slot].live {
            if self.faults.evicted_before(invocation) {
                self.tear_down(slot, function, id, None);
                self.fault_stats.evictions += 1;
                starts_cold = true;
            }
        }

        // Under `Instant` the cold start is a full boot priced by the
        // flat config knob; the snapshot models replace it with the
        // restore cost of bringing the working set back (lazy faults or
        // a REAP prefetch of the recorded pages).
        let mut cold_start_ms = config.cold_start_ms;
        let mut class = StartClass::Cold;
        let mut service_ms = if starts_cold {
            let (id, restore_ms) = if degrade_restore && self.pool.snapshots().is_some() {
                // Memory-pressure rung: restore by lazy paging instead
                // of a prefetch burst the pressured host can't afford.
                // Pays the full page count — a pressured host can't
                // count on co-resident sharing either.
                let spawned = self.pool.spawn_restored_degraded(function, at);
                if let Some(ctl) = self.admission.as_mut() {
                    ctl.note_degraded_restore();
                }
                spawned
            } else {
                // Pages already resident from co-located same-language
                // instances come off the restore bill (0 resident — the
                // disabled path — prices identically to pre-tenancy).
                let resident = self.tenancy_resident(function);
                self.pool.spawn_restored_shared(function, at, resident)
            };
            self.go_live(slot, function, id);
            if self.pool.snapshots().is_some() {
                cold_start_ms = restore_ms;
            }
            // Keep the pre-warm lead-time estimate tracking the restore
            // model's actual pricing.
            self.fns[slot].last_restore_ms = cold_start_ms;
            self.pool.invoke(id, at);
            self.stats.cold_starts += 1;
            // A fresh container has nothing resident: full penalty, and
            // Jukebox has no prior invocation to replay.
            model.service_ms(profile, 1.0, false)
        } else if let Some(ready_ms) = self.fns[slot].prewarm_ready.take() {
            // The arrival landed on an instance pre-restored ahead of
            // it. Memory is up (no boot, no restore burst on the
            // critical path — only the residual wait if the arrival
            // beat the restore), but nothing is cache-resident from a
            // *prior invocation*: microarchitecturally this is the
            // paper's lukewarm case at full interleaving penalty, and
            // Jukebox replays the snapshot's recorded history.
            let id = self.fns[slot].live.expect("prewarmed path has a live id");
            self.pool.invoke(id, at).expect("live id is in the pool");
            self.stats.lukewarm_hits += 1;
            self.stats.prewarm_hits += 1;
            class = StartClass::Lukewarm;
            self.stats.degree_sum += 1.0;
            (ready_ms - at).max(0.0) + model.service_ms(profile, 1.0, jukebox)
        } else {
            let id = self.fns[slot].live.expect("warm path has a live id");
            let gap_ms = self.pool.invoke(id, at).expect("live id is in the pool");
            let elapsed_sec = at / 1000.0;
            let other_per_sec = if elapsed_sec > 0.0 {
                let host_rate = self.stats.invocations as f64 / elapsed_sec;
                let own_rate = self.fns[slot].invocations as f64 / elapsed_sec;
                (host_rate - own_rate).max(0.0)
            } else {
                0.0
            };
            let degree = model.degree(other_per_sec, gap_ms);
            if degree >= model.lukewarm_threshold {
                self.stats.lukewarm_hits += 1;
                class = StartClass::Lukewarm;
            } else {
                self.stats.warm_hits += 1;
                class = StartClass::Warm;
            }
            self.stats.degree_sum += degree;
            model.service_ms(profile, degree, jukebox)
        };

        // A degraded host is up but slow: thermal throttling or a noisy
        // neighbour stretches execution, not queueing or restores.
        if !self.schedule.is_none() && self.schedule.state_at(at) == HostState::Degraded {
            service_ms *= config.chaos.degrade_slowdown;
        }

        // Co-residency pressure: when the registered working sets crowd
        // the host's memory capacity, every page access — execution and
        // restore faults alike — slows by the contention curve's factor.
        // A continuous penalty, not a binary cliff.
        if let Some(tenancy) = self.tenancy.as_mut() {
            let slowdown = tenancy.slowdown();
            if slowdown > 1.0 {
                let before = service_ms + if starts_cold { cold_start_ms } else { 0.0 };
                service_ms *= slowdown;
                cold_start_ms *= slowdown;
                let after = service_ms + if starts_cold { cold_start_ms } else { 0.0 };
                tenancy.note_slowed(after - before);
            }
        }

        let costs = AttemptCosts {
            service_ms,
            cold_start_ms,
            timeout_ms: config.timeout_ms,
            starts_cold,
        };
        // Reconnect retries already spent their share of the allowance;
        // the fault layer gets what is left (always ≥ 1 attempt here).
        let policy = RetryPolicy {
            max_attempts: allowed_attempts - down_retries,
            ..config.retry
        };
        let crashes_before = self.fault_stats.crashes;
        // Fast path: with the fault plan disabled nothing can strike (no
        // eviction, crash, timeout, or retry — none of their streams are
        // even drawn), and with the span scope disabled no child spans
        // are recorded. The fault layer would then charge exactly one
        // clean attempt; replicate it here without the attempt loop.
        // `0.0 + x == x` bit-exactly for the non-negative costs involved,
        // so the summed latency matches the layer's running accumulator.
        let result = if !self.faults.is_enabled() && !scope.is_enabled() {
            self.fault_stats.completed += 1;
            InvocationResult {
                latency_ms: (if starts_cold { costs.cold_start_ms } else { 0.0 })
                    + costs.service_ms,
                attempts: 1,
                completed: true,
            }
        } else {
            self.faults.run_invocation_spanned(
                &policy,
                invocation,
                &costs,
                &mut self.fault_stats,
                scope,
                down_wait_ms,
            )
        };

        // Crashes tear the instance down. If the retry layer recovered,
        // its final attempt ran on a fresh spawn; reflect that in the
        // pool. If it gave up, the function has no live instance left.
        let crashed = self.fault_stats.crashes > crashes_before;
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
        let spent = down_retries + fault_retries;
        budget.settle(&mut self.fns[slot].retry_tokens, spent, result.completed);
        let latency_ms = down_wait_ms + result.latency_ms;
        if let Some(ctl) = self.admission.as_mut() {
            ctl.commit(at, function, latency_ms);
        }
        // The root's tick duration equals the histogram's recorded value
        // exactly (same float, same rounding), and the children tiled
        // every contributing window — exact critical-path attribution.
        scope.root(latency_ms, self.host_id as u64, tick_us(at));
        self.retire(routed, slot, latency_ms, result.completed, class)
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
