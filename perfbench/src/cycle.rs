//! `cycle-suite`: the paper's 20 functions at paper scale on Skylake, over
//! the grid {reference/none, lukewarm/none, lukewarm/Jukebox, lukewarm/PIF},
//! simulated cell by cell through one `Engine` at one thread.

use crate::span::Recorder;
use crate::{fnv1a, peak_rss_mib, ratio, Checks, Layers, Measured, FNV_OFFSET};
use luke_common::rng::DetRng;
use luke_common::stats::geomean;
use lukewarm_sim::engine::Cell;
use lukewarm_sim::runner::{
    self, CacheState, ExperimentParams, PrefetcherKind, RunSpec, RunSummary,
};
use lukewarm_sim::{Engine, SystemConfig};
use sim_cpu::{Core, InvocationResult};
use sim_mem::hierarchy::HierarchySnapshot;
use sim_mem::prefetch::{FetchObservation, InstructionPrefetcher, PrefetchIssuer};
use sim_mem::stats::{CacheStats, ClassCounts, TrafficBytes};
use sim_mem::{MemoryHierarchy, PageTable};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workloads::{paper_suite, SyntheticFunction};

/// Warm-up and measured invocations per cell. One warm-up records the
/// Jukebox metadata that the measured invocation replays.
const WARMUP: u64 = 1;
const INVOCATIONS: u64 = 1;

/// Jukebox geomean speedup over lukewarm/none on Skylake (paper Fig. 10).
const PAPER_JUKEBOX_SPEEDUP_PCT: f64 = 18.7;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Column {
    Reference,
    Lukewarm,
    Jukebox,
    Pif,
}

const COLUMNS: [Column; 4] = [
    Column::Reference,
    Column::Lukewarm,
    Column::Jukebox,
    Column::Pif,
];

impl Column {
    fn label(self) -> &'static str {
        match self {
            Column::Reference => "reference/none",
            Column::Lukewarm => "lukewarm/none",
            Column::Jukebox => "lukewarm/jukebox",
            Column::Pif => "lukewarm/pif",
        }
    }
}

struct Grid {
    config: SystemConfig,
    params: ExperimentParams,
    /// Function-major: cell `4 f + c` is function `f` under `COLUMNS[c]`.
    cells: Vec<(Column, Cell)>,
}

/// Builds the grid; the workload seed is mixed into every profile seed.
fn grid(seed: u64) -> Grid {
    let config = SystemConfig::skylake();
    let params =
        ExperimentParams::try_new(1.0, INVOCATIONS, WARMUP).expect("grid params are valid");
    let mut cells = Vec::new();
    for mut profile in paper_suite() {
        profile.seed = DetRng::new(profile.seed).split(seed).next_u64();
        for column in COLUMNS {
            let (prefetcher, spec) = match column {
                Column::Reference => (PrefetcherKind::None, RunSpec::reference()),
                Column::Lukewarm => (PrefetcherKind::None, RunSpec::lukewarm()),
                Column::Jukebox => (PrefetcherKind::Jukebox(config.jukebox), RunSpec::lukewarm()),
                Column::Pif => (PrefetcherKind::Pif, RunSpec::lukewarm()),
            };
            cells.push((
                column,
                Cell::new(&config, &profile, prefetcher, spec, &params),
            ));
        }
    }
    Grid {
        config,
        params,
        cells,
    }
}

fn cached(engine: &Engine, grid: &Grid, cell: &Cell) -> RunSummary {
    engine.run(
        &grid.config,
        &cell.profile,
        cell.prefetcher,
        cell.spec,
        &grid.params,
    )
}

/// What any correct simulator produces for one cell.
fn summary_problem(s: &RunSummary) -> Option<String> {
    let finite = [
        s.cpi(),
        s.l2_instr_mpki(),
        s.l2_data_mpki(),
        s.llc_instr_mpki(),
        s.llc_data_mpki(),
    ]
    .iter()
    .all(|v| v.is_finite());
    if s.invocations != INVOCATIONS || s.cycles == 0 || s.instructions == 0 || !finite {
        Some(format!("implausible summary {s:?}"))
    } else {
        None
    }
}

fn digest(cells: &[(Column, Cell)], summaries: &[RunSummary]) -> u64 {
    let mut d = FNV_OFFSET;
    for ((column, cell), s) in cells.iter().zip(summaries) {
        fnv1a(
            &mut d,
            format!("{}|{}|{s:?}\n", cell.profile.name, column.label()).as_bytes(),
        );
    }
    d
}

/// Prints the model's Jukebox geomean speedup beside the paper's.
fn print_model_reference(grid: &Grid, summaries: &[RunSummary]) {
    let speedups: Vec<f64> = summaries
        .chunks(COLUMNS.len())
        .map(|row| row[2].speedup_over(&row[1]))
        .collect();
    let pct = (geomean(&speedups) - 1.0) * 100.0;
    println!(
        "info: model reference: Jukebox geomean speedup over lukewarm/none {pct:+.1}% \
         ({} functions, Skylake, {WARMUP}+{INVOCATIONS} invocations/cell); \
         paper Fig. 10: {PAPER_JUKEBOX_SPEEDUP_PCT:+.1}%; difference {:+.1} points",
        grid.cells.len() / COLUMNS.len(),
        pct - PAPER_JUKEBOX_SPEEDUP_PCT
    );
}

pub fn setup(seed: u64) -> f64 {
    let start = Instant::now();
    let grid = grid(seed);
    let engine = Engine::new(1);
    std::hint::black_box((&grid, &engine));
    start.elapsed().as_secs_f64()
}

/// Simulates `cell` through `engine` on the calling thread (an inline
/// miss of `Engine::run`); the panic, if any, is the error. Unlike
/// `Engine::prefetch`, which runs each batch on a fresh worker thread,
/// this keeps every allocation in the main malloc arena, so the peak
/// resident memory of a run repeats instead of depending on which arena
/// each worker thread was given.
fn simulate(engine: &Engine, grid: &Grid, cell: &Cell) -> Result<RunSummary, String> {
    catch_unwind(AssertUnwindSafe(|| cached(engine, grid, cell)))
        .map_err(|_| "simulation panicked".to_string())
}

pub fn measure(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let start = Instant::now();
    let grid = grid(seed);
    let first = Engine::new(1);
    let setup_s = start.elapsed().as_secs_f64();

    // At least one full pass; later passes (fresh engines, so nothing is
    // served from the cache) run cell by cell until the time is up. Each
    // cell keeps its fastest time: repeats of one cell lie a pass apart,
    // so they land in different phases of the host's speed.
    let measure_start = Instant::now();
    let mut fastest_s = vec![f64::INFINITY; grid.cells.len()];
    let mut samples = 0;
    let mut busy_s = 0.0;
    let mut peak_mib = 0.0;
    let mut later = Engine::new(1);
    let mut summaries = vec![RunSummary::default(); grid.cells.len()];
    for i in 0.. {
        let k = i % grid.cells.len();
        let pass_one = i < grid.cells.len();
        if !pass_one && measure_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if !pass_one && k == 0 {
            later = Engine::new(1);
        }
        let engine = if pass_one { &first } else { &later };
        let (column, cell) = &grid.cells[k];
        let t = Instant::now();
        let result = simulate(engine, &grid, cell);
        let cell_s = t.elapsed().as_secs_f64();
        fastest_s[k] = fastest_s[k].min(cell_s);
        busy_s += cell_s;
        samples += 1;
        let what = format!("cell {} {}", cell.profile.name, column.label());
        let problem = match result {
            Err(e) => Some(e),
            Ok(s) if pass_one => {
                summaries[k] = s;
                summary_problem(&s)
            }
            Ok(s) => (s != summaries[k]).then(|| "differs from the first pass".to_string()),
        };
        checks.record(&what, problem);
        // Peak memory of set-up and one pass: the repeats only time the
        // same cells again, and how many fit depends on the host's speed.
        if k + 1 == grid.cells.len() && pass_one {
            peak_mib = peak_rss_mib();
        }
    }

    // Output checks: re-planning the grid is served wholly from the cache,
    // and the cached summary of one sampled function per column equals a
    // fresh `runner::run`.
    let simulated = first.cells_simulated();
    let hits = first.cache_hits();
    first.prefetch(
        &grid
            .cells
            .iter()
            .map(|(_, c)| c.clone())
            .collect::<Vec<_>>(),
    );
    checks.expect(
        "engine re-plan",
        first.cells_simulated() == simulated
            && first.cache_hits() == hits + grid.cells.len() as u64,
        || "re-planning the grid simulated cells again".to_string(),
    );
    let functions = grid.cells.len() / COLUMNS.len();
    let rng = DetRng::new(seed);
    for (c, column) in COLUMNS.iter().enumerate() {
        let f = rng.split(c as u64).below(functions as u64) as usize;
        let (_, cell) = &grid.cells[f * COLUMNS.len() + c];
        let fresh = runner::run(
            &grid.config,
            &cell.profile,
            cell.prefetcher,
            cell.spec,
            &grid.params,
        );
        checks.expect(
            &format!("fresh runner::run {} {}", cell.profile.name, column.label()),
            fresh == cached(&first, &grid, cell),
            || "engine-cached summary differs from a fresh run".to_string(),
        );
    }

    // One pass's invocations over the sum of the cells' fastest times.
    let invocations: u64 = grid
        .cells
        .iter()
        .map(|(_, c)| c.warmup + c.invocations)
        .sum();
    let inv_per_s = invocations as f64 / fastest_s.iter().sum::<f64>();
    let runs = samples as f64 / grid.cells.len() as f64;
    println!(
        "info: inv_per_s is one pass's {invocations} invocations over the sum of each \
         cell's fastest of {runs:.2} runs on average (whole-run rate {:.3})",
        runs * invocations as f64 / busy_s
    );
    print_model_reference(&grid, &summaries);
    Measured {
        setup_s,
        inv_per_s,
        peak_rss_mib: peak_mib,
        digest: digest(&grid.cells, &summaries),
    }
}

/// Times an inner prefetcher's callbacks; the core calls it once per
/// demand line fetch, so the sum is recorded as one span per invocation.
struct TimedPrefetcher {
    inner: Box<dyn InstructionPrefetcher>,
    spent: Duration,
}

impl InstructionPrefetcher for TimedPrefetcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_invocation_start(&mut self, issuer: &mut PrefetchIssuer<'_>) {
        let t = Instant::now();
        self.inner.on_invocation_start(issuer);
        self.spent += t.elapsed();
    }

    fn on_fetch(&mut self, observation: &FetchObservation, issuer: &mut PrefetchIssuer<'_>) {
        let t = Instant::now();
        self.inner.on_fetch(observation, issuer);
        self.spent += t.elapsed();
    }

    fn on_invocation_end(&mut self, issuer: &mut PrefetchIssuer<'_>) {
        let t = Instant::now();
        self.inner.on_invocation_end(issuer);
        self.spent += t.elapsed();
    }
}

fn add_class(a: ClassCounts, b: ClassCounts) -> ClassCounts {
    ClassCounts {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
    }
}

fn add_cache(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        instr: add_class(a.instr, b.instr),
        data: add_class(a.data, b.data),
        prefetch_first_hits: a.prefetch_first_hits + b.prefetch_first_hits,
        prefetch_late_hits: a.prefetch_late_hits + b.prefetch_late_hits,
        prefetch_fills: a.prefetch_fills + b.prefetch_fills,
        instr_fills: a.instr_fills + b.instr_fills,
        data_fills: a.data_fills + b.data_fills,
        prefetch_evicted_unused: a.prefetch_evicted_unused + b.prefetch_evicted_unused,
    }
}

fn add_snapshot(a: &HierarchySnapshot, b: &HierarchySnapshot) -> HierarchySnapshot {
    HierarchySnapshot {
        l1i: add_cache(a.l1i, b.l1i),
        l1d: add_cache(a.l1d, b.l1d),
        l2: add_cache(a.l2, b.l2),
        llc: add_cache(a.llc, b.llc),
        traffic: TrafficBytes {
            demand_instr: a.traffic.demand_instr + b.traffic.demand_instr,
            demand_data: a.traffic.demand_data + b.traffic.demand_data,
            prefetch: a.traffic.prefetch + b.traffic.prefetch,
            metadata_record: a.traffic.metadata_record + b.traffic.metadata_record,
            metadata_replay: a.traffic.metadata_replay + b.traffic.metadata_replay,
        },
    }
}

/// `runner::run`'s aggregation of one measured invocation.
fn accumulate(s: &mut RunSummary, r: &InvocationResult, mem: &HierarchySnapshot) {
    s.invocations += 1;
    s.cycles += r.cycles;
    s.instructions += r.instructions;
    s.topdown += r.topdown;
    s.mispredicts += r.stats.mispredicts;
    s.prefetch.issued += r.prefetch.issued;
    s.prefetch.redundant += r.prefetch.redundant;
    s.prefetch.metadata_written += r.prefetch.metadata_written;
    s.prefetch.metadata_read += r.prefetch.metadata_read;
    s.mem = add_snapshot(&s.mem, mem);
}

/// Layer counts over every simulated invocation (warm-up included) of the
/// traced pass.
#[derive(Default)]
struct Counts {
    generated_instrs: u64,
    retired_instrs: u64,
    mispredicts: u64,
    accesses: u64,
    l2_instr_misses: u64,
    dram_bytes: u64,
    /// Per column: prefetches issued, metadata bytes, useful fills, fills.
    issued: [u64; 4],
    metadata_bytes: [u64; 4],
    useful: [u64; 4],
    fills: [u64; 4],
}

/// `runner::run` rebuilt from the layers' public calls, with a span
/// around each call. Its summary must equal the untraced run's.
fn traced_cell(rec: &mut Recorder, unit: usize, grid: &Grid, counts: &mut Counts) -> RunSummary {
    let cell = &grid.cells[unit].1;
    let column = unit % COLUMNS.len();
    let cell_span = rec.open("cycle.cell", 0, unit);
    let build = rec.open("workloads.build", cell_span, unit);
    let function = SyntheticFunction::build(&cell.profile);
    rec.close(build);
    let mut core = Core::new(grid.config.core);
    let mut mem = MemoryHierarchy::new(grid.config.mem);
    let mut page_table = PageTable::new(cell.profile.seed);
    let mut prefetcher = TimedPrefetcher {
        inner: cell
            .prefetcher
            .build_bounded(Some(function.layout().address_span())),
        spent: Duration::ZERO,
    };
    let mut summary = RunSummary::default();
    for invocation in 0..cell.warmup + cell.invocations {
        if let CacheState::Lukewarm = cell.spec.state {
            let flush = rec.open("mem.flush_all", cell_span, unit);
            mem.flush_all();
            rec.close(flush);
            let flush = rec.open("cpu.flush_microarch", cell_span, unit);
            core.flush_microarch();
            rec.close(flush);
        }
        let gen = rec.open("workloads.invocation_trace", cell_span, unit);
        let trace = function.invocation_trace(invocation);
        rec.close(gen);
        counts.generated_instrs += trace.len() as u64;

        let before = mem.snapshot();
        prefetcher.spent = Duration::ZERO;
        let run = rec.open("cpu.run_invocation", cell_span, unit);
        // The no-prefetcher columns call the no-op directly: timing it
        // would only charge timer overhead to the core.
        let pf: &mut dyn InstructionPrefetcher = if cell.prefetcher == PrefetcherKind::None {
            prefetcher.inner.as_mut()
        } else {
            &mut prefetcher
        };
        let result = core.run_invocation(trace, &mut mem, &mut page_table, pf);
        rec.close(run);
        if cell.prefetcher != PrefetcherKind::None {
            rec.summed_child(
                "prefetcher.callbacks",
                run,
                unit,
                prefetcher.spent.as_secs_f64(),
            );
        }
        let delta = mem.snapshot().delta(&before);

        counts.retired_instrs += result.instructions;
        counts.mispredicts += result.stats.mispredicts;
        counts.accesses += delta.l1i.instr.hits
            + delta.l1i.instr.misses
            + delta.l1d.data.hits
            + delta.l1d.data.misses;
        counts.l2_instr_misses += delta.l2.instr.misses;
        counts.dram_bytes += delta.traffic.total();
        counts.issued[column] += result.prefetch.issued;
        counts.metadata_bytes[column] +=
            result.prefetch.metadata_written + result.prefetch.metadata_read;
        counts.useful[column] += delta.l2.prefetch_first_hits + delta.l2.prefetch_late_hits;
        counts.fills[column] += delta.l2.prefetch_fills;
        if invocation >= cell.warmup {
            accumulate(&mut summary, &result, &delta);
        }
    }
    rec.close(cell_span);
    summary
}

pub fn trace(seed: u64, rec: &mut Recorder, checks: &mut Checks) -> (Layers, u64) {
    let grid = grid(seed);
    let all: Vec<Cell> = grid.cells.iter().map(|(_, c)| c.clone()).collect();

    // Each cell runs untraced through `Engine::run`, as in the measured
    // run, then traced, rebuilt from the layers' public calls. Pairing them
    // cell by cell puts both halves of the overhead difference in the same
    // stretch of host time.
    let engine = Engine::new(1);
    let mut counts = Counts::default();
    let mut summaries = Vec::with_capacity(grid.cells.len());
    let mut traced = Vec::with_capacity(grid.cells.len());
    for (k, (column, cell)) in grid.cells.iter().enumerate() {
        let span = rec.open("engine.run", 0, k);
        let result = simulate(&engine, &grid, cell);
        rec.close(span);
        let what = format!("cell {} {}", cell.profile.name, column.label());
        let untraced = result.unwrap_or_default();
        checks.record(&what, summary_problem(&untraced));
        summaries.push(untraced);

        let result = catch_unwind(AssertUnwindSafe(|| traced_cell(rec, k, &grid, &mut counts)));
        let what = format!("traced {what}");
        let s = result.unwrap_or_default();
        checks.expect(&what, s == untraced, || {
            "panicked or differs from the untraced summary".to_string()
        });
        traced.push(s);
    }
    let untraced_s = rec.total("engine.run");
    let traced_s = rec.total("cycle.cell");
    let cells = engine.cells_simulated();
    engine.prefetch(&all);
    let untraced_digest = digest(&grid.cells, &summaries);
    let traced_digest = digest(&grid.cells, &traced);
    checks.expect("traced digest", traced_digest == untraced_digest, || {
        format!("traced {traced_digest:016x} vs untraced {untraced_digest:016x}")
    });

    // The whole grid through `Engine::prefetch` at two threads, the path
    // `lukewarm figure --threads 2` takes.
    let span = rec.open("engine.prefetch", 0, 0);
    let two = Engine::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| two.prefetch(&all)));
    rec.close(span);
    let two_s = rec.total("engine.prefetch");
    checks.record(
        "engine pass at 2 threads",
        match result {
            Err(_) => Some("panicked".to_string()),
            Ok(()) => {
                let s2: Vec<RunSummary> = grid
                    .cells
                    .iter()
                    .map(|(_, c)| cached(&two, &grid, c))
                    .collect();
                (s2 != summaries).then(|| "2-thread summaries differ from 1-thread".to_string())
            }
        },
    );

    let columns_of = |col: Column| move |unit: usize| COLUMNS[unit % COLUMNS.len()] == col;
    let any = |_: usize| true;
    let jb = Column::Jukebox as usize;
    let pif = Column::Pif as usize;
    let trace_gen_s = rec.self_time("workloads.invocation_trace", any);
    let cpu_s = rec.self_time("cpu.run_invocation", any);
    let mut layers = Layers::new();
    layers.insert("workloads.trace_gen_s", trace_gen_s);
    layers.insert(
        "workloads.minstr_per_s",
        counts.generated_instrs as f64 / trace_gen_s / 1e6,
    );
    layers.insert("cpu.run_s", cpu_s);
    layers.insert(
        "cpu.sim_minstr_per_s",
        counts.retired_instrs as f64 / cpu_s / 1e6,
    );
    layers.insert("cpu.mispredicts", counts.mispredicts as f64);
    layers.insert("mem.accesses", counts.accesses as f64);
    layers.insert("mem.accesses_per_s", counts.accesses as f64 / cpu_s);
    layers.insert("mem.l2_instr_misses", counts.l2_instr_misses as f64);
    layers.insert("mem.dram_bytes", counts.dram_bytes as f64);
    layers.insert("mem.flush_s", rec.self_time("mem.flush_all", any));
    layers.insert(
        "jukebox.callback_s",
        rec.self_time("prefetcher.callbacks", columns_of(Column::Jukebox)),
    );
    layers.insert("jukebox.issued", counts.issued[jb] as f64);
    layers.insert(
        "jukebox.useful_frac",
        ratio(counts.useful[jb], counts.fills[jb]),
    );
    layers.insert("jukebox.metadata_bytes", counts.metadata_bytes[jb] as f64);
    layers.insert(
        "prefetchers.pif.callback_s",
        rec.self_time("prefetcher.callbacks", columns_of(Column::Pif)),
    );
    layers.insert(
        "prefetchers.pif.useful_frac",
        ratio(counts.useful[pif], counts.fills[pif]),
    );
    layers.insert("engine.cells", cells as f64);
    layers.insert("engine.cache_hits", engine.cache_hits() as f64);
    layers.insert("engine.prefetch_s", two_s);
    layers.insert("engine.parallel_eff_2t", untraced_s / (2.0 * two_s));
    layers.insert("trace.overhead_s", traced_s - untraced_s);
    (layers, untraced_digest)
}
