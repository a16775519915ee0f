//! The repository benchmark's measuring program.
//!
//! `run.py` drives it; each invocation is one fresh process in one mode:
//!
//! ```text
//! perfbench setup   --workload W --seed N   # set-up only; prints setup_s
//! perfbench measure --workload W --seed N --seconds T
//! perfbench trace   --workload W --seed N --out FILE
//! ```
//!
//! Lines starting with `info:` are for people; the last line is one JSON
//! object for `run.py`. See `README.md` for the workloads and metrics.

mod cycle;
mod fleet;
mod span;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one untraced `measure` process reports.
pub struct Measured {
    /// Host seconds from `main` to the first measured operation.
    pub setup_s: f64,
    /// Simulated invocations per host second over the measured operations.
    pub inv_per_s: f64,
    /// Peak resident memory of the workload, MiB.
    pub peak_rss_mib: f64,
    /// Digest of every simulated statistic the workload produced.
    pub digest: u64,
}

/// Operation accounting: every measured operation and every output
/// check is one attempt; an error, a panic or a failed check is a failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; `problem` is `None` when it succeeded.
    pub fn record(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            println!("info: FAILED {what}: {problem}");
        }
    }

    /// Counts one operation that must satisfy `ok`.
    pub fn expect(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.record(what, (!ok).then(detail));
    }
}

/// FNV-1a over a byte string: a stable digest that does not depend on the
/// toolchain's hasher.
pub fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Per-layer metrics of a traced run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv
        .next()
        .ok_or("missing mode (setup, measure or trace)")?;
    let (mut workload, mut seed, mut seconds, mut out) = (None, None, 10.0, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => out = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        out,
    })
}

fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload = args.workload.as_str();
    let known = workload == "cycle-suite" || fleet::Shape::parse(workload).is_some();
    if !known {
        eprintln!("perfbench: unknown workload {workload:?}");
        std::process::exit(2);
    }
    let mut checks = Checks::default();
    let line = match args.mode.as_str() {
        "setup" => {
            let setup_s = match fleet::Shape::parse(workload) {
                Some(shape) => fleet::setup(shape, args.seed),
                None => cycle::setup(args.seed),
            };
            json_object(&[("setup_s", format!("{setup_s:e}"))])
        }
        "measure" => {
            let m = match fleet::Shape::parse(workload) {
                Some(shape) => fleet::measure(shape, args.seed, args.seconds, &mut checks),
                None => cycle::measure(args.seed, args.seconds, &mut checks),
            };
            println!(
                "info: {workload} seed {} digest {:016x}",
                args.seed, m.digest
            );
            json_object(&[
                ("setup_s", format!("{:e}", m.setup_s)),
                ("inv_per_s", format!("{:e}", m.inv_per_s)),
                ("peak_rss_mib", format!("{:e}", m.peak_rss_mib)),
                ("attempted", checks.attempted.to_string()),
                ("failed", checks.failed.to_string()),
                ("digest", format!("\"{:016x}\"", m.digest)),
            ])
        }
        "trace" => {
            let mut rec = span::Recorder::new();
            let (mut layers, digest) = match fleet::Shape::parse(workload) {
                Some(shape) => fleet::trace(shape, args.seed, &mut rec, &mut checks),
                None => cycle::trace(args.seed, &mut rec, &mut checks),
            };
            for (name, value) in layers.iter_mut() {
                checks.expect(&format!("{name} is finite"), value.is_finite(), || {
                    format!("{value}, reported as 0")
                });
                if !value.is_finite() {
                    *value = 0.0;
                }
            }
            println!("info: {workload} seed {} digest {digest:016x}", args.seed);
            if let Some(path) = &args.out {
                if let Err(e) = std::fs::write(path, rec.to_json()) {
                    eprintln!("perfbench: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            let mut metrics = String::from("{");
            for (i, (name, value)) in layers.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(metrics, "{sep}\"{name}\":{value:e}");
            }
            metrics.push('}');
            json_object(&[
                ("attempted", checks.attempted.to_string()),
                ("failed", checks.failed.to_string()),
                ("digest", format!("\"{digest:016x}\"")),
                ("metrics", metrics),
            ])
        }
        other => {
            eprintln!("perfbench: unknown mode {other:?}");
            std::process::exit(2);
        }
    };
    println!("{line}");
}
