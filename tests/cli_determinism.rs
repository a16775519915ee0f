//! The fleet's headline property checked end to end through the CLI:
//! for every scenario, `lukewarm fleet --emit json` is byte-identical at
//! 1, 4 and 16 worker threads, carries the datasets its features add,
//! and — with a feature off — mentions nothing of it.

use lukewarm_cli::run_cli;

/// One CLI scenario: its extra flags, what its export must contain, and
/// what it must not.
struct Scenario {
    flags: &'static str,
    present: &'static [&'static str],
    absent: &'static [&'static str],
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        flags: "",
        present: &["\"fleet.summary.base\"", "\"fleet.speedup\""],
        // Disabled features stay bit-transparent: a plain run exports
        // nothing of prediction, tenancy or placement routing.
        absent: &[
            "fleet.prewarm",
            "predict.",
            "fleet.tenancy",
            "tenancy.",
            "placement_routed",
            "fleet.resilience",
            "fleet.spans",
        ],
    },
    Scenario {
        flags: "--chaos light",
        present: &[
            "\"fleet.resilience.base\"",
            "host_crashes",
            "\"fleet.timeline.base\"",
        ],
        absent: &["fleet.spans"],
    },
    Scenario {
        flags: "--chaos heavy",
        present: &[
            "\"fleet.resilience.base\"",
            "host_crashes",
            "\"fleet.timeline.base\"",
        ],
        absent: &["fleet.spans"],
    },
    Scenario {
        flags: "--prewarm",
        present: &["\"fleet.prewarm.base\"", "memory_instance_s"],
        absent: &["fleet.tenancy", "fleet.resilience"],
    },
    Scenario {
        flags: "--policy placement-aware --dedup --contention",
        present: &[
            "\"fleet.tenancy.base\"",
            "dedup_bytes_saved",
            "placement_routed",
        ],
        absent: &["fleet.prewarm", "fleet.resilience"],
    },
    Scenario {
        flags: "--trace-sample 25 --chaos heavy",
        present: &[
            "\"fleet.spans.base\"",
            "\"fleet.timeline.base\"",
            "\"fleet.resilience.base\"",
        ],
        absent: &["fleet.prewarm", "fleet.tenancy"],
    },
];

fn fleet_json(flags: &str, threads: usize) -> String {
    let args: Vec<String> = format!("fleet --hosts 16 --threads {threads} --emit json {flags}")
        .split_whitespace()
        .map(String::from)
        .collect();
    run_cli(&args).unwrap_or_else(|e| panic!("fleet {flags} at {threads} threads: {}", e.message))
}

#[test]
fn every_scenario_exports_byte_identical_json_at_any_thread_count() {
    for scenario in SCENARIOS {
        let flags = scenario.flags;
        let reference = fleet_json(flags, 1);
        for threads in [4, 16] {
            assert!(
                fleet_json(flags, threads) == reference,
                "`fleet {flags}`: {threads}-thread JSON differs from 1-thread"
            );
        }
        for needle in scenario.present {
            assert!(reference.contains(needle), "`fleet {flags}` lacks {needle}");
        }
        for needle in scenario.absent {
            assert!(
                !reference.contains(needle),
                "`fleet {flags}` mentions {needle}"
            );
        }
    }
}
