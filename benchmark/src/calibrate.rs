//! `--calibrate`: how far do runs of the SAME code disagree?
//!
//! Does what the benchmark's contract asks of its author before finishing:
//! ten runs of every workload, each with another seed, and per workload ×
//! metric the spread of the ten values (interquartile range ÷ median,
//! quartiles as Python's `statistics.quantiles(n=4)`). The ten runs are
//! taken as two sets of five, so the drift of the second set's median from
//! the first's shows too. Written to `NOISE.md`, whose last table sets every
//! metric's widest spread against its bound in `BENCHMARK.json`.

use crate::e2e::{self, Env};
use crate::ops::Workload;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

const SETS: usize = 2;
const RUNS_PER_SET: usize = 5;
/// The widest bound `BENCHMARK.json` may state.
const MAX_BOUND: f64 = 0.25;

/// Every end-to-end metric is better lower, except throughput.
fn worse_is_higher(metric: &str) -> bool {
    metric != "throughput_qps"
}

/// The bound `BENCHMARK.json` states for a metric. Every timing gets the
/// widest there is: what a run reports is the box's fast speed, and that
/// speed itself drifts by 5-7% from one ten-minute set to the next
/// (README, "Noise"), which no statistic inside a run removes. The two
/// sizes repeat to a fraction of a percent.
fn bound(metric: &str) -> f64 {
    match metric {
        "server_rss_mb" | "store_mb" => 0.05,
        _ => MAX_BOUND,
    }
}

fn yes_no(yes: bool) -> &'static str {
    if yes {
        "yes"
    } else {
        "NO"
    }
}

struct Cell {
    unit: &'static str,
    /// Values per set, in run order.
    sets: [Vec<f64>; SETS],
}

pub fn run(env: &Env, seconds: u64, noise_md: &Path) -> Result<bool, String> {
    let mut cells: BTreeMap<(usize, String), Cell> = BTreeMap::new();
    let mut metric_order: Vec<String> = Vec::new();
    let mut all_correct = true;
    for set in 0..SETS {
        for r in 0..RUNS_PER_SET {
            let seed = (set * RUNS_PER_SET + r + 1) as u64;
            for (wi, w) in Workload::GATED.into_iter().enumerate() {
                let report = e2e::run(env, w, seed, seconds)?;
                eprintln!(
                    "calibrate: set {} run {}/{RUNS_PER_SET} seed {seed} {}: {}",
                    set + 1,
                    r + 1,
                    w.name(),
                    report.json_line(false)?
                );
                if !report.correct() {
                    report.print_human();
                    all_correct = false;
                }
                for m in &report.metrics {
                    if !metric_order.contains(&m.name) {
                        metric_order.push(m.name.clone());
                    }
                    cells
                        .entry((wi, m.name.clone()))
                        .or_insert_with(|| Cell {
                            unit: m.unit,
                            sets: Default::default(),
                        })
                        .sets[set]
                        .push(m.value);
                }
            }
        }
    }

    let mut md = String::new();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    writeln!(
        md,
        "# Run-to-run noise of the benchmark\n\n\
         Written by `benchmark/run.sh --calibrate --seconds {seconds}` on a {nproc}-core box: \
         {} runs of every workload on ONE tree, seeds 1..={0}, taken as {SETS} sets of \
         {RUNS_PER_SET}. `spread` is the interquartile range of the {0} values over their \
         median (`statistics.quantiles(n=4)`) — the number the benchmark's contract judges \
         steadiness by; `drift` is how much worse the second set's median is than the \
         first's (negative: better).\n",
        SETS * RUNS_PER_SET
    )
    .expect("write to String");
    // Per metric: (widest spread, the workload it is on, worst drift).
    let mut widest: BTreeMap<String, (f64, &str, f64)> = BTreeMap::new();
    for (wi, w) in Workload::GATED.into_iter().enumerate() {
        writeln!(
            md,
            "## {}\n\n| metric | unit | median 1 | median 2 | drift | spread | min | max |\n\
             |---|---|---|---|---|---|---|---|",
            w.name()
        )
        .expect("write to String");
        for name in &metric_order {
            let Some(cell) = cells.get(&(wi, name.clone())) else {
                continue;
            };
            let medians = [stats::median(&cell.sets[0]), stats::median(&cell.sets[1])];
            let sign = if worse_is_higher(name) { 1.0 } else { -1.0 };
            let drift = if medians[0] == 0.0 {
                0.0
            } else {
                sign * (medians[1] - medians[0]) / medians[0]
            };
            let all = cell.sets.concat();
            let spread = stats::spread(&all);
            let min = all.iter().copied().fold(f64::INFINITY, f64::min);
            let max = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            writeln!(
                md,
                "| `{name}` | {} | {:.4} | {:.4} | {:+.1}% | {:.1}% | {min:.4} | {max:.4} |",
                cell.unit,
                medians[0],
                medians[1],
                drift * 100.0,
                spread * 100.0,
            )
            .expect("write to String");
            let entry = widest
                .entry(name.clone())
                .or_insert((0.0, w.name(), f64::NEG_INFINITY));
            if spread > entry.0 {
                (entry.0, entry.1) = (spread, w.name());
            }
            entry.2 = entry.2.max(drift);
        }
        md.push('\n');
    }
    writeln!(
        md,
        "## Bounds\n\nEvery timing's bound is {:.0}%, the most a bound may be; the two sizes' is \
         5%. A spread should stay below a third of its bound.\n\n\
         | metric | widest spread | on | worst drift | bound | spread within a third of the bound |\n\
         |---|---|---|---|---|---|",
        MAX_BOUND * 100.0
    )
    .expect("write to String");
    for name in &metric_order {
        let (spread, on, drift) = widest[name];
        let bound = bound(name);
        writeln!(
            md,
            "| `{name}` | {:.1}% | {on} | {:+.1}% | {bound:.2} | {} |",
            spread * 100.0,
            drift * 100.0,
            yes_no(spread <= bound / 3.0),
        )
        .expect("write to String");
    }
    std::fs::write(noise_md, &md).map_err(|e| format!("{}: {e}", noise_md.display()))?;
    eprint!("{md}");
    eprintln!("calibrate: wrote {}", noise_md.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_get_the_widest_bound_and_sizes_five_percent() {
        assert_eq!(bound("latency_p50_ms"), 0.25);
        assert_eq!(bound("setup_s"), 0.25);
        assert_eq!(bound("store_mb"), 0.05);
        assert!(worse_is_higher("latency_p50_ms"));
        assert!(!worse_is_higher("throughput_qps"));
    }
}
