//! `tlp_perfbench`: the in-process half of the benchmark, for the
//! single-cell workloads `bfs-1c` and `mix-4c`.
//!
//! ```text
//! tlp_perfbench --workload bfs-1c|mix-4c --seed N --seconds S --trace 0|1
//!               --min-pairs P --work-dir DIR
//! tlp_perfbench --yardstick
//! ```
//!
//! Prints one JSON line: `correct`, `attempted`, `failed`, the measured
//! `metrics`, and one reference `SimReport` per input (in the result
//! cache's JSON form), from which `run.py` derives the modelled metrics.
//! `--yardstick` instead prints one yardstick reading, the nominal pass
//! time and the sensitivity, for `run.py` to scale the grid's CLI runs.
//! Every simulated run is one attempted operation; it fails when its
//! report differs from its input's reference or retires less than the
//! budget.
//!
//! Pair `p` of a run simulates input `p mod K` of the run's
//! [`Cell::inputs`] (`K`), and every input is simulated at least once, so
//! the pooled figures never depend on how many pairs fit.
//!
//! * `--trace 0` alternates cycle- and event-engine runs, each on a
//!   freshly built system, until `S` seconds have passed and at least
//!   `P` of each ran. A yardstick reading follows every run, and each
//!   run's host seconds are scaled by the readings on either side of it
//!   ([`yardstick::scale`]). It reports the median scaled set-up time and
//!   the median scaled simulated kIPS per engine, and writes the unscaled
//!   medians to stderr.
//! * `--trace 1` makes one untraced cycle-engine run (the engine
//!   equality gate), calibrates what timing one seam call costs
//!   ([`TimerCost`]), then alternates untraced and seam-decorated
//!   event-engine runs, and reports the per-layer breakdown in host
//!   seconds, with the median yardstick reading beside it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tlp_perfbench::seams::{Probe, Probes, TimerCost};
use tlp_perfbench::workloads::{setup, Cell, SetupTimes};
use tlp_perfbench::yardstick;
use tlp_sim::serial::report_to_json;
use tlp_sim::{EngineMode, SimReport};

/// Whether another pair of runs should start: until `--min-pairs` ran
/// and every input was simulated, and after that as long as one more,
/// lasting as long as the last, still ends within the measuring window.
fn another_fits(a: &Args, pairs: usize, start: Instant, last: Duration) -> bool {
    pairs < a.min_pairs.max(a.cell.inputs()) || start.elapsed() + last <= a.seconds
}

struct Args {
    cell: Cell,
    seed: u64,
    seconds: Duration,
    trace: bool,
    min_pairs: usize,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut cell = None;
    let mut seed = 0;
    let mut seconds = Duration::from_secs(10);
    let mut trace = false;
    let mut min_pairs = 1;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                cell = Some(Cell::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = Duration::from_secs_f64(value.parse::<f64>().map_err(|e| bad(&e))?);
            }
            "--trace" => trace = value != "0",
            "--min-pairs" => min_pairs = value.parse().map_err(|e| bad(&e))?,
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        cell: cell.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        min_pairs,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Equality and budget gate over every run of one invocation: one
/// reference report per input, in input order.
struct Gate {
    references: Vec<SimReport>,
    cores: usize,
    instructions: u64,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn new(cell: Cell) -> Self {
        Self {
            references: Vec::new(),
            cores: cell.cores(),
            instructions: cell.budget().instructions,
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, input: usize, report: SimReport) {
        self.attempted += 1;
        let full = report.cores.len() == self.cores
            && report
                .cores
                .iter()
                .all(|c| c.core.instructions >= self.instructions);
        let same = self.references.get(input).is_none_or(|r| *r == report);
        if !(full && same) {
            self.failed += 1;
        }
        if input == self.references.len() {
            self.references.push(report);
        }
    }
}

/// One simulation of input `pair mod K` on a fresh system: set-up times,
/// simulate seconds, executed ticks and simulated cycles.
fn run_once(
    a: &Args,
    pair: usize,
    mode: EngineMode,
    probes: Option<&Arc<Probes>>,
    gate: &mut Gate,
) -> Result<(SetupTimes, f64, u64, u64), String> {
    let input = pair % a.cell.inputs();
    let seed = a.cell.input_seed(a.seed, input);
    let mut built = setup(a.cell, seed, mode, probes, &a.work_dir)?;
    let budget = a.cell.budget();
    let t = Instant::now();
    let report = built.system.run(budget.warmup, budget.instructions);
    let secs = t.elapsed().as_secs_f64();
    gate.check(input, report);
    Ok((
        built.times,
        secs.max(1e-9),
        built.system.ticks_executed(),
        built.system.cycle(),
    ))
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn untraced(a: &Args, gate: &mut Gate) -> Result<Vec<(&'static str, f64)>, String> {
    let start = Instant::now();
    let kinstr = (a.cell.budget().instructions * a.cell.cores() as u64) as f64 / 1e3;
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let (mut kips, mut raw_kips) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    let mut readings = vec![yardstick::reading()];
    let mut pairs = 0;
    loop {
        let t = Instant::now();
        let order = if pairs % 2 == 0 {
            EngineMode::ALL
        } else {
            [EngineMode::Event, EngineMode::Cycle]
        };
        for mode in order {
            let (times, secs, _, _) = run_once(a, pairs, mode, None, gate)?;
            let before = readings[readings.len() - 1];
            let after = yardstick::reading();
            readings.push(after);
            let scale = yardstick::scale(before, after);
            let engine = usize::from(mode == EngineMode::Event);
            setup_s.push(times.total() * scale);
            kips[engine].push(kinstr / (secs * scale));
            raw_setup_s.push(times.total());
            raw_kips[engine].push(kinstr / secs);
        }
        pairs += 1;
        if !another_fits(a, pairs, start, t.elapsed()) {
            break;
        }
    }
    let ([cycle, event], [raw_cycle, raw_event]) = (&mut kips, &mut raw_kips);
    eprintln!(
        "tlp_perfbench: unscaled medians: setup_s {:.6} s, sim_kips.cycle {:.3}, \
         sim_kips.event {:.3}; yardstick reading {:.3} ms (nominal {:.3} ms)",
        median(&mut raw_setup_s),
        median(raw_cycle),
        median(raw_event),
        median(&mut readings) * 1e3,
        yardstick::NOMINAL_S * 1e3,
    );
    Ok(vec![
        ("setup_s", median(&mut setup_s)),
        ("sim_kips.cycle", median(cycle)),
        ("sim_kips.event", median(event)),
    ])
}

fn traced(a: &Args, gate: &mut Gate) -> Result<Vec<(&'static str, f64)>, String> {
    let start = Instant::now();
    let mut setups = Vec::new();
    let (times, _, _, _) = run_once(a, 0, EngineMode::Cycle, None, gate)?;
    setups.push(times);
    let cost = TimerCost::calibrate();
    let probes = Arc::new(Probes::default());
    let mut plain = Vec::new();
    let mut decorated = Vec::new();
    let mut readings = Vec::new();
    let (mut ticks, mut cycles) = (0, 0);
    let mut pairs = 0;
    loop {
        let t = Instant::now();
        let (times, secs, _, _) = run_once(a, pairs, EngineMode::Event, None, gate)?;
        setups.push(times);
        plain.push(secs);
        let (times, secs, t_run, c_run) =
            run_once(a, pairs, EngineMode::Event, Some(&probes), gate)?;
        setups.push(times);
        decorated.push(secs);
        readings.push(yardstick::reading());
        ticks += t_run;
        cycles += c_run;
        pairs += 1;
        if !another_fits(a, pairs, start, t.elapsed()) {
            break;
        }
    }
    // Probes accumulate over every decorated run; report per-run means
    // over the pooled inputs, so the seconds add up to the mean decorated
    // simulate time.
    let runs = decorated.len() as f64;
    let (ticks, cycles) = (ticks as f64 / runs, cycles as f64 / runs);
    let traced_s = decorated.iter().sum::<f64>() / runs;
    let per_run = |p: &Probe| (p.calls() as f64 / runs, cost.work_seconds(p) / runs);
    let (predict_calls, predict_s) = per_run(&probes.offchip_predict);
    let (train_calls, train_s) = per_run(&probes.offchip_train);
    let (filter_calls, filter_s) = per_run(&probes.l1_filter);
    let (ftrain_calls, ftrain_s) = per_run(&probes.l1_filter_train);
    let (ipcp_calls, ipcp_s) = per_run(&probes.l1_prefetcher);
    let (spp_calls, spp_s) = per_run(&probes.l2_prefetcher);
    let (trace_records, trace_s) = per_run(&probes.trace);
    let timer_s = cost.overhead_seconds(probes.calls()) / runs;
    let seam_s = predict_s + train_s + filter_s + ftrain_s + ipcp_s + spp_s;
    let self_s = traced_s - seam_s - trace_s - timer_s;
    let phase = |f: fn(&SetupTimes) -> f64| median(&mut setups.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        ("engine.ticks", ticks),
        ("engine.cycles", cycles),
        ("engine.skip_pct", 100.0 * (1.0 - ticks / cycles)),
        ("engine.simulate_s", traced_s),
        ("engine.self_s", self_s),
        ("engine.ns_per_tick", self_s * 1e9 / ticks),
        ("flp.predict.calls", predict_calls),
        ("flp.predict.s", predict_s),
        ("flp.train.calls", train_calls),
        ("flp.train.s", train_s),
        ("slp.filter.calls", filter_calls),
        ("slp.filter.s", filter_s),
        ("slp.train.calls", ftrain_calls),
        ("slp.train.s", ftrain_s),
        ("ipcp.calls", ipcp_calls),
        ("ipcp.s", ipcp_s),
        (
            "ipcp.candidates",
            probes.l1_prefetcher.items() as f64 / runs,
        ),
        ("spp.calls", spp_calls),
        ("spp.s", spp_s),
        ("spp.candidates", probes.l2_prefetcher.items() as f64 / runs),
        ("trace.records", trace_records),
        ("trace.s", trace_s),
        ("probe.timer_s", timer_s),
        ("setup.workload_s", phase(|t| t.workload_s)),
        ("setup.capture_s", phase(|t| t.capture_s)),
        ("setup.assemble_s", phase(|t| t.assemble_s)),
        ("setup.persist_s", phase(|t| t.persist_s)),
        (
            "trace_overhead",
            median(&mut decorated) / median(&mut plain),
        ),
        ("host.yardstick_ms", median(&mut readings) * 1e3),
    ];
    Ok(metrics)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--yardstick") {
        println!(
            "{{\"reading_s\":{},\"nominal_s\":{},\"sensitivity\":{}}}",
            yardstick::reading(),
            yardstick::NOMINAL_S,
            yardstick::SENSITIVITY
        );
        return;
    }
    let a = parse_args().unwrap_or_else(|e| {
        eprintln!("tlp_perfbench: {e}");
        std::process::exit(2);
    });
    let mut gate = Gate::new(a.cell);
    let measured = if a.trace {
        traced(&a, &mut gate)
    } else {
        untraced(&a, &mut gate)
    };
    let metrics = measured.unwrap_or_else(|e| {
        eprintln!("tlp_perfbench: {e}");
        std::process::exit(1);
    });
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            assert!(v.is_finite(), "{name} is not finite: {v}");
            format!("\"{name}\":{v}")
        })
        .collect();
    let reports: Vec<String> = gate.references.iter().map(report_to_json).collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"reports\":[{}]}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        fields.join(","),
        reports.join(",")
    );
}
