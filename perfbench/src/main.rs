//! The repository benchmark harness. One process runs one workload:
//!
//! ```text
//! perfbench --workload <testbed|giant|control_serve|control_ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench pin --workload <name> --seeds <a>-<b>
//! ```
//!
//! A run sets the workload up several times, then repeats it as many
//! times as fill `--seconds` on the reference host, checks every
//! repetition's output digest, and prints one JSON line as the last line
//! of stdout: the end-to-end metrics with `--trace 0`; with `--trace 1`
//! an untraced pass followed by a traced pass (every app callback timed,
//! per-layer split), half of `--seconds` each, and the per-layer
//! metrics. `pin` computes each seed's digest with the program's own
//! oracle, checks the workload against it and prints a `pins.txt` line.
//! See README.md for the metric definitions.

mod control;
mod digest;
mod giant;
mod stats;
mod testbed;
mod timed;

use control::Shape;
use digest::Digest;
use int_core::IntCollector;
use int_netsim::{NetStats, PoolStats};
use stats::{median, summarize, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Per-layer values of one repetition, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One repetition of a workload.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub rounds_us: Vec<f64>,
    /// Units of work done: simulated events, queries or probes.
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Digest,
    pub check: Result<(), String>,
    pub layers: Layers,
}

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("work_per_s", "1/s"),
    ("round_p50_us", "us"),
    ("round_tail_us", "us"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("netsim.engine.self_s", "s"),
    ("netsim.engine.ns_per_event", "ns"),
    ("netsim.events", "count"),
    ("netsim.frames_forwarded", "count"),
    ("netsim.frames_delivered", "count"),
    ("netsim.drops", "count"),
    ("netsim.pool.alloc_frac", "frac"),
    ("netsim.par.run_s", "s"),
    ("netsim.par.domain_event_max_frac", "frac"),
    ("netsim.par.efficiency", "frac"),
    ("netsim.domain.partition_s", "s"),
    ("netsim.topology.build_s", "s"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "bytes"),
    ("apps.scheduler.busy_s", "s"),
    ("apps.probe.busy_s", "s"),
    ("apps.task.busy_s", "s"),
    ("apps.iperf.busy_s", "s"),
    ("apps.giant.busy_s", "s"),
    ("apps.scheduler.queries", "count"),
    ("apps.scheduler.probes", "count"),
    ("core.rank.path_cache_hit_frac", "frac"),
    ("core.rank.sssp_runs", "count"),
    ("core.collector.busy_s", "s"),
    ("core.collector.ns_per_probe", "ns"),
    ("core.collector.probes_accepted", "count"),
    ("core.collector.lost", "count"),
    ("core.collector.reordered", "count"),
    ("core.collector.duplicate", "count"),
    ("core.snapshot.busy_s", "s"),
    ("core.snapshot.us_per_epoch", "us"),
    ("core.snapshot.epochs", "count"),
    ("core.snapshot.incremental_frac", "frac"),
    ("core.publish_lag_p50_us", "us"),
    ("core.publish_lag_tail_us", "us"),
    ("core.shard.busy_s", "s"),
    ("core.shard.us_per_query", "us"),
    ("core.shard.queries", "count"),
    ("core.shard.balance", "frac"),
    ("core.shard.batch_p50_us", "us"),
    ("core.shard.batch_tail_us", "us"),
    ("workload.gen_s", "s"),
    ("bench.driver_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.reps", "count"),
    ("bench.setup_samples", "count"),
    ("bench.round_samples", "count"),
    ("bench.round_tail_pct", "pct"),
];

/// Set-ups timed on their own, in two batches: one after an untimed
/// warm-up set-up and before the repetitions, one after them, so the
/// median spans the whole run rather than one moment of the host. Each
/// batch makes at least [`MIN_SETUPS`] and more while they fit
/// [`SETUP_BUDGET_S`], so a set-up of a few hundred microseconds still
/// gets a steady median. Each repetition adds one more sample.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.25;

fn sample_setups(w: Workload, seed: u64, out: &mut Vec<f64>) {
    let (mut n, mut spent) = (0, 0.0);
    while n < MIN_SETUPS || spent < SETUP_BUDGET_S {
        let s = w.setup_only(seed);
        out.push(s);
        n += 1;
        spent += s;
    }
}

/// Digests of the default shapes, computed by the program's oracles.
const PINS: &str = include_str!("../pins.txt");

/// Engine counters every simulated workload reports.
pub fn engine_layers(l: &mut Layers, net: &NetStats, pool: PoolStats) {
    l.insert("netsim.events", net.events_processed as f64);
    l.insert("netsim.frames_forwarded", net.frames_forwarded as f64);
    l.insert("netsim.frames_delivered", net.frames_delivered as f64);
    l.insert("netsim.drops", net.total_drops() as f64);
    l.insert(
        "netsim.pool.alloc_frac",
        pool.allocs as f64 / pool.takes.max(1) as f64,
    );
}

/// Per-origin probe accounting of a collector.
pub fn origin_layers(l: &mut Layers, col: &IntCollector) {
    let mut t = [0u64; 4];
    for (_, st) in col.origin_stats_all() {
        t[0] += st.received;
        t[1] += st.lost;
        t[2] += st.reordered;
        t[3] += st.duplicate;
    }
    l.insert("core.collector.probes_accepted", t[0] as f64);
    l.insert("core.collector.lost", t[1] as f64);
    l.insert("core.collector.reordered", t[2] as f64);
    l.insert("core.collector.duplicate", t[3] as f64);
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    Testbed,
    Giant,
    Control(Shape),
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "testbed" => Workload::Testbed,
            "giant" => Workload::Giant,
            "control_serve" => Workload::Control(Shape::Serve),
            "control_ingest" => Workload::Control(Shape::Ingest),
            _ => return None,
        })
    }

    /// Repetitions that fill `seconds` on the reference host (2-core
    /// KVM guest, Xeon at 2.1 GHz), at least one. A fixed count per
    /// workload, not a deadline, so every run measures the same work.
    fn reps(self, seconds: f64) -> usize {
        let rep_s = match self {
            Workload::Testbed => 12.0,
            Workload::Giant => 5.4,
            Workload::Control(Shape::Serve) => 6.0,
            Workload::Control(Shape::Ingest) => 0.8,
        };
        ((seconds / rep_s) as usize).max(1)
    }

    fn setup_only(self, seed: u64) -> f64 {
        match self {
            Workload::Testbed => testbed::setup_only(seed),
            Workload::Giant => giant::setup_only(&giant::params(seed, giant::DOMAINS)),
            Workload::Control(shape) => control::setup_only(shape, seed),
        }
    }

    fn rep(self, seed: u64, traced: bool, tmp: &Path) -> Rep {
        match self {
            Workload::Testbed => testbed::rep(seed, traced),
            Workload::Giant => giant::rep(&giant::params(seed, giant::DOMAINS), traced, tmp),
            Workload::Control(shape) => control::rep(shape, seed, traced),
        }
    }

    fn oracle(self, seed: u64, tmp: &Path) -> Digest {
        match self {
            Workload::Testbed => testbed::oracle(seed),
            Workload::Giant => giant::oracle(&giant::params(seed, giant::DOMAINS), tmp),
            Workload::Control(Shape::Serve) => control::sustained_oracle(seed),
            Workload::Control(Shape::Ingest) => control::oracle(Shape::Ingest, seed),
        }
    }
}

struct Args {
    pin: bool,
    workload: String,
    seed: u64,
    seeds: (u64, u64),
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    let pin = it.peek().map(|a| a == "pin").unwrap_or(false);
    if pin {
        it.next();
    }
    let mut a = Args {
        pin,
        workload: String::new(),
        seed: 1,
        seeds: (1, 1),
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            "--seeds" => {
                let (lo, hi) = val.split_once('-').ok_or_else(bad)?;
                a.seeds = (
                    lo.parse().map_err(|_| bad())?,
                    hi.parse().map_err(|_| bad())?,
                );
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The pinned digest of `workload` at `seed`, if `pins.txt` has one.
fn pinned(workload: &str, seed: u64) -> Option<String> {
    PINS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == workload && s.parse() == Ok(seed) => {
                Some(d.to_string())
            }
            _ => None,
        }
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Run `n` repetitions of the workload.
fn phase(w: Workload, seed: u64, traced: bool, n: usize, tmp: &Path) -> Vec<Rep> {
    (0..n).map(|_| w.rep(seed, traced, tmp)).collect()
}

fn layer_median(reps: &[Rep], name: &str) -> f64 {
    let v: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.layers.get(name).copied())
        .collect();
    median(&v)
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(a: &Args, w: Workload, tmp: &Path) -> ExitCode {
    let seed = a.seed;
    w.setup_only(seed);
    let mut setups: Vec<f64> = Vec::new();
    sample_setups(w, seed, &mut setups);
    // A traced run splits its time between the untraced and the traced
    // pass, so it takes about as long as an untraced run.
    let n = w.reps(if a.trace { a.seconds / 2.0 } else { a.seconds });
    let plain = phase(w, seed, false, n, tmp);
    let rss = peak_rss_mb();
    sample_setups(w, seed, &mut setups);
    setups.extend(plain.iter().map(|r| r.setup_s));
    let traced = if a.trace {
        phase(w, seed, true, n, tmp)
    } else {
        Vec::new()
    };
    // The giant traced run also runs the same shape on one domain: the
    // parallel efficiency reference and the engine's self time.
    let reference = match (a.trace, w) {
        (true, Workload::Giant) => Some(giant::rep(&giant::params(seed, 1), true, tmp)),
        _ => None,
    };

    let all: Vec<&Rep> = plain.iter().chain(&traced).chain(&reference).collect();
    let mut problems: Vec<String> = Vec::new();
    let first = all[0].digest;
    if all.iter().any(|r| r.digest != first) {
        problems.push("digest differs between repetitions (traced, untraced or 1-domain)".into());
    }
    for r in &all {
        if let Err(e) = &r.check {
            problems.push(e.clone());
        }
    }
    let pin = pinned(&a.workload, seed);
    match &pin {
        Some(p) if *p != first.hex() => {
            problems.push(format!("digest {} differs from pinned {p}", first.hex()))
        }
        _ => {}
    }
    let correct = problems.is_empty();

    let reps: &[Rep] = if a.trace { &traced } else { &plain };
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = if correct {
        all.iter().map(|r| r.failed).sum()
    } else {
        attempted
    };
    // Round latency is summarized per repetition (one user-visible run of
    // the workload) and the medians across repetitions are reported, so a
    // burst of host noise in one repetition does not set the result.
    let per_rep: Vec<Summary> = plain.iter().map(|r| summarize(&r.rounds_us)).collect();
    let round = Summary {
        p50: median(&per_rep.iter().map(|s| s.p50).collect::<Vec<_>>()),
        tail: median(&per_rep.iter().map(|s| s.tail).collect::<Vec<_>>()),
        tail_pct: per_rep[0].tail_pct,
        samples: per_rep[0].samples,
    };
    let wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    let values: Vec<(&str, &str, f64)> = if !a.trace {
        let plain_attempted: u64 = plain.iter().map(|r| r.attempted).sum();
        let plain_failed: u64 = plain.iter().map(|r| r.failed).sum();
        let ok = if correct {
            1.0 - plain_failed as f64 / plain_attempted.max(1) as f64
        } else {
            0.0
        };
        let rate = median(&plain.iter().map(|r| r.work / r.wall_s).collect::<Vec<_>>());
        let v = [median(&setups), wall, rss, ok, rate, round.p50, round.tail];
        END_TO_END
            .iter()
            .zip(v)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    } else {
        let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "bench.trace_overhead_frac" => traced_wall / wall - 1.0,
                    "bench.reps" => reps.len() as f64,
                    "bench.setup_samples" => setups.len() as f64,
                    "bench.round_samples" => round.samples as f64,
                    "bench.round_tail_pct" => round.tail_pct,
                    "netsim.par.efficiency" => match &reference {
                        Some(r) => {
                            r.layers["netsim.par.run_s"]
                                / (2.0 * layer_median(reps, "netsim.par.run_s"))
                        }
                        None => 0.0,
                    },
                    "netsim.engine.self_s" | "netsim.engine.ns_per_event" => match &reference {
                        Some(r) => r.layers.get(name).copied().unwrap_or(0.0),
                        None => layer_median(reps, name),
                    },
                    _ => layer_median(reps, name),
                };
                (name, unit, v)
            })
            .collect()
    };

    eprintln!(
        "{} seed={seed} reps={} traced_reps={} setups={} digest={} pin={} correct={correct}",
        a.workload,
        plain.len(),
        traced.len(),
        setups.len(),
        first.hex(),
        pin.as_deref().unwrap_or("none"),
    );
    let walls: Vec<String> = all.iter().map(|r| format!("{:.4}", r.wall_s)).collect();
    eprintln!("  repetition wall_s: {}", walls.join(" "));
    for p in &problems {
        eprintln!("  FAILED CHECK: {p}");
    }
    eprintln!(
        "  round latency (median over repetitions): p50 {:.1} us, p{} {:.1} us of {} rounds each",
        round.p50, round.tail_pct, round.tail, round.samples
    );
    for (name, unit, v) in &values {
        eprintln!("  {name:<36} {v:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&values)
    );
    ExitCode::SUCCESS
}

fn pin(a: &Args, w: Workload, tmp: &Path) -> ExitCode {
    let mut ok = true;
    for seed in a.seeds.0..=a.seeds.1 {
        let oracle = w.oracle(seed, tmp).hex();
        let got = w.rep(seed, false, tmp);
        let mine = got.digest.hex();
        if mine != oracle || got.check.is_err() {
            eprintln!(
                "{} seed {seed}: workload {mine}, oracle {oracle}, check {:?}",
                a.workload, got.check
            );
            ok = false;
        }
        if got.failed > 0 {
            eprintln!(
                "{} seed {seed}: {} of {} operations failed",
                a.workload, got.failed, got.attempted
            );
        }
        println!("{} {seed} {oracle}", a.workload);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("INT_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run: INT_* variables select other code paths: {}",
            set.join(" ")
        );
        return ExitCode::from(2);
    }
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::parse(&a.workload) else {
        eprintln!("perfbench: unknown workload {:?}", a.workload);
        return ExitCode::from(2);
    };
    let tmp = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let t = Instant::now();
    let code = if a.pin {
        pin(&a, w, &tmp)
    } else {
        run(&a, w, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    eprintln!("perfbench: {:.1} s", t.elapsed().as_secs_f64());
    code
}
