//! `control_serve` and `control_ingest`: the scheduler control plane
//! without a simulator, driven closed loop — round r+1's probes are
//! handed over only after round r's `serve_batch` has returned.
//!
//! Each 100 ms round: every live host's probe (seeded LCG queue and
//! latency churn) is drained into the collector, `advance` evicts stale
//! telemetry and publishes an epoch, and the round's queries are served
//! by a [`ShardedScheduler`] with [`SHARDS`] shards. A fault window over
//! rounds `[R/4, R/2)` silences every eighth host.
//!
//! * `control_serve` is the `repro sustained` shape (64 switches, 128
//!   hosts, `sustained`'s probe and query generators, at scale 0.25),
//!   read-heavy. Its digest equals `sustained::run_oracle`'s artifact
//!   digest.
//! * `control_ingest` is the 512-switch / 960-host Clos probe shape of
//!   the `publish_throughput` / `ingest_throughput` micro-benches with a
//!   small query batch every fourth round, write-heavy. The fault window outlasts
//!   the eviction horizon, so evictions and returns force full rebuilds
//!   between runs of incremental publishes. Its oracle is the same
//!   sequential `SchedulerCore` replay `sustained::run_oracle` performs.

use crate::digest::{fold_outcome, Digest};
use crate::stats::summarize;
use crate::{Layers, Rep};
use int_core::rank::StaticDistances;
use int_core::shard::{RankQuery, ShardedScheduler};
use int_core::{CoreConfig, Policy, RankOutcome, SchedulerCore};
use int_experiments::sustained;
use int_obs::Labels;
use int_packet::int::IntRecord;
use int_packet::ProbePayload;
use std::sync::Arc;
use std::time::Instant;

/// Read shards (one per core of the reference host).
pub const SHARDS: usize = 2;
/// `control_serve` is `repro sustained` at this scale.
const SERVE_SCALE: f64 = 0.25;
/// Round cadence on the collector clock, ns.
const ROUND_NS: u64 = 100_000_000;

/// The two control-plane workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Serve,
    Ingest,
}

impl Shape {
    fn hosts(self) -> u32 {
        match self {
            Shape::Serve => sustained::HOSTS,
            Shape::Ingest => 960,
        }
    }

    fn scheduler(self) -> u32 {
        match self {
            Shape::Serve => sustained::SCHEDULER,
            Shape::Ingest => 10_000,
        }
    }

    /// Rounds per repetition: `repro sustained --scale 0.25` (64) for
    /// serving; for ingest, enough that the fault window (`[R/4, R/2)`,
    /// 6 s) outlasts the 5 s eviction horizon.
    pub fn rounds(self) -> usize {
        match self {
            Shape::Serve => sustained::shape(SERVE_SCALE).0,
            Shape::Ingest => 240,
        }
    }

    /// Queries per query round: `repro sustained --scale 0.25` (1024)
    /// for serving; one per shard for ingest.
    pub fn qpr(self) -> usize {
        match self {
            Shape::Serve => sustained::shape(SERVE_SCALE).1,
            Shape::Ingest => SHARDS,
        }
    }

    /// Does `round` admit queries? Serving: every round. Ingest: every
    /// fourth — one query prices all 959 candidates (about 2 ms on the
    /// reference host, as long as the round's ingest and publish
    /// together), so a batch every round would make serving, not
    /// ingest, the larger share.
    fn queries_at(self, round: usize) -> bool {
        match self {
            Shape::Serve => true,
            Shape::Ingest => round.is_multiple_of(4),
        }
    }

    /// The switch chain host `h` probes through.
    fn chain(self, h: u32) -> [u32; 4] {
        match self {
            // `sustained`: 32 leaf, 16 aggregation, 8 spine, 8 core.
            Shape::Serve => [100 + h % 32, 200 + h % 16, 300 + h % 8, 400 + (h / 16) % 8],
            // The micro-benches' 512-switch Clos: 256 leaf, 128 agg,
            // 64 spine, 64 core.
            Shape::Ingest => [1000 + h % 256, 2000 + h % 128, 3000 + h % 64, 4000 + h % 64],
        }
    }

    /// Leaf count (hosts on one leaf are 2 hops apart, others 4).
    fn leaves(self) -> u32 {
        match self {
            Shape::Serve => 32,
            Shape::Ingest => 256,
        }
    }

    fn distances(self) -> StaticDistances {
        let mut d = StaticDistances::new();
        let (n, leaves) = (self.hosts(), self.leaves());
        for a in 0..n {
            for b in (a + 1)..n {
                d.set(a, b, if a % leaves == b % leaves { 2 } else { 4 });
            }
        }
        d
    }
}

/// `sustained`'s scenario config: a 5 s eviction horizon, so a fault
/// window longer than that evicts dead telemetry.
fn config() -> CoreConfig {
    CoreConfig {
        eviction_horizon_ns: 5_000_000_000,
        ..CoreConfig::default()
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// Is `h` silenced at `round`?
fn faulted(seed: u64, rounds: usize, round: usize, h: u32) -> bool {
    (rounds / 4..rounds / 2).contains(&round) && h % 8 == (seed % 8) as u32
}

/// Rewrite `p` in place as host `h`'s probe for `round` (the byte-for-byte
/// payload `sustained`'s generator builds, without allocating).
fn fill_probe(shape: Shape, p: &mut ProbePayload, seed: u64, round: usize, h: u32, now_ns: u64) {
    p.origin_node = h;
    p.seq = round as u64;
    p.sent_ts_ns = 0;
    p.int.records.clear();
    let mut st = seed ^ ((round as u64) << 32) ^ ((h as u64) << 8) ^ 0x5DEE_CE66;
    lcg(&mut st);
    for (i, sw) in shape.chain(h).into_iter().enumerate() {
        let maxq = (lcg(&mut st) % 40) as u32;
        p.int.push(IntRecord {
            switch_id: sw,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: maxq / 2,
            link_latency_ns: 5_000_000 + lcg(&mut st) % 10_000_000,
            egress_ts_ns: now_ns.saturating_sub((4 - i as u64) * 50_000),
        });
    }
}

/// The round's live probes, written into the front of `buf`; returns
/// how many.
fn fill_round(
    shape: Shape,
    buf: &mut [ProbePayload],
    seed: u64,
    round: usize,
    now_ns: u64,
) -> usize {
    let mut k = 0;
    for h in 0..shape.hosts() {
        if !faulted(seed, shape.rounds(), round, h) {
            fill_probe(shape, &mut buf[k], seed, round, h, now_ns);
            k += 1;
        }
    }
    k
}

/// The round's queries: requesters stride over the host space and the
/// three deterministic policies cycle. `control_serve` is exactly
/// `sustained`'s mix; `control_ingest` moves a silenced requester to
/// its live neighbour.
fn fill_queries(shape: Shape, seed: u64, round: usize, now_ns: u64, out: &mut Vec<RankQuery>) {
    out.clear();
    if !shape.queries_at(round) {
        return;
    }
    let n = shape.hosts() as usize;
    for i in 0..shape.qpr() {
        let mut requester = ((round * 31 + i * 7) % n) as u32;
        if shape == Shape::Ingest && faulted(seed, shape.rounds(), round, requester) {
            requester = (requester + 1) % n as u32;
        }
        // `sustained` cycles policies within a round; with two queries
        // per round the ingest mix cycles over the whole run instead.
        let k = if shape == Shape::Ingest {
            round * shape.qpr() + i
        } else {
            i
        };
        let policy = match k % 3 {
            0 => Policy::IntDelay,
            1 => Policy::IntBandwidth,
            _ => Policy::Nearest,
        };
        out.push(RankQuery {
            requester,
            policy,
            now_ns,
        });
    }
}

fn build(shape: Shape, seed: u64) -> ShardedScheduler {
    let mut s = ShardedScheduler::new(
        shape.scheduler(),
        Arc::new(config()),
        shape.distances(),
        seed,
        SHARDS,
    );
    for h in 0..shape.hosts() {
        s.core_mut().register_host(h);
    }
    s
}

/// Build the control plane and drop it; returns the set-up time.
pub fn setup_only(shape: Shape, seed: u64) -> f64 {
    let t = Instant::now();
    let s = build(shape, seed);
    let secs = t.elapsed().as_secs_f64();
    drop(s);
    secs
}

fn blank_probes(n: u32) -> Vec<ProbePayload> {
    (0..n)
        .map(|_| {
            let mut p = ProbePayload::new(0, 0, 0);
            p.int.records.reserve(4);
            p
        })
        .collect()
}

/// One repetition: set-up, then every round closed loop.
pub fn rep(shape: Shape, seed: u64, traced: bool) -> Rep {
    let rounds = shape.rounds();
    let mut probes = blank_probes(shape.hosts());
    let mut queries = Vec::with_capacity(shape.qpr());
    let mut outcomes: Vec<RankOutcome> = Vec::with_capacity(shape.qpr());

    let t_setup = Instant::now();
    let mut sched = build(shape, seed);
    let setup_s = t_setup.elapsed().as_secs_f64();
    sched.metrics_mut().set_enabled(traced);

    let mut d = Digest::default();
    let (mut ingest_s, mut publish_s, mut serve_s, mut driver_s) = (0.0, 0.0, 0.0, 0.0);
    let mut rounds_us = Vec::with_capacity(rounds);
    let mut lag_us = Vec::with_capacity(rounds);
    let mut batch_us = Vec::with_capacity(rounds);
    let (mut probes_in, mut answered, mut total) = (0u64, 0u64, 0u64);

    let t_run = Instant::now();
    for round in 0..rounds {
        let now = (round as u64 + 1) * ROUND_NS;
        let t_drv = Instant::now();
        let live = fill_round(shape, &mut probes, seed, round, now);
        fill_queries(shape, seed, round, now, &mut queries);
        driver_s += t_drv.elapsed().as_secs_f64();

        let t0 = Instant::now();
        sched
            .core_mut()
            .collector_mut()
            .ingest_batch(&probes[..live], now);
        let t1 = Instant::now();
        sched.advance(now);
        let t2 = Instant::now();
        sched.serve_batch(&queries, &mut outcomes);
        let t3 = Instant::now();
        ingest_s += (t1 - t0).as_secs_f64();
        publish_s += (t2 - t1).as_secs_f64();
        serve_s += (t3 - t2).as_secs_f64();
        rounds_us.push((t3 - t0).as_secs_f64() * 1e6);
        lag_us.push((t2 - t0).as_secs_f64() * 1e6);
        if !queries.is_empty() {
            batch_us.push((t3 - t2).as_secs_f64() * 1e6);
        }
        probes_in += live as u64;

        let t_drv = Instant::now();
        for (q, o) in queries.iter().zip(&outcomes) {
            fold_outcome(&mut d, q.requester, q.policy, o);
            answered += !o.ranked.is_empty() as u64;
            total += 1;
        }
        driver_s += t_drv.elapsed().as_secs_f64();
    }
    let wall_s = t_run.elapsed().as_secs_f64();

    let col = sched.core().collector();
    let check = if col.probes_accepted() != probes_in {
        Err(format!(
            "{probes_in} probes handed over, {} accepted",
            col.probes_accepted()
        ))
    } else if sched.queries_total() != total {
        Err(format!(
            "{total} queries served, {} admitted",
            sched.queries_total()
        ))
    } else {
        Ok(())
    };

    let mut layers = Layers::new();
    layers.insert("bench.driver_s", driver_s);
    layers.insert("core.collector.busy_s", ingest_s);
    layers.insert(
        "core.collector.ns_per_probe",
        ingest_s * 1e9 / probes_in.max(1) as f64,
    );
    crate::origin_layers(&mut layers, col);
    let epochs = sched.epoch();
    let ps = sched.publish_stats();
    layers.insert("core.snapshot.busy_s", publish_s);
    layers.insert(
        "core.snapshot.us_per_epoch",
        publish_s * 1e6 / epochs.max(1) as f64,
    );
    layers.insert("core.snapshot.epochs", epochs as f64);
    let builds = ps.full_builds + ps.incremental_builds;
    layers.insert(
        "core.snapshot.incremental_frac",
        ps.incremental_builds as f64 / builds.max(1) as f64,
    );
    layers.insert("core.shard.busy_s", serve_s);
    layers.insert(
        "core.shard.us_per_query",
        serve_s * 1e6 / total.max(1) as f64,
    );
    layers.insert("core.shard.queries", total as f64);
    if traced {
        let served: Vec<i64> = (0..sched.shard_count())
            .filter_map(|i| {
                sched
                    .metrics()
                    .gauge("shard_queries_served", Labels::one("shard", i as u64))
            })
            .collect();
        let (lo, hi) = (served.iter().min(), served.iter().max());
        if let (Some(&lo), Some(&hi)) = (lo, hi) {
            layers.insert(
                "core.shard.balance",
                if hi > 0 { lo as f64 / hi as f64 } else { 0.0 },
            );
        }
    }
    let lag = summarize(&lag_us);
    layers.insert("core.publish_lag_p50_us", lag.p50);
    layers.insert("core.publish_lag_tail_us", lag.tail);
    let batch = summarize(&batch_us);
    layers.insert("core.shard.batch_p50_us", batch.p50);
    layers.insert("core.shard.batch_tail_us", batch.tail);

    Rep {
        setup_s,
        wall_s,
        rounds_us,
        work: match shape {
            Shape::Serve => total as f64,
            Shape::Ingest => probes_in as f64,
        },
        attempted: total,
        failed: total - answered,
        digest: d,
        check,
        layers,
    }
}

/// The sequential oracle: a plain [`SchedulerCore`] ingests every probe
/// one at a time and answers every query in admission order, exactly as
/// `sustained::run_oracle` does.
pub fn oracle(shape: Shape, seed: u64) -> Digest {
    let mut core = SchedulerCore::new(shape.scheduler(), config(), shape.distances(), seed);
    for h in 0..shape.hosts() {
        core.register_host(h);
    }
    let mut probes = blank_probes(shape.hosts());
    let mut queries = Vec::new();
    let mut outcome = RankOutcome::default();
    let mut d = Digest::default();
    for round in 0..shape.rounds() {
        let now = (round as u64 + 1) * ROUND_NS;
        let live = fill_round(shape, &mut probes, seed, round, now);
        for p in &probes[..live] {
            core.collector_mut().ingest(p, now);
        }
        fill_queries(shape, seed, round, now, &mut queries);
        for q in &queries {
            core.rank_detailed_into_with(q.requester, q.policy, q.now_ns, &mut outcome);
            fold_outcome(&mut d, q.requester, q.policy, &outcome);
        }
    }
    d
}

/// `control_serve`'s oracle: `sustained::run_oracle` itself.
pub fn sustained_oracle(seed: u64) -> Digest {
    let hex = sustained::run_oracle(seed, Shape::Serve.rounds(), Shape::Serve.qpr()).digest;
    Digest(u64::from_str_radix(&hex, 16).expect("sustained digest is 16 hex digits"))
}
