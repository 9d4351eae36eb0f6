//! Priced rows: `SchedSnapshot` prices every candidate off one row per
//! `(epoch, now, requester)`, filled along the requester's shortest-path
//! tree. These tests pin the two ways that memo could drift from pricing
//! each path on its own: reusing a row across query times whose queue
//! evidence differs, and saturating arithmetic on long, expensive paths.

use int_edge_sched::core::rank::StaticDistances;
use int_edge_sched::core::{
    BandwidthEstimator, CoreConfig, DelayEstimator, NetNode, Policy, RankOutcome, SchedSnapshot,
    SchedulerCore, SnapshotScratch,
};
use int_edge_sched::packet::int::IntRecord;
use int_edge_sched::packet::ProbePayload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const MS: u64 = 1_000_000;

/// A probe from `origin` through `chain` (`(switch, max queue, link
/// latency ns)` per hop) that reaches the collector at `at_ns`, 1 ms
/// after the last switch stamped it.
fn probe(origin: u32, seq: u64, chain: &[(u32, u32, u64)], at_ns: u64) -> ProbePayload {
    let mut p = ProbePayload::new(origin, seq, 0);
    let n = chain.len() as u64;
    for (i, &(switch_id, q, link_latency_ns)) in chain.iter().enumerate() {
        p.int.push(IntRecord {
            switch_id,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: q,
            qlen_at_probe_pkts: q / 2,
            link_latency_ns,
            egress_ts_ns: at_ns - (n - i as u64) * MS,
        });
    }
    p
}

fn snapshot_of(core: &SchedulerCore, at_ns: u64) -> SchedSnapshot {
    SchedSnapshot::build(
        core.collector(),
        &core.config_arc(),
        &core.distances_arc(),
        1,
        at_ns,
    )
}

fn rank(
    snap: &SchedSnapshot,
    scratch: &mut SnapshotScratch,
    requester: u32,
    now: u64,
) -> RankOutcome {
    snap.rank_detailed(
        scratch,
        requester,
        Policy::IntDelay,
        now,
        &mut SmallRng::seed_from_u64(0),
    )
}

/// One epoch, three query times, one reused scratch: each `now` must
/// reprice the row. Between 3.0 s and 3.2 s server 1's windowed queue
/// maximum drops from 20 to 4 (its 2.5 s harvest leaves the 500 ms
/// window); by 6.0 s both servers' harvests are past the 3 s staleness
/// horizon and read as empty queues. A row keyed on the epoch alone
/// would keep answering with the 3.0 s prices.
#[test]
fn priced_row_is_repriced_when_query_time_moves_within_an_epoch() {
    let cfg = CoreConfig {
        origin_silence_ns: 60_000 * MS,
        ..CoreConfig::default()
    };
    let mut core = SchedulerCore::new(6, cfg, StaticDistances::new(), 1);
    let col = core.collector_mut();
    col.ingest(
        &probe(1, 1, &[(10, 20, 10 * MS), (11, 0, 10 * MS)], 2_500 * MS),
        2_500 * MS,
    );
    col.ingest(
        &probe(1, 2, &[(10, 4, 10 * MS), (11, 0, 10 * MS)], 2_900 * MS),
        2_900 * MS,
    );
    col.ingest(
        &probe(2, 1, &[(12, 15, 10 * MS), (11, 0, 10 * MS)], 2_900 * MS),
        2_900 * MS,
    );
    let snap = snapshot_of(&core, 2_900 * MS);

    let mut reused = SnapshotScratch::new();
    let mut seen = Vec::new();
    for now in [3_000 * MS, 3_200 * MS, 6_000 * MS] {
        let got = rank(&snap, &mut reused, 6, now);
        assert_eq!(
            got,
            rank(&snap, &mut SnapshotScratch::new(), 6, now),
            "at {now} ns"
        );
        let mut delays: Vec<(u32, u64)> = got
            .ranked
            .iter()
            .map(|s| (s.host, s.est_delay_ns))
            .collect();
        delays.sort_unstable();
        seen.push(delays);
    }
    assert_ne!(seen[0][0], seen[1][0], "server 1's window maximum moved");
    assert_eq!(
        seen[0][1], seen[1][1],
        "server 2's harvest is still in its window"
    );
    assert_ne!(seen[1], seen[2], "both harvests went stale");
    assert_eq!(
        seen[2][0].1, seen[2][1].1,
        "stale queues price the same equal-cost paths"
    );

    let s = reused.stats();
    assert_eq!((s.sssp_runs, s.cache_misses, s.cache_hits), (1, 3, 0));
}

/// A 9-switch chain whose link estimates sum to just under `u64::MAX`,
/// so Dijkstra still reaches the far host but the queue penalty pushes
/// the delay past the ceiling. The row's running sums must saturate
/// exactly as the reference estimator does and report `u64::MAX - 1`,
/// which keeps the host ranked rather than excluded as pathless.
#[test]
fn saturated_long_path_prices_at_the_ceiling_like_the_reference() {
    let mut core = SchedulerCore::new(6, CoreConfig::default(), StaticDistances::new(), 1);
    let chain: Vec<(u32, u32, u64)> = (10u32..19)
        .map(|sw| (sw, 100, u64::MAX / 9 - 1_000 * MS))
        .collect();
    core.collector_mut()
        .ingest(&probe(1, 1, &chain, 32 * MS), 32 * MS);
    let now = 33 * MS;
    let snap = snapshot_of(&core, 32 * MS);

    let cfg = core.config();
    let map = core.collector().map();
    let (de, be) = (
        DelayEstimator::new(cfg.clone()),
        BandwidthEstimator::new(cfg.clone()),
    );
    for (from, to) in [(6u32, 1u32), (1, 6)] {
        let path = map
            .path(cfg, NetNode::Host(from), NetNode::Host(to))
            .expect("reachable");
        assert_eq!(path.len(), 11, "9 switches between the hosts");
        let want = de.estimate_along(map, &path, now);
        assert_eq!(want.total_ns(), u64::MAX, "the reference saturates");
        assert!(
            want.link_delay_ns < u64::MAX,
            "links alone stay below the ceiling"
        );

        let got = rank(&snap, &mut SnapshotScratch::new(), from, now);
        assert!(got.excluded.is_empty(), "{from}->{to}: {got:?}");
        assert_eq!(got.ranked.len(), 1);
        assert_eq!(got.ranked[0].host, to);
        assert_eq!(got.ranked[0].est_delay_ns, u64::MAX - 1);
        assert_eq!(
            got.ranked[0].est_bandwidth_bps,
            be.estimate_along(map, &path, now)
        );
    }
}
