//! Property-based tests on the scheduler core: ranking invariants,
//! estimator monotonicity, utilization-curve behaviour, and map learning.
//!
//! The two churn oracles at the bottom are the independent check on the
//! one shipped ranking path: a long-lived [`SchedulerCore`] (snapshot
//! publication at query time, per-epoch path caches, shared SSSP,
//! masked k-path runs) must agree with the reference
//! [`NetworkMap::path`]/[`NetworkMap::k_paths`] routes and the reference
//! estimators after every mutation.

use int_edge_sched::core::config::{HopSignal, UtilPoint};
use int_edge_sched::core::rank::StaticDistances;
use int_edge_sched::core::{
    BandwidthEstimator, CoreConfig, DelayEstimator, ExcludeReason, NetNode, NetworkMap, Policy,
    RankOutcome, RankedServer, SchedulerCore,
};
use int_edge_sched::packet::int::IntRecord;
use int_edge_sched::packet::ProbePayload;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn rec(switch_id: u32, maxq: u32, ts_ms: u64) -> IntRecord {
    IntRecord {
        switch_id,
        ingress_port: 0,
        egress_port: 1,
        max_qlen_pkts: maxq,
        qlen_at_probe_pkts: maxq / 2,
        link_latency_ns: 10_000_000,
        egress_ts_ns: ts_ms * 1_000_000,
    }
}

/// Star topology: host `o` reaches the scheduler (host 100) via its own
/// dedicated switch `10 + o` with queue `q`.
fn star_probes(qlens: &[u32]) -> Vec<ProbePayload> {
    qlens
        .iter()
        .enumerate()
        .map(|(o, &q)| {
            let mut p = ProbePayload::new(o as u32, 1, 0);
            p.int.push(rec(10 + o as u32, q, 11));
            p
        })
        .collect()
}

fn star_map(qlens: &[u32]) -> NetworkMap {
    let mut m = NetworkMap::new();
    for p in star_probes(qlens) {
        m.apply_probe(&p, 100, 30_000_000);
    }
    m
}

/// A scheduler on host 100 that learned the star topology.
fn star_core(qlens: &[u32]) -> SchedulerCore {
    let mut core = SchedulerCore::new(100, CoreConfig::default(), StaticDistances::new(), 1);
    core.collector_mut().ingest_batch(&star_probes(qlens), 30_000_000);
    core
}

const SCHED: u32 = 100;
const EVICT_HORIZON_NS: u64 = 350_000_000;

/// One churn op: (origin, route shape, link latency ms, queue, clock
/// step ms, op kind).
type ChurnOp = (u32, u32, u64, u32, u64, u8);

/// Apply a churn op at `now_ns` (its clock step already taken): a probe
/// update (varying routes, latencies, and queues) or, for kind 7, a
/// stale-link eviction (a cut). Returns the probe origin when the op was
/// a probe.
fn apply_churn_op(
    core: &mut SchedulerCore,
    seq: usize,
    (origin, route, lat_ms, qlen, _, kind): ChurnOp,
    now_ns: u64,
) -> Option<u32> {
    if kind == 7 {
        core.collector_mut().map_mut().evict_stale(now_ns, EVICT_HORIZON_NS);
        return None;
    }
    // Three route shapes per origin: a dedicated star switch, a detour
    // over the shared spine 20, and a cross route through the
    // neighbour's star switch — so ops overlap on links and metric
    // updates genuinely reroute traffic.
    let chain: Vec<u32> = match route {
        0 => vec![10 + origin],
        1 => vec![10 + origin, 20],
        _ => vec![20, 10 + (origin + 1) % 5],
    };
    let mut p = ProbePayload::new(origin, seq as u64 + 1, 0);
    let last = chain.len() as u64 - 1;
    for (i, sw) in chain.iter().enumerate() {
        p.int.push(IntRecord {
            switch_id: *sw,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: qlen,
            qlen_at_probe_pkts: qlen / 2,
            link_latency_ns: lat_ms * 1_000_000,
            egress_ts_ns: now_ns - (last - i as u64) * lat_ms * 1_000_000,
        });
    }
    core.collector_mut().ingest(&p, now_ns);
    Some(origin)
}

/// The documented ranking rule for `SCHED`'s candidates `0..5`, built
/// from independent per-candidate estimates (`price`): origins silent
/// beyond the horizon are excluded first, then pathless hosts; if no
/// candidate has a path and none is silent, everyone is ranked (warm-up).
/// Sort keys: delay then host; bandwidth descending, then delay, then
/// host; Nearest by static hops (all unknown here), then host.
fn oracle_outcome(
    policy: Policy,
    silent: &[u32],
    price: impl Fn(u32) -> RankedServer,
) -> RankOutcome {
    let mut out = RankOutcome::default();
    for h in 0..5u32 {
        let est = price(h);
        if policy == Policy::Nearest {
            out.ranked.push(est);
        } else if silent.contains(&h) {
            out.excluded.push((h, ExcludeReason::OriginSilent));
        } else if est.est_delay_ns == u64::MAX {
            out.excluded.push((h, ExcludeReason::NoFreshPath));
        } else {
            out.ranked.push(est);
        }
    }
    if out.ranked.is_empty() && out.excluded.iter().all(|e| e.1 == ExcludeReason::NoFreshPath) {
        out.ranked = out.excluded.drain(..).map(|(h, _)| price(h)).collect();
    }
    match policy {
        Policy::IntDelay => out.ranked.sort_by_key(|s| (s.est_delay_ns, s.host)),
        Policy::IntBandwidth => out
            .ranked
            .sort_by_key(|s| (std::cmp::Reverse(s.est_bandwidth_bps), s.est_delay_ns, s.host)),
        _ => out.ranked.sort_by_key(|s| s.host),
    }
    out
}

/// Origins whose last probe is older than the silence horizon.
fn silent_at(last_rx: &BTreeMap<u32, u64>, now_ns: u64, horizon_ns: u64) -> Vec<u32> {
    last_rx.iter().filter(|(_, &t)| now_ns - t > horizon_ns).map(|(&o, _)| o).collect()
}

/// A scheduler on `SCHED` with candidate hosts `0..5` pre-registered.
fn churn_core(cfg: CoreConfig) -> SchedulerCore {
    let mut core = SchedulerCore::new(SCHED, cfg, StaticDistances::new(), 1);
    for h in 0..5 {
        core.register_host(h);
    }
    core
}

proptest! {
    /// Delay ranking orders candidates by non-decreasing estimate, and the
    /// result is a permutation of the input.
    #[test]
    fn delay_ranking_is_sorted_permutation(qlens in proptest::collection::vec(0u32..64, 2..8)) {
        let mut core = star_core(&qlens);
        let candidates: Vec<u32> = (0..qlens.len() as u32).collect();
        let ranked = core.rank_with(100, Policy::IntDelay, 30_000_000);

        prop_assert_eq!(ranked.len(), candidates.len());
        let mut hosts: Vec<u32> = ranked.iter().map(|s| s.host).collect();
        hosts.sort();
        prop_assert_eq!(hosts, candidates);
        for w in ranked.windows(2) {
            prop_assert!(w[0].est_delay_ns <= w[1].est_delay_ns);
        }
    }

    /// Bandwidth ranking is non-increasing in estimated bandwidth.
    #[test]
    fn bandwidth_ranking_is_sorted(qlens in proptest::collection::vec(0u32..64, 2..8)) {
        let mut core = star_core(&qlens);
        let ranked = core.rank_with(100, Policy::IntBandwidth, 30_000_000);
        prop_assert_eq!(ranked.len(), qlens.len());
        for w in ranked.windows(2) {
            prop_assert!(w[0].est_bandwidth_bps >= w[1].est_bandwidth_bps);
        }
    }

    /// More queueing on a server's path can never make its delay estimate
    /// smaller, nor its bandwidth estimate larger.
    #[test]
    fn estimates_monotone_in_queue(q1 in 0u32..60, bump in 1u32..30) {
        let low = star_map(&[q1]);
        let high = star_map(&[q1 + bump]);
        let cfg = CoreConfig::default();
        let de = DelayEstimator::new(cfg.clone());
        let be = BandwidthEstimator::new(cfg);
        let now = 30_000_000;

        let d_low = de.estimate(&low, NetNode::Host(100), NetNode::Host(0), now).unwrap();
        let d_high = de.estimate(&high, NetNode::Host(100), NetNode::Host(0), now).unwrap();
        prop_assert!(d_high.total_ns() >= d_low.total_ns());

        let b_low = be.estimate(&low, NetNode::Host(100), NetNode::Host(0), now).unwrap();
        let b_high = be.estimate(&high, NetNode::Host(100), NetNode::Host(0), now).unwrap();
        prop_assert!(b_high <= b_low);
    }

    /// The utilization interpolation is monotone and bounded for any
    /// well-formed (sorted, clamped) curve.
    #[test]
    fn util_curve_monotone_bounded(
        raw in proptest::collection::vec((0u32..200, 0.0f64..=1.0), 2..8),
    ) {
        let mut pts: Vec<UtilPoint> =
            raw.into_iter().map(|(qlen, util)| UtilPoint { qlen, util }).collect();
        pts.sort_by_key(|p| p.qlen);
        pts.dedup_by_key(|p| p.qlen);
        // Make utils non-decreasing so the curve is well-formed.
        for i in 1..pts.len() {
            if pts[i].util < pts[i - 1].util {
                pts[i].util = pts[i - 1].util;
            }
        }
        let cfg = CoreConfig { util_curve: pts, ..CoreConfig::default() };
        let mut prev = -1.0;
        for q in 0..=220 {
            let u = cfg.utilization_for_qlen(q);
            prop_assert!((0.0..=1.0).contains(&u), "bounded at q={q}: {u}");
            prop_assert!(u >= prev - 1e-12, "monotone at q={q}");
            prev = u;
        }
    }

    /// Available bandwidth never exceeds capacity and hits the endpoints.
    #[test]
    fn available_bw_bounded(q in any::<u32>(), cap in 1_000u64..1_000_000_000) {
        let cfg = CoreConfig { link_capacity_bps: cap, ..CoreConfig::default() };
        let bw = cfg.available_bw_for_qlen(q);
        prop_assert!(bw <= cap);
    }

    /// Learning is idempotent with respect to topology: re-applying the
    /// same probe changes no adjacency, only freshness.
    #[test]
    fn reapplying_probe_is_topology_idempotent(qlens in proptest::collection::vec(0u32..64, 1..6)) {
        let mut m = star_map(&qlens);
        let edges_before: Vec<_> = m.edges().map(|(a, b, _)| (a, b)).collect();
        let mut p = ProbePayload::new(0, 2, 0);
        p.int.push(rec(10, qlens[0], 11));
        m.apply_probe(&p, 100, 31_000_000);
        let edges_after: Vec<_> = m.edges().map(|(a, b, _)| (a, b)).collect();
        prop_assert_eq!(edges_before, edges_after);
    }

    /// The instantaneous-queue ablation signal is also monotone in the
    /// reported instantaneous value.
    #[test]
    fn instantaneous_signal_used_when_configured(q in 2u32..60) {
        let mut m = NetworkMap::new();
        let mut p = ProbePayload::new(0, 1, 0);
        // max = q, instantaneous = q/2 (from rec()).
        p.int.push(rec(10, q, 11));
        m.apply_probe(&p, 100, 30_000_000);

        let max_cfg = CoreConfig::default();
        let inst_cfg = CoreConfig { hop_signal: HopSignal::InstantaneousQueue, ..CoreConfig::default() };
        let edge_q_max =
            m.effective_qlen(&max_cfg, NetNode::Switch(10), NetNode::Host(100), 30_000_000);
        let edge_q_inst =
            m.effective_qlen(&inst_cfg, NetNode::Switch(10), NetNode::Host(100), 30_000_000);
        prop_assert_eq!(edge_q_max, q);
        prop_assert_eq!(edge_q_inst, q / 2);
    }

    /// Random ranking with the same seed is reproducible for any candidate
    /// set.
    #[test]
    fn random_ranking_reproducible(candidates in proptest::collection::btree_set(0u32..50, 1..10), seed in any::<u64>()) {
        let order = |s| {
            let mut core = SchedulerCore::new(99, CoreConfig::default(), StaticDistances::new(), s);
            for &c in &candidates {
                core.register_host(c);
            }
            core.rank_with(99, Policy::Random, 0).iter().map(|x| x.host).collect::<Vec<_>>()
        };
        prop_assert_eq!(order(seed), order(seed));
    }

    /// N Random queries on one scheduler are N successive shuffles of the
    /// host-order candidate list, drawn from one `SmallRng` stream seeded
    /// with the scheduler's seed — whatever the map learned in between.
    #[test]
    fn random_queries_are_seeded_shuffles_of_host_order(
        candidates in proptest::collection::btree_set(0u32..50, 1..10),
        qlens in proptest::collection::vec(0u32..64, 0..4),
        queries in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut core = SchedulerCore::new(99, CoreConfig::default(), StaticDistances::new(), seed);
        for &c in &candidates {
            core.register_host(c);
        }
        // Star probes from hosts 0..qlens.len() terminate at host 99.
        core.collector_mut().ingest_batch(&star_probes(&qlens), 30_000_000);
        let hosts: Vec<u32> = core.candidates_for(99);
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..queries {
            let got: Vec<u32> = core
                .rank_with(99, Policy::Random, 30_000_000 + i as u64)
                .iter()
                .map(|s| s.host)
                .collect();
            let mut want = hosts.clone();
            want.shuffle(&mut rng);
            prop_assert_eq!(got, want, "query {}", i);
        }
    }

    /// Oracle test for the ranking path: a random op sequence of probe
    /// updates (varying routes, latencies, and queues) interleaved with
    /// stale-link evictions (cuts) drives one long-lived
    /// [`SchedulerCore`] — so snapshot publication, per-epoch path caches
    /// and the shared SSSP must invalidate correctly across every
    /// mutation — and after each op its learned paths are byte-identical
    /// to the reference [`NetworkMap::path`], and its rankings (exclusions
    /// and warm-up fallback included) match an oracle recomputed from the
    /// point-to-point estimators.
    #[test]
    fn indexed_engine_matches_oracle_under_churn(
        ops in proptest::collection::vec(
            // (origin, route shape, link latency ms, queue, clock step ms, op kind)
            (0u32..5, 0u32..3, 1u64..50, 0u32..40, 1u64..250, 0u8..8),
            1..32,
        ),
    ) {
        let cfg = CoreConfig::default();
        let de = DelayEstimator::new(cfg.clone());
        let be = BandwidthEstimator::new(cfg.clone());
        let mut core = churn_core(cfg.clone());
        let mut last_rx = BTreeMap::new();
        let mut now_ns: u64 = 1_000_000_000;
        let hosts: Vec<u32> = (0..5).chain([SCHED]).collect();

        for (seq, &op) in ops.iter().enumerate() {
            now_ns += op.4 * 1_000_000;
            if let Some(origin) = apply_churn_op(&mut core, seq, op, now_ns) {
                last_rx.insert(origin, now_ns);
            }

            // Paths: the scheduler vs the reference Dijkstra, every pair.
            for &from in &hosts {
                for &to in &hosts {
                    let got = core.learned_path(from, to, now_ns);
                    let m = core.collector().map();
                    let oracle = m.path(&cfg, NetNode::Host(from), NetNode::Host(to));
                    prop_assert_eq!(got, oracle, "path {}->{} after op {}", from, to, seq);
                }
            }

            // Rankings: the scheduler vs the documented rule over
            // independent point-to-point estimates.
            let silent = silent_at(&last_rx, now_ns, cfg.origin_silence_ns);
            for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
                let det = core.rank_detailed_with(SCHED, policy, now_ns);
                let plain = core.rank_with(SCHED, policy, now_ns);
                let m = core.collector().map();
                let want = oracle_outcome(policy, &silent, |h| {
                    let d = de.estimate(m, NetNode::Host(SCHED), NetNode::Host(h), now_ns);
                    let b = be.estimate(m, NetNode::Host(SCHED), NetNode::Host(h), now_ns);
                    match (d, b) {
                        (Some(d), Some(b)) => RankedServer {
                            host: h,
                            est_delay_ns: d.total_ns(),
                            est_bandwidth_bps: b,
                        },
                        _ => RankedServer { host: h, est_delay_ns: u64::MAX, est_bandwidth_bps: 0 },
                    }
                });
                prop_assert_eq!(&det, &want, "{:?} after op {}", policy, seq);
                prop_assert_eq!(&plain, &want.ranked, "plain {:?} after op {}", policy, seq);
            }
        }
    }

    /// Oracle test for k-path ranking (`k_paths = 3`): the same churn
    /// recipe drives one long-lived [`SchedulerCore`], and after every op
    /// each candidate's estimate is the cheapest of the reference
    /// [`NetworkMap::k_paths`] set priced with `estimate_along` (ties to
    /// the lowest path index, both figures from the winning path) — so
    /// the k-set cache must invalidate on both structural and metric-only
    /// mutations, including ones that re-price only one path of a cached
    /// set. The learned path stays the head of the k-set.
    #[test]
    fn k_path_engine_matches_oracle_under_churn(
        ops in proptest::collection::vec(
            // (origin, route shape, link latency ms, queue, clock step ms, op kind)
            (0u32..5, 0u32..3, 1u64..50, 0u32..40, 1u64..250, 0u8..8),
            1..24,
        ),
    ) {
        let cfg = CoreConfig { k_paths: 3, ..CoreConfig::default() };
        let de = DelayEstimator::new(cfg.clone());
        let be = BandwidthEstimator::new(cfg.clone());
        let mut core = churn_core(cfg.clone());
        let mut last_rx = BTreeMap::new();
        let mut now_ns: u64 = 1_000_000_000;
        let hosts: Vec<u32> = (0..5).chain([SCHED]).collect();

        for (seq, &op) in ops.iter().enumerate() {
            now_ns += op.4 * 1_000_000;
            if let Some(origin) = apply_churn_op(&mut core, seq, op, now_ns) {
                last_rx.insert(origin, now_ns);
            }

            let silent = silent_at(&last_rx, now_ns, cfg.origin_silence_ns);
            for policy in [Policy::IntDelay, Policy::IntBandwidth] {
                let det = core.rank_detailed_with(SCHED, policy, now_ns);
                let m = core.collector().map();
                let want = oracle_outcome(policy, &silent, |h| {
                    let mut best =
                        RankedServer { host: h, est_delay_ns: u64::MAX, est_bandwidth_bps: 0 };
                    let (a, b) = (NetNode::Host(SCHED), NetNode::Host(h));
                    for path in m.k_paths(&cfg, a, b, cfg.k_paths) {
                        let d = de.estimate_along(m, &path, now_ns).total_ns().min(u64::MAX - 1);
                        if d < best.est_delay_ns {
                            best.est_delay_ns = d;
                            best.est_bandwidth_bps = be.estimate_along(m, &path, now_ns);
                        }
                    }
                    best
                });
                prop_assert_eq!(&det, &want, "k-path {:?} after op {}", policy, seq);
            }

            // Single-path queries share the scratch with the masked k-path
            // runs; they must still see the reference shortest path.
            for &from in &hosts {
                for &to in &hosts {
                    let got = core.learned_path(from, to, now_ns);
                    let (a, b) = (NetNode::Host(from), NetNode::Host(to));
                    let m = core.collector().map();
                    prop_assert_eq!(
                        got,
                        m.k_paths(&cfg, a, b, cfg.k_paths).first().cloned(),
                        "first k-path {}->{} after op {}", from, to, seq
                    );
                }
            }
        }
    }
}
