//! The scheduler frontend (paper Fig. 1): accepts edge-device queries and
//! answers with ranked candidate edge servers.

use crate::collector::IntCollector;
use crate::config::CoreConfig;
use crate::map::NetNode;
use crate::rank::{Policy, RankOutcome, RankedServer, StaticDistances};
use crate::snapshot::{
    PublishStats, SchedSnapshot, SnapshotPublisher, SnapshotScratch, SnapshotServeStats,
};
use int_obs::{CandidateEstimate, DecisionAudit, DecisionRecord};
use int_packet::msgs::{Candidate, RankingKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The complete scheduler state: the collector and its learned map, plus
/// the epoch snapshots every query is answered from.
///
/// A query first evicts telemetry past the horizon, then publishes a new
/// [`SchedSnapshot`] if the map moved since the last epoch (keyed on the
/// `(topology_generation, metrics_generation, probes_accepted)` triple),
/// then evaluates against the current snapshot. Publishing is O(dirty
/// edges) while the topology holds, and a query against an unchanged map
/// publishes nothing.
pub struct SchedulerCore {
    collector: IntCollector,
    /// Shared with every snapshot — one allocation for the whole control
    /// plane (and for every shard of the sharded one).
    cfg: Arc<CoreConfig>,
    distances: Arc<StaticDistances>,
    /// The Random baseline's shuffle stream: one long-lived RNG, so a
    /// sequence of Random rankings is a pure function of the seed.
    rng: SmallRng,
    /// The map's one publisher (its dirty-edge list has one consumer).
    publisher: SnapshotPublisher,
    /// The most recently published epoch and its publish key (`None`
    /// before the first query).
    current: Option<((u64, u64, u64), Arc<SchedSnapshot>)>,
    /// Query-path scratch: Dijkstra buffers and per-epoch path cache.
    scratch: SnapshotScratch,
    /// Policy used for INT-based queries (the baselines are selected
    /// explicitly via [`SchedulerCore::rank_with`]).
    default_policy: Policy,
    /// Decision audit trail (disabled by default: one branch per query).
    audit: DecisionAudit,
    /// Outcome buffer behind the by-value entry points.
    outcome_scratch: RankOutcome,
}

impl SchedulerCore {
    /// Scheduler on `scheduler_host` with the given configuration.
    /// `distances` feeds the Nearest baseline; `seed` the Random baseline.
    /// `cfg` and `distances` accept owned values or pre-shared `Arc`s.
    pub fn new(
        scheduler_host: u32,
        cfg: impl Into<Arc<CoreConfig>>,
        distances: impl Into<Arc<StaticDistances>>,
        seed: u64,
    ) -> Self {
        let cfg = cfg.into();
        let mut collector = IntCollector::new(scheduler_host);
        // Thread the map-side tunables into the learned map.
        collector.map_mut().set_delay_ewma(cfg.delay_ewma_new_eighths);
        collector.map_mut().set_qlen_retention(cfg.qlen_window_ns);
        SchedulerCore {
            collector,
            cfg,
            distances: distances.into(),
            rng: SmallRng::seed_from_u64(seed),
            publisher: SnapshotPublisher::new(),
            current: None,
            scratch: SnapshotScratch::new(),
            default_policy: Policy::IntDelay,
            audit: DecisionAudit::default(),
            outcome_scratch: RankOutcome::default(),
        }
    }

    /// The decision audit trail (disabled unless
    /// [`SchedulerCore::set_audit_enabled`] turned it on).
    pub fn audit(&self) -> &DecisionAudit {
        &self.audit
    }

    /// Enable or disable per-query decision auditing.
    pub fn set_audit_enabled(&mut self, on: bool) {
        self.audit.set_enabled(on);
    }

    /// The configuration this scheduler runs with.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The shared configuration handle (one allocation across scheduler,
    /// snapshots, and shards).
    pub fn config_arc(&self) -> Arc<CoreConfig> {
        Arc::clone(&self.cfg)
    }

    /// The shared static-distance table handle (Nearest baseline).
    pub fn distances_arc(&self) -> Arc<StaticDistances> {
        Arc::clone(&self.distances)
    }

    /// Query-path accounting: Dijkstra runs and path-cache hits/misses of
    /// this scheduler's snapshot evaluation.
    pub fn path_stats(&self) -> SnapshotServeStats {
        self.scratch.stats()
    }

    /// The route the ranking would price between two hosts at `now_ns`
    /// (after eviction at that time) — the reference `NetworkMap::path`
    /// answer, read off the current snapshot (tests and diagnostics).
    pub fn learned_path(&mut self, from: u32, to: u32, now_ns: u64) -> Option<Vec<NetNode>> {
        self.refresh(now_ns).learned_path(&mut self.scratch, from, to)
    }

    /// Evict telemetry past the horizon at `now_ns`, then publish a new
    /// epoch if the map or the origin table moved since the last one.
    /// Returns the current epoch.
    ///
    /// The publish key is the `(topology_generation, metrics_generation,
    /// probes_accepted)` triple: topology or metrics movement invalidates
    /// the frozen state, and `probes_accepted` catches ingest that only
    /// touched per-origin accounting (a probe with no records still
    /// refreshes `last_rx_ns`, which feeds the silence exclusion).
    pub(crate) fn refresh(&mut self, now_ns: u64) -> Arc<SchedSnapshot> {
        self.collector.map_mut().evict_stale(now_ns, self.cfg.eviction_horizon_ns);
        let key = (
            self.collector.map().topology_generation(),
            self.collector.map().metrics_generation(),
            self.collector.probes_accepted(),
        );
        if let Some((published, snap)) = &self.current {
            if *published == key {
                return Arc::clone(snap);
            }
        }
        let epoch = self.epoch() + 1;
        let snap =
            self.publisher.publish(&mut self.collector, &self.cfg, &self.distances, epoch, now_ns);
        self.current = Some((key, Arc::clone(&snap)));
        snap
    }

    /// Epoch counter of the most recent publish (0 = none yet).
    pub(crate) fn epoch(&self) -> u64 {
        self.current.as_ref().map_or(0, |(_, snap)| snap.epoch())
    }

    /// Full vs incremental publish counters.
    pub(crate) fn publish_stats(&self) -> PublishStats {
        self.publisher.stats()
    }

    /// The publisher (incremental-path selection).
    pub(crate) fn publisher_mut(&mut self) -> &mut SnapshotPublisher {
        &mut self.publisher
    }

    /// The telemetry collector (probe ingest + learned map).
    pub fn collector(&self) -> &IntCollector {
        &self.collector
    }

    /// Mutable access to the collector (probe ingest).
    pub fn collector_mut(&mut self) -> &mut IntCollector {
        &mut self.collector
    }

    /// Ingest a probe payload received over the network.
    pub fn on_probe(&mut self, payload: &[u8], now_ns: u64) {
        let _ = self.collector.ingest_bytes(payload, now_ns);
    }

    /// Register a host as a known candidate without waiting for probes —
    /// required for the baseline policies, which run with INT disabled and
    /// therefore never learn hosts from telemetry.
    pub fn register_host(&mut self, host: u32) {
        self.collector.map_mut().register_host(host);
    }

    /// Candidate edge servers for `requester`: every known host except the
    /// requester itself (paper §IV: all nodes can execute tasks unless they
    /// are the submitter).
    pub fn candidates_for(&self, requester: u32) -> Vec<u32> {
        self.collector.map().hosts().filter(|&h| h != requester).collect()
    }

    /// Answer a query with the given wire-level ranking kind (Fig. 1
    /// steps 3–4), best candidate first.
    pub fn handle_request(
        &mut self,
        requester: u32,
        ranking: RankingKind,
        now_ns: u64,
    ) -> Vec<Candidate> {
        let policy = match ranking {
            RankingKind::Delay => Policy::IntDelay,
            RankingKind::Bandwidth => Policy::IntBandwidth,
        };
        self.rank_with(requester, policy, now_ns)
            .into_iter()
            .map(|r| Candidate {
                node: r.host,
                est_delay_ns: r.est_delay_ns,
                est_bandwidth_bps: r.est_bandwidth_bps,
            })
            .collect()
    }

    /// Rank under an explicit policy (INT-based or baseline).
    pub fn rank_with(&mut self, requester: u32, policy: Policy, now_ns: u64) -> Vec<RankedServer> {
        let mut out = Vec::new();
        self.rank_with_into(requester, policy, now_ns, &mut out);
        out
    }

    /// [`SchedulerCore::rank_with`] into a caller-owned buffer: steady
    /// state performs zero heap allocations (all intermediate buffers are
    /// scheduler-owned scratch).
    pub fn rank_with_into(
        &mut self,
        requester: u32,
        policy: Policy,
        now_ns: u64,
        out: &mut Vec<RankedServer>,
    ) {
        let mut scratch = std::mem::take(&mut self.outcome_scratch);
        self.rank_detailed_into_with(requester, policy, now_ns, &mut scratch);
        out.clear();
        out.extend_from_slice(&scratch.ranked);
        self.outcome_scratch = scratch;
    }

    /// Rank under an explicit policy, reporting exclusions.
    ///
    /// Failure handling happens here: telemetry older than the eviction
    /// horizon is removed from the map first, and origins silent beyond
    /// the silence horizon are excluded — a host behind a dead link is
    /// never ranked on ghost telemetry. See
    /// [`SchedSnapshot::rank_detailed`] for the full rule.
    pub fn rank_detailed_with(
        &mut self,
        requester: u32,
        policy: Policy,
        now_ns: u64,
    ) -> RankOutcome {
        let mut out = RankOutcome::default();
        self.rank_detailed_into_with(requester, policy, now_ns, &mut out);
        out
    }

    /// [`SchedulerCore::rank_detailed_with`] into a caller-owned outcome
    /// (the zero-alloc query path).
    pub fn rank_detailed_into_with(
        &mut self,
        requester: u32,
        policy: Policy,
        now_ns: u64,
        out: &mut RankOutcome,
    ) {
        let snap = self.refresh(now_ns);
        snap.rank_detailed_into(&mut self.scratch, requester, policy, now_ns, &mut self.rng, out);
        if self.audit.enabled() {
            self.audit.record(DecisionRecord {
                at_ns: now_ns,
                requester,
                policy: policy.name(),
                chosen: out.ranked.first().map(|r| r.host),
                ranked: out
                    .ranked
                    .iter()
                    .map(|r| CandidateEstimate {
                        host: r.host,
                        est_delay_ns: r.est_delay_ns,
                        est_bandwidth_bps: r.est_bandwidth_bps,
                    })
                    .collect(),
                excluded: out.excluded.iter().map(|(h, r)| (*h, r.as_str())).collect(),
            });
        }
    }

    /// The paper's second serving option (§III-B): an *unsorted* list of
    /// every candidate with its estimated delay and bandwidth, so the edge
    /// device can run its own selection algorithm. Candidates come back in
    /// ascending host-id order, carrying the same estimates `rank_with`
    /// would sort by.
    pub fn candidates_with_estimates(&mut self, requester: u32, now_ns: u64) -> Vec<RankedServer> {
        let mut all = Vec::new();
        self.candidates_with_estimates_into(requester, now_ns, &mut all);
        all
    }

    /// [`SchedulerCore::candidates_with_estimates`] into a caller-owned
    /// buffer (zero-alloc steady state). Host ids are unique, so the
    /// in-place unstable sort orders exactly as a stable sort would.
    pub fn candidates_with_estimates_into(
        &mut self,
        requester: u32,
        now_ns: u64,
        out: &mut Vec<RankedServer>,
    ) {
        self.rank_with_into(requester, Policy::IntDelay, now_ns, out);
        out.sort_unstable_by_key(|s| s.host);
    }

    /// The policy used when no explicit policy is requested.
    pub fn default_policy(&self) -> Policy {
        self.default_policy
    }

    /// Override the default policy.
    pub fn set_default_policy(&mut self, policy: Policy) {
        self.default_policy = policy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::int::IntRecord;
    use int_packet::wire::WireEncode;
    use int_packet::ProbePayload;

    fn rec(switch_id: u32, maxq: u32, ts_ms: u64) -> IntRecord {
        IntRecord {
            switch_id,
            ingress_port: 0,
            egress_port: 1,
            max_qlen_pkts: maxq,
            qlen_at_probe_pkts: 0,
            link_latency_ns: 10_000_000,
            egress_ts_ns: ts_ms * 1_000_000,
        }
    }

    fn core_with_two_servers() -> SchedulerCore {
        core_seeded(42)
    }

    fn core_seeded(seed: u64) -> SchedulerCore {
        let mut d = StaticDistances::new();
        d.set(6, 1, 3);
        d.set(6, 2, 5);
        let mut core = SchedulerCore::new(6, CoreConfig::default(), d, seed);
        // Server 1 congested (switch 10 q=20), server 2 clean.
        let mut p1 = ProbePayload::new(1, 1, 0);
        p1.int.push(rec(10, 20, 11));
        p1.int.push(rec(11, 0, 22));
        core.on_probe(&p1.to_bytes(), 32_000_000);
        let mut p2 = ProbePayload::new(2, 1, 0);
        p2.int.push(rec(12, 0, 11));
        p2.int.push(rec(11, 0, 22));
        core.on_probe(&p2.to_bytes(), 32_000_000);
        core
    }

    #[test]
    fn request_excludes_requester_and_ranks() {
        let mut core = core_with_two_servers();
        let resp = core.handle_request(6, RankingKind::Delay, 32_000_000);
        let hosts: Vec<u32> = resp.iter().map(|c| c.node).collect();
        assert_eq!(hosts, vec![2, 1], "clean server first, requester absent");

        let resp = core.handle_request(1, RankingKind::Delay, 32_000_000);
        assert!(resp.iter().all(|c| c.node != 1));
    }

    #[test]
    fn bandwidth_request_sorts_by_bandwidth() {
        let mut core = core_with_two_servers();
        let resp = core.handle_request(6, RankingKind::Bandwidth, 32_000_000);
        assert_eq!(resp[0].node, 2);
        assert!(resp[0].est_bandwidth_bps > resp[1].est_bandwidth_bps);
    }

    #[test]
    fn baseline_policies_available() {
        let mut core = core_with_two_servers();
        let nearest = core.rank_with(6, Policy::Nearest, 32_000_000);
        assert_eq!(nearest[0].host, 1, "nearest ignores congestion");
        let random = core.rank_with(6, Policy::Random, 32_000_000);
        assert_eq!(random.len(), 2);
    }

    #[test]
    fn empty_map_yields_empty_candidates() {
        let mut core = SchedulerCore::new(6, CoreConfig::default(), StaticDistances::new(), 1);
        assert!(core.handle_request(6, RankingKind::Delay, 0).is_empty());
        // Only the scheduler itself is known; a different requester sees it.
        let resp = core.handle_request(1, RankingKind::Delay, 0);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].node, 6);
    }

    #[test]
    fn unsorted_option_returns_all_candidates_with_estimates() {
        let mut core = core_with_two_servers();
        let all = core.candidates_with_estimates(6, 32_000_000);
        let hosts: Vec<u32> = all.iter().map(|s| s.host).collect();
        assert_eq!(hosts, vec![1, 2], "host-id order, not ranked order");
        // Same estimates the sorted path computes.
        let ranked = core.rank_with(6, Policy::IntDelay, 32_000_000);
        for s in &all {
            let r = ranked.iter().find(|r| r.host == s.host).unwrap();
            assert_eq!(r.est_delay_ns, s.est_delay_ns);
            assert_eq!(r.est_bandwidth_bps, s.est_bandwidth_bps);
        }
    }

    /// A host whose probes stop arriving is excluded from INT rankings
    /// (origin silence) and comes back as soon as it is heard from again.
    #[test]
    fn silent_host_excluded_until_it_returns() {
        use crate::rank::ExcludeReason;
        let ms = 1_000_000u64;
        let mut core = core_with_two_servers(); // both probed at t=32 ms
        // Only server 2 keeps probing; server 1 goes dark.
        for i in 1..=60u64 {
            let mut p2 = ProbePayload::new(2, 1 + i, 0);
            p2.int.push(rec(12, 0, 11));
            p2.int.push(rec(11, 0, 22));
            core.on_probe(&p2.to_bytes(), 32 * ms + i * 100 * ms);
        }
        let now = 32 * ms + 6_000 * ms; // 6 s ≫ the 3 s silence horizon
        let out = core.rank_detailed_with(6, Policy::IntDelay, now);
        assert_eq!(out.ranked.iter().map(|s| s.host).collect::<Vec<_>>(), vec![2]);
        assert_eq!(out.excluded, vec![(1, ExcludeReason::OriginSilent)]);
        assert!(
            core.rank_with(6, Policy::IntDelay, now).iter().all(|s| s.host != 1),
            "the plain ranking path honours the exclusion too"
        );

        // Server 1 resumes probing: it rejoins the ranking.
        let mut p1 = ProbePayload::new(1, 2, 0);
        p1.int.push(rec(10, 0, 11));
        p1.int.push(rec(11, 0, 22));
        core.on_probe(&p1.to_bytes(), now + 100 * ms);
        let out = core.rank_detailed_with(6, Policy::IntDelay, now + 200 * ms);
        assert_eq!(out.ranked.len(), 2, "recovered host is ranked again: {out:?}");
        assert!(out.excluded.is_empty());
    }

    /// With silence detection effectively off, eviction still removes the
    /// dead host's telemetry from the map, so it is excluded for having no
    /// fresh path — never ranked on ghost measurements.
    #[test]
    fn evicted_telemetry_excludes_host_from_ranking_inputs() {
        use crate::rank::ExcludeReason;
        let ms = 1_000_000u64;
        let cfg = CoreConfig {
            eviction_horizon_ns: 1_000 * ms,
            origin_silence_ns: u64::MAX,
            ..CoreConfig::default()
        };
        let mut d = StaticDistances::new();
        d.set(6, 1, 3);
        d.set(6, 2, 5);
        let mut core = SchedulerCore::new(6, cfg, d, 42);
        let mut p1 = ProbePayload::new(1, 1, 0);
        p1.int.push(rec(10, 0, 11));
        p1.int.push(rec(11, 0, 22));
        core.on_probe(&p1.to_bytes(), 32 * ms);
        // Server 2 keeps probing past the horizon; server 1 does not.
        for i in 1..=30u64 {
            let mut p2 = ProbePayload::new(2, i, 0);
            p2.int.push(rec(12, 0, 11));
            p2.int.push(rec(11, 0, 22));
            core.on_probe(&p2.to_bytes(), 32 * ms + i * 100 * ms);
        }
        let now = 32 * ms + 3_000 * ms;
        let out = core.rank_detailed_with(6, Policy::IntDelay, now);
        assert_eq!(out.ranked.iter().map(|s| s.host).collect::<Vec<_>>(), vec![2]);
        assert_eq!(out.excluded, vec![(1, ExcludeReason::NoFreshPath)]);
        assert!(
            core.collector().map().dead_edges().count() >= 2,
            "the dead path is reported, not silently dropped"
        );

        // Baselines are oblivious: they still schedule onto the dead host.
        let nearest = core.rank_with(6, Policy::Nearest, now);
        assert_eq!(nearest.first().map(|s| s.host), Some(1));
    }

    /// The audit trail captures what the scheduler believed per query:
    /// candidate estimates, exclusions with reasons, and the chosen host.
    /// Off by default; deterministic JSON once on.
    #[test]
    fn audit_trail_records_decisions() {
        let mut core = core_with_two_servers();
        core.rank_with(6, Policy::IntDelay, 32_000_000);
        assert_eq!(core.audit().total(), 0, "audit off by default");

        core.set_audit_enabled(true);
        core.rank_with(6, Policy::IntDelay, 33_000_000);
        let ms = 1_000_000u64;
        // Server 2 keeps probing; server 1 goes silent past the horizon.
        for i in 1..=60u64 {
            let mut p2 = ProbePayload::new(2, 100 + i, 0);
            p2.int.push(rec(12, 0, 11));
            p2.int.push(rec(11, 0, 22));
            core.on_probe(&p2.to_bytes(), 32 * ms + i * 100 * ms);
        }
        core.rank_with(6, Policy::IntDelay, 32 * ms + 6_000 * ms);

        let records = core.audit().records();
        assert_eq!(records.len(), 2);
        let healthy = &records[0];
        assert_eq!(healthy.requester, 6);
        assert_eq!(healthy.policy, "IntDelay");
        assert_eq!(healthy.chosen, Some(2), "clean server chosen");
        assert_eq!(healthy.ranked.len(), 2);
        assert!(healthy.ranked[0].est_delay_ns < healthy.ranked[1].est_delay_ns);

        let failed = &records[1];
        assert_eq!(failed.chosen, Some(2));
        assert_eq!(failed.excluded, vec![(1, "OriginSilent")]);

        let json = core.audit().to_json();
        assert!(json.contains(r#""reason":"OriginSilent""#), "{json}");
        assert!(json.contains(r#""policy":"IntDelay""#));
    }

    /// Silent and pathless candidates are excluded together, with their
    /// reasons in host order; the baselines still rank everyone.
    #[test]
    fn excludes_silent_and_pathless_with_reasons() {
        use crate::rank::ExcludeReason;
        let ms = 1_000_000u64;
        let mut core = core_with_two_servers();
        core.register_host(99); // known, but never probed
        for i in 1..=60u64 {
            let mut p2 = ProbePayload::new(2, 1 + i, 0);
            p2.int.push(rec(12, 0, 11));
            p2.int.push(rec(11, 0, 22));
            core.on_probe(&p2.to_bytes(), 32 * ms + i * 100 * ms);
        }
        let now = 32 * ms + 6_000 * ms;
        let out = core.rank_detailed_with(6, Policy::IntDelay, now);
        assert_eq!(out.ranked.iter().map(|s| s.host).collect::<Vec<_>>(), vec![2]);
        assert_eq!(
            out.excluded,
            vec![(1, ExcludeReason::OriginSilent), (99, ExcludeReason::NoFreshPath)]
        );
        for policy in [Policy::Nearest, Policy::Random] {
            let out = core.rank_detailed_with(6, policy, now);
            assert_eq!(out.ranked.len(), 3, "{policy:?} ignores telemetry silence");
            assert!(out.excluded.is_empty());
        }
    }

    /// An empty map is warm-up, not failure: everyone is ranked. One
    /// silent origin among pathless candidates is a failure signal.
    #[test]
    fn warm_up_fallback_only_without_silent_origins() {
        use crate::rank::ExcludeReason;
        let mut core = SchedulerCore::new(6, CoreConfig::default(), StaticDistances::new(), 1);
        core.register_host(5);
        core.register_host(3);
        let out = core.rank_detailed_with(6, Policy::IntDelay, 0);
        assert_eq!(out.ranked.iter().map(|s| s.host).collect::<Vec<_>>(), vec![3, 5]);
        assert!(out.excluded.is_empty());

        // Host 3 sends one record-less probe (an origin with no path),
        // then goes quiet past the silence horizon.
        core.on_probe(&ProbePayload::new(3, 1, 0).to_bytes(), 1_000_000);
        let out = core.rank_detailed_with(6, Policy::IntDelay, 5_000_000_000);
        assert_eq!(
            out.excluded,
            vec![(3, ExcludeReason::OriginSilent), (5, ExcludeReason::NoFreshPath)]
        );
        assert!(out.ranked.is_empty(), "pathless peers stay out once failure is evident");
    }

    #[test]
    fn random_follows_one_seeded_stream() {
        use rand::seq::SliceRandom;
        let order = |seed| {
            let mut core = core_seeded(seed);
            (0..4)
                .map(|_| core.rank_with(6, Policy::Random, 32_000_000))
                .map(|r| r.iter().map(|s| s.host).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        for seed in [1u64, 7] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let want: Vec<Vec<u32>> = (0..4)
                .map(|_| {
                    let mut v = vec![1u32, 2];
                    v.shuffle(&mut rng);
                    v
                })
                .collect();
            assert_eq!(order(seed), want, "seed {seed}");
        }
        let seen: std::collections::BTreeSet<_> = (0..16).map(|s| order(s)[0].clone()).collect();
        assert!(seen.len() > 1, "random actually varies across seeds");
    }

    /// Queries against an unchanged map publish nothing and re-run no
    /// Dijkstra: every query after the first at the same `now` reuses
    /// the requester's priced row.
    #[test]
    fn steady_state_queries_reuse_one_epoch_and_one_sssp() {
        let mut core = core_with_two_servers();
        core.rank_with(6, Policy::IntDelay, 32_000_000);
        let (epoch, s) = (core.epoch(), core.path_stats());
        assert_eq!(s.sssp_runs, 1, "2 candidates share one Dijkstra");
        for _ in 0..50 {
            core.rank_with(6, Policy::IntDelay, 32_000_000);
            core.rank_with(6, Policy::IntBandwidth, 32_000_000);
        }
        let s2 = core.path_stats();
        assert_eq!(core.epoch(), epoch, "no ingest, no new epoch");
        assert_eq!(s2.sssp_runs, 1, "steady state never re-runs Dijkstra");
        assert_eq!((s.cache_misses, s.cache_hits), (1, 0), "the first query prices the row");
        assert_eq!(s2.cache_misses, 1);
        assert_eq!(s2.cache_hits, 100, "every steady-state query reuses the row");
    }

    /// Two routes host 1 → scheduler 6: 1–10–11–6 (fast, 5 ms links) and
    /// 1–12–13–6 (slow, 30 ms links).
    fn two_route_core(cfg: CoreConfig) -> SchedulerCore {
        let mut core = SchedulerCore::new(6, cfg, StaticDistances::new(), 1);
        for (seq, chain, lat_ms, t_ms) in [(1, [10, 11], 5, 22), (2, [12, 13], 30, 70)] {
            core.collector_mut().ingest(&timed_probe(1, seq, &chain, lat_ms), t_ms * 1_000_000);
        }
        core
    }

    fn timed_probe(origin: u32, seq: u64, chain: &[u32], lat_ms: u64) -> ProbePayload {
        let mut p = ProbePayload::new(origin, seq, 0);
        for (i, &sw) in chain.iter().enumerate() {
            p.int.push(IntRecord {
                link_latency_ns: lat_ms * 1_000_000,
                egress_ts_ns: (i as u64 + 1) * 11 * 1_000_000,
                ..rec(sw, 0, 0)
            });
        }
        p
    }

    /// A metric-only refresh (no topology change) that makes the other
    /// route cheaper reroutes both the learned path and, with
    /// `k_paths = 2`, the winning path's estimate.
    #[test]
    fn metric_only_refresh_reroutes() {
        for k in [1u32, 2] {
            let cfg = CoreConfig { k_paths: k, ..CoreConfig::default() };
            let mut core = two_route_core(cfg.clone());
            let t0 = 300_000_000;
            let fast = core.learned_path(1, 6, t0).unwrap();
            assert!(fast.contains(&NetNode::Switch(10)), "fast route first: {fast:?}");
            let before = core.rank_with(6, Policy::IntDelay, t0)[0];

            // The fast route's links degrade to 100 ms.
            let topo = core.collector().map().topology_generation();
            for seq in 3..=20 {
                core.collector_mut().ingest(&timed_probe(1, seq, &[10, 11], 100), t0);
            }
            assert_eq!(core.collector().map().topology_generation(), topo, "metric-only");

            let rerouted = core.learned_path(1, 6, t0).unwrap();
            let after = core.rank_with(6, Policy::IntDelay, t0)[0];
            let map = core.collector().map();
            assert_eq!(Some(rerouted.clone()), map.path(&cfg, NetNode::Host(1), NetNode::Host(6)));
            assert!(rerouted.contains(&NetNode::Switch(12)), "k={k}: reroutes: {rerouted:?}");
            assert!(after.est_delay_ns > before.est_delay_ns, "k={k}: re-priced");
            let de = crate::estimate::DelayEstimator::new(cfg.clone());
            let want = map
                .k_paths(&cfg, NetNode::Host(6), NetNode::Host(1), k)
                .iter()
                .map(|p| de.estimate_along(map, p, t0).total_ns())
                .min()
                .unwrap();
            assert_eq!(after.est_delay_ns, want, "k={k}: the cheapest path wins");
        }
    }

    /// Eviction restructures the graph: the dead route is gone at once,
    /// and relearning restores it.
    #[test]
    fn eviction_drops_the_learned_path_until_relearned() {
        let cfg = CoreConfig { eviction_horizon_ns: 10_000_000_000, ..CoreConfig::default() };
        let mut core = SchedulerCore::new(6, cfg, StaticDistances::new(), 1);
        core.collector_mut().ingest(&timed_probe(1, 1, &[10, 11], 5), 22_000_000);
        assert!(core.learned_path(6, 1, 22_000_000).is_some());
        let later = 22_000_000 + 10_000_000_001;
        assert_eq!(core.learned_path(6, 1, later), None, "a dead path is never served");
        core.collector_mut().ingest(&timed_probe(1, 2, &[10, 11], 5), later + 1);
        assert!(core.learned_path(6, 1, later + 1).is_some());
        assert_eq!(core.learned_path(6, 42, later + 1), None, "unknown hosts are unreachable");
    }

    #[test]
    fn default_policy_settable() {
        let mut core = core_with_two_servers();
        assert_eq!(core.default_policy(), Policy::IntDelay);
        core.set_default_policy(Policy::IntBandwidth);
        assert_eq!(core.default_policy(), Policy::IntBandwidth);
    }
}
