//! Immutable epoch snapshots of the scheduler control plane — the one
//! place ranking is evaluated.
//!
//! [`SchedSnapshot`] is a frozen, `Send + Sync` copy of everything a rank
//! query needs, published from the live [`NetworkMap`] whenever its
//! topology or metrics generation (or the collector's accepted-probe
//! count) moves. Both control planes answer from it:
//! [`crate::sched::SchedulerCore`] publishes at query time when the map
//! moved and evaluates against its own scratch; the sharded read half
//! ([`crate::shard`]) serves batches against the epoch the core last
//! published.
//!
//! A snapshot carries:
//!
//! * the CSR adjacency (dense ids in ascending [`NetNode`] order, rows
//!   sorted) and ≥1-clamped traversal weights;
//! * per-arc *estimate* inputs: the unclamped effective link delay and
//!   the resolved queue-occupancy evidence (which directed edge answers
//!   for this arc under the direction-fallback policy, its harvest
//!   timestamps and windowed history) — resolved once at publish so
//!   query-time evaluation never touches the map;
//! * freshness/silence metadata: every known host (the candidate set)
//!   and every probe origin's last-receive time, so origin-silence
//!   exclusion is a pure function of the query's `now`.
//!
//! Queries evaluate against a caller-owned [`SnapshotScratch`] (the
//! Dijkstra buffers plus one memoized *priced row*: every node's price
//! from the requester at the query's `now`), so N shards serve
//! concurrently with zero shared mutable state.
//!
//! # Determinism
//!
//! Routes are byte-identical to the reference [`NetworkMap::path`] /
//! [`NetworkMap::k_paths`], and estimates to the reference
//! `DelayEstimator`/`BandwidthEstimator::estimate_along` over them:
//!
//! * dense ids ascend in `NetNode` order (hosts before switches), so the
//!   heap's `(dist, id)` tie-break equals the reference's
//!   `(dist, NetNode)` tie-break;
//! * CSR rows are sorted ascending, matching the reference's
//!   `BTreeSet`-ordered relaxation order, so equal-cost predecessor
//!   selection is identical;
//! * the reference early-exits when the target pops, the shared SSSP
//!   runs to completion; both agree on every extracted path (weights are
//!   ≥ 1, so a popped node's predecessor is final);
//! * a priced row extends each node's price from its predecessor's, in
//!   settle order, so every entry is the same saturating fold, over the
//!   same arcs in the same order, as pricing the extracted path alone.
//!
//! The agreement is pinned by the churn proptests in
//! `tests/proptest_core.rs`. [`Policy::Random`] shuffles with an RNG the
//! caller passes in: the sequential scheduler hands over one long-lived
//! stream, the shards derive one per query slot.

use crate::collector::IntCollector;
use crate::config::{CoreConfig, DirectionFallback, HopSignal};
use crate::map::{NetNode, NetworkMap};
use crate::rank::{ExcludeReason, Policy, RankOutcome, RankedServer, StaticDistances};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Sentinel for "no predecessor" in the SSSP scratch.
const NO_PREV: u32 = u32::MAX;

/// A path's running price, accumulated arc by arc in path order.
#[derive(Debug, Clone, Copy)]
struct Priced {
    link_ns: u64,
    hop_ns: u64,
    bw_bps: u64,
}

impl Priced {
    /// `(est_delay_ns, est_bandwidth_bps)`, the total clamped to
    /// `u64::MAX - 1` so a reachable path never reads as the no-path
    /// sentinel.
    fn figures(self) -> (u64, u64) {
        (self.link_ns.saturating_add(self.hop_ns).min(u64::MAX - 1), self.bw_bps)
    }
}

/// Queue-occupancy evidence for one CSR arc, resolved at publish time.
///
/// Mirrors [`NetworkMap::effective_qlen`]: the forward directed edge
/// answers if it exists (even if its harvest is stale — staleness reads
/// as an empty queue, it does not fall through to the reverse edge);
/// otherwise, under [`DirectionFallback::ReverseOk`], the reverse edge
/// answers; otherwise the queue reads as empty.
#[derive(Debug, Clone, Copy)]
struct ArcQlen {
    /// Does any directed edge answer for this arc?
    present: bool,
    /// When the answering edge's queue measurement was taken, ns.
    updated_ns: u64,
    /// Instantaneous occupancy at the probe (the ablation signal).
    at_probe_pkts: u32,
    /// Offset/length of this arc's harvest history in `qlen_hist`.
    hist_start: u32,
    hist_len: u32,
    /// Slot capacity reserved for this arc's run in `qlen_hist` (full
    /// builds leave headroom so incremental publishes can splice longer
    /// runs in place; a run outgrowing its slot forces a full rebuild).
    hist_cap: u32,
}

const NO_QLEN: ArcQlen = ArcQlen {
    present: false,
    updated_ns: 0,
    at_probe_pkts: 0,
    hist_start: 0,
    hist_len: 0,
    hist_cap: 0,
};

/// The structural half of a snapshot: CSR adjacency and the candidate
/// host universe. Immutable for as long as the map's `topo_gen` holds,
/// so consecutive epochs share one allocation via `Arc`.
#[derive(Debug)]
struct CsrTopo {
    /// All nodes in ascending `NetNode` order; index = dense id.
    nodes: Vec<NetNode>,
    /// CSR row offsets (`nodes.len() + 1` entries).
    row: Vec<u32>,
    /// CSR columns (neighbour dense ids, sorted per row).
    cols: Vec<u32>,
    /// Every known host, ascending — the candidate universe.
    hosts: Vec<u32>,
}

impl CsrTopo {
    /// Freeze the map's structure. Dense ids follow ascending `NetNode`
    /// order (the derived `Ord` puts every `Host` before every `Switch`);
    /// each directed edge contributes both arc orientations, deduplicated,
    /// so `(a,b)` and `(b,a)` probed separately collapse into one pair.
    fn build(map: &NetworkMap) -> Self {
        let mut nodes: Vec<NetNode> = map.hosts().map(NetNode::Host).collect();
        nodes.extend(map.switches().map(NetNode::Switch));
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "dense ids must be sorted");
        let id = |n: NetNode| nodes.binary_search(&n).ok().map(|i| i as u32);

        let mut arcs = Vec::with_capacity(2 * map.edge_count());
        for (a, b, _) in map.edges() {
            // Edge endpoints are always members of the host/switch sets
            // (apply_probe registers them); skip defensively if not.
            let (Some(ia), Some(ib)) = (id(a), id(b)) else {
                debug_assert!(false, "edge endpoint missing from node sets: {a:?}->{b:?}");
                continue;
            };
            arcs.push((ia, ib));
            arcs.push((ib, ia));
        }
        arcs.sort_unstable();
        arcs.dedup();

        let mut row = vec![0u32; nodes.len() + 1];
        let mut cols = Vec::with_capacity(arcs.len());
        for &(u, v) in &arcs {
            row[u as usize + 1] += 1;
            cols.push(v);
        }
        for i in 1..row.len() {
            row[i] += row[i - 1];
        }
        CsrTopo { nodes, row, cols, hosts: map.hosts().collect() }
    }
}

/// One frozen epoch of the scheduler control plane. Immutable and
/// `Send + Sync`: any number of shards may evaluate queries against it
/// concurrently, each with its own [`SnapshotScratch`].
#[derive(Debug)]
pub struct SchedSnapshot {
    epoch: u64,
    published_at_ns: u64,
    cfg: Arc<CoreConfig>,
    distances: Arc<StaticDistances>,
    /// Structure (nodes/adjacency/hosts), shared across epochs while the
    /// map's topology generation holds.
    topo: Arc<CsrTopo>,
    /// Map topology generation this snapshot's structure was frozen at;
    /// the publisher reuses `topo` (and patches incrementally) only while
    /// it is unchanged.
    topo_gen: u64,
    /// Identity of the `qlen_hist` slot layout (bumped per full build);
    /// two snapshots with equal `layout_gen` share slot offsets/caps.
    layout_gen: u64,
    /// ≥1-clamped traversal weight per arc (parallel to `cols`).
    weights: Vec<u64>,
    /// Unclamped effective link delay per arc — the estimate's per-link
    /// term (`effective_delay_ns` with the unmeasured fallback applied,
    /// *without* the traversal `.max(1)` clamp).
    est_delay: Vec<u64>,
    /// Queue evidence per arc (parallel to `cols`).
    arc_q: Vec<ArcQlen>,
    /// Flat slotted storage for all arcs' harvest histories (runs padded
    /// to their slot capacity).
    qlen_hist: Vec<(u64, u32)>,
    /// `(origin, last_rx_ns)` per probe origin with ≥1 probe, ascending.
    origins: Vec<(u32, u64)>,
}

impl SchedSnapshot {
    /// Freeze the current state of `collector`'s map into an immutable
    /// epoch from scratch — the full-rebuild reference the incremental
    /// publisher is pinned against.
    pub fn build(
        collector: &IntCollector,
        cfg: &Arc<CoreConfig>,
        distances: &Arc<StaticDistances>,
        epoch: u64,
        published_at_ns: u64,
    ) -> Self {
        let topo = Arc::new(CsrTopo::build(collector.map()));
        Self::build_full(collector, topo, cfg, distances, epoch, published_at_ns, 0, 0)
    }

    /// The full (re)build: freeze every per-arc input from the live map
    /// over `topo`, which must describe the map's current topology
    /// generation. The publisher passes `hist_hint` (the previous epoch's
    /// `qlen_hist` length) to pre-size the flat history store, and a
    /// `layout_gen` identifying the slot layout this build creates.
    #[allow(clippy::too_many_arguments)]
    fn build_full(
        collector: &IntCollector,
        topo: Arc<CsrTopo>,
        cfg: &Arc<CoreConfig>,
        distances: &Arc<StaticDistances>,
        epoch: u64,
        published_at_ns: u64,
        hist_hint: usize,
        layout_gen: u64,
    ) -> Self {
        let map = collector.map();
        let arcs = topo.cols.len();
        let mut weights = Vec::with_capacity(arcs);
        let mut est_delay = Vec::with_capacity(arcs);
        let mut arc_q = Vec::with_capacity(arcs);
        let mut qlen_hist = Vec::with_capacity(hist_hint);
        for u in 0..topo.nodes.len() {
            let from = topo.nodes[u];
            for i in topo.row[u] as usize..topo.row[u + 1] as usize {
                let to = topo.nodes[topo.cols[i] as usize];
                let est = map.effective_delay_ns(cfg, from, to).unwrap_or(cfg.unmeasured_delay_ns);
                est_delay.push(est);
                weights.push(est.max(1));
                arc_q.push(resolve_qlen(map, cfg, from, to, &mut qlen_hist));
            }
        }

        SchedSnapshot {
            epoch,
            published_at_ns,
            cfg: Arc::clone(cfg),
            distances: Arc::clone(distances),
            topo,
            topo_gen: map.topology_generation(),
            layout_gen,
            weights,
            est_delay,
            arc_q,
            qlen_hist,
            origins: collector
                .origin_stats_all()
                .filter(|(_, st)| st.received > 0)
                .map(|(o, st)| (o, st.last_rx_ns))
                .collect(),
        }
    }

    /// Semantic equality of everything a query can observe: structure,
    /// weights, delays, origins, and per-arc queue evidence with history
    /// *runs* compared by content. (Byte-comparing `qlen_hist` directly
    /// would also compare slot padding, which legitimately differs
    /// between a fresh full build and an incrementally patched epoch.)
    pub fn content_eq(&self, other: &SchedSnapshot) -> bool {
        self.epoch == other.epoch
            && self.published_at_ns == other.published_at_ns
            && self.topo.nodes == other.topo.nodes
            && self.topo.row == other.topo.row
            && self.topo.cols == other.topo.cols
            && self.topo.hosts == other.topo.hosts
            && self.weights == other.weights
            && self.est_delay == other.est_delay
            && self.origins == other.origins
            && self.arc_q.len() == other.arc_q.len()
            && self.arc_q.iter().zip(&other.arc_q).all(|(a, b)| {
                a.present == b.present
                    && a.updated_ns == b.updated_ns
                    && a.at_probe_pkts == b.at_probe_pkts
                    && self.hist_run(a) == other.hist_run(b)
            })
    }

    /// The live entries of one arc's history slot (padding excluded).
    fn hist_run(&self, a: &ArcQlen) -> &[(u64, u32)] {
        &self.qlen_hist[a.hist_start as usize..(a.hist_start + a.hist_len) as usize]
    }

    /// The epoch counter this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Collector-clock time this snapshot was published at, ns.
    pub fn published_at_ns(&self) -> u64 {
        self.published_at_ns
    }

    /// Candidate hosts known to this epoch, ascending.
    pub fn hosts(&self) -> &[u32] {
        &self.topo.hosts
    }

    /// Rank for `requester` under `policy`, evaluated purely against this
    /// snapshot.
    ///
    /// Candidates are every known host except the requester. The
    /// INT-based policies set aside origins silent beyond the horizon at
    /// `now_ns` (`OriginSilent`) and hosts the map has no path to
    /// (`NoFreshPath`), ranking the rest; if *no* candidate has a path and
    /// none is silent (an empty map: warm-up, not failure), everyone is
    /// ranked instead. The baselines ignore telemetry and exclude nothing.
    /// `rng` drives the [`Policy::Random`] shuffle and is untouched by
    /// every other policy.
    pub fn rank_detailed(
        &self,
        scratch: &mut SnapshotScratch,
        requester: u32,
        policy: Policy,
        now_ns: u64,
        rng: &mut SmallRng,
    ) -> RankOutcome {
        let mut out = RankOutcome::default();
        self.rank_detailed_into(scratch, requester, policy, now_ns, rng, &mut out);
        out
    }

    /// [`SchedSnapshot::rank_detailed`] into a caller-owned outcome (the
    /// zero-alloc steady-state path).
    pub fn rank_detailed_into(
        &self,
        scratch: &mut SnapshotScratch,
        requester: u32,
        policy: Policy,
        now_ns: u64,
        rng: &mut SmallRng,
        out: &mut RankOutcome,
    ) {
        scratch.bind(self);
        scratch.stats.queries += 1;
        out.ranked.clear();
        out.excluded.clear();
        let from = self.node_id(NetNode::Host(requester));
        if let Some(from) = from.filter(|_| self.cfg.k_paths <= 1) {
            self.ensure_row(scratch, from, now_ns);
        }

        // Candidates: every known host except the requester — the same
        // rule as `SchedulerCore::candidates_for`. Hosts lead the dense
        // ids, so a host's index in `hosts` is its dense id, and visiting
        // them in order leaves `excluded` sorted by host.
        let int_based = !matches!(policy, Policy::Nearest | Policy::Random);
        let mut pathless = std::mem::take(&mut scratch.pathless);
        pathless.clear();
        out.ranked.reserve(self.topo.hosts.len());
        for (to, &host) in self.topo.hosts.iter().enumerate() {
            if host == requester {
                continue;
            }
            if int_based && self.is_silent(host, now_ns) {
                out.excluded.push((host, ExcludeReason::OriginSilent));
                continue;
            }
            let est = self.estimate(scratch, from, to as u32, host, now_ns);
            if int_based && est.est_delay_ns == u64::MAX {
                out.excluded.push((host, ExcludeReason::NoFreshPath));
                pathless.push(est);
            } else {
                out.ranked.push(est);
            }
        }

        if out.ranked.is_empty()
            && out.excluded.iter().all(|(_, r)| *r == ExcludeReason::NoFreshPath)
        {
            // Warm-up, not failure: rank the pathless estimates instead.
            out.ranked.extend_from_slice(&pathless);
            out.excluded.clear();
        }
        self.sort(&mut scratch.keyed, &mut out.ranked, requester, policy, rng);
        scratch.pathless = pathless;
    }

    /// The single shortest route between two hosts over this epoch — the
    /// path every `k_paths = 1` estimate is priced along, and the head of
    /// every k-path set. `None` when either host is unknown or they are
    /// disconnected; a host's path to itself is trivial.
    pub fn learned_path(
        &self,
        scratch: &mut SnapshotScratch,
        from: u32,
        to: u32,
    ) -> Option<Vec<NetNode>> {
        if from == to {
            return Some(vec![NetNode::Host(from)]);
        }
        scratch.bind(self);
        let from = self.node_id(NetNode::Host(from))?;
        let to = self.node_id(NetNode::Host(to))?;
        self.ensure_sssp(scratch, from);
        let mut path = Vec::new();
        walk_prev(&scratch.prev, &scratch.dist, from, to, &mut path)
            .then(|| path.iter().map(|&i| self.topo.nodes[i as usize]).collect())
    }

    /// Is `host` a probe origin that has gone silent beyond the horizon?
    /// Pure function of the snapshot's origin table and the query `now`
    /// — exactly `IntCollector::silent_origins` membership.
    fn is_silent(&self, host: u32, now_ns: u64) -> bool {
        match self.origins.binary_search_by_key(&host, |&(o, _)| o) {
            Ok(i) => {
                now_ns.saturating_sub(self.origins[i].1) > self.cfg.origin_silence_ns
            }
            Err(_) => false,
        }
    }

    /// Estimate one candidate (dense id `to`) for the requester (dense
    /// id `from`, `None` when unknown to the epoch). With `k_paths ≤ 1`
    /// the figures are read off the requester's priced row, which
    /// [`SchedSnapshot::rank_detailed_into`] ensured. With `k_paths > 1`,
    /// resolve the whole k-set (identical to [`NetworkMap::k_paths`]) and
    /// report the cheapest path's figures, ties breaking to the lowest
    /// path index; both figures come from that one winning path.
    fn estimate(
        &self,
        scratch: &mut SnapshotScratch,
        from: Option<u32>,
        to: u32,
        host: u32,
        now_ns: u64,
    ) -> RankedServer {
        let unreachable = RankedServer { host, est_delay_ns: u64::MAX, est_bandwidth_bps: 0 };
        let Some(from) = from else { return unreachable };
        let best = if self.cfg.k_paths <= 1 {
            scratch.row[to as usize].map(Priced::figures)
        } else if self.ensure_k_paths(scratch, from, to) {
            let kset = scratch.kcache.get(&(from, to)).expect("just ensured");
            let mut best = (u64::MAX, 0);
            for path in kset {
                let (d, bw) = self.price_path(path, now_ns);
                if d < best.0 {
                    best = (d, bw);
                }
            }
            Some(best)
        } else {
            None
        };
        best.map_or(unreachable, |(est_delay_ns, est_bandwidth_bps)| RankedServer {
            host,
            est_delay_ns,
            est_bandwidth_bps,
        })
    }

    /// Price one resolved dense-id path with the frozen per-arc evidence,
    /// mirroring `DelayEstimator`/`BandwidthEstimator::estimate_along`:
    /// [`SchedSnapshot::price_arc`] folded along the path.
    fn price_path(&self, path: &[u32], now_ns: u64) -> (u64, u64) {
        path.windows(2)
            .fold(self.origin_price(), |acc, w| {
                let ai = self.arc_index(w[0], w[1]).expect("path arcs exist in the CSR");
                self.price_arc(acc, w[0], ai, now_ns)
            })
            .figures()
    }

    /// The price of the empty path at a row's source.
    fn origin_price(&self) -> Priced {
        Priced { link_ns: 0, hop_ns: 0, bw_bps: self.cfg.link_capacity_bps }
    }

    /// Extend a path's running price by arc `ai` out of node `u`: the
    /// link delay always, the `k · Q(h)` hop term and bandwidth cap when
    /// `u` is a switch. Saturating throughout, so 8+-hop fabric paths
    /// with saturated link estimates pin at the ceiling, not wrap.
    fn price_arc(&self, acc: Priced, u: u32, ai: usize, now_ns: u64) -> Priced {
        let mut p = acc;
        p.link_ns = p.link_ns.saturating_add(self.est_delay[ai]);
        if matches!(self.topo.nodes[u as usize], NetNode::Switch(_)) {
            let q = self.arc_qlen(ai, now_ns);
            p.hop_ns = p.hop_ns.saturating_add(self.cfg.k_ns_per_pkt.saturating_mul(q as u64));
            p.bw_bps = p.bw_bps.min(self.cfg.available_bw_for_qlen(q));
        }
        p
    }

    /// Fill (or reuse) the priced row of `source` at `now_ns`: every
    /// node's price along its shortest-path-tree route from `source`.
    /// One pass over the SSSP's settle order suffices — a node settles
    /// after its predecessor, so `row[v] = price_arc(row[prev[v]], …)`
    /// always reads a finished entry, and the fold runs in path order,
    /// bit-identical to [`SchedSnapshot::price_path`] over the extracted
    /// route. Queue terms depend on `now_ns` (staleness, window), so the
    /// row is keyed on it as well as on the source and epoch.
    fn ensure_row(&self, scratch: &mut SnapshotScratch, source: u32, now_ns: u64) {
        if scratch.row_key == Some((now_ns, source)) {
            scratch.stats.cache_hits += 1;
            return;
        }
        scratch.stats.cache_misses += 1;
        self.ensure_sssp(scratch, source);
        scratch.row.clear();
        scratch.row.resize(self.topo.nodes.len(), None);
        scratch.row[source as usize] = Some(self.origin_price());
        for &v in &scratch.order[1..] {
            let u = scratch.prev[v as usize];
            let acc = scratch.row[u as usize].expect("a predecessor settles first");
            let ai = scratch.prev_arc[v as usize] as usize;
            scratch.row[v as usize] = Some(self.price_arc(acc, u, ai, now_ns));
        }
        scratch.row_key = Some((now_ns, source));
    }

    /// Resolve (and cache) the k-path set for `from → to` into the
    /// scratch, mirroring [`NetworkMap::k_paths`]: first path from the
    /// shared SSSP, successors from masked Dijkstra runs with the
    /// previous paths' interior switch–switch edges banned. Returns
    /// false when disconnected (cached as an empty set).
    fn ensure_k_paths(&self, scratch: &mut SnapshotScratch, from: u32, to: u32) -> bool {
        if let Some(kset) = scratch.kcache.get(&(from, to)) {
            scratch.stats.cache_hits += 1;
            return !kset.is_empty();
        }
        scratch.stats.cache_misses += 1;
        let mut out: Vec<Vec<u32>> = Vec::new();
        // First path straight off the shared SSSP into the cache-owned Vec.
        self.ensure_sssp(scratch, from);
        let mut first = Vec::new();
        if walk_prev(&scratch.prev, &scratch.dist, from, to, &mut first) {
            out.push(first);
            scratch.arc_mask.clear();
            scratch.arc_mask.resize(self.topo.cols.len(), false);
            for _ in 1..self.cfg.k_paths {
                let last = out.last().expect("non-empty");
                self.ban_interior_edges(scratch, last);
                let Some(p) = self.masked_path(scratch, from, to) else { break };
                if out.contains(&p) {
                    break;
                }
                out.push(p);
            }
        }
        let ok = !out.is_empty();
        scratch.kcache.insert((from, to), out);
        ok
    }

    /// Mask both arc directions of every interior switch–switch edge of
    /// a path (host attachment edges are never banned).
    fn ban_interior_edges(&self, scratch: &mut SnapshotScratch, path: &[u32]) {
        for w in path.windows(2) {
            let (u, v) = (w[0], w[1]);
            if matches!(self.topo.nodes[u as usize], NetNode::Switch(_))
                && matches!(self.topo.nodes[v as usize], NetNode::Switch(_))
            {
                for (a, b) in [(u, v), (v, u)] {
                    if let Some(ai) = self.arc_index(a, b) {
                        scratch.arc_mask[ai] = true;
                    }
                }
            }
        }
    }

    /// Point-to-point Dijkstra honouring `scratch.arc_mask`, over the
    /// masked scratch buffers — never the shared SSSP's, so memoized
    /// single-path state survives. Tie-breaks equal the shared SSSP's.
    fn masked_path(&self, scratch: &mut SnapshotScratch, from: u32, to: u32) -> Option<Vec<u32>> {
        let n = self.topo.nodes.len();
        scratch.mdist.clear();
        scratch.mdist.resize(n, u64::MAX);
        scratch.mprev.clear();
        scratch.mprev.resize(n, NO_PREV);
        scratch.heap.clear();

        scratch.mdist[from as usize] = 0;
        scratch.heap.push(Reverse((0, from)));
        while let Some(Reverse((d, u))) = scratch.heap.pop() {
            if scratch.mdist[u as usize] < d {
                continue;
            }
            if u == to {
                break;
            }
            for i in self.topo.row[u as usize] as usize..self.topo.row[u as usize + 1] as usize {
                if scratch.arc_mask[i] {
                    continue;
                }
                let v = self.topo.cols[i];
                let nd = d.saturating_add(self.weights[i]);
                if nd < scratch.mdist[v as usize] {
                    scratch.mdist[v as usize] = nd;
                    scratch.mprev[v as usize] = u;
                    scratch.heap.push(Reverse((nd, v)));
                }
            }
        }
        scratch.heap.clear(); // early exit can leave stale entries behind
        let mut path = Vec::new();
        walk_prev(&scratch.mprev, &scratch.mdist, from, to, &mut path).then_some(path)
    }

    /// Run (or reuse) the shared single-source Dijkstra from `source` in
    /// the scratch buffers, recording each node's predecessor arc and the
    /// settle order. One run serves every `(source, *)` extraction and
    /// priced row of the epoch; tie-breaks match `NetworkMap::path`
    /// (module docs).
    fn ensure_sssp(&self, scratch: &mut SnapshotScratch, source: u32) {
        if scratch.sssp_source == Some(source) {
            return;
        }
        scratch.stats.sssp_runs += 1;
        let n = self.topo.nodes.len();
        scratch.dist.clear();
        scratch.dist.resize(n, u64::MAX);
        scratch.prev.clear();
        scratch.prev.resize(n, NO_PREV);
        scratch.prev_arc.resize(n, 0);
        scratch.order.clear();
        scratch.heap.clear();

        scratch.dist[source as usize] = 0;
        scratch.heap.push(Reverse((0, source)));
        while let Some(Reverse((d, u))) = scratch.heap.pop() {
            if scratch.dist[u as usize] < d {
                continue; // stale heap entry
            }
            scratch.order.push(u);
            for i in self.topo.row[u as usize] as usize..self.topo.row[u as usize + 1] as usize {
                let v = self.topo.cols[i];
                let nd = d.saturating_add(self.weights[i]);
                if nd < scratch.dist[v as usize] {
                    scratch.dist[v as usize] = nd;
                    scratch.prev[v as usize] = u;
                    scratch.prev_arc[v as usize] = i as u32;
                    scratch.heap.push(Reverse((nd, v)));
                }
            }
        }
        scratch.sssp_source = Some(source);
    }

    /// Dense id of a node, if it is part of the snapshot.
    fn node_id(&self, n: NetNode) -> Option<u32> {
        self.topo.nodes.binary_search(&n).ok().map(|i| i as u32)
    }

    /// Index of the `u → v` arc in the CSR (binary search within the row).
    fn arc_index(&self, u: u32, v: u32) -> Option<usize> {
        let start = self.topo.row[u as usize] as usize;
        let end = self.topo.row[u as usize + 1] as usize;
        self.topo.cols[start..end].binary_search(&v).ok().map(|i| start + i)
    }

    /// Effective queue length of an arc at `now_ns` — the frozen-evidence
    /// equivalent of [`NetworkMap::effective_qlen`].
    fn arc_qlen(&self, ai: usize, now_ns: u64) -> u32 {
        let a = self.arc_q[ai];
        if !a.present {
            return 0;
        }
        if now_ns.saturating_sub(a.updated_ns) > self.cfg.staleness_ns {
            return 0; // stale measurements read as an empty queue
        }
        match self.cfg.hop_signal {
            HopSignal::MaxQueue => {
                let cutoff = now_ns.saturating_sub(self.cfg.qlen_window_ns);
                let start = a.hist_start as usize;
                self.qlen_hist[start..start + a.hist_len as usize]
                    .iter()
                    .filter(|(ts, _)| *ts >= cutoff)
                    .map(|(_, q)| *q)
                    .max()
                    .unwrap_or(0)
            }
            HopSignal::InstantaneousQueue => a.at_probe_pkts,
        }
    }

    /// Order `out` best-first. Every key ends in the host id, so keys are
    /// unique and `sort_unstable` orders exactly as a stable sort would,
    /// without its scratch allocation. Nearest looks each candidate's
    /// static distance up once, into the reusable `keyed` buffer, rather
    /// than once per comparison.
    fn sort(
        &self,
        keyed: &mut Vec<(u32, RankedServer)>,
        out: &mut [RankedServer],
        requester: u32,
        policy: Policy,
        rng: &mut SmallRng,
    ) {
        match policy {
            Policy::IntDelay => {
                out.sort_unstable_by_key(|s| (s.est_delay_ns, s.host));
            }
            Policy::IntBandwidth => {
                // Bandwidth estimates are coarse (a piecewise curve over
                // integer queue lengths), so ties are common; break them by
                // estimated delay, then host id, instead of herding every
                // equal-bandwidth query onto the lowest host id.
                out.sort_unstable_by_key(|s| {
                    (Reverse(s.est_bandwidth_bps), s.est_delay_ns, s.host)
                });
            }
            Policy::Nearest => {
                keyed.clear();
                keyed.extend(out.iter().map(|&s| {
                    (self.distances.get(requester, s.host).unwrap_or(u32::MAX), s)
                }));
                keyed.sort_unstable_by_key(|&(d, s)| (d, s.host));
                for (slot, &(_, s)) in out.iter_mut().zip(keyed.iter()) {
                    *slot = s;
                }
            }
            Policy::Random => out.shuffle(rng),
        }
    }
}

/// Serving counters for one shard's scratch (diagnostics and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotServeStats {
    /// Queries evaluated through this scratch.
    pub queries: u64,
    /// Shared-SSSP runs (once per distinct source per epoch).
    pub sssp_runs: u64,
    /// Priced-row lookups that found the row of the query's `(epoch,
    /// now, source)` already built (one lookup per `k_paths ≤ 1` query);
    /// with `k_paths > 1`, k-path-set cache hits (one per candidate).
    pub cache_hits: u64,
    /// Lookups that had to build the row (or resolve the k-path set).
    pub cache_misses: u64,
}

/// Per-shard mutable state for evaluating queries against a
/// [`SchedSnapshot`]: the reusable Dijkstra buffers and the memoized
/// priced row. One scratch must only ever be used by one thread at a time
/// (each shard owns its own); it revalidates itself against the
/// snapshot's epoch on every query, so handing it snapshots of advancing
/// epochs is safe and cheap.
#[derive(Debug, Default)]
pub struct SnapshotScratch {
    /// Epoch the SSSP/row/k-path state below belongs to.
    epoch: Option<u64>,
    sssp_source: Option<u32>,
    dist: Vec<u64>,
    prev: Vec<u32>,
    /// CSR index of the arc `prev[v] → v`.
    prev_arc: Vec<u32>,
    /// Reachable nodes in the order the SSSP settled them (source first).
    order: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// `(now_ns, source)` the priced row belongs to, within `epoch`.
    row_key: Option<(u64, u32)>,
    /// Price from the row's source to every dense node (`None` =
    /// unreachable); used only when `k_paths ≤ 1`.
    row: Vec<Option<Priced>>,
    /// `(from, to)` → cached k-path set (empty = unreachable); used only
    /// when `k_paths > 1`.
    kcache: BTreeMap<(u32, u32), Vec<Vec<u32>>>,
    /// Per-arc ban mask for successive-exclusion runs.
    arc_mask: Vec<bool>,
    /// Masked-Dijkstra scratch, separate from the shared SSSP's buffers.
    mdist: Vec<u64>,
    mprev: Vec<u32>,
    pathless: Vec<RankedServer>,
    /// Nearest's `(static distance, candidate)` sort buffer.
    keyed: Vec<(u32, RankedServer)>,
    stats: SnapshotServeStats,
}

impl SnapshotScratch {
    /// Fresh scratch (typically one per shard).
    pub fn new() -> Self {
        Self::default()
    }

    /// Serving counters.
    pub fn stats(&self) -> SnapshotServeStats {
        self.stats
    }

    /// Revalidate against `snap`'s epoch: a moved epoch invalidates the
    /// memoized SSSP, priced row and k-path sets (the graph may have
    /// changed).
    fn bind(&mut self, snap: &SchedSnapshot) {
        if self.epoch != Some(snap.epoch) {
            self.epoch = Some(snap.epoch);
            self.sssp_source = None;
            self.row_key = None;
            self.kcache.clear();
        }
    }
}

/// Publish counters (diagnostics, tests, benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Epochs built by the full O(topology) rebuild.
    pub full_builds: u64,
    /// Epochs built by the O(dirty) incremental patch path.
    pub incremental_builds: u64,
}

/// The epoch publisher: builds each epoch, keeping the previous epochs
/// needed for O(dirty) incremental publication.
///
/// While the map's topology generation holds, each publish starts from
/// the previous epoch's arrays (structure shared via `Arc`, per-epoch
/// arrays recycled from the epoch-before-last when no reader holds it),
/// reprices only the arcs of edges on the map's dirty list, and splices
/// only their `qlen_hist` runs. Any structural change — or a history run
/// outgrowing its reserved slot — falls back to the full rebuild, which
/// remains the reference: an incremental epoch is pinned `content_eq` to
/// what [`SchedSnapshot::build`] produces (`tests/proptest_publish.rs`).
///
/// One publisher serves one map: it drains that map's dirty list, which
/// has a single consumer, and reuses structure keyed on its topology
/// generation alone.
#[derive(Debug)]
pub struct SnapshotPublisher {
    incremental: bool,
    /// Most recently published epoch.
    prev: Option<Arc<SchedSnapshot>>,
    /// Epoch before that — the recycling candidate: once every shard has
    /// moved on, `Arc::try_unwrap` reclaims its arrays for the next build.
    older: Option<Arc<SchedSnapshot>>,
    /// Dirty edges drained from the map for the in-flight publish.
    dirty: Vec<crate::map::EdgeId>,
    /// Dirty set of the *previous* publish (the diff `older → prev`);
    /// recycling `older`'s arrays patches the union of both sets.
    prev_dirty: Vec<crate::map::EdgeId>,
    /// Monotone id source for `SchedSnapshot::layout_gen`.
    layout_counter: u64,
    stats: PublishStats,
}

impl Default for SnapshotPublisher {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotPublisher {
    /// A publisher with incremental publication enabled.
    pub fn new() -> Self {
        SnapshotPublisher {
            incremental: true,
            prev: None,
            older: None,
            dirty: Vec::new(),
            prev_dirty: Vec::new(),
            layout_counter: 0,
            stats: PublishStats::default(),
        }
    }

    /// Force the incremental path on or off. Off, every publish is a full
    /// rebuild — the reference the incremental path is tested and
    /// benchmarked against.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
    }

    /// Publish counters so far.
    pub fn stats(&self) -> PublishStats {
        self.stats
    }

    /// Freeze the collector's current state as epoch `epoch`. Drains the
    /// map's dirty-edge list; takes the incremental path when enabled,
    /// the topology generation is unchanged since the previous publish,
    /// and the publish inputs (cfg/distances) are the same.
    pub fn publish(
        &mut self,
        collector: &mut IntCollector,
        cfg: &Arc<CoreConfig>,
        distances: &Arc<StaticDistances>,
        epoch: u64,
        published_at_ns: u64,
    ) -> Arc<SchedSnapshot> {
        collector.map_mut().take_dirty_into(&mut self.dirty);
        let topo_gen = collector.map().topology_generation();
        let reusable = self.incremental
            && self.prev.as_ref().is_some_and(|p| {
                p.topo_gen == topo_gen
                    && Arc::ptr_eq(&p.cfg, cfg)
                    && Arc::ptr_eq(&p.distances, distances)
            });
        let snap = if reusable {
            match self.build_incremental(collector, cfg, epoch, published_at_ns) {
                Some(s) => {
                    self.stats.incremental_builds += 1;
                    s
                }
                None => self.full(collector, cfg, distances, epoch, published_at_ns),
            }
        } else {
            self.full(collector, cfg, distances, epoch, published_at_ns)
        };
        let snap = Arc::new(snap);
        self.older = self.prev.take();
        self.prev = Some(Arc::clone(&snap));
        // The in-flight dirty set becomes the `older → prev` diff.
        std::mem::swap(&mut self.prev_dirty, &mut self.dirty);
        snap
    }

    /// The full-rebuild path: reuses the previous epoch's structure while
    /// the topology generation holds (rebuilding the CSR otherwise),
    /// pre-sizes `qlen_hist` from the previous epoch, and stamps a fresh
    /// slot-layout id.
    fn full(
        &mut self,
        collector: &IntCollector,
        cfg: &Arc<CoreConfig>,
        distances: &Arc<StaticDistances>,
        epoch: u64,
        published_at_ns: u64,
    ) -> SchedSnapshot {
        self.stats.full_builds += 1;
        self.layout_counter += 1;
        let map = collector.map();
        let topo = match &self.prev {
            Some(p) if p.topo_gen == map.topology_generation() => Arc::clone(&p.topo),
            _ => Arc::new(CsrTopo::build(map)),
        };
        let hist_hint = self.prev.as_ref().map_or(0, |p| p.qlen_hist.len());
        SchedSnapshot::build_full(
            collector,
            topo,
            cfg,
            distances,
            epoch,
            published_at_ns,
            hist_hint,
            self.layout_counter,
        )
    }

    /// The O(dirty) path: start from the previous epoch's arrays and
    /// reprice only the dirty edges' arcs. Returns `None` (caller falls
    /// back to the full rebuild) if any history run outgrew its slot or
    /// a dirty edge can no longer be resolved against the structure.
    fn build_incremental(
        &mut self,
        collector: &IntCollector,
        cfg: &CoreConfig,
        epoch: u64,
        published_at_ns: u64,
    ) -> Option<SchedSnapshot> {
        let map = collector.map();
        let prev = self.prev.as_ref().expect("incremental requires a previous epoch");

        // Reclaim the epoch-before-last's arrays if no reader holds them.
        let spare = self.older.take().and_then(|a| Arc::try_unwrap(a).ok());
        // `spare` differing from `prev` exactly by `prev_dirty` (same slot
        // layout, consecutive epochs) patches the union of both dirty sets
        // in place and copies nothing. Otherwise the previous epoch is
        // copied wholesale, into the spare's allocations when there are any.
        let patch_union = spare
            .as_ref()
            .is_some_and(|s| s.layout_gen == prev.layout_gen && s.epoch + 1 == prev.epoch);
        let (mut weights, mut est_delay, mut arc_q, mut qlen_hist, mut origins) = spare
            .map(|s| (s.weights, s.est_delay, s.arc_q, s.qlen_hist, s.origins))
            .unwrap_or_default();
        if !patch_union {
            weights.clone_from(&prev.weights);
            est_delay.clone_from(&prev.est_delay);
            arc_q.clone_from(&prev.arc_q);
            qlen_hist.clone_from(&prev.qlen_hist);
        }

        // Patch is idempotent per edge (recomputed from the current map),
        // so overlapping union entries are harmless.
        let lists: &[&[crate::map::EdgeId]] =
            if patch_union { &[&self.prev_dirty, &self.dirty] } else { &[&self.dirty] };
        for list in lists {
            for &id in *list {
                patch_edge(map, cfg, prev, id, &mut weights, &mut est_delay, &mut arc_q, &mut qlen_hist)?;
            }
        }

        origins.clear();
        origins.extend(
            collector
                .origin_stats_all()
                .filter(|(_, st)| st.received > 0)
                .map(|(o, st)| (o, st.last_rx_ns)),
        );

        Some(SchedSnapshot {
            epoch,
            published_at_ns,
            cfg: Arc::clone(&prev.cfg),
            distances: Arc::clone(&prev.distances),
            topo: Arc::clone(&prev.topo),
            topo_gen: prev.topo_gen,
            layout_gen: prev.layout_gen,
            weights,
            est_delay,
            arc_q,
            qlen_hist,
            origins,
        })
    }
}

/// Reprice both CSR arc orientations of one dirty edge from the current
/// map state: traversal weight, unclamped estimate delay, and queue
/// evidence (history run spliced into the arc's reserved slot). Returns
/// `None` when the arc's slot can't absorb the run (or the edge/nodes
/// can't be resolved), signalling a full rebuild.
#[allow(clippy::too_many_arguments)]
fn patch_edge(
    map: &NetworkMap,
    cfg: &CoreConfig,
    prev: &SchedSnapshot,
    id: crate::map::EdgeId,
    weights: &mut [u64],
    est_delay: &mut [u64],
    arc_q: &mut [ArcQlen],
    qlen_hist: &mut [(u64, u32)],
) -> Option<()> {
    // A dirty edge that died implies an eviction, which bumps `topo_gen`
    // and routes to the full rebuild — reaching here means stale state.
    let (a, b, _) = map.edge_by_id(id)?;
    let ia = prev.node_id(a)?;
    let ib = prev.node_id(b)?;
    // Evidence on edge (a,b) feeds arc (a,b) directly and arc (b,a) via
    // the reverse-direction fallback: recompute both orientations.
    for (u, v) in [(ia, ib), (ib, ia)] {
        let Some(ai) = prev.arc_index(u, v) else { continue };
        let from = prev.topo.nodes[u as usize];
        let to = prev.topo.nodes[v as usize];
        let est = map.effective_delay_ns(cfg, from, to).unwrap_or(cfg.unmeasured_delay_ns);
        est_delay[ai] = est;
        weights[ai] = est.max(1);
        // Same edge resolution as `resolve_qlen`.
        let edge = map.edge(from, to).or_else(|| {
            if cfg.direction_fallback == DirectionFallback::ReverseOk {
                map.edge(to, from)
            } else {
                None
            }
        });
        if let Some(e) = edge {
            let q = &mut arc_q[ai];
            let len = e.qlen_history.len();
            if !q.present || len > q.hist_cap as usize {
                return None; // structure drifted or run outgrew its slot
            }
            let start = q.hist_start as usize;
            qlen_hist[start..start + len].copy_from_slice(&e.qlen_history);
            q.hist_len = len as u32;
            q.updated_ns = e.qlen_updated_ns;
            q.at_probe_pkts = e.qlen_at_probe_pkts;
        }
        // `edge == None` (Strict fallback, unprobed orientation) leaves
        // the arc's `NO_QLEN` evidence untouched — same as a full build.
    }
    Some(())
}

/// Walk a Dijkstra predecessor chain from `to` back to `from` into `out`
/// (endpoints included, forward order). Returns false (clearing `out`)
/// when `to` is unreachable.
fn walk_prev(prev: &[u32], dist: &[u64], from: u32, to: u32, out: &mut Vec<u32>) -> bool {
    out.clear();
    if dist[to as usize] == u64::MAX {
        return false;
    }
    out.push(to);
    let mut cur = to;
    while cur != from {
        cur = prev[cur as usize];
        if cur == NO_PREV {
            out.clear();
            return false;
        }
        out.push(cur);
    }
    out.reverse();
    true
}

/// Resolve which directed edge answers queue questions for the `from → to`
/// arc, copying its harvest history into the snapshot's flat store.
fn resolve_qlen(
    map: &NetworkMap,
    cfg: &CoreConfig,
    from: NetNode,
    to: NetNode,
    qlen_hist: &mut Vec<(u64, u32)>,
) -> ArcQlen {
    let edge = map.edge(from, to).or_else(|| {
        if cfg.direction_fallback == DirectionFallback::ReverseOk {
            map.edge(to, from)
        } else {
            None
        }
    });
    let Some(e) = edge else { return NO_QLEN };
    let hist_start = qlen_hist.len() as u32;
    qlen_hist.extend_from_slice(&e.qlen_history);
    let hist_len = (qlen_hist.len() as u32) - hist_start;
    // Reserve headroom (≥4 entries, ~1.5× the current run) so incremental
    // publishes can splice a grown run in place; pad with inert entries.
    let hist_cap = hist_len + (hist_len / 2).max(4);
    qlen_hist.resize(hist_start as usize + hist_cap as usize, (0, 0));
    ArcQlen {
        present: true,
        updated_ns: e.qlen_updated_ns,
        at_probe_pkts: e.qlen_at_probe_pkts,
        hist_start,
        hist_len,
        hist_cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{BandwidthEstimator, DelayEstimator};
    use crate::sched::SchedulerCore;
    use int_packet::int::IntRecord;
    use int_packet::ProbePayload;
    use rand::SeedableRng;

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

    fn probe(origin: u32, seq: u64, chain: &[(u32, u32)]) -> ProbePayload {
        let mut p = ProbePayload::new(origin, seq, 0);
        for (i, &(sw, q)) in chain.iter().enumerate() {
            p.int.push(rec(sw, q, (i as u64 + 1) * 11));
        }
        p
    }

    fn distances() -> StaticDistances {
        let mut d = StaticDistances::new();
        d.set(6, 1, 3);
        d.set(6, 2, 5);
        d
    }

    /// A scheduler with two servers behind distinct switch chains, one
    /// congested — the same shape the sched tests use.
    fn core_with(cfg: CoreConfig) -> SchedulerCore {
        let mut core = SchedulerCore::new(6, cfg, distances(), 42);
        core.collector_mut().ingest(&probe(1, 1, &[(10, 20), (11, 0)]), 32_000_000);
        core.collector_mut().ingest(&probe(2, 1, &[(12, 0), (11, 0)]), 32_000_000);
        core
    }

    fn snap_of(core: &SchedulerCore, epoch: u64, at: u64) -> SchedSnapshot {
        SchedSnapshot::build(core.collector(), &core.config_arc(), &core.distances_arc(), epoch, at)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    /// The documented ranking rule evaluated straight off the live map:
    /// reference routes (`NetworkMap::k_paths`), reference estimators,
    /// collector silence, warm-up fallback, and the sort keys. Covers the
    /// deterministic policies only.
    fn reference(core: &SchedulerCore, requester: u32, policy: Policy, now: u64) -> RankOutcome {
        let cfg = core.config();
        let map = core.collector().map();
        let (de, be) = (DelayEstimator::new(cfg.clone()), BandwidthEstimator::new(cfg.clone()));
        let estimate = |host: u32| {
            let mut best = RankedServer { host, est_delay_ns: u64::MAX, est_bandwidth_bps: 0 };
            let paths =
                map.k_paths(cfg, NetNode::Host(requester), NetNode::Host(host), cfg.k_paths);
            for path in &paths {
                let d = de.estimate_along(map, path, now).total_ns().min(u64::MAX - 1);
                if d < best.est_delay_ns {
                    best.est_delay_ns = d;
                    best.est_bandwidth_bps = be.estimate_along(map, path, now);
                }
            }
            best
        };
        let silent = core.collector().silent_origins(now, cfg.origin_silence_ns);
        let mut out = RankOutcome::default();
        for host in map.hosts().filter(|&h| h != requester) {
            let est = estimate(host);
            if policy == Policy::Nearest {
                out.ranked.push(est);
            } else if silent.contains(&host) {
                out.excluded.push((host, ExcludeReason::OriginSilent));
            } else if est.est_delay_ns == u64::MAX {
                out.excluded.push((host, ExcludeReason::NoFreshPath));
            } else {
                out.ranked.push(est);
            }
        }
        if out.ranked.is_empty() && out.excluded.iter().all(|e| e.1 == ExcludeReason::NoFreshPath) {
            out.ranked = out.excluded.drain(..).map(|(h, _)| estimate(h)).collect();
        }
        let d = distances();
        match policy {
            Policy::IntDelay => out.ranked.sort_by_key(|s| (s.est_delay_ns, s.host)),
            Policy::IntBandwidth => {
                out.ranked.sort_by_key(|s| (Reverse(s.est_bandwidth_bps), s.est_delay_ns, s.host))
            }
            _ => out.ranked.sort_by_key(|s| (d.get(requester, s.host).unwrap_or(u32::MAX), s.host)),
        }
        out
    }

    #[test]
    fn snapshot_matches_reference_for_all_policies_and_requesters() {
        let core = core_with(CoreConfig::default());
        let now = 32_000_000;
        let snap = snap_of(&core, 1, now);
        let mut scratch = SnapshotScratch::new();
        for requester in [6u32, 1, 2] {
            for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
                let want = reference(&core, requester, policy, now);
                let got = snap.rank_detailed(&mut scratch, requester, policy, now, &mut rng());
                assert_eq!(got, want, "{requester} {policy:?}");
            }
        }
        let best = snap.rank_detailed(&mut scratch, 6, Policy::IntDelay, now, &mut rng());
        assert_eq!(best.ranked[0].host, 2, "the uncongested server wins");
    }

    #[test]
    fn snapshot_honours_staleness_at_query_time() {
        // Silence horizon widened so the only time-dependent effect in
        // play is queue staleness (defaults tie both at 3 s).
        let core =
            core_with(CoreConfig { origin_silence_ns: 60_000_000_000, ..CoreConfig::default() });
        let now = 32_000_000;
        let snap = snap_of(&core, 1, now);
        let mut scratch = SnapshotScratch::new();
        // Query far past the staleness horizon (but before eviction):
        // queues read as empty, so the congested server's hop penalty
        // vanishes even though the snapshot was frozen long before.
        let later = now + 4_000_000_000; // > 3 s staleness, < 10 s eviction
        let want = reference(&core, 6, Policy::IntDelay, later);
        let got = snap.rank_detailed(&mut scratch, 6, Policy::IntDelay, later, &mut rng());
        assert_eq!(got, want);
        assert_eq!(got.ranked.len(), 2);
        assert_eq!(
            got.ranked[0].est_delay_ns, got.ranked[1].est_delay_ns,
            "stale queues erase the congestion difference"
        );
    }

    #[test]
    fn snapshot_excludes_silent_origins_by_query_now() {
        let mut core = core_with(CoreConfig::default());
        // Server 2 keeps probing; server 1 goes dark.
        let ms = 1_000_000u64;
        for i in 1..=60u64 {
            core.collector_mut()
                .ingest(&probe(2, 1 + i, &[(12, 0), (11, 0)]), 32 * ms + i * 100 * ms);
        }
        let now = 32 * ms + 6_000 * ms; // ≫ 3 s silence horizon for origin 1
        let horizon = core.config().eviction_horizon_ns;
        core.collector_mut().map_mut().evict_stale(now, horizon);
        let snap = snap_of(&core, 3, now);
        let mut scratch = SnapshotScratch::new();
        let want = reference(&core, 6, Policy::IntDelay, now);
        let got = snap.rank_detailed(&mut scratch, 6, Policy::IntDelay, now, &mut rng());
        assert_eq!(got, want);
        assert_eq!(got.excluded, vec![(1, ExcludeReason::OriginSilent)]);
    }

    #[test]
    fn scratch_shares_one_sssp_per_source_and_one_row_per_now() {
        let core = core_with(CoreConfig::default());
        let snap = snap_of(&core, 1, 32_000_000);
        let mut scratch = SnapshotScratch::new();
        for _ in 0..10 {
            snap.rank_detailed(&mut scratch, 6, Policy::IntDelay, 32_000_000, &mut rng());
        }
        let s = scratch.stats();
        assert_eq!(s.sssp_runs, 1, "one Dijkstra serves every query from host 6");
        assert_eq!(s.cache_misses, 1, "one priced row per (epoch, now, source)");
        assert_eq!(s.cache_hits, 9, "repeat queries reuse the row");
        // A new `now` reprices the row off the same Dijkstra.
        snap.rank_detailed(&mut scratch, 6, Policy::Nearest, 33_000_000, &mut rng());
        let s = scratch.stats();
        assert_eq!((s.sssp_runs, s.cache_misses, s.cache_hits), (1, 2, 9));
    }

    #[test]
    fn random_policy_shuffles_host_order_with_the_callers_rng() {
        let core = core_with(CoreConfig::default());
        let snap = snap_of(&core, 1, 32_000_000);
        let mut scratch = SnapshotScratch::new();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16 {
            let mut r = SmallRng::seed_from_u64(seed);
            let got = snap.rank_detailed(&mut scratch, 6, Policy::Random, 32_000_000, &mut r);
            let mut want = vec![1u32, 2];
            want.shuffle(&mut SmallRng::seed_from_u64(seed));
            let hosts: Vec<u32> = got.ranked.iter().map(|s| s.host).collect();
            assert_eq!(hosts, want, "seed {seed}");
            seen.insert(hosts);
        }
        assert!(seen.len() > 1, "the shuffle actually varies with the RNG");
    }

    #[test]
    fn k_path_snapshot_matches_reference_under_multipath_config() {
        // Two disjoint routes 1↔6 (one congested) plus a second server —
        // with k_paths = 2 both routes are priced and the cheaper wins.
        let cfg = CoreConfig { k_paths: 2, ..CoreConfig::default() };
        let mut core = SchedulerCore::new(6, cfg, distances(), 42);
        core.collector_mut().ingest(&probe(1, 1, &[(10, 20), (11, 0)]), 32_000_000);
        core.collector_mut().ingest(&probe(1, 2, &[(12, 0), (13, 0)]), 33_000_000);
        core.collector_mut().ingest(&probe(2, 1, &[(14, 5), (11, 0)]), 32_000_000);
        let now = 33_000_000;
        let snap = snap_of(&core, 1, now);
        let mut scratch = SnapshotScratch::new();
        for requester in [6u32, 1, 2] {
            for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
                let want = reference(&core, requester, policy, now);
                let got = snap.rank_detailed(&mut scratch, requester, policy, now, &mut rng());
                assert_eq!(got, want, "{requester} {policy:?}");
            }
        }
    }

    #[test]
    fn warm_up_ranks_every_pathless_candidate_in_host_order() {
        let mut core = SchedulerCore::new(6, CoreConfig::default(), StaticDistances::new(), 1);
        for h in [5, 3, 9] {
            core.register_host(h);
        }
        let snap = snap_of(&core, 1, 0);
        let mut scratch = SnapshotScratch::new();
        let got = snap.rank_detailed(&mut scratch, 9, Policy::IntDelay, 0, &mut rng());
        assert_eq!(got, reference(&core, 9, Policy::IntDelay, 0));
        let hosts: Vec<u32> = got.ranked.iter().map(|s| s.host).collect();
        assert_eq!(hosts, vec![3, 5, 6], "equal (unreachable) keys fall back to host order");
        assert!(got.ranked.iter().all(|s| s.est_delay_ns == u64::MAX && s.est_bandwidth_bps == 0));
        assert!(got.excluded.is_empty());
    }

    #[test]
    fn learned_path_is_the_reference_route() {
        let core = core_with(CoreConfig::default());
        let snap = snap_of(&core, 1, 32_000_000);
        let cfg = core.config();
        let map = core.collector().map();
        let mut scratch = SnapshotScratch::new();
        for (from, to) in [(6u32, 1u32), (1, 6), (1, 2), (1, 42), (42, 1), (42, 42)] {
            let want = map.path(cfg, NetNode::Host(from), NetNode::Host(to));
            assert_eq!(snap.learned_path(&mut scratch, from, to), want, "{from}->{to}");
        }
        assert_eq!(
            snap.learned_path(&mut scratch, 42, 42),
            Some(vec![NetNode::Host(42)]),
            "self paths need no map knowledge"
        );
    }
}
