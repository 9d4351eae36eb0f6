//! Steady-state rank queries perform **zero heap allocations**.
//!
//! A counting allocator wraps the system allocator (this integration test
//! is its own binary, so the `#[global_allocator]` is scoped to it). After
//! one warm-up query per (requester, policy) — which publishes the epoch
//! snapshot, runs the shared Dijkstra, and sizes the priced row and the
//! Nearest sort buffer — every further query into a reused buffer against
//! an unchanged map, at a `now` that moves every round (so the row is
//! repriced in place), must touch only reused scratch and sort in place.
//!
//! Single test function on purpose: parallel tests would interleave their
//! allocations into the shared counter.

use int_edge_sched::core::rank::{RankOutcome, StaticDistances};
use int_edge_sched::core::snapshot::SnapshotScratch;
use int_edge_sched::core::{CoreConfig, Policy, RankedServer, SchedulerCore};
use int_edge_sched::packet::int::IntRecord;
use int_edge_sched::packet::ProbePayload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Only the test thread's allocations count — the libtest harness threads
// allocate at their own pace (progress output, channel bookkeeping) and
// would make the counter flaky. `Cell<bool>` has no destructor, so the
// TLS access inside the allocator cannot itself allocate or recurse.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counted(here: bool) -> bool {
    COUNTING.try_with(|c| c.replace(here)).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Testbed-scale probes: 8 servers, each behind its own leaf switch, all
/// joined by spine switch 20 next to scheduler host 100.
fn probes(seq: u64) -> Vec<ProbePayload> {
    (0..8u32)
        .map(|h| {
            let mut p = ProbePayload::new(h, seq, 0);
            for (i, sw) in [10 + h, 20].into_iter().enumerate() {
                p.int.push(IntRecord {
                    switch_id: sw,
                    ingress_port: 0,
                    egress_port: 1,
                    max_qlen_pkts: h * 3,
                    qlen_at_probe_pkts: h,
                    link_latency_ns: 10_000_000,
                    egress_ts_ns: (i as u64 + 1) * 10_000_000,
                });
            }
            p
        })
        .collect()
}

/// Static hop counts from scheduler host 100, so Nearest sorts on real
/// keys rather than all-`u32::MAX` ones.
fn distances() -> StaticDistances {
    let mut d = StaticDistances::new();
    for h in 0..8u32 {
        d.set(100, h, 2 + (h * 5) % 3);
    }
    d
}

#[test]
fn steady_state_rank_queries_allocate_nothing() {
    // The scheduler-level `_into` entry points: the full query path —
    // eviction check, publish-key check, snapshot evaluation with
    // silence and exclusions — reuses internal scratch and the caller's
    // buffers, so it is alloc-free.
    let mut core = SchedulerCore::new(100, CoreConfig::default(), distances(), 1);
    core.collector_mut().ingest_batch(&probes(1), 30_000_000);
    let mut detailed = RankOutcome::default();
    let mut ranked: Vec<RankedServer> = Vec::new();
    // Warm-up grows every buffer (including the audit-off fast path).
    for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
        core.rank_detailed_into_with(100, policy, 30_000_000, &mut detailed);
        core.rank_with_into(100, policy, 30_000_000, &mut ranked);
    }
    core.candidates_with_estimates_into(100, 30_000_000, &mut ranked);
    let warm = core.path_stats();
    assert_eq!(warm.sssp_runs, 1, "every policy shares one Dijkstra");
    assert_eq!((warm.cache_misses, warm.cache_hits), (1, 6), "one priced row serves all 7");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    counted(true);
    for round in 1..=1_000u64 {
        let now = 30_000_000 + round;
        core.rank_detailed_into_with(100, Policy::IntDelay, now, &mut detailed);
        core.rank_with_into(100, Policy::IntBandwidth, now, &mut ranked);
        core.rank_with_into(100, Policy::Nearest, now, &mut ranked);
        core.candidates_with_estimates_into(100, now, &mut ranked);
    }
    counted(false);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state scheduler `_into` queries must not touch the heap"
    );
    assert!(!detailed.ranked.is_empty());
    let steady = core.path_stats();
    assert_eq!(steady.sssp_runs, warm.sssp_runs, "no extra Dijkstra runs");
    assert_eq!(
        steady.cache_misses,
        warm.cache_misses + 1_000,
        "each round's new `now` reprices the row once"
    );
    assert_eq!(
        steady.cache_hits,
        warm.cache_hits + 3 * 1_000,
        "the round's other three queries reuse it"
    );

    // Snapshot serving (the sharded read path): after one warm-up query
    // fills the per-shard scratch, repeat queries are alloc-free as well.
    let mut sharded = int_edge_sched::core::shard::ShardedScheduler::new(
        100,
        CoreConfig::default(),
        distances(),
        1,
        1,
    );
    sharded.core_mut().collector_mut().ingest_batch(&probes(2), 30_000_000);
    sharded.advance(30_000_000);
    let snap = sharded.epoch_slot().current().expect("published");
    let mut scratch = SnapshotScratch::new();
    let mut rng = SmallRng::seed_from_u64(1);
    for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
        snap.rank_detailed_into(&mut scratch, 100, policy, 30_000_000, &mut rng, &mut detailed);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    counted(true);
    for round in 1..=1_000u64 {
        let now = 30_000_000 + round;
        for policy in [Policy::IntDelay, Policy::IntBandwidth, Policy::Nearest] {
            snap.rank_detailed_into(&mut scratch, 100, policy, now, &mut rng, &mut detailed);
        }
    }
    counted(false);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state snapshot queries must not touch the heap"
    );
    assert!(!detailed.ranked.is_empty());
    let hosts: Vec<u32> = detailed.ranked.iter().map(|s| s.host).collect();
    assert_eq!(hosts, [0, 3, 6, 2, 5, 1, 4, 7], "Nearest orders by (hops, host)");
    let s = scratch.stats();
    assert_eq!((s.sssp_runs, s.cache_misses, s.cache_hits), (1, 1_001, 2 * 1_001));
}
