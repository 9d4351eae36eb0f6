//! `testbed`: the paper's own cell — Fig. 5 serverless jobs under
//! `Policy::IntDelay` at paper size (200 tasks) on the 8-host / 12-switch
//! ring, with iperf background traffic and all-pairs 100 ms probing, in
//! one thread.
//!
//! The cell is assembled from the same public pieces `runner::run` and
//! `Testbed::new` use, in the same order, so set-up can be timed on its
//! own and every app can be wrapped for the traced run. The outcome
//! digest must equal the digest of `runner::run`'s result (`pin` mode
//! checks exactly that).

use crate::digest::Digest;
use crate::timed::{Busy, Cat};
use crate::{Layers, Rep};
use int_apps::iperf::{IperfConfig, IperfSenderApp, IPERF_UDP_PORT};
use int_apps::{
    EchoResponderApp, ExecutorConfig, ProbeRelayApp, ProbeSenderApp, SchedulerApp, TaskExecutorApp,
    TaskSubmitterApp, UdpSinkApp,
};
use int_core::rank::StaticDistances;
use int_core::Policy;
use int_experiments::compare::CompareConfig;
use int_experiments::runner::{self, ExperimentConfig, TaskOutcome};
use int_experiments::testbed::{build_topology, SCHEDULER_NODE};
use int_netsim::{
    App, NetStats, NodeId, RouteTable, SimConfig, SimDuration, SimTime, Simulator, Topology,
};
use int_workload::{JobKind, JobSpec, TaskClass, WorkloadGenerator};
use std::time::Instant;

/// One simulated round: the paper's 100 ms probe interval.
const ROUND_NS: u64 = 100_000_000;

/// The experiment configuration of the cell (identical to the IntDelay
/// arm of `repro fig5` for `seed`).
pub fn config(seed: u64) -> ExperimentConfig {
    CompareConfig::paper_default(seed, JobKind::Serverless, Policy::IntDelay)
        .experiment_for(Policy::IntDelay)
}

/// A built cell, ready to run.
struct Cell {
    sim: Simulator,
    scheduler: NodeId,
    scheduler_app: usize,
    /// (node, app index, planned task count) per submitter.
    submitters: Vec<(NodeId, usize, usize)>,
    horizon: SimTime,
    gen_s: f64,
}

/// Install `app`, wrapped for timing when `busy` is set.
fn install(
    sim: &mut Simulator,
    busy: Option<&Busy>,
    cat: Cat,
    node: NodeId,
    app: Box<dyn App>,
) -> usize {
    let app = match busy {
        Some(b) => b.wrap(cat, 0, app),
        None => app,
    };
    sim.install_app(node, app)
}

/// Build the cell: `Testbed::new` followed by `runner::run`'s workload,
/// background and submitter installation, app for app in the same order.
fn build(cfg: &ExperimentConfig, busy: Option<&Busy>) -> Cell {
    let tb = &cfg.testbed;
    let (topo, hosts, _switches) = build_topology(tb.queue_cap_pkts);
    let routes = RouteTable::compute(&topo);
    let mut distances = StaticDistances::new();
    for (i, &a) in hosts.iter().enumerate() {
        for &b in &hosts[i + 1..] {
            if let Some(h) = routes.hop_count(a, b) {
                distances.set(a.0, b.0, h as u32);
            }
        }
    }
    let int_enabled = matches!(cfg.policy, Policy::IntDelay | Policy::IntBandwidth);
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        switch_egress_rate_bps: Some(tb.switch_rate_bps),
        int_enabled,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo, sim_cfg);
    let scheduler = hosts[SCHEDULER_NODE - 1];
    let scheduler_ip = Topology::host_ip(scheduler);

    let mut core = tb.core.clone();
    let iv_ns = cfg.probe_interval.as_nanos();
    core.origin_silence_ns = core.origin_silence_ns.max(5 * iv_ns);
    core.eviction_horizon_ns = core.eviction_horizon_ns.max(10 * iv_ns);
    let sched = SchedulerApp::new(
        scheduler.0,
        cfg.policy,
        core,
        distances,
        cfg.seed ^ 0x5EED_0F00,
    );
    let scheduler_app = install(&mut sim, busy, Cat::Scheduler, scheduler, Box::new(sched));

    for &h in &hosts {
        if int_enabled {
            let targets: Vec<_> = hosts
                .iter()
                .filter(|&&o| o != h)
                .map(|&o| Topology::host_ip(o))
                .collect();
            let probe = ProbeSenderApp::new_multi(targets, cfg.probe_interval);
            install(&mut sim, busy, Cat::Probe, h, Box::new(probe));
            if h != scheduler {
                install(
                    &mut sim,
                    busy,
                    Cat::Probe,
                    h,
                    Box::new(ProbeRelayApp::new(scheduler_ip)),
                );
            }
        }
        let exec_cfg = ExecutorConfig {
            slots: tb.executor_slots,
            order: tb.executor_order,
            report_load_to: tb.executor_report_load.then_some(scheduler_ip),
        };
        install(
            &mut sim,
            busy,
            Cat::Task,
            h,
            Box::new(TaskExecutorApp::with_config(exec_cfg)),
        );
        install(
            &mut sim,
            busy,
            Cat::Iperf,
            h,
            Box::new(UdpSinkApp::new(IPERF_UDP_PORT)),
        );
        install(
            &mut sim,
            busy,
            Cat::Probe,
            h,
            Box::new(EchoResponderApp::new()),
        );
    }
    let host_ids: Vec<u32> = hosts.iter().map(|h| h.0).collect();
    sim.app_mut::<SchedulerApp>(scheduler, scheduler_app)
        .expect("scheduler app just installed")
        .register_hosts(&host_ids);

    // Workload and background schedule, seeded before any policy runs.
    let t_gen = Instant::now();
    let mut wl_cfg = cfg.workload.clone();
    if wl_cfg.submitters.is_empty() {
        wl_cfg.submitters = host_ids.clone();
    }
    let jobs = WorkloadGenerator::new(cfg.seed).generate(&wl_cfg);
    let last_submit = jobs.last().map(|j| j.submit_at_ns).unwrap_or(0);
    let horizon = SimTime(last_submit) + cfg.drain;
    let flows = cfg
        .scenario
        .generate(&host_ids, horizon.as_nanos(), cfg.bg_rate_bps, cfg.seed);
    let gen_s = t_gen.elapsed().as_secs_f64();

    for f in &flows {
        let sender = IperfSenderApp::new(IperfConfig::new(
            Topology::host_ip(NodeId(f.dst)),
            f.rate_bps,
            SimTime(f.start_ns),
            SimDuration::from_nanos(f.duration_ns),
        ));
        install(&mut sim, busy, Cat::Iperf, NodeId(f.src), Box::new(sender));
    }

    let ranking = cfg.ranking_kind();
    let mut submitters = Vec::new();
    for &host in &hosts {
        let mine: Vec<JobSpec> = jobs
            .iter()
            .filter(|j| j.submitter == host.0)
            .cloned()
            .collect();
        if mine.is_empty() {
            continue;
        }
        let planned = mine.iter().map(|j| j.tasks.len()).sum();
        let app = TaskSubmitterApp::new(scheduler_ip, ranking, mine);
        let idx = install(&mut sim, busy, Cat::Task, host, Box::new(app));
        submitters.push((host, idx, planned));
    }
    Cell {
        sim,
        scheduler,
        scheduler_app,
        submitters,
        horizon,
        gen_s,
    }
}

/// Completed outcomes (sorted like `runner::run`) and the incomplete count.
fn harvest(cell: &Cell) -> (Vec<TaskOutcome>, usize) {
    let mut outcomes = Vec::new();
    let mut incomplete = 0usize;
    for &(node, app, planned) in &cell.submitters {
        let sub = cell
            .sim
            .app::<TaskSubmitterApp>(node, app)
            .expect("submitter app");
        for r in &sub.records {
            match (r.transfer_time(), r.completion_time(), r.server) {
                (Some(t), Some(c), Some(server)) => outcomes.push(TaskOutcome {
                    job_id: r.job_id,
                    task_id: r.task_id,
                    class: r.class,
                    submitter: node.0,
                    server,
                    data_bytes: r.data_bytes,
                    transfer_ms: t.as_millis_f64(),
                    completion_ms: c.as_millis_f64(),
                }),
                _ => incomplete += 1,
            }
        }
        incomplete += planned.saturating_sub(sub.records.len());
    }
    outcomes.sort_by_key(|o| (o.job_id, o.task_id));
    (outcomes, incomplete)
}

/// Digest of a cell's deterministic outputs: every task outcome, the
/// incomplete count and the engine's ground-truth counters.
pub fn digest(outcomes: &[TaskOutcome], incomplete: usize, net: &NetStats) -> Digest {
    let mut d = Digest::default();
    for o in outcomes {
        d.u64(o.job_id);
        d.u64(o.task_id);
        d.byte(
            TaskClass::ALL
                .iter()
                .position(|&c| c == o.class)
                .expect("known class") as u8,
        );
        d.u32(o.submitter);
        d.u32(o.server);
        d.u64(o.data_bytes);
        d.u64(o.transfer_ms.to_bits());
        d.u64(o.completion_ms.to_bits());
    }
    d.u64(incomplete as u64);
    for v in [
        net.events_processed,
        net.frames_delivered,
        net.frames_forwarded,
        net.drops_queue_full,
        net.drops_dataplane,
        net.drops_host,
        net.drops_link_down,
        net.drops_switch_down,
        net.drops_link_loss,
    ] {
        d.u64(v);
    }
    d
}

/// Build the cell and drop it; returns the set-up time.
pub fn setup_only(seed: u64) -> f64 {
    let t = Instant::now();
    let cell = build(&config(seed), None);
    let s = t.elapsed().as_secs_f64();
    drop(cell);
    s
}

/// One full cell: set-up, the run in 100 ms rounds, harvest.
pub fn rep(seed: u64, traced: bool) -> Rep {
    let cfg = config(seed);
    let busy = traced.then(|| Busy::new(1));
    let t_setup = Instant::now();
    let mut cell = build(&cfg, busy.as_ref());
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let end = cell.horizon.as_nanos();
    let mut rounds_us = Vec::with_capacity((end / ROUND_NS + 1) as usize);
    let mut t = 0u64;
    while t < end {
        t = (t + ROUND_NS).min(end);
        let r = Instant::now();
        cell.sim.run_until(SimTime(t));
        rounds_us.push(r.elapsed().as_secs_f64() * 1e6);
    }
    let run_s = t_run.elapsed().as_secs_f64();

    let t_drv = Instant::now();
    let (outcomes, incomplete) = harvest(&cell);
    let net = cell.sim.stats();
    let dig = digest(&outcomes, incomplete, &net);
    let driver_s = t_drv.elapsed().as_secs_f64();
    let wall_s = t_run.elapsed().as_secs_f64();

    let planned: usize = cell.submitters.iter().map(|s| s.2).sum();
    let check = if planned == outcomes.len() + incomplete && planned == cfg.workload.total_tasks {
        Ok(())
    } else {
        Err(format!(
            "{planned} planned tasks, {} outcomes + {incomplete} incomplete",
            outcomes.len()
        ))
    };

    let mut layers = Layers::new();
    layers.insert("workload.gen_s", cell.gen_s);
    layers.insert("bench.driver_s", driver_s);
    crate::engine_layers(&mut layers, &net, cell.sim.pool_stats());
    let sched = cell
        .sim
        .app::<SchedulerApp>(cell.scheduler, cell.scheduler_app)
        .expect("scheduler app");
    layers.insert("apps.scheduler.queries", sched.queries_served() as f64);
    layers.insert("apps.scheduler.probes", sched.probes_received() as f64);
    let ps = sched.core().path_stats();
    let lookups = ps.cache_hits + ps.cache_misses;
    layers.insert(
        "core.rank.path_cache_hit_frac",
        if lookups > 0 {
            ps.cache_hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    layers.insert("core.rank.sssp_runs", ps.sssp_runs as f64);
    crate::origin_layers(&mut layers, sched.core().collector());
    if let Some(b) = &busy {
        for cat in [Cat::Scheduler, Cat::Probe, Cat::Task, Cat::Iperf] {
            layers.insert(cat.metric(), b.secs(cat));
        }
        let self_s = run_s - b.total_secs();
        layers.insert("netsim.engine.self_s", self_s);
        layers.insert(
            "netsim.engine.ns_per_event",
            self_s * 1e9 / net.events_processed.max(1) as f64,
        );
    }

    Rep {
        setup_s,
        wall_s,
        rounds_us,
        work: net.events_processed as f64,
        attempted: planned as u64,
        failed: incomplete as u64,
        digest: dig,
        check,
        layers,
    }
}

/// The oracle: `runner::run` on the same configuration.
pub fn oracle(seed: u64) -> Digest {
    let res = runner::run(&config(seed));
    digest(&res.outcomes, res.incomplete, &res.net)
}
