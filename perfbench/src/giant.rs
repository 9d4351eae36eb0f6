//! `giant`: the `repro giant` Clos shape — every host heartbeats a
//! partner over UDP, every tenth host adds CBR noise, and one JSONL line
//! per 1 s epoch is streamed to disk — on 2 latency-partitioned domains.
//! No TCP, probes or scheduler.
//!
//! The fabric is `GiantParams::at_scale(seed, 0.5)` (16 → 8 spines,
//! 250 leaves, 10 hosts per leaf: 2,500 hosts) with the virtual run cut
//! to [`DURATION_S`] so a run holds several repetitions. The host app
//! and the export line are those of `int_experiments::giant::run`; the
//! export digest must equal the digest of its 1-domain `giant.jsonl`
//! (`pin` mode checks exactly that).

use crate::digest::Digest;
use crate::timed::{Busy, Cat};
use crate::{Layers, Rep};
use int_experiments::giant::{self, GiantParams, UPLINK_DELAY_NS};
use int_netsim::{
    App, AppCtx, ClosParams, ClosRoutes, DomainPartition, EcmpSelect, LinkParams, NodeId, ParSim,
    SimConfig, SimDuration, SimTime, Topology,
};
use int_obs::EpochWriter;
use std::any::Any;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

/// Fabric scale passed to `GiantParams::at_scale`.
pub const SCALE: f64 = 0.5;
/// Virtual run length, seconds: 40 one-second epochs, enough rounds in
/// one repetition for a p75 round-latency tail.
pub const DURATION_S: u64 = 40;
/// Domains of the measured run.
pub const DOMAINS: u16 = 2;

/// The measured shape on `domains` domains.
pub fn params(seed: u64, domains: u16) -> GiantParams {
    GiantParams {
        duration: SimDuration::from_secs(DURATION_S),
        domains,
        ..GiantParams::at_scale(seed, SCALE)
    }
}

/// `giant::run`'s host app: heartbeat a fixed partner, count what
/// arrives, and (every tenth host) blast CBR noise.
struct GiantHost {
    id: u32,
    partner: Ipv4Addr,
    hb_period: SimDuration,
    cbr_period: Option<SimDuration>,
    got: u64,
}

const TIMER_HB: u64 = 1;
const TIMER_CBR: u64 = 2;
const PORT: u16 = 7100;

impl App for GiantHost {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.bind_udp(PORT);
        let phase = (self.id as u64).wrapping_mul(10_007) % self.hb_period.as_nanos();
        ctx.set_timer(SimDuration::from_nanos(phase + 1), TIMER_HB);
        if let Some(cbr) = self.cbr_period {
            let phase = (self.id as u64).wrapping_mul(257) % cbr.as_nanos();
            ctx.set_timer(SimDuration::from_nanos(phase + 1), TIMER_CBR);
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        match timer_id {
            TIMER_HB => {
                ctx.send_udp(PORT, self.partner, PORT, vec![0x48; 64]);
                ctx.set_timer(self.hb_period, TIMER_HB);
            }
            TIMER_CBR => {
                let cbr = self.cbr_period.expect("timer only armed with a period");
                ctx.send_udp(PORT, self.partner, PORT, vec![0xC8; 1024]);
                ctx.set_timer(cbr, TIMER_CBR);
            }
            _ => unreachable!("unknown timer {timer_id}"),
        }
    }

    fn on_udp(&mut self, _ctx: &mut AppCtx<'_>, _f: Ipv4Addr, _fp: u16, _tp: u16, _p: &[u8]) {
        self.got += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A built fabric, ready to run.
struct Fabric {
    sim: ParSim,
    apps: Vec<(NodeId, usize)>,
    build_s: f64,
    partition_s: f64,
}

fn build(p: &GiantParams, busy: Option<&Busy>, time_partition: bool) -> Fabric {
    let host_link = LinkParams {
        bandwidth_bps: 1_000_000_000,
        delay: SimDuration::from_millis(10),
        queue_cap_pkts: 64,
    };
    let uplink = LinkParams {
        bandwidth_bps: 10_000_000_000,
        delay: SimDuration::from_nanos(UPLINK_DELAY_NS),
        queue_cap_pkts: 64,
    };
    let clos = ClosParams {
        spines: p.spines,
        leaves: p.leaves,
        hosts_per_leaf: p.hosts_per_leaf,
        link: host_link,
    };
    let t_build = Instant::now();
    let fabric = clos.build_tiered(uplink);
    let build_s = t_build.elapsed().as_secs_f64();
    // `ParSim::new_clos` partitions internally; the traced run times the
    // same public computation on its own so the share shows.
    let partition_s = if time_partition {
        let t = Instant::now();
        let part = DomainPartition::compute(&fabric.topo, p.domains);
        let s = t.elapsed().as_secs_f64();
        drop(part);
        s
    } else {
        0.0
    };
    let hosts = fabric.hosts;
    let routes = ClosRoutes::new(
        p.spines,
        p.leaves,
        p.hosts_per_leaf,
        host_link.delay,
        uplink.delay,
    );
    let cfg = SimConfig {
        seed: p.seed,
        ecmp: EcmpSelect::FlowHash,
        ..SimConfig::default()
    };
    let mut sim = ParSim::new_clos(fabric.topo, routes, cfg, p.domains);
    sim.set_metrics_enabled(true);

    let n = hosts.len() as u32;
    let mut apps = Vec::with_capacity(hosts.len());
    for (i, &h) in hosts.iter().enumerate() {
        let partner = hosts[((i as u32 + n / 2) % n) as usize];
        let app: Box<dyn App> = Box::new(GiantHost {
            id: i as u32,
            partner: Topology::host_ip(partner),
            hb_period: p.hb_period,
            cbr_period: (i % 10 == 0).then_some(p.cbr_period),
            got: 0,
        });
        let app = match busy {
            Some(b) => b.wrap(Cat::Giant, sim.partition().domain(h) as usize, app),
            None => app,
        };
        apps.push((h, sim.install_app(h, app)));
    }
    Fabric {
        sim,
        apps,
        build_s,
        partition_s,
    }
}

/// Build the fabric and drop it; returns the set-up time.
pub fn setup_only(p: &GiantParams) -> f64 {
    let t = Instant::now();
    let f = build(p, None, false);
    let s = t.elapsed().as_secs_f64();
    drop(f);
    s
}

/// One run: set-up, then one `run_until` + export line per epoch.
pub fn rep(p: &GiantParams, traced: bool, tmp: &Path) -> Rep {
    let busy = traced.then(|| Busy::new(p.domains as usize));
    let t_setup = Instant::now();
    let mut f = build(p, busy.as_ref(), traced);
    let setup_s = t_setup.elapsed().as_secs_f64() - f.partition_s;

    let t_run = Instant::now();
    let path = tmp.join("giant.jsonl");
    let mut writer = EpochWriter::create(&path, true).expect("create export in temp dir");
    let mut d = Digest::default();
    let (mut par_s, mut export_s, mut driver_s) = (0.0, 0.0, 0.0);
    let end = p.duration.as_nanos();
    let epoch = p.epoch.as_nanos().max(1);
    let epochs = end.div_ceil(epoch);
    let mut rounds_us = Vec::with_capacity(epochs as usize);
    for k in 1..=epochs {
        let t = (k * epoch).min(end);
        let r = Instant::now();
        f.sim.run_until(SimTime(t));
        let ran = r.elapsed().as_secs_f64();
        let stats = serde_json::to_string(&f.sim.stats()).expect("stats serialize");
        let metrics = f.sim.merged_metrics().snapshot_json();
        let line =
            format!("{{\"epoch\":{k},\"t_ns\":{t},\"stats\":{stats},\"metrics\":{metrics}}}");
        writer.write_line(&line).expect("write export line");
        let round = r.elapsed().as_secs_f64();
        rounds_us.push(round * 1e6);
        par_s += ran;
        export_s += round - ran;
        let h = Instant::now();
        d.bytes(line.as_bytes());
        d.byte(b'\n');
        driver_s += h.elapsed().as_secs_f64();
    }
    let ws = writer.finish().expect("finish export");
    let wall_s = t_run.elapsed().as_secs_f64();

    let net = f.sim.stats();
    let on_disk = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let delivered: u64 = f
        .apps
        .iter()
        .map(|&(h, i)| f.sim.app::<GiantHost>(h, i).expect("installed above").got)
        .sum();
    let check = if ws.lines != epochs || on_disk != ws.bytes {
        Err(format!(
            "export: {} lines / {} bytes, {on_disk} bytes on disk",
            ws.lines, ws.bytes
        ))
    } else if delivered == 0 || delivered != net.frames_delivered {
        Err(format!(
            "{delivered} datagrams counted by apps, {} delivered",
            net.frames_delivered
        ))
    } else {
        Ok(())
    };

    let mut layers = Layers::new();
    crate::engine_layers(&mut layers, &net, pool_stats(&f.sim));
    layers.insert("netsim.par.run_s", par_s);
    let max_dom = f
        .sim
        .sims()
        .iter()
        .map(|s| s.stats().events_processed)
        .max()
        .unwrap_or(0);
    layers.insert(
        "netsim.par.domain_event_max_frac",
        max_dom as f64 / net.events_processed.max(1) as f64,
    );
    layers.insert("netsim.topology.build_s", f.build_s);
    layers.insert("netsim.domain.partition_s", f.partition_s);
    layers.insert("obs.export_s", export_s);
    layers.insert("obs.export_bytes", ws.bytes as f64);
    layers.insert("bench.driver_s", driver_s);
    if let Some(b) = &busy {
        layers.insert(Cat::Giant.metric(), b.secs(Cat::Giant));
        if p.domains == 1 {
            let self_s = par_s - b.total_secs();
            layers.insert("netsim.engine.self_s", self_s);
            layers.insert(
                "netsim.engine.ns_per_event",
                self_s * 1e9 / net.events_processed.max(1) as f64,
            );
        }
    }

    Rep {
        setup_s,
        wall_s,
        rounds_us,
        work: net.events_processed as f64,
        attempted: epochs,
        failed: 0,
        digest: d,
        check,
        layers,
    }
}

fn pool_stats(sim: &ParSim) -> int_netsim::PoolStats {
    let mut total = int_netsim::PoolStats::default();
    for s in sim.sims() {
        let p = s.pool_stats();
        total.takes += p.takes;
        total.recycles += p.recycles;
        total.allocs += p.allocs;
    }
    total
}

/// The oracle: `giant::run` on 1 domain, writing `giant.jsonl` into
/// `tmp` (through `INT_RESULTS_DIR`, set only for this call).
pub fn oracle(p: &GiantParams, tmp: &Path) -> Digest {
    let p1 = GiantParams {
        domains: 1,
        ..p.clone()
    };
    std::env::set_var("INT_RESULTS_DIR", tmp);
    let out = giant::run(&p1).expect("giant::run");
    std::env::remove_var("INT_RESULTS_DIR");
    let bytes = std::fs::read(tmp.join("giant.jsonl")).expect("oracle export");
    assert_eq!(bytes.len() as u64, out.export_bytes, "oracle export size");
    let mut d = Digest::default();
    d.bytes(&bytes);
    d
}
