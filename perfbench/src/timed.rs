//! Per-layer timing of simulated applications from outside the engine:
//! each installed [`App`] is wrapped in a forwarding [`Timed`] app that
//! adds the wall time of every callback to its category's counter.
//! `as_any` forwards to the wrapped app, so post-run downcasts
//! (`sim.app::<SchedulerApp>(..)`) see through the wrapper.

use int_netsim::{App, AppCtx, TcpEvent};
use std::any::Any;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Application categories, each reported as `apps.<category>.busy_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    Scheduler,
    Probe,
    Task,
    Iperf,
    Giant,
}

impl Cat {
    pub const ALL: [Cat; 5] = [
        Cat::Scheduler,
        Cat::Probe,
        Cat::Task,
        Cat::Iperf,
        Cat::Giant,
    ];

    /// The category's per-layer metric.
    pub fn metric(self) -> &'static str {
        match self {
            Cat::Scheduler => "apps.scheduler.busy_s",
            Cat::Probe => "apps.probe.busy_s",
            Cat::Task => "apps.task.busy_s",
            Cat::Iperf => "apps.iperf.busy_s",
            Cat::Giant => "apps.giant.busy_s",
        }
    }
}

/// One category's counter, padded to its own cache line so domains
/// running on different threads never share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Slot {
    ns: AtomicU64,
}

impl Slot {
    fn add(&self, since: Instant) {
        // A statistic that publishes no other data: Relaxed suffices.
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Callback time per (category, domain).
#[derive(Debug)]
pub struct Busy {
    slots: Vec<Arc<Slot>>,
    domains: usize,
}

impl Busy {
    pub fn new(domains: usize) -> Busy {
        let n = Cat::ALL.len() * domains;
        Busy {
            slots: (0..n).map(|_| Arc::new(Slot::default())).collect(),
            domains,
        }
    }

    fn slot(&self, cat: Cat, domain: usize) -> &Arc<Slot> {
        &self.slots[cat as usize * self.domains + domain]
    }

    /// Wrap `app` so its callbacks count toward `cat` on `domain`.
    pub fn wrap(&self, cat: Cat, domain: usize, app: Box<dyn App>) -> Box<dyn App> {
        Box::new(Timed {
            inner: app,
            slot: Arc::clone(self.slot(cat, domain)),
        })
    }

    /// Seconds spent in `cat` callbacks, summed over domains.
    pub fn secs(&self, cat: Cat) -> f64 {
        (0..self.domains)
            .map(|d| self.slot(cat, d).ns.load(Ordering::Relaxed))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Seconds spent in any app callback.
    pub fn total_secs(&self) -> f64 {
        Cat::ALL.iter().map(|&c| self.secs(c)).sum()
    }
}

/// Forwarding app that times every callback of the wrapped app.
struct Timed {
    inner: Box<dyn App>,
    slot: Arc<Slot>,
}

impl App for Timed {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.slot.add(t);
    }

    fn on_udp(
        &mut self,
        ctx: &mut AppCtx<'_>,
        from: Ipv4Addr,
        from_port: u16,
        to_port: u16,
        payload: &[u8],
    ) {
        let t = Instant::now();
        self.inner.on_udp(ctx, from, from_port, to_port, payload);
        self.slot.add(t);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, timer_id: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, timer_id);
        self.slot.add(t);
    }

    fn on_tcp(&mut self, ctx: &mut AppCtx<'_>, event: TcpEvent) {
        let t = Instant::now();
        self.inner.on_tcp(ctx, event);
        self.slot.add(t);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
