//! Edge-server ranking policies and their result types.
//!
//! The two INT-driven policies from the paper (§III-C delay, §III-D
//! bandwidth) plus the two baselines it compares against (§IV): *Nearest*
//! (static hop count, precomputed) and *Random* (seeded load spreading).
//! Rankings are evaluated by [`crate::snapshot::SchedSnapshot`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A ranking policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// Network-aware, delay-based (Algorithm 1).
    IntDelay,
    /// Network-aware, bandwidth-based (§III-D).
    IntBandwidth,
    /// Baseline: fewest static hops from the requester.
    Nearest,
    /// Baseline: uniformly random order (load balancing).
    Random,
}

impl Policy {
    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::IntDelay => "Network-aware",
            Policy::IntBandwidth => "Network-aware",
            Policy::Nearest => "Nearest",
            Policy::Random => "Random",
        }
    }

    /// Stable variant name, one per policy (unlike [`Policy::label`],
    /// which merges both INT policies). Used in audit exports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::IntDelay => "IntDelay",
            Policy::IntBandwidth => "IntBandwidth",
            Policy::Nearest => "Nearest",
            Policy::Random => "Random",
        }
    }
}

/// One ranked candidate with its estimated network performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedServer {
    /// The edge server's host id.
    pub host: u32,
    /// Estimated one-way delay from the requester, ns.
    pub est_delay_ns: u64,
    /// Estimated available path bandwidth, bit/s.
    pub est_bandwidth_bps: u64,
}

/// Why a candidate was left out of an INT-based ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExcludeReason {
    /// The learned map has no live path to the host (its telemetry was
    /// evicted, or it was never probed while others were).
    NoFreshPath,
    /// The host originated probes before but has been silent beyond the
    /// configured horizon — presumed unreachable.
    OriginSilent,
}

impl ExcludeReason {
    /// Stable label used in audit exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExcludeReason::NoFreshPath => "NoFreshPath",
            ExcludeReason::OriginSilent => "OriginSilent",
        }
    }
}

/// The result of a failure-aware ranking: the usable candidates, ranked
/// best first, plus everyone excluded and why.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankOutcome {
    /// Usable candidates, best first.
    pub ranked: Vec<RankedServer>,
    /// Excluded candidates with the reason, in host-id order.
    pub excluded: Vec<(u32, ExcludeReason)>,
}

/// Static information the baselines need: hop counts between hosts,
/// computed ahead of time exactly as the paper's Nearest policy assumes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StaticDistances {
    hops: BTreeMap<(u32, u32), u32>,
}

impl StaticDistances {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the hop count between a pair (stored symmetrically).
    pub fn set(&mut self, a: u32, b: u32, hops: u32) {
        self.hops.insert((a, b), hops);
        self.hops.insert((b, a), hops);
    }

    /// Hop count between two hosts, if known.
    pub fn get(&self, a: u32, b: u32) -> Option<u32> {
        self.hops.get(&(a, b)).copied()
    }
}
