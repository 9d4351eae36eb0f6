//! FNV-1a 64 digest over a workload's deterministic outputs. The byte
//! order of `fold_outcome` matches `int_experiments::sustained`'s artifact
//! digest, so a control-plane digest is directly comparable with
//! `sustained::run_oracle`.

use int_core::{ExcludeReason, Policy, RankOutcome};

/// Running FNV-1a 64 hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fold one served query and its outcome, in the byte layout of the
/// `sustained` artifact digest.
pub fn fold_outcome(d: &mut Digest, requester: u32, policy: Policy, o: &RankOutcome) {
    d.u32(requester);
    d.byte(match policy {
        Policy::IntDelay => 0,
        Policy::IntBandwidth => 1,
        Policy::Nearest => 2,
        Policy::Random => 3,
    });
    d.u32(o.ranked.len() as u32);
    for r in &o.ranked {
        d.u32(r.host);
        d.u64(r.est_delay_ns);
        d.u64(r.est_bandwidth_bps);
    }
    d.u32(o.excluded.len() as u32);
    for (h, reason) in &o.excluded {
        d.u32(*h);
        d.byte(matches!(reason, ExcludeReason::OriginSilent) as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Digest::default().0, 0xcbf29ce484222325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.0, 0xaf63dc4c8601ec8c);
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.0, 0x85944171f73967e8);
    }
}
