//! The paper's INT telemetry program (§III-A, Fig. 2).
//!
//! On **regular packets** the switch only observes: every enqueue folds the
//! egress-queue depth into the `max_qlen` register of that port. Nothing is
//! added to production packets — this is the paper's key overhead-avoidance
//! design.
//!
//! On **probe packets** (UDP to the Geneve port with the telemetry shim):
//!
//! * *ingress* (before enqueue): read the upstream egress timestamp from the
//!   probe payload and record `link_latency = now − upstream_ts` in packet
//!   metadata. Doing this pre-queue excludes this switch's queuing delay
//!   from the link measurement.
//! * *egress* (head of queue, about to serialize): harvest-and-reset the
//!   `max_qlen` register of the egress port and append an [`IntRecord`]
//!   with the harvested value, the measured upstream link latency, and
//!   this switch's egress timestamp. The record is written onto the end of
//!   the frame's own buffer and only the fields a deparser would recompute
//!   are patched (stack count, UDP and IP lengths, IP checksum) — the
//!   same bytes a full decode/re-encode produces, without either.

use crate::frame::Frame;
use crate::pipeline::{
    DataPlaneProgram, EgressCtx, EnqueueCtx, IngressCtx, IngressVerdict, PortId,
};
use crate::programs::decrement_ttl;
use crate::programs::l3fwd::L3ForwardProgram;
use crate::registers::RegisterFile;
use bytes::BytesMut;
use int_obs::{TraceEvent, TraceKind};
use int_packet::int::IntRecord;
use int_packet::ipv4::Ipv4Header;
use int_packet::udp::UdpHeader;
use int_packet::wire::{internet_checksum, WireEncode};
use int_packet::ProbePayload;
use std::net::Ipv4Addr;

/// Configuration for the INT program.
#[derive(Debug, Clone, Copy)]
pub struct IntProgramConfig {
    /// Switch identity stamped into INT records.
    pub switch_id: u32,
    /// Number of ports (sizes the register arrays).
    pub num_ports: usize,
    /// If false, the program behaves exactly like plain L3 forwarding
    /// (probes are forwarded but not augmented) — used for baseline runs.
    pub int_enabled: bool,
}

/// The INT telemetry data-plane program.
pub struct IntTelemetryProgram {
    cfg: IntProgramConfig,
    l3: L3ForwardProgram,
    registers: RegisterFile,
    /// Indices of the three register arrays, resolved once.
    reg_max_qlen: usize,
    reg_probe_count: usize,
    reg_enq_count: usize,
    /// Buffer harvest/reset trace events for the simulator to drain.
    tracing: bool,
    trace_buf: Vec<TraceEvent>,
}

impl IntTelemetryProgram {
    /// Register array: max egress-queue depth per port since last harvest.
    pub const REG_MAX_QLEN: &'static str = "max_qlen";
    /// Register array: probes forwarded per egress port (diagnostics).
    pub const REG_PROBE_COUNT: &'static str = "probe_count";
    /// Register array: total packets enqueued per egress port (diagnostics).
    pub const REG_ENQ_COUNT: &'static str = "enq_count";

    /// Build the program for a switch.
    pub fn new(cfg: IntProgramConfig) -> Self {
        let mut registers = RegisterFile::new();
        registers.declare(Self::REG_MAX_QLEN, cfg.num_ports);
        registers.declare(Self::REG_PROBE_COUNT, cfg.num_ports);
        registers.declare(Self::REG_ENQ_COUNT, cfg.num_ports);
        let index = |name| registers.index_of(name).expect("just declared");
        IntTelemetryProgram {
            cfg,
            l3: L3ForwardProgram::new(cfg.num_ports),
            reg_max_qlen: index(Self::REG_MAX_QLEN),
            reg_probe_count: index(Self::REG_PROBE_COUNT),
            reg_enq_count: index(Self::REG_ENQ_COUNT),
            registers,
            tracing: false,
            trace_buf: Vec::new(),
        }
    }

    /// Control plane: route `prefix/len` out of `port`.
    pub fn install_route(&mut self, prefix: Ipv4Addr, prefix_len: u16, port: PortId) {
        self.l3.install_route(prefix, prefix_len, port);
    }

    /// Control plane: route a single host address out of `port`.
    pub fn install_host_route(&mut self, host: Ipv4Addr, port: PortId) {
        self.l3.install_host_route(host, port);
    }

    /// Control plane: route a host address over an equal-cost port group
    /// (`ports[0]` = primary).
    pub fn install_host_route_multi(&mut self, host: Ipv4Addr, ports: &[PortId]) {
        self.l3.install_route_multi(host, 32, ports);
    }

    /// Control plane: route `prefix/len` over an equal-cost port group
    /// (`ports[0]` = primary). `len == 0` installs a default route.
    pub fn install_route_multi(&mut self, prefix: Ipv4Addr, prefix_len: u16, ports: &[PortId]) {
        self.l3.install_route_multi(prefix, prefix_len, ports);
    }

    /// Multipath selection mode for this switch's routes.
    pub fn set_ecmp_select(&mut self, select: crate::programs::l3fwd::EcmpSelect) {
        self.l3.set_ecmp_select(select);
    }

    /// Look up the egress port for a destination without side effects.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<PortId> {
        self.l3.lookup(dst)
    }

    /// The full equal-cost port group for a destination, primary first.
    pub fn group_ports(&self, dst: Ipv4Addr) -> Option<&[PortId]> {
        self.l3.group_ports(dst)
    }

    /// Switch identity.
    pub fn switch_id(&self) -> u32 {
        self.cfg.switch_id
    }

    /// Append an INT record to a frame `is_int_probe` accepted, in place. A
    /// frame whose payload does not decode as a probe is left alone,
    /// registers included.
    fn augment_probe(&mut self, frame: &mut Frame, ctx: &EgressCtx) {
        let Ok(parsed) = frame.parsed() else { return };
        let payload_at = parsed.payload_offset;
        let Some(hops) = ProbePayload::peek_hop_count(&frame.bytes[payload_at..]) else { return };
        let record = self.harvest(frame, ctx);
        append_record(&mut frame.bytes, payload_at, hops, &record);
        // The frame grew by one INT record; drop the memoized parse so the
        // next stage re-reads the rewritten headers.
        frame.invalidate_parse();
    }

    /// Harvest-and-reset the egress port's `max_qlen` register, count the
    /// probe, and build this hop's record.
    fn harvest(&mut self, frame: &Frame, ctx: &EgressCtx) -> IntRecord {
        let port = ctx.egress_port as usize;
        let max_qlen = self.registers.at_mut(self.reg_max_qlen).take(port);
        if self.tracing {
            // One event for the harvested sample, one for the
            // read-and-reset side effect the harvest performs.
            self.trace_buf.push(TraceEvent {
                at_ns: ctx.now_ns,
                kind: TraceKind::ProbeHarvest {
                    switch: self.cfg.switch_id,
                    port: ctx.egress_port as u8,
                    max_qlen_pkts: max_qlen.min(u32::MAX as u64) as u32,
                },
            });
            self.trace_buf.push(TraceEvent {
                at_ns: ctx.now_ns,
                kind: TraceKind::RegisterReset {
                    switch: self.cfg.switch_id,
                    register: Self::REG_MAX_QLEN,
                    port: ctx.egress_port as u8,
                },
            });
        }
        self.registers.at_mut(self.reg_probe_count).increment(port);
        IntRecord {
            switch_id: self.cfg.switch_id,
            ingress_port: frame.meta.ingress_port.unwrap_or(u16::MAX),
            egress_port: ctx.egress_port,
            max_qlen_pkts: max_qlen.min(u32::MAX as u64) as u32,
            qlen_at_probe_pkts: ctx.qdepth_at_deq_pkts,
            link_latency_ns: frame.meta.measured_link_latency_ns.unwrap_or(0),
            egress_ts_ns: ctx.now_ns,
        }
    }
}

/// Append `record` to the INT stack of the probe frame in `bytes`, whose
/// UDP payload starts at `payload_at` and holds `hops` records, and patch
/// what a P4 deparser recomputes: the stack count, the UDP length (and a
/// zero UDP checksum), the IP total length and checksum. The rest is
/// rewritten to the canonical encoding a decode/re-encode round trip
/// produces — bytes past the stack are dropped, the shim's flags and
/// reserved bytes and the IP flags/fragment field are reset — so the frame
/// comes out byte-identical to one rebuilt from its decoded headers.
fn append_record(bytes: &mut BytesMut, payload_at: usize, hops: usize, record: &IntRecord) {
    let stack = payload_at + ProbePayload::STACK_OFFSET;
    bytes.truncate(stack + 2 + hops * IntRecord::LEN);
    record.encode(bytes);
    bytes[stack..stack + 2].copy_from_slice(&((hops + 1) as u16).to_be_bytes());
    bytes[payload_at + 3] = 0; // shim flags
    bytes[payload_at + 7] = 0; // shim reserved

    let payload_len = bytes.len() - payload_at;
    let udp = payload_at - UdpHeader::LEN;
    let udp_len = (UdpHeader::LEN + payload_len) as u16;
    bytes[udp + 4..udp + 6].copy_from_slice(&udp_len.to_be_bytes());
    bytes[udp + 6..udp + 8].fill(0);

    let ip = udp - Ipv4Header::LEN;
    let total_len = (Ipv4Header::LEN + UdpHeader::LEN + payload_len) as u16;
    bytes[ip + 2..ip + 4].copy_from_slice(&total_len.to_be_bytes());
    bytes[ip + 6] = 0x40; // DF, fragment offset 0
    bytes[ip + 7] = 0;
    bytes[ip + 10..ip + 12].fill(0);
    let checksum = internet_checksum(&bytes[ip..ip + Ipv4Header::LEN]);
    bytes[ip + 10..ip + 12].copy_from_slice(&checksum.to_be_bytes());
}

impl DataPlaneProgram for IntTelemetryProgram {
    fn ingress(&mut self, frame: &mut Frame, ctx: &IngressCtx) -> IngressVerdict {
        let Ok(parsed) = frame.parsed() else {
            return IngressVerdict::Drop;
        };
        let Some(ip) = parsed.ip else {
            return IngressVerdict::Drop;
        };

        frame.meta.ingress_port = Some(ctx.ingress_port);

        // Probe packets: measure upstream link latency *before* queuing.
        if self.cfg.int_enabled && parsed.is_int_probe(&frame.bytes) {
            let payload = parsed.payload(&frame.bytes);
            if let Some(upstream) = ProbePayload::peek_upstream_egress_ts_ns(payload) {
                frame.meta.measured_link_latency_ns = Some(ctx.now_ns.saturating_sub(upstream));
            }
        }

        // Cached: consecutive packets overwhelmingly share a destination,
        // so the per-packet path usually skips the LPM table entirely.
        // Under flow-hash ECMP the cache resolves the *group*; the member
        // choice is a pure function of the 5-tuple.
        let hash = match self.l3.ecmp_select() {
            crate::programs::l3fwd::EcmpSelect::Primary => 0,
            crate::programs::l3fwd::EcmpSelect::FlowHash => {
                crate::programs::l3fwd::flow_hash(&parsed)
            }
        };
        let Some(port) = self.l3.select_cached(ip.dst, hash) else {
            return IngressVerdict::Drop;
        };
        if !decrement_ttl(frame) {
            return IngressVerdict::Drop;
        }
        IngressVerdict::Forward(port)
    }

    fn on_enqueue(&mut self, _frame: &Frame, ctx: &EnqueueCtx) {
        if !self.cfg.int_enabled {
            return;
        }
        let idx = ctx.port as usize;
        self.registers.at_mut(self.reg_max_qlen).write_max(idx, ctx.qdepth_after_pkts as u64);
        self.registers.at_mut(self.reg_enq_count).increment(idx);
    }

    fn egress(&mut self, frame: &mut Frame, ctx: &EgressCtx) {
        if !self.cfg.int_enabled {
            return;
        }
        let is_probe = match frame.parsed() {
            Ok(p) => p.is_int_probe(&frame.bytes),
            Err(_) => false,
        };
        if is_probe {
            self.augment_probe(frame, ctx);
        }
    }

    fn install_host_route(&mut self, host: Ipv4Addr, port: PortId) {
        self.l3.install_route(host, 32, port);
    }

    fn registers(&self) -> &RegisterFile {
        &self.registers
    }

    fn registers_mut(&mut self) -> &mut RegisterFile {
        &mut self.registers
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.trace_buf.clear();
        }
    }

    fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.trace_buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use int_packet::int::IntStack;
    use int_packet::{EthernetHeader, PacketBuilder, ParsedPacket, PROBE_UDP_PORT};
    use proptest::prelude::*;

    /// The decode/re-encode path the in-place append replaced, kept as the
    /// byte-level reference: decode the probe, push the record, re-deparse
    /// every header from its decoded form.
    impl IntTelemetryProgram {
        fn egress_reference(&mut self, frame: &mut Frame, ctx: &EgressCtx) {
            let is_probe = match frame.parsed() {
                Ok(p) => p.is_int_probe(&frame.bytes),
                Err(_) => false,
            };
            if !is_probe {
                return;
            }
            let Ok(parsed) = frame.parsed() else { return };
            let Ok(mut probe) = parsed.probe_payload(&frame.bytes) else { return };
            let record = self.harvest(frame, ctx);
            // `records.push`, not `IntStack::push`: a release build appended
            // past `MAX_HOPS` the same way.
            probe.int.records.push(record);
            let (Some(ip), Some(udp)) = (parsed.ip, parsed.udp()) else { return };
            frame.bytes = redeparse_udp(&parsed.eth, &ip, &udp, &probe.to_bytes());
            frame.invalidate_parse();
        }
    }

    /// Rebuild `eth/ip/udp/payload` preserving addressing, TTL, and IP id
    /// while recomputing all length and checksum fields.
    fn redeparse_udp(
        eth: &EthernetHeader,
        ip: &Ipv4Header,
        udp: &UdpHeader,
        payload: &[u8],
    ) -> BytesMut {
        let udp_new = UdpHeader::new(udp.src_port, udp.dst_port, payload.len());
        let mut ip_new = *ip;
        ip_new.total_len = (Ipv4Header::LEN + UdpHeader::LEN + payload.len()) as u16;
        let mut buf = BytesMut::new();
        eth.encode(&mut buf);
        ip_new.encode(&mut buf);
        udp_new.encode(&mut buf);
        buf.extend_from_slice(payload);
        buf
    }

    /// Overwrite the UDP and IP lengths for a UDP payload of `payload_len`
    /// bytes and re-seal the IP checksum (the frame is otherwise as built).
    fn set_lengths(bytes: &mut [u8], payload_len: usize) {
        let ip = EthernetHeader::LEN;
        let udp = ip + Ipv4Header::LEN;
        let udp_len = (UdpHeader::LEN + payload_len) as u16;
        bytes[udp + 4..udp + 6].copy_from_slice(&udp_len.to_be_bytes());
        let total = (Ipv4Header::LEN + UdpHeader::LEN + payload_len) as u16;
        bytes[ip + 2..ip + 4].copy_from_slice(&total.to_be_bytes());
        bytes[ip + 10..ip + 12].fill(0);
        let ck = internet_checksum(&bytes[ip..ip + Ipv4Header::LEN]);
        bytes[ip + 10..ip + 12].copy_from_slice(&ck.to_be_bytes());
    }

    proptest! {
        /// The in-place append and the ingress timestamp read give exactly
        /// what decoding and re-encoding gave, on canonical and
        /// non-canonical probes alike: stray shim flag/reserved bytes, a
        /// nonzero UDP checksum, bytes after the stack (inside the UDP
        /// payload or past the IP datagram), stacks whose count claims
        /// more records than are present or more than `MAX_HOPS`, and full
        /// stacks of exactly `MAX_HOPS` records.
        #[test]
        fn in_place_append_matches_the_reference_deparser(
            pick in 0usize..6,
            any_hops in 0usize..=IntStack::MAX_HOPS,
            shim_bytes in any::<[u8; 2]>(),
            udp_checksum in any::<u16>(),
            trailing in proptest::collection::vec(any::<u8>(), 0..40),
            trailing_in_udp in any::<bool>(),
            damage in 0u8..4,
            fill in any::<u64>(),
            ctx_bits in (any::<u32>(), any::<u64>(), any::<u16>()),
        ) {
            let hops = match pick {
                0 => 0,
                1 => 1,
                2 => IntStack::MAX_HOPS - 1,
                3 => IntStack::MAX_HOPS,
                _ => any_hops,
            };
            let mut probe = ProbePayload::new(3, fill >> 8, fill >> 20);
            for h in 0..hops as u64 {
                let v = fill.rotate_left(h as u32) ^ h;
                probe.int.records.push(IntRecord {
                    switch_id: v as u32,
                    ingress_port: (v >> 32) as u16,
                    egress_port: (v >> 48) as u16,
                    max_qlen_pkts: (v >> 8) as u32,
                    qlen_at_probe_pkts: (v >> 16) as u32,
                    link_latency_ns: v,
                    egress_ts_ns: v.wrapping_mul(7),
                });
            }
            let mut bytes = PacketBuilder::between(
                3,
                Ipv4Addr::new(10, 0, 0, 1),
                6,
                Ipv4Addr::new(10, 0, 0, 6),
            )
            .udp_msg(40000, PROBE_UDP_PORT, &probe);
            let at = EthernetHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN;
            bytes[at + 3] = shim_bytes[0];
            bytes[at + 7] = shim_bytes[1];
            let udp = at - UdpHeader::LEN;
            bytes[udp + 6..udp + 8].copy_from_slice(&udp_checksum.to_be_bytes());
            let count_at = at + ProbePayload::STACK_OFFSET;
            let claimed = match damage {
                1 => hops as u16 + 1 + (fill % 3) as u16, // truncated stack
                2 => IntStack::MAX_HOPS as u16 + 1 + (fill % 100) as u16,
                _ => hops as u16,
            };
            bytes[count_at..count_at + 2].copy_from_slice(&claimed.to_be_bytes());
            if damage == 3 {
                // Cut the last record short; the lengths still agree.
                let cut = bytes.len() - 1 - (fill % 31) as usize;
                bytes.truncate(cut.max(count_at + 2));
            }
            bytes.extend_from_slice(&trailing);
            let payload_len = if trailing_in_udp || damage == 3 {
                bytes.len() - at
            } else {
                bytes.len() - at - trailing.len()
            };
            set_lengths(&mut bytes, payload_len);

            let (switch, now, port) = ctx_bits;
            let port = port % 4;
            let ictx = IngressCtx { now_ns: now, switch_id: switch, ingress_port: 1 };
            let ectx = EgressCtx {
                now_ns: now.wrapping_add(1_000),
                switch_id: switch,
                egress_port: port,
                qdepth_at_deq_pkts: switch % 9,
            };
            let mut fast = program(true);
            let mut reference = program(true);
            fast.set_tracing(true);
            reference.set_tracing(true);
            let mut f_fast = Frame::new(bytes.clone());
            let mut f_ref = Frame::new(bytes);
            for (p, f) in [(&mut fast, &mut f_fast), (&mut reference, &mut f_ref)] {
                p.on_enqueue(f, &EnqueueCtx { now_ns: now, port, qdepth_after_pkts: switch % 13 });
            }

            // Ingress reads the upstream timestamp in place.
            let upstream = ParsedPacket::parse(&f_ref.bytes)
                .ok()
                .filter(|p| p.is_int_probe(&f_ref.bytes))
                .and_then(|p| p.probe_payload(&f_ref.bytes).ok())
                .map(|p| now.saturating_sub(p.upstream_egress_ts_ns()));
            for (p, f) in [(&mut fast, &mut f_fast), (&mut reference, &mut f_ref)] {
                p.ingress(f, &ictx);
                prop_assert_eq!(f.meta.measured_link_latency_ns, upstream);
            }

            fast.egress(&mut f_fast, &ectx);
            reference.egress_reference(&mut f_ref, &ectx);
            let first_diff = f_fast.bytes.iter().zip(f_ref.bytes.iter()).position(|(a, b)| a != b);
            prop_assert!(
                f_fast.bytes == f_ref.bytes,
                "frames differ (lengths {} vs {}, first differing byte {first_diff:?}, \
                 hops {hops}, damage {damage}, trailing {})",
                f_fast.bytes.len(),
                f_ref.bytes.len(),
                trailing.len()
            );
            for name in fast.registers().names() {
                prop_assert_eq!(fast.registers().array(name), reference.registers().array(name));
            }
            let (mut t_fast, mut t_ref) = (Vec::new(), Vec::new());
            fast.drain_trace(&mut t_fast);
            reference.drain_trace(&mut t_ref);
            prop_assert_eq!(t_fast, t_ref);
        }
    }

    fn probe_frame(origin: u32, sent_ts: u64) -> Frame {
        let probe = ProbePayload::new(origin, 1, sent_ts);
        let b = PacketBuilder::between(
            origin,
            Ipv4Addr::new(10, 0, 0, 1),
            6,
            Ipv4Addr::new(10, 0, 0, 6),
        )
        .udp_msg(40000, PROBE_UDP_PORT, &probe);
        Frame::new(b)
    }

    fn data_frame() -> Frame {
        let b = PacketBuilder::between(1, Ipv4Addr::new(10, 0, 0, 1), 6, Ipv4Addr::new(10, 0, 0, 6))
            .udp(5001, 5001, &[0u8; 1000]);
        Frame::new(b)
    }

    fn program(int_enabled: bool) -> IntTelemetryProgram {
        let mut p = IntTelemetryProgram::new(IntProgramConfig {
            switch_id: 42,
            num_ports: 4,
            int_enabled,
        });
        p.install_host_route(Ipv4Addr::new(10, 0, 0, 6), 2);
        p
    }

    fn run_through(p: &mut IntTelemetryProgram, frame: &mut Frame, now: u64, qdepth: u32) {
        let v = p.ingress(frame, &IngressCtx { now_ns: now, switch_id: 42, ingress_port: 0 });
        let IngressVerdict::Forward(port) = v else { panic!("expected forward, got {v:?}") };
        p.on_enqueue(frame, &EnqueueCtx { now_ns: now, port, qdepth_after_pkts: qdepth });
        p.egress(
            frame,
            &EgressCtx {
                now_ns: now + 1_000,
                switch_id: 42,
                egress_port: port,
                qdepth_at_deq_pkts: qdepth.saturating_sub(1),
            },
        );
    }

    #[test]
    fn regular_packets_are_untouched_but_observed() {
        let mut p = program(true);
        let mut f = data_frame();
        let original_len = f.wire_len();
        run_through(&mut p, &mut f, 1_000_000, 7);
        assert_eq!(f.wire_len(), original_len, "no INT padding on production traffic");
        assert_eq!(p.registers().array(IntTelemetryProgram::REG_MAX_QLEN).read(2), 7);
    }

    #[test]
    fn probe_harvests_and_resets_register() {
        let mut p = program(true);

        // Two data packets build up the register.
        let mut d1 = data_frame();
        run_through(&mut p, &mut d1, 1_000, 5);
        let mut d2 = data_frame();
        run_through(&mut p, &mut d2, 2_000, 12);

        // Probe sent at ts=0, arrives at ingress at now=10_000_000.
        let mut probe = probe_frame(3, 0);
        run_through(&mut p, &mut probe, 10_000_000, 13);

        let parsed = ParsedPacket::parse(&probe.bytes).unwrap();
        let payload = parsed.probe_payload(&probe.bytes).unwrap();
        assert_eq!(payload.int.hop_count(), 1);
        let rec = payload.int.records[0];
        assert_eq!(rec.switch_id, 42);
        // max over {5, 12, 13(the probe itself)} = 13
        assert_eq!(rec.max_qlen_pkts, 13);
        assert_eq!(rec.link_latency_ns, 10_000_000, "now - origin sent_ts");
        assert_eq!(rec.egress_ts_ns, 10_001_000);

        // Register was reset by the harvest.
        assert_eq!(p.registers().array(IntTelemetryProgram::REG_MAX_QLEN).read(2), 0);
    }

    #[test]
    fn second_switch_chains_link_latency_from_first() {
        let mut s1 = program(true);
        let mut s2 = IntTelemetryProgram::new(IntProgramConfig {
            switch_id: 43,
            num_ports: 4,
            int_enabled: true,
        });
        s2.install_host_route(Ipv4Addr::new(10, 0, 0, 6), 1);

        let mut probe = probe_frame(3, 0);
        run_through(&mut s1, &mut probe, 10_000_000, 1);
        probe.meta.clear_per_hop(); // leaving switch 1

        // Arrives at s2 after a 10 ms link.
        let egress_s1 = 10_001_000;
        let arrive_s2 = egress_s1 + 10_000_000;
        let v = s2.ingress(
            &mut probe,
            &IngressCtx { now_ns: arrive_s2, switch_id: 43, ingress_port: 3 },
        );
        let IngressVerdict::Forward(port) = v else { panic!() };
        s2.on_enqueue(&probe, &EnqueueCtx { now_ns: arrive_s2, port, qdepth_after_pkts: 1 });
        s2.egress(
            &mut probe,
            &EgressCtx {
                now_ns: arrive_s2 + 500,
                switch_id: 43,
                egress_port: port,
                qdepth_at_deq_pkts: 0,
            },
        );

        let parsed = ParsedPacket::parse(&probe.bytes).unwrap();
        let payload = parsed.probe_payload(&probe.bytes).unwrap();
        assert_eq!(payload.int.hop_count(), 2);
        let rec2 = payload.int.records[1];
        assert_eq!(rec2.switch_id, 43);
        assert_eq!(rec2.link_latency_ns, 10_000_000, "s1→s2 link latency measured exactly");
        assert_eq!(rec2.ingress_port, 3);
        let adj: Vec<_> = payload.int.adjacencies().collect();
        assert_eq!(adj, vec![(42, 43)]);
    }

    #[test]
    fn int_disabled_forwards_probes_unaugmented() {
        let mut p = program(false);
        let mut probe = probe_frame(3, 0);
        let before_len = probe.wire_len();
        run_through(&mut p, &mut probe, 5_000_000, 9);
        assert_eq!(probe.wire_len(), before_len);
        let parsed = ParsedPacket::parse(&probe.bytes).unwrap();
        assert_eq!(parsed.probe_payload(&probe.bytes).unwrap().int.hop_count(), 0);
        assert_eq!(p.registers().array(IntTelemetryProgram::REG_MAX_QLEN).read(2), 0);
    }

    #[test]
    fn redeparsed_probe_has_valid_lengths() {
        let mut p = program(true);
        let mut probe = probe_frame(3, 0);
        run_through(&mut p, &mut probe, 1_000, 1);
        let parsed = ParsedPacket::parse(&probe.bytes).unwrap();
        let udp = parsed.udp().unwrap();
        assert_eq!(udp.payload_len(), parsed.payload(&probe.bytes).len());
        let ip = parsed.ip.unwrap();
        assert_eq!(ip.total_len as usize, probe.bytes.len() - EthernetHeader::LEN);
    }

    #[test]
    fn tracing_buffers_harvest_and_reset_events() {
        let mut p = program(true);
        p.set_tracing(true);

        let mut d = data_frame();
        run_through(&mut p, &mut d, 1_000, 5);
        let mut probe = probe_frame(3, 0);
        run_through(&mut p, &mut probe, 10_000_000, 6);

        let mut out = Vec::new();
        p.drain_trace(&mut out);
        assert_eq!(out.len(), 2, "one harvest + one reset per probe");
        assert!(matches!(
            out[0].kind,
            TraceKind::ProbeHarvest { switch: 42, port: 2, max_qlen_pkts: 6 }
        ));
        assert!(matches!(
            out[1].kind,
            TraceKind::RegisterReset { switch: 42, register: "max_qlen", port: 2 }
        ));

        // Drained: a second drain yields nothing; disabling clears.
        let mut again = Vec::new();
        p.drain_trace(&mut again);
        assert!(again.is_empty());
        p.set_tracing(false);
        let mut probe2 = probe_frame(3, 0);
        run_through(&mut p, &mut probe2, 20_000_000, 1);
        p.drain_trace(&mut again);
        assert!(again.is_empty(), "no buffering while tracing is off");
    }

    #[test]
    fn probe_grows_by_exactly_one_record_per_switch() {
        let mut p = program(true);
        let mut probe = probe_frame(3, 0);
        let len0 = probe.wire_len();
        run_through(&mut p, &mut probe, 1_000, 1);
        assert_eq!(probe.wire_len(), len0 + IntRecord::LEN);
    }
}
