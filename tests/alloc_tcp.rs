//! A bulk TCP transfer's data segments **allocate nothing on the send
//! path**.
//!
//! A counting allocator wraps the system allocator (this integration test
//! is its own binary, so the `#[global_allocator]` is scoped to it). Two
//! hosts exchange a 4 MiB stream over a zero-latency fake network. The
//! sender's side of every round — processing the receiver's ACKs, pumping
//! new segments, swapping out its outbox and encoding each segment's
//! payload straight from the send buffer into a reused frame — is counted
//! apart from the receiver's side. After the handshake and the first third
//! of the stream have grown the reused buffers, the sender must make no fresh
//! allocation at all; its only heap calls are the in-place shrinks of the
//! send buffer as acknowledged bytes are dropped, one per halving. The
//! receiver's count per data segment is reported, not bounded: each
//! in-order delivery hands the application an owned `Vec`.
//!
//! Single test function on purpose: parallel tests would interleave their
//! allocations into the shared counters.

use bytes::BytesMut;
use int_edge_sched::netsim::tcp::{TcpConfig, TcpHost, TcpOutbox};
use int_edge_sched::netsim::{SimTime, TcpEvent};
use int_edge_sched::packet::{PacketBuilder, TcpHeader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Fresh allocations and reallocations, per counted side.
static SEND_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SEND_REALLOCS: AtomicU64 = AtomicU64::new(0);
static RECV_ALLOCS: AtomicU64 = AtomicU64::new(0);

const OFF: u8 = 0;
const SEND: u8 = 1;
const RECV: u8 = 2;

// Only the test thread's allocations count (the libtest harness threads
// allocate at their own pace). `Cell<u8>` has no destructor, so the TLS
// access inside the allocator cannot itself allocate or recurse.
thread_local! {
    static SIDE: Cell<u8> = const { Cell::new(OFF) };
}

fn count_as(side: u8) {
    let _ = SIDE.try_with(|c| c.set(side));
}

fn side() -> u8 {
    SIDE.try_with(Cell::get).unwrap_or(OFF)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match side() {
            SEND => SEND_ALLOCS.fetch_add(1, Ordering::Relaxed),
            RECV => RECV_ALLOCS.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match side() {
            SEND => SEND_REALLOCS.fetch_add(1, Ordering::Relaxed),
            RECV => RECV_ALLOCS.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const STREAM: usize = 4 << 20;
/// Data segments sent before counting starts (~1.4 MB of the stream).
const WARM_UP_SEGMENTS: u64 = 1_000;

/// Payload bytes of an encoded TCP frame (Ethernet + IPv4 + TCP headers).
const HEADERS: usize = 14 + 20 + TcpHeader::LEN;

#[test]
fn bulk_transfer_send_path_allocates_nothing_per_segment() {
    // The receiver's 256 KiB window caps the flight, so the outboxes
    // reach their steady size once slow start has filled it.
    let mut a = TcpHost::new(A_IP, TcpConfig::default());
    let mut b = TcpHost::new(
        B_IP,
        TcpConfig {
            recv_window: 256 * 1024,
            ..TcpConfig::default()
        },
    );
    b.listen(7100);
    let conn = a.alloc_conn_id();
    a.connect(conn, B_IP, 7100, SimTime(0));

    let builder = PacketBuilder::between(0, A_IP, 1, B_IP);
    let mut frame = BytesMut::new();
    let mut out_a = TcpOutbox::default();
    let mut out_b = TcpOutbox::default();
    let mut received = 0usize;
    let mut data_segments = 0u64;
    let mut counted_segments = 0u64;
    let mut counting = false;
    let mut acks = 0usize;

    for round in 0..100_000u64 {
        let now = SimTime(1 + round);
        if round == 3 {
            // Handshake done: queue the whole stream (the buffer adopts
            // this `Vec`) and half-close.
            a.send(conn, vec![0x5A; STREAM], now);
            a.close(conn, now);
        }
        if data_segments >= WARM_UP_SEGMENTS && !counting {
            counting = true;
            counted_segments = data_segments;
        }

        // Sender: encode everything it emitted.
        count_as(if counting { SEND } else { OFF });
        a.swap_outbox(&mut out_a);
        let quiet = out_a.segments.is_empty() && acks == 0;
        for seg in out_a.segments.drain(..) {
            builder.tcp_into(seg.header, a.payload(&seg), &mut frame);
            data_segments += (seg.len > 0) as u64;
            // Receiver: take the frame in.
            count_as(if counting { RECV } else { OFF });
            b.on_segment(now, A_IP, &seg.header, &frame[HEADERS..]);
            count_as(if counting { SEND } else { OFF });
        }
        out_a.timers.clear();
        out_a.events.clear();

        // Receiver: hand its ACKs back and consume its deliveries.
        count_as(if counting { RECV } else { OFF });
        b.swap_outbox(&mut out_b);
        for ev in out_b.events.drain(..) {
            if let TcpEvent::Data { data, .. } = ev {
                received += data.len();
            }
        }
        out_b.timers.clear();

        // Sender: process the ACKs (the receiver sends no payload).
        count_as(if counting { SEND } else { OFF });
        acks = out_b.segments.len();
        for seg in out_b.segments.drain(..) {
            assert_eq!(seg.len, 0);
            a.on_segment(now, B_IP, &seg.header, &[]);
        }
        count_as(OFF);
        if quiet && received == STREAM {
            break;
        }
    }
    count_as(OFF);

    assert_eq!(received, STREAM, "stream delivered");
    assert_eq!(
        a.send_buffered(conn),
        Some(0),
        "buffer released once the FIN was acked"
    );
    let segments = data_segments - counted_segments;
    assert!(segments > 1_900, "counted most of the transfer: {segments}");

    let send_allocs = SEND_ALLOCS.load(Ordering::Relaxed);
    let send_reallocs = SEND_REALLOCS.load(Ordering::Relaxed);
    let recv_allocs = RECV_ALLOCS.load(Ordering::Relaxed);
    // The acknowledged prefix is dropped once it is at least as long as
    // the tail, so the buffer shrinks about log2(STREAM / 64 KiB) times.
    let halvings = (STREAM / (64 * 1024)).ilog2() as u64 + 1;
    eprintln!(
        "{segments} data segments: send path {send_allocs} allocations, \
         {send_reallocs} reallocations; receive path {recv_allocs} allocations \
         ({:.2} per segment)",
        recv_allocs as f64 / segments as f64
    );
    assert_eq!(send_allocs, 0, "the send path allocated for a segment");
    assert!(
        send_reallocs <= halvings,
        "{send_reallocs} reallocations: more than one per halving of the buffer"
    );
}
