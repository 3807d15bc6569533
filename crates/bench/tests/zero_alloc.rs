//! Steady-state zero-copy decode performs **zero heap allocations per
//! frame**: `next_view` borrows every frame from the reader's window
//! and `next_views_into` from the mapping, across refills — no `Vec`
//! per payload, no per-frame header boxes. The same counter pins the
//! monitor's incremental tick (an idle connection costs a steady tick
//! next to nothing) and the capture path's reassembly: a whole batch
//! pass allocates a couple of times per frame, not once per path
//! attribute, and a flow that is not BGP costs no allocation at all.
//!
//! The counting allocator lives here because the packet crate itself
//! (rightly) forbids `unsafe`; an integration test is its own crate,
//! so the `#[global_allocator]` below scopes to this binary only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use tdat::StreamAnalyzer;
use tdat_bench::{generate_transfer, Dataset, Scenario};
use tdat_bgp::BgpMessage;
use tdat_monitor::{Monitor, MonitorConfig};
use tdat_packet::{
    FrameBlock, FrameBuilder, FrameLike, MmapReader, PcapReader, PcapWriter, TcpFlags, TcpFrame,
    TcpOption,
};
use tdat_pcap2bgp::{extract_all, StreamExtractor};
use tdat_timeset::Micros;

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread. The test runner puts each
    /// test on its own thread, so a test reading its own counter never
    /// sees a sibling's allocations. The const initialiser and the
    /// `Cell<u64>` payload mean the slot needs neither lazy
    /// initialisation nor a destructor, so touching it from inside the
    /// allocator cannot itself allocate or recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    // `try_with`: a thread may still allocate while its locals are
    // being torn down; those allocations belong to no test.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: delegates every operation to `System`; the counter is the
// only addition and is thread-local.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// An in-memory capture whose *first* data frame carries the largest
/// payload, so one warm-up decode grows the record buffer to its
/// steady-state size.
fn capture(frames_after_warmup: usize) -> Vec<u8> {
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let b = Ipv4Addr::new(10, 0, 0, 2);
    let mut pcap = Vec::new();
    let mut writer = PcapWriter::new(&mut pcap).expect("in-memory pcap");
    let mut write = |frame| writer.write_frame(&frame).expect("in-memory pcap");
    write(
        FrameBuilder::new(a, b)
            .ports(179, 40000)
            .at(Micros(0))
            .seq(0)
            .flags(TcpFlags::SYN)
            .build(),
    );
    // Warm-up data frame: the largest record in the capture.
    write(
        FrameBuilder::new(a, b)
            .ports(179, 40000)
            .at(Micros(100))
            .seq(1)
            .flags(TcpFlags::ACK)
            .payload(vec![0xAB; 1448])
            .build(),
    );
    let mut seq = 1 + 1448u32;
    for i in 0..frames_after_warmup {
        let len = 600 + (i % 3) * 400; // 600/1000/1400: all ≤ warm-up size
        write(
            FrameBuilder::new(a, b)
                .ports(179, 40000)
                .at(Micros(200 + i as i64 * 50))
                .seq(seq)
                .ack_to(1)
                .flags(TcpFlags::ACK)
                .payload(vec![0xCD; len])
                .build(),
        );
        seq += len as u32;
    }
    let _ = &mut write;
    pcap
}

#[test]
fn steady_state_decode_allocates_nothing_per_frame() {
    const FRAMES: usize = 256;
    let pcap = capture(FRAMES);

    let mut reader = PcapReader::new(&pcap[..]).expect("valid pcap");
    // Warm-up: SYN plus the largest data frame sizes the record buffer.
    for _ in 0..2 {
        let view = reader.next_view().expect("valid record");
        assert!(view.is_some(), "warm-up frames present");
    }

    let before = allocations();
    let mut frames = 0usize;
    let mut payload_bytes = 0u64;
    while let Some(view) = reader.next_view().expect("valid record") {
        frames += 1;
        payload_bytes += view.payload.len() as u64;
    }
    let after = allocations();

    assert_eq!(frames, FRAMES);
    assert!(payload_bytes > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state zero-copy decode must not allocate \
         ({} allocations over {frames} frames)",
        after - before
    );
}

/// Like [`capture`], but every frame carries a `Timestamps` option so
/// the decode exercises the SWAR option scan and per-slot option
/// storage. The warm-up frame is still the largest record.
fn timestamp_capture(frames_after_warmup: usize) -> Vec<u8> {
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let b = Ipv4Addr::new(10, 0, 0, 2);
    let mut pcap = Vec::new();
    let mut writer = PcapWriter::new(&mut pcap).expect("in-memory pcap");
    let mut write = |frame| writer.write_frame(&frame).expect("in-memory pcap");
    write(
        FrameBuilder::new(a, b)
            .ports(179, 40000)
            .at(Micros(0))
            .seq(0)
            .flags(TcpFlags::SYN)
            .option(TcpOption::Timestamps(1, 0))
            .build(),
    );
    write(
        FrameBuilder::new(a, b)
            .ports(179, 40000)
            .at(Micros(100))
            .seq(1)
            .flags(TcpFlags::ACK)
            .option(TcpOption::Timestamps(2, 1))
            .payload(vec![0xAB; 1448])
            .build(),
    );
    let mut seq = 1 + 1448u32;
    for i in 0..frames_after_warmup {
        let len = 600 + (i % 3) * 400;
        write(
            FrameBuilder::new(a, b)
                .ports(179, 40000)
                .at(Micros(200 + i as i64 * 50))
                .seq(seq)
                .ack_to(1)
                .flags(TcpFlags::ACK)
                .option(TcpOption::Timestamps(3 + i as u32, 2 + i as u32))
                .payload(vec![0xCD; len])
                .build(),
        );
        seq += len as u32;
    }
    let _ = &mut write;
    pcap
}

/// Block decode reuses the `FrameBlock`'s slots *including their
/// per-slot option storage*: after one full block has sized every
/// slot, further blocks decode frames that carry TCP options (the
/// per-frame `FrameView` path would allocate an option `Vec` for each)
/// with zero allocations.
#[test]
fn block_decode_reuses_frame_block_with_zero_allocations() {
    // 2 warm-up frames + 766 data frames = 3 exact blocks of 256.
    const AFTER_WARMUP: usize = 766;
    let mut reader = MmapReader::from_vec(timestamp_capture(AFTER_WARMUP)).expect("valid pcap");
    let mut block = FrameBlock::new();

    // Warm-up block: grows the slot vector and every slot's option
    // storage to steady state.
    let warm = reader.next_views_into(&mut block).expect("valid records");
    assert_eq!(warm.len(), 256, "first block fills completely");

    let before = allocations();
    let mut frames = 0usize;
    let mut options = 0usize;
    loop {
        let views = reader.next_views_into(&mut block).expect("valid records");
        if views.is_empty() {
            break;
        }
        for frame in &views {
            frames += 1;
            options += frame.tcp().options.len();
        }
    }
    let after = allocations();

    assert_eq!(frames, AFTER_WARMUP + 2 - 256);
    assert_eq!(options, frames, "every frame carries its Timestamps option");
    assert_eq!(
        after - before,
        0,
        "block decode with slot reuse must not allocate \
         ({} allocations over {frames} option-bearing frames)",
        after - before
    );
}

/// The allocating path, for contrast: `read_all` must allocate at
/// least one payload `Vec` per data frame. This guards the test
/// itself — if the counting allocator ever stopped observing the
/// decode path, this assertion would fail first.
#[test]
fn owned_decode_allocates_per_frame() {
    const FRAMES: usize = 64;
    let pcap = capture(FRAMES);
    let before = allocations();
    let frames = PcapReader::new(&pcap[..])
        .expect("valid pcap")
        .read_all()
        .expect("valid records");
    let after = allocations();
    assert_eq!(frames.len(), FRAMES + 2);
    assert!(
        after - before >= FRAMES as u64,
        "owned decode should allocate per frame (saw {})",
        after - before
    );
}

/// Tick intervals the idle-cost watch divides its transfer into, and
/// so the ticks inside the count: the first tick runs before it, and
/// advancing one interval past the last frame adds one.
const STEADY_TICKS: u64 = 16;

/// One clean transfer plus `sessions` more on distinct endpoints, in
/// capture order, and the tick interval that divides the transfer into
/// [`STEADY_TICKS`] rounds. The transfer's SYN comes first, so the tick
/// schedule does not depend on `sessions`, and every handshake
/// completes inside the first interval: from the second tick on the
/// sessions are open and, unless `busy`, never dirty again. A `busy`
/// session sends one KEEPALIVE segment per interval after that, so it
/// is dirty at every steady tick.
fn watch_with_sessions(sessions: usize, busy: bool) -> (Vec<TcpFrame>, Micros) {
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let mut frames = generate_transfer(Dataset::IspAQuagga, 0, Scenario::Clean, 8_000, 7).frames;
    let start = frames[0].timestamp;
    let end = frames.last().expect("non-empty transfer").timestamp;
    let interval = Micros((end - start).0 / STEADY_TICKS as i64);
    for i in 0..sessions {
        let a = Ipv4Addr::new(10, 100, i as u8, (i >> 8) as u8);
        let b = Ipv4Addr::new(172, 16, i as u8, (i >> 8) as u8);
        let t0 = start + Micros(1 + i as i64);
        assert!(
            t0 + Micros(200) < start + interval,
            "handshakes fit the first tick"
        );
        let syn = FrameBuilder::new(a, b).ports(40_000, 179).at(t0).seq(0);
        let syn_ack = FrameBuilder::new(b, a)
            .ports(179, 40_000)
            .at(t0 + Micros(100))
            .seq(0)
            .ack_to(1);
        let ack = FrameBuilder::new(a, b)
            .ports(40_000, 179)
            .at(t0 + Micros(200))
            .seq(1)
            .ack_to(1);
        let ack = ack.flags(TcpFlags::ACK);
        frames.push(syn.flags(TcpFlags::SYN).build());
        frames.push(syn_ack.flags(TcpFlags::SYN | TcpFlags::ACK).build());
        frames.push(ack.clone().build());
        let segments = if busy { STEADY_TICKS as u32 } else { 0 };
        for tick in 1..=segments {
            let at = t0 + Micros(tick as i64 * interval.0);
            let seq = 1 + (tick - 1) * keepalive.len() as u32;
            frames.push(
                ack.clone()
                    .at(at)
                    .seq(seq)
                    .payload(keepalive.clone())
                    .build(),
            );
        }
    }
    frames.sort_by_key(|f| f.timestamp);
    (frames, interval)
}

/// Allocations an inline [`Monitor`] makes over the steady ticks of
/// [`watch_with_sessions`]: setup and the first tick — every session's
/// one-time analysis — run before the count starts.
fn steady_tick_allocations(sessions: usize, busy: bool) -> u64 {
    let (frames, interval) = watch_with_sessions(sessions, busy);
    let first_tick = frames[0].timestamp + interval;
    let end = frames.last().expect("non-empty watch").timestamp;
    let mut monitor = Monitor::new(MonitorConfig {
        interval,
        ..MonitorConfig::default()
    });
    let (setup, steady) = frames.split_at(frames.partition_point(|f| f.timestamp <= first_tick));
    for frame in setup {
        monitor.ingest(frame);
    }
    monitor.advance_to(first_tick);
    assert_eq!(monitor.metrics().ticks(), 1);
    assert_eq!(monitor.open_connections(), sessions + 1);

    let before = allocations();
    for frame in steady {
        monitor.ingest(frame);
    }
    monitor.advance_to(end + interval);
    let after = allocations();
    assert_eq!(monitor.metrics().ticks(), 1 + STEADY_TICKS);
    assert_eq!(
        monitor.open_connections(),
        sessions + 1,
        "nothing idled out"
    );
    after - before
}

/// "Tick cost tracks new traffic, not open connections", as a count:
/// 500 open-but-idle sessions may add at most `PER_IDLE_PER_TICK`
/// allocations each to a steady tick. Measured (debug and release,
/// repeating exactly): 1 007 allocations over the 16 steady ticks with
/// the transfer alone, 9 135 with 500 idle sessions beside it — 8 128
/// more, 1.02 per idle session per tick, the peer-group correlation's
/// one bucket per sender. The same 500 sessions each sending one
/// segment per interval, so every one is dirty at every tick, make
/// 804 451 — 100 per session per tick, its segment's ingest plus its
/// re-analysis. That run guards the test itself: sessions that do cost
/// a tick land above the bound, and if the counter stopped seeing the
/// tick it would fail first.
#[test]
fn idle_connections_cost_a_steady_tick_nothing() {
    const IDLE: usize = 500;
    const PER_IDLE_PER_TICK: u64 = 2;
    let bound = PER_IDLE_PER_TICK * IDLE as u64 * STEADY_TICKS;

    let alone = steady_tick_allocations(0, false);
    let crowded = steady_tick_allocations(IDLE, false);
    assert!(
        crowded - alone <= bound,
        "{IDLE} idle sessions added {} allocations to {STEADY_TICKS} steady ticks \
         ({alone} alone, {crowded} crowded; bound {bound})",
        crowded - alone
    );
    let busy = steady_tick_allocations(IDLE, true);
    assert!(
        busy - alone > bound,
        "{IDLE} sessions dirty at every tick should each be re-analysed per tick \
         ({alone} alone, {busy} busy; bound {bound})"
    );
}

/// `alloc.batch.count_per_frame`, pinned as a count: a clean
/// 8 000-route transfer through the inline [`StreamAnalyzer`] — decode
/// aside, the whole batch pass: tracker, reassembly into the message
/// log, MCT, labelling, series, factors. Measured (debug and release,
/// repeating exactly): 305 allocations over the transfer's 173 frames,
/// 1.8 per frame, most of them the per-connection analysis; when
/// reassembly kept an owned `BgpMessage` tree per message the same pass
/// made 19 363, 112 per frame. That path still exists for the
/// `pcap2bgp` tool, and guards the test: `extract_all` over the same
/// frames makes 19 108, 110 per frame — if the counter stopped seeing
/// reassembly, the second assertion would fail first.
#[test]
fn batch_pass_allocates_a_few_times_per_frame() {
    const PER_FRAME: u64 = 3;
    let frames = generate_transfer(Dataset::IspAQuagga, 0, Scenario::Clean, 8_000, 7).frames;
    let count = frames.len() as u64;
    let owned: Vec<tdat_packet::Result<TcpFrame>> = frames.iter().cloned().map(Ok).collect();

    let before = allocations();
    let mut analyses = Vec::new();
    StreamAnalyzer::new(Default::default())
        .analyze_stream(owned, |analysis| analyses.push(analysis))
        .expect("in-memory frames");
    let inline = allocations() - before;
    assert_eq!(analyses.len(), 1);
    let prefixes = analyses[0].transfer.as_ref().map(|t| t.prefix_count);
    assert_eq!(prefixes, Some(8_000));
    assert!(
        inline <= PER_FRAME * count,
        "{inline} allocations over {count} frames (bound {PER_FRAME} per frame)"
    );

    let before = allocations();
    let whole = extract_all(&frames);
    let trees = allocations() - before;
    assert_eq!(whole[0].1.announced_prefixes(), 8_000);
    assert!(
        trees > 30 * count,
        "whole-message extraction should allocate per attribute \
         ({trees} allocations over {count} frames)"
    );
}

/// A TCP flow that is not BGP is skipped without a single allocation:
/// once the framing buffer has grown to a segment, 64 KiB of payload —
/// pseudo-random bytes and a long run of marker bytes, the worst case
/// for the resync scan — goes through a default [`StreamExtractor`]
/// with the counter still. (Each rejected byte used to cost a failed
/// decode and a heap-allocated error string.)
#[test]
fn non_bgp_payload_allocates_nothing() {
    const SEGMENT: usize = 1448;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut payload: Vec<u8> = (0..32 << 10)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    payload.resize(64 << 10, 0xff);

    let mut extractor = StreamExtractor::new();
    extractor.anchor(1);
    let mut seq = 1u32;
    // Warm-up: two segments size the reassembler's ready buffer and
    // the framing buffer (one segment plus a carried-over tail).
    for _ in 0..2 {
        extractor.push(Micros(0), seq, TcpFlags::ACK, &[0xAB; SEGMENT]);
        seq += SEGMENT as u32;
    }

    let before = allocations();
    for segment in payload.chunks(SEGMENT) {
        extractor.push(Micros(1), seq, TcpFlags::ACK, segment);
        seq += segment.len() as u32;
    }
    let after = allocations();
    assert_eq!(after - before, 0, "non-BGP payload must not allocate");
    assert_eq!(extractor.messages_decoded(), 0);
    let skipped = extractor.extraction().unparsed_bytes + extractor.buffered_bytes() as u64;
    assert_eq!(skipped, (2 * SEGMENT + payload.len()) as u64);
}
