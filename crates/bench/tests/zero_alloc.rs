//! Steady-state zero-copy decode performs **zero heap allocations per
//! frame**: `next_view` borrows every frame from the reader's window
//! and `next_views_into` from the mapping, across refills — no `Vec`
//! per payload, no per-frame header boxes. The same counter pins the
//! monitor's incremental tick (an idle connection costs a steady tick
//! next to nothing) and the capture path's reassembly: a whole batch
//! pass allocates a couple of times per frame, not once per path
//! attribute, and a flow that is not BGP costs no allocation at all.
//! Beside the count, a byte tally pins how MCT sizes its set, and that
//! a monitor tick allocates none: the snapshot pull does. A live-byte
//! tally pins what an open connection holds: its map entry and its
//! message log, no segment-sized buffer, and in the tracker 32 bytes a
//! frame, with no allocation per frame; what a settled transfer
//! holds: no table, and nothing more for the rows after it; and that
//! the end of the input builds one open connection at a time. A report
//! renders into its line with no temporary, and a short session costs
//! its state, not the names of its series or its report's fixed words.
//! The simulator's collector archives bytes, not message trees.
//!
//! The counting allocator lives here because the packet crate itself
//! (rightly) forbids `unsafe`; an integration test is its own crate,
//! so the `#[global_allocator]` below scopes to this binary only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use tdat::{
    delay_vector_with, AnalyzerConfig, BgpDemux, Report, SeriesBuilder, Slot, StreamAnalyzer,
    TrackerConfig,
};
use tdat_bench::{generate_transfer, Dataset, Scenario};
use tdat_bgp::{
    find_transfer_end_ref, BgpMessage, Framed, KeptMessages, MctConfig, MctUpdate, MessageLog,
    OpenMessage, PathAttribute, Prefix, TableGenerator, UpdateMessage,
};
use tdat_monitor::{AlertKind, ConnectionSummary, Monitor, MonitorConfig, MonitorEvent};
use tdat_packet::{
    FrameBlock, FrameBuilder, FrameLike, LossyReader, MmapReader, PcapReader, PcapWriter, TcpFlags,
    TcpFrame, TcpOption,
};
use tdat_pcap2bgp::{extract_all, StreamExtractor};
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::Simulation;
use tdat_timeset::{Event, Micros, SpanScratch};
use tdat_trace::ConnectionTracker;

struct CountingAllocator;

thread_local! {
    /// Allocations made by *this* thread. The test runner puts each
    /// test on its own thread, so a test reading its own counter never
    /// sees a sibling's allocations. The const initialiser and the
    /// `Cell<u64>` payload mean the slot needs neither lazy
    /// initialisation nor a destructor, so touching it from inside the
    /// allocator cannot itself allocate or recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc` counts its new
    /// size), on the same terms.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: allocations add their size, a
    /// `realloc` its growth, a `dealloc` subtracts. Memory freed by a
    /// thread other than the one that allocated it skews both tallies,
    /// which no test here does.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The largest single allocation (a `realloc` counts its new size)
    /// since the thread last reset it.
    static LARGEST: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread's allocations have asked for so far.
fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes the calling thread holds, net of what it freed.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// The largest single allocation the calling thread has made since the
/// last call, which resets it.
fn take_largest() -> u64 {
    LARGEST.with(|largest| largest.replace(0))
}

fn count_one(size: usize) {
    // `try_with`: a thread may still allocate while its locals are
    // being torn down; those allocations belong to no test.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = BYTES.try_with(|bytes| bytes.set(bytes.get() + size as u64));
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size as u64)));
}

fn hold(delta: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: delegates every operation to `System`; the counters are the
// only addition and are thread-local.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        hold(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        hold(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        hold(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
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
/// 500 open-but-idle sessions add no allocation to a steady tick.
/// Measured (debug and release, repeating exactly): 150 allocations
/// over the 16 steady ticks with the transfer alone, and 150 with 500
/// idle sessions beside it. The same 500 sessions each sending one
/// segment per interval, so every one is dirty at every tick, make
/// 149 786 — 18.7 per session per tick, its segment's ingest plus its
/// re-analysis — and may make at most `PER_BUSY_PER_TICK`: a tick
/// builds only what its alerts read, a refresh keeps the session id
/// it cached while the endpoints stay, a series is named by its slot,
/// so a refresh allocates no name, and a refresh builds its series in
/// the source's pooled builders and freezes them in one allocation.
/// That run also guards the test itself: if the counter stopped seeing
/// the tick it would fail first. (While every refresh built its
/// series in `Vec`s of their own, with a scratch of its own, the
/// transfer alone made 189 and a busy session 23 a tick, 183 825 in
/// all. While each of the seven series a refresh builds carried an
/// owned name, the transfer alone made 217 and a busy session 30 a tick,
/// 239 853 in all; while the sweep collected and sorted the whole
/// cache each tick, the transfer alone made 323; while a refresh
/// formatted the session id again, a busy session made 33 a tick;
/// while the peer-group
/// correlation bucketed senders in a hash map of vectors, each idle
/// session cost a tick 1.02 allocations; while a tick built the whole
/// analysis — every series, the factor vector, a copy of the trace per
/// kernel — a busy one cost it 100. The three counts were 982 / 9 110
/// / 804 426.)
#[test]
fn idle_connections_cost_a_steady_tick_nothing() {
    const IDLE: usize = 500;
    const PER_BUSY_PER_TICK: u64 = 19;

    let alone = steady_tick_allocations(0, false);
    let crowded = steady_tick_allocations(IDLE, false);
    assert_eq!(
        crowded, alone,
        "{IDLE} idle sessions added allocations to {STEADY_TICKS} steady ticks"
    );
    let busy = steady_tick_allocations(IDLE, true);
    let busy_bound = PER_BUSY_PER_TICK * IDLE as u64 * STEADY_TICKS;
    assert!(
        busy - alone > IDLE as u64 * STEADY_TICKS,
        "{IDLE} sessions dirty at every tick should each be re-analysed per tick \
         ({alone} alone, {busy} busy)"
    );
    assert!(
        busy - alone <= busy_bound,
        "{IDLE} sessions re-analysed at every tick added {} allocations to \
         {STEADY_TICKS} ticks (bound {busy_bound})",
        busy - alone
    );
}

/// An UPDATE announcing `count` /24s, numbered from `first` on.
fn announce(first: u32, count: usize) -> Vec<u8> {
    let announced = (first..first + count as u32)
        .map(|n| Prefix::new(Ipv4Addr::from(0x0b00_0000 + (n << 8)), 24).expect("a /24"))
        .collect();
    let update = UpdateMessage::announce(vec![PathAttribute::Med(1)], announced);
    BgpMessage::Update(update).to_bytes()
}

/// `router`'s session with a collector of its own, as frames: the
/// handshake at `t0`, then one segment per `(time, payload)`, in
/// sequence. Nothing closes it.
fn router_session(
    router: Ipv4Addr,
    t0: Micros,
    segments: impl IntoIterator<Item = (Micros, Vec<u8>)>,
) -> Vec<TcpFrame> {
    let [_, b, c, d] = router.octets();
    let collector = Ipv4Addr::new(172, b, c, d);
    let out = FrameBuilder::new(router, collector).ports(179, 40_000);
    let syn_ack = FrameBuilder::new(collector, router)
        .ports(40_000, 179)
        .at(t0 + Micros(100))
        .seq(0)
        .ack_to(1)
        .flags(TcpFlags::SYN | TcpFlags::ACK);
    let mut frames = vec![
        out.clone().at(t0).seq(0).flags(TcpFlags::SYN).build(),
        syn_ack.build(),
    ];
    let mut seq = 1u32;
    for (at, payload) in segments {
        let segment = out.clone().at(at).seq(seq).ack_to(1).flags(TcpFlags::ACK);
        seq += payload.len() as u32;
        frames.push(segment.payload(payload).build());
    }
    frames
}

/// What the settle queue runs after the ticks of a watch visit, beside
/// `idle` open sessions whose logs it holds. One session announces a
/// prefix at 0.5 s and then sends a KEEPALIVE every 10 s to 85 s, which
/// moves the clock; the `idle` sessions each come up and announce one
/// prefix 30 s in, and then say nothing. Ticks run every 10 s; returns
/// the entries visited by the tick at 40 s and by 90 s, and the logs
/// settled by 90 s.
fn settle_visits(idle: usize) -> (u64, u64, u64) {
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let mut clock = vec![(Micros::from_millis(500), announce(0, 1))];
    clock.extend((0..9).map(|k| (Micros::from_secs(5 + 10 * k), keepalive.clone())));
    let mut frames = router_session(Ipv4Addr::new(10, 80, 0, 0), Micros::ZERO, clock);
    for i in 0..idle {
        let router = Ipv4Addr::new(10, 81, (i >> 8) as u8, i as u8);
        let t0 = Micros::from_secs(30) + Micros(i as i64);
        frames.extend(router_session(
            router,
            t0,
            [(t0 + Micros(200), announce(1, 1))],
        ));
    }
    frames.sort_by_key(|f| f.timestamp);

    let (setup, steady) =
        frames.split_at(frames.partition_point(|f| f.timestamp < Micros::from_secs(40)));
    let defaults = MonitorConfig::default();
    let mut monitor = Monitor::new(MonitorConfig {
        tracker: TrackerConfig {
            max_connections: None,
            ..defaults.tracker
        },
        ..defaults
    });
    for frame in setup {
        monitor.ingest(frame);
    }
    monitor.advance_to(Micros::from_secs(40));
    let before_due = monitor.metrics().settle_queue_visits();
    for frame in steady {
        monitor.ingest(frame);
    }
    monitor.advance_to(Micros::from_secs(90));
    assert_eq!(monitor.metrics().ticks(), 9);
    assert_eq!(monitor.open_connections(), idle + 1, "nothing idled out");
    let metrics = monitor.metrics();
    (
        before_due,
        metrics.settle_queue_visits(),
        metrics.transfers_settled(),
    )
}

/// A settle costs the queue entries due, not the logs open, as a
/// count: beside 1 000 and beside 10 000 idle open sessions, each with
/// a log in the settle queue, the ticks before any log is due visit no
/// entry, and the tick at which one log falls due visits that one
/// entry and settles it. (While the settle ran as a sweep, every tick
/// read both logs of every open connection: 1 001 and 10 001
/// connections a tick.)
#[test]
fn idle_logs_cost_a_settle_nothing() {
    for idle in [1_000, 10_000] {
        assert_eq!(
            settle_visits(idle),
            (0, 1, 1),
            "settle queue entries visited by 40 s and by 90 s, and logs settled, \
             beside {idle} idle logs"
        );
    }
}

/// Sessions per router in [`reconnecting_routers`]: four closed, one
/// live.
const GROUP: usize = 5;

/// When [`reconnecting_routers`]' sessions are all in place: the tick
/// at this time is the last one before the steady ticks.
const SETUP: Micros = Micros::from_secs(36);

/// `routers` routers, each of which reconnected to one collector
/// [`GROUP`] times just before [`SETUP`]: every session moves two
/// KEEPALIVEs 28 ms apart, so its `SendAppLimited` series is not empty,
/// and all but the last close, to linger for the tracker's 5 s
/// `close_grace`. So each router is one sender group of [`GROUP`]
/// sessions, the session-reset pattern of the paper's Table I. With
/// `paused`, the first router's live session came up 34 s earlier and
/// was silent in between: a pause past the default 30 s `min_pause`.
fn reconnecting_routers(routers: usize, paused: bool) -> Vec<TcpFrame> {
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let len = keepalive.len() as u32;
    let collector = Ipv4Addr::new(172, 16, 0, 1);
    let mut frames = Vec::new();
    for g in 0..routers {
        let router = Ipv4Addr::new(10, 100, (g >> 8) as u8, g as u8);
        for k in 0..GROUP {
            let port = 40_000 + k as u16;
            let out = |at: Micros, seq: u32| {
                FrameBuilder::new(router, collector)
                    .ports(port, 179)
                    .at(at)
                    .seq(seq)
                    .ack_to(1)
                    .flags(TcpFlags::ACK)
            };
            let back = |at: Micros, ack: u32| {
                FrameBuilder::new(collector, router)
                    .ports(179, port)
                    .at(at)
                    .seq(1)
                    .ack_to(ack)
                    .window(65_535)
                    .flags(TcpFlags::ACK)
            };
            let live = k == GROUP - 1;
            let t0 = Micros::from_secs(35) + Micros(g as i64 * 1_000 + k as i64 * 100_000);
            let first = if live && paused && g == 0 {
                Micros::from_secs(1)
            } else {
                t0
            };
            frames.push(out(first, 0).ack_to(0).flags(TcpFlags::SYN).build());
            frames.push(
                back(first + Micros(100), 1)
                    .seq(0)
                    .flags(TcpFlags::SYN | TcpFlags::ACK)
                    .build(),
            );
            frames.push(out(first + Micros(200), 1).build());
            frames.push(
                out(first + Micros(1_000), 1)
                    .payload(keepalive.clone())
                    .build(),
            );
            frames.push(back(first + Micros(2_000), 1 + len).build());
            frames.push(
                out(t0 + Micros(30_000), 1 + len)
                    .payload(keepalive.clone())
                    .build(),
            );
            frames.push(back(t0 + Micros(31_000), 1 + 2 * len).build());
            if !live {
                let fin = 1 + 2 * len;
                frames.push(
                    out(t0 + Micros(40_000), fin)
                        .flags(TcpFlags::FIN | TcpFlags::ACK)
                        .build(),
                );
                frames.push(
                    back(t0 + Micros(41_000), fin + 1)
                        .flags(TcpFlags::FIN | TcpFlags::ACK)
                        .build(),
                );
                frames.push(out(t0 + Micros(42_000), fin + 1).ack_to(2).build());
            }
        }
    }
    frames.sort_by_key(|f| f.timestamp);
    frames
}

/// Peer-group pair checks an inline [`Monitor`] makes over
/// [`reconnecting_routers`]' setup, and pair checks and allocations over
/// [`STEADY_TICKS`] ticks after it, every session of which is cached and
/// idle by then.
fn steady_group_ticks(routers: usize, paused: bool) -> (u64, u64, u64) {
    let interval = Micros::from_millis(250);
    let mut monitor = Monitor::new(MonitorConfig {
        interval,
        ..MonitorConfig::default()
    });
    monitor.register_source("capture");
    // Fixes the tick schedule at multiples of the interval.
    monitor.advance_to(Micros::ZERO);
    for frame in reconnecting_routers(routers, paused) {
        monitor.ingest(&frame);
    }
    monitor.advance_to(SETUP);
    assert_eq!(monitor.open_connections(), routers * GROUP);

    let (pairs, before) = (monitor.metrics().peer_pairs_checked(), allocations());
    monitor.advance_to(SETUP + Micros(interval.0 * STEADY_TICKS as i64));
    let after = allocations();
    assert_eq!(
        monitor.metrics().ticks(),
        (SETUP.0 / interval.0) as u64 + STEADY_TICKS
    );
    assert_eq!(
        monitor.open_connections(),
        routers * GROUP,
        "closed sessions linger inside close_grace"
    );
    let analyses = monitor.snapshot_analyses();
    assert_eq!(analyses.len(), routers * GROUP);
    for (_, analysis) in analyses {
        assert!(
            !analysis.series.send_app_limited().is_empty(),
            "every session moved data and went quiet"
        );
    }
    let counted = (
        pairs,
        monitor.metrics().peer_pairs_checked() - pairs,
        after - before,
    );
    // Past `close_grace`, a frame of another session sweeps the closed
    // ones out: only each router's live session stays.
    let probe = FrameBuilder::new(Ipv4Addr::new(10, 200, 0, 1), Ipv4Addr::new(172, 16, 0, 1))
        .ports(40_000, 179)
        .at(SETUP + Micros::from_secs(6))
        .flags(TcpFlags::SYN)
        .build();
    monitor.ingest(&probe);
    assert_eq!(monitor.open_connections(), routers + 1);
    counted
}

/// The same law where senders are shared: 500 sessions in sender
/// groups of five — routers reconnecting, their closed sessions still
/// inside `close_grace` — add no pair check and no allocation to a
/// steady tick, because none of them paused for `min_pause` and so none
/// can be found blocked. Once one member has paused that long, its
/// group checks exactly its four pairs, at each tick that refreshes or
/// finalizes one of its members, and at no steady tick. Measured (debug
/// and release): 0 pair checks and the same allocations as no sessions
/// at all (none); with the pause, 4 pair checks over the setup, and no
/// pair check and no allocation over the 16 steady ticks. (While the peer-group pass ran at every
/// tick, the paused group checked its 4 pairs at each of them, 64 over
/// the steady ticks; while the correlation paired every two sessions
/// sharing a sender, the 500 cost 2 000 pair checks and their
/// allocations per tick.)
#[test]
fn shared_senders_cost_a_steady_tick_nothing_until_one_pauses() {
    const ROUTERS: usize = 100;
    let (_, no_pairs, alone) = steady_group_ticks(0, false);
    assert_eq!(no_pairs, 0);
    let (setup, pairs, crowded) = steady_group_ticks(ROUTERS, false);
    assert_eq!(
        (setup, pairs),
        (0, 0),
        "{} sessions in groups of {GROUP} with no long pause were paired",
        ROUTERS * GROUP
    );
    assert_eq!(
        crowded,
        alone,
        "{} idle sessions sharing senders added allocations to {STEADY_TICKS} steady ticks",
        ROUTERS * GROUP
    );
    let (setup, pairs, paused) = steady_group_ticks(ROUTERS, true);
    assert_eq!(
        setup,
        GROUP as u64 - 1,
        "the paused member was paired with each of its group's other members, once"
    );
    assert_eq!(
        pairs, 0,
        "the paused group's pairs were compared again at a steady tick"
    );
    assert_eq!(
        paused, alone,
        "a paused group added allocations to {STEADY_TICKS} steady ticks"
    );
}

/// Tick interval of [`fleet_frames`]' watch.
const FLEET_INTERVAL: Micros = Micros::from_secs(10);

/// The last tick before the steady ticks of [`fleet_frames`]' watch:
/// every stall has raised by then.
const FLEET_SETUP: Micros = Micros::from_secs(120);

/// `sessions` BGP sessions, each on a router of its own, opened within
/// the first second in time order: each router sends one KEEPALIVE and
/// every tenth a second one 34 s later, after a pause past the 30 s
/// `min_pause`; then every session stays silent, so each stalls a
/// minute after its last progress. With `busy`, one more session sends
/// a KEEPALIVE every tick interval from 45 s on, to `end`, and is dirty
/// at every tick.
fn fleet_frames(sessions: usize, busy: bool, end: Micros) -> impl Iterator<Item = TcpFrame> {
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let len = keepalive.len() as u32;
    let collector = Ipv4Addr::new(172, 16, 0, 1);
    let router = move |i: usize| match i < sessions {
        true => Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
        false => Ipv4Addr::new(11, 0, 0, 1),
    };
    let out = move |i: usize, at: Micros, seq: u32| {
        FrameBuilder::new(router(i), collector)
            .ports(40_000, 179)
            .at(at)
            .seq(seq)
            .ack_to(1)
            .flags(TcpFlags::ACK)
    };
    let back = move |i: usize, at: Micros, ack: u32| {
        FrameBuilder::new(collector, router(i))
            .ports(179, 40_000)
            .at(at)
            .seq(1)
            .ack_to(ack)
            .window(65_535)
            .flags(TcpFlags::ACK)
    };
    let all = sessions + usize::from(busy);
    // Frame kind by frame kind, session by session: 1 µs apart, each
    // kind 100 ms after the last, so times never decrease.
    let opening = (0..5).flat_map(move |k| {
        let keepalive = keepalive.clone();
        (0..all).map(move |i| {
            let at = Micros(k * 100_000 + i as i64);
            match k {
                0 => out(i, at, 0).ack_to(0).flags(TcpFlags::SYN).build(),
                1 => back(i, at, 1)
                    .seq(0)
                    .flags(TcpFlags::SYN | TcpFlags::ACK)
                    .build(),
                2 => out(i, at, 1).build(),
                3 => out(i, at, 1).payload(keepalive.clone()).build(),
                _ => back(i, at, 1 + len).build(),
            }
        })
    });
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let paused = (0..2).flat_map(move |k| {
        let keepalive = keepalive.clone();
        (0..sessions).step_by(10).map(move |i| {
            let at = Micros::from_secs(34) + Micros(k * 100_000 + i as i64);
            match k {
                0 => out(i, at, 1 + len).payload(keepalive.clone()).build(),
                _ => back(i, at, 1 + 2 * len).build(),
            }
        })
    });
    let keepalive = BgpMessage::Keepalive.to_bytes();
    let rounds = match busy {
        true => (end - Micros::from_secs(45)).0 / FLEET_INTERVAL.0 + 1,
        false => 0,
    };
    let steady = (0..rounds as u32).flat_map(move |r| {
        let at = Micros::from_secs(45) + Micros(r as i64 * FLEET_INTERVAL.0);
        let seq = 1 + (r + 1) * len;
        [
            out(sessions, at, seq).payload(keepalive.clone()).build(),
            back(sessions, at + Micros(1_000), seq + len).build(),
        ]
    });
    opening.chain(paused).chain(steady)
}

/// What an inline [`Monitor`] visits and allocates over [`STEADY_TICKS`]
/// ticks after [`FLEET_SETUP`], watching [`fleet_frames`] with the
/// tracker's idle timeout, close grace and cap lifted: by then every
/// idle session holds a raised stall alert, and a tenth of them a long
/// pause in a sender group of one.
fn idle_fleet_ticks(sessions: usize, busy: bool) -> (u64, u64) {
    let end = FLEET_SETUP + Micros(FLEET_INTERVAL.0 * STEADY_TICKS as i64);
    let mut monitor = Monitor::new(MonitorConfig {
        interval: FLEET_INTERVAL,
        tracker: TrackerConfig::batch(),
        ..MonitorConfig::default()
    });
    monitor.register_source("capture");
    // Fixes the tick schedule at multiples of the interval.
    monitor.advance_to(Micros::ZERO);
    let mut frames = fleet_frames(sessions, busy, end).peekable();
    while let Some(frame) = frames.next_if(|f| f.timestamp <= FLEET_SETUP) {
        monitor.ingest(&frame);
    }
    monitor.advance_to(FLEET_SETUP);
    let stalled = AlertKind::StalledTransfer;
    assert_eq!(monitor.metrics().alerts_raised(stalled), sessions as u64);
    assert_eq!(monitor.open_connections(), sessions + usize::from(busy));

    let (visits, before) = (monitor.metrics().tick_visits(), allocations());
    for frame in frames {
        monitor.ingest(&frame);
    }
    monitor.advance_to(end);
    let after = allocations();
    let metrics = monitor.metrics();
    assert_eq!(metrics.ticks(), (end.0 / FLEET_INTERVAL.0) as u64);
    assert_eq!(metrics.alerts_raised(stalled), sessions as u64);
    assert_eq!(metrics.alerts_cleared(stalled), 0, "every stall stands");
    assert_eq!(
        metrics.peer_pairs_checked(),
        0,
        "groups of one pair nothing"
    );
    (metrics.tick_visits() - visits, after - before)
}

/// "A steady tick costs what changed" over a fleet of idle sessions
/// that each hold a raised stall alert, a tenth of them also a long
/// pause in a sender group of one: the ticks visit only the dirty
/// connections and the deadlines that fall due, so the count is the
/// same at 1 000 and at 10 000 sessions, and with no session dirty a
/// tick visits nothing and allocates nothing. Measured (debug): with
/// one busy session beside them, 48 visits (its 16 refreshes, the 16
/// stall deadlines its progress moved, and 16 evaluations of its
/// timer-gap alert, whose evidence each refresh moves) and 1 611 allocations over
/// the 16 steady ticks at both sizes; alone, none of either. The larger size is 10 000: at 100 000 beside 10 000
/// the counts were equal too, but the four watches took 18 s in debug
/// and 358 MB. (While every tick swept every row, cloned each standing
/// condition to the alert engine and built the peer-group members of
/// every group holding a long pause, each idle session cost every tick
/// a row visit and its stall condition's allocations.)
#[test]
fn idle_sessions_with_standing_alerts_cost_a_steady_tick_nothing() {
    const SMALL: usize = 1_000;
    const LARGE: usize = 10_000;
    for busy in [false, true] {
        let small = idle_fleet_ticks(SMALL, busy);
        let large = idle_fleet_ticks(LARGE, busy);
        assert_eq!(
            large, small,
            "(visits, allocations) over {STEADY_TICKS} steady ticks at {LARGE} and {SMALL} \
             idle sessions, busy {busy}"
        );
        // The busy session's refresh, the stall deadline its progress
        // moved a minute before, and its timer-gap alert, at each tick.
        let visits = if busy { 3 * STEADY_TICKS } else { 0 };
        assert_eq!(small.0, visits, "visits over {STEADY_TICKS} steady ticks");
        if !busy {
            assert_eq!(small.1, 0, "allocations over {STEADY_TICKS} idle ticks");
        }
    }
}

/// A tick runs no MCT; the snapshot pull does. MCT sizes its set in one
/// allocation, so a tick that ran it would make one allocation at least
/// as large as the set MCT sizes for the log that tick saw. Over the
/// 8 000-route transfer of [`watch_with_sessions`] no single allocation
/// of a tick that re-analyses the connection while its table arrives is
/// that large; the pull right after completes the analysis, that set
/// among it, and a second pull builds nothing more (it allocates only
/// its result vector). Measured (debug and release): the four transfer
/// ticks allocate 27 / 27 / 35 / 36 times, 5 448 / 6 364 / 21 164 /
/// 24 420 bytes, at most 1 780 / 1 480 / 4 920 / 6 880 at once, against
/// sets of 10 256 / 20 496 / 40 976 / 81 936 bytes for 962 / 2 647 /
/// 6 466 / 8 000 prefixes (27 / 34 / 46 / 47 times, 6 392 / 7 004 /
/// 23 420 / 26 284 bytes and 3 060 at most at the first while every
/// refresh built its series in `Vec`s and a scratch of its own). The
/// test compared the tick's bytes in all
/// with the set while the set took 8 bytes a key (18 448 bytes for 962
/// prefixes); at 4 the first tick's set is 10 256 bytes against the
/// 6 392 that tick allocates without it, a margin any growth of the
/// tick's own allocations would close, where its largest single
/// allocation stays under a third of the set. While the tick built the
/// whole analysis it allocated 98 / 141 / 225 / 265 times, and while it
/// ran MCT, one set more.
#[test]
fn ticks_over_a_transfer_allocate_no_mct_set() {
    let (frames, interval) = watch_with_sessions(0, false);
    let mut monitor = Monitor::new(MonitorConfig {
        interval,
        ..MonitorConfig::default()
    });
    // Allocations, bytes and the transfer's prefix count of one pull.
    let pull = |monitor: &mut Monitor| {
        let (count, bytes) = (allocations(), allocated_bytes());
        let analyses = monitor.snapshot_analyses();
        let prefixes = analyses[0].1.transfer.as_ref().map(|t| t.prefix_count);
        (allocations() - count, allocated_bytes() - bytes, prefixes)
    };
    let mut completed = Vec::new();
    let mut boundary = frames[0].timestamp + interval;
    for (seen, frame) in frames.iter().enumerate() {
        while frame.timestamp >= boundary {
            let (count, bytes) = (allocations(), allocated_bytes());
            take_largest();
            monitor.advance_to(boundary);
            let tick = (
                allocations() - count,
                allocated_bytes() - bytes,
                take_largest(),
            );
            let (first, again) = (pull(&mut monitor), pull(&mut monitor));
            if first.0 > again.0 {
                // MCT's set over the log the tick saw, sized as the pull
                // sizes it.
                let (_, whole) = extract_all(&frames[..seen]).remove(0);
                let (_, set_bytes, prefixes) = mct_allocations(&whole.to_log().messages);
                assert_eq!(
                    first.2,
                    Some(prefixes),
                    "the pull completes the tick's transfer"
                );
                assert!(
                    tick.2 < set_bytes,
                    "a transfer tick allocated {} times, {} bytes, {} at once: as much as \
                     the {}-byte set MCT sizes for its log",
                    tick.0,
                    tick.1,
                    tick.2,
                    set_bytes
                );
                completed.push(first.2);
            }
            boundary += interval;
        }
        monitor.ingest(frame);
    }
    assert_eq!(completed.len(), 4, "ticks that re-analysed the transfer");
    assert!(completed[0] < Some(8_000), "the first is mid-transfer");
    assert_eq!(completed.last(), Some(&Some(8_000)));
}

/// `alloc.batch.count_per_frame`, pinned as a count: a clean
/// 8 000-route transfer through the [`StreamAnalyzer`], its
/// frames borrowed — decode aside, the whole batch pass: tracker,
/// reassembly into the message log, MCT, labelling, series, factors.
/// Measured (debug and release, repeating exactly): 109 allocations
/// over the transfer's 173 frames, 0.63 per frame, most of them the
/// per-connection analysis, one the tracker's list of the handshake's
/// options, one the demux's box of the connection's streams (124 while
/// each series was a `Vec` of its own, the data and ACK lists and the
/// series grew by doubling and the flights were grouped twice; 124
/// too while each frame's record carried its options; 140
/// while every series carried an owned
/// name) — the same count whether or not the framing buffer is
/// released when a feed frames it empty, since a message straddles
/// nearly every segment boundary of a transfer (it read 299
/// while the analysis made more, 305 while MCT grew its set from empty
/// in 7 allocations, where it now makes one); when reassembly kept an
/// owned `BgpMessage` tree per message the same pass made 19 363, 112
/// per frame. That path still exists for the `pcap2bgp` tool, and
/// guards the test: `extract_all` over the same frames — the same
/// tracker and the same reassembler, keeping whole messages — makes
/// 19 108, 110 per frame; if the counter stopped seeing reassembly, the
/// second assertion would fail first.
#[test]
fn batch_pass_allocates_a_few_times_per_frame() {
    const PER_FRAME: u64 = 3;
    let frames = generate_transfer(Dataset::IspAQuagga, 0, Scenario::Clean, 8_000, 7).frames;
    let count = frames.len() as u64;
    let engine = StreamAnalyzer::default();

    let before = allocations();
    let analyses = engine.analyze_frames(&frames);
    let batch = allocations() - before;
    assert_eq!(analyses.len(), 1);
    let prefixes = analyses[0].transfer.as_ref().map(|t| t.prefix_count);
    assert_eq!(prefixes, Some(8_000));
    assert!(
        batch <= PER_FRAME * count,
        "{batch} allocations over {count} frames (bound {PER_FRAME} per frame)"
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

/// A report renders into its line with no temporary: [`Report::write_json`]
/// into a string with room makes no allocation, and
/// [`MonitorEvent::to_json`] writes the report straight into the event's
/// line, so a connection event costs its one string and its growth.
/// Measured (debug and release) over the report of a 2 000-route
/// transfer with upstream loss (611 bytes): `to_json` makes 2
/// allocations, the 512-byte string and one growth, and the connection
/// event 3; when every field went through `format!` and each value
/// through an escaped or formatted temporary, they made 94 and 114.
#[test]
fn a_report_renders_without_temporaries() {
    let frames = generate_transfer(
        Dataset::IspAQuagga,
        0,
        Scenario::UpstreamLoss { p: 0.02 },
        2_000,
        7,
    )
    .frames;
    let analyses = StreamAnalyzer::default().analyze_frames(&frames);
    let report = Report::from_analysis(&analyses[0], &AnalyzerConfig::default());
    let json = report.to_json();
    let mut line = String::with_capacity(json.len());

    let before = allocations();
    report.write_json(&mut line);
    assert_eq!(
        allocations() - before,
        0,
        "write_json into a string with room"
    );
    assert_eq!(line, json);

    let before = allocations();
    let rendered = report.to_json();
    let to_json = allocations() - before;
    let event = MonitorEvent::Connection(ConnectionSummary {
        at: Micros::from_secs(1),
        source: "a.pcap".into(),
        session: "10.0.0.1:179->10.0.0.2:40000".to_string(),
        report,
    });
    let before = allocations();
    let line = event.to_json();
    let event_line = allocations() - before;
    assert!(to_json <= 2, "{to_json} allocations for one report");
    assert!(
        event_line <= 3,
        "{event_line} allocations for one connection event"
    );
    assert!(line.contains(&format!(",\"report\":{rendered}}}")));
}

/// What a short session costs, as a count: the session-reset pattern of
/// the paper's Table I is thousands of these, and a batch pass keeps
/// each one's analysis until it returns. A generated clean 100-route
/// transfer (11 frames) through the batch pass, then its report and the
/// report's JSON line, may make at most `PER_SESSION` allocations.
/// Measured (debug and release, repeating exactly): 59 — 54 in the pass,
/// which allocates nothing until the first frame, and none of them a
/// name: 26 while stepping the frames, the demux's one box per
/// connection among them, and 24 in the analysis. Its series are built
/// in pooled builders, here 5 allocations for the 4 series that take an
/// event (the advertised window's sized once, to its ACKs), and the 17
/// builders go back to the pool in 1; the finished set is 1, its events
/// in one slice. The data and ACK lists are sized once, and the flights
/// grouped once for the two rules that read them. The tracker keeps the
/// handshake's options in a list of their own, allocated with the
/// first (54 while each frame's record carried its options). Then 3 in
/// the report, its two endpoints each written once into a string sized
/// for the longest, and the factor list, whose names and verdict are
/// borrowed (a major group adds its list); and 2 in `to_json`, the
/// 512-byte string and one growth. While each series was a `Vec` of
/// its own and the demux held its streams inline, the same session
/// made 59 too: the box, the frozen set and the pool's list cost 3,
/// and sizing the two lists, the advertised window's series and
/// grouping the flights once won 3 back. While every series carried an owned
/// name the same session made 88: 72 in the pass (17 names and 2
/// copies of one), 14 in the report (8 factor names, the verdict, each
/// endpoint grown by `format!`) and 2 in `to_json`. A pass of many
/// sessions builds each one's series in the buffers of the last
/// (`a_pass_builds_each_session_in_the_buffers_of_the_last`).
#[test]
fn a_short_session_costs_its_state_and_no_names() {
    const PER_SESSION: u64 = 60;
    let frames = generate_transfer(Dataset::IspAQuagga, 0, Scenario::Clean, 100, 7).frames;
    let engine = StreamAnalyzer::default();

    let before = allocations();
    let analyses = engine.analyze_frames(&frames);
    let line = Report::from_analysis(&analyses[0], &AnalyzerConfig::default()).to_json();
    let count = allocations() - before;
    assert_eq!(analyses.len(), 1);
    assert!(line.contains("\"prefixes\":100,"), "{line}");
    assert!(
        count <= PER_SESSION,
        "a {}-frame session and its report made {count} allocations (bound {PER_SESSION})",
        frames.len()
    );
}

/// A pass of many short sessions builds each one's series in the
/// buffers of the last: the ingest core keeps one scratch — span-set
/// buffers and series builders — for every connection it analyses, so
/// past the first few sessions one costs its state, its frozen series
/// and its report's temporaries, and no builder. Sessions 12 to 41 of
/// one pass, each a 100-route table on endpoints of its own, may make
/// at most `PER_SESSION` allocations each. Measured (debug and release,
/// repeating exactly): 878 for the 30, 29.3 a session; while every
/// analysis made its own scratch and its own series, 1 178, 39.3.
#[test]
fn a_pass_builds_each_session_in_the_buffers_of_the_last() {
    const PER_SESSION: u64 = 30;
    let pass = |sessions: usize| {
        let frames: Vec<TcpFrame> = (0..sessions)
            .flat_map(|i| short_session(i, 100).0)
            .collect();
        let before = allocations();
        let analyses = StreamAnalyzer::default().analyze_frames(&frames);
        let count = allocations() - before;
        assert_eq!(analyses.len(), sessions);
        count
    };
    let (first, all) = (pass(11), pass(41));
    assert!(
        all - first <= PER_SESSION * 30,
        "30 sessions past the 11th made {} allocations (bound {PER_SESSION} each)",
        all - first
    );
}

/// A finished analysis's series are one allocation: the events of its
/// 17 series back to back, 24 bytes an event, and nothing when it has
/// none. Over the analysis of an 8 000-route transfer that meets the
/// zero-window-probe bug (10 series hold 286 events), freezing a builder that holds the same
/// series makes exactly one allocation of 24 bytes an event, and
/// dropping the analysis's set frees exactly those bytes; an empty set
/// allocates nothing. While each series was a `Vec` of its own, the
/// same set was one allocation per series that held an event, each
/// rounded up to a power of two.
#[test]
fn an_analysis_holds_its_series_in_one_allocation() {
    assert_eq!(std::mem::size_of::<Event<u32>>(), 24);
    let frames =
        generate_transfer(Dataset::IspAQuagga, 0, Scenario::ZeroWindowBug, 8_000, 7).frames;
    let mut analyses = StreamAnalyzer::default().analyze_frames(&frames);
    let series = std::mem::take(&mut analyses[0].series);
    let events = series.events().len() as u64;
    let held = Slot::ALL
        .iter()
        .filter(|slot| !series.get(**slot).is_empty())
        .count();
    assert!(held >= 10, "{held} series hold events");

    let mut built = SeriesBuilder::new(series.period, series.mss, series.max_adv_window);
    for slot in Slot::ALL {
        built[slot].extend(series.get(slot).iter().map(|e| (e.span, e.data)));
    }
    let (before, bytes) = (allocations(), allocated_bytes());
    let frozen = built.build();
    assert_eq!(allocations() - before, 1, "one allocation");
    assert_eq!(allocated_bytes() - bytes, 24 * events, "exactly its events");
    assert_eq!(format!("{frozen:?}"), format!("{series:?}"));

    let live = live_bytes();
    drop(series);
    assert_eq!(
        live - live_bytes(),
        24 * events as i64,
        "what the analysis held"
    );

    let before = allocations();
    let empty = SeriesBuilder::default().build();
    assert_eq!(allocations() - before, 0, "an empty set allocates nothing");
    assert!(empty.events().is_empty());
}

/// The factor vector of an analysis is made in pooled buffers: over the
/// 8 000-route transfer that meets the zero-window-probe bug, a second
/// `delay_vector_with` on the scratch of the first allocates nothing
/// and gives the same vector. Measured (debug and release): 0
/// allocations. (While each factor's spans were an owned set in a list,
/// as `factor_spans_with` still returns them, it made 14 allocations,
/// 3 200 bytes.)
#[test]
fn a_factor_vector_allocates_nothing_on_a_warm_scratch() {
    let frames =
        generate_transfer(Dataset::IspAQuagga, 0, Scenario::ZeroWindowBug, 8_000, 7).frames;
    let analyses = StreamAnalyzer::default().analyze_frames(&frames);
    let (series, config) = (&analyses[0].series, AnalyzerConfig::default());
    let mut scratch = SpanScratch::new();
    let first = delay_vector_with(series, &config, &mut scratch);
    assert_eq!(first, analyses[0].vector);
    let (before, bytes) = (allocations(), allocated_bytes());
    let again = delay_vector_with(series, &config, &mut scratch);
    let counted = (allocations() - before, allocated_bytes() - bytes);
    assert_eq!(again, first);
    assert_eq!(counted, (0, 0), "allocations and bytes on a warm scratch");
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
    // Warm-up: two segments size the framing buffer (one segment plus
    // a carried-over tail, which a rejected flow always leaves).
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

/// One short BGP session on endpoints of its own, numbered `i`:
/// handshake, then OPEN, KEEPALIVE and a `routes`-route table from the
/// router in 1 448-byte segments, then its FIN. Returns the frames and
/// the messages the router sent.
fn short_session(i: usize, routes: usize) -> (Vec<TcpFrame>, usize) {
    let router = Ipv4Addr::new(10, 60, (i >> 8) as u8, i as u8);
    let collector = Ipv4Addr::new(172, 20, (i >> 8) as u8, i as u8);
    let updates = TableGenerator::new(i as u64)
        .routes(routes)
        .generate()
        .to_updates();
    let mut stream = BgpMessage::Open(OpenMessage::new(65_001, 180, router)).to_bytes();
    stream.extend(BgpMessage::Keepalive.to_bytes());
    for update in &updates {
        stream.extend(BgpMessage::Update(update.clone()).to_bytes());
    }
    let t0 = Micros(i as i64 * 10_000);
    let out = FrameBuilder::new(router, collector).ports(179, 40_000);
    let back = FrameBuilder::new(collector, router).ports(40_000, 179);
    let mut frames = vec![
        out.clone().at(t0).seq(0).flags(TcpFlags::SYN).build(),
        back.clone()
            .at(t0 + Micros(100))
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .build(),
    ];
    let mut seq = 1u32;
    for (n, segment) in stream.chunks(1448).enumerate() {
        frames.push(
            out.clone()
                .at(t0 + Micros(200 + n as i64 * 50))
                .seq(seq)
                .ack_to(1)
                .flags(TcpFlags::ACK)
                .payload(segment.to_vec())
                .build(),
        );
        seq += segment.len() as u32;
    }
    frames.push(
        out.at(t0 + Micros(5_000))
            .seq(seq)
            .ack_to(1)
            .flags(TcpFlags::FIN | TcpFlags::ACK)
            .build(),
    );
    (frames, 2 + updates.len())
}

/// Bytes a [`BgpDemux`] holds after `frames`, none of them taken.
fn held_by_demux(frames: &[TcpFrame]) -> i64 {
    let before = live_bytes();
    let mut demux = BgpDemux::new();
    for frame in frames {
        demux.feed(frame);
    }
    live_bytes() - before
}

/// What an open connection holds, as a law: its map entry, and its
/// message log — 4 bytes a row, 16 a run of rows stamped alike (at most
/// one run per segment) and 4 a prefix, rows and runs in one `Vec` and
/// the prefixes in another, each at most twice its length (or four
/// entries) as a `Vec` grows — and nothing else. 300 short sessions of
/// 90–110 routes go through one [`BgpDemux`] and are never taken; the
/// map is measured apart, from the same connections' SYNs alone.
/// Measured (debug and release, repeating exactly): the 300 sessions
/// hold 376 208 bytes, 1 254 per connection; the map is 137 616 of them
/// (459 per connection: a 416-byte box of the connection's two streams,
/// and its bucket, 24 bytes, of 512) and the logs 238 592 (795),
/// against a law of 1 113 per connection. While an entry held its two
/// streams inline the map was 221 712 (739 per connection): 512 buckets
/// of 432 bytes, and a table keeps its buckets once its entries are
/// taken. With a 5-byte prefix arena the logs held 268 800 (896)
/// against a law of 1 313, and with 16-byte rows and an 8-byte prefix
/// arena 512 512 (1 708) against a law of 2 599. While the reassembler
/// staged contiguous bytes in a buffer of its own and the framing
/// buffer kept its capacity once empty, the same sessions held
/// 1 627 600 bytes: the logs' share was 4 604 per connection, two
/// 1 448-byte segments more, and the map 246 288, the staging buffer's
/// 24-byte header in each of an entry's two streams. The map is bound
/// too, at `MAP_PER_CONNECTION` bytes a connection, and the log's width
/// with it: each box holds two logs, so a log 8 bytes wider would read
/// ≈ 475 bytes a connection, all of it in the map.
#[test]
fn open_connection_holds_its_log_and_no_segment() {
    const SESSIONS: usize = 300;
    const MAP_PER_CONNECTION: i64 = 460;
    let mut frames = Vec::new();
    let mut law = 0usize;
    let mut prefixes = 0usize;
    for i in 0..SESSIONS {
        let routes = 90 + i % 21;
        let (session, messages) = short_session(i, routes);
        // A segment's messages share its time: at most one run each.
        let runs = session.iter().filter(|f| !f.payload.is_empty()).count();
        frames.extend(session);
        law += 4 * (2 * (messages + 4 * runs)).max(4) + 4 * (2 * routes).max(4);
        prefixes += routes;
    }
    let syns: Vec<TcpFrame> = frames
        .iter()
        .filter(|f| f.tcp.flags.contains(TcpFlags::SYN))
        .cloned()
        .collect();
    let map = held_by_demux(&syns);
    let logs = held_by_demux(&frames) - map;
    assert!(map > 0, "the map is counted");
    assert!(
        map <= MAP_PER_CONNECTION * SESSIONS as i64,
        "{SESSIONS} connections' map entries hold {map} bytes, more than \
         {MAP_PER_CONNECTION} each: an entry grew"
    );
    assert_eq!(
        std::mem::size_of::<MessageLog>(),
        48,
        "an open log is two Vecs; a settled one fits beside them"
    );
    assert!(
        logs >= (4 * prefixes) as i64,
        "the arena alone is 4 bytes per prefix ({logs} bytes held beyond the map)"
    );
    assert!(
        logs <= law as i64,
        "{SESSIONS} open connections hold {logs} bytes beyond their map entries, \
         more than their logs' {law}: a buffer outlived its bytes"
    );
}

/// What an open log's prefix arena costs, as a law: 4 bytes a prefix of
/// up to 24 bits, its one prefix word. 4 096 /24s in five UPDATEs of
/// one segment fill a log's arena to its capacity; 4 096 more in five
/// more UPDATEs stamped alike double it once, so the log holds exactly
/// 4 × 4 096 bytes more, in one allocation: the rows' `Vec` (a word a
/// message, one trailer for the run) does not grow. While the arena
/// kept the masked network and the length in 5 bytes, the same prefixes
/// added 5 × 4 096.
#[test]
fn an_open_log_costs_4_bytes_a_prefix() {
    const PREFIXES: usize = 4_096;
    // Five UPDATEs of `PREFIXES` /24s in all, numbered from `first` on.
    let updates = |first: u32| -> Vec<Vec<u8>> {
        [1_000, 1_000, 1_000, 1_000, 96]
            .into_iter()
            .scan(first, |next, count| {
                *next += count as u32;
                Some(announce(*next - count as u32, count))
            })
            .collect()
    };
    let (filling, crossing) = (updates(0), updates(PREFIXES as u32));
    let mut log = MessageLog::default();
    for wire in &filling {
        assert_eq!(log.skim(Micros(1), &mut &wire[..]), Framed::Kept);
    }
    let (count, before) = (allocations(), live_bytes());
    for wire in &crossing {
        assert_eq!(log.skim(Micros(1), &mut &wire[..]), Framed::Kept);
    }
    let (count, held) = (allocations() - count, live_bytes() - before);
    assert_eq!(log.announced_prefixes(), 2 * PREFIXES);
    assert_eq!(
        (count, held),
        (1, (4 * PREFIXES) as i64),
        "{PREFIXES} /24s past the arena's capacity: {count} allocations, {held} bytes"
    );
}

/// What an open connection's tracker state costs, as a law: 32 bytes a
/// frame, plus `Vec` growth, and no allocation per frame. Both endpoints
/// are kept once, in the connection's key; a frame keeps a direction
/// bit, and the options of the few frames that carry one (here the two
/// SYNs' MSS) sit beside the records. A connection's handshake and
/// 8 190 more frames, data and ACKs, go through a tracker under the
/// monitor's policy; from its 4 096th frame to its 8 192nd the records'
/// `Vec` doubles once, so the tracker holds exactly 4 096 × 32 bytes
/// more, in one allocation. While each frame's record kept both
/// endpoints, its `seq_end` and its options, it was 56 bytes, and the
/// same frames added 229 376.
#[test]
fn an_open_connection_costs_32_bytes_a_frame() {
    const FRAMES: usize = 8_192;
    let router = FrameBuilder::new(Ipv4Addr::new(10, 70, 0, 1), Ipv4Addr::new(10, 70, 0, 2))
        .ports(179, 40_000);
    let collector = FrameBuilder::new(Ipv4Addr::new(10, 70, 0, 2), Ipv4Addr::new(10, 70, 0, 1))
        .ports(40_000, 179);
    let mut frames = vec![
        router
            .clone()
            .seq(0)
            .flags(TcpFlags::SYN)
            .option(TcpOption::Mss(1_448))
            .build(),
        collector
            .clone()
            .at(Micros(100))
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .option(TcpOption::Mss(1_448))
            .build(),
    ];
    for i in 0..(FRAMES - frames.len()) as u32 {
        let at = Micros(200 + 1_000 * i64::from(i));
        frames.push(if i % 2 == 0 {
            router
                .clone()
                .at(at)
                .seq(1 + 50 * i)
                .ack_to(1)
                .payload(vec![0; 100])
                .build()
        } else {
            collector
                .clone()
                .at(at)
                .seq(1)
                .ack_to(1 + 50 * (i + 1))
                .build()
        });
    }
    let (first, second) = frames.split_at(FRAMES / 2);
    let mut tracker = ConnectionTracker::new(TrackerConfig::streaming());
    for frame in first {
        assert!(tracker.ingest(frame).is_empty());
    }
    let (held, made) = (live_bytes(), allocations());
    for frame in second {
        assert!(tracker.ingest(frame).is_empty());
    }
    let (held, made) = (live_bytes() - held, allocations() - made);
    assert_eq!(tracker.open_connections(), 1);
    assert_eq!(
        held,
        32 * second.len() as i64,
        "bytes held for frames {} to {FRAMES}",
        first.len() + 1
    );
    assert_eq!(
        made,
        1,
        "allocations for {} frames: one doubling",
        second.len()
    );
}

/// What the settle test's watch and its reference did: the live bytes
/// the step that settles added, those the rows after it added, and
/// how many logs settled.
struct SettleWatch {
    settle_step: i64,
    rows_after: i64,
    settled: u64,
}

/// One 8 000-route [`short_session`] without its FIN through an inline
/// [`Monitor`], a KEEPALIVE `wait` after the table's last UPDATE — the
/// first frame after the tick at 60 s — then the `churn` segments
/// before the next tick.
fn settle_watch(wait: Micros, churn: &[Vec<u8>]) -> SettleWatch {
    let (mut frames, _) = short_session(0, 8_000);
    let fin = frames.pop().expect("the session ends with its FIN");
    let table_end = frames.last().expect("the table").timestamp;
    let router = FrameBuilder::new(fin.ip.src, fin.ip.dst).ports(179, 40_000);
    let mut seq = fin.tcp.seq;
    let mut segment = |at: Micros, payload: &[u8]| {
        let frame = router
            .clone()
            .at(at)
            .seq(seq)
            .ack_to(1)
            .payload(payload.to_vec());
        seq = seq.wrapping_add(payload.len() as u32);
        frame.flags(TcpFlags::ACK).build()
    };
    let keepalive = segment(table_end + wait, &BgpMessage::Keepalive.to_bytes());
    let after = Micros::from_secs(61);
    let churn: Vec<TcpFrame> = churn.iter().map(|bytes| segment(after, bytes)).collect();

    let mut monitor = Monitor::new(MonitorConfig::default());
    for frame in &frames {
        monitor.ingest(frame);
    }
    let before = live_bytes();
    monitor.ingest(&keepalive);
    let settle_step = live_bytes() - before;
    let before = live_bytes();
    for frame in &churn {
        monitor.ingest(frame);
    }
    let rows_after = live_bytes() - before;
    assert_eq!(monitor.metrics().ticks(), 6, "no tick among the rows after");
    SettleWatch {
        settle_step,
        rows_after,
        settled: monitor.metrics().transfers_settled(),
    }
}

/// What a settled session holds, in bytes. An 8 000-route transfer goes
/// through an inline [`Monitor`]; a KEEPALIVE one microsecond more than
/// MCT's `max_gap` after its last UPDATE is the first frame after a
/// tick, so its step settles the router's log before it feeds the
/// KEEPALIVE. A reference watch whose KEEPALIVE comes exactly `max_gap`
/// after does all the same work and settles nothing. Across that step
/// the settling watch holds fewer bytes by exactly what the router's
/// log held — its rows and prefix arena, as a [`StreamExtractor`] fed
/// the same segments holds them — so the log keeps nothing on the heap:
/// its answer lives in its own 48 bytes. Then 5 000 UPDATEs
/// re-announcing a prefix and 5 000 KEEPALIVEs, in segments of whole
/// messages, add no byte to the settled watch, where the reference's
/// open log takes a row each. Measured (debug and release, repeating
/// exactly): the router's log held 49 152 bytes (57 344 with 5-byte
/// prefixes, 131 072 with 16-byte rows and 8-byte prefixes); the
/// reference's step held 3 340 bytes more after than before, the tick's
/// cache entry, and the settling watch's step 45 812 fewer (4 004 and
/// 45 148 while the entry's series were a `Vec` each); the 10 000
/// rows add 0 bytes to the settled watch and 81 920 to the reference
/// (262 144 with 16-byte rows), of which 32 768 are the arena growing
/// for the 5 000 re-announced prefixes (40 960 at 5 bytes a prefix).
#[test]
fn settled_transfer_holds_no_table() {
    let max_gap = MctConfig::default().max_gap;
    let (table, _) = short_session(0, 8_000);
    let held = {
        let before = live_bytes();
        let mut log = StreamExtractor::new();
        for frame in table.iter().filter(|f| f.tcp.src_port == 179) {
            log.push(
                frame.timestamp,
                frame.tcp.seq,
                frame.tcp.flags,
                &frame.payload,
            );
        }
        let held = live_bytes() - before;
        assert_eq!(log.extraction().announced_prefixes(), 8_000);
        held
    };
    let first = TableGenerator::new(0).routes(8_000).generate().to_updates()[0].clone();
    let again = BgpMessage::Update(UpdateMessage {
        announced: first.announced[..1].to_vec(),
        ..first
    });
    let mut pair = again.to_bytes();
    pair.extend(BgpMessage::Keepalive.to_bytes());
    // Five segments of 1 000 UPDATE-and-KEEPALIVE pairs each.
    let churn = vec![pair.repeat(1_000); 5];

    let settling = settle_watch(max_gap + Micros(1), &churn);
    let reference = settle_watch(max_gap, &churn);
    assert_eq!((settling.settled, reference.settled), (1, 0));
    assert!(held >= 4 * 8_000, "the arena alone is 4 bytes a prefix");
    assert_eq!(
        reference.settle_step - settling.settle_step,
        held,
        "settling freed what the log held"
    );
    assert_eq!(settling.rows_after, 0, "rows after the settle hold nothing");
    assert!(
        reference.rows_after >= 4 * 10_000,
        "an open log takes 4 bytes a row ({} bytes)",
        reference.rows_after
    );
}

/// UPDATEs in each table of [`quiet_sessions`].
const QUIET_UPDATES: usize = 20;

/// `sessions` sessions on endpoints of their own, as one in-memory
/// capture: session `i` opens `spacing` after session `i − 1`, and its
/// router then sends [`QUIET_UPDATES`] UPDATEs of `width` fresh /24s
/// each, one to a segment, a millisecond apart. None closes.
fn quiet_sessions(sessions: usize, spacing: Micros, width: usize) -> Vec<u8> {
    let mut pcap = Vec::new();
    let mut writer = PcapWriter::new(&mut pcap).expect("in-memory pcap");
    for i in 0..sessions {
        let t0 = Micros(spacing.0 * i as i64);
        let updates = (0..QUIET_UPDATES).map(|u| {
            let at = t0 + Micros::from_millis(1 + u as i64);
            (at, announce((u * width) as u32, width))
        });
        for frame in router_session(Ipv4Addr::new(10, 70, 0, i as u8), t0, updates) {
            writer.write_frame(&frame).expect("in-memory pcap");
        }
    }
    pcap
}

/// Bytes a batch pass over `pcap` holds once its input has ended, read
/// as it delivers its first connection: every connection finalizes
/// then, so all of them are still held but that one, whose log the pass
/// dropped once it had analyzed it.
fn held_at_end_of_input(pcap: &[u8]) -> i64 {
    let reader = LossyReader::new(pcap).expect("in-memory pcap");
    let before = live_bytes();
    let mut held = None;
    StreamAnalyzer::default()
        .analyze_lossy_with(reader, |_| {
            held.get_or_insert(live_bytes() - before);
        })
        .expect("an in-memory capture reads to its end");
    held.expect("a connection was delivered")
}

/// The bytes that [`quiet_sessions`]' tables of 200 prefixes an UPDATE
/// hold at the end of a batch pass beyond twins of the same sessions
/// announcing one prefix an UPDATE. The twins have the same frames,
/// rows and connections, so their map entries, metas, rows and the
/// settle queue cancel out, and what is left is the prefix arenas still
/// held.
fn tables_held(sessions: usize, spacing: Micros) -> i64 {
    held_at_end_of_input(&quiet_sessions(sessions, spacing, 200))
        - held_at_end_of_input(&quiet_sessions(sessions, spacing, 1))
}

/// The batch pass holds the tables of only the sessions it has not
/// settled, as a law: K sessions, each opening more than MCT's
/// `max_gap` after the one before it sent its last UPDATE, and none
/// closed, go through one batch pass; at the end of the input it holds
/// the table of the last session only, however large K is. So the
/// bytes held beyond each session's map entries, metas and rows
/// ([`tables_held`]) do not grow from K = 4 to K = 16. The same 16
/// sessions a second apart settle nothing, and hold every table but the
/// one delivered first. Measured (debug and release, repeating
/// exactly): 16 256 bytes at K = 4 and 16 256 at K = 16, one table's
/// arena; 243 840 a second apart, fifteen. At 5 bytes a prefix these
/// read 20 320, 20 320 and 304 800 (325 120, all sixteen, while the
/// delivered connection's log lived until its analysis was delivered).
/// While only the watch settled, the batch pass held 81 280 at K = 4
/// and 325 120 at K = 16, at 5 bytes a prefix.
#[test]
fn batch_pass_holds_the_tables_of_unsettled_sessions_only() {
    let apart = MctConfig::default().max_gap + Micros::from_secs(10);
    let (four, sixteen) = (tables_held(4, apart), tables_held(16, apart));
    let close = tables_held(16, Micros::from_secs(1));
    let table = (4 * QUIET_UPDATES * 199) as i64;
    assert!(four >= table, "the last table is held ({four} bytes)");
    assert!(
        sixteen <= four,
        "16 sessions hold {sixteen} bytes beyond their twins', 4 hold {four}: \
         a settled table is still held"
    );
    assert!(
        close >= 15 * table,
        "16 sessions inside MCT's gap hold every table but the one delivered \
         ({close} bytes)"
    );
}

/// Frames in each session of [`open_sessions`].
const OPEN_FRAMES: usize = 1_024;

/// `sessions` sessions that carry no BGP, on endpoints of their own, as
/// one in-memory capture: session `i` opens 2 s after session `i − 1`,
/// and after its handshake its router sends empty segments a
/// millisecond apart, to [`OPEN_FRAMES`] frames. None closes.
fn open_sessions(sessions: usize) -> Vec<u8> {
    let mut pcap = Vec::new();
    let mut writer = PcapWriter::new(&mut pcap).expect("in-memory pcap");
    for i in 0..sessions {
        let t0 = Micros::from_secs(2 * i as i64);
        let segments = (2..OPEN_FRAMES).map(|f| (t0 + Micros::from_millis(f as i64), Vec::new()));
        for frame in router_session(Ipv4Addr::new(10, 71, 0, i as u8), t0, segments) {
            writer.write_frame(&frame).expect("in-memory pcap");
        }
    }
    pcap
}

/// At the end of the input a batch pass builds the connections still
/// open one at a time, and analyses and delivers each before it builds
/// the next: as it delivers the first of K sessions, the other K − 1
/// are still the tracker's frame records, 32 bytes a frame, not built
/// connections at a 40-byte segment a frame. So each session past the
/// first adds to what is held then its records and its share of the
/// demux and the drain, and no segment. Measured (debug and release,
/// repeating exactly): 33 468 bytes a session from K = 4 to K = 16,
/// 32 768 of them records (33 868 while the demux held each
/// connection's streams inline in its table); 42 132, 40 960 of them
/// segments, while every open connection was built before the first
/// was analysed.
#[test]
fn the_end_of_input_builds_one_connection_at_a_time() {
    let four = held_at_end_of_input(&open_sessions(4));
    let sixteen = held_at_end_of_input(&open_sessions(16));
    let per_session = (sixteen - four) / 12;
    let (records, segments) = ((32 * OPEN_FRAMES) as i64, (40 * OPEN_FRAMES) as i64);
    assert!(
        (records..segments).contains(&per_session),
        "each open session adds {per_session} bytes while the first is delivered: \
         its {records} bytes of records, not {segments} of segments"
    );
}

/// A log of a `routes`-route table as the generator packs it, then
/// `reannounced` more prefixes — the same routes again, 100 to an
/// UPDATE — each UPDATE 1 ms after the one before, all inside MCT's gap.
fn announced_log(routes: usize, reannounced: usize) -> MessageLog {
    let table = TableGenerator::new(11)
        .routes(routes)
        .generate()
        .to_updates();
    let mut again = table
        .iter()
        .flat_map(|u| u.announced.iter().copied())
        .cycle();
    let reannouncements = (0..reannounced / 100).map(|_| UpdateMessage {
        announced: again.by_ref().take(100).collect(),
        ..table[0].clone()
    });
    let messages: Vec<(Micros, BgpMessage)> = table
        .iter()
        .cloned()
        .chain(reannouncements)
        .enumerate()
        .map(|(i, u)| (Micros::from_millis(i as i64), BgpMessage::Update(u)))
        .collect();
    let log: MessageLog = messages.iter().collect();
    assert_eq!(
        log.updates()
            .map(|(_, row)| row.announced_len())
            .sum::<usize>(),
        routes + reannounced
    );
    log
}

/// Allocations and bytes one MCT run over `log` makes.
fn mct_allocations(log: &MessageLog) -> (u64, u64, usize) {
    let (count, bytes) = (allocations(), allocated_bytes());
    let transfer = find_transfer_end_ref(Micros::ZERO, log.updates(), &MctConfig::default());
    let prefixes = transfer.expect("a transfer").prefix_count;
    (allocations() - count, allocated_bytes() - bytes, prefixes)
}

/// The most a hash set of `n` prefix words can take: at most twice
/// `n` ÷ 7/8 load buckets, 4 bytes and one control byte each.
fn set_bytes_bound(n: usize) -> u64 {
    (2 * n * 8 / 7 * 5 + 64) as u64
}

/// MCT sizes its set of seen prefixes once from the rows still to
/// read, keyed by 4-byte prefix words: over an 8 000-route log (no
/// prefix longer than /24, so no side set), one allocation of exactly
/// 81 936 bytes, 16 384 buckets of a 4-byte key and a control byte each
/// and one 16-byte group of control bytes more. Keyed by 8-byte packed
/// prefixes the same set took 147 472 bytes, and growing it from empty,
/// as MCT did before that, 7 allocations and 292 720 bytes.
#[test]
fn mct_over_a_table_allocates_its_set_once() {
    let log = announced_log(8_000, 0);
    let (count, bytes, prefixes) = mct_allocations(&log);
    assert_eq!(prefixes, 8_000);
    assert_eq!(
        (count, bytes),
        (1, 81_936),
        "{count} allocations, {bytes} bytes"
    );
    assert!(bytes <= set_bytes_bound(8_000), "{bytes} bytes");
}

/// Sizing from the log is capped by what was inserted: a 1 000-route
/// table followed by 200 000 re-announcements inside MCT's gap sizes
/// the set within 64 × what it holds — the growth rule's bound — not
/// for the 201 000 prefixes the log announces. Measured: one allocation
/// of 163 856 bytes, the 16 384-prefix floor of the rule (294 928 with
/// 8-byte keys; growing from empty took 5 allocations and 35 792 bytes;
/// sized from the log it would take about 2.4 MB).
#[test]
fn mct_set_is_bounded_by_what_was_inserted_not_by_the_log() {
    let log = announced_log(1_000, 200_000);
    let (count, bytes, prefixes) = mct_allocations(&log);
    assert_eq!(prefixes, 1_000);
    assert_eq!(count, 1, "{count} allocations, {bytes} bytes");
    let bound = set_bytes_bound(64 * 1_000);
    assert!(bytes <= bound, "{bytes} bytes (bound {bound})");
    assert!(
        bound < set_bytes_bound(201_000) / 2,
        "the bound tells the two apart"
    );
}

/// Allocations [`Simulation::run`] makes over a clean 20 000-route
/// transfer (5 928 messages): 4 692 (debug and release). The collector
/// keeps the bytes it consumed and a time per message, and decodes
/// nothing until read; when it decoded every message into an owned
/// tree as it arrived, and took each drained chunk as a fresh vector,
/// the run made 52 428.
#[test]
fn a_simulated_transfer_keeps_bytes_not_messages() {
    const ALLOCATIONS: u64 = 4_692;
    let stream = TableGenerator::new(1)
        .routes(20_000)
        .generate()
        .to_update_stream();
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let spec = transfer_spec(&topo, 0, stream);
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);

    let before = allocations();
    sim.run(Micros::from_secs(600));
    let made = allocations() - before;
    let out = sim.into_output();
    let archive = &out.connections[0].archive;
    let announced: usize = archive
        .iter()
        .map(|(_, message)| match message {
            BgpMessage::Update(update) => update.announced.len(),
            _ => 0,
        })
        .sum();
    assert_eq!(announced, 20_000);
    assert_eq!(archive.len(), 5_928);
    assert_eq!(made, ALLOCATIONS);
}
