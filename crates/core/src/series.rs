//! Event-series generation (§III-C).
//!
//! From the (ACK-shifted) trace, T-DAT derives series of time ranges,
//! each representing one type of TCP behaviour, via three rules:
//! *Extraction* (directly from packets), *Interpretation* (renaming a
//! series given deployment knowledge, e.g. downstream loss = receiver-
//! local when the sniffer sits at the receiver: the series is copied
//! into the slot whose name it takes), and *Operation*
//! (inference and set algebra over existing series). Every event keeps
//! a `u32` payload with the byte count behind it (window size,
//! retransmitted bytes, outstanding bytes) so high-level observations
//! can be cross-referenced back to the packets.
//!
//! The rules write a [`SeriesBuilder`], one growable series per
//! [`Slot`], and the finished [`SeriesSet`] is that builder frozen once:
//! the 17 series' events in one exactly sized allocation, 24 bytes an
//! event (none when every series is empty), each series read through a
//! borrowed [`SeriesView`]. The builders come from the [`SpanScratch`]
//! the caller passes and go back to it, so a scratch kept across
//! connections — an [`Ingest`](crate::Ingest) keeps one — builds every
//! connection's series in the same buffers.

use std::fmt;
use std::ops::{Index, IndexMut};

use tdat_packet::seq_diff;
use tdat_timeset::{
    Event, EventSeries, Micros, SeriesArena, SeriesView, Span, SpanScratch, SpanSet,
};
use tdat_trace::{group_flights, Direction, Flight, SegLabel, Segment};

use crate::config::{AnalyzerConfig, SnifferLocation};
use crate::preprocess::ShiftedTrace;

/// The margin (in MSS) within which outstanding data is considered
/// *bounded* by the advertised window (§III-C3).
const WINDOW_BOUND_MSS: i64 = 3;
/// A sender-idle gap must exceed this to enter the `SendAppLimited`
/// series (filters sub-RTT scheduling noise; the threshold rises to a
/// quarter of the measured RTT where that is longer).
const MIN_IDLE_GAP: Micros = Micros::from_millis(5);
/// Gap used to group data/ACK packets into flights when the RTT is
/// unknown.
const FALLBACK_FLIGHT_GAP: Micros = Micros::from_millis(10);
/// A new flight must start within this delay of the ACKs of the
/// previous one for the connection to count as congestion-window
/// clocked across the boundary.
const CWND_CLOCK_SLACK: Micros = Micros::from_millis(2);

const _: () = assert!(
    WINDOW_BOUND_MSS > 0
        && MIN_IDLE_GAP.as_micros() > 0
        && FALLBACK_FLIGHT_GAP.as_micros() > 0
        && CWND_CLOCK_SLACK.as_micros() >= 0
);

/// How many series a [`SeriesSet`] stores.
pub const SLOTS: usize = 17;

/// The 17 stored series of a [`SeriesSet`], named as in the paper, in
/// the order the set stores them. A series carries no name of its own:
/// its slot names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    // ---- Extraction ----
    /// Periods spent actually transmitting data packets (data flights).
    Transmission,
    /// Periods with unacknowledged data in flight; payload is the peak
    /// outstanding byte count.
    Outstanding,
    /// The receiver-advertised window over time (one event per ACK,
    /// until the next ACK).
    AdvWindow,
    /// Loss-recovery periods for retransmissions classified upstream.
    UpstreamLoss,
    /// Loss-recovery periods for retransmissions classified downstream.
    DownstreamLoss,
    /// Retransmissions of already-acknowledged data.
    SpuriousRetx,
    /// Zero-window periods advertised by the receiver.
    ZeroWindow,
    /// Zero-window probe transmissions.
    WindowProbes,

    // ---- Interpretation ----
    /// Sender-local losses (populated per sniffer location).
    SendLocalLoss,
    /// Receiver-local losses (populated per sniffer location).
    RecvLocalLoss,
    /// Losses attributed to the network path.
    NetworkLoss,

    // ---- Operation ----
    /// Sender idle periods: ACKs for all outstanding data received, the
    /// window open, yet nothing sent — the sending BGP process is the
    /// limiter.
    SendAppLimited,
    /// Periods with a small advertised window (< `small_window_mss` ×
    /// MSS): the receiving application cannot keep up.
    SmallAdvWindow,
    /// Periods with a large advertised window (within the same margin
    /// of the maximum): the receiving application keeps up.
    LargeAdvWindow,
    /// Outstanding periods bounded by the advertised window.
    AdvBndOut,
    /// Outstanding periods bounded by the congestion window.
    CwdBndOut,
    /// Continuous-transmission periods not explained by windows or
    /// losses — the bandwidth-limit indicator.
    BandwidthLimited,
}

/// Each slot's paper name, and the name a set's `Debug` prints it under.
const NAMES: [(&str, &str); SLOTS] = [
    ("Transmission", "transmission"),
    ("Outstanding", "outstanding"),
    ("AdvWindow", "adv_window"),
    ("UpstreamLoss", "upstream_loss"),
    ("DownstreamLoss", "downstream_loss"),
    ("SpuriousRetx", "spurious_retx"),
    ("ZeroWindow", "zero_window"),
    ("WindowProbes", "window_probes"),
    ("SendLocalLoss", "send_local_loss"),
    ("RecvLocalLoss", "recv_local_loss"),
    ("NetworkLoss", "network_loss"),
    ("SendAppLimited", "send_app_limited"),
    ("SmallAdvWindow", "small_adv_window"),
    ("LargeAdvWindow", "large_adv_window"),
    ("AdvBndOut", "adv_bnd_out"),
    ("CwdBndOut", "cwd_bnd_out"),
    ("BandwidthLimited", "bandwidth_limited"),
];

impl Slot {
    /// Every slot, in the order a set stores them.
    pub const ALL: [Slot; SLOTS] = [
        Slot::Transmission,
        Slot::Outstanding,
        Slot::AdvWindow,
        Slot::UpstreamLoss,
        Slot::DownstreamLoss,
        Slot::SpuriousRetx,
        Slot::ZeroWindow,
        Slot::WindowProbes,
        Slot::SendLocalLoss,
        Slot::RecvLocalLoss,
        Slot::NetworkLoss,
        Slot::SendAppLimited,
        Slot::SmallAdvWindow,
        Slot::LargeAdvWindow,
        Slot::AdvBndOut,
        Slot::CwdBndOut,
        Slot::BandwidthLimited,
    ];

    /// The series' paper name, as listings and plots print it.
    pub const fn name(self) -> &'static str {
        NAMES[self as usize].0
    }
}

/// The generated series for one connection over one analysis period.
///
/// The 17 stored series ([`Slot`]) are one allocation: their events back
/// to back in an exactly sized [`SeriesArena`], 24 bytes an event, and
/// nothing at all when every series is empty. Each is read through a
/// borrowed [`SeriesView`], by its accessor (`upstream_loss()` …) or by
/// [`get`](SeriesSet::get); every printed name comes from
/// [`named`](SeriesSet::named), which lists each slot under its paper
/// name beside the derived sets. All series are flattened to
/// [`SpanSet`]s on demand for the set algebra; the payload-carrying
/// events are preserved for drill-down. A set is built in a
/// [`SeriesBuilder`] and frozen once.
#[derive(Clone, Default)]
pub struct SeriesSet {
    /// The analysis period (the table-transfer duration in this work).
    pub period: Span,
    /// MSS used for window thresholds.
    pub mss: u32,
    /// Maximum window the receiver advertised (threshold base for the
    /// *large window* series).
    pub max_adv_window: u32,
    series: SeriesArena<u32, SLOTS>,
}

impl SeriesSet {
    /// The series in `slot`, lent.
    pub fn get(&self, slot: Slot) -> SeriesView<'_, u32> {
        self.series.get(slot as usize)
    }

    /// Every event of every series, slot by slot: the set's one
    /// allocation.
    pub fn events(&self) -> &[Event<u32>] {
        self.series.events()
    }

    /// [`Slot::Transmission`].
    pub fn transmission(&self) -> SeriesView<'_, u32> {
        self.get(Slot::Transmission)
    }

    /// [`Slot::Outstanding`].
    pub fn outstanding(&self) -> SeriesView<'_, u32> {
        self.get(Slot::Outstanding)
    }

    /// [`Slot::AdvWindow`].
    pub fn adv_window(&self) -> SeriesView<'_, u32> {
        self.get(Slot::AdvWindow)
    }

    /// [`Slot::UpstreamLoss`].
    pub fn upstream_loss(&self) -> SeriesView<'_, u32> {
        self.get(Slot::UpstreamLoss)
    }

    /// [`Slot::DownstreamLoss`].
    pub fn downstream_loss(&self) -> SeriesView<'_, u32> {
        self.get(Slot::DownstreamLoss)
    }

    /// [`Slot::SpuriousRetx`].
    pub fn spurious_retx(&self) -> SeriesView<'_, u32> {
        self.get(Slot::SpuriousRetx)
    }

    /// [`Slot::ZeroWindow`].
    pub fn zero_window(&self) -> SeriesView<'_, u32> {
        self.get(Slot::ZeroWindow)
    }

    /// [`Slot::WindowProbes`].
    pub fn window_probes(&self) -> SeriesView<'_, u32> {
        self.get(Slot::WindowProbes)
    }

    /// [`Slot::SendLocalLoss`].
    pub fn send_local_loss(&self) -> SeriesView<'_, u32> {
        self.get(Slot::SendLocalLoss)
    }

    /// [`Slot::RecvLocalLoss`].
    pub fn recv_local_loss(&self) -> SeriesView<'_, u32> {
        self.get(Slot::RecvLocalLoss)
    }

    /// [`Slot::NetworkLoss`].
    pub fn network_loss(&self) -> SeriesView<'_, u32> {
        self.get(Slot::NetworkLoss)
    }

    /// [`Slot::SendAppLimited`].
    pub fn send_app_limited(&self) -> SeriesView<'_, u32> {
        self.get(Slot::SendAppLimited)
    }

    /// [`Slot::SmallAdvWindow`].
    pub fn small_adv_window(&self) -> SeriesView<'_, u32> {
        self.get(Slot::SmallAdvWindow)
    }

    /// [`Slot::LargeAdvWindow`].
    pub fn large_adv_window(&self) -> SeriesView<'_, u32> {
        self.get(Slot::LargeAdvWindow)
    }

    /// [`Slot::AdvBndOut`].
    pub fn adv_bnd_out(&self) -> SeriesView<'_, u32> {
        self.get(Slot::AdvBndOut)
    }

    /// [`Slot::CwdBndOut`].
    pub fn cwd_bnd_out(&self) -> SeriesView<'_, u32> {
        self.get(Slot::CwdBndOut)
    }

    /// [`Slot::BandwidthLimited`].
    pub fn bandwidth_limited(&self) -> SeriesView<'_, u32> {
        self.get(Slot::BandwidthLimited)
    }

    /// `AdvBndOut ∩ SmallAdvWindow` (§III-C3, Rule 4).
    pub fn small_adv_bnd_out(&self) -> SpanSet {
        self.adv_bnd_out()
            .to_span_set()
            .intersection(&self.small_adv_window().to_span_set())
    }

    /// `AdvBndOut ∩ LargeAdvWindow`.
    pub fn large_adv_bnd_out(&self) -> SpanSet {
        self.adv_bnd_out()
            .to_span_set()
            .intersection(&self.large_adv_window().to_span_set())
    }

    /// Zero-window-bounded outstanding: zero-window periods while the
    /// transfer was still in progress.
    pub fn zero_adv_bnd_out(&self) -> SpanSet {
        self.zero_window().to_span_set().clipped(self.period)
    }

    /// Union of every loss-recovery series.
    pub fn all_loss(&self) -> SpanSet {
        self.upstream_loss()
            .to_span_set()
            .union(&self.downstream_loss().to_span_set())
            .union(&self.spurious_retx().to_span_set())
    }

    /// `ZeroAdvBndOut ∩ UpstreamLoss` — the conflicting-series check
    /// that exposed the zero-window-probe sender bug (§IV-B).
    pub fn zero_ack_bug(&self) -> SpanSet {
        self.zero_adv_bnd_out()
            .intersection(&self.upstream_loss().to_span_set())
    }

    /// Every named series, flattened — for listings and plots.
    pub fn named(&self) -> Vec<(&'static str, SpanSet)> {
        let stored = |slot: Slot| (slot.name(), self.get(slot).to_span_set());
        vec![
            stored(Slot::Transmission),
            stored(Slot::Outstanding),
            stored(Slot::AdvWindow),
            stored(Slot::UpstreamLoss),
            stored(Slot::DownstreamLoss),
            stored(Slot::SpuriousRetx),
            stored(Slot::ZeroWindow),
            stored(Slot::WindowProbes),
            stored(Slot::SendLocalLoss),
            stored(Slot::RecvLocalLoss),
            stored(Slot::NetworkLoss),
            stored(Slot::SendAppLimited),
            stored(Slot::SmallAdvWindow),
            stored(Slot::LargeAdvWindow),
            stored(Slot::AdvBndOut),
            stored(Slot::CwdBndOut),
            ("SmallAdvBndOut", self.small_adv_bnd_out()),
            ("LargeAdvBndOut", self.large_adv_bnd_out()),
            ("ZeroAdvBndOut", self.zero_adv_bnd_out()),
            ("AllLoss", self.all_loss()),
            stored(Slot::BandwidthLimited),
            ("ZeroAckBug", self.zero_ack_bug()),
        ]
    }
}

/// Prints as the struct of 17 named series the set once was, slot by
/// slot, so a set prints alike however it is stored.
impl fmt::Debug for SeriesSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct("SeriesSet");
        out.field("period", &self.period)
            .field("mss", &self.mss)
            .field("max_adv_window", &self.max_adv_window);
        for slot in Slot::ALL {
            out.field(NAMES[slot as usize].1, &self.get(slot));
        }
        out.finish()
    }
}

/// A [`SeriesSet`] while its rules write it: one growable
/// [`EventSeries`] per [`Slot`], indexed by slot, beside the period and
/// the windows. [`build`](Self::build) freezes it into the set's one
/// allocation. Series generation takes its builders from the
/// [`SpanScratch`] it is given and puts them back once frozen, so a
/// scratch kept across connections builds each set in the buffers of
/// the last.
///
/// # Examples
///
/// ```
/// use tdat::{SeriesBuilder, Slot};
/// use tdat_timeset::Span;
///
/// let mut built = SeriesBuilder::new(Span::from_micros(0, 1_000), 1448, 65_535);
/// built[Slot::SendAppLimited].push(Span::from_micros(100, 400), 0);
/// let set = built.build();
/// assert_eq!(set.send_app_limited().size().as_micros(), 300);
/// assert_eq!(set.events().len(), 1, "one event, in one allocation");
/// ```
#[derive(Debug, Default)]
pub struct SeriesBuilder {
    /// The analysis period.
    pub period: Span,
    /// MSS used for window thresholds.
    pub mss: u32,
    /// Maximum window the receiver advertised.
    pub max_adv_window: u32,
    slots: [EventSeries<u32>; SLOTS],
}

impl SeriesBuilder {
    /// An empty builder over `period`; it allocates nothing until a
    /// series takes its first event.
    pub fn new(period: Span, mss: u32, max_adv_window: u32) -> SeriesBuilder {
        SeriesBuilder {
            period,
            mss,
            max_adv_window,
            slots: Default::default(),
        }
    }

    /// An empty builder whose series are `scratch`'s pooled buffers.
    fn pooled(
        scratch: &mut SpanScratch,
        period: Span,
        mss: u32,
        max_adv_window: u32,
    ) -> SeriesBuilder {
        SeriesBuilder {
            period,
            mss,
            max_adv_window,
            slots: std::array::from_fn(|_| scratch.take_series()),
        }
    }

    /// The set as built so far, frozen: one allocation of exactly its
    /// events, none if it has none.
    pub fn build(&self) -> SeriesSet {
        SeriesSet {
            period: self.period,
            mss: self.mss,
            max_adv_window: self.max_adv_window,
            series: SeriesArena::freeze(&self.slots),
        }
    }

    /// Freezes the set, and returns the builders' buffers to `scratch`.
    fn finish(self, scratch: &mut SpanScratch) -> SeriesSet {
        let set = self.build();
        scratch.put_series(self.slots);
        set
    }

    /// Pushes every event of `from` into `to`, in order.
    fn copy(&mut self, from: Slot, to: Slot) {
        let source = std::mem::take(&mut self[from]);
        self[to].extend(source.iter().map(|e| (e.span, e.data)));
        self[from] = source;
    }
}

impl Index<Slot> for SeriesBuilder {
    type Output = EventSeries<u32>;
    fn index(&self, slot: Slot) -> &EventSeries<u32> {
        &self.slots[slot as usize]
    }
}

impl IndexMut<Slot> for SeriesBuilder {
    fn index_mut(&mut self, slot: Slot) -> &mut EventSeries<u32> {
        &mut self.slots[slot as usize]
    }
}

/// Generates the full series set from a shifted trace, its labels
/// (aligned with the trace's data segments in order), and the analysis
/// period, with a caller-provided scratch pool: the intermediate span
/// sets of the Operation rules reuse its buffers instead of allocating
/// per series op, and the series are built in its pooled builders and
/// frozen once, so the set is one allocation and a scratch kept across
/// connections makes no other.
#[allow(clippy::too_many_arguments)]
pub fn generate_series_with(
    trace: &ShiftedTrace,
    labels: &[SegLabel],
    period: Span,
    mss: u32,
    max_adv_window: u32,
    rtt: Option<Micros>,
    config: &AnalyzerConfig,
    scratch: &mut SpanScratch,
) -> SeriesSet {
    let (data, acks) = data_and_acks(trace);
    let flight_gap = match rtt {
        Some(rtt) if rtt > Micros::ZERO => (rtt / 2).max(Micros::from_millis(1)),
        _ => FALLBACK_FLIGHT_GAP,
    };
    let flights = group_flights(&data, flight_gap);
    let mut built = SeriesBuilder::pooled(scratch, period, mss, max_adv_window);
    alert_series(&mut built, trace, labels, &data, &acks, rtt, scratch);
    extraction(&mut built, &data, &acks, &flights);
    interpretation(&mut built, config);
    operation(&mut built, &data, &acks, &flights, rtt, config, scratch);
    built.finish(scratch)
}

/// The series a live monitor's alerts read, and the one they are
/// derived from: `UpstreamLoss`, `DownstreamLoss`, `SpuriousRetx` and
/// `WindowProbes` (from the labels), `ZeroWindow`, `Outstanding` and
/// `SendAppLimited`, each exactly as [`generate_series_with`] makes it.
/// Every other series is left empty, and `mss` zero.
pub(crate) fn generate_alert_series(
    trace: &ShiftedTrace,
    labels: &[SegLabel],
    period: Span,
    max_adv_window: u32,
    rtt: Option<Micros>,
    scratch: &mut SpanScratch,
) -> SeriesSet {
    let (data, acks) = data_and_acks(trace);
    let mut built = SeriesBuilder::pooled(scratch, period, 0, max_adv_window);
    alert_series(&mut built, trace, labels, &data, &acks, rtt, scratch);
    built.finish(scratch)
}

/// The payload-carrying data segments and the ACK-flagged ACKs of the
/// trace, in (shifted) time order: what every rule walks. One pass
/// counts both, so each list is one allocation of its exact size, and a
/// second fills them.
fn data_and_acks(trace: &ShiftedTrace) -> (Vec<&Segment>, Vec<&Segment>) {
    let is_data = |s: &Segment| s.dir == Direction::Data && s.payload_len > 0;
    let is_ack =
        |s: &Segment| s.dir == Direction::Ack && s.flags.contains(tdat_packet::TcpFlags::ACK);
    let (data_len, acks_len) = trace.segments.iter().fold((0, 0), |(d, a), s| {
        (d + usize::from(is_data(s)), a + usize::from(is_ack(s)))
    });
    let (mut data, mut acks) = (Vec::with_capacity(data_len), Vec::with_capacity(acks_len));
    for s in &trace.segments {
        if is_data(s) {
            data.push(s);
        } else if is_ack(s) {
            acks.push(s);
        }
    }
    (data, acks)
}

/// The rules of [`generate_alert_series`], over the trace's data and
/// ACK segments.
fn alert_series(
    built: &mut SeriesBuilder,
    trace: &ShiftedTrace,
    labels: &[SegLabel],
    data: &[&Segment],
    acks: &[&Segment],
    rtt: Option<Micros>,
    scratch: &mut SpanScratch,
) {
    outstanding(built, trace);
    label_series(built, trace, labels);
    zero_window(built, acks);
    send_app_limited(built, data, acks, rtt, scratch);
}

/// Flattens `series` and unions it into `acc` using pooled buffers.
fn union_series_into(acc: &mut SpanSet, series: SeriesView<'_, u32>, scratch: &mut SpanScratch) {
    let mut flat = scratch.take();
    series.span_set_into(&mut flat);
    let mut out = scratch.take();
    acc.union_into(&flat, &mut out);
    std::mem::swap(acc, &mut out);
    scratch.put(flat);
    scratch.put(out);
}

// ----------------------------------------------------------------------
// Rule 1: Extraction
// ----------------------------------------------------------------------

/// `flights` are the data segments grouped at half the RTT (or the
/// fallback gap), as [`generate_series_with`] groups them once for this
/// rule and the congestion-window rule.
fn extraction(built: &mut SeriesBuilder, data: &[&Segment], acks: &[&Segment], flights: &[Flight]) {
    // Transmission: data flights, one event each.
    built[Slot::Transmission].reserve(flights.len());
    for flight in flights {
        let bytes: u32 = data[flight.members.clone()]
            .iter()
            .map(|s| s.payload_len)
            .sum();
        // Give an instantaneous burst a minimal width of one
        // microsecond so it is visible to the set algebra.
        let end = flight.end.max(flight.start + Micros(1));
        built[Slot::Transmission].push(Span::new(flight.start, end), bytes);
    }

    // Advertised window: each ACK's window holds until the next ACK.
    built[Slot::AdvWindow].reserve(acks.len());
    for pair in acks.windows(2) {
        built[Slot::AdvWindow].push(Span::new(pair[0].time, pair[1].time), pair[0].window);
    }
    if let Some(last) = acks.last() {
        let span = Span::new(last.time, built.period.end);
        built[Slot::AdvWindow].push(span, last.window);
    }
}

/// Outstanding: walk data/ack events, tracking unacked bytes.
fn outstanding(built: &mut SeriesBuilder, trace: &ShiftedTrace) {
    let mut snd_max: Option<u32> = None;
    let mut ack_max: Option<u32> = None;
    let mut open_since: Option<Micros> = None;
    let mut peak: u32 = 0;
    for seg in &trace.segments {
        match seg.dir {
            Direction::Data if seg.payload_len > 0 => {
                if snd_max.is_none_or(|m| seq_diff(seg.seq_end, m) > 0) {
                    snd_max = Some(seg.seq_end);
                }
                let out = unacked(snd_max, ack_max);
                if out > 0 && open_since.is_none() {
                    open_since = Some(seg.time);
                    peak = out;
                }
                peak = peak.max(out);
            }
            Direction::Ack if seg.flags.contains(tdat_packet::TcpFlags::ACK) => {
                if ack_max.is_none_or(|m| seq_diff(seg.ack, m) > 0) {
                    ack_max = Some(seg.ack);
                }
                let out = unacked(snd_max, ack_max);
                if out == 0 {
                    if let Some(start) = open_since.take() {
                        built[Slot::Outstanding].push(Span::new(start, seg.time), peak);
                        peak = 0;
                    }
                }
            }
            _ => {}
        }
    }
    if let Some(start) = open_since {
        // Trace ended with data in flight.
        let span = Span::new(start, built.period.end);
        built[Slot::Outstanding].push(span, peak);
    }
}

/// Losses and probes from the labels (aligned with data segments in
/// order).
fn label_series(built: &mut SeriesBuilder, trace: &ShiftedTrace, labels: &[SegLabel]) {
    // Labels align one-to-one with the data-direction segments in
    // order (data segments are never shifted, so the shifted trace
    // preserves that order).
    for (label, seg) in labels.iter().zip(trace.data_segments()) {
        match label {
            SegLabel::UpstreamLoss(span) => built[Slot::UpstreamLoss].push(*span, seg.payload_len),
            SegLabel::DownstreamLoss(span) => {
                built[Slot::DownstreamLoss].push(*span, seg.payload_len)
            }
            SegLabel::SpuriousRetransmission(span) => {
                built[Slot::SpuriousRetx].push(*span, seg.payload_len)
            }
            SegLabel::WindowProbe => {
                built[Slot::WindowProbes]
                    .push(Span::new(seg.time, seg.time + Micros(1)), seg.payload_len);
            }
            SegLabel::InOrder | SegLabel::Reordered => {}
        }
    }
}

/// Zero-window periods.
fn zero_window(built: &mut SeriesBuilder, acks: &[&Segment]) {
    let mut zero_since: Option<Micros> = None;
    for ack in acks {
        if ack.window == 0 {
            zero_since.get_or_insert(ack.time);
        } else if let Some(start) = zero_since.take() {
            built[Slot::ZeroWindow].push(Span::new(start, ack.time), 0);
        }
    }
    if let Some(start) = zero_since {
        let span = Span::new(start, built.period.end);
        built[Slot::ZeroWindow].push(span, 0);
    }
}

fn unacked(snd_max: Option<u32>, ack_max: Option<u32>) -> u32 {
    match (snd_max, ack_max) {
        (Some(s), Some(a)) => seq_diff(s, a).max(0) as u32,
        (Some(_), None) => 1, // data sent, nothing acked yet
        _ => 0,
    }
}

// ----------------------------------------------------------------------
// Rule 2: Interpretation
// ----------------------------------------------------------------------

/// Copies the loss series into the slots that name them for the
/// sniffer's location; a slot no location fills stays empty. In the
/// middle, the network's losses are both directions', upstream first.
fn interpretation(built: &mut SeriesBuilder, config: &AnalyzerConfig) {
    match config.sniffer {
        SnifferLocation::NearReceiver => {
            built.copy(Slot::DownstreamLoss, Slot::RecvLocalLoss);
            built.copy(Slot::UpstreamLoss, Slot::NetworkLoss);
        }
        SnifferLocation::NearSender => {
            built.copy(Slot::UpstreamLoss, Slot::SendLocalLoss);
            built.copy(Slot::DownstreamLoss, Slot::NetworkLoss);
        }
        SnifferLocation::Middle => {
            built.copy(Slot::UpstreamLoss, Slot::NetworkLoss);
            built.copy(Slot::DownstreamLoss, Slot::NetworkLoss);
        }
    }
}

// ----------------------------------------------------------------------
// Rule 3: Operation
// ----------------------------------------------------------------------

/// Sender-app-limited: gaps where everything was acked, the window was
/// open, and the sender stayed silent.
fn send_app_limited(
    built: &mut SeriesBuilder,
    data: &[&Segment],
    acks: &[&Segment],
    rtt: Option<Micros>,
    scratch: &mut SpanScratch,
) {
    let idle_threshold = match rtt {
        Some(rtt) => MIN_IDLE_GAP.max(rtt / 4),
        None => MIN_IDLE_GAP,
    };
    // Times at which outstanding hit zero = ends of outstanding
    // events; next data transmission after each. Outstanding spans
    // end in strictly increasing order, so the data and ack lookups
    // are monotone cursors rather than per-span scans from the
    // front.
    let mut outstanding_set = scratch.take();
    built[Slot::Outstanding]
        .view()
        .span_set_into(&mut outstanding_set);
    let mut di = 0usize;
    let mut ai = 0usize;
    let mut last_window: Option<u32> = None;
    for span in outstanding_set.iter() {
        // Find the next data segment after this outstanding period.
        while di < data.len() && data[di].time <= span.end {
            di += 1;
        }
        let Some(next) = data.get(di) else { break };
        let gap_end = next.time;
        // Window at the gap: last ACK at or before the gap start.
        while ai < acks.len() && acks[ai].time <= span.end {
            last_window = Some(acks[ai].window);
            ai += 1;
        }
        if gap_end - span.end < idle_threshold {
            continue;
        }
        let window = last_window.unwrap_or(built.max_adv_window);
        if window == 0 {
            continue; // that is flow control, not the application
        }
        built[Slot::SendAppLimited].push(Span::new(span.end, gap_end), 0);
    }
    scratch.put(outstanding_set);
}

fn operation(
    built: &mut SeriesBuilder,
    data: &[&Segment],
    acks: &[&Segment],
    flights: &[Flight],
    rtt: Option<Micros>,
    config: &AnalyzerConfig,
    scratch: &mut SpanScratch,
) {
    let mss = built.mss.max(1);
    let small = (config.small_window_mss * mss as f64) as u32;
    let large = built
        .max_adv_window
        .saturating_sub((config.small_window_mss * mss as f64) as u32);

    // Small / large advertised-window series.
    let adv_window = std::mem::take(&mut built[Slot::AdvWindow]);
    for e in adv_window.iter() {
        if e.data < small {
            built[Slot::SmallAdvWindow].push(e.span, e.data);
        }
        if e.data >= large && built.max_adv_window > 0 {
            built[Slot::LargeAdvWindow].push(e.span, e.data);
        }
    }
    built[Slot::AdvWindow] = adv_window;

    // Advertised-window-bounded outstanding, as a continuous check:
    // walk the (shifted) event stream tracking outstanding bytes and
    // the window in effect; periods where the gap between them stays
    // within `WINDOW_BOUND_MSS × MSS` are AdvBndOut. A per-flight test
    // would miss continuously ACK-clocked flow, which has no flight
    // boundaries precisely *because* the window is the limiter.
    let bound_margin = WINDOW_BOUND_MSS * i64::from(mss);
    {
        let mut snd_max: Option<u32> = None;
        let mut ack_max: Option<u32> = None;
        let mut window: Option<u32> = None;
        let mut bound_since: Option<Micros> = None;
        let mut peak: u32 = 0;
        let mut di = 0usize;
        let mut ai = 0usize;
        loop {
            // Merge data/ack streams by (shifted) time.
            let next_is_data = match (data.get(di), acks.get(ai)) {
                (Some(d), Some(a)) => d.time <= a.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let time;
            let is_data = next_is_data;
            if next_is_data {
                let d = data[di];
                di += 1;
                time = d.time;
                if snd_max.is_none_or(|m| seq_diff(d.seq_end, m) > 0) {
                    snd_max = Some(d.seq_end);
                }
            } else {
                let a = acks[ai];
                ai += 1;
                time = a.time;
                if ack_max.is_none_or(|m| seq_diff(a.ack, m) > 0) {
                    ack_max = Some(a.ack);
                }
                window = Some(a.window);
            }
            let out = match (snd_max, ack_max) {
                (Some(s), Some(a)) => seq_diff(s, a).max(0),
                _ => 0,
            };
            // Evaluate the bound when the *sender acts* (data events):
            // in the shifted trace each ACK precedes the data it
            // released, so at a data event `window` is exactly the
            // window the sender was working against. Later ACKs merely
            // retire data — they end the bound only when the pipe
            // drains completely (the sender then idles by choice, which
            // is the application's doing, not the window's).
            let bound = if is_data {
                match window {
                    Some(w) if w > 0 && out > 0 => (w as i64 - out) <= bound_margin,
                    _ => false,
                }
            } else {
                bound_since.is_some() && out > 0
            };
            match (bound, bound_since) {
                (true, None) => {
                    bound_since = Some(time);
                    peak = out as u32;
                }
                (true, Some(_)) => peak = peak.max(out as u32),
                (false, Some(start)) => {
                    built[Slot::AdvBndOut].push(Span::new(start, time), peak);
                    bound_since = None;
                }
                (false, None) => {}
            }
        }
        if let Some(start) = bound_since {
            let span = Span::new(start, built.period.end);
            built[Slot::AdvBndOut].push(span, peak);
        }
    }

    // Congestion-window-bounded outstanding: per-flight (distinct
    // flights exist exactly when the window is open but cwnd paces the
    // sender), excluding flights already explained by the advertised
    // window.
    let mut adv_bound_set = scratch.take();
    built[Slot::AdvBndOut]
        .view()
        .span_set_into(&mut adv_bound_set);
    // Flights end in strictly increasing order, so the "last ACK at or
    // before the flight end" lookup is a monotone cursor, and the
    // forward scans for the covering ACK start at the cursor instead of
    // re-walking the whole ack stream per flight.
    let mut ai = 0usize;
    let mut cursor_ack: Option<&Segment> = None;
    for (k, flight) in flights.iter().enumerate() {
        let mut members = data[flight.members.clone()].iter().map(|s| s.seq_end);
        let first = members.next().expect("flights are nonempty");
        let flight_top = members.fold(first, |acc, s| if seq_diff(s, acc) > 0 { s } else { acc });
        while ai < acks.len() && acks[ai].time <= flight.end {
            cursor_ack = Some(acks[ai]);
            ai += 1;
        }
        let Some(last_ack) = cursor_ack else { continue };
        let ack_level = last_ack.ack;
        let out = seq_diff(flight_top, ack_level).max(0);
        if out == 0 || adv_bound_set.contains(flight.end) {
            continue;
        }
        // When does an ACK cover this flight? Every ack before the
        // cursor is at or before the flight end, so the scan starts
        // there.
        let covered_at = acks[ai..]
            .iter()
            .find(|a| seq_diff(a.ack, flight_top) >= 0)
            .map(|a| a.time);
        let span_end = covered_at.unwrap_or(built.period.end);
        let span = Span::new(flight.start, span_end);
        // Congestion-window bound: the next flight left immediately
        // after this flight's ACKs arrived.
        if let (Some(next), Some(cov)) = (flights.get(k + 1), covered_at) {
            let first_ack_after = acks[ai..]
                .iter()
                .find(|a| seq_diff(a.ack, ack_level) > 0)
                .map(|a| a.time)
                .unwrap_or(cov);
            if next.start >= first_ack_after && next.start - first_ack_after <= CWND_CLOCK_SLACK {
                built[Slot::CwdBndOut].push(span, out as u32);
            }
        }
    }
    scratch.put(adv_bound_set);

    // Bandwidth-limited: long continuous transmission not explained by
    // windows or losses.
    let bw_gap = match rtt {
        Some(rtt) if rtt > Micros::ZERO => (rtt / 8).max(Micros(500)),
        _ => Micros::from_millis(1),
    };
    let min_len = rtt.unwrap_or(Micros::from_millis(10)) * 2;
    let continuous = group_flights(data, bw_gap);
    // `explained` = AdvBndOut ∪ CwdBndOut ∪ AllLoss ∪ SendAppLimited,
    // built by repeated union into pooled buffers (union is associative
    // and SpanSets are normalized, so the grouping doesn't matter).
    let mut explained = scratch.take();
    built[Slot::AdvBndOut].view().span_set_into(&mut explained);
    union_series_into(&mut explained, built[Slot::CwdBndOut].view(), scratch);
    union_series_into(&mut explained, built[Slot::UpstreamLoss].view(), scratch);
    union_series_into(&mut explained, built[Slot::DownstreamLoss].view(), scratch);
    union_series_into(&mut explained, built[Slot::SpuriousRetx].view(), scratch);
    union_series_into(&mut explained, built[Slot::SendAppLimited].view(), scratch);
    let mut single = scratch.take();
    let mut unexplained = scratch.take();
    for burst in continuous {
        let span = Span::new(burst.start, burst.end);
        if span.duration() >= min_len {
            single.clear();
            single.insert(span);
            single.difference_into(&explained, &mut unexplained);
            for s in unexplained.iter() {
                if s.duration() >= min_len {
                    built[Slot::BandwidthLimited].push(*s, 0);
                }
            }
        }
    }
    scratch.put(single);
    scratch.put(unexplained);
    scratch.put(explained);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::shift_acks;
    use std::net::Ipv4Addr;
    use tdat_packet::{FrameBuilder, TcpFrame};
    use tdat_trace::{extract_connections, label_segments, LabelConfig};

    fn a() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn b() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }
    fn data(t: i64, seq: u32, len: usize) -> TcpFrame {
        FrameBuilder::new(a(), b())
            .at(Micros(t))
            .ports(179, 40000)
            .seq(seq)
            .ack_to(1)
            .payload(vec![0; len])
            .build()
    }
    fn ack_w(t: i64, ackn: u32, window: u16) -> TcpFrame {
        FrameBuilder::new(b(), a())
            .at(Micros(t))
            .ports(40000, 179)
            .seq(1)
            .ack_to(ackn)
            .window(window)
            .build()
    }

    fn series_for(frames: &[TcpFrame]) -> SeriesSet {
        let conns = extract_connections(frames);
        let conn = &conns[0];
        let labels = label_segments(conn, &LabelConfig::default());
        let shifted = shift_acks(conn);
        generate_series_with(
            &shifted,
            &labels,
            Span::new(conn.profile.start, conn.profile.end),
            conn.profile.mss.unwrap_or(1448),
            conn.profile.max_receiver_window,
            conn.profile.rtt,
            &AnalyzerConfig::default(),
            &mut SpanScratch::new(),
        )
    }

    /// SYN / SYN|ACK / ACK preamble giving the profile an RTT (20.1 ms)
    /// and anchoring d1/d2 estimation.
    fn handshake() -> Vec<TcpFrame> {
        vec![
            FrameBuilder::new(a(), b())
                .at(Micros(0))
                .ports(179, 40000)
                .seq(999)
                .flags(tdat_packet::TcpFlags::SYN)
                .option(tdat_packet::TcpOption::Mss(1448))
                .window(65535)
                .build(),
            FrameBuilder::new(b(), a())
                .at(Micros(100))
                .ports(40000, 179)
                .seq(0)
                .ack_to(1000)
                .flags(tdat_packet::TcpFlags::SYN | tdat_packet::TcpFlags::ACK)
                .option(tdat_packet::TcpOption::Mss(1448))
                .window(65535)
                .build(),
            FrameBuilder::new(a(), b())
                .at(Micros(20_100))
                .ports(179, 40000)
                .seq(1000)
                .ack_to(1)
                .window(65535)
                .build(),
        ]
    }

    #[test]
    fn send_app_limited_captures_idle_gaps() {
        // Flight, acked (d1 = 300 us), long silence (~200 ms), flight
        // again. The handshake gives d2 = rtt - d1 ≈ 19.8 ms, which
        // caps the ACK shift so the idle gap survives preprocessing.
        let mut frames = handshake();
        frames.extend([
            data(25_000, 1000, 1000),
            ack_w(25_300, 2000, 65535),
            data(225_300, 2000, 1000),
            ack_w(225_600, 3000, 65535),
        ]);
        let s = series_for(&frames);
        let sal = s.send_app_limited().to_span_set();
        assert_eq!(sal.len(), 1, "sal = {sal}");
        assert!(
            sal.size() >= Micros::from_millis(150),
            "idle gap mostly preserved: {sal}"
        );
    }

    #[test]
    fn zero_window_series_tracked() {
        let mut frames = handshake();
        frames.extend([
            data(25_000, 1000, 1000),
            ack_w(25_300, 2000, 0),
            ack_w(5_000_300, 2000, 30000),
            data(5_000_400, 2000, 1000),
            ack_w(5_000_700, 3000, 30000),
        ]);
        let s = series_for(&frames);
        let zw = s.zero_window().to_span_set();
        assert_eq!(zw.len(), 1);
        assert!(zw.size() >= Micros::from_secs(4));
        assert!(!s.zero_adv_bnd_out().is_empty());
    }

    #[test]
    fn small_and_large_window_series() {
        let frames = vec![
            data(0, 1000, 1000),
            ack_w(300, 2000, 65535), // large
            data(400, 2000, 1000),
            ack_w(700, 3000, 2000), // small (< 3*1448)
            data(800, 3000, 1000),
            ack_w(1_100, 4000, 65535), // large again
        ];
        let s = series_for(&frames);
        assert!(!s.small_adv_window().is_empty());
        assert!(!s.large_adv_window().is_empty());
        let small = s.small_adv_window().to_span_set();
        let large = s.large_adv_window().to_span_set();
        assert!(small.intersection(&large).is_empty());
    }

    #[test]
    fn loss_series_from_labels() {
        let frames = vec![
            data(0, 1000, 1000),
            data(500_000, 1000, 1000), // downstream retransmission
            ack_w(500_300, 2000, 65535),
        ];
        let s = series_for(&frames);
        assert_eq!(s.downstream_loss().len(), 1);
        assert_eq!(s.recv_local_loss().len(), 1, "near-receiver interpretation");
        assert!(s.send_local_loss().is_empty());
        assert_eq!(
            s.downstream_loss().size(),
            Micros(500_000),
            "recovery span covers original→retransmission"
        );
    }

    #[test]
    fn adv_bound_detected_when_window_pins_flight() {
        // Window 4000, flight of ~4000 outstanding → bound.
        // RTT unknown → flight gap 10 ms.
        let frames = vec![
            ack_w(0, 1000, 4000),
            data(100, 1000, 1400),
            data(200, 2400, 1400),
            data(300, 3800, 1200),
            ack_w(20_000, 5000, 4000),
            data(20_100, 5000, 1400),
        ];
        let s = series_for(&frames);
        assert!(
            !s.adv_bnd_out().is_empty(),
            "4000-byte window bounding a 4000-byte flight"
        );
    }

    /// A series carries no name, so a series in the wrong slot would
    /// print under the wrong name with nothing else to show it. Each of
    /// the 17 stored slots gets one event of its own, in field order;
    /// `named` must list every slot exactly once, in that order, beside
    /// the 5 derived sets, under 22 distinct names.
    #[test]
    fn named_lists_every_series() {
        const DERIVED: [&str; 5] = [
            "SmallAdvBndOut",
            "LargeAdvBndOut",
            "ZeroAdvBndOut",
            "AllLoss",
            "ZeroAckBug",
        ];
        let mut built = SeriesBuilder::default();
        let stored = Slot::ALL.len();
        assert_eq!(stored, 17);
        let mark = |slot: usize| Span::from_micros(10 * slot as i64 + 1, 10 * slot as i64 + 2);
        for (i, slot) in Slot::ALL.into_iter().enumerate() {
            assert_eq!(slot as usize, i, "ALL is in storage order");
            built[slot].push(mark(i), 0);
        }
        let s = built.build();
        // The period is empty, so `ZeroAdvBndOut` and `ZeroAckBug` are
        // too, and no derived set can pass for a single slot.
        let named = s.named();
        let mut next = 0;
        for (name, set) in &named {
            if DERIVED.contains(name) {
                assert_ne!(*set, SpanSet::from_spans([mark(next)]), "{name}");
                continue;
            }
            assert_eq!(
                *set,
                SpanSet::from_spans([mark(next)]),
                "{name} lists slot {next}"
            );
            next += 1;
        }
        assert_eq!(next, stored, "every stored slot is listed");
        let mut names: Vec<&str> = named.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 22);
        assert!(DERIVED.iter().all(|d| names.contains(d)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22, "names are unique");
    }
}
