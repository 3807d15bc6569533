//! Trace preprocessing: approximate the sender-side view by shifting
//! ACK flights (§III-B1).
//!
//! The sniffer sits next to the receiver, but transfer delay is mostly
//! determined by sender behaviour. T-DAT therefore rewrites the
//! `packet-ack-packet` arrival order at the sniffer into the order the
//! *sender* experienced, by shifting each ACK forward to just before
//! the data it released. Per-ACK delay estimates are noisy, so the
//! paper's insight is to shift a whole *flight* of ACKs by the most
//! precise (smallest) per-ACK estimate within it. On a sender-side
//! trace the estimated shifts are ≈0 and the step is a no-op.

use tdat_packet::seq_diff;
use tdat_timeset::{Micros, Span};
use tdat_trace::{default_flight_gap, ConnProfile, Direction, Segment, TcpConnection};

/// One applied flight shift, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightShift {
    /// The original time extent of the ACK flight.
    pub flight: Span,
    /// How far forward it was moved (`d2_min`).
    pub shift: Micros,
    /// Number of ACKs in the flight.
    pub acks: usize,
}

/// The preprocessed trace: all segments with ACK times rewritten, in
/// (new) time order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftedTrace {
    /// Segments of both directions, sorted by (shifted) time.
    pub segments: Vec<Segment>,
    /// The shifts that were applied.
    pub shifts: Vec<FlightShift>,
}

/// Rewrites `conn`'s ACK arrivals to approximate the sender-side trace.
///
/// ACK-direction segments are grouped into flights by inter-arrival
/// gap; each flight is shifted forward by the minimum over its members
/// of *delay to the first new data that followed* (`d2`). Flights with
/// no subsequent new data (e.g. the trace tail) are left in place.
///
/// The result is a copy of `conn`'s segments; a caller that owns the
/// connection shifts its segments in place with [`shift_acks_into`].
pub fn shift_acks(conn: &TcpConnection) -> ShiftedTrace {
    shift_acks_into(conn.segments.clone(), &conn.profile)
}

/// [`shift_acks`] over a connection's own segments (capture order, both
/// directions, as [`TcpConnection::segments`]) and its profile: the ACK
/// times are rewritten and the segments reordered in place, so the
/// shifted trace is the same allocation, never a copy.
pub fn shift_acks_into(mut segments: Vec<Segment>, profile: &ConnProfile) -> ShiftedTrace {
    let gap = default_flight_gap(profile.rtt);

    // New-data events: (time, seq_end) for segments advancing the
    // maximum sequence — both columns monotone.
    let mut new_data: Vec<(Micros, u32)> = Vec::new();
    let mut max_end: Option<u32> = None;
    for seg in segments.iter().filter(|s| s.dir == Direction::Data) {
        if seg.payload_len == 0 {
            continue;
        }
        let fresh = max_end.is_none_or(|m| seq_diff(seg.seq_end, m) > 0);
        if fresh {
            new_data.push((seg.time, seg.seq_end));
            max_end = Some(seg.seq_end);
        }
    }
    let base_seq = new_data.first().map(|(_, s)| *s).unwrap_or(0);
    // Relative (wrap-free) sequence for binary search.
    let rel = |s: u32| seq_diff(s, base_seq);

    // Connection-level upper bound on any shift: the upstream RTT
    // component d2 = rtt - d1 from the profile. Without it, a flight
    // whose sender idled before responding would absorb the idle time
    // into the shift and erase the very gap T-DAT needs to see.
    let global_d2 = profile.d2();

    // The release-point search below asks for the first new data past
    // a release level that never decreases, so while the sequence
    // column is monotone (it is unless the connection carried over
    // 2 GiB and sequence numbers wrapped past its first) a forward
    // cursor finds what bisection finds.
    let monotone = new_data.windows(2).all(|w| rel(w[0].1) < rel(w[1].1));
    let mut released = 0usize;

    // One pass over the ACKs in capture order. An ACK's d2 estimates
    // read only the ACKs before it, and a flight is a run of
    // consecutive ACKs, so a flight's shift is known when the next one
    // starts, and is applied then to members nothing reads again.
    let mut shifts = Vec::new();
    let mut flight: Option<AckFlight> = None;
    let mut prev_release: Option<i64> = None; // rel(seq) permitted so far
    for pos in 0..segments.len() {
        let Segment {
            dir,
            time,
            ack,
            window,
            ..
        } = segments[pos];
        if dir != Direction::Ack {
            continue;
        }
        // Per-ACK d2 estimate via *release points*: data with
        // `seq_end > prev_release` could only leave the sender after
        // this ACK arrived, so its sniffer arrival is a true lower
        // bound on t_ack + d2. (The naive "next data after the ACK"
        // estimate degenerates to ~0 under pipelined flow, where data
        // released by *earlier* ACKs keeps arriving continuously.)
        let primary = prev_release.and_then(|release| {
            let idx = if monotone {
                while new_data
                    .get(released)
                    .is_some_and(|(_, s)| rel(*s) <= release)
                {
                    released += 1;
                }
                released
            } else {
                new_data.partition_point(|(_, s)| rel(*s) <= release)
            };
            new_data
                .get(idx)
                .filter(|(t, _)| *t >= time)
                .map(|(t, _)| *t - time)
        });
        // Fallback (window never binding, e.g. cwnd-clocked flow, or
        // no window context yet): first new data after the ACK.
        // Degenerate under pipelining — data released by *earlier*
        // ACKs keeps arriving ~immediately — so it is only used when
        // the whole flight lacks release-point estimates AND no
        // profile d2 is available; with one, it is never asked.
        let fallback = if global_d2.is_none() {
            let idx = new_data.partition_point(|(t, _)| *t <= time);
            new_data.get(idx).map(|(t, _)| *t - time)
        } else {
            None
        };
        if window > 0 {
            let this_release = rel(ack) + window as i64;
            prev_release = Some(prev_release.map_or(this_release, |p| p.max(this_release)));
        }
        match &mut flight {
            Some(f) if time - f.end <= gap => f.last = pos,
            _ => {
                if let Some(done) = flight.take() {
                    done.apply(&mut segments, global_d2, &mut shifts);
                }
                flight = Some(AckFlight::new(pos, time));
            }
        }
        let f = flight.as_mut().expect("set above");
        f.end = time;
        f.acks += 1;
        // Zero-window ACKs release nothing; the data that follows them
        // came after the window reopened, so their estimate is
        // meaningless and they must stay in place.
        if window > 0 {
            f.primary = min_of(f.primary, primary);
            f.fallback = min_of(f.fallback, fallback);
        }
    }
    if let Some(done) = flight {
        done.apply(&mut segments, global_d2, &mut shifts);
    }
    merge_shifted(&mut segments);
    ShiftedTrace { segments, shifts }
}

/// One ACK flight of [`shift_acks_into`]'s pass, as far as it has been
/// read.
struct AckFlight {
    /// Positions (in the segment vector) of the first and last member.
    first: usize,
    last: usize,
    /// Original arrival times of the first and the latest member.
    start: Micros,
    end: Micros,
    acks: usize,
    /// The smallest release-point and fallback estimates over the
    /// members with an open window.
    primary: Option<Micros>,
    fallback: Option<Micros>,
}

impl AckFlight {
    fn new(pos: usize, time: Micros) -> AckFlight {
        AckFlight {
            first: pos,
            last: pos,
            start: time,
            end: time,
            acks: 0,
            primary: None,
            fallback: None,
        }
    }

    /// Shifts the flight's open-window members by its `d2_min`, noting
    /// the shift.
    fn apply(
        self,
        segments: &mut [Segment],
        global_d2: Option<Micros>,
        shifts: &mut Vec<FlightShift>,
    ) {
        // No release point fired in this flight: the window never bound
        // the sender here, so ACK→release delay is pure path (the
        // profile d2). The per-ACK fallback would collapse to ~0 under
        // pipelined cwnd-clocked flow and turn every cwnd wait into a
        // phantom sender-idle gap one RTT wide.
        let Some(mut shift) = self.primary.or(global_d2).or(self.fallback) else {
            return;
        };
        if let Some(cap) = global_d2 {
            shift = shift.min(cap);
        }
        if shift <= Micros::ZERO {
            return;
        }
        for seg in &mut segments[self.first..=self.last] {
            if seg.dir == Direction::Ack && seg.window > 0 {
                seg.time += shift;
            }
        }
        shifts.push(FlightShift {
            flight: Span::new(self.start, self.end),
            shift,
            acks: self.acks,
        });
    }
}

fn min_of(a: Option<Micros>, b: Option<Micros>) -> Option<Micros> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Reorders shifted segments in place into one stream by the new times:
/// the data segments in capture order, the ACKs stably sorted by their
/// (shifted) time, merged with an ACK placed *before* data at the same
/// instant (it caused it). Zero-window ACKs stay put and may now be out
/// of order relative to shifted neighbours, hence the sort.
fn merge_shifted(segments: &mut [Segment]) {
    let mut acks: Vec<usize> = (0..segments.len())
        .filter(|&p| segments[p].dir == Direction::Ack)
        .collect();
    acks.sort_by_key(|&p| segments[p].time);
    let mut data = (0..segments.len())
        .filter(|&p| segments[p].dir == Direction::Data)
        .peekable();
    let mut acks = acks.into_iter().peekable();
    let mut order: Vec<usize> = Vec::with_capacity(segments.len());
    loop {
        let next = match (data.peek(), acks.peek()) {
            (Some(&d), Some(&a)) if segments[a].time <= segments[d].time => acks.next(),
            (Some(_), _) => data.next(),
            (None, _) => acks.next(),
        };
        let Some(pos) = next else { break };
        order.push(pos);
    }
    // Apply `order` (position k takes the segment at `order[k]`) cycle
    // by cycle; a placed position is marked by pointing at itself.
    for start in 0..order.len() {
        let mut cur = start;
        loop {
            let next = order[cur];
            order[cur] = cur;
            if next == start || next == cur {
                break;
            }
            segments.swap(cur, next);
            cur = next;
        }
    }
}

impl ShiftedTrace {
    /// Data-direction segments in time order.
    pub fn data_segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(|s| s.dir == Direction::Data)
    }

    /// Ack-direction segments in (shifted) time order.
    pub fn ack_segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(|s| s.dir == Direction::Ack)
    }

    /// The full time extent of the (shifted) trace.
    pub fn span(&self) -> Span {
        match (self.segments.first(), self.segments.last()) {
            (Some(first), Some(last)) => Span::new(first.time, last.time),
            _ => Span::new(Micros::ZERO, Micros::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tdat_packet::{FrameBuilder, TcpFrame};
    use tdat_trace::extract_connections;

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
    fn ack(t: i64, ackn: u32) -> TcpFrame {
        FrameBuilder::new(b(), a())
            .at(Micros(t))
            .ports(40000, 179)
            .seq(1)
            .ack_to(ackn)
            .window(65535)
            .build()
    }

    #[test]
    fn receiver_side_acks_shift_to_released_data() {
        // Sniffer near receiver: data arrives, ACK leaves immediately,
        // next data flight arrives one (upstream) RTT later. The ACK
        // must shift to just before the data it released.
        let frames = vec![
            data(0, 1000, 100),
            data(50, 1100, 100),
            ack(300, 1200),          // frees the window
            data(20_300, 1200, 100), // released data, d2 = 20 ms
            data(20_350, 1300, 100),
            ack(20_600, 1400),
        ];
        let conns = extract_connections(&frames);
        let shifted = shift_acks(&conns[0]);
        let acks: Vec<&Segment> = shifted.ack_segments().collect();
        assert_eq!(acks[0].time, Micros(20_300), "shifted by d2 = 20 ms");
        assert_eq!(shifted.shifts.len(), 1);
        assert_eq!(shifted.shifts[0].shift, Micros(20_000));
        // The final ACK has no following data and stays put.
        assert_eq!(acks[1].time, Micros(20_600));
        // Order: shifted ACK precedes the data it released.
        let order: Vec<Direction> = shifted.segments.iter().map(|s| s.dir).collect();
        assert_eq!(
            order,
            vec![
                Direction::Data,
                Direction::Data,
                Direction::Ack,
                Direction::Data,
                Direction::Data,
                Direction::Ack
            ]
        );
    }

    #[test]
    fn flight_shifts_by_minimum_member_estimate() {
        // Two ACKs back to back: the first releases data 10 ms later,
        // the second's next-data estimate is looser (same data). Both
        // shift by the minimum (tighter) estimate.
        let frames = vec![
            data(0, 1000, 100),
            data(50, 1100, 100),
            ack(200, 1100),
            ack(260, 1200),
            data(10_200, 1200, 100),
        ];
        let conns = extract_connections(&frames);
        let shifted = shift_acks(&conns[0]);
        let acks: Vec<&Segment> = shifted.ack_segments().collect();
        // d2 candidates: 10_200-200 = 10_000 and 10_200-260 = 9_940;
        // min is 9_940 → both shift by 9_940.
        assert_eq!(shifted.shifts[0].shift, Micros(9_940));
        assert_eq!(acks[0].time, Micros(10_140));
        assert_eq!(acks[1].time, Micros(10_200));
    }

    #[test]
    fn sender_side_trace_barely_moves() {
        // At the sender, data follows ACKs within microseconds; shifts
        // must be negligible.
        let frames = vec![
            data(0, 1000, 100),
            ack(20_000, 1100),
            data(20_010, 1100, 100), // sent 10 us after the ack arrived
            ack(40_000, 1200),
            data(40_010, 1200, 100),
        ];
        let conns = extract_connections(&frames);
        let shifted = shift_acks(&conns[0]);
        for s in &shifted.shifts {
            assert!(s.shift <= Micros(10), "shift {s:?}");
        }
    }

    #[test]
    fn no_data_no_shift() {
        let frames = vec![ack(0, 1), ack(100, 1)];
        let conns = extract_connections(&frames);
        let shifted = shift_acks(&conns[0]);
        assert!(shifted.shifts.is_empty());
        assert_eq!(shifted.segments.len(), 2);
    }

    #[test]
    fn span_covers_trace() {
        let frames = vec![data(0, 1, 10), ack(500, 11)];
        let conns = extract_connections(&frames);
        let shifted = shift_acks(&conns[0]);
        assert_eq!(shifted.span(), Span::new(Micros(0), Micros(500)));
    }

    /// Pinned regression (found by the differential oracle): on a
    /// cwnd-clocked flow whose advertised window never binds, no
    /// release-point d2 estimate ever fires, and the naive "first new
    /// data after the ACK" fallback degenerates to the pipelining gap
    /// (~tens of µs) because data released by *earlier* ACKs is still
    /// arriving. Taking the flight minimum of those fallbacks collapsed
    /// the shift to ~0 and turned every congestion-window wait into a
    /// phantom sender-idle gap one RTT wide. The flight must instead
    /// shift by the profile d2 (pure upstream path delay).
    fn handshake(rtt: i64) -> Vec<TcpFrame> {
        use tdat_packet::TcpFlags;
        vec![
            FrameBuilder::new(a(), b())
                .at(Micros(0))
                .ports(179, 40000)
                .seq(100)
                .flags(TcpFlags::SYN)
                .window(65535)
                .build(),
            FrameBuilder::new(b(), a())
                .at(Micros(100))
                .ports(40000, 179)
                .seq(900)
                .ack_to(101)
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .window(65535)
                .build(),
            FrameBuilder::new(a(), b())
                .at(Micros(rtt))
                .ports(179, 40000)
                .seq(101)
                .ack_to(901)
                .window(65535)
                .build(),
        ]
    }

    #[test]
    fn cwnd_clocked_flight_shifts_by_profile_d2_not_pipelining_gap() {
        // rtt = 20.1 ms (handshake), d1 = 300 µs (data→ACK at the
        // sniffer) → profile d2 = 19.8 ms. The 64 kB window never
        // binds the ~8 kB stream, so no release-point estimate exists.
        let mut frames = handshake(20_100);
        // Flight 1: four segments; the receiver ACKs the first two
        // while the last two are still arriving, so the "next new
        // data" after that ACK is only 60 µs away (the degenerate
        // estimate this test pins down).
        for (t, seq) in [
            (25_000, 101u32),
            (25_080, 1101),
            (25_160, 2101),
            (25_240, 3101),
        ] {
            frames.push(data(t, seq, 1000));
        }
        frames.push(ack(25_180, 2101));
        frames.push(ack(25_540, 4101));
        // Flight 2 arrives one upstream RTT after those ACKs: the
        // sender was cwnd-clocked, never idle.
        for (t, seq) in [
            (45_100, 4101u32),
            (45_180, 5101),
            (45_260, 6101),
            (45_340, 7101),
        ] {
            frames.push(data(t, seq, 1000));
        }
        frames.push(ack(45_280, 6101));
        frames.push(ack(45_640, 8101));

        let conns = extract_connections(&frames);
        assert_eq!(conns[0].profile.d2(), Some(Micros(19_800)));
        let shifted = shift_acks(&conns[0]);
        let flight1 = shifted
            .shifts
            .iter()
            .find(|s| s.acks == 2 && s.flight.start == Micros(25_180))
            .expect("mid-transfer ACK flight must be shifted");
        assert_eq!(
            flight1.shift,
            Micros(19_800),
            "flight must shift by profile d2, not the 60 µs pipelining artifact"
        );
        // The first ACK now lands just before the data it released —
        // i.e. the phantom ~20 ms idle gap between its original
        // position and flight 2 is gone.
        let acks: Vec<Micros> = shifted.ack_segments().map(|s| s.time).collect();
        assert!(
            acks.contains(&Micros(44_980)),
            "shifted ACK should sit at 44 980 µs, got {acks:?}"
        );
    }
}
