//! Flight grouping: partitioning packets into back-to-back bursts.
//!
//! Both T-RAT-style rate analysis and T-DAT's ACK-shifting (§III-B1)
//! work on *flights*: groups of packets sent back to back within one
//! window/round-trip. Packets are grouped by inter-arrival time — a gap
//! larger than the threshold starts a new flight. The paper groups data
//! packets this way (after [38]) and extends the term to ACKs.

use std::ops::Range;

use tdat_timeset::{Micros, Span};

use crate::conn::Segment;

/// One flight: a run of consecutive segments of the slice it was built
/// from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flight {
    /// Indices of the member segments (into the input slice): a flight
    /// is always a contiguous run, so this is a range, not a list.
    pub members: Range<usize>,
    /// First arrival time.
    pub start: Micros,
    /// Last arrival time.
    pub end: Micros,
}

impl Flight {
    /// The flight's time extent.
    pub fn span(&self) -> Span {
        Span::new(self.start, self.end)
    }

    /// Number of packets in the flight.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the flight is empty (never produced by
    /// [`group_flights`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Groups `segments` (assumed time-ordered) into flights: a new flight
/// starts whenever the inter-arrival gap exceeds `gap`. Allocates the
/// returned vector and nothing per flight.
///
/// # Examples
///
/// ```
/// use tdat_trace::{group_flights, Segment, Direction};
/// use tdat_packet::TcpFlags;
/// use tdat_timeset::Micros;
///
/// let seg = |t: i64| Segment {
///     time: Micros(t),
///     dir: Direction::Data,
///     seq: 0, seq_end: 100, ack: 0, window: 0,
///     payload_len: 100, flags: TcpFlags::ACK, frame_index: 0,
/// };
/// let segs = vec![seg(0), seg(100), seg(200), seg(50_000), seg(50_100)];
/// let flights = group_flights(&segs, Micros::from_millis(10));
/// assert_eq!(flights.len(), 2);
/// assert_eq!(flights[0].len(), 3);
/// assert_eq!(flights[1].len(), 2);
/// ```
pub fn group_flights<S: std::borrow::Borrow<Segment>>(segments: &[S], gap: Micros) -> Vec<Flight> {
    let mut flights: Vec<Flight> = Vec::new();
    for (idx, seg) in segments.iter().enumerate() {
        let time = seg.borrow().time;
        match flights.last_mut() {
            Some(f) if time - f.end <= gap => {
                f.members.end = idx + 1;
                f.end = time;
            }
            _ => flights.push(Flight {
                members: idx..idx + 1,
                start: time,
                end: time,
            }),
        }
    }
    flights
}

/// Picks a flight-grouping gap for a connection: a fraction of the RTT
/// when known (flights repeat roughly every RTT), else 10 ms.
pub fn default_flight_gap(rtt: Option<Micros>) -> Micros {
    match rtt {
        Some(rtt) if rtt > Micros::ZERO => (rtt / 2).max(Micros::from_millis(1)),
        _ => Micros::from_millis(10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Direction;
    use tdat_packet::TcpFlags;

    fn seg(t: i64) -> Segment {
        Segment {
            time: Micros(t),
            dir: Direction::Ack,
            seq: 0,
            seq_end: 0,
            ack: 100,
            window: 1000,
            payload_len: 0,
            flags: TcpFlags::ACK,
            frame_index: 0,
        }
    }

    #[test]
    fn empty_input_no_flights() {
        assert!(group_flights::<Segment>(&[], Micros::from_millis(1)).is_empty());
    }

    #[test]
    fn single_burst_one_flight() {
        let segs: Vec<Segment> = (0..5).map(|i| seg(i * 10)).collect();
        let flights = group_flights(&segs, Micros::from_millis(1));
        assert_eq!(flights.len(), 1);
        assert_eq!(flights[0].members, 0..5);
        assert_eq!(flights[0].span(), Span::new(Micros(0), Micros(40)));
    }

    #[test]
    fn gaps_split_flights() {
        let segs = vec![seg(0), seg(10), seg(5_000), seg(5_010), seg(20_000)];
        let flights = group_flights(&segs, Micros(1_000));
        assert_eq!(flights.len(), 3);
        assert_eq!(flights[0].len(), 2);
        assert_eq!(flights[1].len(), 2);
        assert_eq!(flights[2].len(), 1);
    }

    #[test]
    fn chained_gaps_stay_in_one_flight() {
        // Each consecutive gap is below the threshold even though the
        // total flight duration exceeds it.
        let segs: Vec<Segment> = (0..10).map(|i| seg(i * 900)).collect();
        let flights = group_flights(&segs, Micros(1_000));
        assert_eq!(flights.len(), 1);
    }

    #[test]
    fn default_gap_from_rtt() {
        assert_eq!(
            default_flight_gap(Some(Micros::from_millis(20))),
            Micros::from_millis(10)
        );
        assert_eq!(default_flight_gap(None), Micros::from_millis(10));
        assert_eq!(default_flight_gap(Some(Micros(1))), Micros::from_millis(1));
    }
}
