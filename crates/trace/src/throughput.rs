//! Throughput and goodput time series.
//!
//! Windowed byte rates over a connection's data direction: *throughput*
//! counts every transmitted payload byte, *goodput* only first
//! transmissions (retransmitted ranges excluded). The difference
//! visualizes loss overhead over time; both are among the sanitized
//! series the paper proposes exporting to other analyses (§V-D).

use tdat_packet::seq_diff;
use tdat_timeset::{Micros, Span};

use crate::conn::TcpConnection;

/// One windowed rate sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSample {
    /// The window this sample covers.
    pub window: Span,
    /// All payload bytes transmitted in the window.
    pub throughput_bps: f64,
    /// First-transmission payload bytes only.
    pub goodput_bps: f64,
}

/// Computes windowed throughput/goodput for the data direction of
/// `conn`, using fixed windows of `window` duration across the capture.
///
/// Returns an empty vector if the connection carries no data or
/// `window` is not positive.
pub fn throughput_series(conn: &TcpConnection, window: Micros) -> Vec<RateSample> {
    if window <= Micros::ZERO {
        return Vec::new();
    }
    let data: Vec<(Micros, u32, u32)> = conn
        .data_segments()
        .filter(|s| s.payload_len > 0)
        .map(|s| (s.time, s.seq, s.payload_len))
        .collect();
    if data.is_empty() {
        return Vec::new();
    }
    let start = data.first().expect("nonempty").0;
    let end = data.last().expect("nonempty").0;
    let buckets = ((end - start).as_micros() / window.as_micros() + 1).max(1) as usize;
    let mut all = vec![0u64; buckets];
    let mut good = vec![0u64; buckets];
    let mut max_end: Option<u32> = None;
    for (t, seq, len) in data {
        let idx = ((t - start).as_micros() / window.as_micros()) as usize;
        all[idx] += len as u64;
        let seq_end = seq.wrapping_add(len);
        let fresh_from = match max_end {
            None => seq,
            Some(m) if seq_diff(seq, m) >= 0 => seq,
            Some(m) if seq_diff(seq_end, m) > 0 => m,
            Some(_) => seq_end, // fully retransmitted
        };
        let fresh = seq_diff(seq_end, fresh_from).max(0) as u64;
        good[idx] += fresh;
        if max_end.is_none_or(|m| seq_diff(seq_end, m) > 0) {
            max_end = Some(seq_end);
        }
    }
    let secs = window.as_secs_f64();
    (0..buckets)
        .map(|i| RateSample {
            window: Span::with_duration(start + window * i as i64, window),
            throughput_bps: all[i] as f64 / secs,
            goodput_bps: good[i] as f64 / secs,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_connections;
    use std::net::Ipv4Addr;
    use tdat_packet::{FrameBuilder, TcpFrame};

    fn data(t: i64, seq: u32, len: usize) -> TcpFrame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .at(Micros(t))
            .ports(179, 40000)
            .seq(seq)
            .ack_to(1)
            .payload(vec![0; len])
            .build()
    }

    #[test]
    fn clean_stream_throughput_equals_goodput() {
        let frames = vec![
            data(0, 1000, 100),
            data(100_000, 1100, 100),
            data(1_100_000, 1200, 300),
        ];
        let conns = extract_connections(&frames);
        let series = throughput_series(&conns[0], Micros::from_secs(1));
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].throughput_bps, 200.0);
        assert_eq!(series[0].goodput_bps, 200.0);
        assert_eq!(series[1].throughput_bps, 300.0);
    }

    #[test]
    fn retransmissions_inflate_throughput_not_goodput() {
        let frames = vec![
            data(0, 1000, 100),
            data(100_000, 1000, 100), // full retransmission
            data(200_000, 1050, 100), // half retransmission, half fresh
        ];
        let conns = extract_connections(&frames);
        let series = throughput_series(&conns[0], Micros::from_secs(1));
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].throughput_bps, 300.0);
        assert_eq!(series[0].goodput_bps, 150.0); // 100 fresh + 50 fresh
    }

    #[test]
    fn empty_or_zero_window() {
        let frames = vec![data(0, 1, 10)];
        let conns = extract_connections(&frames);
        assert!(throughput_series(&conns[0], Micros::ZERO).is_empty());
        let no_data =
            vec![
                FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                    .ack_to(1)
                    .build(),
            ];
        let conns = extract_connections(&no_data);
        assert!(throughput_series(&conns[0], Micros::from_secs(1)).is_empty());
    }
}
