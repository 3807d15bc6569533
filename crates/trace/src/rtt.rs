//! Passive RTT time series.
//!
//! tcptrace-style running RTT estimation from a passive capture: each
//! first-transmission data segment is timed against the first cumulative
//! ACK covering it (Karn's rule: retransmitted ranges are never timed).
//! At a receiver-side sniffer these samples measure the `d1` component;
//! at a sender-side capture they measure the full RTT. The series is
//! one of the sanitized inputs the paper proposes feeding to other TCP
//! analyses (§V-D).

use tdat_packet::seq_diff;
use tdat_timeset::Micros;

use crate::conn::TcpConnection;

/// One RTT sample: when the ACK arrived and the measured delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttSample {
    /// Arrival time of the covering ACK.
    pub at: Micros,
    /// Measured delay (data transmission → covering ACK).
    pub rtt: Micros,
    /// Sequence number the sample timed.
    pub seq_end: u32,
}

/// Summary statistics over an RTT series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttStats {
    /// Sample count.
    pub samples: usize,
    /// Minimum.
    pub min: Micros,
    /// Median.
    pub median: Micros,
    /// 95th percentile.
    pub p95: Micros,
    /// Maximum.
    pub max: Micros,
}

/// Extracts the RTT sample series for a connection's data direction.
///
/// Retransmitted sequence ranges are excluded (Karn); a range is
/// considered retransmitted if any copy of it appears more than once.
pub fn rtt_samples(conn: &TcpConnection) -> Vec<RttSample> {
    // Ranges seen more than once (any overlap counts).
    let mut first_tx: Vec<(u32, u32, Micros)> = Vec::new(); // (seq, seq_end, time)
    let mut retransmitted: Vec<(u32, u32)> = Vec::new();
    for seg in conn.data_segments().filter(|s| s.payload_len > 0) {
        let dup = first_tx
            .iter()
            .any(|&(s, e, _)| seq_diff(seg.seq, e) < 0 && seq_diff(s, seg.seq_end) < 0);
        if dup {
            retransmitted.push((seg.seq, seg.seq_end));
        } else {
            first_tx.push((seg.seq, seg.seq_end, seg.time));
        }
    }
    let tainted = |seq: u32, seq_end: u32| {
        retransmitted
            .iter()
            .any(|&(s, e)| seq_diff(seq, e) < 0 && seq_diff(s, seq_end) < 0)
    };

    let mut pending: Vec<(u32, u32, Micros)> = first_tx;
    let mut samples = Vec::new();
    for ack in conn
        .ack_segments()
        .filter(|s| s.flags.contains(tdat_packet::TcpFlags::ACK))
    {
        pending.retain(|&(seq, seq_end, sent)| {
            if seq_diff(ack.ack, seq_end) >= 0 {
                if !tainted(seq, seq_end) && ack.time >= sent {
                    samples.push(RttSample {
                        at: ack.time,
                        rtt: ack.time - sent,
                        seq_end,
                    });
                }
                false
            } else {
                true
            }
        });
    }
    samples
}

/// Extracts RTT samples using RFC 1323 timestamps, when the capture
/// carries them: each ACK's `TSecr` is matched to the data segment that
/// sent that `TSval`. Unlike [`rtt_samples`], this works through
/// retransmissions (the echoed value disambiguates which copy was
/// acknowledged — Karn's problem does not arise).
///
/// `frames` must be the slice the connection was extracted from.
pub fn rtt_samples_from_timestamps(
    conn: &TcpConnection,
    frames: &[tdat_packet::TcpFrame],
) -> Vec<RttSample> {
    use std::collections::HashMap;
    // TSval → first transmission time of a data segment carrying it.
    let mut sent_at: HashMap<u32, (Micros, u32)> = HashMap::new();
    for seg in conn.data_segments().filter(|s| s.payload_len > 0) {
        let frame = &frames[seg.frame_index];
        for opt in &frame.tcp.options {
            if let tdat_packet::TcpOption::Timestamps(val, _) = opt {
                sent_at.entry(*val).or_insert((seg.time, seg.seq_end));
            }
        }
    }
    let mut samples = Vec::new();
    // A TSval is timed once, by the first segment that both carries the
    // ACK flag and advances the cumulative ACK point while echoing it.
    // Segments without ACK (e.g. a bare RST) have no acknowledgment
    // semantics, and an ACK delivered out of order behind a newer one
    // echoes a stale TSecr — timing either against the original
    // transmission would fabricate an inflated sample. The per-value
    // `sampled` set scopes the dedup to each TSval: a dedup keyed only
    // on the immediately preceding echo both re-samples a TSval that
    // recurs after reordering and suppresses fresh values interleaved
    // with echoes of an older one.
    let mut sampled: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut highest_ack: Option<u32> = None;
    for seg in conn
        .ack_segments()
        .filter(|s| s.flags.contains(tdat_packet::TcpFlags::ACK))
    {
        let advanced = match highest_ack {
            None => true,
            Some(h) => seq_diff(seg.ack, h) > 0,
        };
        if !advanced {
            continue;
        }
        highest_ack = Some(seg.ack);
        let frame = &frames[seg.frame_index];
        for opt in &frame.tcp.options {
            if let tdat_packet::TcpOption::Timestamps(_, ecr) = opt {
                if !sampled.insert(*ecr) {
                    continue;
                }
                if let Some(&(at, seq_end)) = sent_at.get(ecr) {
                    if seg.time >= at {
                        samples.push(RttSample {
                            at: seg.time,
                            rtt: seg.time - at,
                            seq_end,
                        });
                    }
                }
            }
        }
    }
    samples
}

/// Computes summary statistics for an RTT series, or `None` if empty.
pub fn rtt_stats(samples: &[RttSample]) -> Option<RttStats> {
    if samples.is_empty() {
        return None;
    }
    let mut rtts: Vec<i64> = samples.iter().map(|s| s.rtt.as_micros()).collect();
    rtts.sort_unstable();
    let pick = |p: f64| Micros(rtts[((rtts.len() - 1) as f64 * p).round() as usize]);
    Some(RttStats {
        samples: rtts.len(),
        min: Micros(rtts[0]),
        median: pick(0.5),
        p95: pick(0.95),
        max: Micros(*rtts.last().expect("nonempty")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_connections;
    use std::net::Ipv4Addr;
    use tdat_packet::{FrameBuilder, TcpFrame};

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
    fn clean_samples_measured() {
        let frames = vec![
            data(0, 1000, 100),
            ack(400, 1100),
            data(1_000, 1100, 100),
            data(1_050, 1200, 100),
            ack(1_500, 1300), // covers both
        ];
        let conns = extract_connections(&frames);
        let samples = rtt_samples(&conns[0]);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].rtt, Micros(400));
        assert_eq!(samples[1].rtt, Micros(500));
        assert_eq!(samples[2].rtt, Micros(450));
        let stats = rtt_stats(&samples).unwrap();
        assert_eq!(stats.min, Micros(400));
        assert_eq!(stats.max, Micros(500));
        assert_eq!(stats.median, Micros(450));
        assert_eq!(stats.samples, 3);
    }

    #[test]
    fn retransmitted_ranges_excluded() {
        let frames = vec![
            data(0, 1000, 100),
            data(300_000, 1000, 100), // retransmission
            ack(300_400, 1100),
            data(301_000, 1100, 100),
            ack(301_300, 1200),
        ];
        let conns = extract_connections(&frames);
        let samples = rtt_samples(&conns[0]);
        // Only the clean 1100..1200 range is timed.
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].seq_end, 1200);
        assert_eq!(samples[0].rtt, Micros(300));
    }

    #[test]
    fn empty_when_no_data() {
        let frames = vec![ack(0, 1)];
        let conns = extract_connections(&frames);
        assert!(rtt_samples(&conns[0]).is_empty());
        assert_eq!(rtt_stats(&[]), None);
    }

    use tdat_packet::{TcpFlags, TcpOption};

    fn ts_data(t: i64, seq: u32, len: usize, tsval: u32) -> TcpFrame {
        FrameBuilder::new(a(), b())
            .at(Micros(t))
            .ports(179, 40000)
            .seq(seq)
            .ack_to(1)
            .payload(vec![0; len])
            .option(TcpOption::Timestamps(tsval, 0))
            .build()
    }
    fn ts_ack(t: i64, ackn: u32, ecr: u32) -> TcpFrame {
        FrameBuilder::new(b(), a())
            .at(Micros(t))
            .ports(40000, 179)
            .seq(1)
            .ack_to(ackn)
            .window(65535)
            .option(TcpOption::Timestamps(7777, ecr))
            .build()
    }

    #[test]
    fn timestamp_samples_work_through_retransmissions() {
        // The retransmitted copy carries a fresh TSval, so the echo
        // disambiguates which copy the ACK covers — no Karn exclusion.
        let frames = vec![
            ts_data(0, 1000, 100, 10),
            ts_data(300_000, 1000, 100, 310), // retransmission, new TSval
            ts_ack(300_400, 1100, 310),
        ];
        let conns = extract_connections(&frames);
        let samples = rtt_samples_from_timestamps(&conns[0], &frames);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rtt, Micros(400));
        // Plain sampling must exclude the whole range (Karn).
        assert!(rtt_samples(&conns[0]).is_empty());
    }

    #[test]
    fn timestamp_samples_require_ack_flag() {
        // A bare RST (no ACK flag) may still carry a timestamps option;
        // it acknowledges nothing and must not produce a sample.
        let rst = FrameBuilder::new(b(), a())
            .at(Micros(900))
            .ports(40000, 179)
            .seq(1)
            .flags(TcpFlags::RST)
            .option(TcpOption::Timestamps(7777, 10))
            .build();
        let frames = vec![ts_data(0, 1000, 100, 10), rst];
        let conns = extract_connections(&frames);
        assert!(rtt_samples_from_timestamps(&conns[0], &frames).is_empty());
    }

    #[test]
    fn stale_reordered_ack_neither_resamples_nor_blocks_fresh_echoes() {
        let frames = vec![
            ts_data(0, 1000, 100, 100),
            ts_data(1_000, 1100, 100, 200),
            ts_data(1_100, 1200, 100, 200), // same timestamp-clock tick
            // ACKs arrive reordered: the newest first, then a stale
            // duplicate of the older one, then a fresh advance echoing
            // the already-sampled TSval 200 again.
            ts_ack(1_500, 1200, 200),
            ts_ack(1_600, 1100, 100), // stale: does not advance the ACK point
            ts_ack(1_700, 1300, 200),
        ];
        let conns = extract_connections(&frames);
        let samples = rtt_samples_from_timestamps(&conns[0], &frames);
        // Exactly one sample: TSval 200 timed by the first ACK that
        // advanced while echoing it. The stale ACK must not fabricate a
        // 1.6 ms sample for TSval 100, and the final ACK must not time
        // TSval 200 a second time against its first transmission.
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].at, Micros(1_500));
        assert_eq!(samples[0].rtt, Micros(500));
    }
}
