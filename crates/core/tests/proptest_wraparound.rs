//! Property tests: the full analysis pipeline is invariant under a
//! 2^32 sequence wrap mid-transfer.
//!
//! The analyzer's flight grouping, outstanding (flight-size) tracking,
//! window-bound detection, and segment labeling all do modular
//! sequence arithmetic; a flow whose payload crosses `u32::MAX` must
//! produce byte-for-byte the same series, labels, and delay breakdown
//! as the identical flow at a low base sequence.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use tdat::StreamAnalyzer;
use tdat_packet::{FrameBuilder, TcpFlags, TcpFrame, TcpOption};
use tdat_timeset::Micros;

/// One step: send `len` new bytes, optionally retransmit the previous
/// chunk first, and when `acked` is set, ACK afterwards advertising
/// `window` (zero included — zero-window handling must also wrap).
type Chunk = (usize, bool, bool, u16);

fn arb_chunks() -> impl Strategy<Value = Vec<Chunk>> {
    prop::collection::vec(
        (1usize..1461, any::<bool>(), any::<bool>(), 0u16..65535),
        2..25,
    )
}

fn flow(base: u32, chunks: &[Chunk]) -> Vec<TcpFrame> {
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let b = Ipv4Addr::new(10, 0, 0, 2);
    let mut frames = vec![
        FrameBuilder::new(a, b)
            .at(Micros(0))
            .ports(179, 40000)
            .seq(base.wrapping_sub(1))
            .flags(TcpFlags::SYN)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
        FrameBuilder::new(b, a)
            .at(Micros(100))
            .ports(40000, 179)
            .seq(5_000)
            .ack_to(base)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
        FrameBuilder::new(a, b)
            .at(Micros(20_000))
            .ports(179, 40000)
            .seq(base)
            .ack_to(5_001)
            .window(65535)
            .build(),
    ];
    let mut t = 25_000i64;
    let mut off = 0u32;
    let mut prev: Option<(u32, usize)> = None;
    for &(len, retx, acked, window) in chunks {
        if retx {
            if let Some((poff, plen)) = prev {
                frames.push(
                    FrameBuilder::new(a, b)
                        .at(Micros(t))
                        .ports(179, 40000)
                        .seq(base.wrapping_add(poff))
                        .ack_to(5_001)
                        .payload(vec![0; plen])
                        .build(),
                );
                t += 300;
            }
        }
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(base.wrapping_add(off))
                .ack_to(5_001)
                .payload(vec![0; len])
                .build(),
        );
        prev = Some((off, len));
        off = off.wrapping_add(len as u32);
        t += 250;
        if acked {
            frames.push(
                FrameBuilder::new(b, a)
                    .at(Micros(t))
                    .ports(40000, 179)
                    .seq(5_001)
                    .ack_to(base.wrapping_add(off))
                    .window(window)
                    .build(),
            );
            t += 200;
        }
    }
    frames
}

/// A base that puts the 2^32 wrap strictly inside the payload stream.
fn wrap_base(chunks: &[Chunk], cross_seed: usize) -> u32 {
    let total: usize = chunks.iter().map(|&(len, _, _, _)| len).sum();
    0u32.wrapping_sub((1 + cross_seed % total.max(1)) as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analysis_invariant_under_wrap(chunks in arb_chunks(), cross in 0usize..100_000) {
        let low = StreamAnalyzer::default().analyze_frames(&flow(100_000, &chunks));
        let wrapped =
            StreamAnalyzer::default().analyze_frames(&flow(wrap_base(&chunks, cross), &chunks));
        prop_assert_eq!(low.len(), 1);
        prop_assert_eq!(wrapped.len(), 1);
        let (l, w) = (&low[0], &wrapped[0]);
        prop_assert_eq!(l.period, w.period);
        prop_assert_eq!(&l.profile, &w.profile);
        // Labels cover loss classification; the series cover flight
        // grouping, outstanding (flight-size) tracking, and every
        // window-bound detector.
        prop_assert_eq!(&l.labels, &w.labels);
        prop_assert_eq!(&l.series.outstanding, &w.series.outstanding,
            "outstanding byte counts must not depend on the base sequence");
        for ((ln, lset), (wn, wset)) in l.series.named().into_iter().zip(w.series.named()) {
            prop_assert_eq!(ln, wn);
            prop_assert_eq!(lset, wset, "series {} diverged across the wrap", ln);
        }
    }
}
