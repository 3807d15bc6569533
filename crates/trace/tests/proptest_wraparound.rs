//! Property tests: sequence arithmetic survives the 2^32 wrap.
//!
//! Every generated flow is materialized twice — once at a low base
//! sequence and once at a base chosen so the payload stream crosses
//! `u32::MAX` mid-transfer. Connection extraction and the streaming
//! tracker must be invariant under that translation (times and byte
//! counts identical, sequence numbers shifted by exactly the base delta).
//! The tracker derives a segment's `seq_end` from its record, so the
//! wrap crosses that sum too. CI runs this file with
//! `PROPTEST_CASES=20000`.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use tdat_packet::{FrameBuilder, TcpFlags, TcpFrame, TcpOption};
use tdat_timeset::Micros;
use tdat_trace::{extract_connections, ConnectionTracker, TrackerConfig};

/// One step of the flow: send `len` new bytes, optionally preceded by a
/// retransmission of the previous chunk, optionally followed by an ACK.
type Chunk = (usize, bool, bool);

fn arb_chunks() -> impl Strategy<Value = Vec<Chunk>> {
    prop::collection::vec((1usize..1461, any::<bool>(), any::<bool>()), 2..30)
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
    let mut tsval = 10u32;
    let mut tsecr = 500u32;
    let mut prev: Option<(u32, usize)> = None;
    for &(len, retx, acked) in chunks {
        if retx {
            if let Some((poff, plen)) = prev {
                frames.push(
                    FrameBuilder::new(a, b)
                        .at(Micros(t))
                        .ports(179, 40000)
                        .seq(base.wrapping_add(poff))
                        .ack_to(5_001)
                        .payload(vec![0; plen])
                        .option(TcpOption::Timestamps(tsval, tsecr))
                        .build(),
                );
                t += 200;
                tsval += 1;
            }
        }
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(base.wrapping_add(off))
                .ack_to(5_001)
                .payload(vec![0; len])
                .option(TcpOption::Timestamps(tsval, tsecr))
                .build(),
        );
        prev = Some((off, len));
        off = off.wrapping_add(len as u32);
        t += 150;
        if acked {
            tsecr += 3;
            frames.push(
                FrameBuilder::new(b, a)
                    .at(Micros(t))
                    .ports(40000, 179)
                    .seq(5_001)
                    .ack_to(base.wrapping_add(off))
                    .window(65535)
                    .option(TcpOption::Timestamps(tsecr, tsval))
                    .build(),
            );
            t += 100;
        }
        tsval += 7;
    }
    frames
}

/// A base that makes the stream cross `u32::MAX` strictly mid-payload.
fn wrap_base(chunks: &[Chunk], cross_seed: usize) -> u32 {
    let total: usize = chunks.iter().map(|&(len, _, _)| len).sum();
    let cross = 1 + cross_seed % total.max(1);
    0u32.wrapping_sub(cross as u32)
}

const LOW_BASE: u32 = 100_000;

proptest! {
    #[test]
    fn extraction_invariant_under_wrap(chunks in arb_chunks(), cross in 0usize..100_000) {
        let base = wrap_base(&chunks, cross);
        let low = extract_connections(&flow(LOW_BASE, &chunks));
        let wrapped = extract_connections(&flow(base, &chunks));
        prop_assert_eq!(low.len(), 1);
        prop_assert_eq!(wrapped.len(), 1);
        let (l, w) = (&low[0], &wrapped[0]);
        prop_assert_eq!(&l.profile, &w.profile, "profile must not depend on the base sequence");
        prop_assert_eq!(l.segments.len(), w.segments.len());
        let delta = base.wrapping_sub(LOW_BASE);
        for (ls, ws) in l.segments.iter().zip(&w.segments) {
            prop_assert_eq!(ls.time, ws.time);
            prop_assert_eq!(ls.dir, ws.dir);
            prop_assert_eq!(ls.payload_len, ws.payload_len);
            prop_assert_eq!(ls.window, ws.window);
            if ls.dir == tdat_trace::Direction::Data {
                prop_assert_eq!(ls.seq.wrapping_add(delta), ws.seq);
                prop_assert_eq!(ls.seq_end.wrapping_add(delta), ws.seq_end);
            } else {
                prop_assert_eq!(ls.ack.wrapping_add(delta), ws.ack);
            }
        }
    }

    #[test]
    fn tracker_matches_batch_extractor_across_wrap(chunks in arb_chunks(), cross in 0usize..100_000) {
        let frames = flow(wrap_base(&chunks, cross), &chunks);
        let batch = extract_connections(&frames);
        let mut tracker = ConnectionTracker::new(TrackerConfig {
            idle_timeout: None,
            close_grace: None,
            max_connections: None,
        });
        let mut streamed = Vec::new();
        for f in &frames {
            streamed.extend(tracker.ingest(f));
        }
        streamed.extend(tracker.finish());
        prop_assert_eq!(streamed.len(), batch.len());
        for (got, want) in streamed.iter().zip(&batch) {
            prop_assert_eq!(&got.connection, want);
        }
    }
}
