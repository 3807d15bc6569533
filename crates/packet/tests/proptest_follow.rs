//! Growth-schedule invariance of the follower, across window refills.
//!
//! However a capture lands on disk — cut inside the global header,
//! inside a record header, inside a body, a window and more at a time —
//! `PcapFollower::poll_lossy` must deliver exactly what one
//! `LossyReader` pass over the finished file does, and its committed
//! offset must only ever name the byte past the last *delivered* item,
//! never the read-ahead sitting in its window.

use std::io::Write;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use tdat_packet::{
    CaptureAnomaly, FrameBuilder, LossyDecoder, LossyReader, PcapFollower, PcapWriter, TcpFlags,
    TcpFrame,
};
use tdat_timeset::Micros;

/// The follower's window starts at 64 KiB; every generated capture is
/// larger, so records straddle refills whatever the growth schedule.
const WINDOW_BYTES: usize = 64 * 1024;

/// Index of the record written snap-clipped. Garbage is only spliced in
/// later, so it never directly precedes this short record.
const CLIPPED_AT: usize = 3;

type Delivered = Vec<(Option<TcpFrame>, Vec<CaptureAnomaly>)>;

/// The finished capture plus, per item a reader delivers (a record, or
/// the resync over a garbage span), whether it is a record and the
/// file offset just past it.
struct Image {
    bytes: Vec<u8>,
    items: Vec<(bool, u64)>,
}

fn image(payloads: &[usize], clip: bool, garbage: &[(usize, usize)]) -> Image {
    let mut bytes = Vec::new();
    // The writer's global header; records are laid down by hand so
    // garbage can go between them.
    PcapWriter::new(&mut bytes).expect("in-memory pcap");
    let mut items = Vec::new();
    for (i, &len) in payloads.iter().enumerate() {
        // Spans are 0xff throughout: no sixteen of them, nor any
        // sixteen bytes straddling their end, pass the candidate gates,
        // so each resync lands exactly on the record after the span.
        for &(_, span) in garbage.iter().filter(|&&(at, _)| at == i) {
            bytes.extend(std::iter::repeat_n(0xff, span));
            items.push((false, bytes.len() as u64));
        }
        let frame = FrameBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .at(Micros::from_millis(i as i64 * 7))
            .ports(179, 40000)
            .seq(1 + i as u32 * 1500)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(vec![i as u8; len])
            .build();
        let wire = frame.to_wire();
        let captured = if clip && i == CLIPPED_AT {
            100
        } else {
            wire.len()
        };
        let t = frame.timestamp.0;
        for word in [
            t / 1_000_000,
            t % 1_000_000,
            captured as i64,
            wire.len() as i64,
        ] {
            bytes.extend((word as u32).to_le_bytes());
        }
        bytes.extend(&wire[..captured]);
        items.push((true, bytes.len() as u64));
    }
    Image { bytes, items }
}

fn one_pass(bytes: &[u8]) -> Delivered {
    let mut reader = LossyReader::new(bytes).expect("valid global header");
    let mut out = Vec::new();
    while let Some(item) = reader.next_lossy().expect("in-memory read") {
        out.push((item.frame, item.anomalies));
    }
    out
}

fn scratch_file() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("tdat_follow_proptest");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "{}-{}.pcap",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_growth_schedule_delivers_the_one_pass_sequence_and_an_exact_cursor(
        payloads in prop::collection::vec(600usize..1460, 110..150),
        clip in any::<bool>(),
        garbage in prop::collection::vec((5usize..100, 1usize..300), 0..3),
        chunks in prop::collection::vec(
            prop_oneof![1usize..40, 40usize..3000, 3000usize..(WINDOW_BYTES + 8000)],
            1..40,
        ),
    ) {
        let image = image(&payloads, clip, &garbage);
        prop_assert!(image.bytes.len() > WINDOW_BYTES);
        let expected = one_pass(&image.bytes);

        let path = scratch_file();
        let mut out = std::fs::File::create(&path).expect("create scratch file");
        let mut follower = PcapFollower::open(&path).expect("open scratch file");
        let mut decoder = LossyDecoder::new();
        let mut delivered: Delivered = Vec::new();
        let mut written = 0usize;
        let mut schedule = chunks.iter().cycle();
        loop {
            // Poll to "not yet" — before the first append too — checking
            // the cursor after every poll.
            loop {
                let item = follower.poll_lossy(&mut decoder).expect("growth never errors");
                let pending = item.is_none();
                delivered.extend(item.map(|item| (item.frame, item.anomalies)));
                let done = &image.items[..delivered.len()];
                let offset = match done.last() {
                    Some(&(_, end)) => end,
                    None if written >= 24 => 24,
                    None => 0,
                };
                prop_assert_eq!(follower.offset(), offset);
                let records = done.iter().filter(|item| item.0).count();
                prop_assert_eq!(follower.records_read(), records as u64);
                if pending {
                    break;
                }
            }
            if written == image.bytes.len() {
                break;
            }
            let end = image.bytes.len().min(written + schedule.next().expect("cycle"));
            out.write_all(&image.bytes[written..end]).expect("append");
            out.flush().expect("append");
            written = end;
        }
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(delivered.len(), image.items.len());
        prop_assert_eq!(delivered, expected);
    }
}
