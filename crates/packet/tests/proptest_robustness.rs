//! Robustness fuzzing: arbitrary and corrupted bytes must never panic
//! the decoders — they return errors (or truncate cleanly) instead.

use proptest::prelude::*;
use tdat_packet::{PcapReader, TcpFrame, TcpHeader};
use tdat_timeset::Micros;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic_frame_parser(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = TcpFrame::parse(Micros::ZERO, &bytes);
    }

    #[test]
    fn random_bytes_never_panic_tcp_header(bytes in prop::collection::vec(any::<u8>(), 0..80)) {
        let mut buf = &bytes[..];
        let _ = TcpHeader::decode(&mut buf);
    }

    #[test]
    fn random_bytes_never_panic_pcap_reader(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        if let Ok(mut reader) = PcapReader::new(&bytes[..]) {
            // Drain until error or EOF; must not panic or loop forever.
            for _ in 0..64 {
                match reader.next_view() {
                    Ok(Some(_)) => {}
                    _ => break,
                }
            }
        }
    }

    #[test]
    fn bit_flipped_valid_frame_never_panics(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let frame = tdat_packet::FrameBuilder::new(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        )
        .ports(179, 40000)
        .seq(1)
        .payload(payload)
        .build();
        let mut wire = frame.to_wire();
        let idx = flip_at % wire.len();
        wire[idx] ^= 1 << flip_bit;
        let _ = TcpFrame::parse(Micros::ZERO, &wire);
    }

    #[test]
    fn truncated_valid_pcap_never_panics(cut in any::<usize>()) {
        let frame = tdat_packet::FrameBuilder::new(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
        )
        .payload(vec![7; 100])
        .build();
        let mut buf = Vec::new();
        {
            let mut w = tdat_packet::PcapWriter::new(&mut buf).unwrap();
            w.write_frame(&frame).unwrap();
            w.write_frame(&frame).unwrap();
        }
        let cut = cut % (buf.len() + 1);
        buf.truncate(cut);
        if let Ok(mut reader) = PcapReader::new(&buf[..]) {
            while let Ok(Some(_)) = reader.next_view() {}
        }
    }
}
