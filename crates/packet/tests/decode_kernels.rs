//! The two per-record kernels of lossy decode, held to references.
//!
//! * The Internet checksum (`internet_checksum`, and `tcp_checksum`'s
//!   split sums) against the byte-pair sum it replaced, kept here
//!   verbatim: one big-endian `u16` per step into a `u32`. That sum
//!   wraps past 128 KiB of input, so beyond that the reference is the
//!   same loop with a `u64` accumulator.
//! * The duplicate-record signature, through the decoder that uses it:
//!   an exact copy of a record must be flagged a duplicate, and a record
//!   that differs in one byte, its timestamp, its original length or
//!   its captured length — a trailing `0x00` included — must not.
//!
//! CI runs this file in release with `PROPTEST_CASES=20000`.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use tdat_packet::{internet_checksum, tcp_checksum, CaptureAnomaly, LossyDecoder, IPPROTO_TCP};
use tdat_timeset::Micros;

/// The byte-pair sum the word-at-a-time one replaced, verbatim.
fn sum_be_words(data: &[u8]) -> u32 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum = sum.wrapping_add(u16::from_be_bytes([chunk[0], chunk[1]]) as u32);
    }
    if let [last] = chunks.remainder() {
        sum = sum.wrapping_add((*last as u32) << 8);
    }
    sum
}

/// The fold that went with it, verbatim.
fn finish_checksum(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// The checksum as the byte-pair sum makes it.
fn reference(data: &[u8]) -> u16 {
    finish_checksum(sum_be_words(data))
}

/// The TCP checksum as it was made from the byte-pair sum, verbatim.
fn reference_tcp(src: Ipv4Addr, dst: Ipv4Addr, header: &[u8], payload: &[u8]) -> u16 {
    let mut sum = sum_be_words(&src.octets());
    sum = sum.wrapping_add(sum_be_words(&dst.octets()));
    sum = sum.wrapping_add(IPPROTO_TCP as u32);
    sum = sum.wrapping_add((header.len() + payload.len()) as u32);
    sum = sum.wrapping_add(sum_be_words(header));
    sum = sum.wrapping_add(sum_be_words(payload));
    finish_checksum(sum)
}

/// The byte-pair loop with an accumulator that cannot wrap.
fn reference_u64(data: &[u8]) -> u16 {
    let mut sum = 0u64;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u64::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u64::from(*last) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// `len` pseudo-random bytes from `seed` (xorshift).
fn bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

#[test]
fn checksum_matches_the_byte_pair_sum_at_every_length_to_4096() {
    let random = bytes(4096, 7);
    for len in 0..=4096 {
        let data = &random[..len];
        assert_eq!(internet_checksum(data), reference(data), "length {len}");
        for fill in [0x00, 0xff] {
            let data = vec![fill; len];
            assert_eq!(
                internet_checksum(&data),
                reference(&data),
                "length {len} of {fill:#04x}"
            );
        }
    }
}

#[test]
fn zero_stays_distinct_from_0xffff() {
    // All-zero data sums to zero, which no carry can produce: its
    // checksum is 0xffff. Words that sum to 0xffff checksum to zero.
    for len in [0, 1, 2, 7, 8, 9, 1448, 65_535] {
        assert_eq!(internet_checksum(&vec![0x00; len]), 0xffff, "length {len}");
    }
    for len in [2, 8, 10, 1448, 65_534] {
        assert_eq!(internet_checksum(&vec![0xff; len]), 0x0000, "length {len}");
    }
    assert_eq!(internet_checksum(&[0xff]), !0xff00);
}

/// 256 KiB of `0xff` is 131 072 words of `0xffff`: their byte-pair sum
/// overflows a `u32` once, and the carry it drops changes the result.
#[test]
fn checksum_keeps_its_carries_past_128_kib() {
    let data = vec![0xff; 256 << 10];
    assert_eq!(internet_checksum(&data), reference_u64(&data));
    assert_eq!(internet_checksum(&data), 0);
    let data = bytes(300_001, 3);
    assert_eq!(internet_checksum(&data), reference_u64(&data));
}

/// Decodes `second` right after `first` on a fresh decoder and says
/// whether it was dropped as a duplicate record.
fn flagged_duplicate(first: (i64, u32, &[u8]), second: (i64, u32, &[u8])) -> bool {
    let mut decoder = LossyDecoder::new();
    decoder.decode_wire(Micros(first.0), first.1, first.2);
    decoder
        .decode_wire(Micros(second.0), second.1, second.2)
        .anomalies
        .iter()
        .any(|anomaly| matches!(anomaly, CaptureAnomaly::DuplicateRecord { .. }))
}

proptest! {
    #[test]
    fn checksum_matches_the_byte_pair_sum_to_65535(len in 0usize..65_536, seed in any::<u64>()) {
        let data = bytes(len, seed);
        prop_assert_eq!(internet_checksum(&data), reference(&data));
    }

    #[test]
    fn split_checksum_matches_the_byte_pair_sum(
        len in 0usize..4_096,
        cut in any::<usize>(),
        seed in any::<u64>(),
        addresses in (any::<u32>(), any::<u32>()),
    ) {
        // `tcp_checksum` sums the pseudo-header, the header and the
        // payload apart; a TCP header is a whole number of words, so
        // the cut between the last two is even.
        let data = bytes(len, seed);
        let cut = (cut % (len + 1)) & !1;
        let (header, payload) = data.split_at(cut);
        let (src, dst) = (Ipv4Addr::from(addresses.0), Ipv4Addr::from(addresses.1));
        let expected = reference_tcp(src, dst, header, payload);
        prop_assert_eq!(tcp_checksum(src, dst, header, payload), expected);
        prop_assert_eq!(tcp_checksum(src, dst, &data, &[]), expected);
    }

    #[test]
    fn signature_tells_a_copy_from_any_one_change(
        data in prop::collection::vec(any::<u8>(), 0..2_048),
        timestamp in any::<i64>(),
        orig_len in any::<u32>(),
        at in any::<usize>(),
        flip in 1u8..=255,
        delta in 1i64..1_000_000,
    ) {
        let record = (timestamp, orig_len, &data[..]);
        prop_assert!(flagged_duplicate(record, record), "an exact copy collides");
        if !data.is_empty() {
            let mut changed = data.clone();
            changed[at % data.len()] ^= flip;
            prop_assert!(!flagged_duplicate(record, (timestamp, orig_len, &changed)));
            let shorter = &data[..data.len() - 1];
            prop_assert!(!flagged_duplicate(record, (timestamp, orig_len, shorter)));
        }
        let later = timestamp.wrapping_add(delta);
        prop_assert!(!flagged_duplicate(record, (later, orig_len, &data)));
        let other_len = orig_len.wrapping_add(delta as u32);
        prop_assert!(!flagged_duplicate(record, (timestamp, other_len, &data)));
        let mut padded = data.clone();
        padded.push(0x00);
        prop_assert!(
            !flagged_duplicate(record, (timestamp, orig_len, &padded)),
            "a trailing 0x00 is a different record"
        );
    }
}
