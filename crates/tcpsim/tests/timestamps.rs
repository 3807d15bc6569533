//! TCP timestamps (RFC 7323) end to end: negotiation on the wire, and
//! each segment echoing the last TSval its sender received.
//!
//! Two endpoints exchange segments one at a time over a lossless wire
//! whose clock advances a millisecond per delivery, so TSvals differ
//! from segment to segment and each sender's last received TSval is
//! known exactly when it emits.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use tdat_packet::{TcpFlags, TcpFrame, TcpOption};
use tdat_tcpsim::tcp::{TcpEndpoint, TcpState, TimerKind};
use tdat_tcpsim::TcpConfig;
use tdat_timeset::Micros;

/// One captured segment: which endpoint sent it, and the TSval its
/// sender had last received from the peer when it was emitted.
struct Sent {
    from: usize,
    frame: TcpFrame,
    last_tsval_received: Option<u32>,
}

fn timestamps(frame: &TcpFrame) -> Option<(u32, u32)> {
    frame.tcp.options.iter().find_map(|o| match o {
        TcpOption::Timestamps(val, ecr) => Some((*val, *ecr)),
        _ => None,
    })
}

/// Two endpoints, the segments in flight between them, and every
/// segment either has emitted.
struct Pair {
    eps: [TcpEndpoint; 2],
    last_rx: [Option<u32>; 2],
    wire: VecDeque<(usize, TcpFrame)>,
    sent: Vec<Sent>,
}

impl Pair {
    /// Moves endpoint `i`'s outbox onto the wire.
    fn collect(&mut self, i: usize) {
        for frame in self.eps[i].take_outbox() {
            self.sent.push(Sent {
                from: i,
                frame: frame.clone(),
                last_tsval_received: self.last_rx[i],
            });
            self.wire.push_back((i, frame));
        }
    }

    /// Delivers every segment on the wire, one per millisecond, along
    /// with whatever each delivery makes its receiver send.
    fn deliver(&mut self, now: &mut Micros) {
        while let Some((from, frame)) = self.wire.pop_front() {
            *now += Micros::from_millis(1);
            let to = 1 - from;
            self.eps[to].on_frame(*now, &frame);
            if let Some((val, _)) = timestamps(&frame) {
                self.last_rx[to] = Some(val);
            }
            self.collect(to);
        }
    }
}

/// Transfers 30 000 bytes from endpoint 0 (active opener) to endpoint 1
/// and returns every segment in emission order.
fn run(offers: [bool; 2]) -> Vec<Sent> {
    let addrs: [(Ipv4Addr, u16); 2] = [
        (Ipv4Addr::new(10, 0, 0, 1), 179),
        (Ipv4Addr::new(10, 0, 0, 2), 40_000),
    ];
    let config = |timestamps| TcpConfig {
        timestamps,
        ..TcpConfig::default()
    };
    let mut pair = Pair {
        eps: [
            TcpEndpoint::new(addrs[0], addrs[1], 1_000, config(offers[0])),
            TcpEndpoint::new(addrs[1], addrs[0], 9_000, config(offers[1])),
        ],
        last_rx: [None, None],
        wire: VecDeque::new(),
        sent: Vec::new(),
    };
    let mut now = Micros::ZERO;
    pair.eps[1].open_passive();
    pair.eps[0].open_active(now);
    pair.collect(0);
    let data = vec![7u8; 30_000];
    let mut written = 0;
    let mut received = 0;
    for _ in 0..10_000 {
        if received == data.len() {
            break;
        }
        if pair.eps[0].state() == TcpState::Established && written < data.len() {
            written += pair.eps[0].app_send(now, &data[written..]);
            pair.collect(0);
        }
        pair.deliver(&mut now);
        received += pair.eps[1].app_consume(now, usize::MAX, &mut Vec::new());
        // Fire delayed ACKs so the ACK clock keeps ticking; nothing is
        // lost, so retransmission timers never need to.
        now += Micros::from_millis(1);
        for i in 0..2 {
            for req in pair.eps[i].take_timer_requests() {
                if req.kind != TimerKind::Rto {
                    pair.eps[i].on_timer(req.deadline.max(now), req.kind, req.epoch);
                }
            }
            pair.collect(i);
        }
    }
    assert_eq!(received, data.len(), "the transfer completes");
    pair.sent
}

#[test]
fn timestamps_negotiated_and_echoed_on_every_segment() {
    let sent = run([true, true]);
    let after_handshake: Vec<&Sent> = sent
        .iter()
        .filter(|s| !s.frame.tcp.flags.contains(TcpFlags::SYN))
        .collect();
    assert!(after_handshake.len() > 20, "{}", after_handshake.len());
    let mut tsvals = std::collections::BTreeSet::new();
    for s in &after_handshake {
        let (val, ecr) = timestamps(&s.frame)
            .unwrap_or_else(|| panic!("segment without timestamps: {:?}", s.frame.tcp));
        tsvals.insert(val);
        assert_eq!(
            Some(ecr),
            s.last_tsval_received,
            "endpoint {} echoed a TSval it did not last receive",
            s.from
        );
    }
    assert!(tsvals.len() > 10, "the clock moves: {tsvals:?}");
}

#[test]
fn no_timestamps_after_the_syns_unless_both_offer() {
    for offers in [[true, false], [false, true]] {
        let sent = run(offers);
        let syn_offered = sent
            .iter()
            .any(|s| s.frame.tcp.flags.contains(TcpFlags::SYN) && timestamps(&s.frame).is_some());
        assert!(
            syn_offered,
            "{offers:?}: the offering side's SYN carries it"
        );
        let stamped = sent
            .iter()
            .filter(|s| !s.frame.tcp.flags.contains(TcpFlags::SYN))
            .filter(|s| timestamps(&s.frame).is_some())
            .count();
        assert_eq!(stamped, 0, "{offers:?}: one side never offered");
    }
}
