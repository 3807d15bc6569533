//! Configuration types for TCP endpoints and BGP applications.

use tdat_timeset::Micros;

/// Window-based congestion-control flavour (the paper's assumption:
/// Tahoe / Reno / NewReno, §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TcpFlavor {
    /// Loss → slow start from one segment, even on triple duplicate
    /// ACKs.
    Tahoe,
    /// Fast retransmit + fast recovery; exits recovery on the first new
    /// ACK.
    Reno,
    /// Reno with partial-ACK handling: stays in recovery until the whole
    /// pre-loss flight is acknowledged.
    #[default]
    NewReno,
}

/// Tunables of a simulated TCP endpoint: what the scenarios vary. The
/// initial congestion window (2 segments) and the delayed-ACK, RTO and
/// persist timers are fixed; they are constants of the endpoint
/// ([`TcpEndpoint`](crate::tcp::TcpEndpoint)).
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConfig {
    /// Congestion-control flavour.
    pub flavor: TcpFlavor,
    /// Maximum segment size in bytes (payload per segment).
    pub mss: u32,
    /// Initial slow-start threshold in bytes.
    pub initial_ssthresh: u32,
    /// Receive buffer capacity = maximum advertised window, in bytes.
    /// The paper contrasts ISP_A's 65 KB with RouteViews' 16 KB.
    pub recv_buffer: u32,
    /// Send (socket) buffer capacity in bytes; bounds how far the
    /// application can run ahead of the ACK clock.
    pub send_buffer: u32,
    /// Multiplicative backoff factor applied per timeout. RouteViews'
    /// stacks back off "more aggressively" (§IV-B) — model with a larger
    /// factor.
    pub rto_backoff: f64,
    /// Offer RFC 1323 timestamps; active only if both endpoints offer
    /// them. Every segment then carries `(TSval, TSecr)`, enabling
    /// passive timestamp-based RTT measurement from captures.
    pub timestamps: bool,
    /// Offer selective acknowledgments (RFC 2018); active only if both
    /// endpoints offer it. With SACK the sender retransmits only the
    /// holes, so multi-loss windows recover without extra RTOs.
    pub sack: bool,
    /// Window-scale shift to offer (RFC 1323); scaling activates only
    /// if both endpoints offer it. 0 disables. Required for receive
    /// buffers above 64 kB to be usable.
    pub window_scale: u8,
    /// Fault injection: the zero-window-probe discard bug of §IV-B
    /// (`ZeroAckBug`). When the window reopens before the pending probe
    /// is sent, the buggy sender discards the probe *and* fails to
    /// resume transmission, so progress is made only via RTO-driven
    /// retransmissions.
    pub zero_window_probe_bug: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            flavor: TcpFlavor::NewReno,
            mss: 1448,
            initial_ssthresh: 64 * 1024,
            recv_buffer: 65_535,
            send_buffer: 64 * 1024,
            rto_backoff: 2.0,
            timestamps: false,
            sack: false,
            window_scale: 0,
            zero_window_probe_bug: false,
        }
    }
}

/// Timer-driven sender pacing: the undocumented router behaviour of
/// Houidi et al. (§II-B1) — at every timer expiration the BGP process
/// hands at most a quota of bytes to TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SenderTimer {
    /// Timer period (the paper infers 80/100/200/400 ms in the wild).
    pub interval: Micros,
    /// Bytes released per expiration.
    pub quota: u32,
}

/// Configuration of the sending BGP process.
#[derive(Debug, Clone, PartialEq)]
pub struct BgpSenderConfig {
    /// Timer-driven pacing; `None` writes as fast as the socket accepts.
    pub timer: Option<SenderTimer>,
    /// Keepalive interval (RFC 4271 default: hold time / 3).
    pub keepalive_interval: Micros,
    /// Hold time; no message from the peer for this long tears the
    /// session down.
    pub hold_time: Micros,
}

impl Default for BgpSenderConfig {
    fn default() -> Self {
        BgpSenderConfig {
            timer: None,
            keepalive_interval: Micros::from_secs(60),
            hold_time: Micros::from_secs(180),
        }
    }
}

/// Configuration of the receiving BGP process (the collector).
#[derive(Debug, Clone, PartialEq)]
pub struct BgpReceiverConfig {
    /// Processing rate in bytes/second at which the receiver application
    /// drains the TCP receive buffer. The collector's CPU is shared: the
    /// effective per-connection rate is this value divided by the number
    /// of connections with pending data.
    pub processing_rate: f64,
    /// Bytes consumed per drain step (granularity of processing).
    pub drain_chunk: u32,
    /// Keepalive interval.
    pub keepalive_interval: Micros,
    /// Hold time.
    pub hold_time: Micros,
}

impl Default for BgpReceiverConfig {
    fn default() -> Self {
        BgpReceiverConfig {
            processing_rate: 10_000_000.0, // 10 MB/s: a fast collector
            drain_chunk: 2 * 1448,
            keepalive_interval: Micros::from_secs(60),
            hold_time: Micros::from_secs(180),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        // The timers' order is checked where they are defined, at
        // compile time.
        let tcp = TcpConfig::default();
        assert!(tcp.rto_backoff >= 1.0);
        assert!(tcp.recv_buffer >= 3 * tcp.mss);
        let tx = BgpSenderConfig::default();
        assert!(tx.keepalive_interval < tx.hold_time);
        let rx = BgpReceiverConfig::default();
        assert!(rx.processing_rate > 0.0);
        assert!(rx.drain_chunk > 0);
    }
}
