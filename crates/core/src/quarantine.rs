//! Per-connection capture-quality verdicts and quarantine.
//!
//! A damaged capture (sniffer drops, snaplen clipping, corrupted
//! records) must not silently masquerade as a clean analysis: the delay
//! attribution would be confidently wrong. Each connection therefore
//! carries a [`Verdict`]:
//!
//! * [`Clean`](Verdict::Clean) — no capture anomalies touched it;
//! * [`Degraded`](Verdict::Degraded) — some damage was observed but
//!   stayed within the [`QuarantineConfig`] budget; the analysis is
//!   usable with caution;
//! * [`Quarantined`](Verdict::Quarantined) — the anomaly budget
//!   tripped; the connection is sealed with a typed reason and its
//!   factor attribution must not be trusted. The *run* continues: one
//!   poisoned stream never aborts the batch.
//!
//! The budget covers three independent damage surfaces: typed capture
//! anomalies from lossy decode ([`AnomalyCounts`]), bytes that failed
//! BGP framing (payload corruption the one-byte resync skipped), and
//! bytes dropped by the reassembly/pre-anchor resource caps.

use std::fmt;

use tdat_packet::AnomalyCounts;
use tdat_pcap2bgp::Extraction;

/// Capture-quality classification of one connection's analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No capture anomalies were attributed to this connection.
    Clean,
    /// Anomalies occurred but stayed within the quarantine budget.
    Degraded,
    /// The anomaly budget tripped: the analysis is sealed and its
    /// attribution untrustworthy. The reason states which budget and by
    /// how much.
    Quarantined {
        /// Why the connection was sealed.
        reason: String,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Quarantined`].
    pub fn is_quarantined(&self) -> bool {
        matches!(self, Verdict::Quarantined { .. })
    }

    /// `true` for [`Verdict::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, Verdict::Clean)
    }

    /// Stable snake_case identifier used in reports and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::Degraded => "degraded",
            Verdict::Quarantined { .. } => "quarantined",
        }
    }

    /// The quarantine reason, if sealed.
    pub fn reason(&self) -> Option<&str> {
        match self {
            Verdict::Quarantined { reason } => Some(reason),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Quarantined { reason } => write!(f, "quarantined: {reason}"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// Budgets that decide when a connection's damage tips from
/// [`Degraded`](Verdict::Degraded) into
/// [`Quarantined`](Verdict::Quarantined).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Typed capture anomalies (truncation, clipping, bad headers,
    /// clock damage, duplicates) attributed to the connection before it
    /// is sealed.
    pub max_anomalies: u64,
    /// Bytes that failed BGP framing before the stream is considered
    /// systematically corrupted rather than nicked.
    pub max_unparsed_bytes: u64,
    /// Bytes the reassembly window / pre-anchor caps may drop before
    /// the stream's timings are considered unreconstructable.
    pub max_overflow_bytes: u64,
}

impl Default for QuarantineConfig {
    fn default() -> QuarantineConfig {
        QuarantineConfig {
            max_anomalies: 16,
            max_unparsed_bytes: 4 << 10,
            max_overflow_bytes: 64 << 10,
        }
    }
}

impl QuarantineConfig {
    /// Classifies one connection given the capture anomalies attributed
    /// to it and its BGP extraction.
    pub fn assess(&self, anomalies: &AnomalyCounts, extraction: &Extraction) -> Verdict {
        let total = anomalies.total();
        if total > self.max_anomalies {
            return Verdict::Quarantined {
                reason: format!(
                    "{total} capture anomalies exceed the budget of {} ({anomalies})",
                    self.max_anomalies
                ),
            };
        }
        // The unparsed budget only applies to streams that framed as
        // BGP at least once: a capture that never was BGP (a generic
        // TCP transfer) is un-analyzed, not damaged.
        if !extraction.messages.is_empty() && extraction.unparsed_bytes > self.max_unparsed_bytes {
            return Verdict::Quarantined {
                reason: format!(
                    "{} bytes failed BGP framing (budget {})",
                    extraction.unparsed_bytes, self.max_unparsed_bytes
                ),
            };
        }
        if extraction.overflow_bytes > self.max_overflow_bytes {
            return Verdict::Quarantined {
                reason: format!(
                    "{} bytes dropped by reassembly resource caps (budget {})",
                    extraction.overflow_bytes, self.max_overflow_bytes
                ),
            };
        }
        let bgp_damage = !extraction.messages.is_empty() && extraction.unparsed_bytes > 0;
        if total > 0 || bgp_damage || extraction.overflow_bytes > 0 {
            Verdict::Degraded
        } else {
            Verdict::Clean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdat_packet::CaptureAnomaly;

    fn counts(n: u64) -> AnomalyCounts {
        let mut c = AnomalyCounts::default();
        for _ in 0..n {
            c.note(&CaptureAnomaly::SnapClipped {
                captured: 10,
                orig_len: 20,
            });
        }
        c
    }

    #[test]
    fn clean_connection_is_clean() {
        let v =
            QuarantineConfig::default().assess(&AnomalyCounts::default(), &Extraction::default());
        assert_eq!(v, Verdict::Clean);
        assert!(v.is_clean());
        assert_eq!(v.as_str(), "clean");
    }

    #[test]
    fn within_budget_is_degraded_not_quarantined() {
        let v = QuarantineConfig::default().assess(&counts(3), &Extraction::default());
        assert_eq!(v, Verdict::Degraded);
        assert!(!v.is_quarantined());
    }

    #[test]
    fn anomaly_budget_trips_quarantine_with_typed_reason() {
        let config = QuarantineConfig::default();
        let v = config.assess(&counts(config.max_anomalies + 1), &Extraction::default());
        assert!(v.is_quarantined());
        let reason = v.reason().expect("sealed verdicts carry a reason");
        assert!(reason.contains("capture anomalies"), "{reason}");
        assert!(reason.contains("clipped="), "counts echoed: {reason}");
    }

    #[test]
    fn unparsed_and_overflow_budgets_trip_independently() {
        let config = QuarantineConfig::default();
        let one_keepalive = [(tdat_timeset::Micros::ZERO, tdat_bgp::BgpMessage::Keepalive)];
        let bad_framing = Extraction {
            messages: one_keepalive.iter().collect(),
            unparsed_bytes: config.max_unparsed_bytes + 1,
            ..Extraction::default()
        };
        let v = config.assess(&AnomalyCounts::default(), &bad_framing);
        assert!(v.reason().is_some_and(|r| r.contains("BGP framing")));
        let overflowed = Extraction {
            overflow_bytes: config.max_overflow_bytes + 1,
            ..Extraction::default()
        };
        let v = config.assess(&AnomalyCounts::default(), &overflowed);
        assert!(v.reason().is_some_and(|r| r.contains("resource caps")));
    }

    #[test]
    fn non_bgp_streams_are_not_quarantined_for_unparsed_payload() {
        // A generic TCP transfer never frames as BGP: every byte is
        // "unparsed", but the capture itself is fine.
        let not_bgp = Extraction {
            unparsed_bytes: 10 << 20,
            ..Extraction::default()
        };
        let v = QuarantineConfig::default().assess(&AnomalyCounts::default(), &not_bgp);
        assert_eq!(v, Verdict::Clean);
    }
}
