//! Deterministic synthetic corpora for tests, benches, and demos.
//!
//! Real corpora come from the analyzer; this module fabricates
//! statistically varied but fully reproducible [`SessionRecord`]
//! batches — tens of peers across a handful of ASes, a mix of
//! verdicts, factor profiles, and alert signatures, with finalization
//! times marching forward — so a 10k-session store can be built in
//! milliseconds with zero captures on disk. The same `(n, seed)` pair
//! always produces byte-identical records.

use std::borrow::Cow;

use tdat::Report;
use tdat_timeset::Micros;

use crate::record::{RecordKind, SessionRecord};

/// SplitMix64: tiny, deterministic, good enough for corpus shaping.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const SOURCES: [&str; 4] = ["collector-1", "collector-2", "collector-3", "ixp-tap"];
const ALERT_KINDS: [&str; 4] = [
    "stalled_transfer",
    "timer_gap",
    "consecutive_retransmissions",
    "zero_window_bug",
];
const FACTORS: [&str; 8] = [
    "BGP sender app",
    "TCP congestion window",
    "sender local loss",
    "BGP receiver app",
    "TCP advertised window",
    "receiver local loss",
    "bandwidth limited",
    "network packet loss",
];

/// Generates `n` deterministic records from `seed`.
pub fn synth_records(n: usize, seed: u64) -> Vec<SessionRecord> {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5851_f42d_4c95_7f2d);
    let mut at = Micros::from_secs(1_000);
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        // ~40 peers across 8 ASes, skewed so a few peers dominate.
        let peer_idx = (rng.f64().powi(2) * 40.0) as u64;
        let asn = 64_496 + (peer_idx % 8) as u32;
        let peer = format!("10.{}.{}.1", 1 + peer_idx / 16, 1 + peer_idx % 16);
        let source = SOURCES[(peer_idx % SOURCES.len() as u64) as usize];

        at += Micros::from_secs_f64(0.5 + rng.f64() * 30.0);
        let duration_s = 5.0 + rng.f64() * 600.0;

        // Factor profile: one dominant factor, small noise elsewhere.
        let dominant = rng.below(FACTORS.len() as u64) as usize;
        let mut factors: Vec<(Cow<'static, str>, f64)> = FACTORS
            .iter()
            .map(|f| (Cow::Borrowed(*f), rng.f64() * 0.08))
            .collect();
        factors[dominant].1 = 0.4 + rng.f64() * 0.5;
        let sum = |idx: std::ops::Range<usize>| factors[idx].iter().map(|f| f.1).sum::<f64>();
        let sender_ratio = sum(0..3).min(1.0);
        let receiver_ratio = sum(3..6).min(1.0);
        let network_ratio = sum(6..8).min(1.0);
        let mut major_groups = Vec::new();
        for (name, ratio) in [
            ("sender", sender_ratio),
            ("receiver", receiver_ratio),
            ("network", network_ratio),
        ] {
            if ratio > 0.3 {
                major_groups.push(Cow::Borrowed(name));
            }
        }

        let verdict_roll = rng.f64();
        let (verdict, quarantine_reason) = if verdict_roll < 0.70 {
            ("clean", None)
        } else if verdict_roll < 0.92 {
            ("degraded", None)
        } else {
            ("quarantined", Some("anomaly budget exceeded".into()))
        };

        let mut alerts = Vec::new();
        if verdict != "clean" || rng.f64() < 0.15 {
            alerts.push(ALERT_KINDS[rng.below(ALERT_KINDS.len() as u64) as usize].to_string());
            alerts.sort_unstable();
            alerts.dedup();
        }

        let report = Report {
            sender: format!("{peer}:179"),
            receiver: format!("192.0.2.{}:1790", 1 + i % 200),
            duration_s,
            prefixes: 10_000 + (rng.below(900_000)) as usize,
            rtt_ms: (rng.f64() < 0.9).then(|| 1.0 + rng.f64() * 250.0),
            sender_ratio,
            receiver_ratio,
            network_ratio,
            factors,
            major_groups,
            inferred_timer_ms: (rng.f64() < 0.2).then(|| 30.0 + rng.f64() * 200.0),
            loss_episodes: (0..rng.below(3))
                .map(|_| (1 + rng.below(6) as usize, rng.f64() * 5.0))
                .collect(),
            zero_ack_bug: rng.f64() < 0.02,
            delayed_ack_spurious: rng.below(4) as usize,
            verdict: verdict.into(),
            quarantine_reason,
            capture_anomalies: if verdict == "clean" { 0 } else { rng.below(50) },
        };
        records.push(SessionRecord {
            source: source.to_string(),
            kind: RecordKind::MonitorV2,
            at,
            span: tdat_timeset::Span::new(at - Micros::from_secs_f64(duration_s), at),
            peer,
            peer_as: Some(asn),
            alerts,
            report,
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus() {
        let a = synth_records(200, 11);
        let b = synth_records(200, 11);
        assert_eq!(a, b);
        let c = synth_records(200, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_is_varied_and_time_ordered() {
        let records = synth_records(1000, 5);
        let verdicts: std::collections::HashSet<_> =
            records.iter().map(|r| &*r.report.verdict).collect();
        assert!(verdicts.len() >= 3, "want all verdicts, got {verdicts:?}");
        let peers: std::collections::HashSet<_> = records.iter().map(|r| &r.peer).collect();
        assert!(peers.len() >= 20, "want many peers, got {}", peers.len());
        assert!(records.windows(2).all(|w| w[0].at < w[1].at));
        assert!(records.iter().any(|r| !r.alerts.is_empty()));
        assert!(records.iter().all(|r| r.peer_as.is_some()));
    }
}
