//! Seeded sniffer-side damage injection: the chaos axis.
//!
//! A real sniffer does not hand the analyzer the simulator's pristine
//! frames — it truncates records when the disk stalls, clips payloads
//! at the snap length, corrupts bytes, duplicates and reorders records
//! under load, and steps its clock. [`apply_chaos`] reproduces that
//! damage deterministically from a seed, at the *pcap byte* level: a
//! clean [`TcpFrame`] stream goes in, a damaged capture file comes out,
//! so the differential oracle and the fuzz corpus can prove the pipeline
//! survives (and quarantines) exactly what a hostile capture produces.
//!
//! Damage is applied to serialized pcap records, not to the simulation:
//! the ground truth stays intact, which is what lets the oracle compare
//! inference-under-damage against the undamaged truth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdat_packet::TcpFrame;
use tdat_timeset::Micros;

/// The pcap global header damaged captures start with
/// (microsecond magic, v2.4, 65535 snaplen, Ethernet), matching
/// `tdat_packet::PcapWriter`.
const GLOBAL_HEADER: [u8; 24] = [
    0xd4, 0xc3, 0xb2, 0xa1, // magic, little-endian micros
    0x02, 0x00, 0x04, 0x00, // version 2.4
    0x00, 0x00, 0x00, 0x00, // thiszone
    0x00, 0x00, 0x00, 0x00, // sigfigs
    0xff, 0xff, 0x00, 0x00, // snaplen 65535
    0x01, 0x00, 0x00, 0x00, // LINKTYPE_ETHERNET
];

/// Per-record damage probabilities plus a seed: one spec fully
/// determines the damage a frame stream receives.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Seed for the damage generator.
    pub seed: u64,
    /// P(record is cut short without fixing its length header) — the
    /// reader desynchronizes and must resync.
    pub truncate: f64,
    /// P(record is snap-clipped: consistent header, shortened payload).
    pub clip: f64,
    /// P(a few bytes inside the packet data are flipped).
    pub corrupt: f64,
    /// P(record is written twice).
    pub duplicate: f64,
    /// P(record is swapped with its successor).
    pub reorder: f64,
    /// P(record timestamp jumps by up to ±1 h).
    pub clock_jump: f64,
    /// Hard cap on damage events (`None` = unlimited). A survivable
    /// spec uses this to stay under the per-connection quarantine
    /// budget regardless of capture length.
    pub max_events: Option<u64>,
}

impl ChaosSpec {
    /// No damage at all (the identity re-encode).
    pub fn quiet(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            truncate: 0.0,
            clip: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            clock_jump: 0.0,
            max_events: Some(0),
        }
    }

    /// Damage the pipeline must *survive without quarantining*: a small
    /// fixed budget of duplicated records. Duplicates are detected and
    /// skipped by the lossy decoder, so factor inference is unchanged
    /// while the connection is still marked degraded.
    pub fn survivable(seed: u64) -> ChaosSpec {
        ChaosSpec {
            duplicate: 0.02,
            max_events: Some(8),
            ..ChaosSpec::quiet(seed)
        }
    }

    /// Damage heavy enough that the affected connection must be
    /// quarantined (and still must never panic or abort the run).
    pub fn poison(seed: u64) -> ChaosSpec {
        ChaosSpec {
            truncate: 0.02,
            clip: 0.10,
            corrupt: 0.05,
            duplicate: 0.05,
            reorder: 0.02,
            clock_jump: 0.01,
            max_events: None,
            seed,
        }
    }
}

/// How many records each damage class actually hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Records cut short with a lying length header.
    pub truncated: u64,
    /// Records snap-clipped (consistent header).
    pub clipped: u64,
    /// Records with flipped data bytes.
    pub corrupted: u64,
    /// Records written twice.
    pub duplicated: u64,
    /// Records swapped with their successor.
    pub reordered: u64,
    /// Records with a stepped timestamp.
    pub clock_jumped: u64,
}

impl ChaosStats {
    /// Total damage events across all classes.
    pub fn total(&self) -> u64 {
        self.truncated
            + self.clipped
            + self.corrupted
            + self.duplicated
            + self.reordered
            + self.clock_jumped
    }
}

/// One serialized record awaiting emission.
#[derive(Debug)]
struct PendingRecord {
    timestamp: Micros,
    data: Vec<u8>,
    orig_len: u32,
    /// Bytes of `data` actually written (truncation lies: the header
    /// still claims `data.len()`).
    emit_len: usize,
}

/// The seeded damage engine behind [`apply_chaos`]; see the module docs.
#[derive(Debug)]
struct ChaosEngine {
    spec: ChaosSpec,
    rng: StdRng,
    stats: ChaosStats,
    /// A record held back one slot by the reorder class.
    held: Option<PendingRecord>,
}

impl ChaosEngine {
    /// Creates an engine from a spec (the spec's seed fixes every
    /// decision).
    fn new(spec: ChaosSpec) -> ChaosEngine {
        ChaosEngine {
            rng: StdRng::seed_from_u64(spec.seed),
            spec,
            stats: ChaosStats::default(),
            held: None,
        }
    }

    fn budget_left(&self) -> bool {
        self.spec
            .max_events
            .map(|cap| self.stats.total() < cap)
            .unwrap_or(true)
    }

    /// Damages one frame and appends its record(s) to `out`.
    fn damage_into(&mut self, frame: &TcpFrame, out: &mut Vec<u8>) {
        let wire = frame.to_wire();
        let orig_len = wire.len() as u32;
        let mut record = PendingRecord {
            timestamp: frame.timestamp,
            data: wire,
            orig_len,
            emit_len: usize::MAX,
        };

        if self.budget_left() && self.rng.gen_bool(self.spec.clock_jump) {
            let delta = self.rng.gen_range(1i64..=3_600) * 1_000_000;
            let jumped = if self.rng.gen_bool(0.5) {
                record.timestamp.0.saturating_sub(delta).max(0)
            } else {
                record.timestamp.0 + delta
            };
            record.timestamp = Micros(jumped);
            self.stats.clock_jumped += 1;
        }
        if self.budget_left() && self.rng.gen_bool(self.spec.corrupt) {
            let flips = self.rng.gen_range(1usize..=4);
            for _ in 0..flips {
                let at = self.rng.gen_range(0..record.data.len());
                record.data[at] ^= self.rng.gen_range(1u8..=255);
            }
            self.stats.corrupted += 1;
        }
        if self.budget_left() && self.rng.gen_bool(self.spec.clip) {
            // Keep at least the Ethernet header so the clip looks like
            // a snaplen, not pure garbage.
            let keep = self.rng.gen_range(14..record.data.len().max(15));
            record.data.truncate(keep);
            self.stats.clipped += 1;
        }
        if self.budget_left() && self.rng.gen_bool(self.spec.truncate) {
            // The header still claims the full length; the bytes end
            // early. Everything after this point desynchronizes.
            record.emit_len = self.rng.gen_range(1..record.data.len().max(2));
            self.stats.truncated += 1;
        }

        let duplicate = self.budget_left() && self.rng.gen_bool(self.spec.duplicate);
        if duplicate {
            self.stats.duplicated += 1;
        }
        let hold = self.budget_left() && self.rng.gen_bool(self.spec.reorder);

        if hold && self.held.is_none() {
            self.stats.reordered += 1;
            if duplicate {
                push_record(out, &record);
            }
            self.held = Some(record);
            return;
        }
        push_record(out, &record);
        if duplicate {
            push_record(out, &record);
        }
        if let Some(prior) = self.held.take() {
            push_record(out, &prior);
        }
    }

    /// Emits any record still held back by the reorder class. Call once
    /// after the last frame.
    fn finish_into(&mut self, out: &mut Vec<u8>) {
        if let Some(prior) = self.held.take() {
            push_record(out, &prior);
        }
    }
}

fn push_record(out: &mut Vec<u8>, record: &PendingRecord) {
    let secs = (record.timestamp.0.max(0) / 1_000_000) as u32;
    let micros = (record.timestamp.0.max(0) % 1_000_000) as u32;
    out.extend_from_slice(&secs.to_le_bytes());
    out.extend_from_slice(&micros.to_le_bytes());
    out.extend_from_slice(&(record.data.len() as u32).to_le_bytes());
    out.extend_from_slice(&record.orig_len.to_le_bytes());
    let emit = record.emit_len.min(record.data.len());
    out.extend_from_slice(&record.data[..emit]);
}

/// Serializes `frames` as a complete pcap capture with `spec`'s damage
/// applied, returning the bytes and what was hit.
pub fn apply_chaos(frames: &[TcpFrame], spec: &ChaosSpec) -> (Vec<u8>, ChaosStats) {
    let mut engine = ChaosEngine::new(spec.clone());
    let mut out = Vec::with_capacity(24 + frames.len() * 96);
    out.extend_from_slice(&GLOBAL_HEADER);
    for frame in frames {
        engine.damage_into(frame, &mut out);
    }
    engine.finish_into(&mut out);
    (out, engine.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
    use crate::sim::Simulation;
    use tdat_bgp::TableGenerator;

    fn frames(routes: usize) -> Vec<TcpFrame> {
        let table = TableGenerator::new(3).routes(routes).generate();
        let mut topo = monitoring_topology(1, TopologyOptions::default());
        let spec = transfer_spec(&topo, 0, table.to_update_stream());
        let mut sim = Simulation::new(topo.take_net());
        sim.add_connection(spec);
        sim.run(Micros::from_secs(300));
        let mut out = sim.into_output();
        out.taps.remove(0).1
    }

    #[test]
    fn quiet_spec_is_byte_identical_to_pcap_writer() {
        let frames = frames(200);
        let (chaos_bytes, stats) = apply_chaos(&frames, &ChaosSpec::quiet(1));
        assert_eq!(stats.total(), 0);
        let mut clean = Vec::new();
        {
            let mut w = tdat_packet::PcapWriter::new(&mut clean).expect("vec writer");
            for f in &frames {
                w.write_frame(f).expect("vec write");
            }
        }
        assert_eq!(chaos_bytes, clean);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let frames = frames(200);
        let (a, sa) = apply_chaos(&frames, &ChaosSpec::poison(42));
        let (b, sb) = apply_chaos(&frames, &ChaosSpec::poison(42));
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.total() > 0, "poison damages something: {sa:?}");
        let (c, _) = apply_chaos(&frames, &ChaosSpec::poison(43));
        assert_ne!(a, c, "a different seed damages differently");
    }

    #[test]
    fn survivable_spec_respects_its_event_budget() {
        let frames = frames(2_000);
        let spec = ChaosSpec::survivable(7);
        let (_, stats) = apply_chaos(&frames, &spec);
        let cap = spec.max_events.expect("survivable caps events");
        assert!(stats.total() <= cap, "{stats:?} exceeds {cap}");
        assert!(stats.total() > 0, "a long capture hits the budget");
    }
}
