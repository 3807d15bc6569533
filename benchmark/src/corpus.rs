//! Workload corpora: `tcpsim` captures generated deterministically from
//! `--seed`, each with a manifest of what was generated so every pass can
//! check that the program analysed exactly those sessions.
//!
//! Every session has its own router address and collector port, so the
//! number of distinct 4-tuples equals the number of sessions.

use std::collections::HashMap;
use std::io::Write;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tdat_bgp::TableGenerator;
use tdat_packet::{PcapWriter, TcpFrame};
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{
    apply_chaos, BgpReceiverConfig, ChaosSpec, ScriptAction, SenderTimer, Simulation, TcpConfig,
};
use tdat_timeset::{Micros, Span};

/// A benchmark workload: a generator plus the watch options its files
/// are replayed with. The program under test gets only the files.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Watch tick interval and trailing analysis window, in seconds.
    pub interval_s: i64,
    pub window_s: i64,
    generate: fn(u64, f64, &Path) -> Manifest,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "bulk-transfer",
        interval_s: 1,
        window_s: 12,
        generate: bulk_transfer,
    },
    Workload {
        name: "session-churn",
        interval_s: 1,
        window_s: 12,
        generate: session_churn,
    },
    Workload {
        name: "mixed-fleet",
        interval_s: 1,
        window_s: 60,
        generate: mixed_fleet,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Generates the workload's capture files under `dir`.
    pub fn generate(&self, seed: u64, scale: f64, dir: &Path) -> Manifest {
        std::fs::create_dir_all(dir).expect("create the output directory");
        (self.generate)(seed, scale, dir)
    }
}

/// One generated BGP session.
#[derive(Debug)]
pub struct Session {
    /// `router:179`, as reports print the data sender.
    pub sender: String,
    pub routes: usize,
    pub pathology: &'static str,
    /// Index into [`Manifest::files`].
    pub file: usize,
}

#[derive(Debug)]
pub struct CaptureFile {
    pub path: PathBuf,
    /// The generator damaged this file: read it lossily, and do not
    /// expect exact prefix counts from its sessions.
    pub damaged: bool,
}

/// What the generator produced.
#[derive(Debug, Default)]
pub struct Manifest {
    pub files: Vec<CaptureFile>,
    pub sessions: Vec<Session>,
    /// `collector:port` (the report's receiver, unique per session) →
    /// index into `sessions`.
    pub by_receiver: HashMap<String, usize>,
    pub frames: u64,
    pub bytes: u64,
    /// Wall time spent inside `Simulation::run`.
    pub sim_time: Duration,
}

impl Manifest {
    fn add_session(
        &mut self,
        spec: &tdat_tcpsim::ConnectionSpec,
        routes: usize,
        pathology: &'static str,
        file: usize,
    ) {
        let (router, rport) = spec.sender_addr;
        let (collector, cport) = spec.receiver_addr;
        let fresh = self
            .by_receiver
            .insert(format!("{collector}:{cport}"), self.sessions.len());
        assert!(fresh.is_none(), "generator reused {collector}:{cport}");
        self.sessions.push(Session {
            sender: format!("{router}:{rport}"),
            routes,
            pathology,
            file,
        });
    }
}

/// Sequence of seeds derived from `--seed` (splitmix64).
struct Seeds(u64);

impl Seeds {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `n` update streams of `routes`, `routes + step`, … routes, with their
/// route counts. Sessions take them in rotation: generating a table
/// costs more than simulating its transfer (and set-up time is gated),
/// and fixed sizes keep the work per seed equal — the seed changes the
/// prefixes, attributes and losses, not how much there is to analyse.
fn table_pool(seeds: &mut Seeds, n: usize, routes: usize, step: usize) -> Vec<(usize, Vec<u8>)> {
    (0..n)
        .map(|k| {
            let routes = routes + step * k;
            let table = TableGenerator::new(seeds.next()).routes(routes).generate();
            (routes, table.to_update_stream())
        })
        .collect()
}

fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(floor)
}

/// Runs `sim` to quiescence and returns the sniffer's frames.
fn run_sim(
    mut sim: Simulation,
    sniffer: tdat_tcpsim::net::NodeId,
    manifest: &mut Manifest,
) -> Vec<TcpFrame> {
    let started = std::time::Instant::now();
    sim.run(Micros::from_secs(3600));
    manifest.sim_time += started.elapsed();
    sim.take_tap_frames(sniffer)
}

struct Capture {
    writer: PcapWriter<std::io::BufWriter<std::fs::File>>,
    last: Micros,
}

impl Capture {
    fn create(path: &Path) -> Capture {
        Capture {
            writer: PcapWriter::create(path).expect("create capture file"),
            last: Micros::ZERO,
        }
    }

    fn write(&mut self, frame: &TcpFrame, manifest: &mut Manifest) {
        assert!(
            frame.timestamp >= self.last,
            "generator wrote frames out of order"
        );
        self.last = frame.timestamp;
        self.writer.write_frame(frame).expect("write capture file");
        manifest.frames += 1;
    }

    fn finish(mut self, path: PathBuf, manifest: &mut Manifest) {
        self.writer.flush().expect("flush capture file");
        manifest.bytes += std::fs::metadata(&path).expect("stat capture file").len();
        manifest.files.push(CaptureFile {
            path,
            damaged: false,
        });
    }
}

/// A collector restart: 16 routers send full tables at once.
fn bulk_transfer(seed: u64, scale: f64, dir: &Path) -> Manifest {
    let mut seeds = Seeds(seed);
    let mut manifest = Manifest::default();
    let tables = table_pool(&mut seeds, 4, scaled(130_000, scale, 500), 0);
    let mut topo = monitoring_topology(16, TopologyOptions::default());
    let specs: Vec<_> = (0..16)
        .map(|i| {
            (
                tables[i % 4].0,
                transfer_spec(&topo, i, tables[i % 4].1.clone()),
            )
        })
        .collect();
    let mut sim = Simulation::new(topo.take_net());
    for (routes, spec) in specs {
        manifest.add_session(&spec, routes, "clean", 0);
        sim.add_connection(spec);
    }
    let path = dir.join("bulk.pcap");
    let mut capture = Capture::create(&path);
    for frame in run_sim(sim, topo.sniffer, &mut manifest) {
        capture.write(&frame, &mut manifest);
    }
    capture.finish(path, &mut manifest);
    manifest
}

/// Sessions per simulated wave of `session-churn`. The simulator finds a
/// frame's connection by linear search, so one 20 000-connection
/// simulation would spend its time there; waves keep it linear overall.
const WAVE: usize = 400;
/// Trace time between waves; a wave's sessions open over the first 0.7 s
/// and are closed 60 ms after opening, so waves do not overlap.
const WAVE_PERIOD: Micros = Micros::from_secs(1);

/// The paper's session-reset bug: many short sessions, few open at once.
fn session_churn(seed: u64, scale: f64, dir: &Path) -> Manifest {
    let mut seeds = Seeds(seed);
    let mut manifest = Manifest::default();
    let sessions = scaled(14_000, scale, WAVE);
    let tables = table_pool(&mut seeds, 32, 70, 2);
    let path = dir.join("churn.pcap");
    let mut capture = Capture::create(&path);
    for wave in 0..sessions.div_ceil(WAVE) {
        let in_wave = WAVE.min(sessions - wave * WAVE);
        let mut topo = monitoring_topology(in_wave, TopologyOptions::default());
        let mut sim = Simulation::new(topo.take_net());
        for i in 0..in_wave {
            let session = wave * WAVE + i;
            let (routes, stream) = &tables[session % tables.len()];
            let mut spec = transfer_spec(&topo, i, stream.clone());
            spec.receiver_addr.1 = 1024 + session as u16;
            spec.open_at = Micros(i as i64 * 1_750);
            let reset = session % 4 == 3;
            manifest.add_session(&spec, *routes, if reset { "reset" } else { "closed" }, 0);
            let hangup = spec.open_at + Micros::from_millis(60);
            let id = sim.add_connection(spec);
            sim.add_script(
                hangup,
                if reset {
                    ScriptAction::ResetConnection(id)
                } else {
                    ScriptAction::CloseConnection(id)
                },
            );
        }
        let offset = Micros(WAVE_PERIOD.0 * wave as i64);
        for mut frame in run_sim(sim, topo.sniffer, &mut manifest) {
            frame.timestamp += offset;
            capture.write(&frame, &mut manifest);
        }
    }
    capture.finish(path, &mut manifest);
    manifest
}

const PATHOLOGIES: [&str; 5] = [
    "timer",
    "slow-receiver",
    "zero-window-bug",
    "small-window",
    "clean",
];

/// Two collectors, one with a bad sniffer: long-lived sessions with
/// pathologies rotated per session, fleet-wide upstream loss, one
/// downstream burst; the odd routers' capture is damaged.
fn mixed_fleet(seed: u64, scale: f64, dir: &Path) -> Manifest {
    let mut seeds = Seeds(seed);
    let mut manifest = Manifest::default();
    let sessions = scaled(150, scale, 10);
    let stagger = Micros::from_millis(2_900);
    // 21 sizes against 5 pathologies: every pairing occurs.
    let tables = table_pool(&mut seeds, 21, 9_000, 100);
    let mut options = TopologyOptions::default();
    options.access.loss = LossModel::Random {
        p: 0.002,
        seed: seeds.next(),
    };
    let burst_at = Micros(stagger.0 * sessions as i64 / 3);
    options.last_hop.loss = LossModel::Burst(vec![Span::with_duration(
        burst_at,
        Micros::from_millis(300),
    )]);
    let mut topo = monitoring_topology(sessions, options);
    let mut specs = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let (routes, stream) = &tables[i % tables.len()];
        let mut spec = transfer_spec(&topo, i, stream.clone());
        spec.open_at = Micros(stagger.0 * i as i64);
        let pathology = PATHOLOGIES[i % PATHOLOGIES.len()];
        match pathology {
            "timer" => {
                spec.sender_app.timer = Some(SenderTimer {
                    interval: Micros::from_millis(200),
                    quota: 8192,
                })
            }
            "slow-receiver" => {
                spec.receiver_app = BgpReceiverConfig {
                    processing_rate: 40_000.0,
                    ..BgpReceiverConfig::default()
                }
            }
            "zero-window-bug" => {
                spec.sender_tcp.zero_window_probe_bug = true;
                spec.receiver_app.processing_rate = 25_000.0;
            }
            "small-window" => {
                spec.receiver_tcp = TcpConfig {
                    recv_buffer: 16_384,
                    ..TcpConfig::default()
                }
            }
            _ => {}
        }
        manifest.add_session(&spec, *routes, pathology, i % 2);
        specs.push(spec);
    }
    let mut sim = Simulation::new(topo.take_net());
    for spec in specs {
        sim.add_connection(spec);
    }
    let router_index: HashMap<Ipv4Addr, usize> = topo
        .routers
        .iter()
        .enumerate()
        .map(|(i, (_, addr))| (*addr, i))
        .collect();
    let path_a = dir.join("collector-a.pcap");
    let path_b = dir.join("collector-b.pcap");
    let mut capture = Capture::create(&path_a);
    let mut odd = Vec::new();
    for frame in run_sim(sim, topo.sniffer, &mut manifest) {
        let router = router_index
            .get(&frame.ip.src)
            .or_else(|| router_index.get(&frame.ip.dst))
            .expect("every frame has a router end");
        if manifest.sessions[*router].file == 0 {
            capture.write(&frame, &mut manifest);
        } else {
            odd.push(frame);
        }
    }
    capture.finish(path_a, &mut manifest);
    // Only damage that leaves addresses and record framing intact:
    // `corrupt` can invent a connection, `truncate`/`clock_jump`
    // quarantine every session of an interleaved capture.
    let chaos = ChaosSpec {
        duplicate: 0.004,
        clip: 0.000_5,
        reorder: 0.002,
        max_events: None,
        ..ChaosSpec::quiet(seeds.next())
    };
    let (bytes, _) = apply_chaos(&odd, &chaos);
    std::fs::File::create(&path_b)
        .and_then(|mut f| f.write_all(&bytes))
        .expect("write damaged capture");
    manifest.frames += odd.len() as u64;
    manifest.bytes += bytes.len() as u64;
    manifest.files.push(CaptureFile {
        path: path_b,
        damaged: true,
    });
    manifest
}
