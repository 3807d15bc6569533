//! Synthetic corpus generation: three datasets mirroring the paper's
//! ISP_A (Vendor), ISP_A (Quagga), and RouteViews traces (Table I).
//!
//! Every "table transfer" is one deterministic simulation run whose
//! scenario is drawn from a per-dataset mix of the transport conditions
//! the paper observed: clean paths, quota-timer pacing (Houidi gaps),
//! slow collectors, small advertised windows, upstream/downstream loss
//! episodes, concurrent transfers after collector failures, peer-group
//! blocking, and the zero-window-probe bug. Route counts are scaled
//! down ~10× from full tables (≈300 k routes in 2008–2011) so the whole
//! corpus generates in seconds; every *shape* result is preserved (see
//! DESIGN.md).

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tdat_bgp::TableGenerator;
use tdat_packet::TcpFrame;
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{BgpReceiverConfig, BgpSenderConfig, SenderTimer, Simulation, TcpConfig};
use tdat_timeset::{Micros, Span};

/// Which of the paper's datasets a transfer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataset {
    /// ISP_A monitored by a vendor-router collector (iBGP).
    IspAVendor,
    /// ISP_A monitored by a Quagga collector (iBGP).
    IspAQuagga,
    /// RouteViews (eBGP, 16 kB windows, aggressive RTO backoff).
    RouteViews,
}

impl Dataset {
    /// All datasets in paper order.
    pub const ALL: [Dataset; 3] = [
        Dataset::IspAVendor,
        Dataset::IspAQuagga,
        Dataset::RouteViews,
    ];

    /// Display name matching the paper's table headers.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::IspAVendor => "ISP_A (Vendor)",
            Dataset::IspAQuagga => "ISP_A (Quagga)",
            Dataset::RouteViews => "RV",
        }
    }

    /// Number of monitored routers (Table I).
    pub fn routers(self) -> usize {
        match self {
            Dataset::IspAVendor => 24,
            Dataset::IspAQuagga => 27,
            Dataset::RouteViews => 59,
        }
    }

    /// Number of table transfers to synthesize at scale 1.0. The
    /// paper's counts are 10396 / 436 / 94; the vendor trace is scaled
    /// down harder (its enormous count came from a session-reset bug,
    /// not from interesting diversity).
    pub fn transfers(self) -> usize {
        match self {
            Dataset::IspAVendor => 160,
            Dataset::IspAQuagga => 72,
            Dataset::RouteViews => 40,
        }
    }

    /// Maximum advertised window: ISP_A runs 65 kB, RouteViews 16 kB
    /// (§IV-A).
    pub fn max_adv_window(self) -> u32 {
        match self {
            Dataset::RouteViews => 16_384,
            _ => 65_535,
        }
    }

    /// RTO backoff factor: RouteViews' stacks "backoff more
    /// aggressively" (§IV-B).
    pub fn rto_backoff(self) -> f64 {
        match self {
            Dataset::RouteViews => 4.0,
            _ => 2.0,
        }
    }

    /// Propagation delay range for the router→collector access link.
    fn propagation_range_ms(self) -> (f64, f64) {
        match self {
            // iBGP: same backbone.
            Dataset::IspAVendor | Dataset::IspAQuagga => (0.5, 5.0),
            // eBGP across the Internet.
            Dataset::RouteViews => (5.0, 80.0),
        }
    }
}

/// The transport condition injected into one transfer.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// Nothing in the way; bounded by cwnd/receiver as usual.
    Clean,
    /// Quota-timer paced sender (§II-B1): Houidi timer gaps.
    TimerPaced {
        /// Timer period.
        interval: Micros,
        /// Bytes per expiration.
        quota: u32,
    },
    /// Overloaded collector process.
    SlowReceiver {
        /// Processing rate in bytes/second.
        rate: f64,
    },
    /// Random loss on the upstream path.
    UpstreamLoss {
        /// Drop probability.
        p: f64,
    },
    /// A burst of receiver-local drops (§II-B2).
    DownstreamBurst {
        /// Fraction of the transfer's expected duration at which the
        /// burst begins (0..1) and its length as a fraction.
        at: f64,
        /// Burst length fraction.
        len: f64,
    },
    /// The zero-window probe discard bug (§IV-B) under an overloaded
    /// collector.
    ZeroWindowBug,
}

/// One generated table transfer: the sniffer capture plus ground truth.
#[derive(Debug)]
pub struct Transfer {
    /// Owning dataset.
    pub dataset: Dataset,
    /// Router index within the dataset.
    pub router: usize,
    /// Injected scenario.
    pub scenario: Scenario,
    /// Routes in the transferred table.
    pub routes: usize,
    /// Update-stream bytes.
    pub stream_len: usize,
    /// Frames captured by the sniffer.
    pub frames: Vec<TcpFrame>,
    /// True transfer completion time from the simulator (last update
    /// consumed by the collector).
    pub true_duration: Micros,
    /// Whether the scenario's sender carries the quota-timer feature.
    pub timer_interval: Option<Micros>,
}

/// A router's fixed implementation characteristics: whether it paces
/// transfers with a quota timer (Houidi's undocumented feature) and at
/// what value. A router either has the timer or it does not — unlike
/// transient conditions, this never varies between its transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterProfile {
    /// Quota timer, if this implementation has one.
    pub timer: Option<(Micros, u32)>,
    /// Nominal collector processing rate for this session
    /// (bytes/second): the userspace BGP process parsing and archiving
    /// updates. Per-router because collector load and peering setup
    /// differ per session; transient overloads scale *down* from it.
    pub collector_rate: f64,
}

/// Deterministic per-router profile assignment.
pub fn router_profile(dataset: Dataset, router: usize, seed: u64) -> RouterProfile {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0x5170_f11e ^ ((dataset as u64) << 32) ^ router as u64);
    let (timer_share, timer_values_ms): (f64, &[i64]) = match dataset {
        // The vendor implementation of the era paced aggressively —
        // most of its routers show the gaps (§II-B1).
        Dataset::IspAVendor => (0.6, &[200, 400]),
        Dataset::IspAQuagga => (0.45, &[100, 200]),
        Dataset::RouteViews => (0.2, &[80, 400]),
    };
    let timer = if rng.gen_bool(timer_share) {
        Some((
            Micros::from_millis(timer_values_ms[rng.gen_range(0..timer_values_ms.len())]),
            4096 * rng.gen_range(1..4u32),
        ))
    } else {
        None
    };
    RouterProfile {
        timer,
        collector_rate: rng.gen_range(1_000_000.0..6_000_000.0),
    }
}

/// Per-transfer transient condition, deterministic in the corpus seed.
fn draw_condition(dataset: Dataset, rng: &mut StdRng, profile: &RouterProfile) -> Scenario {
    let roll: f64 = rng.gen();
    match dataset {
        // Vendor: mostly healthy paths; occasional receiver load and
        // short receiver-local bursts.
        Dataset::IspAVendor => {
            if roll < 0.55 {
                Scenario::Clean
            } else if roll < 0.80 {
                Scenario::SlowReceiver {
                    rate: profile.collector_rate * rng.gen_range(0.15..0.5),
                }
            } else if roll < 0.95 {
                Scenario::DownstreamBurst {
                    at: rng.gen_range(0.1..0.5),
                    len: rng.gen_range(0.02..0.10),
                }
            } else {
                Scenario::UpstreamLoss {
                    p: rng.gen_range(0.002..0.01),
                }
            }
        }
        // Quagga: the PC-based collector is often the bottleneck.
        Dataset::IspAQuagga => {
            if roll < 0.30 {
                Scenario::Clean
            } else if roll < 0.75 {
                Scenario::SlowReceiver {
                    rate: profile.collector_rate * rng.gen_range(0.1..0.4),
                }
            } else if roll < 0.90 {
                Scenario::DownstreamBurst {
                    at: rng.gen_range(0.1..0.5),
                    len: rng.gen_range(0.02..0.12),
                }
            } else if roll < 0.97 {
                Scenario::UpstreamLoss {
                    p: rng.gen_range(0.002..0.015),
                }
            } else {
                Scenario::ZeroWindowBug
            }
        }
        // RouteViews: long, lossy Internet paths.
        Dataset::RouteViews => {
            if roll < 0.50 {
                Scenario::Clean
            } else if roll < 0.65 {
                Scenario::SlowReceiver {
                    rate: profile.collector_rate * rng.gen_range(0.1..0.4),
                }
            } else if roll < 0.85 {
                Scenario::UpstreamLoss {
                    p: rng.gen_range(0.005..0.03),
                }
            } else {
                Scenario::DownstreamBurst {
                    at: rng.gen_range(0.1..0.5),
                    len: rng.gen_range(0.05..0.15),
                }
            }
        }
    }
}

/// Generates one transfer. The `scenario` may be a transient condition
/// or `TimerPaced` (which is folded into the router profile); use
/// [`generate_transfer_with`] to combine a fixed router timer with a
/// transient condition, as the corpus does.
pub fn generate_transfer(
    dataset: Dataset,
    router: usize,
    scenario: Scenario,
    routes: usize,
    seed: u64,
) -> Transfer {
    let fast_collector = RouterProfile {
        timer: None,
        collector_rate: 10_000_000.0,
    };
    match scenario {
        Scenario::TimerPaced { interval, quota } => generate_transfer_with(
            dataset,
            router,
            RouterProfile {
                timer: Some((interval, quota)),
                ..fast_collector
            },
            Scenario::Clean,
            routes,
            seed,
        ),
        condition => {
            generate_transfer_with(dataset, router, fast_collector, condition, routes, seed)
        }
    }
}

/// Generates one transfer with an explicit router timer profile plus a
/// transient condition.
pub fn generate_transfer_with(
    dataset: Dataset,
    router: usize,
    profile: RouterProfile,
    scenario: Scenario,
    routes: usize,
    seed: u64,
) -> Transfer {
    let timer = profile.timer;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
    let stream = TableGenerator::new(seed)
        .routes(routes)
        .local_as(64_500 + router as u16)
        .generate()
        .to_update_stream();
    let stream_len = stream.len();

    let (lo, hi) = dataset.propagation_range_ms();
    let mut topo_opts = TopologyOptions::default();
    topo_opts.access.propagation = Micros::from_secs_f64(rng.gen_range(lo..hi) / 1e3);
    // Expected duration estimate for placing loss bursts.
    let expected = estimate_duration(
        stream_len,
        &profile,
        &scenario,
        topo_opts.access.propagation,
    );
    if let Scenario::DownstreamBurst { at, len } = scenario {
        let start = Micros::from_secs_f64(expected.as_secs_f64() * at);
        let end = start + Micros::from_secs_f64(expected.as_secs_f64() * len);
        topo_opts.last_hop.loss = LossModel::Burst(vec![Span::new(start, end)]);
    }
    if let Scenario::UpstreamLoss { p } = scenario {
        topo_opts.access.loss = LossModel::Random { p, seed };
    }

    let mut topo = monitoring_topology(1, topo_opts);
    let mut spec = transfer_spec(&topo, 0, stream);
    spec.sender_tcp = TcpConfig {
        rto_backoff: dataset.rto_backoff(),
        ..TcpConfig::default()
    };
    spec.receiver_tcp = TcpConfig {
        recv_buffer: dataset.max_adv_window(),
        ..TcpConfig::default()
    };
    spec.sender_app = BgpSenderConfig::default();
    spec.receiver_app = BgpReceiverConfig {
        processing_rate: profile.collector_rate,
        ..BgpReceiverConfig::default()
    };
    let mut timer_interval = None;
    if let Some((interval, quota)) = timer {
        timer_interval = Some(interval);
        spec.sender_app.timer = Some(SenderTimer { interval, quota });
    }
    match &scenario {
        Scenario::TimerPaced { interval, quota } => {
            // Only reachable via direct calls; the wrapper folds this
            // into `timer`.
            timer_interval = Some(*interval);
            spec.sender_app.timer = Some(SenderTimer {
                interval: *interval,
                quota: *quota,
            });
        }
        Scenario::SlowReceiver { rate } => {
            spec.receiver_app.processing_rate = *rate;
        }
        Scenario::ZeroWindowBug => {
            spec.sender_tcp.zero_window_probe_bug = true;
            spec.receiver_app.processing_rate = 25_000.0;
        }
        _ => {}
    }

    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(1800));
    let out = sim.into_output();
    let true_duration = out.connections[0]
        .archive
        .last_time()
        .unwrap_or(Micros::ZERO);
    let frames = out
        .taps
        .into_iter()
        .next()
        .map(|(_, f)| f)
        .unwrap_or_default();
    Transfer {
        dataset,
        router,
        scenario,
        routes,
        stream_len,
        frames,
        true_duration,
        timer_interval,
    }
}

fn estimate_duration(
    stream_len: usize,
    profile: &RouterProfile,
    scenario: &Scenario,
    prop: Micros,
) -> Micros {
    let condition = match scenario {
        Scenario::TimerPaced { interval, quota } => {
            Micros(interval.as_micros() * (stream_len as i64 / (*quota as i64).max(1) + 1))
        }
        Scenario::SlowReceiver { rate } => Micros::from_secs_f64(stream_len as f64 / rate),
        _ => Micros::from_secs_f64(stream_len as f64 / profile.collector_rate) + prop * 40,
    };
    let paced = match profile.timer {
        Some((interval, quota)) => {
            Micros(interval.as_micros() * (stream_len as i64 / (quota as i64).max(1) + 1))
        }
        None => Micros::ZERO,
    };
    condition.max(paced).max(Micros::from_millis(50))
}

/// A full dataset's worth of transfers.
#[derive(Debug)]
pub struct Corpus {
    /// Transfers grouped by dataset (in [`Dataset::ALL`] order).
    pub transfers: Vec<Transfer>,
}

impl Corpus {
    /// Generates the full three-dataset corpus. `scale` multiplies the
    /// per-dataset transfer counts (use < 1.0 for quick runs) and
    /// `routes` is the base table size (per-transfer sizes vary ±30%
    /// around it so stretch ratios stay meaningful).
    pub fn generate(seed: u64, scale: f64, routes: usize) -> Corpus {
        let mut jobs = Vec::new();
        for dataset in Dataset::ALL {
            let count = ((dataset.transfers() as f64 * scale).round() as usize).max(4);
            let mut rng = StdRng::seed_from_u64(seed ^ dataset as u64 ^ 0xc0ffee);
            // Cycle over a router pool small enough that every router
            // gets several transfers (Fig. 4 needs >2 per pair).
            let pool = dataset.routers().min((count / 3).max(1));
            for i in 0..count {
                let router = i % pool;
                let profile = router_profile(dataset, router, seed);
                let condition = draw_condition(dataset, &mut rng, &profile);
                // Same router sends (nearly) the same table each time:
                // vary the size only slightly so Fig. 4's stretch
                // ratios compare like with like.
                let routes_i = routes + (router * 37) % (routes / 10 + 1);
                let seed_i = seed
                    .wrapping_mul(31)
                    .wrapping_add(dataset as u64)
                    .wrapping_mul(1009)
                    .wrapping_add(i as u64);
                jobs.push((dataset, router, profile, condition, routes_i, seed_i));
            }
        }
        // Generate in parallel: each transfer is an independent
        // simulation.
        let transfers = parallel_map(
            jobs,
            |(dataset, router, profile, condition, routes, seed)| {
                generate_transfer_with(dataset, router, profile, condition, routes, seed)
            },
        );
        Corpus { transfers }
    }

    /// Transfers of one dataset.
    pub fn of(&self, dataset: Dataset) -> impl Iterator<Item = &Transfer> {
        self.transfers.iter().filter(move |t| t.dataset == dataset)
    }

    /// Total frame count (for Table I's packet counts).
    pub fn frame_count(&self, dataset: Dataset) -> usize {
        self.of(dataset).map(|t| t.frames.len()).sum()
    }

    /// Total captured bytes.
    pub fn byte_count(&self, dataset: Dataset) -> u64 {
        self.of(dataset)
            .flat_map(|t| t.frames.iter())
            .map(|f| f.to_wire().len() as u64)
            .sum()
    }
}

/// Simple deterministic parallel map over a job list using scoped
/// threads (order preserved).
pub fn parallel_map<J, R, F>(jobs: Vec<J>, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    let queue = Mutex::new(jobs.into_iter().enumerate().collect::<Vec<_>>());
    // A panicking job poisons no lock (none is held while it runs); the
    // panic propagates when the scope joins.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = queue.lock().expect("never held across a job").pop();
                let Some((idx, job)) = job else { break };
                let result = f(job);
                slots.lock().expect("never held across a job")[idx] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("never held across a job")
        .into_iter()
        .map(|r| r.expect("every job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_generation_is_deterministic() {
        let a = generate_transfer(Dataset::IspAQuagga, 0, Scenario::Clean, 1000, 7);
        let b = generate_transfer(Dataset::IspAQuagga, 0, Scenario::Clean, 1000, 7);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.true_duration, b.true_duration);
        assert!(a.true_duration > Micros::ZERO);
    }

    #[test]
    fn routeviews_uses_small_window() {
        let t = generate_transfer(Dataset::RouteViews, 0, Scenario::Clean, 2000, 9);
        // Only the collector's ACKs (router listens on 179).
        let max_win = t
            .frames
            .iter()
            .filter(|f| f.is_pure_ack() && f.tcp.src_port != 179)
            .map(|f| f.tcp.window)
            .max()
            .unwrap_or(0);
        assert!(max_win <= 16_384, "RV window {max_win}");
    }

    #[test]
    fn timer_paced_transfer_takes_much_longer() {
        let clean = generate_transfer(Dataset::IspAVendor, 0, Scenario::Clean, 2000, 11);
        let paced = generate_transfer(
            Dataset::IspAVendor,
            0,
            Scenario::TimerPaced {
                interval: Micros::from_millis(200),
                quota: 4096,
            },
            2000,
            11,
        );
        assert!(
            paced.true_duration > clean.true_duration * 3,
            "paced {} vs clean {}",
            paced.true_duration,
            clean.true_duration
        );
    }

    #[test]
    fn small_corpus_generates_all_datasets() {
        let corpus = Corpus::generate(1, 0.05, 800);
        for dataset in Dataset::ALL {
            assert!(corpus.of(dataset).count() >= 4, "{dataset:?}");
            assert!(corpus.frame_count(dataset) > 0);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = parallel_map(jobs, |j| j * 2);
        assert_eq!(out, (0..100).map(|j| j * 2).collect::<Vec<_>>());
    }
}
