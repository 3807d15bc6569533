//! End-to-end property fuzz: random simulation scenarios → sniffer pcap
//! → full T-DAT analysis, checking cross-layer invariants every time.

use proptest::prelude::*;
use tdat::StreamAnalyzer;
use tdat_bgp::TableGenerator;
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{BgpReceiverConfig, SenderTimer, Simulation, TcpConfig, TcpFlavor};
use tdat_timeset::Micros;

#[derive(Debug, Clone)]
struct Params {
    routes: usize,
    seed: u64,
    rtt_ms: f64,
    upstream_loss: f64,
    recv_rate: f64,
    recv_buffer: u32,
    timer_ms: Option<i64>,
    flavor: TcpFlavor,
    sack: bool,
    wscale: u8,
}

fn arb_params() -> impl Strategy<Value = Params> {
    (
        500usize..2_500,
        any::<u64>(),
        0.5f64..40.0,
        prop_oneof![Just(0.0), 0.001f64..0.03],
        prop_oneof![Just(10_000_000.0f64), 30_000.0f64..500_000.0],
        prop_oneof![Just(65_535u32), Just(16_384u32), Just(8_192u32)],
        prop_oneof![Just(None), (50i64..500).prop_map(Some)],
        prop_oneof![
            Just(TcpFlavor::Tahoe),
            Just(TcpFlavor::Reno),
            Just(TcpFlavor::NewReno)
        ],
        any::<bool>(),
        0u8..4,
    )
        .prop_map(
            |(
                routes,
                seed,
                rtt_ms,
                upstream_loss,
                recv_rate,
                recv_buffer,
                timer_ms,
                flavor,
                sack,
                wscale,
            )| {
                Params {
                    routes,
                    seed,
                    rtt_ms,
                    upstream_loss,
                    recv_rate,
                    recv_buffer,
                    timer_ms,
                    flavor,
                    sack,
                    wscale,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_scenario_analyzes_with_invariants(p in arb_params()) {
        let stream = TableGenerator::new(p.seed)
            .routes(p.routes)
            .generate()
            .to_update_stream();
        let mut opts = TopologyOptions::default();
        opts.access.propagation = Micros::from_secs_f64(p.rtt_ms / 2.0 / 1e3);
        if p.upstream_loss > 0.0 {
            opts.access.loss = LossModel::Random { p: p.upstream_loss, seed: p.seed };
        }
        let mut topo = monitoring_topology(1, opts);
        let mut spec = transfer_spec(&topo, 0, stream);
        spec.sender_tcp = TcpConfig {
            flavor: p.flavor,
            sack: p.sack,
            window_scale: p.wscale,
            ..TcpConfig::default()
        };
        spec.receiver_tcp = TcpConfig {
            sack: p.sack,
            window_scale: p.wscale,
            recv_buffer: p.recv_buffer,
            ..TcpConfig::default()
        };
        if let Some(ms) = p.timer_ms {
            spec.sender_app.timer = Some(SenderTimer {
                interval: Micros::from_millis(ms),
                quota: 8_192,
            });
        }
        spec.receiver_app = BgpReceiverConfig {
            processing_rate: p.recv_rate,
            ..BgpReceiverConfig::default()
        };
        let mut sim = Simulation::new(topo.take_net());
        sim.add_connection(spec);
        sim.run(Micros::from_secs(1800));
        let out = sim.into_output();

        // Reliability: TCP must deliver every prefix to the collector.
        let announced: usize = out.connections[0]
            .archive
            .iter()
            .filter_map(|(_, m)| match m {
                tdat_bgp::BgpMessage::Update(u) => Some(u.announced.len()),
                _ => None,
            })
            .sum();
        prop_assert_eq!(announced, p.routes, "reliable delivery under {:?}", p);

        // Full analysis runs without panicking and with sane outputs.
        let analyses = StreamAnalyzer::default().analyze_frames(&out.taps[0].1);
        prop_assert_eq!(analyses.len(), 1);
        let a = &analyses[0];
        for (factor, ratio) in a.vector.factors {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&ratio), "{factor}: {ratio} under {:?}", p);
        }
        prop_assert!(a.period.duration() > Micros::ZERO);

        // MCT finds the complete table.
        let transfer = a.transfer.as_ref().expect("transfer detected");
        prop_assert_eq!(transfer.prefix_count, p.routes);

        // Ground-truth cross-checks: simulator retransmissions imply
        // loss labels and vice versa (sniffer-visible upstream drops
        // always leave a trace; spurious/timer cases may not map 1:1,
        // so only the zero case is checked strictly).
        let retx_truth = out.connections[0].sender_tcp_stats.retransmissions;
        let labeled = a.labels.iter().filter(|l| l.is_retransmission()).count();
        if retx_truth == 0 {
            prop_assert_eq!(labeled, 0, "no phantom retransmissions under {:?}", p);
        }
    }
}
