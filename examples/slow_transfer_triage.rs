//! Operator triage workflow (paper §IV-A): several table transfers with
//! different hidden problems arrive as pcap captures; T-DAT reports,
//! for each, *where* the time went and which group of causes is major.
//!
//! ```text
//! cargo run --example slow_transfer_triage
//! ```

use tdat::{FactorGroup, StreamAnalyzer};
use tdat_bgp::TableGenerator;
use tdat_tcpsim::net::LossModel;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{BgpReceiverConfig, SenderTimer, Simulation, TcpConfig};
use tdat_timeset::{Micros, Span};

struct Case {
    name: &'static str,
    truth: &'static str, // the hidden truth, revealed at the end
    frames: Vec<tdat_packet::TcpFrame>,
}

fn run_case(
    name: &'static str,
    truth: &'static str,
    topo_opts: TopologyOptions,
    configure: impl FnOnce(&mut tdat_tcpsim::ConnectionSpec),
) -> Case {
    let stream = TableGenerator::new(7)
        .routes(10_000)
        .generate()
        .to_update_stream();
    let mut topo = monitoring_topology(1, topo_opts);
    let mut spec = transfer_spec(&topo, 0, stream);
    configure(&mut spec);
    let mut sim = Simulation::new(topo.take_net());
    sim.add_connection(spec);
    sim.run(Micros::from_secs(900));
    Case {
        name,
        truth,
        frames: sim.into_output().taps.remove(0).1,
    }
}

fn main() {
    let cases = vec![
        run_case(
            "router-7",
            "hidden 200 ms quota timer in the sender implementation",
            TopologyOptions::default(),
            |spec| {
                spec.sender_app.timer = Some(SenderTimer {
                    interval: Micros::from_millis(200),
                    quota: 8192,
                });
            },
        ),
        run_case(
            "router-12",
            "overloaded collector draining at 40 kB/s",
            TopologyOptions::default(),
            |spec| {
                spec.receiver_app = BgpReceiverConfig {
                    processing_rate: 40_000.0,
                    ..BgpReceiverConfig::default()
                };
            },
        ),
        run_case(
            "router-19",
            "16 kB receive buffer over a 40 ms path (RouteViews-style)",
            {
                let mut t = TopologyOptions::default();
                t.access.propagation = Micros::from_millis(20);
                t
            },
            |spec| {
                spec.receiver_tcp = TcpConfig {
                    recv_buffer: 16_384,
                    ..TcpConfig::default()
                };
            },
        ),
        run_case(
            "router-23",
            "drop burst on the collector interface 10–40 ms into the transfer",
            {
                let mut t = TopologyOptions::default();
                t.last_hop.loss = LossModel::Burst(vec![Span::new(
                    Micros::from_millis(10),
                    Micros::from_millis(40),
                )]);
                t
            },
            |_| {},
        ),
    ];

    let engine = StreamAnalyzer::default();
    for case in &cases {
        let analyses = engine.analyze_frames(&case.frames);
        let analysis = &analyses[0];
        let v = &analysis.vector;
        println!(
            "=== {} — transfer took {}",
            case.name,
            analysis.period.duration()
        );
        println!(
            "    sender {:.0}%  receiver {:.0}%  network {:.0}%",
            v.sender * 100.0,
            v.receiver * 100.0,
            v.network * 100.0
        );
        let majors = v.major_groups(0.3);
        if majors.is_empty() {
            println!("    no major factor group (transfer looks healthy)");
        }
        for group in majors {
            println!(
                "    MAJOR: {group}-limited, dominated by `{}`",
                v.dominant_factor_in(group)
            );
        }
        if let Some(timer) = analysis.infer_timer(8) {
            println!(
                "    ... and a repetitive ~{:.0} ms sender timer explains {:.1}s",
                timer.period.as_millis_f64(),
                timer.total_delay.as_secs_f64()
            );
        }
        let losses = analysis.consecutive_losses(engine.analyzer().config());
        for ep in &losses {
            println!(
                "    ... consecutive-loss episode: {} retransmissions over {}",
                ep.retransmissions,
                ep.span.duration()
            );
        }
        println!("    (ground truth: {})\n", case.truth);
    }
    let _ = FactorGroup::ALL;
}
