//! The ISP_A (Vendor) story (paper §II-B, Table I): a vendor bug resets
//! BGP sessions over and over, so one capture contains *many* table
//! transfers from the same router. Each reset tears the TCP connection
//! down and a new session (new ephemeral port) re-sends the whole
//! table. T-DAT picks every transfer out of the single pcap.
//!
//! ```text
//! cargo run --release --example session_reset_storm
//! ```

use tdat::StreamAnalyzer;
use tdat_bgp::TableGenerator;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{ScriptAction, Simulation};
use tdat_timeset::Micros;

fn main() {
    let table = TableGenerator::new(55).routes(6_000).generate();
    let stream = table.to_update_stream();
    let mut topo = monitoring_topology(1, TopologyOptions::default());
    let mut sim = Simulation::new(topo.take_net());

    // Five sessions from the same router, each reset ~2 s after it
    // starts (the "vendor bug"), the next one re-opening immediately.
    let sessions = 5;
    for k in 0..sessions {
        let mut spec = transfer_spec(&topo, 0, stream.clone());
        spec.receiver_addr.1 = 40_000 + k as u16;
        spec.sender_addr.1 = 52_000 + k as u16;
        spec.open_at = Micros::from_secs(3 * k as i64);
        // Pace the sender so the reset lands mid-transfer for the first
        // four sessions; the last one completes.
        spec.sender_app.timer = Some(tdat_tcpsim::SenderTimer {
            interval: Micros::from_millis(100),
            quota: 8_192,
        });
        let conn = sim.add_connection(spec);
        if k + 1 < sessions {
            sim.add_script(
                Micros::from_secs(3 * k as i64) + Micros::from_millis(700),
                ScriptAction::ResetConnection(conn),
            );
        }
    }
    sim.run(Micros::from_secs(300));
    let out = sim.into_output();
    let frames = &out.taps[0].1;
    println!("one capture, {} frames", frames.len());

    let analyses = StreamAnalyzer::default().analyze_frames(frames);
    println!("{} table transfer attempts found:", analyses.len());
    let mut complete = 0;
    for (i, analysis) in analyses.iter().enumerate() {
        let prefixes = analysis
            .transfer
            .as_ref()
            .map(|t| t.prefix_count)
            .unwrap_or(0);
        let finished = prefixes == table.len();
        if finished {
            complete += 1;
        }
        println!(
            "  session {i} (port {}): {} prefixes in {}{}{}",
            analysis.sender.1,
            prefixes,
            analysis.period.duration(),
            if analysis.profile.reset {
                ", RST seen"
            } else {
                ""
            },
            if finished {
                " — COMPLETE"
            } else {
                " — aborted by reset"
            },
        );
    }
    println!(
        "\n{complete}/{} sessions completed the transfer; the rest wasted \
         {:.1}s of collector time re-receiving the same prefixes",
        analyses.len(),
        analyses
            .iter()
            .filter(|a| a.transfer.as_ref().map(|t| t.prefix_count) != Some(table.len()))
            .map(|a| a.period.duration().as_secs_f64())
            .sum::<f64>()
    );
}
