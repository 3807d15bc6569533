//! Fig. 17 workflow: a router paces its table transfer with an
//! undocumented implementation timer; T-DAT infers the timer value from
//! the knee of the idle-gap length distribution — for several hidden
//! timer values.
//!
//! ```text
//! cargo run --example timer_inference
//! ```

use tdat::plot::render_gap_distribution;
use tdat::StreamAnalyzer;
use tdat_bgp::TableGenerator;
use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
use tdat_tcpsim::{SenderTimer, Simulation};
use tdat_timeset::Micros;

fn main() {
    // The timer values the paper found in the wild (§IV-B).
    for &timer_ms in &[80i64, 100, 200, 400] {
        let stream = TableGenerator::new(timer_ms as u64)
            .routes(8_000)
            .generate()
            .to_update_stream();
        let mut topo = monitoring_topology(1, TopologyOptions::default());
        let mut spec = transfer_spec(&topo, 0, stream);
        spec.sender_app.timer = Some(SenderTimer {
            interval: Micros::from_millis(timer_ms),
            quota: 8192,
        });
        let mut sim = Simulation::new(topo.take_net());
        sim.add_connection(spec);
        sim.run(Micros::from_secs(900));
        let out = sim.into_output();

        let analyses = StreamAnalyzer::default().analyze_frames(&out.taps[0].1);
        let analysis = &analyses[0];
        println!("== hidden timer: {timer_ms} ms ==");
        let gaps: Vec<Micros> = analysis.series.send_app_limited.durations().collect();
        print!("{}", render_gap_distribution(&gaps, 6));
        match analysis.infer_timer(8) {
            Some(timer) => println!(
                "inferred: {:.0} ms from {} gaps ({:.1}s of induced delay)\n",
                timer.period.as_millis_f64(),
                timer.gap_count,
                timer.total_delay.as_secs_f64()
            ),
            None => println!("no repetitive timer found\n"),
        }
    }
}
