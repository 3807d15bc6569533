//! Live tap driving: step the simulator and harvest sniffer frames as
//! they are captured.
//!
//! Offline, a [`Simulation`] runs to completion and
//! yields its captures all at once via `into_output`. A *live monitor*
//! needs the opposite: traffic that trickles in over time, like a real
//! sniffer interface. [`LiveTap`] provides that by advancing the
//! simulation in fixed virtual-time steps and draining the tap after
//! each one — optionally sleeping between steps so virtual time tracks
//! wall-clock time (paced mode), or as fast as the machine allows
//! (accelerated mode, the deterministic default used by tests).

use std::time::Duration;

use tdat_packet::TcpFrame;
use tdat_timeset::Micros;

use crate::net::NodeId;
use crate::sim::Simulation;

/// Drives a [`Simulation`] incrementally and yields the frames one
/// tapped node captures, step by step.
///
/// # Examples
///
/// ```
/// use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
/// use tdat_tcpsim::{LiveTap, Simulation};
/// use tdat_timeset::Micros;
///
/// let table = tdat_bgp::TableGenerator::new(1).routes(100).generate();
/// let mut topo = monitoring_topology(1, TopologyOptions::default());
/// let spec = transfer_spec(&topo, 0, table.to_update_stream());
/// let sniffer = topo.sniffer;
/// let mut sim = Simulation::new(topo.take_net());
/// sim.add_connection(spec);
///
/// let mut tap = LiveTap::new(sim, sniffer, Micros::from_millis(100), Micros::from_secs(300));
/// let mut total = 0;
/// while let Some(frames) = tap.advance() {
///     total += frames.len();
/// }
/// assert!(total > 0, "the sniffer saw the transfer");
/// ```
#[derive(Debug)]
pub struct LiveTap {
    sim: Simulation,
    tap_node: NodeId,
    step: Micros,
    horizon: Micros,
    /// Virtual-seconds-per-wall-second pacing; `None` runs accelerated.
    pace: Option<f64>,
    /// Virtual time the driver has advanced to (the simulation's own
    /// clock lags when its event heap runs dry).
    cursor: Micros,
    finished: bool,
}

impl LiveTap {
    /// Wraps a fully configured (but not yet run) simulation. Each
    /// [`advance`](Self::advance) moves virtual time forward by `step`;
    /// the drive ends when the simulation goes quiet or `horizon`
    /// virtual time is reached.
    pub fn new(sim: Simulation, tap_node: NodeId, step: Micros, horizon: Micros) -> LiveTap {
        LiveTap {
            sim,
            tap_node,
            step: step.max(Micros(1)),
            horizon,
            pace: None,
            cursor: Micros::ZERO,
            finished: false,
        }
    }

    /// Enables wall-clock pacing: `factor` virtual seconds elapse per
    /// wall second (1.0 = real time, 10.0 = ten times faster than
    /// real time). Non-positive factors are ignored (accelerated).
    pub fn paced(mut self, factor: f64) -> LiveTap {
        self.pace = (factor > 0.0).then_some(factor);
        self
    }

    /// Virtual time the driver has advanced to.
    pub fn virtual_now(&self) -> Micros {
        self.cursor
    }

    /// Advances virtual time by one step and returns the frames the tap
    /// captured during it (often empty — sniffers see bursts). Returns
    /// `None` once the simulation has gone quiet or the horizon was
    /// reached *and* every captured frame has been handed out.
    pub fn advance(&mut self) -> Option<Vec<TcpFrame>> {
        if self.finished {
            return None;
        }
        let target = (self.cursor + self.step).min(self.horizon);
        if let Some(factor) = self.pace {
            let wall = pace_sleep(target - self.cursor, factor);
            if !wall.is_zero() {
                std::thread::sleep(wall);
            }
        }
        self.sim.run(target);
        self.cursor = target;
        if self.sim.all_quiet() || self.cursor >= self.horizon {
            self.finished = true;
        }
        Some(self.sim.take_tap_frames(self.tap_node))
    }
}

/// The wall time `step` of virtual time takes at `factor` virtual
/// seconds per wall second, clamped to what a [`Duration`] can hold: a
/// factor tiny enough to overflow it sleeps for [`Duration::MAX`].
fn pace_sleep(step: Micros, factor: f64) -> Duration {
    let wall_s = (step.as_secs_f64() / factor).max(0.0);
    Duration::try_from_secs_f64(wall_s).unwrap_or(Duration::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
    use tdat_bgp::TableGenerator;

    fn build(routes: usize) -> (Simulation, NodeId) {
        let table = TableGenerator::new(7).routes(routes).generate();
        let mut topo = monitoring_topology(1, TopologyOptions::default());
        let spec = transfer_spec(&topo, 0, table.to_update_stream());
        let sniffer = topo.sniffer;
        let mut sim = Simulation::new(topo.take_net());
        sim.add_connection(spec);
        (sim, sniffer)
    }

    #[test]
    fn stepped_drive_yields_same_frames_as_batch_run() {
        let (mut batch_sim, sniffer) = build(500);
        batch_sim.run(Micros::from_secs(300));
        let batch_frames = batch_sim.into_output().taps.remove(0).1;

        let (sim, sniffer2) = build(500);
        assert_eq!(sniffer, sniffer2);
        let mut tap = LiveTap::new(
            sim,
            sniffer,
            Micros::from_millis(50),
            Micros::from_secs(300),
        );
        let mut live_frames = Vec::new();
        let mut steps = 0usize;
        while let Some(frames) = tap.advance() {
            live_frames.extend(frames);
            steps += 1;
        }
        assert!(steps > 1, "transfer spans multiple steps");
        assert_eq!(live_frames, batch_frames);
    }

    #[test]
    fn horizon_bounds_the_drive() {
        // Horizon far shorter than the ~25 ms the 5000-route transfer
        // needs: the drive must stop at the horizon, mid-transfer.
        let (sim, sniffer) = build(5_000);
        let horizon = Micros::from_millis(5);
        let mut tap = LiveTap::new(sim, sniffer, Micros::from_millis(2), horizon);
        let mut live = 0;
        while let Some(frames) = tap.advance() {
            live += frames.len();
        }
        assert_eq!(tap.virtual_now(), horizon);
        let (mut whole, _) = build(5_000);
        whole.run(Micros::from_secs(300));
        let all = whole.into_output().taps.remove(0).1.len();
        assert!(live < all, "stopped mid-transfer: {live} of {all} frames");
    }

    #[test]
    fn pacing_sleeps_scale_and_clamp_rather_than_overflow() {
        let step = Micros::from_secs(1);
        assert_eq!(pace_sleep(step, 2.0), Duration::from_millis(500));
        assert_eq!(pace_sleep(Micros::ZERO, 1.0), Duration::ZERO);
        // 1e30 wall seconds per step is past any Duration.
        assert_eq!(pace_sleep(step, 1e-30), Duration::MAX);
    }
}
