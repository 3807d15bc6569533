//! Discrete-event network / TCP / BGP simulator.
//!
//! This crate is the trace-collection substitute of the T-DAT
//! reproduction (see `DESIGN.md`): it synthesizes the tcpdump traces the
//! paper collected at a large ISP and RouteViews. It simulates
//!
//! * a [`net::Network`] of links with bandwidth, propagation delay,
//!   drop-tail queues, stochastic or scripted loss, and sniffer taps;
//! * window-based [`tcp::TcpEndpoint`]s (Tahoe / Reno / NewReno) with
//!   delayed ACKs, RTO backoff, flow control, persist probing, and the
//!   paper's zero-window-probe bug as fault injection. What a scenario
//!   varies is a [`TcpConfig`]; the initial window (2 segments) and the
//!   timers are constants of the endpoint: a 100 ms delayed ACK, an RTO
//!   of 1 s before the first sample and within 200 ms–60 s after it,
//!   and a 5 s persist interval;
//! * BGP applications ([`bgpapp`]): a timer-paced, peer-group-aware
//!   table-transfer sender and a rate-limited collector that archives
//!   the messages it consumes as the bytes it received, validated as
//!   they are framed and decoded only when read ([`MessageArchive`]).
//!
//! The output of a [`Simulation`] run is a set of sniffer captures
//! (writable as real pcap files via `tdat-packet`) plus ground-truth
//! statistics used to validate the analyzer — T-DAT itself only ever
//! sees the pcap bytes.
//!
//! # Examples
//!
//! Run a small table transfer and capture it at the sniffer:
//!
//! ```
//! use tdat_tcpsim::scenario::{monitoring_topology, transfer_spec, TopologyOptions};
//! use tdat_tcpsim::Simulation;
//! use tdat_timeset::Micros;
//!
//! let table = tdat_bgp::TableGenerator::new(1).routes(200).generate();
//! let topo = monitoring_topology(1, TopologyOptions::default());
//! let spec = transfer_spec(&topo, 0, table.to_update_stream());
//! let mut sim = Simulation::new(topo.net);
//! sim.add_connection(spec);
//! sim.run(Micros::from_secs(300));
//! let out = sim.into_output();
//! assert!(!out.taps[0].1.is_empty(), "sniffer saw the transfer");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgpapp;
pub mod chaos;
pub mod config;
pub mod live;
pub mod net;
pub mod scenario;
pub mod sim;
pub mod tcp;

pub use bgpapp::MessageArchive;
pub use chaos::{apply_chaos, ChaosSpec, ChaosStats};
pub use config::{BgpReceiverConfig, BgpSenderConfig, SenderTimer, TcpConfig, TcpFlavor};
pub use live::LiveTap;
pub use sim::{
    ConnReport, ConnectionSpec, ScriptAction, SessionEvent, Side, SimOutput, Simulation,
};
pub use tcp::{RetxCause, RetxEvent, TcpStats};
