//! `t-dat` — the command-line TCP delay analyzer (paper Table VI).
//!
//! ```text
//! t-dat <trace.pcap> [--json] [--plot] [--tsplot] [--series]
//!       [--threshold 0.3] [--shards N]
//! ```
//!
//! Runs a pcap capture of BGP sessions through the [`StreamAnalyzer`]
//! engine — one serial pass that tracks, reassembles and analyzes each
//! connection on the calling thread — identifies each connection's
//! table transfer, and prints the delay-factor report; `--plot` adds
//! the BGPlot square-wave view and `--series` lists every series with
//! its delay ratio. `--shards N` (N ≥ 2) partitions the same pass: the
//! capture is memory-mapped, frames are block-decoded straight out of
//! the mapping, and connections are fanned out to `N` persistent
//! worker lanes by connection hash — output is byte-identical to the
//! serial run.

use std::io::{self, Write};
use std::process::ExitCode;

use tdat::{Analysis, Analyzer, StreamAnalyzer, StreamOptions, TrackerConfig};

const USAGE: &str = "usage: t-dat <trace.pcap> [--json] [--plot] [--tsplot] [--series] \
                     [--threshold 0.3] [--shards N]
  --shards N   split the capture across N worker lanes (0 or 1: serial, the default);
               byte-identical output; measured slower than serial on a 2-core host,
               see benchmark/README.md";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut plot = false;
    let mut tsplot = false;
    let mut json = false;
    let mut series = false;
    let mut threshold = 0.3f64;
    let mut shards = 0usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--plot" => plot = true,
            "--tsplot" => tsplot = true,
            "--json" => json = true,
            "--series" => series = true,
            "--threshold" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--threshold needs a number in (0, 1)");
                    return ExitCode::from(2);
                };
                threshold = v;
            }
            "--shards" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--shards needs a lane count (0 or 1 = serial)");
                    return ExitCode::from(2);
                };
                shards = v;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let config = match tdat::AnalyzerConfig::builder()
        .major_threshold(threshold)
        .build()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("t-dat: {e}");
            return ExitCode::from(2);
        }
    };
    let engine = StreamAnalyzer::with_options(
        config,
        StreamOptions {
            // The CLI reports on the whole capture, so hold every
            // connection to its last frame like the batch path.
            tracker: TrackerConfig::batch(),
            shards,
            ..Default::default()
        },
    );
    let analyzer = engine.analyzer();
    let analyses = match engine.analyze_pcap(&path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("t-dat: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if analyses.is_empty() {
        eprintln!("t-dat: {path}: no TCP connections found");
        return ExitCode::FAILURE;
    }
    // One locked, buffered stdout for the whole report. A reader that
    // goes away early (`t-dat … | head`) is not an error of ours.
    let mut out = io::BufWriter::new(io::stdout().lock());
    let show = Show {
        json,
        plot,
        tsplot,
        series,
        threshold,
    };
    match write_report(&mut out, &analyses, analyzer, &show).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("t-dat: stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the command line asked to see.
struct Show {
    json: bool,
    plot: bool,
    tsplot: bool,
    series: bool,
    threshold: f64,
}

fn write_report(
    out: &mut impl Write,
    analyses: &[Analysis],
    analyzer: &Analyzer,
    show: &Show,
) -> io::Result<()> {
    if show.json {
        write!(out, "[")?;
        for (i, analysis) in analyses.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            let report = tdat::Report::from_analysis(analysis, analyzer.config());
            write!(out, "{}", report.to_json())?;
        }
        return writeln!(out, "]");
    }
    // Cross-connection check: peer-group blocking between sessions of
    // the same router.
    for (blocked, faulty, incidents) in
        tdat::find_peer_group_blocking_all(analyses, tdat_timeset::Micros::from_secs(60))
    {
        for incident in incidents {
            writeln!(
                out,
                "WARNING: connection {blocked} paused {} while connection {faulty} was failing \
                 (peer-group blocking signature)",
                incident.pause.duration()
            )?;
        }
    }
    for (i, analysis) in analyses.iter().enumerate() {
        writeln!(
            out,
            "connection {i}: {}:{} -> {}:{}",
            analysis.sender.0, analysis.sender.1, analysis.receiver.0, analysis.receiver.1
        )?;
        match &analysis.transfer {
            Some(t) => writeln!(
                out,
                "  table transfer: {} updates / {} prefixes, duration {}",
                t.update_count,
                t.prefix_count,
                t.duration()
            )?,
            None => writeln!(
                out,
                "  (no BGP table transfer identified; analyzing whole capture)"
            )?,
        }
        if let Some(rtt) = analysis.profile.rtt {
            writeln!(out, "  rtt {rtt}, mss {:?}", analysis.profile.mss)?;
        }
        writeln!(
            out,
            "  delay ratios: sender {:.3}  receiver {:.3}  network {:.3}",
            analysis.vector.sender, analysis.vector.receiver, analysis.vector.network
        )?;
        for group in analysis.vector.major_groups(show.threshold) {
            writeln!(
                out,
                "  MAJOR {group}-limited (dominant factor: {})",
                analysis.vector.dominant_factor_in(group)
            )?;
        }
        if let Some(timer) = analysis.infer_timer(8) {
            writeln!(
                out,
                "  repetitive sender timer: ~{:.0} ms ({} gaps, {:.2}s induced)",
                timer.period.as_millis_f64(),
                timer.gap_count,
                timer.total_delay.as_secs_f64()
            )?;
        }
        for ep in analysis.consecutive_losses(analyzer.config()) {
            writeln!(
                out,
                "  consecutive losses: {} retransmissions over {}",
                ep.retransmissions,
                ep.span.duration()
            )?;
        }
        if analysis.zero_ack_bug().is_some() {
            writeln!(
                out,
                "  WARNING: zero-window + upstream-loss conflict (ZeroAckBug signature)"
            )?;
        }
        if let Some(race) = analysis.delayed_ack_interaction() {
            writeln!(
                out,
                "  WARNING: {} spurious retransmission(s) outside loss episodes \
                 (delayed-ACK / RTO race)",
                race.count
            )?;
        }
        if show.series {
            writeln!(out, "  series (ratio of analysis period):")?;
            for (name, set) in analysis.series.named() {
                let ratio = set.ratio(analysis.period);
                if ratio > 0.0 {
                    writeln!(out, "    {name:<18} {ratio:.3}")?;
                }
            }
        }
        if show.plot {
            writeln!(out, "{}", analysis.plot(100))?;
        }
        if show.tsplot {
            writeln!(
                out,
                "{}",
                tdat::plot::render_analysis_time_sequence(analysis, 100, 24)
            )?;
        }
    }
    Ok(())
}
