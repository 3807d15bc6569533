//! Supervised-runtime end-to-end tests: a source that dies mid-window
//! under an injected fault must resurrect (byte-deterministically, for
//! a fixed fault schedule) without disturbing its healthy sibling; a
//! source whose outage outlives the retry budget must fail terminally
//! without killing the watch — each byte-identically on the inline data
//! plane and on 2 and 4 worker lanes; and a watch restarted with
//! `--resume` must append exactly the lines the crashed incarnation
//! never wrote.

use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tdat_monitor::{Monitor, MonitorConfig, MonitorEvent, MonitorMetrics, SourceSet, SourceSpec};
use tdat_packet::{write_pcap_file, FrameBuilder, TcpFlags, TcpFrame, TcpOption};
use tdat_timeset::faultpoint::FaultPlan;
use tdat_timeset::Micros;

/// Handshake then `n` MSS data/ACK exchanges between `a` and `b`,
/// starting at `base` and spaced 1.5 ms apart.
fn transfer(a: Ipv4Addr, b: Ipv4Addr, base: i64, n: usize) -> Vec<TcpFrame> {
    let mut frames = Vec::new();
    let mut t = base;
    frames.push(
        FrameBuilder::new(a, b)
            .at(Micros(t))
            .ports(179, 40000)
            .seq(0)
            .flags(TcpFlags::SYN)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
    );
    t += 100;
    frames.push(
        FrameBuilder::new(b, a)
            .at(Micros(t))
            .ports(40000, 179)
            .seq(0)
            .ack_to(1)
            .flags(TcpFlags::SYN | TcpFlags::ACK)
            .option(TcpOption::Mss(1448))
            .window(65535)
            .build(),
    );
    let mut seq = 1u32;
    for _ in 0..n {
        t += 1_000;
        frames.push(
            FrameBuilder::new(a, b)
                .at(Micros(t))
                .ports(179, 40000)
                .seq(seq)
                .ack_to(1)
                .payload(vec![0xab; 1448])
                .build(),
        );
        seq = seq.wrapping_add(1448);
        t += 500;
        frames.push(
            FrameBuilder::new(b, a)
                .at(Micros(t))
                .ports(40000, 179)
                .seq(1)
                .ack_to(seq)
                .window(65535)
                .build(),
        );
    }
    frames
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tdat-supervision-{tag}-{}", std::process::id()))
}

fn follow_static(path: &Path) -> SourceSpec {
    SourceSpec::follow(path)
        .with_exit_idle(Duration::ZERO)
        .with_idle_from_open()
}

fn config(shards: usize) -> MonitorConfig {
    MonitorConfig::builder()
        .window(Micros::from_secs(60))
        .interval(Micros::from_secs(1))
        .pending_backoff(Duration::from_millis(1))
        .shards(shards)
        .build()
        .expect("valid config")
}

/// What one supervised watch produced.
struct Watch {
    /// The v2 stream.
    stream: String,
    events: Vec<MonitorEvent>,
    /// Sources the set declared terminally failed.
    failed: usize,
    metrics: MonitorMetrics,
}

/// One two-source watch over static files `a`/`b` named "a"/"b", with
/// an optional fault schedule and a reopen budget of `retries`.
fn watch(a: &Path, b: &Path, faults: Option<&str>, retries: u32, shards: usize) -> Watch {
    let plan = match faults {
        Some(spec) => FaultPlan::parse(spec, 7).expect("spec parses"),
        None => FaultPlan::disabled(),
    };
    let mut set = SourceSet::builder()
        .named("a", follow_static(a))
        .named("b", follow_static(b))
        .retry(retries, Duration::from_millis(1))
        .faults(plan)
        .build()
        .expect("sources open");
    let mut monitor = Monitor::new(config(shards));
    let events = monitor.run_set(&mut set);
    let mut stream = String::new();
    for event in &events {
        stream.push_str(&event.to_json());
        stream.push('\n');
    }
    Watch {
        stream,
        events,
        failed: set.failures().len(),
        metrics: monitor.metrics().clone(),
    }
}

fn source_of(event: &MonitorEvent) -> &str {
    match event {
        MonitorEvent::Alert(a) => &a.source,
        MonitorEvent::Connection(c) => &c.source,
        MonitorEvent::SourceDown(d) => &d.source,
        MonitorEvent::SourceUp(u) => &u.source,
    }
}

fn write_fleet(a: &Path, b: &Path) {
    write_pcap_file(
        a,
        &transfer(
            Ipv4Addr::new(10, 5, 0, 1),
            Ipv4Addr::new(10, 5, 0, 2),
            0,
            40,
        ),
    )
    .expect("scratch pcap");
    write_pcap_file(
        b,
        &transfer(
            Ipv4Addr::new(10, 6, 0, 1),
            Ipv4Addr::new(10, 6, 0, 2),
            700,
            40,
        ),
    )
    .expect("scratch pcap");
}

#[test]
fn a_flapping_source_resurrects_deterministically_without_disturbing_its_sibling() {
    let a_path = scratch("flap-a.pcap");
    let b_path = scratch("flap-b.pcap");
    write_fleet(&a_path, &b_path);

    // b's second poll dies with a transient (injected) I/O error; the
    // set reopens it after the 1 ms backoff and resumes at the released
    // watermark, replaying nothing into the merge.
    let schedule = "source.poll:b@hit=2";
    let first = watch(&a_path, &b_path, Some(schedule), 3, 1);
    let second = watch(&a_path, &b_path, Some(schedule), 3, 1);
    let baseline = watch(&a_path, &b_path, None, 3, 1);
    let sharded = [2, 4].map(|shards| {
        (
            watch(&a_path, &b_path, Some(schedule), 3, shards).stream,
            watch(&a_path, &b_path, None, 3, shards).stream,
        )
    });
    let _ = std::fs::remove_file(&a_path);
    let _ = std::fs::remove_file(&b_path);

    assert_eq!(
        first.stream, second.stream,
        "a fixed fault schedule must replay byte-identically"
    );
    for (flapped, clean) in &sharded {
        assert_eq!(flapped, &first.stream, "worker lanes changed the flap");
        assert_eq!(clean, &baseline.stream, "worker lanes changed the baseline");
    }
    let (events, baseline_events) = (&first.events, &baseline.events);

    // The outage surfaces as a paired down/up on b, in that order.
    let lifecycle: Vec<(&str, &str)> = events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::SourceDown(d) => Some(("down", &*d.source)),
            MonitorEvent::SourceUp(u) => Some(("up", &*u.source)),
            _ => None,
        })
        .collect();
    assert_eq!(lifecycle, vec![("down", "b"), ("up", "b")]);
    let up = events
        .iter()
        .find_map(|e| match e {
            MonitorEvent::SourceUp(u) => Some(u),
            _ => None,
        })
        .expect("b recovered");
    assert_eq!(up.attempts, 1, "first retry succeeded");

    // Stripping the lifecycle lines must give back the no-fault run
    // exactly: the healthy source is untouched and the flapped source
    // loses and duplicates nothing.
    let stripped: Vec<String> = events
        .iter()
        .filter(|e| !matches!(e, MonitorEvent::SourceDown(_) | MonitorEvent::SourceUp(_)))
        .map(|e| e.to_json())
        .collect();
    let expected: Vec<String> = baseline_events.iter().map(|e| e.to_json()).collect();
    assert_eq!(stripped, expected, "baseline:\n{}", baseline.stream);
    assert!(
        baseline_events.iter().any(|e| source_of(e) == "a"),
        "the healthy source produced events at all"
    );
}

#[test]
fn an_outage_that_outlives_the_retry_budget_fails_terminally_not_fatally() {
    let a_path = scratch("budget-a.pcap");
    let b_path = scratch("budget-b.pcap");
    write_fleet(&a_path, &b_path);

    let outage = "source.poll:b@always";
    let Watch {
        stream,
        events,
        failed,
        metrics,
    } = watch(&a_path, &b_path, Some(outage), 2, 1);
    let sharded = [2, 4].map(|shards| watch(&a_path, &b_path, Some(outage), 2, shards).stream);
    let _ = std::fs::remove_file(&a_path);
    let _ = std::fs::remove_file(&b_path);
    for other in &sharded {
        assert_eq!(other, &stream, "worker lanes changed the outage");
    }

    // b burned its whole budget and was declared terminally failed...
    assert_eq!(failed, 1);
    let gave_up = events.iter().any(|e| match e {
        MonitorEvent::SourceDown(d) => {
            d.source.as_ref() == "b" && d.detail.contains("gave up after 2 reopen attempts")
        }
        _ => false,
    });
    assert!(gave_up, "terminal failure must name the exhausted budget");
    // ...while the watch completed and the healthy source reported.
    assert!(events.iter().any(|e| matches!(
        e,
        MonitorEvent::Connection(c) if c.source.as_ref() == "a"
    )));
    assert_eq!(metrics.source_failures(), 1);
}

/// Drives the real binary: a full uninterrupted run, then a simulated
/// crash (the events file cut mid-line, no checkpoint yet) resumed with
/// `--resume`, must converge on byte-identical output.
#[test]
fn resume_after_a_torn_crash_reproduces_the_uninterrupted_stream() {
    let capture = scratch("resume.pcap");
    let mut frames = Vec::new();
    for i in 0..6u8 {
        frames.extend(transfer(
            Ipv4Addr::new(10, 9, i, 1),
            Ipv4Addr::new(10, 9, i, 2),
            i as i64 * 2_500_000,
            25,
        ));
    }
    frames.sort_by_key(|f| f.timestamp);
    write_pcap_file(&capture, &frames).expect("scratch pcap");

    let full = scratch("resume-full.jsonl");
    let resumed = scratch("resume-partial.jsonl");
    let ckpt = scratch("resume.ckpt");
    let run = |events: &Path, extra: &[&str]| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_t-dat-monitor"));
        cmd.arg("--follow")
            .arg(&capture)
            .args(["--exit-idle", "0.05", "--window", "60", "--interval", "1"])
            .arg("--events")
            .arg(events)
            .arg("--checkpoint")
            .arg(&ckpt)
            .args(extra);
        let out = cmd.output().expect("binary runs");
        assert!(
            out.status.success(),
            "t-dat-monitor failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };

    let _ = std::fs::remove_file(&ckpt);
    run(&full, &[]);
    let reference = std::fs::read(&full).expect("baseline stream");
    let newlines: Vec<usize> = reference
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i))
        .collect();
    assert!(newlines.len() >= 5, "stream too short to cut meaningfully");

    // Crash mid-write: keep 3 complete lines plus half of the fourth.
    let cut = newlines[2] + 1 + (newlines[3] - newlines[2]) / 2;
    std::fs::write(&resumed, &reference[..cut]).expect("torn copy");
    let _ = std::fs::remove_file(&ckpt);
    run(&resumed, &["--resume"]);

    let stitched = std::fs::read(&resumed).expect("resumed stream");
    assert_eq!(
        stitched, reference,
        "resumed stream must be byte-identical to the uninterrupted run"
    );
    // The final checkpoint agrees with the stream it described.
    let cp = tdat_monitor::Checkpoint::load(&ckpt).expect("final checkpoint written");
    assert_eq!(
        cp.events_emitted as usize,
        newlines.len() - 1,
        "meta line excluded"
    );
    assert_eq!(cp.sources.len(), 1);
    let _ = std::fs::remove_file(&capture);
    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&resumed);
    let _ = std::fs::remove_file(&ckpt);
}
