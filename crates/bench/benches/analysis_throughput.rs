//! End-to-end throughput: how fast a connection trace moves through the
//! pipeline. The paper's Perl prototype averaged 26 s per connection
//! (§V-C); these benches record the equivalent figure per stage and for
//! the whole analysis.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tdat::Analyzer;
use tdat_bench::{generate_transfer, Dataset, Scenario};
use tdat_packet::{PcapReader, PcapWriter, TcpFrame};
use tdat_timeset::Micros;

fn transfer_frames() -> Vec<TcpFrame> {
    // A mid-size transfer with loss episodes (the interesting case for
    // labeling cost).
    generate_transfer(
        Dataset::IspAQuagga,
        0,
        Scenario::DownstreamBurst { at: 0.3, len: 0.08 },
        20_000,
        4_242,
    )
    .frames
}

fn bench_pipeline(c: &mut Criterion) {
    let frames = transfer_frames();
    let wire_bytes: u64 = frames.iter().map(|f| f.to_wire().len() as u64 + 16).sum();

    // pcap encode/decode throughput.
    let mut pcap = Vec::new();
    {
        let mut w = PcapWriter::new(&mut pcap).unwrap();
        for f in &frames {
            w.write_frame(f).unwrap();
        }
    }
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Bytes(wire_bytes));
    group.bench_function("pcap_write", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(pcap.len());
            let mut w = PcapWriter::new(&mut buf).unwrap();
            for f in &frames {
                w.write_frame(f).unwrap();
            }
            black_box(buf)
        })
    });
    group.bench_function("pcap_read", |b| {
        b.iter(|| black_box(PcapReader::new(&pcap[..]).unwrap().read_all().unwrap()))
    });
    group.bench_function("extract_connections", |b| {
        b.iter(|| black_box(tdat_trace::extract_connections(&frames)))
    });
    let conns = tdat_trace::extract_connections(&frames);
    group.bench_function("label_segments", |b| {
        b.iter(|| {
            black_box(tdat_trace::label_segments(
                &conns[0],
                &tdat_trace::LabelConfig::default(),
            ))
        })
    });
    group.bench_function("pcap2bgp_extract", |b| {
        b.iter(|| black_box(tdat_pcap2bgp::extract_from_frames(&conns[0], &frames)))
    });
    group.bench_function("mct", |b| {
        let updates = tdat_pcap2bgp::extract_from_frames(&conns[0], &frames).updates();
        b.iter(|| {
            black_box(tdat_bgp::find_transfer_end(
                Micros::ZERO,
                &updates,
                &tdat_bgp::MctConfig::default(),
            ))
        })
    });
    group.bench_function("analyze_full", |b| {
        let analyzer = Analyzer::default();
        b.iter(|| black_box(analyzer.analyze_frames(&frames)))
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    // Cost of synthesizing one table transfer (corpus generation).
    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    group.bench_function("clean_transfer_8k_routes", |b| {
        b.iter(|| {
            black_box(generate_transfer(
                Dataset::IspAQuagga,
                0,
                Scenario::Clean,
                8_000,
                77,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_simulation);
criterion_main!(benches);
