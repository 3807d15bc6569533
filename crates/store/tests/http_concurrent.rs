//! HTTP acceptance: eight concurrent readers query a 10k-session
//! corpus over the wire while a writer keeps ingesting, and every
//! response is deterministic for the generation it ran against.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tdat_store::{synth::synth_records, Store, StoreServer};

const CORPUS: usize = 10_000;
const READERS: usize = 8;
const REQUESTS_PER_READER: usize = 25;
const PUSHES: usize = 12;
const PUSH_SIZE: usize = 50;

/// Sends one request and returns (status line, headers, body).
fn request(addr: SocketAddr, head: &str, body: &str) -> (String, HashMap<String, String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "{head}\r\nHost: test\r\nConnection: close\r\n").expect("write head");
    if body.is_empty() {
        write!(stream, "\r\n").expect("finish head");
    } else {
        write!(stream, "Content-Length: {}\r\n\r\n{body}", body.len()).expect("write body");
    }
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a head");
    let mut lines = head.split("\r\n");
    let status = lines.next().unwrap_or("").to_string();
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

#[test]
fn eight_readers_see_deterministic_rollups_during_live_ingest() {
    let dir = std::env::temp_dir().join(format!(
        "tdat-store-http-race-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(Store::create(&dir).expect("create store"));
    store.ingest(synth_records(CORPUS, 1)).expect("seed corpus");
    let server = StoreServer::bind(store.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let query = "/query?q=group+by+peer_as,bucket+bucket+1h+agg+count,mean_duration_s";
    let done = AtomicBool::new(false);
    // generation -> response body observed at that generation.
    let seen: Mutex<HashMap<u64, String>> = Mutex::new(HashMap::new());

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for push in 0..PUSHES {
                let body: String = synth_records(PUSH_SIZE, 1000 + push as u64)
                    .iter()
                    .map(|r| format!("{}\n", r.report.to_json()))
                    .collect();
                let (status, _, response) = request(
                    addr,
                    &format!("POST /ingest?source=live-{push} HTTP/1.1"),
                    &body,
                );
                assert!(status.starts_with("HTTP/1.1 200"), "{status}: {response}");
                assert!(
                    response.contains(&format!("\"ingested\":{PUSH_SIZE}")),
                    "{response}"
                );
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..READERS {
            scope.spawn(|| {
                let mut sent = 0usize;
                while sent < REQUESTS_PER_READER || !done.load(Ordering::Acquire) {
                    sent += 1;
                    let (status, headers, body) =
                        request(addr, &format!("GET {query} HTTP/1.1"), "");
                    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
                    let generation: u64 = headers
                        .get("x-store-generation")
                        .expect("generation header present")
                        .parse()
                        .expect("generation is numeric");
                    let mut total = 0u64;
                    for line in body.lines() {
                        let row = tdat::json::parse(line).expect("row is JSON");
                        total += row
                            .get("count")
                            .and_then(|v| v.as_u64())
                            .expect("row has a count");
                    }
                    assert!(
                        total >= CORPUS as u64 && total <= (CORPUS + PUSHES * PUSH_SIZE) as u64,
                        "rollup total {total} outside any valid seal boundary"
                    );
                    assert_eq!(total % PUSH_SIZE as u64, 0, "torn segment: total {total}");
                    let mut seen = seen.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(previous) = seen.get(&generation) {
                        assert_eq!(
                            previous, &body,
                            "generation {generation} produced two different bodies"
                        );
                    } else {
                        seen.insert(generation, body);
                    }
                }
            });
        }
    });

    // All pushes landed, and the final rollup accounts for every record.
    let total = CORPUS + PUSHES * PUSH_SIZE;
    let (status, _, body) = request(addr, "GET /stats HTTP/1.1", "");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(body.contains(&format!("\"records\":{total}")), "{body}");

    let generations = seen.into_inner().unwrap_or_else(|e| e.into_inner());
    assert!(
        generations.len() >= 2,
        "readers never straddled a seal boundary; the race never happened"
    );

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
