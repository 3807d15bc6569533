//! The HTTP server refuses a query the language refuses, with the
//! parser's message, and keeps serving: a bucket width that rounds to
//! no microsecond or past what trace time holds is a 400 naming the bad
//! width, and a good query after it on the same server is a 200.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use tdat_store::{synth::synth_records, Store, StoreServer};

/// Sends `GET path` and returns (status line, body).
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a head");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

#[test]
fn bucket_widths_no_trace_time_holds_are_a_400_and_the_server_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("tdat-store-http-query-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(Store::create(&dir).expect("create store"));
    store.ingest(synth_records(200, 1)).expect("seed corpus");
    let server = StoreServer::bind(store, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    for width in ["1e-9s", "1e300d"] {
        let path = format!("/query?q=group+by+bucket+bucket+{width}+agg+count");
        let (status, body) = get(addr, &path);
        assert!(
            status.starts_with("HTTP/1.1 400"),
            "{width}: {status}: {body}"
        );
        assert!(body.contains("bad bucket width"), "{width}: {body}");
    }
    let (status, body) = get(addr, "/query?q=group+by+bucket+bucket+1h+agg+count");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}: {body}");
    assert!(body.contains("\"bucket_s\":3600"), "{body}");

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
