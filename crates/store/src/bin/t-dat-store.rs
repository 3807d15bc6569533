//! Command-line front door of the report store.
//!
//! ```text
//! t-dat-store ingest <dir> [FILE|-]... [--source NAME] [--as-map FILE]
//! t-dat-store synth  <dir> --records N [--seed S]
//! t-dat-store query  <dir> <query...>
//! t-dat-store compact <dir>
//! t-dat-store stats  <dir>
//! t-dat-store serve  <dir> --bind ADDR:PORT
//! ```
//!
//! `ingest` reads any suite surface — `t-dat --json` batch output,
//! `tdat-monitor-events/2` JSONL — from files or stdin. `--source`
//! names the batch reports; every event line names its own source.
//! Captures reach the store through the monitor's event stream:
//!
//! ```text
//! t-dat-monitor --sweep CAPTURE_DIR --events - | t-dat-store ingest <dir> -
//! ```
//!
//! `query` takes the query language documented in `tdat_store::query`
//! (the remaining arguments are joined, so shell quoting is optional).
//! `serve` runs the HTTP front-end until interrupted.

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

use tdat_store::{AsMap, JsonlIngester, Query, SessionRecord, Store, StoreServer};

fn usage(message: &str) -> ExitCode {
    if !message.is_empty() {
        eprintln!("t-dat-store: {message}");
    }
    eprintln!(
        "usage: t-dat-store <command> <dir> [options]\n\
         \n\
         commands:\n\
         \x20 ingest <dir> [FILE|-]... [--source NAME] [--as-map FILE]\n\
         \x20        (captures: t-dat-monitor --sweep DIR --events - | t-dat-store ingest <dir> -)\n\
         \x20 synth  <dir> --records N [--seed S]\n\
         \x20 query  <dir> <query...>     (e.g. 'group by peer agg count')\n\
         \x20 compact <dir>\n\
         \x20 stats  <dir>\n\
         \x20 serve  <dir> --bind ADDR:PORT"
    );
    ExitCode::from(2)
}

fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("t-dat-store: {e}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage("a command is required");
    };
    let Some(dir) = args.get(1) else {
        return usage("a store directory is required");
    };
    let rest = &args[2..];
    match command.as_str() {
        "ingest" => ingest(dir, rest),
        "synth" => synth(dir, rest),
        "query" => query(dir, rest),
        "compact" => compact(dir),
        "stats" => stats(dir),
        "serve" => serve(dir, rest),
        "--help" | "-h" => usage(""),
        other => usage(&format!("unknown command {other:?}")),
    }
}

fn take(args: &[String], i: &mut usize, what: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{what} needs a value"))
}

fn parse_num<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{what}: bad value {value:?}"))
}

fn ingest(dir: &str, args: &[String]) -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut source = String::from("ingest");
    let mut as_map_path: Option<String> = None;
    let mut i = 0usize;
    while i < args.len() {
        let result: Result<(), String> = (|| {
            match args[i].as_str() {
                "--source" => source = take(args, &mut i, "--source")?,
                "--as-map" => as_map_path = Some(take(args, &mut i, "--as-map")?),
                other if other.starts_with("--") => {
                    return Err(format!("unknown option {other}"));
                }
                file => files.push(file.to_string()),
            }
            Ok(())
        })();
        if let Err(message) = result {
            return usage(&message);
        }
        i += 1;
    }
    if files.is_empty() {
        files.push("-".to_string());
    }

    let as_map = match as_map_path {
        None => None,
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => match AsMap::parse(&text) {
                Ok(map) => Some(map),
                Err(e) => return fail(e),
            },
            Err(e) => return fail(format!("{path}: {e}")),
        },
    };

    let store = match Store::create(dir) {
        Ok(store) => store,
        Err(e) => return fail(e),
    };

    let mut records: Vec<SessionRecord> = Vec::new();
    for file in &files {
        let text = if file == "-" {
            let mut text = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut text) {
                return fail(format!("stdin: {e}"));
            }
            text
        } else {
            match std::fs::read_to_string(file) {
                Ok(text) => text,
                Err(e) => return fail(format!("{file}: {e}")),
            }
        };
        let file_source = if files.len() > 1 && file != "-" {
            file.rsplit('/').next().unwrap_or(file).to_string()
        } else {
            source.clone()
        };
        let mut ingester = JsonlIngester::new(file_source);
        match ingester.text(&text) {
            Ok(mut batch) => records.append(&mut batch),
            Err(e) => return fail(format!("{file}: {e}")),
        }
    }
    if let Some(map) = &as_map {
        for record in &mut records {
            if record.peer_as.is_none() {
                record.peer_as = map.lookup(&record.peer);
            }
        }
    }
    let count = records.len();
    match store.ingest(records) {
        Ok(meta) => {
            eprintln!(
                "t-dat-store: sealed {count} record(s) into segment covering [{}, {}]",
                meta.min_at, meta.max_at
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn synth(dir: &str, args: &[String]) -> ExitCode {
    let mut n = 10_000usize;
    let mut seed = 1u64;
    let mut i = 0usize;
    while i < args.len() {
        let result: Result<(), String> = (|| {
            match args[i].as_str() {
                "--records" => n = parse_num(&take(args, &mut i, "--records")?, "--records")?,
                "--seed" => seed = parse_num(&take(args, &mut i, "--seed")?, "--seed")?,
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })();
        if let Err(message) = result {
            return usage(&message);
        }
        i += 1;
    }
    let store = match Store::create(dir) {
        Ok(store) => store,
        Err(e) => return fail(e),
    };
    match store.ingest(tdat_store::synth::synth_records(n, seed)) {
        Ok(_) => {
            eprintln!("t-dat-store: sealed {n} synthetic record(s) (seed {seed})");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn query(dir: &str, args: &[String]) -> ExitCode {
    let text = args.join(" ");
    let query = match Query::parse(&text) {
        Ok(query) => query,
        Err(e) => return usage(&e.to_string()),
    };
    let store = match Store::open(dir) {
        Ok(store) => store,
        Err(e) => return fail(e),
    };
    match store.query(&query) {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            eprintln!(
                "t-dat-store: {} row(s); scanned {}/{} segment(s) ({} pruned), {} record(s), {} matched",
                out.lines.len(),
                out.stats.segments_scanned,
                out.stats.segments_scanned + out.stats.segments_pruned,
                out.stats.segments_pruned,
                out.stats.records_scanned,
                out.stats.records_matched
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn compact(dir: &str) -> ExitCode {
    let store = match Store::open(dir) {
        Ok(store) => store,
        Err(e) => return fail(e),
    };
    match store.compact() {
        Ok(0) => {
            eprintln!("t-dat-store: nothing to compact");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            eprintln!("t-dat-store: merged {n} segment(s) into one");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn stats(dir: &str) -> ExitCode {
    match Store::open(dir) {
        Ok(store) => {
            let s = store.stats();
            println!(
                "{{\"segments\":{},\"records\":{},\"generation\":{}}}",
                s.segments, s.records, s.generation
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn serve(dir: &str, args: &[String]) -> ExitCode {
    let mut bind = String::from("127.0.0.1:7890");
    let mut i = 0usize;
    while i < args.len() {
        let result: Result<(), String> = (|| {
            match args[i].as_str() {
                "--bind" => bind = take(args, &mut i, "--bind")?,
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })();
        if let Err(message) = result {
            return usage(&message);
        }
        i += 1;
    }
    let store = match Store::open(dir) {
        Ok(store) => Arc::new(store),
        Err(e) => return fail(e),
    };
    let server = match StoreServer::bind(store, &bind) {
        Ok(server) => server,
        Err(e) => return fail(e),
    };
    eprintln!("t-dat-store: serving on http://{}/", server.addr());
    // Serve until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
