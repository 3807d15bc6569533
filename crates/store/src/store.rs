//! The on-disk store: an append-only directory of immutable segments
//! plus a JSONL `MANIFEST`, with snapshot-isolated concurrent readers.
//!
//! # Concurrency & visibility
//!
//! The store keeps exactly one mutable thing: an
//! `RwLock<Arc<Snapshot>>` holding the *current* segment list. Readers
//! clone the `Arc` (microseconds, no I/O) and then run entirely on
//! immutable data — a query never takes a lock while scanning, and
//! ingest never waits for readers. New records become visible
//! **atomically at segment-seal boundaries**: [`Store::ingest`] writes
//! and syncs the segment file, appends its manifest line, and only
//! then swaps the snapshot. A reader holding the old snapshot simply
//! keeps seeing the old segment list until its next query.
//!
//! # Durability & crash safety
//!
//! The manifest is the source of truth: a segment file not (yet)
//! named by the manifest does not exist as far as [`Store::open`] is
//! concerned, so a crash between file write and manifest append
//! leaves a harmlessly orphaned file, never a torn store. Segment
//! files are fsynced — and their directory entry fsynced — *before*
//! the manifest line naming them is appended, so a durable manifest
//! never references a missing segment. [`Store::compact`] rewrites
//! the manifest via temp-file + fsync + rename (atomic on POSIX) +
//! directory fsync, swaps the snapshot, then deletes the merged
//! segment files — readers holding the old snapshot keep their
//! (already decoded, `Arc`-shared) segments alive in memory.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use tdat::json::{self, JsonValue};
use tdat_timeset::atomicfile;
use tdat_timeset::faultpoint::FaultPlan;

use crate::query::{Query, QueryOutput};
use crate::record::SessionRecord;
use crate::segment::{decode_segment, encode_segment, Segment};
use crate::StoreError;

/// Manifest schema identifier.
pub const MANIFEST_SCHEMA: &str = "tdat-store/1";

const MANIFEST: &str = "MANIFEST";

/// An immutable view of the store at one seal boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The visible segments, in manifest order.
    pub segments: Vec<Arc<Segment>>,
    /// Monotonic seal counter (bumps on every ingest and compaction).
    pub generation: u64,
}

impl Snapshot {
    /// Total records across all visible segments.
    pub fn records(&self) -> usize {
        self.segments.iter().map(|s| s.meta.records).sum()
    }
}

/// Shape summary for `stats` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Visible segments.
    pub segments: usize,
    /// Total records.
    pub records: usize,
    /// Snapshot generation.
    pub generation: u64,
}

#[derive(Debug)]
struct Writer {
    next_seq: u64,
}

/// The report store. Cheap to share behind an `Arc`; all methods take
/// `&self`.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    writer: Mutex<Writer>,
    snapshot: RwLock<Arc<Snapshot>>,
    faults: FaultPlan,
}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(path.display().to_string(), e)
}

fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:06}.tds")
}

/// Fsyncs a directory so freshly created/renamed entries inside it
/// survive a crash. No-op on platforms where directories cannot be
/// opened for syncing.
fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        let f = fs::File::open(dir).map_err(|e| io_err(dir, e))?;
        f.sync_all().map_err(|e| io_err(dir, e))?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

impl Store {
    /// Creates a new store directory (or adopts an existing empty
    /// directory), writing the manifest header.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let manifest = dir.join(MANIFEST);
        if manifest.exists() {
            return Store::open(dir);
        }
        let mut header = String::new();
        header.push('{');
        json::push_str_field(&mut header, "type", "store", false);
        json::push_str_field(&mut header, "schema", MANIFEST_SCHEMA, true);
        header.push_str("}\n");
        fs::write(&manifest, header).map_err(|e| io_err(&manifest, e))?;
        Ok(Store {
            dir,
            writer: Mutex::new(Writer { next_seq: 1 }),
            snapshot: RwLock::new(Arc::new(Snapshot {
                segments: Vec::new(),
                generation: 0,
            })),
            faults: FaultPlan::disabled(),
        })
    }

    /// Opens an existing store, loading (and checksum-verifying) every
    /// manifest-listed segment.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST);
        let text = fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
        let mut segments = Vec::new();
        let mut next_seq = 1u64;
        let mut saw_header = false;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value = json::parse(line).map_err(|e| StoreError::Corrupt {
                file: manifest_path.display().to_string(),
                detail: format!("line {}: {e}", lineno + 1),
            })?;
            let corrupt = |detail: String| StoreError::Corrupt {
                file: manifest_path.display().to_string(),
                detail: format!("line {}: {detail}", lineno + 1),
            };
            match value.get("type").and_then(JsonValue::as_str) {
                Some("store") => {
                    let schema = value.get("schema").and_then(JsonValue::as_str);
                    if schema != Some(MANIFEST_SCHEMA) {
                        return Err(corrupt(format!("unsupported schema {schema:?}")));
                    }
                    saw_header = true;
                }
                Some("segment") => {
                    let file = value
                        .get("file")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| corrupt("segment line has no file".to_string()))?;
                    if file.contains('/') || file.contains("..") {
                        return Err(corrupt(format!("suspicious segment path {file:?}")));
                    }
                    let path = dir.join(file);
                    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
                    let segment = decode_segment(&bytes, file)?;
                    // seg-NNNNNN.tds → keep next_seq past it.
                    if let Some(seq) = file
                        .strip_prefix("seg-")
                        .and_then(|s| s.strip_suffix(".tds"))
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        next_seq = next_seq.max(seq + 1);
                    }
                    segments.push(Arc::new(segment));
                }
                other => return Err(corrupt(format!("unknown manifest line type {other:?}"))),
            }
        }
        if !saw_header {
            return Err(StoreError::Corrupt {
                file: manifest_path.display().to_string(),
                detail: "missing store header line".to_string(),
            });
        }
        let generation = segments.len() as u64;
        Ok(Store {
            dir,
            writer: Mutex::new(Writer { next_seq }),
            snapshot: RwLock::new(Arc::new(Snapshot {
                segments,
                generation,
            })),
            faults: FaultPlan::disabled(),
        })
    }

    /// Attaches a fault-injection plan covering the durability
    /// boundaries: `store.segment.sync` before a sealed segment's
    /// fsync, and the `atomic.*` points inside the compaction's
    /// manifest replacement (see [`atomicfile::replace_file`]). Call
    /// before sharing the store; injected failures surface as ordinary
    /// I/O errors and never corrupt what is already durable.
    pub fn with_faults(mut self, faults: FaultPlan) -> Store {
        self.faults = faults;
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current snapshot. Cheap; the returned `Arc` stays valid (and
    /// immutable) regardless of concurrent ingest or compaction.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Shape summary of the current snapshot.
    pub fn stats(&self) -> StoreStats {
        let snap = self.snapshot();
        StoreStats {
            segments: snap.segments.len(),
            records: snap.records(),
            generation: snap.generation,
        }
    }

    fn swap_snapshot(&self, segments: Vec<Arc<Segment>>) {
        let mut guard = self.snapshot.write().unwrap_or_else(|e| e.into_inner());
        let generation = guard.generation + 1;
        *guard = Arc::new(Snapshot {
            segments,
            generation,
        });
    }

    fn manifest_segment_line(file: &str, segment: &Segment) -> String {
        let mut line = String::with_capacity(160);
        line.push('{');
        json::push_str_field(&mut line, "type", "segment", false);
        json::push_str_field(&mut line, "file", file, true);
        json::push_raw_field(&mut line, "records", segment.meta.records, true);
        json::push_raw_field(
            &mut line,
            "min_at_us",
            segment.meta.min_at.as_micros(),
            true,
        );
        json::push_raw_field(
            &mut line,
            "max_at_us",
            segment.meta.max_at.as_micros(),
            true,
        );
        json::push_str_array_field(&mut line, "sources", &segment.meta.sources, true);
        json::push_str_array_field(&mut line, "verdicts", &segment.meta.verdicts, true);
        line.push('}');
        line
    }

    /// Seals `records` into one new segment and makes it visible.
    /// Returns the sealed segment's zone map. Ingesting an empty batch
    /// is a no-op.
    pub fn ingest(
        &self,
        records: Vec<SessionRecord>,
    ) -> Result<crate::segment::SegmentMeta, StoreError> {
        if records.is_empty() {
            return Ok(crate::segment::SegmentMeta::of(&[]));
        }
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let seq = writer.next_seq;
        writer.next_seq += 1;
        let file = segment_file_name(seq);
        let path = self.dir.join(&file);
        let segment = Segment::seal(records);
        let bytes = encode_segment(&segment.records);
        {
            let mut f = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
            f.write_all(&bytes).map_err(|e| io_err(&path, e))?;
            if let Some(e) = self.faults.fail_io("store.segment.sync") {
                return Err(io_err(&path, e));
            }
            f.sync_all().map_err(|e| io_err(&path, e))?;
        }
        // The segment's directory entry must be durable before the
        // manifest names it.
        fsync_dir(&self.dir)?;
        let manifest_path = self.dir.join(MANIFEST);
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(&manifest_path)
                .map_err(|e| io_err(&manifest_path, e))?;
            writeln!(f, "{}", Store::manifest_segment_line(&file, &segment))
                .map_err(|e| io_err(&manifest_path, e))?;
            f.sync_all().map_err(|e| io_err(&manifest_path, e))?;
        }
        let meta = segment.meta.clone();
        let mut segments = self.snapshot().segments.clone();
        segments.push(Arc::new(segment));
        self.swap_snapshot(segments);
        Ok(meta)
    }

    /// Merges every visible segment into one, time-ordered, and swaps
    /// it in atomically. Returns the number of segments merged away.
    /// Readers holding older snapshots are unaffected.
    pub fn compact(&self) -> Result<usize, StoreError> {
        // Hold the writer lock for the whole compaction: a segment
        // sealed mid-rewrite would be dropped from the new manifest
        // otherwise. Readers are unaffected (they hold snapshots).
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let snap = self.snapshot();
        if snap.segments.len() <= 1 {
            return Ok(0);
        }
        let merged_from = snap.segments.len();
        let mut records: Vec<SessionRecord> = snap
            .segments
            .iter()
            .flat_map(|s| s.records.iter().cloned())
            .collect();
        records.sort_by(|a, b| {
            a.at.cmp(&b.at)
                .then_with(|| a.source.cmp(&b.source))
                .then_with(|| a.report.sender.cmp(&b.report.sender))
        });
        let seq = writer.next_seq;
        writer.next_seq += 1;
        let file = segment_file_name(seq);
        let path = self.dir.join(&file);
        let segment = Segment::seal(records);
        let bytes = encode_segment(&segment.records);
        {
            let mut f = fs::File::create(&path).map_err(|e| io_err(&path, e))?;
            f.write_all(&bytes).map_err(|e| io_err(&path, e))?;
            if let Some(e) = self.faults.fail_io("store.segment.sync") {
                return Err(io_err(&path, e));
            }
            f.sync_all().map_err(|e| io_err(&path, e))?;
        }
        fsync_dir(&self.dir)?;
        // Rewrite the manifest atomically (temp file + fsync + rename +
        // directory fsync, via the shared [`atomicfile`] discipline): a
        // crash at any point leaves either the old manifest or the new
        // one, and the merged segment file at worst harmlessly orphaned.
        let manifest_path = self.dir.join(MANIFEST);
        let mut text = String::new();
        text.push('{');
        json::push_str_field(&mut text, "type", "store", false);
        json::push_str_field(&mut text, "schema", MANIFEST_SCHEMA, true);
        text.push_str("}\n");
        text.push_str(&Store::manifest_segment_line(&file, &segment));
        text.push('\n');
        atomicfile::replace_file(&manifest_path, text.as_bytes(), &self.faults)
            .map_err(|e| io_err(&manifest_path, e))?;

        let old_files: Vec<PathBuf> = (1..seq)
            .map(|s| self.dir.join(segment_file_name(s)))
            .filter(|p| p.exists())
            .collect();
        self.swap_snapshot(vec![Arc::new(segment)]);
        for old in old_files {
            // Best effort: an orphaned segment file is invisible to
            // open() and harmless.
            let _ = fs::remove_file(old);
        }
        Ok(merged_from)
    }

    /// Runs a parsed query against the current snapshot.
    pub fn query(&self, query: &Query) -> Result<QueryOutput, StoreError> {
        Ok(query.run(&self.snapshot()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synth_records;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tdat-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ingest_seal_reopen_round_trip() {
        let dir = tmp_dir("roundtrip");
        let store = Store::create(&dir).unwrap();
        let records = synth_records(300, 21);
        store.ingest(records[..100].to_vec()).unwrap();
        store.ingest(records[100..].to_vec()).unwrap();
        assert_eq!(store.stats().segments, 2);
        assert_eq!(store.stats().records, 300);

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.stats().records, 300);
        let snap = reopened.snapshot();
        let all: Vec<_> = snap
            .segments
            .iter()
            .flat_map(|s| s.records.iter().cloned())
            .collect();
        for (a, b) in records.iter().zip(&all) {
            assert_eq!(a.report.to_json(), b.report.to_json());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_records_and_old_snapshots() {
        let dir = tmp_dir("compact");
        let store = Store::create(&dir).unwrap();
        for chunk in synth_records(400, 3).chunks(100) {
            store.ingest(chunk.to_vec()).unwrap();
        }
        let before = store.snapshot();
        assert_eq!(before.segments.len(), 4);

        let merged = store.compact().unwrap();
        assert_eq!(merged, 4);
        let after = store.snapshot();
        assert_eq!(after.segments.len(), 1);
        assert_eq!(after.records(), 400);
        // Time-ordered after the merge.
        let ats: Vec<_> = after.segments[0].records.iter().map(|r| r.at).collect();
        let mut sorted = ats.clone();
        sorted.sort();
        assert_eq!(ats, sorted);
        // The pre-compaction snapshot still works in full.
        assert_eq!(before.records(), 400);
        // And a fresh open sees exactly the compacted store.
        assert_eq!(Store::open(&dir).unwrap().stats().records, 400);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn control_characters_in_strings_survive_seal_and_reopen() {
        // Ingested strings are attacker-influenced (e.g. HTTP
        // ?source=%0A): a raw newline in a manifest segment line would
        // split it and make the store permanently unopenable.
        let dir = tmp_dir("ctrl");
        let store = Store::create(&dir).unwrap();
        let mut records = synth_records(3, 7);
        records[0].source = "tap\nA".to_string();
        records[0].report.verdict = "x\ny".to_string();
        records[1].report.verdict = "tab\tbell\u{7}".to_string();
        records[1].report.sender = "10.0.0.1\r:179".to_string();
        store.ingest(records.clone()).unwrap();

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.stats().records, 3);
        let snap = reopened.snapshot();
        assert!(snap.segments[0].meta.verdicts.iter().any(|v| v == "x\ny"));
        let back: Vec<_> = snap
            .segments
            .iter()
            .flat_map(|s| s.records.iter().cloned())
            .collect();
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.report.verdict, b.report.verdict);
            assert_eq!(a.report.to_json(), b.report.to_json());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segment_file_is_a_typed_corruption_on_open() {
        let dir = tmp_dir("torn");
        let store = Store::create(&dir).unwrap();
        store.ingest(synth_records(50, 9)).unwrap();
        drop(store);
        let seg = dir.join("seg-000001.tds");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_segment_files_are_invisible() {
        let dir = tmp_dir("orphan");
        let store = Store::create(&dir).unwrap();
        store.ingest(synth_records(10, 1)).unwrap();
        // A crash after file write but before the manifest append.
        fs::write(
            dir.join("seg-000099.tds"),
            crate::segment::encode_segment(&synth_records(5, 2)),
        )
        .unwrap();
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.stats().records, 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crash_between_segment_write_and_manifest_rename_loses_nothing() {
        let dir = tmp_dir("crash-compact");
        let records = synth_records(200, 11);
        {
            let store = Store::create(&dir).unwrap();
            for chunk in records.chunks(50) {
                store.ingest(chunk.to_vec()).unwrap();
            }
        }
        let contents = |store: &Store| -> Vec<String> {
            store
                .snapshot()
                .segments
                .iter()
                .flat_map(|s| s.records.iter())
                .map(|r| format!("{}|{}|{}", r.at.as_micros(), r.source, r.report.to_json()))
                .collect()
        };
        let before = contents(&Store::open(&dir).unwrap());
        assert_eq!(before.len(), 200);

        // The injected fault kills compaction after the merged segment
        // file is written but before the manifest rename lands.
        let faults = FaultPlan::parse("atomic.rename@once", 3).unwrap();
        let store = Store::open(&dir).unwrap().with_faults(faults);
        let err = store.compact().unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(
            dir.join(segment_file_name(5)).exists(),
            "the merged segment was written before the crash point"
        );

        // Reopening ignores the orphaned segment: the old manifest is
        // intact and the store round-trips bit-exact.
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.stats().segments, 4);
        assert_eq!(contents(&reopened), before);

        // The retry (fault spent) completes the compaction with the
        // same records, merely time-ordered.
        assert_eq!(store.compact().unwrap(), 4);
        let compacted = Store::open(&dir).unwrap();
        assert_eq!(compacted.stats().segments, 1);
        let mut sorted_before = before.clone();
        sorted_before.sort();
        let mut after = contents(&compacted);
        after.sort();
        assert_eq!(after, sorted_before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_injected_segment_sync_failure_never_corrupts_the_manifest() {
        let dir = tmp_dir("sync-fault");
        let faults = FaultPlan::parse("store.segment.sync@once", 3).unwrap();
        let store = Store::create(&dir).unwrap().with_faults(faults);
        let err = store.ingest(synth_records(10, 5)).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        // The unsynced segment never made the manifest; the store is
        // still healthy and the retry lands.
        assert_eq!(Store::open(&dir).unwrap().stats().records, 0);
        store.ingest(synth_records(10, 5)).unwrap();
        assert_eq!(Store::open(&dir).unwrap().stats().records, 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_ingest_is_a_no_op() {
        let dir = tmp_dir("empty");
        let store = Store::create(&dir).unwrap();
        store.ingest(Vec::new()).unwrap();
        assert_eq!(store.stats().segments, 0);
        assert_eq!(store.stats().generation, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
