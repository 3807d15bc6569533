//! Crash-safe whole-file replacement: tmp + fsync + rename + dir fsync.
//!
//! Small state files whose readers must never observe a torn write —
//! the store's `MANIFEST` — follow one discipline: write the new
//! contents to a sibling `*.tmp`, fsync it, rename it over the target,
//! then fsync the directory so the rename itself is durable.
//! This module is that discipline, factored once, with
//! [`FaultPlan`] points threaded through
//! every step so crash tests can kill the sequence at any boundary:
//!
//! | point            | failure simulated                          |
//! |------------------|--------------------------------------------|
//! | `atomic.write`   | crash before the tmp file holds anything   |
//! | `atomic.fsync`   | crash after writing, before tmp durability |
//! | `atomic.rename`  | crash after tmp durability, before publish |
//! | `atomic.dirsync` | crash after rename, before it is durable   |
//!
//! An injected fault leaves the filesystem exactly as a real crash at
//! that step would: the tmp file may linger, but the target is either
//! the complete old contents or the complete new contents — never a
//! mix.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::faultpoint::FaultPlan;

/// The sibling temp path used while replacing `path`: the same file
/// name with `.tmp` appended.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replace `path` with `bytes`.
///
/// On success the file at `path` holds exactly `bytes` and both the
/// file and the rename are fsynced. On error (real or injected via
/// `faults`) the previous contents of `path`, if any, are intact.
pub fn replace_file(path: &Path, bytes: &[u8], faults: &FaultPlan) -> io::Result<()> {
    let tmp = tmp_path(path);
    if let Some(err) = faults.fail_io("atomic.write") {
        return Err(err);
    }
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    if let Some(err) = faults.fail_io("atomic.fsync") {
        return Err(err);
    }
    file.sync_all()?;
    drop(file);
    if let Some(err) = faults.fail_io("atomic.rename") {
        return Err(err);
    }
    fs::rename(&tmp, path)?;
    if let Some(err) = faults.fail_io("atomic.dirsync") {
        return Err(err);
    }
    // A bare file name has parent "" — the current directory.
    match path.parent() {
        Some(parent) if parent.as_os_str().is_empty() => fsync_dir(Path::new("."))?,
        Some(parent) => fsync_dir(parent)?,
        None => {}
    }
    Ok(())
}

/// Fsync a directory so renames and creates inside it are durable.
///
/// A no-op on platforms where directories cannot be opened for sync.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tdat-atomicfile-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replaces_contents_and_cleans_tmp() {
        let dir = tmp_dir("basic");
        let target = dir.join("state");
        replace_file(&target, b"one", &FaultPlan::disabled()).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"one");
        replace_file(&target, b"two", &FaultPlan::disabled()).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"two");
        assert!(!tmp_path(&target).exists(), "tmp renamed away");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_rename_fault_preserves_old_contents() {
        let dir = tmp_dir("rename-fault");
        let target = dir.join("state");
        replace_file(&target, b"old", &FaultPlan::disabled()).unwrap();

        let faults = FaultPlan::parse("atomic.rename@once", 0).unwrap();
        let err = replace_file(&target, b"new", &faults).unwrap_err();
        assert!(err.to_string().contains("atomic.rename"));
        assert_eq!(fs::read(&target).unwrap(), b"old", "target untouched");
        assert!(tmp_path(&target).exists(), "crash leaves the tmp behind");

        // The retry goes through and overwrites the stale tmp.
        replace_file(&target, b"new", &faults).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"new");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_fault_touches_nothing() {
        let dir = tmp_dir("write-fault");
        let target = dir.join("state");
        replace_file(&target, b"old", &FaultPlan::disabled()).unwrap();
        let faults = FaultPlan::parse("atomic.write@once", 0).unwrap();
        replace_file(&target, b"new", &faults).unwrap_err();
        assert_eq!(fs::read(&target).unwrap(), b"old");
        assert!(!tmp_path(&target).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bare_file_names_sync_the_current_directory() {
        let dir = tmp_dir("bare-name");
        let prev = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let result = replace_file(Path::new("state.ckpt"), b"x", &FaultPlan::disabled());
        std::env::set_current_dir(prev).unwrap();
        result.unwrap();
        assert_eq!(fs::read(dir.join("state.ckpt")).unwrap(), b"x");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_path_appends_suffix() {
        assert_eq!(
            tmp_path(Path::new("/a/b/MANIFEST")),
            Path::new("/a/b/MANIFEST.tmp")
        );
    }
}
