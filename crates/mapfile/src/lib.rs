//! Read-only memory-mapped file access with a buffered fallback.
//!
//! Every other crate in this workspace carries
//! `#![forbid(unsafe_code)]`. Mapping a file into memory is the one
//! operation the suite performs that cannot be expressed in safe Rust,
//! so the whole of it is quarantined here: a [`MappedFile`] either
//! wraps a `PROT_READ`/`MAP_PRIVATE` mapping obtained through a raw
//! `mmap` syscall (Linux on x86_64/aarch64, no libc required), or —
//! when mapping is unavailable or fails — an owned `Vec<u8>` holding
//! the file contents read through ordinary buffered I/O. Consumers see
//! the same safe `&[u8]` either way and can branch on
//! [`MappedFile::is_mapped`] only for reporting.
//!
//! # Safety model
//!
//! The unsafe surface is three operations, each with a local argument:
//!
//! - the `mmap` syscall itself: arguments are a null hint address, a
//!   non-zero length no larger than the file size observed via
//!   `fstat`, `PROT_READ`, `MAP_PRIVATE`, and an owned open fd — no
//!   aliasing of writable memory is possible because the mapping is
//!   never writable;
//! - `slice::from_raw_parts` over the returned address: valid because
//!   the kernel guarantees `len` readable bytes on success and the
//!   mapping lives until `Drop`;
//! - the `munmap` syscall in `Drop` with exactly the address/length
//!   pair returned by `mmap`.
//!
//! One caveat is inherited from POSIX rather than from this code: if
//! another process truncates the *underlying file* while it is mapped,
//! touching pages past the new end raises `SIGBUS`. Readers that
//! follow live files must therefore re-check the on-disk length (via
//! [`MappedFile::current_file_len`]) before trusting bytes near the
//! tail, and treat a shrink as a typed error instead of walking into
//! the dead zone. `tdat_packet::MmapReader` does exactly that, once
//! per decoded block; see `DESIGN.md` § "Capture ingest".

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! Raw Linux mmap/munmap syscalls via stable inline assembly.
    //!
    //! The container this suite builds in has no `libc` crate, so the
    //! two syscalls are issued directly. Numbers and calling
    //! conventions follow the kernel ABI for each architecture.

    use std::os::fd::RawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;

    /// Issues a raw six-argument syscall. Returns the kernel's raw
    /// return value: a negative value in `[-4095, -1]` encodes
    /// `-errno`.
    ///
    /// # Safety
    ///
    /// The caller must pass a syscall number and arguments whose
    /// side effects are sound for the surrounding Rust code; this
    /// crate only uses it for `mmap`/`munmap` with arguments derived
    /// from values it owns.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// See the x86_64 variant; aarch64 passes the number in `x8` and
    /// arguments in `x0..x5`.
    ///
    /// # Safety
    ///
    /// Same contract as the x86_64 variant.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack)
        );
        ret
    }

    /// `true` when a raw kernel return value encodes `-errno`.
    fn is_err(ret: isize) -> bool {
        (-4095..0).contains(&ret)
    }

    /// Maps `len` bytes of `fd` read-only and private. Returns the
    /// mapping address, or `None` on any failure (the caller falls
    /// back to buffered reads).
    pub(crate) fn map_readonly(fd: RawFd, len: usize) -> Option<*const u8> {
        if len == 0 || fd < 0 {
            return None;
        }
        // SAFETY: a fresh read-only private mapping of an fd we hold
        // open; no existing Rust memory is affected, and on success
        // the kernel guarantees `len` readable bytes at the returned
        // address until munmap.
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        if is_err(ret) {
            None
        } else {
            Some(ret as *const u8)
        }
    }

    /// Unmaps a mapping previously returned by [`map_readonly`].
    ///
    /// # Safety
    ///
    /// `addr`/`len` must be exactly the pair returned by a successful
    /// [`map_readonly`] call that has not been unmapped yet, and no
    /// live reference into the mapping may outlive the call.
    pub(crate) unsafe fn unmap(addr: *const u8, len: usize) {
        // SAFETY: forwarded contract — exactly one munmap per mmap,
        // with the original address/length pair.
        unsafe {
            let _ = syscall6(SYS_MUNMAP, addr as usize, len, 0, 0, 0, 0);
        }
    }
}

/// How a [`MappedFile`] holds its bytes.
enum Backing {
    /// A live read-only kernel mapping.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped { addr: *const u8, len: usize },
    /// File contents copied into an owned buffer (fallback path, and
    /// the only path on non-Linux or exotic architectures).
    Owned(Vec<u8>),
}

/// A read-only view of a file's contents, memory-mapped when the
/// platform allows and buffered into an owned `Vec<u8>` otherwise.
///
/// The open file handle is retained so callers can cheaply re-check
/// the on-disk length ([`current_file_len`](Self::current_file_len))
/// and detect concurrent truncation before touching tail bytes.
pub struct MappedFile {
    backing: Backing,
    /// `None` for purely in-memory views built with
    /// [`from_vec`](Self::from_vec).
    file: Option<File>,
}

// SAFETY: the mapping is immutable (`PROT_READ`) for its whole
// lifetime and `munmap` happens in `Drop` after any borrows of
// `bytes()` have ended, so sharing or moving the handle across
// threads cannot race.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
unsafe impl Send for MappedFile {}
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Opens `path` and maps it read-only, falling back to a buffered
    /// whole-file read when mapping is unavailable (empty files, or
    /// platforms without the raw-syscall backend).
    pub fn open(path: impl AsRef<Path>) -> io::Result<MappedFile> {
        let file = File::open(path)?;
        Self::from_file(file, true)
    }

    /// Opens `path` with the buffered backing unconditionally. Exists
    /// so tests and identity harnesses can exercise the fallback path
    /// on hosts where mapping would normally succeed.
    pub fn open_unmapped(path: impl AsRef<Path>) -> io::Result<MappedFile> {
        let file = File::open(path)?;
        Self::from_file(file, false)
    }

    /// Wraps an in-memory buffer in the `MappedFile` interface, for
    /// consumers that accept either a file or pre-built bytes (bench
    /// corpora, tests). Never mapped; never observes shrinks.
    pub fn from_vec(bytes: Vec<u8>) -> MappedFile {
        MappedFile {
            backing: Backing::Owned(bytes),
            file: None,
        }
    }

    fn from_file(mut file: File, try_map: bool) -> io::Result<MappedFile> {
        let on_disk = file.metadata()?.len();
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if try_map && on_disk > 0 && on_disk <= usize::MAX as u64 {
            use std::os::fd::AsRawFd;
            let len = on_disk as usize;
            if let Some(addr) = sys::map_readonly(file.as_raw_fd(), len) {
                return Ok(MappedFile {
                    backing: Backing::Mapped { addr, len },
                    file: Some(file),
                });
            }
        }
        let _ = try_map;
        let mut buf = Vec::with_capacity(usize::try_from(on_disk).unwrap_or(0));
        file.read_to_end(&mut buf)?;
        Ok(MappedFile {
            backing: Backing::Owned(buf),
            file: Some(file),
        })
    }

    /// The file contents at open time.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Mapped { addr, len } => {
                // SAFETY: the kernel guarantees `len` readable bytes
                // at `addr` while the mapping is live, and the mapping
                // outlives this borrow (munmap only runs in Drop).
                unsafe { std::slice::from_raw_parts(*addr, *len) }
            }
            Backing::Owned(buf) => buf,
        }
    }

    /// Length of the view, in bytes.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Mapped { len, .. } => *len,
            Backing::Owned(buf) => buf.len(),
        }
    }

    /// `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the bytes come from a live kernel mapping rather
    /// than an owned buffer.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }

    /// The file's *current* on-disk length. Mapped readers call this
    /// before touching bytes near the tail: a value smaller than
    /// [`len`](Self::len) means the file shrank after mapping and the
    /// tail pages are a `SIGBUS` trap, so the read must surface a
    /// typed truncation error instead.
    ///
    /// In-memory views (no backing file) report their own length.
    pub fn current_file_len(&self) -> io::Result<u64> {
        match &self.file {
            Some(file) => Ok(file.metadata()?.len()),
            None => Ok(self.len() as u64),
        }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Backing::Mapped { addr, len } = self.backing {
            // SAFETY: this is the unique munmap for the mmap made in
            // `from_file`, with the original address/length pair, and
            // Drop guarantees no outstanding `bytes()` borrows.
            unsafe { sys::unmap(addr, len) };
        }
    }
}

impl std::fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tdat-mapfile-{tag}-{}", std::process::id()))
    }

    #[test]
    fn mapped_and_buffered_agree() {
        let path = temp_path("agree");
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();

        let mapped = MappedFile::open(&path).unwrap();
        let buffered = MappedFile::open_unmapped(&path).unwrap();
        assert_eq!(mapped.bytes(), payload.as_slice());
        assert_eq!(buffered.bytes(), payload.as_slice());
        assert!(!buffered.is_mapped());
        assert_eq!(mapped.len(), buffered.len());
        assert_eq!(mapped.current_file_len().unwrap(), payload.len() as u64);

        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn linux_hosts_really_map() {
        let path = temp_path("mapped");
        std::fs::write(&path, b"hello mapping").unwrap();
        let mapped = MappedFile::open(&path).unwrap();
        assert!(mapped.is_mapped(), "mmap backend should engage on Linux");
        assert_eq!(mapped.bytes(), b"hello mapping");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_uses_owned_backing() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let mapped = MappedFile::open(&path).unwrap();
        assert!(mapped.is_empty());
        assert!(!mapped.is_mapped());
        assert_eq!(mapped.bytes(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shrink_is_observable_via_file_len() {
        let path = temp_path("shrink");
        std::fs::write(&path, vec![7u8; 64 * 1024]).unwrap();
        let mapped = MappedFile::open(&path).unwrap();
        assert_eq!(mapped.current_file_len().unwrap(), 64 * 1024);

        // Truncate behind the mapping's back; the view length is
        // unchanged but the on-disk length shrinks, which is exactly
        // the signal readers use to avoid faulting on dead pages.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(1024).unwrap();
        drop(f);
        assert_eq!(mapped.current_file_len().unwrap(), 1024);
        assert_eq!(mapped.len(), 64 * 1024);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_unmaps_without_fault() {
        let path = temp_path("drop");
        std::fs::write(&path, vec![1u8; 4096]).unwrap();
        for _ in 0..64 {
            let m = MappedFile::open(&path).unwrap();
            assert_eq!(m.bytes().len(), 4096);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_keeps_data_visible_to_map() {
        // Growing the file does not invalidate already-mapped bytes.
        let path = temp_path("grow");
        std::fs::write(&path, b"prefix").unwrap();
        let mapped = MappedFile::open(&path).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b" suffix").unwrap();
        drop(f);
        assert_eq!(mapped.bytes(), b"prefix");
        assert!(mapped.current_file_len().unwrap() > mapped.len() as u64);
        std::fs::remove_file(&path).ok();
    }
}
