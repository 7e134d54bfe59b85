//! Deterministic storage-fault injection for the durable write paths.
//!
//! The kill-resume guarantee (DESIGN.md §11) is only as strong as the
//! storage semantics underneath it: a failed fsync, a torn write, a
//! rename that never hits the directory, ENOSPC mid-append, or a power
//! cut that freezes the file at its fsynced prefix are all legal
//! filesystem behaviors that `SIGKILL` alone never exercises. This
//! crate makes them a *scheduled, reproducible* test surface, in the
//! same style as the simulator's seeded fault injector (PR 1) and the
//! sweep harness's `--chaos` schedule (PR 4).
//!
//! [`Vfs`] is a small trait-object-free storage abstraction: a concrete
//! cloneable handle that is either a thin `std::fs` passthrough
//! ([`Vfs::real`]) or a fault-injecting wrapper ([`Vfs::with_faults`])
//! driven by an [`IoChaosConfig`] schedule. All handles cloned from one
//! faulted `Vfs` share a single fault state, so per-kind operation
//! counters are global across the files a component touches — exactly
//! like one disk under one process.
//!
//! Fault model (all indices 0-based, deterministic per process):
//!
//! - `fail-fsync@N` — the N-th fsync (file *or* directory) returns an
//!   injected error and persists nothing.
//! - `torn-write@N:K` — the N-th write persists only its first `K`
//!   bytes, then errors.
//! - `fail-rename@N` — the N-th rename errors without renaming.
//! - `enospc-after@B` — after `B` cumulative bytes written, every write
//!   persists only what fits in the budget and errors.
//! - `eio-read@N` — the N-th read errors.
//! - `power-cut@N` — at the N-th operation the crash is *applied*: every
//!   tracked file is truncated to its fsynced prefix, files whose
//!   directory entry was never fsynced are removed, renames whose
//!   directory was never fsynced are rolled back — and all subsequent IO
//!   through this `Vfs` fails.
//! - `auto@SEED:K` — expands deterministically (SplitMix64 over the
//!   salted seed) into `K` primitive directives; the same seed always
//!   yields the same schedule.
//!
//! With an *empty* schedule a faulted `Vfs` performs exactly the same
//! syscalls as the real one — disabled fault injection is bit-for-bit
//! identical to the passthrough, which the tests pin.
//!
//! Modeling simplifications (documented, asserted nowhere stronger):
//! explicit truncation ([`Vfs::truncate`]) is applied durably, and a
//! file opened for append is assumed durable up to its current length
//! (its bytes came from "before this boot").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// What kind of failure a [`VfsError`] is — injected fault kinds plus
/// `Io` for real operating-system errors passed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsErrorKind {
    /// Injected `fail-fsync@N`: the fsync persisted nothing.
    FailFsync,
    /// Injected `torn-write@N:K`: only a prefix of the write persisted.
    TornWrite,
    /// Injected `fail-rename@N`: the rename did not happen.
    FailRename,
    /// Injected `enospc-after@B`: the byte budget is exhausted.
    Enospc,
    /// Injected `eio-read@N`: the read failed.
    EioRead,
    /// Injected `power-cut@N`: the disk is gone; state is frozen at the
    /// fsynced prefix.
    PowerCut,
    /// A real error from the underlying filesystem.
    Io,
}

impl VfsErrorKind {
    fn label(self) -> &'static str {
        match self {
            VfsErrorKind::FailFsync => "fail-fsync",
            VfsErrorKind::TornWrite => "torn-write",
            VfsErrorKind::FailRename => "fail-rename",
            VfsErrorKind::Enospc => "enospc",
            VfsErrorKind::EioRead => "eio-read",
            VfsErrorKind::PowerCut => "power-cut",
            VfsErrorKind::Io => "io",
        }
    }
}

/// A typed storage error: which fault (or real IO error), during which
/// operation, on which path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VfsError {
    /// Fault kind (or [`VfsErrorKind::Io`] for passthrough errors).
    pub kind: VfsErrorKind,
    /// The operation that failed (`"write"`, `"sync_data"`, ...).
    pub op: &'static str,
    /// The path the operation targeted.
    pub path: PathBuf,
    /// Human detail (OS error text, or the injected fault's position).
    pub detail: String,
}

impl VfsError {
    fn injected(kind: VfsErrorKind, op: &'static str, path: &Path, detail: String) -> Self {
        VfsError {
            kind,
            op,
            path: path.to_path_buf(),
            detail,
        }
    }

    fn io(op: &'static str, path: &Path, e: &std::io::Error) -> Self {
        VfsError {
            kind: VfsErrorKind::Io,
            op,
            path: path.to_path_buf(),
            detail: e.to_string(),
        }
    }

    /// Whether this error was injected by a fault schedule (as opposed
    /// to a real operating-system error).
    pub fn is_injected(&self) -> bool {
        self.kind != VfsErrorKind::Io
    }
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_injected() {
            write!(
                f,
                "storage fault injected ({}) during {} on {}: {}",
                self.kind.label(),
                self.op,
                self.path.display(),
                self.detail
            )
        } else {
            write!(f, "{} {}: {}", self.op, self.path.display(), self.detail)
        }
    }
}

impl std::error::Error for VfsError {}

/// A deterministic storage-fault schedule, parsed from a directive
/// string like `"fail-fsync@2,torn-write@3:10,power-cut@9"`.
///
/// The parsed form is canonical: per-kind indices are sorted and
/// deduplicated, so `parse(to_spec(c)) == c` and equal schedules have
/// equal `Debug` renderings — which is what folds a schedule into the
/// sweep spec fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoChaosConfig {
    /// Fsync operation indices that fail (file and directory fsyncs
    /// share one counter).
    pub fail_fsync: Vec<u64>,
    /// `(write index, bytes that persist)` pairs for torn writes.
    pub torn_write: Vec<(u64, u64)>,
    /// Rename operation indices that fail.
    pub fail_rename: Vec<u64>,
    /// Cumulative written-byte budget after which writes fail ENOSPC.
    pub enospc_after: Option<u64>,
    /// Read operation indices that fail.
    pub eio_read: Vec<u64>,
    /// Global operation index at which the power cut is applied.
    pub power_cut: Option<u64>,
}

/// SplitMix64 — the same generator the harness's seed-derivation uses;
/// kept local so `lpm-vfs` stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain salt for `auto@SEED:K` expansion, so an IO schedule derived
/// from seed S never correlates with the simulator faults seeded by S.
const SALT_IO_CHAOS: u64 = 0x10_C4A0_5C4E_D01E;

impl IoChaosConfig {
    /// Parse a comma-separated directive string. Empty string (or only
    /// whitespace/commas) parses to the empty schedule.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = IoChaosConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, arg) = part
                .split_once('@')
                .ok_or_else(|| format!("bad io-chaos directive {part:?}: expected kind@arg"))?;
            let n = |s: &str| -> Result<u64, String> {
                s.parse::<u64>()
                    .map_err(|_| format!("bad io-chaos directive {part:?}: {s:?} is not a number"))
            };
            match kind {
                "fail-fsync" => cfg.fail_fsync.push(n(arg)?),
                "torn-write" => {
                    let (idx, keep) = arg.split_once(':').ok_or_else(|| {
                        format!("bad io-chaos directive {part:?}: expected torn-write@N:K")
                    })?;
                    cfg.torn_write.push((n(idx)?, n(keep)?));
                }
                "fail-rename" => cfg.fail_rename.push(n(arg)?),
                "enospc-after" => cfg.enospc_after = Some(n(arg)?),
                "eio-read" => cfg.eio_read.push(n(arg)?),
                "power-cut" => cfg.power_cut = Some(n(arg)?),
                "auto" => {
                    let (seed, count) = arg.split_once(':').ok_or_else(|| {
                        format!("bad io-chaos directive {part:?}: expected auto@SEED:K")
                    })?;
                    cfg.expand_auto(n(seed)?, n(count)?);
                }
                other => {
                    return Err(format!(
                        "unknown io-chaos directive {other:?} \
                         (know fail-fsync@N, torn-write@N:K, fail-rename@N, \
                         enospc-after@B, eio-read@N, power-cut@N, auto@SEED:K)"
                    ))
                }
            }
        }
        cfg.canonicalize();
        Ok(cfg)
    }

    /// Deterministically expand `auto@seed:count` into primitive
    /// directives. Same seed, same count → same schedule, always.
    fn expand_auto(&mut self, seed: u64, count: u64) {
        let mut state = seed ^ SALT_IO_CHAOS;
        for _ in 0..count {
            let kind = splitmix64(&mut state) % 4;
            let idx = splitmix64(&mut state) % 8;
            match kind {
                0 => self.fail_fsync.push(idx),
                1 => self.torn_write.push((idx, splitmix64(&mut state) % 64)),
                2 => self.fail_rename.push(idx),
                _ => self.eio_read.push(idx),
            }
        }
    }

    fn canonicalize(&mut self) {
        self.fail_fsync.sort_unstable();
        self.fail_fsync.dedup();
        self.torn_write.sort_unstable();
        self.torn_write.dedup_by_key(|p| p.0);
        self.fail_rename.sort_unstable();
        self.fail_rename.dedup();
        self.eio_read.sort_unstable();
        self.eio_read.dedup();
    }

    /// Whether this schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.fail_fsync.is_empty()
            && self.torn_write.is_empty()
            && self.fail_rename.is_empty()
            && self.enospc_after.is_none()
            && self.eio_read.is_empty()
            && self.power_cut.is_none()
    }

    /// Canonical directive-string rendering: `parse(c.to_spec()) == c`.
    pub fn to_spec(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        parts.extend(self.fail_fsync.iter().map(|n| format!("fail-fsync@{n}")));
        parts.extend(
            self.torn_write
                .iter()
                .map(|(n, k)| format!("torn-write@{n}:{k}")),
        );
        parts.extend(self.fail_rename.iter().map(|n| format!("fail-rename@{n}")));
        parts.extend(self.eio_read.iter().map(|n| format!("eio-read@{n}")));
        if let Some(b) = self.enospc_after {
            parts.push(format!("enospc-after@{b}"));
        }
        if let Some(n) = self.power_cut {
            parts.push(format!("power-cut@{n}"));
        }
        parts.join(",")
    }
}

/// Durability tracking for one file under fault injection.
#[derive(Debug, Default, Clone, Copy)]
struct FileTrack {
    /// Bytes guaranteed to survive a power cut (fsynced prefix).
    synced_len: u64,
    /// Bytes actually written (cache; lost on power cut).
    written_len: u64,
}

/// A directory-entry change that has not been made durable by a
/// directory fsync yet — undone when the power cut is applied.
#[derive(Debug)]
enum Pending {
    /// File created this "boot"; a power cut removes it entirely, even
    /// if its *contents* were fsynced — POSIX does not persist the
    /// directory entry until the directory itself is fsynced.
    Created { path: PathBuf },
    /// A rename landed on `dest`; a power cut rolls `dest` back to its
    /// prior bytes (or removes it if it did not exist).
    Renamed {
        dest: PathBuf,
        prior: Option<Vec<u8>>,
    },
}

impl Pending {
    fn in_dir(&self, dir: &Path) -> bool {
        let p = match self {
            Pending::Created { path } => path,
            Pending::Renamed { dest, .. } => dest,
        };
        // A bare relative filename has parent Some("") while callers
        // sync the directory as "." — normalize both spellings of the
        // current directory so the entry clears either way.
        normalize_dir(p.parent().unwrap_or(Path::new(""))) == normalize_dir(dir)
    }
}

/// `""` and `"."` both mean the current directory.
fn normalize_dir(dir: &Path) -> &Path {
    if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }
}

#[derive(Debug)]
struct FaultInner {
    schedule: IoChaosConfig,
    ops: u64,
    writes: u64,
    fsyncs: u64,
    renames: u64,
    reads: u64,
    bytes_written: u64,
    powered_off: bool,
    files: BTreeMap<PathBuf, FileTrack>,
    pending: Vec<Pending>,
}

impl FaultInner {
    fn new(schedule: IoChaosConfig) -> Self {
        FaultInner {
            schedule,
            ops: 0,
            writes: 0,
            fsyncs: 0,
            renames: 0,
            reads: 0,
            bytes_written: 0,
            powered_off: false,
            files: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    /// Per-operation preamble: refuse everything after a power cut, and
    /// apply the cut when the global op counter reaches the schedule.
    fn begin_op(&mut self, op: &'static str, path: &Path) -> Result<(), VfsError> {
        if self.powered_off {
            return Err(VfsError::injected(
                VfsErrorKind::PowerCut,
                op,
                path,
                "power is cut; all IO fails".into(),
            ));
        }
        let index = self.ops;
        self.ops += 1;
        if self.schedule.power_cut == Some(index) {
            self.apply_power_cut();
            return Err(VfsError::injected(
                VfsErrorKind::PowerCut,
                op,
                path,
                format!("power cut at op {index}; state frozen at the fsynced prefix"),
            ));
        }
        Ok(())
    }

    /// Apply the crash: truncate every tracked file to its fsynced
    /// prefix, undo directory-entry changes that were never fsynced.
    fn apply_power_cut(&mut self) {
        self.powered_off = true;
        for (path, track) in &self.files {
            if let Ok(f) = fs::OpenOptions::new().write(true).open(path) {
                let _ = f.set_len(track.synced_len);
            }
        }
        for pending in self.pending.drain(..) {
            match pending {
                Pending::Created { path } => {
                    let _ = fs::remove_file(&path);
                }
                Pending::Renamed { dest, prior } => match prior {
                    Some(bytes) => {
                        let _ = fs::write(&dest, bytes);
                    }
                    None => {
                        let _ = fs::remove_file(&dest);
                    }
                },
            }
        }
    }
}

type Shared = Arc<Mutex<FaultInner>>;

fn locked(shared: &Shared) -> std::sync::MutexGuard<'_, FaultInner> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A storage handle: either a thin `std::fs` passthrough or a
/// fault-injecting wrapper sharing one schedule across all its clones.
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    fault: Option<Shared>,
}

impl Vfs {
    /// The real filesystem: every operation is a direct `std::fs` call.
    pub fn real() -> Self {
        Vfs { fault: None }
    }

    /// A fault-injecting filesystem driven by `schedule`. With an empty
    /// schedule no fault ever fires and the produced bytes are
    /// bit-for-bit identical to [`Vfs::real`].
    pub fn with_faults(schedule: IoChaosConfig) -> Self {
        Vfs {
            fault: Some(Arc::new(Mutex::new(FaultInner::new(schedule)))),
        }
    }

    /// [`Vfs::real`] for an empty schedule, [`Vfs::with_faults`]
    /// otherwise — the constructor the engine and server use.
    pub fn for_schedule(schedule: &IoChaosConfig) -> Self {
        if schedule.is_empty() {
            Vfs::real()
        } else {
            Vfs::with_faults(schedule.clone())
        }
    }

    /// Create (or truncate) a file for writing.
    pub fn create(&self, path: &Path) -> Result<VfsFile, VfsError> {
        if let Some(shared) = &self.fault {
            let existed = path.exists();
            locked(shared).begin_op("create", path)?;
            let file = fs::File::create(path).map_err(|e| VfsError::io("create", path, &e))?;
            let mut inner = locked(shared);
            inner.files.insert(path.to_path_buf(), FileTrack::default());
            if !existed {
                inner.pending.push(Pending::Created {
                    path: path.to_path_buf(),
                });
            }
            return Ok(VfsFile {
                file,
                path: path.to_path_buf(),
                fault: Some(Arc::clone(shared)),
            });
        }
        let file = fs::File::create(path).map_err(|e| VfsError::io("create", path, &e))?;
        Ok(VfsFile {
            file,
            path: path.to_path_buf(),
            fault: None,
        })
    }

    /// Open a file for appending, creating it if absent. Pre-existing
    /// bytes are treated as durable (they came from before this boot).
    pub fn append(&self, path: &Path) -> Result<VfsFile, VfsError> {
        if let Some(shared) = &self.fault {
            let existed = path.exists();
            locked(shared).begin_op("append", path)?;
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| VfsError::io("append", path, &e))?;
            let len = file.metadata().map(|m| m.len()).unwrap_or(0);
            let mut inner = locked(shared);
            inner.files.insert(
                path.to_path_buf(),
                FileTrack {
                    synced_len: len,
                    written_len: len,
                },
            );
            if !existed {
                inner.pending.push(Pending::Created {
                    path: path.to_path_buf(),
                });
            }
            return Ok(VfsFile {
                file,
                path: path.to_path_buf(),
                fault: Some(Arc::clone(shared)),
            });
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| VfsError::io("append", path, &e))?;
        Ok(VfsFile {
            file,
            path: path.to_path_buf(),
            fault: None,
        })
    }

    /// Truncate a file to `len` bytes (resume uses this to drop a torn
    /// tail before appending). Modeled as durable — see module docs.
    pub fn truncate(&self, path: &Path, len: u64) -> Result<(), VfsError> {
        if let Some(shared) = &self.fault {
            locked(shared).begin_op("truncate", path)?;
        }
        let file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| VfsError::io("truncate", path, &e))?;
        file.set_len(len)
            .map_err(|e| VfsError::io("truncate", path, &e))?;
        if let Some(shared) = &self.fault {
            let mut inner = locked(shared);
            let track = inner.files.entry(path.to_path_buf()).or_default();
            track.written_len = len;
            track.synced_len = track.synced_len.min(len);
        }
        Ok(())
    }

    /// Read a whole file to a string.
    pub fn read_to_string(&self, path: &Path) -> Result<String, VfsError> {
        if let Some(shared) = &self.fault {
            let mut inner = locked(shared);
            inner.begin_op("read", path)?;
            let index = inner.reads;
            inner.reads += 1;
            if inner.schedule.eio_read.contains(&index) {
                return Err(VfsError::injected(
                    VfsErrorKind::EioRead,
                    "read",
                    path,
                    format!("injected EIO at read {index}"),
                ));
            }
        }
        fs::read_to_string(path).map_err(|e| VfsError::io("read", path, &e))
    }

    /// Rename `from` to `to` (the commit step of atomic replace).
    pub fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        if let Some(shared) = &self.fault {
            {
                let mut inner = locked(shared);
                inner.begin_op("rename", from)?;
                let index = inner.renames;
                inner.renames += 1;
                if inner.schedule.fail_rename.contains(&index) {
                    return Err(VfsError::injected(
                        VfsErrorKind::FailRename,
                        "rename",
                        from,
                        format!("injected rename failure at rename {index}"),
                    ));
                }
            }
            let prior = fs::read(to).ok();
            fs::rename(from, to).map_err(|e| VfsError::io("rename", from, &e))?;
            let mut inner = locked(shared);
            let track = inner.files.remove(from).unwrap_or_else(|| {
                let len = fs::metadata(to).map(|m| m.len()).unwrap_or(0);
                FileTrack {
                    synced_len: len,
                    written_len: len,
                }
            });
            inner.files.insert(to.to_path_buf(), track);
            // The source's directory entry is gone; a pending "created"
            // record for it no longer applies.
            inner
                .pending
                .retain(|p| !matches!(p, Pending::Created { path } if path.as_path() == from));
            inner.pending.push(Pending::Renamed {
                dest: to.to_path_buf(),
                prior,
            });
            return Ok(());
        }
        fs::rename(from, to).map_err(|e| VfsError::io("rename", from, &e))
    }

    /// Fsync a directory, making its entries (creates and renames)
    /// durable. Real directory-fsync errors are ignored (best effort,
    /// matching the pre-existing atomic-replace behavior); injected
    /// `fail-fsync` still fires — it shares the fsync counter.
    pub fn sync_dir(&self, dir: &Path) -> Result<(), VfsError> {
        if let Some(shared) = &self.fault {
            let mut inner = locked(shared);
            inner.begin_op("sync_dir", dir)?;
            let index = inner.fsyncs;
            inner.fsyncs += 1;
            if inner.schedule.fail_fsync.contains(&index) {
                return Err(VfsError::injected(
                    VfsErrorKind::FailFsync,
                    "sync_dir",
                    dir,
                    format!("injected fsync failure at fsync {index}"),
                ));
            }
            inner.pending.retain(|p| !p.in_dir(dir));
        }
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Create a directory and all its parents.
    pub fn create_dir_all(&self, path: &Path) -> Result<(), VfsError> {
        if let Some(shared) = &self.fault {
            locked(shared).begin_op("create_dir_all", path)?;
        }
        fs::create_dir_all(path).map_err(|e| VfsError::io("create_dir_all", path, &e))
    }

    /// Whether `path` exists (metadata peek; never injected).
    pub fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// An open file handle routed through its parent [`Vfs`].
#[derive(Debug)]
pub struct VfsFile {
    file: fs::File,
    path: PathBuf,
    fault: Option<Shared>,
}

impl VfsFile {
    /// The path this handle writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write all of `buf`, subject to `torn-write` and `enospc-after`.
    pub fn write_all(&mut self, buf: &[u8]) -> Result<(), VfsError> {
        let Some(shared) = &self.fault else {
            return self
                .file
                .write_all(buf)
                .map_err(|e| VfsError::io("write", &self.path, &e));
        };
        let len = buf.len() as u64;
        let (keep, kind, detail) = {
            let mut inner = locked(shared);
            inner.begin_op("write", &self.path)?;
            let index = inner.writes;
            inner.writes += 1;
            let torn = inner
                .schedule
                .torn_write
                .iter()
                .find(|(n, _)| *n == index)
                .map(|(_, k)| *k);
            if let Some(k) = torn {
                let keep = k.min(len);
                inner.bytes_written += keep;
                (
                    Some(keep),
                    VfsErrorKind::TornWrite,
                    format!("write {index} torn after {keep} of {len} byte(s)"),
                )
            } else if let Some(budget) = inner.schedule.enospc_after {
                let allowed = budget.saturating_sub(inner.bytes_written).min(len);
                inner.bytes_written += allowed;
                if allowed < len {
                    (
                        Some(allowed),
                        VfsErrorKind::Enospc,
                        format!(
                            "no space left after {allowed} of {len} byte(s) \
                             (budget {budget} bytes)"
                        ),
                    )
                } else {
                    (None, VfsErrorKind::Io, String::new())
                }
            } else {
                inner.bytes_written += len;
                (None, VfsErrorKind::Io, String::new())
            }
        };
        let persist = keep.unwrap_or(len) as usize;
        self.file
            .write_all(&buf[..persist])
            .map_err(|e| VfsError::io("write", &self.path, &e))?;
        {
            let mut inner = locked(shared);
            let track = inner.files.entry(self.path.clone()).or_default();
            track.written_len += persist as u64;
        }
        match keep {
            Some(_) => Err(VfsError::injected(kind, "write", &self.path, detail)),
            None => Ok(()),
        }
    }

    /// Fsync file data, subject to `fail-fsync`. On success the current
    /// written length becomes the power-cut-surviving prefix.
    pub fn sync_data(&mut self) -> Result<(), VfsError> {
        self.sync_impl("sync_data")
    }

    /// Fsync file data and metadata; same fault semantics as
    /// [`VfsFile::sync_data`].
    pub fn sync_all(&mut self) -> Result<(), VfsError> {
        self.sync_impl("sync_all")
    }

    fn sync_impl(&mut self, op: &'static str) -> Result<(), VfsError> {
        if let Some(shared) = &self.fault {
            let mut inner = locked(shared);
            inner.begin_op(op, &self.path)?;
            let index = inner.fsyncs;
            inner.fsyncs += 1;
            if inner.schedule.fail_fsync.contains(&index) {
                return Err(VfsError::injected(
                    VfsErrorKind::FailFsync,
                    op,
                    &self.path,
                    format!("injected fsync failure at fsync {index}"),
                ));
            }
        }
        let res = if op == "sync_all" {
            self.file.sync_all()
        } else {
            self.file.sync_data()
        };
        res.map_err(|e| VfsError::io(op, &self.path, &e))?;
        if let Some(shared) = &self.fault {
            let mut inner = locked(shared);
            let track = inner.files.entry(self.path.clone()).or_default();
            track.synced_len = track.written_len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lpm-vfs-{name}-{}", std::process::id()))
    }

    fn dir_for(name: &str) -> PathBuf {
        let d = tmp(name);
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parse_round_trips_canonically() {
        let spec = "power-cut@9,fail-fsync@3,fail-fsync@1,torn-write@2:10,\
                    eio-read@0,enospc-after@4096,fail-rename@0";
        let cfg = IoChaosConfig::parse(spec).unwrap();
        assert_eq!(cfg.fail_fsync, vec![1, 3]);
        assert_eq!(cfg.torn_write, vec![(2, 10)]);
        assert_eq!(cfg.enospc_after, Some(4096));
        assert_eq!(cfg.power_cut, Some(9));
        let rendered = cfg.to_spec();
        assert_eq!(IoChaosConfig::parse(&rendered).unwrap(), cfg);
        assert!(IoChaosConfig::parse("").unwrap().is_empty());
        assert!(IoChaosConfig::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_directives_with_typed_errors() {
        for bad in [
            "fsync@1",
            "fail-fsync@x",
            "torn-write@3",
            "auto@1",
            "power-cut",
        ] {
            let err = IoChaosConfig::parse(bad).unwrap_err();
            assert!(err.contains("io-chaos directive"), "{bad}: {err}");
        }
    }

    #[test]
    fn auto_expansion_is_deterministic_per_seed() {
        let a = IoChaosConfig::parse("auto@7:6").unwrap();
        let b = IoChaosConfig::parse("auto@7:6").unwrap();
        let c = IoChaosConfig::parse("auto@8:6").unwrap();
        assert_eq!(a, b, "same seed must expand to the same schedule");
        assert_ne!(a, c, "different seeds must diverge");
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_real() {
        let d = dir_for("passthrough");
        let mut bytes = Vec::new();
        for (tag, vfs) in [
            ("real", Vfs::real()),
            ("fault", Vfs::with_faults(IoChaosConfig::default())),
        ] {
            let path = d.join(format!("{tag}.txt"));
            let mut f = vfs.create(&path).unwrap();
            f.write_all(b"hello ").unwrap();
            f.write_all(b"world\n").unwrap();
            f.sync_data().unwrap();
            vfs.sync_dir(&d).unwrap();
            let renamed = d.join(format!("{tag}.final"));
            vfs.rename(&path, &renamed).unwrap();
            vfs.sync_dir(&d).unwrap();
            assert_eq!(vfs.read_to_string(&renamed).unwrap(), "hello world\n");
            bytes.push(fs::read(&renamed).unwrap());
        }
        assert_eq!(bytes[0], bytes[1]);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn each_fault_kind_fires_at_its_scheduled_index() {
        let d = dir_for("kinds");
        // fail-fsync@1: first fsync fine, second injected.
        let vfs = Vfs::with_faults(IoChaosConfig::parse("fail-fsync@1").unwrap());
        let mut f = vfs.create(&d.join("a")).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_data().unwrap();
        let err = f.sync_data().unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::FailFsync);

        // torn-write@1:3 keeps 3 bytes of the second write.
        let vfs = Vfs::with_faults(IoChaosConfig::parse("torn-write@1:3").unwrap());
        let p = d.join("b");
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"full-").unwrap();
        let err = f.write_all(b"abcdef").unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::TornWrite);
        assert_eq!(fs::read_to_string(&p).unwrap(), "full-abc");

        // fail-rename@0.
        let vfs = Vfs::with_faults(IoChaosConfig::parse("fail-rename@0").unwrap());
        let err = vfs.rename(&p, &d.join("c")).unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::FailRename);
        assert!(p.exists(), "failed rename must not move the file");

        // enospc-after@4 persists only the budget.
        let vfs = Vfs::with_faults(IoChaosConfig::parse("enospc-after@4").unwrap());
        let p = d.join("d");
        let mut f = vfs.create(&p).unwrap();
        let err = f.write_all(b"123456").unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::Enospc);
        assert_eq!(fs::read_to_string(&p).unwrap(), "1234");

        // eio-read@0.
        let vfs = Vfs::with_faults(IoChaosConfig::parse("eio-read@0").unwrap());
        let err = vfs.read_to_string(&p).unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::EioRead);
        assert_eq!(vfs.read_to_string(&p).unwrap(), "1234");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn power_cut_freezes_the_fsynced_prefix_and_fails_all_later_io() {
        let d = dir_for("cut");
        let p = d.join("f");
        // Ops: create(0) write(1) sync(2) sync_dir(3) write(4) cut@5.
        let vfs = Vfs::with_faults(IoChaosConfig::parse("power-cut@5").unwrap());
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"durable|").unwrap();
        f.sync_data().unwrap();
        vfs.sync_dir(&d).unwrap();
        f.write_all(b"lost").unwrap();
        let err = f.sync_data().unwrap_err();
        assert_eq!(err.kind, VfsErrorKind::PowerCut);
        // Everything after the cut fails typed.
        assert_eq!(
            vfs.read_to_string(&p).unwrap_err().kind,
            VfsErrorKind::PowerCut
        );
        // The surviving bytes are exactly the fsynced prefix.
        assert_eq!(fs::read_to_string(&p).unwrap(), "durable|");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn power_cut_loses_files_whose_directory_entry_was_never_synced() {
        let d = dir_for("cut-dirent");
        // Without a directory fsync the fsynced *contents* do not save
        // the file: the entry itself was never durable. This is the
        // journal-create bug class the checkpoint oracle pins.
        let p = d.join("no-dirsync");
        let vfs = Vfs::with_faults(IoChaosConfig::parse("power-cut@3").unwrap());
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"synced content").unwrap();
        f.sync_data().unwrap();
        assert_eq!(f.write_all(b"x").unwrap_err().kind, VfsErrorKind::PowerCut);
        assert!(!p.exists(), "entry never fsynced: file must be lost");

        // Same sequence with a directory fsync: the file survives.
        let p = d.join("with-dirsync");
        let vfs = Vfs::with_faults(IoChaosConfig::parse("power-cut@4").unwrap());
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"synced content").unwrap();
        f.sync_data().unwrap();
        vfs.sync_dir(&d).unwrap();
        assert_eq!(f.write_all(b"x").unwrap_err().kind, VfsErrorKind::PowerCut);
        assert_eq!(fs::read_to_string(&p).unwrap(), "synced content");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn sync_dir_dot_covers_bare_relative_filenames() {
        // Regression: a bare relative path (`chaos.journal.jsonl`) has
        // parent Some("") while the journal syncs its directory as "."
        // — the pending created-entry must clear for either spelling,
        // or a power cut deletes a journal whose directory *was*
        // synced. Run from inside a scratch dir so the relative file
        // lands somewhere disposable.
        let d = dir_for("cut-relative");
        let prev = std::env::current_dir().unwrap();
        std::env::set_current_dir(&d).unwrap();
        let vfs = Vfs::with_faults(IoChaosConfig::parse("power-cut@4").unwrap());
        let rel = Path::new("relative.jsonl");
        let mut f = vfs.create(rel).unwrap();
        f.write_all(b"synced content").unwrap();
        f.sync_data().unwrap();
        vfs.sync_dir(Path::new(".")).unwrap();
        assert_eq!(f.write_all(b"x").unwrap_err().kind, VfsErrorKind::PowerCut);
        let bytes = fs::read_to_string(rel);
        std::env::set_current_dir(prev).unwrap();
        assert_eq!(bytes.unwrap(), "synced content");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn power_cut_rolls_back_renames_whose_directory_was_never_synced() {
        let d = dir_for("cut-rename");
        let dest = d.join("dest");
        fs::write(&dest, "old contents").unwrap();
        // create tmp(0) write(1) sync(2) rename(3) cut@4 — no dir sync
        // after the rename, so the crash rolls dest back.
        let vfs = Vfs::with_faults(IoChaosConfig::parse("power-cut@4").unwrap());
        let tmp_p = d.join("dest.tmp");
        let mut f = vfs.create(&tmp_p).unwrap();
        f.write_all(b"new contents").unwrap();
        f.sync_all().unwrap();
        vfs.rename(&tmp_p, &dest).unwrap();
        assert_eq!(
            vfs.read_to_string(&dest).unwrap_err().kind,
            VfsErrorKind::PowerCut
        );
        assert_eq!(fs::read_to_string(&dest).unwrap(), "old contents");
        let _ = fs::remove_dir_all(&d);
    }
}
