//! The content-addressed on-disk store behind both engine caches.
//!
//! The trained-context cache ([`crate::cache`]) and the row cache
//! ([`crate::rowcache`]) persist different payloads under one discipline,
//! and this module is that discipline, written once:
//!
//! - **Content keys.** A 128-bit key is FNV-1a of a canonical string
//!   under two bases (`content_key`), named by its 32-character
//!   lowercase hex (`hex`, `parse_hex`). The queue fingerprint of
//!   [`crate::shard`] is the same key over the spec text.
//! - **Record envelope.** Every file is `magic ‖ u32 LE version ‖ body ‖
//!   u64 LE FNV-1a checksum`. `seal` writes it; `open` checks the
//!   checksum first (every later check assumes intact bytes), then the
//!   magic, then the version, and hands the body to the payload codec.
//! - **Disk tier.** `publish` writes a temporary file and renames it
//!   into place, so a reader never sees a partial file. The temporary
//!   name is unique to each write — process id plus a process-wide
//!   sequence — so concurrent writers of one entry, in one process or
//!   many, never write into each other's file. `load` treats a missing
//!   file as a plain miss and removes any other unusable file, so the
//!   recomputed entry republishes cleanly.
//! - **Single flight.** `SingleFlight` runs one computation per key
//!   among concurrent callers in this process: the first caller to claim
//!   a missing key computes it, later callers wait and receive the
//!   leader's value. The context cache trains through it and the row
//!   cache computes whole-point rows through it.
//! - **Directory operations.** [`list`], [`rm`] and [`gc`] (the `spnn
//!   cache …` / `spnn rowcache …` verbs) and [`Layout::default_dir`],
//!   driven by each cache's [`Layout`].
//!
//! A cache supplies only its payload codec, its [`Layout`] and its
//! in-memory tier. Entries are deterministic, so removing one — by `gc`,
//! `rm` or healing — can cost a recompute, never correctness.

use crate::fnv::{fnv1a64, FNV_BASIS};
use crate::metrics::{Counter, Gauge};
use crate::tevent;
use crate::trace::Level;
use std::collections::{hash_map, HashMap};
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------------
// Content keys
// ---------------------------------------------------------------------------

/// The 128-bit content key of a canonical string: FNV-1a under the
/// standard basis, then under a second basis, both little-endian.
pub(crate) fn content_key(canonical: &str) -> [u8; 16] {
    let a = fnv1a64(canonical.as_bytes(), FNV_BASIS);
    let b = fnv1a64(canonical.as_bytes(), 0x6c62272e07bb0142);
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&a.to_le_bytes());
    key[8..].copy_from_slice(&b.to_le_bytes());
    key
}

/// The 32-character lowercase hex form of a key (file stems, manifests).
pub(crate) fn hex(key: &[u8; 16]) -> String {
    let mut out = String::with_capacity(32);
    for b in key {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Parses [`hex`] output back into a key; `None` unless `hex` is exactly
/// 32 hex digits.
pub(crate) fn parse_hex(hex: &str) -> Option<[u8; 16]> {
    if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let mut key = [0u8; 16];
    for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
        let s = std::str::from_utf8(chunk).ok()?;
        key[i] = u8::from_str_radix(s, 16).ok()?;
    }
    Some(key)
}

// ---------------------------------------------------------------------------
// Record envelope
// ---------------------------------------------------------------------------

/// The envelope identity of one record format.
pub(crate) struct Format {
    /// Magic bytes opening every record.
    pub(crate) magic: &'static [u8; 8],
    /// Layout version; bump on any change. Records of another version are
    /// rejected (recompute-on-load), never misread.
    pub(crate) version: u32,
}

/// Writes `magic ‖ version ‖ body ‖ checksum`, with `body` filled in by
/// the payload codec. Endian-stable: every integer is little-endian.
pub(crate) fn seal(format: &Format, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(format.magic);
    w.u32(format.version);
    body(&mut w);
    let checksum = fnv1a64(&w.buf, FNV_BASIS);
    w.u64(checksum);
    w.buf
}

/// Validates a sealed record — checksum, then magic, then version — and
/// returns a reader over its body.
pub(crate) fn open<'a>(format: &Format, bytes: &'a [u8]) -> Result<Reader<'a>, LoadError> {
    let header = format.magic.len() + 4;
    if bytes.len() < header + 8 {
        return Err(LoadError::Malformed("file too short"));
    }
    let (content, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv1a64(content, FNV_BASIS) != stored {
        return Err(LoadError::BadChecksum);
    }
    if &content[..format.magic.len()] != format.magic {
        return Err(LoadError::BadMagic);
    }
    let version = u32::from_le_bytes(
        content[format.magic.len()..header]
            .try_into()
            .expect("4-byte version"),
    );
    if version != format.version {
        return Err(LoadError::BadVersion(version));
    }
    Ok(Reader::new(&content[header..]))
}

/// Why a store file could not be used. Every variant falls back to
/// recomputing the entry — a store can slow a run down, never corrupt it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file does not exist (a plain miss).
    NotFound,
    /// The file could not be read.
    Io(String),
    /// The magic bytes do not match (not a file of this store).
    BadMagic,
    /// The format version is not this build's.
    BadVersion(u32),
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// The stored key does not match the requested one (renamed file or —
    /// theoretically — a hash collision).
    FingerprintMismatch,
    /// A structural invariant failed while decoding.
    Malformed(&'static str),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::NotFound => write!(f, "no cache entry"),
            LoadError::Io(e) => write!(f, "I/O error: {e}"),
            LoadError::BadMagic => write!(f, "not a spnn cache file"),
            LoadError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            LoadError::BadChecksum => write!(f, "checksum mismatch (corrupt file)"),
            LoadError::FingerprintMismatch => write!(f, "fingerprint mismatch"),
            LoadError::Malformed(what) => write!(f, "malformed entry: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self {
            buf: Vec::with_capacity(32 * 1024),
        }
    }
    pub(crate) fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }
    pub(crate) fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    pub(crate) fn f64s(&mut self, xs: &[f64]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.f64(x);
        }
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    /// Bytes left to read — the bound every count is checked against
    /// before it sizes an allocation.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        if self.remaining() < n {
            return Err(LoadError::Malformed("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, LoadError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, LoadError> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub(crate) fn str(&mut self) -> Result<String, LoadError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LoadError::Malformed("non-UTF-8 string"))
    }
    /// A length-prefixed f64 list; the length is bounds-checked against the
    /// remaining bytes *before* allocation, so a corrupted length cannot
    /// trigger a huge allocation.
    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, LoadError> {
        let n = self.u32()? as usize;
        if self.remaining() < n * 8 {
            return Err(LoadError::Malformed("truncated f64 list"));
        }
        (0..n).map(|_| self.f64()).collect()
    }
    /// Succeeds only when the whole body was consumed.
    pub(crate) fn finish(&self) -> Result<(), LoadError> {
        if self.remaining() != 0 {
            return Err(LoadError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------------

/// Process-wide sequence that makes every temporary file name unique.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically publishes `bytes` at `path` (creating its directory): the
/// bytes go to a temporary file named for this write alone, which is then
/// renamed over `path`. Readers see the old file or the whole new one;
/// concurrent writers of one entry each rename a complete file, and the
/// last rename wins.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be created or
/// the file cannot be written or renamed; the temporary file is removed.
pub(crate) fn publish(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".tmp-{}-{seq}-{name}", std::process::id()));
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Reads and decodes the entry at `path`. A missing file is a plain miss;
/// any other failure — unreadable, corrupt, version-skewed or foreign — is
/// logged, the file is removed so the recomputed entry republishes over
/// it, and `healed` is counted.
pub(crate) fn load<T>(
    path: &Path,
    healed: &Counter,
    decode: impl FnOnce(&[u8]) -> Result<T, LoadError>,
) -> Option<T> {
    let read = std::fs::read(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => LoadError::NotFound,
        _ => LoadError::Io(e.to_string()),
    });
    match read.and_then(|bytes| decode(&bytes)) {
        Ok(value) => Some(value),
        Err(LoadError::NotFound) => None,
        Err(e) => {
            tevent!(
                Level::Warn,
                "store",
                "removing unusable store file",
                path = &path.display().to_string(),
                error = &format!("{e}"),
            );
            let _ = std::fs::remove_file(path);
            healed.inc();
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Single flight
// ---------------------------------------------------------------------------

/// How a [`SingleFlight::run`] caller obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flown {
    /// Its re-check under the claim found the value already published.
    Found,
    /// It waited on another caller's computation.
    Joined,
    /// It computed the value.
    Computed,
}

/// One claimed key: `None` while the leader runs, then `Some(Some(v))`
/// once it landed or `Some(None)` if the leader dropped without landing.
type Flight<V> = (Mutex<Option<Option<Arc<V>>>>, Condvar);

/// Runs one computation per content key among concurrent callers.
///
/// The first caller to claim a key leads: it re-checks the published
/// values (a value published between its miss and its claim is never
/// computed twice), otherwise computes, and then lands the flight. Every
/// other caller for that key waits and receives the leader's `Arc`. If
/// the leader drops without landing (it panicked), its waiters are
/// released and claim again, so one of them computes. A flight's entry
/// is removed when it ends, so the table holds only keys in flight.
///
/// A caller must not wait on a key while it leads another: callers claim
/// keys one at a time.
#[derive(Debug)]
pub(crate) struct SingleFlight<V> {
    flights: Mutex<HashMap<[u8; 16], Arc<Flight<V>>>>,
    /// Callers that received another caller's value instead of computing.
    pub(crate) joined: Counter,
    /// Callers currently waiting on another caller's computation.
    pub(crate) waiting: Gauge,
}

/// Locks `m`, ignoring poison: a panicking leader is handled explicitly,
/// and every guarded state is valid after each single write.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<V> SingleFlight<V> {
    pub(crate) fn new() -> Self {
        Self {
            flights: Mutex::default(),
            joined: Counter::new(),
            waiting: Gauge::new(),
        }
    }

    /// The value for `key`: joined from the caller already computing it,
    /// else — once this caller holds the claim — `recheck`'s published
    /// value, else `compute`'s. `compute` must publish its value wherever
    /// `recheck` looks before returning; the flight lands (releasing the
    /// waiters) as soon as it returns.
    pub(crate) fn run(
        &self,
        key: [u8; 16],
        recheck: impl FnOnce() -> Option<Arc<V>>,
        compute: impl FnOnce() -> Arc<V>,
    ) -> (Arc<V>, Flown) {
        let mut lead = loop {
            let flight = match lock(&self.flights).entry(key) {
                hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
                hash_map::Entry::Vacant(e) => {
                    let flight = Arc::clone(e.insert(Arc::default()));
                    break Lead {
                        table: self,
                        key,
                        flight,
                        value: None,
                    };
                }
            };
            self.waiting.inc();
            let (outcome, ended) = &*flight;
            let outcome = ended.wait_while(lock(outcome), |o| o.is_none());
            let landed = outcome
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
                .flatten();
            self.waiting.dec();
            if let Some(value) = landed {
                self.joined.inc();
                return (value, Flown::Joined);
            }
            // The leader dropped without landing: claim the key again.
        };
        let (value, flown) = match recheck() {
            Some(value) => (value, Flown::Found),
            None => (compute(), Flown::Computed),
        };
        lead.value = Some(Arc::clone(&value));
        (value, flown)
    }
}

/// A leader's claim on one key. Dropping it ends the flight: with the
/// value it landed, or abandoned when the leader unwinds first.
struct Lead<'a, V> {
    table: &'a SingleFlight<V>,
    key: [u8; 16],
    flight: Arc<Flight<V>>,
    value: Option<Arc<V>>,
}

impl<V> Drop for Lead<'_, V> {
    fn drop(&mut self) {
        lock(&self.table.flights).remove(&self.key);
        *lock(&self.flight.0) = Some(self.value.take());
        self.flight.1.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Directory operations (spnn cache / spnn rowcache)
// ---------------------------------------------------------------------------

/// How one store names its files and where it lives by default.
#[derive(Debug)]
pub struct Layout {
    /// Environment variable that relocates the store.
    pub(crate) env_var: &'static str,
    /// The store's directory under the user cache root.
    pub(crate) subdir: &'static str,
    /// The directory used when no cache root can be found.
    pub(crate) fallback: &'static str,
    /// File extension of every entry.
    pub(crate) extension: &'static str,
    /// The record kinds, told apart by file-name prefix.
    pub(crate) kinds: &'static [Kind],
}

/// One record kind of a [`Layout`]: entries are named
/// `<prefix><32 hex>.<extension>`.
#[derive(Debug)]
pub(crate) struct Kind {
    /// File-name prefix, e.g. `"row-"`.
    pub(crate) prefix: &'static str,
    /// Name shown by `ls`, e.g. `"row"`.
    pub(crate) name: &'static str,
    /// Decodes a file of this kind into a one-line `ls` summary.
    pub(crate) summarize: fn(&[u8]) -> Result<String, LoadError>,
}

impl Layout {
    /// The store directory the `spnn` CLI uses by default: `$env_var`,
    /// else `$XDG_CACHE_HOME/<subdir>`, else `$HOME/.cache/<subdir>`, else
    /// `./<fallback>`.
    pub fn default_dir(&self) -> PathBuf {
        if let Some(dir) = std::env::var_os(self.env_var) {
            return PathBuf::from(dir);
        }
        let root = std::env::var_os("XDG_CACHE_HOME")
            .filter(|x| !x.is_empty())
            .map(PathBuf::from)
            .or_else(|| {
                std::env::var_os("HOME")
                    .filter(|h| !h.is_empty())
                    .map(|h| PathBuf::from(h).join(".cache"))
            });
        match root {
            Some(root) => root.join(self.subdir),
            None => PathBuf::from(self.fallback),
        }
    }

    /// The path of the `kind` entry keyed `key_hex` under `dir`.
    pub(crate) fn path(&self, dir: &Path, kind: &Kind, key_hex: &str) -> PathBuf {
        dir.join(format!("{}{key_hex}.{}", kind.prefix, self.extension))
    }

    /// The kind and key of an entry file, or `None` for a file that is
    /// not an entry of this store. A file with the extension but an
    /// unknown prefix has no kind; its key is the whole stem.
    fn classify<'p>(&self, path: &'p Path) -> Option<(Option<&'static Kind>, &'p str)> {
        if path.extension().and_then(|e| e.to_str()) != Some(self.extension) {
            return None;
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        Some(
            self.kinds
                .iter()
                .find_map(|k| stem.strip_prefix(k.prefix).map(|hex| (Some(k), hex)))
                .unwrap_or((None, stem)),
        )
    }
}

/// The regular files under `dir` with their metadata. A missing directory
/// is an empty store, and a file that vanishes mid-scan — a concurrent
/// remover or writer rename in a shared directory — is skipped.
fn scan(dir: &Path) -> std::io::Result<Vec<(PathBuf, std::fs::Metadata)>> {
    let mut files = Vec::new();
    let Some(rd) = tolerate_vanished(std::fs::read_dir(dir))? else {
        return Ok(files);
    };
    for entry in rd {
        let entry = entry?;
        if let Some(meta) = tolerate_vanished(entry.metadata())? {
            if meta.is_file() {
                files.push((entry.path(), meta));
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn tolerate_vanished<T>(r: std::io::Result<T>) -> std::io::Result<Option<T>> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// What `spnn cache ls` / `spnn rowcache ls` shows for one entry file.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Full path of the file.
    pub path: PathBuf,
    /// The key from the file name (32 hex characters for real entries).
    pub key_hex: String,
    /// The record kind's name, or `"?"` for an unknown file-name prefix.
    pub kind: &'static str,
    /// File size in bytes.
    pub size_bytes: u64,
    /// A one-line summary of the decoded entry; `None` when the file is
    /// corrupt or from another format version (recompute-on-load and
    /// safe to remove).
    pub summary: Option<String>,
}

/// Lists the entries of `layout` under `dir`, sorted by file name. A
/// missing directory lists as empty.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory exists but cannot be
/// read.
pub fn list(dir: &Path, layout: &Layout) -> std::io::Result<Vec<Entry>> {
    let mut out = Vec::new();
    for (path, meta) in scan(dir)? {
        let Some((kind, key_hex)) = layout.classify(&path) else {
            continue;
        };
        let summary = kind.and_then(|k| {
            let bytes = std::fs::read(&path).ok()?;
            (k.summarize)(&bytes).ok()
        });
        out.push(Entry {
            key_hex: key_hex.to_string(),
            kind: kind.map_or("?", |k| k.name),
            size_bytes: meta.len(),
            summary,
            path,
        });
    }
    Ok(out)
}

/// Removes every entry of `layout` under `dir` (with `all`) or every entry
/// whose key starts with one of `keys`, returning the removed paths. Each
/// key is checked to match some entry before anything is removed, so a
/// mistyped key cannot leave the store half-deleted. Entries are matched
/// by file name; none is read.
///
/// # Errors
///
/// [`std::io::ErrorKind::NotFound`] naming the first key that matches no
/// entry; otherwise the underlying I/O error of the scan or a removal.
pub fn rm(dir: &Path, layout: &Layout, keys: &[&str], all: bool) -> std::io::Result<Vec<PathBuf>> {
    let entries: Vec<(String, PathBuf)> = scan(dir)?
        .into_iter()
        .filter_map(|(path, _)| match layout.classify(&path)? {
            (Some(_), hex) => Some((hex.to_string(), path)),
            (None, _) => None,
        })
        .collect();
    for k in keys {
        if k.is_empty() || !entries.iter().any(|(hex, _)| hex.starts_with(k)) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no entry matches key {k:?}"),
            ));
        }
    }
    let mut removed = Vec::new();
    for (hex, path) in entries {
        if all || keys.iter().any(|k| hex.starts_with(k)) {
            std::fs::remove_file(&path)?;
            removed.push(path);
        }
    }
    Ok(removed)
}

/// Retention limits for [`gc`]. Unset bounds don't constrain; with both
/// unset, [`gc`] only removes stale temporary files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcLimits {
    /// Keep at most this many entries.
    pub max_entries: Option<usize>,
    /// Keep at most this many bytes of entries.
    pub max_bytes: Option<u64>,
}

/// What [`gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries retained.
    pub kept: usize,
    /// Entries (plus stale temporary files) removed.
    pub removed: usize,
    /// Total size of the retained entries.
    pub bytes_kept: u64,
    /// Bytes reclaimed.
    pub bytes_freed: u64,
}

/// How old a `.tmp-*` file must be before [`gc`] treats it as a crashed
/// writer's leftover rather than an in-flight [`publish`] (which is a
/// write-then-rename lasting well under a second).
const TMP_SWEEP_MIN_AGE: std::time::Duration = std::time::Duration::from_secs(15 * 60);

/// Evicts entries least-recently-written-first until the store fits
/// `limits`: entries (every file with the layout's extension) are ordered
/// by file mtime (newest first; path as a deterministic tiebreak), the
/// newest prefix that satisfies both bounds is retained, and the first
/// entry to exceed a bound — plus everything older — is removed. Stale
/// `.tmp-*` files left behind by crashed writers are also removed, but
/// only once older than a grace period — a concurrent writer between its
/// temp write and rename must not lose the race. A missing directory is
/// an empty store, not an error.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory or an entry cannot
/// be read or removed — except files that vanish mid-scan, which are
/// skipped.
pub fn gc(dir: &Path, layout: &Layout, limits: &GcLimits) -> std::io::Result<GcOutcome> {
    let mut outcome = GcOutcome::default();
    let now = std::time::SystemTime::now();
    let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
    for (path, meta) in scan(dir)? {
        let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with(".tmp-") {
            let stale = now
                .duration_since(mtime)
                .is_ok_and(|age| age >= TMP_SWEEP_MIN_AGE);
            if stale && tolerate_vanished(std::fs::remove_file(&path))?.is_some() {
                outcome.removed += 1;
                outcome.bytes_freed += meta.len();
            }
        } else if layout.classify(&path).is_some() {
            files.push((mtime, path, meta.len()));
        }
    }
    // Newest first. The retained set is a strict newest-first prefix:
    // the first entry that oversteps a bound is evicted together with
    // everything older (no knapsack-style backfilling with small old
    // entries past a large evicted one).
    files.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut evicting = false;
    for (_, path, size) in files {
        evicting = evicting
            || limits.max_entries.is_some_and(|m| outcome.kept >= m)
            || limits
                .max_bytes
                .is_some_and(|m| outcome.bytes_kept + size > m);
        if evicting {
            if tolerate_vanished(std::fs::remove_file(&path))?.is_some() {
                outcome.removed += 1;
                outcome.bytes_freed += size;
            }
        } else {
            outcome.kept += 1;
            outcome.bytes_kept += size;
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Barrier;

    const TEST_FORMAT: Format = Format {
        magic: b"SPNNTST\x01",
        version: 3,
    };

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spnn-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sealed(body: &[u8]) -> Vec<u8> {
        seal(&TEST_FORMAT, |w| w.buf.extend_from_slice(body))
    }

    /// Re-seals `bytes` in place: the checksum then passes, so only the
    /// checks behind it can reject the record.
    fn reseal(bytes: &mut [u8]) {
        let n = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..n], FNV_BASIS);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn content_keys_round_trip_through_hex() {
        let key = content_key("spnn-queue-v1;seed = 7");
        assert_ne!(key, content_key("spnn-queue-v1;seed = 8"));
        let h = hex(&key);
        assert_eq!(h.len(), 32);
        assert!(h
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
        assert_eq!(parse_hex(&h), Some(key));
        assert_eq!(parse_hex(&h.to_uppercase()), Some(key));
        for bad in [
            "",
            "not-hex",
            &h[..31],
            &format!("{h}0"),
            &h.replacen('0', "g", 1),
        ] {
            assert_eq!(parse_hex(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn open_checks_checksum_then_magic_then_version() {
        let good = sealed(b"payload");
        let mut r = open(&TEST_FORMAT, &good).expect("own record opens");
        assert_eq!(r.take(7).unwrap(), b"payload");
        r.finish().expect("body fully read");

        let mut magic = good.clone();
        magic[0] ^= 1;
        magic[8] = 99; // the version too, so only the order can decide
        assert_eq!(
            open(&TEST_FORMAT, &magic).err(),
            Some(LoadError::BadChecksum)
        );
        reseal(&mut magic);
        assert_eq!(open(&TEST_FORMAT, &magic).err(), Some(LoadError::BadMagic));
        let mut version = good.clone();
        version[8] = 99;
        reseal(&mut version);
        assert_eq!(
            open(&TEST_FORMAT, &version).err(),
            Some(LoadError::BadVersion(99))
        );
        assert_eq!(
            open(&TEST_FORMAT, &good[..19]).err(),
            Some(LoadError::Malformed("file too short"))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every strict prefix and every single-bit flip of a sealed
        /// record is rejected: FNV-1a steps are bijections, so one
        /// changed byte always changes the checksum.
        #[test]
        fn open_rejects_every_truncation_and_bit_flip(
            body in proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..48),
        ) {
            let bytes = sealed(&body);
            let r = open(&TEST_FORMAT, &bytes).expect("own record opens");
            prop_assert_eq!(r.buf, body.as_slice());
            for len in 0..bytes.len() {
                prop_assert!(open(&TEST_FORMAT, &bytes[..len]).is_err(), "prefix {}", len);
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(open(&TEST_FORMAT, &flipped).is_err(), "bit {}", bit);
            }
        }
    }

    /// Writers publishing one entry concurrently from one process must
    /// each rename a complete file of their own: a reader racing them
    /// never sees a torn entry, so never heals (deletes) one. With one
    /// shared temporary name per process, writers truncated and renamed
    /// each other's half-written files.
    #[test]
    fn concurrent_publishers_never_tear_an_entry() {
        const WRITERS: usize = 3;
        const ROUNDS: usize = 60;
        let dir = tmp_dir("publish-race");
        let path = dir.join("row-00000000000000000000000000000000.spnnrow");
        let bytes = sealed(&vec![0x5a; 1 << 20]);
        let (healed, failed) = (Counter::new(), Counter::new());
        let start = Arc::new(Barrier::new(WRITERS + 1));
        for _ in 0..ROUNDS {
            let _ = std::fs::remove_file(&path);
            std::thread::scope(|scope| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|_| {
                        let start = Arc::clone(&start);
                        let (path, bytes, failed) = (&path, &bytes, &failed);
                        scope.spawn(move || {
                            start.wait();
                            if publish(path, bytes).is_err() {
                                failed.inc();
                            }
                        })
                    })
                    .collect();
                start.wait();
                while !writers.iter().all(|w| w.is_finished()) {
                    if let Some(len) = load(&path, &healed, |b| {
                        open(&TEST_FORMAT, b).map(|r| r.buf.len())
                    }) {
                        assert_eq!(len, 1 << 20);
                    }
                }
            });
        }
        assert_eq!(healed.get(), 0, "a reader saw a torn entry");
        assert_eq!(failed.get(), 0, "a writer lost its temporary file");
        assert_eq!(std::fs::read(&path).expect("published"), bytes);
        let leftovers: Vec<_> = scan(&dir)
            .unwrap()
            .into_iter()
            .filter(|(p, _)| p != &path)
            .collect();
        assert!(leftovers.is_empty(), "temporary files left: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    impl<V> SingleFlight<V> {
        /// The number of keys currently in flight.
        pub(crate) fn in_flight(&self) -> usize {
            lock(&self.flights).len()
        }
    }

    /// A published-value slot standing in for a cache tier.
    type Slot = Mutex<Option<Arc<u64>>>;

    /// One [`SingleFlight::run`] against `slot`: the re-check reads it,
    /// the computation counts itself, optionally lingers, and publishes.
    fn flight_run(
        flights: &SingleFlight<u64>,
        key: [u8; 16],
        slot: &Slot,
        computations: &Counter,
        linger: std::time::Duration,
    ) -> (Arc<u64>, Flown) {
        flights.run(
            key,
            || lock(slot).clone(),
            || {
                computations.inc();
                std::thread::sleep(linger);
                let value = Arc::new(u64::from(key[0]) + 100);
                *lock(slot) = Some(Arc::clone(&value));
                value
            },
        )
    }

    /// Spins until `done` holds, failing the test after ten seconds.
    fn await_condition(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_callers_of_one_key_compute_once() {
        const N: usize = 8;
        let flights = SingleFlight::new();
        let (slot, computations) = (Slot::default(), Counter::new());
        let start = Barrier::new(N);
        let results: Vec<(Arc<u64>, Flown)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        flight_run(
                            &flights,
                            [7; 16],
                            &slot,
                            &computations,
                            std::time::Duration::from_millis(50),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computations.get(), 1, "one caller computes");
        let computed = results
            .iter()
            .filter(|(_, how)| *how == Flown::Computed)
            .count();
        let joined = results
            .iter()
            .filter(|(_, how)| *how == Flown::Joined)
            .count();
        assert_eq!(computed, 1);
        assert_eq!(joined as u64, flights.joined.get());
        for (value, _) in &results {
            assert!(Arc::ptr_eq(value, &results[0].0), "one shared value");
        }
        assert_eq!(flights.in_flight(), 0, "the flight table empties");
        assert_eq!(flights.waiting.get(), 0);

        // A later caller re-checks under its own claim and finds the value.
        let (value, how) = flight_run(
            &flights,
            [7; 16],
            &slot,
            &computations,
            std::time::Duration::ZERO,
        );
        assert_eq!((*value, how, computations.get()), (107, Flown::Found, 1));
        assert_eq!(flights.in_flight(), 0);
    }

    #[test]
    fn a_panicking_leader_releases_its_waiters_and_one_recomputes() {
        const WAITERS: usize = 4;
        let flights = SingleFlight::<u64>::new();
        let (slot, computations) = (Slot::default(), Counter::new());
        let (claimed_tx, claimed_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                flights.run(
                    [3; 16],
                    || None,
                    || {
                        claimed_tx.send(()).unwrap();
                        await_condition("waiters queue up", || {
                            flights.waiting.get() == WAITERS as i64
                        });
                        panic!("leader dies mid-flight");
                    },
                )
            });
            claimed_rx.recv().unwrap();
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| {
                    scope.spawn(|| {
                        flight_run(
                            &flights,
                            [3; 16],
                            &slot,
                            &computations,
                            std::time::Duration::from_millis(20),
                        )
                    })
                })
                .collect();
            assert!(leader.join().is_err(), "the leader panicked");
            let results: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
            assert_eq!(computations.get(), 1, "exactly one waiter recomputes");
            let computed = results
                .iter()
                .filter(|(_, how)| *how == Flown::Computed)
                .count();
            assert_eq!(computed, 1);
            for (value, _) in &results {
                assert_eq!(**value, 103);
            }
        });
        assert_eq!(flights.in_flight(), 0, "the flight table empties");
        assert_eq!(flights.waiting.get(), 0);
    }

    #[test]
    fn distinct_keys_fly_concurrently() {
        let flights = SingleFlight::<u64>::new();
        let active = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for k in 0..2u8 {
                let (flights, active) = (&flights, &active);
                scope.spawn(move || {
                    flights.run(
                        [k; 16],
                        || None,
                        || {
                            active.fetch_add(1, Ordering::SeqCst);
                            // Both computations must be running at once.
                            await_condition("both keys in flight", || {
                                active.load(Ordering::SeqCst) == 2
                            });
                            Arc::new(u64::from(k))
                        },
                    )
                });
            }
        });
        assert_eq!(flights.in_flight(), 0);
        assert_eq!(flights.joined.get(), 0);
    }
}
