//! Crash-resumable sweeps: one sequential pass over the vector stream
//! with window-boundary checkpoints and a completed-window journal, pinned
//! bit-identical to an uninterrupted [`PlSimulator::run_stream`].
//!
//! # On-disk layout
//!
//! [`sweep_resumable`] owns one directory per sweep:
//!
//! | file | contents |
//! |------|----------|
//! | `sweep.meta` | run identity: magic `PLSWMETA`, format version, netlist fingerprint, delay-model digest, vector-stream digest, window size, vector count, trailing CRC32 |
//! | `journal.bin` | append-only completed-window log; each entry is `len:u32 \| payload \| crc32(payload):u32` with payload `window:u64, last_tick:u64, n_words:u64, width:u64, words as 0/1 bytes` |
//! | `window-{k:08}.ck` | the [`crate::SimCheckpoint`] wire encoding ([`crate::checkpoint::wire`]) of the simulator at the boundary *before* window `k`, for `k >= 1` (boundary 0 is the fresh simulator — no file needed) |
//!
//! Every file is written atomically (write `*.tmp`, `sync_all`, rename),
//! so a kill can leave at worst a stale `*.tmp` (ignored) or a torn
//! journal *tail* (detected by the per-entry CRC and truncated away on
//! recovery — completed entries before it survive).
//!
//! # The run
//!
//! The sweep injects the vectors exactly as [`PlSimulator::run_stream`]
//! does, one window at a time. After each window's vectors are fed, it
//! collects and journals every window whose output words are all
//! recorded, and only then writes the next boundary checkpoint. So a
//! checkpoint's collected `rounds` are exactly the rounds the journal
//! held when it was written, and every checkpoint is a self-describing
//! restart point. The
//! collected words leave the simulator, so a checkpoint carries only the
//! rounds still in flight: checkpoint size and simulator memory are
//! O(in-flight rounds), not O(stream position).
//!
//! # Recovery
//!
//! On `resume`, the runner decodes `sweep.meta` (any corruption is a
//! typed fatal [`SimError`] — a directory whose identity cannot be
//! trusted is not resumed), rejects parameter drift with
//! [`SimError::ResumeMismatch`], replays the journal to learn which
//! windows already completed, and restores the *largest decodable*
//! checkpoint boundary whose collected rounds the journal covers. A
//! corrupt or unreadable `window-k.ck` is recorded in
//! [`SweepRecovery::corrupt_files`] and routed around by falling back to
//! the previous boundary (ultimately boundary 0), never trusted: the wire
//! format's digests and CRCs decide, so resumption is correct even if
//! every checkpoint file was byte-flipped. Windows re-simulated after the
//! restart point that the journal already holds are not appended again.
//!
//! A deterministic simulation that failed once fails the same way on
//! every retry, so there is no retry budget: a simulation error ends the
//! run with that error, exactly where [`PlSimulator::run_stream`] would
//! report it.

use std::cell::Cell;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use pl_core::PlNetlist;

use crate::checkpoint::wire::{crc32, delay_digest, out_of_range, Reader};
use crate::checkpoint::{netlist_fingerprint, Fnv64, SimCheckpoint};
use crate::delay::{ticks_to_ns, DelayModel};
use crate::engine::{PlSimulator, StreamOutcome};
use crate::error::SimError;
use crate::queue::QueueKind;

/// Magic bytes opening `sweep.meta` (distinct from the checkpoint
/// magic, so the two file kinds can never be confused).
pub const META_MAGIC: [u8; 8] = *b"PLSWMETA";

/// `sweep.meta` format version this build writes and accepts.
pub const META_VERSION: u32 = 1;

/// Tuning knobs for [`sweep_resumable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumableOptions {
    /// Vectors per window (checkpoint/journal granularity). Must be > 0.
    pub window: usize,
    /// Ignored: the sweep is one sequential pass. Kept only so existing
    /// callers still compile; it is slated for deletion.
    pub jobs: usize,
    /// Event-queue backend of the sweep's simulator.
    pub queue: QueueKind,
    /// `true` resumes an interrupted sweep already in the directory;
    /// `false` starts fresh and refuses a directory that has one.
    pub resume: bool,
}

impl Default for ResumableOptions {
    fn default() -> Self {
        Self {
            window: 64,
            jobs: 1,
            queue: QueueKind::default(),
            resume: false,
        }
    }
}

/// What recovery did during a [`sweep_resumable`] run — the run's
/// outputs are bit-identical regardless, this is the audit trail.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepRecovery {
    /// Total windows in the sweep.
    pub windows: usize,
    /// Windows the journal already held when the run started (0 on a
    /// fresh run); their words are taken from the journal.
    pub replayed_from_journal: usize,
    /// The checkpoint boundary the run restarted from (equals `windows`
    /// when the journal was already complete).
    pub restart_window: usize,
    /// Always 0: nothing is retried, since a deterministic simulation
    /// that failed once fails the same way again. Kept only so existing
    /// callers still compile; it is slated for deletion.
    pub retried_windows: usize,
    /// Corrupt, unreadable or unusable recovery files that were detected
    /// and routed around (`path: reason` strings).
    pub corrupt_files: Vec<String>,
}

impl fmt::Display for SweepRecovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} windows, {} from journal, restart at {}, {} corrupt files",
            self.windows,
            self.replayed_from_journal,
            self.restart_window,
            self.corrupt_files.len()
        )
    }
}

/// A completed [`sweep_resumable`] run: the stream outcome (bit-identical
/// to [`PlSimulator::run_stream`]) plus its recovery audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumableOutcome {
    /// Outputs, makespan, and throughput of the full stream.
    pub outcome: StreamOutcome,
    /// What recovery happened along the way.
    pub recovery: SweepRecovery,
}

/// Fault-injection hooks for [`sweep_resumable_with_faults`] — the
/// corruption harness's way to halt a run at an adversarial point. A
/// default-constructed plan injects nothing.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Successful journal appends left before the injected halt (`None`
    /// = never halt).
    halt_after: Cell<Option<u64>>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Halts the run with a typed I/O error just before the `(n+1)`-th
    /// journal append — simulating a kill at a window boundary, after
    /// `n` windows durably completed.
    pub fn halt_after_journal_appends(&self, n: u64) {
        self.halt_after.set(Some(n));
    }

    fn check_halt(&self) -> Result<(), SimError> {
        match self.halt_after.get() {
            None => Ok(()),
            Some(0) => {
                self.halt_after.set(None);
                Err(SimError::CheckpointIo {
                    path: "<fault-injection>".into(),
                    message: "injected halt before journal append".into(),
                })
            }
            Some(n) => {
                self.halt_after.set(Some(n - 1));
                Ok(())
            }
        }
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> SimError {
    SimError::CheckpointIo {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Durable write: `*.tmp`, `sync_all`, rename over the target. A kill at
/// any point leaves either the old file or the complete new one.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SimError> {
    let tmp = path.with_extension("tmp");
    let write = |p: &Path| -> std::io::Result<()> {
        let mut f = fs::File::create(p)?;
        f.write_all(bytes)?;
        f.sync_all()
    };
    write(&tmp).map_err(|e| io_err(&tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, &e))
}

fn ck_path(dir: &Path, boundary: usize) -> PathBuf {
    dir.join(format!("window-{boundary:08}.ck"))
}

/// FNV-1a over the vector stream (counts + bit-packed values) — binds a
/// checkpoint directory to the exact inputs, since resuming under
/// different vectors would splice two unrelated streams.
fn vectors_digest(vectors: &[Vec<bool>]) -> u64 {
    let mut h = Fnv64::new();
    h.mix(vectors.len() as u64);
    for v in vectors {
        h.mix(v.len() as u64);
        let mut word = 0u64;
        let mut n = 0u32;
        for &b in v {
            word = word << 1 | u64::from(b);
            n += 1;
            if n == 64 {
                h.mix(word);
                word = 0;
                n = 0;
            }
        }
        if n > 0 {
            h.mix(word);
        }
    }
    h.finish()
}

struct MetaFields {
    fingerprint: u64,
    delay_digest: u64,
    vectors_digest: u64,
    window: u64,
    n_vectors: u64,
}

fn encode_meta(m: &MetaFields) -> Vec<u8> {
    let mut out = Vec::with_capacity(56);
    out.extend_from_slice(&META_MAGIC);
    out.extend_from_slice(&META_VERSION.to_le_bytes());
    out.extend_from_slice(&m.fingerprint.to_le_bytes());
    out.extend_from_slice(&m.delay_digest.to_le_bytes());
    out.extend_from_slice(&m.vectors_digest.to_le_bytes());
    out.extend_from_slice(&m.window.to_le_bytes());
    out.extend_from_slice(&m.n_vectors.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_meta(bytes: &[u8]) -> Result<MetaFields, SimError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8, "sweep.meta magic")?;
    if magic != META_MAGIC {
        return Err(SimError::CheckpointBadMagic {
            found: magic.try_into().expect("8 bytes"),
        });
    }
    let version = r.u32("sweep.meta version")?;
    if version != META_VERSION {
        return Err(SimError::CheckpointVersionSkew {
            found: version,
            supported: META_VERSION,
        });
    }
    // Trailer CRC over everything before it; checked before the fields
    // are trusted, so any flip past the version is a checksum error.
    if r.remaining() < 44 {
        return Err(SimError::CheckpointTruncated {
            context: "sweep.meta",
            needed: 44,
            available: r.remaining(),
        });
    }
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..bytes.len() - 4]);
    if stored != computed {
        return Err(SimError::CheckpointChecksum {
            section: "sweep.meta",
            stored,
            computed,
        });
    }
    let fields = MetaFields {
        fingerprint: r.u64("sweep.meta fingerprint")?,
        delay_digest: r.u64("sweep.meta delay digest")?,
        vectors_digest: r.u64("sweep.meta vectors digest")?,
        window: r.u64("sweep.meta window")?,
        n_vectors: r.u64("sweep.meta vector count")?,
    };
    if r.remaining() != 4 {
        let trailing = r.remaining() as u64;
        return Err(out_of_range("sweep.meta trailing bytes", trailing, 4));
    }
    Ok(fields)
}

/// One durably completed window: its latest record tick and its output
/// words.
type WindowResult = (u64, Vec<Vec<bool>>);

fn encode_entry(window: usize, last_tick: u64, words: &[Vec<bool>]) -> Vec<u8> {
    let width = words.first().map_or(0, Vec::len);
    let mut payload = Vec::with_capacity(32 + words.len() * width);
    payload.extend_from_slice(&(window as u64).to_le_bytes());
    payload.extend_from_slice(&last_tick.to_le_bytes());
    payload.extend_from_slice(&(words.len() as u64).to_le_bytes());
    payload.extend_from_slice(&(width as u64).to_le_bytes());
    for w in words {
        debug_assert_eq!(w.len(), width);
        for &b in w {
            payload.push(u8::from(b));
        }
    }
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The shape every journal entry must decode into — anything else is
/// treated as the torn tail of a killed append.
struct JournalShape {
    n_windows: usize,
    window_len: usize,
    n_vectors: usize,
    width: usize,
}

impl JournalShape {
    fn words_in(&self, window: usize) -> usize {
        self.window_len
            .min(self.n_vectors - window * self.window_len)
    }
}

/// Parses one `len | payload | crc` frame, which must hold window
/// `window` (the journal is appended in window order). `None` means
/// "malformed from here on" — the caller truncates the tail.
fn parse_entry(bytes: &[u8], window: usize, shape: &JournalShape) -> Option<(usize, WindowResult)> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let payload = bytes.get(4..4 + len)?;
    let stored = u32::from_le_bytes(bytes.get(4 + len..4 + len + 4)?.try_into().ok()?);
    if crc32(payload) != stored {
        return None;
    }
    let mut r = Reader::new(payload);
    // Checked narrowing: a u64 that does not fit usize is malformed by
    // definition (no real window/word count gets near it), and an `as`
    // cast would instead truncate it into a plausible small value on
    // 32-bit targets.
    let index = usize::try_from(r.u64("journal").ok()?).ok()?;
    let last_tick = r.u64("journal").ok()?;
    let n_words = usize::try_from(r.u64("journal").ok()?).ok()?;
    let width = usize::try_from(r.u64("journal").ok()?).ok()?;
    if index != window
        || window >= shape.n_windows
        || width != shape.width
        || n_words != shape.words_in(window)
    {
        return None;
    }
    if r.remaining() != n_words.checked_mul(width)? {
        return None;
    }
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        let row = r.take(width, "journal").ok()?;
        if row.iter().any(|&b| b > 1) {
            return None;
        }
        words.push(row.iter().map(|&b| b == 1).collect());
    }
    Some((8 + len, (last_tick, words)))
}

/// Replays `journal.bin`: returns the completed windows in window order
/// and, if a torn tail was found, truncates it away (so the next append
/// lands on a clean frame boundary) and reports it as a note for
/// [`SweepRecovery::corrupt_files`].
fn scan_journal(
    path: &Path,
    shape: &JournalShape,
) -> Result<(Vec<WindowResult>, Option<String>), SimError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), None)),
        Err(e) => return Err(io_err(path, &e)),
    };
    let mut completed = Vec::new();
    let mut pos = 0usize;
    let mut note = None;
    while pos < bytes.len() {
        match parse_entry(&bytes[pos..], completed.len(), shape) {
            Some((consumed, entry)) => {
                completed.push(entry);
                pos += consumed;
            }
            None => {
                let f = fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err(path, &e))?;
                f.set_len(pos as u64).map_err(|e| io_err(path, &e))?;
                f.sync_all().map_err(|e| io_err(path, &e))?;
                note = Some(format!(
                    "{}: torn journal tail truncated at byte {pos}",
                    path.display()
                ));
                break;
            }
        }
    }
    Ok((completed, note))
}

/// The journal file held open across the run; every append is a single
/// `write_all` + `sync_data`, so a kill tears at most the last frame.
struct Journal {
    file: fs::File,
    path: PathBuf,
}

impl Journal {
    fn open_append(path: PathBuf) -> Result<Self, SimError> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        Ok(Self { file, path })
    }

    fn append(
        &mut self,
        faults: &FaultPlan,
        window: usize,
        last_tick: u64,
        words: &[Vec<bool>],
    ) -> Result<(), SimError> {
        faults.check_halt()?;
        let frame = encode_entry(window, last_tick, words);
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, &e))
    }
}

/// Restores into `sim` the largest decodable boundary checkpoint whose
/// collected rounds the journal covers (a whole number of windows, all
/// below `journaled`), and returns that boundary — 0, the fresh
/// simulator, when none qualifies. Every checkpoint file passed over on
/// the way down is recorded in `notes` with the reason.
fn restore_latest(
    sim: &mut PlSimulator<'_>,
    dir: &Path,
    delays: &DelayModel,
    window: usize,
    journaled: usize,
    n_windows: usize,
    notes: &mut Vec<String>,
) -> Result<usize, SimError> {
    let mut boundaries: Vec<usize> = fs::read_dir(dir)
        .map_err(|e| io_err(dir, &e))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            let name = name.to_str()?;
            let k: usize = name
                .strip_prefix("window-")?
                .strip_suffix(".ck")?
                .parse()
                .ok()?;
            (1..n_windows).contains(&k).then_some(k)
        })
        .collect();
    boundaries.sort_unstable_by(|a, b| b.cmp(a));
    for k in boundaries {
        let path = ck_path(dir, k);
        let decoded = fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                SimCheckpoint::from_bytes(&bytes, sim.pl, delays).map_err(|e| e.to_string())
            });
        let ck = match decoded {
            Ok(ck) => ck,
            Err(e) => {
                notes.push(format!("{}: {e}", path.display()));
                continue;
            }
        };
        let rounds = ck.rounds();
        let covered = (journaled * window) as u64;
        if rounds % window as u64 != 0 || rounds > covered {
            notes.push(format!(
                "{}: holds {rounds} collected rounds, the journal covers {covered}",
                path.display()
            ));
            continue;
        }
        sim.restore(&ck)?;
        return Ok(k);
    }
    Ok(0)
}

/// Collects window `j`'s `len` output words from `sim` (running events
/// until they are all recorded) and journals them — unless the journal
/// already holds window `j`, which happens when the run restarted from a
/// checkpoint before the journal's end.
fn complete_window(
    sim: &mut PlSimulator<'_>,
    j: usize,
    len: usize,
    journal: &mut Journal,
    faults: &FaultPlan,
    results: &mut Vec<WindowResult>,
) -> Result<(), SimError> {
    let mut words = Vec::with_capacity(len);
    let last = sim.collect_rounds(len, &mut words)?;
    if j == results.len() {
        journal.append(faults, j, last, &words)?;
        results.push((last, words));
    } else {
        debug_assert_eq!(results[j], (last, words), "window {j} replayed differently");
    }
    Ok(())
}

/// Runs one long vector stream as a crash-resumable sweep (see the
/// [module docs](self) for the on-disk layout and recovery rules). The
/// returned outputs, makespan, and throughput are **bit-identical to a
/// sequential [`PlSimulator::run_stream`]** for every window size, across
/// kills, resumes, and corrupt checkpoint files.
///
/// # Errors
///
/// * [`SimError::CheckpointIo`] — directory/journal I/O failures, or a
///   fresh run pointed at a directory that already holds a sweep.
/// * [`SimError::CheckpointTruncated`] / [`SimError::CheckpointBadMagic`]
///   / [`SimError::CheckpointVersionSkew`] / [`SimError::CheckpointChecksum`]
///   — a resume whose `sweep.meta` is corrupt (fatal by design; corrupt
///   `window-*.ck` files are merely routed around).
/// * [`SimError::ResumeMismatch`] — a resume under a different netlist,
///   delay model, vector stream, or window size.
/// * Any simulation error ([`SimError::Deadlock`], ...) the sequential
///   run would also report.
///
/// # Panics
///
/// Panics if `opts.window` is zero.
pub fn sweep_resumable(
    pl: &PlNetlist,
    delays: &DelayModel,
    vectors: &[Vec<bool>],
    dir: &Path,
    opts: &ResumableOptions,
) -> Result<ResumableOutcome, SimError> {
    sweep_resumable_with_faults(pl, delays, vectors, dir, opts, &FaultPlan::default())
}

/// [`sweep_resumable`] with a [`FaultPlan`] — the corruption-injection
/// harness's entry point, also exercised by the failure-injection test
/// suite. A default plan makes this identical to [`sweep_resumable`].
///
/// # Errors
///
/// Same conditions as [`sweep_resumable`], plus the typed I/O error an
/// armed [`FaultPlan::halt_after_journal_appends`] injects.
///
/// # Panics
///
/// Panics if `opts.window` is zero.
pub fn sweep_resumable_with_faults(
    pl: &PlNetlist,
    delays: &DelayModel,
    vectors: &[Vec<bool>],
    dir: &Path,
    opts: &ResumableOptions,
    faults: &FaultPlan,
) -> Result<ResumableOutcome, SimError> {
    assert!(opts.window > 0, "window must be at least 1");
    fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    let meta_path = dir.join("sweep.meta");
    let meta = MetaFields {
        fingerprint: netlist_fingerprint(pl),
        delay_digest: delay_digest(delays),
        vectors_digest: vectors_digest(vectors),
        window: opts.window as u64,
        n_vectors: vectors.len() as u64,
    };
    let n_windows = vectors.len().div_ceil(opts.window);
    let mut recovery = SweepRecovery {
        windows: n_windows,
        ..SweepRecovery::default()
    };

    // Completed windows in window order: the journal's on resume, then
    // the ones this run simulates.
    let mut results: Vec<WindowResult> = Vec::with_capacity(n_windows);

    if opts.resume {
        let bytes = fs::read(&meta_path).map_err(|e| io_err(&meta_path, &e))?;
        let stored = decode_meta(&bytes)?;
        for (field, stored, expected) in [
            ("netlist fingerprint", stored.fingerprint, meta.fingerprint),
            ("delay model digest", stored.delay_digest, meta.delay_digest),
            ("vector count", stored.n_vectors, meta.n_vectors),
            (
                "vector stream digest",
                stored.vectors_digest,
                meta.vectors_digest,
            ),
            ("window size", stored.window, meta.window),
        ] {
            if stored != expected {
                return Err(SimError::ResumeMismatch {
                    field,
                    stored,
                    expected,
                });
            }
        }
        let shape = JournalShape {
            n_windows,
            window_len: opts.window,
            n_vectors: vectors.len(),
            width: pl.output_gates().len(),
        };
        let (completed, note) = scan_journal(&dir.join("journal.bin"), &shape)?;
        recovery.replayed_from_journal = completed.len();
        recovery.corrupt_files.extend(note);
        results = completed;
    } else {
        if fs::metadata(&meta_path).is_ok() {
            return Err(SimError::CheckpointIo {
                path: meta_path.display().to_string(),
                message: "directory already holds a sweep (resume it, or use a fresh directory)"
                    .into(),
            });
        }
        write_atomic(&meta_path, &encode_meta(&meta))?;
    }

    recovery.restart_window = n_windows;
    if results.len() < n_windows {
        // Building the simulator also validates the netlist.
        let mut sim = PlSimulator::with_queue(pl, delays.clone(), opts.queue)?;
        let restart = restore_latest(
            &mut sim,
            dir,
            delays,
            opts.window,
            results.len(),
            n_windows,
            &mut recovery.corrupt_files,
        )?;
        recovery.restart_window = restart;
        let chunks: Vec<&[Vec<bool>]> = vectors.chunks(opts.window).collect();
        let mut journal = Journal::open_append(dir.join("journal.bin"))?;
        // The next window to collect; the restored rounds are whole
        // windows the journal holds.
        let mut next = sim.rounds() as usize / opts.window;
        for k in restart..n_windows {
            for v in chunks[k] {
                sim.feed_vector(v)?;
            }
            while next <= k && sim.recorded_rounds() >= chunks[next].len() {
                let len = chunks[next].len();
                complete_window(&mut sim, next, len, &mut journal, faults, &mut results)?;
                next += 1;
            }
            // Journal first, then the checkpoint: its collected rounds
            // are then always rounds the journal already holds.
            if k + 1 < n_windows {
                write_atomic(&ck_path(dir, k + 1), &sim.snapshot().to_bytes(delays))?;
            }
        }
        for (j, chunk) in chunks.iter().enumerate().skip(next) {
            complete_window(&mut sim, j, chunk.len(), &mut journal, faults, &mut results)?;
        }
    }

    let mut outputs = Vec::with_capacity(vectors.len());
    let mut last = 0u64;
    for (t, words) in results {
        outputs.extend(words);
        last = last.max(t);
    }
    let makespan = ticks_to_ns(last);
    Ok(ResumableOutcome {
        outcome: StreamOutcome {
            outputs,
            makespan,
            throughput: if makespan > 0.0 {
                vectors.len() as f64 / makespan
            } else {
                f64::INFINITY
            },
        },
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_netlist::Netlist;

    /// An input-paced XOR output, a free-running DFF ring output (paced
    /// by its own loop, not by the fed vectors, so its words are recorded
    /// on a schedule of their own), and a constant output (recorded at
    /// feed time, not by a gate firing) — every record source in one
    /// design, with state carried across window boundaries.
    fn mixed_netlist() -> PlNetlist {
        let mut n = Netlist::new("mixed");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_xor2(a, b).unwrap();
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        let c = n.add_const(true);
        n.set_output("x", x);
        n.set_output("q1", q1);
        n.set_output("k", c);
        PlNetlist::from_sync(&n).unwrap()
    }

    fn test_vectors(count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut s = seed;
        (0..count)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        s >> 63 == 1
                    })
                    .collect()
            })
            .collect()
    }

    fn baseline(pl: &PlNetlist, vecs: &[Vec<bool>]) -> StreamOutcome {
        PlSimulator::new(pl, DelayModel::default())
            .unwrap()
            .run_stream(vecs)
            .unwrap()
    }

    /// A per-test scratch directory, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!("pl_resume_{}_{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            Self(p)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// `jobs` is ignored (the sweep is one sequential pass), so no value
    /// of it may change a bit.
    #[test]
    fn fresh_sweep_matches_run_stream_across_jobs_and_windows() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(19, 0xC0FFEE);
        let expect = baseline(&pl, &vecs);
        for (window, jobs) in [(1, 2), (3, 2), (4, 4), (7, 3), (19, 2), (40, 8)] {
            let dir = TempDir::new(&format!("fresh_{window}_{jobs}"));
            let opts = ResumableOptions {
                window,
                jobs,
                ..ResumableOptions::default()
            };
            let got = sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
            assert_eq!(got.outcome, expect, "window={window} jobs={jobs} diverged");
            assert_eq!(got.recovery.windows, vecs.len().div_ceil(window));
            assert_eq!(got.recovery.replayed_from_journal, 0);
            assert_eq!(got.recovery.retried_windows, 0);
            assert!(got.recovery.corrupt_files.is_empty());
        }
    }

    #[test]
    fn completed_sweep_resumes_entirely_from_journal() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(12, 0xBEEF);
        let dir = TempDir::new("complete_resume");
        let opts = ResumableOptions {
            window: 4,
            ..ResumableOptions::default()
        };
        let first = sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
        let again = sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(again.outcome, first.outcome);
        assert_eq!(again.recovery.replayed_from_journal, 3);
        assert_eq!(again.recovery.restart_window, 3);
    }

    #[test]
    fn halt_at_boundary_then_resume_is_bit_identical() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0xDEAD);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("halt_resume");
        let opts = ResumableOptions {
            window: 3,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.halt_after_journal_appends(2);
        let err = sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect_err("the injected halt kills the run");
        assert!(
            matches!(err, SimError::CheckpointIo { ref path, .. } if path == "<fault-injection>"),
            "unexpected error: {err}"
        );
        let resumed = sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.outcome, expect, "resume diverged from sequential");
        assert_eq!(resumed.recovery.replayed_from_journal, 2);
        assert!(resumed.recovery.restart_window >= 2);
        // The newest checkpoint was written after its rounds were
        // journaled, so nothing on disk had to be passed over.
        assert!(resumed.recovery.corrupt_files.is_empty());
    }

    #[test]
    fn corrupt_checkpoint_files_are_recorded_and_routed_around() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0xF00D);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("corrupt_ck");
        let opts = ResumableOptions {
            window: 3,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.halt_after_journal_appends(2);
        sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect_err("the injected halt kills the run");
        // Damage every boundary checkpoint the killed run left behind —
        // truncate the newest, byte-flip the rest — forcing recovery back
        // to a fresh simulator that re-feeds the journaled windows.
        let mut cks: Vec<PathBuf> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "ck"))
            .collect();
        cks.sort();
        assert!(cks.len() >= 2, "the run got past two boundaries: {cks:?}");
        let newest = cks.pop().unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..7]).unwrap();
        for ck in &cks {
            let mut bytes = fs::read(ck).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xA5;
            fs::write(ck, bytes).unwrap();
        }
        let resumed = sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.outcome, expect, "recovery diverged from sequential");
        assert_eq!(resumed.recovery.restart_window, 0);
        assert_eq!(
            resumed.recovery.corrupt_files.len(),
            cks.len() + 1,
            "every damaged file must be reported: {:?}",
            resumed.recovery.corrupt_files
        );
    }

    #[test]
    fn torn_journal_tail_is_truncated_and_reported() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0x7EA);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("torn_tail");
        let opts = ResumableOptions {
            window: 3,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.halt_after_journal_appends(3);
        sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect_err("the injected halt kills the run");
        // Simulate a kill mid-append: garbage where the next frame starts.
        let journal = dir.path().join("journal.bin");
        let mut bytes = fs::read(&journal).unwrap();
        bytes.extend_from_slice(&[0x99, 0x07, 0x13]);
        fs::write(&journal, bytes).unwrap();
        let resumed = sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.outcome, expect);
        assert_eq!(resumed.recovery.replayed_from_journal, 3);
        assert_eq!(resumed.recovery.corrupt_files.len(), 1);
        assert!(
            resumed.recovery.corrupt_files[0].contains("torn journal tail"),
            "{:?}",
            resumed.recovery.corrupt_files
        );
    }

    /// A checkpoint whose collected rounds the journal does not cover
    /// (journal frames lost after it was written) is not a restart
    /// point: recovery passes over it, says why, and still matches.
    #[test]
    fn checkpoint_ahead_of_the_journal_is_routed_around() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0xA7EAD);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("ahead");
        let opts = ResumableOptions {
            window: 3,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.halt_after_journal_appends(3);
        sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect_err("the injected halt kills the run");
        // Keep only the first journal frame: windows 1 and 2 are lost.
        let journal = dir.path().join("journal.bin");
        let bytes = fs::read(&journal).unwrap();
        let first = 8 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        fs::write(&journal, &bytes[..first]).unwrap();
        let resumed = sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.outcome, expect);
        assert_eq!(resumed.recovery.replayed_from_journal, 1);
        let restart = resumed.recovery.restart_window;
        if restart > 0 {
            let bytes = fs::read(ck_path(dir.path(), restart)).unwrap();
            let ck = SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays).unwrap();
            assert!(ck.rounds() <= 3, "restarted past the journal");
        }
        assert!(
            resumed
                .recovery
                .corrupt_files
                .iter()
                .any(|n| n.contains("the journal covers 3")),
            "{:?}",
            resumed.recovery.corrupt_files
        );
    }

    /// Window boundaries are not resets: state carries across them, so a
    /// free-running counter must count on through every window.
    #[test]
    fn sweep_carries_state_across_windows() {
        let mut n = Netlist::new("cnt");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        let pl = PlNetlist::from_sync(&n).unwrap();
        let vecs: Vec<Vec<bool>> = (0..8).map(|_| Vec::new()).collect();
        let dir = TempDir::new("counter");
        let opts = ResumableOptions {
            window: 2,
            ..ResumableOptions::default()
        };
        let out = sweep_resumable(&pl, &DelayModel::default(), &vecs, dir.path(), &opts).unwrap();
        let counts: Vec<u8> = out
            .outcome
            .outputs
            .iter()
            .map(|w| (u8::from(w[1]) << 1) | u8::from(w[0]))
            .collect();
        assert_eq!(
            counts,
            vec![0, 1, 2, 3, 0, 1, 2, 3],
            "window boundary reset the counter"
        );
    }

    /// A malformed vector ends the run with the error `run_stream`
    /// reports for it, and the windows before it stay journaled.
    #[test]
    fn simulation_error_ends_the_run_like_run_stream() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let mut vecs = test_vectors(9, 0xEBB);
        vecs[5] = vec![true];
        let direct = PlSimulator::new(&pl, delays.clone())
            .unwrap()
            .run_stream(&vecs)
            .expect_err("vector 5 is malformed");
        let dir = TempDir::new("sim_error");
        let opts = ResumableOptions {
            window: 2,
            ..ResumableOptions::default()
        };
        match sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts) {
            Err(
                e @ SimError::InputArityMismatch {
                    got: 1,
                    expected: 2,
                },
            ) => {
                assert_eq!(e.to_string(), direct.to_string());
            }
            other => panic!("expected the arity error, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_is_rejected() {
        let pl = mixed_netlist();
        let dir = TempDir::new("zero_window");
        let opts = ResumableOptions {
            window: 0,
            ..ResumableOptions::default()
        };
        let _ = sweep_resumable(&pl, &DelayModel::default(), &[], dir.path(), &opts);
    }

    #[test]
    fn fresh_run_refuses_a_directory_holding_a_sweep() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(6, 0x11);
        let dir = TempDir::new("refuse_reuse");
        let opts = ResumableOptions {
            window: 2,
            ..ResumableOptions::default()
        };
        sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
        let err = sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts)
            .expect_err("a second fresh run must refuse the directory");
        assert!(matches!(err, SimError::CheckpointIo { .. }), "{err}");
        assert!(err.to_string().contains("already holds a sweep"), "{err}");
    }

    #[test]
    fn resume_mismatch_is_typed_per_field() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(8, 0x22);
        let dir = TempDir::new("mismatch");
        let opts = ResumableOptions {
            window: 2,
            ..ResumableOptions::default()
        };
        sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
        let resume = ResumableOptions {
            resume: true,
            ..opts.clone()
        };
        // Different vectors, same count -> stream digest.
        let other = test_vectors(8, 0x33);
        match sweep_resumable(&pl, &delays, &other, dir.path(), &resume) {
            Err(SimError::ResumeMismatch { field, .. }) => {
                assert_eq!(field, "vector stream digest");
            }
            other => panic!("expected a resume mismatch, got {other:?}"),
        }
        // Different window size.
        match sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                window: 3,
                ..resume.clone()
            },
        ) {
            Err(SimError::ResumeMismatch { field, .. }) => assert_eq!(field, "window size"),
            other => panic!("expected a resume mismatch, got {other:?}"),
        }
        // Different delay model.
        match sweep_resumable(&pl, &delays.scaled(2.0), &vecs, dir.path(), &resume) {
            Err(SimError::ResumeMismatch { field, .. }) => {
                assert_eq!(field, "delay model digest");
            }
            other => panic!("expected a resume mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_meta_is_a_fatal_typed_error() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(8, 0x44);
        let dir = TempDir::new("corrupt_meta");
        let opts = ResumableOptions {
            window: 2,
            ..ResumableOptions::default()
        };
        sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
        let resume = ResumableOptions {
            resume: true,
            ..opts
        };
        let meta = dir.path().join("sweep.meta");
        let pristine = fs::read(&meta).unwrap();
        // Truncation.
        fs::write(&meta, &pristine[..10]).unwrap();
        match sweep_resumable(&pl, &delays, &vecs, dir.path(), &resume) {
            Err(SimError::CheckpointTruncated { .. }) => {}
            other => panic!("expected a truncation error, got {other:?}"),
        }
        // A flipped payload byte past the version field.
        let mut flipped = pristine.clone();
        flipped[20] ^= 0x40;
        fs::write(&meta, &flipped).unwrap();
        match sweep_resumable(&pl, &delays, &vecs, dir.path(), &resume) {
            Err(SimError::CheckpointChecksum { section, .. }) => {
                assert_eq!(section, "sweep.meta");
            }
            other => panic!("expected a checksum error, got {other:?}"),
        }
        // Foreign magic.
        let mut alien = pristine.clone();
        alien[..8].copy_from_slice(b"NOTMETA!");
        fs::write(&meta, &alien).unwrap();
        match sweep_resumable(&pl, &delays, &vecs, dir.path(), &resume) {
            Err(SimError::CheckpointBadMagic { .. }) => {}
            other => panic!("expected a bad-magic error, got {other:?}"),
        }
        // Version skew (with the CRC repaired so only the version differs).
        let mut skew = pristine;
        skew[8..12].copy_from_slice(&2u32.to_le_bytes());
        let end = skew.len() - 4;
        let crc = crc32(&skew[..end]);
        skew[end..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&meta, &skew).unwrap();
        match sweep_resumable(&pl, &delays, &vecs, dir.path(), &resume) {
            Err(SimError::CheckpointVersionSkew {
                found: 2,
                supported: META_VERSION,
            }) => {}
            other => panic!("expected version skew, got {other:?}"),
        }
    }

    #[test]
    fn empty_stream_completes_with_zero_windows() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let dir = TempDir::new("empty");
        let got =
            sweep_resumable(&pl, &delays, &[], dir.path(), &ResumableOptions::default()).unwrap();
        assert!(got.outcome.outputs.is_empty());
        assert_eq!(got.outcome.makespan, 0.0);
        assert_eq!(got.recovery.windows, 0);
        let expect = baseline(&pl, &[]);
        assert_eq!(got.outcome, expect);
    }

    #[test]
    fn recovery_display_is_human_readable() {
        let r = SweepRecovery {
            windows: 7,
            replayed_from_journal: 3,
            restart_window: 3,
            retried_windows: 0,
            corrupt_files: vec!["x.ck: bad".into()],
        };
        let s = r.to_string();
        assert!(s.contains("7 windows"), "{s}");
        assert!(s.contains("restart at 3"), "{s}");
        assert!(s.contains("1 corrupt files"), "{s}");
    }
}
