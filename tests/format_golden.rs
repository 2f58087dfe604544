//! Golden bytes for the on-disk formats a resumable sweep leaves behind:
//! `sweep.meta`, the completed-window journal, and the `SimCheckpoint`
//! wire encodings at both lane widths (version 1 for the scalar engine,
//! version 2 for the 64-lane batch engine).
//!
//! Each file under `tests/golden/formats/` is a hex dump (16 bytes per
//! line) of bytes produced from a fixed small netlist, a fixed delay
//! model and a fixed vector prefix. A refactor of the sweep or the
//! engine that keeps these tests green has, by construction, not changed
//! a byte on disk. A deliberate format change bumps the format version
//! and regenerates the dumps with
//! `UPDATE_GOLDEN=1 cargo test --test format_golden`.

use std::path::{Path, PathBuf};

use pl_core::PlNetlist;
use pl_netlist::Netlist;
use pl_sim::{BatchSimulator, DelayModel, PlSimulator, ResumableOptions, SimCheckpoint};

/// An input-paced XOR output, a free-running two-bit counter output, and
/// a constant output: every source of recorded output words in one
/// design, with state that carries across vectors.
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
    let k = n.add_const(true);
    n.set_output("x", x);
    n.set_output("q1", q1);
    n.set_output("k", k);
    PlNetlist::from_sync(&n).unwrap()
}

/// Vector `i` is `[bit 0 of i, bit 1 of i]`.
fn vectors(count: usize) -> Vec<Vec<bool>> {
    (0..count).map(|i| vec![i & 1 == 1, i & 2 == 2]).collect()
}

fn hex_dump(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 16 + 1);
    for line in bytes.chunks(16) {
        for b in line {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/formats")
        .join(file)
}

/// Compares the hex dump of `bytes` with the checked-in golden; with
/// `UPDATE_GOLDEN` set in the environment, rewrites the golden instead.
fn check_golden(file: &str, bytes: &[u8]) {
    let path = golden_path(file);
    let actual = hex_dump(bytes);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); create it with \
             `UPDATE_GOLDEN=1 cargo test --test format_golden`",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "on-disk bytes drifted from {}; a deliberate format change must bump \
         the format version, then regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test format_golden`",
        path.display()
    );
}

/// A per-test scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pl_fmt_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `sweep.meta` and the journal of a completed 7-vector sweep in windows
/// of 3 (three frames, the last one short).
#[test]
fn sweep_meta_and_journal_bytes_are_pinned() {
    let pl = mixed_netlist();
    let delays = DelayModel::default();
    let dir = TempDir::new("sweep");
    let opts = ResumableOptions {
        window: 3,
        ..ResumableOptions::default()
    };
    let out = pl_sim::sweep_resumable(&pl, &delays, &vectors(7), dir.path(), &opts).unwrap();
    assert_eq!(out.recovery.windows, 3);
    check_golden(
        "sweep_meta.hex",
        &std::fs::read(dir.path().join("sweep.meta")).unwrap(),
    );
    check_golden(
        "journal.hex",
        &std::fs::read(dir.path().join("journal.bin")).unwrap(),
    );
}

/// A scalar (wire version 1) checkpoint taken after five `feed_vector`
/// calls, with output words recorded but not collected and events still
/// in flight. The pinned bytes must also decode and re-encode unchanged.
#[test]
fn scalar_checkpoint_bytes_are_pinned() {
    let pl = mixed_netlist();
    let delays = DelayModel::default();
    let mut sim = PlSimulator::new(&pl, delays.clone()).unwrap();
    for v in vectors(5) {
        sim.feed_vector(&v).unwrap();
    }
    let ck = sim.snapshot();
    assert!(ck.queued_events() > 0, "the snapshot is mid-stream");
    let bytes = ck.to_bytes(&delays);
    check_golden("checkpoint_v1.hex", &bytes);
    let decoded = SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays).unwrap();
    assert_eq!(decoded, ck);
    assert_eq!(decoded.to_bytes(&delays), bytes);
}

/// The 64-lane (wire version 2) counterpart: the batch engine fed three
/// lane words per input, so every lane carries a different vector.
#[test]
fn batch_checkpoint_bytes_are_pinned() {
    let pl = mixed_netlist();
    let delays = DelayModel::default();
    let mut sim = BatchSimulator::new(&pl, delays.clone()).unwrap();
    for k in 0..3u64 {
        let a = 0x0123_4567_89AB_CDEF_u64.rotate_left(8 * k as u32);
        let b = 0xF0E1_D2C3_B4A5_9687_u64.wrapping_mul(k + 1);
        sim.feed_vector(&[a, b]).unwrap();
    }
    let ck = sim.snapshot();
    assert!(ck.queued_events() > 0, "the snapshot is mid-stream");
    let bytes = ck.to_bytes(&delays);
    check_golden("checkpoint_v2.hex", &bytes);
    let decoded = SimCheckpoint::<u64>::from_bytes(&bytes, &pl, &delays).unwrap();
    assert_eq!(decoded, ck);
    assert_eq!(decoded.to_bytes(&delays), bytes);
}
