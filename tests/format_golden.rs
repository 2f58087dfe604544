//! Golden bytes for the on-disk formats a resumable sweep leaves behind
//! (`sweep.meta`, the completed-window journal, and the `SimCheckpoint`
//! wire encodings at both lane widths: version 1 for the scalar engine,
//! version 2 for the 64-lane batch engine) and for the `pld` daemon's
//! PLD1 frames (every request and response kind that carries a payload).
//!
//! Each file under `tests/golden/formats/` is a hex dump (16 bytes per
//! line) of bytes produced from fixed inputs: a small netlist, a delay
//! model and a vector prefix for the sweep formats, fixed messages for
//! PLD1. A refactor that keeps these tests green has, by construction,
//! not changed a byte on disk or on the wire. A deliberate format change
//! bumps the format version and regenerates the dumps with
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

/// One full PLD1 frame (magic, kind, length, payload, CRC32) exactly as
/// `pl_serve::wire::write_frame` puts it on the socket.
fn pld1_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    pl_serve::wire::write_frame(&mut frame, kind, payload).unwrap();
    frame
}

/// PLD1 request frames: a Compile with every option off its default, and
/// an Eco on an inline BLIF design with two edits. Each pinned frame must
/// also decode back to the request it was made from, and every strict
/// prefix of its payload must be rejected.
#[test]
fn pld1_request_frames_are_pinned() {
    use pl_serve::{DesignSpec, Request, RequestOptions};
    let compile = Request::Compile {
        design: DesignSpec::Spec("b06".into()),
        options: RequestOptions {
            vectors: 60,
            seed: 7,
            jobs: 2,
            lut_size: 5,
            threshold: 0.25,
            ee: true,
            verify: true,
            optimize: true,
            no_lint: true,
            window: Some(4),
            lanes: Some(64),
        },
    };
    let eco = Request::Eco {
        design: DesignSpec::BlifText {
            name: "t".into(),
            text: ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n".into(),
        },
        options: RequestOptions::default(),
        edits: vec!["table:n2:0x6".into(), "rewire:n2:0:n1".into()],
    };
    for (file, request) in [("pld1_compile.hex", compile), ("pld1_eco.hex", eco)] {
        let (kind, payload) = request.encode();
        check_golden(file, &pld1_frame(kind, &payload));
        assert_eq!(Request::decode(kind, &payload).unwrap(), request);
        for len in 0..payload.len() {
            assert!(
                Request::decode(kind, &payload[..len]).is_err(),
                "{file}: a {len}-byte prefix of the payload decoded"
            );
        }
    }
}

/// PLD1 response frames: `CompileOk`, `EcoOk`, `StatsOk` and `Error`,
/// each decoding back to its response, with every strict payload prefix
/// rejected.
#[test]
fn pld1_response_frames_are_pinned() {
    use pl_serve::{DigestTriple, EcoEditResult, Response, ServerStats};
    let triple = |k: u64| DigestTriple {
        mapped_fp: 0x0123_4567_89AB_CDEF ^ k,
        phased_fp: 0xFEDC_BA98_7654_3210 ^ k,
        outputs_digest: 0x0F1E_2D3C_4B5A_6978 ^ k,
    };
    let responses = [
        (
            "pld1_compile_ok.hex",
            Response::CompileOk {
                name: "b06".into(),
                cache_hit: true,
                luts: 41,
                gates: 57,
                pairs: 9,
                digest: triple(0),
            },
        ),
        (
            "pld1_eco_ok.hex",
            Response::EcoOk {
                name: "b06".into(),
                cache_hit: false,
                initial: triple(1),
                edits: vec![
                    EcoEditResult {
                        spec: "table:n8:0x6".into(),
                        dirty_nodes: 12,
                        digest: triple(2),
                    },
                    EcoEditResult {
                        spec: "rewire:n12:0:n5".into(),
                        dirty_nodes: 3,
                        digest: triple(3),
                    },
                ],
            },
        ),
        (
            "pld1_stats_ok.hex",
            Response::StatsOk(ServerStats {
                entries: 3,
                capacity: 8,
                hits: 21,
                misses: 5,
                evictions: 1,
                eco_edits: 7,
                malformed: 2,
            }),
        ),
        (
            "pld1_error.hex",
            Response::Error {
                code: pl_serve::proto::ERR_OPTIONS,
                message: "--window must be at least 1".into(),
            },
        ),
    ];
    for (file, response) in responses {
        let (kind, payload) = response.encode();
        check_golden(file, &pld1_frame(kind, &payload));
        assert_eq!(Response::decode(kind, &payload).unwrap(), response);
        for len in 0..payload.len() {
            assert!(
                Response::decode(kind, &payload[..len]).is_err(),
                "{file}: a {len}-byte prefix of the payload decoded"
            );
        }
    }
}
