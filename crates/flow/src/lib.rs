//! The compile pipeline as a first-class library.
//!
//! The DATE 2002 paper maps *synthesized gate-level netlists* onto phased
//! logic; this crate is the architecture that lets anything walk through
//! that flow — not just the built-in ITC'99 catalog. It factors the
//! pipeline that used to live inside the benchmark harness into two
//! orthogonal pieces:
//!
//! * [`CircuitSource`] — pluggable front doors. An RTL catalog entry, a
//!   BLIF file on disk (SIS/ABC dialect), in-memory BLIF text, a
//!   pre-built [`pl_netlist::Netlist`], or a seeded random circuit all
//!   resolve to the same gate-level netlist.
//! * [`Pipeline`] — explicit, separately-callable stages:
//!
//!   ```text
//!   ingest → lint → optimize → techmap → phased → lint → early_eval → simulate → verify
//!   ```
//!
//!   Each stage returns a typed artifact ([`Ingested`], [`Optimized`],
//!   [`Mapped`], [`Phased`], [`EarlyEvaled`], [`Simulated`]) plus a
//!   per-stage report with wall-clock timing, so callers can stop at any
//!   layer. [`Pipeline::run`] chains them all and returns
//!   [`FlowArtifacts`]. The two lint passes (static diagnostics from the
//!   `pl-lint` crate, stable `PL####` codes) run on the ingested netlist
//!   and on the mapped phased-logic graph; a deny-level finding aborts the
//!   run with [`FlowError::Lint`]. [`Pipeline::lint_session`] is the
//!   non-aborting, report-everything entry point behind `plc lint`.
//!
//! The `plc` binary is the command-line face of this crate; the `pl-bench`
//! harness regenerates the paper's Table 3 as a thin wrapper over
//! [`Pipeline::run`]. [`cli`] hosts the tiny argument parser all
//! workspace binaries share.
//!
//! # Example
//!
//! Run a circuit from BLIF text end-to-end and inspect each layer:
//!
//! ```
//! use pl_flow::{CircuitSource, FlowOptions, Pipeline};
//!
//! let blif = "\
//! .model toggle
//! .inputs en
//! .outputs q
//! .latch next q 0
//! .names en q next
//! 10 1
//! 01 1
//! .end
//! ";
//! let source = CircuitSource::BlifText { name: "toggle".into(), text: blif.into() };
//! let pipeline = Pipeline::new(FlowOptions { vectors: 16, ..FlowOptions::default() });
//!
//! // Stage by stage...
//! let ingested = pipeline.ingest(&source).unwrap();
//! assert_eq!(ingested.report.dffs, 1);
//! let mapped = pipeline.techmap(pipeline.optimize(ingested).unwrap()).unwrap();
//! assert!(mapped.report.lut_size == 4);
//!
//! // ...or all at once.
//! let art = pipeline.run(&source).unwrap();
//! assert_eq!(art.outputs.len(), 16);
//! assert!(art.report.verify.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod eco;
mod error;
mod lint;
mod pipeline;
mod source;

pub use eco::{EcoEdit, EcoOutcome, EcoReport, EcoSession, NodeRef};
pub use error::FlowError;
pub use lint::LintSession;
pub use pipeline::{
    EarlyEvaled, EeStageReport, FlowArtifacts, FlowOptions, FlowReport, IngestReport, Ingested,
    LintStageReport, Mapped, OptimizeReport, Optimized, Phased, PhasedReport, Pipeline, SimReport,
    Simulated, TechmapReport, VerifyReport,
};
pub use pl_lint::{LintOptions, LintReport};
pub use pl_sim::{QueueKind, SweepRecovery};
pub use source::{
    lcg_vectors, random_netlist, random_netlist_draw, CircuitSource, Lcg, RandomSpec,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_catalog_run_produces_consistent_artifacts() {
        let pipeline = Pipeline::new(FlowOptions {
            vectors: 10,
            ..FlowOptions::default()
        });
        let src = CircuitSource::catalog("b02").expect("b02 exists");
        let art = pipeline.run(&src).unwrap();
        assert_eq!(art.name, "b02");
        assert_eq!(art.outputs.len(), 10);
        assert_eq!(art.report.phased.logic_gates, art.plain.num_logic_gates());
        assert_eq!(art.pairs.len(), art.report.early_eval.pairs);
        assert!(art.stats_ee.is_some());
        assert!(art.report.verify.is_some());
        assert!(art.report.total_secs() > 0.0);
    }

    #[test]
    fn ee_disabled_runs_plain_only() {
        let pipeline = Pipeline::new(FlowOptions {
            vectors: 5,
            ee_enabled: false,
            verify: false,
            ..FlowOptions::default()
        });
        let art = pipeline
            .run(&CircuitSource::catalog("b01").unwrap())
            .unwrap();
        assert!(art.ee.is_none());
        assert!(art.stats_ee.is_none());
        assert!(art.pairs.is_empty());
        assert!(!art.report.early_eval.enabled);
        assert!(art.report.verify.is_none());
    }

    #[test]
    fn simulate_is_jobs_invariant() {
        let src = CircuitSource::catalog("b06").unwrap();
        let base = Pipeline::new(FlowOptions {
            vectors: 8,
            verify: false,
            ..FlowOptions::default()
        })
        .run(&src)
        .unwrap();
        for jobs in [2, 4] {
            let par = Pipeline::new(FlowOptions {
                vectors: 8,
                verify: false,
                jobs,
                ..FlowOptions::default()
            })
            .run(&src)
            .unwrap();
            assert_eq!(par.outputs, base.outputs, "jobs={jobs}");
            assert_eq!(
                par.stats_plain.per_vector, base.stats_plain.per_vector,
                "jobs={jobs}"
            );
            assert_eq!(
                par.stats_ee.as_ref().unwrap().per_vector,
                base.stats_ee.as_ref().unwrap().per_vector,
                "jobs={jobs}"
            );
        }
    }

    /// The streamed protocol (window: Some) must produce the same output
    /// VALUES as the per-vector protocol (marked-graph determinism), be
    /// jobs-invariant, survive the synchronous cross-check, and report
    /// makespan/throughput instead of per-vector latencies.
    #[test]
    fn windowed_simulate_matches_per_vector_outputs_and_verifies() {
        let src = CircuitSource::catalog("b03").unwrap();
        let per_vector = Pipeline::new(FlowOptions {
            vectors: 10,
            verify: false,
            ..FlowOptions::default()
        })
        .run(&src)
        .unwrap();
        let baseline = Pipeline::new(FlowOptions {
            vectors: 10,
            window: Some(3),
            jobs: 1,
            ..FlowOptions::default()
        })
        .run(&src)
        .unwrap();
        assert_eq!(baseline.outputs, per_vector.outputs);
        assert!(baseline.report.verify.is_some(), "sync cross-check ran");
        assert!(
            baseline.stats_plain.is_empty(),
            "streamed mode has no per-vector stats"
        );
        let stream = baseline.stream_plain.as_ref().expect("streamed outcome");
        assert!(stream.makespan > 0.0);
        assert!(stream.throughput > 0.0);
        assert!(baseline.stream_ee.is_some());
        for jobs in [2, 4] {
            let par = Pipeline::new(FlowOptions {
                vectors: 10,
                window: Some(3),
                jobs,
                verify: false,
                ..FlowOptions::default()
            })
            .run(&src)
            .unwrap();
            assert_eq!(par.outputs, baseline.outputs, "jobs={jobs}");
            let (p, b) = (
                par.stream_plain.unwrap(),
                baseline.stream_plain.clone().unwrap(),
            );
            assert_eq!(p, b, "jobs={jobs}: streamed outcome diverged");
        }
    }

    /// A zero streaming window is caught as a typed
    /// [`FlowError::Options`] before any stage runs (library callers get
    /// the same rejection as plc's flag checks), not as a panic deep
    /// inside the resumable sweep.
    #[test]
    fn zero_window_is_a_typed_error() {
        let pipeline = Pipeline::new(FlowOptions {
            vectors: 4,
            window: Some(0),
            verify: false,
            ..FlowOptions::default()
        });
        match pipeline.run(&CircuitSource::catalog("b01").unwrap()) {
            Err(FlowError::Options { message }) => {
                assert!(message.contains("window"), "names the option: {message}");
            }
            other => panic!("expected FlowError::Options, got {other:?}"),
        }
    }

    /// Every flag combination `plc` rejects at the CLI layer is also
    /// rejected by [`FlowOptions::validate`] on the programmatic path —
    /// the daemon/library bugfix this PR hoists out of `src/bin/plc.rs`.
    #[test]
    fn validate_rejects_every_cli_rejected_combination() {
        let base = FlowOptions {
            vectors: 4,
            verify: false,
            ..FlowOptions::default()
        };
        let dir = Some(std::path::PathBuf::from("ckpt"));
        let cases: Vec<(FlowOptions, &str)> = vec![
            (
                FlowOptions {
                    map: pl_techmap::MapOptions {
                        lut_size: 7,
                        ..base.map.clone()
                    },
                    ..base.clone()
                },
                "--lut-size",
            ),
            (
                FlowOptions {
                    map: pl_techmap::MapOptions {
                        lut_size: 5,
                        ..base.map.clone()
                    },
                    ..base.clone()
                },
                "--lut-size 5 is outside the supported range 2..=4",
            ),
            (
                FlowOptions {
                    window: Some(0),
                    ..base.clone()
                },
                "--window must be at least 1",
            ),
            (
                FlowOptions {
                    lanes: Some(7),
                    ..base.clone()
                },
                "--lanes 7 is not a supported width",
            ),
            (
                FlowOptions {
                    lanes: Some(64),
                    window: Some(4),
                    ..base.clone()
                },
                "--lanes is mutually exclusive with --window",
            ),
            (
                FlowOptions {
                    lanes: Some(64),
                    checkpoint_dir: dir.clone(),
                    ..base.clone()
                },
                "--lanes is mutually exclusive with --checkpoint-dir",
            ),
            (
                FlowOptions {
                    checkpoint_dir: dir.clone(),
                    ..base.clone()
                },
                "--checkpoint-dir requires --window",
            ),
            (
                FlowOptions {
                    resume: true,
                    ..base.clone()
                },
                "--resume requires --checkpoint-dir",
            ),
            (
                FlowOptions {
                    vectors: FlowOptions::MAX_VECTORS + 1,
                    ..base.clone()
                },
                "--vectors 1048577 is above the maximum of 1048576 per run",
            ),
        ];
        for (opts, expect) in cases {
            match opts.validate() {
                Err(FlowError::Options { message }) => {
                    assert!(
                        message.contains(expect),
                        "expected {expect:?} in {message:?}"
                    );
                }
                other => panic!("expected FlowError::Options for {expect:?}, got {other:?}"),
            }
            // The same rejection fires from every pipeline entry point.
            let pipeline = Pipeline::new(opts);
            let src = CircuitSource::catalog("b01").unwrap();
            assert!(matches!(pipeline.run(&src), Err(FlowError::Options { .. })));
            assert!(matches!(
                pipeline.eco_session(&src),
                Err(FlowError::Options { .. })
            ));
        }
        // Valid combinations still pass.
        base.validate().unwrap();
        FlowOptions {
            lanes: Some(64),
            ..base.clone()
        }
        .validate()
        .unwrap();
        FlowOptions {
            vectors: FlowOptions::MAX_VECTORS,
            ..base.clone()
        }
        .validate()
        .unwrap();
        FlowOptions {
            window: Some(8),
            checkpoint_dir: dir,
            resume: true,
            ..base
        }
        .validate()
        .unwrap();
    }

    /// Regression: the simulate stage generates its whole vector stream up
    /// front, one byte per input bit, so a wide design must be bounded by
    /// vectors times inputs, not by the vector count alone. 65,537 vectors
    /// pass `validate()` but, on 1,024 inputs, are one vector past the
    /// input-bit cap.
    #[test]
    fn vector_stream_above_the_input_bit_cap_is_a_typed_error() {
        let mut n = pl_netlist::Netlist::new("wide");
        let inputs: Vec<_> = (0..1024).map(|i| n.add_input(format!("i{i}"))).collect();
        let y = n.add_xor2(inputs[0], inputs[1]).unwrap();
        n.set_output("y", y);
        let vectors = FlowOptions::MAX_INPUT_BITS / 1024 + 1;
        let mut opts = FlowOptions {
            vectors,
            window: Some(vectors),
            ee_enabled: false,
            verify: false,
            ..FlowOptions::default()
        };
        opts.lint.enabled = false;
        opts.validate().unwrap();
        let source = CircuitSource::Netlist {
            name: "wide".into(),
            netlist: n,
        };
        match Pipeline::new(opts).run(&source) {
            Err(FlowError::Options { message }) => assert_eq!(
                message,
                "--vectors 65537 with 1024 primary inputs is above the maximum of 67108864 input bits per run"
            ),
            other => panic!("expected FlowError::Options, got {:?}", other.map(|a| a.name)),
        }
    }

    #[test]
    fn random_source_runs_end_to_end() {
        let pipeline = Pipeline::new(FlowOptions {
            vectors: 6,
            ..FlowOptions::default()
        });
        let art = pipeline
            .run(&CircuitSource::Random(RandomSpec::new(0xF10)))
            .unwrap();
        assert_eq!(art.outputs.len(), 6);
        assert!(art.report.verify.is_some());
    }

    #[test]
    fn optimize_stage_cleans_when_enabled() {
        // A netlist with a dead LUT: cleanup must drop it, pass-through
        // must keep it.
        let mut n = pl_netlist::Netlist::new("dead");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let live = n.add_and2(a, b).unwrap();
        let _dead = n.add_xor2(a, b).unwrap();
        n.set_output("y", live);
        let src = CircuitSource::Netlist {
            name: "dead".into(),
            netlist: n,
        };

        let keep = Pipeline::new(FlowOptions::default());
        let kept = keep.optimize(keep.ingest(&src).unwrap()).unwrap();
        assert!(!kept.report.ran);
        assert_eq!(kept.report.nodes_before, kept.report.nodes_after);

        let clean = Pipeline::new(FlowOptions {
            optimize: true,
            ..FlowOptions::default()
        });
        let cleaned = clean.optimize(clean.ingest(&src).unwrap()).unwrap();
        assert!(cleaned.report.ran);
        assert!(cleaned.report.nodes_after < cleaned.report.nodes_before);
    }
}
