//! The compile pipeline: explicit, separately-callable stages.
//!
//! ```text
//! ingest → lint → optimize → techmap → phased → lint → early_eval → simulate → verify
//! ```
//!
//! Each stage consumes the previous stage's typed artifact and returns a
//! new one carrying the transformed design plus a per-stage report with
//! wall-clock timing, so callers can stop at any layer: a linter stops
//! after [`Pipeline::ingest`], a mapper benchmark after
//! [`Pipeline::techmap`], the Table 3 harness runs the whole chain via
//! [`Pipeline::run`].
//!
//! Determinism contract: for a fixed [`FlowOptions`] and source, every
//! artifact is bit-identical across runs and across `jobs` values — the
//! only parallel step (the plain-vs-EE latency sweep in
//! [`Pipeline::simulate`]) scatters whole deterministic measurements via
//! [`pl_sim::parallel::scatter_gather`] and reorders them by index.
//!
//! # Artifact fingerprints and incremental invalidation
//!
//! Every compile-side artifact ([`Ingested`], [`Optimized`], [`Mapped`],
//! [`Phased`]) carries a 64-bit content `fingerprint` of the design it
//! holds. Fingerprints are pure functions of artifact *content* (never of
//! timings), so equal fingerprints across two runs mean the downstream
//! stages would recompute byte-identical results — which is what the
//! incremental recompilation session ([`crate::EcoSession`]) exploits:
//!
//! * **Netlist edits** return a [`pl_netlist::DirtySet`] — the value cone
//!   of the edit (fanout closure through registers) plus the edit frontier
//!   (old/new fanins whose fanout counts changed, which matter to the
//!   mapper's area-flow cost).
//! * **Techmap is cone-recomputed**: nodes outside the *combinational
//!   fanout closure* of the structurally touched nodes and the frontier
//!   (cut lists depend only on comb fanin structure and fanout counts —
//!   the register-crossing value cone is irrelevant to the mapper) keep
//!   byte-identical decomposition segments, and their priority-cut lists
//!   are translated from the
//!   retained [`pl_techmap::MapMemo`] instead of re-enumerated
//!   (bit-identical by construction — see
//!   [`pl_techmap::cuts::enumerate_incremental`]). Cover extraction and
//!   cleanup always run whole-netlist; they are cheap and demand-driven.
//!   With [`FlowOptions::optimize`] on, structural hashing renumbers
//!   globally, so the session falls back to a full re-map (still correct,
//!   just no reuse).
//! * **A stage is skipped outright** when its *input* artifact fingerprint
//!   is unchanged: if the re-mapped netlist fingerprints (and compares)
//!   equal to the retained one, the phased graph, early evaluation,
//!   simulation and verification are all reused verbatim from the retained
//!   artifacts. Feedback-arc planning and EE arrival levels are
//!   graph-global, so the phased stage is never cone-spliced — it either
//!   reuses wholesale or rebuilds completely.
//! * **Trigger searches memoize across compiles**: the session threads one
//!   [`pl_core::trigger::TriggerCache`] through every
//!   [`Pipeline::early_eval_cached`] call, so untouched LUT classes
//!   re-verify from the memo (`EeStageReport::cache_hits` counts this
//!   run's hits; the cache is pure, so selection never changes).
//!
//! The incremental determinism contract: for any edit sequence, the
//! incrementally recompiled pipeline is bit-identical — mapped netlist,
//! phased graph, simulation outputs, EE pair statistics — to a
//! from-scratch compile of the edited netlist (pinned over b01–b15 and
//! random netlists in `tests/eco_equivalence.rs`).

use std::path::PathBuf;
use std::time::Instant;

use pl_core::ee::{EeOptions, EePair};
use pl_core::trigger::TriggerCache;
use pl_core::PlNetlist;
use pl_lint::{LintOptions, LintReport};
use pl_netlist::blif::BlifNote;
use pl_netlist::Netlist;
use pl_sim::{
    BatchSimulator, DelayModel, LatencyStats, PlSimulator, QueueKind, ResumableOptions,
    SweepRecovery,
};
use pl_techmap::{map_with_memo, MapMemo, MapOptions, MapReuseStats, ReusePlan};

use crate::error::FlowError;
use crate::source::CircuitSource;

/// Parameters of a pipeline run.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Random input vectors per simulated variant (the paper used 100).
    pub vectors: usize,
    /// RNG seed for vector generation.
    pub seed: u64,
    /// Early-evaluation selection policy.
    pub ee: EeOptions,
    /// Run the early-evaluation transformation at all. When `false`, the
    /// EE stage passes through and only the plain variant simulates.
    pub ee_enabled: bool,
    /// Component delays.
    pub delays: DelayModel,
    /// Cross-check PL outputs against the synchronous reference.
    pub verify: bool,
    /// Worker threads for the simulate stage (`0` = one per core). Under
    /// every protocol the plain and EE variants are spread over them, so
    /// at most two are used. Results are bit-identical at any value;
    /// `jobs` never selects a code path.
    pub jobs: usize,
    /// Ignored: the engine has one event queue. Kept only so existing
    /// callers still compile; it is slated for deletion.
    pub queue: QueueKind,
    /// When set, the simulate stage runs the *streamed* protocol instead
    /// of the per-vector latency protocol: each variant's whole vector
    /// stream runs as one continuous [`pl_sim::PlSimulator::run_stream`]
    /// pass, or, with [`FlowOptions::checkpoint_dir`], through the
    /// crash-resumable [`pl_sim::sweep_resumable`], which checkpoints and
    /// journals every window of this many vectors. The outcome is
    /// bit-identical either way. Latency statistics are empty in this
    /// mode (a pipelined stream has no per-vector stable-input→stable-output
    /// latency); makespan and throughput are reported instead.
    pub window: Option<usize>,
    /// When set, the simulate stage runs the *lane* protocol: the vector
    /// stream is striped 64 ways (vector `i` → substream `i % 64`, round
    /// `i / 64`; each substream is an independent run from the initial
    /// marking), and each variant marches all 64 substreams through one
    /// event flow of the word-parallel [`pl_sim::BatchSimulator`], with
    /// `u64` lane words. The reassembled outputs are bit-identical to 64
    /// scalar runs of the substreams. Only `64` is accepted; mutually
    /// exclusive with [`FlowOptions::window`] and
    /// [`FlowOptions::checkpoint_dir`]. Latency statistics are empty in
    /// this mode (substreams measure values, not per-vector latency).
    pub lanes: Option<usize>,
    /// When set (streamed protocol only), the simulate stage runs each
    /// variant through the crash-resumable sweep
    /// ([`pl_sim::sweep_resumable`]) instead of a plain
    /// [`pl_sim::PlSimulator::run_stream`]: a checkpoint at every window
    /// boundary and a completed-window journal are written under this
    /// directory (`plain/` and `ee/` subtrees, one per variant), so a
    /// killed run can be resumed bit-identically with
    /// [`FlowOptions::resume`]. Requires [`FlowOptions::window`].
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume an interrupted sweep already present in
    /// [`FlowOptions::checkpoint_dir`] instead of starting fresh (a fresh
    /// run refuses a directory that already holds a sweep). A variant
    /// whose sweep never durably started — no `sweep.meta` under its
    /// subtree, e.g. the run was killed before reaching the EE variant —
    /// is started fresh rather than failing.
    pub resume: bool,
    /// Technology-mapping options (LUT arity, cut budget, cleanup).
    pub map: MapOptions,
    /// Run the standalone netlist cleanup passes (constant propagation,
    /// structural hashing, dead-node elimination) before mapping. Catalog
    /// sources are already cleaned by elaboration, so this is off by
    /// default; it pays off on raw third-party BLIF files.
    pub optimize: bool,
    /// Static-diagnostics options for the lint stage ([`Pipeline::lint`]
    /// after ingest, [`Pipeline::lint_phased`] after the phased stage).
    /// Enabled by default; a deny-level finding aborts [`Pipeline::run`]
    /// with [`FlowError::Lint`]. Set `lint.enabled = false` to skip the
    /// stage entirely, or override individual codes via `lint.overrides`.
    pub lint: LintOptions,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            vectors: 100,
            seed: 0xDA7E_2002,
            ee: EeOptions::default(),
            ee_enabled: true,
            delays: DelayModel::default(),
            verify: true,
            jobs: 1,
            queue: QueueKind::default(),
            window: None,
            lanes: None,
            checkpoint_dir: None,
            resume: false,
            map: MapOptions::default(),
            optimize: false,
            lint: LintOptions::default(),
        }
    }
}

impl FlowOptions {
    /// The most vectors one run may simulate (2^20). It sits far above
    /// any count the paper's protocol or the benchmarks use.
    pub const MAX_VECTORS: usize = 1 << 20;

    /// The most input bits one run may simulate (2^26): vectors times
    /// primary inputs. The vector stream is generated up front, one byte
    /// per bit, so this bounds a run's memory where [`Self::MAX_VECTORS`]
    /// alone does not; the simulate stage checks it before generating.
    pub const MAX_INPUT_BITS: usize = 1 << 26;

    /// These options with `sim`'s simulation fields: `vectors`, `seed`,
    /// `jobs`, `window`, `lanes`, `checkpoint_dir`, `resume` and
    /// `verify`. Every other field fixes what a compile produces (mapped
    /// and phased netlists, EE pairs), so it stays as in `self`.
    #[must_use]
    pub(crate) fn with_simulation_of(&self, sim: &FlowOptions) -> FlowOptions {
        FlowOptions {
            vectors: sim.vectors,
            seed: sim.seed,
            jobs: sim.jobs,
            window: sim.window,
            lanes: sim.lanes,
            checkpoint_dir: sim.checkpoint_dir.clone(),
            resume: sim.resume,
            verify: sim.verify,
            ..self.clone()
        }
    }

    /// Rejects out-of-range options and inconsistent option combinations
    /// with a typed [`FlowError::Options`] — the same ones `plc` rejects
    /// at the command line, phrased with the same flag names, so
    /// programmatic callers (the `pld` daemon building options from
    /// network requests, library embedders) cannot silently bypass them:
    ///
    /// * a LUT arity outside `2..=4` (the PL gate is a LUT4, so a wider
    ///   map could never reach the phased stage),
    /// * more than [`FlowOptions::MAX_VECTORS`] vectors,
    /// * a zero streaming window,
    /// * a lane width other than 64,
    /// * [`FlowOptions::lanes`] with [`FlowOptions::window`] (the lane
    ///   and streamed protocols differ),
    /// * [`FlowOptions::lanes`] with [`FlowOptions::checkpoint_dir`]
    ///   (the lane sweep is not resumable),
    /// * [`FlowOptions::checkpoint_dir`] without a window (only the
    ///   streamed sweep is resumable),
    /// * [`FlowOptions::resume`] without a checkpoint directory.
    ///
    /// Called at the top of [`Pipeline::run`], [`Pipeline::simulate`]
    /// and [`Pipeline::eco_session`], so an invalid combination fails
    /// fast and typed instead of panicking deep inside a sweep or being
    /// silently ignored.
    ///
    /// # Errors
    ///
    /// [`FlowError::Options`] naming the first offending combination.
    pub fn validate(&self) -> Result<(), FlowError> {
        let reject = |message: String| Err(FlowError::Options { message });
        if !(2..=4).contains(&self.map.lut_size) {
            return reject(format!(
                "--lut-size {} is outside the supported range 2..=4",
                self.map.lut_size
            ));
        }
        if self.vectors > Self::MAX_VECTORS {
            return reject(format!(
                "--vectors {} is above the maximum of {} per run",
                self.vectors,
                Self::MAX_VECTORS
            ));
        }
        if self.window == Some(0) {
            return reject("--window must be at least 1".to_string());
        }
        if let Some(lanes) = self.lanes {
            if lanes != 64 {
                return reject(format!(
                    "--lanes {lanes} is not a supported width (64 = batch engine)"
                ));
            }
            if self.window.is_some() {
                return reject(
                    "--lanes is mutually exclusive with --window (lane and streamed protocols differ)"
                        .to_string(),
                );
            }
            if self.checkpoint_dir.is_some() {
                return reject(
                    "--lanes is mutually exclusive with --checkpoint-dir (the lane sweep is not resumable)"
                        .to_string(),
                );
            }
        }
        if self.checkpoint_dir.is_some() && self.window.is_none() {
            return reject(
                "--checkpoint-dir requires --window (only the streamed sweep is resumable)"
                    .to_string(),
            );
        }
        if self.resume && self.checkpoint_dir.is_none() {
            return reject(
                "--resume requires --checkpoint-dir (nowhere to resume from)".to_string(),
            );
        }
        Ok(())
    }
}

/// Ingest-stage report.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Source kind (`rtl-catalog`, `blif-file`, ...).
    pub source: &'static str,
    /// Primary inputs of the ingested netlist.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// LUT nodes.
    pub luts: usize,
    /// Flip-flops.
    pub dffs: usize,
    /// Stage wall-clock seconds.
    pub secs: f64,
}

/// Ingest-stage artifact: a named gate-level netlist.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// Design label (catalog id, file path, ...).
    pub name: String,
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Ingest-time observations (e.g. undriven nets the BLIF source
    /// referenced), surfaced by the lint stage as `PL0009`.
    pub notes: Vec<BlifNote>,
    /// Content fingerprint of `netlist` ([`Netlist::fingerprint`]).
    pub fingerprint: u64,
    /// Stage report.
    pub report: IngestReport,
}

/// Lint-stage report: the findings plus stage timing.
#[derive(Debug, Clone)]
pub struct LintStageReport {
    /// The (deterministically ordered) findings.
    pub report: LintReport,
    /// Stage wall-clock seconds.
    pub secs: f64,
}

/// Optimize-stage report.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// Whether the cleanup passes ran (see [`FlowOptions::optimize`]).
    pub ran: bool,
    /// Node count before.
    pub nodes_before: usize,
    /// Node count after.
    pub nodes_after: usize,
    /// Stage wall-clock seconds.
    pub secs: f64,
}

/// Optimize-stage artifact.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// Design label.
    pub name: String,
    /// The (possibly cleaned) netlist.
    pub netlist: Netlist,
    /// Content fingerprint of `netlist` ([`Netlist::fingerprint`]).
    pub fingerprint: u64,
    /// Stage report.
    pub report: OptimizeReport,
}

/// Techmap-stage report.
#[derive(Debug, Clone)]
pub struct TechmapReport {
    /// Target LUT arity.
    pub lut_size: usize,
    /// LUT count before mapping (after 2-input decomposition).
    pub luts_before: usize,
    /// LUT count after mapping.
    pub luts_after: usize,
    /// Combinational depth after mapping.
    pub depth: u32,
    /// Stage wall-clock seconds.
    pub secs: f64,
}

/// Techmap-stage artifact: a LUT-k netlist ready for phased-logic mapping.
#[derive(Debug, Clone)]
pub struct Mapped {
    /// Design label.
    pub name: String,
    /// The mapped netlist (every LUT ≤ the configured arity).
    pub netlist: Netlist,
    /// Content fingerprint of `netlist` ([`Netlist::fingerprint`]). Equal
    /// fingerprints (confirmed by an equality compare) let the ECO session
    /// reuse every downstream artifact verbatim.
    pub fingerprint: u64,
    /// Stage report.
    pub report: TechmapReport,
}

/// Phased-stage report.
#[derive(Debug, Clone)]
pub struct PhasedReport {
    /// PL logic gates (LUTs + registers) — Table 3's "PL Gates".
    pub logic_gates: usize,
    /// Total arcs in the marked graph.
    pub arcs: usize,
    /// Feedback (acknowledge) arcs.
    pub ack_arcs: usize,
    /// Stage wall-clock seconds (includes the liveness check).
    pub secs: f64,
}

/// Phased-stage artifact: a live phased-logic marked graph.
#[derive(Debug, Clone)]
pub struct Phased {
    /// Design label.
    pub name: String,
    /// The phased-logic netlist (no EE yet).
    pub netlist: PlNetlist,
    /// Content fingerprint of `netlist` ([`PlNetlist::fingerprint`]).
    pub fingerprint: u64,
    /// Stage report.
    pub report: PhasedReport,
}

/// Early-evaluation-stage report.
#[derive(Debug, Clone)]
pub struct EeStageReport {
    /// Whether the transformation ran (see [`FlowOptions::ee_enabled`]).
    pub enabled: bool,
    /// Implemented master/trigger pairs — Table 3's "EE Gates".
    pub pairs: usize,
    /// Compute gates examined as potential masters.
    pub examined: usize,
    /// Trigger searches answered by the LUT-class memo cache.
    pub cache_hits: u64,
    /// Trigger searches computed fresh.
    pub cache_misses: u64,
    /// Fractional area increase (pairs over PL gates).
    pub area_increase: f64,
    /// Stage wall-clock seconds.
    pub secs: f64,
}

/// Early-evaluation-stage artifact: the plain netlist plus (when enabled)
/// its EE-transformed twin.
#[derive(Debug, Clone)]
pub struct EarlyEvaled {
    /// Design label.
    pub name: String,
    /// The plain phased-logic netlist.
    pub plain: PlNetlist,
    /// The EE-transformed netlist (`None` when EE is disabled).
    pub ee: Option<PlNetlist>,
    /// The implemented master/trigger pairs.
    pub pairs: Vec<EePair>,
    /// Stage report.
    pub report: EeStageReport,
}

/// Simulate-stage report.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Vectors simulated per variant.
    pub vectors: usize,
    /// Worker threads the stage ran on: [`FlowOptions::jobs`] resolved
    /// by [`pl_sim::parallel::effective_jobs`], so never more than one
    /// per variant.
    pub jobs: usize,
    /// Window size when the streamed protocol ran (see
    /// [`FlowOptions::window`]); `None` for the per-vector protocol.
    pub window: Option<usize>,
    /// Lane width when the lane protocol ran (see
    /// [`FlowOptions::lanes`]): `Some(64)`, the word-parallel batch
    /// engine; `None` otherwise.
    pub lanes: Option<usize>,
    /// Recovery audit trail of the plain variant when the crash-resumable
    /// sweep ran (see [`FlowOptions::checkpoint_dir`]); `None` otherwise.
    pub recovery_plain: Option<SweepRecovery>,
    /// Recovery audit trail of the EE variant (resumable sweep with EE
    /// enabled only).
    pub recovery_ee: Option<SweepRecovery>,
    /// Stage wall-clock seconds (all variants).
    pub secs: f64,
}

/// Simulate-stage artifact: per-vector outputs and latency statistics.
///
/// `outputs` are the plain variant's outputs; the stage has already
/// asserted that the EE variant's outputs are bit-identical (the paper's
/// central invariant: EE changes timing only, never values).
#[derive(Debug, Clone)]
pub struct Simulated {
    /// Design label.
    pub name: String,
    /// The input vectors that were simulated (the verify stage replays
    /// exactly these against the synchronous reference).
    pub inputs: Vec<Vec<bool>>,
    /// Per-vector primary-output values.
    pub outputs: Vec<Vec<bool>>,
    /// Latency statistics without EE (empty in streamed mode).
    pub stats_plain: LatencyStats,
    /// Latency statistics with EE (`None` when EE is disabled; empty in
    /// streamed mode).
    pub stats_ee: Option<LatencyStats>,
    /// Streamed outcome of the plain variant when the streamed protocol
    /// ran (see [`FlowOptions::window`]) — **metrics only**
    /// (makespan/throughput); its `outputs` vector is empty because the
    /// output words live once, in [`Simulated::outputs`].
    pub stream_plain: Option<pl_sim::StreamOutcome>,
    /// Streamed outcome of the EE variant (metrics only, same contract as
    /// `stream_plain`; the EE words were asserted identical to the plain
    /// ones), when EE and the streamed protocol are both enabled.
    pub stream_ee: Option<pl_sim::StreamOutcome>,
    /// Stage report.
    pub report: SimReport,
}

/// Verify-stage report.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Vectors cross-checked against the synchronous reference.
    pub vectors: usize,
    /// Stage wall-clock seconds.
    pub secs: f64,
}

/// Everything a full [`Pipeline::run`] produces.
#[derive(Debug, Clone)]
pub struct FlowArtifacts {
    /// Design label.
    pub name: String,
    /// The LUT-mapped synchronous netlist (verify-stage reference).
    pub mapped: Netlist,
    /// The plain phased-logic netlist.
    pub plain: PlNetlist,
    /// The EE-transformed netlist (`None` when EE is disabled).
    pub ee: Option<PlNetlist>,
    /// The implemented master/trigger pairs.
    pub pairs: Vec<EePair>,
    /// The simulated input vectors.
    pub inputs: Vec<Vec<bool>>,
    /// Per-vector primary-output values.
    pub outputs: Vec<Vec<bool>>,
    /// Latency statistics without EE (empty in streamed mode).
    pub stats_plain: LatencyStats,
    /// Latency statistics with EE (`None` when EE is disabled; empty in
    /// streamed mode).
    pub stats_ee: Option<LatencyStats>,
    /// Streamed outcome of the plain variant when the streamed protocol
    /// ran — metrics only; the words live in [`FlowArtifacts::outputs`].
    pub stream_plain: Option<pl_sim::StreamOutcome>,
    /// Streamed outcome of the EE variant (metrics only).
    pub stream_ee: Option<pl_sim::StreamOutcome>,
    /// All stage reports.
    pub report: FlowReport,
}

/// The per-stage reports of one full run.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Ingest stage.
    pub ingest: IngestReport,
    /// Netlist lint pass, run right after ingest (`None` when the lint
    /// stage is disabled).
    pub lint: Option<LintStageReport>,
    /// Optimize stage.
    pub optimize: OptimizeReport,
    /// Techmap stage.
    pub techmap: TechmapReport,
    /// Phased stage.
    pub phased: PhasedReport,
    /// Phased-logic lint pass, run right after the phased stage (`None`
    /// when the lint stage is disabled).
    pub lint_pl: Option<LintStageReport>,
    /// Early-evaluation stage.
    pub early_eval: EeStageReport,
    /// Simulate stage.
    pub simulate: SimReport,
    /// Verify stage (`None` when verification is off).
    pub verify: Option<VerifyReport>,
}

impl FlowReport {
    /// Total wall-clock seconds across all stages.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.ingest.secs
            + self.lint.as_ref().map_or(0.0, |l| l.secs)
            + self.optimize.secs
            + self.techmap.secs
            + self.phased.secs
            + self.lint_pl.as_ref().map_or(0.0, |l| l.secs)
            + self.early_eval.secs
            + self.simulate.secs
            + self.verify.as_ref().map_or(0.0, |v| v.secs)
    }
}

/// One variant's simulate-stage result under any protocol: its output
/// words, its latency statistics (per-vector only; empty otherwise), and
/// its stream outcome and recovery trail (streamed only).
struct VariantRun {
    outputs: Vec<Vec<bool>>,
    stats: LatencyStats,
    stream: Option<pl_sim::StreamOutcome>,
    recovery: Option<SweepRecovery>,
}

/// The compile pipeline, configured once and callable stage by stage.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    opts: FlowOptions,
}

impl Pipeline {
    /// A pipeline with the given options.
    #[must_use]
    pub fn new(opts: FlowOptions) -> Self {
        Self { opts }
    }

    /// The configured options.
    #[must_use]
    pub fn opts(&self) -> &FlowOptions {
        &self.opts
    }

    /// **Stage 1 — ingest**: resolves a [`CircuitSource`] to a named
    /// gate-level netlist.
    ///
    /// # Errors
    ///
    /// Source resolution failures (I/O, BLIF parse, RTL elaboration).
    pub fn ingest(&self, source: &CircuitSource) -> Result<Ingested, FlowError> {
        let t0 = Instant::now();
        let (netlist, notes) = source.ingest_netlist_with_notes()?;
        let report = IngestReport {
            source: source.kind(),
            inputs: netlist.inputs().len(),
            outputs: netlist.outputs().len(),
            luts: netlist.num_luts(),
            dffs: netlist.dffs().len(),
            secs: t0.elapsed().as_secs_f64(),
        };
        Ok(Ingested {
            name: source.name(),
            fingerprint: netlist.fingerprint(),
            netlist,
            notes,
            report,
        })
    }

    /// **Stage 1b — lint**: whole-netlist static diagnostics on the
    /// ingested design (see [`pl_lint::lint_netlist`] and the lint catalog
    /// in the `pl-lint` crate docs). Non-consuming, like
    /// [`Pipeline::verify`], so callers can lint and still continue with
    /// the artifact.
    ///
    /// # Errors
    ///
    /// [`FlowError::Lint`] when any finding is deny-level under the
    /// configured severities ([`LintOptions::overrides`]).
    pub fn lint(&self, ingested: &Ingested) -> Result<LintStageReport, FlowError> {
        let t0 = Instant::now();
        let report = pl_lint::lint_netlist(
            &ingested.netlist,
            &ingested.notes,
            &self.opts.delays,
            &self.opts.lint,
        );
        if report.has_deny() {
            return Err(FlowError::Lint {
                pass: "netlist",
                report,
            });
        }
        Ok(LintStageReport {
            report,
            secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// **Stage 4b — lint (phased)**: re-checks the mapped phased-logic
    /// netlist (pin wiring, dead gates, data-fanout envelope) with
    /// [`pl_lint::lint_pl`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Lint`] when any finding is deny-level.
    pub fn lint_phased(&self, phased: &Phased) -> Result<LintStageReport, FlowError> {
        let t0 = Instant::now();
        let report = pl_lint::lint_pl(&phased.netlist, &self.opts.lint);
        if report.has_deny() {
            return Err(FlowError::Lint { pass: "pl", report });
        }
        Ok(LintStageReport {
            report,
            secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// **Stage 2 — optimize**: optional standalone cleanup passes
    /// (constant propagation, structural hashing, dead-node elimination).
    /// Passes through untouched unless [`FlowOptions::optimize`] is set.
    ///
    /// # Errors
    ///
    /// Netlist validation failures from the cleanup passes.
    pub fn optimize(&self, ingested: Ingested) -> Result<Optimized, FlowError> {
        let t0 = Instant::now();
        let nodes_before = ingested.netlist.len();
        let netlist = if self.opts.optimize {
            pl_netlist::opt::cleanup(&ingested.netlist)?
        } else {
            ingested.netlist
        };
        Ok(Optimized {
            name: ingested.name,
            report: OptimizeReport {
                ran: self.opts.optimize,
                nodes_before,
                nodes_after: netlist.len(),
                secs: t0.elapsed().as_secs_f64(),
            },
            // Pass-through keeps the ingest fingerprint without rehashing.
            fingerprint: if self.opts.optimize {
                netlist.fingerprint()
            } else {
                ingested.fingerprint
            },
            netlist,
        })
    }

    /// **Stage 3 — techmap**: covers the netlist with LUTs of the
    /// configured arity (cut-based, depth-oriented).
    ///
    /// # Errors
    ///
    /// Mapping and validation failures.
    pub fn techmap(&self, optimized: Optimized) -> Result<Mapped, FlowError> {
        Ok(self.techmap_memoized(optimized, None)?.0)
    }

    /// Techmap with cross-compile memoization: returns the mapped artifact
    /// plus the [`MapMemo`] to retain for the next incremental compile and
    /// the reuse statistics of this one. `prev` is a retained memo plus a
    /// clean-source correspondence plan (see
    /// [`pl_techmap::map_with_memo`]); `None` maps from scratch.
    /// [`Pipeline::techmap`] is the plain `None` wrapper.
    ///
    /// # Errors
    ///
    /// Mapping and validation failures.
    pub fn techmap_memoized(
        &self,
        optimized: Optimized,
        prev: Option<(&MapMemo, &ReusePlan)>,
    ) -> Result<(Mapped, MapMemo, MapReuseStats), FlowError> {
        let t0 = Instant::now();
        let (mr, memo, stats) = map_with_memo(&optimized.netlist, &self.opts.map, prev)?;
        let mapped = Mapped {
            name: optimized.name,
            fingerprint: mr.netlist.fingerprint(),
            netlist: mr.netlist,
            report: TechmapReport {
                lut_size: self.opts.map.lut_size,
                luts_before: mr.luts_before,
                luts_after: mr.luts_after,
                depth: mr.depth,
                secs: t0.elapsed().as_secs_f64(),
            },
        };
        Ok((mapped, memo, stats))
    }

    /// **Stage 4 — phased**: maps the synchronous LUT netlist one-to-one
    /// onto a phased-logic marked graph and proves it live.
    ///
    /// # Errors
    ///
    /// PL mapping failures; liveness violations (which would indicate a
    /// mapping bug or a degenerate input).
    pub fn phased(&self, mapped: &Mapped) -> Result<Phased, FlowError> {
        let t0 = Instant::now();
        let netlist = PlNetlist::from_sync(&mapped.netlist)?;
        pl_core::marked::check_liveness(&netlist)?;
        let report = PhasedReport {
            logic_gates: netlist.num_logic_gates(),
            arcs: netlist.arcs().len(),
            ack_arcs: netlist.num_ack_arcs(),
            secs: t0.elapsed().as_secs_f64(),
        };
        Ok(Phased {
            name: mapped.name.clone(),
            fingerprint: netlist.fingerprint(),
            netlist,
            report,
        })
    }

    /// **Stage 5 — early evaluation**: pairs eligible masters with
    /// trigger gates (paper §3). The plain netlist is built **once** in
    /// the phased stage; the EE twin derives from a clone, so the two
    /// variants share an identical baseline by construction.
    ///
    /// When [`FlowOptions::ee_enabled`] is off, the stage passes the
    /// plain netlist through and reports zero pairs.
    #[must_use]
    pub fn early_eval(&self, phased: Phased) -> EarlyEvaled {
        let mut cache = TriggerCache::new();
        self.early_eval_cached(phased, &mut cache)
    }

    /// [`Pipeline::early_eval`] with a caller-owned trigger memo: the
    /// search cache lives across calls, so an incremental recompile
    /// answers trigger searches for untouched LUT classes from the memo
    /// of the previous compile. The cache is pure — selection is
    /// bit-identical to a fresh-cache run — and the stage report counts
    /// only *this run's* hits and misses.
    #[must_use]
    pub fn early_eval_cached(&self, phased: Phased, cache: &mut TriggerCache) -> EarlyEvaled {
        let t0 = Instant::now();
        if !self.opts.ee_enabled {
            return EarlyEvaled {
                name: phased.name,
                plain: phased.netlist,
                ee: None,
                pairs: Vec::new(),
                report: EeStageReport {
                    enabled: false,
                    pairs: 0,
                    examined: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                    area_increase: 0.0,
                    secs: t0.elapsed().as_secs_f64(),
                },
            };
        }
        let report = phased
            .netlist
            .clone()
            .with_early_evaluation_cached(&self.opts.ee, cache);
        let stage_report = EeStageReport {
            enabled: true,
            pairs: report.pairs().len(),
            examined: report.examined(),
            cache_hits: report.cache_hits(),
            cache_misses: report.cache_misses(),
            area_increase: report.area_increase(),
            secs: t0.elapsed().as_secs_f64(),
        };
        let pairs = report.pairs().to_vec();
        EarlyEvaled {
            name: phased.name,
            plain: phased.netlist,
            ee: Some(report.into_netlist()),
            pairs,
            report: stage_report,
        }
    }

    /// **Stage 6 — simulate**: runs seeded random vectors through every
    /// variant and asserts the EE variant's outputs equal the plain
    /// variant's. Three protocols, selected by [`FlowOptions::window`]
    /// and [`FlowOptions::lanes`]:
    ///
    /// * **Per-vector** (neither set, the paper's Table 3 protocol) —
    ///   measures stable-input→stable-output latency vector by vector.
    /// * **Streamed** (`window: Some(n)`) — pipelines the whole vector
    ///   stream through each variant as one continuous
    ///   [`pl_sim::PlSimulator::run_stream`] pass, reporting makespan and
    ///   throughput instead of per-vector latencies. With
    ///   [`FlowOptions::checkpoint_dir`] set, the stream runs through the
    ///   crash-resumable sweep instead ([`pl_sim::sweep_resumable`]:
    ///   on-disk checkpoints every `n` vectors + journal, kill/resume
    ///   recovery) and the report carries each variant's
    ///   [`SweepRecovery`] audit trail.
    /// * **Lane** (`lanes: Some(64)`) — stripes the stream 64 ways and
    ///   runs each variant's substreams through one
    ///   [`pl_sim::BatchSimulator::run_lanes`] call, reassembling the
    ///   output words in vector order.
    ///
    /// Under every protocol the plain/EE variants are scattered across
    /// [`FlowOptions::jobs`] workers, and the results are bit-identical
    /// at any worker count.
    ///
    /// # Errors
    ///
    /// Simulator failures; [`FlowError::Mismatch`] if EE ever changed a
    /// value (must never happen); [`FlowError::Options`] for an
    /// inconsistent option combination (see [`FlowOptions::validate`]) or
    /// a vector stream above [`FlowOptions::MAX_INPUT_BITS`].
    pub fn simulate(&self, ee: &EarlyEvaled) -> Result<Simulated, FlowError> {
        self.simulate_netlists(&ee.name, &ee.plain, ee.ee.as_ref())
    }

    /// [`Pipeline::simulate`] over borrowed netlists.
    fn simulate_netlists(
        &self,
        name: &str,
        plain: &PlNetlist,
        ee: Option<&PlNetlist>,
    ) -> Result<Simulated, FlowError> {
        let t0 = Instant::now();
        // Caught here so library callers get a typed error instead of
        // the sweep's panic (plc delegates to the same check).
        self.opts.validate()?;
        let width = plain.input_gates().len();
        if self.opts.vectors.saturating_mul(width) > FlowOptions::MAX_INPUT_BITS {
            return Err(FlowError::Options {
                message: format!(
                    "--vectors {} with {width} primary inputs is above the maximum of {} input bits per run",
                    self.opts.vectors,
                    FlowOptions::MAX_INPUT_BITS
                ),
            });
        }
        let inputs = pl_sim::random_vectors(width, self.opts.vectors, self.opts.seed);
        // The lane protocol stripes the stream once for both variants:
        // vector i goes to substream i % 64, round i / 64.
        let stripes = self.opts.lanes.map(|lanes| {
            let mut stripes: Vec<Vec<Vec<bool>>> = vec![Vec::new(); lanes];
            for (i, v) in inputs.iter().enumerate() {
                stripes[i % lanes].push(v.clone());
            }
            stripes
        });
        let variants: Vec<(&PlNetlist, &str)> = std::iter::once((plain, "plain"))
            .chain(ee.map(|pl| (pl, "ee")))
            .collect();
        let jobs = pl_sim::parallel::effective_jobs(self.opts.jobs, variants.len());
        let results = pl_sim::parallel::scatter_gather(jobs, &variants, |_, &(pl, variant)| {
            self.simulate_variant(pl, &inputs, stripes.as_deref(), variant)
        });
        let mut runs = Vec::with_capacity(results.len());
        for r in results {
            runs.push(r?);
        }
        let plain = runs.swap_remove(0);
        let ee_run = runs.pop();
        if ee_run.as_ref().is_some_and(|r| r.outputs != plain.outputs) {
            let protocol = if self.opts.lanes.is_some() {
                ", 64-lane"
            } else if self.opts.window.is_some() {
                ", streamed"
            } else {
                ""
            };
            return Err(FlowError::Mismatch {
                context: format!("{name} (EE vs plain{protocol})"),
            });
        }
        let (stats_ee, stream_ee, recovery_ee) = match ee_run {
            Some(r) => (Some(r.stats), r.stream, r.recovery),
            None => (None, None, None),
        };
        Ok(Simulated {
            name: name.to_string(),
            inputs,
            outputs: plain.outputs,
            stats_plain: plain.stats,
            stats_ee,
            stream_plain: plain.stream,
            stream_ee,
            report: SimReport {
                vectors: self.opts.vectors,
                jobs,
                window: self.opts.window,
                lanes: self.opts.lanes,
                recovery_plain: plain.recovery,
                recovery_ee,
                secs: t0.elapsed().as_secs_f64(),
            },
        })
    }

    /// Simulates `plain` (and `ee`) and, when [`FlowOptions::verify`] is
    /// set, checks the outputs against `mapped`: the back end of
    /// [`Pipeline::run`], of every ECO recompile and of
    /// [`crate::EcoSession::resweep`].
    pub(crate) fn simulate_and_verify(
        &self,
        name: &str,
        plain: &PlNetlist,
        ee: Option<&PlNetlist>,
        mapped: &Netlist,
    ) -> Result<(Simulated, Option<VerifyReport>), FlowError> {
        let sim = self.simulate_netlists(name, plain, ee)?;
        let verify = if self.opts.verify {
            Some(self.verify(mapped, &sim)?)
        } else {
            None
        };
        Ok((sim, verify))
    }

    /// Simulates one variant under the lane protocol when `stripes` (the
    /// 64 substreams of `inputs`) are given, under the per-vector protocol
    /// when [`FlowOptions::window`] is not set, and under the streamed
    /// protocol otherwise: the crash-resumable sweep (under
    /// `checkpoint_dir/<variant>`) when a checkpoint directory is
    /// configured, a plain `run_stream` otherwise. Both streamed paths
    /// give the same outcome; only the resumable one yields a recovery
    /// trail.
    fn simulate_variant(
        &self,
        pl: &PlNetlist,
        inputs: &[Vec<bool>],
        stripes: Option<&[Vec<Vec<bool>>]>,
        variant: &str,
    ) -> Result<VariantRun, FlowError> {
        let opts = &self.opts;
        if let Some(stripes) = stripes {
            let lanes: Vec<&[Vec<bool>]> = stripes.iter().map(Vec::as_slice).collect();
            let outs = BatchSimulator::new(pl, opts.delays.clone())?.run_lanes(&lanes)?;
            let n = lanes.len();
            return Ok(VariantRun {
                outputs: (0..inputs.len())
                    .map(|i| outs[i % n].outputs[i / n].clone())
                    .collect(),
                stats: LatencyStats::new(Vec::new()),
                stream: None,
                recovery: None,
            });
        }
        let Some(window) = opts.window else {
            let (outputs, stats) = pl_sim::measure_latency_on(pl, &opts.delays, inputs)?;
            return Ok(VariantRun {
                outputs,
                stats,
                stream: None,
                recovery: None,
            });
        };
        let (mut stream, recovery) = match &opts.checkpoint_dir {
            None => {
                let mut sim = PlSimulator::new(pl, opts.delays.clone())?;
                (sim.run_stream(inputs)?, None)
            }
            Some(dir) => {
                let vdir = dir.join(variant);
                // A kill can land before this variant's sweep durably
                // started (its `sweep.meta` is written atomically, so it
                // is absent-or-valid): resume what is there, start fresh
                // what never began. A present-but-corrupt meta still fails
                // typed inside the sweep.
                let resume = opts.resume && vdir.join("sweep.meta").exists();
                let ropts = ResumableOptions {
                    window,
                    resume,
                    ..ResumableOptions::default()
                };
                let out = pl_sim::sweep_resumable(pl, &opts.delays, inputs, &vdir, &ropts)?;
                (out.outcome, Some(out.recovery))
            }
        };
        // The output words live once, in `Simulated::outputs`; the stream
        // outcome carries metrics (makespan/throughput) only.
        Ok(VariantRun {
            outputs: std::mem::take(&mut stream.outputs),
            stats: LatencyStats::new(Vec::new()),
            stream: Some(stream),
            recovery,
        })
    }

    /// **Stage 7 — verify**: replays the simulate stage's exact input
    /// vectors (carried in the [`Simulated`] artifact) through the
    /// cycle-accurate synchronous reference and checks every output word
    /// against the phased-logic run.
    ///
    /// # Errors
    ///
    /// [`FlowError::Mismatch`] naming the first diverging vector.
    pub fn verify(&self, mapped: &Netlist, sim: &Simulated) -> Result<VerifyReport, FlowError> {
        let t0 = Instant::now();
        // Under the lane protocol the stream was striped 64 ways, each
        // substream an independent run from the initial state, so the
        // reference must be striped identically: vector i replays on
        // reference simulator i % 64.
        let n_refs = if sim.report.lanes.is_some() { 64 } else { 1 };
        let mut syncs = Vec::with_capacity(n_refs);
        for _ in 0..n_refs {
            syncs.push(pl_sim::SyncSimulator::new(mapped).map_err(FlowError::Netlist)?);
        }
        for (i, (v, pl_out)) in sim.inputs.iter().zip(&sim.outputs).enumerate() {
            let sync_out = syncs[i % n_refs].step(v).map_err(FlowError::Netlist)?;
            if &sync_out != pl_out {
                return Err(FlowError::Mismatch {
                    context: format!("{} vector {i} (sync vs PL)", sim.name),
                });
            }
        }
        Ok(VerifyReport {
            vectors: sim.outputs.len(),
            secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// Runs the whole chain on one source: the compile of
    /// [`crate::EcoSession::new`], whose artifacts it returns.
    ///
    /// # Errors
    ///
    /// Propagates the first failing stage's error.
    pub fn run(&self, source: &CircuitSource) -> Result<FlowArtifacts, FlowError> {
        Ok(self.eco_session(source)?.into_artifacts())
    }
}
