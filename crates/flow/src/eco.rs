//! Incremental recompilation: ECO edit sessions over the pipeline.
//!
//! An [`EcoSession`] is a compiled design plus everything needed to
//! recompile it *incrementally* after a small engineering change order
//! (ECO): the retained [`FlowArtifacts`], the techmap [`MapMemo`], and a
//! persistent [`TriggerCache`] for early-evaluation searches. Feeding it a
//! batch of [`EcoEdit`]s re-runs the pipeline with three levers pulled
//! (see the invalidation model in [`crate::pipeline`]):
//!
//! 1. cut enumeration translates clean-cone cut lists from the memo,
//! 2. the whole downstream (phased/EE/simulate/verify) is reused verbatim
//!    when the re-mapped netlist is unchanged,
//! 3. trigger searches for already-seen LUT classes answer from the memo.
//!
//! The contract is absolute, not best-effort: for any edit sequence the
//! session's artifacts are **bit-identical** to a from-scratch
//! [`Pipeline::run`] on the edited netlist — only wall-clock and the
//! trigger-cache hit/miss counters may differ. A failing edit batch
//! (unknown node, arity mismatch, lint deny, combinational loop found
//! downstream) rolls the session back: the retained netlist and artifacts
//! are untouched and the session stays usable.

use std::time::Instant;

use pl_boolfn::TruthTable;
use pl_core::trigger::TriggerCache;
use pl_netlist::blif::BlifNote;
use pl_netlist::eco::comb_fanout_closure;
use pl_netlist::{DirtySet, Netlist, NodeId, NodeKind};
use pl_techmap::{MapMemo, ReusePlan};

use crate::error::FlowError;
use crate::pipeline::{
    FlowArtifacts, FlowOptions, FlowReport, IngestReport, Ingested, LintStageReport, Mapped,
    OptimizeReport, Pipeline, Simulated, VerifyReport,
};
use crate::source::CircuitSource;

/// A node reference in an edit spec: a raw id (`n17` or `17`) or a debug /
/// port name. Pure-digit and `n`-digit strings always resolve as ids;
/// anything else resolves by name — node debug names and primary-input
/// names first, then primary-output port names (giving the driver node).
/// A name matching several nodes is a typed error, never a silent pick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRef {
    /// A raw node id (the `NN` of `nNN` in diagnostics and BLIF emission).
    Id(usize),
    /// A debug name, primary-input name, or primary-output port name.
    Name(String),
}

impl NodeRef {
    /// Parses one node reference from an edit spec.
    #[must_use]
    pub fn parse(s: &str) -> NodeRef {
        let digits = s.strip_prefix('n').unwrap_or(s);
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(i) = digits.parse::<usize>() {
                return NodeRef::Id(i);
            }
        }
        NodeRef::Name(s.to_string())
    }

    /// Resolves the reference against a netlist.
    ///
    /// # Errors
    ///
    /// [`FlowError::Config`] for an out-of-range id, an unknown name, or
    /// an ambiguous name.
    pub fn resolve(&self, n: &Netlist) -> Result<NodeId, FlowError> {
        match self {
            NodeRef::Id(i) => {
                let id = NodeId::from_index(*i);
                if n.get(id).is_some() {
                    Ok(id)
                } else {
                    Err(FlowError::Config {
                        message: format!("no node n{i} in '{}' ({} nodes)", n.name(), n.len()),
                    })
                }
            }
            NodeRef::Name(name) => {
                let mut matches: Vec<NodeId> = Vec::new();
                for (id, node) in n.iter() {
                    let named = node.name() == Some(name.as_str())
                        || matches!(node.kind(), NodeKind::Input { name: k } if k == name);
                    if named {
                        matches.push(id);
                    }
                }
                if matches.is_empty() {
                    for (port, id) in n.outputs() {
                        if port == name && !matches.contains(id) {
                            matches.push(*id);
                        }
                    }
                }
                match matches[..] {
                    [id] => Ok(id),
                    [] => Err(FlowError::Config {
                        message: format!("no node named '{name}' in '{}'", n.name()),
                    }),
                    _ => Err(FlowError::Config {
                        message: format!(
                            "name '{name}' is ambiguous in '{}' ({} matches)",
                            n.name(),
                            matches.len()
                        ),
                    }),
                }
            }
        }
    }
}

/// One ECO edit, in the current netlist's id/name space. Edits in a batch
/// apply in order, each seeing the effects (including id shifts from
/// removals) of the ones before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcoEdit {
    /// Replace a LUT's truth table with one of the same arity
    /// (spec: `table:<node>:<hexbits>`).
    ReplaceTable {
        /// The LUT to retable.
        node: NodeRef,
        /// New truth-table bits (row-major, LSB = all-zero input row).
        bits: u64,
    },
    /// Rewire one LUT input pin to a different source node
    /// (spec: `rewire:<node>:<pin>:<src>`).
    Rewire {
        /// The LUT whose pin moves.
        node: NodeRef,
        /// Zero-based input pin.
        pin: usize,
        /// The new source node.
        src: NodeRef,
    },
    /// Insert a fresh LUT, unreferenced until a later `rewire` (or left
    /// dangling — the mapper simply never covers it)
    /// (spec: `insert:<name>:<hexbits>:<src>[,<src>...]`, name `-` for
    /// anonymous).
    Insert {
        /// Debug name to attach (`None` stays anonymous).
        name: Option<String>,
        /// Truth-table bits; arity is the fanin count.
        bits: u64,
        /// Fanin nodes, pin order.
        inputs: Vec<NodeRef>,
    },
    /// Remove an unreferenced gate (spec: `remove:<node>`). Node ids above
    /// the removed one shift down by one; later edits in the batch must
    /// use post-shift ids (names are immune).
    Remove {
        /// The gate to remove.
        node: NodeRef,
    },
}

impl EcoEdit {
    /// Parses one `plc eco --edit` spec:
    ///
    /// ```text
    /// table:<node>:<hexbits>
    /// rewire:<node>:<pin>:<src>
    /// insert:<name>:<hexbits>:<src>[,<src>...]
    /// remove:<node>
    /// ```
    ///
    /// `<hexbits>` is hexadecimal with an optional `0x` prefix; node
    /// references are ids (`n4`, `4`) or names (see [`NodeRef`]).
    ///
    /// # Errors
    ///
    /// [`FlowError::Config`] describing the malformed spec.
    pub fn parse(spec: &str) -> Result<EcoEdit, FlowError> {
        let usage = |u: &str| FlowError::Config {
            message: format!("bad edit spec '{spec}' (usage: {u})"),
        };
        let bits = |s: &str| {
            u64::from_str_radix(s.trim_start_matches("0x"), 16).map_err(|_| FlowError::Config {
                message: format!("bad table bits '{s}' in edit spec '{spec}' (hexadecimal)"),
            })
        };
        let parts: Vec<&str> = spec.split(':').collect();
        match parts.as_slice() {
            ["table", node, hex] => Ok(EcoEdit::ReplaceTable {
                node: NodeRef::parse(node),
                bits: bits(hex)?,
            }),
            ["table", ..] => Err(usage("table:<node>:<hexbits>")),
            ["rewire", node, pin, src] => Ok(EcoEdit::Rewire {
                node: NodeRef::parse(node),
                pin: pin
                    .parse()
                    .map_err(|_| usage("rewire:<node>:<pin>:<src>"))?,
                src: NodeRef::parse(src),
            }),
            ["rewire", ..] => Err(usage("rewire:<node>:<pin>:<src>")),
            ["insert", name, hex, srcs] => Ok(EcoEdit::Insert {
                name: (*name != "-").then(|| (*name).to_string()),
                bits: bits(hex)?,
                inputs: srcs.split(',').map(NodeRef::parse).collect(),
            }),
            ["insert", ..] => Err(usage("insert:<name>:<hexbits>:<src>[,<src>...]")),
            ["remove", node] => Ok(EcoEdit::Remove {
                node: NodeRef::parse(node),
            }),
            ["remove", ..] => Err(usage("remove:<node>")),
            _ => Err(FlowError::Config {
                message: format!(
                    "unknown edit kind in '{spec}' (expected table|rewire|insert|remove)"
                ),
            }),
        }
    }

    /// Applies the edit to a netlist, returning its [`DirtySet`], the
    /// removed id for a removal (so the caller can shift retained ids),
    /// and the *structurally touched* node — the LUT whose table or fanin
    /// set changed, or the freshly inserted node. The touched node seeds
    /// techmap invalidation (cut lists depend on comb fanin structure
    /// only); the value cone, which also crosses registers, does not.
    ///
    /// # Errors
    ///
    /// Reference-resolution failures as [`FlowError::Config`]; edit-level
    /// failures (not a LUT, arity mismatch, node in use, ...) as the
    /// underlying typed [`pl_netlist::NetlistError`].
    #[allow(clippy::type_complexity)]
    pub fn apply(
        &self,
        n: &mut Netlist,
    ) -> Result<(DirtySet, Option<NodeId>, Option<NodeId>), FlowError> {
        let table = |arity: usize, bits: u64| {
            TruthTable::try_from_bits(arity, bits).map_err(|e| FlowError::Config {
                message: format!("edit truth table: {e}"),
            })
        };
        match self {
            EcoEdit::ReplaceTable { node, bits } => {
                let id = node.resolve(n)?;
                // Arity comes from the LUT itself; a non-LUT target gets
                // the typed NotALut from replace_lut_table below.
                let arity = if n.node(id).is_lut() {
                    n.node(id).fanins().len()
                } else {
                    1
                };
                Ok((
                    n.replace_lut_table(id, table(arity, *bits)?)?,
                    None,
                    Some(id),
                ))
            }
            EcoEdit::Rewire { node, pin, src } => {
                let lut = node.resolve(n)?;
                let s = src.resolve(n)?;
                Ok((n.rewire_lut_input(lut, *pin, s)?, None, Some(lut)))
            }
            EcoEdit::Insert { name, bits, inputs } => {
                let ids = inputs
                    .iter()
                    .map(|r| r.resolve(n))
                    .collect::<Result<Vec<_>, _>>()?;
                let (id, dirty) = n.insert_lut(table(ids.len(), *bits)?, ids)?;
                if let Some(name) = name {
                    n.set_name(id, name.clone())?;
                }
                Ok((dirty, None, Some(id)))
            }
            EcoEdit::Remove { node } => {
                let id = node.resolve(n)?;
                Ok((n.remove_gate(id)?, Some(id), None))
            }
        }
    }
}

/// What one [`EcoSession::apply_eco`] recompile did and reused.
#[derive(Debug, Clone)]
pub struct EcoReport {
    /// Edits in the batch.
    pub edits: usize,
    /// Size of the batch's value cone (nodes whose value may change).
    pub dirty_nodes: usize,
    /// Flip-flops on the cone's phase boundary.
    pub boundary_dffs: usize,
    /// Primary outputs driven from inside the cone.
    pub dirty_outputs: Vec<String>,
    /// Two-input-space nodes the mapper processed.
    pub two_nodes: usize,
    /// LUT nodes whose cut lists were translated from the retained memo
    /// instead of re-enumerated.
    pub cuts_reused: usize,
    /// Whether the techmap ran with a reuse plan at all (`false` when
    /// [`crate::FlowOptions::optimize`] forces a from-scratch map).
    pub techmap_incremental: bool,
    /// Whether the re-mapped netlist was unchanged, so the phased graph,
    /// early evaluation, simulation and verification were all reused
    /// verbatim from the retained artifacts.
    pub downstream_skipped: bool,
    /// Trigger searches this recompile answered from the session cache.
    pub trigger_hits: u64,
    /// Trigger searches this recompile computed fresh.
    pub trigger_misses: u64,
    /// Fingerprint of the edited source netlist.
    pub source_fingerprint: u64,
    /// Fingerprint of the re-mapped netlist.
    pub mapped_fingerprint: u64,
    /// Fingerprint of the (possibly reused) phased netlist.
    pub phased_fingerprint: u64,
    /// Recompile wall-clock seconds (edit application included).
    pub secs: f64,
}

/// The result of one incremental recompile: the per-stage flow report
/// (stage reports of skipped stages are carried over from the compile
/// that produced them) plus the ECO-specific reuse accounting.
#[derive(Debug, Clone)]
pub struct EcoOutcome {
    /// Per-stage pipeline report.
    pub flow: FlowReport,
    /// Reuse accounting for this recompile.
    pub eco: EcoReport,
}

/// An incremental-recompilation session: a compiled design plus the
/// retained state that makes the next compile cheap. See the module docs
/// for the reuse levers and the bit-identity contract.
#[derive(Debug, Clone)]
pub struct EcoSession {
    pipeline: Pipeline,
    name: String,
    /// The current (post-edit) source netlist, pre-optimize id space —
    /// the space [`EcoEdit`] node references resolve in.
    netlist: Netlist,
    /// Raw ingest-time notes; re-filtered against the *current* netlist
    /// on every recompile so resolved notes drop out and un-resolved ones
    /// come back (`PL0009` stays truthful under edits).
    notes: Vec<BlifNote>,
    artifacts: FlowArtifacts,
    memo: MapMemo,
    cache: TriggerCache,
    mapped_fp: u64,
    phased_fp: u64,
}

impl Pipeline {
    /// Compiles a source from scratch and opens an [`EcoSession`] around
    /// the result, ready for [`EcoSession::apply_eco`] batches.
    ///
    /// # Errors
    ///
    /// Propagates the first failing stage's error, like [`Pipeline::run`].
    pub fn eco_session(&self, source: &CircuitSource) -> Result<EcoSession, FlowError> {
        EcoSession::new(self.clone(), source)
    }
}

impl EcoSession {
    /// Compiles `source` from scratch and retains everything reusable.
    ///
    /// # Errors
    ///
    /// Propagates the first failing stage's error.
    pub fn new(pipeline: Pipeline, source: &CircuitSource) -> Result<Self, FlowError> {
        pipeline.opts().validate()?;
        let ingested = pipeline.ingest(source)?;
        let name = ingested.name.clone();
        let netlist = ingested.netlist.clone();
        let notes = ingested.notes.clone();
        let ingest_report = ingested.report.clone();
        let lint = if pipeline.opts().lint.enabled {
            Some(pipeline.lint(&ingested)?)
        } else {
            None
        };
        let optimized = pipeline.optimize(ingested)?;
        let optimize_report = optimized.report.clone();
        let (mapped, memo, _) = pipeline.techmap_memoized(optimized, None)?;
        let mapped_fp = mapped.fingerprint;
        let mut cache = TriggerCache::new();
        let (artifacts, phased_fp) = downstream(
            &pipeline,
            mapped,
            ingest_report,
            lint,
            optimize_report,
            &mut cache,
        )?;
        Ok(Self {
            pipeline,
            name,
            netlist,
            notes,
            artifacts,
            memo,
            cache,
            mapped_fp,
            phased_fp,
        })
    }

    /// The retained artifacts of the latest successful compile.
    #[must_use]
    pub fn artifacts(&self) -> &FlowArtifacts {
        &self.artifacts
    }

    /// Closes the session and keeps only its artifacts.
    #[must_use]
    pub(crate) fn into_artifacts(self) -> FlowArtifacts {
        self.artifacts
    }

    /// The pipeline the session compiles with. Its compile fields are
    /// fixed for the session; its simulation fields follow
    /// [`EcoSession::retarget`].
    #[must_use]
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Sweeps the retained compile again under `opts`' simulation fields
    /// (`vectors`, `seed`, `jobs`, `window`, `lanes`, `checkpoint_dir`,
    /// `resume` and `verify`), and verifies it when
    /// `opts.verify` is set, without changing the session. Every other
    /// field stays the session's, so the sweep runs over exactly the
    /// netlists the session compiled; the result equals the sweep of a
    /// fresh compile under `opts`.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::simulate`] and [`Pipeline::verify`].
    pub fn resweep(
        &self,
        opts: &FlowOptions,
    ) -> Result<(Simulated, Option<VerifyReport>), FlowError> {
        let art = &self.artifacts;
        Pipeline::new(self.pipeline.opts().with_simulation_of(opts)).simulate_and_verify(
            &art.name,
            &art.plain,
            art.ee.as_ref(),
            &art.mapped,
        )
    }

    /// Re-targets the session to `opts`' simulation fields: the retained
    /// artifacts take the [`EcoSession::resweep`] under them, and every
    /// later [`EcoSession::apply_eco`] sweeps the same way. The session
    /// then equals one compiled under those options.
    ///
    /// # Errors
    ///
    /// As [`EcoSession::resweep`]; the session is unchanged on error.
    pub fn retarget(&mut self, opts: &FlowOptions) -> Result<(), FlowError> {
        let (sim, verify) = self.resweep(opts)?;
        self.pipeline = Pipeline::new(self.pipeline.opts().with_simulation_of(opts));
        let art = &mut self.artifacts;
        art.inputs = sim.inputs;
        art.outputs = sim.outputs;
        art.stats_plain = sim.stats_plain;
        art.stats_ee = sim.stats_ee;
        art.stream_plain = sim.stream_plain;
        art.stream_ee = sim.stream_ee;
        art.report.simulate = sim.report;
        art.report.verify = verify;
        Ok(())
    }

    /// The current (post-edit) source netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The design label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The session's persistent trigger-search cache.
    #[must_use]
    pub fn cache(&self) -> &TriggerCache {
        &self.cache
    }

    /// Applies a batch of edits and incrementally recompiles. On **any**
    /// error — a bad edit spec, an edit-level failure, a lint deny, a
    /// combinational loop the edit created — the session rolls back: the
    /// retained netlist and artifacts are exactly what they were and the
    /// session stays usable. (The trigger cache may have gained entries;
    /// it is pure, so that is unobservable in results.)
    ///
    /// An empty batch is legal and recompiles nothing: the unchanged
    /// mapped fingerprint short-circuits straight to the retained
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Edit-application failures, then the first failing stage's error.
    pub fn apply_eco(&mut self, edits: &[EcoEdit]) -> Result<EcoOutcome, FlowError> {
        let t0 = Instant::now();
        let mut work = self.netlist.clone();
        // Pre-batch → post-batch id correspondence, kept monotone under
        // removal shifts; the techmap reuse plan is its inverse restricted
        // to clean nodes.
        let mut remap: Vec<Option<NodeId>> = (0..work.len())
            .map(|i| Some(NodeId::from_index(i)))
            .collect();
        let mut value_seeds: Vec<NodeId> = Vec::new();
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut touched_nodes: Vec<NodeId> = Vec::new();
        for edit in edits {
            let (dirty, removed, touched) = edit.apply(&mut work)?;
            if let Some(v) = removed {
                let shift = |id: NodeId| {
                    if id > v {
                        NodeId::from_index(id.index() - 1)
                    } else {
                        id
                    }
                };
                for slot in &mut remap {
                    *slot = match *slot {
                        Some(cur) if cur == v => None,
                        Some(cur) => Some(shift(cur)),
                        None => None,
                    };
                }
                let translate =
                    |ids: Vec<NodeId>| ids.into_iter().filter(|&s| s != v).map(shift).collect();
                value_seeds = translate(value_seeds);
                frontier = translate(frontier);
                touched_nodes = translate(touched_nodes);
            }
            value_seeds.extend(dirty.nodes().iter().copied());
            frontier.extend(dirty.frontier().iter().copied());
            touched_nodes.extend(touched);
        }
        work.validate()?;
        // The batch's net effect, in the final id space. Per-edit cones
        // were computed on intermediate netlists; re-closing their union
        // over the final graph only over-approximates (sound, and exact
        // for single edits).
        let dirty = DirtySet::compute(&work, &value_seeds, &frontier);

        let plan: Option<ReusePlan> = if self.pipeline.opts().optimize {
            // Structural hashing renumbers globally; correspondence to the
            // retained memo is lost. Fall back to a from-scratch map.
            None
        } else {
            // Techmap invalidation seeds are the *structurally* touched
            // nodes plus the fanout-count frontier — not the value cone.
            // Cut lists depend only on a node's combinational fanin
            // structure, and cut ranking additionally on fanout counts
            // (area flow), so the register-clipped fanout closure of
            // {touched ∪ frontier} covers every node whose enumeration
            // could differ. The value cone also crosses registers: on
            // sequential designs it reaches most of the netlist while
            // leaving all those cut lists bit-identical.
            let mut seeds = touched_nodes.clone();
            seeds.extend(frontier.iter().copied());
            let dirty_two = comb_fanout_closure(&work, &seeds);
            let mut old_source: Vec<Option<NodeId>> = vec![None; work.len()];
            for (pre, cur) in remap.iter().enumerate() {
                if let Some(cur) = *cur {
                    if !dirty_two.contains(&cur) {
                        old_source[cur.index()] = Some(NodeId::from_index(pre));
                    }
                }
            }
            Some(ReusePlan { old_source })
        };

        // Head of the pipeline: an ingest-equivalent artifact from the
        // edited netlist, with the BLIF notes re-derived (satellite: an
        // edit that names an undriven net silences its PL0009; removing
        // that name brings it back).
        let ti = Instant::now();
        let active: Vec<BlifNote> = pl_lint::active_blif_notes(&work, &self.notes)
            .into_iter()
            .cloned()
            .collect();
        let ingested = Ingested {
            name: self.name.clone(),
            fingerprint: work.fingerprint(),
            report: IngestReport {
                source: "eco-edit",
                inputs: work.inputs().len(),
                outputs: work.outputs().len(),
                luts: work.num_luts(),
                dffs: work.dffs().len(),
                secs: ti.elapsed().as_secs_f64(),
            },
            netlist: work.clone(),
            notes: active,
        };
        let source_fp = ingested.fingerprint;
        let ingest_report = ingested.report.clone();
        let lint = if self.pipeline.opts().lint.enabled {
            Some(self.pipeline.lint(&ingested)?)
        } else {
            None
        };
        let optimized = self.pipeline.optimize(ingested)?;
        let optimize_report = optimized.report.clone();
        let (mapped, memo, reuse) = self
            .pipeline
            .techmap_memoized(optimized, plan.as_ref().map(|p| (&self.memo, p)))?;
        let techmap_incremental = plan.is_some();

        let mut eco = EcoReport {
            edits: edits.len(),
            dirty_nodes: dirty.nodes().len(),
            boundary_dffs: dirty.boundary_dffs().len(),
            dirty_outputs: dirty.outputs().iter().cloned().collect(),
            two_nodes: reuse.two_nodes,
            cuts_reused: reuse.cuts_reused,
            techmap_incremental,
            downstream_skipped: false,
            trigger_hits: 0,
            trigger_misses: 0,
            source_fingerprint: source_fp,
            mapped_fingerprint: mapped.fingerprint,
            phased_fingerprint: self.phased_fp,
            secs: 0.0,
        };

        // Downstream skip: the mapped netlist is the sole input of every
        // later stage (the retained sweep ran under the session's current
        // options), so an unchanged map means every retained artifact is
        // reusable verbatim. The fingerprint is the fast reject; a full
        // equality compare confirms (the contract tolerates no 64-bit
        // collisions).
        if mapped.fingerprint == self.mapped_fp && mapped.netlist == self.artifacts.mapped {
            let flow = FlowReport {
                ingest: ingest_report,
                lint,
                optimize: optimize_report,
                techmap: mapped.report,
                phased: self.artifacts.report.phased.clone(),
                lint_pl: self.artifacts.report.lint_pl.clone(),
                early_eval: self.artifacts.report.early_eval.clone(),
                simulate: self.artifacts.report.simulate.clone(),
                verify: self.artifacts.report.verify.clone(),
            };
            self.netlist = work;
            self.memo = memo;
            self.artifacts.report = flow.clone();
            eco.downstream_skipped = true;
            eco.secs = t0.elapsed().as_secs_f64();
            return Ok(EcoOutcome { flow, eco });
        }

        let mapped_fp = mapped.fingerprint;
        let (hits0, misses0) = (self.cache.hits(), self.cache.misses());
        let (artifacts, phased_fp) = downstream(
            &self.pipeline,
            mapped,
            ingest_report,
            lint,
            optimize_report,
            &mut self.cache,
        )?;
        eco.trigger_hits = self.cache.hits() - hits0;
        eco.trigger_misses = self.cache.misses() - misses0;
        eco.phased_fingerprint = phased_fp;
        eco.secs = t0.elapsed().as_secs_f64();
        let flow = artifacts.report.clone();
        self.netlist = work;
        self.memo = memo;
        self.mapped_fp = mapped_fp;
        self.phased_fp = phased_fp;
        self.artifacts = artifacts;
        Ok(EcoOutcome { flow, eco })
    }
}

/// The back half of a compile, shared by the initial build (and so by
/// [`Pipeline::run`]) and the non-skip incremental path: phased → lint →
/// EE (cached) → simulate → verify, assembled into [`FlowArtifacts`].
/// Returns the artifacts plus the phased fingerprint.
fn downstream(
    p: &Pipeline,
    mapped: Mapped,
    ingest: IngestReport,
    lint: Option<LintStageReport>,
    optimize: OptimizeReport,
    cache: &mut TriggerCache,
) -> Result<(FlowArtifacts, u64), FlowError> {
    let phased = p.phased(&mapped)?;
    let phased_fp = phased.fingerprint;
    let phased_report = phased.report.clone();
    let lint_pl = if p.opts().lint.enabled {
        Some(p.lint_phased(&phased)?)
    } else {
        None
    };
    let early = p.early_eval_cached(phased, cache);
    let (sim, verify) = p.simulate_and_verify(
        &early.name,
        &early.plain,
        early.ee.as_ref(),
        &mapped.netlist,
    )?;
    Ok((
        FlowArtifacts {
            name: early.name.clone(),
            report: FlowReport {
                ingest,
                lint,
                optimize,
                techmap: mapped.report,
                phased: phased_report,
                lint_pl,
                early_eval: early.report,
                simulate: sim.report,
                verify,
            },
            mapped: mapped.netlist,
            plain: early.plain,
            ee: early.ee,
            pairs: early.pairs,
            inputs: sim.inputs,
            outputs: sim.outputs,
            stats_plain: sim.stats_plain,
            stats_ee: sim.stats_ee,
            stream_plain: sim.stream_plain,
            stream_ee: sim.stream_ee,
        },
        phased_fp,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(name: &str) -> EcoSession {
        let pipeline = Pipeline::new(FlowOptions {
            vectors: 8,
            ..FlowOptions::default()
        });
        pipeline
            .eco_session(&CircuitSource::catalog(name).unwrap())
            .unwrap()
    }

    #[test]
    fn edit_spec_grammar_round_trips() {
        assert_eq!(
            EcoEdit::parse("table:n4:0x6").unwrap(),
            EcoEdit::ReplaceTable {
                node: NodeRef::Id(4),
                bits: 0x6
            }
        );
        assert_eq!(
            EcoEdit::parse("rewire:my_lut:1:n2").unwrap(),
            EcoEdit::Rewire {
                node: NodeRef::Name("my_lut".into()),
                pin: 1,
                src: NodeRef::Id(2)
            }
        );
        assert_eq!(
            EcoEdit::parse("insert:-:0x8:a,b").unwrap(),
            EcoEdit::Insert {
                name: None,
                bits: 0x8,
                inputs: vec![NodeRef::Name("a".into()), NodeRef::Name("b".into())]
            }
        );
        assert_eq!(
            EcoEdit::parse("remove:17").unwrap(),
            EcoEdit::Remove {
                node: NodeRef::Id(17)
            }
        );
        for bad in [
            "table:n4",
            "rewire:n4:x:n2",
            "insert:x:zz:a",
            "remove",
            "frobnicate:n1",
            "",
        ] {
            assert!(
                matches!(EcoEdit::parse(bad), Err(FlowError::Config { .. })),
                "'{bad}' must not parse"
            );
        }
    }

    #[test]
    fn node_names_resolve_and_ambiguity_is_typed() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_and2(a, b).unwrap();
        n.set_output("y", g);
        assert_eq!(NodeRef::parse("a").resolve(&n).unwrap(), a);
        assert_eq!(NodeRef::parse("y").resolve(&n).unwrap(), g, "output port");
        assert_eq!(NodeRef::parse("n2").resolve(&n).unwrap(), g);
        assert_eq!(NodeRef::parse("2").resolve(&n).unwrap(), g);
        assert!(NodeRef::parse("nope").resolve(&n).is_err());
        assert!(NodeRef::parse("n99").resolve(&n).is_err());
        n.set_name(g, "a").unwrap();
        assert!(
            NodeRef::parse("a").resolve(&n).is_err(),
            "two nodes named 'a' is ambiguous"
        );
    }

    #[test]
    fn failed_batch_rolls_back_and_session_stays_usable() {
        let mut s = session("b01");
        let before = s.netlist().fingerprint();
        let before_outputs = s.artifacts().outputs.clone();
        // Second edit of the batch fails: the whole batch must unwind.
        let err = s.apply_eco(&[
            EcoEdit::parse("table:n5:0x6").unwrap(),
            EcoEdit::parse("remove:n0").unwrap(),
        ]);
        assert!(err.is_err());
        assert_eq!(s.netlist().fingerprint(), before, "netlist rolled back");
        assert_eq!(s.artifacts().outputs, before_outputs, "artifacts retained");
        // And the session still compiles a good batch afterwards.
        let out = s.apply_eco(&[]).unwrap();
        assert!(out.eco.downstream_skipped, "no-op batch reuses everything");
    }

    /// A session re-targeted to other simulation options answers like one
    /// compiled under them, before and after an edit; the compile fields
    /// are the session's whatever the new options say.
    #[test]
    fn retarget_matches_a_session_compiled_under_the_new_options() {
        let opts = FlowOptions {
            vectors: 12,
            seed: 5,
            lanes: Some(64),
            ..FlowOptions::default()
        };
        let source = CircuitSource::catalog("b04").unwrap();
        let mut fresh = Pipeline::new(opts.clone()).eco_session(&source).unwrap();
        let mut moved = session("b04");
        moved
            .retarget(&FlowOptions {
                ee_enabled: false,
                ..opts
            })
            .unwrap();
        assert!(moved.pipeline().opts().ee_enabled, "compile fields stay");
        assert_eq!(moved.pipeline().opts().lanes, Some(64));
        let (id, table) = moved
            .netlist()
            .iter()
            .find_map(|(id, node)| Some((id, node.lut_table()?.bits())))
            .unwrap();
        let spec = format!("table:n{}:{:x}", id.index(), table ^ 1);
        let edit = [EcoEdit::parse(&spec).unwrap()];
        for round in 0..3 {
            let (a, b) = (moved.artifacts(), fresh.artifacts());
            assert_eq!(a.inputs, b.inputs, "round {round}");
            assert_eq!(a.outputs, b.outputs, "round {round}");
            assert_eq!(a.report.simulate.lanes, b.report.simulate.lanes);
            assert_eq!(a.report.verify.is_some(), b.report.verify.is_some());
            // Round 0 recompiles downstream; repeating the same table edit
            // changes nothing, so later rounds reuse it.
            let skipped = moved.apply_eco(&edit).unwrap().eco.downstream_skipped;
            assert_eq!(skipped, round > 0);
            fresh.apply_eco(&edit).unwrap();
        }
    }

    #[test]
    fn empty_batch_skips_downstream_and_matches_retained() {
        let mut s = session("b02");
        let before = s.artifacts().outputs.clone();
        let out = s.apply_eco(&[]).unwrap();
        assert!(out.eco.downstream_skipped);
        assert!(out.eco.techmap_incremental);
        assert_eq!(out.eco.dirty_nodes, 0);
        assert_eq!(s.artifacts().outputs, before);
    }
}
