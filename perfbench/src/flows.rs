//! The simulation workloads: `table3`, `lane_sweep` and `durable_stream`.
//!
//! Each compiles its designs through the `Pipeline` stages (set-up, timed
//! several times), then runs `Pipeline::simulate` and `Pipeline::verify`
//! over every design, pass after pass, until the time is up. Every vector
//! is checked against the synchronous reference, EE outputs against plain
//! outputs (inside `simulate`), and every pass against the first. A traced
//! run also replays one pass on the engines' own entry points and checks
//! the replay bit for bit against the pipeline's outputs.

use std::path::Path;
use std::time::{Duration, Instant};

use pl_flow::{CircuitSource, EarlyEvaled, FlowError, FlowOptions, Pipeline, Simulated};
use pl_netlist::Netlist;
use pl_sim::{BatchSimulator, Fnv64, PlSimulator, ResumableOptions, StreamOutcome};

use crate::report::{geomean, median, percentile, Outcome};
use crate::trace::Tracer;
use crate::Plan;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's per-vector latency protocol, plain and EE.
    Table3,
    /// The 64-lane functional sweep on the batch engine.
    Lanes,
    /// One stream per design through the crash-resumable sweep.
    Durable,
}

const CATALOG: &[&str] = &[
    "b01", "b02", "b03", "b04", "b05", "b06", "b07", "b08", "b09", "b10", "b11", "b12", "b13",
    "b14", "b15",
];

/// Set-ups per run; `setup_s` is their median. One takes 0.1-0.2 s, so a
/// single one reads the host's noise.
const SETUPS: usize = 9;
/// Streaming window of `durable_stream`.
const WINDOW: usize = 10;

struct Spec {
    designs: &'static [&'static str],
    vectors: usize,
}

impl Spec {
    fn new(protocol: Protocol, tiny: bool) -> Spec {
        let (designs, vectors) = match (protocol, tiny) {
            (Protocol::Table3, false) => (CATALOG, 400),
            (Protocol::Lanes, false) => (CATALOG, 6400),
            (Protocol::Durable, false) => (&["b14", "b15"][..], 100),
            (Protocol::Table3, true) => (&["b01", "b02"][..], 8),
            (Protocol::Lanes, true) => (&["b01", "b02"][..], 128),
            (Protocol::Durable, true) => (&["b01", "b02"][..], 20),
        };
        Spec { designs, vectors }
    }
}

fn options(protocol: Protocol, vectors: usize, seed: u64) -> FlowOptions {
    FlowOptions {
        vectors,
        seed,
        ee_enabled: true,
        verify: true,
        jobs: 1,
        lanes: (protocol == Protocol::Lanes).then_some(64),
        window: (protocol == Protocol::Durable).then_some(WINDOW),
        ..FlowOptions::default()
    }
}

/// One design compiled through early evaluation.
struct Compiled {
    name: String,
    mapped: Netlist,
    early: EarlyEvaled,
    luts: usize,
    arcs: usize,
    gates: usize,
    findings: usize,
    trigger_hits: u64,
    trigger_misses: u64,
    fingerprint: u64,
}

fn compile(p: &Pipeline, design: &str, tr: &mut Tracer) -> Result<Compiled, FlowError> {
    let source = CircuitSource::catalog(design).ok_or_else(|| FlowError::Config {
        message: format!("no catalog design {design}"),
    })?;
    let ingested = tr.span("netlist.ingest", || p.ingest(&source))?;
    let lint = tr.span("lint.check", || p.lint(&ingested))?;
    let optimized = tr.span("flow.optimize", || p.optimize(ingested))?;
    let mapped = tr.span("techmap.map", || p.techmap(optimized))?;
    let phased = tr.span("core.phased", || p.phased(&mapped))?;
    let lint_pl = tr.span("lint.check", || p.lint_phased(&phased))?;
    let (arcs, gates) = (phased.report.arcs, phased.report.logic_gates);
    let early = tr.span("core.ee", || p.early_eval(phased));
    let mut h = Fnv64::new();
    h.mix(mapped.fingerprint);
    h.mix(early.plain.fingerprint());
    h.mix(early.ee.as_ref().map_or(0, |n| n.fingerprint()));
    Ok(Compiled {
        name: early.name.clone(),
        luts: mapped.report.luts_after,
        arcs,
        gates,
        findings: lint.report.len() + lint_pl.report.len(),
        trigger_hits: early.report.cache_hits,
        trigger_misses: early.report.cache_misses,
        fingerprint: h.finish(),
        mapped: mapped.netlist,
        early,
    })
}

/// The cold set-ups of one run: their times, and the fingerprints every
/// set-up must reproduce.
#[derive(Default)]
struct SetUps {
    secs: Vec<f64>,
    pin: Option<Vec<u64>>,
}

impl SetUps {
    /// Compiles every design once, traced when the run is, and checks the
    /// fingerprints against the first set-up's.
    fn run(
        &mut self,
        p: &Pipeline,
        designs: &[&str],
        trace: bool,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) -> Option<Vec<Compiled>> {
        let was = tr.enabled();
        tr.set_enabled(trace);
        tr.set_request(0);
        let group = tr.begin("setup");
        let t0 = Instant::now();
        let result: Result<Vec<Compiled>, FlowError> =
            designs.iter().map(|d| compile(p, d, tr)).collect();
        self.secs.push(t0.elapsed().as_secs_f64());
        tr.end(group);
        tr.set_enabled(was);
        match result {
            Ok(c) => {
                let pin: Vec<u64> = c.iter().map(|c| c.fingerprint).collect();
                let same = self.pin.as_ref().is_none_or(|p| *p == pin);
                out.check.check(1, same, || {
                    "a repeated compile changed a fingerprint".into()
                });
                self.pin = Some(pin);
                Some(c)
            }
            Err(e) => {
                out.check.check(1, false, || format!("compile: {e}"));
                None
            }
        }
    }
}

/// Digest of everything a simulate stage returns that must repeat: output
/// words, per-vector latencies and stream timings.
fn digest(sim: &Simulated) -> u64 {
    let mut h = Fnv64::new();
    for word in &sim.outputs {
        for &b in word {
            h.mix(u64::from(b));
        }
        h.mix(2);
    }
    for x in sim
        .stats_plain
        .per_vector
        .iter()
        .chain(sim.stats_ee.iter().flat_map(|s| s.per_vector.iter()))
    {
        h.mix(x.to_bits());
    }
    for s in [&sim.stream_plain, &sim.stream_ee].into_iter().flatten() {
        h.mix(s.makespan.to_bits());
        h.mix(s.throughput.to_bits());
    }
    h.finish()
}

fn outputs_digest(outputs: &[Vec<bool>]) -> u64 {
    let mut h = Fnv64::new();
    for word in outputs {
        for &b in word {
            h.mix(u64::from(b));
        }
        h.mix(2);
    }
    h.finish()
}

/// The stream a plain `run_stream` produces for one design, per variant:
/// the oracle of `durable_stream`.
struct StreamOracle {
    outputs: u64,
    makespan_plain: f64,
    makespan_ee: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let path = e.path();
            total += if path.is_dir() {
                dir_bytes(&path)
            } else {
                e.metadata().map_or(0, |m| m.len())
            };
        }
    }
    total
}

/// Runs one simulation workload.
pub fn run(protocol: Protocol, plan: &Plan, tr: &mut Tracer) -> Outcome {
    let spec = Spec::new(protocol, plan.tiny);
    let opts = options(protocol, spec.vectors, plan.seed);
    let pipeline = Pipeline::new(opts.clone());
    let mut out = Outcome::default();

    // Set-up: compile every design cold. The first set-up comes before the
    // timed phase; the others are spread through it, between passes, so
    // their median sees the same host as the passes.
    let mut setups = SetUps::default();
    let Some(compiled) = setups.run(&pipeline, spec.designs, plan.trace, tr, &mut out) else {
        return out;
    };

    let scratch = &plan.scratch;
    let delays = &opts.delays;

    // The durable stream's oracle: plain run_stream of the same vectors.
    let mut oracles: Vec<StreamOracle> = Vec::new();
    if protocol == Protocol::Durable {
        for c in &compiled {
            let inputs =
                pl_sim::random_vectors(c.early.plain.input_gates().len(), spec.vectors, plan.seed);
            let stream = |pl| {
                PlSimulator::with_queue(pl, delays.clone(), opts.queue)
                    .and_then(|mut s| s.run_stream(&inputs))
            };
            match (stream(&c.early.plain), c.early.ee.as_ref().map(stream)) {
                (Ok(plain), Some(Ok(ee))) => {
                    let same = plain.outputs == ee.outputs;
                    out.check
                        .check(1, same, || format!("{}: EE stream changed values", c.name));
                    oracles.push(StreamOracle {
                        outputs: outputs_digest(&plain.outputs),
                        makespan_plain: plain.makespan,
                        makespan_ee: ee.makespan,
                    });
                }
                _ => {
                    out.check
                        .check(1, false, || format!("{}: oracle run_stream failed", c.name));
                    return out;
                }
            }
        }
    }

    // Timed phase. A traced run alternates untraced and traced passes so
    // the two rates are measured under the same conditions.
    let t_start = Instant::now();
    let deadline = t_start + Duration::from_secs_f64(plan.seconds);
    let ops_per_run = if protocol == Protocol::Durable {
        1
    } else {
        spec.vectors as u64
    };
    let mut reference: Vec<Option<(u64, Simulated)>> = (0..compiled.len()).map(|_| None).collect();
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut run_rates = Vec::new();
    let mut runs_ms = Vec::new();
    let mut replays = Replay::default();
    let mut pass = 0usize;
    loop {
        let traced = plan.trace && pass % 2 == 1;
        tr.set_enabled(traced);
        tr.set_request(0);
        let group = tr.begin("pass");
        let mut busy = 0.0;
        for (i, c) in compiled.iter().enumerate() {
            // The spans of one design's run share its request id.
            tr.set_request((pass * compiled.len() + i + 1) as u64);
            let dir = scratch.join(format!("{pass}-{}", c.name));
            let p = if protocol == Protocol::Durable {
                Pipeline::new(FlowOptions {
                    checkpoint_dir: Some(dir.clone()),
                    ..opts.clone()
                })
            } else {
                pipeline.clone()
            };
            let t0 = Instant::now();
            let sim = tr.span("flow.simulate", || p.simulate(&c.early));
            let verified = match &sim {
                Ok(s) => tr.span("sim.sync", || p.verify(&c.mapped, s)).map(|_| ()),
                Err(_) => Ok(()),
            };
            let secs = t0.elapsed().as_secs_f64();
            busy += secs;
            if protocol != Protocol::Durable {
                runs_ms.push(secs * 1e3);
            }
            let _ = std::fs::remove_dir_all(&dir);
            let ck = &mut out.check;
            let sim = match (sim, verified) {
                (Ok(sim), Ok(())) => sim,
                (Err(e), _) | (_, Err(e)) => {
                    ck.check(ops_per_run, false, || {
                        format!("{} pass {pass}: {e}", c.name)
                    });
                    continue;
                }
            };
            if let Some(o) = oracles.get(i) {
                let same = outputs_digest(&sim.outputs) == o.outputs
                    && sim.stream_plain.as_ref().map(|s| s.makespan) == Some(o.makespan_plain)
                    && sim.stream_ee.as_ref().map(|s| s.makespan) == Some(o.makespan_ee);
                if !same {
                    ck.check(ops_per_run, false, || {
                        format!(
                            "{} pass {pass}: durable stream differs from run_stream",
                            c.name
                        )
                    });
                    continue;
                }
            }
            if traced {
                // Split the stage on the engines' own entry points, right
                // after the pipeline ran it, and check the split bit for bit.
                let r = replay(protocol, c, &sim, &opts, &scratch.join("replay"), tr);
                ck.check(1, r.is_ok(), || {
                    format!(
                        "{} pass {pass}: {}",
                        c.name,
                        r.clone().err().unwrap_or_default()
                    )
                });
                if let Ok(r) = r {
                    replays.add(&r);
                }
            }
            let d = digest(&sim);
            match &reference[i] {
                Some((expected, _)) => {
                    let same = *expected == d;
                    ck.check(ops_per_run, same, || {
                        format!("{} pass {pass}: outputs differ from pass 0", c.name)
                    });
                }
                None => {
                    ck.check(ops_per_run, true, String::new);
                    // A planted wrong expectation must surface as failures.
                    let expected = if plan.plant.wrong_digest && i == 0 {
                        d ^ 1
                    } else {
                        d
                    };
                    reference[i] = Some((expected, sim));
                }
            }
        }
        tr.end(group);
        let vectors = (spec.vectors * compiled.len()) as f64;
        rates[usize::from(traced)].push(vectors / busy);
        // A request is one design's run; for durable_stream it is one
        // iteration over both streams, each with a fresh checkpoint dir.
        if protocol == Protocol::Durable {
            runs_ms.push(busy * 1e3);
            run_rates.push(1.0 / busy);
        } else {
            run_rates.push(compiled.len() as f64 / busy);
        }
        pass += 1;
        let done = Instant::now() >= deadline && pass >= 2;
        // The next set-up is due once its share of the time has passed;
        // the ones still due at the end run then.
        while setups.secs.len() < SETUPS
            && (done
                || t_start.elapsed().as_secs_f64()
                    >= plan.seconds * setups.secs.len() as f64 / SETUPS as f64)
        {
            if setups
                .run(&pipeline, spec.designs, plan.trace, tr, &mut out)
                .is_none()
            {
                return out;
            }
        }
        if done {
            break;
        }
    }
    tr.set_enabled(plan.trace);
    out.series.insert("setup_s", setups.secs.clone());
    out.set("setup_s", median(&setups.secs));
    out.samples("setup_s", setups.secs.len());

    out.series.insert("vectors_per_s", rates[0].clone());
    out.set("vectors_per_s", median(&rates[0]));
    out.samples("vectors_per_s", rates[0].len());
    out.set("req_per_s", median(&run_rates));
    out.samples("req_per_s", run_rates.len());
    out.set("req_ms_p50", median(&runs_ms));
    out.set("req_ms_p99", percentile(&runs_ms, 0.99));
    out.samples("req_ms_p50", runs_ms.len());
    out.samples("req_ms_p99", runs_ms.len());

    // Deterministic results: counts and simulated metrics.
    let sum = |f: fn(&Compiled) -> usize| compiled.iter().map(f).sum::<usize>() as f64;
    out.set("techmap.luts", sum(|c| c.luts));
    out.set("core.arcs", sum(|c| c.arcs));
    out.set("core.ee_pairs", sum(|c| c.early.pairs.len()));
    out.set("core.area_gates", sum(|c| c.gates + c.early.pairs.len()));
    out.set("lint.findings", sum(|c| c.findings));
    let (hits, misses) = compiled.iter().fold((0, 0), |(h, m), c| {
        (h + c.trigger_hits, m + c.trigger_misses)
    });
    out.set(
        "core.trigger_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    if protocol == Protocol::Table3 {
        let means = |ee: bool| -> Vec<f64> {
            reference
                .iter()
                .flatten()
                .filter_map(|(_, s)| {
                    if ee {
                        s.stats_ee.as_ref()
                    } else {
                        Some(&s.stats_plain)
                    }
                })
                .map(|st| st.mean())
                .collect()
        };
        out.set("sim.plain_delay_ns", geomean(&means(false)));
        out.set("sim.ee_delay_ns", geomean(&means(true)));
    }
    for (c, r) in compiled.iter().zip(&reference) {
        out.pin(
            format!("{}.compile", c.name),
            format!("{:016x}", c.fingerprint),
        );
        if let Some((d, _)) = r {
            out.pin(format!("{}.outputs", c.name), format!("{d:016x}"));
        }
    }

    if plan.trace {
        let per_pass = rates[1].len().max(1) as f64;
        match protocol {
            Protocol::Table3 => out.set("sim.scalar_events", replays.events as f64 / per_pass),
            Protocol::Lanes => out.set("sim.batch_events", replays.events as f64 / per_pass),
            Protocol::Durable => {
                out.set("sim.checkpoint_bytes", replays.bytes as f64 / per_pass);
                out.set("sim.windows", replays.windows as f64 / per_pass);
                out.set("sim.windows_retried", replays.retried as f64 / per_pass);
            }
        }
        layer_figures(protocol, &spec, compiled.len(), &rates, tr, &mut out);
    }
    for name in [
        "techmap.luts",
        "core.arcs",
        "core.ee_pairs",
        "core.area_gates",
        "lint.findings",
        "sim.plain_delay_ns",
        "sim.ee_delay_ns",
        "sim.scalar_events",
        "sim.batch_events",
        "sim.checkpoint_bytes",
        "sim.windows",
    ] {
        if let Some(v) = out.metrics.get(name).copied() {
            out.pin(name, v);
        }
    }
    out
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Counts from the engine replays of the traced passes.
#[derive(Default, Clone)]
struct Replay {
    events: u64,
    bytes: u64,
    windows: u64,
    retried: u64,
}

impl Replay {
    fn add(&mut self, r: &Replay) {
        self.events += r.events;
        self.bytes += r.bytes;
        self.windows += r.windows;
        self.retried += r.retried;
    }
}

/// Replays one design's simulate stage on the engines' own entry points
/// and checks it bit for bit against the pipeline's outputs:
/// `PlSimulator::run_vector` per variant for `table3`,
/// `BatchSimulator::run_lanes` on the 64 stripes for `lane_sweep`, and
/// `sweep_resumable` beside a plain `run_stream` for `durable_stream`.
fn replay(
    protocol: Protocol,
    c: &Compiled,
    sim: &Simulated,
    opts: &FlowOptions,
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let delays = &opts.delays;
    let mut counts = Replay::default();
    let variants = std::iter::once((
        &c.early.plain,
        Some(&sim.stats_plain),
        sim.stream_plain.as_ref(),
    ))
    .chain(
        c.early
            .ee
            .as_ref()
            .map(|pl| (pl, sim.stats_ee.as_ref(), sim.stream_ee.as_ref())),
    );
    for (k, (pl, stats, stream)) in variants.enumerate() {
        let same = match protocol {
            Protocol::Table3 => {
                let (outs, lat, events) = tr
                    .span("sim.scalar", || {
                        let mut s = PlSimulator::with_queue(pl, delays.clone(), opts.queue)?;
                        let mut outs = Vec::with_capacity(sim.inputs.len());
                        let mut lat = Vec::with_capacity(sim.inputs.len());
                        for v in &sim.inputs {
                            let o = s.run_vector(v)?;
                            outs.push(o.outputs);
                            lat.push(o.latency);
                        }
                        Ok::<_, pl_sim::SimError>((outs, lat, s.events_processed()))
                    })
                    .map_err(|e| e.to_string())?;
                counts.events += events;
                outs == sim.outputs && stats.is_some_and(|st| bits(&st.per_vector) == bits(&lat))
            }
            Protocol::Lanes => {
                let mut stripes: Vec<Vec<Vec<bool>>> = vec![Vec::new(); 64];
                for (i, v) in sim.inputs.iter().enumerate() {
                    stripes[i % 64].push(v.clone());
                }
                let lanes: Vec<&[Vec<bool>]> = stripes.iter().map(Vec::as_slice).collect();
                let (outs, events) = tr
                    .span("sim.batch", || {
                        let mut b = BatchSimulator::with_queue(pl, delays.clone(), opts.queue)?;
                        let outs = b.run_lanes(&lanes)?;
                        Ok::<_, pl_sim::SimError>((outs, b.events_processed()))
                    })
                    .map_err(|e| e.to_string())?;
                counts.events += events;
                (0..sim.inputs.len()).all(|i| outs[i % 64].outputs[i / 64] == sim.outputs[i])
            }
            Protocol::Durable => {
                let dir = scratch.join(format!("{}-{k}", c.name));
                let ropts = ResumableOptions {
                    window: WINDOW,
                    jobs: 1,
                    queue: opts.queue,
                    resume: false,
                    ..ResumableOptions::default()
                };
                let durable = tr.span("sim.durable", || {
                    pl_sim::sweep_resumable(pl, delays, &sim.inputs, &dir, &ropts)
                });
                counts.bytes += dir_bytes(&dir);
                let _ = std::fs::remove_dir_all(&dir);
                let durable = durable.map_err(|e| e.to_string())?;
                let plain = tr
                    .span("sim.run_stream", || {
                        PlSimulator::with_queue(pl, delays.clone(), opts.queue)
                            .and_then(|mut s| s.run_stream(&sim.inputs))
                    })
                    .map_err(|e| e.to_string())?;
                counts.windows += durable.recovery.windows as u64;
                counts.retried += durable.recovery.retried_windows as u64;
                durable.outcome == plain
                    && plain.outputs == sim.outputs
                    && stream.is_some_and(|s: &StreamOutcome| s.makespan == plain.makespan)
            }
        };
        if !same {
            return Err("engine replay differs from Pipeline::simulate".into());
        }
    }
    Ok(counts)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-layer figures from the spans: set-up layers per set-up, run layers
/// per pass, engine layers from the one replayed pass.
fn layer_figures(
    protocol: Protocol,
    spec: &Spec,
    designs: usize,
    rates: &[Vec<f64>; 2],
    tr: &Tracer,
    out: &mut Outcome,
) {
    let selfs = tr.self_times();
    let totals = tr.totals();
    let get = |m: &std::collections::BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let per_setup = |k: &str| get(&selfs, k) / SETUPS as f64;
    out.set("netlist.ingest_s", per_setup("netlist.ingest"));
    out.set("lint.check_s", per_setup("lint.check"));
    out.set("techmap.map_s", per_setup("techmap.map"));
    out.set("core.phased_s", per_setup("core.phased"));
    out.set("core.ee_s", per_setup("core.ee"));

    // Run layers: mean per traced pass.
    let traced_passes = rates[1].len().max(1) as f64;
    let per_pass = |k: &str| get(&totals, k) / traced_passes;
    let sync = per_pass("sim.sync");
    out.set("sim.sync_s", sync);
    out.set(
        "sim.sync_vectors_per_s",
        ratio((spec.vectors * designs) as f64, sync),
    );
    let engine = match protocol {
        Protocol::Table3 => {
            let s = per_pass("sim.scalar");
            out.set("sim.scalar_s", s);
            out.set(
                "sim.scalar_events_per_s",
                ratio(out.metrics["sim.scalar_events"], s),
            );
            s
        }
        Protocol::Lanes => {
            let s = per_pass("sim.batch");
            out.set("sim.batch_s", s);
            out.set(
                "sim.batch_events_per_s",
                ratio(out.metrics["sim.batch_events"], s),
            );
            s
        }
        Protocol::Durable => {
            let durable = per_pass("sim.durable");
            let stream = per_pass("sim.run_stream");
            out.set("sim.durable_s", durable);
            out.set("sim.run_stream_s", stream);
            out.set("sim.durable_overhead", ratio(durable, stream));
            durable
        }
    };
    out.set("flow.simulate_self_s", per_pass("flow.simulate") - engine);
    out.set("trace.uncovered_share", tr.uncovered_share());
    out.set(
        "trace.overhead",
        ratio(median(&rates[0]), median(&rates[1])),
    );
    out.samples("trace.overhead", rates[0].len().min(rates[1].len()));
}
