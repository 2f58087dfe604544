//! `serve_mix`: an in-process `pld` daemon under a seeded, closed-loop
//! request mix from two `pl_serve::Client` connections.
//!
//! The mix runs over twelve hot (design, options) keys, more than the
//! daemon's default eight-entry cache holds: eleven small catalog designs
//! and b14. Each connection works through shuffled decks. A deck holds,
//! for every hot key, one request of each of three kinds, plus two
//! malformed frames, so every seed sends the same mix in a different
//! order:
//!
//! * a repeat compile of the key (a hit while the key is cached);
//! * a compile of the key's design with only `vectors` or `seed` changed
//!   (a miss, since the cache key covers every option);
//! * an ECO request: one to three `table` edits on live LUTs, or one
//!   `insert` of a dangling LUT (which skips the downstream stages);
//! * malformed frames (bad magic, truncation, bad checksum, unknown
//!   request kind), each sent on a fresh socket, after which the client
//!   reconnects.
//!
//! No recorded `pld` request log exists, so these shares are assumed:
//! equal per kind and per key, the simplest choice. They set how far a
//! change to the cache key or to ECO recompiles can move the request
//! metrics.
//!
//! The timed phase is cut into segments, each against a daemon of its
//! own that is bound and filled cold first; `setup_s` is the median of
//! those set-ups. Every answer is checked against an in-process
//! `eco_session` / `apply_eco` of the same design, options and edits,
//! computed before the first segment.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use pl_flow::{CircuitSource, EarlyEvaled, EcoEdit, EcoSession, Pipeline};
use pl_serve::proto::{ERR_FRAME, ERR_REQUEST};
use pl_serve::wire::{crc32, read_frame, write_frame, MAGIC};
use pl_serve::{
    outputs_digest, Client, DesignSpec, DigestTriple, PldServer, Request, RequestOptions, Response,
    ServerConfig, ServerStats,
};

use crate::report::{median, percentile, Checker, Outcome};
use crate::trace::Tracer;
use crate::{Plan, Rng};

/// The hot keys' designs.
const HOT: &[&str] = &[
    "b01", "b02", "b03", "b04", "b06", "b07", "b08", "b09", "b10", "b11", "b13", "b14",
];
const HOT_TINY: &[&str] = &["b01", "b02", "b03"];
/// Vectors per request of a hot key.
const VECTORS: usize = 16;
/// Closed-loop client connections.
const CONNECTIONS: usize = 2;
/// Segments per run, each with its own set-up (bind plus cold fill);
/// `setup_s` is the median of the set-ups. One takes about 0.15 s, so a
/// single one reads the host's noise.
const SETUPS: usize = 9;
/// ECO batches prepared per hot design.
const ECO_BATCHES: usize = 4;
/// Malformed frames per deck.
const BAD_PER_DECK: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Repeat,
    Variant,
    Eco,
    Bad,
}

/// One deck: each kind once per hot key, plus the malformed frames.
fn deck(hot: usize) -> Vec<(Kind, usize)> {
    let mut d: Vec<(Kind, usize)> = (0..hot)
        .flat_map(|i| [(Kind::Repeat, i), (Kind::Variant, i), (Kind::Eco, i)])
        .collect();
    d.extend((0..BAD_PER_DECK).map(|i| (Kind::Bad, i)));
    d
}

#[derive(Clone, Copy)]
enum Bad {
    Magic,
    Truncated,
    Checksum,
    UnknownKind,
}

/// What a compile of one key must answer.
#[derive(Clone)]
struct Expect {
    name: String,
    luts: u64,
    gates: u64,
    pairs: u64,
    arcs: u64,
    findings: u64,
    digest: DigestTriple,
    /// In-process time of the daemon's miss path (`eco_session`).
    miss_s: f64,
    /// In-process time of the daemon's hit path (`simulate` + `verify`);
    /// measured by traced runs only.
    hit_s: f64,
}

/// One prepared ECO batch and the digests each of its edits must yield.
struct EcoBatch {
    edits: Vec<String>,
    per_edit: Vec<DigestTriple>,
    /// In-process time of the session clone plus every `apply_eco`.
    apply_s: f64,
}

struct Oracle {
    options: RequestOptions,
    hot: Vec<Expect>,
    /// `[hot index][variant]`: the four option variants of a hot key.
    variants: Vec<Vec<Expect>>,
    eco: Vec<Vec<EcoBatch>>,
}

fn variant_options(base: &RequestOptions, v: usize) -> RequestOptions {
    let mut o = base.clone();
    match v {
        0 => o.vectors = VECTORS + 8,
        1 => o.vectors = VECTORS * 2,
        2 => o.seed = base.seed.wrapping_add(1),
        _ => o.seed = base.seed.wrapping_add(2),
    }
    o
}

fn triple(session: &EcoSession) -> DigestTriple {
    let art = session.artifacts();
    DigestTriple {
        mapped_fp: art.mapped.fingerprint(),
        phased_fp: art.plain.fingerprint(),
        outputs_digest: outputs_digest(&art.outputs),
    }
}

/// Per-layer sums over the oracle's in-process calls.
#[derive(Default)]
struct LayerSums {
    ingest: f64,
    lint: f64,
    techmap: f64,
    phased: f64,
    ee: f64,
    eco_map: f64,
    eco_downstream: f64,
    cuts_reused: u64,
    two_nodes: u64,
    trigger_hits: u64,
    trigger_misses: u64,
    edits: u64,
    skipped: u64,
    apply_ms: Vec<f64>,
    /// The hit-path replays, untraced and traced.
    hit_plain: f64,
    hit_traced: f64,
    traced_first: bool,
}

/// Compiles one key in process, timing the daemon's miss path and (when
/// tracing) its hit path.
fn expect(
    design: &str,
    options: &RequestOptions,
    tr: &mut Tracer,
    sums: &mut LayerSums,
    ck: &mut Checker,
) -> Option<(Expect, EcoSession)> {
    let pipeline = Pipeline::new(options.to_flow_options());
    let source = CircuitSource::from_spec(design);
    let t0 = Instant::now();
    let session = match tr.span("flow.eco_session", || pipeline.eco_session(&source)) {
        Ok(s) => s,
        Err(e) => {
            ck.check(1, false, || format!("{design}: in-process compile: {e}"));
            return None;
        }
    };
    let miss_s = t0.elapsed().as_secs_f64();
    let art = session.artifacts();
    let r = &art.report;
    sums.ingest += r.ingest.secs;
    sums.lint +=
        r.lint.as_ref().map_or(0.0, |l| l.secs) + r.lint_pl.as_ref().map_or(0.0, |l| l.secs);
    sums.techmap += r.techmap.secs;
    sums.phased += r.phased.secs;
    sums.ee += r.early_eval.secs;
    let digest = triple(&session);
    let mut hit_s = 0.0;
    if tr.enabled() {
        // The daemon's hit path: a fresh sweep over the warm artifact, run
        // once untraced and once traced for the cost of tracing.
        let early = EarlyEvaled {
            name: art.name.clone(),
            plain: art.plain.clone(),
            ee: art.ee.clone(),
            pairs: art.pairs.clone(),
            report: art.report.early_eval.clone(),
        };
        let hit = |tr: &mut Tracer| {
            let t0 = Instant::now();
            let sim = tr.span("flow.simulate", || pipeline.simulate(&early));
            let ok = match &sim {
                Ok(s) => {
                    tr.span("sim.sync", || pipeline.verify(&art.mapped, s))
                        .is_ok()
                        && outputs_digest(&s.outputs) == digest.outputs_digest
                }
                Err(_) => false,
            };
            (t0.elapsed().as_secs_f64(), ok)
        };
        // The order alternates from key to key, so a warm second run
        // favours neither.
        sums.traced_first = !sums.traced_first;
        let mut timed_with = |on: bool| {
            tr.set_enabled(on);
            hit(tr)
        };
        let ((plain_s, plain_ok), (traced_s, traced_ok)) = if sums.traced_first {
            let traced = timed_with(true);
            (timed_with(false), traced)
        } else {
            let plain = timed_with(false);
            (plain, timed_with(true))
        };
        tr.set_enabled(true);
        sums.hit_plain += plain_s;
        sums.hit_traced += traced_s;
        hit_s = plain_s;
        ck.check(1, plain_ok && traced_ok, || {
            format!("{design}: hit-path replay differs")
        });
    }
    let e = Expect {
        name: art.name.clone(),
        luts: r.techmap.luts_after as u64,
        gates: r.phased.logic_gates as u64,
        pairs: art.pairs.len() as u64,
        arcs: r.phased.arcs as u64,
        findings: [&r.lint, &r.lint_pl]
            .into_iter()
            .flatten()
            .map(|l| l.report.len() as u64)
            .sum(),
        digest,
        miss_s,
        hit_s,
    };
    Some((e, session))
}

/// Seeded ECO batches on a hot session: three batches of one to three
/// `table` edits on live LUTs and one `insert` of a dangling LUT. Each
/// batch is applied in process, one edit per `apply_eco`, exactly as the
/// daemon does; a batch that fails in process is drawn again.
fn eco_batches(
    session: &EcoSession,
    rng: &mut Rng,
    tr: &mut Tracer,
    sums: &mut LayerSums,
) -> Vec<EcoBatch> {
    let n = session.netlist();
    let mut used = vec![false; n.len()];
    for (_, node) in n.iter() {
        for f in node.fanins() {
            used[f.index()] = true;
        }
    }
    for (_, id) in n.outputs() {
        used[id.index()] = true;
    }
    let live: Vec<(usize, usize, u64)> = n
        .iter()
        .filter(|(id, node)| node.is_lut() && used[id.index()])
        .filter_map(|(id, node)| {
            let t = node.lut_table()?;
            (t.num_vars() > 0).then(|| (id.index(), t.num_vars(), t.bits()))
        })
        .collect();
    let sources: Vec<usize> = n.inputs().iter().map(|id| id.index()).collect();
    let mut batches = Vec::new();
    for b in 0..ECO_BATCHES {
        for _attempt in 0..8 {
            let edits: Vec<String> = if b + 1 == ECO_BATCHES || live.is_empty() {
                let a = sources[rng.below(sources.len())];
                let c = sources[rng.below(sources.len())];
                vec![format!("insert:-:6:n{a},n{c}")]
            } else {
                (0..=b)
                    .map(|_| {
                        let (id, arity, bits) = live[rng.below(live.len())];
                        let flipped = bits ^ (1u64 << rng.below(1 << arity));
                        format!("table:n{id}:{flipped:x}")
                    })
                    .collect()
            };
            if let Some(batch) = apply_batch(session, edits, tr, sums) {
                batches.push(batch);
                break;
            }
        }
    }
    batches
}

fn apply_batch(
    session: &EcoSession,
    edits: Vec<String>,
    tr: &mut Tracer,
    sums: &mut LayerSums,
) -> Option<EcoBatch> {
    let t0 = Instant::now();
    let mut s = session.clone();
    let mut per_edit = Vec::new();
    let mut local = LayerSums::default();
    for spec in &edits {
        let edit = EcoEdit::parse(spec).ok()?;
        let t = Instant::now();
        let out = tr
            .span("flow.eco_apply", || {
                s.apply_eco(std::slice::from_ref(&edit))
            })
            .ok()?;
        local.apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let f = &out.flow;
        local.eco_map += f.techmap.secs;
        local.cuts_reused += out.eco.cuts_reused as u64;
        local.two_nodes += out.eco.two_nodes as u64;
        local.trigger_hits += out.eco.trigger_hits;
        local.trigger_misses += out.eco.trigger_misses;
        local.edits += 1;
        if out.eco.downstream_skipped {
            local.skipped += 1;
        } else {
            local.eco_downstream += f.phased.secs
                + f.lint_pl.as_ref().map_or(0.0, |l| l.secs)
                + f.early_eval.secs
                + f.simulate.secs
                + f.verify.as_ref().map_or(0.0, |v| v.secs);
        }
        per_edit.push(DigestTriple {
            mapped_fp: out.eco.mapped_fingerprint,
            phased_fp: out.eco.phased_fingerprint,
            outputs_digest: outputs_digest(&s.artifacts().outputs),
        });
    }
    sums.eco_map += local.eco_map;
    sums.eco_downstream += local.eco_downstream;
    sums.cuts_reused += local.cuts_reused;
    sums.two_nodes += local.two_nodes;
    sums.trigger_hits += local.trigger_hits;
    sums.trigger_misses += local.trigger_misses;
    sums.edits += local.edits;
    sums.skipped += local.skipped;
    sums.apply_ms.extend(local.apply_ms);
    Some(EcoBatch {
        edits,
        per_edit,
        apply_s: t0.elapsed().as_secs_f64(),
    })
}

fn build_oracle(
    plan: &Plan,
    hot: &[&'static str],
    tr: &mut Tracer,
    sums: &mut LayerSums,
    ck: &mut Checker,
) -> Option<Oracle> {
    let options = RequestOptions {
        vectors: VECTORS,
        seed: plan.seed,
        ee: true,
        verify: true,
        ..RequestOptions::default()
    };
    let mut rng = Rng::new(plan.seed ^ 0x0ec0);
    let mut oracle = Oracle {
        options: options.clone(),
        hot: Vec::new(),
        variants: Vec::new(),
        eco: Vec::new(),
    };
    for design in hot {
        let (e, session) = expect(design, &options, tr, sums, ck)?;
        oracle.hot.push(e);
        let mut variants = Vec::new();
        for v in 0..4 {
            variants.push(expect(design, &variant_options(&options, v), tr, sums, ck)?.0);
        }
        oracle.variants.push(variants);
        let batches = eco_batches(&session, &mut rng, tr, sums);
        ck.check(1, !batches.is_empty(), || {
            format!("{design}: no ECO batch applies in process")
        });
        oracle.eco.push(batches);
    }
    Some(oracle)
}

/// A request as one connection sends it.
enum Job {
    Compile {
        request: Request,
        expect: Expect,
    },
    Eco {
        request: Request,
        initial: DigestTriple,
        per_edit: Vec<DigestTriple>,
        /// In-process time of the daemon's work when the key is warm.
        warm_s: f64,
        /// Extra in-process time when the key has to be compiled first.
        cold_s: f64,
        vectors: usize,
    },
    Bad(Bad),
    /// A planted request whose reply never comes.
    Dropped,
}

/// The request for a deck entry. `turn` counts the earlier draws of the
/// same entry on this connection; the variant or ECO batch cycles with
/// it, so every seed sends the same multiset of requests.
fn job(entry: (Kind, usize), turn: usize, oracle: &Oracle, hot: &[&str]) -> Job {
    let (kind, idx) = entry;
    let i = idx % hot.len();
    let design = DesignSpec::Spec(hot[i].to_string());
    match kind {
        Kind::Eco if !oracle.eco[i].is_empty() => {
            let batches = &oracle.eco[i];
            let b = &batches[turn % batches.len()];
            Job::Eco {
                request: Request::Eco {
                    design,
                    options: oracle.options.clone(),
                    edits: b.edits.clone(),
                },
                initial: oracle.hot[i].digest,
                per_edit: b.per_edit.clone(),
                warm_s: b.apply_s,
                cold_s: oracle.hot[i].miss_s,
                vectors: oracle.options.vectors,
            }
        }
        Kind::Repeat | Kind::Eco => Job::Compile {
            request: Request::Compile {
                design,
                options: oracle.options.clone(),
            },
            expect: oracle.hot[i].clone(),
        },
        Kind::Variant => {
            let v = turn % 4;
            Job::Compile {
                request: Request::Compile {
                    design,
                    options: variant_options(&oracle.options, v),
                },
                expect: oracle.variants[i][v].clone(),
            }
        }
        Kind::Bad => Job::Bad(
            [Bad::Magic, Bad::Truncated, Bad::Checksum, Bad::UnknownKind][(idx + 2 * turn) % 4],
        ),
    }
}

/// One request's client-side record.
struct Sample {
    conn: usize,
    segment: usize,
    class: Class,
    start: Instant,
    end: Instant,
    /// Latency minus the in-process time of the same pipeline work.
    overhead_ms: Option<f64>,
    vectors: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Eco,
    Reject,
}

fn send_bad(addr: &str, bad: Bad) -> Result<Response, String> {
    let err = |e: std::io::Error| e.to_string();
    let mut s = TcpStream::connect(addr).map_err(err)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(err)?;
    let _ = s.set_nodelay(true);
    let mut frame = Vec::new();
    let (kind, payload) = Request::Stats.encode();
    write_frame(&mut frame, kind, &payload).map_err(|e| e.to_string())?;
    // A bad-magic, truncated or corrupt frame is half-closed after it is
    // written, so the server reads every byte before it answers and
    // closes; unread bytes would reset the answer away.
    let half_close = match bad {
        Bad::Magic => {
            frame = b"HTTP".to_vec();
            true
        }
        Bad::Truncated => {
            frame.truncate(frame.len() - 2);
            true
        }
        Bad::Checksum => {
            let n = frame.len();
            frame[n - 1] ^= 1;
            true
        }
        Bad::UnknownKind => {
            let payload = b"zzzz";
            frame = MAGIC.to_vec();
            frame.push(0x7F);
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(payload);
            frame.extend_from_slice(&crc32(payload).to_le_bytes());
            false
        }
    };
    s.write_all(&frame).map_err(err)?;
    if half_close {
        s.shutdown(Shutdown::Write).map_err(err)?;
    }
    match read_frame(&mut s) {
        Ok(Some((kind, payload))) => Response::decode(kind, &payload).map_err(|e| e.to_string()),
        Ok(None) => Err("connection closed without an answer".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Sends a frame that never completes and waits briefly for a reply: the
/// self-test's planted dropped reply.
fn send_dropped(addr: &str) -> Result<Response, String> {
    let err = |e: std::io::Error| e.to_string();
    let mut s = TcpStream::connect(addr).map_err(err)?;
    s.set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(err)?;
    let mut frame = Vec::new();
    let (kind, payload) = Request::Stats.encode();
    write_frame(&mut frame, kind, &payload).map_err(|e| e.to_string())?;
    s.write_all(&frame[..frame.len() - 1]).map_err(err)?;
    match read_frame(&mut s) {
        Ok(Some((kind, payload))) => Response::decode(kind, &payload).map_err(|e| e.to_string()),
        Ok(None) => Err("no reply".into()),
        Err(e) => Err(e.to_string()),
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    c.set_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

/// Checks one answer; returns its class and in-process time on success.
fn check_answer(
    job: &Job,
    answer: Result<Response, String>,
) -> Result<(Class, f64, usize), String> {
    let answer = answer?;
    match (job, answer) {
        (
            Job::Compile { expect, request },
            Response::CompileOk {
                name,
                cache_hit,
                luts,
                gates,
                pairs,
                digest,
            },
        ) => {
            let same = name == expect.name
                && (luts, gates, pairs) == (expect.luts, expect.gates, expect.pairs)
                && digest == expect.digest;
            if !same {
                return Err(format!(
                    "{name}: compile answer differs from the in-process run"
                ));
            }
            let vectors = match request {
                Request::Compile { options, .. } => options.vectors,
                _ => 0,
            };
            Ok(if cache_hit {
                (Class::Hit, expect.hit_s, vectors)
            } else {
                (Class::Miss, expect.miss_s, vectors)
            })
        }
        (
            Job::Eco {
                initial,
                per_edit,
                warm_s,
                cold_s,
                vectors,
                ..
            },
            Response::EcoOk {
                name,
                cache_hit,
                initial: got,
                edits,
            },
        ) => {
            let got_edits: Vec<DigestTriple> = edits.iter().map(|e| e.digest).collect();
            if got != *initial || got_edits != *per_edit {
                return Err(format!(
                    "{name}: ECO answer differs from the in-process session"
                ));
            }
            let inproc = if cache_hit { *warm_s } else { warm_s + cold_s };
            Ok((Class::Eco, inproc, *vectors))
        }
        (Job::Bad(bad), Response::Error { code, message }) => {
            let expected = match bad {
                Bad::UnknownKind => ERR_REQUEST,
                _ => ERR_FRAME,
            };
            if code == expected {
                Ok((Class::Reject, 0.0, 0))
            } else {
                Err(format!(
                    "malformed frame answered with code {code}: {message}"
                ))
            }
        }
        (_, other) => Err(format!("unexpected answer {other:?}")),
    }
}

struct ConnResult {
    samples: Vec<Sample>,
    check: Checker,
    rejects_sent: u64,
}

/// Where one connection is in its request sequence; it carries over from
/// one segment to the next.
struct Conn {
    id: usize,
    rng: Rng,
    deck: Vec<(Kind, usize)>,
    turns: BTreeMap<(Kind, usize), usize>,
    sent: usize,
}

impl Conn {
    fn new(id: usize, seed: u64) -> Self {
        Conn {
            id,
            rng: Rng::new(seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            deck: Vec::new(),
            turns: BTreeMap::new(),
            sent: 0,
        }
    }
}

/// One closed-loop connection for one segment: the next request goes out
/// only after the previous answer came back.
fn connection(
    addr: &str,
    state: &mut Conn,
    plan: &Plan,
    deadline: Instant,
    oracle: &Oracle,
    hot: &[&str],
) -> ConnResult {
    let conn = state.id;
    let mut res = ConnResult {
        samples: Vec::new(),
        check: Checker::default(),
        rejects_sent: 0,
    };
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            res.check.check(1, false, || format!("connect: {e}"));
            return res;
        }
    };
    while Instant::now() < deadline {
        if state.deck.is_empty() {
            state.deck = deck(hot.len());
            state.rng.shuffle(&mut state.deck);
        }
        let entry = state.deck.pop().expect("deck refilled above");
        let turn = state.turns.entry(entry).or_insert(0);
        let j = if plan.plant.drop_reply && conn == 0 && state.sent == 3 {
            Job::Dropped
        } else {
            job(entry, *turn, oracle, hot)
        };
        *turn += 1;
        state.sent += 1;
        let start = Instant::now();
        let answer = match &j {
            Job::Compile { request, .. } | Job::Eco { request, .. } => {
                client.request(request).map_err(|e| e.to_string())
            }
            Job::Bad(bad) => {
                res.rejects_sent += 1;
                send_bad(addr, *bad)
            }
            Job::Dropped => send_dropped(addr),
        };
        // A malformed frame or a broken transport ends the connection;
        // the client reconnects before its next request.
        let reconnect = matches!(j, Job::Bad(_) | Job::Dropped) || answer.is_err();
        if reconnect {
            drop(client);
            client = match connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    res.check.check(1, false, || format!("reconnect: {e}"));
                    return res;
                }
            };
        }
        let end = Instant::now();
        match check_answer(&j, answer) {
            Ok((class, inproc_s, vectors)) => {
                res.check.check(1, true, String::new);
                let ms = (end - start).as_secs_f64() * 1e3;
                res.samples.push(Sample {
                    conn,
                    segment: 0,
                    class,
                    start,
                    end,
                    overhead_ms: (class != Class::Reject && inproc_s > 0.0)
                        .then_some(ms - inproc_s * 1e3),
                    vectors,
                });
            }
            Err(e) => res.check.check(1, false, || e),
        }
    }
    res
}

fn stats(addr: &str) -> Result<ServerStats, String> {
    match connect(addr)?.request(&Request::Stats) {
        Ok(Response::StatsOk(s)) => Ok(s),
        Ok(other) => Err(format!("stats answered {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Binds a daemon on an ephemeral port, runs `f` against it, then shuts
/// it down and joins it.
fn with_daemon<R>(ck: &mut Checker, f: impl FnOnce(&str, &mut Checker) -> R) -> Option<R> {
    let server = match PldServer::bind("127.0.0.1:0", &ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            ck.check(1, false, || format!("bind: {e}"));
            return None;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => {
            ck.check(1, false, || format!("local addr: {e}"));
            return None;
        }
    };
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve());
        let r = f(&addr, ck);
        let down = connect(&addr)
            .and_then(|mut c| c.request(&Request::Shutdown).map_err(|e| e.to_string()));
        ck.check(1, matches!(down, Ok(Response::ShutdownOk)), || {
            "daemon did not acknowledge shutdown".into()
        });
        let joined = daemon.join().is_ok_and(|r| r.is_ok());
        ck.check(1, joined, || "daemon thread failed".into());
        Some(r)
    })
}

/// Compiles every hot key through one client; the last eight stay
/// cached.
fn fill(addr: &str, oracle: &Oracle, hot: &[&str], ck: &mut Checker) {
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => return ck.check(1, false, || format!("connect: {e}")),
    };
    for (i, design) in hot.iter().enumerate() {
        let request = Request::Compile {
            design: DesignSpec::Spec(design.to_string()),
            options: oracle.options.clone(),
        };
        let answer = client.request(&request).map_err(|e| e.to_string());
        let j = Job::Compile {
            request,
            expect: oracle.hot[i].clone(),
        };
        let r = check_answer(&j, answer);
        ck.check(1, r.is_ok(), || {
            format!("fill {design}: {}", r.err().unwrap_or_default())
        });
    }
}

/// Timed segments: both connections until each segment's deadline, plus
/// the daemon's counters over them.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    secs: f64,
    stats: ServerStats,
}

impl Phase {
    fn add(&mut self, segment: Phase, index: usize) {
        self.samples
            .extend(segment.samples.into_iter().map(|s| Sample {
                segment: index,
                ..s
            }));
        self.secs += segment.secs;
        let (a, b) = (&mut self.stats, segment.stats);
        a.hits += b.hits;
        a.misses += b.misses;
        a.evictions += b.evictions;
        a.eco_edits += b.eco_edits;
        a.malformed += b.malformed;
    }
}

fn timed(
    addr: &str,
    plan: &Plan,
    secs: f64,
    oracle: &Oracle,
    hot: &[&str],
    conns: &mut [Conn],
    ck: &mut Checker,
) -> Phase {
    let before = stats(addr);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| scope.spawn(move || connection(addr, c, plan, deadline, oracle, hot)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection threads do not panic"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let after = stats(addr);
    let mut samples = Vec::new();
    let mut rejects_sent = 0;
    for r in results {
        ck.merge(r.check);
        samples.extend(r.samples);
        rejects_sent += r.rejects_sent;
    }
    let delta = match (before, after) {
        (Ok(b), Ok(a)) => ServerStats {
            entries: a.entries,
            capacity: a.capacity,
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            evictions: a.evictions - b.evictions,
            eco_edits: a.eco_edits - b.eco_edits,
            malformed: a.malformed - b.malformed,
        },
        (b, a) => {
            let e = b.err().or(a.err()).unwrap_or_default();
            ck.check(1, false, || format!("stats: {e}"));
            ServerStats::default()
        }
    };
    // Every malformed frame was counted as rejected by the daemon.
    ck.check(1, delta.malformed == rejects_sent, || {
        format!(
            "daemon counted {} malformed frames, {rejects_sent} sent",
            delta.malformed
        )
    });
    Phase {
        samples,
        secs: elapsed,
        stats: delta,
    }
}

fn class_ms(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
        .collect()
}

/// Runs `serve_mix`.
pub fn run(plan: &Plan, tr: &mut Tracer) -> Outcome {
    let hot = if plan.tiny { HOT_TINY } else { HOT };
    let mut out = Outcome::default();
    let mut sums = LayerSums::default();

    let group = tr.begin("oracle");
    let oracle = build_oracle(plan, hot, tr, &mut sums, &mut out.check);
    tr.end(group);
    let Some(mut oracle) = oracle else {
        return out;
    };
    if plan.plant.wrong_digest {
        oracle.hot[0].digest.outputs_digest ^= 1;
    }

    // Each segment binds and fills a daemon of its own (the set-up), then
    // runs both connections for its share of the time; the connections'
    // request sequences carry over between segments.
    let mut conns: Vec<Conn> = (0..CONNECTIONS).map(|c| Conn::new(c, plan.seed)).collect();
    let mut setup_secs = Vec::new();
    let mut phase = Phase::default();
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let done = with_daemon(&mut out.check, |addr, ck| {
            fill(addr, &oracle, hot, ck);
            setup_secs.push(t0.elapsed().as_secs_f64());
            let secs = plan.seconds / SETUPS as f64;
            let segment = timed(addr, plan, secs, &oracle, hot, &mut conns, ck);
            phase.add(segment, k);
        });
        if done.is_none() {
            return out;
        }
    }
    out.series.insert("setup_s", setup_secs.clone());
    out.set("setup_s", median(&setup_secs));
    out.samples("setup_s", setup_secs.len());

    let ms: Vec<f64> = phase
        .samples
        .iter()
        .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
        .collect();
    let vectors: usize = phase.samples.iter().map(|s| s.vectors).sum();
    out.set("req_per_s", phase.samples.len() as f64 / phase.secs);
    out.samples("req_per_s", phase.samples.len());
    out.set("vectors_per_s", vectors as f64 / phase.secs);
    out.samples("vectors_per_s", phase.samples.len());
    out.set("req_ms_p50", median(&ms));
    out.set("req_ms_p99", percentile(&ms, 0.99));
    out.samples("req_ms_p50", ms.len());
    out.samples("req_ms_p99", ms.len());

    // Deterministic results over the hot keys.
    let sum = |f: fn(&Expect) -> u64| oracle.hot.iter().map(f).sum::<u64>() as f64;
    out.set("techmap.luts", sum(|e| e.luts));
    out.set("core.ee_pairs", sum(|e| e.pairs));
    out.set("core.area_gates", sum(|e| e.gates + e.pairs));
    out.set("core.arcs", sum(|e| e.arcs));
    out.set("lint.findings", sum(|e| e.findings));
    out.set("techmap.cut_reuse", ratio(sums.cuts_reused, sums.two_nodes));
    for (e, batches) in oracle.hot.iter().zip(&oracle.eco) {
        out.pin(
            format!("{}.compile", e.name),
            format!(
                "{:016x}{:016x}{:016x}",
                e.digest.mapped_fp, e.digest.phased_fp, e.digest.outputs_digest
            ),
        );
        for (b, batch) in batches.iter().enumerate() {
            let last = batch.per_edit.last().map_or(0, |d| d.outputs_digest);
            out.pin(
                format!("{}.eco{b}", e.name),
                format!("{}={last:016x}", batch.edits.join(";")),
            );
        }
    }
    for name in [
        "techmap.luts",
        "core.ee_pairs",
        "core.area_gates",
        "core.arcs",
        "lint.findings",
        "techmap.cut_reuse",
    ] {
        out.pin(name, out.metrics[name]);
    }

    if plan.trace {
        layer_figures(&phase, &sums, tr, &mut out);
    }
    out
}

fn ratio(a: u64, b: u64) -> f64 {
    if b > 0 {
        a as f64 / b as f64
    } else {
        0.0
    }
}

fn layer_figures(traced: &Phase, sums: &LayerSums, tr: &mut Tracer, out: &mut Outcome) {
    // Client-side spans of the timed segments: one grouping span per
    // connection and segment, one layer span per request.
    let mut by_conn: BTreeMap<(usize, usize), (Instant, Instant)> = BTreeMap::new();
    for s in &traced.samples {
        let e = by_conn
            .entry((s.segment, s.conn))
            .or_insert((s.start, s.end));
        e.0 = e.0.min(s.start);
        e.1 = e.1.max(s.end);
    }
    let groups: BTreeMap<(usize, usize), Option<usize>> = by_conn
        .into_iter()
        .map(|(k, (a, b))| (k, tr.record("conn", a, b, None, 0)))
        .collect();
    for (i, s) in traced.samples.iter().enumerate() {
        tr.record(
            "serve.request",
            s.start,
            s.end,
            groups[&(s.segment, s.conn)],
            i as u64 + 1,
        );
    }
    let p50 = |class| median(&class_ms(&traced.samples, class));
    out.set("serve.hit_ms_p50", p50(Class::Hit));
    out.set("serve.miss_ms_p50", p50(Class::Miss));
    out.set("serve.eco_ms_p50", p50(Class::Eco));
    out.set("serve.reject_ms_p50", p50(Class::Reject));
    let overhead: Vec<f64> = traced
        .samples
        .iter()
        .filter_map(|s| s.overhead_ms)
        .collect();
    out.set("serve.overhead_ms_p50", median(&overhead));
    out.samples("serve.overhead_ms_p50", overhead.len());
    let st = &traced.stats;
    out.set("serve.hit_ratio", ratio(st.hits, st.hits + st.misses));
    out.set("serve.evictions", st.evictions as f64);
    out.set("serve.rejects", st.malformed as f64);

    out.set("netlist.ingest_s", sums.ingest);
    out.set("lint.check_s", sums.lint);
    out.set("techmap.map_s", sums.techmap);
    out.set("core.phased_s", sums.phased);
    out.set("core.ee_s", sums.ee);
    out.set("techmap.eco_map_s", sums.eco_map);
    out.set(
        "core.trigger_hit_ratio",
        ratio(sums.trigger_hits, sums.trigger_hits + sums.trigger_misses),
    );
    out.set("flow.eco_apply_ms_p50", median(&sums.apply_ms));
    out.samples("flow.eco_apply_ms_p50", sums.apply_ms.len());
    out.set("flow.eco_downstream_s", sums.eco_downstream);
    out.set("flow.eco_skip_ratio", ratio(sums.skipped, sums.edits));

    out.set("trace.uncovered_share", tr.uncovered_share());
    // The timed segments carry no spans: the client spans above come from
    // timestamps every run takes. Tracing runs only around the oracle's
    // in-process calls, so its cost is read from the hit-path replays.
    out.set(
        "trace.overhead",
        sums.hit_traced / sums.hit_plain.max(f64::MIN_POSITIVE),
    );
}
