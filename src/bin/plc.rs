//! `plc` — the phased-logic compiler.
//!
//! The command-line face of the `pl-flow` pipeline: point it at any BLIF
//! netlist (SIS/ABC dialect) or an ITC'99 catalog id and it runs
//!
//! ```text
//! ingest → lint → optimize → techmap → phased → lint → early_eval → simulate → verify
//! ```
//!
//! printing a per-stage report with timings, early-evaluation statistics
//! (`--ee`), a latency report, and a synchronous cross-check (`--verify`).
//! `--stage` stops the pipeline at any layer; `--emit-blif`, `--verilog`
//! and `--vcd` export artifacts. The lint stages (stable `PL####` codes,
//! see the `pl-lint` crate docs for the catalog) print warnings inline and
//! abort on deny-level findings; tune per code with `--lint-level
//! CODE=allow|warn|deny` or skip them with `--no-lint`. Examples:
//!
//! ```text
//! plc assets/blif/b09.blif --ee --verify --vectors 100
//! plc lint b14                      # diagnostics only, exit 1 on deny
//! plc lint design.blif --json       # machine-readable JSON lines
//! plc eco b04 --ee --edit table:n30:0x6  # incremental recompile
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use pl_flow::cli::{CliSpec, OptSpec, ParsedArgs, PositionalSpec};
use pl_flow::{CircuitSource, EcoEdit, FlowOptions, Pipeline};
use pl_lint::{Code, Severity};

// Every flag that more than one subcommand takes, declared once; each
// spec below lists the flags it accepts.
const EE: OptSpec = OptSpec {
    long: "--ee",
    value: None,
    help: "add early evaluation and compare latency against plain PL (in plc eco the trigger cache persists across edits)",
};
const VERIFY: OptSpec = OptSpec {
    long: "--verify",
    value: None,
    help: "cross-check outputs against the synchronous reference",
};
const VECTORS: OptSpec = OptSpec {
    long: "--vectors",
    value: Some("N"),
    help: "random vectors to simulate (default 100)",
};
const SEED: OptSpec = OptSpec {
    long: "--seed",
    value: Some("S"),
    help: "vector-generation seed",
};
const JOBS: OptSpec = OptSpec {
    long: "--jobs",
    value: Some("J"),
    help: "worker threads for the simulate stage: the plain and EE variants are spread over them, so at most two are used (0 = one per core; results are identical at any value)",
};
const WINDOW: OptSpec = OptSpec {
    long: "--window",
    value: Some("N"),
    help: "stream all vectors through each variant as one continuous pipelined run and report makespan/throughput; with --checkpoint-dir, checkpoint and journal every N vectors",
};
const LANES: OptSpec = OptSpec {
    long: "--lanes",
    value: Some("N"),
    help: "stripe the vectors across 64 substreams and run them on the word-parallel batch engine (N must be 64; prints a lane digest)",
};
const THRESHOLD: OptSpec = OptSpec {
    long: "--threshold",
    value: Some("T"),
    help: "EE cost threshold (Equation 1; default 0 = all speedups; requires --ee)",
};
const OPTIMIZE: OptSpec = OptSpec {
    long: "--optimize",
    value: None,
    help: "run netlist cleanup passes before mapping (disables ECO cut reuse: cleanup renumbers globally)",
};
const LUT_SIZE: OptSpec = OptSpec {
    long: "--lut-size",
    value: Some("K"),
    help: "target LUT arity for technology mapping (2..=4, default 4; the PL gate is a LUT4)",
};
const LINT_LEVEL: OptSpec = OptSpec {
    long: "--lint-level",
    value: Some("CODE=SEV"),
    help: "override a lint code's severity (allow|warn|deny), e.g. PL0006=allow; repeatable",
};
const NO_LINT: OptSpec = OptSpec {
    long: "--no-lint",
    value: None,
    help: "skip both lint passes (static diagnostics run by default)",
};
const EDIT: OptSpec = OptSpec {
    long: "--edit",
    value: Some("SPEC"),
    help: "one ECO edit, applied in order and incrementally recompiled (plc client: against the daemon's warm entry): table:<node>:<hexbits> | rewire:<node>:<pin>:<src> | insert:<name>:<hexbits>:<src>[,<src>...] | remove:<node>; repeatable",
};
const EMIT_BLIF: OptSpec = OptSpec {
    long: "--emit-blif",
    value: Some("PATH"),
    help: "write the ingested (pre-map) netlist as BLIF; in plc eco, after the last edit",
};

// Main-command flags that only feed a late stage.
const CHECKPOINT_DIR: OptSpec = OptSpec {
    long: "--checkpoint-dir",
    value: Some("DIR"),
    help: "make the streamed run crash-resumable: write a checkpoint every --window vectors and a completed-window journal under DIR (plain/ and ee/ subtrees; requires --window)",
};
const RESUME: OptSpec = OptSpec {
    long: "--resume",
    value: None,
    help: "resume an interrupted sweep from --checkpoint-dir (a fresh run refuses a directory that already holds one)",
};
const VERILOG: OptSpec = OptSpec {
    long: "--verilog",
    value: None,
    help: "print the LUT-mapped netlist as structural Verilog",
};
const VCD: OptSpec = OptSpec {
    long: "--vcd",
    value: Some("PATH"),
    help: "write an 8-vector token waveform VCD of the plain PL netlist",
};

/// The stage each stage-gated main-command flag configures. With a
/// `--stage` that stops before it, the flag would be silently ignored, so
/// [`check_flag_consistency`] rejects it; rows are checked in order.
const STAGE_GATED: &[(OptSpec, Stage)] = &[
    (LANES, Stage::Simulate),
    (NO_LINT, Stage::Lint),
    (LINT_LEVEL, Stage::Lint),
    (WINDOW, Stage::Simulate),
    (OPTIMIZE, Stage::Optimize),
    (LUT_SIZE, Stage::Techmap),
    (VERILOG, Stage::Techmap),
    (VCD, Stage::Phased),
    (EE, Stage::EarlyEval),
    (VERIFY, Stage::Simulate),
    (VECTORS, Stage::Simulate),
    (JOBS, Stage::Simulate),
    (SEED, Stage::Simulate),
    (CHECKPOINT_DIR, Stage::Simulate),
    (RESUME, Stage::Simulate),
];

/// The design argument of every compiling subcommand.
const DESIGN: PositionalSpec = PositionalSpec {
    name: "<file.blif|bXX>",
    help: "BLIF file path, or an ITC'99 catalog id (b01..b15)",
    many: false,
    required: true,
};

const SPEC: CliSpec = CliSpec {
    bin: "plc",
    about: "compile a BLIF netlist or ITC'99 circuit to phased logic and run it",
    positional: Some(DESIGN),
    options: &[
        EE,
        VERIFY,
        VECTORS,
        SEED,
        JOBS,
        WINDOW,
        LANES,
        CHECKPOINT_DIR,
        RESUME,
        THRESHOLD,
        OPTIMIZE,
        LUT_SIZE,
        LINT_LEVEL,
        NO_LINT,
        OptSpec {
            long: "--stage",
            value: Some("NAME"),
            help: "stop after ingest|lint|optimize|techmap|phased|early-eval|simulate",
        },
        EMIT_BLIF,
        VERILOG,
        VCD,
    ],
};

/// The `plc lint` subcommand: both lint passes over one design, rendered
/// as text or JSON lines, exit 1 on any deny-level finding.
const LINT_SPEC: CliSpec = CliSpec {
    bin: "plc lint",
    about: "run the static netlist diagnostics (both passes) and report every finding",
    positional: Some(DESIGN),
    options: &[
        OptSpec {
            long: "--json",
            value: None,
            help: "print findings as JSON lines instead of text",
        },
        LINT_LEVEL,
        OptSpec {
            long: "--max-fanout",
            value: Some("N"),
            help: "fanout envelope for PL0101/PL0204 (default 64)",
        },
        OptSpec {
            long: "--max-depth",
            value: Some("N"),
            help: "combinational-depth envelope for PL0102 (default 128)",
        },
        OPTIMIZE,
        LUT_SIZE,
    ],
};

/// The `plc eco` subcommand: compile once, hold the session, then apply
/// each `--edit` as its own incremental recompile with deterministic
/// digest lines (the CI ECO smoke diffs the `outputs digest` line against
/// a from-scratch compile of the edited netlist).
const ECO_SPEC: CliSpec = CliSpec {
    bin: "plc eco",
    about: "compile once, then apply ECO edits with incremental recompilation",
    positional: Some(DESIGN),
    options: &[
        EDIT, EE, VERIFY, VECTORS, SEED, OPTIMIZE, LUT_SIZE, LINT_LEVEL, NO_LINT, EMIT_BLIF,
    ],
};

/// The `plc serve` subcommand: run the `pld` daemon (see the `pl-serve`
/// crate) — compile once, answer many concurrent sessions from an LRU
/// cache of warm compiled netlists.
const SERVE_SPEC: CliSpec = CliSpec {
    bin: "plc serve",
    about: "run the pld simulation daemon (compiled-netlist LRU cache over TCP)",
    positional: None,
    options: &[
        OptSpec {
            long: "--addr",
            value: Some("HOST"),
            help: "address to bind (default 127.0.0.1)",
        },
        OptSpec {
            long: "--port",
            value: Some("P"),
            help: "port to bind (default 0 = ephemeral; the bound address is printed as 'pld: listening on ...')",
        },
        OptSpec {
            long: "--cache-entries",
            value: Some("N"),
            help: "LRU capacity of the compiled-netlist cache (default 8)",
        },
    ],
};

/// The `plc client` subcommand: one request against a running `pld`
/// daemon, printing the same deterministic digest lines as an
/// in-process run.
const CLIENT_SPEC: CliSpec = CliSpec {
    bin: "plc client",
    about: "send one request to a running pld daemon and print its digest lines",
    positional: Some(PositionalSpec {
        name: "<host:port> [file.blif|bXX]",
        help: "daemon address, then (unless --stats/--shutdown) the design: a local BLIF file (shipped inline) or a server-side spec",
        many: true,
        required: true,
    }),
    options: &[
        EDIT,
        EE,
        VERIFY,
        VECTORS,
        SEED,
        JOBS,
        WINDOW,
        LANES,
        THRESHOLD,
        OPTIMIZE,
        LUT_SIZE,
        NO_LINT,
        OptSpec {
            long: "--stats",
            value: None,
            help: "print the daemon's cache/error counters and exit",
        },
        OptSpec {
            long: "--shutdown",
            value: None,
            help: "ask the daemon to shut down and exit",
        },
    ],
};

/// How far down the pipeline to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    Ingest,
    Lint,
    Optimize,
    Techmap,
    Phased,
    EarlyEval,
    Simulate,
}

impl Stage {
    /// Parses a `--stage` name or one of its aliases.
    fn parse(name: &str) -> Option<Stage> {
        match name {
            "ingest" => Some(Stage::Ingest),
            "lint" => Some(Stage::Lint),
            "optimize" => Some(Stage::Optimize),
            "techmap" | "map" => Some(Stage::Techmap),
            "phased" => Some(Stage::Phased),
            "early-eval" | "early_eval" | "ee" => Some(Stage::EarlyEval),
            "simulate" | "sim" => Some(Stage::Simulate),
            _ => None,
        }
    }

    /// The canonical `--stage` name.
    fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Lint => "lint",
            Stage::Optimize => "optimize",
            Stage::Techmap => "techmap",
            Stage::Phased => "phased",
            Stage::EarlyEval => "early-eval",
            Stage::Simulate => "simulate",
        }
    }
}

/// A subcommand's result: its exit code, or an error `main` prints as
/// `plc: <error>` with exit 1. Usage errors exit 2 on the spot.
type Outcome = Result<ExitCode, Box<dyn std::error::Error>>;

/// `println!` that returns a failed write as an `io::Error` instead of
/// panicking, so a closed stdout (`plc ... | head`) reaches `main` as
/// `BrokenPipe` and ends the run quietly; whole texts go out through
/// `write_all` for the same reason.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*)
    };
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let outcome = match argv.first().map(String::as_str) {
        Some("lint") => lint_main(&LINT_SPEC.parse_or_exit(rest)),
        Some("eco") => eco_main(&ECO_SPEC.parse_or_exit(rest)),
        Some("serve") => serve_main(&SERVE_SPEC.parse_or_exit(rest)),
        Some("client") => client_main(&CLIENT_SPEC.parse_or_exit(rest)),
        _ => compile_main(&SPEC.parse_or_exit(&argv)),
    };
    outcome.unwrap_or_else(|e| match e.downcast_ref::<io::Error>() {
        Some(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        _ => {
            eprintln!("plc: {e}");
            ExitCode::FAILURE
        }
    })
}

/// Maps parsed flags onto [`FlowOptions`]: the one wiring behind the main
/// command, `lint`, `eco` and `client`. A flag the subcommand does not
/// take is never given, so its field keeps its default, except that EE
/// and verification are on only when `--ee` and `--verify` are given.
/// Exits 2 on a malformed value; the options are not validated.
fn flow_options(args: &ParsedArgs) -> FlowOptions {
    let mut opts = FlowOptions::default();
    opts.vectors = args.value_or(VECTORS.long, opts.vectors);
    opts.seed = args.value_or(SEED.long, opts.seed);
    opts.jobs = args.value_or(JOBS.long, opts.jobs);
    opts.ee_enabled = args.flag(EE.long);
    opts.verify = args.flag(VERIFY.long);
    opts.optimize = args.flag(OPTIMIZE.long);
    opts.map.lut_size = args.value_or(LUT_SIZE.long, opts.map.lut_size);
    if let Some(t) = args.value_opt(THRESHOLD.long) {
        opts.ee.cost_threshold = t;
    }
    opts.window = args.value_opt(WINDOW.long);
    opts.lanes = args.value_opt(LANES.long);
    opts.checkpoint_dir = args.get(CHECKPOINT_DIR.long).map(Into::into);
    opts.resume = args.flag(RESUME.long);
    opts.lint.enabled = !args.flag(NO_LINT.long);
    opts.lint.max_fanout = args.value_or("--max-fanout", opts.lint.max_fanout);
    opts.lint.max_depth = args.value_or("--max-depth", opts.lint.max_depth);
    match parse_lint_levels(&args.get_all(LINT_LEVEL.long)) {
        Ok(levels) => opts.lint.overrides = levels,
        Err(msg) => args.exit_usage(&msg),
    }
    opts
}

/// [`flow_options`], then [`FlowOptions::validate`]: a rejected
/// combination exits 2 with the validation message. `plc client` skips
/// this; the daemon validates its requests.
fn checked_flow_options(args: &ParsedArgs) -> FlowOptions {
    let opts = flow_options(args);
    if let Err(pl_flow::FlowError::Options { message }) = opts.validate() {
        args.exit_usage(&message);
    }
    opts
}

/// Parses repeated `--lint-level CODE=SEVERITY` values.
fn parse_lint_levels(specs: &[&str]) -> Result<Vec<(Code, Severity)>, String> {
    specs
        .iter()
        .map(|s| {
            let (code, sev) = s
                .split_once('=')
                .ok_or_else(|| format!("--lint-level expects CODE=SEVERITY, got '{s}'"))?;
            Ok((
                code.parse::<Code>()
                    .map_err(|e| format!("--lint-level: {e}"))?,
                sev.parse::<Severity>()
                    .map_err(|e| format!("--lint-level: {e}"))?,
            ))
        })
        .collect()
}

/// The main command: compile and run one design, up to `--stage`.
fn compile_main(args: &ParsedArgs) -> Outcome {
    let stop_after = match args.get("--stage") {
        None => Stage::Simulate,
        Some(name) => Stage::parse(name)
            .unwrap_or_else(|| args.exit_usage(&format!("unknown stage '{name}'"))),
    };
    let opts = checked_flow_options(args);
    check_flag_consistency(args, stop_after);
    drive(&args.positionals[0], args, stop_after, opts)?;
    Ok(ExitCode::SUCCESS)
}

/// Exits 2 on a flag combination that would otherwise be silently
/// ignored: a flag whose stage `--stage` cuts off (see [`STAGE_GATED`]),
/// a `--threshold` without the EE stage it configures, or a lint flag
/// that contradicts `--no-lint`. Option-level combinations (lane widths,
/// checkpoint/resume wiring, LUT arity, window bounds) are
/// [`FlowOptions::validate`]'s, checked before this; only the checks that
/// need the raw argv stay here.
fn check_flag_consistency(args: &ParsedArgs, stop_after: Stage) {
    let given = |o: &OptSpec| args.flag(o.long) || args.get(o.long).is_some();
    for (opt, stage) in STAGE_GATED {
        // `--seed` feeds the simulate stage, except that a `--vcd` export
        // already consumes it at the phased stage.
        let stage = if opt.long == SEED.long && given(&VCD) {
            Stage::Phased
        } else {
            *stage
        };
        if given(opt) && stop_after < stage {
            args.exit_usage(&format!(
                "{} has no effect when --stage stops before {}",
                opt.long,
                stage.name()
            ));
        }
    }
    if given(&THRESHOLD) && !given(&EE) {
        args.exit_usage("--threshold requires --ee (it configures the EE stage)");
    }
    if given(&LINT_LEVEL) && given(&NO_LINT) {
        args.exit_usage("--lint-level has no effect with --no-lint (the lint stage is skipped)");
    }
    if given(&NO_LINT) && stop_after == Stage::Lint {
        args.exit_usage("--no-lint contradicts --stage lint (stopping after a skipped stage)");
    }
}

/// The `plc lint` subcommand: run [`Pipeline::lint_session`] (never aborts
/// on findings), print the rendered report, exit 1 when anything denied.
fn lint_main(args: &ParsedArgs) -> Outcome {
    let pipeline = Pipeline::new(checked_flow_options(args));
    let session = pipeline.lint_session(&CircuitSource::from_spec(&args.positionals[0]))?;
    if args.flag("--json") {
        io::stdout().write_all(session.render_json_lines().as_bytes())?;
    } else {
        io::stdout().write_all(session.render_text().as_bytes())?;
    }
    Ok(if session.has_deny() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The `plc eco` subcommand: open an [`pl_flow::EcoSession`], apply each
/// `--edit` as its own incremental recompile, and print per-edit reuse
/// accounting plus deterministic digest lines after the initial compile
/// and after each edit.
fn eco_main(args: &ParsedArgs) -> Outcome {
    let pipeline = Pipeline::new(checked_flow_options(args));
    let edits: Vec<(&str, EcoEdit)> = args
        .get_all(EDIT.long)
        .into_iter()
        .map(|spec| match EcoEdit::parse(spec) {
            Ok(edit) => (spec, edit),
            Err(e) => args.exit_usage(&e.to_string()),
        })
        .collect();
    let mut session = pipeline.eco_session(&CircuitSource::from_spec(&args.positionals[0]))?;
    {
        let art = session.artifacts();
        outln!(
            "[compile]   {}: {} LUTs, {} PL gates, {} EE pairs  ({:.3}s)",
            session.name(),
            art.report.techmap.luts_after,
            art.report.phased.logic_gates,
            art.pairs.len(),
            art.report.total_secs(),
        )?;
        print_digest(&pl_serve::DigestTriple::of(art, &art.outputs))?;
    }
    for (i, (text, edit)) in edits.iter().enumerate() {
        let out = session.apply_eco(std::slice::from_ref(edit))?;
        let e = &out.eco;
        let downstream = if e.downstream_skipped {
            "downstream reused".to_string()
        } else if pipeline.opts().ee_enabled {
            format!("cache {}h/{}m", e.trigger_hits, e.trigger_misses)
        } else {
            "downstream recomputed".to_string()
        };
        outln!(
            "[eco {}]     {}: {} dirty node(s) ({} output(s), {} boundary DFF(s)), cuts reused {}/{}, {}  ({:.3}s)",
            i + 1,
            text,
            e.dirty_nodes,
            e.dirty_outputs.len(),
            e.boundary_dffs,
            e.cuts_reused,
            e.two_nodes,
            downstream,
            e.secs,
        )?;
        if let Some(lint) = &out.flow.lint {
            let (warns, _) = lint.report.counts();
            if warns > 0 {
                print_lint_stage("[lint]     ", lint)?;
            }
        }
        let art = session.artifacts();
        print_digest(&pl_serve::DigestTriple::of(art, &art.outputs))?;
    }
    if let Some(path) = args.get(EMIT_BLIF.long) {
        let blif = pl_netlist::blif::to_blif(session.netlist())?;
        std::fs::write(path, &blif)?;
        outln!("[eco]       wrote {path} ({} bytes)", blif.len())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints one compile's deterministic digest block. The `outputs digest`
/// line is the cross-compile comparison point: an incremental recompile
/// and a from-scratch compile of the same edited netlist print identical
/// lines (the mapped/phased fingerprints additionally pin the netlist
/// bits, but survive BLIF round-trips only if node ids do). `plc eco`
/// and `plc client` both print through it, in the format of
/// `pl_serve::render_digest_block`, so server responses diff cleanly
/// against in-process runs.
fn print_digest(d: &pl_serve::DigestTriple) -> io::Result<()> {
    let block = pl_serve::render_digest_block(d.mapped_fp, d.phased_fp, d.outputs_digest);
    io::stdout().write_all(block.as_bytes())
}

/// The `plc serve` subcommand: bind, announce, and serve until a client
/// sends `--shutdown`.
fn serve_main(args: &ParsedArgs) -> Outcome {
    let host = args.get("--addr").unwrap_or("127.0.0.1");
    let port: u16 = args.value_or("--port", 0);
    let config = pl_serve::ServerConfig {
        cache_entries: args.value_or("--cache-entries", 8),
        ..pl_serve::ServerConfig::default()
    };
    let server = pl_serve::PldServer::bind(&format!("{host}:{port}"), &config)?;
    // The parseable handshake line: smoke tests and wrapper scripts read
    // the bound (possibly ephemeral) address from it.
    outln!("pld: listening on {}", server.local_addr()?)?;
    io::stdout().flush()?;
    server.serve()?;
    outln!("pld: shut down")?;
    Ok(ExitCode::SUCCESS)
}

/// The `plc client` subcommand: one request, digest lines rendered with
/// the same shared helper `plc eco` prints through.
fn client_main(args: &ParsedArgs) -> Outcome {
    let request = build_client_request(args).unwrap_or_else(|msg| args.exit_usage(&msg));
    run_client(&args.positionals[0], &request)?;
    Ok(ExitCode::SUCCESS)
}

/// Maps the `plc client` flags onto a protocol request through
/// [`flow_options`], the wiring of the in-process subcommands, so equal
/// flags mean equal digests.
fn build_client_request(args: &ParsedArgs) -> Result<pl_serve::Request, String> {
    use pl_serve::{DesignSpec, Request, RequestOptions};
    if args.flag("--shutdown") {
        return Ok(Request::Shutdown);
    }
    if args.flag("--stats") {
        return Ok(Request::Stats);
    }
    let Some(design) = args.positionals.get(1) else {
        return Err("a design is required unless --stats or --shutdown is given".to_string());
    };
    let options = RequestOptions::from(&flow_options(args));
    // A locally readable BLIF file is shipped inline (the daemon need
    // not share a filesystem); anything else is a server-side spec
    // (catalog id, `rand:` spec, or a path on the daemon's host).
    let path = std::path::Path::new(design);
    let design = if path.extension().is_some_and(|e| e == "blif") && path.is_file() {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{design}': {e}"))?;
        let name = path
            .file_stem()
            .map_or_else(|| design.to_string(), |s| s.to_string_lossy().into_owned());
        DesignSpec::BlifText { name, text }
    } else {
        DesignSpec::Spec(design.to_string())
    };
    let edits: Vec<String> = args
        .get_all(EDIT.long)
        .iter()
        .map(|s| s.to_string())
        .collect();
    Ok(if edits.is_empty() {
        Request::Compile { design, options }
    } else {
        Request::Eco {
            design,
            options,
            edits,
        }
    })
}

/// Sends one request and renders the response.
fn run_client(addr: &str, request: &pl_serve::Request) -> Result<(), Box<dyn std::error::Error>> {
    use pl_serve::Response;
    let mut client = pl_serve::Client::connect(addr)?;
    match client.expect_ok(request)? {
        Response::CompileOk {
            name,
            cache_hit,
            luts,
            gates,
            pairs,
            digest,
        } => {
            outln!(
                "[compile]   {name}: {luts} LUTs, {gates} PL gates, {pairs} EE pairs  (cache {})",
                if cache_hit { "hit" } else { "miss" },
            )?;
            print_digest(&digest)?;
        }
        Response::EcoOk {
            name,
            cache_hit,
            initial,
            edits,
        } => {
            outln!(
                "[compile]   {name}  (cache {})",
                if cache_hit { "hit" } else { "miss" },
            )?;
            print_digest(&initial)?;
            for (i, e) in edits.iter().enumerate() {
                outln!(
                    "[eco {}]     {}: {} dirty node(s)",
                    i + 1,
                    e.spec,
                    e.dirty_nodes
                )?;
                print_digest(&e.digest)?;
            }
        }
        Response::StatsOk(s) => {
            outln!(
                "pld stats: entries {}/{} | hits {} | misses {} | evictions {} | eco edits {} | malformed {}",
                s.entries, s.capacity, s.hits, s.misses, s.evictions, s.eco_edits, s.malformed,
            )?;
        }
        Response::ShutdownOk => outln!("pld: shutdown acknowledged")?,
        Response::Error { .. } => unreachable!("expect_ok maps error frames"),
    }
    Ok(())
}

/// Runs the pipeline stage by stage, printing each report as it lands.
fn drive(
    spec: &str,
    args: &ParsedArgs,
    stop_after: Stage,
    opts: FlowOptions,
) -> Result<(), Box<dyn std::error::Error>> {
    let source = CircuitSource::from_spec(spec);
    let pipeline = Pipeline::new(opts);
    let opts = pipeline.opts().clone();

    let ingested = pipeline.ingest(&source)?;
    outln!(
        "[ingest]    {} ({}): {} inputs, {} outputs, {} LUTs, {} DFFs  ({:.3}s)",
        ingested.name,
        ingested.report.source,
        ingested.report.inputs,
        ingested.report.outputs,
        ingested.report.luts,
        ingested.report.dffs,
        ingested.report.secs,
    )?;
    if let Some(path) = args.get(EMIT_BLIF.long) {
        let blif = pl_netlist::blif::to_blif(&ingested.netlist)?;
        std::fs::write(path, &blif)?;
        outln!("[ingest]    wrote {path} ({} bytes)", blif.len())?;
    }
    if stop_after == Stage::Ingest {
        return Ok(());
    }

    if opts.lint.enabled {
        let lint = pipeline.lint(&ingested)?;
        print_lint_stage("[lint]     ", &lint)?;
    } else {
        outln!("[lint]      skipped (--no-lint)")?;
    }
    if stop_after == Stage::Lint {
        return Ok(());
    }

    let optimized = pipeline.optimize(ingested)?;
    outln!(
        "[optimize]  {} ({} -> {} nodes)  ({:.3}s)",
        if optimized.report.ran {
            "cleanup"
        } else {
            "skipped (pass --optimize to enable)"
        },
        optimized.report.nodes_before,
        optimized.report.nodes_after,
        optimized.report.secs,
    )?;
    if stop_after == Stage::Optimize {
        return Ok(());
    }

    let mapped = pipeline.techmap(optimized)?;
    outln!(
        "[techmap]   LUT{}: {} -> {} LUTs, depth {}  ({:.3}s)",
        mapped.report.lut_size,
        mapped.report.luts_before,
        mapped.report.luts_after,
        mapped.report.depth,
        mapped.report.secs,
    )?;
    if args.flag(VERILOG.long) {
        let verilog = pl_netlist::verilog::to_verilog(&mapped.netlist)?;
        io::stdout().write_all(verilog.as_bytes())?;
    }
    if stop_after == Stage::Techmap {
        return Ok(());
    }

    let phased = pipeline.phased(&mapped)?;
    outln!(
        "[phased]    {} gates, {} arcs ({} feedbacks) — live  ({:.3}s)",
        phased.report.logic_gates,
        phased.report.arcs,
        phased.report.ack_arcs,
        phased.report.secs,
    )?;
    if opts.lint.enabled {
        let lint = pipeline.lint_phased(&phased)?;
        print_lint_stage("[pl-lint]  ", &lint)?;
    }
    if let Some(path) = args.get(VCD.long) {
        write_vcd(&phased.netlist, &mapped.netlist, &opts, path)?;
    }
    if stop_after == Stage::Phased {
        return Ok(());
    }

    let early = pipeline.early_eval(phased);
    if early.report.enabled {
        outln!(
            "[early-eval] {} pairs / {} compute gates (+{:.0}% area, cache {}h/{}m)  ({:.3}s)",
            early.report.pairs,
            early.report.examined,
            early.report.area_increase * 100.0,
            early.report.cache_hits,
            early.report.cache_misses,
            early.report.secs,
        )?;
        print_pairs(&early)?;
    } else {
        outln!("[early-eval] skipped (pass --ee to enable)")?;
    }
    if stop_after == Stage::EarlyEval {
        return Ok(());
    }

    let sim = pipeline.simulate(&early)?;
    if sim.report.vectors == 0 {
        // An empty run is reported explicitly rather than printing
        // vacuous aggregates (`min inf`) and a hollow `0 vectors match`.
        outln!(
            "[simulate]  0 vectors — nothing simulated  ({:.3}s)",
            sim.report.secs
        )?;
        if opts.verify {
            outln!("[verify]    0 vectors — nothing simulated, nothing verified")?;
        }
        return Ok(());
    }
    outln!(
        "[simulate]  {} vectors, {} job(s)  ({:.3}s)",
        sim.report.vectors,
        sim.report.jobs,
        sim.report.secs,
    )?;
    if let Some(lanes) = sim.report.lanes {
        // Lane protocol: the output words were reassembled from the 64
        // striped substreams in vector order. The CI batch determinism
        // smoke checks the digest line against its pinned value.
        outln!(
            "  lane protocol: {lanes}-lane engine{}",
            if sim.stats_ee.is_some() {
                "  (EE outputs bit-identical to plain)"
            } else {
                ""
            }
        )?;
        print_lane_digest(&sim.outputs)?;
    } else if let (Some(window), Some(stream_plain)) = (sim.report.window, &sim.stream_plain) {
        // Streamed protocol: one continuous run per variant — makespan and
        // throughput are the metrics, plus a digest of the output words
        // (the CI determinism smoke diffs these lines across --jobs).
        print_streamed("without EE", window, stream_plain, &sim.outputs)?;
        if let Some(stream_ee) = &sim.stream_ee {
            print_streamed("with EE   ", window, stream_ee, &sim.outputs)?;
            if stream_plain.makespan > 0.0 {
                outln!(
                    "  makespan decrease: {:.1}%  (EE outputs bit-identical to plain)",
                    100.0 * (stream_plain.makespan - stream_ee.makespan) / stream_plain.makespan
                )?;
            }
        }
        // Resumable-sweep audit trail. Kept off the `streamed ... digest`
        // lines above, which the CI determinism smoke diffs verbatim.
        if let Some(rec) = &sim.report.recovery_plain {
            outln!("  recovery without EE: {rec}")?;
        }
        if let Some(rec) = &sim.report.recovery_ee {
            outln!("  recovery with EE:    {rec}")?;
        }
    } else {
        outln!("  latency without EE: {}", sim.stats_plain)?;
        if let Some(stats_ee) = &sim.stats_ee {
            outln!("  latency with EE:    {stats_ee}")?;
            if sim.stats_plain.mean() > 0.0 {
                outln!(
                    "  delay decrease: {:.1}%  (EE outputs bit-identical to plain)",
                    100.0 * (sim.stats_plain.mean() - stats_ee.mean()) / sim.stats_plain.mean()
                )?;
            }
        }
    }

    if opts.verify {
        let report = pipeline.verify(&mapped.netlist, &sim)?;
        outln!(
            "[verify]    {} vectors match the synchronous reference  ({:.3}s)",
            report.vectors,
            report.secs,
        )?;
    }
    Ok(())
}

/// Prints a lint stage's outcome line plus one indented line per warning
/// (a deny never reaches here: the stage methods abort with
/// [`pl_flow::FlowError::Lint`] first).
fn print_lint_stage(label: &str, stage: &pl_flow::LintStageReport) -> io::Result<()> {
    let (warns, _) = stage.report.counts();
    if warns == 0 {
        return outln!("{label} clean  ({:.3}s)", stage.secs);
    }
    outln!("{label} {warns} warning(s)  ({:.3}s)", stage.secs)?;
    for line in stage.report.to_text().lines() {
        outln!("  {line}")?;
    }
    Ok(())
}

/// Prints the lane protocol's deterministic FNV-1a digest over the
/// reassembled output words, in vector order. It equals the digest of the
/// same 64 substreams run one by one on scalar engines
/// (`tests/engine_equivalence.rs` pins both), and the CI batch
/// determinism smoke checks exactly this line.
fn print_lane_digest(words: &[Vec<bool>]) -> io::Result<()> {
    outln!(
        "  lane digest (64 substreams, vector order): {:#018x}",
        pl_serve::outputs_digest(words)
    )
}

/// Prints one variant's streamed outcome with a deterministic FNV-1a
/// digest of the output words — `--jobs` and `--checkpoint-dir` must
/// never change this line (the resumable sweep is
/// bit-identical to the plain stream), which the CI smoke steps assert by
/// diffing it across runs.
/// The words are passed separately because the flow's stream outcomes
/// carry metrics only (both variants' words are identical and live in
/// `Simulated::outputs` once). The makespan is printed (and CI-diffed) on
/// its own, and the plain/EE lines sharing one digest is exactly the "EE
/// outputs bit-identical to plain" claim made visible.
fn print_streamed(
    label: &str,
    window: usize,
    stream: &pl_sim::StreamOutcome,
    words: &[Vec<bool>],
) -> io::Result<()> {
    // An all-constant-output netlist completes in 0 ns; its throughput is
    // reported as instantaneous rather than printing `inf vectors/ns`.
    let throughput = if stream.throughput.is_finite() {
        format!("{:.4} vectors/ns", stream.throughput)
    } else {
        "instantaneous".to_string()
    };
    outln!(
        "  streamed {label} (window {window}): makespan {:.2} ns, {throughput}, digest {:#018x}",
        stream.makespan,
        pl_serve::outputs_digest(words),
    )
}

/// Prints the implemented master/trigger pairs with their Equation-1
/// ingredients.
fn print_pairs(early: &pl_flow::EarlyEvaled) -> io::Result<()> {
    if early.pairs.is_empty() {
        return Ok(());
    }
    outln!(
        "  {:>8} {:>8} {:>8} {:>9} {:>5} {:>5} {:>7}",
        "master",
        "trigger",
        "pins",
        "coverage",
        "Mmax",
        "Tmax",
        "cost"
    )?;
    for p in &early.pairs {
        outln!(
            "  {:>8} {:>8} {:>8} {:>8.0}% {:>5} {:>5} {:>7.2}",
            p.master.to_string(),
            p.trigger.to_string(),
            format!("{:#06b}", p.candidate.support),
            p.candidate.coverage * 100.0,
            p.candidate.m_max,
            p.candidate.t_max,
            p.cost()
        )?;
    }
    Ok(())
}

/// Simulates 8 random vectors with tracing and writes a VCD waveform.
fn write_vcd(
    pl: &pl_core::PlNetlist,
    mapped: &pl_netlist::Netlist,
    opts: &FlowOptions,
    out_path: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut sim = pl_sim::PlSimulator::new(pl, opts.delays.clone())?;
    sim.enable_tracing();
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
    for _ in 0..8 {
        let v: Vec<bool> = (0..pl.input_gates().len()).map(|_| rng.gen()).collect();
        sim.run_vector(&v)?;
    }
    let vcd = pl_sim::trace::to_vcd(pl, sim.trace(), mapped.name());
    std::fs::write(out_path, &vcd)?;
    outln!(
        "[phased]    wrote {out_path}: {} signal changes over {:.1} ns",
        sim.trace().len(),
        sim.time()
    )?;
    Ok(())
}
