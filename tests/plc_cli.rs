//! The `plc` command-line contract, checked by running the built binary:
//! the exact message and exit code 2 of every flag combination `plc`
//! rejects before it runs, the set of flags each subcommand accepts, a
//! quiet exit when stdout closes early, the worker count the `[simulate]`
//! line reports, and that `plc client` against a live daemon prints the
//! digest lines of `plc eco` with the same flags.

use std::process::{Command, Output};
use std::sync::Arc;

use pl_serve::{PldServer, ServerConfig};

fn plc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plc"))
        .args(args)
        .output()
        .expect("run plc")
}

/// `plc args` must exit 2 with `error: <message>` as its first stderr line.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = plc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "plc {}: {stderr}",
        args.join(" ")
    );
    assert_eq!(
        stderr.lines().next(),
        Some(format!("error: {message}").as_str()),
        "plc {}",
        args.join(" ")
    );
}

/// Each flag that needs a later stage than `--stage` reaches is rejected
/// by name. The flags are tried one at a time, except where a flag only
/// validates together with another one (`--checkpoint-dir` needs
/// `--window`, `--resume` needs both): there the first flag in the stage
/// table is the one named.
#[test]
fn every_stage_gated_flag_is_rejected_with_its_message() {
    let vcd = std::env::temp_dir().join(format!("plc_cli_{}.vcd", std::process::id()));
    let vcd = vcd.to_str().expect("utf-8 temp path");
    let cases: &[(&[&str], &str, &str)] = &[
        (&["--lanes", "64"], "ingest", "--lanes"),
        (&["--no-lint"], "ingest", "--no-lint"),
        (&["--lint-level", "PL0006=allow"], "ingest", "--lint-level"),
        (&["--window", "4"], "early-eval", "--window"),
        (&["--optimize"], "lint", "--optimize"),
        (&["--lut-size", "4"], "optimize", "--lut-size"),
        (&["--verilog"], "optimize", "--verilog"),
        (&["--vcd", vcd], "techmap", "--vcd"),
        (&["--ee"], "phased", "--ee"),
        (&["--verify"], "early-eval", "--verify"),
        (&["--vectors", "5"], "early-eval", "--vectors"),
        (&["--jobs", "2"], "early-eval", "--jobs"),
        (&["--seed", "3"], "early-eval", "--seed"),
        (
            &["--window", "4", "--checkpoint-dir", "ck"],
            "early-eval",
            "--window",
        ),
        (
            &["--window", "4", "--checkpoint-dir", "ck", "--resume"],
            "early-eval",
            "--window",
        ),
        // Several gated flags at once: the stage table's order decides.
        (&["--ee", "--lanes", "64"], "ingest", "--lanes"),
    ];
    for (flags, stage, named) in cases {
        let needs = match *named {
            "--no-lint" | "--lint-level" => "lint",
            "--optimize" => "optimize",
            "--lut-size" | "--verilog" => "techmap",
            "--vcd" => "phased",
            "--ee" => "early-eval",
            _ => "simulate",
        };
        let mut args = vec!["b01", "--stage", stage];
        args.extend_from_slice(flags);
        assert_usage_error(
            &args,
            &format!("{named} has no effect when --stage stops before {needs}"),
        );
    }
    // `--seed` is consumed at the phased stage when `--vcd` is given.
    let out = plc(&["b01", "--seed", "3", "--vcd", vcd, "--stage", "phased"]);
    let _ = std::fs::remove_file(vcd);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn contradictory_flags_are_rejected_with_their_messages() {
    assert_usage_error(
        &["b01", "--threshold", "0.5"],
        "--threshold requires --ee (it configures the EE stage)",
    );
    assert_usage_error(
        &["b01", "--lint-level", "PL0006=allow", "--no-lint"],
        "--lint-level has no effect with --no-lint (the lint stage is skipped)",
    );
    assert_usage_error(
        &["b01", "--no-lint", "--stage", "lint"],
        "--no-lint contradicts --stage lint (stopping after a skipped stage)",
    );
    assert_usage_error(&["b01", "--stage", "bogus"], "unknown stage 'bogus'");
    assert_usage_error(
        &["b01", "--vectors", "abc"],
        "--vectors got invalid value 'abc'",
    );
    assert_usage_error(
        &["b01", "--lanes", "7"],
        "--lanes 7 is not a supported width (64 = batch engine)",
    );
    assert_usage_error(
        &["b06", "--lanes", "1"],
        "--lanes 1 is not a supported width (64 = batch engine)",
    );
    assert_usage_error(
        &["eco", "b01", "--lut-size", "9"],
        "--lut-size 9 is outside the supported range 2..=4",
    );
    assert_usage_error(
        &["b03", "--lut-size", "5", "--vectors", "4"],
        "--lut-size 5 is outside the supported range 2..=4",
    );
    assert_usage_error(
        &["eco", "b01", "--edit", "frobnicate:n1"],
        "invalid options: unknown edit kind in 'frobnicate:n1' (expected table|rewire|insert|remove)",
    );
    assert_usage_error(
        &["lint", "b01", "--lint-level", "bogus"],
        "--lint-level expects CODE=SEVERITY, got 'bogus'",
    );
    assert_usage_error(
        &["client", "127.0.0.1:1"],
        "a design is required unless --stats or --shutdown is given",
    );
}

/// A reader that closes stdout early ends `plc` quietly, as in
/// `plc b14 --ee --vectors 50 | head -1`: exit 0 and no panic.
#[test]
fn closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_plc"))
        .args(["b14", "--ee", "--vectors", "50"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run plc");
    let mut first = String::new();
    // The reader, and with it the pipe, is dropped after the first line.
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("[ingest]"), "{first}");
    let out = child.wait_with_output().expect("wait for plc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// The `[simulate]` line reports the workers the stage ran on: `--jobs`
/// resolved against the variants simulated (two with `--ee`, one
/// without), with `0` asking the OS.
#[test]
fn simulate_line_reports_the_workers_used() {
    let auto = std::thread::available_parallelism().map_or(1, usize::from);
    let cases: &[(&[&str], usize)] = &[
        (&["--ee", "--jobs", "64"], 2),
        (&["--jobs", "64"], 1),
        (&["--ee", "--jobs", "0"], auto.min(2)),
    ];
    for (flags, workers) in cases {
        let mut args = vec!["b06", "--vectors", "10"];
        args.extend_from_slice(flags);
        let out = plc(&args);
        assert!(out.status.success(), "plc {}: {out:?}", args.join(" "));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("[simulate]"))
            .expect("a [simulate] line");
        assert!(
            line.contains(&format!(" vectors, {workers} job(s) ")),
            "plc {}: {line}",
            args.join(" ")
        );
    }
}

#[test]
fn subcommands_reject_flags_they_do_not_take() {
    assert_usage_error(&["eco", "b01", "--lanes", "64"], "unknown flag --lanes");
    assert_usage_error(&["lint", "b01", "--ee"], "unknown flag --ee");
    assert_usage_error(&["serve", "--ee"], "unknown flag --ee");
    assert_usage_error(
        &["client", "127.0.0.1:1", "b01", "--checkpoint-dir", "ck"],
        "unknown flag --checkpoint-dir",
    );
    assert_usage_error(&["b01", "--edit", "remove:n1"], "unknown flag --edit");
    assert_usage_error(&["b06", "--queue", "heap"], "unknown flag --queue");
    assert_usage_error(
        &["client", "127.0.0.1:1", "b01", "--queue", "heap"],
        "unknown flag --queue",
    );
}

/// The flags `--help` lists, which are exactly the flags the parser takes.
fn accepted_flags(subcommand: Option<&str>) -> Vec<String> {
    let mut args: Vec<&str> = subcommand.into_iter().collect();
    args.push("--help");
    let out = plc(&args);
    assert!(out.status.success(), "{out:?}");
    let mut flags: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("  --"))
        .map(|l| format!("--{}", l.split_whitespace().next().unwrap_or("")))
        .collect();
    flags.sort();
    flags
}

#[test]
fn each_subcommand_accepts_its_flag_set() {
    let sorted = |flags: &[&str]| {
        let mut v: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
        v.push("--help".to_string());
        v.sort();
        v
    };
    assert_eq!(
        accepted_flags(None),
        sorted(&[
            "--ee",
            "--verify",
            "--vectors",
            "--seed",
            "--jobs",
            "--window",
            "--lanes",
            "--checkpoint-dir",
            "--resume",
            "--threshold",
            "--optimize",
            "--lut-size",
            "--lint-level",
            "--no-lint",
            "--stage",
            "--emit-blif",
            "--verilog",
            "--vcd",
        ])
    );
    assert_eq!(
        accepted_flags(Some("lint")),
        sorted(&[
            "--json",
            "--lint-level",
            "--max-fanout",
            "--max-depth",
            "--optimize",
            "--lut-size",
        ])
    );
    assert_eq!(
        accepted_flags(Some("eco")),
        sorted(&[
            "--edit",
            "--ee",
            "--verify",
            "--vectors",
            "--seed",
            "--optimize",
            "--lut-size",
            "--lint-level",
            "--no-lint",
            "--emit-blif",
        ])
    );
    assert_eq!(
        accepted_flags(Some("serve")),
        sorted(&["--addr", "--port", "--cache-entries"])
    );
    assert_eq!(
        accepted_flags(Some("client")),
        sorted(&[
            "--edit",
            "--ee",
            "--verify",
            "--vectors",
            "--seed",
            "--jobs",
            "--window",
            "--lanes",
            "--threshold",
            "--optimize",
            "--lut-size",
            "--no-lint",
            "--stats",
            "--shutdown",
        ])
    );
}

fn digest_lines(out: &Output) -> Vec<String> {
    assert!(out.status.success(), "{out:?}");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("fingerprints") || l.contains("outputs digest"))
        .map(str::to_string)
        .collect()
}

/// `plc client` maps its flags onto the request exactly as `plc eco` maps
/// the same flags onto its in-process session: the digest lines agree.
#[test]
fn client_prints_the_digest_lines_of_plc_eco() {
    let server = Arc::new(PldServer::bind("127.0.0.1:0", &ServerConfig::default()).expect("bind"));
    let addr = server.local_addr().expect("bound addr").to_string();
    let serving = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };
    let cases: &[(&str, &[&str])] = &[
        (
            "assets/blif/b06.blif",
            &[
                "--ee",
                "--vectors",
                "30",
                "--edit",
                "table:n8:0x6",
                "--edit",
                "rewire:n12:0:n5",
            ],
        ),
        (
            "b03",
            &[
                "--vectors",
                "20",
                "--seed",
                "5",
                "--lut-size",
                "3",
                "--verify",
                "--no-lint",
            ],
        ),
        ("b06", &["--ee", "--optimize", "--vectors", "12"]),
    ];
    for (design, flags) in cases {
        let mut client = vec!["client", addr.as_str(), design];
        client.extend_from_slice(flags);
        let mut eco = vec!["eco", design];
        eco.extend_from_slice(flags);
        let served = digest_lines(&plc(&client));
        assert_eq!(
            served.len(),
            2 * (1 + flags.iter().filter(|f| **f == "--edit").count())
        );
        assert_eq!(served, digest_lines(&plc(&eco)), "{design} {flags:?}");
    }
    let out = plc(&["client", addr.as_str(), "--shutdown"]);
    assert!(out.status.success(), "{out:?}");
    serving.join().expect("server thread").expect("serve");
}
