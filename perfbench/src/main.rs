//! The repository benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3|lane_sweep|durable_stream|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! from spans around the calls into each crate. The line before it holds
//! the provenance, sample counts and the values that must repeat at the
//! same seed. Every output is checked; a failed check is counted in
//! `failed`, never fatal. See `README.md` beside this file.

mod flows;
mod report;
mod serve_mix;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use report::{num, object, result_line, string, Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

pub const WORKLOADS: &[&str] = &["table3", "lane_sweep", "durable_stream", "serve_mix"];

/// How one run is made.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The smallest sizes, for the benchmark's own tests.
    pub tiny: bool,
    /// A directory of this run's own for checkpoint files.
    pub scratch: PathBuf,
    pub plant: Plant,
}

/// Faults planted by the self-test; a checker that misses one is broken.
#[derive(Default, Clone, Copy)]
pub struct Plant {
    /// Expect a wrong digest for one design or key.
    pub wrong_digest: bool,
    /// Send one request whose reply never comes.
    pub drop_reply: bool,
}

/// SplitMix64: the benchmark's seeded generator for request sequences
/// and edits.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Where runs keep checkpoints, traces and repeatability records.
fn state_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}

/// Runs one workload; `None` for an unknown name.
pub fn run_workload(name: &str, plan: &Plan, tr: &mut Tracer) -> Option<Outcome> {
    let outcome = match name {
        "table3" => flows::run(flows::Protocol::Table3, plan, tr),
        "lane_sweep" => flows::run(flows::Protocol::Lanes, plan, tr),
        "durable_stream" => flows::run(flows::Protocol::Durable, plan, tr),
        "serve_mix" => serve_mix::run(plan, tr),
        _ => return None,
    };
    let _ = std::fs::remove_dir_all(&plan.scratch);
    Some(outcome)
}

/// A plan with a fresh scratch directory.
pub fn plan(seed: u64, seconds: f64, trace: bool, tiny: bool, plant: Plant) -> Plan {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    Plan {
        seed,
        seconds,
        trace,
        tiny,
        scratch: state_dir().join(format!("run-{}-{run}", std::process::id())),
        plant,
    }
}

/// `VmHWM` of this process (the daemon included on `serve_mix`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the repository the benchmark was built in, when it is
/// a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV digest over the sources the benchmark builds: it names the code
/// measured even where the checkout carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.push(root.join("perfbench/Cargo.toml"));
    files.sort();
    let mut h = pl_sim::Fnv64::new();
    for f in &files {
        for b in f.strip_prefix(root).unwrap_or(f).to_string_lossy().bytes() {
            h.mix(u64::from(b));
        }
        for b in std::fs::read(f).unwrap_or_default() {
            h.mix(u64::from(b));
        }
    }
    format!("{:016x}", h.finish())
}

/// Identity of this executable: a rebuild starts fresh records.
fn exe_id() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let (len, mtime) = meta.map_or((0, 0), |m| {
        let t = m
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos());
        (m.len(), t)
    });
    format!("{len:x}-{mtime:x}")
}

/// Compares this run's repeatable values with an earlier run of the same
/// executable, workload and seed, then stores their union. A value that
/// differs counts as a failure.
fn repeatability(workload: &str, seed: u64, outcome: &mut Outcome) {
    let dir = state_dir().join("records");
    let path = dir.join(format!("{workload}-{seed}-{}.txt", exe_id()));
    let mut stored: BTreeMap<String, String> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    if !stored.is_empty() {
        let differing: Vec<&String> = outcome
            .repeatable
            .iter()
            .filter(|(k, v)| stored.get(*k).is_some_and(|s| s != *v))
            .map(|(k, _)| k)
            .collect();
        let ok = differing.is_empty();
        outcome.check.check(1, ok, || {
            format!("values differ from an earlier run at this seed: {differing:?}")
        });
    }
    stored.extend(outcome.repeatable.clone());
    let text: String = stored.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    if !WORKLOADS.contains(&workload.as_str()) || !seconds.is_finite() || seconds <= 0.0 {
        usage();
    }

    let plan = plan(seed, seconds, trace, false, Plant::default());
    let mut tr = Tracer::new(trace);
    let mut outcome = run_workload(&workload, &plan, &mut tr).expect("workload checked above");
    outcome.set("peak_rss_mb", peak_rss_mb());
    if outcome.check.attempted == 0 {
        outcome.check.check(1, false, || "no operation ran".into());
    }
    repeatability(&workload, seed, &mut outcome);
    let trace_file = state_dir().join(format!("trace-{workload}-{seed}.jsonl"));
    if trace {
        if let Err(e) = tr.write(&trace_file) {
            eprintln!("writing {}: {e}", trace_file.display());
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = object([
        ("workload", string(&workload)),
        ("seed", seed.to_string()),
        ("seconds", num(seconds)),
        ("trace", trace.to_string()),
        ("host_cpus", cpus.to_string()),
        ("rustc", string(env!("PERFBENCH_RUSTC"))),
        ("git_commit", git_commit(&root).map_or("null".into(), |c| string(&c))),
        ("source_digest", string(&source_digest(&root))),
        (
            "simulated_metrics",
            string("unvalidated against hardware: no error figure; the designs are RTL re-implementations of ITC'99"),
        ),
    ]);
    let samples = object(outcome.samples.iter().map(|(k, v)| (*k, v.to_string())));
    let repeatable = object(
        outcome
            .repeatable
            .iter()
            .map(|(k, v)| (k.as_str(), string(v))),
    );
    let causes = format!(
        "[{}]",
        outcome
            .check
            .causes
            .iter()
            .map(|c| string(c))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let series = object(outcome.series.iter().map(|(k, v)| {
        (
            *k,
            format!(
                "[{}]",
                v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ")
            ),
        )
    }));
    let mut detail = vec![
        ("provenance", provenance),
        ("samples", samples),
        ("series", series),
        ("repeatable", repeatable),
        ("failures", causes),
    ];
    if trace {
        detail.push(("trace_file", string(&trace_file.display().to_string())));
    }
    println!("{}", object(detail));
    let (line, _) = result_line(&outcome, if trace { PER_LAYER } else { END_TO_END });
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool, plant: Plant) -> Outcome {
        let plan = plan(7, 0.2, trace, true, plant);
        let mut tr = Tracer::new(trace);
        run_workload(workload, &plan, &mut tr).expect("known workload")
    }

    /// The layer map's `most_work_in` per per-layer metric: the workloads
    /// whose traced runs must report it.
    fn most_work_in() -> BTreeMap<String, Vec<String>> {
        let layers =
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("layers.json"))
                .expect("layer map beside the benchmark");
        layers
            .lines()
            .filter_map(|l| {
                let metric = l.split("{\"metric\": \"").nth(1)?.split('"').next()?;
                let list = l.split("\"most_work_in\": [").nth(1)?.split(']').next()?;
                let workloads = list
                    .split(',')
                    .map(|w| w.trim().trim_matches('"').to_string())
                    .filter(|w| !w.is_empty())
                    .collect();
                Some((metric.to_string(), workloads))
            })
            .collect()
    }

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// with the same unit, and nothing else is; the layer map covers every
    /// per-layer metric with known workloads.
    #[test]
    fn metric_tables_match_benchmark_json_and_layer_map() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        let work = most_work_in();
        assert_eq!(work.len(), PER_LAYER.len());
        for m in PER_LAYER {
            let ws = work
                .get(m.name)
                .unwrap_or_else(|| panic!("{} has no layer map entry", m.name));
            assert!(!ws.is_empty(), "{}: no workload", m.name);
            for w in ws {
                assert!(WORKLOADS.contains(&w.as_str()), "{}: unknown {w}", m.name);
            }
        }
    }

    /// At the smallest sizes every workload runs clean and sets every
    /// end-to-end metric untraced, and traced every per-layer metric the
    /// layer map places on it.
    #[test]
    fn every_workload_runs_clean_and_sets_its_metrics() {
        let work = most_work_in();
        for w in WORKLOADS {
            for trace in [false, true] {
                let out = tiny(w, trace, Plant::default());
                assert!(out.check.attempted > 0, "{w}: nothing checked");
                assert_eq!(
                    out.check.failed, 0,
                    "{w} trace={trace}: {:?}",
                    out.check.causes
                );
                let table = if trace { PER_LAYER } else { END_TO_END };
                let (_, missing) = result_line(&out, table);
                let unset: Vec<&str> = missing
                    .into_iter()
                    .filter(|m| {
                        if trace {
                            work[*m].iter().any(|x| x == w)
                        } else {
                            // Read by `main` once the workload is done.
                            *m != "peak_rss_mb"
                        }
                    })
                    .collect();
                assert!(unset.is_empty(), "{w} trace={trace}: unset {unset:?}");
            }
        }
    }

    #[test]
    fn a_planted_wrong_digest_is_counted_on_every_workload() {
        for w in WORKLOADS {
            let out = tiny(
                w,
                false,
                Plant {
                    wrong_digest: true,
                    ..Plant::default()
                },
            );
            assert!(
                out.check.failed > 0,
                "{w}: planted wrong digest went unnoticed"
            );
        }
    }

    #[test]
    fn a_planted_dropped_reply_is_counted() {
        let out = tiny(
            "serve_mix",
            false,
            Plant {
                drop_reply: true,
                ..Plant::default()
            },
        );
        assert!(out.check.failed > 0, "dropped reply went unnoticed");
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<usize> = (0..10).collect();
        a.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }
}
