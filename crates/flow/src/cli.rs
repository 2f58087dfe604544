//! A tiny shared command-line parser for the workspace binaries.
//!
//! Every bin (`plc`, `table3`, `sweep`, `ee_stats`, `bench_report`)
//! declares its options once as a [`CliSpec`]; parsing then enforces the
//! same contract everywhere: unknown flags fail with a usage message
//! instead of being silently ignored, missing or malformed values name
//! the offending flag, and `--help`/`-h` prints a generated usage text.
//!
//! The parser is deliberately minimal — long flags only, space-separated
//! values (`--vectors 50`), positional arguments gated by the spec — so
//! it stays a page of code instead of a dependency.

use std::fmt::Write as _;

/// One declared option.
#[derive(Debug, Clone, Copy)]
pub struct OptSpec {
    /// The flag, including dashes (`"--vectors"`).
    pub long: &'static str,
    /// Value placeholder when the flag takes one (`Some("N")`), `None`
    /// for boolean flags.
    pub value: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// Positional-argument policy.
#[derive(Debug, Clone, Copy)]
pub struct PositionalSpec {
    /// Placeholder name in the usage line (`"<file.blif|bXX>"`).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Whether more than one positional is accepted.
    pub many: bool,
    /// Whether at least one positional is required.
    pub required: bool,
}

/// A binary's full command-line contract.
#[derive(Debug, Clone, Copy)]
pub struct CliSpec {
    /// Binary name as invoked.
    pub bin: &'static str,
    /// One-line description printed at the top of `--help`.
    pub about: &'static str,
    /// Positional policy (`None` = positionals are rejected).
    pub positional: Option<PositionalSpec>,
    /// The declared options.
    pub options: &'static [OptSpec],
}

/// A parse failure (or an explicit help request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given; the payload is the full help text.
    Help(String),
    /// A usage error; the payload names the problem.
    Usage(String),
}

/// Successfully parsed arguments.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    spec: CliSpec,
    values: Vec<(&'static str, String)>,
    flags: Vec<&'static str>,
    /// Positional arguments in order.
    pub positionals: Vec<String>,
}

impl CliSpec {
    /// The generated usage/help text.
    #[must_use]
    pub fn help(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{} — {}", self.bin, self.about);
        let _ = write!(s, "\nusage: {}", self.bin);
        if let Some(p) = &self.positional {
            let _ = write!(
                s,
                " {}{}",
                if p.required {
                    p.name.to_string()
                } else {
                    format!("[{}]", p.name)
                },
                if p.many { " ..." } else { "" }
            );
        }
        if !self.options.is_empty() {
            let _ = write!(s, " [options]");
        }
        let _ = writeln!(s);
        if let Some(p) = &self.positional {
            let _ = writeln!(s, "\n  {:<24} {}", p.name, p.help);
        }
        if !self.options.is_empty() {
            let _ = writeln!(s, "\noptions:");
            for o in self.options {
                let flag = match o.value {
                    Some(v) => format!("{} <{v}>", o.long),
                    None => o.long.to_string(),
                };
                let _ = writeln!(s, "  {flag:<24} {}", o.help);
            }
        }
        let _ = writeln!(s, "  {:<24} print this help", "--help");
        s
    }

    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `--help`/`-h`; [`CliError::Usage`] on an
    /// unknown flag, a missing value, or a positional-policy violation.
    pub fn parse(&self, args: &[String]) -> Result<ParsedArgs, CliError> {
        let mut parsed = ParsedArgs {
            spec: *self,
            values: Vec::new(),
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help(self.help()));
            }
            if arg.starts_with('-') && arg.len() > 1 {
                let Some(spec) = self.options.iter().find(|o| o.long == arg) else {
                    return Err(CliError::Usage(format!("unknown flag {arg}")));
                };
                if let Some(placeholder) = spec.value {
                    // A following declared flag (or --help) is a forgotten
                    // value, not a value — consuming it would silently
                    // disable that option. Undeclared tokens still pass
                    // through, so negative numbers work as values.
                    let next = args.get(i + 1);
                    let looks_like_flag = next.is_some_and(|n| {
                        n == "--help" || n == "-h" || self.options.iter().any(|o| o.long == *n)
                    });
                    let Some(v) = next.filter(|_| !looks_like_flag) else {
                        return Err(CliError::Usage(format!(
                            "{} needs a value <{placeholder}>",
                            spec.long,
                        )));
                    };
                    parsed.values.push((spec.long, v.clone()));
                    i += 2;
                } else {
                    parsed.flags.push(spec.long);
                    i += 1;
                }
            } else {
                match &self.positional {
                    None => {
                        return Err(CliError::Usage(format!("unexpected argument {arg}")));
                    }
                    Some(p) if !p.many && !parsed.positionals.is_empty() => {
                        return Err(CliError::Usage(format!(
                            "unexpected extra argument {arg} (only one {} allowed)",
                            p.name
                        )));
                    }
                    Some(_) => parsed.positionals.push(arg.to_string()),
                }
                i += 1;
            }
        }
        if let Some(p) = &self.positional {
            if p.required && parsed.positionals.is_empty() {
                return Err(CliError::Usage(format!("missing {} argument", p.name)));
            }
        }
        Ok(parsed)
    }

    /// Parses [`std::env::args`], printing help to stdout (exit 0) or a
    /// usage error to stderr (exit 2) as appropriate.
    #[must_use]
    pub fn parse_env(&self) -> ParsedArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        self.parse_or_exit(&args)
    }

    /// [`CliSpec::parse`], printing help to stdout (exit 0) or a usage
    /// error to stderr (exit 2) as appropriate.
    #[must_use]
    pub fn parse_or_exit(&self, args: &[String]) -> ParsedArgs {
        match self.parse(args) {
            Ok(parsed) => parsed,
            Err(CliError::Help(text)) => {
                println!("{text}");
                std::process::exit(0);
            }
            Err(CliError::Usage(msg)) => self.exit_usage(&msg),
        }
    }

    /// Prints `error: <msg>` and the help text to stderr, then exits 2.
    pub fn exit_usage(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\n");
        eprintln!("{}", self.help());
        std::process::exit(2);
    }
}

impl ParsedArgs {
    /// Whether a boolean flag was given.
    #[must_use]
    pub fn flag(&self, long: &str) -> bool {
        self.flags.contains(&long)
    }

    /// The raw value of a valued flag, if given (last occurrence wins).
    #[must_use]
    pub fn get(&self, long: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == long)
            .map(|(_, v)| v.as_str())
    }

    /// Every value a repeatable flag was given, in argument order.
    #[must_use]
    pub fn get_all(&self, long: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(f, _)| *f == long)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Parses a valued flag.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when the value does not parse as `T`.
    pub fn value<T: std::str::FromStr>(&self, long: &str) -> Result<Option<T>, CliError> {
        match self.get(long) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{long} got invalid value '{raw}'"))),
        }
    }

    /// Parses a valued flag, falling back to `default`; prints a usage
    /// error and exits 2 on a malformed value (binary-side helper).
    #[must_use]
    pub fn value_or<T: std::str::FromStr>(&self, long: &str, default: T) -> T {
        self.value_opt(long).unwrap_or(default)
    }

    /// Parses a valued flag if present; prints a usage error and exits 2
    /// on a malformed value (binary-side helper).
    #[must_use]
    pub fn value_opt<T: std::str::FromStr>(&self, long: &str) -> Option<T> {
        match self.value::<T>(long) {
            Ok(v) => v,
            Err(CliError::Usage(msg)) | Err(CliError::Help(msg)) => self.exit_usage(&msg),
        }
    }

    /// [`CliSpec::exit_usage`] with the spec these arguments were parsed
    /// against.
    pub fn exit_usage(&self, msg: &str) -> ! {
        self.spec.exit_usage(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CliSpec = CliSpec {
        bin: "demo",
        about: "test spec",
        positional: Some(PositionalSpec {
            name: "<id>",
            help: "benchmark ids",
            many: true,
            required: false,
        }),
        options: &[
            OptSpec {
                long: "--jobs",
                value: Some("J"),
                help: "worker threads",
            },
            OptSpec {
                long: "--quick",
                value: None,
                help: "fast mode",
            },
        ],
    };

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_values_and_positionals() {
        let p = SPEC
            .parse(&argv(&["b01", "--jobs", "4", "--quick", "b02"]))
            .unwrap();
        assert!(p.flag("--quick"));
        assert_eq!(p.value::<usize>("--jobs").unwrap(), Some(4));
        assert_eq!(p.positionals, vec!["b01", "b02"]);
    }

    #[test]
    fn unknown_flag_is_a_usage_error() {
        match SPEC.parse(&argv(&["--frobnicate"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--frobnicate")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn missing_value_is_a_usage_error() {
        match SPEC.parse(&argv(&["--jobs"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--jobs")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_value_is_a_usage_error() {
        let p = SPEC.parse(&argv(&["--jobs", "many"])).unwrap();
        match p.value::<usize>("--jobs") {
            Err(CliError::Usage(msg)) => assert!(msg.contains("many")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn help_flag_returns_generated_text() {
        match SPEC.parse(&argv(&["--help"])) {
            Err(CliError::Help(text)) => {
                assert!(text.contains("--jobs"));
                assert!(text.contains("--quick"));
                assert!(text.contains("usage: demo"));
            }
            other => panic!("expected help, got {other:?}"),
        }
    }

    #[test]
    fn positional_policy_is_enforced() {
        const NO_POS: CliSpec = CliSpec {
            bin: "nopos",
            about: "",
            positional: None,
            options: &[],
        };
        assert!(matches!(
            NO_POS.parse(&argv(&["stray"])),
            Err(CliError::Usage(_))
        ));

        const ONE_REQ: CliSpec = CliSpec {
            bin: "one",
            about: "",
            positional: Some(PositionalSpec {
                name: "<design>",
                help: "",
                many: false,
                required: true,
            }),
            options: &[],
        };
        assert!(matches!(ONE_REQ.parse(&argv(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            ONE_REQ.parse(&argv(&["a", "b"])),
            Err(CliError::Usage(_))
        ));
        assert!(ONE_REQ.parse(&argv(&["a"])).is_ok());
    }

    #[test]
    fn last_value_wins() {
        let p = SPEC.parse(&argv(&["--jobs", "2", "--jobs", "8"])).unwrap();
        assert_eq!(p.value::<usize>("--jobs").unwrap(), Some(8));
    }

    #[test]
    fn forgotten_value_does_not_swallow_the_next_flag() {
        // `--jobs --quick` is a missing value, not jobs="--quick".
        match SPEC.parse(&argv(&["--jobs", "--quick"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--jobs")),
            other => panic!("expected usage error, got {other:?}"),
        }
        // Undeclared tokens (e.g. negative numbers) still pass as values.
        let p = SPEC.parse(&argv(&["--jobs", "-1"])).unwrap();
        assert_eq!(p.get("--jobs"), Some("-1"));
    }
}
