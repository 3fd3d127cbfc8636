//! The strict command-line parser shared by `icache_sim`,
//! `icache_replay` and `icache_experiments`.
//!
//! A binary declares its flags once, as a [`Spec`]: name, value kind and
//! a one-line help per flag. Parsing rejects anything the table does not
//! declare — an unknown flag (naming the nearest declared one), a
//! missing value, a repeated flag, a non-`--` argument — and `--help`
//! prints usage generated from the same table without running anything.
//!
//! ```
//! use icache_bench::cli::{Flag, Parsed, Spec};
//!
//! const SPEC: Spec = Spec {
//!     program: "demo",
//!     about: "an example",
//!     flags: &[Flag::required("seed", "run seed (default 7)")],
//! };
//! let Ok(Parsed::Args(args)) = SPEC.parse(["--seed", "9"].map(String::from)) else {
//!     unreachable!()
//! };
//! assert_eq!(args.parsed("seed", 7u64), Ok(9));
//! assert!(SPEC.parse(["--sead", "9"].map(String::from)).is_err());
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

/// Whether a flag takes a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Required,
    Optional,
    None,
}

/// One declared flag: its name (without the leading `--`), whether it
/// takes a value, and the one-line help `--help` shows.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    value: Value,
    help: &'static str,
}

impl Flag {
    /// `--name <value>`; the value may not be omitted.
    pub const fn required(name: &'static str, help: &'static str) -> Self {
        let value = Value::Required;
        Flag { name, value, help }
    }

    /// `--name [value]`; a bare flag reads as the empty string.
    pub const fn optional(name: &'static str, help: &'static str) -> Self {
        let value = Value::Optional;
        Flag { name, value, help }
    }

    /// `--name`; presence means "on".
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        let value = Value::None;
        Flag { name, value, help }
    }
}

/// A binary's command line: the table `--help` and parsing share.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Binary name, for the usage line.
    pub program: &'static str,
    /// One-line description of the binary.
    pub about: &'static str,
    /// Every flag the binary accepts (besides `--help`).
    pub flags: &'static [Flag],
}

/// What a command line asked for.
#[derive(Debug)]
pub enum Parsed {
    /// `--help` was given: print [`Spec::usage`] and do nothing else.
    Help,
    /// The flags to run with.
    Args(Args),
}

/// Parsed flag values, looked up by declared name.
#[derive(Debug)]
pub struct Args {
    flags: &'static [Flag],
    values: HashMap<&'static str, String>,
}

impl Args {
    /// The value given for `name`, if the flag was present (`""` for a
    /// bare optional-value flag, `"on"` for a value-less one).
    pub fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.flags.iter().any(|f| f.name == name),
            "--{name} is not declared in this binary's flag table"
        );
        self.values.get(name).map(String::as_str)
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of `name` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns `--name: <parse error>` for an unparseable value.
    pub fn parsed<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            Some(raw) => raw.parse().map_err(|e| format!("--{name}: {e}")),
            None => Ok(default),
        }
    }

    /// The value of `name` as a seed — decimal or `0x`-prefixed hex — or
    /// `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns `--name: <parse error>` for an unparseable value.
    pub fn seed(&self, name: &str, default: u64) -> Result<u64, String> {
        let Some(raw) = self.get(name) else {
            return Ok(default);
        };
        match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        }
        .map_err(|e| format!("--{name}: {e}"))
    }
}

impl Spec {
    /// Parse `argv` (without the program name) against the table.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an argument that is not a flag, an
    /// undeclared flag, a flag given twice, or a missing value.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Parsed, String> {
        let mut values = HashMap::new();
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}` (flags start with --)"));
            };
            if name == "help" {
                return Ok(Parsed::Help);
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == name) else {
                return Err(match self.nearest(name) {
                    Some(near) => format!("unknown flag --{name} (nearest known flag: --{near})"),
                    None => format!("unknown flag --{name}"),
                });
            };
            // No flag's value can legitimately start with `--`, so a
            // following flag never reads as this one's value.
            let value = match flag.value {
                Value::None => "on".to_string(),
                Value::Required => argv
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag --{name} needs a value"))?,
                Value::Optional => argv.next_if(|v| !v.starts_with("--")).unwrap_or_default(),
            };
            if values.insert(flag.name, value).is_some() {
                return Err(format!("flag --{name} given more than once"));
            }
        }
        Ok(Parsed::Args(Args {
            flags: self.flags,
            values,
        }))
    }

    /// The declared flag closest to `name` by edit distance.
    fn nearest(&self, name: &str) -> Option<&'static str> {
        self.flags
            .iter()
            .map(|f| f.name)
            .min_by_key(|known| edit_distance(name, known))
    }

    /// The `--help` text: one line per declared flag.
    pub fn usage(&self) -> String {
        let shown = |f: &Flag| match f.value {
            Value::Required => format!("--{} <value>", f.name),
            Value::Optional => format!("--{} [value]", f.name),
            Value::None => format!("--{}", f.name),
        };
        let width = self.flags.iter().map(|f| shown(f).len()).max().unwrap_or(0);
        let mut out = format!(
            "{} — {}\n\nusage: {} [flags]\n\nflags:\n",
            self.program, self.about, self.program
        );
        for f in self.flags {
            out.push_str(&format!("  {:width$}  {}\n", shown(f), f.help));
        }
        out.push_str(&format!("  {:width$}  print this help\n", "--help"));
        out
    }

    /// A binary's whole `main`: parse the process arguments, print usage
    /// for `--help` (exit 0, `run` is not called), otherwise call `run`;
    /// any error becomes a one-line `error: …` on stderr and exit 1.
    pub fn main(&self, run: impl FnOnce(&Args) -> Result<(), String>) -> ExitCode {
        let outcome = match self.parse(std::env::args().skip(1)) {
            Ok(Parsed::Help) => {
                print!("{}", self.usage());
                Ok(())
            }
            Ok(Parsed::Args(args)) => run(&args),
            Err(msg) => Err(msg),
        };
        match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        }
    }
}

/// Levenshtein distance over bytes (flag names are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = diag + usize::from(ca != cb);
            diag = row[j + 1];
            row[j + 1] = substitute.min(diag + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        program: "demo",
        about: "a test binary",
        flags: &[
            Flag::required("system", "cache system (default icache)"),
            Flag::optional("parallel", "worker threads"),
            Flag::switch("rejoin", "rejoin the killed node"),
        ],
    };

    fn parse(argv: &[&str]) -> Result<Parsed, String> {
        SPEC.parse(argv.iter().map(|s| s.to_string()))
    }

    fn args(argv: &[&str]) -> Args {
        match parse(argv) {
            Ok(Parsed::Args(a)) => a,
            other => panic!("expected flags, got {other:?}"),
        }
    }

    #[test]
    fn every_value_kind_parses() {
        let a = args(&["--system", "lru", "--parallel", "--rejoin"]);
        assert_eq!(a.get("system"), Some("lru"));
        assert_eq!(a.get("parallel"), Some(""), "bare optional flag");
        assert!(a.has("rejoin"));
        assert_eq!(args(&["--parallel", "3"]).parsed("parallel", 1usize), Ok(3));
        let none = args(&[]);
        assert!(!none.has("rejoin"));
        assert_eq!(none.parsed("parallel", 1usize), Ok(1), "absent → default");
        assert_eq!(
            args(&["--parallel", "x"]).parsed("parallel", 1usize),
            Err("--parallel: invalid digit found in string".to_string())
        );
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(args(&["--system", "0x5EED"]).seed("system", 1), Ok(0x5EED));
        assert_eq!(args(&["--system", "24301"]).seed("system", 1), Ok(24301));
        assert_eq!(args(&[]).seed("system", 7), Ok(7), "absent → default");
        assert_eq!(
            args(&["--system", "0xZZ"]).seed("system", 1),
            Err("--system: invalid digit found in string".to_string())
        );
    }

    #[test]
    fn every_malformed_command_line_is_rejected() {
        for (argv, expect) in [
            (
                &["--sytem", "icache"][..],
                "unknown flag --sytem (nearest known flag: --system)",
            ),
            (&["--system"], "flag --system needs a value"),
            (&["--system", "--rejoin"], "flag --system needs a value"),
            (
                &["--system", "a", "--system", "b"],
                "flag --system given more than once",
            ),
            (
                &["--rejoin", "--rejoin"],
                "flag --rejoin given more than once",
            ),
            (
                &["icache"],
                "unexpected argument `icache` (flags start with --)",
            ),
            (
                &["--rejoin", "on"],
                "unexpected argument `on` (flags start with --)",
            ),
        ] {
            match parse(argv) {
                Err(msg) => assert_eq!(msg, expect, "{argv:?}"),
                Ok(other) => panic!("{argv:?} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn help_wins_and_lists_every_flag() {
        assert!(matches!(parse(&["--help"]), Ok(Parsed::Help)));
        assert!(matches!(parse(&["--rejoin", "--help"]), Ok(Parsed::Help)));
        let usage = SPEC.usage();
        assert!(usage.starts_with("demo — a test binary\n"));
        for line in [
            "  --system <value>    cache system (default icache)\n",
            "  --parallel [value]  worker threads\n",
            "  --rejoin            rejoin the killed node\n",
            "  --help              print this help\n",
        ] {
            assert!(usage.contains(line), "missing {line:?} in:\n{usage}");
        }
    }

    #[test]
    fn edit_distance_is_levenshtein() {
        assert_eq!(edit_distance("sytem", "system"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }
}
