//! The harness every `beff` subcommand runs under: one flag parser and
//! one report writer for the commands `main.rs` declares.
//!
//! Flags are checked against the command's declaration before anything
//! runs: an unknown flag, a missing value or an unparsable one exits 2.

use beff::sim::Workers;
use std::fmt::Write as _;
use std::path::Path;

/// What a flag takes.
#[derive(Clone, Copy)]
pub enum Kind {
    Switch,
    /// A non-negative decimal integer (`usize`).
    Int,
    /// A floating-point number (`f64`).
    Real,
    /// Any string; the text is its metavariable (`FILE`, `DIR`, …).
    Text(&'static str),
}

/// One accepted flag: its name and what it takes.
pub struct Flag(pub &'static str, pub Kind);

impl Flag {
    /// The flag as a usage line shows it: `--procs N`.
    fn usage(&self) -> String {
        match self.1 {
            Kind::Switch => self.0.to_string(),
            Kind::Int => format!("{} N", self.0),
            Kind::Real => format!("{} X", self.0),
            Kind::Text(meta) => format!("{} {meta}", self.0),
        }
    }
}

pub const FULL: Flag = Flag("--full", Kind::Switch);
pub const PROCS: Flag = Flag("--procs", Kind::Int);
pub const OUT: Flag = Flag("--out", Kind::Text("FILE"));
pub const HERO_PROCS: Flag = Flag("--hero-procs", Kind::Int);

/// The committed file a command's output must reproduce byte for byte.
pub enum Golden {
    Unpinned,
    /// `results/<name>.txt` holds the command's stdout at default flags.
    Stdout,
    /// The file holds the report the command hands back in
    /// [`Args::report`] at default flags.
    Report(&'static str),
    /// A [`Golden::Report`] of a command that runs on the worker pool:
    /// the same bytes at every worker count `beff goldens` passes in.
    Parity(&'static str),
}

/// A subcommand's run function: stdout goes into the buffer, which the
/// harness prints (or, under `beff goldens`, compares).
pub type Run = fn(&Args, &mut String) -> Result<(), Fail>;

/// One subcommand, as declared in the table `beff help` prints.
pub struct Command {
    pub name: &'static str,
    pub about: &'static str,
    pub flags: &'static [Flag],
    /// Metavariable of the positional arguments, if the command takes any.
    pub rest: Option<&'static str>,
    pub run: Run,
    pub golden: Golden,
}

impl Command {
    /// Where the command's output is committed, if it is pinned.
    pub fn golden_path(&self) -> Option<String> {
        match self.golden {
            Golden::Unpinned => None,
            Golden::Stdout => Some(format!("results/{}.txt", self.name)),
            Golden::Report(path) | Golden::Parity(path) => Some(path.to_string()),
        }
    }

    /// `name [--flag] [--flag V] [REST]`.
    pub fn usage(&self) -> String {
        let mut line = self.name.to_string();
        for f in self.flags {
            let _ = write!(line, " [{}]", f.usage());
        }
        if let Some(rest) = self.rest {
            let _ = write!(line, " {rest}");
        }
        line
    }
}

/// A command's failure: the message goes to stderr, the code is the
/// process exit status (2 = usage error).
#[derive(Debug)]
pub struct Fail {
    pub code: i32,
    pub message: String,
}

impl Fail {
    pub fn new(code: i32, message: impl Into<String>) -> Self {
        Self { code, message: message.into() }
    }
}

/// Writing into the stdout buffer cannot fail; this lets run functions
/// use `writeln!(out, …)?`.
impl From<std::fmt::Error> for Fail {
    fn from(e: std::fmt::Error) -> Self {
        Fail::new(1, e.to_string())
    }
}

/// The checked arguments of one invocation.
#[derive(Default)]
pub struct Args {
    /// Flags given, with their values (`None` for a switch).
    values: Vec<(&'static str, Option<String>)>,
    /// Positional arguments (only for commands that declare `rest`).
    pub rest: Vec<String>,
    /// The pool width a replay passes in; `None` reads `BEFF_WORKERS`.
    workers: Option<Workers>,
    /// The report a command hands back to the harness, which writes it
    /// to `--out FILE` or, under `beff goldens`, compares it with the
    /// committed golden.
    pub report: std::cell::Cell<Option<String>>,
}

impl Args {
    /// The arguments `beff goldens` replays a command with: no flags
    /// but a fresh `--scratch` directory under `target/` if the command
    /// declares one, and the given pool width.
    pub fn replay(command: &'static Command, workers: Option<Workers>) -> Self {
        let mut args = Self { workers, ..Self::default() };
        if command.flags.iter().any(|f| f.0 == "--scratch") {
            let dir =
                format!("target/goldens/{}.w{}", command.name, workers.map_or(0, Workers::get));
            let _ = std::fs::remove_dir_all(&dir);
            args.values.push(("--scratch", Some(dir)));
        }
        args
    }

    /// Check `argv` (the arguments after the subcommand name) against
    /// the command's declared flags.
    pub fn parse(command: &'static Command, argv: &[String]) -> Result<Self, Fail> {
        let mut args = Self::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if command.rest.is_none() {
                    return Err(Fail::new(2, format!("unexpected argument {arg:?}")));
                }
                args.rest.push(arg.clone());
                continue;
            }
            let flag = command
                .flags
                .iter()
                .find(|f| f.0 == arg)
                .ok_or_else(|| Fail::new(2, format!("unknown flag {arg}")))?;
            let value = match flag.1 {
                Kind::Switch => None,
                kind => {
                    let text = it
                        .next()
                        .ok_or_else(|| Fail::new(2, format!("{} needs a value", flag.usage())))?;
                    let parses = match kind {
                        Kind::Int => text.parse::<usize>().is_ok(),
                        Kind::Real => text.parse::<f64>().is_ok(),
                        _ => true,
                    };
                    if !parses {
                        return Err(Fail::new(
                            2,
                            format!("{}: cannot parse {text:?}", flag.usage()),
                        ));
                    }
                    Some(text.clone())
                }
            };
            args.values.push((flag.0, value));
        }
        Ok(args)
    }

    pub fn has(&self, flag: &str) -> bool {
        self.values.iter().any(|(name, _)| *name == flag)
    }

    /// The last value given for `flag`.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(name, _)| *name == flag)?.1.as_deref()
    }

    /// The value of an [`Kind::Int`] (`usize`) or [`Kind::Real`] (`f64`)
    /// flag; the parser has already refused values that do not parse.
    pub fn get<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.text(flag)?.parse().ok()
    }

    /// `--full`: the paper-fidelity schedule.
    pub fn full(&self) -> bool {
        self.has(FULL.0)
    }

    /// The simulation worker pool: the width a replay passed in, else
    /// `BEFF_WORKERS`, read nowhere else; a bad value is a usage error.
    pub fn workers(&self) -> Result<Workers, Fail> {
        let from_env = || Workers::try_from_env().map_err(|e| Fail::new(2, e.to_string()));
        self.workers.map_or_else(from_env, Ok)
    }

    /// Write the handed-back [`Args::report`] to `--out FILE`, creating
    /// its directory.
    pub fn write_out(&self) -> Result<(), Fail> {
        let (Some(path), Some(report)) = (self.text(OUT.0), self.report.take()) else {
            return Ok(());
        };
        if let Some(dir) = Path::new(path).parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| Fail::new(1, format!("cannot create {}: {e}", dir.display())))?;
        }
        std::fs::write(path, report).map_err(|e| Fail::new(1, format!("cannot write {path}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static CMD: Command = Command {
        name: "probe",
        about: "parser test",
        flags: &[FULL, PROCS, Flag("--ratio", Kind::Real), OUT],
        rest: None,
        run: |_, _| Ok(()),
        golden: Golden::Unpinned,
    };

    fn parse(argv: &[&str]) -> Result<Args, Fail> {
        Args::parse(&CMD, &argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_input_is_a_usage_error_naming_the_flag() {
        for (argv, names) in [
            (&["--bogus"][..], "--bogus"),
            (&["--procs"], "--procs"),
            (&["--procs", "x"], "--procs"),
            (&["--procs", "-3"], "--procs"),
            (&["--ratio", "half"], "--ratio"),
            (&["stray"], "stray"),
        ] {
            let fail = parse(argv).err().unwrap_or_else(|| panic!("{argv:?} must be refused"));
            assert_eq!(fail.code, 2, "{argv:?}: {}", fail.message);
            assert!(fail.message.contains(names), "{argv:?}: {}", fail.message);
        }
    }

    #[test]
    fn declared_flags_parse_to_typed_values() {
        let args = parse(&["--full", "--procs", "8", "--ratio", "0.25", "--out", "o.json"])
            .expect("declared flags parse");
        assert!(args.full());
        assert_eq!(args.get::<usize>("--procs"), Some(8));
        assert_eq!(args.get::<f64>("--ratio"), Some(0.25));
        assert_eq!(args.text("--out"), Some("o.json"));
        let none = parse(&[]).expect("no flags parse");
        assert!(!none.full());
        assert_eq!(none.get::<usize>("--procs"), None);
    }
}
