//! The command tables behind the `aqo` and `experiments` binaries.
//!
//! Each [`Command`] row holds a word path, one synopsis and a handler. The
//! synopsis is the only declaration of a command line: `[--out <path>]` or
//! `[--method dp|ccp]` is a flag that takes a value, `[--quick]` a switch,
//! `<file.qon>`, `[seed]` and `<id>...` are required, optional and
//! variadic operands, and text after `#` is a comment. [`main`] checks
//! argv against the synopsis before any handler runs: an unknown or
//! repeated flag, a missing value (or one beginning with `--`) and a
//! missing or extra operand are usage errors. Operands may come before or
//! after flags. `<command> --help` prints the row's synopsis, `--help`
//! alone every row.
//!
//! Handlers print through [`out!`](crate::out) and
//! [`outln!`](crate::outln), which return the write's outcome: a reader
//! that closes the pipe early (`aqo gen clique 150 1 | head -c 10`) ends
//! the command quietly with exit 0, where `println!` would panic.

use std::fmt;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

/// Everything that can go wrong at the CLI boundary.
#[derive(Debug)]
pub enum CliError {
    /// The command line does not match the command's synopsis.
    Usage(String),
    /// The invocation was well-formed but the command failed: a file that
    /// does not read or parse, no feasible plan, an instance past a
    /// method's size cap, a driver or remote error, a gate that tripped.
    Failed(String),
    /// Standard output was closed by its reader; not an error to report.
    Closed,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
            CliError::Closed => f.write_str("standard output closed"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// A failure that `e` describes.
    pub fn failed(e: impl fmt::Display) -> Self {
        CliError::Failed(e.to_string())
    }

    /// The file (or server address) at `path` could not be read.
    pub fn io(path: &str, e: std::io::Error) -> Self {
        CliError::Failed(format!("reading {path}: {e}"))
    }

    /// The file at `path` does not parse as its expected format.
    pub fn parse(path: &str, e: impl fmt::Display) -> Self {
        CliError::Failed(format!("parsing {path}: {e}"))
    }
}

/// Reads the file at `path`.
pub fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))
}

/// Writes `contents` to the file at `path`.
pub fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Failed(format!("writing {path}: {e}")))
}

/// Writes `args` to standard output: the one writer behind [`out!`] and
/// [`outln!`]. A closed pipe is [`CliError::Closed`].
pub fn write_stdout(args: fmt::Arguments<'_>) -> Result<(), CliError> {
    std::io::stdout().lock().write_fmt(args).map_err(stdout_error)
}

fn stdout_error(e: std::io::Error) -> CliError {
    match e.kind() {
        std::io::ErrorKind::BrokenPipe => CliError::Closed,
        _ => CliError::Failed(format!("writing standard output: {e}")),
    }
}

/// `print!` through [`write_stdout`]: returns `Result<(), CliError>`.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`]: returns `Result<(), CliError>`.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// One row of a binary's command table.
pub struct Command {
    /// The words that select the command (`&["replay", "run"]`); empty for
    /// a binary with a single command.
    pub path: &'static [&'static str],
    /// The command's operands and flags, in the notation of the module docs.
    pub synopsis: &'static str,
    /// What runs once the command is selected.
    pub run: Run,
}

/// A command's handler.
pub enum Run {
    /// Runs on a command line already checked against the synopsis.
    Args(fn(&Args) -> Result<(), CliError>),
    /// Parses its own arguments and picks its own exit code.
    Own(fn(&[String]) -> u8),
}

/// A command line that matched its command's synopsis.
pub struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    /// Whether flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == name)
    }

    /// The value given to flag `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| *f == name).and_then(|(_, v)| v.as_deref())
    }

    /// The value of flag `name` as a `u64`.
    pub fn u64(&self, name: &str) -> Result<Option<u64>, CliError> {
        self.typed(name, |_: &u64| true)
    }

    /// The value of flag `name` as a finite, non-negative `f64`.
    pub fn f64(&self, name: &str) -> Result<Option<f64>, CliError> {
        self.typed(name, |v: &f64| v.is_finite() && *v >= 0.0)
    }

    fn typed<T: FromStr>(&self, name: &str, ok: fn(&T) -> bool) -> Result<Option<T>, CliError> {
        let bad = |s: &str| CliError::Usage(format!("bad {name} value `{s}`"));
        self.value(name).map(|s| s.parse().ok().filter(ok).ok_or_else(|| bad(s))).transpose()
    }

    /// The `i`th operand; `""` when an optional operand was left out (the
    /// parser has checked that every required one is present).
    pub fn operand(&self, i: usize) -> &str {
        self.operands.get(i).map_or("", String::as_str)
    }

    /// Every operand, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }
}

/// Checks `argv` against `synopsis`.
fn parse(synopsis: &'static str, argv: &[String]) -> Result<Args, CliError> {
    let (mut flags, mut operands) = (Vec::new(), Vec::new());
    let mut words = synopsis.split('#').next().unwrap_or_default().split_whitespace();
    while let Some(w) = words.next() {
        match w.strip_prefix('[').filter(|f| f.starts_with("--")) {
            Some(f) => match f.strip_suffix(']') {
                Some(switch) => flags.push((switch, false)),
                // The next word is the value's placeholder.
                None => flags.push((f, words.next().is_some())),
            },
            None => operands.push(w),
        }
    }
    let mut args = Args { flags: Vec::new(), operands: Vec::new() };
    let mut argv = argv.iter();
    while let Some(a) = argv.next() {
        if !a.starts_with("--") {
            args.operands.push(a.clone());
            continue;
        }
        let Some(&(name, takes_value)) = flags.iter().find(|(f, _)| f == a) else {
            return Err(CliError::Usage(format!("unknown flag `{a}`")));
        };
        if args.flag(name) {
            return Err(CliError::Usage(format!("{name} given twice")));
        }
        let missing = || CliError::Usage(format!("{name} requires a value"));
        let value = match takes_value {
            true => Some(argv.next().filter(|v| !v.starts_with("--")).ok_or_else(missing)?.clone()),
            false => None,
        };
        args.flags.push((name, value));
    }
    let given = args.operands.len();
    if given < operands.iter().filter(|o| o.starts_with('<')).count() {
        return Err(CliError::Usage(format!("missing operand {}", operands[given])));
    }
    if given > operands.len() && !operands.last().is_some_and(|o| o.contains("...")) {
        let extra = &args.operands[operands.len()];
        return Err(CliError::Usage(format!("unexpected operand `{extra}`")));
    }
    Ok(args)
}

/// One command's usage line: `prog`, its path and its synopsis.
fn usage_line(prog: &str, cmd: &Command) -> String {
    let words = [prog].into_iter().chain(cmd.path.iter().copied()).chain([cmd.synopsis]);
    words.filter(|w| !w.is_empty()).collect::<Vec<_>>().join(" ").replace('\n', "\n      ")
}

/// Every command's usage line, then `--version` when `prog` has one.
fn banner(prog: &str, version: Option<&str>, commands: &[Command]) -> String {
    let version = version.map(|_| format!("{prog} --version | -V"));
    let lines: Vec<String> = commands.iter().map(|c| usage_line(prog, c)).chain(version).collect();
    format!("usage:\n  {}", lines.join("\n  "))
}

/// Runs the command `args` selects from `commands` and maps its outcome
/// to an exit code: 0 on success, 1 on any error. A usage error prints the
/// command's synopsis after it; an unknown or missing command prints every
/// one. `AQO_FAULTS` arms its fault sites in the root obs scope before a
/// handler runs. With a `version`, `--version`/`-V` prints it.
pub fn main(prog: &str, version: Option<&str>, commands: &[Command], args: &[String]) -> ExitCode {
    let first = args.first().map(String::as_str);
    if let (Some(version), Some("--version" | "-V")) = (version, first) {
        return exit_code(crate::outln!("{prog} {version}"), "");
    }
    let selects =
        |c: &&Command| args.len() >= c.path.len() && c.path.iter().zip(args).all(|(p, a)| p == a);
    let Some(cmd) = commands.iter().find(selects) else {
        if matches!(first, Some("--help" | "-h")) {
            return exit_code(crate::outln!("{}", banner(prog, version, commands)), "");
        }
        let group = commands.iter().any(|c| c.path.len() > 1 && Some(c.path[0]) == first);
        let words = args[..args.len().min(1 + usize::from(group))].join(" ");
        let error = if words.is_empty() {
            "missing subcommand".into()
        } else {
            format!("unknown subcommand `{words}`")
        };
        eprintln!("error: {error}\n\n{}", banner(prog, version, commands));
        return ExitCode::FAILURE;
    };
    let rest = &args[cmd.path.len()..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return exit_code(crate::outln!("usage: {}", usage_line(prog, cmd)), "");
    }
    let handler = match cmd.run {
        Run::Own(run) => return ExitCode::from(run(rest)),
        Run::Args(handler) => handler,
    };
    let result = parse(cmd.synopsis, rest).and_then(|args| {
        aqo_obs::faults::load_env().map_err(|e| CliError::Failed(format!("AQO_FAULTS: {e}")))?;
        handler(&args)
    });
    exit_code(result, &usage_line(prog, cmd))
}

/// The exit code for a command's outcome once standard output is flushed:
/// 0 on success and when the reader closed standard output, else 1 with
/// the error on stderr (and `usage` after a usage error).
fn exit_code(result: Result<(), CliError>, usage: &str) -> ExitCode {
    match result.and_then(|()| std::io::stdout().flush().map_err(stdout_error)) {
        Ok(()) | Err(CliError::Closed) => return ExitCode::SUCCESS,
        Err(e @ CliError::Usage(_)) => eprintln!("error: {e}\n\nusage: {usage}"),
        Err(e) => eprintln!("error: {e}"),
    }
    ExitCode::FAILURE
}
