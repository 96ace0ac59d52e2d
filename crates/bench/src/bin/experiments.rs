//! Regenerates every experiment of EXPERIMENTS.md: all of them by
//! default, the named ids otherwise; `--markdown` emits the EXPERIMENTS.md
//! body and `--list` lists the ids.

use aqo_bench::cli::{self, Args, CliError, Command, Run};
use aqo_bench::{out, outln, registry};
use std::process::ExitCode;
use std::time::Instant;

/// The binary's one command, in the same table form as `aqo`'s.
static COMMANDS: &[Command] =
    &[Command { path: &[], synopsis: "[--markdown] [--list] [id...]", run: Run::Args(run) }];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::main("experiments", None, COMMANDS, &args)
}

fn run(args: &Args) -> Result<(), CliError> {
    let experiments = registry();
    let ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
    if let Some(unknown) = args.operands().iter().find(|id| !ids.contains(&id.as_str())) {
        let valid = ids.join(", ");
        return Err(CliError::Usage(format!("unknown experiment `{unknown}` (valid: {valid})")));
    }
    if args.flag("--list") {
        for e in &experiments {
            outln!("{:4}  {}", e.id, e.paper_ref)?;
        }
        return Ok(());
    }

    let markdown = args.flag("--markdown");
    if markdown {
        outln!("# EXPERIMENTS — paper vs. measured\n")?;
        outln!(
            "Regenerate with `cargo run --release -p aqo-bench --bin experiments -- --markdown`."
        )?;
        outln!("The paper (PODS 2002) has no numbered tables or figures; every experiment")?;
        outln!("below reproduces one lemma/theorem, as indexed in DESIGN.md §6. A row saying")?;
        outln!("`holds` is an inequality certified in exact rational arithmetic (or, where")?;
        outln!("noted, measured by an exact optimizer).\n")?;
    }

    let total = Instant::now();
    for e in &experiments {
        if !args.operands().is_empty() && !args.operands().iter().any(|id| id == e.id) {
            continue;
        }
        let t0 = Instant::now();
        let tables = (e.run)();
        let elapsed = t0.elapsed();
        if markdown {
            outln!("## {} — {}\n", e.id, e.paper_ref)?;
            for t in &tables {
                out!("{}", t.render_markdown())?;
            }
            outln!("*Regenerated in {elapsed:.2?}.*\n")?;
        } else {
            outln!("### {} — {} ({elapsed:.2?})\n", e.id, e.paper_ref)?;
            for t in &tables {
                outln!("{}", t.render_text())?;
            }
        }
    }
    eprintln!("total: {:.2?}", total.elapsed());
    Ok(())
}
