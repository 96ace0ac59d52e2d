//! Regenerates every experiment of EXPERIMENTS.md: all of them by
//! default, the named ids otherwise; `--markdown` emits the EXPERIMENTS.md
//! body and `--list` lists the ids.

use aqo_bench::cli::{self, Args, CliError, Command, Run};
use aqo_bench::registry;
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
            println!("{:4}  {}", e.id, e.paper_ref);
        }
        return Ok(());
    }

    let markdown = args.flag("--markdown");
    if markdown {
        println!("# EXPERIMENTS — paper vs. measured\n");
        println!(
            "Regenerate with `cargo run --release -p aqo-bench --bin experiments -- --markdown`."
        );
        println!("The paper (PODS 2002) has no numbered tables or figures; every experiment");
        println!("below reproduces one lemma/theorem, as indexed in DESIGN.md §6. A row saying");
        println!("`holds` is an inequality certified in exact rational arithmetic (or, where");
        println!("noted, measured by an exact optimizer).\n");
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
            println!("## {} — {}\n", e.id, e.paper_ref);
            for t in &tables {
                print!("{}", t.render_markdown());
            }
            println!("*Regenerated in {elapsed:.2?}.*\n");
        } else {
            println!("### {} — {} ({elapsed:.2?})\n", e.id, e.paper_ref);
            for t in &tables {
                println!("{}", t.render_text());
            }
        }
    }
    eprintln!("total: {:.2?}", total.elapsed());
    Ok(())
}
