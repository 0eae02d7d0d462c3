//! Regenerates every figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p tq-sim --bin figures -- all
//! cargo run --release -p tq-sim --bin figures -- fig3 --steps 40
//! ```
//!
//! Markdown goes to stdout; CSV + markdown files land in `--out`
//! (default `figures/`). Every value is a closed form, an exact
//! enumeration or a measurement of a provisioned cluster, so the output
//! is the same on every run: `figures all` regenerates the committed
//! `figures/` byte for byte.

// Deterministic, as the library is.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::path::PathBuf;
use std::process::ExitCode;

use tq_sim::experiments;
use tq_sim::report;

struct Args {
    targets: Vec<String>,
    out: PathBuf,
    steps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut targets = Vec::new();
    let mut out = PathBuf::from("figures");
    let mut steps = 20usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--steps" => {
                steps = it
                    .next()
                    .ok_or("--steps needs a value")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            t @ ("fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "validate" | "baselines" | "all") => {
                targets.push(t.to_string())
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    Ok(Args {
        targets,
        out,
        steps,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: figures [fig1|fig2|fig3|fig4|fig5|baselines|validate|all]... \
                 [--out DIR] [--steps N]"
            );
            return ExitCode::FAILURE;
        }
    };
    let all = args.targets.iter().any(|t| t == "all");
    let wants = |name: &str| all || args.targets.iter().any(|t| t == name);

    let mut figures = Vec::new();
    if wants("fig1") {
        figures.push(experiments::fig1_layout());
    }
    if wants("fig2") {
        eprintln!("[figures] fig2: write availability sweep...");
        figures.push(experiments::fig2_write_availability(args.steps));
    }
    if wants("fig3") {
        eprintln!("[figures] fig3: read availability FR vs ERC...");
        figures.push(experiments::fig3_read_availability(args.steps));
    }
    if wants("fig4") {
        eprintln!("[figures] fig4: redundancy sweep...");
        figures.push(experiments::fig4_read_redundancy(args.steps));
    }
    if wants("fig5") {
        eprintln!("[figures] fig5: storage accounting...");
        figures.push(experiments::fig5_storage(4096));
    }
    if wants("baselines") {
        eprintln!("[figures] baselines: related-work quorum systems...");
        figures.push(experiments::baselines_comparison(args.steps));
    }
    if wants("validate") {
        eprintln!("[figures] validate: closed forms vs exact vs protocol...");
        figures.push(experiments::validation_table());
    }

    for fig in &figures {
        print!("{}", report::to_markdown(fig));
        if let Err(e) = report::write_files(fig, &args.out) {
            eprintln!("error writing {}: {e}", fig.id);
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "[figures] wrote {} figure(s) to {}",
        figures.len(),
        args.out.display()
    );
    ExitCode::SUCCESS
}
