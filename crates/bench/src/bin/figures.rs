//! Regenerate the paper's figures and the extension experiments
//! (DESIGN.md's experiment index, `hyperm_bench::figures`).
//!
//! * `figures` runs every figure in index order, prints it and writes
//!   `FIGURES.json` (the committed copy is the quick-scale reference);
//! * `figures fig10a sec61 …` prints only the named figures and writes
//!   nothing; an unknown name exits with code 2.
//!
//! `HYPERM_SCALE=full` selects the paper's workload sizes (`quick`, the
//! default, or `full`, in any case; any other value exits with code 2).

use hyperm_bench::figures::{report, ALL};
use hyperm_bench::Scale;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| !ALL.iter().any(|(id, _)| id == n)) {
        let known = ALL.iter().map(|&(id, _)| id).collect::<Vec<_>>().join(", ");
        eprintln!("unknown figure {bad:?}; known figures: {known}");
        return ExitCode::from(2);
    }
    let scale = match Scale::from_env() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut done = Vec::new();
    for &(id, run) in ALL {
        if names.is_empty() || names.iter().any(|n| n == id) {
            let figure = run(scale);
            print!("{}{figure}", if done.is_empty() { "" } else { "\n" });
            done.push((id, figure));
        }
    }
    if names.is_empty() {
        std::fs::write("FIGURES.json", report(scale, &done)).expect("write FIGURES.json");
        println!("\nwrote FIGURES.json");
    }
    ExitCode::SUCCESS
}
