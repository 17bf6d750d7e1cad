//! `dora` — the command-line face of the reproduction.
//!
//! ```text
//! dora train   [--quick] [--seed N] [--jobs N] --out <models.txt>
//! dora inspect <models.txt>
//! dora profile <page.html>
//! dora predict <models.txt> (--page NAME | --html FILE)
//!              [--mpki X] [--util X] [--temp C] [--deadline S]
//! dora govern  <models.txt> --page NAME [--kernel NAME] [--deadline S]
//!              [--governor dora|interactive|performance|powersave] [--trace]
//!              [--seed N] [--soc PROFILE]
//! dora csv     --page NAME [--kernel NAME] [--governor NAME] [--jobs N]
//!              [--seed N] [--soc PROFILE]
//! dora fleet   [<models.txt>] [--sessions N] [--shard N] [--oracle]
//!              [--deadline S] [--jobs N] [--seed N] [--format text|csv]
//!              [--quick] [--soc PROFILE]
//! dora session [<models.txt>] [--pages A,B,C] [--kernel NAME]
//!              [--governor dora|interactive|performance|powersave]
//!              [--deadline S] [--seed N] [--soc PROFILE]
//! dora pages
//! dora kernels
//! ```
//!
//! Argument parsing is hand-rolled: the grammar is small and the
//! workspace stays dependency-free.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
dora - DORA (ISPASS 2018) reproduction CLI

USAGE:
  dora train   [--quick] [--seed N] [--jobs N] --out <models.txt>
  dora inspect <models.txt>
  dora profile <page.html>
  dora predict <models.txt> (--page NAME | --html FILE)
               [--mpki X] [--util X] [--temp C] [--deadline S]
  dora govern  <models.txt> --page NAME [--kernel NAME] [--deadline S]
               [--governor dora|interactive|performance|powersave] [--trace]
               [--seed N] [--soc PROFILE]
  dora csv     --page NAME [--kernel NAME] [--governor NAME] [--jobs N]
               [--seed N] [--soc PROFILE]
  dora fleet   [<models.txt>] [--sessions N] [--shard N] [--oracle]
               [--deadline S] [--jobs N] [--seed N] [--format text|csv]
               [--quick] [--soc PROFILE]
  dora session [<models.txt>] [--pages A,B,C] [--kernel NAME]
               [--governor dora|interactive|performance|powersave]
               [--deadline S] [--seed N] [--soc PROFILE]
  dora pages
  dora kernels

Each command accepts only the flags shown for it; any other flag is an
error. Campaign and fleet commands fan scenarios out over all cores;
results are bit-identical at any width. --jobs 1 forces the classic
sequential loop. `dora fleet` streams the sampled device population
through mergeable sketches, so memory stays flat no matter how many
sessions you ask for.

--soc selects the SoC profile (msm8974, the paper's platform, or
biglittle-a15a7, a two-cluster big.LITTLE part); on multi-cluster
profiles the DORA governor searches the (cluster, frequency) product
space and migrates the browser between clusters.

Run `dora pages` / `dora kernels` to list the built-in catalog.";

fn main() -> ExitCode {
    // Exit quietly when stdout closes under us (`dora pages | head`):
    // the default Rust behaviour is a broken-pipe panic mid-print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if is_broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "train" => commands::train(rest),
        "inspect" => commands::inspect(rest),
        "profile" => commands::profile(rest),
        "predict" => commands::predict(rest),
        "govern" => commands::govern(rest),
        "csv" => commands::csv(rest),
        "fleet" => commands::fleet(rest),
        "session" => commands::session(rest),
        "pages" => commands::pages(rest),
        "kernels" => commands::kernels(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
