//! CLI entry point: `cargo run -p setstream-analyze [-- --root <path>]`.
//!
//! Exit codes: `0` clean, `1` diagnostics reported, `2` usage/IO error.

use setstream_analyze::{analyze, loc_by_crate, render, render_json, waiver_count, Config};
use std::path::PathBuf;

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut quiet = false;
    let mut fixture = false;
    let mut json = false;
    let mut waivers = false;
    let mut loc = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return 2;
                }
            },
            "--quiet" | "-q" => quiet = true,
            "--fixture" => fixture = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => {
                    eprintln!("--format needs `text` or `json`");
                    return 2;
                }
            },
            "--waivers" => waivers = true,
            "--loc" => loc = true,
            "--help" | "-h" => {
                println!(
                    "setstream-analyze: workspace invariant analyzer\n\
                     \n\
                     USAGE: setstream-analyze [--root <workspace>] [--quiet] [--fixture]\n\
                     \x20                        [--format text|json] [--waivers] [--loc]\n\
                     \n\
                     --fixture treats --root as a single fixture mini-crate and prints\n\
                     bare diagnostics (used to regenerate the golden files under\n\
                     tests/fixtures).\n\
                     --format json prints findings as a JSON array of\n\
                     {{code, path, line, message}} objects.\n\
                     --waivers prints the count of well-formed `analyze: allow(...)`\n\
                     comments and exits 0 (the tier-1 ratchet input).\n\
                     --loc prints `<crate> <lines>` per crate: non-test code lines\n\
                     (blank, comment-only and literal-only lines do not count)\n\
                     and exits 0 (the tier-1 line ratchet input).\n\
                     \n\
                     Runs rules A01-A12 over the workspace crates (see DESIGN.md §8).\n\
                     Exit 0 = clean, 1 = findings, 2 = usage/IO error."
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return 2;
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("could not locate the workspace root (no Cargo.toml with [workspace] above the current directory); pass --root");
                return 2;
            }
        },
    };
    let config = if fixture { Config::fixture(&root) } else { Config::workspace(&root) };
    if loc {
        return match loc_by_crate(&config) {
            Ok(counts) => {
                for (name, lines) in counts {
                    println!("{name} {lines}");
                }
                0
            }
            Err(e) => {
                eprintln!("setstream-analyze: {e}");
                2
            }
        };
    }
    if waivers {
        return match waiver_count(&config) {
            Ok(n) => {
                println!("{n}");
                0
            }
            Err(e) => {
                eprintln!("setstream-analyze: {e}");
                2
            }
        };
    }
    match analyze(&config) {
        Ok(diags) if diags.is_empty() => {
            if json {
                print!("{}", render_json(&diags));
            } else if !quiet && !fixture {
                println!("setstream-analyze: workspace clean (rules A01-A12)");
            }
            0
        }
        Ok(diags) => {
            if json {
                print!("{}", render_json(&diags));
            } else {
                print!("{}", render(&diags));
                if !fixture {
                    println!("setstream-analyze: {} finding(s)", diags.len());
                }
            }
            1
        }
        Err(e) => {
            eprintln!("setstream-analyze: {e}");
            2
        }
    }
}

/// Walk up from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
