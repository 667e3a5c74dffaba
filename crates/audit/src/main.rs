//! CLI for the workspace audit. Exit codes: 0 clean, 1 violations,
//! 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use tahoma_audit::run_audit;

fn usage() -> &'static str {
    "usage: tahoma-audit [--root PATH]\n\
     \n\
     Lints every .rs file in the workspace (deny by default; see SAFETY.md).\n\
     --root   workspace root (default: discovered from the current directory)\n"
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return fail("--root requires a path"),
            },
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match tahoma_audit::workspace::find_root(&cwd) {
                Some(r) => r,
                None => return fail("no workspace root found above the current directory"),
            }
        }
    };

    match run_audit(&root) {
        Ok(report) => {
            print!("{}", report.human());
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(&format!("audit failed to read sources: {e}")),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("tahoma-audit: {msg}");
    eprint!("{}", usage());
    ExitCode::from(2)
}
