//! The `tahoma-serve` binary: stand up a query service over a synthetic
//! fixture and serve the line protocol on TCP.
//!
//! ```text
//! tahoma-serve [--addr HOST:PORT] [--backend surrogate|nn]
//!              [--kinds fence,wallet,...] [--corpus N] [--seed S]
//!              [--workers N] [--queue N] [--store-dir DIR]
//!              [--verify-on-open] [--deadline-ms N]
//! ```
//!
//! `--store-dir` (NN backend only) keeps the frame store's segment files
//! under DIR; a compatible existing store is reopened without
//! re-ingesting. Without it the store is temporary: its files live in a
//! directory removed at boot, are deleted at exit, and are never
//! reopened. `--verify-on-open` sweeps every stored record's CRC at boot
//! and quarantines (rather than boot-fails on) corrupt ones — they serve
//! through the transcode-from-source degradation path and are counted in
//! `STATS`. `--deadline-ms` applies a server-side
//! deadline to every plain `QUERY`/`QUERYU` (clients can always set a
//! per-request one with the `DEADLINE` verb).
//!
//! Prints `listening on ADDR` once ready (the CI smoke job greps for it),
//! then runs until a client sends `SHUTDOWN`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::process::exit;
use std::sync::Arc;
use tahoma_imagery::ObjectKind;
use tahoma_serve::fixture::{nn_service, surrogate_service, NnFixtureConfig};
use tahoma_serve::{serve, ServerConfig};

struct Args {
    addr: String,
    backend: String,
    kinds: Vec<ObjectKind>,
    corpus: usize,
    seed: u64,
    workers: usize,
    queue: usize,
    store_dir: Option<std::path::PathBuf>,
    verify_on_open: bool,
    deadline_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tahoma-serve [--addr HOST:PORT] [--backend surrogate|nn] \
         [--kinds fence,wallet,...] [--corpus N] [--seed S] [--workers N] [--queue N] \
         [--store-dir DIR] [--verify-on-open] [--deadline-ms N]"
    );
    exit(2);
}

impl Default for Args {
    fn default() -> Args {
        Args {
            addr: "127.0.0.1:7343".to_string(),
            backend: "surrogate".to_string(),
            kinds: vec![ObjectKind::Fence, ObjectKind::Wallet],
            corpus: 1024,
            seed: 0x7A40,
            workers: 4,
            queue: 32,
            store_dir: None,
            verify_on_open: false,
            deadline_ms: None,
        }
    }
}

/// Flag combinations that parse but cannot boot, as an `ERR`-style line.
fn check_args(args: &Args) -> Result<(), String> {
    if args.backend == "nn" && args.corpus == 0 {
        return Err("ERR usage: --backend nn needs --corpus >= 1 (its decision \
                    thresholds are calibrated from the corpus's own scores)"
            .to_string());
    }
    Ok(())
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => args.addr = val(),
            "--backend" => args.backend = val(),
            "--kinds" => {
                args.kinds = val()
                    .split(',')
                    .map(|name| {
                        ObjectKind::from_name(name.trim()).unwrap_or_else(|| {
                            eprintln!("unknown object kind: {name}");
                            exit(2);
                        })
                    })
                    .collect();
            }
            "--corpus" => args.corpus = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = val().parse().unwrap_or_else(|_| usage()),
            "--queue" => args.queue = val().parse().unwrap_or_else(|_| usage()),
            "--store-dir" => args.store_dir = Some(val().into()),
            "--verify-on-open" => args.verify_on_open = true,
            "--deadline-ms" => {
                let ms: u64 = val().parse().unwrap_or_else(|_| usage());
                if ms == 0 {
                    usage();
                }
                args.deadline_ms = Some(ms);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if args.kinds.is_empty() {
        usage();
    }
    if let Err(msg) = check_args(&args) {
        eprintln!("{msg}");
        exit(2);
    }
    args
}

fn main() {
    let args = parse_args();
    eprintln!(
        "building {} service: kinds={:?} corpus={} seed={}",
        args.backend, args.kinds, args.corpus, args.seed
    );
    let service = match args.backend.as_str() {
        "surrogate" => {
            if args.store_dir.is_some() || args.verify_on_open {
                eprintln!("--store-dir / --verify-on-open only apply to the nn backend");
                usage();
            }
            surrogate_service(&args.kinds, args.corpus, args.seed)
        }
        "nn" => nn_service(&NnFixtureConfig {
            kinds: args.kinds.clone(),
            corpus_n: args.corpus,
            seed: args.seed,
            store_dir: args.store_dir.clone(),
            verify_on_open: args.verify_on_open,
            ..Default::default()
        }),
        other => {
            eprintln!("unknown backend: {other}");
            usage();
        }
    };
    let handle = serve(
        Arc::new(service),
        ServerConfig {
            addr: args.addr,
            workers: args.workers,
            queue_cap: args.queue,
            stream_seed: args.seed,
            default_deadline_ms: args.deadline_ms,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("bind failed: {e}");
        exit(1);
    });
    println!("listening on {}", handle.addr());
    handle.join();
    eprintln!("shutdown complete");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nn_backend_rejects_an_empty_corpus_before_boot() {
        let nn = |corpus| Args {
            backend: "nn".to_string(),
            corpus,
            ..Args::default()
        };
        let err = check_args(&nn(0)).unwrap_err();
        assert!(err.starts_with("ERR ") && err.contains("--corpus"), "{err}");
        assert!(check_args(&nn(1)).is_ok());
        assert!(check_args(&Args::default()).is_ok());
    }
}
