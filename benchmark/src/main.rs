//! `tahoma-loadgen`: the socket-level benchmark for `tahoma-serve`.
//! `run.sh` builds both binaries and calls this; see `README.md`.

mod calibrate;
mod e2e;
mod layers;
mod ops;
mod procfs;
mod reply;
mod report;
mod server;
mod stats;
mod trace;

use e2e::Env;
use ops::Workload;
use report::Report;
use server::TempRoot;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh [--workload scan|lookup|dashboards|standing] [--seed N] \
[--seconds N] [--trace 0|1] [--calibrate]";

struct Args {
    server_bin: PathBuf,
    out_dir: PathBuf,
    tmp_dir: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server_bin: PathBuf::new(),
        out_dir: PathBuf::new(),
        tmp_dir: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 30,
        traced: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--server-bin" => args.server_bin = value()?.into(),
            "--out-dir" => args.out_dir = value()?.into(),
            "--tmp-dir" => args.tmp_dir = value()?.into(),
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.traced = number(value()?)? != 0,
            "--calibrate" => args.calibrate = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.server_bin.as_os_str().is_empty()
        || args.out_dir.as_os_str().is_empty()
        || args.tmp_dir.as_os_str().is_empty()
    {
        return Err("--server-bin, --out-dir and --tmp-dir are required (run.sh sets them)".into());
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(args)
}

fn run_one(env: &Env, args: &Args, w: Workload) -> Result<Report, String> {
    if args.traced {
        layers::run(env, w, args.seed, args.seconds, &args.out_dir)
    } else {
        e2e::run(env, w, args.seed, args.seconds)
    }
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let env = Env {
        server_bin: args.server_bin.clone(),
        tmp: TempRoot::create(args.tmp_dir.clone())?,
    };
    if args.calibrate {
        let manifest_dir = args.out_dir.parent().ok_or("--out-dir has no parent")?;
        return calibrate::run(&env, args.seconds, &manifest_dir.join("NOISE.md"));
    }
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    for &w in &workloads {
        let report = run_one(&env, args, w)?;
        report.print_human();
        println!("{}", report.json_line(workloads.len() > 1)?);
        all_correct &= report.correct();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `run` returns only after every guard (server children, the scratch
    // directory) has been dropped.
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: at least one op or check failed (see PROBLEM lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
