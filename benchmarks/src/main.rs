//! `archperf run|compare|list|manifest|pin` — `run.sh` and `compare.sh`
//! are the front ends.

use std::path::PathBuf;
use std::process::exit;

use archperf::run::{self, Args, DEFAULT_SEED};
use archperf::{compare, metrics, workloads};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: archperf run --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--dir DIR] [--out FILE]\n\
         \x20      archperf compare A.json B.json [...]\n\
         \x20      archperf list | manifest | pin [--dir DIR]"
    );
    exit(2);
}

/// Append the run's result line, tagged with what produced it, to `path`.
fn append_record(path: &str, args: &Args, result_line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        &result_line[1..]
    )
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| usage("no command"));
    let rest: Vec<String> = argv.collect();
    match command.as_str() {
        "compare" => exit(compare::compare(&rest)),
        "list" => {
            for w in &workloads::ALL {
                println!("{}", w.name);
            }
            return;
        }
        "manifest" => {
            print!("{}", metrics::manifest());
            return;
        }
        "run" | "pin" => {}
        other => usage(&format!("unknown command {other:?}")),
    }

    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
    };
    let mut out = None;
    let mut it = rest.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--dir" => args.dir = PathBuf::from(value()),
            "--out" => out = Some(value()),
            // `--trace` alone switches tracing on; `--trace 0|1` says which.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") | Some("1") => it.next().as_deref() == Some("1"),
                    _ => true,
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    if command == "pin" {
        let members: Vec<String> = workloads::ALL
            .iter()
            .map(|w| run::pin_workload(w.name, &args.dir))
            .collect();
        println!(
            "{{\n  \"seed\": {DEFAULT_SEED},\n  \"workloads\": {{\n{}\n  }}\n}}",
            members.join(",\n")
        );
        return;
    }
    if args.workload.is_empty() {
        usage("run needs --workload");
    }
    let (code, line) = run::run(&args);
    if let (Some(path), Some(line)) = (out, line) {
        if let Err(e) = append_record(&path, &args, &line) {
            eprintln!("archperf: cannot append to {path}: {e}");
            exit(1);
        }
    }
    exit(code);
}
