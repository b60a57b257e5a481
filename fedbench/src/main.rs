//! `fedbench run --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints its result as the last line of standard output;
//! `fedbench digests` regenerates the oracle digests. See `NOTES.md`.

use fedbench::oracle::{self, Digests};
use fedbench::workloads::{self, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  fedbench run --workload adhoc_cold|repeat_warm|serve_open --seed N --seconds S --trace 0|1
               [--serve-seed N] [--digests FILE]
  fedbench digests
--seed sets the link seed; the serve seed defaults to 7 (the serve mix
does not follow --seed, see NOTES.md).";

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: not a valid number: {s:?}"))
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serve_seed, mut digests_file) = (None, None);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let v = value(args, &mut i, flag)?;
        match flag {
            "--workload" => workload = Some(Workload::parse(v)?),
            "--seed" => seed = Some(number::<u64>(v, flag)?),
            "--seconds" => seconds = Some(number::<f64>(v, flag)?),
            "--trace" => {
                trace = Some(match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--serve-seed" => serve_seed = Some(number::<u64>(v, flag)?),
            "--digests" => digests_file = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
        i += 1;
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {seconds}"));
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve_seed: serve_seed.unwrap_or(workloads::DEFAULT_SERVE_SEED),
        link_seed: seed,
    };
    let tsv = match &digests_file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => oracle::DIGESTS_TSV.to_string(),
    };
    let digests = Digests::parse(&tsv)?;
    let outcome = workloads::run(&opts, &digests);
    if let Some(tracer) = &outcome.tracer {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", opts.workload.name(), seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| tracer.write_jsonl(&path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "fedbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    println!("{}", outcome.to_json());
    if outcome.errors.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("fedbench: {} correctness failure(s)", outcome.errors.len());
        Ok(ExitCode::FAILURE)
    }
}

fn regenerate(args: &[String]) -> Result<ExitCode, String> {
    if !args.is_empty() {
        return Err(USAGE.to_string());
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("digests.tsv");
    let lake = fedlake_datagen::build_lake(&fedlake_datagen::LakeConfig::default());
    let tsv = oracle::regenerate(&lake)?;
    std::fs::write(&out, tsv).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("fedbench: digests written to {}", out.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result =
        fedbench::check_hermetic(std::env::vars_os()).and_then(|()| match args.split_first() {
            Some((cmd, rest)) if cmd == "run" => bench(rest),
            Some((cmd, rest)) if cmd == "digests" => regenerate(rest),
            _ => Err(USAGE.to_string()),
        });
    result.unwrap_or_else(|e| {
        eprintln!("fedbench: {e}");
        ExitCode::from(2)
    })
}
