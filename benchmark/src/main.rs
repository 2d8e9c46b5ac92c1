//! `sisg-repo-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! exactly `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Earlier lines carry the
//! host fingerprint, labels, checks and workload-specific results; the
//! same record, and in traced runs the span log, go to `.bench_out/`.

use sisg_repo_bench::report::{fingerprint, full_record, result_line};
use sisg_repo_bench::{run_workload, RunConfig, Scale, Workload};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: sisg-repo-bench --workload <warm_cached|cold_ann|daily_refresh> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("--seconds takes a positive number")),
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let cfg = RunConfig {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
        scale: Scale::full(),
    };
    let host = fingerprint(cfg.seed);
    let mut outcome = run_workload(&cfg);
    for (k, v) in host.iter().chain(&outcome.labels) {
        println!("# {k}: {v}");
    }
    for c in &outcome.checks {
        println!(
            "# check {}: {} ({})",
            if c.pass { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    for n in &outcome.notes {
        println!("# {n}");
    }
    let listed = if cfg.traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in listed.iter().chain(&outcome.workload_metrics) {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }

    let name = cfg.workload.name();
    let dir = PathBuf::from(".bench_out");
    let stem = format!("{name}-seed{}-trace{}", cfg.seed, u8::from(cfg.traced));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.json")),
            full_record(name, cfg.traced, &host, &outcome),
        )
    });
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.display());
    }
    if let Some(tracer) = outcome.tracer.take() {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "# spans: {} written to {} ({} over the cap not kept)",
                tracer.len(),
                path.display(),
                tracer.dropped()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result_line(&outcome, listed));
}
