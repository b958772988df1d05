//! Benchmark of the ipu-sim replay stack.
//!
//! ```text
//! ipu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, single-threaded, and prints one JSON
//! result line last on stdout: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`. Diagnostics go to stderr. See
//! `perfbench/README.md` for the workloads and metrics.

mod calib;
mod checks;
mod drive;
mod measure;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use workload::{Setup, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` ({})", names.join(" | "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ipu-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let setup = Setup::new(args.workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        measure::per_layer(&setup, budget, measure::MIN_ROUNDS)
    } else {
        measure::end_to_end(&setup, budget, measure::MIN_ROUNDS)
    };
    eprintln!(
        "{} seed {} trace {}: {:.1} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        start.elapsed().as_secs_f64()
    );
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::{end_to_end, per_layer};

    /// Small scales keep every workload's passes in the millisecond range.
    fn tiny(workload: Workload, seed: u64) -> Setup {
        Setup::with_scale(workload, seed, 0.002)
    }

    fn sim_metrics(r: &measure::RunResult) -> Vec<(String, f64)> {
        r.metrics
            .iter()
            .filter(|m| m.name.starts_with("sim_"))
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    fn names(r: &measure::RunResult) -> Vec<String> {
        r.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn same_seed_gives_identical_sim_metrics() {
        for w in Workload::ALL {
            let a = end_to_end(&tiny(w, 7), Duration::ZERO, 2);
            let b = end_to_end(&tiny(w, 7), Duration::ZERO, 2);
            assert!(a.correct && b.correct, "{}", w.name());
            assert_eq!(sim_metrics(&a), sim_metrics(&b), "{}", w.name());
            assert!(
                sim_metrics(&a).iter().all(|(_, v)| *v > 0.0),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn another_seed_changes_inputs_not_metric_names() {
        for w in Workload::ALL {
            let (s7, s8) = (tiny(w, 7), tiny(w, 8));
            assert_ne!(s7.requests, s8.requests, "{}", w.name());
            let (a, b) = (
                end_to_end(&s7, Duration::ZERO, 2),
                end_to_end(&s8, Duration::ZERO, 2),
            );
            assert!(a.correct && b.correct, "{}", w.name());
            assert_eq!(names(&a), names(&b), "{}", w.name());
            assert_ne!(sim_metrics(&a), sim_metrics(&b), "{}", w.name());
        }
    }

    #[test]
    fn traced_loop_reproduces_the_program() {
        for w in Workload::ALL {
            let r = per_layer(&tiny(w, 3), Duration::ZERO, 2);
            assert!(r.correct, "{}", w.name());
            assert_eq!(r.failed, 0);
            assert!(r
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value >= 0.0));
        }
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let r = end_to_end(&tiny(Workload::WriteGc, 1), Duration::ZERO, 2);
        let v: serde_json::JsonValue = serde_json::from_str(&r.to_json()).expect("valid JSON");
        let serde_json::JsonValue::Object(top) = v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload read-mostly --seed 5 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ReadMostly, 5, 3, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload write-gc --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload write-gc --seed")).is_err());
    }
}
