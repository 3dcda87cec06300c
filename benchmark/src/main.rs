//! `ccbench`: the repository's benchmark. Four closed-loop workloads over
//! the public API of `cc-core`, `cc-compress` and `cc-server`; seven
//! end-to-end metrics per workload; a traced run that attributes time to
//! layers from the outside. See `README.md` beside this package.

mod bench;
mod driver;
mod medium;
mod pages;
mod probes;
mod report;
mod rng;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use report::{value_in, END_TO_END};
use run::Size;
use stats::{median, quartiles};
use std::process::{Command, ExitCode};
use workload::{Spec, DESIGN_SECONDS, WORKLOADS};

const USAGE: &str = "\
usage: ccbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick] [--aa N]

  --workload NAME  one of store_hot_read, store_put_codec, store_spill_churn,
                   wire_pipelined; without it, all four run, one process each
  --seed N         seed of the page pool and the operation stream (default 1)
  --seconds N      scale the fixed work so the rounds take about N seconds
                   (default 16: 100 rounds of about 0.15 s)
  --trace 0|1      0: end-to-end metrics (default); 1: the traced run and the
                   per-layer metrics, spans written to benchmark/out/
  --quick          3 short rounds, one set-up; no bounds or design points apply
  --aa N           N sets of the four workloads back to back, order alternating,
                   then the spread of every end-to-end metric against its bound

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero on a wrong byte, a
budget overshoot, or (traced) a workload off its design point.";

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DESIGN_SECONDS,
        trace: false,
        quick: false,
        aa: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(workload::by_name(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => {
                args.seconds = number(value()?)?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => {
                let n = number(value()?)? as usize;
                if n < 2 {
                    return Err("--aa needs at least 2 sets".into());
                }
                args.aa = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.aa.is_some() && (args.workload.is_some() || args.trace || args.quick) {
        return Err("--aa runs full untraced sets of every workload; drop the other flags".into());
    }
    Ok(args)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in this process and print its result line last.
fn run_one(spec: &'static Spec, args: &Args) -> ExitCode {
    let size = if args.quick {
        Size::quick(spec)
    } else {
        Size::for_seconds(spec, args.seconds)
    };
    let outcome = if args.trace {
        run::traced(spec, args.seed, size)
    } else {
        run::untraced(spec, args.seed, size)
    };
    print!("{}", outcome.table(args.trace));
    println!("{}", outcome.result_line(args.trace));
    exit_code(outcome.correct)
}

/// Run one workload in a child process (so its peak memory is its own),
/// echo what it printed, and hand back its result line.
fn run_child(spec: &Spec, seed: u64, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{} exited with {}", spec.name, out.status));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("{} printed nothing", spec.name))
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for spec in &WORKLOADS {
        if let Err(e) = run_child(spec, args.seed, args) {
            eprintln!("ccbench: {e}");
            ok = false;
        }
    }
    exit_code(ok)
}

/// `sets` runs of every workload, then per (workload, metric): median,
/// quartiles, quartile distance and range as shares of the median, and the
/// bound the quartile distance must stay inside.
fn run_aa(sets: usize, args: &Args) -> ExitCode {
    // values[workload][metric] = one value per set
    let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()];
    for set in 0..sets {
        // Alternate the order so no workload always runs after the same
        // neighbour; a new seed each set, as a change's runs would use.
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let line = match run_child(&WORKLOADS[w], args.seed + set as u64, args) {
                Ok(line) => line,
                Err(e) => {
                    eprintln!("ccbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for (m, metric) in END_TO_END.iter().enumerate() {
                match value_in(&line, metric.name) {
                    Some(v) => values[w][m].push(v),
                    None => {
                        eprintln!("ccbench: {} printed no {}", WORKLOADS[w].name, metric.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    println!(
        "\nA/A over {sets} sets (seeds {}..{})",
        args.seed,
        args.seed + sets as u64 - 1
    );
    println!(
        "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | range/median | bound | within |\n\
         |---|---|---|---|---|---|---|---|---|---|"
    );
    let mut within_all = true;
    for (w, spec) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let range = v.iter().copied().fold(0.0, f64::max)
                - v.iter().copied().fold(f64::INFINITY, f64::min);
            // The driver's own test: the distance between the quartiles,
            // as a share of the median, stays inside the bound.
            let within = (q3 - q1) / med <= metric.bound;
            within_all &= within;
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.2}% | {:.2}% | {:.0}% | {} |",
                spec.name,
                metric.name,
                metric.unit,
                med,
                q1,
                q3,
                100.0 * (q3 - q1) / med,
                100.0 * range / med,
                100.0 * metric.bound,
                if within { "yes" } else { "NO" },
            );
        }
    }
    exit_code(within_all)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ccbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.aa, args.workload) {
        (Some(sets), _) => run_aa(sets, &args),
        (None, Some(spec)) => run_one(spec, &args),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse("--workload store_spill_churn --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "store_spill_churn");
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 15, true, false));
        let d = parse("").unwrap();
        assert!(d.workload.is_none() && !d.trace && d.seed == 1 && d.seconds == DESIGN_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--aa 1",
            "--aa 3 --quick",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
