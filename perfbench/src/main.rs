//! End-to-end federation benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_shift|net_loopback \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats passes of one workload (see [`workloads`]) from a cold
//! start until `--seconds` have passed, with at least two passes, so the
//! second pass checks that the same seed reproduces the first exactly.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced passes, prints the per-layer metrics of the traced
//! passes with the tracing overhead, and writes every span to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 when every output check passed, 1 when one failed,
//! and 2 on a usage error.

mod place;
mod probe;
mod report;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

use probe::Clock;
use report::{
    by_sub_scenario, end_to_end, per_layer, quality, round_of, rounds_per_s, Metric, SubRun,
};
use workloads::{Pass, Workload, SUB_SCENARIOS};

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A pass, or the sub-scenario and panic message of one that did not
/// finish.
type Attempt = Result<Pass, (usize, String)>;

/// The order of a run's passes. Passes cycle through the sub-scenarios
/// from the first.
///
/// An untraced run makes at least one pass more than there are
/// sub-scenarios, so one of them runs twice and must reproduce itself. A
/// traced run makes each sub-scenario's passes in pairs, untraced then
/// traced, so both sides of the overhead see the same host speed and
/// every traced pass has an untraced twin to reproduce.
///
/// A networked workload evaluates offline once per sub-scenario, in an
/// untraced pass. An untraced run does it in its second cycle, after the
/// peak RSS of the first was read, so the evaluation's resident population
/// and kept models are not counted as the program's memory.
///
/// Consecutive passes (pairs, when traced) start on the allowed CPUs in
/// turn, shifted by one each cycle so every sub-scenario visits every CPU
/// (see [`place`]).
#[derive(Debug, Clone)]
struct Schedule {
    trace: bool,
    networked: bool,
    cpus: Vec<usize>,
}

/// What one pass of a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    sub: usize,
    traced: bool,
    evaluate: bool,
    /// The CPU to start the pass on, if any.
    cpu: Option<usize>,
}

impl Schedule {
    /// The schedule of `args` on a host that lets this process run on
    /// `cpus`.
    fn new(args: &Args, cpus: Vec<usize>) -> Self {
        Self {
            trace: args.trace,
            networked: args.workload.networked(),
            cpus,
        }
    }

    /// Passes per sub-scenario in one cycle.
    fn per_sub(&self) -> usize {
        if self.trace {
            2
        } else {
            1
        }
    }

    /// Passes a run makes however short its time.
    fn min_passes(&self) -> usize {
        let k = SUB_SCENARIOS;
        match (self.trace, self.networked) {
            (false, false) => k + 1,
            _ => 2 * k,
        }
    }

    /// The `n`-th pass (0-based).
    fn slot(&self, n: usize) -> Slot {
        let cycle = n / (self.per_sub() * SUB_SCENARIOS);
        let sub = n / self.per_sub() % SUB_SCENARIOS;
        let traced = self.trace && n % 2 == 1;
        let eval_cycle = usize::from(!self.trace);
        Slot {
            sub,
            traced,
            evaluate: self.networked && !traced && cycle == eval_cycle,
            cpu: (!self.cpus.is_empty()).then(|| self.cpus[(sub + cycle) % self.cpus.len()]),
        }
    }
}

/// Runs passes in [`Schedule`] order, on the CPUs it names while moving
/// threads works, until at least its minimum was made
/// and another pass would end further past `--seconds` than stopping now
/// falls short of it. Stops at the first pass that panics. Returns the
/// passes and the peak RSS, read before the first pass that evaluates
/// offline (at the end when none did).
fn run_passes(args: &Args) -> (Vec<Attempt>, Option<f64>) {
    let clock = Clock::start();
    let schedule = Schedule::new(args, place::allowed_cpus());
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut rss = None;
    let mut moving = true;
    loop {
        let elapsed = clock.now();
        if attempts.len() >= schedule.min_passes() {
            let per_pass = elapsed / attempts.len() as f64;
            if elapsed + per_pass / 2.0 >= args.seconds {
                break;
            }
        }
        let Slot {
            sub,
            traced,
            evaluate,
            cpu,
        } = schedule.slot(attempts.len());
        if let (Some(cpu), true) = (cpu, moving) {
            moving = place::move_to(cpu);
            if !moving {
                println!("# passes stay on one CPU: the thread could not be moved");
            }
        }
        if evaluate && rss.is_none() {
            rss = Some(peak_rss_mb());
        }
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            args.workload.pass(args.seed, sub, traced, evaluate)
        }))
        .map_err(|panic| {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            (sub, message)
        });
        let failed = attempt.is_err();
        attempts.push(attempt);
        if failed {
            break;
        }
    }
    (attempts, rss.unwrap_or_else(peak_rss_mb))
}

/// The finished passes of `attempts` that were (or were not) traced.
fn finished(attempts: &[Attempt], traced: bool) -> Vec<&Pass> {
    attempts
        .iter()
        .filter_map(|a| a.as_ref().ok())
        .filter(|p| p.traced == traced)
        .collect()
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU model, core count and compiler of this build, for provenance.
fn host_fingerprint() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {}",
        json_string(&cpu),
        json_string(env!("PERFBENCH_RUSTC_VERSION"))
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes every span of the traced passes as JSON lines.
fn write_spans(path: &Path, passes: &[&Pass]) -> std::io::Result<()> {
    let mut out = String::new();
    for (k, pass) in passes.iter().enumerate() {
        let tl = &pass.timeline;
        let rounds = tl.rounds.iter().map(|&(s, e)| ("round", s, e));
        let spans = tl.spans.iter().map(|s| (s.name, s.start, s.end));
        let steps = pass
            .worker_steps
            .iter()
            .map(|&(s, e)| ("worker_step", s, e));
        for (name, start, end) in rounds.chain(spans).chain(steps) {
            let round =
                round_of(&tl.rounds, start).map_or_else(|| "null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"pass\": {k}, \"name\": \"{name}\", \"round\": {round}, \
                 \"start_ms\": {}, \"end_ms\": {}}}",
                start * 1e3,
                end * 1e3
            );
        }
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, out)
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a value is already a
            // failed check.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!(
        "# provenance: {{{}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        host_fingerprint(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let k = SUB_SCENARIOS;
    let (attempts, rss) = run_passes(&args);

    let mut errors: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let first_of = |sub: usize| {
        attempts
            .iter()
            .find_map(|a| a.as_ref().ok().filter(|p| p.sub == sub))
    };
    for (i, attempt) in attempts.iter().enumerate() {
        match attempt {
            Ok(pass) => {
                let mut pass_errors = pass.errors.clone();
                if first_of(pass.sub).is_some_and(|first| !first.same_outputs(pass)) {
                    pass_errors.push(format!(
                        "pass {i} did not reproduce sub-scenario {}",
                        pass.sub
                    ));
                }
                attempted += pass.attempted;
                failed += if pass_errors.is_empty() {
                    pass.unscheduled_losses
                } else {
                    pass.attempted
                };
                errors.extend(pass_errors);
            }
            Err((sub, panic)) => {
                // The uploads of a pass that never finished are all failed;
                // their number is its sub-scenario's, or at least one.
                let lost = first_of(*sub).map_or(1, |p| p.attempted.max(1));
                attempted += lost;
                failed += lost;
                errors.push(format!("pass {i} panicked: {panic}"));
            }
        }
    }

    let untraced = by_sub_scenario(&finished(&attempts, false));
    let traced = by_sub_scenario(&finished(&attempts, true));
    let metrics = if untraced.len() < k || (args.trace && traced.len() < k) {
        errors.push("not every sub-scenario finished a pass".to_string());
        Vec::new()
    } else {
        // Accuracy is checked on the untraced passes; traced passes are
        // checked to reproduce them exactly.
        let untraced: Vec<SubRun> = untraced.into_iter().map(SubRun::new).collect();
        for sub in &untraced {
            errors.extend(sub.quality.errors());
        }
        let (quality_metrics, quality_errors) = quality(&untraced);
        errors.extend(quality_errors);
        if args.trace {
            let untraced: Vec<Vec<&Pass>> = untraced.into_iter().map(|s| s.passes).collect();
            let (before, after) = (rounds_per_s(&untraced), rounds_per_s(&traced));
            let overhead = if after > 0.0 {
                (before / after - 1.0) * 100.0
            } else {
                0.0
            };
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!(
                    "trace-{}-{}.jsonl",
                    args.workload.name(),
                    args.seed
                ));
            match write_spans(&path, &traced.concat()) {
                Ok(()) => println!("# spans: {}", path.display()),
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
            let mut metrics = per_layer(&traced, overhead);
            metrics.extend(quality_metrics);
            metrics
        } else {
            let rss = rss.unwrap_or_else(|| {
                errors.push("peak RSS is unavailable".to_string());
                0.0
            });
            let (metrics, metric_errors) = end_to_end(&untraced, rss);
            errors.extend(metric_errors);
            for m in &quality_metrics {
                println!("# {:<32} {:>16.4} {}", m.name, m.value, m.unit);
            }
            let passes: Vec<&Pass> = untraced.iter().flat_map(|s| s.passes.clone()).collect();
            let rounds: usize = passes.iter().map(|p| p.rounds()).sum();
            println!(
                "# samples: {} passes over {k} sub-scenarios, {rounds} rounds",
                passes.len()
            );
            metrics
        }
    };

    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("{} is not a finite number", m.name));
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = errors.is_empty();
    print_result(correct, attempted.max(1), failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&argv(
            "--workload net_loopback --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload, Workload::NetLoopback);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 12.0);
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload paper_shift",
            "--workload paper_shift --seed x",
            "--workload paper_shift --seed 1 --trace 2",
            "--workload paper_shift --seed 1 --seconds 0",
            "--workload paper_shift --seed 1 --bogus 1",
            "--workload paper_shift --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// `(sub, traced, evaluate, cpu)` of a run's first passes on a
    /// 2-CPU host.
    fn slots(workload: &str, trace: u8) -> Vec<(usize, bool, bool, Option<usize>)> {
        let cmd = format!("--workload {workload} --seed 1 --trace {trace}");
        let schedule = Schedule::new(&parse_args(&argv(&cmd)).unwrap(), vec![0, 1]);
        (0..schedule.min_passes() + 2)
            .map(|n| {
                let s = schedule.slot(n);
                (s.sub, s.traced, s.evaluate, s.cpu)
            })
            .collect()
    }

    #[test]
    fn untraced_in_process_runs_repeat_a_sub_scenario_on_the_other_cpu() {
        let want = [(0, 0), (1, 1), (2, 0), (3, 1), (0, 1), (1, 0), (2, 1)];
        assert_eq!(
            slots("paper_shift", 0),
            want.map(|(sub, cpu)| (sub, false, false, Some(cpu)))
        );
    }

    #[test]
    fn untraced_net_runs_evaluate_in_the_second_cycle() {
        let cycle = |c: usize, evaluate: bool| {
            (0..4).map(move |sub| (sub, false, evaluate, Some((sub + c) % 2)))
        };
        let want: Vec<_> = cycle(0, false)
            .chain(cycle(1, true))
            .chain(cycle(2, false).take(2))
            .collect();
        assert_eq!(slots("net_loopback", 0), want);
    }

    #[test]
    fn traced_runs_pair_each_untraced_pass_with_a_traced_twin() {
        let pair = |sub: usize, cpu: usize, evaluate: bool| {
            [
                (sub, false, evaluate, Some(cpu)),
                (sub, true, false, Some(cpu)),
            ]
        };
        // The second cycle starts on the other CPU.
        let want = [(0, 0), (1, 1), (2, 0), (3, 1), (0, 1)]
            .into_iter()
            .flat_map(|(sub, cpu)| pair(sub, cpu, false))
            .collect::<Vec<_>>();
        assert_eq!(slots("paper_shift", 1), want);
        let want = [(0, 0), (1, 1), (2, 0), (3, 1)]
            .into_iter()
            .flat_map(|(sub, cpu)| pair(sub, cpu, true))
            .chain(pair(0, 1, false))
            .collect::<Vec<_>>();
        assert_eq!(slots("net_loopback", 1), want);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
