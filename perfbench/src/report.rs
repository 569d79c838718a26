//! Turns passes into the benchmark's metrics.

use crate::probe::Span;
use crate::stats::{mean, self_time, weighted_percentile};
use crate::workloads::{Output, Pass};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // An empty float sum is −0; report it as 0.
        value: value + 0.0,
        unit,
    }
}

/// End-to-end metrics `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Quality metrics `(name, unit)`: recovery (the paper's metric, in wall
/// time and in rounds), final accuracy and metered bytes per round. For
/// one scenario they are fixed (recovery wall time aside), but how many
/// experts ShiftEx spawns and how fast accuracy returns differ between
/// scenarios by more than any bound a run-to-run gate could use, so they
/// are reported with the per-layer metrics, without a bound.
pub const QUALITY: [(&str, &str); 4] = [
    ("recovery_s", "s"),
    ("recovery_rounds", "rounds"),
    ("final_acc_pct", "%"),
    ("wire_kb_per_round", "kB"),
];

/// Layers timed as spans; each reports `<layer>.calls` and
/// `<layer>.busy_ms` per pass.
pub const SPAN_LAYERS: [&str; 11] = [
    "init",
    "begin_window",
    "cohort",
    "local_step",
    "fold",
    "end_round",
    "eval",
    "round",
    "exchange",
    "round_complete",
    "worker_step",
];

/// Spans that sit inside a round; the rest of the round is its self time.
const ROUND_CHILDREN: [&str; 7] = [
    "cohort",
    "local_step",
    "fold",
    "end_round",
    "eval",
    "exchange",
    "round_complete",
];

/// Per-layer metrics besides `<layer>.calls` / `<layer>.busy_ms`.
pub const LAYER_EXTRAS: [(&str, &str); 20] = [
    ("round.self_ms", "ms"),
    ("exchange.self_ms", "ms"),
    ("fold.quarantine_ratio", "ratio"),
    ("eval.parties", "count"),
    ("population.materializations", "count"),
    ("population.peak_cohort", "count"),
    ("comm.up_bytes", "B"),
    ("comm.down_bytes", "B"),
    ("comm.first_contact_down_bytes", "B"),
    ("comm.join_chunk_down_bytes", "B"),
    ("comm.aborted_up_bytes", "B"),
    ("comm.quarantined_updates", "count"),
    ("scenario.delivered_ratio", "ratio"),
    ("net.wire_out_bytes", "B"),
    ("net.wire_in_bytes", "B"),
    ("net.wire_overhead_ratio", "ratio"),
    ("net.deadline_misses", "count"),
    ("net.dead_conns", "count"),
    ("net.lost_uploads", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric `(name, unit)`, in report order.
#[cfg(test)]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for layer in SPAN_LAYERS {
        names.push((format!("{layer}.calls"), "count"));
        names.push((format!("{layer}.busy_ms"), "ms"));
    }
    names.extend(LAYER_EXTRAS.iter().map(|&(n, u)| (n.to_string(), u)));
    names.extend(QUALITY.iter().map(|&(n, u)| (n.to_string(), u)));
    names
}

/// Where a recovery interval starts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Anchor {
    /// `begin_window` entry of window shift `i` (0-based).
    Shift(usize),
    /// End of set-up (the first round's start).
    RoundsStart,
}

/// Where a recovery interval ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Until {
    /// Exit of the post-shift eval of window shift `i`: no round needed.
    ShiftEval(usize),
    /// End of round `i` (0-based, over the whole pass).
    Round(usize),
}

/// One recovery: from an anchor to the end of the round where accuracy
/// first reached its target, and that round count.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Recovery {
    from: Anchor,
    until: Until,
    rounds: usize,
}

/// Quality of a sub-scenario, from the first pass that has its accuracy:
/// fixed for a given scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// Accuracy after every round, in percent.
    pub accuracy_pct: Vec<f64>,
    recoveries: Vec<Recovery>,
}

impl Quality {
    /// Derives the quality figures of `reference`.
    ///
    /// The in-process workload uses the paper's recovery time: rounds from a
    /// window shift until accuracy first reaches 95 % of its pre-shift
    /// value (a window that never gets there counts its whole budget).
    /// `net_loopback` has no shift, so its recovery runs from the cold
    /// start until accuracy first reaches 95 % of the session's final
    /// accuracy.
    pub fn of(reference: &Pass) -> Quality {
        match &reference.output {
            Output::Sim {
                result,
                bootstrap,
                per_window,
            } => {
                let recoveries = result
                    .windows
                    .iter()
                    .enumerate()
                    .map(|(w, m)| {
                        let first = bootstrap + w * per_window;
                        match m.recovery_rounds {
                            Some(0) => Recovery {
                                from: Anchor::Shift(w),
                                until: Until::ShiftEval(w),
                                rounds: 0,
                            },
                            Some(k) => Recovery {
                                from: Anchor::Shift(w),
                                until: Until::Round(first + k - 1),
                                rounds: k,
                            },
                            None => Recovery {
                                from: Anchor::Shift(w),
                                until: Until::Round(first + per_window - 1),
                                rounds: *per_window,
                            },
                        }
                    })
                    .collect();
                Quality {
                    accuracy_pct: pct(&result.accuracy_series),
                    recoveries,
                }
            }
            Output::Net { accuracy, .. } => {
                let target = 0.95 * accuracy.last().copied().unwrap_or(0.0);
                let k = accuracy
                    .iter()
                    .position(|&a| a >= target)
                    .unwrap_or(accuracy.len().saturating_sub(1));
                Quality {
                    accuracy_pct: pct(accuracy),
                    recoveries: vec![Recovery {
                        from: Anchor::RoundsStart,
                        until: Until::Round(k),
                        rounds: k + 1,
                    }],
                }
            }
        }
    }

    /// Problems with the accuracy series (empty, non-finite, or outside
    /// `[0, 100]` %).
    pub fn errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if self.accuracy_pct.is_empty() {
            errors.push("no accuracy was recorded".to_string());
        }
        if let Some(bad) = self
            .accuracy_pct
            .iter()
            .find(|a| !(0.0..=100.0).contains(*a))
        {
            errors.push(format!("accuracy {bad} % is outside [0, 100]"));
        }
        errors
    }

    /// Seconds each recovery took in `pass`, when its timeline has the
    /// points the recovery needs.
    fn recovery_seconds(&self, pass: &Pass) -> Vec<Option<f64>> {
        let tl = &pass.timeline;
        self.recoveries
            .iter()
            .map(|r| {
                let from = match r.from {
                    Anchor::Shift(w) => tl.shifts.get(w)?.0,
                    Anchor::RoundsStart => tl.rounds_start?,
                };
                let until = match r.until {
                    Until::ShiftEval(w) => tl.shifts.get(w)?.1,
                    Until::Round(i) => tl.rounds.get(i)?.1,
                };
                Some(until - from)
            })
            .collect()
    }
}

fn pct(series: &[f32]) -> Vec<f64> {
    series.iter().map(|&a| f64::from(a) * 100.0).collect()
}

/// Groups `passes` by sub-scenario, in sub-scenario order.
pub fn by_sub_scenario<'a>(passes: &[&'a Pass]) -> Vec<Vec<&'a Pass>> {
    let mut subs: Vec<usize> = passes.iter().map(|p| p.sub).collect();
    subs.sort_unstable();
    subs.dedup();
    subs.into_iter()
        .map(|sub| passes.iter().copied().filter(|p| p.sub == sub).collect())
        .collect()
}

/// The passes of one sub-scenario and its quality.
#[derive(Debug)]
pub struct SubRun<'a> {
    /// Passes of the sub-scenario, in run order.
    pub passes: Vec<&'a Pass>,
    /// Quality of the first pass that has its accuracy.
    pub quality: Quality,
}

impl<'a> SubRun<'a> {
    /// Wraps one sub-scenario's passes (at least one).
    pub fn new(passes: Vec<&'a Pass>) -> Self {
        let reference = passes
            .iter()
            .find(|p| p.has_accuracy())
            .unwrap_or(&passes[0]);
        let quality = Quality::of(reference);
        Self { passes, quality }
    }
}

/// Mean over sub-scenarios of `f`, so each sub-scenario weighs the same
/// however many passes it got.
fn per_sub<T>(subs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&subs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// `(value, weight)` samples of `f` over every pass, each pass weighted
/// by the inverse of its sub-scenario's pass count.
fn weighted<I: IntoIterator<Item = f64>>(
    subs: &[SubRun],
    f: impl Fn(&Pass) -> I,
) -> Vec<(f64, f64)> {
    let mut samples = Vec::new();
    for sub in subs {
        let w = 1.0 / sub.passes.len() as f64;
        for &p in &sub.passes {
            samples.extend(f(p).into_iter().map(|v| (v, w)));
        }
    }
    samples
}

/// Rounds per second of post-set-up run time, pooled per sub-scenario and
/// averaged over sub-scenarios.
pub fn rounds_per_s(subs: &[Vec<&Pass>]) -> f64 {
    per_sub(subs, |passes| {
        let rounds: usize = passes.iter().map(|p| p.rounds()).sum();
        let time: f64 = passes
            .iter()
            .map(|p| p.end - p.timeline.rounds_start.unwrap_or(p.end))
            .sum();
        ratio(rounds as f64, time)
    })
}

/// Pairs metric values with their `(name, unit)`; a value that could not
/// be computed becomes an error.
fn named(
    names: &[(&str, &'static str)],
    values: impl IntoIterator<Item = Option<f64>>,
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| {
            if value.is_none() {
                errors.push(format!("{name} could not be computed"));
            }
            metric(name, value.unwrap_or(0.0), unit)
        })
        .collect()
}

/// Round latencies of `pass`, in ms.
fn round_ms(pass: &Pass) -> Vec<f64> {
    pass.timeline
        .rounds
        .iter()
        .map(|(s, e)| (e - s) * 1e3)
        .collect()
}

/// The end-to-end metrics of untraced passes. Returns the metrics and any
/// problem found computing them.
pub fn end_to_end(subs: &[SubRun], peak_rss_mb: f64) -> (Vec<Metric>, Vec<String>) {
    let mut errors = Vec::new();
    let setups = weighted(subs, |p| p.timeline.rounds_start);
    if setups.len() != subs.iter().map(|s| s.passes.len()).sum::<usize>() {
        errors.push("a pass never started a round".to_string());
    }
    // The p50 is each pass's median round, averaged. Hosts that switch
    // between a fast and a slow speed for seconds at a time make a pooled
    // median jump from one speed to the other when a run spends about half
    // its time at each; an average of per-pass medians moves smoothly with
    // that share. The p90 pools every round, so ten or more lie beyond it.
    let p50 = per_sub(subs, |s| {
        let medians: Vec<f64> = s
            .passes
            .iter()
            .filter_map(|p| {
                let samples: Vec<(f64, f64)> = round_ms(p).into_iter().map(|v| (v, 1.0)).collect();
                weighted_percentile(&samples, 50.0)
            })
            .collect();
        mean(&medians).unwrap_or(0.0)
    });
    let pooled = weighted(subs, round_ms);
    let passes: Vec<Vec<&Pass>> = subs.iter().map(|s| s.passes.clone()).collect();
    let values = [
        weighted_percentile(&setups, 50.0),
        Some(rounds_per_s(&passes)),
        Some(p50),
        weighted_percentile(&pooled, 90.0),
        Some(peak_rss_mb),
    ];
    let metrics = named(&END_TO_END, values, &mut errors);
    (metrics, errors)
}

/// The quality metrics of untraced passes, averaged over sub-scenarios.
/// Returns the metrics and any problem found computing them.
pub fn quality(subs: &[SubRun]) -> (Vec<Metric>, Vec<String>) {
    let mut errors = Vec::new();
    let mut recovery = Vec::new();
    for sub in subs {
        let mut seconds = Vec::new();
        for p in &sub.passes {
            for r in sub.quality.recovery_seconds(p) {
                match r {
                    Some(s) => seconds.push(s),
                    None => errors.push("a pass lacks the rounds its recovery needs".to_string()),
                }
            }
        }
        recovery.extend(mean(&seconds));
    }
    let finals: Vec<f64> = subs
        .iter()
        .filter_map(|s| s.quality.accuracy_pct.last().copied())
        .collect();
    let values = [
        mean(&recovery),
        Some(per_sub(subs, |s| {
            let rounds: Vec<f64> = s
                .quality
                .recoveries
                .iter()
                .map(|r| r.rounds as f64)
                .collect();
            mean(&rounds).unwrap_or(0.0)
        })),
        mean(&finals),
        Some(per_sub(subs, |s| {
            ratio(s.passes[0].wire_bytes() as f64, s.passes[0].rounds() as f64) / 1e3
        })),
    ];
    let metrics = named(&QUALITY, values, &mut errors);
    (metrics, errors)
}

/// Sum of span durations named `name`, and their count.
fn busy(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.end - s.start, n + 1))
}

/// The per-layer metrics of traced passes, per pass and averaged over
/// sub-scenarios; `overhead_pct` is the traced passes' rounds/s cost
/// against the untraced ones.
pub fn per_layer(subs: &[Vec<&Pass>], overhead_pct: f64) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| {
        per_sub(subs, |passes| {
            passes.iter().map(|p| f(p)).sum::<f64>() / passes.len() as f64
        })
    };
    let mut metrics = Vec::new();
    for layer in SPAN_LAYERS {
        let (calls, ms) = match layer {
            "round" => (
                per_pass(&|p| p.rounds() as f64),
                per_pass(&|p| p.timeline.rounds.iter().map(|(s, e)| e - s).sum::<f64>() * 1e3),
            ),
            "worker_step" => (
                per_pass(&|p| p.worker_steps.len() as f64),
                per_pass(&|p| p.worker_steps.iter().map(|(s, e)| e - s).sum::<f64>() * 1e3),
            ),
            _ => (
                per_pass(&|p| busy(&p.timeline.spans, layer).1 as f64),
                per_pass(&|p| busy(&p.timeline.spans, layer).0 * 1e3),
            ),
        };
        metrics.push(metric(format!("{layer}.calls"), calls, "count"));
        metrics.push(metric(format!("{layer}.busy_ms"), ms, "ms"));
    }

    let round_self = per_pass(&|p| {
        let children: Vec<(f64, f64)> = p
            .timeline
            .spans
            .iter()
            .filter(|s| ROUND_CHILDREN.contains(&s.name))
            .map(|s| (s.start, s.end))
            .collect();
        p.timeline
            .rounds
            .iter()
            .map(|&r| self_time(r, &children))
            .sum::<f64>()
            * 1e3
    });
    let exchange_self = per_pass(&|p| {
        p.timeline
            .spans
            .iter()
            .filter(|s| s.name == "exchange")
            .map(|s| self_time((s.start, s.end), &p.worker_steps))
            .sum::<f64>()
            * 1e3
    });
    let quarantine = per_sub(subs, |passes| {
        let received: u64 = passes.iter().map(|p| p.timeline.fold_received).sum();
        let quarantined: u64 = passes.iter().map(|p| p.timeline.fold_quarantined).sum();
        ratio(quarantined as f64, received as f64)
    });
    let eval_parties = per_sub(subs, |passes| {
        let evals: usize = passes
            .iter()
            .map(|p| busy(&p.timeline.spans, "eval").1)
            .sum();
        let parties: u64 = passes.iter().map(|p| p.timeline.eval_parties).sum();
        ratio(parties as f64, evals as f64)
    });
    let counters: Vec<f64> = (0..15)
        .map(|i| per_sub(subs, |passes| counters(passes[0])[i]))
        .collect();
    let values = [round_self, exchange_self, quarantine, eval_parties]
        .into_iter()
        .chain(counters)
        .chain([overhead_pct]);
    metrics.extend(
        LAYER_EXTRAS
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric(name, value, unit)),
    );
    metrics
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counters of one pass, in `LAYER_EXTRAS` order from
/// `population.materializations` to `net.lost_uploads`. Counters a
/// workload has no source for read 0.
fn counters(pass: &Pass) -> [f64; 15] {
    let (comm, population, delivered, net) = match &pass.output {
        Output::Sim { result, .. } => (
            result.comm,
            Some(result.residency),
            ratio(
                result.totals.delivered as f64,
                result.totals.selected as f64,
            ),
            None,
        ),
        Output::Net {
            run,
            stats,
            wire_out,
            wire_in,
            ..
        } => (
            run.comm,
            None,
            ratio(
                stats.upload_msgs as f64,
                (stats.upload_msgs + stats.lost_uploads) as f64,
            ),
            Some((stats, *wire_out, *wire_in)),
        ),
    };
    let (materializations, peak_cohort) = population.map_or((0.0, 0.0), |p| {
        (p.materializations as f64, p.peak_cohort as f64)
    });
    let ledger = pass.wire_bytes() as f64;
    let (out, inn, overhead, misses, dead, lost) =
        net.map_or((0.0, 0.0, 0.0, 0.0, 0.0, 0.0), |(s, o, i)| {
            (
                o as f64,
                i as f64,
                ratio((o + i) as f64, ledger),
                s.deadline_misses as f64,
                s.dead_conns as f64,
                s.lost_uploads as f64,
            )
        });
    [
        materializations,
        peak_cohort,
        comm.up_bytes as f64,
        comm.down_bytes as f64,
        comm.first_contact_down_bytes as f64,
        comm.join_chunk_down_bytes as f64,
        comm.aborted_up_bytes as f64,
        comm.quarantined_updates as f64,
        delivered,
        out,
        inn,
        overhead,
        misses,
        dead,
        lost,
    ]
}

/// The round (1-based) whose interval holds `at`, if any.
pub fn round_of(rounds: &[(f64, f64)], at: f64) -> Option<usize> {
    let i = rounds.partition_point(|&(_, end)| end <= at);
    rounds
        .get(i)
        .filter(|&&(start, _)| start <= at)
        .map(|_| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_lookup_uses_half_open_intervals() {
        let rounds = [(0.0, 1.0), (1.0, 2.5), (3.0, 4.0)];
        assert_eq!(round_of(&rounds, 0.0), Some(1));
        assert_eq!(round_of(&rounds, 1.0), Some(2));
        assert_eq!(round_of(&rounds, 2.7), None);
        assert_eq!(round_of(&rounds, 3.5), Some(3));
        assert_eq!(round_of(&rounds, 4.0), None);
        assert_eq!(round_of(&[], 1.0), None);
    }

    #[test]
    fn metric_lists_have_unique_names() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_names().into_iter().map(|(n, _)| n));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"name\"").count();
        let workloads = crate::workloads::Workload::ALL.len();
        assert_eq!(
            declared,
            END_TO_END.len() + per_layer_names().len() + workloads
        );
        let units = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer_names());
        for (name, unit) in units {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workloads::Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
