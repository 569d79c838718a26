//! The two workloads and their output checks.
//!
//! A *pass* is one complete workload run from a cold start: scenario and
//! party generation, algorithm construction, every round, and (for
//! `net_loopback`) worker start-up and registration. Passes are closed
//! loop: one driver, each round starting when the previous round and its
//! evaluation have finished.
//!
//! One benchmark seed `s` stands for `K` sub-scenarios, the scenario seeds
//! `s·K .. s·K + K − 1`, where `K` is [`SUB_SCENARIOS`]. How many
//! experts ShiftEx spawns, how fast accuracy recovers and how much a round
//! costs all depend on the scenario, so a run averages over several of
//! them. Two passes of one sub-scenario see identical inputs and must
//! reproduce each other exactly.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use shiftex_core::ShiftExConfig;
use shiftex_data::{DatasetKind, SimScale};
use shiftex_experiments::{
    build_algorithm, netfed_stream_seed, run_federation_scenario, run_netfed_rounds, run_worker,
    worker_partition, FedRunOptions, FedRunResult, FedSelector, NetFedConfig, NetFedRun,
    ResidentPopulation, Scenario,
};
use shiftex_fl::{evaluate_on_view, CodecSpec, ScenarioSpec};
use shiftex_net::{
    Coordinator, NetStats, WorkerSummary, BROADCAST_CTX_LEN, FRAME_HEADER_LEN, JOIN_CHUNK_CTX_LEN,
    UPLOAD_CTX_LEN,
};

use crate::probe::{Clock, TimedAlgorithm, TimedStream, TimedTransport, Timeline};

/// Worker threads of `net_loopback`, one TCP connection each.
const NET_WORKERS: usize = 2;
/// Round deadline of the `net_loopback` coordinator. A healthy loopback
/// round takes milliseconds, so a miss is an unscheduled failure.
const NET_DEADLINE: Duration = Duration::from_secs(60);

/// Sub-scenarios one benchmark seed stands for.
pub const SUB_SCENARIOS: usize = 4;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ShiftEx on the CIFAR-10-C paper profile through three window shifts.
    PaperShift,
    /// FedAvg over real loopback sockets with worker threads.
    NetLoopback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperShift, Workload::NetLoopback];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperShift => "paper_shift",
            Workload::NetLoopback => "net_loopback",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs a networked session: a coordinator on the
    /// calling thread and worker threads. Its accuracy is evaluated
    /// offline, after a pass's timed rounds, since no program side
    /// evaluates it; the in-process workload runs on the calling thread
    /// alone, and its driver evaluates every round.
    pub fn networked(self) -> bool {
        self == Workload::NetLoopback
    }

    /// Runs one pass of sub-scenario `sub` of benchmark seed `seed`.
    /// `evaluate` asks a [networked](Workload::networked) workload for its
    /// per-round accuracy: the pass then keeps the model before each round
    /// and evaluates them after its last round.
    pub fn pass(self, seed: u64, sub: usize, traced: bool, evaluate: bool) -> Pass {
        let k = SUB_SCENARIOS as u64;
        let scenario_seed = seed.wrapping_mul(k).wrapping_add(sub as u64 % k);
        let mut pass = match self {
            Workload::PaperShift => sim_pass(scenario_seed, traced),
            Workload::NetLoopback => net_pass(scenario_seed, traced, evaluate),
        };
        pass.sub = sub;
        pass
    }
}

/// The `paper_shift` scenario, federation axes and round budget. The
/// budget is short so every sub-scenario fits into one run, yet each window
/// is longer than the recoveries seen on these scenarios (at most 3
/// rounds).
fn paper_shift_setup(seed: u64) -> (Scenario, ScenarioSpec, FedRunOptions) {
    (
        Scenario::build(DatasetKind::Cifar10C, SimScale::Paper, seed),
        ScenarioSpec::sync(seed ^ 0x5eed_fade),
        FedRunOptions::new(3, 4, 4),
    )
}

/// What a pass produced, kept for checks and quality metrics.
#[derive(Debug)]
pub enum Output {
    /// An in-process run.
    Sim {
        /// The driver's result.
        result: FedRunResult,
        /// Burn-in rounds before the first shift.
        bootstrap: usize,
        /// Rounds per shifted window.
        per_window: usize,
    },
    /// A networked run.
    Net {
        /// The session result.
        run: NetFedRun,
        /// Digest of the stream-0 broadcast state before each round.
        digest: u64,
        /// Accuracy (in `[0, 1]`) after every round, when the pass was
        /// asked to evaluate it.
        accuracy: Vec<f32>,
        /// Coordinator wire counters.
        stats: NetStats,
        /// Raw bytes the coordinator wrote.
        wire_out: u64,
        /// Raw bytes the coordinator read.
        wire_in: u64,
    },
}

/// One completed pass.
#[derive(Debug)]
pub struct Pass {
    /// Sub-scenario index.
    pub sub: usize,
    /// Whether the pass recorded spans.
    pub traced: bool,
    /// Round and span timings.
    pub timeline: Timeline,
    /// Clock time at which the last round ended (pass start = 0).
    pub end: f64,
    /// Worker-side step spans (`net_loopback`, traced passes only).
    pub worker_steps: Vec<(f64, f64)>,
    /// Party uploads the driver attempted.
    pub attempted: u64,
    /// Uploads lost to events the workload did not schedule.
    pub unscheduled_losses: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// The program's outputs.
    pub output: Output,
}

impl Pass {
    /// Rounds the pass ran.
    pub fn rounds(&self) -> usize {
        self.timeline.rounds.len()
    }

    /// Whether `other` reproduced this pass's outputs exactly.
    pub fn same_outputs(&self, other: &Pass) -> bool {
        match (&self.output, &other.output) {
            (Output::Sim { result: a, .. }, Output::Sim { result: b, .. }) => a == b,
            (
                Output::Net {
                    run: a, digest: da, ..
                },
                Output::Net {
                    run: b, digest: db, ..
                },
            ) => a == b && da == db,
            _ => false,
        }
    }

    /// Whether the pass has its per-round accuracy (a pass of a workload
    /// that evaluates offline has it only when asked to evaluate).
    pub fn has_accuracy(&self) -> bool {
        match &self.output {
            Output::Sim { .. } => true,
            Output::Net { accuracy, .. } => !accuracy.is_empty(),
        }
    }

    /// Metered communication of the pass: uplink (delivered and aborted),
    /// downlink, first-contact and join-chunk bytes.
    pub fn wire_bytes(&self) -> u64 {
        let comm = match &self.output {
            Output::Sim { result, .. } => &result.comm,
            Output::Net { run, .. } => &run.comm,
        };
        comm.up_bytes
            + comm.aborted_up_bytes
            + comm.down_bytes
            + comm.first_contact_down_bytes
            + comm.join_chunk_down_bytes
    }
}

fn sim_pass(seed: u64, traced: bool) -> Pass {
    let clock = Clock::start();
    let (scenario, fed, opts) = paper_shift_setup(seed);
    let inner = build_algorithm("shiftex", &scenario, &ShiftExConfig::default())
        .expect("shiftex is a registered algorithm");
    let mut algorithm = TimedAlgorithm::new(inner, clock, traced);
    let result = run_federation_scenario(&mut algorithm, &scenario, &fed, &opts);
    let end = clock.now();
    let timeline = algorithm.into_timeline();
    let errors = check_sim(&result, &timeline, &opts);
    Pass {
        sub: 0,
        traced,
        timeline,
        end,
        worker_steps: Vec::new(),
        attempted: result.totals.selected,
        unscheduled_losses: 0,
        errors,
        output: Output::Sim {
            result,
            bootstrap: opts.bootstrap_rounds,
            per_window: opts.rounds_per_window,
        },
    }
}

/// Checks one in-process run's outputs.
fn check_sim(result: &FedRunResult, timeline: &Timeline, opts: &FedRunOptions) -> Vec<String> {
    let mut errors = Vec::new();
    let rounds = opts.bootstrap_rounds + opts.windows * opts.rounds_per_window;
    for (what, series) in [
        ("accuracy series", &result.accuracy_series),
        ("post-shift accuracy", &result.post_shift_accuracy),
    ] {
        if let Some(bad) = series.iter().find(|a| !(0.0..=1.0).contains(*a)) {
            errors.push(format!("{what} holds {bad}, outside [0, 100] %"));
        }
    }
    for (what, got) in [
        ("accuracy series", result.accuracy_series.len()),
        ("participation rows", result.participation.len()),
        ("timed rounds", timeline.rounds.len()),
    ] {
        if got != rounds {
            errors.push(format!("{what}: {got} entries for {rounds} rounds"));
        }
    }
    if timeline.shifts.len() != opts.windows || result.windows.len() != opts.windows {
        errors.push(format!(
            "{} timed shifts and {} window metrics for {} windows",
            timeline.shifts.len(),
            result.windows.len(),
            opts.windows
        ));
    }
    let comm = &result.comm;
    let rows = &result.participation;
    let sums = [
        (
            "up",
            rows.iter().map(|r| r.up_bytes).sum::<u64>(),
            comm.up_bytes + comm.aborted_up_bytes,
        ),
        (
            "down",
            rows.iter().map(|r| r.down_bytes).sum(),
            comm.down_bytes,
        ),
        (
            "first-contact",
            rows.iter().map(|r| r.first_contact_down_bytes).sum(),
            comm.first_contact_down_bytes + comm.join_chunk_down_bytes,
        ),
    ];
    for (what, row_sum, total) in sums {
        if row_sum != total {
            errors.push(format!(
                "per-round {what} bytes sum to {row_sum}, CommTotals say {total}"
            ));
        }
    }
    errors
}

/// The `net_loopback` scenario and session configuration.
fn net_setup(seed: u64) -> (Scenario, NetFedConfig) {
    let scenario = Scenario::build_with_population(
        DatasetKind::Cifar10C,
        SimScale::Paper,
        seed,
        Some(100),
        Some(64),
    );
    let cfg = NetFedConfig {
        strategy: "fedavg".to_string(),
        codec: CodecSpec::quant8(256),
        selector: FedSelector::Uniform,
        rounds: 100,
        join_chunk_bytes: None,
    };
    (scenario, cfg)
}

/// What a worker thread hands back.
type WorkerResult = Result<(WorkerSummary, Vec<(f64, f64)>), String>;

fn net_worker(
    stream: TcpStream,
    scenario: &Scenario,
    cfg: &NetFedConfig,
    index: usize,
    clock: Option<Clock>,
) -> WorkerResult {
    let parties = worker_partition(scenario.profile.num_parties, NET_WORKERS, index);
    let failed = |e: shiftex_net::NetError| format!("worker {index}: {e}");
    match clock {
        Some(clock) => {
            let mut timed = TimedStream::new(stream, clock);
            let summary =
                run_worker(&mut timed, scenario, cfg, parties, None, None).map_err(failed)?;
            Ok((summary, timed.into_steps()))
        }
        None => {
            let mut stream = stream;
            let summary =
                run_worker(&mut stream, scenario, cfg, parties, None, None).map_err(failed)?;
            Ok((summary, Vec::new()))
        }
    }
}

fn connect_workers(addr: SocketAddr) -> std::io::Result<Vec<TcpStream>> {
    (0..NET_WORKERS)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect()
}

fn net_pass(seed: u64, traced: bool, evaluate: bool) -> Pass {
    let clock = Clock::start();
    let (scenario, cfg) = net_setup(seed);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
    let addr = listener.local_addr().expect("loopback listener address");
    // Connections complete in the listen backlog, so a failed connect is
    // reported here instead of leaving the coordinator waiting.
    let streams = connect_workers(addr).expect("connect workers over loopback");
    thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| {
                let (scenario, cfg) = (&scenario, &cfg);
                s.spawn(move || net_worker(stream, scenario, cfg, i, traced.then_some(clock)))
            })
            .collect();
        let session = Coordinator::accept(&listener, NET_WORKERS, cfg.codec, NET_DEADLINE);
        // Closing the listener releases any worker still waiting for
        // registration, so every thread below can be joined.
        drop(listener);
        let mut coordinator = session.expect("register workers");
        let mut transport = TimedTransport::new(&mut coordinator, clock, traced, evaluate);
        let run = run_netfed_rounds(&scenario, &cfg, &mut transport);
        let end = clock.now();
        let (timeline, broadcasts) = transport.finish();
        let stats = coordinator.stats();
        let (wire_out, wire_in) = (coordinator.wire_written(), coordinator.wire_read());
        coordinator.shutdown();

        let mut errors = Vec::new();
        let mut worker_steps = Vec::new();
        let mut worker_uploads = 0;
        for handle in handles {
            match handle.join() {
                Ok(Ok((summary, steps))) => {
                    worker_uploads += summary.uploads;
                    worker_steps.extend(steps);
                }
                Ok(Err(e)) => errors.push(e),
                Err(_) => errors.push("a worker thread panicked".to_string()),
            }
        }
        if worker_uploads != stats.upload_msgs + stats.stale_upload_msgs {
            errors.push(format!(
                "workers sent {worker_uploads} uploads, the coordinator read {}",
                stats.upload_msgs + stats.stale_upload_msgs
            ));
        }
        errors.extend(check_net(&run, &stats, wire_out, wire_in, cfg.rounds));
        if timeline.rounds.len() != cfg.rounds || broadcasts.count != cfg.rounds {
            errors.push(format!(
                "{} timed rounds and {} broadcast states for {} rounds",
                timeline.rounds.len(),
                broadcasts.count,
                cfg.rounds
            ));
        }
        let accuracy = if evaluate {
            net_accuracy(&scenario, &broadcasts.states, &run)
        } else {
            Vec::new()
        };
        Pass {
            sub: 0,
            traced,
            timeline,
            end,
            worker_steps,
            attempted: stats.upload_msgs + stats.lost_uploads,
            unscheduled_losses: stats.lost_uploads,
            errors,
            output: Output::Net {
                run,
                digest: broadcasts.digest,
                accuracy,
                stats,
                wire_out,
                wire_in,
            },
        }
    })
}

/// Socket bytes must equal the ledger plus the published per-frame
/// overheads, in both directions, with nothing unaccounted.
fn check_net(
    run: &NetFedRun,
    stats: &NetStats,
    wire_out: u64,
    wire_in: u64,
    rounds: usize,
) -> Vec<String> {
    let comm = &run.comm;
    let header = FRAME_HEADER_LEN as u64;
    let checks = [
        (
            "broadcast bytes",
            stats.broadcast_bytes,
            comm.down_bytes
                + comm.first_contact_down_bytes
                + stats.broadcast_msgs * (header + BROADCAST_CTX_LEN as u64),
        ),
        (
            "join-chunk bytes",
            stats.join_chunk_bytes,
            comm.join_chunk_down_bytes
                + stats.join_chunk_msgs * (header + JOIN_CHUNK_CTX_LEN as u64),
        ),
        (
            "upload bytes",
            stats.upload_bytes,
            comm.up_bytes + stats.upload_msgs * (header + UPLOAD_CTX_LEN as u64),
        ),
        (
            "ledger messages",
            comm.messages,
            stats.broadcast_msgs + stats.join_chunk_msgs + stats.upload_msgs,
        ),
        (
            "bytes written",
            wire_out,
            stats.broadcast_bytes + stats.join_chunk_bytes + stats.control_out_bytes,
        ),
        (
            "bytes read",
            wire_in,
            stats.upload_bytes + stats.stale_upload_bytes + stats.control_in_bytes,
        ),
        ("rounds", stats.rounds, rounds as u64),
    ];
    checks
        .into_iter()
        .filter(|(_, socket, ledger)| socket != ledger)
        .map(|(what, socket, ledger)| format!("{what}: socket {socket}, ledger {ledger}"))
        .collect()
}

/// Accuracy (in `[0, 1]`) after every round of a `net_loopback` session,
/// evaluated on the whole population from the states broadcast before
/// each round and the session's final state.
fn net_accuracy(scenario: &Scenario, globals: &[Vec<f32>], run: &NetFedRun) -> Vec<f32> {
    // The same per-party streams as the session's lazy store, built once
    // and kept resident for the hundred evaluations.
    let store =
        ResidentPopulation::new(scenario.clone(), netfed_stream_seed(scenario.seed)).into_store();
    let view = store.view(store.party_ids());
    let last = run.params.get(&0).map(Vec::as_slice).unwrap_or_default();
    globals
        .iter()
        .skip(1)
        .map(Vec::as_slice)
        .chain(std::iter::once(last))
        .map(|params| evaluate_on_view(&scenario.spec, params, &view))
        .collect()
}
