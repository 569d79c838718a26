//! Timing adapters that measure the program from outside.
//!
//! Nothing here changes what the program computes. Each adapter delegates
//! every call to the wrapped value and only reads the clock around it:
//!
//! * [`TimedAlgorithm`] wraps the `Box<dyn FederatedAlgorithm>` that
//!   `build_algorithm` returns, for the in-process workload;
//! * [`TimedTransport`] wraps a [`CohortTransport`] (the networked
//!   `Coordinator`, or `LocalTransport` in the tests);
//! * [`TimedStream`] wraps a worker's socket and times the gap between a
//!   broadcast arriving and the worker's upload leaving (decode, local
//!   training and encode on the worker thread).
//!
//! Untraced, an adapter reads the clock once per round boundary (plus once
//! per window shift) and keeps no spans. Traced, it also records one span
//! per call, kept in memory until the benchmark ends.

use std::cell::RefCell;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{self, Read, Write};
use std::time::Instant;

use rand::rngs::StdRng;
use shiftex_fl::{
    CohortExchange, CohortTransport, CommLedger, FederatedAlgorithm, FoldPolicy, LocalStepFn,
    ModelUpdate, ParticipantSelector, Party, PartyId, PopulationView, ScenarioEngine,
    UpdateVerdict, UploadOutcome, WeightedUpdate,
};
use shiftex_nn::{ArchSpec, TrainConfig};

/// Seconds since a fixed origin: the benchmark's one wall-clock site.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self {
            origin: Instant::now(), // lint:allow(det-clock): the benchmark measures wall time
        }
    }

    /// Seconds elapsed since [`Clock::start`].
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// One timed call: layer name and its interval in clock seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer (method) name.
    pub name: &'static str,
    /// Entry time.
    pub start: f64,
    /// Exit time.
    pub end: f64,
}

/// What one workload pass recorded: round intervals, window shifts, and
/// (traced only) every call span plus the counters taken at the same
/// boundaries.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// End of set-up: the moment the first round may begin.
    pub rounds_start: Option<f64>,
    /// `(start, end)` of every round, in order.
    pub rounds: Vec<(f64, f64)>,
    /// `(begin_window entry, post-shift eval exit)` of every window shift.
    pub shifts: Vec<(f64, f64)>,
    /// Call spans (traced passes only).
    pub spans: Vec<Span>,
    /// Parties evaluated, over all `eval` calls (traced passes only).
    pub eval_parties: u64,
    /// Updates handed to `fold` (traced passes only).
    pub fold_received: u64,
    /// Updates `fold` quarantined (traced passes only).
    pub fold_quarantined: u64,
}

/// Shared state of one adapter: the clock, the timeline under
/// construction, and where the current round started.
#[derive(Debug)]
struct Recorder {
    clock: Clock,
    traced: bool,
    timeline: Timeline,
    last_boundary: f64,
    shift_pending: bool,
}

impl Recorder {
    fn new(clock: Clock, traced: bool) -> Self {
        Self {
            clock,
            traced,
            timeline: Timeline::default(),
            last_boundary: 0.0,
            shift_pending: false,
        }
    }

    /// Clock reading for a span entry; `None` when untraced.
    fn enter(&self) -> Option<f64> {
        self.traced.then(|| self.clock.now())
    }

    /// Closes a span opened by [`Recorder::enter`]; returns the exit time.
    fn exit(&mut self, name: &'static str, start: Option<f64>) -> Option<f64> {
        let start = start?;
        let end = self.clock.now();
        self.timeline.spans.push(Span { name, start, end });
        Some(end)
    }

    /// Marks the end of set-up.
    fn setup_done(&mut self, at: f64) {
        self.timeline.rounds_start = Some(at);
        self.last_boundary = at;
    }

    /// Closes the current round at `at`.
    fn round_done(&mut self, at: f64) {
        self.timeline.rounds.push((self.last_boundary, at));
        self.last_boundary = at;
    }
}

/// A [`FederatedAlgorithm`] that times every call into the wrapped one.
///
/// Round boundaries are read from the driver's call pattern: `init` ends
/// set-up, `begin_window` opens a window shift whose post-shift `eval`
/// closes it, and every other `eval` closes a round (the driver evaluates
/// once after each round).
pub struct TimedAlgorithm {
    inner: Box<dyn FederatedAlgorithm>,
    rec: RefCell<Recorder>,
}

impl TimedAlgorithm {
    /// Wraps `inner`; `traced` turns on per-call spans.
    pub fn new(inner: Box<dyn FederatedAlgorithm>, clock: Clock, traced: bool) -> Self {
        Self {
            inner,
            rec: RefCell::new(Recorder::new(clock, traced)),
        }
    }

    /// Everything recorded so far.
    pub fn into_timeline(self) -> Timeline {
        self.rec.into_inner().timeline
    }

    fn enter(&self) -> Option<f64> {
        self.rec.borrow().enter()
    }

    fn exit(&self, name: &'static str, start: Option<f64>) {
        self.rec.borrow_mut().exit(name, start);
    }
}

impl FederatedAlgorithm for TimedAlgorithm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arch(&self) -> &ArchSpec {
        self.inner.arch()
    }

    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng) {
        let start = self.enter();
        self.inner.init(parties, rng);
        let rec = self.rec.get_mut();
        let end = match rec.exit("init", start) {
            Some(end) => end,
            None => rec.clock.now(),
        };
        rec.setup_done(end);
    }

    fn begin_window(&mut self, window: usize, members: &PopulationView<'_>, rng: &mut StdRng) {
        let rec = self.rec.get_mut();
        let start = rec.clock.now();
        rec.shift_pending = true;
        rec.timeline.shifts.push((start, start));
        self.inner.begin_window(window, members, rng);
        let rec = self.rec.get_mut();
        rec.exit("begin_window", rec.traced.then_some(start));
    }

    fn streams(&self) -> Vec<usize> {
        self.inner.streams()
    }

    fn broadcast_state(&self, key: usize) -> Vec<f32> {
        self.inner.broadcast_state(key)
    }

    fn train_config(&self, key: usize) -> TrainConfig {
        self.inner.train_config(key)
    }

    fn cohort(
        &mut self,
        key: usize,
        live: &PopulationView<'_>,
        selector: &mut dyn ParticipantSelector,
        rng: &mut StdRng,
    ) -> Vec<PartyId> {
        let start = self.enter();
        let cohort = self.inner.cohort(key, live, selector, rng);
        self.exit("cohort", start);
        cohort
    }

    fn local_step(&self, key: usize, party: &Party, decoded: &[f32], seed: u64) -> ModelUpdate {
        let start = self.enter();
        let update = self.inner.local_step(key, party, decoded, seed);
        self.exit("local_step", start);
        update
    }

    fn fold(
        &mut self,
        key: usize,
        ready: &[WeightedUpdate],
        server_lr: f32,
        policy: &FoldPolicy,
    ) -> Vec<UpdateVerdict> {
        let start = self.enter();
        let verdicts = self.inner.fold(key, ready, server_lr, policy);
        let rec = self.rec.get_mut();
        if rec.exit("fold", start).is_some() {
            rec.timeline.fold_received += verdicts.len() as u64;
            rec.timeline.fold_quarantined +=
                verdicts.iter().filter(|v| v.quarantined).count() as u64;
        }
        verdicts
    }

    fn end_round(&mut self, live: &PopulationView<'_>, rng: &mut StdRng) {
        let start = self.enter();
        self.inner.end_round(live, rng);
        self.exit("end_round", start);
    }

    fn eval(&self, parties: &PopulationView<'_>) -> f32 {
        let start = self.enter();
        let accuracy = self.inner.eval(parties);
        let mut rec = self.rec.borrow_mut();
        let end = match rec.exit("eval", start) {
            Some(end) => {
                rec.timeline.eval_parties += parties.len() as u64;
                end
            }
            None => rec.clock.now(),
        };
        if rec.shift_pending {
            rec.shift_pending = false;
            if let Some(shift) = rec.timeline.shifts.last_mut() {
                shift.1 = end;
            }
            rec.last_boundary = end;
        } else {
            rec.round_done(end);
        }
        accuracy
    }

    fn model_index(&self, party: PartyId) -> usize {
        self.inner.model_index(party)
    }

    fn num_models(&self) -> usize {
        self.inner.num_models()
    }
}

/// The stream-0 broadcast states (the model before each round) a
/// [`TimedTransport`] saw.
#[derive(Debug, Clone, Default)]
pub struct Broadcasts {
    /// How many states were broadcast.
    pub count: usize,
    /// Digest of every state's bits, in order.
    pub digest: u64,
    /// The states themselves, when the transport was asked to keep them.
    pub states: Vec<Vec<f32>>,
}

/// A [`CohortTransport`] that times every exchange and round close of the
/// wrapped transport and digests every broadcast state of stream 0; it
/// keeps copies of those states only when asked to, for offline
/// evaluation.
///
/// The first `exchange` ends set-up; every `round_complete` closes a round.
pub struct TimedTransport<'a> {
    inner: &'a mut dyn CohortTransport,
    rec: Recorder,
    keep_states: bool,
    hasher: DefaultHasher,
    broadcasts: Broadcasts,
}

impl<'a> TimedTransport<'a> {
    /// Wraps `inner`; `traced` turns on per-call spans, `keep_states`
    /// keeps a copy of every stream-0 broadcast state.
    pub fn new(
        inner: &'a mut dyn CohortTransport,
        clock: Clock,
        traced: bool,
        keep_states: bool,
    ) -> Self {
        Self {
            inner,
            rec: Recorder::new(clock, traced),
            keep_states,
            hasher: DefaultHasher::new(),
            broadcasts: Broadcasts::default(),
        }
    }

    /// The timeline and the stream-0 broadcasts.
    pub fn finish(self) -> (Timeline, Broadcasts) {
        let broadcasts = Broadcasts {
            digest: self.hasher.finish(),
            ..self.broadcasts
        };
        (self.rec.timeline, broadcasts)
    }
}

impl CohortTransport for TimedTransport<'_> {
    fn exchange(
        &mut self,
        exchange: &CohortExchange<'_>,
        live: &PopulationView<'_>,
        engine: &mut ScenarioEngine,
        ledger: Option<&CommLedger>,
        local_step: &mut LocalStepFn<'_>,
    ) -> Vec<UploadOutcome> {
        let start = if self.rec.timeline.rounds_start.is_none() {
            let at = self.rec.clock.now();
            self.rec.setup_done(at);
            self.rec.traced.then_some(at)
        } else {
            self.rec.enter()
        };
        if exchange.key == 0 {
            for x in exchange.globals {
                x.to_bits().hash(&mut self.hasher);
            }
            self.broadcasts.count += 1;
            if self.keep_states {
                self.broadcasts.states.push(exchange.globals.to_vec());
            }
        }
        let outcomes = self
            .inner
            .exchange(exchange, live, engine, ledger, local_step);
        self.rec.exit("exchange", start);
        outcomes
    }

    fn round_complete(&mut self, engine: &mut ScenarioEngine) {
        let start = self.rec.enter();
        self.inner.round_complete(engine);
        let end = match self.rec.exit("round_complete", start) {
            Some(end) => end,
            None => self.rec.clock.now(),
        };
        self.rec.round_done(end);
    }
}

/// A worker socket that records, as a span, each gap between the last
/// read before a write and that write: the worker decoding a broadcast,
/// training, and encoding its upload.
pub struct TimedStream<S> {
    inner: S,
    clock: Clock,
    last_read: Option<f64>,
    steps: Vec<(f64, f64)>,
}

impl<S> TimedStream<S> {
    /// Wraps `inner`, timing against `clock`.
    pub fn new(inner: S, clock: Clock) -> Self {
        Self {
            inner,
            clock,
            last_read: None,
            steps: Vec::new(),
        }
    }

    /// The recorded worker-step intervals.
    pub fn into_steps(self) -> Vec<(f64, f64)> {
        self.steps
    }
}

impl<S: Read> Read for TimedStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            self.last_read = Some(self.clock.now());
        }
        Ok(n)
    }
}

impl<S: Write> Write for TimedStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(start) = self.last_read.take() {
            self.steps.push((start, self.clock.now()));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shiftex_core::ShiftExConfig;
    use shiftex_data::{DatasetKind, SimScale};
    use shiftex_experiments::{
        build_algorithm, run_federation_scenario, run_netfed_rounds, FedRunOptions, FedSelector,
        NetFedConfig, Scenario,
    };
    use shiftex_fl::{ChurnSpec, CodecSpec, LocalTransport, ScenarioSpec};

    fn scenario() -> Scenario {
        Scenario::build_with_population(
            DatasetKind::FashionMnist,
            SimScale::Smoke,
            5,
            Some(12),
            Some(16),
        )
    }

    fn algorithm(name: &str, scenario: &Scenario) -> Box<dyn FederatedAlgorithm> {
        build_algorithm(name, scenario, &ShiftExConfig::default()).expect("registered algorithm")
    }

    #[test]
    fn timed_algorithm_is_transparent() {
        let scenario = scenario();
        let fed = ScenarioSpec::sync(3).with_churn(ChurnSpec::dropout_only(0.2));
        let opts = FedRunOptions::new(2, 2, 3).with_codec(CodecSpec::quant8(64));
        for name in ["shiftex", "fedavg"] {
            let plain = run_federation_scenario(
                algorithm(name, &scenario).as_mut(),
                &scenario,
                &fed,
                &opts,
            );
            for traced in [false, true] {
                let mut timed =
                    TimedAlgorithm::new(algorithm(name, &scenario), Clock::start(), traced);
                let result = run_federation_scenario(&mut timed, &scenario, &fed, &opts);
                assert_eq!(result, plain, "{name}, traced = {traced}");
                let tl = timed.into_timeline();
                assert_eq!(tl.rounds.len(), 2 + 2 * 3, "{name}");
                assert_eq!(tl.shifts.len(), 2, "{name}");
                assert_eq!(tl.spans.is_empty(), !traced, "{name}");
            }
        }
    }

    #[test]
    fn traced_timeline_nests_spans_in_rounds_and_shifts() {
        let scenario = scenario();
        let fed = ScenarioSpec::sync(4);
        let opts = FedRunOptions::new(1, 2, 2).with_selector(FedSelector::Oort);
        let mut timed = TimedAlgorithm::new(algorithm("fedavg", &scenario), Clock::start(), true);
        run_federation_scenario(&mut timed, &scenario, &fed, &opts);
        let tl = timed.into_timeline();
        let setup_end = tl.rounds_start.expect("init ran");
        assert_eq!(tl.rounds[0].0, setup_end);
        // Rounds are contiguous except across the shift, which sits between
        // the last burn-in round and the first shifted round.
        let (shift_in, shift_out) = tl.shifts[0];
        assert!(tl.rounds[1].1 <= shift_in && shift_in <= shift_out);
        assert_eq!(tl.rounds[2].0, shift_out);
        assert_eq!(tl.rounds[1].0, tl.rounds[0].1);
        let count = |name| tl.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("init"), 1);
        assert_eq!(count("begin_window"), 1);
        // One eval per round plus the post-shift eval.
        assert_eq!(count("eval"), 4 + 1);
        assert_eq!(count("fold"), 4);
        assert_eq!(count("end_round"), 4);
        assert!(count("local_step") >= 4);
        for s in &tl.spans {
            assert!(s.start <= s.end, "{s:?}");
        }
        assert_eq!(tl.eval_parties, 5 * 12);
    }

    #[test]
    fn timed_transport_is_transparent() {
        let scenario = scenario();
        let cfg = NetFedConfig {
            strategy: "fedavg".to_string(),
            codec: CodecSpec::quant8(64),
            selector: FedSelector::Uniform,
            rounds: 4,
            join_chunk_bytes: Some(256),
        };
        let plain = run_netfed_rounds(&scenario, &cfg, &mut LocalTransport);
        let mut digests = Vec::new();
        for (traced, keep_states) in [(false, false), (true, false), (false, true)] {
            let mut local = LocalTransport;
            let mut timed = TimedTransport::new(&mut local, Clock::start(), traced, keep_states);
            let run = run_netfed_rounds(&scenario, &cfg, &mut timed);
            assert_eq!(run, plain, "traced = {traced}");
            let (tl, broadcasts) = timed.finish();
            assert_eq!(tl.rounds.len(), cfg.rounds);
            assert_eq!(broadcasts.count, cfg.rounds);
            assert_eq!(tl.spans.is_empty(), !traced);
            digests.push(broadcasts.digest);
            if keep_states {
                // The state broadcast before a round is the previous
                // round's result; the last round's result is the session's
                // output.
                assert_eq!(broadcasts.states.len(), cfg.rounds);
                assert_ne!(broadcasts.states[0], broadcasts.states[1]);
            } else {
                assert!(broadcasts.states.is_empty());
            }
        }
        // The digest does not depend on whether states are kept.
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn timed_stream_records_read_to_write_gaps() {
        struct Pipe {
            input: io::Cursor<Vec<u8>>,
            output: Vec<u8>,
        }
        impl Read for Pipe {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Pipe {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let pipe = Pipe {
            input: io::Cursor::new(vec![1, 2, 3, 4]),
            output: Vec::new(),
        };
        let mut stream = TimedStream::new(pipe, Clock::start());
        let mut buf = [0u8; 2];
        // A write before any read (the worker's Hello) is no step.
        stream.write_all(b"hi").unwrap();
        stream.read_exact(&mut buf).unwrap();
        stream.read_exact(&mut buf).unwrap();
        stream.write_all(b"up").unwrap();
        stream.write_all(b"more").unwrap();
        // End of input reads nothing and opens no step.
        assert_eq!(stream.read(&mut buf).unwrap(), 0);
        stream.write_all(b"x").unwrap();
        let steps = stream.into_steps();
        assert_eq!(steps.len(), 1);
        assert!(steps[0].0 <= steps[0].1);
    }
}
