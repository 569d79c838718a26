//! The unified algorithm API: every federated algorithm — ShiftEx and all
//! baselines — implements [`FederatedAlgorithm`], and one generic driver
//! ([`run_algorithm_round`]) threads the scenario engine (churn, stragglers,
//! staleness-aware async aggregation), the wire codec, the participant
//! selector, and the communication ledger through each of them identically.
//!
//! The paper's claim is comparative, so the runtime must be too: an
//! algorithm that only runs on a bespoke driver cannot be measured under
//! the same churn schedule, deadline pressure, and quantised uplinks as its
//! competitors. The trait factors a round into the five things algorithms
//! actually differ in:
//!
//! 1. **state** — how many models are maintained ([`streams`] — one per
//!    global model / expert) and what each broadcasts
//!    ([`broadcast_state`]);
//! 2. **cohorting** — which live parties train each stream this round
//!    ([`cohort`]); single-model algorithms delegate to the pluggable
//!    [`ParticipantSelector`] (uniform / OORT), mixture and cluster
//!    algorithms bring their own policy;
//! 3. **local work** — the party-side step ([`local_step`], defaulting to
//!    SGD via [`local_update`] under the algorithm's
//!    [`train_config`]);
//! 4. **folding** — how decoded, staleness-weighted updates enter the
//!    model ([`fold`]);
//! 5. **window reaction** — what happens at a shift boundary
//!    ([`begin_window`]: detection, re-clustering, expert management).
//!
//! Everything else — selection gating by churn, mid-round dropout fates,
//! deadline scoring, buffering, staleness discounts, codec encode/decode,
//! first-contact full-state frames, error feedback, byte metering — is the
//! driver's job and therefore *identical across algorithms by
//! construction*.
//!
//! [`streams`]: FederatedAlgorithm::streams
//! [`broadcast_state`]: FederatedAlgorithm::broadcast_state
//! [`cohort`]: FederatedAlgorithm::cohort
//! [`local_step`]: FederatedAlgorithm::local_step
//! [`train_config`]: FederatedAlgorithm::train_config
//! [`fold`]: FederatedAlgorithm::fold
//! [`begin_window`]: FederatedAlgorithm::begin_window

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use shiftex_nn::{ArchSpec, TrainConfig};

use crate::codec::CodecSpec;
use crate::comm::CommLedger;
use crate::control::CodecController;
use crate::party::{Party, PartyId};
use crate::population::{PopulationStore, PopulationView};
use crate::robust::{FoldPolicy, UpdateVerdict};
use crate::round::local_update;
use crate::scenario::{RoundMode, ScenarioEngine, WeightedUpdate};
use crate::selection::ParticipantSelector;
use crate::transport::{CohortExchange, CohortTransport, LocalTransport, UploadOutcome};
use crate::update::ModelUpdate;

/// One federated algorithm's lifecycle under the scenario runtime.
///
/// Implementations must be deterministic given the driver's RNG: every
/// stochastic choice draws from the `rng` handed in, in a call order that
/// does not depend on anything but the inputs. The driver guarantees the
/// same in return, which is what makes whole scenario runs rerun-identical.
pub trait FederatedAlgorithm {
    /// Algorithm name as it appears in tables and reports.
    fn name(&self) -> &str;

    /// The model architecture every stream trains.
    fn arch(&self) -> &ArchSpec;

    /// One-time W0 setup: build the initial model state from this run's RNG
    /// stream and enrol the population behind `parties`. Called exactly
    /// once, before any round. Algorithms must stream parties through the
    /// view (one resident at a time) rather than collecting them.
    fn init(&mut self, parties: &PopulationView<'_>, rng: &mut StdRng);

    /// Window-boundary hook: the enrolled members' data has just advanced
    /// to `window` (≥ 1). Shift detection, re-clustering, expert management
    /// — whatever the algorithm does between windows.
    fn begin_window(&mut self, window: usize, members: &PopulationView<'_>, rng: &mut StdRng);

    /// Keys of the update streams (one per concurrently trained model) in
    /// training order. Single-model algorithms return `vec![0]`; mixture
    /// algorithms one stable key per expert. Keys index the engine's
    /// staleness buffers and broadcast references, so they must not be
    /// reused across distinct models within a run.
    fn streams(&self) -> Vec<usize>;

    /// Current global parameters of stream `key` (what a round broadcasts).
    fn broadcast_state(&self, key: usize) -> Vec<f32>;

    /// Local-training hyper-parameters for stream `key`.
    fn train_config(&self, key: usize) -> TrainConfig;

    /// This round's cohort for stream `key`, drawn from the live (enrolled,
    /// pre-dropout) view. The returned order is the training and
    /// aggregation order. Algorithms without their own policy should
    /// delegate to `selector`; those with one (FLIPS clusters, per-expert
    /// selection) may ignore it.
    fn cohort(
        &mut self,
        key: usize,
        live: &PopulationView<'_>,
        selector: &mut dyn ParticipantSelector,
        rng: &mut StdRng,
    ) -> Vec<PartyId>;

    /// One party's local step from the decoded broadcast, under an
    /// independent RNG stream derived from `seed`.
    fn local_step(&self, key: usize, party: &Party, decoded: &[f32], seed: u64) -> ModelUpdate {
        local_update(self.arch(), decoded, party, &self.train_config(key), seed)
    }

    /// Folds the decoded, staleness-weighted updates the engine released
    /// into stream `key` under `policy` — algorithms delegate the value
    /// combination to [`aggregate_robust`](crate::robust::aggregate_robust)
    /// so every (algorithm × fold) cell shares one robust-statistics
    /// implementation, and return its per-update verdicts so the driver can
    /// meter quarantines and feed the selector. An empty `ready` set must
    /// leave the stream's parameters untouched (churn can empty any round)
    /// and return no verdicts.
    fn fold(
        &mut self,
        key: usize,
        ready: &[WeightedUpdate],
        server_lr: f32,
        policy: &FoldPolicy,
    ) -> Vec<UpdateVerdict>;

    /// Post-round hook after every stream folded (e.g. personalised local
    /// steps for fine-tuned parties). Default: nothing.
    fn end_round(&mut self, _live: &PopulationView<'_>, _rng: &mut StdRng) {}

    /// Sample-weighted population accuracy over `parties`, each evaluated
    /// under the model this algorithm currently assigns to it.
    fn eval(&self, parties: &PopulationView<'_>) -> f32;

    /// Dense model index currently assigned to `party` (for the
    /// expert-distribution figures); single-model algorithms return 0.
    fn model_index(&self, party: PartyId) -> usize;

    /// Number of distinct models currently maintained.
    fn num_models(&self) -> usize;
}

/// Per-round robust-aggregation telemetry, summed over an algorithm's
/// streams: how many updates arrived, how many the fold refused, and how
/// suspicious the cohort looked (fold-specific distance scores from
/// [`UpdateVerdict::score`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Updates the engine released into folds this round.
    pub received: usize,
    /// Updates a robust fold quarantined (received but not aggregated).
    pub quarantined: usize,
    /// Updates that entered an aggregation (`received − quarantined`).
    pub folded: usize,
    /// Mean fold distance score over received updates (0 under `Mean`).
    pub mean_score: f32,
    /// Largest fold distance score this round (0 under `Mean`).
    pub max_score: f32,
}

impl RobustnessReport {
    /// Accumulates one stream's fold verdicts into the round report.
    fn absorb(&mut self, verdicts: &[UpdateVerdict]) {
        let prior = self.received as f32;
        self.received += verdicts.len();
        for v in verdicts {
            if v.quarantined {
                self.quarantined += 1;
            } else {
                self.folded += 1;
            }
            self.max_score = self.max_score.max(v.score);
        }
        if self.received > 0 {
            let sum: f32 = prior * self.mean_score + verdicts.iter().map(|v| v.score).sum::<f32>();
            self.mean_score = sum / self.received as f32;
        }
    }
}

/// What one scenario-mediated round did, across all of an algorithm's
/// streams.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoRoundOutcome {
    /// 1-based round index (the engine's clock after this round began).
    pub round: usize,
    /// Enrolled members this round (after join/leave churn).
    pub live: Vec<PartyId>,
    /// Updates folded into an aggregation, summed over streams (excludes
    /// quarantined updates).
    pub folded: usize,
    /// Parties whose uploads were aborted this round (mid-round dropout or
    /// late-drop), across streams.
    pub lost: Vec<PartyId>,
    /// Updates deferred into staleness buffers this round, across streams.
    pub deferred: usize,
    /// Robust-aggregation telemetry for this round.
    pub robustness: RobustnessReport,
}

/// The codec policy a round runs under: one static spec for every stream,
/// or an adaptive [`CodecController`] consulted per stream against the
/// observed byte ledger and the stream's error-feedback magnitude.
#[derive(Debug, Clone, Copy)]
pub enum RoundCodec<'a> {
    /// The same spec on every stream — the pre-controller behaviour, with
    /// byte accounting pinned by the conformance goldens.
    Static(&'a CodecSpec),
    /// Per-`(round, stream)` choice within a byte budget. The controller
    /// is pure, so adaptive rounds stay rerun-identical.
    Adaptive(&'a CodecController),
}

/// Runs one scenario-mediated round of `algorithm`: advances the engine's
/// round clock, gates the pool by churn, and — per stream — selects a
/// cohort, broadcasts the encoded globals (first-contact recipients get
/// metered full-state frames), fans out local steps (label-poisoning
/// attackers train on flipped labels), ships every upload through `codec`
/// (with error feedback when configured; wire-level attackers corrupt
/// theirs in transit), lets the engine apply dropout/straggler/staleness
/// fates, feeds selector utility, liveness, and rejection signals, and
/// folds whatever matured under `policy`, metering and refunding whatever
/// the fold quarantines.
///
/// Every algorithm the experiment runner drives goes through this one
/// function: ShiftEx and every baseline pay for the same scenario axes and
/// the same bytes, so head-to-head numbers compare algorithms rather than
/// runtimes. A legacy path still exists beside it:
/// [`run_round`](crate::run_round) in `round.rs` drives
/// `ShiftEx::train_round`/`bootstrap` and [`FederatedJob`](crate::FederatedJob)
/// until it is deleted in favour of this driver.
#[allow(clippy::too_many_arguments)] // the round's full I/O surface: wire, fold, meter, seed
pub fn run_algorithm_round<A: FederatedAlgorithm + ?Sized>(
    algorithm: &mut A,
    population: &PopulationStore,
    engine: &mut ScenarioEngine,
    codec: &CodecSpec,
    selector: &mut dyn ParticipantSelector,
    policy: &FoldPolicy,
    ledger: Option<&CommLedger>,
    rng: &mut StdRng,
) -> AlgoRoundOutcome {
    run_algorithm_round_with(
        algorithm,
        population,
        engine,
        RoundCodec::Static(codec),
        selector,
        policy,
        ledger,
        rng,
    )
}

/// Like [`run_algorithm_round`] but with the codec policy generalised to
/// [`RoundCodec`]: an adaptive controller picks each stream's spec from
/// the observed ledger snapshot and the stream's error-feedback magnitude
/// before the stream broadcasts. The static arm is byte-for-byte the old
/// driver.
#[allow(clippy::too_many_arguments)] // the round's full I/O surface: wire, fold, meter, seed
pub fn run_algorithm_round_with<A: FederatedAlgorithm + ?Sized>(
    algorithm: &mut A,
    population: &PopulationStore,
    engine: &mut ScenarioEngine,
    codec: RoundCodec<'_>,
    selector: &mut dyn ParticipantSelector,
    policy: &FoldPolicy,
    ledger: Option<&CommLedger>,
    rng: &mut StdRng,
) -> AlgoRoundOutcome {
    run_algorithm_round_transported(
        algorithm,
        population,
        engine,
        codec,
        selector,
        policy,
        ledger,
        rng,
        &mut LocalTransport,
    )
}

/// Like [`run_algorithm_round_with`] but with the broadcast → local-step →
/// upload leg of each stream delegated to an explicit [`CohortTransport`]:
/// [`LocalTransport`] reproduces the in-process exchange bit-for-bit, a
/// networked transport ships the same encoded frames to worker processes
/// over real sockets. Parties the transport reports as
/// [`UploadOutcome::Lost`] (real disconnects, sockets stalled past the
/// round deadline) are metered as aborted uploads at the exact frame size
/// and fed to the selector's availability hook — the same paths the
/// engine's simulated churn and straggler axes use.
#[allow(clippy::too_many_arguments)] // the round's full I/O surface: wire, fold, meter, seed
pub fn run_algorithm_round_transported<A: FederatedAlgorithm + ?Sized>(
    algorithm: &mut A,
    population: &PopulationStore,
    engine: &mut ScenarioEngine,
    codec: RoundCodec<'_>,
    selector: &mut dyn ParticipantSelector,
    policy: &FoldPolicy,
    ledger: Option<&CommLedger>,
    rng: &mut StdRng,
    transport: &mut dyn CohortTransport,
) -> AlgoRoundOutcome {
    let round = engine.begin_round();
    selector.begin_round();
    let all_ids = population.party_ids();
    let live_ids = engine.live_members(&all_ids);
    let live = population.view(live_ids.clone());
    let server_lr = match engine.spec().mode {
        RoundMode::Sync => 1.0,
        RoundMode::Async(a) => a.server_lr,
    };

    let mut deferred = 0usize;
    let mut lost = Vec::new();
    let mut robustness = RobustnessReport::default();
    for key in algorithm.streams() {
        let cohort_ids = algorithm.cohort(key, &live, selector, rng);
        let globals = algorithm.broadcast_state(key);
        // Resolve the stream's codec: static specs pass through untouched;
        // an adaptive controller decides from (round, stream, cohort size,
        // model size, observed ledger, EF magnitude) — all deterministic.
        let adaptive_spec;
        let codec: &CodecSpec = match codec {
            RoundCodec::Static(spec) => spec,
            RoundCodec::Adaptive(controller) => {
                let totals = ledger.map(|l| l.totals()).unwrap_or_default();
                adaptive_spec = controller.spec_for(
                    round,
                    key,
                    cohort_ids.len(),
                    globals.len(),
                    &totals,
                    engine.ef_magnitude(key),
                );
                &adaptive_spec
            }
        };
        // One pre-drawn seed per member keeps results independent of
        // training order (and identical to the parallel fan-out and to a
        // networked coordinator, which draws these exact seeds here before
        // any socket I/O).
        let seeds: Vec<u64> = cohort_ids.iter().map(|_| rng.random::<u64>()).collect();
        let outcomes = transport.exchange(
            &CohortExchange {
                key,
                globals: &globals,
                codec,
                cohort: &cohort_ids,
                seeds: &seeds,
            },
            &live,
            engine,
            ledger,
            &mut |party, decoded, seed| algorithm.local_step(key, party, decoded, seed),
        );
        let mut arrived: Vec<ModelUpdate> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                UploadOutcome::Delivered(update) => arrived.push(update),
                UploadOutcome::Lost(party) => {
                    // A real loss (socket died or stalled past the round
                    // deadline): the party paid for the upload it never
                    // landed — meter the exact frame size as aborted and
                    // let availability-aware selectors cool the party
                    // down, exactly as the simulated axes do.
                    if let Some(l) = ledger {
                        l.record_aborted_upload(codec.update_len(globals.len()));
                    }
                    selector.on_unavailable(party);
                    lost.push(party);
                }
            }
        }
        let delivery = engine.collect(key, arrived, codec, ledger);
        for &party in &delivery.lost {
            selector.on_unavailable(party);
        }
        deferred += delivery.deferred.len();
        lost.extend_from_slice(&delivery.lost);
        let verdicts = algorithm.fold(key, &delivery.ready, server_lr, policy);
        let quarantined: BTreeSet<PartyId> = verdicts
            .iter()
            .filter(|v| v.quarantined)
            .map(|v| v.party)
            .collect();
        for w in &delivery.ready {
            if quarantined.contains(&w.update.party) {
                // The upload completed and its bytes were metered; overlay
                // the rejection, tell the selector the party was alive but
                // refused, and refund the shipped mass into the party's
                // error-feedback accumulator so lossy codecs re-ship it.
                if let Some(ledger) = ledger {
                    ledger.record_quarantined_upload(w.update.encoded_len(codec));
                }
                selector.on_rejected(w.update.party);
                engine.refund_quarantined(key, codec, &w.update);
            } else {
                selector.observe(w.update.party, w.update.train_loss);
            }
        }
        robustness.absorb(&verdicts);
    }
    algorithm.end_round(&live, rng);
    // Close the round on the transport (a networked coordinator tells its
    // workers; the local transport is a no-op).
    transport.round_complete(engine);

    AlgoRoundOutcome {
        round,
        live: live_ids,
        folded: robustness.folded,
        lost,
        deferred,
        robustness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChurnSpec, ScenarioSpec};
    use crate::selection::UniformSelector;
    use rand::SeedableRng;
    use shiftex_data::{ImageShape, PrototypeGenerator};
    use shiftex_nn::Sequential;

    /// Minimal single-model reference implementation for driver tests.
    struct PlainFedAvg {
        spec: ArchSpec,
        params: Vec<f32>,
        ppr: usize,
    }

    impl FederatedAlgorithm for PlainFedAvg {
        fn name(&self) -> &str {
            "plain"
        }
        fn arch(&self) -> &ArchSpec {
            &self.spec
        }
        fn init(&mut self, _parties: &PopulationView<'_>, rng: &mut StdRng) {
            self.params = Sequential::build(&self.spec, rng).params_flat();
        }
        fn begin_window(&mut self, _w: usize, _m: &PopulationView<'_>, _rng: &mut StdRng) {}
        fn streams(&self) -> Vec<usize> {
            vec![0]
        }
        fn broadcast_state(&self, _key: usize) -> Vec<f32> {
            self.params.clone()
        }
        fn train_config(&self, _key: usize) -> TrainConfig {
            TrainConfig::default()
        }
        fn cohort(
            &mut self,
            _key: usize,
            live: &PopulationView<'_>,
            selector: &mut dyn ParticipantSelector,
            rng: &mut StdRng,
        ) -> Vec<PartyId> {
            if live.is_empty() {
                return Vec::new();
            }
            let infos = live.infos();
            let chosen: BTreeSet<PartyId> =
                selector.select(&infos, self.ppr, rng).into_iter().collect();
            live.ids()
                .iter()
                .copied()
                .filter(|id| chosen.contains(id))
                .collect()
        }
        fn fold(
            &mut self,
            _key: usize,
            ready: &[WeightedUpdate],
            server_lr: f32,
            policy: &FoldPolicy,
        ) -> Vec<UpdateVerdict> {
            let fold = crate::robust::aggregate_robust(&self.params, ready, server_lr, policy);
            if let Some(p) = fold.params {
                self.params = p;
            }
            fold.verdicts
        }
        fn eval(&self, parties: &PopulationView<'_>) -> f32 {
            crate::evaluate_on_view(&self.spec, &self.params, parties)
        }
        fn model_index(&self, _party: PartyId) -> usize {
            0
        }
        fn num_models(&self) -> usize {
            1
        }
    }

    fn setup(n: usize, seed: u64) -> (PlainFedAvg, Vec<Party>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
        let parties: Vec<Party> = (0..n)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(24, &mut rng),
                    gen.generate_uniform(12, &mut rng),
                )
            })
            .collect();
        let spec = ArchSpec::mlp("algo", 16, &[10], 3);
        let alg = PlainFedAvg {
            spec,
            params: Vec::new(),
            ppr: n,
        };
        (alg, parties)
    }

    #[test]
    fn driver_round_matches_legacy_job_round() {
        // The generic driver on a plain single-model algorithm must be
        // bit-identical to FederatedJob::run_rounds_scenario: same RNG
        // draw order, same aggregation.
        let (mut alg, parties) = setup(5, 0);
        let ids: Vec<PartyId> = parties.iter().map(Party::id).collect();
        let store = PopulationStore::from_parties(parties.clone());

        let mut rng = StdRng::seed_from_u64(1);
        alg.init(&store.view(store.party_ids()), &mut rng);
        let init = alg.params.clone();
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(3), &ids);
        for _ in 0..2 {
            run_algorithm_round(
                &mut alg,
                &store,
                &mut engine,
                &CodecSpec::dense(),
                &mut UniformSelector,
                &FoldPolicy::Mean,
                None,
                &mut rng,
            );
        }

        let mut job = crate::FederatedJob::new(
            alg.spec.clone(),
            parties.clone(),
            crate::RoundConfig {
                participants_per_round: 5,
                ..Default::default()
            },
        );
        let mut rng2 = StdRng::seed_from_u64(1);
        // Burn the draw the algorithm's init consumed.
        let init2 = Sequential::build(&alg.spec, &mut rng2).params_flat();
        assert_eq!(init, init2);
        let mut engine2 = ScenarioEngine::new(ScenarioSpec::sync(3), &ids);
        let report =
            job.run_rounds_scenario(init2, 2, &mut UniformSelector, &mut engine2, &mut rng2);
        assert_eq!(alg.params, report.params, "driver == legacy job path");
    }

    #[test]
    fn driver_survives_a_fully_churned_round() {
        let (mut alg, parties) = setup(4, 7);
        let ids: Vec<PartyId> = parties.iter().map(Party::id).collect();
        let store = PopulationStore::from_parties(parties);
        let mut rng = StdRng::seed_from_u64(8);
        alg.init(&store.view(store.party_ids()), &mut rng);
        let before = alg.params.clone();
        let spec = ScenarioSpec::sync(1).with_churn(ChurnSpec::dropout_only(1.0));
        let mut engine = ScenarioEngine::new(spec, &ids);
        let out = run_algorithm_round(
            &mut alg,
            &store,
            &mut engine,
            &CodecSpec::dense(),
            &mut UniformSelector,
            &FoldPolicy::Mean,
            None,
            &mut rng,
        );
        assert_eq!(out.folded, 0);
        assert_eq!(out.lost.len(), 4);
        assert_eq!(alg.params, before, "no survivors → globals unchanged");
    }

    #[test]
    fn driver_meters_first_contact_then_regular_frames() {
        let (mut alg, parties) = setup(3, 11);
        let ids: Vec<PartyId> = parties.iter().map(Party::id).collect();
        let store = PopulationStore::from_parties(parties);
        let mut rng = StdRng::seed_from_u64(12);
        alg.init(&store.view(store.party_ids()), &mut rng);
        let codec = CodecSpec::quant8(256).with_delta();
        let ledger = CommLedger::new();
        let mut engine = ScenarioEngine::new(ScenarioSpec::sync(2), &ids);
        run_algorithm_round(
            &mut alg,
            &store,
            &mut engine,
            &codec,
            &mut UniformSelector,
            &FoldPolicy::Mean,
            Some(&ledger),
            &mut rng,
        );
        let n = alg.params.len();
        let t1 = ledger.totals();
        assert_eq!(t1.down_bytes, 0, "round 1 is all first contact");
        assert_eq!(
            t1.first_contact_down_bytes,
            3 * codec.first_contact_spec().broadcast_len(n) as u64
        );
        run_algorithm_round(
            &mut alg,
            &store,
            &mut engine,
            &codec,
            &mut UniformSelector,
            &FoldPolicy::Mean,
            Some(&ledger),
            &mut rng,
        );
        let t2 = ledger.totals();
        assert_eq!(
            t2.down_bytes,
            3 * codec.broadcast_len(n) as u64,
            "round 2 recipients hold the reference"
        );
        assert_eq!(
            t2.first_contact_down_bytes, t1.first_contact_down_bytes,
            "no new first contacts"
        );
    }
}
