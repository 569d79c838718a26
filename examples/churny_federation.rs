//! Churny federation: the same FedAvg federation run under the paper's
//! clean synchronous protocol and under a deployment-grade scenario —
//! parties joining late, leaving for good, dropping out mid-round,
//! straggling past the deadline — with staleness-aware buffered aggregation
//! absorbing the chaos.
//!
//! ```text
//! cargo run --release --example churny_federation
//! ```

use rand::{rngs::StdRng, SeedableRng};
use shiftex::baselines::FedAvg;
use shiftex::data::{ImageShape, PrototypeGenerator};
use shiftex::fl::{
    run_algorithm_round, AsyncSpec, ChurnSpec, CodecSpec, CommLedger, FederatedAlgorithm,
    FoldPolicy, LatePolicy, LocalTransport, Party, PartyId, PopulationStore, RoundCodec,
    ScenarioEngine, ScenarioSpec, StragglerSpec, UniformSelector,
};
use shiftex::nn::{ArchSpec, TrainConfig};

const ROUNDS: usize = 12;

fn population(rng: &mut StdRng) -> PopulationStore {
    let gen = PrototypeGenerator::new(ImageShape::new(1, 6, 6), 4, rng);
    PopulationStore::from_parties(
        (0..20)
            .map(|i| {
                Party::new(
                    PartyId(i),
                    gen.generate_uniform(24, rng),
                    gen.generate_uniform(12, rng),
                )
            })
            .collect(),
    )
}

/// Runs `ROUNDS` FedAvg rounds (cohort 10) under `scenario`, printing the
/// first rows of the participation record; returns the final live-member
/// accuracy.
fn run(
    population: &PopulationStore,
    scenario: ScenarioSpec,
    ledger: &CommLedger,
    rows: usize,
) -> (f32, ScenarioEngine) {
    let spec = ArchSpec::mlp("churny", 36, &[16], 4);
    let mut fedavg = FedAvg::new(spec, TrainConfig::default(), 10);
    let ids = population.party_ids();
    let mut rng = StdRng::seed_from_u64(2);
    fedavg.init(&population.view(ids.clone()), &mut rng);
    let mut engine = ScenarioEngine::new(scenario, &ids);
    let mut accuracy = 0.0;
    for _ in 0..ROUNDS {
        let before = engine.stats();
        let outcome = run_algorithm_round(
            &mut fedavg,
            population,
            &mut engine,
            RoundCodec::Static(&CodecSpec::dense()),
            &mut UniformSelector,
            &FoldPolicy::Mean,
            Some(ledger),
            &mut rng,
            &mut LocalTransport,
        );
        let delta = engine.stats().minus(&before);
        if outcome.round <= rows {
            println!(
                "  round {:>2}: live {:>2}, selected {}, delivered {}, lost {}",
                outcome.round,
                outcome.live.len(),
                delta.selected,
                delta.delivered,
                delta.dropped_churn + delta.dropped_late
            );
        }
        accuracy = fedavg.eval(&population.view(outcome.live));
    }
    (accuracy, engine)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let population = population(&mut rng);

    // 1. The paper's protocol: synchronous, everyone always available.
    let (clean, engine) = run(&population, ScenarioSpec::sync(1), &CommLedger::new(), 0);
    println!(
        "clean sync     : accuracy {:.1}%, {} updates delivered, 0 lost",
        clean * 100.0,
        engine.stats().delivered
    );

    // 2. Same federation under churn + stragglers + async buffered
    // aggregation.
    let scenario = ScenarioSpec::sync(1)
        .with_churn(ChurnSpec {
            join_fraction: 0.25,  // a quarter of the fleet arrives late…
            join_ramp_rounds: 4,  // …during the first four rounds
            leave_fraction: 0.15, // some leave for good
            leave_after: 6,
            horizon: ROUNDS,
            dropout: 0.15, // and anyone can crash mid-round
        })
        .with_stragglers(StragglerSpec::uniform(0.8, 1.0, LatePolicy::Defer))
        .with_async(AsyncSpec {
            min_buffer: 4,
            staleness_alpha: 0.5,
            max_staleness: 3,
            server_lr: 1.0,
        });
    let ledger = CommLedger::new();
    let (churny, engine) = run(&population, scenario, &ledger, 4);
    println!("  …");

    let t = engine.stats();
    println!(
        "churny async   : accuracy {:.1}%, {} delivered / {} dropped mid-round / {} deferred / {} stale",
        churny * 100.0,
        t.delivered,
        t.dropped_churn,
        t.deferred,
        t.stale_dropped
    );
    let comm = ledger.totals();
    println!(
        "comm ledger    : {} ok messages, {} aborted uploads ({} B wasted)",
        comm.messages, comm.aborted_messages, comm.aborted_up_bytes
    );
}
