//! Integration tests for the middleware-operations features: aggregator
//! crash/recovery via registry snapshots, and expert-pool compression via
//! distillation — run against a live end-to-end scenario.

use rand::{rngs::StdRng, SeedableRng};
use shiftex::core::{distill_experts, DistillConfig, RegistrySnapshot, ShiftEx, ShiftExConfig};
use shiftex::data::{DatasetKind, SimScale};
use shiftex::experiments::Scenario;
use shiftex::fl::{
    evaluate_on_view, run_algorithm_round, CodecSpec, FederatedAlgorithm, FoldPolicy,
    LocalTransport, PopulationStore, RoundCodec, ScenarioEngine, ScenarioSpec, UniformSelector,
};

/// `rounds` clean synchronous rounds of `sx` on the unified driver.
fn train(
    sx: &mut ShiftEx,
    store: &PopulationStore,
    engine: &mut ScenarioEngine,
    rounds: usize,
    rng: &mut StdRng,
) {
    for _ in 0..rounds {
        run_algorithm_round(
            sx,
            store,
            engine,
            RoundCodec::Static(&CodecSpec::dense()),
            &mut UniformSelector,
            &FoldPolicy::Mean,
            None,
            rng,
            &mut LocalTransport,
        );
    }
}

/// Enrols a ShiftEx on `scenario`'s population, runs its burn-in, then
/// `windows` shifted windows of `rounds_per_window` rounds each.
fn run_windows(
    scenario: &Scenario,
    windows: usize,
    rng: &mut StdRng,
) -> (ShiftEx, PopulationStore, ScenarioEngine) {
    let cfg = ShiftExConfig {
        participants_per_round: scenario.participants_per_round(),
        ..ShiftExConfig::default()
    };
    let mut sx = ShiftEx::new(cfg, scenario.spec.clone(), rng);
    let mut store = PopulationStore::from_parties(scenario.initial_parties(rng));
    let ids = store.party_ids();
    let mut engine = ScenarioEngine::new(ScenarioSpec::sync(scenario.seed), &ids);
    sx.init(&store.view(ids.clone()), rng);
    train(
        &mut sx,
        &store,
        &mut engine,
        scenario.bootstrap_rounds(),
        rng,
    );
    for w in 1..=windows {
        store.advance_window_with(w, |p| scenario.advance_party(p, w, rng));
        sx.process_window(&store.view(ids.clone()), rng);
        train(
            &mut sx,
            &store,
            &mut engine,
            scenario.rounds_per_window,
            rng,
        );
    }
    (sx, store, engine)
}

/// Runs a scenario half-way, snapshots, "restarts" the aggregator, restores,
/// and verifies the restored instance serves identically and can continue.
#[test]
fn aggregator_recovers_from_snapshot_mid_scenario() {
    let scenario = Scenario::build(DatasetKind::Cifar10C, SimScale::Smoke, 17);
    let mut rng = StdRng::seed_from_u64(1);
    // Two shifted windows so the registry holds real structure.
    let (sx, mut store, mut engine) = run_windows(&scenario, 2, &mut rng);

    // Snapshot → JSON → fresh process → restore.
    let json = sx.snapshot().to_json().expect("snapshot serialises");
    let mut restored = ShiftEx::new(sx.config().clone(), scenario.spec.clone(), &mut rng);
    restored.restore(RegistrySnapshot::from_json(&json).expect("snapshot parses"));

    assert_eq!(restored.num_experts(), sx.num_experts());
    assert_eq!(restored.assignments(), sx.assignments());
    let parties = store.view(store.party_ids());
    let a = sx.eval(&parties);
    let b = restored.eval(&parties);
    assert!((a - b).abs() < 1e-6, "restored serving accuracy {b} != {a}");

    // The restored aggregator keeps operating: next window processes and
    // trains without panicking, and thresholds carried over.
    store.advance_window_with(3, |p| scenario.advance_party(p, 3, &mut rng));
    let report = restored.process_window(&store.view(store.party_ids()), &mut rng);
    assert!(report.delta_cov > 0.0, "thresholds must survive restore");
    train(&mut restored, &store, &mut engine, 1, &mut rng);
}

/// Distils a multi-expert pool into one student on regime-covering reference
/// data and verifies the student retains most of the mixture's accuracy.
#[test]
fn expert_pool_compresses_via_distillation() {
    let scenario = Scenario::build(DatasetKind::Cifar10C, SimScale::Smoke, 23);
    let mut rng = StdRng::seed_from_u64(2);
    let (sx, store, _engine) = run_windows(&scenario, scenario.eval_windows(), &mut rng);

    // Regime-covering reference set (clear + every pool regime).
    let mut pool_rng = StdRng::seed_from_u64(3);
    let pool = scenario.profile.regime_pool(&mut pool_rng);
    let parts: Vec<_> = pool
        .iter()
        .map(|r| scenario.generator.generate_with_regime(120, r, &mut rng))
        .collect();
    let refs: Vec<_> = parts.iter().collect();
    let reference = shiftex::data::Dataset::concat(&refs);

    let experts: Vec<_> = sx.registry().iter().collect();
    let report = distill_experts(
        &scenario.spec,
        &experts,
        reference.features(),
        &DistillConfig::default(),
        &mut rng,
    );
    assert!(
        report.teacher_agreement > 0.8,
        "student must track the teacher mixture: {}",
        report.teacher_agreement
    );

    let parties = store.view(store.party_ids());
    let moe_acc = sx.eval(&parties);
    let student_acc = evaluate_on_view(&scenario.spec, &report.student_params, &parties);
    assert!(
        student_acc > moe_acc - 0.25,
        "student {student_acc} should retain most of the mixture's {moe_acc}"
    );
}
