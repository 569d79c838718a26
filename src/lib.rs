//! # ShiftEx — shift-aware mixture-of-experts middleware for federated learning
//!
//! A from-scratch Rust reproduction of *"Shift Happens: Mixture of Experts
//! based Continual Adaptation in Federated Learning"* (MIDDLEWARE 2025).
//!
//! Streaming federated learning deployments face covariate and label shift:
//! party data distributions change between stream windows, and a single
//! global model degrades. ShiftEx detects both kinds of shift from privacy-
//! preserving aggregate statistics (MMD over penultimate-layer embeddings,
//! JSD over label histograms), clusters shifted parties by latent profile,
//! reuses specialised experts through a latent memory, spawns new experts
//! for unseen regimes, and consolidates redundant ones.
//!
//! This crate is a facade that re-exports the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `shiftex-core` | the ShiftEx framework (Algorithms 1–2, Eq. 2) |
//! | [`fl`] | `shiftex-fl` | federated runtime: parties, the round driver, codecs |
//! | [`flips`] | `shiftex-flips` | FLIPS label-balanced participant selection |
//! | [`baselines`] | `shiftex-baselines` | FedProx, OORT, Fielding, FedDrift |
//! | [`detect`] | `shiftex-detect` | MMD / JSD detectors + threshold calibration |
//! | [`cluster`] | `shiftex-cluster` | k-means + Davies–Bouldin model selection |
//! | [`data`] | `shiftex-data` | synthetic shifted-stream datasets |
//! | [`stream`] | `shiftex-stream` | tumbling/sliding windows, shift schedules |
//! | [`nn`] | `shiftex-nn` | neural-network substrate with embeddings |
//! | [`tensor`] | `shiftex-tensor` | matrix math + seedable distributions |
//! | [`tee`] | `shiftex-tee` | simulated trusted execution environment |
//! | [`experiments`] | `shiftex-experiments` | the paper's evaluation harness |
//!
//! # Quickstart
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use shiftex::core::{ShiftEx, ShiftExConfig};
//! use shiftex::data::{Corruption, ImageShape, PrototypeGenerator, Regime};
//! use shiftex::fl::{
//!     run_algorithm_round, CodecSpec, FederatedAlgorithm, FoldPolicy, LocalTransport, Party,
//!     PartyId, PopulationStore, RoundCodec, ScenarioEngine, ScenarioSpec, UniformSelector,
//! };
//! use shiftex::nn::ArchSpec;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let gen = PrototypeGenerator::new(ImageShape::new(1, 8, 8), 4, &mut rng);
//!
//! // A small federation on the clean distribution.
//! let parties: Vec<Party> = (0..8)
//!     .map(|i| Party::new(PartyId(i),
//!                         gen.generate_uniform(40, &mut rng),
//!                         gen.generate_uniform(20, &mut rng)))
//!     .collect();
//! let mut population = PopulationStore::from_parties(parties);
//! let ids = population.party_ids();
//!
//! // Bootstrap a global model with three synchronous rounds of the one
//! // round driver every algorithm runs through.
//! let spec = ArchSpec::mlp("quickstart", 64, &[24, 12], 4);
//! let mut shiftex = ShiftEx::new(ShiftExConfig::default(), spec, &mut rng);
//! shiftex.init(&population.view(ids.clone()), &mut rng);
//! let mut engine = ScenarioEngine::new(ScenarioSpec::sync(0), &ids);
//! for _ in 0..3 {
//!     run_algorithm_round(&mut shiftex, &population, &mut engine,
//!                         RoundCodec::Static(&CodecSpec::dense()), &mut UniformSelector,
//!                         &FoldPolicy::Mean, None, &mut rng, &mut LocalTransport);
//! }
//!
//! // Then fog arrives for half the parties.
//! let fog = Regime::corrupted(Corruption::Fog, 5);
//! population.advance_window_with(1, |p| {
//!     let (train, test) = if p.id().0 < 4 {
//!         (gen.generate_with_regime(40, &fog, &mut rng),
//!          gen.generate_with_regime(20, &fog, &mut rng))
//!     } else {
//!         (gen.generate_uniform(40, &mut rng), gen.generate_uniform(20, &mut rng))
//!     };
//!     p.advance_window(train, test);
//! });
//! let report = shiftex.process_window(&population.view(ids), &mut rng);
//! assert!(report.cov_shifted.len() >= 2, "the fog cohort is detected");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shiftex_baselines as baselines;
pub use shiftex_cluster as cluster;
pub use shiftex_core as core;
pub use shiftex_data as data;
pub use shiftex_detect as detect;
pub use shiftex_experiments as experiments;
pub use shiftex_fl as fl;
pub use shiftex_flips as flips;
pub use shiftex_nn as nn;
pub use shiftex_stream as stream;
pub use shiftex_tee as tee;
pub use shiftex_tensor as tensor;
