//! ShiftEx: shift-aware mixture-of-experts middleware for continual
//! federated learning — the primary contribution of *"Shift Happens:
//! Mixture of Experts based Continual Adaptation in Federated Learning"*
//! (MIDDLEWARE 2025).
//!
//! The framework detects covariate shift (MMD over penultimate-layer
//! embeddings) and label shift (JSD over label histograms) between
//! consecutive stream windows, clusters shifted parties by latent profile,
//! reuses existing experts through a latent memory, spawns new experts for
//! unseen regimes, trains each expert's cohort with FLIPS label-balanced
//! selection, and periodically consolidates near-duplicate experts.
//!
//! The top-level type is [`ShiftEx`]; each piece of the pipeline is exposed
//! as its own module so the benchmarks and ablations can exercise them in
//! isolation:
//!
//! * [`party`] — party-side shift statistics (paper Algorithm 1)
//! * [`memory`] — latent memory (EMA embedding signatures) for expert reuse
//! * [`registry`] — the expert pool
//! * [`assignment`] — facility-location expert assignment (Eq. 2): exact
//!   branch-and-bound and the modular greedy approximation
//! * [`consolidate`] — cosine-similarity expert merging
//! * [`aggregator`] — the window-level orchestration (paper Algorithm 2)
//! * [`strategy`] — shared evaluation helpers for
//!   [`shiftex_fl::FederatedAlgorithm`] implementations
//! * [`overhead`] — §5.4 space/time accounting
//! * [`distill`] — expert compression via distillation (§9 future work)
//! * [`snapshot`] — registry serialisation for aggregator recovery
//!
//! # Example
//!
//! ```
//! use shiftex_core::{ShiftEx, ShiftExConfig};
//! use shiftex_fl::{FederatedAlgorithm, Party, PartyId, PopulationStore};
//! use shiftex_data::{ImageShape, PrototypeGenerator};
//! use shiftex_nn::ArchSpec;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let gen = PrototypeGenerator::new(ImageShape::new(1, 4, 4), 3, &mut rng);
//! let parties: Vec<Party> = (0..6)
//!     .map(|i| Party::new(PartyId(i), gen.generate_uniform(32, &mut rng),
//!                         gen.generate_uniform(16, &mut rng)))
//!     .collect();
//! let population = PopulationStore::from_parties(parties);
//! let spec = ArchSpec::mlp("demo", 16, &[8], 3);
//! let mut shiftex = ShiftEx::new(ShiftExConfig::default(), spec, &mut rng);
//! // Enrol everyone on expert 0; `shiftex_fl::run_algorithm_round` then
//! // trains it, and `process_window` reacts to each new window.
//! shiftex.init(&population.view(population.party_ids()), &mut rng);
//! assert_eq!(shiftex.num_experts(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod assignment;
mod config;
pub mod consolidate;
pub mod distill;
pub mod memory;
pub mod overhead;
pub mod party;
pub mod registry;
pub mod snapshot;
pub mod strategy;

pub use aggregator::{ShiftEx, WindowReport};
pub use config::ShiftExConfig;
pub use distill::{distill_experts, DistillConfig, DistillReport};
pub use memory::LatentMemory;
pub use party::{compute_shift_stats, ShiftStats};
pub use registry::{Expert, ExpertId, ExpertRegistry};
pub use snapshot::{RegistrySnapshot, SnapshotError};
