//! Pluggable hazard engine: the pipeline's disaster input behind one
//! trait.
//!
//! The paper's framework is data-centric and hazard-agnostic — the
//! hurricane-surge ensemble is just one possible input to the
//! disaster → attack → classify chain. This crate extracts that seam:
//! a [`HazardModel`] turns a sampled storm into a per-asset severity
//! vector, and everything downstream (post-disaster states, attacker,
//! Table I classification, the artifact store) consumes the result
//! without knowing which hazard produced it.
//!
//! # The severity contract
//!
//! A hazard evaluation fills [`ct_hydro::Realization`]: for every
//! tracked [`ct_hydro::Poi`] a non-negative *severity* in threshold-comparable
//! metres, stored in `inundation_m`. An asset **fails** when its
//! severity exceeds the study's [`ct_hydro::FloodThreshold`] (the
//! paper's 0.5 m switch height by default). Each model documents what
//! its severity means physically:
//!
//! * [`SurgeHazard`] — peak inundation depth in metres (bit-identical
//!   to the pre-trait hard-wired pipeline).
//! * [`WindFragilityHazard`] — a fragility *exceedance depth*: the
//!   switch height scaled by the ratio of the asset's gust-failure
//!   probability to its seeded uniform draw, so the default threshold
//!   reproduces the draw `u < p(gust)` exactly.
//! * [`CompoundHazard`] — the per-asset **maximum** over its parts.
//!   Because `max(a, b) > t ⇔ a > t ∨ b > t`, the compound failure
//!   set is the *union* of the component failure sets at every
//!   threshold, which is the union semantics compound weather+cyber
//!   analyses need.
//!
//! # Cache-key contract
//!
//! Content-addressed stores key hazard output by
//! [`HazardModel::hazard_id`] plus [`HazardModel::digest_params`]:
//! every parameter that can change an evaluated severity must be
//! folded into the digest, so records produced by different hazards
//! (or differently-parameterized instances of one hazard) can never
//! alias.
//!
//! Determinism: `evaluate` must be a pure function of
//! `(index, storm, pois)` and the model's own parameters — models
//! needing randomness derive it from counter-based hashes of
//! `(seed, index, asset)` (see [`fragility_draw`]), never from
//! shared mutable RNG state, so realizations can be computed on any
//! worker thread, in any order, or resumed from a store shard.

mod compound;
mod fragility;
mod model;
mod prepared;
mod spec;
mod surge;
pub mod wind;

/// Version of the hazard-engine semantics baked into artifact-store
/// content addresses (alongside each model's own parameter digest).
/// Bump when the meaning of an evaluated severity changes for every
/// model at once (e.g. a different severity contract).
pub const HAZARD_KERNEL_VERSION: u32 = 1;

pub use compound::CompoundHazard;
pub use fragility::{fragility_draw, DamageModel};
pub use model::HazardModel;
pub use spec::{HazardSpec, ParseHazardSpecError};
pub use surge::SurgeHazard;
pub use wind::WindFragilityHazard;
