//! # rebert-registry
//!
//! A versioned registry of resident ReBERT checkpoints for the serving
//! layer. Each name maps to the *current version* of a model — an
//! immutable bundle of the [`rebert::ReBertModel`] (with its quantized
//! int8 view pre-warmed), the checkpoint fingerprint, and a per-version
//! [`rebert::ScoreCache`] persisted as `score-cache-<fingerprint>.bin`.
//!
//! Publication is an **atomic hot swap**: [`ModelRegistry::install`]
//! builds the new resident off to the side, then replaces the name's
//! entry under the registry's one mutex. Requests pin a version with
//! [`ModelRegistry::get`]/[`resolve`] (an `Arc` clone under that lock)
//! and keep serving on it bitwise-unchanged while newer versions come
//! and go; the swapped-out version retires — score cache flushed to
//! disk, memory dropped — once its last in-flight handle drains
//! ([`ModelRegistry::reap`]). The lock is a leaf: the registry logs,
//! flushes and drops only after releasing it.
//!
//! [`TenantQuotas`] rides along for the serving layer's per-tenant
//! token-bucket rate limiting (`--tenant-quota`, `X-Rebert-Tenant`,
//! `429 Too Many Requests`).
//!
//! [`resolve`]: ModelRegistry::resolve

#![warn(missing_docs)]

mod quota;
mod registry;

pub use quota::{TenantQuotas, MAX_TENANTS};
pub use registry::{ModelRegistry, RegistryConfig, ResidentModel, DEFAULT_MODEL};
