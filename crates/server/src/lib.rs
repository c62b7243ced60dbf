//! # xlac-server — approximation-as-a-service
//!
//! A long-running, zero-dependency TCP service that accepts batched
//! SAD / FIR / DCT / multiplier workloads over a length-prefixed framed
//! protocol and serves them through the workspace's approximate
//! datapaths. It is the paper's cross-layer architecture turned into a
//! running system: each request names a **tenant** and a **quality
//! target** (maximum mean error distance); the §6 approximation
//! management unit picks the cheapest hardware configuration whose
//! *certified* error bound (from `xlac-analysis`) respects the target;
//! a §6.2 sampling monitor plus a CEC-style drift ledger correct
//! run-time drift per tenant; and a per-tenant error budget degrades
//! overspending tenants to exact configurations — never dropping them.
//!
//! The runtime is hand-rolled, one reader thread per connection and no
//! async runtime or thread pool: a reader decodes frames and shards
//! requests by tenant into bounded queues (full ⇒ `Overloaded`
//! backpressure reply), then drains each shard it enqueued into unless
//! another reader already is, coalescing same-kernel same-config items
//! into 64/256/512-lane plane batches riding `xlac-sim`'s JIT. Replies
//! are bit-identical to the single-threaded library models at any shard
//! count. See DESIGN.md §15 for the protocol grammar and the determinism
//! argument.
//!
//! Modules:
//!
//! * [`proto`] — the wire grammar: requests, replies, typed errors.
//! * [`ladder`] — per-kernel configuration ladders with certified MED
//!   bounds and manager-driven selection.
//! * [`tenant`] — per-tenant monitoring, drift ledger, error budgets.
//! * [`engine`] — batch-composition-invariant coalesced evaluation.
//! * [`server`] — the acceptor / reader / shard runtime.
//! * [`client`] — a minimal blocking client (loadgen and tests).
//! * [`loadgen`] — seeded open-loop load generation with bit-exact
//!   multiplier verification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod ladder;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod tenant;

pub use client::Client;
pub use ladder::Ladders;
pub use loadgen::{
    capacity_check, measure_per_eval_ns, per_eval_ns_from_bench, CapacityOptions, CapacityReport,
    LoadOptions, LoadReport,
};
pub use proto::{ErrorCode, Kernel, Reply, Request, RequestBody, SadPair, Values};
pub use server::{Server, ServerConfig, StatsSnapshot};
pub use tenant::TenantPolicy;
