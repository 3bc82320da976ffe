//! # hpcwhisk-gateway
//!
//! The **live serving plane** of the HPC-Whisk reproduction: where
//! `crates/whisk` models the platform under the deterministic DES
//! engine to answer the paper's quantitative questions, this crate runs
//! the same architecture on real OS threads to serve real traffic —
//! and proves the drain protocol under genuine concurrency.
//!
//! Layers (one module each):
//!
//! * [`action`] — the catalogue of deployable actions with real bodies
//!   (SeBS kernels from `crates/sebs`, calibrated spins, no-ops),
//!   cold-start/keep-alive parameters and per-action in-flight caps;
//! * [`route`] — a sharded, epoch-swapped routing table: the invoke hot
//!   path takes one shard-local read lock, never a global one;
//! * [`ring`] — the per-invoker home queues: bounded lock-free MPSC
//!   rings with the offset/`produced_at` semantics of `crates/mq`;
//! * [`queue`] — [`WorkQueue`], the shared MPMC fast lane every invoker
//!   drains first (and the rings' differential oracle in tests), plus
//!   the request/envelope types; both queues are differentially tested
//!   against `mq::Broker`;
//! * [`pool`] — thread-private warm-container pools: cold-start
//!   penalty, keep-alive eviction, LRU under capacity pressure;
//! * [`admission`] — admission *shaping*: the default hard-shed policy,
//!   or a capacity-tracking token bucket that degrades through a typed,
//!   bounded **delay** before shedding (a latency slope instead of a
//!   shed cliff under overload and capacity dips);
//! * [`gateway`] — admission control, the invoker threads with the
//!   paper's §III-C fast-lane-first drain protocol (draining up to
//!   `drain_batch` envelopes per pop), per-invoker **completion
//!   shards** (single-producer lock-free segment stacks behind an
//!   epoch-published shard table, swept round-robin by any number of
//!   concurrent [`Collector`]s without a mutex), and graceful
//!   sigterm/join lifecycle. One submit path
//!   ([`Gateway::invoke_burst`], with [`Gateway::invoke`] as its
//!   one-request wrapper) and one collect path (a [`Collector`] through
//!   [`Gateway::collect_completions_with`] or the blocking
//!   [`Gateway::collect_wait`]);
//! * [`lease`] — capacity leases: wall-clock [`LeasePlan`]s compiled
//!   from `cluster::CapacityTrace` availability streams (or generated
//!   as seeded synthetic churn), with per-lease deadlines, a
//!   concurrency cap and a pinned routable floor;
//! * [`source`] — the [`LeaseSource`] trait the controller consumes:
//!   plan replay ([`PlanSource`]) or a live DES-driven source;
//! * [`controller`] — the [`CapacityController`] that executes a plan:
//!   grants start invokers, deadlines trigger drains *ahead* of the
//!   revoke (§III-C's grace window), revokes reap — the lease-driven
//!   invoker lifecycle that replaces hand-rolled start/sigterm/join;
//! * [`harness`] — the closed-loop load harness replaying
//!   `crates/workload` arrival processes (Poisson, diurnal) into
//!   log-linear latency histograms, with per-action
//!   admitted/delayed/shed/lost accounting built *from* the telemetry
//!   registry when the gateway records one;
//! * [`telem`] — the gateway's telemetry plane: a
//!   `telemetry::Registry` of sharded counters, gauges and latency
//!   histograms covering every admission outcome, lease transition,
//!   pool event and queue high-water, scrapeable as Prometheus text.
//!
//! The drain guarantee, stated once and tested in
//! `tests/drain_stress.rs` (hand-churned) and by the `elasticity`
//! scenario (trace-churned): **every admitted request is executed
//! exactly once as long as one invoker survives** — sigterm moves
//! unstarted backlog to the fast lane with admission timestamps
//! preserved; producers that race a drain reroute themselves.

pub mod action;
pub mod admission;
pub mod controller;
pub mod gateway;
pub mod harness;
pub mod lease;
pub mod pool;
pub mod queue;
pub mod ring;
pub mod route;
pub mod source;
pub mod telem;

pub use action::{ActionBody, ActionId, ActionRegistry, ActionSpec};
pub use admission::ShardAdmission;
pub use admission::{AdmissionPolicy, TokenBucketCfg};
pub use controller::{CapacityController, ControllerConfig, LeaseStats};
pub use gateway::{
    Admit, BurstScratch, Collector, Completion, Counters, Gateway, GatewayConfig, InvokerToken,
    Shed,
};
pub use harness::{run_load, run_load_with_controller, ActionLoad, HarnessConfig, LoadReport};
pub use lease::{ChurnCfg, LeaseEvent, LeaseEventKind, LeasePlan};
pub use pool::{Placement, PoolStats, WarmPool};
pub use queue::{Envelope, Produce, ProduceBatch, Request, WorkQueue};
pub use ring::RingQueue;
pub use route::Router;
pub use source::{LeaseSource, LoadFeedback, PlanSource};
pub use telem::{GatewayTelemetry, SlotTelem};
