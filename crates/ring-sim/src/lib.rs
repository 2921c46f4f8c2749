//! # ring-sim — synchronous ring-network simulation substrate
//!
//! This crate implements the machine model of *"Job Scheduling in Rings"*
//! (Fizzano, Karger, Stein, Wein — SPAA 1994, §2):
//!
//! * `m` identical processors arranged in a ring, numbered `0..m` (the paper
//!   numbers them `1..=m`; we use zero-based indices). All index arithmetic
//!   is modulo `m`.
//! * Time advances in synchronous unit steps. In one step every processor
//!   can **receive** messages from each neighbor, **send** messages to each
//!   neighbor, and **process one unit of work**.
//! * A message sent at time `t` is received at time `t + 1`, so migrating a
//!   job between processors at ring distance `d` takes `d` time.
//! * Links are either *uncapacitated* (any number of jobs per step, the
//!   model of §2–§6) or *unit-capacity* (one job and one control message per
//!   link direction per step, the model of §7).
//!
//! The crate is policy-agnostic: scheduling algorithms implement the
//! [`Node`] trait and are executed by the [`Engine`]. The same policy code
//! can also be run by the thread-per-processor executor in the `ring-net`
//! crate, which demonstrates that the policies use only local information.
//!
//! ```
//! use ring_sim::{Instance, RingTopology};
//!
//! let inst = Instance::from_loads(vec![5, 0, 0, 3]);
//! assert_eq!(inst.num_processors(), 4);
//! assert_eq!(inst.total_work(), 8);
//! let topo = RingTopology::new(4);
//! assert_eq!(topo.distance(0, 3), 1); // rings wrap around
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod instance;
pub mod metrics;
pub mod oracle;
pub mod stream;
pub mod topology;
pub mod trace;
pub mod tracefile;
pub mod validate;
pub mod viz;

pub use checkpoint::{
    CheckpointError, Decoder, Encoder, Persist, Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use engine::{
    Audit, Coalesce, DropRecord, Engine, EngineConfig, Inbox, LinkCapacity, Node, NodeCtx, Outbox,
    ParConfig, Payload, Quiescence, RunReport, SpanOutcome, StepIo,
};
pub use error::SimError;
pub use fabric::{Fabric, FabricCtx, FabricNode, FabricOutbox, RingLift, FABRIC_SNAPSHOT_VERSION};
pub use fault::{FaultPlan, LinkFault, LinkFaultKind, ProcFault, ProcFaultKind};
pub use instance::{Instance, Job, JobId, SizedInstance};
pub use metrics::{LinkStats, Metrics, Observability, StepSample};
pub use oracle::{check_fabric_run, check_report, check_run, OracleViolation};
pub use ring_topology::{AnyTopology, Clique, Dir4, HierRing, Topology, Torus2D};
pub use topology::{Direction, RingTopology};
pub use trace::{DropKind, Event, Trace, TraceLevel};
pub use tracefile::{
    event_step, violation_step, TraceDiff, TraceFile, TraceFileError, TRACE_MAGIC, TRACE_VERSION,
    TRACE_VERSION_FABRIC,
};
pub use validate::{validate_run, Violation};
pub use viz::render_load_timeline;
