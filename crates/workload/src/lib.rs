#![doc = include_str!("workload.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collectives;
pub mod dag;
pub mod flow;
pub mod registry;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::collectives::{
        all_to_all, incast, parameter_server, ring_allreduce, tree_allreduce,
    };
    pub use crate::dag::Workload;
    pub use crate::flow::FlowId;
    pub use crate::registry::{
        lookup_workload_factory, registered_workloads, WorkloadFactory, WorkloadRef, WorkloadSpec,
    };
}

pub use prelude::*;
