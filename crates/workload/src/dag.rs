//! The [`Workload`] DAG: a named, validated set of dependent flows.

use crate::flow::{Flow, FlowId};
use pnoc_noc::ids::CoreId;
use std::collections::BTreeSet;

/// A named DAG of [`Flow`]s — the unit of closed-loop execution.
///
/// Construction is additive ([`Workload::add`] / [`Workload::add_flow`]);
/// [`Workload::validate`] checks the structural invariants the closed-loop
/// driver relies on (see [`WorkloadValidationError`]). The generators in
/// [`crate::collectives`] only produce validated workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    name: String,
    flows: Vec<Flow>,
}

impl Workload {
    /// Creates an empty workload.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            flows: Vec::new(),
        }
    }

    /// The workload's name (used in reports and batch dedup keys).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The flows, in id order.
    #[must_use]
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Number of flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the workload has no flows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Appends a dependency-free flow and returns its id (chain
    /// [`Flow::after`]-style edits through [`Workload::add_flow`] when
    /// dependencies are needed).
    pub fn add(&mut self, src: CoreId, dst: CoreId, bytes: u64) -> FlowId {
        let id = FlowId(self.flows.len());
        self.flows.push(Flow::new(id, src, dst, bytes));
        id
    }

    /// Appends a fully built flow and returns its id. The flow's `id` field
    /// is overwritten with its actual index.
    pub fn add_flow(&mut self, mut flow: Flow) -> FlowId {
        let id = FlowId(self.flows.len());
        flow.id = id;
        self.flows.push(flow);
        id
    }

    /// Sum of all flow payloads, bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// Total packets on the wire when packets carry `packet_bits` bits.
    #[must_use]
    pub fn total_packets(&self, packet_bits: u64) -> u64 {
        self.flows.iter().map(|f| f.packets(packet_bits)).sum()
    }

    /// The highest core index any flow touches, `None` when empty. The
    /// driver requires this to be below the topology's core count.
    #[must_use]
    pub fn max_core(&self) -> Option<usize> {
        self.flows.iter().map(|f| f.src.0.max(f.dst.0)).max()
    }

    /// Re-places the workload onto different cores: every flow endpoint
    /// `CoreId(i)` becomes `CoreId(map[i])`. The name, payload sizes,
    /// dependencies, release cycles and collective labels are untouched, so
    /// the remapped workload is the same DAG running on a different set of
    /// cores — how an architecture spreads a dense rank-on-core-`i`
    /// collective over its topology (e.g. round-robin across pods).
    ///
    /// An injective map preserves every [`Workload::validate`] invariant
    /// (in particular `src != dst`).
    ///
    /// # Panics
    ///
    /// Panics if a flow endpoint is not covered by the map.
    #[must_use]
    pub fn remap_cores(&self, map: &[usize]) -> Workload {
        let place = |core: CoreId| {
            CoreId(*map.get(core.0).unwrap_or_else(|| {
                panic!(
                    "placement map covers {} ranks but the workload touches core {}",
                    map.len(),
                    core.0
                )
            }))
        };
        let flows = self
            .flows
            .iter()
            .map(|flow| {
                let mut flow = flow.clone();
                flow.src = place(flow.src);
                flow.dst = place(flow.dst);
                flow
            })
            .collect();
        Workload {
            name: self.name.clone(),
            flows,
        }
    }

    /// The distinct collective labels, sorted.
    #[must_use]
    pub fn collectives(&self) -> Vec<String> {
        let labels: BTreeSet<&str> = self.flows.iter().map(|f| f.collective.as_str()).collect();
        labels.into_iter().map(str::to_string).collect()
    }

    /// Checks every structural invariant the closed-loop driver relies on:
    /// flow ids equal their indices, dependencies are in range and not
    /// self-referential, transfers are non-empty, `src != dst`, and the
    /// dependency graph is acyclic (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`WorkloadValidationError`].
    pub fn validate(&self) -> Result<(), WorkloadValidationError> {
        for (index, flow) in self.flows.iter().enumerate() {
            if flow.id.0 != index {
                return Err(WorkloadValidationError::IdMismatch { index, id: flow.id });
            }
            if flow.bytes == 0 {
                return Err(WorkloadValidationError::EmptyFlow { flow: flow.id });
            }
            if flow.src == flow.dst {
                return Err(WorkloadValidationError::SelfLoop {
                    flow: flow.id,
                    core: flow.src,
                });
            }
            for &dep in &flow.deps {
                if dep.0 >= self.flows.len() {
                    return Err(WorkloadValidationError::UnknownDependency {
                        flow: flow.id,
                        dep,
                        flows: self.flows.len(),
                    });
                }
                if dep == flow.id {
                    return Err(WorkloadValidationError::SelfDependency { flow: flow.id });
                }
            }
        }
        // Kahn's algorithm: if a topological order covers every flow, the
        // graph is acyclic.
        let mut indegree: Vec<usize> = self.flows.iter().map(|f| f.deps.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); self.flows.len()];
        for flow in &self.flows {
            for &dep in &flow.deps {
                dependents[dep.0].push(flow.id.0);
            }
        }
        let mut frontier: Vec<usize> = (0..self.flows.len())
            .filter(|&i| indegree[i] == 0)
            .collect();
        let mut visited = 0usize;
        while let Some(next) = frontier.pop() {
            visited += 1;
            for &dependent in &dependents[next] {
                indegree[dependent] -= 1;
                if indegree[dependent] == 0 {
                    frontier.push(dependent);
                }
            }
        }
        if visited != self.flows.len() {
            return Err(WorkloadValidationError::Cycle {
                stuck: self.flows.len() - visited,
            });
        }
        Ok(())
    }
}

/// Why a [`Workload`] failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadValidationError {
    /// A flow's id does not equal its index in the flow list.
    IdMismatch {
        /// Actual index in the list.
        index: usize,
        /// The id the flow carries.
        id: FlowId,
    },
    /// A flow transfers zero bytes.
    EmptyFlow {
        /// The offending flow.
        flow: FlowId,
    },
    /// A flow's source equals its destination.
    SelfLoop {
        /// The offending flow.
        flow: FlowId,
        /// The core it loops on.
        core: CoreId,
    },
    /// A dependency references a flow id outside the workload.
    UnknownDependency {
        /// The flow carrying the dangling dependency.
        flow: FlowId,
        /// The dangling dependency.
        dep: FlowId,
        /// Number of flows in the workload.
        flows: usize,
    },
    /// A flow depends on itself.
    SelfDependency {
        /// The offending flow.
        flow: FlowId,
    },
    /// The dependency graph contains a cycle.
    Cycle {
        /// Number of flows that cannot be topologically ordered.
        stuck: usize,
    },
}

impl std::fmt::Display for WorkloadValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadValidationError::IdMismatch { index, id } => {
                write!(f, "flow at index {index} carries id {id}")
            }
            WorkloadValidationError::EmptyFlow { flow } => {
                write!(f, "flow {flow} transfers zero bytes")
            }
            WorkloadValidationError::SelfLoop { flow, core } => {
                write!(f, "flow {flow} sends core {} to itself", core.0)
            }
            WorkloadValidationError::UnknownDependency { flow, dep, flows } => write!(
                f,
                "flow {flow} depends on {dep}, but the workload has only {flows} flows"
            ),
            WorkloadValidationError::SelfDependency { flow } => {
                write!(f, "flow {flow} depends on itself")
            }
            WorkloadValidationError::Cycle { stuck } => write!(
                f,
                "dependency graph has a cycle ({stuck} flows cannot be ordered)"
            ),
        }
    }
}

impl std::error::Error for WorkloadValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;

    #[test]
    fn add_assigns_sequential_ids_and_totals_accumulate() {
        let mut w = Workload::new("test");
        assert!(w.is_empty());
        let a = w.add(CoreId(0), CoreId(1), 100);
        let b = w.add(CoreId(1), CoreId(2), 200);
        assert_eq!((a, b), (FlowId(0), FlowId(1)));
        assert_eq!(w.len(), 2);
        assert_eq!(w.total_bytes(), 300);
        assert_eq!(w.max_core(), Some(2));
        assert_eq!(w.total_packets(2048), 2);
        w.validate().expect("valid");
    }

    #[test]
    fn add_flow_overwrites_the_id() {
        let mut w = Workload::new("test");
        let id = w.add_flow(Flow::new(FlowId(99), CoreId(0), CoreId(1), 8).in_collective("x"));
        assert_eq!(id, FlowId(0));
        assert_eq!(w.flows()[0].id, FlowId(0));
        assert_eq!(w.collectives(), vec!["x".to_string()]);
    }

    #[test]
    fn validation_rejects_each_invariant_violation() {
        let mut self_loop = Workload::new("t");
        self_loop.add(CoreId(3), CoreId(3), 8);
        assert!(matches!(
            self_loop.validate(),
            Err(WorkloadValidationError::SelfLoop { .. })
        ));

        let mut empty = Workload::new("t");
        empty.add(CoreId(0), CoreId(1), 0);
        assert!(matches!(
            empty.validate(),
            Err(WorkloadValidationError::EmptyFlow { .. })
        ));

        let mut dangling = Workload::new("t");
        dangling.add_flow(Flow::new(FlowId(0), CoreId(0), CoreId(1), 8).after(FlowId(7)));
        assert!(matches!(
            dangling.validate(),
            Err(WorkloadValidationError::UnknownDependency { .. })
        ));

        let mut selfdep = Workload::new("t");
        selfdep.add_flow(Flow::new(FlowId(0), CoreId(0), CoreId(1), 8).after(FlowId(0)));
        assert!(matches!(
            selfdep.validate(),
            Err(WorkloadValidationError::SelfDependency { .. })
        ));

        // A two-flow cycle: 0 → 1 → 0.
        let mut cyclic = Workload::new("t");
        cyclic.add_flow(Flow::new(FlowId(0), CoreId(0), CoreId(1), 8).after(FlowId(1)));
        cyclic.add_flow(Flow::new(FlowId(1), CoreId(1), CoreId(2), 8).after(FlowId(0)));
        let error = cyclic.validate().expect_err("cycle");
        assert!(matches!(error, WorkloadValidationError::Cycle { stuck: 2 }));
        assert!(error.to_string().contains("cycle"));
    }

    #[test]
    fn diamond_dependencies_are_acyclic() {
        // 0 → {1, 2} → 3.
        let mut w = Workload::new("diamond");
        let root = w.add(CoreId(0), CoreId(1), 8);
        let left = w.add_flow(Flow::new(FlowId(0), CoreId(1), CoreId(2), 8).after(root));
        let right = w.add_flow(Flow::new(FlowId(0), CoreId(1), CoreId(3), 8).after(root));
        w.add_flow(
            Flow::new(FlowId(0), CoreId(2), CoreId(0), 8)
                .after(left)
                .after(right),
        );
        w.validate().expect("diamond is a DAG");
    }
}
