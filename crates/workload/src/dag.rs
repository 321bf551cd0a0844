//! The [`Workload`] DAG: a named, validated set of dependent flows, stored
//! as columns.

use crate::flow::{packets, FlowId};
use pnoc_noc::ids::CoreId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Compressed sparse rows of flow ids: row `i` is
/// `items[start[i]..start[i + 1]]`.
#[derive(Debug, PartialEq, Eq)]
struct Csr {
    start: Vec<usize>,
    items: Vec<FlowId>,
}

impl Csr {
    fn row(&self, i: usize) -> &[FlowId] {
        &self.items[self.start[i]..self.start[i + 1]]
    }

    /// Row `j` of the result lists every `i` whose row holds `j`, in
    /// increasing `i` (every item must be a row index).
    fn transpose(&self) -> Csr {
        let rows = self.start.len() - 1;
        let mut start = vec![0; rows + 1];
        for item in &self.items {
            start[item.0 + 1] += 1;
        }
        for i in 0..rows {
            start[i + 1] += start[i];
        }
        let mut fill = start[..rows].to_vec();
        let mut items = vec![FlowId(0); self.items.len()];
        for i in 0..rows {
            for item in self.row(i) {
                items[fill[item.0]] = FlowId(i);
                fill[item.0] += 1;
            }
        }
        Csr { start, items }
    }
}

/// Everything placement leaves alone, shared by every placement of one DAG.
#[derive(Debug, PartialEq, Eq)]
struct Dag {
    name: String,
    bytes: Vec<u64>,
    release: Vec<u64>,
    /// Per flow, an index into `labels`.
    label: Vec<usize>,
    /// The interned collective labels, in first-use order.
    labels: Vec<String>,
    deps: Csr,
    dependents: Csr,
}

/// A named DAG of flows — the unit of closed-loop execution.
///
/// A `Workload` only exists valid: [`WorkloadBuilder::finish`] checks every
/// structural invariant the closed-loop driver relies on (see
/// [`WorkloadValidationError`]) and computes both dependency directions
/// once. Flow `i` is row `i` of the columns; its [`FlowId`] is `FlowId(i)`.
/// [`Workload::remap_cores`] rewrites the two core columns and shares the
/// rest, so placing one DAG on different cores copies no dependency or label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    src: Vec<CoreId>,
    dst: Vec<CoreId>,
    dag: Arc<Dag>,
}

// A workload always holds at least one flow, so an `is_empty` would be a
// constant `false`.
#[allow(clippy::len_without_is_empty)]
impl Workload {
    /// Starts a workload; flows are pushed into the builder and
    /// [`WorkloadBuilder::finish`] validates them.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> WorkloadBuilder {
        WorkloadBuilder {
            name: name.into(),
            src: Vec::new(),
            dst: Vec::new(),
            bytes: Vec::new(),
            release: Vec::new(),
            label: Vec::new(),
            labels: vec![String::new()],
            current: 0,
            dep_start: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// The workload's name (used in reports and batch dedup keys).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.dag.name
    }

    /// Number of flows (at least one).
    #[must_use]
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Every flow id, in order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = FlowId> {
        (0..self.len()).map(FlowId)
    }

    /// Source core of `flow`.
    #[must_use]
    pub fn src(&self, flow: FlowId) -> CoreId {
        self.src[flow.0]
    }

    /// Destination core of `flow` (never its source).
    #[must_use]
    pub fn dst(&self, flow: FlowId) -> CoreId {
        self.dst[flow.0]
    }

    /// Payload of `flow`, bytes (positive).
    #[must_use]
    pub fn bytes(&self, flow: FlowId) -> u64 {
        self.dag.bytes[flow.0]
    }

    /// Earliest cycle `flow` may start, even with all dependencies met.
    #[must_use]
    pub fn release_cycle(&self, flow: FlowId) -> u64 {
        self.dag.release[flow.0]
    }

    /// Collective / phase label of `flow` ("reduce-scatter", "push", ...;
    /// empty when the generator set none).
    #[must_use]
    pub fn collective(&self, flow: FlowId) -> &str {
        &self.dag.labels[self.dag.label[flow.0]]
    }

    /// Flows that must complete before `flow` may start.
    #[must_use]
    pub fn deps(&self, flow: FlowId) -> &[FlowId] {
        self.dag.deps.row(flow.0)
    }

    /// Flows that list `flow` among their dependencies, in id order.
    #[must_use]
    pub fn dependents(&self, flow: FlowId) -> &[FlowId] {
        self.dag.dependents.row(flow.0)
    }

    /// Packets `flow` occupies when packets carry `packet_bits` bits (see
    /// [`packets`]).
    #[must_use]
    pub fn packets(&self, flow: FlowId, packet_bits: u64) -> u64 {
        packets(self.bytes(flow), packet_bits)
    }

    /// Sum of all flow payloads, bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.dag.bytes.iter().sum()
    }

    /// Total packets on the wire when packets carry `packet_bits` bits.
    #[must_use]
    pub fn total_packets(&self, packet_bits: u64) -> u64 {
        self.dag
            .bytes
            .iter()
            .map(|&bytes| packets(bytes, packet_bits))
            .sum()
    }

    /// The highest core index any flow touches. The driver requires this to
    /// be below the topology's core count.
    #[must_use]
    pub fn max_core(&self) -> usize {
        self.src
            .iter()
            .chain(&self.dst)
            .map(|core| core.0)
            .max()
            .expect("a workload has at least one flow")
    }

    /// Re-places the workload onto different cores: every flow endpoint
    /// `CoreId(i)` becomes `CoreId(map[i])`. The name, payload sizes,
    /// dependencies, release cycles and collective labels are shared with
    /// `self`, so the remapped workload is the same DAG running on a
    /// different set of cores — how an architecture spreads a dense
    /// rank-on-core-`i` collective over its topology (e.g. round-robin
    /// across pods).
    ///
    /// # Errors
    ///
    /// [`WorkloadValidationError::UnplacedRank`] when a flow endpoint is
    /// not covered by the map, and [`WorkloadValidationError::SharedCore`]
    /// when two ranks map to one core: only an injective map keeps every
    /// `src != dst`.
    pub fn remap_cores(&self, map: &[usize]) -> Result<Workload, WorkloadValidationError> {
        let max_core = self.max_core();
        if max_core >= map.len() {
            return Err(WorkloadValidationError::UnplacedRank {
                rank: max_core,
                ranks: map.len(),
            });
        }
        let mut placed: Vec<(usize, usize)> = map.iter().copied().zip(0..).collect();
        placed.sort_unstable();
        if let Some(pair) = placed.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(WorkloadValidationError::SharedCore {
                core: CoreId(pair[0].0),
                ranks: (pair[0].1, pair[1].1),
            });
        }
        let place = |cores: &[CoreId]| cores.iter().map(|core| CoreId(map[core.0])).collect();
        Ok(Workload {
            src: place(&self.src),
            dst: place(&self.dst),
            dag: Arc::clone(&self.dag),
        })
    }

    /// The distinct collective labels in use, sorted.
    #[must_use]
    pub fn collectives(&self) -> Vec<String> {
        let used: BTreeSet<&str> = self.ids().map(|flow| self.collective(flow)).collect();
        used.into_iter().map(str::to_string).collect()
    }
}

/// Collects flows for a [`Workload`]; [`WorkloadBuilder::finish`] is the
/// only way to turn it into one.
///
/// [`WorkloadBuilder::after`] and [`WorkloadBuilder::released_at`] apply to
/// the flow pushed last; [`WorkloadBuilder::collective`] labels every flow
/// pushed after it.
#[derive(Debug)]
pub struct WorkloadBuilder {
    name: String,
    src: Vec<CoreId>,
    dst: Vec<CoreId>,
    bytes: Vec<u64>,
    release: Vec<u64>,
    label: Vec<usize>,
    labels: Vec<String>,
    /// The label of the next pushed flow.
    current: usize,
    /// Where each pushed flow's dependencies begin in `deps`.
    dep_start: Vec<usize>,
    deps: Vec<FlowId>,
}

impl WorkloadBuilder {
    /// Labels every flow pushed from now on (interned: a label already in
    /// use costs no allocation).
    pub fn collective(&mut self, label: &str) -> &mut Self {
        self.current = match self.labels.iter().position(|known| known == label) {
            Some(index) => index,
            None => {
                self.labels.push(label.to_string());
                self.labels.len() - 1
            }
        };
        self
    }

    /// Appends a dependency-free flow of `bytes` bytes from `src` to `dst`,
    /// released at cycle 0, and returns its id.
    pub fn push(&mut self, src: CoreId, dst: CoreId, bytes: u64) -> FlowId {
        self.src.push(src);
        self.dst.push(dst);
        self.bytes.push(bytes);
        self.release.push(0);
        self.label.push(self.current);
        self.dep_start.push(self.deps.len());
        FlowId(self.src.len() - 1)
    }

    /// Makes the last pushed flow wait for `dep` to complete.
    ///
    /// # Panics
    ///
    /// Panics if no flow has been pushed yet.
    pub fn after(&mut self, dep: FlowId) -> &mut Self {
        assert!(
            !self.src.is_empty(),
            "after() applies to the last pushed flow, and none was pushed"
        );
        self.deps.push(dep);
        self
    }

    /// Holds the last pushed flow back until `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if no flow has been pushed yet.
    pub fn released_at(&mut self, cycle: u64) -> &mut Self {
        *self
            .release
            .last_mut()
            .expect("released_at() applies to the last pushed flow, and none was pushed") = cycle;
        self
    }

    /// Checks every structural invariant the closed-loop driver relies on —
    /// at least one flow, non-empty transfers, `src != dst`, dependencies in
    /// range and not self-referential, and an acyclic dependency graph
    /// (Kahn's algorithm) — and returns the workload.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`WorkloadValidationError`].
    pub fn finish(mut self) -> Result<Workload, WorkloadValidationError> {
        let flows = self.src.len();
        if flows == 0 {
            return Err(WorkloadValidationError::Empty);
        }
        self.dep_start.push(self.deps.len());
        let deps = Csr {
            start: self.dep_start,
            items: self.deps,
        };
        for index in 0..flows {
            let flow = FlowId(index);
            if self.bytes[index] == 0 {
                return Err(WorkloadValidationError::EmptyFlow { flow });
            }
            if self.src[index] == self.dst[index] {
                return Err(WorkloadValidationError::SelfLoop {
                    flow,
                    core: self.src[index],
                });
            }
            for &dep in deps.row(index) {
                if dep.0 >= flows {
                    return Err(WorkloadValidationError::UnknownDependency { flow, dep, flows });
                }
                if dep == flow {
                    return Err(WorkloadValidationError::SelfDependency { flow });
                }
            }
        }
        let dependents = deps.transpose();
        // Kahn's algorithm: if a topological order covers every flow, the
        // graph is acyclic.
        let mut indegree: Vec<usize> = (0..flows).map(|i| deps.row(i).len()).collect();
        let mut frontier: Vec<usize> = (0..flows).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(next) = frontier.pop() {
            visited += 1;
            for dependent in dependents.row(next) {
                indegree[dependent.0] -= 1;
                if indegree[dependent.0] == 0 {
                    frontier.push(dependent.0);
                }
            }
        }
        if visited != flows {
            return Err(WorkloadValidationError::Cycle {
                stuck: flows - visited,
            });
        }
        Ok(Workload {
            src: self.src,
            dst: self.dst,
            dag: Arc::new(Dag {
                name: self.name,
                bytes: self.bytes,
                release: self.release,
                label: self.label,
                labels: self.labels,
                deps,
                dependents,
            }),
        })
    }
}

/// Why a [`WorkloadBuilder`] or a placement could not produce a
/// [`Workload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadValidationError {
    /// No flow was pushed.
    Empty,
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
    /// A placement map does not cover a core the workload touches.
    UnplacedRank {
        /// The highest rank (core of the unplaced workload) a flow touches.
        rank: usize,
        /// Number of ranks the map covers.
        ranks: usize,
    },
    /// A placement map sends two ranks to one core.
    SharedCore {
        /// The core both ranks map to.
        core: CoreId,
        /// The two ranks.
        ranks: (usize, usize),
    },
}

impl std::fmt::Display for WorkloadValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadValidationError::Empty => f.write_str("workload has no flows"),
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
            WorkloadValidationError::UnplacedRank { rank, ranks } => write!(
                f,
                "placement map covers {ranks} ranks but the workload touches core {rank}"
            ),
            WorkloadValidationError::SharedCore { core, ranks } => write!(
                f,
                "placement map sends ranks {} and {} to core {}",
                ranks.0, ranks.1, core.0
            ),
        }
    }
}

impl std::error::Error for WorkloadValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assigns_sequential_ids_and_totals_accumulate() {
        let mut dag = Workload::builder("test");
        let a = dag.push(CoreId(0), CoreId(1), 100);
        let b = dag.push(CoreId(1), CoreId(2), 200);
        assert_eq!((a, b), (FlowId(0), FlowId(1)));
        let w = dag.finish().expect("valid");
        assert_eq!(w.len(), 2);
        assert_eq!(w.total_bytes(), 300);
        assert_eq!(w.max_core(), 2);
        assert_eq!(w.total_packets(2048), 2);
        assert_eq!(w.ids().collect::<Vec<_>>(), [a, b]);
    }

    #[test]
    fn an_empty_workload_cannot_be_constructed() {
        assert_eq!(
            Workload::builder("t").finish(),
            Err(WorkloadValidationError::Empty)
        );
    }

    #[test]
    fn validation_rejects_each_invariant_violation() {
        let finish = |flows: &[(usize, usize, u64, &[usize])]| {
            let mut dag = Workload::builder("t");
            for &(src, dst, bytes, deps) in flows {
                dag.push(CoreId(src), CoreId(dst), bytes);
                for &dep in deps {
                    dag.after(FlowId(dep));
                }
            }
            dag.finish()
        };
        assert!(matches!(
            finish(&[(3, 3, 8, &[])]),
            Err(WorkloadValidationError::SelfLoop { .. })
        ));
        assert!(matches!(
            finish(&[(0, 1, 0, &[])]),
            Err(WorkloadValidationError::EmptyFlow { .. })
        ));
        assert!(matches!(
            finish(&[(0, 1, 8, &[7])]),
            Err(WorkloadValidationError::UnknownDependency { .. })
        ));
        assert!(matches!(
            finish(&[(0, 1, 8, &[0])]),
            Err(WorkloadValidationError::SelfDependency { .. })
        ));
        // A two-flow cycle: 0 → 1 → 0.
        let error = finish(&[(0, 1, 8, &[1]), (1, 2, 8, &[0])]).expect_err("cycle");
        assert!(matches!(error, WorkloadValidationError::Cycle { stuck: 2 }));
        assert!(error.to_string().contains("cycle"));
    }

    #[test]
    fn diamond_dependencies_are_acyclic() {
        // 0 → {1, 2} → 3.
        let mut dag = Workload::builder("diamond");
        let root = dag.push(CoreId(0), CoreId(1), 8);
        let left = dag.push(CoreId(1), CoreId(2), 8);
        dag.after(root);
        let right = dag.push(CoreId(1), CoreId(3), 8);
        dag.after(root);
        let join = dag.push(CoreId(2), CoreId(0), 8);
        dag.after(left).after(right);
        let w = dag.finish().expect("diamond is a DAG");
        assert_eq!(w.dependents(root), [left, right]);
        assert_eq!(w.dependents(left), [join]);
        assert_eq!(w.deps(join), [left, right]);
        assert!(w.dependents(join).is_empty());
    }

    #[test]
    fn remap_rewrites_the_cores_and_shares_the_rest() {
        let mut dag = Workload::builder("pair");
        dag.collective("x");
        let first = dag.push(CoreId(0), CoreId(1), 8);
        dag.push(CoreId(1), CoreId(0), 8);
        dag.after(first).released_at(3);
        let w = dag.finish().expect("valid");
        let placed = w.remap_cores(&[7, 4]).expect("injective");
        assert_eq!(
            (placed.src(first), placed.dst(first)),
            (CoreId(7), CoreId(4))
        );
        assert!(Arc::ptr_eq(&w.dag, &placed.dag));
        assert_eq!(placed.collectives(), ["x"]);
        assert_eq!(
            w.remap_cores(&[7]),
            Err(WorkloadValidationError::UnplacedRank { rank: 1, ranks: 1 })
        );
    }

    #[test]
    fn remap_rejects_a_map_that_is_not_injective() {
        let mut dag = Workload::builder("pair");
        dag.push(CoreId(0), CoreId(1), 8);
        let w = dag.finish().expect("valid");
        // Two ranks on one core could turn a flow into a self-loop, so any
        // collision is refused, even between ranks no flow joins.
        let error = w
            .remap_cores(&[5, 2, 5])
            .expect_err("ranks 0 and 2 share core 5");
        assert_eq!(
            error,
            WorkloadValidationError::SharedCore {
                core: CoreId(5),
                ranks: (0, 2)
            }
        );
        assert!(error.to_string().contains("ranks 0 and 2 to core 5"));
    }
}
