//! Generators for the canonical rack collectives.
//!
//! Every generator takes the number of participating cores `nodes` (mapped
//! onto cores `0..nodes`) and a per-node payload `bytes_per_node`, and
//! produces a validated [`Workload`] whose total byte volume matches an
//! analytic formula (`*_total_bytes`). The property tests in
//! `tests/prop_workload.rs` pin the generators against those formulas and
//! against DAG acyclicity.
//!
//! | generator | dependency structure |
//! |-----------|----------------------|
//! | [`ring_allreduce`] | `2(n−1)` serialized ring steps (reduce-scatter, all-gather) |
//! | [`tree_allreduce`] | binary-tree reduce, then broadcast back down |
//! | [`all_to_all`] | none — a full shuffle burst |
//! | [`parameter_server`] | push fan-in, global barrier, pull fan-out |
//! | [`incast`] | none — everyone targets core 0 |

use crate::dag::Workload;
use crate::flow::FlowId;
use pnoc_noc::ids::CoreId;

fn assert_nodes(kind: &str, nodes: usize, bytes_per_node: u64) {
    assert!(nodes >= 2, "{kind} needs at least 2 nodes, got {nodes}");
    assert!(bytes_per_node > 0, "{kind} needs a positive payload");
}

/// The chunk size a ring all-reduce circulates: the per-node payload split
/// over `nodes` ring slots, rounded up.
#[must_use]
pub(crate) fn ring_chunk_bytes(nodes: usize, bytes_per_node: u64) -> u64 {
    bytes_per_node.div_ceil(nodes as u64).max(1)
}

/// Analytic wire volume of [`ring_allreduce`]: `2·(n−1)` steps in which all
/// `n` nodes forward one chunk each.
#[must_use]
pub fn ring_allreduce_total_bytes(nodes: usize, bytes_per_node: u64) -> u64 {
    2 * (nodes as u64 - 1) * nodes as u64 * ring_chunk_bytes(nodes, bytes_per_node)
}

/// Ring all-reduce over cores `0..nodes`: a reduce-scatter phase followed by
/// an all-gather phase, each of `n−1` steps in which every node sends one
/// chunk of `⌈bytes_per_node / n⌉` bytes to its ring successor. The flow a
/// node sends at step `s` carries data it received at step `s−1`, so it
/// depends on its ring predecessor's step-`s−1` flow — the classic
/// bandwidth-optimal but latency-serialized collective.
///
/// # Panics
///
/// Panics if `nodes < 2` or `bytes_per_node == 0`.
#[must_use]
pub fn ring_allreduce(nodes: usize, bytes_per_node: u64) -> Workload {
    assert_nodes("ring all-reduce", nodes, bytes_per_node);
    let chunk = ring_chunk_bytes(nodes, bytes_per_node);
    let mut dag = Workload::builder(format!("ring-allreduce:{nodes}x{bytes_per_node}B"));
    let steps = 2 * (nodes - 1);
    for step in 0..steps {
        dag.collective(if step < nodes - 1 {
            "reduce-scatter"
        } else {
            "all-gather"
        });
        for node in 0..nodes {
            dag.push(CoreId(node), CoreId((node + 1) % nodes), chunk);
            if step > 0 {
                // The chunk forwarded now arrived from the ring predecessor
                // in the previous step: flow (step−1, node−1).
                let predecessor = (node + nodes - 1) % nodes;
                dag.after(FlowId((step - 1) * nodes + predecessor));
            }
        }
    }
    let workload = dag.finish().expect("a ring all-reduce is a DAG");
    debug_assert_eq!(
        workload.total_bytes(),
        ring_allreduce_total_bytes(nodes, bytes_per_node)
    );
    workload
}

/// Analytic wire volume of [`tree_allreduce`]: every non-root node sends its
/// payload up once and receives the result down once.
#[must_use]
pub fn tree_allreduce_total_bytes(nodes: usize, bytes_per_node: u64) -> u64 {
    2 * (nodes as u64 - 1) * bytes_per_node
}

/// Binary-tree all-reduce over cores `0..nodes` rooted at core 0: every
/// non-root node `i` sends `bytes_per_node` to its parent `(i−1)/2` once its
/// own subtree has reduced into it, then the root broadcasts the result back
/// down the same tree. Depth-bound (`2·⌈log₂ n⌉` serialized levels) instead
/// of the ring's `2(n−1)` steps.
///
/// # Panics
///
/// Panics if `nodes < 2` or `bytes_per_node == 0`.
#[must_use]
pub fn tree_allreduce(nodes: usize, bytes_per_node: u64) -> Workload {
    assert_nodes("tree all-reduce", nodes, bytes_per_node);
    let mut dag = Workload::builder(format!("tree-allreduce:{nodes}x{bytes_per_node}B"));
    // Reduce flows: flow id i−1 carries node i's contribution to its parent.
    dag.collective("reduce");
    for node in 1..nodes {
        let parent = (node - 1) / 2;
        dag.push(CoreId(node), CoreId(parent), bytes_per_node);
        for child in [2 * node + 1, 2 * node + 2] {
            if child < nodes {
                dag.after(FlowId(child - 1));
            }
        }
    }
    // Broadcast flows: flow id (n−1) + (i−1) returns the result to node i.
    dag.collective("broadcast");
    for node in 1..nodes {
        let parent = (node - 1) / 2;
        dag.push(CoreId(parent), CoreId(node), bytes_per_node);
        if parent == 0 {
            // The root may only broadcast after its direct children reduced
            // into it.
            for child in [1usize, 2] {
                if child < nodes {
                    dag.after(FlowId(child - 1));
                }
            }
        } else {
            dag.after(FlowId(nodes - 1 + parent - 1));
        }
    }
    let workload = dag.finish().expect("a tree all-reduce is a DAG");
    debug_assert_eq!(
        workload.total_bytes(),
        tree_allreduce_total_bytes(nodes, bytes_per_node)
    );
    workload
}

/// Analytic wire volume of [`all_to_all`]: every ordered pair exchanges one
/// payload.
#[must_use]
pub fn all_to_all_total_bytes(nodes: usize, bytes_per_node: u64) -> u64 {
    nodes as u64 * (nodes as u64 - 1) * bytes_per_node
}

/// All-to-all shuffle over cores `0..nodes`: every node sends
/// `bytes_per_node` to every other node, all flows released at once with no
/// dependencies — the pure bisection-bandwidth stress of a MapReduce
/// shuffle.
///
/// # Panics
///
/// Panics if `nodes < 2` or `bytes_per_node == 0`.
#[must_use]
pub fn all_to_all(nodes: usize, bytes_per_node: u64) -> Workload {
    assert_nodes("all-to-all", nodes, bytes_per_node);
    let mut dag = Workload::builder(format!("all-to-all:{nodes}x{bytes_per_node}B"));
    dag.collective("shuffle");
    for src in 0..nodes {
        for dst in 0..nodes {
            if src != dst {
                dag.push(CoreId(src), CoreId(dst), bytes_per_node);
            }
        }
    }
    let workload = dag.finish().expect("a shuffle has no dependencies");
    debug_assert_eq!(
        workload.total_bytes(),
        all_to_all_total_bytes(nodes, bytes_per_node)
    );
    workload
}

/// Analytic wire volume of [`parameter_server`]: each worker pushes once and
/// pulls once.
#[must_use]
pub fn parameter_server_total_bytes(nodes: usize, bytes_per_node: u64) -> u64 {
    2 * (nodes as u64 - 1) * bytes_per_node
}

/// Parameter-server round over cores `0..nodes` with core 0 as the server:
/// every worker pushes `bytes_per_node` of gradients to the server, and
/// every pull of the updated model depends on **all** pushes — a global
/// barrier at the server, fan-in congestion on the way up, fan-out on the
/// way down.
///
/// # Panics
///
/// Panics if `nodes < 2` or `bytes_per_node == 0`.
#[must_use]
pub fn parameter_server(nodes: usize, bytes_per_node: u64) -> Workload {
    assert_nodes("parameter server", nodes, bytes_per_node);
    let mut dag = Workload::builder(format!("parameter-server:{nodes}x{bytes_per_node}B"));
    dag.collective("push");
    for worker in 1..nodes {
        dag.push(CoreId(worker), CoreId(0), bytes_per_node);
    }
    dag.collective("pull");
    for worker in 1..nodes {
        dag.push(CoreId(0), CoreId(worker), bytes_per_node);
        for push in 0..nodes - 1 {
            dag.after(FlowId(push));
        }
    }
    let workload = dag.finish().expect("pulls only wait on pushes");
    debug_assert_eq!(
        workload.total_bytes(),
        parameter_server_total_bytes(nodes, bytes_per_node)
    );
    workload
}

/// Analytic wire volume of [`incast`].
#[must_use]
pub fn incast_total_bytes(nodes: usize, bytes_per_node: u64) -> u64 {
    (nodes as u64 - 1) * bytes_per_node
}

/// Incast over cores `0..nodes`: every node except core 0 sends
/// `bytes_per_node` to core 0 simultaneously — the classic ejection-port /
/// last-hop congestion microbenchmark.
///
/// # Panics
///
/// Panics if `nodes < 2` or `bytes_per_node == 0`.
#[must_use]
pub fn incast(nodes: usize, bytes_per_node: u64) -> Workload {
    assert_nodes("incast", nodes, bytes_per_node);
    let mut dag = Workload::builder(format!("incast:{nodes}x{bytes_per_node}B"));
    dag.collective("incast");
    for src in 1..nodes {
        dag.push(CoreId(src), CoreId(0), bytes_per_node);
    }
    let workload = dag.finish().expect("an incast has no dependencies");
    debug_assert_eq!(
        workload.total_bytes(),
        incast_total_bytes(nodes, bytes_per_node)
    );
    workload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_allreduce_shape_and_dependencies() {
        let w = ring_allreduce(4, 1024);
        // 2·(4−1) steps × 4 nodes.
        assert_eq!(w.len(), 24);
        assert_eq!(w.total_bytes(), ring_allreduce_total_bytes(4, 1024));
        assert_eq!(
            w.collectives(),
            vec!["all-gather".to_string(), "reduce-scatter".to_string()]
        );
        // Step-0 flows are roots; every later flow depends on exactly one
        // predecessor flow of the previous step.
        for flow in w.ids() {
            let step = flow.0 / 4;
            if step == 0 {
                assert!(w.deps(flow).is_empty());
            } else {
                assert_eq!(w.deps(flow).len(), 1);
                assert_eq!(w.deps(flow)[0].0 / 4, step - 1);
            }
        }
        assert_eq!(w.max_core(), 3);
    }

    #[test]
    fn ring_chunk_rounds_up() {
        assert_eq!(ring_chunk_bytes(4, 1024), 256);
        assert_eq!(ring_chunk_bytes(3, 1024), 342);
        assert_eq!(ring_chunk_bytes(64, 10), 1);
    }

    #[test]
    fn tree_allreduce_reduces_up_and_broadcasts_down() {
        let w = tree_allreduce(7, 512);
        assert_eq!(w.len(), 12); // 6 reduce + 6 broadcast flows.
        assert_eq!(w.total_bytes(), tree_allreduce_total_bytes(7, 512));
        // Leaves (3..7) reduce with no dependencies; internal nodes wait for
        // their children.
        assert!(w.deps(FlowId(3 - 1)).is_empty(), "node 3 is a leaf");
        assert_eq!(w.deps(FlowId(1 - 1)).len(), 2, "node 1 has two children");
        // Every broadcast depends on something.
        for flow in w.ids().skip(6) {
            assert!(!w.deps(flow).is_empty());
            assert_eq!(w.collective(flow), "broadcast");
        }
    }

    #[test]
    fn all_to_all_and_incast_are_dependency_free() {
        let shuffle = all_to_all(5, 64);
        assert_eq!(shuffle.len(), 20);
        assert!(shuffle.ids().all(|f| shuffle.deps(f).is_empty()));
        assert_eq!(shuffle.total_bytes(), all_to_all_total_bytes(5, 64));

        let fanin = incast(9, 64);
        assert_eq!(fanin.len(), 8);
        assert!(fanin.ids().all(|f| fanin.dst(f) == CoreId(0)));
        assert_eq!(fanin.total_bytes(), incast_total_bytes(9, 64));
    }

    #[test]
    fn parameter_server_pulls_barrier_on_all_pushes() {
        let w = parameter_server(5, 256);
        assert_eq!(w.len(), 8); // 4 pushes + 4 pulls.
        assert_eq!(w.total_bytes(), parameter_server_total_bytes(5, 256));
        for pull in w.ids().skip(4) {
            assert_eq!(w.src(pull), CoreId(0));
            assert_eq!(w.deps(pull).len(), 4, "each pull waits for every push");
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn single_node_collectives_are_rejected() {
        let _ = ring_allreduce(1, 1024);
    }
}
