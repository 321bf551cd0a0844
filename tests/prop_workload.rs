//! Property tests of the collective workload generators: every generated
//! workload is a valid DAG (acyclic, in-range dependencies, non-empty
//! transfers, no self-loops), its total byte volume matches the collective's
//! analytic formula, and packet accounting is conservative.

use d_hetpnoc_repro::workload::collectives::{
    all_to_all, all_to_all_total_bytes, incast, incast_total_bytes, parameter_server,
    parameter_server_total_bytes, ring_allreduce, ring_allreduce_total_bytes, tree_allreduce,
    tree_allreduce_total_bytes,
};
use d_hetpnoc_repro::workload::dag::Workload;
use d_hetpnoc_repro::workload::flow::FlowId;
use d_hetpnoc_repro::workload::registry::{
    lookup_workload_factory, registered_workloads, WorkloadSpec,
};
use proptest::prelude::*;

/// Every structural invariant the closed-loop driver relies on, re-checked
/// through the public columns in one place so each generator property
/// asserts the same contract: non-empty transfers, no self-loops,
/// dependencies in range, `dependents` the exact transpose of `deps`, and a
/// topological order covering every flow.
fn assert_valid_dag(workload: &Workload, nodes: usize) {
    let name = workload.name();
    let mut indegree = Vec::new();
    for flow in workload.ids() {
        assert!(workload.bytes(flow) > 0, "'{name}': {flow} is empty");
        assert_ne!(workload.src(flow), workload.dst(flow), "'{name}': {flow}");
        for &dep in workload.deps(flow) {
            assert!(
                dep.0 < workload.len() && dep != flow,
                "'{name}': {flow} on {dep}"
            );
            let listed = workload.dependents(dep).iter().filter(|&&d| d == flow);
            let needed = workload.deps(flow).iter().filter(|&&d| d == dep);
            assert_eq!(listed.count(), needed.count(), "'{name}': {dep} → {flow}");
        }
        indegree.push(workload.deps(flow).len());
    }
    let edges: usize = workload.ids().map(|f| workload.dependents(f).len()).sum();
    assert_eq!(
        edges,
        indegree.iter().sum::<usize>(),
        "'{name}': dependents"
    );
    let mut frontier: Vec<FlowId> = workload.ids().filter(|f| indegree[f.0] == 0).collect();
    let mut ordered = 0;
    while let Some(flow) = frontier.pop() {
        ordered += 1;
        for &next in workload.dependents(flow) {
            indegree[next.0] -= 1;
            if indegree[next.0] == 0 {
                frontier.push(next);
            }
        }
    }
    assert_eq!(ordered, workload.len(), "'{name}' has a cycle");
    let max_core = workload.max_core();
    assert!(
        max_core < nodes,
        "workload '{}' touches core {max_core} with only {nodes} participants",
        workload.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring all-reduce conserves bytes: `2·(n−1)·n·⌈B/n⌉` on the wire, with
    /// every step chunk-sized and the DAG acyclic.
    #[test]
    fn ring_allreduce_conserves_bytes_and_stays_acyclic(
        nodes in 2usize..64,
        bytes in 1u64..200_000,
    ) {
        let workload = ring_allreduce(nodes, bytes);
        assert_valid_dag(&workload, nodes);
        prop_assert_eq!(workload.total_bytes(), ring_allreduce_total_bytes(nodes, bytes));
        prop_assert_eq!(workload.len(), 2 * (nodes - 1) * nodes);
    }

    /// Tree all-reduce conserves bytes: every non-root node's payload goes
    /// up once and comes back down once.
    #[test]
    fn tree_allreduce_conserves_bytes_and_stays_acyclic(
        nodes in 2usize..64,
        bytes in 1u64..200_000,
    ) {
        let workload = tree_allreduce(nodes, bytes);
        assert_valid_dag(&workload, nodes);
        prop_assert_eq!(workload.total_bytes(), tree_allreduce_total_bytes(nodes, bytes));
        prop_assert_eq!(workload.len(), 2 * (nodes - 1));
    }

    /// The all-to-all shuffle conserves bytes: one payload per ordered pair.
    #[test]
    fn all_to_all_conserves_bytes_and_stays_acyclic(
        nodes in 2usize..48,
        bytes in 1u64..200_000,
    ) {
        let workload = all_to_all(nodes, bytes);
        assert_valid_dag(&workload, nodes);
        prop_assert_eq!(workload.total_bytes(), all_to_all_total_bytes(nodes, bytes));
        prop_assert_eq!(workload.len(), nodes * (nodes - 1));
    }

    /// Parameter-server and incast conserve bytes, and every generated
    /// workload — including theirs — is acyclic.
    #[test]
    fn fan_in_collectives_conserve_bytes_and_stay_acyclic(
        nodes in 2usize..64,
        bytes in 1u64..200_000,
    ) {
        let ps = parameter_server(nodes, bytes);
        assert_valid_dag(&ps, nodes);
        prop_assert_eq!(ps.total_bytes(), parameter_server_total_bytes(nodes, bytes));

        let fanin = incast(nodes, bytes);
        assert_valid_dag(&fanin, nodes);
        prop_assert_eq!(fanin.total_bytes(), incast_total_bytes(nodes, bytes));
    }

    /// Every catalogue entry (what the scenario engine resolves against)
    /// builds a valid, size-respecting DAG whose packet
    /// count covers its byte count.
    #[test]
    fn every_registered_workload_builds_a_valid_dag(
        size in 2usize..64,
        bytes in 1u64..100_000,
    ) {
        for name in registered_workloads() {
            let factory = lookup_workload_factory(&name).expect("just listed");
            let workload = factory.build(&WorkloadSpec { size, bytes_per_node: bytes });
            assert_valid_dag(&workload, size);
            // Packet accounting covers the byte volume (2048-bit packets).
            let capacity_bits = workload.total_packets(2048) * 2048;
            prop_assert!(
                capacity_bits >= workload.total_bytes() * 8,
                "'{}' packs {} bytes into {} packet bits",
                name, workload.total_bytes(), capacity_bits
            );
        }
    }
}

#[test]
fn the_global_registry_serves_the_builtin_collectives() {
    let names = registered_workloads();
    for expected in [
        "all-to-all",
        "incast",
        "parameter-server",
        "ring-allreduce",
        "tree-allreduce",
    ] {
        assert!(
            names.contains(&expected.to_string()),
            "workload '{expected}' missing from {names:?}"
        );
    }
}
