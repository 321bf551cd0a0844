//! Memory footprint of a leaf, measured with a counting allocator: a leaf
//! holds what it buffers, not `ports × VCs × depth`.
//!
//! VC headers, like rings, exist once used: a port's headers are built on
//! its first push or route assignment, and each VC's ring grows by doubling
//! to that VC's own high-water mark. So (a) a freshly built system costs a
//! fixed, small number of allocation calls and bytes whatever the
//! configured depth or VC count, (b) a saturated run stays far below the
//! full reservation, and (c) a hierarchy pays per pod what that pod buffers. The
//! layer above the leaf follows the same rule: (d) the spine holds one record
//! per queued packet, not events per flit, and (e) an open loop above spine
//! capacity costs its backlog in packets. (f) A workload DAG costs
//! allocation *calls* that grow with Vec doublings, not with flows, and so
//! does a closed-loop run of it.
//!
//! The counters are process-wide, so the whole file is **one** test: a second
//! test running beside it would allocate into the same figures.

use d_hetpnoc_repro::hier::Spine;
use d_hetpnoc_repro::prelude::*;
use pnoc_sim::engine::{run_cycles, CycleNetwork};
use pnoc_workload::registry::{lookup_workload_factory, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// `alloc` and `realloc` calls so far.
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting live and peak-live bytes and allocation calls.
struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's own arguments and
// returns its result unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its value with the bytes it left live and the peak
/// it reached above the starting level.
fn measured<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    settle();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let value = f();
    let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    (value, live, peak)
}

/// Runs `f` and returns its value with the allocation calls it made and the
/// bytes it left live.
fn calls_of<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    settle();
    let (calls, live) = (CALLS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    let value = f();
    (
        value,
        CALLS.load(Ordering::Relaxed) - calls,
        LIVE.load(Ordering::Relaxed).saturating_sub(live),
    )
}

/// Waits until the live byte count has held still for 20 ms. Other threads
/// allocate and free at their own pace — the harness's main thread does its
/// bookkeeping for this test (≈ 900 bytes) just after spawning it, and pool
/// workers release theirs after a batch returns — so a measurement that
/// starts before they are done counts their bytes in one run and not in the
/// next.
fn settle() {
    let (mut last, mut quiet) = (LIVE.load(Ordering::Relaxed), 0);
    while quiet < 20 {
        std::thread::sleep(std::time::Duration::from_millis(1));
        let now = LIVE.load(Ordering::Relaxed);
        quiet = if now == last { quiet + 1 } else { 0 };
        last = now;
    }
}

const MIB: usize = 1 << 20;
/// One ring slot: a 64-byte flit and its arrival cycle.
const SLOT_BYTES: usize = 72;

fn saturating_skewed3(config: &SimConfig) -> SkewedTraffic {
    SkewedTraffic::new(
        config.topology,
        PacketShape::new(
            config.bandwidth_set.packet_flits(),
            config.bandwidth_set.flit_bits(),
        ),
        SkewLevel::Skewed3,
        OfferedLoad::new(config.estimated_saturation_load() * 1.5),
        config.seed,
    )
}

/// What reserving every ring up front costs for this leaf: the core switches'
/// and the photonic routers' (input + ejection) VCs at full depth.
fn full_reservation_bytes(config: &SimConfig) -> usize {
    let topology = config.topology;
    let switch_vcs = topology.num_cores() * topology.switch_ports() * config.vcs_per_port;
    let photonic_vcs =
        topology.num_clusters() * 2 * topology.photonic_router_ports() * config.vcs_per_port;
    (switch_vcs + photonic_vcs) * config.vc_depth.min(64) * SLOT_BYTES
}

/// Peak live bytes of building a leaf and stepping it for 2 000 cycles.
fn saturated_peak<N: CycleNetwork>(build: impl FnOnce() -> N) -> usize {
    let (stats, _, peak) = measured(|| run_cycles(&mut build(), 0, 2_000));
    assert!(stats.delivered_packets > 0, "the run delivered nothing");
    peak
}

/// Peak live bytes of one closed-loop `allreduce:64` scenario at quick effort.
fn allreduce_peak(architecture: &str) -> usize {
    let scenario = ScenarioSpec::closed_loop(architecture, "allreduce:64")
        .with_effort(Effort::Quick)
        .resolve()
        .expect("registered names");
    let (outcome, _, peak) = measured(|| scenario.run_with_mode(SweepMode::Sequential));
    assert!(
        outcome
            .result
            .points
            .iter()
            .all(|p| p.stats.delivered_packets > 0),
        "{architecture}: the workload delivered nothing"
    );
    peak
}

#[test]
fn a_leaf_holds_what_it_buffers() {
    d_hetpnoc_repro::install_architectures();

    // (a) Building a paper-effort leaf reserves no ring and builds no VC
    // header. Before VC headers were built on first use, building a Firefly
    // leaf and its traffic took 1 006 allocation calls and left 469 672 B
    // live (d-HetPNoC: 1 084 calls, 471 256 B; release), 16 headers on each
    // of the leaf's 448 ports. Now a leaf takes
    // at most 0.6× those calls and holds at most 0.2× those bytes, the same
    // bytes whether VCs are 64 or 256 flits deep, and the same calls (bytes
    // within 1 KiB) whether ports carry 16 or 64 VCs.
    let fresh = |depth: usize, vcs: usize| {
        let mut config = SimConfig::paper_default(BandwidthSet::Set1);
        config.vc_depth = depth;
        config.vcs_per_port = vcs;
        let (dhet, dhet_calls, dhet_live) =
            calls_of(|| build_dhetpnoc_system(config, saturating_skewed3(&config)));
        let (firefly, firefly_calls, firefly_live) =
            calls_of(|| build_firefly_system(config, saturating_skewed3(&config)));
        drop((dhet, firefly));
        [(dhet_live, dhet_calls), (firefly_live, firefly_calls)]
    };
    let paper = fresh(64, 16);
    let [(dhet_64, dhet_calls), (firefly_64, firefly_calls)] = paper;
    println!(
        "after new: d-hetpnoc {dhet_64} B in {dhet_calls} calls, \
         firefly {firefly_64} B in {firefly_calls} calls"
    );
    for (name, (live, calls), (parent_live, parent_calls)) in [
        ("d-hetpnoc", paper[0], (471_256, 1_084)),
        ("firefly", paper[1], (469_672, 1_006)),
    ] {
        assert!(
            live * 5 <= parent_live,
            "{name} holds {live} B after new, above 0.2 × {parent_live} B"
        );
        assert!(
            calls * 5 <= parent_calls * 3,
            "{name} takes {calls} allocation calls to build, above 0.6 × {parent_calls}"
        );
    }
    assert_eq!(
        fresh(256, 16),
        paper,
        "the footprint of a fresh leaf must not depend on vc_depth"
    );
    let wide = fresh(64, 64);
    println!("after new with 64 VCs per port: {wide:?}");
    for ((live, calls), (wide_live, wide_calls)) in paper.into_iter().zip(wide) {
        assert_eq!(
            wide_calls, calls,
            "a fresh leaf's allocation calls must not depend on vcs_per_port"
        );
        assert!(
            wide_live.abs_diff(live) <= 1024,
            "a fresh leaf holds {wide_live} B with 64 VCs per port, {live} B with 16"
        );
    }

    // (b) A saturated run grows each ring to its own high-water mark, far
    // below the ports × VCs × depth reservation.
    let config = SimConfig::paper_default(BandwidthSet::Set1);
    let reserved = full_reservation_bytes(&config);
    for (name, peak) in [
        (
            "d-hetpnoc",
            saturated_peak(|| build_dhetpnoc_system(config, saturating_skewed3(&config))),
        ),
        (
            "firefly",
            saturated_peak(|| build_firefly_system(config, saturating_skewed3(&config))),
        ),
    ] {
        println!(
            "{name}: peak {peak} B over a 2 000-cycle saturated skewed-3 run \
             ({:.1} % of the {reserved} B full reservation)",
            100.0 * peak as f64 / reserved as f64
        );
        assert!(
            peak < reserved / 2,
            "{name}: peak {peak} B is not below half of {reserved} B"
        );
    }

    // (c) A hierarchy pays per pod what a leaf buffers: three more pods cost
    // less than three leaves' own peaks with 50 % headroom.
    let leaf = allreduce_peak("d-hetpnoc");
    let one_pod = allreduce_peak("hier{pods=1,leaf=d-hetpnoc}");
    let four_pods = allreduce_peak("hier{pods=4,leaf=d-hetpnoc}");
    println!("allreduce:64 peak: leaf {leaf} B, pods=1 {one_pod} B, pods=4 {four_pods} B");
    assert!(
        four_pods < one_pod + 3 * (leaf + leaf / 2),
        "pods=4 peaks at {four_pods} B; pods=1 {one_pod} B, bare leaf {leaf} B"
    );

    // (d) A queued cross-pod packet is one record whatever its length: 10 000
    // of them behind a one-flit-per-cycle spine stay under 1 MiB.
    let queued_live = |flits: u32| {
        let (spine, live, _) = measured(|| {
            let mut spine = Spine::new(false, 32, 1);
            for packet in 0..10_000 {
                let cycle = packet / 4;
                spine.transmit(
                    cycle,
                    &PacketDescriptor {
                        src: CoreId(0),
                        dst: CoreId(64),
                        num_flits: flits,
                        flit_bits: 32,
                        class: BandwidthClass::Low,
                        created_cycle: cycle,
                    },
                );
            }
            spine
        });
        assert_eq!(spine.queued_packets(), 10_000);
        live
    };
    let (short, long) = (queued_live(4), queued_live(64));
    println!("live bytes of 10 000 queued spine packets: {short} (4 flits), {long} (64 flits)");
    assert_eq!(
        short, long,
        "a queued packet's cost must not depend on its flits"
    );
    assert!(short < MIB, "10 000 queued packets hold {short} B");

    // (e) An open loop far above spine capacity: the backlog is held as
    // packets, and no event is built before its cycle is replayed.
    let spec =
        ScenarioSpec::new("hier{pods=16,leaf=firefly}", "skewed-3").with_effort(Effort::Quick);
    let top_load = *spec.loads().last().expect("the quick ladder has points");
    let scenario = spec
        .with_ladder(vec![top_load])
        .resolve()
        .expect("registered names");
    let (outcome, _, peak) = measured(|| scenario.run_with_mode(SweepMode::Sequential));
    let backlog = outcome.result.points[0]
        .metrics
        .gauge("spine_backlog_cycles");
    println!(
        "hier{{pods=16,leaf=firefly}}:skewed-3 at load {top_load}: \
         peak {peak} B, backlog {backlog:?}"
    );
    assert!(
        backlog.is_some_and(|cycles| cycles > 1_000.0),
        "the point must overload the spine, backlog {backlog:?}"
    );
    assert!(peak < 8 * MIB, "the overloaded point peaks at {peak} B");

    // (f) Allocation calls at two DAG sizes, 480 and 8 064 flows. Building,
    // validating and placing a workload grows a fixed set of columns, so its
    // calls may rise by a few Vec doublings (log₂ 16.8 ≈ 4 per column), never
    // once per flow; a driver allocates FlowState's fixed columns whatever
    // the flow count; a whole closed-loop run stays far below a call per
    // flow. The run's bound is the shipped profile's: debug assertions in
    // the network allocate per packet, and 8 064 one-packet flows are four
    // times the packets of 480 four-packet ones.
    let allreduce = lookup_workload_factory("allreduce").expect("built in");
    let config = SimConfig::paper_default(BandwidthSet::Set1);
    let calls_at = |size: usize| {
        let reversed: Vec<usize> = (0..size).rev().collect();
        let (workload, built, _) = calls_of(|| {
            allreduce
                .build(&WorkloadSpec::new(size))
                .remap_cores(&reversed)
                .expect("a permutation")
        });
        let workload = Arc::new(workload);
        let (driver, driven, _) = calls_of(|| {
            let driver = WorkloadDriver::new(Arc::clone(&workload), &config);
            (driver.traffic(), driver.probe(), driver)
        });
        drop(driver);
        let scenario = ScenarioSpec::closed_loop("d-hetpnoc", format!("allreduce:{size}"))
            .with_effort(Effort::Quick)
            .resolve()
            .expect("registered names");
        let (outcome, run, _) = calls_of(|| scenario.run_with_mode(SweepMode::Sequential));
        let point = &outcome.result.points[0];
        assert_eq!(point.metrics.gauge("workload_drained"), Some(1.0));
        (workload.len(), built, driven, run)
    };
    let (small, large) = (calls_at(16), calls_at(64));
    println!("allocation calls (flows, build + place, driver, quick run): {small:?} → {large:?}");
    assert_eq!((small.0, large.0), (480, 8_064));
    assert!(
        large.1 <= small.1 + 64,
        "building 8 064 flows takes {} calls, 480 flows {}",
        large.1,
        small.1
    );
    assert_eq!(
        large.2, small.2,
        "a driver's calls must not depend on flows"
    );
    if !cfg!(debug_assertions) {
        assert!(
            large.3 - small.3 < (large.0 - small.0) / 8,
            "a run of 8 064 flows takes {} calls, of 480 flows {}",
            large.3,
            small.3
        );
    }
}
