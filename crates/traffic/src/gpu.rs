//! GPU-memory interaction models.
//!
//! Two parts of the thesis rely on GPU workload characteristics:
//!
//! 1. **Figure 1-1** motivates heterogeneous interconnects by showing the
//!    speedup of CUDA-SDK / Rodinia benchmarks when the GPU-memory flit size
//!    grows from 32 B to 1024 B at 700 MHz: most benchmarks gain less than
//!    1 %, a few gain up to 63 %.
//! 2. **Section 3.4.2** builds a real-application traffic scenario by mapping
//!    the GPGPU-Sim benchmarks MUM, BFS, CP, RAY and LPS onto 20, 4, 4, 4 and
//!    16 cores (12 clusters) with 4 memory clusters, using each benchmark's
//!    core↔memory bandwidth demand.
//!
//! The thesis obtained those demands by profiling the applications in
//! GPGPU-Sim. This reproduction substitutes a calibrated analytic model
//! ([`GpuBenchmark`]): each benchmark is described by the fraction of its
//! execution time that is bound by GPU-memory bandwidth and by how completely
//! larger flits amortise that time. The published qualitative behaviour
//! (BFS and MUM highly bandwidth-sensitive, CP/RAY/LPS nearly insensitive) is
//! what the constants are calibrated to; see DESIGN.md for the substitution
//! rationale.

use crate::pattern::PacketShape;
use pnoc_noc::ids::{ClusterId, CoreId};
use pnoc_noc::packet::{BandwidthClass, PacketDescriptor};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Benchmark suite a GPU benchmark comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkSuite {
    /// NVIDIA CUDA SDK samples (upper-case names in Figure 1-1).
    CudaSdk,
    /// Rodinia heterogeneous-computing suite (lower-case names).
    Rodinia,
    /// ISPASS-2009 / GPGPU-Sim workloads used in Section 3.4.2.
    Ispass,
}

/// An analytically-modelled GPU benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuBenchmark {
    /// Benchmark name as it appears in the figure.
    pub name: String,
    /// Suite the benchmark belongs to.
    pub suite: BenchmarkSuite,
    /// Number of kernel launches (shown in parentheses in Figure 1-1).
    pub kernel_launches: u32,
    /// Fraction of execution time bound by GPU-memory bandwidth at the 32 B
    /// baseline flit size (0..1).
    pub memory_fraction: f64,
    /// Residual fraction of the memory time that larger flits cannot remove
    /// (poor coalescing, latency-bound accesses; 0..1).
    pub residual: f64,
}

impl GpuBenchmark {
    /// Creates a benchmark description.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are outside `[0, 1]`.
    #[must_use]
    pub fn new(
        name: &str,
        suite: BenchmarkSuite,
        kernel_launches: u32,
        memory_fraction: f64,
        residual: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&memory_fraction));
        assert!((0.0..=1.0).contains(&residual));
        Self {
            name: name.to_string(),
            suite,
            kernel_launches,
            memory_fraction,
            residual,
        }
    }

    /// Relative memory time when the flit size is `flit_bytes` (1.0 at the
    /// 32 B baseline, approaching `residual` for very large flits).
    #[must_use]
    pub(crate) fn memory_time_scale(&self, flit_bytes: u32) -> f64 {
        assert!(flit_bytes >= 32, "baseline flit size is 32 B");
        let amortisation = 32.0 / f64::from(flit_bytes);
        self.residual + (1.0 - self.residual) * amortisation
    }

    /// Speedup over the 32 B baseline when using `flit_bytes` flits
    /// (an Amdahl-style model over the memory-bound fraction).
    #[must_use]
    pub fn speedup(&self, flit_bytes: u32) -> f64 {
        let scaled =
            1.0 - self.memory_fraction + self.memory_fraction * self.memory_time_scale(flit_bytes);
        1.0 / scaled
    }

    /// Speedup expressed in percent over the baseline.
    #[must_use]
    pub fn speedup_percent(&self, flit_bytes: u32) -> f64 {
        (self.speedup(flit_bytes) - 1.0) * 100.0
    }

    /// Bandwidth class this benchmark demands from the NoC, derived from its
    /// memory-bound fraction.
    #[must_use]
    pub fn bandwidth_class(&self) -> BandwidthClass {
        if self.memory_fraction >= 0.30 {
            BandwidthClass::High
        } else if self.memory_fraction >= 0.15 {
            BandwidthClass::MediumHigh
        } else if self.memory_fraction >= 0.05 {
            BandwidthClass::MediumLow
        } else {
            BandwidthClass::Low
        }
    }
}

/// The Figure 1-1 speedup study: a catalog of benchmarks and the flit sizes
/// to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpeedupModel {
    /// The benchmarks included in the study.
    pub benchmarks: Vec<GpuBenchmark>,
    /// Baseline flit size in bytes (32).
    pub baseline_flit_bytes: u32,
    /// Large flit size in bytes (1024).
    pub large_flit_bytes: u32,
}

impl GpuSpeedupModel {
    /// The benchmark catalog calibrated to the qualitative shape of
    /// Figure 1-1: most benchmarks below 1 % speedup, a handful substantially
    /// higher, the largest around 63 %.
    #[must_use]
    pub fn figure_1_1() -> Self {
        use BenchmarkSuite::{CudaSdk, Rodinia};
        let benchmarks = vec![
            // CUDA SDK samples (upper case), kernel launches in parentheses
            // in the original figure.
            GpuBenchmark::new("BFS", CudaSdk, 12, 0.420, 0.031),
            GpuBenchmark::new("MUM", CudaSdk, 2, 0.330, 0.040),
            GpuBenchmark::new("LIB", CudaSdk, 50, 0.085, 0.200),
            GpuBenchmark::new("RAY", CudaSdk, 1, 0.006, 0.300),
            GpuBenchmark::new("STO", CudaSdk, 1, 0.004, 0.400),
            GpuBenchmark::new("CP", CudaSdk, 1, 0.003, 0.400),
            GpuBenchmark::new("LPS", CudaSdk, 1, 0.008, 0.300),
            GpuBenchmark::new("NN", CudaSdk, 4, 0.005, 0.350),
            // Rodinia benchmarks (lower case).
            GpuBenchmark::new("backprop", Rodinia, 2, 0.090, 0.250),
            GpuBenchmark::new("hotspot", Rodinia, 1, 0.007, 0.300),
            GpuBenchmark::new("srad", Rodinia, 4, 0.060, 0.300),
            GpuBenchmark::new("needle", Rodinia, 255, 0.009, 0.400),
            GpuBenchmark::new("kmeans", Rodinia, 3, 0.150, 0.150),
            GpuBenchmark::new("lud", Rodinia, 46, 0.004, 0.450),
            GpuBenchmark::new("streamcluster", Rodinia, 650, 0.012, 0.350),
            GpuBenchmark::new("bfs-rodinia", Rodinia, 24, 0.280, 0.060),
        ];
        Self {
            benchmarks,
            baseline_flit_bytes: 32,
            large_flit_bytes: 1024,
        }
    }

    /// Rows of Figure 1-1: `(name, kernel launches, speedup %)` for the
    /// large-flit configuration.
    #[must_use]
    pub fn rows(&self) -> Vec<(String, u32, f64)> {
        self.benchmarks
            .iter()
            .map(|b| {
                (
                    b.name.clone(),
                    b.kernel_launches,
                    b.speedup_percent(self.large_flit_bytes),
                )
            })
            .collect()
    }

    /// The maximum speedup (in percent) over all benchmarks.
    #[must_use]
    pub fn max_speedup_percent(&self) -> f64 {
        self.rows().iter().map(|r| r.2).fold(0.0, f64::max)
    }

    /// Number of benchmarks whose speedup stays below `threshold_percent`.
    #[must_use]
    pub fn count_below(&self, threshold_percent: f64) -> usize {
        self.rows()
            .iter()
            .filter(|r| r.2 < threshold_percent)
            .count()
    }
}

/// One application mapped onto clusters in the real-application scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedApplication {
    /// The benchmark being run.
    pub benchmark: GpuBenchmark,
    /// Clusters (of GPU cores) the application occupies.
    pub clusters: Vec<ClusterId>,
    /// Relative memory-traffic intensity (packets per core per cycle at unit
    /// offered load), derived from the benchmark's memory-bound fraction.
    pub intensity: f64,
}

/// The real-application traffic of Section 3.4.2: MUM, BFS, CP, RAY and LPS
/// on 12 GPU clusters exchanging data with 4 memory clusters.
#[derive(Debug, Clone)]
pub struct RealApplicationTraffic {
    topology: ClusterTopology,
    shape: PacketShape,
    load: OfferedLoad,
    apps: Vec<MappedApplication>,
    /// Application index serving each GPU cluster (None for memory clusters).
    cluster_app: Vec<Option<usize>>,
    memory_clusters: Vec<ClusterId>,
    rng: StdRng,
}

impl RealApplicationTraffic {
    /// Whether the paper's mapping fits `topology`: it needs exactly 16
    /// clusters of 4 cores.
    #[must_use]
    pub(crate) fn fits(topology: &ClusterTopology) -> bool {
        topology.num_clusters() == 16 && topology.cores_per_cluster() == 4
    }

    /// Builds the paper's mapping: MUM on clusters 0-4 (20 cores), BFS on 5,
    /// CP on 6, RAY on 7, LPS on 8-11 (16 cores); clusters 12-15 hold memory.
    ///
    /// # Panics
    ///
    /// Panics if the topology does not have 16 clusters of 4 cores.
    #[must_use]
    pub fn paper_mapping(
        topology: ClusterTopology,
        shape: PacketShape,
        load: OfferedLoad,
        seed: u64,
    ) -> Self {
        assert!(
            Self::fits(&topology),
            "the paper maps onto 16 clusters of 4 cores"
        );
        use BenchmarkSuite::Ispass;
        let catalog = [
            ("MUM", 0.330, 0.040, 0..5),
            ("BFS", 0.420, 0.031, 5..6),
            ("CP", 0.003, 0.400, 6..7),
            ("RAY", 0.006, 0.300, 7..8),
            ("LPS", 0.008, 0.300, 8..12),
        ];
        let mut apps = Vec::new();
        let mut cluster_app = vec![None; 16];
        for (idx, (name, mem_frac, residual, range)) in catalog.into_iter().enumerate() {
            let benchmark = GpuBenchmark::new(name, Ispass, 1, mem_frac, residual);
            let clusters: Vec<ClusterId> = range.clone().map(ClusterId).collect();
            for c in range {
                cluster_app[c] = Some(idx);
            }
            // Memory intensity grows with how memory-bound the benchmark is;
            // even compute-bound kernels send some traffic.
            let intensity = 0.1 + 0.9 * (benchmark.memory_fraction / 0.42).min(1.0);
            apps.push(MappedApplication {
                benchmark,
                clusters,
                intensity,
            });
        }
        let memory_clusters = (12..16).map(ClusterId).collect();
        Self {
            topology,
            shape,
            load,
            apps,
            cluster_app,
            memory_clusters,
            rng: StdRng::seed_from_u64(seed ^ 0x4750_5553),
        }
    }

    /// The mapped applications.
    #[must_use]
    pub fn applications(&self) -> &[MappedApplication] {
        &self.apps
    }

    fn is_memory_cluster(&self, cluster: ClusterId) -> bool {
        self.memory_clusters.contains(&cluster)
    }

    fn app_of_cluster(&self, cluster: ClusterId) -> Option<&MappedApplication> {
        self.cluster_app[cluster.0].map(|i| &self.apps[i])
    }

    /// Total memory-traffic intensity of one GPU cluster (its application's
    /// intensity, or 0 for memory clusters).
    fn cluster_intensity(&self, cluster: ClusterId) -> f64 {
        self.app_of_cluster(cluster)
            .map(|a| a.intensity)
            .unwrap_or(0.0)
    }

    fn random_core_in(&mut self, cluster: ClusterId) -> CoreId {
        let local = self.rng.gen_range(0..self.topology.cores_per_cluster());
        cluster.core(local, self.topology.cores_per_cluster())
    }

    fn sample_gpu_cluster_by_intensity(&mut self) -> ClusterId {
        let weights: Vec<f64> = (0..self.topology.num_clusters())
            .map(|c| self.cluster_intensity(ClusterId(c)))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut draw = self.rng.gen_range(0.0..total.max(1e-12));
        for (c, w) in weights.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            if draw < *w {
                return ClusterId(c);
            }
            draw -= *w;
        }
        ClusterId(0)
    }
}

impl TrafficModel for RealApplicationTraffic {
    fn next_packet(&mut self, cycle: u64, src: CoreId) -> Option<PacketDescriptor> {
        let src_cluster = self.topology.cluster_of(src);
        let (dst_cluster, class, probability) = if self.is_memory_cluster(src_cluster) {
            // Memory clusters reply to GPU clusters in proportion to the
            // requests they receive.
            let dst = self.sample_gpu_cluster_by_intensity();
            let class = self
                .app_of_cluster(dst)
                .map(|a| a.benchmark.bandwidth_class())
                .unwrap_or(BandwidthClass::Low);
            (dst, class, self.load.value())
        } else {
            // GPU cores request data from a random memory cluster with a
            // probability scaled by their application's memory intensity.
            let app_intensity = self.cluster_intensity(src_cluster);
            let idx = self.rng.gen_range(0..self.memory_clusters.len());
            let dst = self.memory_clusters[idx];
            let class = self
                .app_of_cluster(src_cluster)
                .map(|a| a.benchmark.bandwidth_class())
                .unwrap_or(BandwidthClass::Low);
            (dst, class, self.load.value() * app_intensity)
        };
        if !self.rng.gen_bool(probability.clamp(0.0, 1.0)) {
            return None;
        }
        let dst = self.random_core_in(dst_cluster);
        Some(PacketDescriptor {
            src,
            dst,
            num_flits: self.shape.num_flits,
            flit_bits: self.shape.flit_bits,
            class,
            created_cycle: cycle,
        })
    }

    fn offered_load(&self) -> OfferedLoad {
        self.load
    }

    fn demand_class(&self, src: ClusterId, dst: ClusterId) -> BandwidthClass {
        if self.is_memory_cluster(src) {
            self.app_of_cluster(dst)
                .map(|a| a.benchmark.bandwidth_class())
                .unwrap_or(BandwidthClass::Low)
        } else if self.is_memory_cluster(dst) {
            self.app_of_cluster(src)
                .map(|a| a.benchmark.bandwidth_class())
                .unwrap_or(BandwidthClass::Low)
        } else {
            BandwidthClass::Low
        }
    }

    fn source_intensity(&self, src: ClusterId) -> f64 {
        // Memory clusters reply in proportion to the aggregate request rate;
        // GPU clusters inject in proportion to their application's memory
        // intensity. Normalised so the chip-wide mean is 1.
        let n = self.topology.num_clusters();
        let raw: Vec<f64> = (0..n)
            .map(|c| {
                let cluster = ClusterId(c);
                if self.is_memory_cluster(cluster) {
                    let gpu_total: f64 = (0..n).map(|g| self.cluster_intensity(ClusterId(g))).sum();
                    gpu_total / self.memory_clusters.len() as f64
                } else {
                    self.cluster_intensity(cluster)
                }
            })
            .collect();
        let mean: f64 = raw.iter().sum::<f64>() / n as f64;
        if mean > 0.0 {
            raw[src.0] / mean
        } else {
            1.0
        }
    }

    fn name(&self) -> String {
        "real-application".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_1_shape_most_benchmarks_below_one_percent() {
        let model = GpuSpeedupModel::figure_1_1();
        let n = model.benchmarks.len();
        assert!(n >= 12, "need a reasonable benchmark population");
        // "most of the benchmarks show very modest performance improvement of
        // less than below 1%" — at least half the catalog stays under 1 %.
        assert!(
            model.count_below(1.0) * 2 >= n,
            "only {} of {} benchmarks below 1%",
            model.count_below(1.0),
            n
        );
        // "a few of the benchmarks show considerable speedup of up to 63%".
        let max = model.max_speedup_percent();
        assert!((55.0..=70.0).contains(&max), "max speedup {max}%");
    }

    #[test]
    fn speedup_is_monotone_in_flit_size() {
        let b = GpuBenchmark::new("x", BenchmarkSuite::CudaSdk, 1, 0.4, 0.05);
        let mut last = 1.0;
        for flit in [32, 64, 128, 256, 512, 1024] {
            let s = b.speedup(flit);
            assert!(s >= last, "speedup must not decrease with flit size");
            last = s;
        }
        assert!((b.speedup(32) - 1.0).abs() < 1e-12, "baseline speedup is 1");
    }

    #[test]
    fn bandwidth_class_tracks_memory_fraction() {
        assert_eq!(
            GpuBenchmark::new("hi", BenchmarkSuite::Ispass, 1, 0.4, 0.1).bandwidth_class(),
            BandwidthClass::High
        );
        assert_eq!(
            GpuBenchmark::new("lo", BenchmarkSuite::Ispass, 1, 0.01, 0.1).bandwidth_class(),
            BandwidthClass::Low
        );
    }

    fn real_app() -> RealApplicationTraffic {
        RealApplicationTraffic::paper_mapping(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            OfferedLoad::new(0.5),
            17,
        )
    }

    #[test]
    fn paper_mapping_covers_12_gpu_and_4_memory_clusters() {
        let t = real_app();
        assert_eq!(t.memory_clusters.len(), 4);
        let gpu_clusters: usize = t.applications().iter().map(|a| a.clusters.len()).sum();
        assert_eq!(gpu_clusters, 12);
        // MUM occupies 5 clusters (20 cores), LPS 4 clusters (16 cores).
        assert_eq!(t.applications()[0].clusters.len(), 5);
        assert_eq!(t.applications()[4].clusters.len(), 4);
    }

    #[test]
    fn gpu_cores_talk_to_memory_clusters_only() {
        let mut t = real_app();
        let topo = ClusterTopology::paper_default();
        for cycle in 0..20_000 {
            let src = CoreId((cycle % 48) as usize); // a GPU core
            if let Some(p) = t.next_packet(cycle, src) {
                let dst_cluster = topo.cluster_of(p.dst);
                assert!(dst_cluster.0 >= 12, "GPU cores must target memory clusters");
            }
        }
    }

    #[test]
    fn memory_bound_apps_demand_high_bandwidth_classes() {
        let t = real_app();
        // MUM cluster (0) ↔ memory cluster (12) is a high-bandwidth flow.
        assert_eq!(
            t.demand_class(ClusterId(0), ClusterId(12)),
            BandwidthClass::High
        );
        // CP cluster (6) ↔ memory is low bandwidth.
        assert_eq!(
            t.demand_class(ClusterId(6), ClusterId(12)),
            BandwidthClass::Low
        );
        // Replies inherit the requester's class.
        assert_eq!(
            t.demand_class(ClusterId(12), ClusterId(5)),
            BandwidthClass::High
        );
    }

    #[test]
    fn memory_intense_apps_generate_more_traffic() {
        let mut t = real_app();
        let mut mum_packets = 0;
        let mut cp_packets = 0;
        for cycle in 0..30_000 {
            // Core 0 runs MUM, core 24 runs CP (cluster 6).
            if t.next_packet(cycle, CoreId(0)).is_some() {
                mum_packets += 1;
            }
            if t.next_packet(cycle, CoreId(24)).is_some() {
                cp_packets += 1;
            }
        }
        assert!(
            mum_packets > cp_packets * 2,
            "MUM ({mum_packets}) must generate clearly more traffic than CP ({cp_packets})"
        );
    }
}
