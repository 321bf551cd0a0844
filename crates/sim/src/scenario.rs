#![doc = include_str!("scenario.md")]

use crate::config::{BandwidthSet, SimConfig};
use crate::metrics::{JsonlSink, MetricMergeError, MetricReport, MetricRow};
use crate::params::{ArchParamError, ArchParams, ResolvedParams};
use crate::registry::{lookup_architecture, ArchitectureBuilder};
use crate::sweep::{
    default_load_ladder, derive_point_seed, point_spec, run_point, SaturationResult, SweepMode,
    SweepPoint, SweepPointSpec,
};
use crate::workload::run_workload_point;
use pnoc_faults::{FaultError, FaultPlan};
use pnoc_noc::registry::UnknownNameError;
use pnoc_noc::traffic_model::OfferedLoad;
use pnoc_traffic::factory::{
    lookup_traffic_factory, registered_traffic_patterns, TrafficFactory, TrafficSpec,
};
use pnoc_traffic::pattern::PacketShape;
use pnoc_workload::dag::Workload;
use pnoc_workload::registry::{WorkloadRef, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The base RNG seed every scenario starts from unless overridden
/// (the same value as [`SimConfig::paper_default`]).
pub const DEFAULT_SEED: u64 = 0x2014_50CC;

/// How much simulation effort a scenario spends: the paper's full
/// methodology, a reduced configuration for smoke runs and the benchmark,
/// or a minimal configuration for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effort {
    /// Full paper methodology: 10 000 measured cycles, 16 VCs, the 8-point
    /// load ladder.
    Paper,
    /// Reduced runs for `repro --quick` and `benchmark/`: 1 200 measured
    /// cycles, a 3-point ladder.
    Quick,
    /// Minimal runs for unit and integration tests: 600 measured cycles, a
    /// 3-point ladder.
    Smoke,
}

impl Effort {
    /// Every effort level, heaviest first.
    pub const ALL: [Effort; 3] = [Effort::Paper, Effort::Quick, Effort::Smoke];

    /// The simulation configuration for this effort level.
    #[must_use]
    pub fn config(self, set: BandwidthSet) -> SimConfig {
        match self {
            Effort::Paper => SimConfig::paper_default(set),
            Effort::Quick => {
                let mut c = SimConfig::fast(set);
                c.sim_cycles = 1_200;
                c.warmup_cycles = 300;
                c
            }
            Effort::Smoke => {
                let mut c = SimConfig::fast(set);
                c.sim_cycles = 600;
                c.warmup_cycles = 150;
                c
            }
        }
    }

    /// The default offered-load ladder for this effort level.
    #[must_use]
    pub fn load_ladder(self, config: &SimConfig) -> Vec<f64> {
        let full = default_load_ladder(config.estimated_saturation_load());
        match self {
            Effort::Paper => full,
            Effort::Quick | Effort::Smoke => vec![full[1], full[3], full[5]],
        }
    }

    /// Label used in reports, JSON output and the `--scenario` shorthand.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Effort::Paper => "paper",
            Effort::Quick => "quick",
            Effort::Smoke => "smoke",
        }
    }

    /// Parses an effort label (the inverse of [`Effort::label`]).
    #[must_use]
    pub fn parse(name: &str) -> Option<Effort> {
        Effort::ALL.into_iter().find(|e| e.label() == name)
    }
}

/// A typed, serializable specification of one saturation-sweep experiment:
/// which architecture, which traffic pattern, which bandwidth set, how much
/// effort, which base seed, and (optionally) an explicit offered-load
/// ladder.
///
/// Specs are plain data. Resolution against the registries — and therefore
/// name validation — happens in [`ScenarioSpec::resolve`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry name of the architecture (`"firefly"`, `"d-hetpnoc"`, ...).
    /// A full `name{key=value,...}` spec is also accepted; embedded
    /// overrides merge into (and are overridden by) `arch_params` at
    /// resolve time.
    pub architecture: String,
    /// Raw architecture-parameter overrides, validated against the
    /// architecture's declared [`ParamSchema`](crate::params::ParamSchema)
    /// by [`ScenarioSpec::resolve`]. Empty means "all defaults".
    pub arch_params: ArchParams,
    /// Registry name of the traffic pattern (`"tornado"`, `"skewed-3"`, ...).
    /// Unused (and conventionally empty) when `workload` is set.
    pub traffic: String,
    /// Aggregate-bandwidth design point.
    pub bandwidth_set: BandwidthSet,
    /// Simulation effort level (configuration scale + default ladder).
    pub effort: Effort,
    /// Base RNG seed; every ladder point derives its own seed from it via
    /// [`derive_point_seed`].
    pub seed: u64,
    /// Explicit offered-load ladder in packets per core per cycle. Empty
    /// means "use the effort level's default ladder". Ignored for workload
    /// scenarios (a closed-loop run has no offered-load axis).
    pub ladder: Vec<f64>,
    /// Closed-loop workload reference (`NAME[:SIZE]`, validated against the
    /// workload registry). When set, the scenario runs the workload DAG to
    /// drain instead of an open-loop saturation sweep: one point, no load
    /// ladder, flow-completion-time and makespan metrics on the point's
    /// report.
    pub workload: Option<String>,
    /// Fault plan injected into every point of the scenario: a preset name
    /// (`"single-link"`, see [`pnoc_faults::preset_catalogue`]) or a literal
    /// plan in the canonical grammar
    /// (`"link-fail@c150-450:sw1,laser-dim@c200:fabric/2"`), validated
    /// against the registry and topology by [`ScenarioSpec::resolve`].
    /// `None` (and the `"none"` preset, which resolves to the empty plan)
    /// mean a healthy run, bitwise-identical to a spec without the field.
    pub faults: Option<String>,
}

impl ScenarioSpec {
    /// Creates a spec with the default bandwidth set ([`BandwidthSet::Set1`]),
    /// [`Effort::Quick`], the [`DEFAULT_SEED`] and the default ladder.
    #[must_use]
    pub fn new(architecture: impl Into<String>, traffic: impl Into<String>) -> Self {
        Self {
            architecture: architecture.into(),
            arch_params: ArchParams::new(),
            traffic: traffic.into(),
            bandwidth_set: BandwidthSet::Set1,
            effort: Effort::Quick,
            seed: DEFAULT_SEED,
            ladder: Vec::new(),
            workload: None,
            faults: None,
        }
    }

    /// Creates a **closed-loop** spec: `workload_ref` is a `NAME[:SIZE]`
    /// workload-registry reference (e.g. `"allreduce:64"`); defaults
    /// otherwise as in [`ScenarioSpec::new`].
    #[must_use]
    pub fn closed_loop(architecture: impl Into<String>, workload_ref: impl Into<String>) -> Self {
        Self::new(architecture, "").with_workload(workload_ref)
    }

    /// Sets (or clears) the closed-loop workload reference.
    #[must_use]
    pub(crate) fn with_workload(mut self, workload_ref: impl Into<String>) -> Self {
        let workload_ref = workload_ref.into();
        self.workload = (!workload_ref.is_empty()).then_some(workload_ref);
        self
    }

    /// Sets (or, with an empty string, clears) the fault plan: a preset
    /// name or a literal plan in the canonical grammar. Not validated here —
    /// that is [`ScenarioSpec::resolve`]'s job.
    #[must_use]
    pub fn with_faults(mut self, plan: impl Into<String>) -> Self {
        let plan = plan.into();
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Replaces the architecture-parameter overrides wholesale.
    #[must_use]
    pub fn with_arch_params(mut self, params: ArchParams) -> Self {
        self.arch_params = params;
        self
    }

    /// Sets one architecture-parameter override (validated against the
    /// architecture's schema at resolve time).
    #[must_use]
    pub fn with_arch_param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.arch_params.insert(key, value);
        self
    }

    /// Sets the bandwidth set.
    #[must_use]
    pub fn with_bandwidth_set(mut self, set: BandwidthSet) -> Self {
        self.bandwidth_set = set;
        self
    }

    /// Sets the effort level.
    #[must_use]
    pub fn with_effort(mut self, effort: Effort) -> Self {
        self.effort = effort;
        self
    }

    /// Sets the base RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an explicit offered-load ladder (pass an empty vector to restore
    /// the effort level's default ladder).
    #[must_use]
    pub fn with_ladder(mut self, ladder: Vec<f64>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Parses the `ARCH:TRAFFIC[:SET[:EFFORT]]` shorthand used by
    /// `repro --scenario` (e.g. `d-hetpnoc:tornado:set2`). The architecture
    /// part may carry parameter overrides — `firefly{radix=8}:uniform` —
    /// which land in [`ScenarioSpec::arch_params`]. Omitted parts default
    /// as in [`ScenarioSpec::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Malformed`] on a wrong number of `:`-separated
    /// parts, a malformed parameter block, or an unknown bandwidth-set /
    /// effort label. Registry names and parameter values are *not* validated
    /// here — that is [`ScenarioSpec::resolve`]'s job.
    pub fn parse_shorthand(text: &str) -> Result<Self, ScenarioError> {
        let malformed = |reason: &str| ScenarioError::Malformed {
            input: text.to_string(),
            reason: reason.to_string(),
        };
        // A trailing `#faults=PLAN` suffix carries the fault plan (the `#`
        // keeps fault-plan `:`s out of the shorthand's `:`-separated parts).
        let (text_main, faults) = match text.split_once('#') {
            Some((main, suffix)) => {
                let plan = suffix
                    .strip_prefix("faults=")
                    .ok_or_else(|| malformed("the only supported '#' suffix is '#faults=PLAN'"))?;
                if plan.is_empty() {
                    return Err(malformed("'#faults=' needs a preset name or a plan"));
                }
                (main, Some(plan.to_string()))
            }
            None => (text, None),
        };
        let parts: Vec<&str> = text_main.split(':').collect();
        if !(2..=4).contains(&parts.len()) || parts.iter().any(|p| p.is_empty()) {
            return Err(malformed(
                "expected ARCH:TRAFFIC[:SET[:EFFORT]] with non-empty parts",
            ));
        }
        let (architecture, arch_params) =
            ArchParams::split_spec(parts[0]).map_err(|error| ScenarioError::Malformed {
                input: text.to_string(),
                reason: error.to_string(),
            })?;
        let mut spec = ScenarioSpec::new(architecture, parts[1]).with_arch_params(arch_params);
        if let Some(&set) = parts.get(2) {
            spec.bandwidth_set = BandwidthSet::from_short_name(set)
                .ok_or_else(|| malformed("bandwidth set must be one of set1, set2, set3"))?;
        }
        if let Some(&effort) = parts.get(3) {
            spec.effort = Effort::parse(effort)
                .ok_or_else(|| malformed("effort must be one of paper, quick, smoke"))?;
        }
        spec.faults = faults;
        Ok(spec)
    }

    /// The compact `arch:traffic:set:effort` identifier used in reports and
    /// log lines; parameter overrides render inline in the architecture
    /// part (`firefly{radix=8}:uniform-random:set1:quick`). For open-loop
    /// scenarios this is exactly the shorthand accepted by
    /// [`ScenarioSpec::parse_shorthand`]; workload scenarios render their
    /// `NAME[:SIZE]` reference with the size separator as `@`
    /// (`d-hetpnoc:allreduce@64:set1:quick`) — unambiguous in the
    /// `:`-separated structure, but **not** parseable back through
    /// `parse_shorthand` (re-run a workload with `--workload NAME[:SIZE]`
    /// or a serialized spec instead).
    #[must_use]
    pub fn id(&self) -> String {
        // The architecture field may itself embed a param block; merge it
        // with the explicit overrides (explicit wins, as in resolve()) so
        // the id renders exactly one brace block and stays re-parseable.
        let arch = match ArchParams::split_spec(&self.architecture) {
            Ok((name, embedded)) => {
                let mut merged = embedded;
                for (key, value) in self.arch_params.iter() {
                    merged.insert(key, value);
                }
                merged.render_spec(&name)
            }
            // A malformed architecture field cannot resolve anyway; render
            // it verbatim so the error context still shows what was asked.
            Err(_) => self.arch_params.render_spec(&self.architecture),
        };
        let middle = match &self.workload {
            Some(workload) => workload.replace(':', "@"),
            None => self.traffic.clone(),
        };
        let mut id = format!(
            "{arch}:{middle}:{}:{}",
            self.bandwidth_set.short_name(),
            self.effort.label()
        );
        // The fault plan rides as a `#faults=` suffix (echoed as written,
        // like every other spec field; parse_shorthand strips it back off).
        if let Some(faults) = &self.faults {
            id.push_str("#faults=");
            id.push_str(faults);
        }
        id
    }

    /// The full simulation configuration of this scenario: the effort level's
    /// configuration for the bandwidth set, with the spec's base seed.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        let mut config = self.effort.config(self.bandwidth_set);
        config.seed = self.seed;
        config
    }

    /// The offered-load ladder of this scenario: the explicit ladder when one
    /// was given, the effort level's default ladder otherwise. A workload
    /// scenario has no offered-load axis: it contributes exactly one
    /// closed-loop point, reported at load 0.
    #[must_use]
    pub fn loads(&self) -> Vec<f64> {
        if self.workload.is_some() {
            vec![0.0]
        } else if self.ladder.is_empty() {
            self.effort.load_ladder(&self.config())
        } else {
            self.ladder.clone()
        }
    }

    /// Validates the spec against the process-global registries
    /// (architecture plus either traffic or workload) and returns the
    /// resolved, runnable [`Scenario`]. Workload scenarios also build their
    /// flow DAG here, eagerly — resolution is the last point where a
    /// malformed workload can fail with a typed error.
    ///
    /// # Errors
    ///
    /// * [`ScenarioError::UnknownName`] when an architecture, traffic-pattern
    ///   or workload name is not registered — the error says which
    ///   catalogue, lists it and suggests the nearest name,
    /// * [`ScenarioError::InvalidArchParams`] when the architecture
    ///   parameters are malformed or do not validate against the declared
    ///   schema (unknown key / bad value / out of bounds — the message lists
    ///   the declared keys and suggests the nearest one),
    /// * [`ScenarioError::Malformed`] when a workload reference does not
    ///   parse as `NAME[:SIZE]`,
    /// * [`ScenarioError::WorkloadTooLarge`] when a workload's participant
    ///   count does not fit the topology,
    /// * [`ScenarioError::TrafficUnsupported`] when the traffic pattern
    ///   cannot run on the effective topology,
    /// * [`ScenarioError::InvalidLoad`] when an explicit ladder entry is not
    ///   a positive finite load,
    /// * [`ScenarioError::InvalidFaults`] when the fault plan does not parse
    ///   or validate,
    /// * [`ScenarioError::FaultsUnsupported`] when the plan is not empty but
    ///   the architecture does not take fault schedules.
    pub fn resolve(&self) -> Result<Scenario, ScenarioError> {
        // The architecture field may itself be a `name{key=value,...}` spec
        // (hand-built specs, matrix axis entries); embedded overrides merge
        // under the explicit `arch_params` field.
        let (arch_name, embedded) = ArchParams::split_spec(&self.architecture)?;
        let mut overrides = embedded;
        for (key, value) in self.arch_params.iter() {
            overrides.insert(key, value);
        }
        let architecture = lookup_architecture(&arch_name)?;
        let params = architecture
            .param_schema()
            .validate(&arch_name, &overrides)?;
        // Everything topology-sized below (workload capacity, fault-plan
        // bounds) is checked against the architecture's *effective*
        // configuration: composite architectures simulate a larger topology
        // than the scenario-level base.
        let effective = architecture.effective_config(self.config(), &params);
        let payload = match &self.workload {
            Some(reference) => {
                // A scenario is either open- or closed-loop: a spec naming
                // both a traffic pattern and a workload is ambiguous about
                // what it runs, so reject it instead of silently ignoring
                // the traffic field.
                if !self.traffic.is_empty() {
                    return Err(ScenarioError::Malformed {
                        input: self.id(),
                        reason: format!(
                            "scenario sets both traffic '{}' and workload '{reference}'; \
                             a closed-loop spec must leave traffic empty",
                            self.traffic
                        ),
                    });
                }
                let parsed =
                    WorkloadRef::parse(reference).map_err(|reason| ScenarioError::Malformed {
                        input: reference.clone(),
                        reason,
                    })?;
                let (factory, size) = parsed.resolve()?;
                let num_cores = effective.topology.num_cores();
                if size < 2 || size > num_cores {
                    return Err(ScenarioError::WorkloadTooLarge {
                        scenario: self.id(),
                        size,
                        num_cores,
                    });
                }
                let workload = factory.build(&WorkloadSpec::new(size));
                // Architecture-aware placement: the generators emit a dense
                // rank-on-core-`i` workload; an architecture may spread the
                // ranks over its effective topology (the hierarchy layer
                // round-robins ranks across pods). The map is a pure
                // function of (architecture, params, size), so placement
                // never varies between runs of the same canonical id.
                let workload = match architecture.workload_placement(&effective, &params, size) {
                    Some(map) => {
                        assert_eq!(
                            map.len(),
                            size,
                            "architecture '{arch_name}' returned a placement map for {} ranks, \
                             expected {size}",
                            map.len()
                        );
                        if let Some(core) = map.iter().find(|&&core| core >= num_cores) {
                            panic!(
                                "architecture '{arch_name}' produced an invalid placement map: \
                                 core {core} is out of range"
                            );
                        }
                        workload.remap_cores(&map).unwrap_or_else(|error| {
                            panic!(
                                "architecture '{arch_name}' produced an invalid placement map: \
                                 {error}"
                            )
                        })
                    }
                    // A factory may ignore the requested size, and the
                    // driver only debug-checks the range.
                    None if workload.max_core() >= num_cores => {
                        return Err(ScenarioError::WorkloadTooLarge {
                            scenario: self.id(),
                            size: workload.max_core() + 1,
                            num_cores,
                        });
                    }
                    None => workload,
                };
                ScenarioPayload::Workload(Arc::new(workload))
            }
            None => {
                let traffic = lookup_traffic_factory(&self.traffic)?;
                if let Some(reason) = traffic.unsupported_topology(&effective.topology) {
                    return Err(ScenarioError::TrafficUnsupported {
                        scenario: self.id(),
                        traffic: traffic.name().to_string(),
                        reason,
                    });
                }
                if let Some(&load) = self.ladder.iter().find(|l| !l.is_finite() || **l <= 0.0) {
                    return Err(ScenarioError::InvalidLoad {
                        scenario: self.id(),
                        load,
                    });
                }
                ScenarioPayload::Traffic(traffic)
            }
        };
        let faults = match &self.faults {
            Some(text) => {
                let invalid = |error: FaultError| ScenarioError::InvalidFaults {
                    scenario: self.id(),
                    error,
                };
                let plan = FaultPlan::resolve(text).map_err(invalid)?;
                plan.validate(effective.topology.num_clusters())
                    .map_err(invalid)?;
                if !plan.is_empty() && !architecture.accepts_fault_schedules() {
                    return Err(ScenarioError::FaultsUnsupported {
                        scenario: self.id(),
                        architecture: arch_name,
                    });
                }
                plan
            }
            None => FaultPlan::empty(),
        };
        Ok(Scenario {
            spec: self.clone(),
            architecture,
            params,
            payload,
            faults,
        })
    }
}

impl std::fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id())
    }
}

/// Why a [`ScenarioSpec`] could not be resolved or parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// An architecture, traffic-pattern or workload name is not in its
    /// registry (the error's `kind` says which catalogue).
    UnknownName(UnknownNameError),
    /// The architecture parameters are malformed or do not validate against
    /// the architecture's declared schema.
    InvalidArchParams(ArchParamError),
    /// A workload's participant count does not fit the topology (or is
    /// below the 2-node minimum of every collective).
    WorkloadTooLarge {
        /// Identifier of the offending scenario.
        scenario: String,
        /// The requested participant count.
        size: usize,
        /// Cores available in the topology.
        num_cores: usize,
    },
    /// The traffic pattern cannot run on the architecture's effective
    /// topology ([`TrafficFactory::unsupported_topology`]).
    TrafficUnsupported {
        /// Identifier of the offending scenario.
        scenario: String,
        /// Registry name of the traffic pattern.
        traffic: String,
        /// Why the pattern does not fit.
        reason: String,
    },
    /// An explicit ladder entry is not a positive finite offered load.
    InvalidLoad {
        /// Identifier of the offending scenario.
        scenario: String,
        /// The offending load value.
        load: f64,
    },
    /// The fault plan does not parse, names an unknown preset, or targets a
    /// switch outside the topology.
    InvalidFaults {
        /// Identifier of the offending scenario.
        scenario: String,
        /// The underlying fault-plan error (carries the kind/preset
        /// catalogue and a nearest-name suggestion where applicable).
        error: FaultError,
    },
    /// The fault plan is not empty, but the architecture does not take fault
    /// schedules ([`ArchitectureBuilder::accepts_fault_schedules`]).
    FaultsUnsupported {
        /// Identifier of the offending scenario.
        scenario: String,
        /// Registry name of the architecture.
        architecture: String,
    },
    /// A `--scenario` shorthand or serialized spec could not be parsed.
    Malformed {
        /// The input that failed to parse.
        input: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownName(e) => e.fmt(f),
            ScenarioError::InvalidArchParams(e) => e.fmt(f),
            ScenarioError::WorkloadTooLarge {
                scenario,
                size,
                num_cores,
            } => write!(
                f,
                "scenario '{scenario}' asks for a {size}-node workload; \
                 sizes must be between 2 and the topology's {num_cores} cores"
            ),
            ScenarioError::TrafficUnsupported {
                scenario,
                traffic,
                reason,
            } => write!(
                f,
                "scenario '{scenario}' cannot run traffic pattern '{traffic}' on its topology: \
                 {reason}"
            ),
            ScenarioError::InvalidLoad { scenario, load } => write!(
                f,
                "scenario '{scenario}' has invalid ladder load {load}; \
                 loads must be positive and finite"
            ),
            ScenarioError::InvalidFaults { scenario, error } => {
                write!(
                    f,
                    "scenario '{scenario}' has an invalid fault plan: {error}"
                )
            }
            ScenarioError::FaultsUnsupported {
                scenario,
                architecture,
            } => write!(
                f,
                "scenario '{scenario}' has a fault plan, but architecture \
                 '{architecture}' does not support fault injection"
            ),
            ScenarioError::Malformed { input, reason } => {
                write!(f, "cannot parse scenario '{input}': {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<UnknownNameError> for ScenarioError {
    fn from(error: UnknownNameError) -> Self {
        ScenarioError::UnknownName(error)
    }
}

impl From<ArchParamError> for ScenarioError {
    fn from(error: ArchParamError) -> Self {
        ScenarioError::InvalidArchParams(error)
    }
}

/// What a resolved scenario simulates: an open-loop traffic factory swept
/// over the load ladder, or a closed-loop workload DAG run to drain.
#[derive(Clone)]
enum ScenarioPayload {
    /// Open-loop: one saturation sweep over the ladder.
    Traffic(Arc<dyn TrafficFactory>),
    /// Closed-loop: one DAG-drain run (the eagerly built workload is shared
    /// by every job that deduplicates onto it).
    Workload(Arc<Workload>),
}

/// A validated scenario: the spec plus the registry entries it resolved to
/// and the schema-validated architecture parameters.
#[derive(Clone)]
pub struct Scenario {
    spec: ScenarioSpec,
    architecture: Arc<dyn ArchitectureBuilder>,
    params: ResolvedParams,
    payload: ScenarioPayload,
    faults: FaultPlan,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("spec", &self.spec)
            .finish()
    }
}

impl Scenario {
    /// The spec this scenario was resolved from.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The resolved architecture builder.
    #[must_use]
    pub fn architecture(&self) -> &Arc<dyn ArchitectureBuilder> {
        &self.architecture
    }

    /// The schema-validated architecture parameters (overrides applied,
    /// defaults filled in).
    #[must_use]
    pub fn arch_params(&self) -> &ResolvedParams {
        &self.params
    }

    /// The resolved, topology-validated fault plan (empty for a healthy
    /// scenario).
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The **effective** simulation configuration of this scenario: the
    /// spec's base configuration rewritten by the resolved architecture
    /// (see [`ArchitectureBuilder::effective_config`]). This is what every
    /// point actually simulates — for flat architectures it equals
    /// [`ScenarioSpec::config`]; for composite architectures the topology is
    /// scaled (e.g. multiplied by the pod count).
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.architecture
            .effective_config(self.spec.config(), &self.params)
    }

    /// Runs the scenario's saturation sweep with the ladder points in
    /// parallel (bitwise-identical to a sequential run): a one-scenario
    /// batch on the same flattened point queue as [`run_specs_with_cache`].
    #[must_use]
    pub fn run(&self) -> ScenarioResult {
        self.run_with_mode(SweepMode::Parallel)
    }

    /// The canonical identity of this scenario after registry resolution:
    /// the resolved architecture name with the **full** resolved parameter
    /// set (defaults filled in), the resolved payload name (the registry's
    /// canonical traffic name, or the generated workload name with its size
    /// separator rendered as `@`), the bandwidth set and the effort level.
    ///
    /// Unlike [`ScenarioSpec::id`], which echoes the spec as written, two
    /// spellings that simulate identically (aliases such as `uniform` vs
    /// `uniform-random`, or a default named explicitly such as
    /// `firefly{radix=16}`) render the **same** canonical id. This is the
    /// scenario component of every cache key (see [`point_cache_key`]), so
    /// its exact rendering is pinned by golden tests in `pnoc-bench` — a
    /// drift must fail a test, not poison the cache.
    #[must_use]
    pub fn canonical_id(&self) -> String {
        let payload = match &self.payload {
            ScenarioPayload::Traffic(factory) => factory.name().to_string(),
            ScenarioPayload::Workload(workload) => workload.name().replace(':', "@"),
        };
        let mut id = format!(
            "{}{}:{payload}:{}:{}",
            self.architecture.name(),
            self.params.canonical(),
            self.spec.bandwidth_set.short_name(),
            self.spec.effort.label()
        );
        // The *resolved* plan in canonical rendering: preset names and
        // their literal spellings share one id, and the empty plan (absent
        // field, `"none"`, or an empty preset) adds no suffix — so a cached
        // healthy result is never served for a faulted scenario and vice
        // versa.
        if !self.faults.is_empty() {
            id.push_str("#faults=");
            id.push_str(&self.faults.render());
        }
        id
    }

    /// The resolved closed-loop workload, when this is a workload scenario.
    #[must_use]
    pub fn workload(&self) -> Option<&Arc<Workload>> {
        match &self.payload {
            ScenarioPayload::Workload(workload) => Some(workload),
            ScenarioPayload::Traffic(_) => None,
        }
    }

    /// Runs the scenario with an explicit execution mode (used by
    /// determinism tests and the `benchmark/` ladder workload). Open-loop
    /// scenarios sweep their ladder; closed-loop scenarios run their single
    /// DAG-drain point. [`SweepMode::Sequential`] is the reference: the
    /// points in ladder order on the calling thread. [`SweepMode::Parallel`]
    /// is a one-scenario batch on the matrix engine's point queue.
    #[must_use]
    pub fn run_with_mode(&self, mode: SweepMode) -> ScenarioResult {
        match mode {
            SweepMode::Sequential => {
                self.result(self.points().iter().map(|p| self.simulate(p)).collect())
            }
            SweepMode::Parallel => run_scenarios(std::slice::from_ref(self), None)
                .scenarios
                .pop()
                .expect("one scenario in, one result out"),
        }
    }

    /// The scenario's sweep points, in ladder order: one per ladder load,
    /// each on the effective configuration with the seed
    /// `derive_point_seed(spec.seed, index)`.
    pub(crate) fn points(&self) -> Vec<SweepPointSpec> {
        let config = self.config();
        // `ScenarioResult::point_seeds` derives from the spec's seed.
        debug_assert_eq!(config.seed, self.spec.seed, "seed rewritten");
        self.spec
            .loads()
            .into_iter()
            .enumerate()
            .map(|(index, load)| point_spec(&config, index, load))
            .collect()
    }

    /// The [`point_cache_key`] of each of this scenario's points, in ladder
    /// order: its canonical id with each point's derived seed and load under
    /// `fingerprint` (normally [`engine_fingerprint`]). Two scenarios with
    /// equal keys simulate the same networks; batches deduplicate on these
    /// keys and the cache is addressed by them.
    #[must_use]
    pub fn point_keys(&self, fingerprint: &str) -> Vec<String> {
        let canonical_id = self.canonical_id();
        self.points()
            .iter()
            .map(|point| {
                point_cache_key(
                    &canonical_id,
                    point.config.seed,
                    point.offered_load,
                    fingerprint,
                )
            })
            .collect()
    }

    /// Simulates one of this scenario's points: an open-loop ladder point,
    /// its traffic model built from the point's configuration (geometry,
    /// topology, derived seed, offered load), or the closed-loop DAG-drain
    /// run.
    pub(crate) fn simulate(&self, point: &SweepPointSpec) -> SweepPoint {
        let (architecture, params, faults) =
            (self.architecture.as_ref(), &self.params, &self.faults);
        match &self.payload {
            ScenarioPayload::Traffic(factory) => {
                let config = &point.config;
                let set = config.bandwidth_set;
                let shape = PacketShape::new(set.packet_flits(), set.flit_bits());
                let load = OfferedLoad::new(point.offered_load);
                let spec = TrafficSpec::new(config.topology, shape, load, config.seed);
                run_point(architecture, params, point, factory.build(&spec), faults)
            }
            ScenarioPayload::Workload(workload) => {
                run_workload_point(architecture, params, point, workload, faults)
            }
        }
    }

    /// This scenario's result from its simulated points, in ladder order.
    fn result(&self, points: Vec<SweepPoint>) -> ScenarioResult {
        ScenarioResult {
            spec: self.spec.clone(),
            result: SaturationResult { points },
        }
    }
}

/// The outcome of running one scenario: the spec it came from and the
/// measured saturation sweep. Everything in it is what the simulation
/// determines, so `==` is the determinism comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The spec that produced this result.
    pub spec: ScenarioSpec,
    /// The measured sweep, one point per ladder entry (in ladder order).
    pub result: SaturationResult,
}

impl ScenarioResult {
    /// The seed each ladder point simulated with:
    /// `derive_point_seed(spec.seed, index)`, in ladder order.
    #[must_use]
    pub fn point_seeds(&self) -> Vec<u64> {
        (0..self.result.points.len())
            .map(|index| derive_point_seed(self.spec.seed, index))
            .collect()
    }

    /// The exportable [`MetricRow`] of ladder point `index` (`id` is the
    /// precomputed [`ScenarioSpec::id`], passed in so batch exporters
    /// compute it once per scenario).
    fn metric_row(&self, id: &str, index: usize) -> MetricRow {
        let point = &self.result.points[index];
        MetricRow {
            scenario: id.to_string(),
            point_index: index,
            offered_load: point.offered_load,
            seed: derive_point_seed(self.spec.seed, index),
            report: point.metrics.clone(),
        }
    }

    /// The per-point metrics as exportable [`MetricRow`]s, in ladder order.
    #[must_use]
    pub fn metric_rows(&self) -> Vec<MetricRow> {
        let id = self.spec.id();
        (0..self.result.points.len())
            .map(|index| self.metric_row(&id, index))
            .collect()
    }

    /// Merges the metric reports of every ladder point into one
    /// scenario-level report (counters add, gauges keep the peak, latency
    /// sketches merge bin-wise). Deterministic: the merge runs in ladder
    /// order regardless of which threads simulated the points.
    ///
    /// # Errors
    ///
    /// Returns [`MetricMergeError`] if two points disagree on a metric's
    /// kind (cannot happen for reports produced by the sweep engine).
    pub fn merged_metrics(&self) -> Result<MetricReport, MetricMergeError> {
        let mut merged = MetricReport::new();
        for point in &self.result.points {
            merged.merge(&point.metrics)?;
        }
        Ok(merged)
    }
}

/// A batch of scenarios expanded from a cross-product of architectures ×
/// traffic patterns × bandwidth sets, all at one effort level and base seed.
///
/// [`ScenarioMatrix::run`] flattens every *(scenario, ladder point)* pair
/// into one batch on the persistent `pnoc-exec` pool — better load balance
/// than per-sweep parallelism — deduplicates identical points, and
/// reassembles per-scenario
/// results that are bitwise-identical to running each scenario alone.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMatrix {
    architectures: Vec<String>,
    arch_param_axes: Vec<(String, Vec<String>)>,
    traffics: Vec<String>,
    workloads: Vec<String>,
    bandwidth_sets: Vec<BandwidthSet>,
    fault_plans: Vec<String>,
    effort: Effort,
    seed: u64,
    ladder: Vec<f64>,
}

impl Default for ScenarioMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioMatrix {
    /// Creates an empty matrix: no architectures or traffic patterns yet,
    /// [`BandwidthSet::Set1`], [`Effort::Quick`], the [`DEFAULT_SEED`] and
    /// the default ladder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            architectures: Vec::new(),
            arch_param_axes: Vec::new(),
            traffics: Vec::new(),
            workloads: Vec::new(),
            bandwidth_sets: vec![BandwidthSet::Set1],
            fault_plans: Vec::new(),
            effort: Effort::Quick,
            seed: DEFAULT_SEED,
            ladder: Vec::new(),
        }
    }

    /// Sets the architecture axis by name.
    #[must_use]
    pub fn architectures<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.architectures = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the architecture axis to every registered architecture.
    #[must_use]
    pub fn all_architectures(mut self) -> Self {
        self.architectures = crate::registry::registered_architectures();
        self
    }

    /// Adds an architecture-parameter axis: every expanded scenario crosses
    /// the given values of `key` (raw value strings, validated against each
    /// architecture's schema at resolve time). Calling the method again with
    /// another key adds a further axis; the cross-product of all axes
    /// applies to **every** entry of the architecture axis, so a matrix
    /// mixing architectures whose schemas do not all declare `key` fails
    /// fast at [`ScenarioMatrix::run`]. Axis values override any override
    /// of the same key embedded in an architecture entry
    /// (`"firefly{radix=8}"`).
    ///
    /// ```
    /// use pnoc_sim::scenario::{Effort, ScenarioMatrix};
    ///
    /// let matrix = ScenarioMatrix::new()
    ///     .architectures(["uniform-fabric"])
    ///     .arch_params("wavelengths", ["16", "64"])
    ///     .traffics(["uniform-random"])
    ///     .effort(Effort::Smoke);
    /// assert_eq!(matrix.specs().len(), 2);
    /// ```
    #[must_use]
    pub fn arch_params<I, S>(mut self, key: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.arch_param_axes
            .push((key.into(), values.into_iter().map(Into::into).collect()));
        self
    }

    /// Sets the traffic-pattern axis by name.
    #[must_use]
    pub fn traffics<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.traffics = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the traffic axis to every registered traffic pattern.
    #[must_use]
    pub fn all_traffics(mut self) -> Self {
        self.traffics = registered_traffic_patterns();
        self
    }

    /// Sets the closed-loop workload axis by `NAME[:SIZE]` reference. The
    /// expanded workload scenarios cross with the architecture and
    /// bandwidth-set axes (but not the traffic axis — a scenario is either
    /// open- or closed-loop) and run in the same flattened work queue.
    #[must_use]
    pub fn workloads<I, S>(mut self, references: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.workloads = references.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the fault-plan axis. Every entry is a preset name or canonical
    /// plan text (see `pnoc-faults`), crossed against every open-loop *and*
    /// closed-loop scenario in the matrix. The empty string and `"none"`
    /// both mean a healthy run and dedup onto the fault-free scenario.
    #[must_use]
    pub fn fault_plans<I, S>(mut self, plans: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.fault_plans = plans.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the bandwidth-set axis.
    #[must_use]
    pub fn bandwidth_sets<I>(mut self, sets: I) -> Self
    where
        I: IntoIterator<Item = BandwidthSet>,
    {
        self.bandwidth_sets = sets.into_iter().collect();
        self
    }

    /// Sets the bandwidth-set axis to all three design points.
    #[must_use]
    pub fn all_bandwidth_sets(self) -> Self {
        self.bandwidth_sets(BandwidthSet::ALL)
    }

    /// Sets the effort level of every expanded scenario.
    #[must_use]
    pub fn effort(mut self, effort: Effort) -> Self {
        self.effort = effort;
        self
    }

    /// Sets the base seed of every expanded scenario.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an explicit offered-load ladder for every expanded scenario.
    #[must_use]
    pub fn ladder(mut self, ladder: Vec<f64>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Expands the cross-product into scenario specs (architecture-major,
    /// then parameter combination, then traffic, then bandwidth set;
    /// closed-loop workload scenarios follow each parameter combination's
    /// open-loop block, in the same axis order), dropping exact duplicates.
    ///
    /// Architecture entries may embed parameter overrides
    /// (`"firefly{radix=8}"`); an entry whose parameter block does not parse
    /// is kept verbatim so that [`ScenarioMatrix::run`] fails fast with the
    /// parse error instead of silently dropping the entry.
    #[must_use]
    pub fn specs(&self) -> Vec<ScenarioSpec> {
        // Cross-product of the parameter axes, in declaration order
        // (no axes → one empty combination).
        let mut combos: Vec<ArchParams> = vec![ArchParams::new()];
        for (key, values) in &self.arch_param_axes {
            combos = combos
                .iter()
                .flat_map(|combo| {
                    values
                        .iter()
                        .map(move |value| combo.clone().set(key, value))
                })
                .collect();
        }
        let mut out: Vec<ScenarioSpec> = Vec::new();
        let mut push = |spec: ScenarioSpec| {
            if !out.contains(&spec) {
                out.push(spec);
            }
        };
        // The fault axis: no entries means one healthy run; empty/"none"
        // entries normalise to the fault-free spec (faults: None) so they
        // dedup onto it.
        let fault_axis: Vec<Option<String>> = if self.fault_plans.is_empty() {
            vec![None]
        } else {
            self.fault_plans
                .iter()
                .map(|plan| (!plan.is_empty() && plan != "none").then(|| plan.clone()))
                .collect()
        };
        for architecture in &self.architectures {
            let (name, embedded) = ArchParams::split_spec(architecture)
                .unwrap_or_else(|_| (architecture.clone(), ArchParams::new()));
            for combo in &combos {
                let mut arch_params = embedded.clone();
                for (key, value) in combo.iter() {
                    arch_params.insert(key, value);
                }
                for traffic in &self.traffics {
                    for &set in &self.bandwidth_sets {
                        for faults in &fault_axis {
                            push(ScenarioSpec {
                                architecture: name.clone(),
                                arch_params: arch_params.clone(),
                                traffic: traffic.clone(),
                                bandwidth_set: set,
                                effort: self.effort,
                                seed: self.seed,
                                ladder: self.ladder.clone(),
                                workload: None,
                                faults: faults.clone(),
                            });
                        }
                    }
                }
                for workload in &self.workloads {
                    for &set in &self.bandwidth_sets {
                        for faults in &fault_axis {
                            let mut spec =
                                ScenarioSpec::closed_loop(name.clone(), workload.clone())
                                    .with_arch_params(arch_params.clone())
                                    .with_bandwidth_set(set)
                                    .with_effort(self.effort)
                                    .with_seed(self.seed);
                            spec.faults = faults.clone();
                            push(spec);
                        }
                    }
                }
            }
        }
        out
    }

    /// Runs the whole matrix through one flattened, deduplicated, parallel
    /// work queue of *(scenario, ladder point)* jobs.
    ///
    /// # Errors
    ///
    /// Fails fast — before simulating anything — if any expanded spec does
    /// not resolve (see [`ScenarioSpec::resolve`]).
    pub fn run(&self) -> Result<MatrixResult, ScenarioError> {
        run_specs(&self.specs())
    }

    /// Reference implementation for determinism checks: runs every scenario
    /// one after another, each with a sequential sweep and no point sharing.
    /// [`ScenarioMatrix::run`] must be bitwise-identical to this.
    ///
    /// # Errors
    ///
    /// Fails fast if any expanded spec does not resolve.
    pub fn run_sequential(&self) -> Result<MatrixResult, ScenarioError> {
        let started = Instant::now();
        let scenarios: Vec<ScenarioResult> = resolve_all(&self.specs())?
            .iter()
            .map(|s| s.run_with_mode(SweepMode::Sequential))
            .collect();
        let total_points = scenarios.iter().map(|r| r.result.points.len()).sum();
        Ok(MatrixResult {
            scenarios,
            total_points,
            unique_points: total_points,
            wall_clock_seconds: started.elapsed().as_secs_f64(),
            cache: CacheStats::default(),
        })
    }
}

fn resolve_all(specs: &[ScenarioSpec]) -> Result<Vec<Scenario>, ScenarioError> {
    specs.iter().map(ScenarioSpec::resolve).collect()
}

/// A pluggable cross-run cache of simulated sweep points, keyed by
/// [`point_cache_key`] strings.
///
/// Implemented by `pnoc-store`'s on-disk `ResultStore`. The matrix engine
/// ([`run_specs_with_cache`]) consults the cache once per deduplicated
/// *(scenario, ladder point)* job before enqueueing work — a hit bypasses
/// simulation entirely — and offers every freshly simulated point back for
/// storage, making matrices resumable and incremental across processes.
///
/// `Sync` is a supertrait because concurrent callers (the repro server runs
/// request batches as parallel executor jobs) share one cache reference
/// across threads; implementations must make `lookup`/`store` safe under
/// concurrency.
pub trait PointCache: Sync {
    /// Returns the cached point for `key`, or `None` on a miss. A corrupt or
    /// unreadable entry must degrade to a miss, never a panic: the engine
    /// re-simulates misses, so the only acceptable failure mode is extra
    /// work.
    fn lookup(&self, key: &str) -> Option<SweepPoint>;

    /// Offers a freshly simulated point for storage. `wall_clock_seconds` is
    /// sidecar timing metadata only: implementations must keep it out of the
    /// cached payload so a cache hit is byte-identical to a fresh run.
    fn store(&self, key: &str, point: &SweepPoint, wall_clock_seconds: f64);
}

/// The engine fingerprint baked into every cache key: the workspace version
/// plus the execution-engine flavour (event-driven or per-cycle stepping).
///
/// Both components change the bytes a simulation *could* produce — a version
/// bump may change the engine, and the two stepping modes are only believed
/// bitwise-identical because `crates/bench/tests/cross_engine.rs` checks it —
/// so either change invalidates every previously stored entry rather than
/// risking a stale hit.
#[must_use]
pub fn engine_fingerprint() -> String {
    let stepping = if crate::engine::event_driven_enabled() {
        "event"
    } else {
        "per-cycle"
    };
    format!("v{}+{stepping}", env!("CARGO_PKG_VERSION"))
}

/// The identity of one *(scenario, ladder point)* simulation — what a batch
/// deduplicates on and what the cache is addressed by:
/// `canonical_id|seed=S|load=HEXBITS|fingerprint`, where `canonical_id` is
/// [`Scenario::canonical_id`], `S` is the derived per-point seed (decimal),
/// the offered load is rendered as its exact IEEE-754 bit pattern (hex, so
/// `0.1`-style ladder values never round-trip through decimal), and the
/// fingerprint is [`engine_fingerprint`].
#[must_use]
pub fn point_cache_key(canonical_id: &str, seed: u64, load: f64, fingerprint: &str) -> String {
    format!(
        "{canonical_id}|seed={seed}|load={:016x}|{fingerprint}",
        load.to_bits()
    )
}

/// Runs a batch of already-expanded specs through the flattened work queue
/// (the engine behind [`ScenarioMatrix::run`], also used for replaying specs
/// loaded from a file).
pub fn run_specs(specs: &[ScenarioSpec]) -> Result<MatrixResult, ScenarioError> {
    run_specs_with_cache(specs, None)
}

/// [`run_specs`] with an optional cross-run [`PointCache`].
///
/// With a cache, every deduplicated *(scenario, ladder point)* job is looked
/// up before the parallel queue is built: hits skip simulation, only misses
/// are enqueued, and each miss is offered back to the cache (with its own
/// wall-clock as sidecar metadata) after the batch completes. The assembled
/// [`MatrixResult`] is **bitwise-identical** to an uncached run — the cache
/// stores exact simulation output and the per-point seed/load/engine
/// fingerprint in the key guarantee a hit could only ever have been produced
/// by the same simulation — and [`MatrixResult::cache`] reports the
/// hit/miss/stored counts.
pub fn run_specs_with_cache(
    specs: &[ScenarioSpec],
    cache: Option<&dyn PointCache>,
) -> Result<MatrixResult, ScenarioError> {
    Ok(run_scenarios(&resolve_all(specs)?, cache))
}

/// The one parallel entry point: runs resolved scenarios as one flattened,
/// deduplicated batch of point jobs on the persistent executor.
fn run_scenarios(scenarios: &[Scenario], cache: Option<&dyn PointCache>) -> MatrixResult {
    let started = Instant::now();

    // Flatten every (scenario, ladder point) pair into one job list,
    // deduplicating on the canonical point key — the same string the cache
    // is addressed by, so "would simulate the same network" has exactly one
    // definition. The key is built from the *resolved* scenario
    // ([`Scenario::canonical_id`]), not the spec spellings: aliases (e.g.
    // "uniform" vs "uniform-random", or "allreduce:16" vs
    // "ring-allreduce:16") and a default named explicitly
    // (`firefly{radix=16}`) share one simulation, while a genuine override,
    // another fault plan, another derived seed or another load gets its own.
    let mut jobs: Vec<(usize, SweepPointSpec)> = Vec::new();
    let mut job_keys: Vec<String> = Vec::new();
    let mut index_of: BTreeMap<String, usize> = BTreeMap::new();
    let mut assignments: Vec<Vec<usize>> = Vec::with_capacity(scenarios.len());
    let fingerprint = engine_fingerprint();
    for (scenario_index, scenario) in scenarios.iter().enumerate() {
        let points = scenario.points();
        let mut point_jobs = Vec::with_capacity(points.len());
        for (point, key) in points.into_iter().zip(scenario.point_keys(&fingerprint)) {
            let job_index = *index_of.entry(key).or_insert_with_key(|key| {
                jobs.push((scenario_index, point));
                job_keys.push(key.clone());
                jobs.len() - 1
            });
            point_jobs.push(job_index);
        }
        assignments.push(point_jobs);
    }
    let total_points: usize = assignments.iter().map(Vec::len).sum();
    let unique_points = jobs.len();

    // Consult the cache once per deduplicated job; hits never reach the
    // work queue. Lookups and stores stay on this thread — the cache sees
    // strictly sequential, deterministic-order access.
    let mut points: Vec<Option<SweepPoint>> = job_keys
        .iter()
        .map(|key| cache.and_then(|cache| cache.lookup(key)))
        .collect();
    let miss_indices: Vec<usize> = (0..points.len()).filter(|&i| points[i].is_none()).collect();

    // One flat batch across every scenario, submitted directly to the
    // persistent pnoc-exec pool: workers stay busy across scenario
    // boundaries instead of idling at each per-sweep barrier, and each job
    // writes its indexed result slot without a shared collector. Each miss
    // carries its own wall-clock so the cache can keep timing as sidecar
    // metadata next to the (timing-free) point payload.
    let fresh: Vec<(SweepPoint, f64)> = pnoc_exec::run_batch(&miss_indices, |_, &index| {
        let (scenario, point) = &jobs[index];
        let point_started = Instant::now();
        let point = scenarios[*scenario].simulate(point);
        (point, point_started.elapsed().as_secs_f64())
    });

    for (&index, (point, point_seconds)) in miss_indices.iter().zip(fresh) {
        if let Some(cache) = cache {
            cache.store(&job_keys[index], &point, point_seconds);
        }
        points[index] = Some(point);
    }

    let misses = miss_indices.len();
    MatrixResult {
        wall_clock_seconds: started.elapsed().as_secs_f64(),
        scenarios: scenarios
            .iter()
            .zip(&assignments)
            .map(|(scenario, point_jobs)| {
                scenario.result(
                    point_jobs
                        .iter()
                        .map(|&i| points[i].clone().expect("every job resolved"))
                        .collect(),
                )
            })
            .collect(),
        total_points,
        unique_points,
        cache: CacheStats {
            hits: unique_points - misses,
            misses,
            stored: if cache.is_some() { misses } else { 0 },
        },
    }
}

/// Cross-run cache accounting of one matrix run (all zero when no cache was
/// attached). Counts are over **deduplicated** jobs:
/// `hits + misses == unique_points`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Deduplicated points served from the cache without simulating.
    pub hits: usize,
    /// Deduplicated points that had to be simulated.
    pub misses: usize,
    /// Freshly simulated points offered to the cache for storage.
    pub stored: usize,
}

/// The outcome of a matrix run: one [`ScenarioResult`] per expanded spec (in
/// expansion order) plus work-queue statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResult {
    /// Per-scenario results, in [`ScenarioMatrix::specs`] order.
    pub scenarios: Vec<ScenarioResult>,
    /// Number of (scenario, ladder point) pairs before deduplication.
    pub total_points: usize,
    /// Number of distinct simulations after deduplication (with a cache
    /// attached, `cache.misses` of them actually ran).
    pub unique_points: usize,
    /// Wall-clock seconds of the whole batch.
    pub wall_clock_seconds: f64,
    /// Cross-run cache accounting (zero without a cache). Bookkeeping only —
    /// excluded from [`MatrixResult::bitwise_eq`] like the wall-clock.
    pub cache: CacheStats,
}

impl MatrixResult {
    /// Finds the result of one scenario by architecture name, traffic name
    /// and bandwidth set.
    ///
    /// Matches on those three axes only and returns the **first** hit: in a
    /// [`ScenarioMatrix`] outcome they identify a cell uniquely (the matrix
    /// fixes one effort, seed and ladder), but a hand-assembled
    /// [`run_specs`] batch may contain several specs that differ only in
    /// effort, seed or ladder — iterate [`MatrixResult::scenarios`] and
    /// match on the full [`ScenarioSpec`] in that case.
    #[must_use]
    pub fn find(
        &self,
        architecture: &str,
        traffic: &str,
        set: BandwidthSet,
    ) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|r| {
            r.spec.architecture == architecture
                && r.spec.traffic == traffic
                && r.spec.bandwidth_set == set
        })
    }

    /// Whether two matrix outcomes are bitwise-identical in everything the
    /// simulations determine (specs, seeds, sweeps and per-point metric
    /// reports, scenario by scenario), ignoring wall-clock and work-queue
    /// bookkeeping.
    #[must_use]
    pub fn bitwise_eq(&self, other: &MatrixResult) -> bool {
        self.scenarios == other.scenarios
    }

    /// Streams every per-point metric report of the batch into `sink`, in
    /// deterministic order: scenarios in batch order, points in ladder
    /// order. Two identical batches therefore produce byte-identical sink
    /// output, regardless of worker-thread count.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O errors.
    pub fn write_metrics<W: std::io::Write>(&self, sink: &mut JsonlSink<W>) -> std::io::Result<()> {
        for scenario in &self.scenarios {
            let id = scenario.spec.id();
            // One row at a time instead of materialising a per-scenario Vec:
            // exports of large matrices never hold more than one row.
            for index in 0..scenario.result.points.len() {
                sink.write_row(&scenario.metric_row(&id, index))?;
            }
        }
        sink.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_spec() -> ScenarioSpec {
        ScenarioSpec::new("uniform-fabric", "uniform-random").with_effort(Effort::Smoke)
    }

    #[test]
    fn spec_builder_and_identifier() {
        let spec = smoke_spec()
            .with_bandwidth_set(BandwidthSet::Set2)
            .with_seed(99)
            .with_ladder(vec![0.001, 0.002]);
        assert_eq!(spec.id(), "uniform-fabric:uniform-random:set2:smoke");
        assert_eq!(spec.to_string(), spec.id());
        assert_eq!(spec.config().seed, 99);
        assert_eq!(spec.config().bandwidth_set, BandwidthSet::Set2);
        assert_eq!(spec.loads(), vec![0.001, 0.002]);
        // Clearing the ladder restores the effort default.
        let defaulted = spec.with_ladder(Vec::new());
        assert_eq!(defaulted.loads().len(), 3);
    }

    #[test]
    fn shorthand_round_trips_and_rejects_garbage() {
        let spec = ScenarioSpec::parse_shorthand("uniform-fabric:tornado:set2:smoke").unwrap();
        assert_eq!(spec.architecture, "uniform-fabric");
        assert_eq!(spec.traffic, "tornado");
        assert_eq!(spec.bandwidth_set, BandwidthSet::Set2);
        assert_eq!(spec.effort, Effort::Smoke);
        assert_eq!(ScenarioSpec::parse_shorthand(&spec.id()).unwrap(), spec);

        let minimal = ScenarioSpec::parse_shorthand("firefly:skewed-3").unwrap();
        assert_eq!(minimal.bandwidth_set, BandwidthSet::Set1);
        assert_eq!(minimal.effort, Effort::Quick);

        for bad in ["firefly", "a:b:set9", "a:b:set1:warp", "a::set1", ""] {
            assert!(
                matches!(
                    ScenarioSpec::parse_shorthand(bad),
                    Err(ScenarioError::Malformed { .. })
                ),
                "'{bad}' should be malformed"
            );
        }
    }

    #[test]
    fn resolve_validates_both_registries_with_suggestions() {
        let unknown_arch = ScenarioSpec::new("uniform-fabrik", "uniform-random")
            .resolve()
            .expect_err("architecture is misspelled");
        match &unknown_arch {
            ScenarioError::UnknownName(e) => {
                assert_eq!(e.kind, "architecture");
                assert_eq!(e.suggestion(), Some("uniform-fabric"));
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
        assert!(unknown_arch.to_string().contains("did you mean"));

        let unknown_traffic = ScenarioSpec::new("uniform-fabric", "tornadoo")
            .resolve()
            .expect_err("traffic is misspelled");
        assert!(matches!(
            unknown_traffic,
            ScenarioError::UnknownName(ref e)
                if e.kind == "traffic pattern" && e.suggestion() == Some("tornado")
        ));

        let bad_load = smoke_spec()
            .with_ladder(vec![0.001, -1.0])
            .resolve()
            .expect_err("negative load");
        assert!(matches!(bad_load, ScenarioError::InvalidLoad { load, .. } if load == -1.0));
    }

    #[test]
    fn scenario_run_produces_one_point_per_ladder_entry_with_derived_seeds() {
        let spec = smoke_spec();
        let scenario = spec.resolve().expect("registered");
        let outcome = scenario.run();
        let loads = spec.loads();
        assert_eq!(outcome.spec, spec);
        assert_eq!(outcome.result.points.len(), loads.len());
        let seeds = outcome.point_seeds();
        assert_eq!(seeds.len(), loads.len());
        for (i, (&seed, point)) in seeds.iter().zip(scenario.points()).enumerate() {
            assert_eq!(seed, derive_point_seed(spec.seed, i));
            assert_eq!(
                point.config.seed, seed,
                "the reported seed is the simulated one"
            );
            assert_eq!(point.offered_load, loads[i]);
        }
        assert!(outcome
            .result
            .points
            .iter()
            .any(|p| p.stats.delivered_packets > 0));
    }

    #[test]
    fn scenario_parallel_run_is_bitwise_identical_to_sequential() {
        pnoc_exec::set_worker_override(4);
        let scenario = smoke_spec().resolve().expect("registered");
        let parallel = scenario.run_with_mode(SweepMode::Parallel);
        let sequential = scenario.run_with_mode(SweepMode::Sequential);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn matrix_expands_the_cross_product_and_dedups_duplicate_specs() {
        let matrix = ScenarioMatrix::new()
            .architectures(["uniform-fabric", "uniform-fabric"])
            .traffics(["tornado", "bursty-uniform"])
            .all_bandwidth_sets()
            .effort(Effort::Smoke);
        let specs = matrix.specs();
        // 1 distinct architecture × 2 traffics × 3 sets.
        assert_eq!(specs.len(), 6);
        assert!(specs.iter().all(|s| s.effort == Effort::Smoke));
    }

    #[test]
    fn matrix_run_is_bitwise_identical_to_sequential_per_scenario_runs() {
        pnoc_exec::set_worker_override(4);
        let matrix = ScenarioMatrix::new()
            .architectures(["uniform-fabric"])
            .traffics(["tornado", "uniform-random"])
            .effort(Effort::Smoke);
        let batched = matrix.run().expect("all names registered");
        let sequential = matrix.run_sequential().expect("all names registered");
        assert_eq!(batched.scenarios.len(), 2);
        assert_eq!(batched.total_points, sequential.total_points);
        assert!(
            batched.bitwise_eq(&sequential),
            "flattened matrix run must be bitwise-identical to per-scenario sequential runs"
        );
    }

    #[test]
    fn matrix_dedups_identical_points_across_duplicate_axes() {
        // The same scenario listed via two identical axis entries collapses
        // to one spec; overlapping explicit ladders across bandwidth sets do
        // not collapse because the configurations differ.
        let matrix = ScenarioMatrix::new()
            .architectures(["uniform-fabric"])
            .traffics(["tornado"])
            .bandwidth_sets([BandwidthSet::Set1, BandwidthSet::Set1])
            .effort(Effort::Smoke);
        let outcome = matrix.run().expect("registered");
        assert_eq!(outcome.scenarios.len(), 1);
        assert_eq!(outcome.total_points, outcome.unique_points);
    }

    #[test]
    fn alias_spellings_share_one_simulation_in_a_batch() {
        // "uniform" is a lookup shorthand for "uniform-random": both specs
        // resolve to the same factory, so the dedup key (resolved registry
        // names) collapses their ladder points into one set of jobs.
        let specs = vec![
            ScenarioSpec::new("uniform-fabric", "uniform").with_effort(Effort::Smoke),
            ScenarioSpec::new("uniform-fabric", "uniform-random").with_effort(Effort::Smoke),
        ];
        let outcome = run_specs(&specs).expect("alias resolves");
        assert_eq!(outcome.scenarios.len(), 2);
        assert_eq!(outcome.total_points, 2 * outcome.unique_points);
        assert_eq!(
            outcome.scenarios[0].result, outcome.scenarios[1].result,
            "both spellings must reuse the same simulated points"
        );
        // Each result still echoes the spelling it was asked for.
        assert_eq!(outcome.scenarios[0].spec.traffic, "uniform");
        assert_eq!(outcome.scenarios[1].spec.traffic, "uniform-random");
    }

    #[test]
    fn matrix_fails_fast_on_an_unknown_name() {
        let error = ScenarioMatrix::new()
            .architectures(["uniform-fabric", "warp-drive"])
            .traffics(["tornado"])
            .effort(Effort::Smoke)
            .run()
            .expect_err("warp-drive is not registered");
        assert!(matches!(error, ScenarioError::UnknownName(ref e) if e.kind == "architecture"));
    }

    #[test]
    fn matrix_find_locates_scenarios_by_axes() {
        let matrix = ScenarioMatrix::new()
            .architectures(["uniform-fabric"])
            .traffics(["tornado"])
            .effort(Effort::Smoke);
        let outcome = matrix.run().expect("registered");
        assert!(outcome
            .find("uniform-fabric", "tornado", BandwidthSet::Set1)
            .is_some());
        assert!(outcome
            .find("uniform-fabric", "tornado", BandwidthSet::Set2)
            .is_none());
    }

    fn workload_spec(reference: &str) -> ScenarioSpec {
        ScenarioSpec::closed_loop("uniform-fabric", reference).with_effort(Effort::Smoke)
    }

    #[test]
    fn workload_specs_identify_load_and_resolve() {
        let spec = workload_spec("allreduce:8");
        assert_eq!(spec.id(), "uniform-fabric:allreduce@8:set1:smoke");
        assert_eq!(spec.loads(), vec![0.0]);
        let scenario = spec.resolve().expect("workload registered");
        let workload = scenario.workload().expect("closed-loop");
        assert_eq!(workload.name(), "ring-allreduce:8x16384B");

        // Open-loop scenarios have no workload.
        assert!(smoke_spec().resolve().unwrap().workload().is_none());
    }

    #[test]
    fn workload_resolution_failures_are_typed_and_suggestive() {
        let unknown = workload_spec("ring-alreduce:8")
            .resolve()
            .expect_err("misspelled workload");
        match &unknown {
            ScenarioError::UnknownName(e) => {
                assert_eq!(e.kind, "workload");
                assert_eq!(e.suggestion(), Some("ring-allreduce"));
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
        assert!(unknown.to_string().contains("did you mean"));

        let malformed = workload_spec("allreduce:8:9")
            .resolve()
            .expect_err("too many parts");
        assert!(matches!(malformed, ScenarioError::Malformed { .. }));

        // A spec naming both a traffic pattern and a workload is ambiguous
        // and must be rejected, not run with the traffic silently ignored.
        let mut mixed = ScenarioSpec::new("uniform-fabric", "tornado").with_effort(Effort::Smoke);
        mixed.workload = Some("incast:4".to_string());
        let both = mixed
            .resolve()
            .expect_err("traffic + workload is ambiguous");
        assert!(matches!(both, ScenarioError::Malformed { .. }));
        assert!(both.to_string().contains("both traffic"), "{both}");

        let too_large = workload_spec("allreduce:65")
            .resolve()
            .expect_err("65 nodes on a 64-core chip");
        assert!(matches!(
            too_large,
            ScenarioError::WorkloadTooLarge { size: 65, .. }
        ));
        assert!(too_large.to_string().contains("64 cores"));
    }

    #[test]
    fn workload_scenarios_run_one_closed_loop_point_to_drain() {
        let outcome = workload_spec("incast:6").resolve().expect("valid").run();
        assert_eq!(outcome.result.points.len(), 1);
        let point = &outcome.result.points[0];
        assert_eq!(point.metrics.gauge("workload_drained"), Some(1.0));
        assert_eq!(point.metrics.counter("flows_total"), Some(5));
        assert_eq!(
            point.metrics.counter("flows_completed"),
            point.metrics.counter("flows_total")
        );
        assert!(point.metrics.histogram("flow_completion_cycles").is_some());
        assert!(point.metrics.gauge("static_power_mw").unwrap() > 0.0);
        assert!(point.metrics.gauge("total_energy_pj").unwrap() > 0.0);
    }

    #[test]
    fn matrix_workload_axis_runs_in_the_flattened_queue_deterministically() {
        pnoc_exec::set_worker_override(4);
        let matrix = ScenarioMatrix::new()
            .architectures(["uniform-fabric"])
            .traffics(["tornado"])
            .workloads(["incast:4", "allreduce:4"])
            .effort(Effort::Smoke);
        let specs = matrix.specs();
        assert_eq!(specs.len(), 3, "1 open-loop + 2 closed-loop scenarios");
        let batched = matrix.run().expect("all names registered");
        let sequential = matrix.run_sequential().expect("all names registered");
        assert!(
            batched.bitwise_eq(&sequential),
            "workload points must stay bitwise-deterministic in the parallel queue"
        );
        // The open-loop scenario swept a ladder; each workload ran 1 point.
        assert_eq!(batched.total_points, sequential.total_points);
        let drained = batched
            .scenarios
            .iter()
            .filter(|r| r.spec.workload.is_some())
            .all(|r| r.result.points[0].metrics.gauge("workload_drained") == Some(1.0));
        assert!(drained);
    }

    #[test]
    fn workload_alias_spellings_share_one_simulation() {
        let specs = vec![
            workload_spec("allreduce:4"),
            workload_spec("ring-allreduce:4"),
        ];
        let outcome = run_specs(&specs).expect("alias resolves");
        assert_eq!(outcome.total_points, 2);
        assert_eq!(outcome.unique_points, 1, "identical DAGs must dedup");
        assert_eq!(outcome.scenarios[0].result, outcome.scenarios[1].result);
    }

    #[test]
    fn parameterized_specs_identify_parse_and_resolve() {
        let spec = ScenarioSpec::new("uniform-fabric", "uniform-random")
            .with_effort(Effort::Smoke)
            .with_arch_param("wavelengths", 32);
        assert_eq!(
            spec.id(),
            "uniform-fabric{wavelengths=32}:uniform-random:set1:smoke"
        );
        // The id is itself a parseable shorthand that recovers the spec.
        let reparsed = ScenarioSpec::parse_shorthand(&spec.id()).unwrap();
        assert_eq!(reparsed, spec);

        let scenario = spec.resolve().expect("valid override");
        assert_eq!(scenario.arch_params().int("wavelengths"), 32);

        // Embedded overrides in the architecture field also resolve; the
        // explicit arch_params field wins on conflicts.
        let embedded = ScenarioSpec::new("uniform-fabric{wavelengths=16}", "uniform-random")
            .with_effort(Effort::Smoke);
        assert_eq!(
            embedded
                .resolve()
                .expect("embedded override")
                .arch_params()
                .int("wavelengths"),
            16
        );
        let overridden = embedded.with_arch_param("wavelengths", 64);
        assert_eq!(
            overridden
                .resolve()
                .expect("explicit wins")
                .arch_params()
                .int("wavelengths"),
            64
        );
        // The id merges embedded and explicit overrides into ONE brace
        // block (explicit wins) and stays re-parseable.
        assert_eq!(
            overridden.id(),
            "uniform-fabric{wavelengths=64}:uniform-random:set1:smoke"
        );
        let reparsed = ScenarioSpec::parse_shorthand(&overridden.id()).expect("id is a shorthand");
        assert_eq!(reparsed.architecture, "uniform-fabric");
        assert_eq!(reparsed.arch_params.get("wavelengths"), Some("64"));
    }

    #[test]
    fn invalid_arch_params_fail_resolution_with_suggestions() {
        let unknown_key = ScenarioSpec::new("uniform-fabric", "uniform-random")
            .with_arch_param("wavelenths", 8)
            .resolve()
            .expect_err("misspelled key");
        match &unknown_key {
            ScenarioError::InvalidArchParams(e) => {
                assert_eq!(e.suggestion(), Some("wavelengths"));
            }
            other => panic!("expected InvalidArchParams, got {other:?}"),
        }
        assert!(
            unknown_key
                .to_string()
                .contains("did you mean 'wavelengths'?"),
            "{unknown_key}"
        );

        let out_of_bounds = ScenarioSpec::new("uniform-fabric{wavelengths=100000}", "uniform")
            .resolve()
            .expect_err("outside bounds");
        assert!(matches!(
            out_of_bounds,
            ScenarioError::InvalidArchParams(ArchParamError::OutOfBounds { .. })
        ));
        assert!(out_of_bounds.to_string().contains("0..=4096"));

        let malformed = ScenarioSpec::new("uniform-fabric{wavelengths", "uniform")
            .resolve()
            .expect_err("unbalanced brace");
        assert!(matches!(
            malformed,
            ScenarioError::InvalidArchParams(ArchParamError::Malformed { .. })
        ));
    }

    #[test]
    fn parameterized_scenario_changes_results_and_stays_deterministic() {
        pnoc_exec::set_worker_override(4);
        let narrow = ScenarioSpec::new("uniform-fabric", "uniform-random")
            .with_effort(Effort::Smoke)
            .with_arch_param("wavelengths", 16)
            .resolve()
            .expect("valid");
        let parallel = narrow.run_with_mode(SweepMode::Parallel);
        let sequential = narrow.run_with_mode(SweepMode::Sequential);
        assert_eq!(
            parallel, sequential,
            "parameterized sweeps must stay bitwise-deterministic"
        );
        // A quarter of the wavelength budget must change the measured sweep.
        let default = smoke_spec().resolve().expect("valid").run();
        assert_ne!(
            parallel.result, default.result,
            "the wavelengths override must affect results"
        );
    }

    #[test]
    fn matrix_param_axis_cross_products_and_dedups_defaults() {
        let matrix = ScenarioMatrix::new()
            .architectures(["uniform-fabric"])
            .arch_params("wavelengths", ["16", "64"])
            .traffics(["tornado", "uniform-random"])
            .effort(Effort::Smoke);
        let specs = matrix.specs();
        // 1 architecture × 2 param values × 2 traffics × 1 set.
        assert_eq!(specs.len(), 4);
        assert!(specs
            .iter()
            .all(|s| s.arch_params.get("wavelengths").is_some()));

        pnoc_exec::set_worker_override(4);
        let batched = matrix.run().expect("all names and params valid");
        let sequential = matrix.run_sequential().expect("all names and params valid");
        assert!(
            batched.bitwise_eq(&sequential),
            "param-swept matrix must be bitwise-identical to sequential runs"
        );
        // Distinct parameter values must not dedup onto each other.
        assert_eq!(batched.unique_points, batched.total_points);

        // A spec naming the default value explicitly dedups onto the bare
        // name: both resolve to the same canonical parameter set.
        let outcome = run_specs(&[smoke_spec(), smoke_spec().with_arch_param("wavelengths", 0)])
            .expect("default override resolves");
        assert_eq!(outcome.scenarios.len(), 2);
        assert_eq!(outcome.total_points, 2 * outcome.unique_points);
        assert_eq!(outcome.scenarios[0].result, outcome.scenarios[1].result);
    }

    #[test]
    fn matrix_fails_fast_on_invalid_params_and_embedded_specs() {
        let error = ScenarioMatrix::new()
            .architectures(["uniform-fabric"])
            .arch_params("warp-factor", ["9"])
            .traffics(["tornado"])
            .effort(Effort::Smoke)
            .run()
            .expect_err("no architecture declares warp-factor");
        assert!(matches!(error, ScenarioError::InvalidArchParams(_)));

        // Embedded overrides in architecture axis entries are honoured.
        let matrix = ScenarioMatrix::new()
            .architectures(["uniform-fabric{wavelengths=16}"])
            .traffics(["tornado"])
            .effort(Effort::Smoke);
        let specs = matrix.specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].architecture, "uniform-fabric");
        assert_eq!(specs[0].arch_params.get("wavelengths"), Some("16"));

        // A malformed embedded spec fails at run, not silently.
        let error = ScenarioMatrix::new()
            .architectures(["uniform-fabric{wavelengths"])
            .traffics(["tornado"])
            .effort(Effort::Smoke)
            .run()
            .expect_err("unbalanced brace");
        assert!(matches!(error, ScenarioError::InvalidArchParams(_)));
    }

    #[test]
    fn fault_shorthand_round_trips_and_rejects_garbage() {
        let spec =
            ScenarioSpec::parse_shorthand("uniform-fabric:tornado:set1:smoke#faults=single-link")
                .unwrap();
        assert_eq!(spec.faults.as_deref(), Some("single-link"));
        assert_eq!(
            spec.id(),
            "uniform-fabric:tornado:set1:smoke#faults=single-link"
        );
        assert_eq!(ScenarioSpec::parse_shorthand(&spec.id()).unwrap(), spec);

        // A literal plan survives the round trip verbatim.
        let literal =
            ScenarioSpec::parse_shorthand("firefly:tornado#faults=link-fail@c10-20:sw1").unwrap();
        assert_eq!(literal.faults.as_deref(), Some("link-fail@c10-20:sw1"));
        assert_eq!(
            ScenarioSpec::parse_shorthand(&literal.id()).unwrap(),
            literal
        );

        for bad in [
            "firefly:tornado#single-link",
            "firefly:tornado#faults=",
            "firefly:tornado#plan=single-link",
        ] {
            assert!(
                matches!(
                    ScenarioSpec::parse_shorthand(bad),
                    Err(ScenarioError::Malformed { .. })
                ),
                "'{bad}' should be malformed"
            );
        }
    }

    #[test]
    fn fault_resolution_failures_are_typed_and_suggestive() {
        let unknown = smoke_spec()
            .with_faults("singel-link")
            .resolve()
            .expect_err("misspelled preset");
        match &unknown {
            ScenarioError::InvalidFaults { error, .. } => {
                assert_eq!(error.suggestion(), Some("single-link"));
            }
            other => panic!("expected InvalidFaults, got {other:?}"),
        }
        assert!(unknown.to_string().contains("did you mean"));

        // A plan naming a switch the resolved topology does not have is
        // rejected at resolve time, not silently ignored at run time.
        let out_of_bounds = smoke_spec()
            .with_faults("link-fail@c10:sw99")
            .resolve()
            .expect_err("sw99 exceeds the cluster count");
        assert!(matches!(
            out_of_bounds,
            ScenarioError::InvalidFaults {
                error: pnoc_faults::FaultError::TargetOutOfBounds { .. },
                ..
            }
        ));
    }

    #[test]
    fn fault_free_spellings_share_one_canonical_id_and_presets_match_literals() {
        let healthy = smoke_spec().resolve().unwrap();
        let none = smoke_spec().with_faults("none").resolve().unwrap();
        assert!(none.faults().is_empty());
        assert_eq!(
            healthy.canonical_id(),
            none.canonical_id(),
            "'none' must hit the same cache entries as a fault-free spec"
        );

        // A preset and its literal expansion share a canonical id, so cached
        // faulted results are reused across the two spellings — and differ
        // from the healthy id, so a faulted scenario can never be served a
        // healthy cached point.
        let preset = smoke_spec().with_faults("single-link").resolve().unwrap();
        let literal = smoke_spec()
            .with_faults("link-fail@c150-450:sw1")
            .resolve()
            .unwrap();
        assert_eq!(preset.canonical_id(), literal.canonical_id());
        assert_ne!(preset.canonical_id(), healthy.canonical_id());
        assert!(preset
            .canonical_id()
            .ends_with("#faults=link-fail@c150-450:sw1"));
    }

    #[test]
    fn matrix_fault_axis_crosses_every_scenario_and_stays_deterministic() {
        pnoc_exec::set_worker_override(4);
        let matrix = ScenarioMatrix::new()
            .architectures(["uniform-fabric"])
            .traffics(["tornado"])
            .workloads(["incast:4"])
            .fault_plans(["none", "single-link"])
            .effort(Effort::Smoke);
        let specs = matrix.specs();
        // (1 open-loop + 1 closed-loop) × 2 fault plans; "none" normalises
        // to the fault-free spec.
        assert_eq!(specs.len(), 4);
        assert_eq!(
            specs.iter().filter(|s| s.faults.is_some()).count(),
            2,
            "'none' entries must normalise to fault-free specs"
        );
        let batched = matrix.run().expect("all names registered");
        let sequential = matrix.run_sequential().expect("all names registered");
        assert!(
            batched.bitwise_eq(&sequential),
            "faulted matrix run must be bitwise-identical to sequential runs"
        );
        // Healthy and faulted variants of the same point must not dedup
        // onto each other.
        assert_eq!(batched.unique_points, batched.total_points);
    }

    #[test]
    fn effort_levels_scale_down_and_parse() {
        let paper = Effort::Paper.config(BandwidthSet::Set1);
        let quick = Effort::Quick.config(BandwidthSet::Set1);
        let smoke = Effort::Smoke.config(BandwidthSet::Set1);
        assert!(paper.sim_cycles > quick.sim_cycles);
        assert!(quick.sim_cycles > smoke.sim_cycles);
        assert_eq!(Effort::Paper.load_ladder(&paper).len(), 8);
        assert_eq!(Effort::Quick.load_ladder(&quick).len(), 3);
        for effort in Effort::ALL {
            assert_eq!(Effort::parse(effort.label()), Some(effort));
        }
        assert_eq!(Effort::parse("warp"), None);
    }
}
