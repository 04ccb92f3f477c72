//! The unified result envelope.

use crate::json::{JsonObject, JsonValue};
use crate::trial::TrialStats;
use parfaclo_matrixops::CostReport;
use parfaclo_metric::Backend;

/// Version tag emitted in every JSON run record; bump on schema changes.
pub const RUN_SCHEMA: &str = "parfaclo.run.v1";

/// The problem family a solver addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// Metric (uncapacitated) facility location — Sections 4–6.2.
    FacilityLocation,
    /// k-center / k-median / k-means over a symmetric metric — Sections 6.1, 7.
    KClustering,
    /// Dominator-set / MIS computations on a threshold graph — Section 3.
    DominatorSet,
}

impl ProblemKind {
    /// Stable string form used in JSON output and CLI tables.
    pub fn as_str(self) -> &'static str {
        match self {
            ProblemKind::FacilityLocation => "facility-location",
            ProblemKind::KClustering => "k-clustering",
            ProblemKind::DominatorSet => "dominator-set",
        }
    }
}

impl std::fmt::Display for ProblemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The result of one solver invocation, in the shape every experiment shares.
///
/// `Run` unifies `FlSolution`, the k-clustering solution types and the
/// dominator results: objective cost, certified lower bound (0 when the
/// algorithm provides no certificate), the selected facility/center/node
/// set, round counts, the [`CostReport`] work accounting, and wall time.
/// Solver-specific metrics that have no common slot (k-center radius
/// threshold, local-search initial cost, …) ride in [`Run::extra`].
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Registry name of the solver that produced this run.
    pub solver: String,
    /// Problem family.
    pub problem: ProblemKind,
    /// Number of clients (facility location) or nodes (clustering).
    pub n: usize,
    /// Instance size `m` (entries of the distance matrix).
    pub m: usize,
    /// Objective value achieved (total cost / radius / selected-set size).
    pub cost: f64,
    /// Certified lower bound on the optimum; `0` when no certificate exists.
    pub lower_bound: f64,
    /// The approximation factor the algorithm promises (before `+ ε`);
    /// `0` when no guarantee applies.
    pub guarantee: f64,
    /// Selected facilities / centers / dominator nodes, sorted ascending.
    pub selected: Vec<usize>,
    /// Client/node → selected-element assignment; may be empty when the
    /// problem has no assignment semantics (dominator sets).
    pub assignment: Vec<usize>,
    /// Outer rounds executed.
    pub rounds: usize,
    /// Total inner (subselection / Luby / probe) iterations.
    pub inner_rounds: usize,
    /// Work / primitive-call / round counters accumulated during the run.
    ///
    /// Part of [`Run::canonical_json`]: the counters are a pure function of
    /// the workload and configuration — invariant across backends and
    /// thread counts — so every canonical byte comparison also pins the
    /// work profile.
    pub work: CostReport,
    /// Wall-clock milliseconds; stamped by the registry runner, excluded
    /// from [`Run::canonical_json`] so determinism comparisons stay exact.
    pub wall_ms: f64,
    /// Worker threads the run executed on; stamped by the registry runner.
    /// Like `wall_ms` it is excluded from [`Run::canonical_json`]: thread
    /// count affects timing, never results, and the determinism tests
    /// compare runs across thread counts byte-for-byte.
    pub threads: usize,
    /// Distance backend the instance was served by; stamped by the registry
    /// wrapper. Excluded from [`Run::canonical_json`] like the other
    /// workload/timing metadata: the backend changes memory and wall time,
    /// never results — the conformance tests compare dense vs implicit runs
    /// byte-for-byte.
    pub backend: Backend,
    /// Estimated resident bytes of the instance's distance storage (the
    /// oracle's `memory_bytes()`): `8·|C|·|F|` dense, `O(|C| + |F|)`
    /// implicit. Stamped by the registry runner; excluded from
    /// [`Run::canonical_json`] alongside `backend`.
    pub memory_bytes: u64,
    /// Wall-clock milliseconds per top-level solver phase (orders-build,
    /// star-rounds, coreset-build, …), aggregated from the trace span tree
    /// by the registry runner. Timing metadata like `wall_ms`: emitted in
    /// [`Run::to_json`]'s timing section and excluded from
    /// [`Run::canonical_json`] — phase *topology* is workload-pure, but
    /// these are wall-clock durations.
    pub phase_wall_ms: Vec<(String, f64)>,
    /// Wall-clock statistics over repeated trials of this run, when the
    /// measurement harness re-ran it (`None` for ordinary single runs).
    /// Timing metadata like `wall_ms`: emitted in [`Run::to_json`]'s timing
    /// section, excluded from [`Run::canonical_json`] so the canonical
    /// record stays single-run and byte-comparable across trials.
    pub trials: Option<TrialStats>,
    /// The ε the run was configured with.
    pub epsilon: f64,
    /// The seed the run was configured with.
    pub seed: u64,
    /// Ordered solver-specific named metrics (radius, threshold, probes, …).
    pub extra: Vec<(String, f64)>,
}

impl Default for Run {
    /// An empty envelope. A solve function starts from it and fills its
    /// results; [`SolverEntry::run`](crate::SolverEntry::run) stamps the
    /// solver's identity, the instance size, the configuration echo and the
    /// timing metadata.
    fn default() -> Self {
        Run {
            solver: String::new(),
            problem: ProblemKind::FacilityLocation,
            n: 0,
            m: 0,
            cost: 0.0,
            lower_bound: 0.0,
            guarantee: 0.0,
            selected: Vec::new(),
            assignment: Vec::new(),
            rounds: 0,
            inner_rounds: 0,
            work: CostReport::default(),
            wall_ms: 0.0,
            threads: 0,
            backend: Backend::Dense,
            memory_bytes: 0,
            phase_wall_ms: Vec::new(),
            trials: None,
            epsilon: 0.0,
            seed: 0,
            extra: Vec::new(),
        }
    }
}

impl Run {
    /// Records the objective value.
    pub fn with_cost(mut self, cost: f64) -> Self {
        self.cost = cost;
        self
    }

    /// Records the certified lower bound.
    pub fn with_lower_bound(mut self, lower_bound: f64) -> Self {
        self.lower_bound = lower_bound;
        self
    }

    /// Records the selected element set (sorted on insertion).
    pub fn with_selected(mut self, mut selected: Vec<usize>) -> Self {
        selected.sort_unstable();
        self.selected = selected;
        self
    }

    /// Records the assignment vector.
    pub fn with_assignment(mut self, assignment: Vec<usize>) -> Self {
        self.assignment = assignment;
        self
    }

    /// Records round counts.
    pub fn with_rounds(mut self, rounds: usize, inner_rounds: usize) -> Self {
        self.rounds = rounds;
        self.inner_rounds = inner_rounds;
        self
    }

    /// Records the work report.
    pub fn with_work(mut self, work: CostReport) -> Self {
        self.work = work;
        self
    }

    /// Appends one solver-specific metric.
    pub fn with_extra(mut self, key: &str, value: f64) -> Self {
        self.extra.push((key.to_string(), value));
        self
    }

    /// Attaches wall-clock statistics over repeated trials (timing
    /// metadata; never part of the canonical record).
    pub fn with_trials(mut self, stats: TrialStats) -> Self {
        self.trials = Some(stats);
        self
    }

    /// The approximation ratio relative to the run's own certified lower
    /// bound, or `None` if the run produced no certificate.
    pub fn certified_ratio(&self) -> Option<f64> {
        if self.lower_bound > 0.0 {
            Some(self.cost / self.lower_bound)
        } else {
            None
        }
    }

    /// Structural validity: finite non-negative cost, a non-empty selection,
    /// lower bound not exceeding cost (up to fp slack), in-range selections
    /// and assignments. Used by the registry conformance tests and the CLI.
    pub fn validate(&self) -> Result<(), String> {
        if !self.cost.is_finite() || self.cost < 0.0 {
            return Err(format!("cost {} is not finite and non-negative", self.cost));
        }
        if !self.lower_bound.is_finite() || self.lower_bound < 0.0 {
            return Err(format!("lower bound {} invalid", self.lower_bound));
        }
        if self.lower_bound > self.cost * (1.0 + 1e-6) + 1e-6 {
            return Err(format!(
                "lower bound {} exceeds cost {}",
                self.lower_bound, self.cost
            ));
        }
        if self.selected.is_empty() {
            return Err("selected set is empty".to_string());
        }
        if self.selected.windows(2).any(|w| w[0] >= w[1]) {
            return Err("selected set is not strictly sorted".to_string());
        }
        if !self.assignment.is_empty() {
            if self.assignment.len() != self.n {
                return Err(format!(
                    "assignment covers {} of {} clients",
                    self.assignment.len(),
                    self.n
                ));
            }
            // `selected` is strictly sorted (checked above), so binary search.
            if let Some(&bad) = self
                .assignment
                .iter()
                .find(|a| self.selected.binary_search(a).is_err())
            {
                return Err(format!("assignment targets unselected element {bad}"));
            }
        }
        Ok(())
    }

    fn json_fields(&self, include_timing: bool) -> JsonValue {
        let mut obj = JsonObject::new()
            .string("schema", RUN_SCHEMA)
            .string("solver", &self.solver)
            .string("problem", self.problem.as_str())
            .uint("n", self.n as u64)
            .uint("m", self.m as u64)
            .number("epsilon", self.epsilon)
            .uint("seed", self.seed)
            .number("cost", self.cost)
            .number("lower_bound", self.lower_bound)
            .number("guarantee", self.guarantee)
            .field(
                "certified_ratio",
                match self.certified_ratio() {
                    Some(r) => JsonValue::Number(r),
                    None => JsonValue::Null,
                },
            )
            .uint("rounds", self.rounds as u64)
            .uint("inner_rounds", self.inner_rounds as u64)
            .field(
                "selected",
                JsonValue::Array(
                    self.selected
                        .iter()
                        .map(|&i| JsonValue::UInt(i as u64))
                        .collect(),
                ),
            )
            .field(
                "assignment",
                JsonValue::Array(
                    self.assignment
                        .iter()
                        .map(|&i| JsonValue::UInt(i as u64))
                        .collect(),
                ),
            );
        let extra = self
            .extra
            .iter()
            .fold(JsonObject::new(), |o, (k, v)| o.number(k, *v))
            .build();
        let work = JsonObject::new()
            .uint("element_ops", self.work.element_ops)
            .uint("primitive_calls", self.work.primitive_calls)
            .uint("sort_calls", self.work.sort_calls)
            .uint("rounds", self.work.rounds)
            .build();
        obj = obj.field("extra", extra).field("work", work);
        if include_timing {
            obj = obj
                .number("wall_ms", self.wall_ms)
                .uint("threads", self.threads as u64)
                .string("backend", self.backend.as_str())
                .uint("memory_bytes", self.memory_bytes);
            if !self.phase_wall_ms.is_empty() {
                let phases = self
                    .phase_wall_ms
                    .iter()
                    .fold(JsonObject::new(), |o, (k, v)| o.number(k, *v))
                    .build();
                obj = obj.field("phase_wall_ms", phases);
            }
            if let Some(stats) = &self.trials {
                obj = obj.field("trials", stats.to_json_value());
            }
        }
        obj.build()
    }

    /// Full JSON record, including wall time — the schema every experiment
    /// emits.
    pub fn to_json(&self) -> String {
        self.json_fields(true).to_string()
    }

    /// JSON record with timing metadata omitted: byte-identical across
    /// repeat runs with the same seed and across backends and thread
    /// counts, which is what the determinism tests and the golden corpus
    /// compare.
    pub fn canonical_json(&self) -> String {
        self.json_fields(false).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Run {
        Run {
            solver: "greedy".to_string(),
            n: 3,
            m: 6,
            guarantee: 3.722,
            epsilon: 0.1,
            seed: 7,
            ..Run::default()
        }
        .with_cost(10.0)
        .with_lower_bound(5.0)
        .with_selected(vec![2, 0])
        .with_assignment(vec![0, 0, 2])
        .with_rounds(4, 9)
        .with_extra("probes", 3.0)
    }

    #[test]
    fn builder_fills_fields() {
        let run = sample();
        assert_eq!(run.selected, vec![0, 2]);
        assert_eq!(run.certified_ratio(), Some(2.0));
        run.validate().expect("structurally valid");
    }

    #[test]
    fn canonical_json_excludes_timing() {
        let mut a = sample();
        let mut b = sample();
        a.wall_ms = 1.0;
        b.wall_ms = 99.0;
        a.threads = 1;
        b.threads = 8;
        a.backend = Backend::Dense;
        b.backend = Backend::Implicit;
        a.memory_bytes = 4800;
        b.memory_bytes = 96;
        assert_eq!(
            a.canonical_json(),
            b.canonical_json(),
            "wall_ms/threads/backend/memory_bytes are workload metadata, not results"
        );
        assert_ne!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"wall_ms\""));
        assert!(a.to_json().contains("\"threads\":1"));
        assert!(a.to_json().contains("\"backend\":\"dense\""));
        assert!(b.to_json().contains("\"backend\":\"implicit\""));
        assert!(a.to_json().contains("\"memory_bytes\":4800"));
        assert!(!a.canonical_json().contains("\"threads\""));
        assert!(!a.canonical_json().contains("\"backend\""));
        assert!(!a.canonical_json().contains("\"memory_bytes\""));
        // Work counters are workload-pure, so they are part of the
        // canonical record.
        a.work.sort_calls = 1;
        b.work.sort_calls = 7;
        assert_ne!(a.canonical_json(), b.canonical_json());
        assert!(a.canonical_json().contains("\"sort_calls\":1"));
        assert!(a.to_json().contains("\"sort_calls\":1"));
        assert!(a.to_json().contains(RUN_SCHEMA));
    }

    #[test]
    fn phase_walls_are_timing_metadata_only() {
        let bare = sample();
        let mut phased = sample();
        phased.phase_wall_ms = vec![
            ("orders-build".to_string(), 1.5),
            ("star-rounds".to_string(), 20.25),
        ];
        assert_eq!(
            bare.canonical_json(),
            phased.canonical_json(),
            "phase wall times must not leak into the canonical record"
        );
        assert!(!bare.to_json().contains("\"phase_wall_ms\""));
        let json = phased.to_json();
        assert!(json.contains("\"phase_wall_ms\":{\"orders-build\":1.5,\"star-rounds\":20.25}"));
    }

    #[test]
    fn validate_rejects_structural_problems() {
        let mut run = sample();
        run.cost = f64::NAN;
        assert!(run.validate().is_err());

        let mut run = sample();
        run.lower_bound = 100.0;
        assert!(run.validate().is_err());

        let mut run = sample();
        run.selected.clear();
        assert!(run.validate().is_err());

        let mut run = sample();
        run.assignment = vec![1, 1, 1];
        assert!(run.validate().is_err(), "assignment to unselected element");
    }

    #[test]
    fn trial_stats_are_timing_metadata_only() {
        let bare = sample();
        let mut timed = sample();
        timed.trials = Some(TrialStats::from_samples(&[1.0, 2.0, 3.0]));
        assert_eq!(
            bare.canonical_json(),
            timed.canonical_json(),
            "trial statistics must not leak into the canonical record"
        );
        assert!(!bare.to_json().contains("\"trials\""));
        let json = timed.to_json();
        assert!(json.contains("\"trials\":{\"trials\":3"));
        assert!(json.contains("\"median_ms\":2.0"));
        assert!(json.contains("\"stddev_ms\""));
    }

    #[test]
    fn no_certificate_means_no_ratio() {
        let run = Run::default().with_cost(3.0);
        assert_eq!(run.certified_ratio(), None);
        assert!(run.to_json().contains("\"certified_ratio\":null"));
    }
}
