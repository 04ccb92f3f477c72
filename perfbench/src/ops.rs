//! Workloads, the solver operations they run, and the checks every
//! operation's output must pass.

use parfaclo_api::{
    AnyInstance, Backend, Coreset, GraphBackend, ProblemKind, Registry, Run, RunConfig,
};
use parfaclo_bench::runner::GenSpec;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One solver operation: a registry entry plus the knobs that distinguish it.
pub struct Op {
    /// Metric prefix for the operation's counts (`<name>.rounds`, …).
    pub name: &'static str,
    /// Registry name of the solver.
    pub solver: &'static str,
    /// `--coreset eps:<x>` for the hierarchical k-median path.
    pub coreset: Option<f64>,
}

/// Every operation any workload runs. The traced run executes all of them on
/// every workload (see [`Workload::probe_spec`]) so each per-layer metric is
/// emitted everywhere.
pub const OPS: [Op; 7] = [
    Op {
        name: "greedy",
        solver: "greedy",
        coreset: None,
    },
    Op {
        name: "primal-dual",
        solver: "primal-dual",
        coreset: None,
    },
    Op {
        name: "kcenter",
        solver: "kcenter",
        coreset: None,
    },
    Op {
        name: "maxdom",
        solver: "maxdom",
        coreset: None,
    },
    Op {
        name: "mis",
        solver: "mis",
        coreset: None,
    },
    Op {
        name: "kmedian-ls",
        solver: "kmedian-ls",
        coreset: None,
    },
    Op {
        name: "kmedian-ls-coreset",
        solver: "kmedian-ls",
        coreset: Some(0.1),
    },
];

/// Looks up an operation by its metric name.
pub fn op(name: &str) -> &'static Op {
    OPS.iter()
        .find(|o| o.name == name)
        .expect("workload tables name only known operations")
}

/// Operations that do not belong to a workload run on its generator capped
/// at this many points (and [`PROBE_NF`] facilities), where every solver
/// finishes in about a second.
pub const PROBE_N: usize = 2_000;
/// Facility cap of the probe instance (the `medium` preset's count).
pub const PROBE_NF: usize = 64;

/// A fixed list of solver operations run in sequence on one generated
/// instance.
pub struct Workload {
    pub name: &'static str,
    pub spec: GenSpec,
    /// Which instance family set-up builds.
    pub problem: ProblemKind,
    pub ops: &'static [&'static str],
    /// Instances a timed run visits in turn.
    pub instances: u64,
}

impl Workload {
    /// The benchmark's workloads, by name.
    pub fn named(name: &str) -> Option<Workload> {
        let name = *WORKLOAD_NAMES.iter().find(|w| **w == name)?;
        let (spec, problem, ops, instances): (&str, _, &'static [&'static str], _) = match name {
            // Facility location at the `large` preset's facility count with
            // a twentieth of its clients: stresses lp (greedy's finalize) and
            // bucket (primal-dual's dual ascent). Greedy's cost varies up to
            // fourfold by instance, so a run takes the median over four,
            // each visited many times. A neighbour streaming through 256 MiB
            // on the other core slowed a one-thread pass by 20% at 20k
            // clients and by 8% at this size, whose working set stays
            // closer to the core; the host's other tenants do the same.
            "fl-5k" => (
                "large:n=5000",
                ProblemKind::FacilityLocation,
                &["greedy", "primal-dual"],
                4,
            ),
            // n² distance sorts, threshold graphs and their Luby rounds,
            // probes through edge_map, local-search swaps, the coreset path
            // and fine-grained pool dispatch on a small dense instance. One
            // visit takes 9 s, so a run keeps to one instance.
            "cluster-2k" => (
                "medium",
                ProblemKind::KClustering,
                &[
                    "kcenter",
                    "maxdom",
                    "mis",
                    "kmedian-ls",
                    "kmedian-ls-coreset",
                ],
                1,
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            spec: GenSpec::parse(spec).expect("workload specs parse"),
            problem,
            ops,
            instances,
        })
    }

    /// Builds the workload's instance: generator plus spatial indexes.
    pub fn build(&self, seed: u64) -> Result<AnyInstance, String> {
        self.spec
            .instance(self.problem, seed, Backend::Spatial)
            .map_err(|e| format!("{}: set-up failed: {e}", self.name))
    }

    /// The workload's generator capped at [`PROBE_N`] points, for
    /// operations and layers of a family the workload does not build.
    pub fn probe_spec(&self) -> GenSpec {
        let mut spec = self.spec.clone();
        spec.n = spec.n.min(PROBE_N);
        spec.nf = spec.nf.min(PROBE_NF);
        spec
    }
}

/// Seed of the `k`-th instance a run generates: the run seed itself, then
/// SplitMix64 mixes of it, so runs with nearby seeds share no instances.
pub fn instance_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Names accepted by `--workload`.
pub const WORKLOAD_NAMES: [&str; 2] = ["fl-5k", "cluster-2k"];

/// CLI defaults (`parfaclo run`) on the spatial backend and CSR graphs.
pub fn base_config(seed: u64, threads: usize, op: &Op) -> RunConfig {
    let cfg = RunConfig::new(0.1)
        .with_k(8)
        .with_seed(seed)
        .with_threads(threads)
        .with_backend(Backend::Spatial)
        .with_graph(GraphBackend::Csr);
    match op.coreset {
        Some(eps) => cfg.with_coreset(Coreset::Eps(eps)),
        None => cfg,
    }
}

/// Failure bookkeeping across every operation a run executes.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    /// First canonical-record hash per (operation, instance) key.
    canonical: HashMap<String, u64>,
}

impl Tally {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 16 {
            self.reasons.push(reason);
        }
    }

    /// The share of attempted operations that passed every check.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Runs one operation and checks its output: an `Err`, a panic, a failed
/// `Run::validate`, a certified ratio above the promised guarantee (plus ε),
/// or a canonical record that differs from an earlier execution under the
/// same `key` all count as a failure. Returns the run and its wall seconds.
pub fn run_checked(
    registry: &Registry,
    op: &Op,
    inst: &AnyInstance,
    cfg: &RunConfig,
    key: &str,
    tally: &mut Tally,
) -> (Option<Run>, f64) {
    let entry = registry
        .get(op.solver)
        .expect("benchmark operations are registered solvers");
    tally.attempted += 1;
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| entry.run(inst, cfg)));
    let secs = start.elapsed().as_secs_f64();
    let run = match outcome {
        Ok(Ok(run)) => run,
        Ok(Err(e)) => {
            tally.fail(format!("{key}: {e}"));
            return (None, secs);
        }
        Err(_) => {
            tally.fail(format!("{key}: panicked"));
            return (None, secs);
        }
    };
    if let Err(e) = run.validate() {
        tally.fail(format!("{key}: invalid run: {e}"));
        return (Some(run), secs);
    }
    if let Some(ratio) = run.certified_ratio() {
        if run.guarantee > 0.0 && ratio > run.guarantee + cfg.epsilon {
            tally.fail(format!(
                "{key}: certified ratio {ratio} above guarantee {}",
                run.guarantee
            ));
            return (Some(run), secs);
        }
    }
    let mut hasher = DefaultHasher::new();
    run.canonical_json().hash(&mut hasher);
    let hash = hasher.finish();
    match tally.canonical.get(key) {
        Some(&first) if first != hash => tally.fail(format!(
            "{key}: canonical output differs between executions"
        )),
        Some(_) => {}
        None => {
            tally.canonical.insert(key.to_string(), hash);
        }
    }
    (Some(run), secs)
}

/// One pass: the workload's operations in sequence at `threads` threads on
/// the instance generated from `seed`. Returns per-operation wall seconds,
/// in workload order.
pub fn pass(
    registry: &Registry,
    w: &Workload,
    inst: &AnyInstance,
    seed: u64,
    threads: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    w.ops
        .iter()
        .map(|name| {
            let op = op(name);
            let cfg = base_config(seed, threads, op);
            run_checked(
                registry,
                op,
                inst,
                &cfg,
                &format!("{}@{seed}", op.name),
                tally,
            )
            .1
        })
        .collect()
}
