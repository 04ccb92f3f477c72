//! Solution verification and ratio certification.
//!
//! Every experiment in `EXPERIMENTS.md` reports approximation ratios **against certified
//! lower bounds** (dual-feasible values or the LP optimum), never against heuristic
//! estimates. This module bundles the checks: structural validity of a solution, dual
//! feasibility of the α certificate it carries, and the best available lower bound for
//! an instance.

use crate::solution::FlSolution;
use parfaclo_lp::{dual, faclp};
use parfaclo_metric::{approx_eq, FlInstance};

/// Structural validation of a solution against its instance: indices in range, costs
/// consistent, assignment pointing at open, closest facilities.
pub fn verify_solution(inst: &FlInstance, sol: &FlSolution) -> Result<(), String> {
    if sol.open.is_empty() {
        return Err("solution opens no facility".to_string());
    }
    for &i in &sol.open {
        if i >= inst.num_facilities() {
            return Err(format!("open facility {i} out of range"));
        }
    }
    if sol.assignment.len() != inst.num_clients() {
        return Err(format!(
            "assignment covers {} clients, instance has {}",
            sol.assignment.len(),
            inst.num_clients()
        ));
    }
    for (j, &i) in sol.assignment.iter().enumerate() {
        if !sol.open.contains(&i) {
            return Err(format!("client {j} assigned to unopened facility {i}"));
        }
        let (best, best_d) = inst.closest_open(j, &sol.open).unwrap();
        if inst.dist(j, i) > best_d + 1e-9 {
            return Err(format!(
                "client {j} assigned to facility {i} at distance {} but facility {best} is at {}",
                inst.dist(j, i),
                best_d
            ));
        }
    }
    let opening = inst.opening_cost(&sol.open);
    let connection = inst.connection_cost(&sol.open);
    if !approx_eq(opening, sol.opening_cost, 1e-9)
        || !approx_eq(connection, sol.connection_cost, 1e-9)
        || !approx_eq(opening + connection, sol.cost, 1e-9)
    {
        return Err(format!(
            "cost mismatch: recorded {} + {} = {}, recomputed {} + {} = {}",
            sol.opening_cost,
            sol.connection_cost,
            sol.cost,
            opening,
            connection,
            opening + connection
        ));
    }
    if sol.lower_bound > sol.cost + 1e-6 {
        return Err(format!(
            "lower bound {} exceeds solution cost {}",
            sol.lower_bound, sol.cost
        ));
    }
    Ok(())
}

/// The best certified lower bound available for an instance, used by the experiment
/// tables. Solving the LP is only attempted when `m` is at most `lp_size_limit` (the
/// simplex substrate is polynomial but not fast); the γ lower bound of Equation (2) is
/// always available.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceLowerBound {
    /// The γ bound of Equation (2).
    pub gamma: f64,
    /// The LP relaxation value, if it was computed.
    pub lp_value: Option<f64>,
}

impl InstanceLowerBound {
    /// The strongest available bound.
    pub fn best(&self) -> f64 {
        self.lp_value.map_or(self.gamma, |v| v.max(self.gamma))
    }
}

/// Computes the lower bounds for an instance, solving the LP only when
/// `inst.m() <= lp_size_limit`.
pub fn instance_lower_bound(inst: &FlInstance, lp_size_limit: usize) -> InstanceLowerBound {
    let gamma = inst.gamma();
    let lp_value = if inst.m() <= lp_size_limit {
        faclp::solve_facility_lp(inst).ok().map(|s| s.value())
    } else {
        None
    };
    InstanceLowerBound { gamma, lp_value }
}

/// Checks a solution's α certificate (if present) and returns the certified ratio
/// `cost / max(dual value, instance lower bound)`.
pub fn certified_ratio(inst: &FlInstance, sol: &FlSolution, extra_lower_bound: f64) -> Option<f64> {
    let mut bound = extra_lower_bound.max(sol.lower_bound);
    if !sol.alpha.is_empty() && dual::check_alpha_feasible(inst, &sol.alpha, 1e-6).is_ok() {
        bound = bound.max(dual::dual_value(&sol.alpha));
    }
    if bound > 0.0 {
        Some(sol.cost / bound)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy, primal_dual};
    use parfaclo_api::RunConfig;
    use parfaclo_metric::gen::{self, GenParams};

    #[test]
    fn verify_accepts_algorithm_outputs() {
        let inst = gen::facility_location(GenParams::uniform_square(20, 10).with_seed(3));
        let cfg = RunConfig::new(0.1).with_seed(3);
        let g = greedy::parallel_greedy(&inst, &cfg);
        let pd = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
        assert!(verify_solution(&inst, &g).is_ok());
        assert!(verify_solution(&inst, &pd).is_ok());
    }

    #[test]
    fn verify_rejects_tampered_solutions() {
        let inst = gen::facility_location(GenParams::uniform_square(10, 5).with_seed(1));
        let cfg = RunConfig::new(0.1);
        let mut sol = greedy::parallel_greedy(&inst, &cfg);
        sol.cost += 5.0;
        assert!(verify_solution(&inst, &sol).is_err());

        let mut sol2 = greedy::parallel_greedy(&inst, &cfg);
        sol2.open.clear();
        assert!(verify_solution(&inst, &sol2).is_err());

        let mut sol3 = greedy::parallel_greedy(&inst, &cfg);
        sol3.lower_bound = sol3.cost * 10.0;
        assert!(verify_solution(&inst, &sol3).is_err());
    }

    #[test]
    fn instance_lower_bound_prefers_lp_when_available() {
        let inst = gen::facility_location(GenParams::uniform_square(6, 4).with_seed(2));
        let with_lp = instance_lower_bound(&inst, 10_000);
        let without_lp = instance_lower_bound(&inst, 0);
        assert!(with_lp.lp_value.is_some());
        assert!(without_lp.lp_value.is_none());
        assert!(with_lp.best() >= without_lp.best() - 1e-9);
    }

    #[test]
    fn certified_ratio_uses_best_bound() {
        let inst = gen::facility_location(GenParams::uniform_square(8, 5).with_seed(5));
        let cfg = RunConfig::new(0.1).with_seed(5);
        let sol = primal_dual::parallel_primal_dual(&inst, &cfg).unwrap();
        let lb = instance_lower_bound(&inst, 10_000);
        let ratio = certified_ratio(&inst, &sol, lb.best()).expect("certificate");
        assert!(ratio >= 1.0 - 1e-9);
        assert!(ratio <= 3.5, "primal-dual ratio {ratio} suspiciously large");
    }
}
