//! Assembly of the full solver registry.
//!
//! `parfaclo-bench` is the one crate that depends on every algorithm crate,
//! so it owns the wiring: [`standard_registry`] registers every solver in
//! the workspace — the three parallel facility-location algorithms of the
//! paper plus the local-search extension, the parallel k-clustering
//! algorithms, the dominator-set routines, and the sequential baselines —
//! under their stable names. The `parfaclo` CLI, the examples, the
//! repository benchmark and the cross-crate conformance tests all start
//! from here.

use crate::Table;
use parfaclo_api::Registry;

/// Every solver in the workspace, registered under its stable name: the
/// four algorithm crates' entry tables, chained.
///
/// Names (by family):
///
/// * facility location (parallel): `greedy`, `primal-dual`, `lp-rounding`,
///   `local-search-fl`
/// * facility location (sequential baselines): `jms-greedy`, `jain-vazirani`
/// * k-clustering (parallel): `kcenter`, `kmedian-ls`, `kmeans-ls`
/// * k-clustering (sequential baselines): `gonzalez`, `hs-kcenter`,
///   `kmedian-seq`
/// * dominator sets: `maxdom`, `mis`
pub fn standard_registry() -> Registry {
    let mut registry = Registry::new();
    for entry in parfaclo_core::solvers::SOLVERS
        .iter()
        .chain(parfaclo_kclustering::solvers::SOLVERS)
        .chain(parfaclo_dominator::solvers::SOLVERS)
        .chain(parfaclo_seq_baselines::solvers::SOLVERS)
    {
        registry.register(*entry);
    }
    registry
}

/// The table `parfaclo list` prints: every entry's name, problem, guarantee
/// label and paper reference, with each column sized to its widest cell.
pub fn solver_listing(registry: &Registry) -> String {
    let rows: Vec<Vec<String>> = registry
        .iter()
        .map(|entry| {
            vec![
                entry.name.to_string(),
                entry.problem.to_string(),
                entry.guarantee_label(),
                entry.paper_ref.to_string(),
            ]
        })
        .collect();
    Table::render(&["name", "problem", "guarantee", "paper"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_names_are_registered() {
        let registry = standard_registry();
        for name in [
            "greedy",
            "primal-dual",
            "lp-rounding",
            "kcenter",
            "kmedian-ls",
            "maxdom",
        ] {
            assert!(registry.get(name).is_some(), "solver '{name}' missing");
        }
        assert!(registry.len() >= 14);
    }

    /// The listing `parfaclo list` prints: every entry's name, problem,
    /// guarantee label and paper reference. The golden corpus pins each
    /// run's `guarantee` value, but not the exactness label or the
    /// reference.
    #[test]
    fn listing_is_pinned() {
        let listing: String = standard_registry()
            .iter()
            .map(|s| {
                let label = s.guarantee_label();
                format!("{} | {} | {label} | {}\n", s.name, s.problem, s.paper_ref)
            })
            .collect();
        assert_eq!(
            listing,
            "\
gonzalez | k-clustering | 2 | Gonzalez 1985 (sequential baseline)
greedy | facility-location | 3.722 + eps | Algorithm 4.1, Theorem 4.9
hs-kcenter | k-clustering | 2 | Hochbaum & Shmoys 1985 (sequential baseline)
jain-vazirani | facility-location | 3 | Jain & Vazirani, J. ACM 2001 (sequential baseline)
jms-greedy | facility-location | 1.861 | Jain et al., J. ACM 2003 (sequential baseline)
kcenter | k-clustering | 2 | Section 6.1, Theorem 6.1
kmeans-ls | k-clustering | 81 + eps | Section 7, Theorem 7.1
kmedian-ls | k-clustering | 5 + eps | Section 7, Theorem 7.1
kmedian-seq | k-clustering | 5 + eps | Arya et al. 2004 (sequential baseline)
local-search-fl | facility-location | 3 + eps | Section 7 (closing remark)
lp-rounding | facility-location | 4 + eps | Section 6.2, Theorem 6.5
maxdom | dominator-set | - | Section 3, Lemma 3.1
mis | dominator-set | - | Algorithm 3.1 (Luby)
primal-dual | facility-location | 3 + eps | Algorithm 5.1, Theorem 5.4
"
        );
    }

    #[test]
    fn names_are_unique_and_sorted() {
        let registry = standard_registry();
        let names = registry.names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }

    #[test]
    fn listing_columns_line_up() {
        let registry = standard_registry();
        let listing = solver_listing(&registry);
        let lines: Vec<&str> = listing.lines().collect();
        assert_eq!(lines.len(), registry.len() + 2);
        // Right-aligned columns as wide as their widest cell: every line
        // spans the same width, and each cell ends where its header does.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "{listing}");
        assert!(lines[1].chars().all(|c| c == '-'));
        let ends: Vec<usize> = ["name", "problem", "guarantee", "paper"]
            .iter()
            .map(|h| lines[0].find(h).expect("header") + h.len())
            .collect();
        for (line, entry) in lines[2..].iter().zip(registry.iter()) {
            let cells = [
                entry.name.to_string(),
                entry.problem.to_string(),
                entry.guarantee_label(),
                entry.paper_ref.to_string(),
            ];
            for (cell, &end) in cells.iter().zip(&ends) {
                assert_eq!(&line[end - cell.len()..end], cell, "{line}");
            }
        }
    }
}
