//! Warehouse placement — the motivating facility-location scenario.
//!
//! A retailer has 400 stores (clients) and 80 candidate warehouse sites (facilities);
//! opening a warehouse has a fixed cost and every store must be served from some open
//! warehouse, paying the travel distance. The program enumerates every registered
//! facility-location solver — the paper's parallel algorithms and the sequential
//! baselines alike — through the unified registry and prints a comparison table,
//! including each algorithm's certified ratio where a certificate is available.
//!
//! ```text
//! cargo run -p parfaclo-examples --bin warehouse_placement --release
//! ```

use parfaclo_api::{AnyInstance, ProblemKind, RunConfig};
use parfaclo_bench::standard_registry;
use parfaclo_examples::{format_ratio, print_row};
use parfaclo_metric::gen::{self, FacilityCostModel, GenParams};

fn main() {
    parfaclo_bench::reset_sigpipe();
    // Stores cluster around 12 towns; candidate warehouses are scattered uniformly.
    let params = GenParams::gaussian_clusters(400, 80, 12)
        .with_seed(2024)
        .with_cost_model(FacilityCostModel::UniformRange { lo: 20.0, hi: 60.0 });
    let fl_inst = gen::facility_location(params);
    println!(
        "warehouse placement: {} stores, {} candidate sites",
        fl_inst.num_clients(),
        fl_inst.num_facilities()
    );
    let inst = AnyInstance::Fl(fl_inst);
    println!();
    println!("  {:<28} {:>12}   notes", "algorithm", "cost");

    let registry = standard_registry();
    let cfg = RunConfig::new(0.1).with_seed(1);

    for solver in registry.iter() {
        if solver.problem != ProblemKind::FacilityLocation {
            continue;
        }
        // The LP-rounding solver solves the full LP relaxation with the
        // workspace's simplex substrate — polynomial but far too slow for a
        // 400x80 instance; it gets its own demo below.
        if solver.name == "lp-rounding" {
            continue;
        }
        let run = solver.run(&inst, &cfg).expect("facility-location instance");
        print_row(
            solver.name,
            run.cost,
            &format!(
                "{} sites, {} rounds, {}",
                run.selected.len(),
                run.rounds,
                format_ratio(run.cost, run.lower_bound)
            ),
        );
    }

    // LP rounding demo on a smaller instance of the same shape.
    let small = AnyInstance::Fl(gen::facility_location(
        GenParams::gaussian_clusters(40, 12, 6)
            .with_seed(2024)
            .with_cost_model(FacilityCostModel::UniformRange { lo: 20.0, hi: 60.0 }),
    ));
    println!();
    println!("  LP rounding demo on a 40x12 sub-instance:");
    let run = registry
        .run("lp-rounding", &small, &cfg)
        .expect("lp-rounding accepts facility-location instances");
    let lp_value = run
        .extra
        .iter()
        .find(|(key, _)| key == "lp_value")
        .map(|(_, v)| *v)
        .unwrap_or(run.lower_bound);
    print_row("LP optimum (fractional)", lp_value, "simplex substrate");
    print_row(
        "parallel rounding (Sec 6.2)",
        run.cost,
        &format_ratio(run.cost, run.lower_bound),
    );
}
