//! The lower-bound laboratory: every ratio this repository reports divides
//! by a *lower bound* on the optimum, so the bounds deserve their own demo.
//! For a grid of small unrelated instances this example prints the chain
//!
//! ```text
//! combinatorial  ≤  assignment-LP T* (Sec. 3.1)  ≤  configuration-LP  ≤  Opt
//! ```
//!
//! and shows the LP solver's independent duality certificate in action
//! (the machinery that guards every `T*` in the experiment tables).
//!
//! ```sh
//! cargo run --release --example bounds_lab
//! ```

use setup_scheduling::algos::lp_relax::lp_makespan_lower_bound;
use setup_scheduling::gen::UnrelatedParams;
use setup_scheduling::lp::{certify, LpProblem, Relation, Sense};
use setup_scheduling::prelude::*;

fn main() {
    println!("bound chain on random 10×3 instances (K = 3, moderate setups):");
    println!(
        "{:<6} {:>6} {:>10} {:>10} {:>6} {:>12} {:>12}",
        "seed", "comb", "assign-LP", "config-LP", "Opt", "assign/Opt", "config/Opt"
    );
    for seed in 0..6u64 {
        let inst = setup_scheduling::gen::unrelated(&UnrelatedParams {
            n: 10,
            m: 3,
            k: 3,
            size_range: (1, 20),
            seed: 4000 + seed,
            ..Default::default()
        });
        let comb = unrelated_lower_bound(&inst);
        let assign = lp_makespan_lower_bound(&inst);
        let config = config_lp_lower_bound(&inst, &ConfigLpLimits::default());
        let exact = exact_unrelated(&inst, 1 << 24);
        assert!(exact.complete, "exact reference must finish at this size");
        let opt = exact.makespan;
        assert!(comb <= assign && assign <= config + 1 && config <= opt);
        println!(
            "{:<6} {:>6} {:>10} {:>10} {:>6} {:>12.3} {:>12.3}",
            seed,
            comb,
            assign,
            config,
            opt,
            assign as f64 / opt as f64,
            config as f64 / opt as f64
        );
    }
    println!("\nthe configuration LP (columns = whole machine configurations,");
    println!("exact knapsack pricing) closes the fractional-job slack the");
    println!("Section 3.1 assignment LP pays for — cf. Corollary 3.4.");

    // The certificate machinery, shown on one LP.
    println!("\nduality certificate demo (max 3x+5y, x≤4, 2y≤12, 3x+2y≤18):");
    let mut lp = LpProblem::new(Sense::Max);
    let x = lp.add_var(3.0, Some(4.0));
    let y = lp.add_var(5.0, None);
    lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
    lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
    let sol = lp.solve();
    println!("  optimum {} at x={}, y={}", sol.objective, sol.value(x), sol.value(y));
    println!("  duals: {:?}", sol.duals);
    let cert = certify(&lp, &sol, 1e-6).expect("vertex optimum certifies");
    println!(
        "  certified: primal violation {:.1e}, dual violation {:.1e}, gap {:.1e}",
        cert.primal_violation, cert.dual_violation, cert.duality_gap
    );
    println!("\n  (the same checker runs inside every set-cover LP solve and");
    println!("   is property-tested to refuse tampered solutions)");

    // And the exported LP text, for cross-checking with external solvers.
    println!("\nCPLEX-LP export of that program:\n{}", lp.to_lp_format());
}
