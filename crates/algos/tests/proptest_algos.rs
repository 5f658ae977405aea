//! Property tests on the algorithm layer: pseudoforest structure, rounding
//! validity, exact-solver dominance.

use proptest::collection::vec;
use proptest::prelude::*;
use sst_algos::exact::exact_unrelated;
use sst_algos::list::greedy_unrelated;
use sst_algos::pseudoforest::compute_etilde;
use sst_algos::rounding::{solve_unrelated_randomized, RoundingConfig};
use sst_core::instance::UnrelatedInstance;
use sst_core::schedule::unrelated_makespan;

/// Strategy: a random *pseudoforest* bipartite support graph, built as a
/// random forest plus at most one extra edge per component.
fn pseudoforest_edges() -> impl Strategy<Value = (Vec<(usize, usize)>, usize, usize)> {
    (2usize..6, 2usize..6, vec((0usize..100, 0usize..100), 0..12), proptest::bool::ANY).prop_map(
        |(kk, mm, raw, add_cycle)| {
            // Build a random spanning structure: attach node t (in BFS order
            // over the bipartite node sequence) to a random earlier node of
            // the other side.
            let mut edges: Vec<(usize, usize)> = Vec::new();
            // Simple deterministic forest: class c — machine (c % mm), then
            // extra edges from `raw` filtered to keep pseudoforest-ness per
            // component. To stay safe we only build a star forest plus one
            // optional cycle: classes 0 and 1 with machines 0 and 1.
            for c in 0..kk {
                edges.push((c, c % mm));
            }
            for (a, b) in raw {
                let c = a % kk;
                let i = b % mm;
                // Add the edge only if it keeps a simple graph and the
                // involved component acyclic-ish; we conservatively allow
                // only edges incident to untouched machines.
                if !edges.iter().any(|&(_, ii)| ii == i) && !edges.contains(&(c, i)) {
                    edges.push((c, i));
                }
            }
            if add_cycle && kk >= 2 && mm >= 2 {
                // A clean 4-cycle on classes {0,1} × machines {0,1}.
                for e in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    if !edges.contains(&e) {
                        edges.push(e);
                    }
                }
            }
            edges.sort_unstable();
            edges.dedup();
            (edges, kk, mm)
        },
    )
}

fn small_unrelated() -> impl Strategy<Value = UnrelatedInstance> {
    (
        2usize..4,                        // m
        vec((0usize..3, 1u64..20), 3..8), // (class raw, base size)
        vec(1u64..8, 3),                  // setups per class
    )
        .prop_map(|(m, jobs, setups)| {
            let kk = setups.len();
            let job_class: Vec<usize> = jobs.iter().map(|&(c, _)| c % kk).collect();
            let ptimes: Vec<Vec<u64>> = jobs
                .iter()
                .enumerate()
                .map(|(j, &(_, p))| (0..m).map(|i| p + ((j + i) % 3) as u64).collect())
                .collect();
            let srows: Vec<Vec<u64>> = setups.iter().map(|&s| vec![s; m]).collect();
            UnrelatedInstance::new(m, job_class, ptimes, srows).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn etilde_satisfies_lemma_3_8((edges, kk, mm) in pseudoforest_edges()) {
        let e = compute_etilde(&edges, kk, mm);
        // Property 1: machines unique.
        prop_assert!(e.machines_unique(mm));
        // Property 2 + conservation: every edge is kept or the class's
        // single removed one.
        let mut count = 0usize;
        for k in 0..kk {
            count += e.kept[k].len() + usize::from(e.removed[k].is_some());
        }
        prop_assert_eq!(count, edges.len());
    }

    #[test]
    fn exact_never_worse_than_greedy(inst in small_unrelated()) {
        let grd = unrelated_makespan(&inst, &greedy_unrelated(&inst)).expect("valid");
        let res = exact_unrelated(&inst, 1 << 22);
        prop_assert!(res.makespan <= grd);
        prop_assert_eq!(
            unrelated_makespan(&inst, &res.schedule).expect("valid"),
            res.makespan
        );
    }

    #[test]
    fn rounding_outputs_valid_certified_schedules(inst in small_unrelated(), seed in 0u64..1000) {
        let res = solve_unrelated_randomized(&inst, &RoundingConfig { c: 2.0, seed });
        prop_assert_eq!(
            unrelated_makespan(&inst, &res.schedule).expect("valid"),
            res.makespan
        );
        // T* lower-bounds the optimum on these sizes.
        let exact = exact_unrelated(&inst, 1 << 22);
        prop_assume!(exact.complete);
        prop_assert!(res.t_star <= exact.makespan,
            "T*={} exceeds Opt={}", res.t_star, exact.makespan);
    }
}
