//! The experiment harness is itself under test: the cheap experiments run
//! in quick mode and their *shapes* — the properties each table's `claim`
//! states — are asserted, so a regression in any algorithm breaks the
//! harness test before it breaks a published table.

use sst_bench::{
    e10_identical, e11_bounds, e1_lpt, e4_hardness, e5_ra, e6_cupt, e7_groups, e9_splittable, Table,
};

fn cell_f64(t: &Table, row: usize, col: usize) -> f64 {
    t.rows[row][col].parse().expect("numeric cell")
}

#[test]
fn e1_ratios_below_lemma_bound() {
    let t = e1_lpt(true);
    assert!(!t.rows.is_empty());
    let bound_col = t.header.iter().position(|&h| h == "bound").unwrap();
    let worst_col = t.header.iter().position(|&h| h == "worst-ratio").unwrap();
    for (r, _) in t.rows.iter().enumerate() {
        let worst = cell_f64(&t, r, worst_col);
        let bound = cell_f64(&t, r, bound_col);
        assert!(worst <= bound + 1e-9, "row {r}: {worst} > {bound}");
    }
}

#[test]
fn e4_gap_is_monotone_in_k() {
    let t = e4_hardness(true);
    let gap_col = t.header.iter().position(|&h| h == "gap").unwrap();
    let mut last = 0.0;
    for (r, _) in t.rows.iter().enumerate() {
        let gap = cell_f64(&t, r, gap_col);
        assert!(gap >= last - 0.35, "row {r}: gap {gap} fell below {last}");
        last = gap;
    }
    assert!(last >= 2.0, "largest-k gap {last} too small");
}

#[test]
fn e5_and_e6_respect_their_bounds() {
    for (t, bound) in [(e5_ra(true), 2.0), (e6_cupt(true), 3.0)] {
        let ratio_col = t.header.iter().position(|&h| h == "ratio").unwrap();
        for (r, _) in t.rows.iter().enumerate() {
            let ratio = cell_f64(&t, r, ratio_col);
            assert!(ratio <= bound + 1e-9, "{}: row {r} ratio {ratio} > {bound}", t.id);
        }
    }
}

#[test]
fn e7_group_accounting() {
    let t = e7_groups(true);
    assert_eq!(t.rows.len(), 4); // four speed profiles
                                 // #groups column is a positive integer everywhere.
    let g_col = t.header.iter().position(|&h| h == "#groups").unwrap();
    for row in &t.rows {
        let g: usize = row[g_col].parse().unwrap();
        assert!(g >= 1);
    }
}

#[test]
fn e9_split_never_above_unsplit_and_within_bound() {
    let t = e9_splittable(true);
    let ratio_col = t.header.iter().position(|&h| h == "ratio").unwrap();
    let bound_col = t.header.iter().position(|&h| h == "bound").unwrap();
    let unsplit_col = t.header.iter().position(|&h| h == "unsplit").unwrap();
    let split_col = t.header.iter().position(|&h| h == "split").unwrap();
    for (r, _) in t.rows.iter().enumerate() {
        let ratio = cell_f64(&t, r, ratio_col);
        let bound = cell_f64(&t, r, bound_col);
        assert!(ratio <= bound + 1e-9, "row {r}: {ratio} > {bound}");
        let unsplit = cell_f64(&t, r, unsplit_col);
        let split = cell_f64(&t, r, split_col);
        assert!(split <= unsplit + 0.11, "row {r}: splitting must not hurt");
    }
}

#[test]
fn e10_guaranteed_algorithms_stay_under_four() {
    let t = e10_identical(true);
    for col in ["wrap", "batch-LPT"] {
        let c = t.header.iter().position(|&h| h == col).unwrap();
        for (r, _) in t.rows.iter().enumerate() {
            let v = cell_f64(&t, r, c);
            assert!(v <= 4.0 + 1e-9, "{col} row {r}: {v} > 4");
        }
    }
    // Annealing (seeded from batch-LPT) never reports worse than its start.
    let sa = t.header.iter().position(|&h| h == "annealed").unwrap();
    let bl = t.header.iter().position(|&h| h == "batch-LPT").unwrap();
    for (r, _) in t.rows.iter().enumerate() {
        assert!(cell_f64(&t, r, sa) <= cell_f64(&t, r, bl) + 1e-9, "row {r}");
    }
}

#[test]
fn e11_bound_chain_is_monotone() {
    let t = e11_bounds(true);
    let comb = t.header.iter().position(|&h| h == "comb").unwrap();
    let assign = t.header.iter().position(|&h| h == "assign-LP").unwrap();
    let config = t.header.iter().position(|&h| h == "config-LP").unwrap();
    let opt = t.header.iter().position(|&h| h == "Opt").unwrap();
    for (r, _) in t.rows.iter().enumerate() {
        let c = cell_f64(&t, r, comb);
        let a = cell_f64(&t, r, assign);
        let g = cell_f64(&t, r, config);
        let o = cell_f64(&t, r, opt);
        assert!(c <= a && a <= g + 1.0 && g <= o, "row {r}: {c} {a} {g} {o}");
    }
}

#[test]
fn table_rendering_aligns_and_includes_claim() {
    let t = e7_groups(true);
    let text = t.render();
    assert!(text.contains("== E7"));
    assert!(text.contains("claim:"));
    // Every row renders on its own line.
    assert!(text.lines().count() >= 2 + 1 + t.rows.len());
}
