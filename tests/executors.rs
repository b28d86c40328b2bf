//! Differential test of every threaded CALU/CAQR entry point.
//!
//! Each public multithreaded entry point — infallible, fallible, fault
//! harness, checked, recovering, recovering-checked and profiled — must
//! produce factors bitwise identical to the sequential reference
//! (`calu_seq_factor` / `caqr_seq`), on both schedulers, at 1 and 3
//! workers, with binary and flat reduction trees, on a square and a
//! tall-skinny shape. The table is the safety net for every change to the
//! executor layer.

use ca_factor::core::{
    calu, calu_seq_factor, calu_with_stats, caqr, caqr_seq, caqr_with_stats, try_calu,
    try_calu_checked, try_calu_profiled, try_calu_recovering, try_calu_recovering_checked,
    try_calu_with_faults, try_calu_with_stats, try_caqr, try_caqr_checked, try_caqr_profiled,
    try_caqr_recovering, try_caqr_recovering_checked, try_caqr_with_faults, CaParams, LuFactors,
    QrFactors, TreeShape,
};
use ca_factor::matrix::{random_uniform, seeded_rng, Matrix};
use ca_factor::sched::{ChaosPlan, FaultPlan, RecoveryCounters, RetryPolicy};

/// The threaded entry points under test.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Plain,
    WithStats,
    Try,
    TryWithStats,
    WithFaults,
    Checked,
    Recovering,
    RecoveringChecked,
    Profiled,
}

const ENTRIES: [Entry; 9] = [
    Entry::Plain,
    Entry::WithStats,
    Entry::Try,
    Entry::TryWithStats,
    Entry::WithFaults,
    Entry::Checked,
    Entry::Recovering,
    Entry::RecoveringChecked,
    Entry::Profiled,
];

fn calu_via(entry: Entry, a: Matrix, p: &CaParams) -> LuFactors {
    let counters = RecoveryCounters::new();
    let chaos = ChaosPlan::quiet(7);
    match entry {
        Entry::Plain => calu(a, p),
        Entry::WithStats => calu_with_stats(a, p).0,
        Entry::Try => try_calu(a, p).expect("try_calu"),
        Entry::TryWithStats => try_calu_with_stats(a, p).expect("try_calu_with_stats").0,
        Entry::WithFaults => {
            try_calu_with_faults(a, p, &FaultPlan::new()).expect("try_calu_with_faults").0
        }
        Entry::Checked => try_calu_checked(a, p).expect("try_calu_checked").0,
        Entry::Recovering => {
            try_calu_recovering(a, p, RetryPolicy::default(), &chaos, &counters)
                .expect("try_calu_recovering")
                .0
        }
        Entry::RecoveringChecked => {
            try_calu_recovering_checked(a, p, RetryPolicy::default(), &chaos, &counters)
                .expect("try_calu_recovering_checked")
                .0
        }
        Entry::Profiled => {
            let (f, profile) = try_calu_profiled(a, p).expect("try_calu_profiled");
            assert!(!profile.records.is_empty(), "profiled run records its tasks");
            f
        }
    }
}

fn caqr_via(entry: Entry, a: Matrix, p: &CaParams) -> QrFactors {
    let counters = RecoveryCounters::new();
    let chaos = ChaosPlan::quiet(7);
    match entry {
        Entry::Plain => caqr(a, p),
        Entry::WithStats => caqr_with_stats(a, p).0,
        Entry::Try => try_caqr(a, p).expect("try_caqr"),
        Entry::TryWithStats | Entry::WithFaults => {
            try_caqr_with_faults(a, p, &FaultPlan::new()).expect("try_caqr_with_faults").0
        }
        Entry::Checked => try_caqr_checked(a, p).expect("try_caqr_checked").0,
        Entry::Recovering => {
            try_caqr_recovering(a, p, RetryPolicy::default(), &chaos, &counters)
                .expect("try_caqr_recovering")
                .0
        }
        Entry::RecoveringChecked => {
            try_caqr_recovering_checked(a, p, RetryPolicy::default(), &chaos, &counters)
                .expect("try_caqr_recovering_checked")
                .0
        }
        Entry::Profiled => {
            let (f, profile) = try_caqr_profiled(a, p).expect("try_caqr_profiled");
            assert!(!profile.records.is_empty(), "profiled run records its tasks");
            f
        }
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Every parameter combination of the table: scheduler × workers × tree.
fn param_grid() -> Vec<(String, CaParams)> {
    let mut grid = Vec::new();
    for stealing in [false, true] {
        for threads in [1, 3] {
            for tree in [TreeShape::Binary, TreeShape::Flat] {
                let mut p = CaParams::new(16, 4, threads);
                p.tree = tree;
                if stealing {
                    p = p.with_work_stealing();
                }
                let name = format!(
                    "{} threads={threads} tree={tree:?}",
                    if stealing { "stealing" } else { "priority" }
                );
                grid.push((name, p));
            }
        }
    }
    grid
}

const SHAPES: [(usize, usize, u64); 2] = [(96, 96, 0xE0), (400, 40, 0xE1)];

#[test]
fn every_calu_entry_point_matches_the_sequential_factors_bitwise() {
    for (m, n, seed) in SHAPES {
        let a = random_uniform(m, n, &mut seeded_rng(seed));
        for (name, p) in param_grid() {
            let reference = calu_seq_factor(a.clone(), &p);
            for entry in ENTRIES {
                let f = calu_via(entry, a.clone(), &p);
                let ctx = format!("{m}x{n} {name} {entry:?}");
                assert_eq!(bits(&f.lu), bits(&reference.lu), "{ctx}: LU factors differ");
                assert_eq!(f.pivots.ipiv, reference.pivots.ipiv, "{ctx}: pivots differ");
                assert_eq!(f.breakdown, reference.breakdown, "{ctx}: breakdown differs");
            }
        }
    }
}

#[test]
fn every_caqr_entry_point_matches_the_sequential_factors_bitwise() {
    for (m, n, seed) in SHAPES {
        let a = random_uniform(m, n, &mut seeded_rng(seed));
        let probe = random_uniform(m, 3, &mut seeded_rng(seed + 100));
        for (name, p) in param_grid() {
            let reference = caqr_seq(a.clone(), &p);
            let mut qt_ref = probe.clone();
            reference.apply_qt(&mut qt_ref);
            for entry in ENTRIES {
                let f = caqr_via(entry, a.clone(), &p);
                let ctx = format!("{m}x{n} {name} {entry:?}");
                assert_eq!(bits(&f.a), bits(&reference.a), "{ctx}: R / leaf reflectors differ");
                // Tree-node reflectors live outside `a`; applying Qᵀ covers
                // them.
                let mut qt = probe.clone();
                f.apply_qt(&mut qt);
                assert_eq!(bits(&qt), bits(&qt_ref), "{ctx}: Q representation differs");
            }
        }
    }
}
