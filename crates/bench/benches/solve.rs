//! Triangular-solve kernel benches: scalar reference vs blocked
//! (supernodal-panel) `solve_into`, batched `solve_many_into` vs `k`
//! independent solves, and scalar vs blocked refactor, across the Table I
//! `rtd_mesh_n` family (N ∈ {10, 20, 40}) and every fill ordering.
//!
//! Reading the numbers: the blocked path wins big wherever the factor
//! carries wide low-padding supernodes — the banded natural/RCM factors —
//! and stays at parity on AMD mesh factors (already index-light after the
//! supervariable fill reduction), where its wins are the refactor and the
//! batched multi-RHS path instead. `report_solve` prints the same
//! comparison as one table.

use criterion::{criterion_group, criterion_main, Criterion};
use nanosim::prelude::*;
use nanosim_numeric::sparse::{OrderingChoice, PivotStrategy, SparseLu};
use std::hint::black_box;

const ORDERINGS: [OrderingChoice; 3] = [
    OrderingChoice::Natural,
    OrderingChoice::Rcm,
    OrderingChoice::Amd,
];

/// Batch width of the multi-RHS comparison (≥ 4, where batching is
/// expected to win).
const K: usize = 8;

fn bench_solve(c: &mut Criterion) {
    for n in [10usize, 20, 40] {
        let mut group = c.benchmark_group(&format!("solve_mesh{n}"));
        group.sample_size(if n >= 40 { 10 } else { 20 });
        let a = nanosim_bench::table1_mesh_matrix(n, 0.8);
        let dim = a.rows();
        let b: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin()).collect();
        let bk: Vec<f64> = (0..dim * K).map(|i| (i as f64 * 0.11).cos()).collect();

        for ordering in ORDERINGS {
            let tag = ordering.name();
            let mut lu = SparseLu::factor_ordered(
                &a,
                ordering,
                PivotStrategy::default(),
                &mut FlopCounter::new(),
            )
            .expect("factors");
            // Force the panel kernels on so "blocked_*" always measures
            // them; `default_gate` records whether production would.
            let default_gate = lu.blocked_kernels();
            lu.set_blocked_kernels(true);
            let (mut x, mut w) = (Vec::new(), Vec::new());
            let mut flops = FlopCounter::new();

            // One counted solve and refactor per configuration so every
            // ordering's header row carries the same nnz/flop columns.
            let mut a2 = a.clone();
            for (i, v) in a2.values_mut().iter_mut().enumerate() {
                *v *= 1.0 + 1e-4 * ((i % 7) as f64);
            }
            let (solve_flops, refactor_flops) = {
                let mut counted = FlopCounter::new();
                lu.solve_into(&b, &mut x, &mut w, &mut counted)
                    .expect("solves");
                let solve = counted.total();
                let mut probe = lu.clone();
                probe.refactor(&a2, &mut counted).expect("refactors");
                (solve, counted.total() - solve)
            };
            println!(
                "  mesh{n} {tag:>7}: nnz_lu {:>6}, solve {:>7} flops, refactor {:>8} flops, \
                 {} supernodes over {}/{} columns, default gate: {}",
                lu.nnz(),
                solve_flops,
                refactor_flops,
                lu.supernode_count(),
                lu.supernode_cols(),
                lu.dim(),
                if default_gate { "blocked" } else { "scalar" },
            );

            group.bench_function(&format!("scalar_{tag}"), |bch| {
                bch.iter(|| {
                    lu.solve_into_scalar(black_box(&b), &mut x, &mut w, &mut flops)
                        .expect("solves")
                })
            });
            group.bench_function(&format!("blocked_{tag}"), |bch| {
                bch.iter(|| {
                    lu.solve_into(black_box(&b), &mut x, &mut w, &mut flops)
                        .expect("solves")
                })
            });
            group.bench_function(&format!("k_singles_{tag}"), |bch| {
                bch.iter(|| {
                    for j in 0..K {
                        lu.solve_into(
                            black_box(&bk[j * dim..(j + 1) * dim]),
                            &mut x,
                            &mut w,
                            &mut flops,
                        )
                        .expect("solves");
                    }
                })
            });
            group.bench_function(&format!("batched_k{K}_{tag}"), |bch| {
                bch.iter(|| {
                    lu.solve_many_into(black_box(&bk), K, &mut x, &mut w, &mut flops)
                        .expect("solves")
                })
            });

            // Refactor paths (values-only updates — the sweep/transient
            // hot operation).
            let mut lu_blocked = lu.clone();
            let mut lu_scalar = lu.clone();
            group.bench_function(&format!("refactor_scalar_{tag}"), |bch| {
                bch.iter(|| {
                    lu_scalar
                        .refactor_scalar(black_box(&a2), &mut flops)
                        .expect("refactors")
                })
            });
            group.bench_function(&format!("refactor_blocked_{tag}"), |bch| {
                bch.iter(|| {
                    lu_blocked
                        .refactor(black_box(&a2), &mut flops)
                        .expect("refactors")
                })
            });
        }

        group.finish();
    }
}

criterion_group!(benches, bench_solve);
criterion_main!(benches);
