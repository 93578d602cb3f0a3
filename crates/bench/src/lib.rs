//! Workloads and reference algorithms for the benchmark harness.
//!
//! Each Criterion bench target in `benches/` regenerates one figure or
//! construction of the paper at scale (DESIGN.md §3 maps them); this
//! library holds the shared workload generators and the *naive* reference
//! algorithms used by the ablation benches (DESIGN.md §6).

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular_core::{Symbol, SymbolSet, Table};
use tabular_relational::relation::{RelDatabase, Relation};
use tabular_schemalog::quads::QuadDb;

/// The sweep of (parts, regions) sizes used by the figure benches.
pub const SWEEP: &[(usize, usize)] = &[(4, 4), (16, 8), (64, 16), (128, 32)];

/// A random edge relation `E(From, To)` over `n` nodes with `m` edges
/// (seeded, reproducible).
pub fn random_edges(n: usize, m: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut e = Relation::new("E", &["From", "To"], &[]);
    for _ in 0..m {
        let a: usize = rng.gen_range(0..n);
        let b: usize = rng.gen_range(0..n);
        e.insert(vec![
            Symbol::value(&format!("n{a}")),
            Symbol::value(&format!("n{b}")),
        ])
        .expect("arity");
    }
    e
}

/// A chain graph `n0 → n1 → … → n_{len}` (worst case for transitive
/// closure iteration depth).
pub fn chain_edges(len: usize) -> Relation {
    let mut e = Relation::new("E", &["From", "To"], &[]);
    for i in 0..len {
        e.insert(vec![
            Symbol::value(&format!("n{i}")),
            Symbol::value(&format!("n{}", i + 1)),
        ])
        .expect("arity");
    }
    e
}

/// The Theorem 4.1 transitive-closure loop written directly in TA — the
/// workload behind the `ablation/delta_while_tc` bench group and the
/// delta-`while` row of the report. The body is ground, tag-free, and
/// loop-free, so the interpreter's `Delta` strategy applies; the
/// loop-invariant `EStep` copy and the append-only growth of `TC`
/// exercise both statement skipping and incremental recomputation.
pub fn ta_tc_program() -> tabular_algebra::Program {
    tabular_algebra::parser::parse(
        "TC <- COPY(E)
         Frontier <- COPY(E)
         while Frontier do
           EStep <- COPY(E)
           RTC <- RENAME[A -> A0](TC)
           RTC <- RENAME[B -> B0](RTC)
           Joined <- PRODUCT(RTC, EStep)
           Matched <- SELECT[B0 = A](Joined)
           Step <- PROJECT[{A0, B}](Matched)
           Step <- RENAME[A0 -> A](Step)
           Frontier <- DIFFERENCE(Step, TC)
           TC <- CLASSICALUNION(TC, Frontier)
         end",
    )
    .expect("fixed program parses")
}

/// [`ta_tc_program`] with the loop's `PRODUCT`-then-`SELECT` pair
/// replaced by the fused hash-join operator the optimizer introduces —
/// the workload behind the `join_fused` report row. Same closure, but
/// the `|RTC| · |EStep|` intermediate product is never materialized:
/// matching rows are emitted straight from the hash probe, and the
/// delta strategy probes only the rows `RTC` gained since the previous
/// iteration.
pub fn ta_tc_fused_program() -> tabular_algebra::Program {
    tabular_algebra::parser::parse(
        "TC <- COPY(E)
         Frontier <- COPY(E)
         while Frontier do
           EStep <- COPY(E)
           RTC <- RENAME[A -> A0](TC)
           RTC <- RENAME[B -> B0](RTC)
           Matched <- FUSEDJOIN[B0 = A](RTC, EStep)
           Step <- PROJECT[{A0, B}](Matched)
           Step <- RENAME[A0 -> A](Step)
           Frontier <- DIFFERENCE(Step, TC)
           TC <- CLASSICALUNION(TC, Frontier)
         end",
    )
    .expect("fixed program parses")
}

/// A chain graph as a tabular database `E[A, B]` for [`ta_tc_program`].
pub fn ta_chain_db(len: usize) -> tabular_core::Database {
    let rows: Vec<[String; 2]> = (0..len)
        .map(|i| [format!("n{i}"), format!("n{}", i + 1)])
        .collect();
    let rows: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
    tabular_core::Database::from_tables([Table::relational("E", &["A", "B"], &rows)])
}

/// The quad view of a scaled sales database for the SchemaLog benches.
pub fn sales_quads(parts: usize, regions: usize) -> QuadDb {
    let rel = tabular_core::fixtures::make_sales_relation(parts, regions);
    let mut db = RelDatabase::new();
    db.set(Relation::from_table(&rel).expect("relational"));
    QuadDb::from_relations(&db)
}

/// The naive clean-up reference: for each group, pairwise subsumption
/// tests against every candidate join (quadratic in the group size),
/// instead of the componentwise join. Produces the same result; exists
/// for the `ablation_cleanup` bench.
pub fn cleanup_naive(r: &Table, by: &SymbolSet, on: &SymbolSet, name: Symbol) -> Table {
    // Reuse the real implementation's grouping by running it and checking
    // subsumption the slow way: we recompute groups here explicitly.
    let by_cols = r.cols_in(by);
    let mut keys: Vec<Vec<Symbol>> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 1..=r.height() {
        if !on.contains(r.get(i, 0)) {
            continue;
        }
        let mut key = vec![r.get(i, 0)];
        key.extend(by_cols.iter().map(|&j| r.get(i, j)));
        match keys.iter().position(|k| *k == key) {
            Some(g) => groups[g].push(i),
            None => {
                keys.push(key);
                groups.push(vec![i]);
            }
        }
    }

    let mut t = Table::new(name, 0, r.width());
    for j in 1..=r.width() {
        t.set(0, j, r.col_attr(j));
    }
    let mut done = vec![false; r.height() + 1];
    for i in 1..=r.height() {
        if done[i] {
            continue;
        }
        let group = groups
            .iter()
            .find(|g| g.contains(&i))
            .cloned()
            .unwrap_or_else(|| vec![i]);
        if group.len() == 1 && group[0] == i && !on.contains(r.get(i, 0)) {
            t.push_row(r.storage_row(i).to_vec());
            continue;
        }
        // Candidate join: accumulate, then verify by *pairwise
        // subsumption* against every member (the quadratic check).
        let mut acc = r.storage_row(group[0]).to_vec();
        let mut ok = true;
        'outer: for &g in &group[1..] {
            for (a, &b) in acc.iter_mut().zip(r.storage_row(g)) {
                match a.join(b) {
                    Some(j) => *a = j,
                    None => {
                        ok = false;
                        break 'outer;
                    }
                }
            }
        }
        if ok {
            // Quadratic verification pass.
            let candidate = {
                let mut c = Table::new(name, 0, r.width());
                for j in 1..=r.width() {
                    c.set(0, j, r.col_attr(j));
                }
                c.push_row(acc.clone());
                c
            };
            ok = group.iter().all(|&g| r.row_subsumed_by(g, &candidate, 1));
        }
        if ok {
            t.push_row(acc);
        } else {
            for &g in &group {
                t.push_row(r.storage_row(g).to_vec());
            }
        }
        for &g in &group {
            done[g] = true;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_algebra::ops;
    use tabular_core::fixtures;

    #[test]
    fn naive_cleanup_matches_real_cleanup() {
        let grouped = fixtures::figure4_grouped();
        let by = SymbolSet::from_iter([Symbol::name("Part")]);
        let on = SymbolSet::from_iter([Symbol::Null]);
        let fast = ops::cleanup(&grouped, &by, &on, Symbol::name("C"));
        let naive = cleanup_naive(&grouped, &by, &on, Symbol::name("C"));
        assert!(fast.equiv(&naive), "fast:\n{fast}\nnaive:\n{naive}");
    }

    #[test]
    fn generators_are_seeded() {
        assert_eq!(
            random_edges(10, 20, 7).canonical(),
            random_edges(10, 20, 7).canonical()
        );
        assert_eq!(chain_edges(5).len(), 5);
        assert!(!sales_quads(4, 4).is_empty());
    }

    #[test]
    fn ta_tc_workload_closes_the_chain_under_both_strategies() {
        use tabular_algebra::{run_governed_traced, Budget, EvalLimits, WhileStrategy};
        let p = ta_tc_program();
        let db = ta_chain_db(8);
        let naive = EvalLimits {
            while_strategy: WhileStrategy::Naive,
            ..EvalLimits::default()
        };
        let delta = EvalLimits {
            while_strategy: WhileStrategy::Delta,
            ..EvalLimits::default()
        };
        let (out_n, _, _) = run_governed_traced(&p, &db, &Budget::from_limits(&naive)).unwrap();
        let (out_d, stats, _) = run_governed_traced(&p, &db, &Budget::from_limits(&delta)).unwrap();
        // 8 edges close to 9·8/2 = 36 pairs.
        assert_eq!(out_d.table_str("TC").unwrap().height(), 36);
        assert_eq!(
            out_n.table_str("TC").unwrap(),
            out_d.table_str("TC").unwrap()
        );
        assert_eq!(stats.while_fallback_naive, 0, "workload must be delta-safe");
        assert!(stats.while_delta_skipped > 0);
    }

    #[test]
    fn fused_tc_workload_matches_unfused_and_runs_the_kernel() {
        use tabular_algebra::{run_governed_traced, Budget, EvalLimits, WhileStrategy};
        let db = ta_chain_db(8);
        for strategy in [WhileStrategy::Naive, WhileStrategy::Delta] {
            let limits = EvalLimits {
                while_strategy: strategy,
                ..EvalLimits::default()
            };
            let (out_u, _, _) =
                run_governed_traced(&ta_tc_program(), &db, &Budget::from_limits(&limits)).unwrap();
            let (out_f, stats, _) =
                run_governed_traced(&ta_tc_fused_program(), &db, &Budget::from_limits(&limits))
                    .unwrap();
            assert_eq!(
                out_u.table_str("TC").unwrap(),
                out_f.table_str("TC").unwrap()
            );
            assert!(stats.join_fused > 0, "the hash kernel must run");
            assert_eq!(stats.join_unfused, 0, "the workload keys are fusable");
            assert_eq!(stats.while_fallback_naive, 0, "workload must be delta-safe");
        }
    }
}
