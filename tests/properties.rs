//! Property-based tests on the core data structures and the algebra's
//! invariants, over arbitrary (messy) tables: duplicated attributes, data
//! in attribute positions, ⊥ everywhere.

mod common;

use common::{arb_database, arb_fact_table, arb_symbol, arb_table, arb_value};
use proptest::prelude::*;
use tables_paradigm::algebra::ops;
use tables_paradigm::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ------------------------------------------------------------------
    // Model-level invariants (§2)
    // ------------------------------------------------------------------

    #[test]
    fn transpose_is_involutive(t in arb_table()) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn canonicalize_is_idempotent(t in arb_table()) {
        let c = t.canonicalize();
        prop_assert_eq!(c.canonicalize(), c);
    }

    #[test]
    fn equiv_is_reflexive_and_permutation_blind(t in arb_table()) {
        prop_assert!(t.equiv(&t));
        if t.height() >= 2 {
            let mut rows: Vec<usize> = (1..=t.height()).collect();
            rows.reverse();
            prop_assert!(t.equiv(&t.select_rows(&rows)));
        }
        if t.width() >= 2 {
            let mut cols: Vec<usize> = (1..=t.width()).collect();
            cols.rotate_left(1);
            prop_assert!(t.equiv(&t.select_cols(&cols)));
        }
    }

    #[test]
    fn weak_equality_laws(a in arb_symbol(), b in arb_symbol()) {
        // weak_eq is reflexive and symmetric; ⊥ relates to everything.
        prop_assert!(a.weak_eq(a));
        prop_assert_eq!(a.weak_eq(b), b.weak_eq(a));
        prop_assert!(Symbol::Null.weak_eq(a));
    }

    #[test]
    fn join_is_commutative_and_respects_subsumption(a in arb_symbol(), b in arb_symbol()) {
        prop_assert_eq!(a.join(b), b.join(a));
        if let Some(j) = a.join(b) {
            prop_assert!(a.subsumed_by(j));
            prop_assert!(b.subsumed_by(j));
        }
    }

    #[test]
    fn row_subsumption_is_reflexive_and_transitive_on_padding(t in arb_table()) {
        for i in 1..=t.height() {
            prop_assert!(t.row_subsumed_by(i, &t, i));
        }
    }

    // ------------------------------------------------------------------
    // Partition-parallel join ≡ serial join, byte for byte.
    // ------------------------------------------------------------------

    /// `join_partitioned` must equal `join` exactly — header, row order,
    /// row attributes — on arbitrary messy operands (⊥ keys join ⊥ keys,
    /// duplicated keys fan out, data in attribute positions) for every
    /// shard count 1..=8 and pool size, with the per-shard row counts
    /// summing to the output height.
    #[test]
    fn join_partitioned_matches_join_exactly(
        r in arb_table(),
        s in arb_table(),
        kl in 0usize..8,
        kr in 0usize..8,
        shards in 1usize..=8,
        threads in 1usize..=4,
    ) {
        use tables_paradigm::algebra::pool::ShardPool;
        prop_assume!(r.width() >= 1 && s.width() >= 1);
        let cols = ops::JoinCols {
            left: 1 + kl % r.width(),
            right: 1 + kr % s.width(),
        };
        let name = Symbol::name("T");
        let serial = ops::join(&r, &s, cols, name);
        let pool = ShardPool::new(threads);
        let (part, report) = ops::join_partitioned(
            &r, &s, cols, name, &pool, shards, &|| Ok(()), &mut |_| Ok(()),
        ).unwrap();
        prop_assert_eq!(&part, &serial, "partitioned join must be byte-identical");
        prop_assert_eq!(report.iter().map(|p| p.rows).sum::<usize>(), serial.height());
        prop_assert!(report.len() <= shards);
    }

    // ------------------------------------------------------------------
    // Storage engine: structural sharing never leaks writes.
    // ------------------------------------------------------------------

    #[test]
    fn snapshot_mutation_never_alters_the_original(db in arb_database()) {
        use tables_paradigm::core::io::to_csv;
        // An independent materialization of the original contents: handle
        // equality would pass even if a write leaked through a shared
        // buffer, rendered bytes cannot.
        let before: Vec<String> = db.tables().iter().map(to_csv).collect();

        // Route 1: in-store writes on a snapshot.
        let mut snap = db.snapshot();
        for name in db.names().iter() {
            snap.update_named(name, |t| {
                t.push_row(vec![Symbol::value("mutant"); t.width() + 1]);
                t.set(1, 0, Symbol::value("mutant"));
            });
        }
        snap.insert(Table::relational("Mutant", &["A"], &[&["1"]]));
        snap.retain(|t| t.height() > 1);

        // Route 2: direct writes through a handle cloned out of a snapshot.
        let snap2 = db.snapshot();
        for t in snap2.tables() {
            let mut h = t.clone();
            prop_assert!(h.shares_cells_with(t));
            for i in 1..=h.height() {
                for j in 0..=h.width() {
                    h.set(i, j, Symbol::value("x"));
                }
            }
            prop_assert!(!h.shares_cells_with(t));
        }

        let after: Vec<String> = db.tables().iter().map(to_csv).collect();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn shared_and_unshared_tables_round_trip_identically(t in arb_table()) {
        use tables_paradigm::core::io::{from_csv, to_csv};
        let shared = t.clone();
        prop_assert!(shared.shares_cells_with(&t));
        // Rebuild an unshared twin cell by cell.
        let mut unshared = Table::new(t.name(), t.height(), t.width());
        for i in 0..=t.height() {
            for j in 0..=t.width() {
                unshared.set(i, j, t.get(i, j));
            }
        }
        prop_assert!(!unshared.shares_cells_with(&t));
        let bytes_shared = to_csv(&shared);
        let bytes_unshared = to_csv(&unshared);
        prop_assert_eq!(&bytes_shared, &bytes_unshared);
        let back = from_csv(&bytes_shared).expect("csv round trip");
        prop_assert_eq!(back, t);
    }

    // ------------------------------------------------------------------
    // Traditional operations (§3.1)
    // ------------------------------------------------------------------

    #[test]
    fn union_height_and_width_add(a in arb_table(), b in arb_table()) {
        let u = ops::union(&a, &b, Symbol::name("U"));
        prop_assert_eq!(u.height(), a.height() + b.height());
        prop_assert_eq!(u.width(), a.width() + b.width());
    }

    #[test]
    fn difference_with_self_is_empty(t in arb_table()) {
        prop_assert_eq!(ops::difference(&t, &t, Symbol::name("D")).height(), 0);
    }

    #[test]
    fn difference_never_grows(a in arb_table(), b in arb_table()) {
        let d = ops::difference(&a, &b, Symbol::name("D"));
        prop_assert!(d.height() <= a.height());
        // Every surviving row is a row of a.
        for i in 1..=d.height() {
            prop_assert!((1..=a.height()).any(|k| a.storage_row(k) == d.storage_row(i)));
        }
    }

    #[test]
    fn intersection_is_commutative_up_to_content(a in arb_table(), b in arb_table()) {
        let x = ops::intersect(&a, &b, Symbol::name("I"));
        let y = ops::intersect(&b, &a, Symbol::name("I"));
        // Same number of matched rows both ways (contents live in each
        // operand's own scheme, so compare cardinality).
        prop_assert_eq!(x.height(), y.height());
    }

    #[test]
    fn product_cardinality(a in arb_table(), b in arb_table()) {
        let p = ops::product(&a, &b, Symbol::name("P"));
        prop_assert_eq!(p.height(), a.height() * b.height());
    }

    #[test]
    fn project_star_is_identity_on_columns(t in arb_table()) {
        let p = ops::project(&t, &t.scheme(), Symbol::name("P"));
        prop_assert_eq!(p.width(), t.width());
        prop_assert_eq!(p.height(), t.height());
    }

    #[test]
    fn select_keeps_a_subset(t in arb_table(), a in arb_symbol(), b in arb_symbol()) {
        let s = ops::select(&t, a, b, Symbol::name("S"));
        prop_assert!(s.height() <= t.height());
    }

    #[test]
    fn rename_then_rename_back(t in arb_table(), v in arb_value()) {
        // Renaming to a fresh attribute and back is the identity whenever
        // the new name did not already occur.
        let fresh = Symbol::name("FreshAttr!");
        prop_assume!(!t.scheme().contains(fresh));
        let renamed = ops::rename(&t, v, fresh, t.name());
        let back = ops::rename(&renamed, fresh, v, t.name());
        prop_assert_eq!(back, t);
    }

    // ------------------------------------------------------------------
    // Restructuring (§3.2) and redundancy removal (§3.4)
    // ------------------------------------------------------------------

    #[test]
    fn group_preserves_information(t in arb_fact_table()) {
        // group then merge then ⊥-elimination recovers the original rows.
        let by = SymbolSet::from_iter([Symbol::name("C")]);
        let on = SymbolSet::from_iter([Symbol::name("M")]);
        let g = ops::group(&t, &by, &on, Symbol::name("G"));
        let m = ops::merge(&g, &on, &by, Symbol::name("M2"));
        // Every original tuple appears as a row of the merged table.
        for i in 1..=t.height() {
            let want = [t.get(i, 1), t.get(i, 2), t.get(i, 3)];
            prop_assert!(
                (1..=m.height()).any(|k| {
                    let row = m.data_row(k);
                    row.contains(&want[0]) && row.contains(&want[1]) && row.contains(&want[2])
                }),
                "tuple {:?} lost by group∘merge", want
            );
        }
    }

    #[test]
    fn split_partitions_the_rows(t in arb_fact_table()) {
        let on = SymbolSet::from_iter([Symbol::name("C")]);
        let parts = ops::split(&t, &on, Symbol::name("S"));
        let data_rows: usize = parts.iter().map(|p| p.height().saturating_sub(1)).sum();
        prop_assert_eq!(data_rows, t.height());
        // Each part has exactly one header row (row attribute C).
        for p in &parts {
            let headers = (1..=p.height())
                .filter(|&i| p.get(i, 0) == Symbol::name("C"))
                .count();
            prop_assert_eq!(headers, 1);
        }
    }

    #[test]
    fn merge_inverts_group_on_cleaned_tables(t in arb_fact_table()) {
        // Figure 4/5 round trip, property-style. The paper notes the
        // merged-back table "yields a representation of the table, but
        // which is even more uneconomical": the grouping pads sparse
        // (K, C) combinations with ⊥-rows that survive clean-up, so the
        // round trip holds up to *weak equivalence* (mutual row
        // subsumption), the paper's notion of same information content.
        let by = SymbolSet::from_iter([Symbol::name("C")]);
        let on = SymbolSet::from_iter([Symbol::name("M")]);
        let g = ops::group(&t, &by, &on, Symbol::name("G"));
        let m = ops::merge(&g, &on, &by, Symbol::name("M2"));
        let purged = ops::purge(&m, &m.scheme(), &SymbolSet::new(), t.name());
        let cleaned = ops::cleanup(&purged, &purged.scheme(), &purged.row_scheme(), t.name());
        for i in 1..=t.height() {
            prop_assert!(
                (1..=cleaned.height()).any(|k| t.row_subsumed_by(i, &cleaned, k)),
                "original row {i} lost by merge ∘ group:\noriginal:\n{t}\nrecovered:\n{cleaned}"
            );
        }
        for k in 1..=cleaned.height() {
            // Rows with ⊥ under M are the grouping's padding for sparse
            // (K, C) combinations — carrying no information, they are
            // weakly below everything and exempt from soundness.
            let m_entries = cleaned.row_entries_named(k, Symbol::name("M"));
            if m_entries.iter().all(|s| s.is_null()) {
                continue;
            }
            prop_assert!(
                (1..=t.height()).any(|i| cleaned.row_subsumed_by(k, &t, i)),
                "merge ∘ group invented row {k}:\noriginal:\n{t}\nrecovered:\n{cleaned}"
            );
        }
    }

    #[test]
    fn collapse_inverts_split_on_cleaned_tables(t in arb_fact_table()) {
        let on = SymbolSet::from_iter([Symbol::name("C")]);
        let parts = ops::split(&t, &on, t.name());
        let refs: Vec<&Table> = parts.iter().collect();
        let collapsed = ops::collapse(&refs, &on, t.name());
        let purged = ops::purge(&collapsed, &collapsed.scheme(), &SymbolSet::new(), t.name());
        let cleaned = ops::cleanup(&purged, &purged.scheme(), &purged.row_scheme(), t.name());
        prop_assert!(
            cleaned.equiv(&t.dedup_rows()),
            "collapse ∘ split failed to round-trip:\noriginal:\n{t}\nrecovered:\n{cleaned}"
        );
    }

    #[test]
    fn transpose_round_trips_on_cleaned_tables(t in arb_table()) {
        // The involution holds on any table; on a cleaned table the
        // cleaned form is preserved as well (clean-up and transposition
        // commute through the purge duality).
        let cleaned = ops::cleanup(&t, &t.scheme(), &t.row_scheme(), t.name());
        prop_assert_eq!(cleaned.transpose().transpose(), cleaned);
    }

    #[test]
    fn purge_is_idempotent(t in arb_table()) {
        let on = t.scheme();
        let by = t.row_scheme();
        let once = ops::purge(&t, &on, &by, t.name());
        let twice = ops::purge(&once, &on, &by, t.name());
        prop_assert_eq!(&once, &twice, "purge not idempotent on:\n{}", t);
    }

    #[test]
    fn cleanup_is_idempotent_and_shrinking(t in arb_table()) {
        let by = t.scheme();
        let on = t.row_scheme();
        let once = ops::cleanup(&t, &by, &on, t.name());
        prop_assert!(once.height() <= t.height());
        let twice = ops::cleanup(&once, &by, &on, t.name());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn cleanup_output_subsumes_input_rows(t in arb_table()) {
        let by = SymbolSet::new();
        let on = t.row_scheme();
        let c = ops::cleanup(&t, &by, &on, t.name());
        for i in 1..=t.height() {
            prop_assert!(
                (1..=c.height()).any(|k| t.get(i, 0) == c.get(k, 0)
                    && t.row_subsumed_by(i, &c, k)),
                "input row {} not subsumed", i
            );
        }
    }

    #[test]
    fn classical_union_is_idempotent_commutative(t in arb_fact_table()) {
        let u = ops::classical_union(&t, &t, t.name());
        prop_assert!(u.equiv(&t.dedup_rows()), "u:\n{u}\nt:\n{t}");
    }

    // ------------------------------------------------------------------
    // Transposition duality (§3.3)
    // ------------------------------------------------------------------

    #[test]
    fn purge_is_the_transposed_cleanup(t in arb_table()) {
        let on = t.scheme();
        let by = t.row_scheme();
        let direct = ops::purge(&t, &on, &by, t.name());
        let via_transpose = {
            let flipped = t.transpose();
            let cleaned = ops::cleanup(&flipped, &by, &on, t.name());
            let mut back = cleaned.transpose();
            back.set_name(t.name());
            back
        };
        prop_assert_eq!(direct, via_transpose);
    }

    // ------------------------------------------------------------------
    // Canonical representation (Lemmas 4.2/4.3) — also covered in
    // lemma_4_2_4_3.rs; kept here as the headline invariant.
    // ------------------------------------------------------------------

    #[test]
    fn canonical_round_trip(db in arb_database()) {
        use tables_paradigm::canonical::{decode, encode};
        let back = decode(&encode(&db)).expect("decode");
        prop_assert!(back.equiv(&db));
    }

    // ------------------------------------------------------------------
    // OLAP: algebraic pivot equals the hand-coded baseline.
    // ------------------------------------------------------------------

    #[test]
    fn pivot_matches_baseline(t in arb_fact_table()) {
        prop_assume!(t.height() > 0);
        let algebraic = pivot(
            &t,
            Symbol::name("C"),
            Symbol::name("M"),
            &Budget::default(),
        ).expect("pivot");
        let direct = tables_paradigm::olap::baseline::pivot_direct(
            &t,
            Symbol::name("C"),
            Symbol::name("M"),
        ).expect("baseline");
        prop_assert!(algebraic.equiv(&direct), "algebraic:\n{algebraic}\ndirect:\n{direct}");
    }

    // ------------------------------------------------------------------
    // Join fusion (optimizer): FUSEDJOIN ≡ SELECT ∘ PRODUCT
    // ------------------------------------------------------------------

    #[test]
    fn fused_join_op_equals_select_over_product(
        mut r in arb_table(),
        mut s in arb_table(),
        a in arb_symbol(),
        b in arb_symbol(),
    ) {
        // The fused operator is *defined* as SELECT[a=b](PRODUCT(R, S)):
        // whether the hash kernel applies or evaluation falls back to the
        // materialized product, the results must be identical — on messy
        // tables too (repeated attributes, ⊥-heavy rows, data in
        // attribute positions, attributes absent from either operand).
        r.set_name(Symbol::name("R"));
        s.set_name(Symbol::name("S"));
        let db = Database::from_tables([r, s]);
        let select = OpKind::Select { a: Param::sym(a), b: Param::sym(b) };
        let fused = Program::new().assign(
            Param::name("T"),
            OpKind::FusedJoin { a: Param::sym(a), b: Param::sym(b) },
            vec![Param::name("R"), Param::name("S")],
        );
        let pipeline = Program::new()
            .assign(
                Param::name("P"),
                OpKind::Product,
                vec![Param::name("R"), Param::name("S")],
            )
            .assign(Param::name("T"), select, vec![Param::name("P")]);
        let f = run_governed_traced(&fused, &db, &Budget::default()).expect("fused run").0;
        let p = run_governed_traced(&pipeline, &db, &Budget::default()).expect("pipeline run").0;
        prop_assert_eq!(
            f.table(Symbol::name("T")).expect("fused output"),
            p.table(Symbol::name("T")).expect("pipeline output")
        );
    }

    #[test]
    fn fused_join_kernel_matches_pipeline_on_forced_keys(
        mut r in arb_table(),
        mut s in arb_table(),
    ) {
        // Overwrite one column attribute per operand with keys outside the
        // generator pool, so fusability is guaranteed and it is the hash
        // kernel — not the definitional fallback — being compared against
        // the unfused pipeline, including on ⊥-heavy key columns.
        let (ka, kb) = (Symbol::name("JoinA"), Symbol::name("JoinB"));
        r.set(0, 1, ka);
        s.set(0, 1, kb);
        let cols = ops::fusable_join_cols(&r, &s, ka, kb).expect("unique opposite keys");
        prop_assert_eq!(cols.left, 1);
        prop_assert_eq!(cols.right, 1);
        let name = Symbol::name("T");
        let fused = ops::join(&r, &s, cols, name);
        let pipeline = ops::select(&ops::product(&r, &s, name), ka, kb, name);
        prop_assert_eq!(fused, pipeline);
    }

    // ------------------------------------------------------------------
    // Restructuring fusion (optimizer):
    // FUSEDRESTRUCTURE ≡ PURGE ∘ CLEANUP ∘ GROUP
    // ------------------------------------------------------------------

    #[test]
    fn fused_restructure_op_equals_staged_chain(
        mut r in arb_table(),
        (a, b) in (arb_symbol(), arb_symbol()),
        (k, o) in (arb_symbol(), arb_symbol()),
    ) {
        // The fused operator is *defined* as the staged chain: whether the
        // single-pass kernel applies or evaluation falls back to staging,
        // the visible result must be identical — on messy tables too
        // (repeated attributes, ⊥ in parameters, attributes absent from
        // the operand). Covered for both the 3-op chain and the 2-op
        // CLEANUP ∘ GROUP prefix.
        r.set_name(Symbol::name("R"));
        let db = Database::from_tables([r]);
        for with_purge in [true, false] {
            let purge = with_purge.then(|| (Param::sym(b), Param::sym(a)));
            let fused = Program::new().assign(
                Param::name("T"),
                OpKind::FusedRestructure(Box::new(RestructureChain {
                    group_by: Param::sym(a),
                    group_on: Param::sym(b),
                    cleanup_by: Param::sym(k),
                    cleanup_on: Param::sym(o),
                    purge,
                })),
                vec![Param::name("R")],
            );
            let mut staged = Program::new()
                .assign(
                    Param::name("G"),
                    OpKind::Group { by: Param::sym(a), on: Param::sym(b) },
                    vec![Param::name("R")],
                )
                .assign(
                    Param::name("T"),
                    OpKind::CleanUp { by: Param::sym(k), on: Param::sym(o) },
                    vec![Param::name("G")],
                );
            if with_purge {
                staged = Program::new()
                    .assign(
                        Param::name("G"),
                        OpKind::Group { by: Param::sym(a), on: Param::sym(b) },
                        vec![Param::name("R")],
                    )
                    .assign(
                        Param::name("C2"),
                        OpKind::CleanUp { by: Param::sym(k), on: Param::sym(o) },
                        vec![Param::name("G")],
                    )
                    .assign(
                        Param::name("T"),
                        OpKind::Purge { on: Param::sym(b), by: Param::sym(a) },
                        vec![Param::name("C2")],
                    );
            }
            let f = run_governed_traced(&fused, &db, &Budget::default()).expect("fused run").0;
            let s = run_governed_traced(&staged, &db, &Budget::default()).expect("staged run").0;
            prop_assert_eq!(
                f.table(Symbol::name("T")).expect("fused output"),
                s.table(Symbol::name("T")).expect("staged output"),
                "with_purge = {}", with_purge
            );
        }
    }

    #[test]
    fn fused_restructure_kernel_matches_staged_on_pivot_shape(t in arb_fact_table()) {
        // `arb_fact_table` keeps one fact per (K, C), so the pivot chain
        // is conflict-free and the single-pass kernel *must* apply (no
        // vacuous pass through the fallback) and reproduce the staged
        // pipeline byte for byte.
        let spec = ops::RestructureSpec {
            group_by: SymbolSet::from_iter([Symbol::name("C")]),
            group_on: SymbolSet::from_iter([Symbol::name("M")]),
            cleanup_by: SymbolSet::from_iter([Symbol::name("K")]),
            cleanup_on: SymbolSet::from_iter([Symbol::Null]),
            purge: Some((
                SymbolSet::from_iter([Symbol::name("M")]),
                SymbolSet::from_iter([Symbol::name("C")]),
            )),
        };
        let name = Symbol::name("Pivoted");
        let fused = ops::fused_restructure(&t, &spec, name);
        prop_assert!(fused.is_some(), "kernel must apply to the conflict-free pivot shape");
        let g = ops::group(&t, &spec.group_by, &spec.group_on, name);
        let c = ops::cleanup(&g, &spec.cleanup_by, &spec.cleanup_on, name);
        let (p_on, p_by) = spec.purge.as_ref().expect("pivot spec purges");
        let staged = ops::purge(&c, p_on, p_by, name);
        prop_assert_eq!(fused.expect("checked above"), staged);
    }

    #[test]
    fn purge_and_cleanup_commute_on_grouped_fact_tables(t in arb_fact_table()) {
        // §3.4: on a grouped table the two redundancy removals act on
        // disjoint axes — the clean-up merges data rows (keyed by row
        // attribute and carried subtuple), the purge merges copy-block
        // columns (keyed by header tuple) — and with one fact per (K, C)
        // no merged cell ever receives two non-⊥ contributions, so the
        // paper's composition order is immaterial.
        let by = SymbolSet::from_iter([Symbol::name("C")]);
        let on = SymbolSet::from_iter([Symbol::name("M")]);
        let keys = SymbolSet::from_iter([Symbol::name("K")]);
        let rows = SymbolSet::from_iter([Symbol::Null]);
        let g = ops::group(&t, &by, &on, Symbol::name("G"));
        let cleanup_first = {
            let c = ops::cleanup(&g, &keys, &rows, Symbol::name("T"));
            ops::purge(&c, &on, &by, Symbol::name("T"))
        };
        let purge_first = {
            let p = ops::purge(&g, &on, &by, Symbol::name("T"));
            ops::cleanup(&p, &keys, &rows, Symbol::name("T"))
        };
        prop_assert!(
            cleanup_first.equiv(&purge_first),
            "cleanup∘purge:\n{purge_first}\npurge∘cleanup:\n{cleanup_first}"
        );
    }

    #[test]
    fn pivot_unpivot_round_trip(t in arb_fact_table()) {
        prop_assume!(t.height() > 0);
        let cross = pivot(&t, Symbol::name("C"), Symbol::name("M"), &Budget::default())
            .expect("pivot");
        let back = unpivot(&cross, Symbol::name("M"), Symbol::name("C"), &Budget::default())
            .expect("unpivot");
        prop_assert_eq!(back.height(), t.height());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Parser ↔ pretty-printer round trip over generated programs.
    #[test]
    fn parser_pretty_round_trip(
        // Leading 't' keeps generated names clear of the bare keywords
        // (while/do/end/by/on), which the grammar reserves.
        target in "t[a-z0-9]{0,6}",
        attr1 in "[A-Z][a-z0-9]{0,6}",
        attr2 in "[A-Z][a-z0-9]{0,6}",
        op_idx in 0usize..8,
    ) {
        use tables_paradigm::algebra::{parser::parse, pretty::render};
        let stmt = match op_idx {
            0 => format!("{target} <- GROUP[by {{{attr1}}} on {{{attr2}}}](R)"),
            1 => format!("{target} <- MERGE[on {{{attr1}}} by {{{attr2}}}](R)"),
            2 => format!("{target} <- PROJECT[{{* \\ {attr1}}}](R)"),
            3 => format!("{target} <- SELECT[{attr1} = {attr2}](R)"),
            4 => format!("{target} <- CLEANUP[by {{{attr1}}} on {{_}}](R)"),
            5 => format!("{target} <- SPLIT[on {{{attr1}, {attr2}}}](R)"),
            6 => format!("{target} <- TUPLENEW[{attr1}](R)"),
            _ => format!("while {target} do {target} <- DIFFERENCE({target}, R) end"),
        };
        let p1 = parse(&stmt).expect("generated statement parses");
        let p2 = parse(&render(&p1)).expect("rendered form re-parses");
        prop_assert_eq!(p1, p2);
    }
}

// ----------------------------------------------------------------------
// The parser faces untrusted wire input (the query service feeds request
// bodies straight into it): on arbitrary garbage it must return
// `Err(Parse)` or a valid program — never panic, and never recurse
// past its depth cap (a stack overflow aborts the whole service).
// ----------------------------------------------------------------------

/// A valid program exercising every operation, used as the seed for the
/// truncation property below.
const TRUNCATION_SEED: &str = "T <- UNION(R, S)\n\
     T <- RENAME[A -> B](R)\n\
     T <- PROJECT[{A, * \\ B}](R)\n\
     T <- SELECTCONST[A = v:50](R)\n\
     T <- GROUP[by {Region} on {Sold}](R)\n\
     T <- FUSEDRESTRUCTURE[group by {Region} on {Sold} cleanup by {Part} on {_} purge on {Sold} by {Region}](R)\n\
     T <- SWITCH[(Region, \"quoted \\\" string\")](R)\n\
     while T do T2 <- DIFFERENCE(T, *1) end\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte strings (lossily decoded, as the service decodes
    /// request bodies) parse to `Ok` or `Err`, never a panic.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        use tables_paradigm::algebra::parser::parse;
        let src = String::from_utf8_lossy(&bytes);
        let _ = parse(&src);
    }

    /// Strings over the grammar's own alphabet — keywords, operators,
    /// brackets, tags, quotes, multibyte identifiers — hit far deeper
    /// parser paths than uniform bytes; still no panics.
    #[test]
    fn parser_never_panics_on_token_soup(
        src in "[a-zA-Z0-9_vn:×λ京\\-<>=\\(\\)\\[\\]\\{\\}\\n,\\\\*\"' .]{0,120}",
    ) {
        use tables_paradigm::algebra::parser::parse;
        let _ = parse(&src);
    }

    /// Truncating a valid program at any byte (snapped to a char
    /// boundary), optionally with garbage appended at the cut, never
    /// panics.
    #[test]
    fn parser_never_panics_on_truncated_programs(
        cut in 0usize..1024,
        tail in "[a-z\\(\\[\\{\"\\\\]{0,8}",
    ) {
        use tables_paradigm::algebra::parser::parse;
        let mut cut = cut.min(TRUNCATION_SEED.len());
        while !TRUNCATION_SEED.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &TRUNCATION_SEED[..cut];
        let _ = parse(truncated);
        let _ = parse(&format!("{truncated}{tail}"));
    }
}

// ----------------------------------------------------------------------
// Degenerate-shape pins for GROUP and the fused restructuring kernel.
// ----------------------------------------------------------------------

/// The pivot-shaped spec over `Facts(K, C, M)` used by the proptests
/// above, shared by the degenerate pins.
fn facts_pivot_spec() -> ops::RestructureSpec {
    ops::RestructureSpec {
        group_by: SymbolSet::from_iter([Symbol::name("C")]),
        group_on: SymbolSet::from_iter([Symbol::name("M")]),
        cleanup_by: SymbolSet::from_iter([Symbol::name("K")]),
        cleanup_on: SymbolSet::from_iter([Symbol::Null]),
        purge: Some((
            SymbolSet::from_iter([Symbol::name("M")]),
            SymbolSet::from_iter([Symbol::name("C")]),
        )),
    }
}

fn staged_facts_pivot(t: &Table, name: Symbol) -> Table {
    let spec = facts_pivot_spec();
    let g = ops::group(t, &spec.group_by, &spec.group_on, name);
    let c = ops::cleanup(&g, &spec.cleanup_by, &spec.cleanup_on, name);
    let (p_on, p_by) = spec.purge.expect("pivot spec purges");
    ops::purge(&c, &p_on, &p_by, name)
}

#[test]
fn group_and_fused_restructure_pin_the_empty_table() {
    let empty = Table::relational("Facts", &["K", "C", "M"], &[]);
    let by = SymbolSet::from_iter([Symbol::name("C")]);
    let on = SymbolSet::from_iter([Symbol::name("M")]);
    let g = ops::group(&empty, &by, &on, Symbol::name("G"));
    // No data rows means no copy blocks: the grouped table is just the
    // carried K column under the one C header row, entirely ⊥.
    assert_eq!((g.height(), g.width()), (1, 1), "group of nothing:\n{g}");
    let fused = ops::fused_restructure(&empty, &facts_pivot_spec(), Symbol::name("T"))
        .expect("kernel applies to the empty pivot shape");
    assert_eq!(fused, staged_facts_pivot(&empty, Symbol::name("T")));
    assert_eq!(
        (fused.height(), fused.width()),
        (1, 1),
        "empty cross-tab keeps only the header row:\n{fused}"
    );
}

#[test]
fn group_and_fused_restructure_pin_the_singleton_table() {
    let one = Table::relational("Facts", &["K", "C", "M"], &[&["k0", "c0", "7"]]);
    let by = SymbolSet::from_iter([Symbol::name("C")]);
    let on = SymbolSet::from_iter([Symbol::name("M")]);
    let g = ops::group(&one, &by, &on, Symbol::name("G"));
    // One data row makes exactly one copy block: the carried K column
    // plus one grouped M column, under one C header row.
    assert_eq!(g.width(), 2, "singleton grouping blows up to K + 1·M:\n{g}");
    let fused = ops::fused_restructure(&one, &facts_pivot_spec(), Symbol::name("T"))
        .expect("kernel applies to the singleton pivot shape");
    assert_eq!(fused, staged_facts_pivot(&one, Symbol::name("T")));
    // The singleton cross-tab: a header row naming the one category and a
    // data row carrying (k0, 7).
    assert_eq!(
        fused.width(),
        2,
        "cross-tab is K + one category column:\n{fused}"
    );
    assert_eq!(
        fused.height(),
        2,
        "cross-tab is one header + one data row:\n{fused}"
    );
}
