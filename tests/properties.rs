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

    /// The join kernel must equal a nested-loop join exactly — header,
    /// row order, row attributes — on arbitrary messy operands (⊥ keys
    /// join ⊥ keys, duplicated keys fan out, data in attribute positions)
    /// for every shard count 1..=8 and pool size, with the per-range row
    /// counts summing to the output height.
    #[test]
    fn join_partitioned_matches_join_exactly(
        r in arb_table(),
        s in arb_table(),
        kl in 0usize..8,
        kr in 0usize..8,
        threads in 1usize..=4,
    ) {
        use tables_paradigm::algebra::pool::Executor;
        prop_assume!(r.width() >= 1 && s.width() >= 1);
        let cols = ops::JoinCols {
            left: 1 + kl % r.width(),
            right: 1 + kr % s.width(),
        };
        let name = Symbol::name("T");
        // Reference: every row pair in left-major order, keys compared as
        // plain symbols, the left-biased row-attribute join.
        let mut reference = Table::new(name, 0, r.width() + s.width());
        for j in 1..=r.width() {
            reference.set(0, j, r.col_attr(j));
        }
        for j in 1..=s.width() {
            reference.set(0, r.width() + j, s.col_attr(j));
        }
        for i in 1..=r.height() {
            for k in 1..=s.height() {
                if r.get(i, cols.left) == s.get(k, cols.right) {
                    let attr = r.get(i, 0).join(s.get(k, 0)).unwrap_or_else(|| r.get(i, 0));
                    let mut row = vec![attr];
                    row.extend_from_slice(r.data_row(i));
                    row.extend_from_slice(s.data_row(k));
                    reference.push_row(&row);
                }
            }
        }
        let pool = Executor::new(threads);
        for shards in 1..=8 {
            let probe = ops::JoinProbe::count(&r, 1, &s, cols, &pool, shards, &|| Ok(())).unwrap();
            prop_assert_eq!(probe.rows(), reference.height());
            let mut part = ops::product_header(&r, &s, name);
            let report = probe.scatter(&mut part, &pool, &|| Ok(())).unwrap();
            prop_assert_eq!(&part, &reference, "the kernel must be byte-identical at {} shards", shards);
            prop_assert_eq!(report.iter().map(|p| p.rows).sum::<usize>(), reference.height());
            prop_assert!(report.len() <= shards);
        }
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
                t.push_row(&vec![Symbol::value("mutant"); t.width() + 1]);
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
    fn purge_is_the_transposed_cleanup(
        t in prop_oneof![arb_table(), arb_purge_table()],
        on in arb_attr_choice(),
        by in arb_attr_choice(),
    ) {
        // The column-native purge must be byte-identical to the duality
        // it implements, for any `on`/`by`: empty, holding ⊥, naming
        // attributes the table lacks, or the table's own (row) scheme.
        let on = on.unwrap_or_else(|| t.scheme());
        let by = by.unwrap_or_else(|| t.row_scheme());
        let direct = ops::purge(&t, &on, &by, Symbol::name("P"));
        let via_transpose = {
            let flipped = transpose_by_cells(&t);
            let cleaned = ops::cleanup(&flipped, &by, &on, Symbol::name("P"));
            transpose_by_cells(&cleaned)
        };
        prop_assert_eq!(direct, via_transpose, "on {:?} by {:?} over:\n{}", on, by, t);
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
        let pool = tables_paradigm::algebra::pool::Executor::new(1);
        let probe = ops::JoinProbe::count(&r, 1, &s, cols, &pool, 1, &|| Ok(())).unwrap();
        let mut fused = ops::product_header(&r, &s, name);
        probe.scatter(&mut fused, &pool, &|| Ok(())).unwrap();
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

// ----------------------------------------------------------------------
// Purge oracle: the column-native purge against the transposed clean-up.
// ----------------------------------------------------------------------

/// The §3.3 transposition, cell by cell: an oracle independent of
/// `Table::transpose`'s one-pass buffer.
fn transpose_by_cells(t: &Table) -> Table {
    let mut out = Table::new(t.name(), t.width(), t.height());
    for i in 0..=t.height() {
        for j in 0..=t.width() {
            out.set(j, i, t.get(i, j));
        }
    }
    out
}

/// An attribute set for `PURGE[on … by …]`: `None` stands for the
/// table's own scheme (or row scheme); otherwise 0–3 symbols from the
/// pool, which may be ⊥, absent from the table, or empty, with ⊥ added
/// on demand.
fn arb_attr_choice() -> impl Strategy<Value = Option<SymbolSet>> {
    prop_oneof![
        1 => Just(None),
        3 => (proptest::collection::vec(arb_symbol(), 0..4), 0u8..2).prop_map(
            |(syms, null)| {
                let mut set = SymbolSet::from_iter(syms);
                if null == 1 {
                    set.insert(Symbol::Null);
                }
                Some(set)
            }
        ),
    ]
}

/// A table where purge has work to do: 0–4 data rows and 0–5 columns,
/// column and row attributes from {A, B, ⊥}, so attributes repeat, and
/// data from {v0, v1, ⊥}, so groups both join and conflict.
fn arb_purge_table() -> impl Strategy<Value = Table> {
    let attr = || {
        prop_oneof![
            Just(Symbol::name("A")),
            Just(Symbol::name("B")),
            Just(Symbol::Null)
        ]
    };
    let datum = || {
        prop_oneof![
            2 => Just(Symbol::Null),
            1 => Just(Symbol::value("v0")),
            1 => Just(Symbol::value("v1")),
        ]
    };
    (0usize..5, 0usize..6).prop_flat_map(move |(h, w)| {
        (
            proptest::collection::vec(attr(), w),
            proptest::collection::vec(attr(), h),
            proptest::collection::vec(datum(), h * w),
        )
            .prop_map(move |(cols, rows, data)| {
                let mut cells = vec![Symbol::name("T")];
                cells.extend(cols);
                for (i, &a) in rows.iter().enumerate() {
                    cells.push(a);
                    cells.extend_from_slice(&data[i * w..(i + 1) * w]);
                }
                Table::from_parts(h, w, cells)
            })
    })
}

// ----------------------------------------------------------------------
// Render oracle: the service answers each table with the JSON-escaped CSV
// cached in its shared cell buffer. The fused writer must produce exactly
// the bytes of the two-step `json::escape(&to_csv(t))`, and a cached
// rendering must never outlive a write.
// ----------------------------------------------------------------------

/// Text pieces that exercise every branch of the cell writer: sort tags
/// and ⊥ spellings, CSV specials, JSON escapes, other control
/// characters and non-ASCII text.
const RENDER_PIECES: &[&str] = &[
    "a", "Sales", "_", "⊥", "n:", "v:", ",", "\"", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\\", " ",
    "京", "é😀",
];

fn arb_render_symbol() -> impl Strategy<Value = Symbol> {
    let text = || {
        proptest::collection::vec(0..RENDER_PIECES.len(), 0..4)
            .prop_map(|ix| ix.iter().map(|&k| RENDER_PIECES[k]).collect::<String>())
    };
    prop_oneof![
        1 => Just(Symbol::Null),
        3 => text().prop_map(|s| Symbol::name(&s)),
        3 => text().prop_map(|s| Symbol::value(&s)),
    ]
}

/// A table of 0–3 data rows and columns over [`arb_render_symbol`],
/// name included.
fn arb_render_table() -> impl Strategy<Value = Table> {
    (0usize..4, 0usize..4).prop_flat_map(|(h, w)| {
        proptest::collection::vec(arb_render_symbol(), (h + 1) * (w + 1)).prop_map(move |cells| {
            let mut t = Table::new(cells[0], h, w);
            for (k, &s) in cells.iter().enumerate().skip(1) {
                t.set(k / (w + 1), k % (w + 1), s);
            }
            t
        })
    })
}

/// One write through public mutator number `which`.
fn mutate(t: &mut Table, which: usize, s: Symbol) {
    let width = t.width();
    match which {
        0 => t.set(t.height(), width, s),
        1 => t.set_name(s),
        2 => t.push_row(&vec![s; width + 1]),
        3 => t.append_rows(|rows| rows.push_row(&vec![s; width + 1])),
        _ => t.push_col(vec![s; t.height() + 1]),
    }
}

/// The cached JSON-mode rendering of `t` and whether it was a hit.
fn cached(t: &Table) -> (bool, String) {
    let mut out = String::new();
    let hit = tables_paradigm::core::io::write_json_csv_cached(t, &mut out);
    (hit, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_oracle_cached_equals_fresh(
        t in arb_render_table(),
        s in arb_render_symbol(),
        which in 0usize..5,
    ) {
        use tables_paradigm::core::io::{to_csv, write_csv, Escape};
        use tabular_server::json;
        let fresh = |t: &Table| json::escape(&to_csv(t));

        // The fused JSON mode is the two-step rendering, byte for byte.
        let mut fused = String::new();
        write_csv(&t, Escape::Json, &mut fused);
        prop_assert_eq!(&fused, &fresh(&t));

        // The first render fills the cache; the handle and its clones
        // then copy the same bytes.
        prop_assert_eq!(cached(&t), (false, fused.clone()));
        prop_assert_eq!(cached(&t), (true, fused.clone()));
        let clone = t.clone();
        prop_assert_eq!(cached(&clone), (true, fused.clone()));

        // A write through a shared handle copies the buffer, and the copy
        // starts without a rendering; the original keeps its own.
        let mut written = t.clone();
        mutate(&mut written, which, s);
        prop_assert!(!written.shares_cells_with(&t));
        prop_assert_eq!(cached(&written), (false, fresh(&written)));
        prop_assert_eq!(cached(&written), (true, fresh(&written)));
        prop_assert_eq!(cached(&t), (true, fused.clone()));

        // A write to the sole owner of a rendered buffer clears it. (The
        // runner keeps a clone of `t`, so `t` itself is never the sole
        // owner: rebuild the buffer.)
        let mut owned = t.map_symbols(|s| s);
        prop_assert_eq!(cached(&owned), (false, fused.clone()));
        prop_assert_eq!(cached(&owned), (true, fused));
        mutate(&mut owned, which, s);
        prop_assert_eq!(cached(&owned), (false, fresh(&written)));
    }
}

// ----------------------------------------------------------------------
// SPLIT: one hash lookup per row, one buffer per output.
// ----------------------------------------------------------------------

/// `SPLIT` as it was written before its kernel: a linear scan of the
/// combinations seen so far for each row, and every output built by
/// per-row `push_row`. The oracle of `split_matches_the_linear_scan`.
fn split_by_linear_scan(r: &Table, on: &SymbolSet, name: Symbol) -> Vec<Table> {
    let a_cols = r.cols_in(on);
    let rest = r.cols_not_in(on);
    let mut combos: Vec<Vec<Symbol>> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for i in 1..=r.height() {
        let key: Vec<Symbol> = a_cols.iter().map(|&j| r.get(i, j)).collect();
        match combos.iter().position(|c| *c == key) {
            Some(p) => members[p].push(i),
            None => {
                combos.push(key);
                members.push(vec![i]);
            }
        }
    }
    combos
        .iter()
        .zip(&members)
        .map(|(combo, rows)| {
            let mut t = Table::new(name, 0, rest.len());
            for (k, &j) in rest.iter().enumerate() {
                t.set(0, k + 1, r.col_attr(j));
            }
            for (k, &j) in a_cols.iter().enumerate() {
                let mut row = vec![combo[k]; rest.len() + 1];
                row[0] = r.col_attr(j);
                t.push_row(&row);
            }
            for &i in rows {
                let mut row = Vec::with_capacity(rest.len() + 1);
                row.push(r.get(i, 0));
                row.extend(rest.iter().map(|&j| r.get(i, j)));
                t.push_row(&row);
            }
            t
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The split kernel gives the same tables, in the same order, as the
    /// linear scan: on fact tables and on messy tables (repeated and ⊥
    /// attributes, ⊥ keys), splitting on any subset of the column
    /// attributes, ⊥ and absent attributes included.
    #[test]
    fn split_matches_the_linear_scan(
        t in prop_oneof![arb_table(), arb_fact_table()],
        mask in 0u8..16,
        extra in (0u8..2, arb_symbol()),
    ) {
        let mut on: SymbolSet = (1..=t.width())
            .filter(|j| mask & (1 << ((j - 1) % 4)) != 0)
            .map(|j| t.col_attr(j))
            .collect();
        if extra.0 == 1 {
            on.insert(extra.1);
        }
        let name = Symbol::name("S");
        prop_assert_eq!(ops::split(&t, &on, name), split_by_linear_scan(&t, &on, name));
    }

    /// A fingerprint continued over appended cells equals the fingerprint
    /// of the same cells built from scratch, whether or not it was cached
    /// before the append, after `push_row`, `append_rows` (through
    /// `product_append`) and `append_rows_uninit` (through a join
    /// scatter). A clone taken before the append keeps its fingerprint.
    #[test]
    fn fingerprint_follows_appends(
        r in arb_table(),
        s in arb_table(),
        warm in 0u8..2,
        kl in 0usize..8,
        kr in 0usize..8,
    ) {
        use tables_paradigm::algebra::pool::Executor;
        let from_scratch =
            |t: &Table| Table::from_parts(t.height(), t.width(), t.symbols().collect()).fingerprint();
        let name = Symbol::name("T");
        let warm = warm == 1;

        // push_row
        let mut t = r.clone();
        if warm {
            t.fingerprint();
        }
        let before = t.clone();
        let before_fp = from_scratch(&before);
        t.push_row(r.storage_row(1));
        prop_assert_eq!(t.fingerprint(), from_scratch(&t));
        prop_assert_ne!(t.fingerprint(), before_fp);
        prop_assert_eq!(before.fingerprint(), before_fp);

        // append_rows, through the delta engine's product step
        let mut acc = ops::product(&r, &s, name);
        if warm {
            acc.fingerprint();
        }
        let before = acc.clone();
        ops::product_append(&mut acc, &t, r.height() + 1, &s);
        prop_assert_eq!(acc.fingerprint(), from_scratch(&acc));
        prop_assert_eq!(&acc, &ops::product(&t, &s, name));
        prop_assert_eq!(before.fingerprint(), from_scratch(&before));

        // append_rows_uninit, through the join kernel's scatter
        let pool = Executor::new(2);
        let cols = ops::JoinCols {
            left: 1 + kl % r.width(),
            right: 1 + kr % s.width(),
        };
        let mut joined = ops::product_header(&r, &s, name);
        if warm {
            joined.fingerprint();
        }
        let probe = ops::JoinProbe::count(&r, 1, &s, cols, &pool, 2, &|| Ok(())).unwrap();
        probe.scatter(&mut joined, &pool, &|| Ok(())).unwrap();
        prop_assert_eq!(joined.fingerprint(), from_scratch(&joined));
        let before = joined.clone();
        let probe = ops::JoinProbe::count(&t, r.height() + 1, &s, cols, &pool, 2, &|| Ok(())).unwrap();
        probe.scatter(&mut joined, &pool, &|| Ok(())).unwrap();
        prop_assert_eq!(joined.fingerprint(), from_scratch(&joined));
        prop_assert_eq!(before.fingerprint(), from_scratch(&before));
    }
}

// ----------------------------------------------------------------------
// Row-index oracles: the kernels that group or match rows through the
// algebra's one row index, each against a hash-free reference that
// compares keys pairwise.
// ----------------------------------------------------------------------

/// CLEAN-UP as §3.4 states it: each participating row joins the first
/// group whose first member has its key (row attribute, `by`-entries),
/// found by comparing keys pairwise; a group of two or more rows with a
/// componentwise join becomes that join, at its first member's place.
fn cleanup_by_pairs(r: &Table, by: &SymbolSet, on: &SymbolSet, name: Symbol) -> Table {
    let by_cols = r.cols_in(by);
    let key = |i: usize| -> Vec<Symbol> {
        std::iter::once(r.get(i, 0))
            .chain(by_cols.iter().map(|&j| r.get(i, j)))
            .collect()
    };
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in (1..=r.height()).filter(|&i| on.contains(r.get(i, 0))) {
        match groups.iter_mut().find(|g| key(g[0]) == key(i)) {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    let joins: Vec<Option<Vec<Symbol>>> = groups
        .iter()
        .map(|g| {
            if g.len() < 2 {
                return None;
            }
            g[1..]
                .iter()
                .try_fold(r.storage_row(g[0]).to_vec(), |acc, &i| {
                    acc.iter()
                        .zip(r.storage_row(i))
                        .map(|(&a, &b)| a.join(b))
                        .collect()
                })
        })
        .collect();
    let mut out = Table::new(name, 0, r.width());
    for j in 1..=r.width() {
        out.set(0, j, r.col_attr(j));
    }
    for i in 1..=r.height() {
        match groups.iter().position(|g| g.contains(&i)) {
            Some(g) if joins[g].is_some() => {
                if groups[g][0] == i {
                    out.push_row(joins[g].as_deref().unwrap());
                }
            }
            _ => out.push_row(r.storage_row(i)),
        }
    }
    out
}

/// PURGE by the duality of §3.3, over [`cleanup_by_pairs`].
fn purge_by_pairs(r: &Table, on: &SymbolSet, by: &SymbolSet, name: Symbol) -> Table {
    transpose_by_cells(&cleanup_by_pairs(&transpose_by_cells(r), by, on, name))
}

/// Classical union as §3.4 composes it: union → purge → clean-up.
fn classical_union_staged(r: &Table, s: &Table, name: Symbol) -> Table {
    let u = ops::union(r, s, name);
    let purged = purge_by_pairs(&u, &u.scheme(), &SymbolSet::new(), name);
    cleanup_by_pairs(&purged, &purged.scheme(), &purged.row_scheme(), name)
}

/// `MERGE` with its blocks found by a linear scan of the header tuples
/// seen so far, and every row built on its own.
fn merge_by_linear_block_scan(r: &Table, on: &SymbolSet, by: &SymbolSet, name: Symbol) -> Table {
    let a_rows = r.rows_in(by);
    let b_cols = r.cols_in(on);
    let c_cols = r.cols_not_in(on);
    let mut b_attrs: Vec<Symbol> = Vec::new();
    for &j in &b_cols {
        if !b_attrs.contains(&r.col_attr(j)) {
            b_attrs.push(r.col_attr(j));
        }
    }
    let mut blocks: Vec<(Vec<Symbol>, Vec<usize>)> = Vec::new();
    for &j in &b_cols {
        let h: Vec<Symbol> = a_rows.iter().map(|&i| r.get(i, j)).collect();
        match blocks.iter_mut().find(|(bh, _)| *bh == h) {
            Some((_, cols)) => cols.push(j),
            None => blocks.push((h, vec![j])),
        }
    }
    let width = c_cols.len() + a_rows.len() + b_attrs.len();
    let mut t = Table::new(name, 0, width);
    let attrs = c_cols
        .iter()
        .map(|&j| r.col_attr(j))
        .chain(a_rows.iter().map(|&i| r.get(i, 0)))
        .chain(b_attrs.iter().copied());
    for (k, a) in attrs.enumerate() {
        t.set(0, k + 1, a);
    }
    for i in r.rows_not_in(by) {
        for (h, cols) in &blocks {
            let per_attr: Vec<Vec<usize>> = b_attrs
                .iter()
                .map(|&b| {
                    cols.iter()
                        .copied()
                        .filter(|&j| r.col_attr(j) == b)
                        .collect()
                })
                .collect();
            let reps = per_attr.iter().map(Vec::len).max().unwrap_or(0).max(1);
            for rep in 0..reps {
                let mut row = vec![r.get(i, 0)];
                row.extend(c_cols.iter().map(|&j| r.get(i, j)));
                row.extend_from_slice(h);
                row.extend(per_attr.iter().map(|cols| match cols.get(rep) {
                    Some(&j) => r.get(i, j),
                    None => Symbol::Null,
                }));
                t.push_row(&row);
            }
        }
    }
    t
}

/// A table named `name` over the column attributes `attrs`: 0–5 rows,
/// row attributes from {⊥, x, y} and data from {v0, v1, ⊥}, so duplicate
/// rows and twins that differ only in their row attribute are common.
fn arb_table_over(name: &'static str, attrs: Vec<Symbol>) -> impl Strategy<Value = Table> {
    let row_attr = || {
        prop_oneof![
            Just(Symbol::Null),
            Just(Symbol::name("x")),
            Just(Symbol::name("y"))
        ]
    };
    let datum = || {
        prop_oneof![
            2 => Just(Symbol::value("v0")),
            1 => Just(Symbol::value("v1")),
            1 => Just(Symbol::Null),
        ]
    };
    let w = attrs.len();
    (0usize..6).prop_flat_map(move |h| {
        let attrs = attrs.clone();
        (
            proptest::collection::vec(row_attr(), h),
            proptest::collection::vec(datum(), h * w),
        )
            .prop_map(move |(rows, data)| {
                let mut cells = vec![Symbol::name(name)];
                cells.extend_from_slice(&attrs);
                for (i, &a) in rows.iter().enumerate() {
                    cells.push(a);
                    cells.extend_from_slice(&data[i * w..(i + 1) * w]);
                }
                Table::from_parts(h, w, cells)
            })
    })
}

/// Operands of a classical union. `r`'s 0–3 column attributes are
/// distinct, drawn from {A, B, C, ⊥}; `s` shares them (aligned), reverses
/// them, or draws its own, repeats allowed.
fn arb_union_operands() -> impl Strategy<Value = (Table, Table)> {
    let picks = || proptest::collection::vec(0usize..4, 0..4);
    (picks(), picks(), 0u8..3).prop_flat_map(|(rp, sp, mode)| {
        let pool = [
            Symbol::name("A"),
            Symbol::name("B"),
            Symbol::name("C"),
            Symbol::Null,
        ];
        let mut r_attrs: Vec<Symbol> = Vec::new();
        for k in rp {
            if !r_attrs.contains(&pool[k]) {
                r_attrs.push(pool[k]);
            }
        }
        let s_attrs = match mode {
            0 => r_attrs.clone(),
            1 => r_attrs.iter().rev().copied().collect(),
            _ => sp.iter().map(|&k| pool[k]).collect(),
        };
        (arb_table_over("R", r_attrs), arb_table_over("S", s_attrs))
    })
}

/// Inputs of `MERGE[on … by …]`: messy tables under any `on`/`by` (see
/// [`arb_attr_choice`]), and grouped fact tables merged back on their
/// measure by the header rows of their category, or of their key and
/// category (two-symbol header tuples).
fn arb_merge_input() -> impl Strategy<Value = (Table, SymbolSet, SymbolSet)> {
    prop_oneof![
        (
            prop_oneof![arb_table(), arb_purge_table()],
            arb_attr_choice(),
            arb_attr_choice(),
        )
            .prop_map(|(t, on, by)| {
                let on = on.unwrap_or_else(|| t.scheme());
                let by = by.unwrap_or_else(|| t.row_scheme());
                (t, on, by)
            }),
        (arb_fact_table(), 0u8..2).prop_map(|(t, keyed)| {
            let mut by = SymbolSet::from_iter([Symbol::name("C")]);
            if keyed == 1 {
                by.insert(Symbol::name("K"));
            }
            let m = SymbolSet::from_iter([Symbol::name("M")]);
            (ops::group(&t, &by, &m, Symbol::name("G")), m, by)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Classical union, row-set kernel included, gives the staged
    /// composition's table byte for byte, on aligned and misaligned
    /// operands with ⊥ attributes and data, duplicate rows and twin rows.
    #[test]
    fn classical_union_is_the_staged_composition((r, s) in arb_union_operands()) {
        let name = Symbol::name("U");
        prop_assert_eq!(
            ops::classical_union(&r, &s, name),
            classical_union_staged(&r, &s, name),
            "r:\n{}\ns:\n{}", r, s
        );
    }

    /// Clean-up's hashed grouping gives the pairwise grouping's table,
    /// for any `by`/`on`: empty, holding ⊥, naming absent attributes, or
    /// the table's own scheme and row scheme.
    #[test]
    fn cleanup_matches_the_pairwise_grouping(
        t in prop_oneof![arb_table(), arb_purge_table()],
        by in arb_attr_choice(),
        on in arb_attr_choice(),
    ) {
        let by = by.unwrap_or_else(|| t.scheme());
        let on = on.unwrap_or_else(|| t.row_scheme());
        let name = Symbol::name("C");
        prop_assert_eq!(
            ops::cleanup(&t, &by, &on, name),
            cleanup_by_pairs(&t, &by, &on, name),
            "by {:?} on {:?} over:\n{}", by, on, t
        );
    }

    /// Merge's hashed blocks give the linear block scan's table.
    #[test]
    fn merge_matches_the_linear_block_scan((t, on, by) in arb_merge_input()) {
        let name = Symbol::name("M");
        prop_assert_eq!(
            ops::merge(&t, &on, &by, name),
            merge_by_linear_block_scan(&t, &on, &by, name),
            "on {:?} by {:?} over:\n{}", on, by, t
        );
    }
}

// ----------------------------------------------------------------------
// The weak-equality oracle: cell kernels = set definitions
// ----------------------------------------------------------------------

/// Operands of the weak-equality kernels. `r`'s 0–4 column attributes
/// come from {A, B, C, ⊥}, repeats allowed; `s` shares them (aligned),
/// reverses them, or draws its own. Then two attributes for `SELECT`
/// and one for `SELECTCONST`, drawn from the same pool plus the absent
/// `D`, and a constant from {v0, v1, ⊥, v9}, where `v9` never occurs.
fn arb_weak_operands() -> impl Strategy<Value = (Table, Table, [Symbol; 3], Symbol)> {
    let pool = [
        Symbol::name("A"),
        Symbol::name("B"),
        Symbol::name("C"),
        Symbol::Null,
        Symbol::name("D"),
    ];
    let picks = || proptest::collection::vec(0usize..4, 0..5);
    (
        picks(),
        picks(),
        0u8..3,
        (0usize..5, 0usize..5, 0usize..5),
        0usize..4,
    )
        .prop_flat_map(move |(rp, sp, mode, (a, b, c), v)| {
            let r_attrs: Vec<Symbol> = rp.iter().map(|&k| pool[k]).collect();
            let s_attrs = match mode {
                0 => r_attrs.clone(),
                1 => r_attrs.iter().rev().copied().collect(),
                _ => sp.iter().map(|&k| pool[k]).collect(),
            };
            let v = [
                Symbol::value("v0"),
                Symbol::value("v1"),
                Symbol::Null,
                Symbol::value("v9"),
            ][v];
            (
                arb_table_over("R", r_attrs),
                arb_table_over("S", s_attrs),
                Just([pool[a], pool[b], pool[c]]),
                Just(v),
            )
        })
}

/// `SELECT[a = b]`'s row test by its definition: `ρᵢ(a) ≗ ρᵢ(b)` on
/// the entry sets.
fn select_rows_by_sets(r: &Table, from: usize, a: Symbol, b: Symbol) -> Vec<usize> {
    (from..=r.height())
        .filter(|&i| {
            r.row_entries_named(i, a)
                .weakly_equal(&r.row_entries_named(i, b))
        })
        .collect()
}

/// `SELECTCONST[a = v]`'s row test by its definition: `v ∈ ρᵢ(a)`.
fn select_const_rows_by_sets(r: &Table, from: usize, a: Symbol, v: Symbol) -> Vec<usize> {
    (from..=r.height())
        .filter(|&i| r.row_entries_named(i, a).contains(v))
        .collect()
}

/// The match of difference and intersection by its definition: equal
/// row attributes and mutual row subsumption `ρᵢ ≋ σₖ`.
fn rows_match_by_subsumption(r: &Table, i: usize, s: &Table, k: usize) -> bool {
    r.get(i, 0) == s.get(k, 0) && r.row_subsumed_by(i, s, k) && s.row_subsumed_by(k, r, i)
}

/// `R \ S` by comparing every pair of rows.
fn difference_by_pairs(r: &Table, s: &Table, name: Symbol) -> Table {
    let mut t = r.retain_rows(|i| !(1..=s.height()).any(|k| rows_match_by_subsumption(r, i, s, k)));
    t.set_name(name);
    t
}

/// Both the table and its CSV bytes, so that a comparison covers row
/// order, names and attributes alike.
fn exactly(t: Table) -> (String, Table) {
    (tables_paradigm::core::io::to_csv(&t), t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The weak-equality kernels — selections reading cells through
    /// columns resolved once, difference and intersection probing a row
    /// index of match keys — give exactly the tables of the `SymbolSet`
    /// definitions, row order included: on ⊥ cells, a ⊥ constant,
    /// repeated, absent and ⊥ column attributes, aligned and misaligned
    /// schemes, and twins that differ only in their row attribute. The
    /// selections' row tests also agree from every later starting row,
    /// as the delta engine calls them on a table's new rows.
    #[test]
    fn weak_equality_kernels_match_the_set_definitions(
        (r, s, [a, b, c], v) in arb_weak_operands()
    ) {
        use tables_paradigm::algebra::ops::traditional::{select_const_matches, select_matches};
        let name = Symbol::name("T");
        for from in 1..=r.height() + 1 {
            prop_assert_eq!(select_matches(&r, from, a, b), select_rows_by_sets(&r, from, a, b));
            prop_assert_eq!(
                select_const_matches(&r, from, c, v),
                select_const_rows_by_sets(&r, from, c, v)
            );
        }
        let mut want = r.select_rows(&select_rows_by_sets(&r, 1, a, b));
        want.set_name(name);
        prop_assert_eq!(exactly(ops::select(&r, a, b, name)), exactly(want));
        let mut want = r.select_rows(&select_const_rows_by_sets(&r, 1, c, v));
        want.set_name(name);
        prop_assert_eq!(exactly(ops::select_const(&r, c, v, name)), exactly(want));
        for (x, y) in [(&r, &s), (&s, &r), (&r, &r)] {
            prop_assert_eq!(
                exactly(ops::difference(x, y, name)),
                exactly(difference_by_pairs(x, y, name)),
                "{} \\ {}", x, y
            );
            prop_assert_eq!(
                exactly(ops::intersect(x, y, name)),
                exactly(difference_by_pairs(x, &difference_by_pairs(x, y, name), name)),
                "{} ∩ {}", x, y
            );
        }
    }
}
