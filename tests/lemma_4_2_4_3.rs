//! **Lemmas 4.2 / 4.3** at the integration level: the canonical
//! representation round-trips arbitrary tabular databases, satisfies the
//! `Rep` functional dependencies, and is computable by a generated tabular
//! algebra program on relational schemes.

mod common;

use proptest::prelude::*;
use tables_paradigm::canonical::{check_fds, decode, encode, encode_program, EncodeScheme};
use tables_paradigm::prelude::*;
use tables_paradigm::relational::RelDatabase;

#[test]
fn round_trip_on_random_databases() {
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 64,
        ..Default::default()
    });
    runner
        .run(&common::arb_database(), |db| {
            let rep = encode(&db);
            prop_assert_eq!(check_fds(&rep), None);
            let back = decode(&rep).expect("decode succeeds");
            prop_assert!(back.equiv(&db), "round trip changed the database");
            Ok(())
        })
        .unwrap();
}

#[test]
fn round_trip_on_all_fixtures_and_scales() {
    for db in [
        fixtures::sales_info1_full(),
        fixtures::sales_info2_full(),
        fixtures::sales_info3_full(),
        fixtures::sales_info4_full(),
        Database::from_tables([fixtures::make_sales_relation(30, 10)]),
        Database::from_tables([fixtures::make_sales_info2(20, 15)]),
        fixtures::make_sales_info4(12, 8),
    ] {
        let back = decode(&encode(&db)).unwrap();
        assert!(back.equiv(&db));
    }
}

#[test]
fn rep_size_is_linear_in_occurrences() {
    // |Data| = Σ m·n; |Map| = Σ (1 + m + n + m·n).
    let db = fixtures::make_sales_info4(7, 5);
    let rep = encode(&db);
    let expected_data: usize = db.tables().iter().map(|t| t.height() * t.width()).sum();
    let expected_map: usize = db
        .tables()
        .iter()
        .map(|t| 1 + t.height() + t.width() + t.height() * t.width())
        .sum();
    assert_eq!(rep.get_str("Data").unwrap().len(), expected_data);
    assert_eq!(rep.get_str("Map").unwrap().len(), expected_map);
}

#[test]
fn identifiers_are_fresh_across_encodings() {
    // Two encodings of the same database share no occurrence ids —
    // "canonical representations are unique up to the particular choice of
    // occurrence identifiers".
    let db = fixtures::sales_info1();
    let rep1 = encode(&db);
    let rep2 = encode(&db);
    let ids1: std::collections::HashSet<Symbol> = rep1
        .get_str("Map")
        .unwrap()
        .tuples()
        .map(|t| t[0])
        .collect();
    assert!(rep2
        .get_str("Map")
        .unwrap()
        .tuples()
        .all(|t| !ids1.contains(&t[0])));
    // Yet both decode to the same database.
    assert!(decode(&rep1).unwrap().equiv(&decode(&rep2).unwrap()));
}

#[test]
fn ta_encode_program_round_trips_relational_schemes() {
    // Lemma 4.2's P_Rep as an actual TA program (relational schemes).
    let scheme = EncodeScheme::new(&[("Sales", &["Part", "Region", "Sold"])]);
    let program = encode_program(&scheme).unwrap();
    for (parts, regions) in [(3, 3), (8, 6), (15, 10)] {
        let db = Database::from_tables([{
            let mut t = fixtures::make_sales_relation(parts, regions);
            t.set_name(Symbol::name("Sales"));
            t
        }]);
        let (out, _, _) = run_governed_traced(&program, &db, &Budget::default()).unwrap();
        let rep =
            RelDatabase::from_tabular(&out, &[Symbol::name("Data"), Symbol::name("Map")]).unwrap();
        assert_eq!(check_fds(&rep), None);
        let back = decode(&rep).unwrap();
        assert!(back.equiv(&db), "{parts}×{regions}");
    }
}

#[test]
fn decode_accepts_permuted_attribute_orders() {
    // Lemma 4.3 is insensitive to the column order of Data/Map.
    let db = fixtures::sales_info1();
    let rep = encode(&db);
    let data = rep.get_str("Data").unwrap();
    let permuted = {
        use tables_paradigm::relational::Relation;
        let mut r = Relation::new("Data", &["Val", "Tbl", "Col", "Row"], &[]);
        for t in data.tuples() {
            r.insert(vec![t[3], t[0], t[2], t[1]]).unwrap();
        }
        r
    };
    let rep2 = RelDatabase::from_relations([permuted, rep.get_str("Map").unwrap().clone()]);
    assert!(decode(&rep2).unwrap().equiv(&db));
}
