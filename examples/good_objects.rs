//! GOOD, the graph-oriented object database model, embedded in the
//! tabular model (paper contribution 4): build an object base, transform
//! it with GOOD operations, and run the same program through the tabular
//! algebra.
//!
//! ```sh
//! cargo run --example good_objects
//! ```

use tables_paradigm::good::{
    compile::run_via_ta,
    embed::to_tabular,
    graph::Graph,
    ops::{GoodOp, GoodProgram},
    pattern::Pattern,
};
use tables_paradigm::prelude::*;

fn main() {
    // An object base: papers, authors, topics.
    let mut g = Graph::new();
    let alice = g.add_node(Symbol::name("Author"));
    let bob = g.add_node(Symbol::name("Author"));
    let p1 = g.add_node(Symbol::name("Paper"));
    let p2 = g.add_node(Symbol::name("Paper"));
    let p3 = g.add_node(Symbol::name("Paper"));
    let db_theory = g.add_node(Symbol::name("Topic"));
    let olap = g.add_node(Symbol::name("Topic"));
    for (paper, author) in [(p1, alice), (p2, alice), (p2, bob), (p3, bob)] {
        g.add_edge(paper, Symbol::name("by"), author);
    }
    for (paper, topic) in [(p1, db_theory), (p2, db_theory), (p3, olap)] {
        g.add_edge(paper, Symbol::name("about"), topic);
    }
    println!(
        "Object base: {} objects, {} edges",
        g.node_count(),
        g.edge_count()
    );
    println!("Tabular embedding:\n{}", to_tabular(&g));

    // A GOOD program: derive co-authorship edges, materialize a
    // Collaboration object per co-author pair, and abstract papers into
    // areas by their topic neighborhoods.
    let coauthor = GoodOp::EdgeAddition {
        pattern: Pattern::new()
            .node(0, "Author")
            .node(1, "Author")
            .node(2, "Paper")
            .edge(2, "by", 0)
            .edge(2, "by", 1),
        label: Symbol::name("coauthor"),
        from: 0,
        to: 1,
    };
    let collaboration = GoodOp::NodeAddition {
        pattern: Pattern::new()
            .node(0, "Author")
            .node(1, "Author")
            .edge(0, "coauthor", 1),
        label: Symbol::name("Collaboration"),
        edges: vec![(Symbol::name("member"), 0), (Symbol::name("member"), 1)],
        key: vec![],
    };
    let areas = GoodOp::Abstraction {
        node_label: Symbol::name("Paper"),
        via: Symbol::name("about"),
        label: Symbol::name("Area"),
        link: Symbol::name("contains"),
    };

    let program = GoodProgram::new()
        .op(coauthor.clone())
        .op(collaboration.clone())
        .op(areas);
    let out = program.run(&g, 100).expect("GOOD program runs");
    println!(
        "After the program: {} objects, {} edges",
        out.node_count(),
        out.edge_count()
    );
    println!(
        "Collaborations: {}  Areas: {}",
        out.nodes_labeled(Symbol::name("Collaboration")).len(),
        out.nodes_labeled(Symbol::name("Area")).len()
    );
    // Alice coauthors with herself? No: the homomorphism 0=1 exists, so a
    // coauthor self-loop appears per author with a shared paper — the
    // classic GOOD subtlety. Count the proper pairs.
    let coauthors = out
        .edges()
        .iter()
        .filter(|&&(s, l, d)| l == Symbol::name("coauthor") && s != d)
        .count();
    println!("Proper coauthor edges: {coauthors}");

    // The additive fragment (edge + node additions) runs through the
    // tabular algebra: compile to FO + while + new, then Theorem 4.1.
    // Note the asymmetric edge labels: native node addition carries GOOD's
    // no-duplicate guard, which collapses symmetric wirings (a
    // Collaboration{member→a, member→b} equals {member→b, member→a});
    // the compiled fragment is guard-free, so TA-compared programs use
    // wirings that identify the ordered footprint.
    let ordered_collab = GoodOp::NodeAddition {
        pattern: Pattern::new()
            .node(0, "Author")
            .node(1, "Author")
            .edge(0, "coauthor", 1),
        label: Symbol::name("OrderedCollab"),
        edges: vec![(Symbol::name("first"), 0), (Symbol::name("second"), 1)],
        key: vec![],
    };
    let additive = GoodProgram::new().op(coauthor).op(ordered_collab);
    let native = additive.run(&g, 100).unwrap();
    let via_ta = run_via_ta(&additive, &g, &Budget::default()).expect("compiled TA program runs");
    assert!(
        native.equiv(&via_ta),
        "native and TA-compiled runs must be isomorphic"
    );
    println!("Additive fragment: native and TA-compiled runs are isomorphic ✓");
}
