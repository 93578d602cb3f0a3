//! A cost-based planner for tabular algebra programs — the "query (and
//! program) optimization" future work the paper names in §5.
//!
//! [`plan`] lowers a [`Program`] into an IR of per-statement op nodes
//! annotated with table statistics — row/column counts read from the
//! store's tables ([`Catalog::from_database`]) and fingerprint-cached
//! cardinality estimates for intermediates ([`Shape`]) — applies a
//! catalog of rule-based rewrites ([`Rule`]), and lowers the rewritten
//! segments back to a `Program`:
//!
//! * **copy forwarding** — `s ← op(..); T ← COPY(s)` retargets the
//!   producer;
//! * **selection pushdown** — `s ← PRODUCT(x, y); t ← SELECT[A=B](s)`
//!   filters one operand *before* the product when the catalog proves
//!   both `A`- and `B`-named columns lie entirely on that operand, and
//!   `SELECT` over a scratch `UNION` distributes into both branches;
//! * **join re-association** — a ≥3-way chain of single-use scratch
//!   `PRODUCT`s (with an optional closing `SELECT`) is re-bracketed,
//!   leaves kept in written order, into the cheapest tree by estimated
//!   cells materialized;
//! * **join fusion** — `PRODUCT`+`SELECT` becomes [`OpKind::FusedJoin`];
//!   with statistics the planner chooses fused vs. materialized per
//!   site (fused only when the hash-join kernel's single-occurrence
//!   column condition provably holds — otherwise the kernel would fall
//!   back to the staged pipeline anyway), and without statistics it
//!   fuses optimistically, leaving the per-table choice to the
//!   evaluator;
//! * **CLEANUP/PURGE sinking** — a redundancy-removal consumer
//!   separated from its single-use producer by independent rigid
//!   assignments sinks next to it, making the chain contiguous;
//! * **restructuring fusion** — contiguous `GROUP → CLEANUP (→ PURGE)`
//!   chains become [`OpKind::FusedRestructure`];
//! * **dead-scratch elimination** — unread reserved-name assignments are
//!   dropped to a fixpoint, *except* the program's final top-level
//!   assignment, whose target is the program's product even when it
//!   lives in the reserved namespace (OLAP pivots write through reserved
//!   output names).
//!
//! # Soundness
//!
//! Every rule preserves program semantics up to the §4.1 equivalence the
//! differential oracles check (canonical forms after fresh-tag
//! renumbering); most are byte-identical on the visible store:
//!
//! * Pushdown through `PRODUCT` is byte-identical: when no `A`- or
//!   `B`-named column lies on the other operand, a product row's entry
//!   sets under `A`/`B` equal the contributing operand row's entry sets,
//!   and filtering first preserves the left-major row order and the
//!   row-attribute joins.
//! * Pushdown through `UNION` is byte-identical because weak equality
//!   (§2) strips ⊥ from both entry sets and union-padding contributes
//!   only ⊥ entries.
//! * Re-association is byte-identical because `PRODUCT` is associative
//!   on the stored layout: columns concatenate in leaf order and rows
//!   stay left-major whatever the bracketing (leaves are never permuted,
//!   which would permute the visible target's columns and rows). The
//!   combined row attribute joins left-biased, which is associative only
//!   when no two operands carry conflicting non-⊥ row attributes, so the
//!   rule requires catalog proof that **at most one** leaf has any non-⊥
//!   row attribute, and that every leaf's statistics are exact (a single
//!   store table, unshadowed at the chain site).
//! * Fusion rewrites are definitionally sound: the fused operators *are*
//!   their staged pipelines, with the evaluator deciding per argument
//!   table whether a kernel applies.
//! * Sinking commutes adjacent independent ground assignments whose
//!   parameters are rigid; such statements are pure functions of
//!   disjoint names and can only fail on resource limits, so at most
//!   the *trip point* of a limit moves (the tolerance the planner
//!   oracle grants, since rewrites change intermediate sizes in both
//!   directions anyway).
//!
//! Rules only ever fire on fully ground programs ([`plan_with_rules`]
//! bails out otherwise: with wildcards any statement may read any table,
//! so nothing is provably dead), emit ground
//! statements, and never introduce `TUPLENEW`/`SETNEW` or nested loops —
//! so a delta-safe `while` body stays delta-safe
//! (`delta::body_is_delta_safe`) and the delta engine's
//! per-statement memos key the *planned* body consistently.

use crate::param::Param;
use crate::program::{Assignment, OpKind, Program, RestructureChain, Statement};
use std::cell::RefCell;
use std::collections::HashMap;
use tabular_core::{interner, Database, Symbol, SymbolSet};

/// True if the symbol lives in the reserved scratch namespace.
pub(crate) fn is_scratch(s: Symbol) -> bool {
    s.text().is_some_and(interner::is_reserved)
}

pub(crate) fn ground(p: &Param) -> Option<Symbol> {
    p.as_ground()
}

/// Collect every table name a statement list reads (arguments and `while`
/// conditions); `None` if any parameter is non-ground.
pub(crate) fn read_set(stmts: &[Statement], out: &mut SymbolSet) -> Option<()> {
    for stmt in stmts {
        match stmt {
            Statement::Assign(a) => {
                ground(&a.target)?;
                for arg in &a.args {
                    out.insert(ground(arg)?);
                }
            }
            Statement::While { cond, body } => {
                out.insert(ground(cond)?);
                read_set(body, out)?;
            }
        }
    }
    Some(())
}

/// Collect every ground name a statement list assigns to.
fn write_set(stmts: &[Statement], out: &mut SymbolSet) {
    for stmt in stmts {
        match stmt {
            Statement::Assign(a) => {
                if let Some(t) = ground(&a.target) {
                    out.insert(t);
                }
            }
            Statement::While { body, .. } => write_set(body, out),
        }
    }
}

/// Count reads of `of` within a statement list (arguments and `while`
/// conditions, nested bodies included).
fn count_reads(stmts: &[Statement], of: Symbol) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Statement::Assign(a) => a.args.iter().filter(|p| p.as_ground() == Some(of)).count(),
            Statement::While { cond, body } => {
                usize::from(cond.as_ground() == Some(of)) + count_reads(body, of)
            }
        })
        .sum()
}

/// The operation-specific (non-table) parameters of an op, for rigidity
/// checks.
fn op_params(op: &OpKind) -> Vec<&Param> {
    match op {
        OpKind::Rename { from, to } => vec![from, to],
        OpKind::Project { attrs } => vec![attrs],
        OpKind::Select { a, b } | OpKind::FusedJoin { a, b } => vec![a, b],
        OpKind::SelectConst { a, v } => vec![a, v],
        OpKind::Group { by, on } | OpKind::CleanUp { by, on } => vec![by, on],
        OpKind::Merge { on, by } | OpKind::Purge { on, by } => vec![on, by],
        OpKind::Split { on } => vec![on],
        OpKind::Collapse { by } => vec![by],
        OpKind::Switch { entry } => vec![entry],
        OpKind::TupleNew { attr } | OpKind::SetNew { attr } => vec![attr],
        OpKind::FusedRestructure(c) => {
            let mut v = vec![&c.group_by, &c.group_on, &c.cleanup_by, &c.cleanup_on];
            if let Some((on, by)) = &c.purge {
                v.push(on);
                v.push(by);
            }
            v
        }
        OpKind::Union
        | OpKind::Difference
        | OpKind::Intersect
        | OpKind::Product
        | OpKind::Transpose
        | OpKind::Copy
        | OpKind::ClassicalUnion => vec![],
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// A cardinality estimate for a (real or intermediate) table: data rows,
/// data columns, and whether the numbers are exact or modelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shape {
    /// Data rows (the table's height, attribute row excluded).
    pub rows: usize,
    /// Data columns (the attribute column excluded).
    pub cols: usize,
    /// True when read from a store table or derived by an exact rule
    /// (e.g. `PRODUCT` multiplies heights exactly).
    pub exact: bool,
}

impl Shape {
    /// The grid-cell count `(rows+1) × (cols+1)` — the cost unit the
    /// planner minimizes, matching what the governor charges per table.
    pub fn cells(&self) -> u128 {
        (self.rows as u128 + 1) * (self.cols as u128 + 1)
    }
}

/// Statistics for one table name, read from the store or derived for an
/// intermediate result.
#[derive(Clone, Debug)]
pub struct TableStats {
    /// Row/column counts.
    pub shape: Shape,
    /// The exact column-attribute list (with multiplicity, in order) —
    /// always exact when present; schemes are never estimated.
    pub col_attrs: Option<Vec<Symbol>>,
    /// True iff every row attribute is provably ⊥ (`false` means
    /// "unknown or has named rows" — the conservative reading).
    pub null_row_attrs: bool,
    /// Content fingerprint of the store table, or a derived key mixing
    /// the op and input fingerprints for intermediates — the cache key
    /// for cardinality estimates.
    pub fingerprint: u64,
}

/// FNV-1a over a sequence of words — derives intermediate fingerprints.
fn mix(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a string, for op keywords and symbols in cache keys.
fn key_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn key_sym(s: Symbol) -> u64 {
    s.text().map(key_str).unwrap_or(0x9e37_79b9_7f4a_7c15)
}

/// Estimated output rows of `SELECT[A=B]` over `rows` input rows.
fn est_select_rows(rows: usize) -> usize {
    (rows / 4).max(rows.min(1))
}

/// Estimated output rows of a fused join of `rl × rr` rows: the textbook
/// `|R|·|S| / max(V(A,R), V(B,S))` with distinct-counts approximated by
/// the row counts.
fn est_join_rows(rl: usize, rr: usize) -> usize {
    rl.saturating_mul(rr) / rl.max(rr).max(1)
}

/// Table statistics read once from a [`Database`]: per-name row/column
/// counts, schemes, and row-attribute nullity, plus a fingerprint-keyed
/// cache of cardinality estimates for intermediates.
pub struct Catalog {
    /// `Some(stats)` when exactly one store table bears the name (the
    /// only case where per-name statistics are meaningful under the
    /// evaluator's fan-out semantics); `None` when several do.
    base: HashMap<Symbol, Option<TableStats>>,
    /// Fingerprint-keyed estimates for intermediate results, so repeated
    /// sub-chains are estimated once.
    cache: RefCell<HashMap<u64, Shape>>,
}

impl Catalog {
    /// Read statistics for every named table in the database.
    pub fn from_database(db: &Database) -> Catalog {
        let mut base = HashMap::new();
        for name in db.names().iter() {
            let mut it = db.tables_named_iter(name);
            let stats = match (it.next(), it.next()) {
                (Some(t), None) => Some(TableStats {
                    shape: Shape {
                        rows: t.height(),
                        cols: t.width(),
                        exact: true,
                    },
                    col_attrs: Some(t.col_attrs().to_vec()),
                    null_row_attrs: (1..=t.height()).all(|i| t.get(i, 0).is_null()),
                    fingerprint: t.fingerprint(),
                }),
                _ => None,
            };
            base.insert(name, stats);
        }
        Catalog {
            base,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// A catalog with no statistics — every stats-gated rule stays off
    /// and the stats-free rules fire on pattern alone.
    pub fn empty() -> Catalog {
        Catalog {
            base: HashMap::new(),
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// Statistics for a base-table name, if exactly one table bears it.
    pub fn stats(&self, name: Symbol) -> Option<&TableStats> {
        self.base.get(&name).and_then(|o| o.as_ref())
    }

    /// Look up or compute the cached cardinality estimate under `key`.
    fn cached_estimate(&self, key: u64, compute: impl FnOnce() -> Shape) -> Shape {
        if let Some(s) = self.cache.borrow().get(&key) {
            return *s;
        }
        let s = compute();
        self.cache.borrow_mut().insert(key, s);
        s
    }
}

/// The statistics environment threaded through a planning walk: catalog
/// statistics overridden by what the program has assigned so far.
struct Env<'a> {
    catalog: &'a Catalog,
    known: HashMap<Symbol, Option<TableStats>>,
}

impl<'a> Env<'a> {
    fn new(catalog: &'a Catalog) -> Env<'a> {
        Env {
            catalog,
            known: HashMap::new(),
        }
    }

    /// Statistics for `name` at the current program point.
    fn stats(&self, name: Symbol) -> Option<&TableStats> {
        match self.known.get(&name) {
            Some(s) => s.as_ref(),
            None => self.catalog.stats(name),
        }
    }

    fn invalidate(&mut self, name: Symbol) {
        self.known.insert(name, None);
    }

    fn set(&mut self, name: Symbol, stats: TableStats) {
        self.known.insert(name, Some(stats));
    }

    /// Record a statement's effect: derive statistics for its target when
    /// the op admits a derivation, invalidate otherwise; a `while`
    /// invalidates everything its body writes (the loop may run any
    /// number of times).
    fn note(&mut self, stmt: &Statement) {
        match stmt {
            Statement::Assign(a) => {
                let Some(target) = ground(&a.target) else {
                    return;
                };
                match derive_stats(self, a) {
                    Some(st) => self.set(target, st),
                    None => self.invalidate(target),
                }
            }
            Statement::While { body, .. } => {
                let mut w = SymbolSet::new();
                write_set(body, &mut w);
                for n in w.iter() {
                    self.invalidate(n);
                }
            }
        }
    }
}

/// Derive result statistics for an assignment, for the handful of ops the
/// cost model understands. Schemes (`col_attrs`) are only ever derived
/// exactly; row counts may be estimates (`Shape::exact` = false).
fn derive_stats(env: &Env<'_>, a: &Assignment) -> Option<TableStats> {
    let arg = |k: usize| -> Option<&TableStats> { env.stats(ground(a.args.get(k)?)?) };
    let op_tag = key_str(a.op.keyword());
    match &a.op {
        OpKind::Copy => {
            let x = arg(0)?;
            Some(TableStats {
                fingerprint: mix(&[op_tag, x.fingerprint]),
                ..x.clone()
            })
        }
        OpKind::Product | OpKind::FusedJoin { .. } => {
            let (x, y) = (arg(0)?, arg(1)?);
            let (ca, cb) = (x.col_attrs.clone()?, y.col_attrs.clone()?);
            let fingerprint = mix(&[op_tag, x.fingerprint, y.fingerprint]);
            let fused = matches!(a.op, OpKind::FusedJoin { .. });
            if fused {
                let (pa, pb) = match &a.op {
                    OpKind::FusedJoin { a, b } => (a.as_ground()?, b.as_ground()?),
                    _ => unreachable!("matched fused"),
                };
                // Mix the join attributes into the cache key: the same
                // operands joined on different columns estimate apart.
                let fingerprint = mix(&[fingerprint, key_sym(pa), key_sym(pb)]);
                let (xs, ys) = (x.shape, y.shape);
                let shape = env.catalog.cached_estimate(fingerprint, || Shape {
                    rows: est_join_rows(xs.rows, ys.rows),
                    cols: xs.cols + ys.cols,
                    exact: false,
                });
                return Some(TableStats {
                    shape,
                    col_attrs: Some([ca, cb].concat()),
                    null_row_attrs: x.null_row_attrs && y.null_row_attrs,
                    fingerprint,
                });
            }
            let (xs, ys) = (x.shape, y.shape);
            let shape = env.catalog.cached_estimate(fingerprint, || Shape {
                rows: xs.rows.saturating_mul(ys.rows),
                cols: xs.cols + ys.cols,
                exact: xs.exact && ys.exact,
            });
            Some(TableStats {
                shape,
                col_attrs: Some([ca, cb].concat()),
                null_row_attrs: x.null_row_attrs && y.null_row_attrs,
                fingerprint,
            })
        }
        OpKind::Union => {
            let (x, y) = (arg(0)?, arg(1)?);
            let (ca, cb) = (x.col_attrs.clone()?, y.col_attrs.clone()?);
            let fingerprint = mix(&[op_tag, x.fingerprint, y.fingerprint]);
            let (xs, ys) = (x.shape, y.shape);
            let shape = env.catalog.cached_estimate(fingerprint, || Shape {
                rows: xs.rows.saturating_add(ys.rows),
                cols: xs.cols + ys.cols,
                exact: xs.exact && ys.exact,
            });
            Some(TableStats {
                shape,
                col_attrs: Some([ca, cb].concat()),
                null_row_attrs: x.null_row_attrs && y.null_row_attrs,
                fingerprint,
            })
        }
        OpKind::Select { a: pa, b: pb } => {
            let (sa, sb) = (pa.as_ground()?, pb.as_ground()?);
            let x = arg(0)?;
            let fingerprint = mix(&[op_tag, x.fingerprint, key_sym(sa), key_sym(sb)]);
            let xs = x.shape;
            let shape = env.catalog.cached_estimate(fingerprint, || Shape {
                rows: est_select_rows(xs.rows),
                cols: xs.cols,
                exact: xs.rows == 0,
            });
            Some(TableStats {
                shape,
                col_attrs: x.col_attrs.clone(),
                null_row_attrs: x.null_row_attrs,
                fingerprint,
            })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Rules and the plan report
// ---------------------------------------------------------------------------

/// A planner rewrite rule. [`ALL_RULES`] lists the full pipeline in
/// application order; [`plan_with_rules`] runs any subset (the per-rule
/// property tests exercise each in isolation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Retarget a producer over its single-use scratch `COPY`.
    ForwardCopy,
    /// Push a `SELECT` below a scratch `PRODUCT`/`UNION`.
    PushdownSelect,
    /// Re-bracket a ≥3-way scratch `PRODUCT` chain, leaves in written
    /// order, into the cheapest tree by estimated cells materialized.
    ReorderJoins,
    /// Fuse `PRODUCT`+`SELECT` into [`OpKind::FusedJoin`], cost-choosing
    /// fused vs. materialized per site when statistics are available.
    FuseJoin,
    /// Sink a `CLEANUP`/`PURGE` next to its single-use producer across
    /// independent rigid statements.
    SinkRestructure,
    /// Fuse `GROUP → CLEANUP (→ PURGE)` into
    /// [`OpKind::FusedRestructure`].
    FuseRestructure,
    /// Drop unread reserved-name assignments (protecting the program's
    /// final top-level target).
    EliminateDead,
}

impl Rule {
    /// Stable rule name, as rendered in EXPLAIN output.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ForwardCopy => "forward-copy",
            Rule::PushdownSelect => "pushdown-select",
            Rule::ReorderJoins => "reorder-joins",
            Rule::FuseJoin => "fuse-join",
            Rule::SinkRestructure => "sink-restructure",
            Rule::FuseRestructure => "fuse-restructure",
            Rule::EliminateDead => "eliminate-dead",
        }
    }
}

/// The full rule pipeline, in application order. Join reordering runs
/// before selection pushdown so it sees whole product chains with their
/// terminal selections intact; pushdown then filters whatever products
/// remain unreordered.
pub const ALL_RULES: [Rule; 7] = [
    Rule::ForwardCopy,
    Rule::ReorderJoins,
    Rule::PushdownSelect,
    Rule::FuseJoin,
    Rule::SinkRestructure,
    Rule::FuseRestructure,
    Rule::EliminateDead,
];

/// One recorded rewrite decision, for EXPLAIN output.
#[derive(Clone, Debug)]
pub struct Decision {
    /// The rule that fired.
    pub rule: Rule,
    /// Where (the rewritten site's target name, or `program`).
    pub site: String,
    /// Human-readable description of what was decided.
    pub detail: String,
    /// Estimated cost (cells) of the written form, when statistics were
    /// available.
    pub before_cells: Option<u128>,
    /// Estimated cost (cells) of the chosen form.
    pub after_cells: Option<u128>,
}

/// What the planner did to a program: the per-rewrite decisions and the
/// number of original statements they rewrote (the source of
/// `EvalStats::{plan_rules_applied, plans_rewritten}`).
#[derive(Clone, Debug, Default)]
pub struct PlanReport {
    /// Every rewrite decision, in application order.
    pub decisions: Vec<Decision>,
    /// Total statements removed, replaced, or moved by those decisions.
    pub statements_rewritten: usize,
}

impl PlanReport {
    /// Number of rule applications (= recorded decisions).
    pub fn rules_applied(&self) -> usize {
        self.decisions.len()
    }

    fn note(
        &mut self,
        rule: Rule,
        site: impl Into<String>,
        detail: impl Into<String>,
        before_cells: Option<u128>,
        after_cells: Option<u128>,
        stmts: usize,
    ) {
        self.decisions.push(Decision {
            rule,
            site: site.into(),
            detail: detail.into(),
            before_cells,
            after_cells,
        });
        self.statements_rewritten += stmts;
    }
}

/// Render a symbol for report sites (reserved scratch names get a `~`
/// prefix instead of their control-character tag).
fn site_name(s: Symbol) -> String {
    match s.text() {
        Some(t) if interner::is_reserved(t) => format!("~{}", &t[1..]),
        Some(t) => t.to_owned(),
        None => "⊥".to_owned(),
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Plan a program against a database: read the catalog, run the full
/// rule pipeline, and return the rewritten program with the decision
/// report. Semantics-preserving (oracle-checked by
/// `planner_on_and_off_agree`); non-ground programs return unchanged.
pub fn plan(program: &Program, db: &Database) -> (Program, PlanReport) {
    let catalog = Catalog::from_database(db);
    plan_with_catalog(program, &catalog, &ALL_RULES)
}

/// Plan with an explicit rule subset and optional database (without one,
/// stats-gated rules stay off and the rest fire on pattern alone).
pub fn plan_with_rules(
    program: &Program,
    db: Option<&Database>,
    rules: &[Rule],
) -> (Program, PlanReport) {
    match db {
        Some(db) => plan_with_catalog(program, &Catalog::from_database(db), rules),
        None => plan_with_catalog(program, &Catalog::empty(), rules),
    }
}

fn plan_with_catalog(
    program: &Program,
    catalog: &Catalog,
    rules: &[Rule],
) -> (Program, PlanReport) {
    let mut report = PlanReport::default();
    let mut live = SymbolSet::new();
    if read_set(&program.statements, &mut live).is_none() {
        return (program.clone(), report);
    }
    let mut out = program.clone();
    for &rule in rules {
        match rule {
            Rule::ForwardCopy => forward_copies_in(&mut out.statements, &mut report),
            Rule::PushdownSelect => {
                pushdown_in(&mut out.statements, &mut Env::new(catalog), &mut report);
            }
            Rule::ReorderJoins => {
                reorder_in(&mut out.statements, &mut Env::new(catalog), &mut report);
            }
            Rule::FuseJoin => {
                fuse_joins_in(&mut out.statements, &mut Env::new(catalog), &mut report);
            }
            Rule::SinkRestructure => sink_in(&mut out.statements, &mut report),
            Rule::FuseRestructure => fuse_restructure_in(&mut out.statements, &mut report),
            Rule::EliminateDead => eliminate_dead_in(&mut out.statements, &mut report),
        }
    }
    (out, report)
}

// ---------------------------------------------------------------------------
// The statistics-threaded walk
// ---------------------------------------------------------------------------

/// A site-rewrite callback for [`walk_stats`]: given the statement list,
/// the current index, the statistics environment, and the report, fire at
/// most one rewrite and say whether anything changed.
type RewriteFn<'a> =
    dyn FnMut(&mut Vec<Statement>, usize, &mut Env<'_>, &mut PlanReport) -> bool + 'a;

/// Walk a statement list with the statistics environment: at each index,
/// try a rewrite (re-examining the site when one fires), recurse into
/// `while` bodies with loop-written names invalidated (before *and*
/// after — mid-loop derivations hold per iteration, but not at exit),
/// and record each assignment's derived statistics.
fn walk_stats(
    stmts: &mut Vec<Statement>,
    env: &mut Env<'_>,
    report: &mut PlanReport,
    try_rewrite: &mut RewriteFn<'_>,
) {
    let mut i = 0;
    while i < stmts.len() {
        if try_rewrite(stmts, i, env, report) {
            continue;
        }
        if matches!(stmts[i], Statement::While { .. }) {
            if let Statement::While { body, .. } = &mut stmts[i] {
                let mut w = SymbolSet::new();
                write_set(body, &mut w);
                for n in w.iter() {
                    env.invalidate(n);
                }
                walk_stats(body, env, report, try_rewrite);
                for n in w.iter() {
                    env.invalidate(n);
                }
            }
        } else {
            env.note(&stmts[i]);
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Rule: forward-copy
// ---------------------------------------------------------------------------

fn forward_copies_in(stmts: &mut Vec<Statement>, report: &mut PlanReport) {
    let mut i = 1;
    while i < stmts.len() {
        let fusable = {
            let (head, tail) = stmts.split_at(i);
            match (head.last().expect("i >= 1"), &tail[0]) {
                (Statement::Assign(p), Statement::Assign(c)) => {
                    let produced = p.target.as_ground();
                    let copied = match (&c.op, c.args.as_slice()) {
                        (OpKind::Copy, [arg]) => arg.as_ground(),
                        _ => None,
                    };
                    match (produced, copied) {
                        (Some(s), Some(src))
                            if s == src && is_scratch(s) && count_reads(stmts, s) == 1 =>
                        {
                            Some((c.target.clone(), s))
                        }
                        _ => None,
                    }
                }
                _ => None,
            }
        };
        if let Some((new_target, s)) = fusable {
            if let Statement::Assign(Assignment { target, .. }) = &mut stmts[i - 1] {
                *target = new_target;
            }
            stmts.remove(i);
            report.note(
                Rule::ForwardCopy,
                site_name(s),
                "retargeted producer over single-use scratch copy",
                None,
                None,
                1,
            );
        } else {
            if let Statement::While { body, .. } = &mut stmts[i] {
                forward_copies_in(body, report);
            }
            i += 1;
        }
    }
    if let Some(Statement::While { body, .. }) = stmts.first_mut() {
        forward_copies_in(body, report);
    }
}

// ---------------------------------------------------------------------------
// Rule: pushdown-select
// ---------------------------------------------------------------------------

/// Does the `(i, i+1)` pair form `s ← op(..); t ← SELECT[a=b](s)` with `s`
/// a ground single-read scratch and `a`, `b` ground? Returns the ground
/// scratch and selection attributes.
fn select_over_scratch(stmts: &[Statement], i: usize) -> Option<(Symbol, Symbol, Symbol)> {
    let (Statement::Assign(p), Statement::Assign(c)) = (stmts.get(i)?, stmts.get(i + 1)?) else {
        return None;
    };
    let OpKind::Select { a, b } = &c.op else {
        return None;
    };
    let (sa, sb) = (a.as_ground()?, b.as_ground()?);
    let s = ground(&p.target)?;
    let [arg] = c.args.as_slice() else {
        return None;
    };
    if arg.as_ground() != Some(s) || !is_scratch(s) || count_reads(stmts, s) != 1 {
        return None;
    }
    Some((s, sa, sb))
}

fn scheme_has(attrs: &[Symbol], a: Symbol, b: Symbol) -> bool {
    attrs.iter().any(|&x| x == a || x == b)
}

fn pushdown_at(
    stmts: &mut Vec<Statement>,
    i: usize,
    env: &mut Env<'_>,
    report: &mut PlanReport,
) -> bool {
    let Some((_, sa, sb)) = select_over_scratch(stmts, i) else {
        return false;
    };
    let (Statement::Assign(p), Statement::Assign(c)) = (&stmts[i], &stmts[i + 1]) else {
        unreachable!("checked by select_over_scratch");
    };
    let site = ground(&c.target).map(site_name).unwrap_or_default();
    let OpKind::Select { a: pa, b: pb } = c.op.clone() else {
        unreachable!("checked by select_over_scratch");
    };
    let before = derive_stats(env, p).map(|t| t.shape.cells());
    match &p.op {
        OpKind::Product => {
            let [px, py] = p.args.as_slice() else {
                return false;
            };
            let attrs_of =
                |arg: &Param| -> Option<Vec<Symbol>> { env.stats(ground(arg)?)?.col_attrs.clone() };
            // Push into the operand that provably holds *all* columns named
            // `a` or `b` — i.e. the other operand has none of either.
            let side = if attrs_of(py).is_some_and(|ys| !scheme_has(&ys, sa, sb)) {
                0
            } else if attrs_of(px).is_some_and(|xs| !scheme_has(&xs, sa, sb)) {
                1
            } else {
                return false;
            };
            let f = Symbol::fresh_name();
            let filter = Statement::Assign(Assignment {
                target: Param::sym(f),
                op: OpKind::Select { a: pa, b: pb },
                args: vec![p.args[side].clone()],
            });
            let mut prod_args = p.args.clone();
            prod_args[side] = Param::sym(f);
            let product = Statement::Assign(Assignment {
                target: c.target.clone(),
                op: OpKind::Product,
                args: prod_args,
            });
            report.note(
                Rule::PushdownSelect,
                site,
                format!(
                    "pushed SELECT[{sa}={sb}] below PRODUCT into {} operand",
                    if side == 0 { "left" } else { "right" }
                ),
                before,
                None,
                2,
            );
            stmts.splice(i..i + 2, [filter, product]);
            true
        }
        OpKind::Union => {
            let [px, py] = p.args.as_slice() else {
                return false;
            };
            let (f1, f2) = (Symbol::fresh_name(), Symbol::fresh_name());
            let filter = |f: Symbol, arg: &Param| {
                Statement::Assign(Assignment {
                    target: Param::sym(f),
                    op: OpKind::Select {
                        a: pa.clone(),
                        b: pb.clone(),
                    },
                    args: vec![arg.clone()],
                })
            };
            let union = Statement::Assign(Assignment {
                target: c.target.clone(),
                op: OpKind::Union,
                args: vec![Param::sym(f1), Param::sym(f2)],
            });
            let new = [filter(f1, px), filter(f2, py), union];
            report.note(
                Rule::PushdownSelect,
                site,
                format!("distributed SELECT[{sa}={sb}] into both UNION branches"),
                before,
                None,
                2,
            );
            stmts.splice(i..i + 2, new);
            true
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Rule: fuse-join
// ---------------------------------------------------------------------------

/// The hash-join kernel's column condition, checked on catalog schemes:
/// `a` and `b` are distinct and each names exactly one column, on
/// opposite operands (mirrors `crate::ops::fusable_join_cols`).
fn occurrence_split(a: Symbol, b: Symbol, left: &[Symbol], right: &[Symbol]) -> bool {
    let count = |attrs: &[Symbol], x: Symbol| attrs.iter().filter(|&&y| y == x).count();
    let occ = (
        count(left, a),
        count(right, a),
        count(left, b),
        count(right, b),
    );
    a != b && (occ == (1, 0, 0, 1) || occ == (0, 1, 1, 0))
}

fn fuse_join_at(
    stmts: &mut Vec<Statement>,
    i: usize,
    env: &mut Env<'_>,
    report: &mut PlanReport,
) -> bool {
    let Some((_, sa, sb)) = select_over_scratch(stmts, i) else {
        return false;
    };
    let (Statement::Assign(p), Statement::Assign(c)) = (&stmts[i], &stmts[i + 1]) else {
        unreachable!("checked by select_over_scratch");
    };
    if !matches!(p.op, OpKind::Product) {
        return false;
    }
    let OpKind::Select { a: pa, b: pb } = c.op.clone() else {
        unreachable!("checked by select_over_scratch");
    };
    let site = ground(&c.target).map(site_name).unwrap_or_default();
    let stats_of = |arg: &Param| -> Option<(Shape, Vec<Symbol>)> {
        let t = env.stats(ground(arg)?)?;
        Some((t.shape, t.col_attrs.clone()?))
    };
    let (mut before, mut after) = (None, None);
    if let [px, py] = p.args.as_slice() {
        if let (Some((xs, xa)), Some((ys, ya))) = (stats_of(px), stats_of(py)) {
            if !occurrence_split(sa, sb, &xa, &ya) {
                // Statistics prove the kernel condition fails: the fused
                // form would fall back to the staged pipeline anyway, so
                // keep the materialized product (and say so in the plan).
                report.note(
                    Rule::FuseJoin,
                    site,
                    format!("kept PRODUCT+SELECT materialized: [{sa}={sb}] does not split across operands"),
                    None,
                    None,
                    0,
                );
                return false;
            }
            let cols = xa.len() + ya.len();
            before = Some(cells_of(xs.rows.saturating_mul(ys.rows) as u128, cols));
            after = Some(cells_of(est_join_rows(xs.rows, ys.rows) as u128, cols));
        }
    }
    let fused = Assignment {
        target: c.target.clone(),
        op: OpKind::FusedJoin { a: pa, b: pb },
        args: p.args.clone(),
    };
    report.note(
        Rule::FuseJoin,
        site,
        match before {
            Some(_) => format!("fused PRODUCT+SELECT[{sa}={sb}] into hash join"),
            None => format!(
                "fused PRODUCT+SELECT[{sa}={sb}] (no statistics; kernel decides at run time)"
            ),
        },
        before,
        after,
        2,
    );
    stmts[i] = Statement::Assign(fused);
    stmts.remove(i + 1);
    true
}

/// Grid-cell cost of a `rows × cols` data region (attribute row/column
/// included), saturating.
fn cells_of(rows: u128, cols: usize) -> u128 {
    rows.saturating_add(1).saturating_mul(cols as u128 + 1)
}

fn pushdown_in(stmts: &mut Vec<Statement>, env: &mut Env<'_>, report: &mut PlanReport) {
    walk_stats(stmts, env, report, &mut |s, i, e, r| {
        pushdown_at(s, i, e, r)
    });
}

fn fuse_joins_in(stmts: &mut Vec<Statement>, env: &mut Env<'_>, report: &mut PlanReport) {
    walk_stats(stmts, env, report, &mut |s, i, e, r| {
        fuse_join_at(s, i, e, r)
    });
}

fn reorder_in(stmts: &mut Vec<Statement>, env: &mut Env<'_>, report: &mut PlanReport) {
    walk_stats(stmts, env, report, &mut |s, i, e, r| reorder_at(s, i, e, r));
}

// ---------------------------------------------------------------------------
// Rule: reorder-joins
// ---------------------------------------------------------------------------

/// A leaf of a product chain, with the exact catalog statistics the cost
/// model and the row-attribute soundness check need.
struct Leaf {
    param: Param,
    rows: u128,
    cols: usize,
    attrs: Vec<Symbol>,
}

/// A detected left-deep product chain: `stmts[i..end]` computes the
/// product of `leaves` (optionally followed by a closing `SELECT`) into
/// `final_target`, with every intermediate a single-read ground scratch.
struct Chain {
    end: usize,
    leaves: Vec<Leaf>,
    select: Option<(Param, Param)>,
    final_target: Param,
}

fn detect_chain(stmts: &[Statement], i: usize, env: &Env<'_>) -> Option<Chain> {
    let Statement::Assign(first) = stmts.get(i)? else {
        return None;
    };
    if !matches!(first.op, OpKind::Product) || first.args.len() != 2 {
        return None;
    }
    let s0 = ground(&first.target)?;
    if !is_scratch(s0) || count_reads(stmts, s0) != 1 {
        return None;
    }
    let mut leaf_params = vec![first.args[0].clone(), first.args[1].clone()];
    let mut prev = s0;
    let mut last_target = first.target.clone();
    let mut closed = false;
    let mut j = i + 1;
    while j < stmts.len() && !closed {
        let Statement::Assign(a) = &stmts[j] else {
            break;
        };
        if !matches!(a.op, OpKind::Product) || a.args.len() != 2 {
            break;
        }
        if ground(&a.args[0]) != Some(prev) {
            break;
        }
        let Some(t) = ground(&a.target) else {
            break;
        };
        leaf_params.push(a.args[1].clone());
        last_target = a.target.clone();
        j += 1;
        if is_scratch(t) && count_reads(stmts, t) == 1 {
            prev = t;
        } else {
            closed = true;
        }
    }
    let (select, final_target, end) = if closed {
        (None, last_target, j)
    } else {
        match stmts.get(j) {
            Some(Statement::Assign(c)) => match &c.op {
                OpKind::Select { a, b }
                    if a.as_ground().is_some()
                        && b.as_ground().is_some()
                        && matches!(c.args.as_slice(), [arg] if arg.as_ground() == Some(prev)) =>
                {
                    (Some((a.clone(), b.clone())), c.target.clone(), j + 1)
                }
                _ => (None, last_target, j),
            },
            _ => (None, last_target, j),
        }
    };
    if !(3..=7).contains(&leaf_params.len()) {
        return None;
    }
    // Statistics gate: every leaf must be exactly known (one unshadowed
    // store table or an exact derivation), and — for the left-biased
    // row-attribute join to commute — at most one leaf may carry any
    // non-⊥ row attribute.
    let mut leaves = Vec::with_capacity(leaf_params.len());
    let mut named = 0usize;
    for p in leaf_params {
        let st = env.stats(ground(&p)?)?;
        if !st.shape.exact {
            return None;
        }
        let attrs = st.col_attrs.clone()?;
        if !st.null_row_attrs {
            named += 1;
        }
        leaves.push(Leaf {
            param: p,
            rows: st.shape.rows as u128,
            cols: st.shape.cols,
            attrs,
        });
    }
    if named > 1 {
        return None;
    }
    Some(Chain {
        end,
        leaves,
        select,
        final_target,
    })
}

/// Rows of the product of `leaves`.
fn product_rows(leaves: &[Leaf]) -> u128 {
    leaves.iter().fold(1, |rows, l| rows.saturating_mul(l.rows))
}

/// Estimated cells of materializing the product of `leaves`.
fn product_cells(leaves: &[Leaf]) -> u128 {
    cells_of(product_rows(leaves), leaves.iter().map(|l| l.cols).sum())
}

/// Column attributes of the product of `leaves`, in column order.
fn product_attrs(leaves: &[Leaf]) -> Vec<Symbol> {
    leaves
        .iter()
        .flat_map(|l| l.attrs.iter().copied())
        .collect()
}

/// Whether the closing selection is a fused join of `left × right`: the
/// kernel's single-occurrence split provably holds there.
fn splits(select: Option<(Symbol, Symbol)>, left: &[Leaf], right: &[Leaf]) -> bool {
    select.is_some_and(|(a, b)| occurrence_split(a, b, &product_attrs(left), &product_attrs(right)))
}

/// Estimated cells of the chain's last join `left × right`, carrying the
/// closing selection (costed as a fused join where [`splits`] holds).
fn root_cost(left: &[Leaf], right: &[Leaf], select: Option<(Symbol, Symbol)>) -> u128 {
    let (l, r) = (product_rows(left), product_rows(right));
    let rows = l.saturating_mul(r);
    let cols = left.iter().chain(right).map(|x| x.cols).sum();
    if splits(select, left, right) {
        cells_of(rows / l.max(r).max(1), cols)
    } else if select.is_some() {
        let sel_rows = (rows / 4).max(rows.min(1));
        cells_of(rows, cols).saturating_add(cells_of(sel_rows, cols))
    } else {
        cells_of(rows, cols)
    }
}

/// The cheapest bracketing of the chain's leaves *in written order*, by
/// estimated cells materialized: `best[i][j] = (cost, k)` joins
/// `leaves[i..=j]` as `(i..=k) × (k+1..=j)`. Leaves cost nothing; the
/// whole chain's join also carries the closing selection.
fn bracket(leaves: &[Leaf], select: Option<(Symbol, Symbol)>) -> Vec<Vec<(u128, usize)>> {
    let n = leaves.len();
    let mut best = vec![vec![(0u128, 0usize); n]; n];
    for len in 2..=n {
        for i in 0..=n - len {
            let j = i + len - 1;
            best[i][j] = (i..j)
                .map(|k| {
                    let own = if len == n {
                        root_cost(&leaves[..=k], &leaves[k + 1..], select)
                    } else {
                        product_cells(&leaves[i..=j])
                    };
                    let below = best[i][k].0.saturating_add(best[k + 1][j].0);
                    (below.saturating_add(own), k)
                })
                .min_by_key(|&(cost, _)| cost)
                .expect("at least two leaves");
        }
    }
    best
}

/// Emit the statements joining `leaves[i..=j]` as bracketed by `best`
/// into fresh scratch, returning the parameter naming the result and
/// the bracketing's rendering for the plan report.
fn emit_bracket(
    chain: &Chain,
    best: &[Vec<(u128, usize)>],
    i: usize,
    j: usize,
    out: &mut Vec<Statement>,
) -> (Param, String) {
    if i == j {
        let leaf = &chain.leaves[i].param;
        return (
            leaf.clone(),
            ground(leaf).map(site_name).unwrap_or_default(),
        );
    }
    let k = best[i][j].1;
    let (left, l) = emit_bracket(chain, best, i, k, out);
    let (right, r) = emit_bracket(chain, best, k + 1, j, out);
    let t = Param::sym(Symbol::fresh_name());
    out.push(Statement::Assign(Assignment {
        target: t.clone(),
        op: OpKind::Product,
        args: vec![left, right],
    }));
    (t, format!("({l} ⋈ {r})"))
}

fn reorder_at(
    stmts: &mut Vec<Statement>,
    i: usize,
    env: &mut Env<'_>,
    report: &mut PlanReport,
) -> bool {
    let Some(chain) = detect_chain(stmts, i, env) else {
        return false;
    };
    let leaves = &chain.leaves;
    let n = leaves.len();
    let sel_syms = chain.select.as_ref().map(|(a, b)| {
        (
            a.as_ground().expect("checked"),
            b.as_ground().expect("checked"),
        )
    });
    // The written chain is the left-deep bracketing.
    let written = (2..n).map(|j| product_cells(&leaves[..j])).fold(
        root_cost(&leaves[..n - 1], &leaves[n - 1..], sel_syms),
        u128::saturating_add,
    );
    let best = bracket(leaves, sel_syms);
    let (best_cost, k) = best[0][n - 1];
    if best_cost >= written {
        return false;
    }
    let mut new_stmts: Vec<Statement> = Vec::with_capacity(n);
    let (left, l) = emit_bracket(&chain, &best, 0, k, &mut new_stmts);
    let (right, r) = emit_bracket(&chain, &best, k + 1, n - 1, &mut new_stmts);
    let target = chain.final_target.clone();
    let args = vec![left, right];
    match &chain.select {
        // The cost-chosen fused form: one fewer statement and the kernel
        // provably applies at this split.
        Some((a, b)) if splits(sel_syms, &leaves[..=k], &leaves[k + 1..]) => {
            new_stmts.push(Statement::Assign(Assignment {
                target,
                op: OpKind::FusedJoin {
                    a: a.clone(),
                    b: b.clone(),
                },
                args,
            }));
        }
        Some((a, b)) => {
            let t = Param::sym(Symbol::fresh_name());
            new_stmts.push(Statement::Assign(Assignment {
                target: t.clone(),
                op: OpKind::Product,
                args,
            }));
            new_stmts.push(Statement::Assign(Assignment {
                target,
                op: OpKind::Select {
                    a: a.clone(),
                    b: b.clone(),
                },
                args: vec![t],
            }));
        }
        None => new_stmts.push(Statement::Assign(Assignment {
            target,
            op: OpKind::Product,
            args,
        })),
    }
    let site = ground(&chain.final_target)
        .map(site_name)
        .unwrap_or_default();
    report.note(
        Rule::ReorderJoins,
        site,
        format!("re-associated {n}-way product chain as {l} ⋈ {r}"),
        Some(written),
        Some(best_cost),
        chain.end - i,
    );
    stmts.splice(i..chain.end, new_stmts);
    true
}

// ---------------------------------------------------------------------------
// Rule: sink-restructure
// ---------------------------------------------------------------------------

/// Find a `CLEANUP`/`PURGE` consumer separated from its single-read
/// scratch producer by independent rigid assignments; returns
/// `(producer, consumer)` indices.
fn find_sink(stmts: &[Statement]) -> Option<(usize, usize)> {
    for i in 0..stmts.len() {
        let Statement::Assign(p) = &stmts[i] else {
            continue;
        };
        let wants_cleanup = match &p.op {
            OpKind::Group { .. } => true,
            OpKind::CleanUp { .. } => false,
            _ => continue,
        };
        let Some(s) = ground(&p.target) else {
            continue;
        };
        if !is_scratch(s) || count_reads(stmts, s) != 1 {
            continue;
        }
        // Locate the single read of `s` at this level, past at least one
        // intervening statement.
        let Some(j) = stmts[i + 1..]
            .iter()
            .position(|st| count_reads(std::slice::from_ref(st), s) > 0)
            .map(|off| i + 1 + off)
        else {
            continue;
        };
        if j == i + 1 {
            continue; // already adjacent: fusion's job
        }
        let Statement::Assign(c) = &stmts[j] else {
            continue; // the read is a `while` condition or inside a body
        };
        let shape_ok = match (&c.op, wants_cleanup) {
            (OpKind::CleanUp { by, on }, true) => by.is_rigid() && on.is_rigid(),
            (OpKind::Purge { on, by }, false) => on.is_rigid() && by.is_rigid(),
            _ => false,
        };
        let Some(tc) = ground(&c.target) else {
            continue;
        };
        if !shape_ok || c.args.len() != 1 {
            continue;
        }
        // Every intervening statement must be a rigid ground assignment
        // independent of the consumer: it neither reads nor writes the
        // consumer's target, doesn't write the piped scratch, and can
        // only fail on resource limits (so moving the consumer across it
        // shifts at most a budget trip point).
        let independent = stmts[i + 1..j].iter().all(|st| {
            let Statement::Assign(m) = st else {
                return false;
            };
            if matches!(m.op, OpKind::TupleNew { .. } | OpKind::SetNew { .. }) {
                return false;
            }
            let Some(mt) = ground(&m.target) else {
                return false;
            };
            mt != tc
                && mt != s
                && m.args.iter().all(|a| ground(a).is_some_and(|n| n != tc))
                && op_params(&m.op).iter().all(|p| p.is_rigid())
        });
        if independent {
            return Some((i, j));
        }
    }
    None
}

fn sink_in(stmts: &mut Vec<Statement>, report: &mut PlanReport) {
    let mut fuel = stmts.len().saturating_mul(stmts.len()) + 8;
    while fuel > 0 {
        fuel -= 1;
        let Some((i, j)) = find_sink(stmts) else {
            break;
        };
        let c = stmts.remove(j);
        if let Statement::Assign(a) = &c {
            let site = ground(&a.target).map(site_name).unwrap_or_default();
            report.note(
                Rule::SinkRestructure,
                site,
                format!(
                    "sank {} next to its producer across {} independent statements",
                    a.op.keyword(),
                    j - i - 1
                ),
                None,
                None,
                1,
            );
        }
        stmts.insert(i + 1, c);
    }
    for stmt in stmts.iter_mut() {
        if let Statement::While { body, .. } = stmt {
            sink_in(body, report);
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: fuse-restructure
// ---------------------------------------------------------------------------

/// Does `consumer`'s single argument read exactly `producer`'s target,
/// with that target a scratch name read nowhere else in the segment?
fn pipes_scratch(stmts: &[Statement], producer: &Assignment, consumer: &Assignment) -> bool {
    let Some(s) = producer.target.as_ground() else {
        return false;
    };
    let [arg] = consumer.args.as_slice() else {
        return false;
    };
    arg.as_ground() == Some(s) && is_scratch(s) && count_reads(stmts, s) == 1
}

/// The 2-op fusion of `stmts[i-1]; stmts[i]`, if they form a
/// `GROUP → CLEANUP` chain over a single-read scratch.
fn restructure_prefix(stmts: &[Statement], i: usize) -> Option<Assignment> {
    let (Statement::Assign(g), Statement::Assign(c)) = (&stmts[i - 1], &stmts[i]) else {
        return None;
    };
    let OpKind::Group {
        by: group_by,
        on: group_on,
    } = &g.op
    else {
        return None;
    };
    let OpKind::CleanUp {
        by: cleanup_by,
        on: cleanup_on,
    } = &c.op
    else {
        return None;
    };
    if !cleanup_by.is_rigid() || !cleanup_on.is_rigid() || !pipes_scratch(stmts, g, c) {
        return None;
    }
    Some(Assignment {
        target: c.target.clone(),
        op: OpKind::FusedRestructure(Box::new(RestructureChain {
            group_by: group_by.clone(),
            group_on: group_on.clone(),
            cleanup_by: cleanup_by.clone(),
            cleanup_on: cleanup_on.clone(),
            purge: None,
        })),
        args: g.args.clone(),
    })
}

/// Extend a 2-op fusion at `i` to the 3-op chain, if `stmts[i+1]` is a
/// `PURGE` consuming the clean-up's single-read scratch result.
fn restructure_extend(stmts: &[Statement], i: usize, two: &Assignment) -> Option<Assignment> {
    let (Statement::Assign(c), Statement::Assign(pu)) = (&stmts[i], stmts.get(i + 1)?) else {
        return None;
    };
    let OpKind::Purge { on, by } = &pu.op else {
        return None;
    };
    if !on.is_rigid() || !by.is_rigid() || !pipes_scratch(stmts, c, pu) {
        return None;
    }
    let OpKind::FusedRestructure(chain) = two.op.clone() else {
        unreachable!("restructure_prefix builds a FusedRestructure");
    };
    Some(Assignment {
        target: pu.target.clone(),
        op: OpKind::FusedRestructure(Box::new(RestructureChain {
            purge: Some((on.clone(), by.clone())),
            ..*chain
        })),
        args: two.args.clone(),
    })
}

fn fuse_restructure_in(stmts: &mut Vec<Statement>, report: &mut PlanReport) {
    let mut i = 1;
    while i < stmts.len() {
        let Some(two) = restructure_prefix(stmts, i) else {
            if let Statement::While { body, .. } = &mut stmts[i] {
                fuse_restructure_in(body, report);
            }
            i += 1;
            continue;
        };
        let site = ground(&two.target).map(site_name).unwrap_or_default();
        match restructure_extend(stmts, i, &two) {
            Some(three) => {
                let site = ground(&three.target).map(site_name).unwrap_or_default();
                stmts[i - 1] = Statement::Assign(three);
                stmts.remove(i);
                stmts.remove(i);
                report.note(
                    Rule::FuseRestructure,
                    site,
                    "fused GROUP→CLEANUP→PURGE into single-pass restructure",
                    None,
                    None,
                    3,
                );
            }
            None => {
                stmts[i - 1] = Statement::Assign(two);
                stmts.remove(i);
                report.note(
                    Rule::FuseRestructure,
                    site,
                    "fused GROUP→CLEANUP into single-pass restructure",
                    None,
                    None,
                    2,
                );
            }
        }
    }
    if let Some(Statement::While { body, .. }) = stmts.first_mut() {
        fuse_restructure_in(body, report);
    }
}

// ---------------------------------------------------------------------------
// Rule: eliminate-dead
// ---------------------------------------------------------------------------

fn drop_dead(stmts: &mut Vec<Statement>, live: &SymbolSet, dropped: &mut usize) -> bool {
    let mut changed = false;
    stmts.retain_mut(|stmt| match stmt {
        Statement::Assign(a) => {
            let target = a.target.as_ground().expect("checked ground");
            let keep = !is_scratch(target) || live.contains(target);
            if !keep {
                changed = true;
                *dropped += 1;
            }
            keep
        }
        Statement::While { body, .. } => {
            changed |= drop_dead(body, live, dropped);
            true
        }
    });
    changed
}

fn eliminate_dead_in(stmts: &mut Vec<Statement>, report: &mut PlanReport) {
    let mut dropped = 0usize;
    loop {
        let mut live = SymbolSet::new();
        if read_set(stmts, &mut live).is_none() {
            break;
        }
        // The program's final top-level assignment is its product even
        // when the target is a reserved name (OLAP pivots write through
        // reserved output names): protect it.
        if let Some(Statement::Assign(a)) = stmts.last() {
            if let Some(t) = ground(&a.target) {
                live.insert(t);
            }
        }
        if !drop_dead(stmts, &live, &mut dropped) {
            break;
        }
    }
    if dropped > 0 {
        report.note(
            Rule::EliminateDead,
            "program",
            format!("dropped {dropped} dead scratch assignments"),
            None,
            None,
            dropped,
        );
    }
}

// ---------------------------------------------------------------------------
// The annotated IR
// ---------------------------------------------------------------------------

/// One statement in a lowered plan segment: the assignment, the indices
/// of the nodes (within the same segment) defining each argument, and
/// the derived cardinality estimate for its result.
#[derive(Clone, Debug)]
pub struct OpNode {
    /// The planned assignment.
    pub stmt: Assignment,
    /// For each argument, the defining node's index in this segment
    /// (`None` for base tables or cross-segment definitions).
    pub defs: Vec<Option<usize>>,
    /// Estimated result shape, when the cost model covers the op.
    pub est: Option<Shape>,
}

/// A node of the lowered plan IR: a straight-line DAG segment, or a loop
/// whose body is itself a sequence of nodes.
#[derive(Clone, Debug)]
pub enum IrNode {
    /// A straight-line segment of assignments forming an op DAG.
    Segment(Vec<OpNode>),
    /// A `while cond ≠ ∅` loop.
    Loop {
        /// The loop condition's table name.
        cond: Symbol,
        /// The lowered body.
        body: Vec<IrNode>,
    },
}

/// Lower a program into the annotated op-DAG IR the rules traverse:
/// straight-line segments with per-node argument edges and cardinality
/// estimates from the catalog. `None` when the program is non-ground
/// (the planner bails there too).
pub fn lower_ir(program: &Program, catalog: &Catalog) -> Option<Vec<IrNode>> {
    let mut live = SymbolSet::new();
    read_set(&program.statements, &mut live)?;
    let mut env = Env::new(catalog);
    Some(lower_stmts(&program.statements, &mut env))
}

fn lower_stmts(stmts: &[Statement], env: &mut Env<'_>) -> Vec<IrNode> {
    let mut out = Vec::new();
    let mut seg: Vec<OpNode> = Vec::new();
    let mut defs: HashMap<Symbol, usize> = HashMap::new();
    for stmt in stmts {
        match stmt {
            Statement::Assign(a) => {
                let d = a
                    .args
                    .iter()
                    .map(|p| ground(p).and_then(|n| defs.get(&n).copied()))
                    .collect();
                let est = derive_stats(env, a).map(|t| t.shape);
                env.note(stmt);
                if let Some(t) = ground(&a.target) {
                    defs.insert(t, seg.len());
                }
                seg.push(OpNode {
                    stmt: a.clone(),
                    defs: d,
                    est,
                });
            }
            Statement::While { cond, body } => {
                if !seg.is_empty() {
                    out.push(IrNode::Segment(std::mem::take(&mut seg)));
                    defs.clear();
                }
                env.note(stmt);
                let lowered = lower_stmts(body, env);
                env.note(stmt);
                out.push(IrNode::Loop {
                    cond: ground(cond).unwrap_or(Symbol::Null),
                    body: lowered,
                });
            }
        }
    }
    if !seg.is_empty() {
        out.push(IrNode::Segment(seg));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::body_is_delta_safe;
    use crate::eval::run_governed_traced;
    use crate::governor::Budget;
    use tabular_core::{fixtures, Database, Table};

    fn scratch(n: u32) -> Symbol {
        Symbol::name(&format!("\u{1F}pl{n}"))
    }

    /// Compare databases on their user-visible (non-scratch) tables.
    fn compare_visible(a: &Database, b: &Database) -> bool {
        let strip = |db: &Database| {
            let mut out = db.snapshot();
            out.retain(|t| !is_scratch(t.name()));
            out
        };
        strip(a).equiv(&strip(b))
    }

    fn rel(name: &str, attrs: &[&str], rows: &[&[&str]]) -> Table {
        Table::relational(name, attrs, rows)
    }

    fn rt_db() -> Database {
        Database::from_tables([
            rel("R", &["A", "B"], &[&["1", "1"], &["2", "3"], &["4", "4"]]),
            rel("T", &["C", "D"], &[&["1", "x"], &["9", "y"]]),
        ])
    }

    /// `s ← PRODUCT(R, T); Out ← SELECT[A=B](s)` with both attributes on
    /// `R`: the selection filters `R` *before* the product.
    #[test]
    fn select_pushes_below_product_into_one_operand() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("R"), Param::name("T")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("B"),
                },
                vec![Param::sym(scratch(1))],
            );
        let db = rt_db();
        let (planned, report) = plan_with_rules(&p, Some(&db), &[Rule::PushdownSelect]);
        assert_eq!(planned.len(), 2, "{planned:?}");
        let Statement::Assign(first) = &planned.statements[0] else {
            panic!("assignment expected");
        };
        assert!(matches!(first.op, OpKind::Select { .. }));
        assert_eq!(first.args, vec![Param::name("R")]);
        assert_eq!(report.rules_applied(), 1);
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&planned, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
    }

    /// Pushdown refuses when the selection attributes straddle both
    /// operands — that's a join condition, not a one-sided filter.
    #[test]
    fn pushdown_refuses_cross_operand_selections() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("R"), Param::name("T")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("C"),
                },
                vec![Param::sym(scratch(1))],
            );
        let db = rt_db();
        let (planned, report) = plan_with_rules(&p, Some(&db), &[Rule::PushdownSelect]);
        assert_eq!(planned.len(), 2);
        assert_eq!(report.rules_applied(), 0);
        let Statement::Assign(first) = &planned.statements[0] else {
            panic!("assignment expected");
        };
        assert!(matches!(first.op, OpKind::Product));
    }

    /// `SELECT` distributes into both `UNION` branches unconditionally:
    /// weak equality strips the ⊥ padding the union introduces.
    #[test]
    fn select_distributes_through_union() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Union,
                vec![Param::name("R"), Param::name("T")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("B"),
                },
                vec![Param::sym(scratch(1))],
            );
        let db = rt_db();
        let (planned, report) = plan_with_rules(&p, Some(&db), &[Rule::PushdownSelect]);
        assert_eq!(planned.len(), 3, "{planned:?}");
        assert_eq!(report.rules_applied(), 1);
        let Statement::Assign(last) = &planned.statements[2] else {
            panic!("assignment expected");
        };
        assert!(matches!(last.op, OpKind::Union));
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&planned, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
    }

    fn three_way_db() -> Database {
        let digits: Vec<Vec<String>> = (0..8)
            .map(|i| vec![i.to_string(), format!("x{i}")])
            .collect();
        let rows: Vec<Vec<&str>> = digits
            .iter()
            .map(|r| vec![r[0].as_str(), r[1].as_str()])
            .collect();
        let rows: Vec<&[&str]> = rows.iter().map(|r| r.as_slice()).collect();
        let l = rel("L", &["A", "X"], &rows);
        let digits2: Vec<Vec<String>> = (4..12)
            .map(|i| vec![i.to_string(), format!("y{i}")])
            .collect();
        let rows2: Vec<Vec<&str>> = digits2
            .iter()
            .map(|r| vec![r[0].as_str(), r[1].as_str()])
            .collect();
        let rows2: Vec<&[&str]> = rows2.iter().map(|r| r.as_slice()).collect();
        let m = rel("M", &["B", "Y"], &rows2);
        let n = rel("N", &["C"], &[&["k"]]);
        Database::from_tables([l, m, n])
    }

    /// The pessimal written order `(L × M) × N` with a closing
    /// `SELECT[A=B]` re-associates to `L × (M × N)`: the 1-row `N` joins
    /// `M` first, then the selective join with `L` fuses — strictly fewer
    /// estimated cells, byte-identical visible result.
    #[test]
    fn pessimal_three_way_chain_is_reordered_and_fused() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("L"), Param::name("M")],
            )
            .assign(
                Param::sym(scratch(2)),
                OpKind::Product,
                vec![Param::sym(scratch(1)), Param::name("N")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("B"),
                },
                vec![Param::sym(scratch(2))],
            );
        let db = three_way_db();
        let (planned, report) = plan(&p, &db);
        assert_eq!(planned.len(), 2, "{planned:?}");
        let Statement::Assign(last) = &planned.statements[1] else {
            panic!("assignment expected");
        };
        assert!(matches!(last.op, OpKind::FusedJoin { .. }), "{:?}", last.op);
        let decision = report
            .decisions
            .iter()
            .find(|d| d.rule == Rule::ReorderJoins)
            .expect("reorder decision recorded");
        assert!(decision.after_cells.unwrap() < decision.before_cells.unwrap());
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&planned, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
        // Leaves keep their written order, so the visible output is
        // byte-identical, not merely equal up to column permutation.
        assert_eq!(a.table_str("Out"), b.table_str("Out"));
    }

    /// With a leaf name shadowed (two store tables bear it), per-name
    /// statistics are meaningless and the chain is left as written.
    #[test]
    fn reorder_requires_unshadowed_exact_statistics() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("L"), Param::name("M")],
            )
            .assign(
                Param::sym(scratch(2)),
                OpKind::Product,
                vec![Param::sym(scratch(1)), Param::name("N")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("B"),
                },
                vec![Param::sym(scratch(2))],
            );
        let mut db = three_way_db();
        db.insert(rel("N", &["C"], &[&["k2"]]));
        let (planned, report) = plan_with_rules(&p, Some(&db), &[Rule::ReorderJoins]);
        assert_eq!(planned.len(), 3);
        assert_eq!(report.rules_applied(), 0);
        let Statement::Assign(first) = &planned.statements[0] else {
            panic!("assignment expected");
        };
        assert_eq!(first.args, vec![Param::name("L"), Param::name("M")]);
    }

    /// Two leaves with non-⊥ row attributes: the left-biased row-attribute
    /// join makes the product non-commutative, so reordering refuses.
    #[test]
    fn reorder_refuses_two_row_attributed_leaves() {
        let l = Table::from_grid(&[&["L", "A"], &["r1", "1"]]).unwrap();
        let m = Table::from_grid(&[&["M", "B"], &["r2", "1"]]).unwrap();
        let n = rel("N", &["C"], &[&["k"]]);
        let db = Database::from_tables([l, m, n]);
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("L"), Param::name("M")],
            )
            .assign(
                Param::sym(scratch(2)),
                OpKind::Product,
                vec![Param::sym(scratch(1)), Param::name("N")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("B"),
                },
                vec![Param::sym(scratch(2))],
            );
        let (planned, report) = plan_with_rules(&p, Some(&db), &[Rule::ReorderJoins]);
        assert_eq!(planned.len(), 3);
        assert_eq!(report.rules_applied(), 0);
    }

    /// A `CLEANUP` separated from its `GROUP` by an independent rigid
    /// statement sinks next to it, and the now-contiguous chain fuses.
    #[test]
    fn cleanup_sinks_across_independent_statements_then_fuses() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Group {
                    by: Param::name("Region"),
                    on: Param::name("Sold"),
                },
                vec![Param::name("R")],
            )
            .assign(Param::name("Copy"), OpKind::Copy, vec![Param::name("R")])
            .assign(
                Param::name("Out"),
                OpKind::CleanUp {
                    by: Param::name("Part"),
                    on: Param::null(),
                },
                vec![Param::sym(scratch(1))],
            );
        let db = Database::from_tables([tabular_core::fixtures::sales_relation()]);
        let (planned, report) = plan(&p, &db);
        assert_eq!(planned.len(), 2, "{planned:?}");
        assert!(report
            .decisions
            .iter()
            .any(|d| d.rule == Rule::SinkRestructure));
        assert!(report
            .decisions
            .iter()
            .any(|d| d.rule == Rule::FuseRestructure));
        let Statement::Assign(first) = &planned.statements[0] else {
            panic!("assignment expected");
        };
        assert!(matches!(first.op, OpKind::FusedRestructure(_)));
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&planned, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
    }

    /// Sinking refuses when an intervening statement reads the consumer's
    /// target (moving the write above the read would change it).
    #[test]
    fn sinking_respects_intervening_readers() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Group {
                    by: Param::name("Region"),
                    on: Param::name("Sold"),
                },
                vec![Param::name("R")],
            )
            .assign(Param::name("Copy"), OpKind::Copy, vec![Param::name("Out")])
            .assign(
                Param::name("Out"),
                OpKind::CleanUp {
                    by: Param::name("Part"),
                    on: Param::null(),
                },
                vec![Param::sym(scratch(1))],
            );
        let (planned, report) = plan_with_rules(&p, None, &[Rule::SinkRestructure]);
        assert_eq!(planned.len(), 3);
        assert_eq!(report.rules_applied(), 0);
    }

    /// The PR 6 OLAP workaround regression: a chain whose *final* target
    /// is a reserved name must survive the full pipeline (dead-code
    /// elimination protects the program's product).
    #[test]
    fn final_reserved_target_survives_full_pipeline() {
        let out = scratch(77);
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Group {
                    by: Param::name("Region"),
                    on: Param::name("Sold"),
                },
                vec![Param::name("R")],
            )
            .assign(
                Param::sym(out),
                OpKind::CleanUp {
                    by: Param::name("Part"),
                    on: Param::null(),
                },
                vec![Param::sym(scratch(1))],
            );
        let opt = plan_with_rules(&p, None, &STATISTICS_FREE).0;
        assert_eq!(opt.len(), 1, "{opt:?}");
        let Statement::Assign(a) = &opt.statements[0] else {
            panic!("assignment expected");
        };
        assert_eq!(a.target, Param::sym(out));
        assert!(matches!(a.op, OpKind::FusedRestructure(_)));
    }

    /// Non-ground programs are returned unchanged with an empty report.
    #[test]
    fn non_ground_programs_bail() {
        let p = Program::new().assign(Param::star(), OpKind::Transpose, vec![Param::star()]);
        let db = rt_db();
        let (planned, report) = plan(&p, &db);
        assert_eq!(planned.len(), 1);
        assert_eq!(report.rules_applied(), 0);
        assert_eq!(report.statements_rewritten, 0);
    }

    /// Catalog statistics: exact shapes for uniquely named tables, `None`
    /// under fan-out (two tables sharing a name).
    #[test]
    fn catalog_reads_exact_statistics() {
        let db = rt_db();
        let catalog = Catalog::from_database(&db);
        let r = catalog.stats(Symbol::name("R")).expect("R has stats");
        assert_eq!((r.shape.rows, r.shape.cols), (3, 2));
        assert!(r.shape.exact);
        assert!(r.null_row_attrs);
        assert_eq!(
            r.col_attrs.as_deref(),
            Some(&[Symbol::name("A"), Symbol::name("B")][..])
        );
        let mut shadowed = rt_db();
        shadowed.insert(rel("R", &["A"], &[&["9"]]));
        let catalog = Catalog::from_database(&shadowed);
        assert!(catalog.stats(Symbol::name("R")).is_none());
    }

    /// Planned `while` bodies stay delta-safe: rules emit ground,
    /// loop-free, tag-free statements only.
    #[test]
    fn planned_while_bodies_stay_delta_safe() {
        let body = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("R"), Param::name("T")],
            )
            .assign(
                Param::name("Step"),
                OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("C"),
                },
                vec![Param::sym(scratch(1))],
            )
            .assign(
                Param::name("Out"),
                OpKind::Difference,
                vec![Param::name("Step"), Param::name("Out")],
            );
        let p = Program::new()
            .assign(Param::name("Out"), OpKind::Copy, vec![Param::name("R")])
            .while_nonempty(Param::name("Out"), body.clone());
        assert!(body_is_delta_safe(&body.statements));
        let db = rt_db();
        let (planned, _) = plan(&p, &db);
        let Statement::While { body: pb, .. } = &planned.statements[1] else {
            panic!("while expected");
        };
        assert!(body_is_delta_safe(pb));
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&planned, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
    }

    /// The annotated IR: segments split at loops, argument edges resolve
    /// within a segment, and estimates follow the catalog.
    #[test]
    fn lower_ir_annotates_segments_and_estimates() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("R"), Param::name("T")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("A"),
                    b: Param::name("B"),
                },
                vec![Param::sym(scratch(1))],
            )
            .while_nonempty(
                Param::name("Out"),
                Program::new().assign(
                    Param::name("Out"),
                    OpKind::Difference,
                    vec![Param::name("Out"), Param::name("Out")],
                ),
            );
        let db = rt_db();
        let catalog = Catalog::from_database(&db);
        let ir = lower_ir(&p, &catalog).expect("ground program");
        assert_eq!(ir.len(), 2, "{ir:?}");
        let IrNode::Segment(seg) = &ir[0] else {
            panic!("segment expected");
        };
        assert_eq!(seg.len(), 2);
        let est = seg[0].est.expect("product estimated");
        assert_eq!((est.rows, est.cols), (6, 4));
        assert!(est.exact);
        assert_eq!(seg[1].defs, vec![Some(0)]);
        assert!(matches!(ir[1], IrNode::Loop { .. }));
    }

    /// The statistics-free rule subset, in the order the rules were first
    /// introduced: copy forwarding, join fusion, restructuring fusion,
    /// then dead-code elimination. Without a catalog every rule fires on
    /// pattern alone.
    const STATISTICS_FREE: [Rule; 4] = [
        Rule::ForwardCopy,
        Rule::FuseJoin,
        Rule::FuseRestructure,
        Rule::EliminateDead,
    ];

    #[test]
    fn dead_scratch_assignments_are_removed() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Copy,
                vec![Param::name("Sales")],
            )
            .assign(Param::name("Out"), OpKind::Copy, vec![Param::name("Sales")]);
        let opt = plan_with_rules(&p, None, &[Rule::EliminateDead]).0;
        assert_eq!(opt.len(), 1);
    }

    #[test]
    fn dead_chains_are_removed_to_a_fixpoint() {
        // s1 feeds s2 feeds nothing: both must go.
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Copy,
                vec![Param::name("Sales")],
            )
            .assign(
                Param::sym(scratch(2)),
                OpKind::Copy,
                vec![Param::sym(scratch(1))],
            )
            .assign(Param::name("Out"), OpKind::Copy, vec![Param::name("Sales")]);
        assert_eq!(plan_with_rules(&p, None, &[Rule::EliminateDead]).0.len(), 1);
    }

    #[test]
    fn user_visible_targets_are_never_removed() {
        let p = Program::new().assign(
            Param::name("Unused"),
            OpKind::Copy,
            vec![Param::name("Sales")],
        );
        assert_eq!(plan_with_rules(&p, None, &[Rule::EliminateDead]).0.len(), 1);
    }

    #[test]
    fn copy_forwarding_fuses_producer_and_copy() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Transpose,
                vec![Param::name("Sales")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Copy,
                vec![Param::sym(scratch(1))],
            );
        let opt = plan_with_rules(&p, None, &STATISTICS_FREE).0;
        assert_eq!(opt.len(), 1);
        let Statement::Assign(a) = &opt.statements[0] else {
            panic!("assignment expected");
        };
        assert_eq!(a.target, Param::name("Out"));
        assert!(matches!(a.op, OpKind::Transpose));
    }

    #[test]
    fn copy_forwarding_respects_multiple_readers() {
        // The scratch result is read twice: the copy cannot be fused away.
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Transpose,
                vec![Param::name("Sales")],
            )
            .assign(Param::name("A"), OpKind::Copy, vec![Param::sym(scratch(1))])
            .assign(Param::name("B"), OpKind::Copy, vec![Param::sym(scratch(1))]);
        assert_eq!(plan_with_rules(&p, None, &STATISTICS_FREE).0.len(), 3);
    }

    #[test]
    fn wildcard_programs_are_left_untouched() {
        let p = Program::new()
            .assign(Param::sym(scratch(1)), OpKind::Copy, vec![Param::name("X")])
            .assign(Param::star_k(1), OpKind::Transpose, vec![Param::star_k(1)]);
        // The wildcard could read the scratch table: no elimination.
        assert_eq!(plan_with_rules(&p, None, &STATISTICS_FREE).0.len(), 2);
    }

    #[test]
    fn optimizing_a_compiled_program_preserves_results() {
        // A small pipeline with real scratch traffic.
        let p = crate::parser::parse(
            "Sales <- GROUP[by {Region} on {Sold}](Sales)
             Sales <- CLEANUP[by {Part} on {_}](Sales)
             Sales <- PURGE[on {Sold} by {Region}](Sales)",
        )
        .unwrap();
        let db = fixtures::sales_info1();
        let opt = plan_with_rules(&p, None, &STATISTICS_FREE).0;
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&opt, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
    }

    #[test]
    fn while_bodies_are_preserved_correctly() {
        let p = Program::new()
            .assign(Param::name("T"), OpKind::Copy, vec![Param::name("Sales")])
            .while_nonempty(
                Param::name("T"),
                Program::new().assign(
                    Param::name("T"),
                    OpKind::Difference,
                    vec![Param::name("T"), Param::name("T")],
                ),
            );
        let opt = plan_with_rules(&p, None, &STATISTICS_FREE).0;
        assert_eq!(opt.len(), p.len());
        let db = fixtures::sales_info1();
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&opt, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
    }

    #[test]
    fn select_over_scratch_product_fuses_into_a_join() {
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("R"), Param::name("S")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("B"),
                    b: Param::name("C"),
                },
                vec![Param::sym(scratch(1))],
            );
        let opt = plan_with_rules(&p, None, &STATISTICS_FREE).0;
        assert_eq!(opt.len(), 1);
        let Statement::Assign(a) = &opt.statements[0] else {
            panic!("assignment expected");
        };
        assert_eq!(a.target, Param::name("Out"));
        assert!(matches!(a.op, OpKind::FusedJoin { .. }));
        assert_eq!(a.args, vec![Param::name("R"), Param::name("S")]);

        let db = Database::from_tables([
            tabular_core::Table::relational("R", &["A", "B"], &[&["1", "2"], &["3", "4"]]),
            tabular_core::Table::relational("S", &["C", "D"], &[&["2", "x"], &["9", "y"]]),
        ]);
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&opt, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
    }

    #[test]
    fn fusion_respects_multiple_readers_and_visible_targets() {
        // The product result is read twice: fusing would lose it.
        let multi = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("R"), Param::name("S")],
            )
            .assign(
                Param::name("A"),
                OpKind::Select {
                    a: Param::name("B"),
                    b: Param::name("C"),
                },
                vec![Param::sym(scratch(1))],
            )
            .assign(Param::name("B"), OpKind::Copy, vec![Param::sym(scratch(1))]);
        assert_eq!(plan_with_rules(&multi, None, &STATISTICS_FREE).0.len(), 3);

        // A user-visible product is observable output: never fused away.
        let visible = Program::new()
            .assign(
                Param::name("P"),
                OpKind::Product,
                vec![Param::name("R"), Param::name("S")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::name("B"),
                    b: Param::name("C"),
                },
                vec![Param::name("P")],
            );
        assert_eq!(plan_with_rules(&visible, None, &STATISTICS_FREE).0.len(), 2);
    }

    #[test]
    fn fusion_requires_ground_selection_attributes() {
        // A pair parameter denotes a position *in the product table*; the
        // rewrite would change what it points at.
        let p = Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Product,
                vec![Param::name("R"), Param::name("S")],
            )
            .assign(
                Param::name("Out"),
                OpKind::Select {
                    a: Param::pair(Param::name("r"), Param::name("c")),
                    b: Param::name("C"),
                },
                vec![Param::sym(scratch(1))],
            );
        assert_eq!(plan_with_rules(&p, None, &[Rule::FuseJoin]).0.len(), 2);
    }

    /// The paper's pivot chain over single-read scratches, builder-style.
    fn pivot_chain() -> Program {
        Program::new()
            .assign(
                Param::sym(scratch(1)),
                OpKind::Group {
                    by: Param::name("Region"),
                    on: Param::name("Sold"),
                },
                vec![Param::name("R")],
            )
            .assign(
                Param::sym(scratch(2)),
                OpKind::CleanUp {
                    by: Param::name("Part"),
                    on: Param::null(),
                },
                vec![Param::sym(scratch(1))],
            )
            .assign(
                Param::name("Out"),
                OpKind::Purge {
                    on: Param::name("Sold"),
                    by: Param::name("Region"),
                },
                vec![Param::sym(scratch(2))],
            )
    }

    #[test]
    fn pivot_chain_fuses_into_a_restructure() {
        let p = pivot_chain();
        let opt = plan_with_rules(&p, None, &STATISTICS_FREE).0;
        assert_eq!(opt.len(), 1);
        let Statement::Assign(a) = &opt.statements[0] else {
            panic!("assignment expected");
        };
        assert_eq!(a.target, Param::name("Out"));
        assert!(
            matches!(&a.op, OpKind::FusedRestructure(chain) if chain.purge.is_some()),
            "{:?}",
            a.op
        );
        assert_eq!(a.args, vec![Param::name("R")]);

        let db = Database::from_tables([fixtures::sales_relation()]);
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&opt, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
    }

    #[test]
    fn group_cleanup_prefix_fuses_without_a_purge() {
        let mut p = pivot_chain();
        p.statements.truncate(2);
        // Retarget the clean-up to a visible name so the chain ends there.
        let Statement::Assign(c) = &mut p.statements[1] else {
            panic!("assignment expected");
        };
        c.target = Param::name("Out");
        let opt = plan_with_rules(&p, None, &STATISTICS_FREE).0;
        assert_eq!(opt.len(), 1);
        let Statement::Assign(a) = &opt.statements[0] else {
            panic!("assignment expected");
        };
        assert!(matches!(
            &a.op,
            OpKind::FusedRestructure(chain) if chain.purge.is_none()
        ));

        let db = Database::from_tables([fixtures::sales_relation()]);
        let a = run_governed_traced(&p, &db, &Budget::default()).unwrap().0;
        let b = run_governed_traced(&opt, &db, &Budget::default())
            .unwrap()
            .0;
        assert!(compare_visible(&a, &b));
    }

    #[test]
    fn restructure_fusion_respects_multiple_readers_and_visible_targets() {
        // The grouped scratch is read twice: fusing would lose it.
        let mut multi = pivot_chain();
        multi = multi.assign(
            Param::name("Again"),
            OpKind::Copy,
            vec![Param::sym(scratch(1))],
        );
        assert_eq!(
            plan_with_rules(&multi, None, &[Rule::FuseRestructure])
                .0
                .len(),
            4
        );

        // A visible intermediate is observable output: never fused away.
        let visible = crate::parser::parse(
            "G <- GROUP[by {Region} on {Sold}](R)
             C <- CLEANUP[by {Part} on {_}](G)
             Out <- PURGE[on {Sold} by {Region}](C)",
        )
        .unwrap();
        assert_eq!(
            plan_with_rules(&visible, None, &[Rule::FuseRestructure])
                .0
                .len(),
            3
        );
    }

    #[test]
    fn restructure_fusion_requires_rigid_merge_parameters() {
        // `CLEANUP by *` denotes "all column attributes *of the grouped
        // intermediate*" — the rewrite would change what it expands to.
        let mut p = pivot_chain();
        let Statement::Assign(c) = &mut p.statements[1] else {
            panic!("assignment expected");
        };
        c.op = OpKind::CleanUp {
            by: Param::star(),
            on: Param::null(),
        };
        assert_eq!(
            plan_with_rules(&p, None, &[Rule::FuseRestructure]).0.len(),
            3
        );
    }

    #[test]
    fn restructure_fusion_reaches_into_while_bodies() {
        let p = Program::new()
            .assign(Param::name("W"), OpKind::Copy, vec![Param::name("R")])
            .while_nonempty(Param::name("W"), pivot_chain());
        let opt = plan_with_rules(&p, None, &[Rule::FuseRestructure]).0;
        assert_eq!(opt.len(), 3, "{opt:?}");
    }
}
