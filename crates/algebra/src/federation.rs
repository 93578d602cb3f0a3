//! Federations of tabular databases (paper §4.2): "it is a simple matter
//! to extend the tabular model and algebra in a way that accounts for a
//! federation of (tabular) databases. Such an extended language would
//! trivially subsume SchemaLog (without function symbols)."
//!
//! The extension is by qualification: a federation member `hr` holding a
//! table `Sales` contributes the table under the qualified name
//! `hr.Sales`, and tabular algebra programs over the flattened database
//! reference members through those names (`.` is an identifier character
//! in the textual syntax, so `Pay <- COPY(hr.Sales)` parses as-is).
//! Results written under a member prefix route back to that member;
//! unqualified results land in the designated local member.

use crate::error::{AlgebraError, Result};
use crate::eval::{run_governed_traced, EvalStats};
use crate::governor::Budget;
use crate::obs::trace::Trace;
use crate::program::Program;
use tabular_core::{Database, Symbol, Table};

/// A named collection of tabular databases.
#[derive(Clone, Debug, Default)]
pub struct Federation {
    members: Vec<(String, Database)>,
}

impl Federation {
    /// Empty federation.
    pub fn new() -> Federation {
        Federation::default()
    }

    /// Add (or replace) a member database. Member names must not contain
    /// `.` (the qualifier separator).
    pub fn insert(&mut self, name: &str, db: Database) {
        assert!(
            !name.contains('.') && !name.is_empty(),
            "member names are non-empty and dot-free"
        );
        match self.members.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = db,
            None => self.members.push((name.to_owned(), db)),
        }
    }

    /// Look up a member.
    pub fn member(&self, name: &str) -> Option<&Database> {
        self.members
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, db)| db)
    }

    /// Member names, in insertion order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The qualified name of a member's table.
    pub fn qualify(member: &str, table: Symbol) -> Symbol {
        Symbol::name(&format!("{member}.{table}"))
    }

    /// Flatten into a single tabular database with qualified table names —
    /// the federation *is* a tabular database, which is the §4.2 point.
    pub fn flatten(&self) -> Database {
        let mut out = Database::new();
        for (name, db) in &self.members {
            for t in db.tables() {
                let mut q = t.clone();
                q.set_name(Self::qualify(name, t.name()));
                out.insert(q);
            }
        }
        out
    }

    /// Inverse of [`Federation::flatten`]: route tables back to members by
    /// their qualifier; unqualified tables go to `local`.
    pub fn unflatten(db: &Database, local: &str) -> Federation {
        let mut fed = Federation::new();
        fed.insert(local, Database::new());
        for t in db.tables() {
            let text = t.name().text().unwrap_or("");
            let (member, bare) = match text.split_once('.') {
                Some((m, rest)) if !m.is_empty() && !rest.is_empty() => {
                    (m.to_owned(), Symbol::name(rest))
                }
                _ => (local.to_owned(), t.name()),
            };
            let mut renamed = t.clone();
            renamed.set_name(bare);
            if fed.member(&member).is_none() {
                fed.insert(&member, Database::new());
            }
            let slot = fed
                .members
                .iter_mut()
                .find(|(n, _)| *n == member)
                .expect("just ensured");
            slot.1.insert(renamed);
        }
        fed
    }

    /// Run a tabular algebra program over the federation under `budget`:
    /// flatten, run, route results back. `local` names the member
    /// receiving unqualified results. Also returns the execution
    /// statistics and structured trace of the underlying run over the
    /// flattened database (spans name the qualified tables). On a trip
    /// the returned [`AlgebraError::BudgetExceeded`] carries the partial
    /// stats and trace of the flattened run.
    pub fn run_program(
        &self,
        program: &Program,
        local: &str,
        budget: &Budget,
    ) -> Result<(Federation, EvalStats, Trace)> {
        let flat = self.flatten();
        let (out, stats, trace) = run_governed_traced(program, &flat, budget)?;
        Ok((Federation::unflatten(&out, local), stats, trace))
    }

    /// Run `program` against every member *independently* (each member
    /// sees only its own unqualified tables), splitting `budget` evenly
    /// across members with [`Budget::split`]: each member's run gets
    /// `1/n` of the deadline and cell allowance, and all runs share the
    /// budget's cancellation token. On the first trip the shared token
    /// is cancelled — so if a caller runs members concurrently against
    /// clones of the split budget, sibling runs stop cooperatively —
    /// and the tripping member's error is returned.
    pub fn run_each(&self, program: &Program, budget: &Budget) -> Result<Federation> {
        let n = self.members.len().max(1);
        let per_site = budget.split(n);
        let mut out = Federation::new();
        for (name, db) in &self.members {
            match run_governed_traced(program, db, &per_site) {
                Ok((res, _, _)) => out.insert(name, res),
                Err(err @ AlgebraError::BudgetExceeded { .. }) => {
                    per_site.cancel.cancel();
                    return Err(err);
                }
                Err(err) => return Err(err),
            }
        }
        Ok(out)
    }

    /// Total table count across members.
    pub fn table_count(&self) -> usize {
        self.members.iter().map(|(_, db)| db.len()).sum()
    }
}

/// Convenience: a federation member's table, qualified, as a fresh table
/// value (fixtures and tests).
pub fn qualified(member: &str, table: &Table) -> Table {
    let mut t = table.clone();
    t.set_name(Federation::qualify(member, table.name()));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{run_planned_governed_traced, EvalLimits};
    use crate::parser::parse;
    use tabular_core::fixtures;

    fn budget() -> Budget {
        Budget::default()
    }

    fn two_branch_federation() -> Federation {
        let east = Database::from_tables([Table::relational(
            "Sales",
            &["Part", "Sold"],
            &[&["nuts", "50"], &["bolts", "70"]],
        )]);
        let west = Database::from_tables([Table::relational(
            "Sales",
            &["Part", "Sold"],
            &[&["nuts", "60"], &["screws", "50"]],
        )]);
        let mut fed = Federation::new();
        fed.insert("east", east);
        fed.insert("west", west);
        fed
    }

    #[test]
    fn flatten_qualifies_and_unflatten_inverts() {
        let fed = two_branch_federation();
        let flat = fed.flatten();
        assert_eq!(flat.len(), 2);
        assert!(flat.table_str("east.Sales").is_some());
        assert!(flat.table_str("west.Sales").is_some());
        let back = Federation::unflatten(&flat, "main");
        assert!(back
            .member("east")
            .unwrap()
            .equiv(fed.member("east").unwrap()));
        assert!(back
            .member("west")
            .unwrap()
            .equiv(fed.member("west").unwrap()));
    }

    #[test]
    fn cross_database_union() {
        // The interoperability workload SchemaLog motivates: merge the
        // branch sales into a warehouse member.
        let fed = two_branch_federation();
        let p = parse("warehouse.Sales <- CLASSICALUNION(east.Sales, west.Sales)").unwrap();
        let out = fed.run_program(&p, "main", &budget()).unwrap().0;
        let warehouse = out.member("warehouse").unwrap();
        let merged = warehouse.table_str("Sales").unwrap();
        assert_eq!(merged.height(), 4);
        assert_eq!(merged.width(), 2);
        // Sources untouched.
        assert_eq!(out.member("east").unwrap().len(), 1);
    }

    #[test]
    fn cross_database_restructuring() {
        // Split one member's relational table into another member's
        // per-region tables — Figure 1 across database boundaries.
        let mut fed = Federation::new();
        fed.insert("hq", fixtures::sales_info1());
        let p = parse("mirror.Sales <- SPLIT[on {Region}](hq.Sales)").unwrap();
        let out = fed.run_program(&p, "main", &budget()).unwrap().0;
        let mirror = out.member("mirror").unwrap();
        assert!(mirror.equiv(&fixtures::sales_info4()));
    }

    #[test]
    fn unqualified_results_go_to_the_local_member() {
        let fed = two_branch_federation();
        let p = parse("Combined <- UNION(east.Sales, west.Sales)").unwrap();
        let out = fed.run_program(&p, "scratchpad", &budget()).unwrap().0;
        assert!(out
            .member("scratchpad")
            .unwrap()
            .table_str("Combined")
            .is_some());
    }

    #[test]
    fn wildcards_range_over_the_whole_federation() {
        let fed = two_branch_federation();
        // Transpose every table of every member in place.
        let p = parse("*1 <- TRANSPOSE(*1)").unwrap();
        let out = fed.run_program(&p, "main", &budget()).unwrap().0;
        for member in ["east", "west"] {
            let db = out.member(member).unwrap();
            let t = db.table_str("Sales").unwrap();
            assert_eq!(t.height(), 2); // transposed: attrs became rows
            assert_eq!(t.width(), 2);
        }
    }

    #[test]
    fn traced_run_reports_stats_and_spans() {
        use crate::obs::trace::TraceLevel;

        let fed = two_branch_federation();
        let p = parse("warehouse.Sales <- CLASSICALUNION(east.Sales, west.Sales)").unwrap();
        let traced = EvalLimits {
            trace: TraceLevel::Spans,
            ..EvalLimits::default()
        };
        let (out, stats, trace) = fed
            .run_program(&p, "main", &Budget::from_limits(&traced))
            .unwrap();
        assert!(out.member("warehouse").is_some());
        assert_eq!(stats.op_counts.get("CLASSICALUNION"), Some(&1));
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.spans().next().unwrap().op, "CLASSICALUNION");
    }

    #[test]
    fn planned_run_agrees_with_unplanned_and_reports_decisions() {
        let fed = two_branch_federation();
        let p = parse("warehouse.Sales <- CLASSICALUNION(east.Sales, west.Sales)").unwrap();
        let (out, stats, _, report) =
            run_planned_governed_traced(&p, &fed.flatten(), &budget()).unwrap();
        let planned = Federation::unflatten(&out, "main");
        let unplanned = fed.run_program(&p, "main", &budget()).unwrap().0;
        let w = planned.member("warehouse").unwrap();
        assert!(w.equiv(unplanned.member("warehouse").unwrap()));
        // No scratch intermediates here, so the honest report is empty —
        // and the stats counters agree with it.
        assert_eq!(stats.plans_rewritten, report.statements_rewritten);
        assert_eq!(stats.plan_rules_applied, report.rules_applied());
    }

    #[test]
    fn member_bookkeeping() {
        let mut fed = two_branch_federation();
        assert_eq!(fed.member_names(), vec!["east", "west"]);
        assert_eq!(fed.table_count(), 2);
        fed.insert("east", Database::new());
        assert_eq!(fed.member("east").unwrap().len(), 0);
        assert_eq!(fed.member_names().len(), 2);
    }
}
