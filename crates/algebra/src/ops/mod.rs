//! The tabular algebra operations (paper §3), as pure functions on
//! [`Table`](tabular_core::Table)s.
//!
//! | paper §    | operations                                        | module |
//! |------------|---------------------------------------------------|--------|
//! | §3.1       | union, difference, ∩, ×, rename, project, select  | [`traditional`] |
//! | §3.2       | group, merge, split, collapse                     | [`restructure`] |
//! | §3.3       | transpose, switch                                 | [`transpose`](mod@transpose) |
//! | §3.3       | duals of every operation                          | [`dual`] |
//! | §3.4       | clean-up, purge, classical union                  | [`redundancy`] |
//! | §3.5       | tuple-new, set-new                                | [`tagging`] |
//! | §5 (opt.)  | fused hash join (SELECT ∘ PRODUCT)                | [`join`](mod@join) |
//! | §4.3 (opt.)| fused restructuring (PURGE ∘ CLEAN-UP ∘ GROUP)    | [`restructure_fused`] |
//!
//! The program layer (parameters, assignment statements, `while`) that
//! drives these over whole databases lives in
//! [`crate::program`] / [`crate::eval`].

pub mod dual;
pub mod join;
pub mod redundancy;
pub mod restructure;
pub mod restructure_fused;
pub mod tagging;
pub mod traditional;
pub mod transpose;

pub use dual::{
    col_group, col_merge, col_project, col_select, col_select_const, col_split, dualize,
};
pub use join::{
    count_join_matches, fusable_join_cols, join, join_append, join_append_partitioned,
    join_partitioned, JoinCols, PartitionShard,
};
pub use redundancy::{classical_union, cleanup, purge};
pub use restructure::{collapse, group, merge, split};
pub use restructure_fused::{fused_restructure, grouped_cells, RestructureSpec};
pub use tagging::{set_new, tuple_new};
pub use traditional::{
    copy, difference, intersect, product, product_append, project, rename, select, select_const,
    union,
};
pub use transpose::{switch, transpose};
