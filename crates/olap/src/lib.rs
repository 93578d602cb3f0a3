//! # tabular-olap
//!
//! The OLAP layer of the PODS 1996 reproduction (paper §4.3 and the
//! future work announced in §5):
//!
//! * [`cube`] — an n-dimensional [`Cube`] with roll-up, slice, dice, and
//!   the tabular views the paper motivates: a 2-dimensional cube *is* a
//!   `SalesInfo3`-style table (data in attribute positions), an
//!   n-dimensional cube flattens to a `SalesInfo4`-style set of
//!   same-named tables;
//! * [`pivot`](mod@pivot) — pivot/unpivot **as tabular algebra programs** (group +
//!   clean-up + purge; merge + the projection/difference ⊥-elimination),
//!   realizing §4.3's claim that TA is a restructuring language for OLAP;
//! * [`baseline`] — hand-coded pivot/unpivot for the ablation benchmarks;
//! * [`summarize`](mod@summarize) — totals rows/columns and group summaries (the
//!   regular-outline data of Figure 1);
//! * [`classify`] — range/quantile classification (the paper's announced
//!   future work);
//! * [`lattice`] — `ROLLUP`/`CUBE` groupings with `Total` markers; the
//!   Figure 1 summary relations are nodes of `CUBE(Part, Region)`.
//!
//! ```
//! use tabular_olap::{agg::Agg, cube::Cube};
//! use tabular_core::{fixtures, Symbol};
//!
//! let cube = Cube::from_table(
//!     &fixtures::sales_relation(),
//!     &[Symbol::name("Region"), Symbol::name("Part")],
//!     Symbol::name("Sold"),
//!     Agg::Sum,
//! ).unwrap();
//! assert_eq!(cube.grand_total(Agg::Sum), Some(420.0));
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod baseline;
pub mod classify;
pub mod cube;
pub mod error;
pub mod lattice;
pub mod pivot;
pub mod summarize;

pub use agg::Agg;
pub use classify::Classifier;
pub use cube::{Cube, Dimension};
pub use error::OlapError;
pub use lattice::{cube_table, rollup_table};
pub use pivot::{pivot, pivot_program, unpivot, unpivot_program};
pub use summarize::{add_totals, grand_total, summarize};
