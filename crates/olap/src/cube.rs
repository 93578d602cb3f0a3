//! An n-dimensional cube — the OLAP data model of §4.3 ("the OLAP model
//! allows data to be stored in the form of (n-dimensional) matrices"),
//! with conversions to and from tabular representations: a 2-dimensional
//! cube *is* a table with data in its attribute positions (`SalesInfo3`),
//! and an n-dimensional cube flattens to a set of same-named tables, one
//! per combination of the remaining dimensions (`SalesInfo4`).

use crate::agg::{parse_measure, render_measure, Agg};
use crate::error::{OlapError, Result};
use tabular_core::{Database, Symbol, Table};

/// A dimension: a name and an ordered member list.
#[derive(Clone, PartialEq, Debug)]
pub struct Dimension {
    /// Dimension name (e.g. `Part`).
    pub name: Symbol,
    /// Members in display order (e.g. `nuts`, `screws`, `bolts`).
    pub members: Vec<Symbol>,
}

/// A dense n-dimensional cube of optional numeric measures.
#[derive(Clone, PartialEq, Debug)]
pub struct Cube {
    /// Cube (and measure) name.
    pub name: Symbol,
    dims: Vec<Dimension>,
    data: Vec<Option<f64>>,
}

impl Cube {
    /// An empty cube over the given dimensions.
    pub fn new(name: Symbol, dims: Vec<Dimension>) -> Cube {
        let size = dims.iter().map(|d| d.members.len()).product();
        Cube {
            name,
            dims,
            data: vec![None; size],
        }
    }

    /// The dimensions.
    pub fn dims(&self) -> &[Dimension] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the cube has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut off = 0;
        for (i, d) in idx.iter().zip(&self.dims) {
            debug_assert!(*i < d.members.len());
            off = off * d.members.len() + i;
        }
        off
    }

    /// Read a cell by member indices.
    pub fn get(&self, idx: &[usize]) -> Option<f64> {
        self.data[self.offset(idx)]
    }

    /// Write a cell by member indices.
    pub fn set(&mut self, idx: &[usize], v: Option<f64>) {
        let off = self.offset(idx);
        self.data[off] = v;
    }

    /// Index of a member within a dimension.
    pub fn member_index(&self, dim: usize, member: Symbol) -> Result<usize> {
        self.dims[dim]
            .members
            .iter()
            .position(|&m| m == member)
            .ok_or(OlapError::MissingMember {
                dim: self.dims[dim].name,
                member,
            })
    }

    // ------------------------------------------------------------------
    // Construction from relational data
    // ------------------------------------------------------------------

    /// Build a cube from a relational-shaped fact table: `dims` name the
    /// dimension attributes (members in first-appearance order), `measure`
    /// the numeric attribute, `agg` combines multiple facts per cell.
    pub fn from_table(t: &Table, dims: &[Symbol], measure: Symbol, agg: Agg) -> Result<Cube> {
        let dim_cols: Vec<usize> = dims
            .iter()
            .map(|&d| {
                t.cols_named(d)
                    .first()
                    .copied()
                    .ok_or(OlapError::MissingAttribute(d))
            })
            .collect::<Result<_>>()?;
        let measure_col = *t
            .cols_named(measure)
            .first()
            .ok_or(OlapError::MissingAttribute(measure))?;

        let mut dimensions: Vec<Dimension> = dims
            .iter()
            .map(|&d| Dimension {
                name: d,
                members: Vec::new(),
            })
            .collect();
        for i in 1..=t.height() {
            for (d, &j) in dimensions.iter_mut().zip(&dim_cols) {
                let m = t.get(i, j);
                if !d.members.contains(&m) {
                    d.members.push(m);
                }
            }
        }

        let mut cells: Vec<Vec<f64>> = vec![
            Vec::new();
            dimensions
                .iter()
                .map(|d| d.members.len())
                .product::<usize>()
        ];
        let cube = Cube::new(t.name(), dimensions);
        let mut cube = cube;
        for i in 1..=t.height() {
            let idx: Vec<usize> = dim_cols
                .iter()
                .enumerate()
                .map(|(d, &j)| cube.member_index(d, t.get(i, j)))
                .collect::<Result<_>>()?;
            if let Some(v) = parse_measure(t.get(i, measure_col), measure)? {
                cells[cube.offset(&idx)].push(v);
            }
        }
        for (off, vals) in cells.into_iter().enumerate() {
            cube.data[off] = agg.apply(&vals);
        }
        Ok(cube)
    }

    // ------------------------------------------------------------------
    // OLAP operations
    // ------------------------------------------------------------------

    /// Roll up (aggregate away) dimension `dim` with `agg`, reducing the
    /// arity by one.
    pub fn rollup(&self, dim: usize, agg: Agg) -> Cube {
        assert!(dim < self.dims.len());
        let mut dims = self.dims.clone();
        dims.remove(dim);
        let mut out = Cube::new(self.name, dims);
        let mut idx = vec![0usize; out.dims.len()];
        loop {
            // Gather along the removed dimension.
            let mut vals = Vec::new();
            for m in 0..self.dims[dim].members.len() {
                let mut full = idx.clone();
                full.insert(dim, m);
                if let Some(v) = self.get(&full) {
                    vals.push(v);
                }
            }
            let off = out.offset(&idx);
            out.data[off] = agg.apply(&vals);
            // Odometer.
            let mut d = out.dims.len();
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < out.dims[d].members.len() {
                    break;
                }
                idx[d] = 0;
            }
            if out.dims.is_empty() {
                return out;
            }
        }
    }

    /// The grand total: every dimension rolled up.
    pub fn grand_total(&self, agg: Agg) -> Option<f64> {
        let mut c = self.clone();
        while c.arity() > 0 {
            c = c.rollup(0, agg);
        }
        c.data[0]
    }

    /// Slice: fix dimension `dim` to `member`, reducing arity by one.
    pub fn slice(&self, dim: usize, member: Symbol) -> Result<Cube> {
        let m = self.member_index(dim, member)?;
        let mut dims = self.dims.clone();
        dims.remove(dim);
        let mut out = Cube::new(self.name, dims);
        let total = out.data.len();
        let mut idx = vec![0usize; out.dims.len()];
        for _ in 0..total {
            let mut full = idx.clone();
            full.insert(dim, m);
            let off = out.offset(&idx);
            out.data[off] = self.get(&full);
            let mut d = out.dims.len();
            while d > 0 {
                d -= 1;
                idx[d] += 1;
                if idx[d] < out.dims[d].members.len() {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(out)
    }

    /// Dice: restrict a dimension to a subset of members (kept in the
    /// given order).
    pub fn dice(&self, dim: usize, members: &[Symbol]) -> Result<Cube> {
        let keep: Vec<usize> = members
            .iter()
            .map(|&m| self.member_index(dim, m))
            .collect::<Result<_>>()?;
        let mut dims = self.dims.clone();
        dims[dim].members = members.to_vec();
        let mut out = Cube::new(self.name, dims);
        let total = out.data.len();
        let mut idx = vec![0usize; out.dims.len()];
        for _ in 0..total {
            let mut src = idx.clone();
            src[dim] = keep[idx[dim]];
            let off = out.offset(&idx);
            out.data[off] = self.get(&src);
            let mut d = out.dims.len();
            while d > 0 {
                d -= 1;
                idx[d] += 1;
                if idx[d] < out.dims[d].members.len() {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Tabular views (§4.3: "the natural fit between (2- or n-dimensional)
    // tables and OLAP matrices")
    // ------------------------------------------------------------------

    /// The `SalesInfo3` view of a 2-dimensional cube: dimension 0's
    /// members become row attributes, dimension 1's members column
    /// attributes — row and column names are *data*.
    pub fn to_table_2d(&self) -> Result<Table> {
        if self.arity() != 2 {
            return Err(OlapError::BadDimensionality {
                expected: 2,
                got: self.arity(),
            });
        }
        let (rows, cols) = (&self.dims[0].members, &self.dims[1].members);
        let mut t = Table::new(self.name, rows.len(), cols.len());
        for (j, &c) in cols.iter().enumerate() {
            t.set(0, j + 1, c);
        }
        for (i, &r) in rows.iter().enumerate() {
            t.set(i + 1, 0, r);
            for j in 0..cols.len() {
                let cell = self.get(&[i, j]).map_or(Symbol::Null, render_measure);
                t.set(i + 1, j + 1, cell);
            }
        }
        Ok(t)
    }

    /// Read a 2-dimensional cube back from a `SalesInfo3`-style table.
    pub fn from_table_2d(t: &Table, row_dim: Symbol, col_dim: Symbol) -> Result<Cube> {
        let dims = vec![
            Dimension {
                name: row_dim,
                members: t.row_attrs(),
            },
            Dimension {
                name: col_dim,
                members: t.col_attrs().to_vec(),
            },
        ];
        let mut cube = Cube::new(t.name(), dims);
        for i in 1..=t.height() {
            for j in 1..=t.width() {
                let v = parse_measure(t.get(i, j), col_dim)?;
                cube.set(&[i - 1, j - 1], v);
            }
        }
        Ok(cube)
    }

    /// The `SalesInfo4` view of an n-dimensional cube (n ≥ 2): one table
    /// per member combination of dimensions `2..n` — all sharing the cube
    /// name, each carrying header rows naming the fixed members, exactly
    /// like the paper's split representation generalized to cubes.
    pub fn to_split_database(&self) -> Result<Database> {
        if self.arity() < 2 {
            return Err(OlapError::BadDimensionality {
                expected: 2,
                got: self.arity(),
            });
        }
        let mut out = Database::new();
        let rest: Vec<&Dimension> = self.dims[2..].iter().collect();
        let mut combo = vec![0usize; rest.len()];
        loop {
            // Slice down to 2 dimensions for this combination.
            let mut slice = self.clone();
            for (d, &m) in combo.iter().enumerate().rev() {
                slice = slice.slice(2 + d, rest[d].members[m])?;
            }
            let mut t = slice.to_table_2d()?;
            // Header rows naming the fixed members (cf. SalesInfo4's
            // `Region | east | east ...` row).
            for (d, &m) in combo.iter().enumerate() {
                let member = rest[d].members[m];
                let mut row = vec![member; t.width() + 1];
                row[0] = rest[d].name;
                t.push_row(&row);
            }
            out.insert(t);
            // Odometer over the remaining dimensions.
            if rest.is_empty() {
                break;
            }
            let mut d = rest.len();
            loop {
                if d == 0 {
                    return Ok(out);
                }
                d -= 1;
                combo[d] += 1;
                if combo[d] < rest[d].members.len() {
                    break;
                }
                combo[d] = 0;
            }
        }
        Ok(out)
    }

    /// The relational (`SalesInfo1`) view: one row per non-⊥ cell.
    pub fn to_relation_table(&self, measure: Symbol) -> Table {
        let attrs: Vec<Symbol> = self
            .dims
            .iter()
            .map(|d| d.name)
            .chain(std::iter::once(measure))
            .collect();
        let mut rows: Vec<Vec<Symbol>> = Vec::new();
        let mut idx = vec![0usize; self.dims.len()];
        for _ in 0..self.data.len() {
            if let Some(v) = self.get(&idx) {
                let mut row: Vec<Symbol> = idx
                    .iter()
                    .zip(&self.dims)
                    .map(|(&i, d)| d.members[i])
                    .collect();
                row.push(render_measure(v));
                rows.push(row);
            }
            let mut d = self.dims.len();
            while d > 0 {
                d -= 1;
                idx[d] += 1;
                if idx[d] < self.dims[d].members.len() {
                    break;
                }
                idx[d] = 0;
            }
        }
        Table::relational_syms(self.name, &attrs, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_core::fixtures;

    fn sales_cube() -> Cube {
        Cube::from_table(
            &fixtures::sales_relation(),
            &[Symbol::name("Region"), Symbol::name("Part")],
            Symbol::name("Sold"),
            Agg::Sum,
        )
        .unwrap()
    }

    #[test]
    fn cube_from_sales_relation() {
        let c = sales_cube();
        assert_eq!(c.arity(), 2);
        assert_eq!(c.dims()[0].members.len(), 4); // regions
        assert_eq!(c.dims()[1].members.len(), 3); // parts
        let east = c.member_index(0, Symbol::value("east")).unwrap();
        let nuts = c.member_index(1, Symbol::value("nuts")).unwrap();
        assert_eq!(c.get(&[east, nuts]), Some(50.0));
        let north = c.member_index(0, Symbol::value("north")).unwrap();
        assert_eq!(c.get(&[north, nuts]), None);
    }

    #[test]
    fn two_dim_cube_is_sales_info3() {
        // The bold SalesInfo3 table of Figure 1, cell for cell.
        let c = sales_cube();
        let t = c.to_table_2d().unwrap();
        let info3 = fixtures::sales_info3();
        let expected = info3.table_str("Sales").unwrap();
        assert!(
            t.equiv(expected),
            "cube view differs from SalesInfo3:\n{t}\nvs\n{expected}"
        );
    }

    #[test]
    fn table_2d_round_trips() {
        let c = sales_cube();
        let t = c.to_table_2d().unwrap();
        let back = Cube::from_table_2d(&t, Symbol::name("Region"), Symbol::name("Part")).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn rollup_matches_paper_totals() {
        let c = sales_cube();
        // Roll up parts → per-region totals (TotalRegionSales).
        let by_region = c.rollup(1, Agg::Sum);
        let east = by_region.member_index(0, Symbol::value("east")).unwrap();
        assert_eq!(by_region.get(&[east]), Some(120.0));
        // Roll up regions → per-part totals (TotalPartSales).
        let by_part = c.rollup(0, Agg::Sum);
        let screws = by_part.member_index(0, Symbol::value("screws")).unwrap();
        assert_eq!(by_part.get(&[screws]), Some(160.0));
        // Grand total.
        assert_eq!(c.grand_total(Agg::Sum), Some(420.0));
    }

    #[test]
    fn slice_and_dice() {
        let c = sales_cube();
        let east = c.slice(0, Symbol::value("east")).unwrap();
        assert_eq!(east.arity(), 1);
        let nuts = east.member_index(0, Symbol::value("nuts")).unwrap();
        assert_eq!(east.get(&[nuts]), Some(50.0));

        let diced = c
            .dice(1, &[Symbol::value("bolts"), Symbol::value("nuts")])
            .unwrap();
        assert_eq!(diced.dims()[1].members.len(), 2);
        let e = diced.member_index(0, Symbol::value("east")).unwrap();
        assert_eq!(diced.get(&[e, 0]), Some(70.0)); // bolts first now
    }

    #[test]
    fn relation_view_round_trips_content() {
        let c = sales_cube();
        let t = c.to_relation_table(Symbol::name("Sold"));
        assert_eq!(t.height(), 8);
        let back = Cube::from_table(
            &t,
            &[Symbol::name("Region"), Symbol::name("Part")],
            Symbol::name("Sold"),
            Agg::Sum,
        )
        .unwrap();
        assert_eq!(back.grand_total(Agg::Sum), Some(420.0));
    }

    #[test]
    fn three_dim_cube_splits_like_sales_info4() {
        // Add a Year dimension with one member to the sales data.
        let mut t = fixtures::sales_relation();
        t.push_col(vec![
            Symbol::name("Year"),
            Symbol::value("96"),
            Symbol::value("96"),
            Symbol::value("96"),
            Symbol::value("96"),
            Symbol::value("96"),
            Symbol::value("96"),
            Symbol::value("96"),
            Symbol::value("96"),
        ]);
        let c = Cube::from_table(
            &t,
            &[
                Symbol::name("Part"),
                Symbol::name("Region"),
                Symbol::name("Year"),
            ],
            Symbol::name("Sold"),
            Agg::Sum,
        )
        .unwrap();
        assert_eq!(c.arity(), 3);
        let split = c.to_split_database().unwrap();
        assert_eq!(split.len(), 1); // one Year member → one table
        let tab = &split.tables()[0];
        // The Year header row names the fixed member.
        let last = tab.height();
        assert_eq!(tab.get(last, 0), Symbol::name("Year"));
        assert_eq!(tab.get(last, 1), Symbol::value("96"));
    }

    #[test]
    fn duplicate_facts_aggregate() {
        let t = Table::relational("R", &["D", "M"], &[&["x", "1"], &["x", "2"], &["y", "5"]]);
        let c = Cube::from_table(&t, &[Symbol::name("D")], Symbol::name("M"), Agg::Sum).unwrap();
        let x = c.member_index(0, Symbol::value("x")).unwrap();
        assert_eq!(c.get(&[x]), Some(3.0));
        let cmax = Cube::from_table(&t, &[Symbol::name("D")], Symbol::name("M"), Agg::Max).unwrap();
        assert_eq!(cmax.get(&[x]), Some(2.0));
    }

    #[test]
    fn missing_attribute_errors() {
        let t = fixtures::sales_relation();
        assert!(matches!(
            Cube::from_table(&t, &[Symbol::name("Nope")], Symbol::name("Sold"), Agg::Sum),
            Err(OlapError::MissingAttribute(_))
        ));
        assert!(matches!(
            Cube::from_table(&t, &[Symbol::name("Part")], Symbol::name("Nope"), Agg::Sum),
            Err(OlapError::MissingAttribute(_))
        ));
    }
}
