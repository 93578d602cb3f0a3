//! Classification — the second future-work OLAP operation the paper
//! announces (§5): mapping a measure into named classes (binning), either
//! by explicit numeric ranges or by quantiles, producing a new attribute
//! usable as a grouping/pivot dimension.

use crate::agg::parse_measure;
use crate::error::{OlapError, Result};
use tabular_core::{Symbol, Table};

/// A classification scheme for a numeric attribute.
#[derive(Clone, Debug)]
pub struct Classifier {
    /// Ordered class boundaries: a value `v` falls in class `i` where `i`
    /// is the first index with `v < bounds[i]`, or the last class if none.
    pub bounds: Vec<f64>,
    /// Class labels; `labels.len() == bounds.len() + 1`.
    pub labels: Vec<Symbol>,
}

impl Classifier {
    /// Explicit ranges: `bounds = [50, 100]`, `labels = [low, mid, high]`
    /// classifies `v < 50` as `low`, `50 ≤ v < 100` as `mid`, the rest as
    /// `high`.
    pub fn ranges(bounds: Vec<f64>, labels: &[&str]) -> Classifier {
        assert_eq!(labels.len(), bounds.len() + 1, "need one label per class");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        Classifier {
            bounds,
            labels: labels.iter().map(|l| Symbol::value(l)).collect(),
        }
    }

    /// Equi-depth classes: boundaries at the `k`-quantiles of the observed
    /// values of `attr` in `t`.
    pub fn quantiles(t: &Table, attr: Symbol, k: usize, labels: &[&str]) -> Result<Classifier> {
        assert_eq!(labels.len(), k, "need one label per class");
        assert!(k >= 1);
        let col = *t
            .cols_named(attr)
            .first()
            .ok_or(OlapError::MissingAttribute(attr))?;
        let mut vals = Vec::new();
        for i in 1..=t.height() {
            if let Some(v) = parse_measure(t.get(i, col), attr)? {
                vals.push(v);
            }
        }
        vals.sort_by(f64::total_cmp);
        let bounds = (1..k)
            .map(|q| {
                let pos = q * vals.len() / k;
                vals.get(pos).copied().unwrap_or(f64::INFINITY)
            })
            .collect();
        Ok(Classifier {
            bounds,
            labels: labels.iter().map(|l| Symbol::value(l)).collect(),
        })
    }

    /// The class label of a value.
    pub fn classify(&self, v: f64) -> Symbol {
        let i = self
            .bounds
            .iter()
            .position(|&b| v < b)
            .unwrap_or(self.bounds.len());
        self.labels[i]
    }
}

/// Append a classification column `out_attr` to a relational fact table,
/// classifying the numeric attribute `attr`; ⊥ measures classify to ⊥.
pub fn classify_table(
    t: &Table,
    attr: Symbol,
    classifier: &Classifier,
    out_attr: Symbol,
) -> Result<Table> {
    let col = *t
        .cols_named(attr)
        .first()
        .ok_or(OlapError::MissingAttribute(attr))?;
    let mut out = t.clone();
    let mut new_col = Vec::with_capacity(t.height() + 1);
    new_col.push(out_attr);
    for i in 1..=t.height() {
        new_col.push(match parse_measure(t.get(i, col), attr)? {
            Some(v) => classifier.classify(v),
            None => Symbol::Null,
        });
    }
    out.push_col(new_col);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular_core::fixtures;

    fn nm(s: &str) -> Symbol {
        Symbol::name(s)
    }

    #[test]
    fn range_classification() {
        let c = Classifier::ranges(vec![50.0, 65.0], &["low", "mid", "high"]);
        assert_eq!(c.classify(40.0), Symbol::value("low"));
        assert_eq!(c.classify(50.0), Symbol::value("mid"));
        assert_eq!(c.classify(64.9), Symbol::value("mid"));
        assert_eq!(c.classify(70.0), Symbol::value("high"));
    }

    #[test]
    fn classify_sales() {
        let c = Classifier::ranges(vec![50.0, 65.0], &["low", "mid", "high"]);
        let out = classify_table(&fixtures::sales_relation(), nm("Sold"), &c, nm("Band")).unwrap();
        assert_eq!(out.width(), 4);
        // bolts east 70 → high.
        let i = (1..=out.height())
            .find(|&i| out.get(i, 3) == Symbol::value("70"))
            .unwrap();
        assert_eq!(out.get(i, 4), Symbol::value("high"));
        // nuts south 40 → low.
        let j = (1..=out.height())
            .find(|&i| out.get(i, 3) == Symbol::value("40"))
            .unwrap();
        assert_eq!(out.get(j, 4), Symbol::value("low"));
    }

    #[test]
    fn quantile_classification_is_balanced() {
        let rel = fixtures::make_sales_relation(20, 10);
        let c = Classifier::quantiles(&rel, nm("Sold"), 4, &["q1", "q2", "q3", "q4"]).unwrap();
        let out = classify_table(&rel, nm("Sold"), &c, nm("Q")).unwrap();
        let mut counts = [0usize; 4];
        for i in 1..=out.height() {
            let label = out.get(i, 4);
            let k = ["q1", "q2", "q3", "q4"]
                .iter()
                .position(|&l| label == Symbol::value(l))
                .unwrap();
            counts[k] += 1;
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, rel.height());
        // Each class holds a reasonable share (quantiles of discrete data
        // are never perfectly even).
        for &c in &counts {
            assert!(c > total / 10, "unbalanced classes {counts:?}");
        }
    }

    #[test]
    fn classified_attribute_pivots() {
        // Classification composes with pivot: classify then cross-tab by
        // band.
        use crate::pivot::pivot;
        let c = Classifier::ranges(vec![50.0, 65.0], &["low", "mid", "high"]);
        let classified =
            classify_table(&fixtures::sales_relation(), nm("Sold"), &c, nm("Band")).unwrap();
        let cross = pivot(
            &classified,
            nm("Band"),
            nm("Sold"),
            &tabular_algebra::Budget::default(),
        )
        .unwrap();
        // Header row of bands exists.
        assert_eq!(cross.get(1, 0), nm("Band"));
    }

    #[test]
    fn null_measures_stay_null() {
        let t = Table::from_grid(&[&["R", "A", "M"], &["_", "x", "_"]]).unwrap();
        let c = Classifier::ranges(vec![1.0], &["lo", "hi"]);
        let out = classify_table(&t, nm("M"), &c, nm("C")).unwrap();
        assert!(out.get(1, 3).is_null());
    }
}
