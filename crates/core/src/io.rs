//! CSV import/export for tables.
//!
//! The grid maps directly onto CSV: the first record holds the table name
//! followed by the column attributes; each further record holds a row
//! attribute followed by the data entries. Cells use the same syntax as
//! [`Table::from_grid`] (`_` for ⊥, `n:`/`v:` sort tags, positional
//! defaults), so sorts round-trip exactly.

use crate::error::CoreError;
use crate::symbol::cell_tag;
use crate::table::Table;
use std::fmt::Write as _;

/// The longest rendering, in bytes, that [`write_json_csv_cached`] keeps with a
/// table's shared cell buffer. Longer ones are written straight into the
/// caller's buffer on every call and never stored, so the memory a
/// session holds for renderings stays at most this per table.
pub const MAX_CACHED_RENDER: usize = 1 << 20;

/// How [`write_csv`] escapes the CSV it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Escape {
    /// Plain CSV, as [`to_csv`] returns it.
    Csv,
    /// The CSV escaped as the body of a JSON string (RFC 8259): between
    /// two `"` it is a JSON string whose value is the plain CSV.
    Json,
}

/// Render a table as CSV (RFC-4180-style quoting; cells in the grid cell
/// syntax).
pub fn to_csv(t: &Table) -> String {
    let mut out = String::new();
    write_csv(t, Escape::Csv, &mut out);
    out
}

/// Append `t`'s CSV to `out`, escaped as `escape` says: the one cell
/// writer. Each cell's sort tag ([`cell_tag`]), its CSV quoting (a cell
/// holding `,`, `"`, `\n` or `\r` is quoted, with `"` doubled) and, in
/// [`Escape::Json`], its JSON escaping are decided in one pass over its
/// text, with no allocation per cell. Each cell's text is read through
/// [`Symbol::text`](crate::Symbol::text), which takes no lock.
pub fn write_csv(t: &Table, escape: Escape, out: &mut String) {
    let newline = match escape {
        Escape::Csv => "\n",
        Escape::Json => "\\n",
    };
    let last_col = t.width();
    let (mut i, mut j) = (0, 0);
    for &sym in t.cells() {
        if j > 0 {
            out.push(',');
        }
        let text = sym.text().unwrap_or("_");
        write_cell(cell_tag(sym, text, i == 0 || j == 0), text, escape, out);
        if j == last_col {
            out.push_str(newline);
            (i, j) = (i + 1, 0);
        } else {
            j += 1;
        }
    }
}

/// Append `t`'s CSV, escaped as a JSON string body, to `out`, from the
/// rendering cached with the table's shared cell buffer (see the
/// [`crate::table`] module docs). On a miss it renders with [`write_csv`] and
/// stores the bytes unless they exceed [`MAX_CACHED_RENDER`]. Returns
/// whether the cached rendering was used.
pub fn write_json_csv_cached(t: &Table, out: &mut String) -> bool {
    let cache = t.rendered();
    if let Some(rendered) = cache.get() {
        out.push_str(rendered);
        return true;
    }
    let start = out.len();
    write_csv(t, Escape::Json, out);
    if out.len() - start <= MAX_CACHED_RENDER {
        // A concurrent miss may have stored the same bytes first.
        let _ = cache.set(out[start..].into());
    }
    false
}

/// One cell: `tag` (ASCII, never quoted or escaped) then `text`, quoted
/// if CSV needs it.
fn write_cell(tag: &str, text: &str, escape: Escape, out: &mut String) {
    let bytes = text.as_bytes();
    let quoted = bytes
        .iter()
        .any(|&b| matches!(b, b',' | b'"' | b'\n' | b'\r'));
    let quote = match escape {
        Escape::Csv => "\"",
        Escape::Json => "\\\"",
    };
    if quoted {
        out.push_str(quote);
    }
    out.push_str(tag);
    // Every byte that needs escaping is ASCII, so the runs between them
    // are whole UTF-8 sequences.
    let mut run = 0;
    for (k, &b) in bytes.iter().enumerate() {
        let escaped = match (escape, b) {
            // A `"` only occurs in a quoted cell, where CSV doubles it.
            (Escape::Csv, b'"') => "\"\"",
            (Escape::Json, b'"') => "\\\"\\\"",
            (Escape::Json, b'\\') => "\\\\",
            (Escape::Json, b'\n') => "\\n",
            (Escape::Json, b'\r') => "\\r",
            (Escape::Json, b'\t') => "\\t",
            (Escape::Json, 0..=0x1f) => "\\u00",
            _ => continue,
        };
        out.push_str(&text[run..k]);
        out.push_str(escaped);
        if escaped == "\\u00" {
            write!(out, "{b:02x}").expect("writing to a String cannot fail");
        }
        run = k + 1;
    }
    out.push_str(&text[run..]);
    if quoted {
        out.push_str(quote);
    }
}

/// Parse a table from CSV produced by [`to_csv`] (or hand-written in the
/// same convention). All records must have the same field count.
pub fn from_csv(src: &str) -> Result<Table, CoreError> {
    Table::from_records(&parse_records(src)?)
}

/// A minimal RFC-4180 record parser (quotes, escaped quotes, embedded
/// newlines inside quoted fields).
fn parse_records(src: &str) -> Result<Vec<Vec<String>>, CoreError> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = src.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => in_quotes = true,
            ',' => {
                record.push(std::mem::take(&mut field));
            }
            '\r' => {}
            '\n' => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
            }
            _ => field.push(c),
        }
    }
    if in_quotes {
        return Err(CoreError::EmptyGrid); // unterminated quote: no valid grid
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !any {
        return Err(CoreError::EmptyGrid);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::symbol::Symbol;

    #[test]
    fn fixtures_round_trip() {
        for db in [
            fixtures::sales_info1_full(),
            fixtures::sales_info2_full(),
            fixtures::sales_info3_full(),
            fixtures::sales_info4_full(),
        ] {
            for t in db.tables() {
                let csv = to_csv(t);
                let back = from_csv(&csv).unwrap();
                assert_eq!(&back, t, "csv:\n{csv}");
            }
        }
    }

    #[test]
    fn csv_shape_is_human_readable() {
        let csv = to_csv(&fixtures::sales_relation());
        let first = csv.lines().next().unwrap();
        assert_eq!(first, "Sales,Part,Region,Sold");
        assert!(csv.lines().nth(1).unwrap().starts_with("_,nuts,"));
    }

    #[test]
    fn quoting_round_trips() {
        let t = Table::from_grid(&[&["T", "v:a,b", "n:say \"hi\""], &["r", "x\ny", "_"]]).unwrap();
        let csv = to_csv(&t);
        assert!(csv.contains("\"v:a,b\""));
        let back = from_csv(&csv).unwrap();
        assert_eq!(back, t);
        // Texts that would read as ⊥ or as a tag are tagged, whatever
        // their position's default sort.
        let t = Table::from_grid(&[&["T", "n:_", "v:⊥"], &["v:row", "v:_", "n:v:x"]]).unwrap();
        let csv = to_csv(&t);
        assert_eq!(csv, "T,n:_,v:⊥\nv:row,v:_,n:v:x\n");
        assert_eq!(from_csv(&csv).unwrap(), t);
    }

    #[test]
    fn carriage_returns_round_trip() {
        // An unquoted `\r` is dropped on reading, so a cell holding one
        // must be quoted.
        let t = Table::from_grid(&[&["T", "A"], &["_", "a\rb"]]).unwrap();
        let csv = to_csv(&t);
        assert_eq!(csv, "T,A\n_,\"a\rb\"\n");
        assert_eq!(from_csv(&csv).unwrap(), t);
    }

    #[test]
    fn json_mode_escapes_the_csv_once() {
        let t = Table::from_grid(&[&["T", "A"], &["_", "say \"hi\"\t\u{1}\\"]]).unwrap();
        let mut out = String::new();
        write_csv(&t, Escape::Json, &mut out);
        assert_eq!(out, r#"T,A\n_,\"say \"\"hi\"\"\t\u0001\\\"\n"#);
    }

    #[test]
    fn cached_rendering_is_shared_and_cleared_by_writes() {
        let mut t = fixtures::sales_relation();
        let (mut first, mut second) = (String::new(), String::new());
        assert!(
            !write_json_csv_cached(&t, &mut first),
            "a fresh table misses"
        );
        let snapshot = t.clone();
        assert!(
            write_json_csv_cached(&snapshot, &mut second),
            "a clone shares it"
        );
        assert_eq!(first, second);
        t.set(1, 1, Symbol::value("washers"));
        let mut third = String::new();
        assert!(!write_json_csv_cached(&t, &mut third), "a write clears it");
        assert!(third.contains("washers"));
        assert!(write_json_csv_cached(&snapshot, &mut String::new()));
    }

    #[test]
    fn hand_written_csv_parses() {
        let t = from_csv("Sales,Part,Sold\n_,nuts,50\n_,bolts,70\n").unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.get(2, 2), Symbol::value("70"));
        assert!(t.get(1, 0).is_null());
        // Missing trailing newline is fine.
        let t2 = from_csv("Sales,Part,Sold\n_,nuts,50").unwrap();
        assert_eq!(t2.height(), 1);
    }

    #[test]
    fn malformed_csv_is_rejected() {
        assert!(matches!(from_csv(""), Err(CoreError::EmptyGrid)));
        assert!(matches!(
            from_csv("T,A\nx\n"),
            Err(CoreError::RaggedGrid { .. })
        ));
        assert!(from_csv("T,\"unterminated\n").is_err());
        let reserved = "T,\u{1F}x\n_,1\n".to_string();
        assert!(matches!(
            from_csv(&reserved),
            Err(CoreError::ReservedSymbol(_))
        ));
    }

    #[test]
    fn empty_cells_are_empty_string_symbols() {
        // An empty unquoted cell is the empty-string name/value, not ⊥
        // (⊥ is spelled `_`). This keeps the mapping bijective.
        let t = from_csv("T,A\n_,\n").unwrap();
        assert_eq!(t.get(1, 1), Symbol::value(""));
    }
}
