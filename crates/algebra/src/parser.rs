//! A textual concrete syntax for tabular algebra programs.
//!
//! The paper presents TA abstractly (`T ← (operation)(parameter
//! list)(argument list)`); this module gives it a parseable ASCII form so
//! programs can be written in examples, docs, and tests and pretty-printed
//! back ([`crate::pretty`]):
//!
//! ```text
//! -- Figure 4 of the paper:
//! Sales <- GROUP[by {Region} on {Sold}](Sales)
//! -- Figure 5:
//! Flat  <- MERGE[on {Sold} by {Region}](Sales)
//! -- a loop:
//! while Work do
//!   Work <- DIFFERENCE(Work, Done)
//! end
//! ```
//!
//! Parameter items: bare identifiers are names, `v:x` is a value, `n:x` a
//! name explicitly, `"quoted strings"` allow arbitrary characters, `_` is
//! ⊥, `*` / `*3` are (subscripted) wildcards, `(row, col)` is an
//! entry-addressing pair, and `{a, b \ c}` is a set parameter with a
//! negative list after `\`.

use crate::error::{AlgebraError, Result};
use crate::param::{Item, Param};
use crate::program::{Assignment, OpKind, Program, RestructureChain, Statement};
use tabular_core::Symbol;

// ----------------------------------------------------------------------
// Lexer
// ----------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    Value(String),
    NameTagged(String),
    Star(u32),
    Null,
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Backslash,
    Arrow,  // <-
    Eq,     // =
    MapsTo, // ->
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    toks: Vec<(usize, Tok)>,
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.'
}

impl<'a> Lexer<'a> {
    fn err(&self, msg: impl Into<String>) -> AlgebraError {
        AlgebraError::Parse {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn lex(mut self) -> Result<Vec<(usize, Tok)>> {
        let bytes = self.src;
        while self.pos < bytes.len() {
            // `pos` only ever advances by whole-character byte counts, so
            // it stays on a char boundary — but this lexer faces untrusted
            // wire input, so a bookkeeping bug must surface as a parse
            // error, never a slice panic.
            let Some(rest) = bytes.get(self.pos..) else {
                return Err(self.err("lexer lost its position"));
            };
            let Some(c) = rest.chars().next() else {
                return Err(self.err("lexer lost its position"));
            };
            let start = self.pos;
            match c {
                c if c.is_whitespace() => self.pos += c.len_utf8(),
                '-' if rest.starts_with("--") => {
                    // Line comment.
                    self.pos += rest.find('\n').unwrap_or(rest.len());
                }
                '-' if rest.starts_with("->") => {
                    self.toks.push((start, Tok::MapsTo));
                    self.pos += 2;
                }
                '<' if rest.starts_with("<-") => {
                    self.toks.push((start, Tok::Arrow));
                    self.pos += 2;
                }
                '{' => {
                    self.toks.push((start, Tok::LBrace));
                    self.pos += 1;
                }
                '}' => {
                    self.toks.push((start, Tok::RBrace));
                    self.pos += 1;
                }
                '(' => {
                    self.toks.push((start, Tok::LParen));
                    self.pos += 1;
                }
                ')' => {
                    self.toks.push((start, Tok::RParen));
                    self.pos += 1;
                }
                '[' => {
                    self.toks.push((start, Tok::LBracket));
                    self.pos += 1;
                }
                ']' => {
                    self.toks.push((start, Tok::RBracket));
                    self.pos += 1;
                }
                ',' => {
                    self.toks.push((start, Tok::Comma));
                    self.pos += 1;
                }
                '\\' => {
                    self.toks.push((start, Tok::Backslash));
                    self.pos += 1;
                }
                '=' => {
                    self.toks.push((start, Tok::Eq));
                    self.pos += 1;
                }
                '*' => {
                    self.pos += 1;
                    let digits: String = bytes[self.pos..]
                        .chars()
                        .take_while(|c| c.is_ascii_digit())
                        .collect();
                    self.pos += digits.len();
                    let k = if digits.is_empty() {
                        0
                    } else {
                        digits.parse().map_err(|_| self.err("bad wildcard index"))?
                    };
                    self.toks.push((start, Tok::Star(k)));
                }
                '"' => {
                    let (s, consumed) = self.lex_quoted(&rest[1..])?;
                    self.toks.push((start, Tok::Ident(s)));
                    self.pos += consumed + 1;
                }
                _ if is_ident_char(c) => {
                    let word: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
                    self.pos += word.len();
                    // Tagged forms: v:x, n:x, possibly quoted.
                    if (word == "v" || word == "n")
                        && bytes.get(self.pos..).is_some_and(|r| r.starts_with(':'))
                    {
                        self.pos += 1;
                        let rest2 = bytes.get(self.pos..).unwrap_or("");
                        let text = if let Some(body) = rest2.strip_prefix('"') {
                            let (s, consumed) = self.lex_quoted(body)?;
                            self.pos += consumed + 1;
                            s
                        } else {
                            let w: String =
                                rest2.chars().take_while(|&c| is_ident_char(c)).collect();
                            if w.is_empty() {
                                return Err(self.err("expected text after tag"));
                            }
                            self.pos += w.len();
                            w
                        };
                        self.toks.push((
                            start,
                            if word == "v" {
                                Tok::Value(text)
                            } else {
                                Tok::NameTagged(text)
                            },
                        ));
                    } else if word == "_" {
                        self.toks.push((start, Tok::Null));
                    } else {
                        self.toks.push((start, Tok::Ident(word)));
                    }
                }
                _ => return Err(self.err(format!("unexpected character {c:?}"))),
            }
        }
        Ok(self.toks)
    }

    /// Lex a quoted string given the text *after* the opening quote;
    /// returns the contents and the byte count consumed *including* the
    /// closing quote.
    fn lex_quoted(&self, rest: &str) -> Result<(String, usize)> {
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((out, i + 1)),
                '\\' => match chars.next() {
                    Some((_, e)) => out.push(e),
                    None => break,
                },
                _ => out.push(c),
            }
        }
        Err(self.err("unterminated string"))
    }
}

// ----------------------------------------------------------------------
// Parser
// ----------------------------------------------------------------------

/// Maximum nesting depth of the recursive-descent parser (`while` bodies,
/// parenthesized entry pairs). The grammar never needs deep nesting in
/// practice, but the parser faces untrusted wire input: without a cap, a
/// body like `"((((("` × 100k recurses once per character and overflows
/// the stack — an abort, not an unwind, so a single malformed request
/// would take down the whole query service. Deeper-than-`MAX_DEPTH` input
/// is rejected with a regular parse error instead.
const MAX_DEPTH: usize = 128;

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    depth: usize,
}

/// Runs `body` with the parser's nesting depth incremented, erroring out
/// (rather than recursing further) past [`MAX_DEPTH`].
macro_rules! nested {
    ($self:ident, $body:expr) => {{
        if $self.depth >= MAX_DEPTH {
            return Err($self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        $self.depth += 1;
        let out = $body;
        $self.depth -= 1;
        out
    }};
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn at(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |(p, _)| *p)
    }

    fn err(&self, msg: impl Into<String>) -> AlgebraError {
        AlgebraError::Parse {
            at: self.at(),
            msg: msg.into(),
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<()> {
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.err(format!("expected keyword {kw:?}, found {other:?}"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn parse_program(&mut self) -> Result<Vec<Statement>> {
        nested!(self, self.parse_program_inner())
    }

    fn parse_program_inner(&mut self) -> Result<Vec<Statement>> {
        let mut stmts = Vec::new();
        while self.peek().is_some() && !self.peek_keyword("end") {
            stmts.push(self.parse_statement()?);
        }
        Ok(stmts)
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.peek_keyword("while") {
            self.keyword("while")?;
            let cond = self.parse_param()?;
            self.keyword("do")?;
            let body = self.parse_program()?;
            self.keyword("end")?;
            return Ok(Statement::While { cond, body });
        }
        let target = self.parse_param()?;
        self.expect(&Tok::Arrow, "`<-`")?;
        let op_name = match self.next() {
            Some(Tok::Ident(w)) => w.to_ascii_uppercase(),
            other => return Err(self.err(format!("expected operation name, found {other:?}"))),
        };
        let op = self.parse_op(&op_name)?;
        let args = self.parse_args()?;
        Ok(Statement::Assign(Assignment { target, op, args }))
    }

    fn parse_op(&mut self, name: &str) -> Result<OpKind> {
        let op = match name {
            "UNION" => OpKind::Union,
            "DIFFERENCE" => OpKind::Difference,
            "INTERSECT" => OpKind::Intersect,
            "PRODUCT" => OpKind::Product,
            "TRANSPOSE" => OpKind::Transpose,
            "COPY" => OpKind::Copy,
            "CLASSICALUNION" => OpKind::ClassicalUnion,
            "RENAME" => {
                self.expect(&Tok::LBracket, "`[`")?;
                let from = self.parse_param()?;
                self.expect(&Tok::MapsTo, "`->`")?;
                let to = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::Rename { from, to }
            }
            "PROJECT" => {
                self.expect(&Tok::LBracket, "`[`")?;
                let attrs = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::Project { attrs }
            }
            "SELECT" => {
                self.expect(&Tok::LBracket, "`[`")?;
                let a = self.parse_param()?;
                self.expect(&Tok::Eq, "`=`")?;
                let b = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::Select { a, b }
            }
            "FUSEDJOIN" => {
                self.expect(&Tok::LBracket, "`[`")?;
                let a = self.parse_param()?;
                self.expect(&Tok::Eq, "`=`")?;
                let b = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::FusedJoin { a, b }
            }
            "SELECTCONST" => {
                self.expect(&Tok::LBracket, "`[`")?;
                let a = self.parse_param()?;
                self.expect(&Tok::Eq, "`=`")?;
                let v = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::SelectConst { a, v }
            }
            "GROUP" => {
                self.expect(&Tok::LBracket, "`[`")?;
                self.keyword("by")?;
                let by = self.parse_param()?;
                self.keyword("on")?;
                let on = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::Group { by, on }
            }
            "MERGE" => {
                self.expect(&Tok::LBracket, "`[`")?;
                self.keyword("on")?;
                let on = self.parse_param()?;
                self.keyword("by")?;
                let by = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::Merge { on, by }
            }
            "SPLIT" => {
                self.expect(&Tok::LBracket, "`[`")?;
                self.keyword("on")?;
                let on = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::Split { on }
            }
            "COLLAPSE" => {
                self.expect(&Tok::LBracket, "`[`")?;
                self.keyword("by")?;
                let by = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::Collapse { by }
            }
            "SWITCH" => {
                self.expect(&Tok::LBracket, "`[`")?;
                let entry = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::Switch { entry }
            }
            "CLEANUP" => {
                self.expect(&Tok::LBracket, "`[`")?;
                self.keyword("by")?;
                let by = self.parse_param()?;
                self.keyword("on")?;
                let on = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::CleanUp { by, on }
            }
            "PURGE" => {
                self.expect(&Tok::LBracket, "`[`")?;
                self.keyword("on")?;
                let on = self.parse_param()?;
                self.keyword("by")?;
                let by = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::Purge { on, by }
            }
            "FUSEDRESTRUCTURE" => {
                self.expect(&Tok::LBracket, "`[`")?;
                self.keyword("group")?;
                self.keyword("by")?;
                let group_by = self.parse_param()?;
                self.keyword("on")?;
                let group_on = self.parse_param()?;
                self.keyword("cleanup")?;
                self.keyword("by")?;
                let cleanup_by = self.parse_param()?;
                self.keyword("on")?;
                let cleanup_on = self.parse_param()?;
                let purge = if self.peek_keyword("purge") {
                    self.keyword("purge")?;
                    self.keyword("on")?;
                    let on = self.parse_param()?;
                    self.keyword("by")?;
                    let by = self.parse_param()?;
                    Some((on, by))
                } else {
                    None
                };
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::FusedRestructure(Box::new(RestructureChain {
                    group_by,
                    group_on,
                    cleanup_by,
                    cleanup_on,
                    purge,
                }))
            }
            "TUPLENEW" => {
                self.expect(&Tok::LBracket, "`[`")?;
                let attr = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::TupleNew { attr }
            }
            "SETNEW" => {
                self.expect(&Tok::LBracket, "`[`")?;
                let attr = self.parse_param()?;
                self.expect(&Tok::RBracket, "`]`")?;
                OpKind::SetNew { attr }
            }
            _ => return Err(self.err(format!("unknown operation {name:?}"))),
        };
        Ok(op)
    }

    fn parse_args(&mut self) -> Result<Vec<Param>> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                args.push(self.parse_param()?);
                match self.next() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    other => return Err(self.err(format!("expected `,` or `)`, found {other:?}"))),
                }
            }
        } else {
            self.next();
        }
        Ok(args)
    }

    /// A parameter: either a single item or a braced list with an optional
    /// negative part after `\`.
    fn parse_param(&mut self) -> Result<Param> {
        nested!(self, self.parse_param_inner())
    }

    fn parse_param_inner(&mut self) -> Result<Param> {
        if self.peek() == Some(&Tok::LBrace) {
            self.next();
            let mut param = Param::default();
            let mut negative = false;
            loop {
                match self.peek() {
                    Some(Tok::RBrace) => {
                        self.next();
                        break;
                    }
                    Some(Tok::Comma) => {
                        self.next();
                    }
                    Some(Tok::Backslash) => {
                        self.next();
                        negative = true;
                    }
                    Some(_) => {
                        let item = self.parse_item()?;
                        if negative {
                            param.negative.push(item);
                        } else {
                            param.positive.push(item);
                        }
                    }
                    None => return Err(self.err("unterminated `{`")),
                }
            }
            Ok(param)
        } else {
            let item = self.parse_item()?;
            // A bare item may still carry a negative list: `* \ A`.
            let mut param = Param {
                positive: vec![item],
                negative: vec![],
            };
            while self.peek() == Some(&Tok::Backslash) {
                self.next();
                param.negative.push(self.parse_item()?);
            }
            Ok(param)
        }
    }

    fn parse_item(&mut self) -> Result<Item> {
        match self.next() {
            Some(Tok::Ident(w)) | Some(Tok::NameTagged(w)) => Ok(Item::Sym(Symbol::name(&w))),
            Some(Tok::Value(w)) => Ok(Item::Sym(Symbol::value(&w))),
            Some(Tok::Null) => Ok(Item::Null),
            Some(Tok::Star(k)) => Ok(Item::Star(k)),
            Some(Tok::LParen) => {
                let row = self.parse_param()?;
                self.expect(&Tok::Comma, "`,`")?;
                let col = self.parse_param()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Item::Pair(Box::new(row), Box::new(col)))
            }
            other => Err(self.err(format!("expected parameter item, found {other:?}"))),
        }
    }
}

/// Parse a tabular algebra program from its textual form.
pub fn parse(src: &str) -> Result<Program> {
    let toks = Lexer {
        src,
        pos: 0,
        toks: Vec::new(),
    }
    .lex()?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let statements = p.parse_program()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input"));
    }
    Ok(Program { statements })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run_governed_traced;
    use crate::governor::Budget;
    use tabular_core::fixtures;

    #[test]
    fn parses_figure_4_statement() {
        let p = parse("Sales <- GROUP[by {Region} on {Sold}](Sales)").unwrap();
        assert_eq!(p.statements.len(), 1);
        let out = run_governed_traced(&p, &fixtures::sales_info1(), &Budget::default())
            .unwrap()
            .0;
        assert_eq!(
            out.table_str("Sales").unwrap(),
            &fixtures::figure4_grouped()
        );
    }

    #[test]
    fn parses_figure_5_statement() {
        let p = parse("Sales <- MERGE[on {Sold} by {Region}](Sales)").unwrap();
        let out = run_governed_traced(&p, &fixtures::sales_info2(), &Budget::default())
            .unwrap()
            .0;
        assert_eq!(out.table_str("Sales").unwrap(), &fixtures::figure5_merged());
    }

    #[test]
    fn parses_every_operation() {
        let src = r#"
            -- all operations in one program
            T <- UNION(R, S)
            T <- DIFFERENCE(R, S)
            T <- INTERSECT(R, S)
            T <- PRODUCT(R, S)
            T <- CLASSICALUNION(R, S)
            T <- RENAME[A -> B](R)
            T <- PROJECT[{A, B}](R)
            T <- SELECT[A = B](R)
            T <- SELECTCONST[A = v:50](R)
            T <- GROUP[by {Region} on {Sold}](R)
            T <- MERGE[on {Sold} by {Region}](R)
            T <- SPLIT[on {Region}](R)
            T <- COLLAPSE[by {Region}](R)
            T <- TRANSPOSE(R)
            T <- SWITCH[v:east](R)
            T <- CLEANUP[by {Part} on {_}](R)
            T <- PURGE[on {Sold} by {Region}](R)
            T <- FUSEDRESTRUCTURE[group by {Region} on {Sold} cleanup by {Part} on {_} purge on {Sold} by {Region}](R)
            T <- FUSEDRESTRUCTURE[group by {Region} on {Sold} cleanup by {Part} on {_}](R)
            T <- TUPLENEW[Id](R)
            T <- SETNEW[Tag](R)
            T <- COPY(R)
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.statements.len(), 22);
    }

    #[test]
    fn parses_fused_restructure_clauses() {
        let p =
            parse("T <- FUSEDRESTRUCTURE[group by {Region} on {Sold} cleanup by {Part} on {_}](R)")
                .unwrap();
        let Statement::Assign(a) = &p.statements[0] else {
            panic!("expected assignment")
        };
        let OpKind::FusedRestructure(chain) = &a.op else {
            panic!("expected fused restructure")
        };
        assert!(chain.purge.is_none());
        assert!(parse("T <- FUSEDRESTRUCTURE[group by {A} on {B}](R)").is_err());
        assert!(parse("T <- FUSEDRESTRUCTURE[cleanup by {A} on {B}](R)").is_err());
    }

    #[test]
    fn parses_while_loops() {
        let src = "while T do T <- DIFFERENCE(T, T) end";
        let p = parse(src).unwrap();
        assert!(matches!(&p.statements[0], Statement::While { body, .. } if body.len() == 1));
    }

    #[test]
    fn parses_wildcards_and_negatives() {
        let p = parse("*1 <- PROJECT[{* \\ Region}](*1)").unwrap();
        let Statement::Assign(a) = &p.statements[0] else {
            panic!("expected assignment")
        };
        assert_eq!(a.target, Param::star_k(1));
        let OpKind::Project { attrs } = &a.op else {
            panic!("expected project")
        };
        assert_eq!(attrs.positive, vec![Item::Star(0)]);
        assert_eq!(attrs.negative, vec![Item::Sym(Symbol::name("Region"))]);
    }

    #[test]
    fn parses_pairs_and_quoted_strings() {
        let p = parse(r#"T <- SWITCH[(Region, "Sold")](R)"#).unwrap();
        let Statement::Assign(a) = &p.statements[0] else {
            panic!("expected assignment")
        };
        let OpKind::Switch { entry } = &a.op else {
            panic!("expected switch")
        };
        assert!(matches!(entry.positive[0], Item::Pair(_, _)));
    }

    #[test]
    fn parses_null_and_value_tags() {
        let p = parse("T <- CLEANUP[by {A} on {_, v:east}](R)").unwrap();
        let Statement::Assign(a) = &p.statements[0] else {
            panic!("expected assignment")
        };
        let OpKind::CleanUp { on, .. } = &a.op else {
            panic!("expected cleanup")
        };
        assert!(on.positive.contains(&Item::Null));
        assert!(on.positive.contains(&Item::Sym(Symbol::value("east"))));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("T <- FROBNICATE(R)").is_err());
        assert!(parse("T <-").is_err());
        assert!(parse("T <- UNION(R, S) garbage ?").is_err());
        assert!(parse("while T do T <- COPY(R)").is_err()); // missing end
        assert!(parse(r#"T <- SWITCH["unterminated](R)"#).is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // Untrusted input: without the depth cap each of these recursed
        // once per character and overflowed the stack (a process abort,
        // not an unwind).
        let bomb = "(".repeat(200_000);
        assert!(matches!(
            parse(&format!("T <- SWITCH[{bomb}](R)")),
            Err(AlgebraError::Parse { .. })
        ));
        assert!(matches!(parse(&bomb), Err(AlgebraError::Parse { .. })));
        let whiles = "while W do ".repeat(200_000);
        assert!(matches!(parse(&whiles), Err(AlgebraError::Parse { .. })));
        // Reasonable nesting still parses.
        let ok = format!("T <- SWITCH[{}A{}](R)", "(".repeat(20), ",B)".repeat(20));
        assert!(parse(&ok).is_ok(), "20-deep pair nesting should parse");
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse("-- nothing here\nT <- COPY(R) -- trailing\n").unwrap();
        assert_eq!(p.statements.len(), 1);
    }

    #[test]
    fn empty_program_parses() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("  -- only a comment").unwrap().is_empty());
    }
}
