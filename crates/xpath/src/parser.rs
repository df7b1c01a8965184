//! Parser for Core XPath.
//!
//! Accepts both the paper's explicit notation and abbreviated XPath:
//!
//! * `child::a`, `descendant::*`, `following-sibling::b`, `parent::*` —
//!   explicit axes (all [`Axis::parse`] names work, including `child+`);
//! * `/a/b`, `//a`, `a//b` — abbreviated steps (default axis `child`,
//!   `//` for `descendant`); `.` is `self::*`, `..` is `parent::*`;
//! * qualifiers `[...]` containing `and`, `or`, `not(...)`, nested
//!   relative paths, and label tests `lab()=a` (also `self::a`);
//! * unions with `|` (or `∪`).

use treequery_tree::Axis;

use crate::ast::{Path, Qual};

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for XPathParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "xpath parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for XPathParseError {}

/// The deepest bracket nesting — `(`…`)`, `[`…`]`, `not(`…`)` — the
/// parser accepts. The grammar is parsed by recursive descent, so the
/// bound is what keeps a hostile expression from exhausting the stack.
const MAX_NESTING: usize = 128;

struct P<'a> {
    input: &'a str,
    pos: usize,
    /// Brackets open at `pos`.
    depth: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, XPathParseError> {
        Err(XPathParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    /// Parses the inside of one bracket level with `f`, refusing to go
    /// deeper than [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, XPathParseError>,
    ) -> Result<T, XPathParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("brackets nested deeper than {MAX_NESTING}"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn ws(&mut self) {
        while self.input[self.pos..]
            .chars()
            .next()
            .is_some_and(char::is_whitespace)
        {
            self.pos += 1;
        }
    }

    fn peek_str(&mut self, pat: &str) -> bool {
        self.ws();
        self.input[self.pos..].starts_with(pat)
    }

    fn eat(&mut self, pat: &str) -> bool {
        if self.peek_str(pat) {
            self.pos += pat.len();
            true
        } else {
            false
        }
    }

    /// A name: letters/digits/underscore/hyphen with optional trailing
    /// `+`/`*` (for the paper's axis names).
    fn name(&mut self) -> Result<&'a str, XPathParseError> {
        self.ws();
        let start = self.pos;
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_alphanumeric() || matches!(bytes[self.pos], b'_' | b'-'))
        {
            self.pos += 1;
        }
        while self.pos < bytes.len() && matches!(bytes[self.pos], b'+' | b'*') {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(&self.input[start..self.pos])
    }

    /// union := sequence ( '|' sequence )*
    fn union(&mut self) -> Result<Path, XPathParseError> {
        let p = self.sequence()?;
        self.union_rest(p)
    }

    /// The `( '|' sequence )*` tail of a union whose first sequence is `p`.
    fn union_rest(&mut self, mut p: Path) -> Result<Path, XPathParseError> {
        loop {
            self.ws();
            if self.eat("|") || self.eat("∪") {
                let rhs = self.sequence()?;
                p = p.union(rhs);
            } else {
                return Ok(p);
            }
        }
    }

    /// sequence := ('/' | '//')? step ( ('/' | '//') step )*
    ///
    /// A leading `/` is allowed and ignored (queries are evaluated from
    /// the virtual document node either way); `//` turns the following
    /// abbreviated step's axis into `descendant`.
    fn sequence(&mut self) -> Result<Path, XPathParseError> {
        let mut descendant_prefix = false;
        if self.eat("//") {
            descendant_prefix = true;
        } else {
            let _ = self.eat("/");
        }
        let p = self.step(descendant_prefix)?;
        self.sequence_rest(p)
    }

    /// The `( ('/' | '//') step )*` tail of a sequence whose first step is
    /// `p`.
    fn sequence_rest(&mut self, mut p: Path) -> Result<Path, XPathParseError> {
        loop {
            self.ws();
            if self.peek_str("//") {
                self.eat("//");
                let s = self.step(true)?;
                p = p.then(s);
            } else if self.peek_str("/") && !self.peek_str("/)") {
                self.eat("/");
                let s = self.step(false)?;
                p = p.then(s);
            } else {
                return Ok(p);
            }
        }
    }

    /// step := '(' union ')' | axis_spec, followed by ('[' qual ']')*
    ///
    /// The parenthesized form makes the [`Path`] `Display` output (which
    /// prints unions as `(a | b)`) re-parseable wherever a step can
    /// appear, e.g. `x/(a | b)/y`.
    fn step(&mut self, descendant: bool) -> Result<Path, XPathParseError> {
        self.ws();
        let path = if self.eat("(") {
            let inner = self.nested(Self::union)?;
            if !self.eat(")") {
                return self.err("expected ')' after path group");
            }
            if descendant {
                // `//(a | b)` — insert a descendant-or-self hop, as for
                // `//axis::x`.
                Path::step(Axis::DescendantOrSelf).then(inner)
            } else {
                inner
            }
        } else if self.eat("..") {
            Path::step(Axis::Parent)
        } else if self.eat(".") {
            Path::step(Axis::SelfAxis)
        } else if self.eat("*") {
            Path::step(if descendant {
                Axis::Descendant
            } else {
                Axis::Child
            })
        } else {
            let save = self.pos;
            let n = self.name()?;
            if self.eat("::") {
                // Explicit axis.
                let Some(axis) = Axis::parse(n) else {
                    self.pos = save;
                    return self.err(format!("unknown axis '{n}'"));
                };
                let test = self.node_test(axis)?;
                if descendant {
                    // `//axis::x` — insert a descendant-or-self hop.
                    Path::step(Axis::DescendantOrSelf).then(test)
                } else {
                    test
                }
            } else {
                // Abbreviated name step.
                let axis = if descendant {
                    Axis::Descendant
                } else {
                    Axis::Child
                };
                Path::labeled_step(axis, n)
            }
        };
        self.filters(path)
    }

    /// The `('[' qual ']')*` filters after a step.
    fn filters(&mut self, mut path: Path) -> Result<Path, XPathParseError> {
        while self.eat("[") {
            let q = self.nested(Self::qual)?;
            if !self.eat("]") {
                return self.err("expected ']'");
            }
            path = path.filtered(q);
        }
        Ok(path)
    }

    /// The node test after `axis::` — `*` or a label name.
    fn node_test(&mut self, axis: Axis) -> Result<Path, XPathParseError> {
        self.ws();
        if self.eat("*") {
            Ok(Path::step(axis))
        } else {
            let label = self.name()?;
            Ok(Path::labeled_step(axis, label))
        }
    }

    /// qual := and_expr ('or' and_expr)*
    fn qual(&mut self) -> Result<Qual, XPathParseError> {
        let mut q = self.and_expr()?;
        while self.eat_word("or") {
            let rhs = self.and_expr()?;
            q = Qual::Or(Box::new(q), Box::new(rhs));
        }
        Ok(q)
    }

    fn and_expr(&mut self) -> Result<Qual, XPathParseError> {
        let mut q = self.unary_qual()?;
        while self.eat_word("and") {
            let rhs = self.unary_qual()?;
            q = Qual::And(Box::new(q), Box::new(rhs));
        }
        Ok(q)
    }

    /// Keyword match that does not eat prefixes of longer names.
    fn eat_word(&mut self, w: &str) -> bool {
        self.ws();
        let rest = &self.input[self.pos..];
        if let Some(after_str) = rest.strip_prefix(w) {
            let after = after_str.chars().next();
            if !after.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
                self.pos += w.len();
                return true;
            }
        }
        false
    }

    /// Eats the keyword of a call form (`not(`, `lab(`) only when its
    /// `(` follows, so a path may start with a step named `not` or `lab`
    /// — every path must also read as a qualifier (see `unary_qual`).
    fn eat_call(&mut self, w: &str) -> bool {
        let save = self.pos;
        if self.eat_word(w) && self.peek_str("(") {
            return true;
        }
        self.pos = save;
        false
    }

    fn unary_qual(&mut self) -> Result<Qual, XPathParseError> {
        self.ws();
        if self.eat_call("not") {
            self.eat("(");
            let q = self.nested(Self::qual)?;
            if !self.eat(")") {
                return self.err("expected ')'");
            }
            return Ok(Qual::Not(Box::new(q)));
        }
        if self.peek_str("(") {
            // Ambiguous: `(...)` may group a qualifier (`(a and b)`) or
            // start a path whose head is a parenthesized group
            // (`(a | b)/c`). Every path parses as a qualifier too, so
            // read a qualifier; if the close paren is followed by more
            // path syntax, the group was a path's head step and the path
            // continues from it. (Re-parsing the group as a path instead
            // is exponential in the nesting of such groups.)
            self.eat("(");
            let q = self.nested(Self::qual)?;
            if !self.eat(")") {
                return self.err("expected ')'");
            }
            if !(self.peek_str("/") || self.peek_str("[")) {
                return Ok(q);
            }
            let Qual::Path(head) = q else {
                return self.err("a qualifier group cannot start a path");
            };
            let p = self.filters(head)?;
            let p = self.sequence_rest(p)?;
            return Ok(Qual::Path(self.union_rest(p)?));
        }
        if self.eat_call("lab") {
            if !(self.eat("(") && self.eat(")") && self.eat("=")) {
                return self.err("expected lab()=label");
            }
            let label = self.name()?;
            return Ok(Qual::Label(label.to_owned()));
        }
        // A relative path qualifier.
        let p = self.union()?;
        Ok(Qual::Path(p))
    }
}

/// Parses a Core XPath expression.
pub fn parse_xpath(input: &str) -> Result<Path, XPathParseError> {
    let mut p = P {
        input,
        pos: 0,
        depth: 0,
    };
    let path = p.union()?;
    p.ws();
    if p.pos != input.len() {
        return p.err("trailing input");
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbreviated_steps() {
        let p = parse_xpath("/site/people/person").unwrap();
        assert_eq!(
            p,
            Path::labeled_step(Axis::Child, "site")
                .then(Path::labeled_step(Axis::Child, "people"))
                .then(Path::labeled_step(Axis::Child, "person"))
        );
    }

    #[test]
    fn descendant_abbreviation() {
        let p = parse_xpath("//person//name").unwrap();
        assert_eq!(
            p,
            Path::labeled_step(Axis::Descendant, "person")
                .then(Path::labeled_step(Axis::Descendant, "name"))
        );
    }

    #[test]
    fn explicit_axes() {
        let p = parse_xpath("child::a/following-sibling::*/parent::b").unwrap();
        assert_eq!(
            p,
            Path::labeled_step(Axis::Child, "a")
                .then(Path::step(Axis::FollowingSibling))
                .then(Path::labeled_step(Axis::Parent, "b"))
        );
    }

    #[test]
    fn paper_axis_names() {
        let p = parse_xpath("child+::a").unwrap();
        assert_eq!(p, Path::labeled_step(Axis::Descendant, "a"));
    }

    #[test]
    fn qualifiers() {
        let p = parse_xpath("//a[b and not(c or lab()=d)]").unwrap();
        let Path::Step { axis, quals } = &p else {
            panic!("expected step")
        };
        assert_eq!(*axis, Axis::Descendant);
        assert_eq!(quals.len(), 2); // label test + the bracket qualifier
        let Qual::And(lhs, rhs) = &quals[1] else {
            panic!("expected And, got {:?}", quals[1])
        };
        assert!(matches!(**lhs, Qual::Path(_)));
        assert!(matches!(**rhs, Qual::Not(_)));
    }

    #[test]
    fn union_and_parens_inside_qualifier() {
        let p = parse_xpath("a | b[c | d]").unwrap();
        assert!(matches!(p, Path::Union(..)));
    }

    #[test]
    fn dot_and_dotdot() {
        let p = parse_xpath("./..").unwrap();
        assert_eq!(p, Path::step(Axis::SelfAxis).then(Path::step(Axis::Parent)));
    }

    #[test]
    fn nested_path_qualifiers() {
        let p = parse_xpath("//open_auction[bidder/increase]").unwrap();
        let Path::Step { quals, .. } = &p else {
            panic!()
        };
        assert_eq!(quals.len(), 2);
    }

    #[test]
    fn double_slash_with_explicit_axis() {
        let p = parse_xpath("a//ancestor::b").unwrap();
        // a / descendant-or-self::* / ancestor::b
        assert!(matches!(p, Path::Seq(..)));
    }

    #[test]
    fn reflexive_paper_axis_names() {
        assert_eq!(
            parse_xpath("child*::*").unwrap(),
            Path::step(Axis::DescendantOrSelf)
        );
        assert_eq!(
            parse_xpath("nextsibling*::a").unwrap(),
            Path::labeled_step(Axis::FollowingSiblingOrSelf, "a")
        );
    }

    #[test]
    fn parenthesized_path_groups() {
        let u = Path::labeled_step(Axis::Child, "a").union(Path::labeled_step(Axis::Child, "b"));
        assert_eq!(parse_xpath("(a | b)").unwrap(), u.clone());
        assert_eq!(
            parse_xpath("x/(a | b)/y").unwrap(),
            Path::labeled_step(Axis::Child, "x")
                .then(u.clone())
                .then(Path::labeled_step(Axis::Child, "y"))
        );
        // `//(...)` inserts the usual descendant-or-self hop.
        assert_eq!(
            parse_xpath("//(a | b)").unwrap(),
            Path::step(Axis::DescendantOrSelf).then(u)
        );
    }

    #[test]
    fn qualifier_starting_with_group() {
        // `(a | b)/c` inside a qualifier is a path, not a grouped qual.
        let p = parse_xpath("x[(a | b)/c]").unwrap();
        let Path::Step { quals, .. } = &p else {
            panic!()
        };
        let Qual::Path(q) = &quals[1] else {
            panic!("expected path qualifier, got {:?}", quals[1])
        };
        assert!(matches!(q, Path::Seq(..)));
    }

    #[test]
    fn display_reparses_identically() {
        for src in [
            "//a[b and not(c or lab()=d)]",
            "(a | b[c | d])/e",
            "child*::* | nextsibling*::x",
            "a//ancestor::b[preceding-sibling::c]",
            "x[(a | b)/c]/..",
        ] {
            let p = parse_xpath(src).unwrap();
            let printed = p.to_string();
            let re = parse_xpath(&printed)
                .unwrap_or_else(|e| panic!("display of {src:?} = {printed:?} failed: {e}"));
            // `Seq` associativity may differ after a re-parse, so compare
            // the printed forms (the fixpoint the corpus format relies on)
            // rather than the ASTs.
            assert_eq!(re.to_string(), printed, "{src:?}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse_xpath("").is_err());
        assert!(parse_xpath("frob::a").is_err());
        assert!(parse_xpath("a[b").is_err());
        assert!(parse_xpath("a]").is_err());
        assert!(parse_xpath("a[not b]").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest =
            |open: &str, close: &str, n: usize| format!("//a{}{}", open.repeat(n), close.repeat(n));
        assert!(parse_xpath(&nest("[a", "]", MAX_NESTING)).is_ok());
        for (open, close) in [("[a", "]"), ("[not(a", ")]"), ("[(a", ")]"), ("/(a", ")")] {
            let err = parse_xpath(&nest(open, close, 100_000)).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{open}: {err}");
        }
    }

    #[test]
    fn keywords_without_a_call_are_labels() {
        for (src, printed) in [
            (
                "a[not/x]",
                "child::*[lab()=a][child::*[lab()=not]/child::*[lab()=x]]",
            ),
            (
                "a[(lab/x)/y]",
                "child::*[lab()=a][child::*[lab()=lab]/child::*[lab()=x]/child::*[lab()=y]]",
            ),
        ] {
            assert_eq!(parse_xpath(src).unwrap().to_string(), printed, "{src}");
        }
    }

    #[test]
    fn path_groups_in_qualifiers_parse_in_linear_time() {
        // Each level is a qualifier group that turns out to head a path;
        // re-parsing every such group as a path doubled the work per level.
        let levels = MAX_NESTING / 2;
        let q = format!("//a{}{}", "[(a".repeat(levels), ")/b]".repeat(levels));
        let started = std::time::Instant::now();
        let p = parse_xpath(&q).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(
            parse_xpath(&p.to_string()).unwrap().to_string(),
            p.to_string()
        );
        // Unclosed levels fail just as fast.
        let started = std::time::Instant::now();
        assert!(parse_xpath(&format!("//a{}", "[(a".repeat(levels))).is_err());
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }
}
