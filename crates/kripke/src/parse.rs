//! A small text syntax for formulas, used by the `eba-check` command-line
//! model checker and handy in tests.
//!
//! Grammar (ASCII-friendly; processors are 1-based as in the paper):
//!
//! ```text
//! formula := iff
//! iff     := imp ( '<->' imp )*
//! imp     := or ( '->' or )*            (right-associative)
//! or      := and ( '|' and )*
//! and     := unary ( '&' unary )*
//! unary   := '!' unary | modal
//! modal   := 'K_'i '(' formula ')'      knowledge, K_i
//!          | 'B_'i '(' formula ')'      belief relative to N, B^N_i
//!          | 'E'  '(' formula ')'       everyone in N
//!          | 'C'  '(' formula ')'       common knowledge among N
//!          | 'CC' '(' formula ')'       continual common knowledge, C□_N
//!          | 'G'  '(' formula ')'       always (present and future), □
//!          | 'F'  '(' formula ')'       eventually, ◇
//!          | 'A'  '(' formula ')'       at all times of the run, □̄
//!          | 'S'  '(' formula ')'       at some time of the run, ◇̄
//!          | atom | '(' formula ')'
//! atom    := 'true' | 'false'
//!          | 'E0' | 'E1'                ∃0, ∃1
//!          | 'init('i')=0' | 'init('i')=1'
//!          | 'N('i')'                   i ∈ N
//! ```
//!
//! All modal operators are indexed by the nonfaulty set `N`; richer set
//! expressions (e.g. `N ∧ A` with registered state sets) are available
//! through the programmatic API only, since they need evaluator-issued
//! ids.
//!
//! In addition to the ASCII syntax above, the parser accepts the unicode
//! notation that [`Formula`]'s `Display` produces (`∃0`, `¬`, `∧`, `∨`,
//! `⊤`, `⊥`, `K_p1(…)`, `B^N_p1(…)`, `E_N`, `C_N`, `C□_N`, `□`, `◇`,
//! `□̄`, `◇̄`, `p1∈N`), so `parse(format!("{f}")) == f` round-trips for
//! every `N`-indexed formula — property-tested in the workspace suite.
//!
//! # Example
//!
//! ```
//! use eba_kripke::parse::parse_formula;
//!
//! let f = parse_formula("B_1(E0 & CC(E0))").expect("example formula is well-formed");
//! assert!(f.to_string().contains("C□_N"));
//! assert!(parse_formula("E0 &").is_err());
//! ```

use crate::{Formula, NonRigidSet};
use eba_model::{ProcessorId, Value};
use std::error::Error;
use std::fmt;

/// A parse error: what went wrong and where (byte offset).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for ParseError {}

/// Nesting depth — of parentheses and modal operators, `!` and `->` —
/// past which [`parse_formula`] rejects the input. Written and generated
/// formulas nest a handful of levels; 64 leaves generous headroom while
/// keeping the parser's recursion, and that of every later pass over the
/// formula, well inside a default 2 MiB thread stack (an unoptimized
/// build spends about 10 KiB of stack per parenthesis level).
const MAX_DEPTH: usize = 64;

/// Formula size past which [`parse_formula`] rejects the input, counted as
/// one node per operand or operator plus the copies `<->` makes: `a <-> b`
/// desugars to `(a -> b) & (b -> a)`, so without a bound a short chain of
/// `<->` expands exponentially.
const MAX_NODES: usize = 100_000;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
    nodes: usize,
}

/// Parses a formula from the textual syntax; see the module docs.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending position on malformed
/// input, and on input nested deeper than 64 levels or expanding past
/// 100 000 formula nodes.
pub fn parse_formula(input: &str) -> Result<Formula, ParseError> {
    let mut parser = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
        nodes: 0,
    };
    let formula = parser.iff()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(parser.error("trailing input"));
    }
    Ok(formula)
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// Runs `parse` one nesting level deeper, rejecting input nested past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Formula, ParseError>,
    ) -> Result<Formula, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("formula nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    /// Accounts for `count` more formula nodes, rejecting input past
    /// [`MAX_NODES`].
    fn grow(&mut self, count: usize) -> Result<(), ParseError> {
        self.nodes += count;
        if self.nodes > MAX_NODES {
            return Err(self.error(format!("formula larger than {MAX_NODES} nodes")));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{token}`")))
        }
    }

    fn number(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("digits are valid UTF-8")
            .parse()
            .map_err(|_| self.error("number out of range"))
    }

    /// A 1-based processor index from the input, converted to 0-based.
    /// Accepts an optional `p` prefix (the Display form).
    fn processor(&mut self) -> Result<ProcessorId, ParseError> {
        self.skip_ws();
        if self.input.get(self.pos) == Some(&b'p')
            && self.input.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
        {
            self.pos += 1;
        }
        let raw = self.number()?;
        if raw == 0 || raw > ProcessorId::MAX_PROCESSORS {
            return Err(self.error("processor indices are 1-based and ≤ 128"));
        }
        Ok(ProcessorId::new(raw - 1))
    }

    fn iff(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.imp()?;
        while self.eat("<->") {
            let right = self.imp()?;
            // `iff` copies both sides; account for the copies first.
            self.grow(left.size() + right.size())?;
            left = left.iff(right);
        }
        Ok(left)
    }

    fn imp(&mut self) -> Result<Formula, ParseError> {
        let left = self.or()?;
        self.skip_ws();
        // `->` must not consume the `-` of `<->` (handled in iff) — at
        // this point a leading `<` never occurs, so plain matching works.
        if self.eat("->") {
            let right = self.nested(Self::imp)?; // right-associative
            return Ok(left.implies(right));
        }
        Ok(left)
    }

    fn or(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.and()?;
        loop {
            if self.peek() == Some(b'|') {
                self.pos += 1;
            } else if !self.eat("∨") {
                break;
            }
            let right = self.and()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.unary()?;
        loop {
            if self.peek() == Some(b'&') {
                self.pos += 1;
            } else if !self.eat("∧") {
                break;
            }
            let right = self.unary()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        self.grow(1)?;
        if self.peek() == Some(b'!') {
            self.pos += 1;
            return Ok(self.nested(Self::unary)?.not());
        }
        if self.eat("¬") {
            return Ok(self.nested(Self::unary)?.not());
        }
        self.modal()
    }

    fn parens(&mut self) -> Result<Formula, ParseError> {
        self.expect("(")?;
        let inner = self.nested(Self::iff)?;
        self.expect(")")?;
        Ok(inner)
    }

    fn modal(&mut self) -> Result<Formula, ParseError> {
        self.skip_ws();

        // Atoms that begin with letters also used by operators are
        // matched first (longest-match). Unicode alternatives mirror the
        // Display output.
        if self.eat("true") || self.eat("⊤") {
            return Ok(Formula::True);
        }
        if self.eat("false") || self.eat("⊥") {
            return Ok(Formula::False);
        }
        if self.eat("init(") {
            let p = self.processor()?;
            self.expect(")")?;
            self.expect("=")?;
            let v = self.value()?;
            return Ok(Formula::Initial(p, v));
        }
        if self.eat("E0") || self.eat("∃0") {
            return Ok(Formula::exists(Value::Zero));
        }
        if self.eat("E1") || self.eat("∃1") {
            return Ok(Formula::exists(Value::One));
        }
        if self.eat("K_") {
            let p = self.processor()?;
            return Ok(self.parens()?.known_by(p));
        }
        if self.eat("B^N_") || self.eat("B_") {
            let p = self.processor()?;
            return Ok(self.parens()?.believed_by(p, NonRigidSet::Nonfaulty));
        }
        if self.eat("B^All_") {
            let p = self.processor()?;
            return Ok(self.parens()?.believed_by(p, NonRigidSet::Everyone));
        }
        if self.eat("CC") || self.eat("C□_N") {
            return Ok(self.parens()?.continual_common(NonRigidSet::Nonfaulty));
        }
        if self.eat("C□_All") {
            return Ok(self.parens()?.continual_common(NonRigidSet::Everyone));
        }
        if self.eat("C_N") {
            return Ok(self.parens()?.common(NonRigidSet::Nonfaulty));
        }
        if self.eat("C_All") {
            return Ok(self.parens()?.common(NonRigidSet::Everyone));
        }
        if self.eat("C") {
            return Ok(self.parens()?.common(NonRigidSet::Nonfaulty));
        }
        if self.eat("E_N") {
            return Ok(self.parens()?.everyone(NonRigidSet::Nonfaulty));
        }
        if self.eat("D_All") {
            return Ok(self.parens()?.distributed(NonRigidSet::Everyone));
        }
        if self.eat("D_N") || self.eat("D") {
            return Ok(self.parens()?.distributed(NonRigidSet::Nonfaulty));
        }
        if self.eat("S_All") {
            return Ok(self.parens()?.someone(NonRigidSet::Everyone));
        }
        if self.eat("SK") || self.eat("S_N") {
            return Ok(self.parens()?.someone(NonRigidSet::Nonfaulty));
        }
        if self.eat("E_All") {
            return Ok(self.parens()?.everyone(NonRigidSet::Everyone));
        }
        if self.eat("E") {
            return Ok(self.parens()?.everyone(NonRigidSet::Nonfaulty));
        }
        if self.eat("G") {
            return Ok(self.parens()?.always());
        }
        if self.eat("F") {
            return Ok(self.parens()?.eventually());
        }
        if self.eat("A") {
            return Ok(self.parens()?.always_all());
        }
        if self.eat("S") {
            return Ok(self.parens()?.sometime_all());
        }
        // □̄ (always-all) and ◇̄ (sometime-all) carry a combining macron
        // (U+0304); match them before the bare □ / ◇.
        if self.eat("□\u{304}") {
            return Ok(self.parens()?.always_all());
        }
        if self.eat("◇\u{304}") {
            return Ok(self.parens()?.sometime_all());
        }
        if self.eat("□") {
            return Ok(self.parens()?.always());
        }
        if self.eat("◇") {
            return Ok(self.parens()?.eventually());
        }
        if self.eat("N(") {
            let p = self.processor()?;
            self.expect(")")?;
            return Ok(Formula::Nonfaulty(p));
        }
        if self.peek() == Some(b'p') {
            // `p1∈N` — the Display form of the nonfaulty atom.
            let p = self.processor()?;
            self.expect("∈N")?;
            return Ok(Formula::Nonfaulty(p));
        }
        if self.peek() == Some(b'(') {
            return self.parens();
        }
        Err(self.error("expected a formula"))
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.eat("0") {
            Ok(Value::Zero)
        } else if self.eat("1") {
            Ok(Value::One)
        } else {
            Err(self.error("expected `0` or `1`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn atoms() {
        assert_eq!(parse_formula("true").unwrap(), Formula::True);
        assert_eq!(parse_formula("false").unwrap(), Formula::False);
        assert_eq!(parse_formula("E0").unwrap(), Formula::exists(Value::Zero));
        assert_eq!(parse_formula("E1").unwrap(), Formula::exists(Value::One));
        assert_eq!(
            parse_formula("init(2)=0").unwrap(),
            Formula::Initial(p(1), Value::Zero)
        );
        assert_eq!(parse_formula("N(3)").unwrap(), Formula::Nonfaulty(p(2)));
    }

    #[test]
    fn connectives_and_precedence() {
        // & binds tighter than |, which binds tighter than ->.
        let f = parse_formula("E0 & E1 | !E0 -> false").unwrap();
        let expected = Formula::exists(Value::Zero)
            .and(Formula::exists(Value::One))
            .or(Formula::exists(Value::Zero).not())
            .implies(Formula::False);
        assert_eq!(f, expected);
    }

    #[test]
    fn iff_and_right_assoc_implies() {
        let f = parse_formula("E0 <-> E1").unwrap();
        assert_eq!(
            f,
            Formula::exists(Value::Zero).iff(Formula::exists(Value::One))
        );
        let g = parse_formula("E0 -> E1 -> false").unwrap();
        let expected = Formula::exists(Value::Zero)
            .implies(Formula::exists(Value::One).implies(Formula::False));
        assert_eq!(g, expected);
    }

    #[test]
    fn modal_operators() {
        assert_eq!(
            parse_formula("K_1(E0)").unwrap(),
            Formula::exists(Value::Zero).known_by(p(0))
        );
        assert_eq!(
            parse_formula("B_2(E1)").unwrap(),
            Formula::exists(Value::One).believed_by(p(1), NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("CC(E0)").unwrap(),
            Formula::exists(Value::Zero).continual_common(NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("C(E0)").unwrap(),
            Formula::exists(Value::Zero).common(NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("E(E0)").unwrap(),
            Formula::exists(Value::Zero).everyone(NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("G(E0)").unwrap(),
            Formula::exists(Value::Zero).always()
        );
        assert_eq!(
            parse_formula("F(E0)").unwrap(),
            Formula::exists(Value::Zero).eventually()
        );
        assert_eq!(
            parse_formula("A(E0)").unwrap(),
            Formula::exists(Value::Zero).always_all()
        );
        assert_eq!(
            parse_formula("S(E0)").unwrap(),
            Formula::exists(Value::Zero).sometime_all()
        );
    }

    #[test]
    fn the_paper_decision_rules_parse() {
        // Z'_i of Proposition 5.1 (with N for the nonrigid set).
        let f = parse_formula("B_1(E0 & CC(E0))").unwrap();
        assert!(f.to_string().contains("C□_N"));
        // Theorem 5.3's condition shape.
        let g = parse_formula("N(1) -> (B_1(E0 & CC(E0)) <-> B_1(E0 & CC(E0)))").unwrap();
        assert!(g.size() > 10);
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(
            parse_formula("  B_1 ( E0 &   CC( E0 ) ) ").unwrap(),
            parse_formula("B_1(E0&CC(E0))").unwrap()
        );
    }

    #[test]
    fn nested_negation() {
        assert_eq!(
            parse_formula("!!E0").unwrap(),
            Formula::exists(Value::Zero).not().not()
        );
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_formula("E0 &").unwrap_err();
        assert!(err.offset >= 4, "{err}");
        assert!(parse_formula("K_(E0)").is_err());
        assert!(parse_formula("E0 E1").is_err());
        assert!(
            parse_formula("init(0)=1").is_err(),
            "processors are 1-based"
        );
        assert!(parse_formula("").is_err());
        assert!(parse_formula("(E0").is_err());
    }

    /// Runs `parse_formula` over `inputs` on a thread with the default
    /// 2 MiB stack every `eba-serve` query thread runs on, returning each
    /// result's error message (`None` for a successful parse).
    fn parse_on_small_stack(inputs: Vec<String>) -> Vec<Option<String>> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                inputs
                    .iter()
                    .map(|input| parse_formula(input).err().map(|e| e.message))
                    .collect()
            })
            .unwrap()
            .join()
            .expect("parsing must not overflow a 2 MiB stack")
    }

    #[test]
    fn oversized_input_is_rejected_promptly_on_a_small_stack() {
        let start = std::time::Instant::now();
        let deep = [
            format!("{}E0", "!".repeat(20_000)),
            format!("{}E0", "!".repeat(100_000)),
            format!("{}E0{}", "(".repeat(100_000), ")".repeat(100_000)),
            format!("{}E0", "K_1(".repeat(50_000)),
            format!("{}E0", "E0 -> ".repeat(100_000)),
        ];
        let wide = [20, 30].map(|links| vec!["E0"; links + 1].join(" <-> "));
        let inputs = deep.iter().chain(&wide).cloned().collect();
        let messages = parse_on_small_stack(inputs);
        for message in &messages[..deep.len()] {
            let message = message.as_deref().expect("over-deep input must fail");
            assert!(message.contains("nested deeper than 64"), "{message}");
        }
        for message in &messages[deep.len()..] {
            let message = message.as_deref().expect("over-large input must fail");
            assert!(message.contains("larger than 100000 nodes"), "{message}");
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn input_within_the_bounds_still_parses_on_a_small_stack() {
        let inputs = vec![
            format!("{}E0", "!".repeat(63)),
            format!("{}E0{}", "(".repeat(63), ")".repeat(63)),
            format!("{}E0{}", "CC(".repeat(63), ")".repeat(63)),
            format!("{}E0", "E0 -> ".repeat(63)),
            ["E0"; 11].join(" <-> "),
            ["E0"; 10_000].join(" & "),
        ];
        assert!(parse_on_small_stack(inputs).iter().all(Option::is_none));
        assert_eq!(
            parse_formula(&format!("{}E0", "!".repeat(63))).unwrap(),
            (0..63).fold(Formula::exists(Value::Zero), |f, _| f.not())
        );
    }

    #[test]
    fn unicode_display_forms_parse() {
        assert_eq!(parse_formula("∃0").unwrap(), Formula::exists(Value::Zero));
        assert_eq!(parse_formula("⊤").unwrap(), Formula::True);
        assert_eq!(
            parse_formula("¬(∃1)").unwrap(),
            Formula::exists(Value::One).not()
        );
        assert_eq!(
            parse_formula("(∃0 ∧ ∃1)").unwrap(),
            Formula::exists(Value::Zero).and(Formula::exists(Value::One))
        );
        assert_eq!(
            parse_formula("B^N_p2(∃0)").unwrap(),
            Formula::exists(Value::Zero).believed_by(p(1), NonRigidSet::Nonfaulty)
        );
        assert_eq!(
            parse_formula("C□_N(∃0)").unwrap(),
            Formula::exists(Value::Zero).continual_common(NonRigidSet::Nonfaulty)
        );
        assert_eq!(parse_formula("p3∈N").unwrap(), Formula::Nonfaulty(p(2)));
        assert_eq!(
            parse_formula("□̄(∃0)").unwrap(),
            Formula::exists(Value::Zero).always_all()
        );
        assert_eq!(
            parse_formula("◇̄(∃0)").unwrap(),
            Formula::exists(Value::Zero).sometime_all()
        );
        assert_eq!(
            parse_formula("init(p1)=0").unwrap(),
            Formula::Initial(p(0), Value::Zero)
        );
    }

    #[test]
    fn display_parse_round_trip_on_samples() {
        let samples = [
            Formula::exists(Value::Zero)
                .and(Formula::exists(Value::Zero).continual_common(NonRigidSet::Nonfaulty))
                .believed_by(p(0), NonRigidSet::Nonfaulty),
            Formula::exists(Value::One)
                .common(NonRigidSet::Everyone)
                .implies(Formula::Nonfaulty(p(1))),
            Formula::exists(Value::Zero)
                .everyone(NonRigidSet::Nonfaulty)
                .always_all()
                .not(),
            Formula::True.iff(Formula::False.or(Formula::exists(Value::One))),
            Formula::Initial(p(2), Value::One)
                .known_by(p(0))
                .eventually(),
        ];
        for f in samples {
            let rendered = f.to_string();
            let reparsed = parse_formula(&rendered)
                .unwrap_or_else(|e| panic!("failed to reparse `{rendered}`: {e}"));
            assert_eq!(reparsed, f, "round trip changed `{rendered}`");
        }
    }

    #[test]
    fn display_round_trip_through_semantics() {
        // Parsed formulas evaluate like their builder equivalents.
        use eba_model::{FailureMode, Scenario};
        use eba_sim::GeneratedSystem;
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        let mut eval = crate::Evaluator::new(&system);
        let parsed = parse_formula("CC(E0) -> C(E0)").unwrap();
        assert!(eval.valid(&parsed));
        let strict = parse_formula("C(E0) -> CC(E0)").unwrap();
        assert!(!eval.valid(&strict));
    }
}
