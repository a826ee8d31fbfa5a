//! Abstract syntax of the `covest` modeling language (an SMV dialect).

use std::fmt;
use std::sync::{Arc, OnceLock};

use covest_ctl::{CtlError, Formula};

/// The most values a `lo..hi` range may declare. Compile enumerates a
/// ranged variable value by value, so its cost grows with the count:
/// `0..65535` compiles in about half a second, while `0..1048575` takes
/// tens of seconds and hundreds of megabytes. Larger ranges are rejected
/// where they are declared.
pub const MAX_RANGE_VALUES: u64 = 65_536;

/// A declared variable type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarType {
    /// `boolean`
    Boolean,
    /// `lo..hi` (inclusive integer range)
    Range(i64, i64),
    /// `{lit0, lit1, …}` enumeration
    Enum(Vec<String>),
}

/// The number of values of the range `lo..hi`, when it is nonempty and
/// declares at most [`MAX_RANGE_VALUES`] of them.
pub(crate) fn range_values(lo: i64, hi: i64) -> Option<i64> {
    (lo <= hi && hi.abs_diff(lo) < MAX_RANGE_VALUES).then(|| hi - lo + 1)
}

impl fmt::Display for VarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarType::Boolean => f.write_str("boolean"),
            VarType::Range(lo, hi) => write!(f, "{lo}..{hi}"),
            VarType::Enum(lits) => {
                f.write_str("{")?;
                for (i, l) in lits.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str(l)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Binary operators of the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `&`
    And,
    /// `|`
    Or,
    /// `->`
    Implies,
    /// `<->`
    Iff,
    /// `xor`
    Xor,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `mod`
    Mod,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Implies => "->",
            BinOp::Iff => "<->",
            BinOp::Xor => "xor",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mod => "mod",
        };
        f.write_str(s)
    }
}

/// An expression of the modeling language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// `TRUE` / `FALSE`
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Variable, DEFINE, or enumeration literal (resolved by the type
    /// checker).
    Name(String),
    /// `!e`
    Not(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `case g1 : e1; …; esac` — first true guard wins.
    Case(Vec<(Expr, Expr)>),
}

impl Expr {
    /// `!self` (consuming constructor).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Expr::Not(Box::new(self))
    }

    /// Binary-op constructor.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Self {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Bool(true) => f.write_str("TRUE"),
            Expr::Bool(false) => f.write_str("FALSE"),
            Expr::Int(i) => write!(f, "{i}"),
            Expr::Name(n) => f.write_str(n),
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Case(arms) => {
                f.write_str("case ")?;
                for (g, e) in arms {
                    write!(f, "{g} : {e}; ")?;
                }
                f.write_str("esac")
            }
        }
    }
}

/// One variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: VarType,
    /// `true` for `IVAR` (primary input), `false` for `VAR` (state).
    pub input: bool,
    /// 1-based source line of the declaration (0 when synthesized).
    pub line: usize,
}

/// One `init(x) := e` or `next(x) := e` assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assign {
    /// Assigned variable name.
    pub name: String,
    /// Right-hand side.
    pub expr: Expr,
    /// 1-based source line of the assignment (0 when synthesized).
    pub line: usize,
}

/// One `DEFINE name := e` macro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Define {
    /// Macro name.
    pub name: String,
    /// Body expression.
    pub expr: Expr,
    /// 1-based source line of the definition (0 when synthesized).
    pub line: usize,
}

/// One `SPEC` or `FAIRNESS` declaration.
///
/// [`crate::parse_module`] reads the body once, up front, straight from
/// the deck's tokens ([`covest_ctl::BodyReader`]), and keeps what
/// planning needs: the body's source spelling (its first token to its
/// last, comments and line breaks included) and its signal names, or
/// the error [`covest_ctl::parse_formula`] gives for its text. No formula
/// tree and no tokens are kept, so a batch plan holding many parsed
/// decks holds names and spellings, not trees; and the declarations of
/// one deck share one allocation per name, since its properties mention
/// a few signals many times. Compile reads each formula again from the
/// spelling ([`SpecDecl::formula`]).
///
/// The text, the body's tokens separated by single spaces, is what
/// messages quote. It is built on the first call to [`SpecDecl::text`],
/// or up front for a body the parser rejects, and nothing else depends
/// on whether it has been: `Debug` and `==` see the spelling, the line
/// and the signals.
#[derive(Clone)]
pub struct SpecDecl {
    spelling: Box<str>,
    line: usize,
    signals: Result<Box<[Arc<str>]>, Box<CtlError>>,
    text: OnceLock<Box<str>>,
}

impl SpecDecl {
    /// A declaration spelled `spelling` at `line` with what the parser
    /// made of it, and its text when the parser has already built it.
    pub(crate) fn new(
        spelling: Box<str>,
        line: usize,
        signals: Result<Box<[Arc<str>]>, Box<CtlError>>,
        text: Option<Box<str>>,
    ) -> Self {
        SpecDecl {
            spelling,
            line,
            signals,
            text: text.map(OnceLock::from).unwrap_or_default(),
        }
    }

    /// The body text: its tokens separated by single spaces, integers
    /// printed by value ([`covest_ctl::body_text`] of the spelling).
    pub fn text(&self) -> &str {
        self.text
            .get_or_init(|| covest_ctl::body_text(&self.spelling).into())
    }

    /// 1-based source line of the declaration (0 when synthesized).
    pub fn line(&self) -> usize {
        self.line
    }

    /// What [`covest_ctl::parse_formula`] makes of the text: the
    /// formula's signal names in first-occurrence order
    /// ([`covest_ctl::Formula::signals`]), or its error.
    pub fn signals(&self) -> Result<&[Arc<str>], &CtlError> {
        match &self.signals {
            Ok(names) => Ok(names),
            Err(e) => Err(e),
        }
    }

    /// The body as a formula in the acceptable subset, read from the
    /// spelling by the deck's tokenizer and the property grammar
    /// ([`covest_ctl::parse_body`]): exactly what
    /// [`covest_ctl::parse_formula`] makes of the text, without building
    /// the text unless the body is rejected.
    ///
    /// # Errors
    ///
    /// The error [`SpecDecl::signals`] holds, for a rejected body.
    pub fn formula(&self) -> Result<Formula, CtlError> {
        covest_ctl::parse_body(&self.spelling)
    }
}

impl fmt::Debug for SpecDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecDecl")
            .field("spelling", &self.spelling)
            .field("line", &self.line)
            .field("signals", &self.signals)
            .finish()
    }
}

impl PartialEq for SpecDecl {
    fn eq(&self, other: &Self) -> bool {
        self.spelling == other.spelling && self.line == other.line && self.signals == other.signals
    }
}

impl Eq for SpecDecl {}

/// One name from an `OBSERVED` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedDecl {
    /// Observed-signal name.
    pub name: String,
    /// 1-based source line of the name (0 when synthesized).
    pub line: usize,
}

/// A parsed module (we support a single `MODULE main`).
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Declared variables, in order.
    pub vars: Vec<VarDecl>,
    /// `init(x) := e` assignments.
    pub inits: Vec<Assign>,
    /// `next(x) := e` assignments.
    pub nexts: Vec<Assign>,
    /// `DEFINE name := e` macros, in order.
    pub defines: Vec<Define>,
    /// `SPEC <actl>` properties.
    pub specs: Vec<SpecDecl>,
    /// `FAIRNESS <prop>` constraints.
    pub fairness: Vec<SpecDecl>,
    /// `OBSERVED a, b` observed-signal names.
    pub observed: Vec<ObservedDecl>,
}

impl Module {
    /// The declaration of `name`, if it is a variable.
    pub fn var(&self, name: &str) -> Option<&VarDecl> {
        self.vars.iter().find(|d| d.name == name)
    }

    /// The `DEFINE` binding of `name`, if there is one.
    pub fn define(&self, name: &str) -> Option<&Define> {
        self.defines.iter().find(|d| d.name == name)
    }
}
