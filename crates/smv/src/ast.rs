//! Abstract syntax of the `covest` modeling language (an SMV dialect).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use covest_ctl::CtlError;

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
/// The body is kept as re-serialized token text, which compile parses
/// into a formula once per compiled machine. [`crate::parse_module`]
/// also parses it once, up front, and keeps only what static analysis
/// needs: the body's signal names, or the CTL parser's error. No formula
/// tree is kept, so a batch plan holding many parsed decks holds names,
/// not trees; and the declarations of one deck share one allocation per
/// name, since its properties mention a few signals many times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDecl {
    text: String,
    line: usize,
    signals: Result<Box<[Arc<str>]>, Box<CtlError>>,
}

impl SpecDecl {
    /// A declaration of `text` at `line`, parsed once for its signal
    /// names, each taken from `names` when it is there and added when it
    /// is not.
    pub(crate) fn new(text: String, line: usize, names: &mut BTreeSet<Arc<str>>) -> Self {
        let signals = match covest_ctl::parse_formula(&text) {
            Ok(f) => Ok(f
                .signals()
                .into_iter()
                .map(|name| match names.get(name.as_str()) {
                    Some(shared) => Arc::clone(shared),
                    None => {
                        let shared: Arc<str> = name.into();
                        names.insert(Arc::clone(&shared));
                        shared
                    }
                })
                .collect()),
            Err(e) => Err(Box::new(e)),
        };
        SpecDecl {
            text,
            line,
            signals,
        }
    }

    /// The re-serialized body text.
    pub fn text(&self) -> &str {
        &self.text
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
}

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
