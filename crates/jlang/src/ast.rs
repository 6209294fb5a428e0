//! Abstract syntax tree for the Java subset.
//!
//! Every statement and expression carries a [`Span`]; the analyzer's
//! suggestions and the VM's debug info both key off line numbers.

use crate::Span;
use serde::{Deserialize, Serialize};

/// One parsed `.java` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompilationUnit {
    /// `package a.b.c;` if present.
    pub package: Option<String>,
    /// `import` targets, e.g. `java.util.ArrayList` or `java.util.*`.
    pub imports: Vec<String>,
    /// Top-level class/interface declarations.
    pub types: Vec<ClassDecl>,
}

impl CompilationUnit {
    /// Fully-qualified name of a contained class.
    pub fn qualified_name(&self, class: &ClassDecl) -> String {
        match &self.package {
            Some(p) => format!("{p}.{}", class.name),
            None => class.name.clone(),
        }
    }
}

/// Declaration modifiers (a subset of Java's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Modifiers {
    /// `public`
    pub public: bool,
    /// `private`
    pub private: bool,
    /// `protected`
    pub protected: bool,
    /// `static` — the subject of Table I's costliest finding.
    pub is_static: bool,
    /// `final`
    pub is_final: bool,
    /// `abstract`
    pub is_abstract: bool,
}

/// A class or interface declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDecl {
    /// Declaration modifiers.
    pub modifiers: Modifiers,
    /// Simple name.
    pub name: String,
    /// `true` for `interface`.
    pub is_interface: bool,
    /// Superclass name, if any.
    pub extends: Option<String>,
    /// Implemented interfaces.
    pub implements: Vec<String>,
    /// Field declarations.
    pub fields: Vec<FieldDecl>,
    /// Method declarations (constructors have `name == class name` and
    /// `ret == Type::Void`).
    pub methods: Vec<MethodDecl>,
    /// Source location of the declaration.
    pub span: Span,
}

impl ClassDecl {
    /// Whether this class declares `public static void main(String[] args)`
    /// — JEPO's main-class discovery predicate.
    pub fn has_main(&self) -> bool {
        self.methods.iter().any(|m| {
            m.name == "main"
                && m.modifiers.is_static
                && m.ret == Type::Void
                && m.params.len() == 1
                && matches!(&m.params[0].ty, Type::Array(inner, 1) if **inner == Type::class("String"))
        })
    }
}

/// A field declaration (one variable; multi-declarators are split by the
/// parser).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldDecl {
    /// Declaration modifiers.
    pub modifiers: Modifiers,
    /// Declared type.
    pub ty: Type,
    /// Field name.
    pub name: String,
    /// Initializer, if present.
    pub init: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A method (or constructor) declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodDecl {
    /// Declaration modifiers.
    pub modifiers: Modifiers,
    /// Return type (`Type::Void` for constructors).
    pub ret: Type,
    /// Method name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Declared `throws` clause.
    pub throws: Vec<String>,
    /// Body; `None` for abstract/interface methods.
    pub body: Option<Block>,
    /// Source location of the signature.
    pub span: Span,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Declared type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
}

/// Types in the subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// A primitive type.
    Prim(PrimType),
    /// A class type by simple or qualified name (`String`, `Integer`,
    /// `weka.core.Instance`...). Generic arguments, if written, are
    /// recorded textually for printing but not interpreted.
    Class(String, Vec<Type>),
    /// An array type with `u8` dimensions.
    Array(Box<Type>, u8),
    /// `void`.
    Void,
}

impl Type {
    /// Shorthand for a non-generic class type.
    pub fn class(name: &str) -> Type {
        Type::Class(name.to_string(), Vec::new())
    }
}

/// Java's primitive types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrimType {
    /// 8-bit signed.
    Byte,
    /// 16-bit signed.
    Short,
    /// 32-bit signed — Table I's most energy-efficient primitive.
    Int,
    /// 64-bit signed.
    Long,
    /// 32-bit IEEE float.
    Float,
    /// 64-bit IEEE float.
    Double,
    /// 16-bit unsigned code unit.
    Char,
    /// Boolean.
    Boolean,
}

impl PrimType {
    /// Keyword spelling.
    pub fn keyword(self) -> &'static str {
        match self {
            PrimType::Byte => "byte",
            PrimType::Short => "short",
            PrimType::Int => "int",
            PrimType::Long => "long",
            PrimType::Float => "float",
            PrimType::Double => "double",
            PrimType::Char => "char",
            PrimType::Boolean => "boolean",
        }
    }

    /// Parse from a keyword.
    pub fn from_keyword(kw: &str) -> Option<PrimType> {
        Some(match kw {
            "byte" => PrimType::Byte,
            "short" => PrimType::Short,
            "int" => PrimType::Int,
            "long" => PrimType::Long,
            "float" => PrimType::Float,
            "double" => PrimType::Double,
            "char" => PrimType::Char,
            "boolean" => PrimType::Boolean,
            _ => return None,
        })
    }
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A statement with its span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    /// Statement payload.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StmtKind {
    /// Local variable declaration: `final? T a = e, b;` (one declarator
    /// per entry).
    Local {
        /// `final` flag.
        is_final: bool,
        /// Declared type.
        ty: Type,
        /// Declarators: name, extra array dims (`int a[]`), initializer.
        vars: Vec<(String, u8, Option<Expr>)>,
    },
    /// Expression statement.
    Expr(Expr),
    /// `if (c) then else?`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then: Box<Stmt>,
        /// Else-branch if present.
        els: Option<Box<Stmt>>,
    },
    /// `while (c) body`.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `do body while (c);`.
    DoWhile {
        /// Body.
        body: Box<Stmt>,
        /// Condition.
        cond: Expr,
    },
    /// Classic `for (init; cond; update) body`.
    For {
        /// Init statements (locals or expression statements).
        init: Vec<Stmt>,
        /// Loop condition, if any.
        cond: Option<Expr>,
        /// Update expressions.
        update: Vec<Expr>,
        /// Body.
        body: Box<Stmt>,
    },
    /// Enhanced `for (T x : iterable) body`.
    ForEach {
        /// Element type.
        ty: Type,
        /// Loop variable.
        name: String,
        /// Iterated expression.
        iter: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `switch (e) { case ...: ... }`.
    Switch {
        /// Scrutinee.
        scrutinee: Expr,
        /// Cases, in order.
        cases: Vec<SwitchCase>,
    },
    /// `return e?;`.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `throw e;`
    Throw(Expr),
    /// `try { } catch (T e) { } finally { }`.
    Try {
        /// Protected block.
        body: Block,
        /// Catch clauses: exception type, binder, handler.
        catches: Vec<(Type, String, Block)>,
        /// Finally block.
        finally: Option<Block>,
    },
    /// Nested block.
    Block(Block),
    /// `;`
    Empty,
    /// `synchronized (e) { ... }` — parsed, executed as its body.
    Synchronized(Expr, Block),
}

/// One `case`/`default` group in a switch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchCase {
    /// Labels; `None` is `default`.
    pub labels: Vec<Option<Expr>>,
    /// Statements (fall-through semantics preserved).
    pub body: Vec<Stmt>,
}

/// An expression with its span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expr {
    /// Expression payload.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Construct with a span.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }

    /// Walk this expression tree, calling `f` on every node (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Unary(_, e) | ExprKind::Cast(_, e) | ExprKind::InstanceOf(e, _) => e.walk(f),
            ExprKind::Binary(_, l, r) | ExprKind::Assign(l, _, r) => {
                l.walk(f);
                r.walk(f);
            }
            ExprKind::Ternary(c, t, e) => {
                c.walk(f);
                t.walk(f);
                e.walk(f);
            }
            ExprKind::FieldAccess(e, _) => e.walk(f),
            ExprKind::Index(a, idxs) => {
                a.walk(f);
                for i in idxs {
                    i.walk(f);
                }
            }
            ExprKind::Call { target, args, .. } => {
                if let Some(t) = target {
                    t.walk(f);
                }
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::New { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::NewArray { dims, init, .. } => {
                for d in dims {
                    d.walk(f);
                }
                if let Some(init) = init {
                    for e in init {
                        e.walk(f);
                    }
                }
            }
            ExprKind::ArrayInit(es) => {
                for e in es {
                    e.walk(f);
                }
            }
            ExprKind::Literal(_) | ExprKind::Name(_) | ExprKind::This => {}
        }
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExprKind {
    /// A literal.
    Literal(Lit),
    /// A simple or qualified name (`x`, `System.out` parses as
    /// field-access of name).
    Name(String),
    /// `this`.
    This,
    /// `expr.field`.
    FieldAccess(Box<Expr>, String),
    /// `expr[i][j]...`.
    Index(Box<Expr>, Vec<Expr>),
    /// Method call, optionally on a target expression.
    Call {
        /// Receiver (`None` for unqualified calls).
        target: Option<Box<Expr>>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `new C(args)`.
    New {
        /// Class name.
        class: String,
        /// Constructor arguments.
        args: Vec<Expr>,
    },
    /// `new T[d1][d2]` or `new T[]{...}`.
    NewArray {
        /// Element type.
        elem: Type,
        /// Sized dimensions.
        dims: Vec<Expr>,
        /// Unsized extra dims (`new int[5][]` has 1).
        extra_dims: u8,
        /// Array initializer if `new T[]{...}` form.
        init: Option<Vec<Expr>>,
    },
    /// Bare `{a, b, c}` initializer (only valid in declarations).
    ArrayInit(Vec<Expr>),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment (possibly compound: `+=` etc.).
    Assign(Box<Expr>, AssignOp, Box<Expr>),
    /// `c ? t : e` — Table I's ternary rule target.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `(T) e`.
    Cast(Type, Box<Expr>),
    /// `e instanceof T`.
    InstanceOf(Box<Expr>, Type),
}

/// Literals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Lit {
    /// Integer (int or long).
    Int {
        /// Value.
        value: i64,
        /// `L` suffix present.
        long: bool,
    },
    /// Floating (float or double), with original-notation flag.
    Float {
        /// Value.
        value: f64,
        /// `f` suffix present.
        float32: bool,
        /// Written in scientific notation.
        scientific: bool,
    },
    /// `'c'`.
    Char(char),
    /// `"..."`.
    Str(String),
    /// `true`/`false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOp {
    /// `-e`
    Neg,
    /// `+e`
    Plus,
    /// `!e`
    Not,
    /// `~e`
    BitNot,
    /// `++e`
    PreInc,
    /// `--e`
    PreDec,
    /// `e++`
    PostInc,
    /// `e--`
    PostDec,
}

/// Binary operators, from the full Java set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+` (numeric add or string concatenation — disambiguated by the
    /// type checker in the compiler; the analyzer treats `+` on strings
    /// as Table I's concatenation operator).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` — the modulus operator of Table I.
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    UShr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&` — short-circuit AND (Table I ordering rule).
    And,
    /// `||` — short-circuit OR.
    Or,
    /// `==`
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
}

impl BinOp {
    /// Java spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::UShr => ">>>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssignOp {
    /// Simple `=`.
    Assign,
    /// Compound op-assign carrying the underlying binary op.
    Compound(BinOp),
}

impl AssignOp {
    /// Java spelling.
    pub fn symbol(self) -> String {
        match self {
            AssignOp::Assign => "=".into(),
            AssignOp::Compound(op) => format!("{}=", op.symbol()),
        }
    }
}

impl Stmt {
    /// Whether this statement is one of the four loop forms.
    pub fn is_loop(&self) -> bool {
        matches!(
            self.kind,
            StmtKind::While { .. }
                | StmtKind::DoWhile { .. }
                | StmtKind::For { .. }
                | StmtKind::ForEach { .. }
        )
    }

    /// The body of a loop statement, if this is one.
    pub fn loop_body(&self) -> Option<&Stmt> {
        match &self.kind {
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::ForEach { body, .. } => Some(body),
            _ => None,
        }
    }
}

impl Expr {
    /// Every simple [`ExprKind::Name`] mentioned in this expression tree,
    /// pre-order, with duplicates.
    pub fn collect_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let ExprKind::Name(n) = &e.kind {
                out.push(n.clone());
            }
        });
        out
    }
}

/// Walk every expression in a statement tree (pre-order), including
/// sub-statements.
pub fn walk_stmt_exprs(stmt: &Stmt, f: &mut impl FnMut(&Expr)) {
    match &stmt.kind {
        StmtKind::Local { vars, .. } => {
            for (_, _, init) in vars {
                if let Some(e) = init {
                    e.walk(f);
                }
            }
        }
        StmtKind::Expr(e) | StmtKind::Throw(e) => e.walk(f),
        StmtKind::Return(Some(e)) => e.walk(f),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
        StmtKind::If { cond, then, els } => {
            cond.walk(f);
            walk_stmt_exprs(then, f);
            if let Some(e) = els {
                walk_stmt_exprs(e, f);
            }
        }
        StmtKind::While { cond, body } => {
            cond.walk(f);
            walk_stmt_exprs(body, f);
        }
        StmtKind::DoWhile { body, cond } => {
            walk_stmt_exprs(body, f);
            cond.walk(f);
        }
        StmtKind::For {
            init,
            cond,
            update,
            body,
        } => {
            for s in init {
                walk_stmt_exprs(s, f);
            }
            if let Some(c) = cond {
                c.walk(f);
            }
            for u in update {
                u.walk(f);
            }
            walk_stmt_exprs(body, f);
        }
        StmtKind::ForEach { iter, body, .. } => {
            iter.walk(f);
            walk_stmt_exprs(body, f);
        }
        StmtKind::Switch { scrutinee, cases } => {
            scrutinee.walk(f);
            for c in cases {
                for l in c.labels.iter().flatten() {
                    l.walk(f);
                }
                for s in &c.body {
                    walk_stmt_exprs(s, f);
                }
            }
        }
        StmtKind::Try {
            body,
            catches,
            finally,
        } => {
            for s in &body.stmts {
                walk_stmt_exprs(s, f);
            }
            for (_, _, b) in catches {
                for s in &b.stmts {
                    walk_stmt_exprs(s, f);
                }
            }
            if let Some(b) = finally {
                for s in &b.stmts {
                    walk_stmt_exprs(s, f);
                }
            }
        }
        StmtKind::Block(b) => {
            for s in &b.stmts {
                walk_stmt_exprs(s, f);
            }
        }
        StmtKind::Synchronized(e, b) => {
            e.walk(f);
            for s in &b.stmts {
                walk_stmt_exprs(s, f);
            }
        }
    }
}

/// Walk every statement in a statement tree (pre-order).
pub fn walk_stmts(stmt: &Stmt, f: &mut impl FnMut(&Stmt)) {
    f(stmt);
    match &stmt.kind {
        StmtKind::If { then, els, .. } => {
            walk_stmts(then, f);
            if let Some(e) = els {
                walk_stmts(e, f);
            }
        }
        StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. }
        | StmtKind::ForEach { body, .. } => walk_stmts(body, f),
        StmtKind::For { init, body, .. } => {
            for s in init {
                walk_stmts(s, f);
            }
            walk_stmts(body, f);
        }
        StmtKind::Switch { cases, .. } => {
            for c in cases {
                for s in &c.body {
                    walk_stmts(s, f);
                }
            }
        }
        StmtKind::Try {
            body,
            catches,
            finally,
        } => {
            for s in &body.stmts {
                walk_stmts(s, f);
            }
            for (_, _, b) in catches {
                for s in &b.stmts {
                    walk_stmts(s, f);
                }
            }
            if let Some(b) = finally {
                for s in &b.stmts {
                    walk_stmts(s, f);
                }
            }
        }
        StmtKind::Block(b) | StmtKind::Synchronized(_, b) => {
            for s in &b.stmts {
                walk_stmts(s, f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(kind: ExprKind) -> Expr {
        Expr::new(kind, Span::synthetic())
    }

    #[test]
    fn primitive_keywords_round_trip() {
        for p in [
            PrimType::Byte,
            PrimType::Short,
            PrimType::Int,
            PrimType::Long,
            PrimType::Float,
            PrimType::Double,
            PrimType::Char,
            PrimType::Boolean,
        ] {
            assert_eq!(PrimType::from_keyword(p.keyword()), Some(p));
        }
    }

    #[test]
    fn has_main_requires_exact_signature() {
        let mk = |is_static: bool, params: Vec<Param>| ClassDecl {
            modifiers: Modifiers::default(),
            name: "A".into(),
            is_interface: false,
            extends: None,
            implements: vec![],
            fields: vec![],
            methods: vec![MethodDecl {
                modifiers: Modifiers {
                    is_static,
                    ..Default::default()
                },
                ret: Type::Void,
                name: "main".into(),
                params,
                throws: vec![],
                body: Some(Block {
                    stmts: vec![],
                    span: Span::synthetic(),
                }),
                span: Span::synthetic(),
            }],
            span: Span::synthetic(),
        };
        let good = mk(
            true,
            vec![Param {
                ty: Type::Array(Box::new(Type::class("String")), 1),
                name: "args".into(),
            }],
        );
        assert!(good.has_main());
        let not_static = mk(
            false,
            vec![Param {
                ty: Type::Array(Box::new(Type::class("String")), 1),
                name: "args".into(),
            }],
        );
        assert!(!not_static.has_main());
        let wrong_params = mk(true, vec![]);
        assert!(!wrong_params.has_main());
    }

    #[test]
    fn walk_visits_all_subexpressions() {
        // a % b + (c ? d : e)
        let expr = e(ExprKind::Binary(
            BinOp::Add,
            Box::new(e(ExprKind::Binary(
                BinOp::Rem,
                Box::new(e(ExprKind::Name("a".into()))),
                Box::new(e(ExprKind::Name("b".into()))),
            ))),
            Box::new(e(ExprKind::Ternary(
                Box::new(e(ExprKind::Name("c".into()))),
                Box::new(e(ExprKind::Name("d".into()))),
                Box::new(e(ExprKind::Name("e".into()))),
            ))),
        ));
        let mut names = vec![];
        expr.walk(&mut |x| {
            if let ExprKind::Name(n) = &x.kind {
                names.push(n.clone());
            }
        });
        assert_eq!(names, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn walk_stmts_reaches_nested_bodies() {
        let inner = Stmt {
            kind: StmtKind::Break,
            span: Span::synthetic(),
        };
        let loop_stmt = Stmt {
            kind: StmtKind::While {
                cond: e(ExprKind::Literal(Lit::Bool(true))),
                body: Box::new(Stmt {
                    kind: StmtKind::Block(Block {
                        stmts: vec![inner],
                        span: Span::synthetic(),
                    }),
                    span: Span::synthetic(),
                }),
            },
            span: Span::synthetic(),
        };
        let mut count = 0;
        walk_stmts(&loop_stmt, &mut |_| count += 1);
        assert_eq!(count, 3); // while, block, break
    }

    #[test]
    fn qualified_name_uses_package() {
        let class = ClassDecl {
            modifiers: Modifiers::default(),
            name: "Foo".into(),
            is_interface: false,
            extends: None,
            implements: vec![],
            fields: vec![],
            methods: vec![],
            span: Span::synthetic(),
        };
        let unit = CompilationUnit {
            package: Some("com.mist.jepo".into()),
            imports: vec![],
            types: vec![class.clone()],
        };
        assert_eq!(unit.qualified_name(&class), "com.mist.jepo.Foo");
        let unit2 = CompilationUnit {
            package: None,
            imports: vec![],
            types: vec![class.clone()],
        };
        assert_eq!(unit2.qualified_name(&class), "Foo");
    }

    #[test]
    fn binop_symbols_are_distinct() {
        use std::collections::HashSet;
        let ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::UShr,
            BinOp::BitAnd,
            BinOp::BitOr,
            BinOp::BitXor,
            BinOp::And,
            BinOp::Or,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        let set: HashSet<_> = ops.iter().map(|o| o.symbol()).collect();
        assert_eq!(set.len(), ops.len());
    }
}
