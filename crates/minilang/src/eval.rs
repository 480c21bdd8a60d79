//! The reference evaluator — the independent half of the differential
//! oracle.
//!
//! Walks the AST: no lowering, no IR, no instrumentation, no shared code
//! with `parpat-ir`'s interpreter beyond the language definition itself.
//! Running a program through both and comparing the final return value
//! and observable global-array state catches silent miscompiles — the one
//! failure mode panic isolation and budgets cannot see, because a
//! miscompiled pipeline *succeeds* with wrong answers.
//!
//! Evaluation is two passes. A resolve pass binds every name once:
//! locals, parameters and `for` variables to frame slots (following the
//! runtime scoping below), arrays to an offset into one flat global store
//! plus their borrowed extents, and calls to a function index. Each
//! expression is resolved as a number or a boolean, so the run needs no
//! value tags. The run then walks the resolved tree over a flat slot
//! stack, with no name lookups, hashing or per-access allocation.
//!
//! Semantics mirrored from the language definition (and checked against
//! the interpreter by the generative differential fuzz suite):
//!
//! - all numbers are `f64`; booleans are a distinct value class;
//! - array indices truncate toward zero and are bounds-checked; negative,
//!   `NaN` and too-large indices are faults;
//! - division and modulo by zero are faults (`%` is `f64::rem_euclid`);
//! - `for` bounds are evaluated once on entry; `&&`/`||` short-circuit;
//! - compound assignment `t op= v` evaluates `t`'s indices, re-evaluates
//!   them for the old-value load, then evaluates `v` (matching the
//!   load → compute → store desugaring order of the lowering pass);
//! - call arguments are evaluated before the callee is looked up and its
//!   arity checked;
//! - a missing `return` yields `0.0`; evaluation is bounded by
//!   [`EvalLimits`] so hostile programs terminate with a budget error.
//!
//! Scoping is dynamic in one corner the resolve pass reproduces: a block
//! gets a fresh scope each time it runs, but a `for` body shares one scope
//! across its iterations, so a name the body `let`s *after* a use is, from
//! the second iteration on, bound in that scope. A `let` of a name already
//! in the same scope overwrites it. A name the resolve pass cannot bind
//! faults only when the use is evaluated, so unchecked programs behave as
//! they would under a name-lookup walker. The test-only
//! [`crate::reference::ReferenceEvaluator`] is that walker, and the two are
//! differentially tested for identical results, step counts and faults.

use crate::ast::{is_builtin, AssignOp, BinOp, Block, Expr, Function, LValue, Program, Stmt, UnOp};

/// Budgets for a reference evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalLimits {
    /// Maximum number of evaluation steps (statements + expression nodes).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits { max_steps: 500_000_000, max_call_depth: 128 }
    }
}

impl EvalLimits {
    /// The oracle's budget for a program the interpreter runs under
    /// `max_insts` instructions and `max_call_depth` frames. The oracle
    /// counts AST nodes, the interpreter IR instructions; four steps per
    /// instruction keeps valid programs from tripping the oracle budget
    /// before the interpreter's own ceiling would.
    pub fn for_interpreter(max_insts: u64, max_call_depth: usize) -> Self {
        EvalLimits { max_steps: max_insts.saturating_mul(4), max_call_depth }
    }
}

/// Why a reference evaluation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalErrorKind {
    /// The program itself faulted (out-of-bounds index, zero divisor, …).
    Fault,
    /// An [`EvalLimits`] budget ran out — says nothing about the program.
    Budget,
}

/// A structured evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Fault vs. exhausted budget.
    pub kind: EvalErrorKind,
}

impl EvalError {
    pub(crate) fn fault(line: u32, message: String) -> Self {
        EvalError { line, message, kind: EvalErrorKind::Fault }
    }

    pub(crate) fn budget(line: u32, message: String) -> Self {
        EvalError { line, message, kind: EvalErrorKind::Budget }
    }

    /// True when the error is an exhausted budget rather than a fault.
    pub fn is_budget(&self) -> bool {
        self.kind == EvalErrorKind::Budget
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation error at line {}: {}", self.line, self.message)
    }
}

/// Result of a completed reference evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// `main`'s return value.
    pub return_value: f64,
    /// Final global-array state, arrays flattened in declaration order —
    /// the same layout the lowering pass assigns base addresses in, so the
    /// vector is directly comparable with the interpreter's backing store.
    pub globals: Vec<f64>,
    /// Evaluation steps consumed.
    pub steps: u64,
}

/// Evaluate a checked program's `main` under the default limits.
pub fn evaluate(prog: &Program) -> Result<EvalOutcome, EvalError> {
    evaluate_with_limits(prog, EvalLimits::default())
}

/// Evaluate a checked program's `main` under explicit limits.
pub fn evaluate_with_limits(prog: &Program, limits: EvalLimits) -> Result<EvalOutcome, EvalError> {
    let main = prog
        .functions
        .iter()
        .position(|f| f.name == "main")
        .ok_or_else(|| EvalError::fault(0, "program has no `main` function".into()))?;
    let (funcs, entry, cells) = Resolver::resolve(prog, main);
    let mut m = Machine {
        funcs: &funcs,
        globals: vec![0.0; cells],
        stack: Vec::new(),
        base: 0,
        steps: 0,
        depth: 0,
        limits,
        error: None,
    };
    match m.call(&funcs[entry], 0) {
        Ok(ret) => Ok(EvalOutcome { return_value: ret, globals: m.globals, steps: m.steps }),
        Err(Halt) => Err(m.error.take().expect("a halt records its error")),
    }
}

/// Compare an [`EvalOutcome`] against an interpreter result, returning a
/// first-divergence report (`None` when the two agree). `NaN` cells are
/// considered equal to `NaN` — both sides perform the same IEEE operations,
/// so a shared `NaN` is agreement, not divergence.
pub fn divergence(
    prog: &Program,
    oracle: &EvalOutcome,
    interp_return: f64,
    interp_globals: &[f64],
) -> Option<String> {
    fn same(a: f64, b: f64) -> bool {
        a == b || (a.is_nan() && b.is_nan())
    }
    if !same(oracle.return_value, interp_return) {
        return Some(format!(
            "return value diverges: reference {} vs interpreter {}",
            oracle.return_value, interp_return
        ));
    }
    if oracle.globals.len() != interp_globals.len() {
        return Some(format!(
            "global state size diverges: reference {} cell(s) vs interpreter {}",
            oracle.globals.len(),
            interp_globals.len()
        ));
    }
    for (flat, (&a, &b)) in oracle.globals.iter().zip(interp_globals).enumerate() {
        if !same(a, b) {
            return Some(format!(
                "first divergence at {}: reference {a} vs interpreter {b}",
                cell_name(prog, flat)
            ));
        }
    }
    None
}

/// Map a flat cell offset (declaration-order layout) back to `name[i]` /
/// `name[i][j]` for reporting.
fn cell_name(prog: &Program, flat: usize) -> String {
    let mut offset = flat;
    for g in &prog.globals {
        if offset < g.len() {
            return if g.dims.len() == 2 {
                format!("{}[{}][{}]", g.name, offset / g.dims[1], offset % g.dims[1])
            } else {
                format!("{}[{offset}]", g.name)
            };
        }
        offset -= g.len();
    }
    format!("cell {flat}")
}

// ---- resolved form ------------------------------------------------------

/// A global array as its access sites see it.
struct Array<'p> {
    /// Offset of the array's first cell in the flat global store.
    base: usize,
    dims: &'p [usize],
    name: &'p str,
}

/// An element access `name[i]` / `name[i][j]` whose index count matches.
struct Elem<'p> {
    array: Array<'p>,
    indices: Box<[Num<'p>]>,
}

/// Where a scalar name lives at one use.
enum Var<'p> {
    /// A frame slot, bound on every path that reaches the use.
    Slot(u32),
    /// A name the enclosing `for` body `let`s after this use. Until the
    /// loop has finished an iteration the `let` has not run, and the use
    /// sees `outer`; after that it sees `slot`. `flag` is the loop's slot
    /// recording that an iteration finished.
    Later { flag: u32, slot: u32, outer: Box<Var<'p>> },
    /// Bound nowhere: the use faults.
    Unbound(&'p str),
}

impl<'p> Var<'p> {
    /// The name, for the fault message of a use that found no binding
    /// (never asked of a [`Var::Slot`], which always has one).
    fn name(&self) -> &'p str {
        match self {
            Var::Slot(_) => "",
            Var::Later { outer, .. } => outer.name(),
            Var::Unbound(name) => name,
        }
    }
}

/// A numeric expression; `line` is the source line its step is charged to.
struct Num<'p> {
    line: u32,
    op: NumOp<'p>,
}

enum NumOp<'p> {
    Const(f64),
    /// A statically bound local: the common case of [`Var::Slot`].
    Local(u32),
    Var(Box<Var<'p>>),
    Elem(Box<Elem<'p>>),
    /// A user call with matching arity: function index and arguments.
    Call(u32, Box<[Num<'p>]>),
    /// A builtin with matching arity.
    Builtin(Builtin, Box<[Num<'p>]>),
    Neg(Box<Num<'p>>),
    Arith(Arith, Box<[Num<'p>; 2]>),
    /// An unknown array or callee, or a wrong index or argument count:
    /// evaluates the arguments, then faults with the message.
    Fault(Box<(Box<[Num<'p>]>, String)>),
    /// A boolean where a number is expected: evaluates it, then faults at
    /// `line` (the consumer's line). Charges no step of its own.
    NotNum(Box<Bool<'p>>),
}

/// A boolean expression.
struct Bool<'p> {
    line: u32,
    op: BoolOp<'p>,
}

enum BoolOp<'p> {
    Const(bool),
    Cmp(Cmp, Box<[Num<'p>; 2]>),
    Not(Box<Bool<'p>>),
    And(Box<[Bool<'p>; 2]>),
    Or(Box<[Bool<'p>; 2]>),
    /// A number where a boolean is expected; see [`NumOp::NotNum`].
    NotBool(Box<Num<'p>>),
}

#[derive(Clone, Copy)]
enum Arith {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

#[derive(Clone, Copy)]
enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Clone, Copy)]
enum Builtin {
    Sqrt,
    Abs,
    Min,
    Max,
    Floor,
}

/// A statement; every one charges a step to `line` first.
struct Cmd<'p> {
    line: u32,
    op: CmdOp<'p>,
}

enum CmdOp<'p> {
    Let(u32, Num<'p>),
    SetVar(Var<'p>, AssignOp, Num<'p>),
    /// `Err` holds the fault of an unknown array or wrong index count.
    SetElem(Result<Box<Elem<'p>>, String>, AssignOp, Num<'p>),
    For(Box<ForLoop<'p>>),
    While(Bool<'p>, Vec<Cmd<'p>>),
    If(Bool<'p>, Vec<Cmd<'p>>, Vec<Cmd<'p>>),
    /// A call statement; its value, of either class, is dropped.
    Eval(Result<Num<'p>, Bool<'p>>),
    Return(Option<Num<'p>>),
    Break,
}

struct ForLoop<'p> {
    var: u32,
    /// Set once an iteration has finished; allocated only when a use
    /// resolved to [`Var::Later`] of this loop.
    flag: Option<u32>,
    start: Num<'p>,
    end: Num<'p>,
    body: Vec<Cmd<'p>>,
}

/// A resolved function.
struct Func<'p> {
    name: &'p str,
    line: u32,
    /// Frame size: parameters first, then every other binding.
    slots: u32,
    body: Vec<Cmd<'p>>,
}

// ---- resolve pass -------------------------------------------------------

/// One lexical scope during resolution.
#[derive(Default)]
struct Scope<'p> {
    /// Names bound at the current point, with their slots. Searched from
    /// the end, so a later duplicate parameter wins.
    bound: Vec<(&'p str, u32)>,
    /// Slots handed out to uses that precede the name's `let` in this
    /// `for` body; the `let` takes its slot from here.
    ahead: Vec<(&'p str, u32)>,
    /// For a `for` body: the names its statements `let` directly.
    loop_lets: Vec<&'p str>,
    flag: Option<u32>,
}

struct Resolver<'p> {
    prog: &'p Program,
    /// Flat-store offset of each global array.
    bases: Vec<usize>,
    scopes: Vec<Scope<'p>>,
    slots: u32,
}

fn is_bool(e: &Expr) -> bool {
    match e {
        Expr::Bool { .. } => true,
        Expr::Unary { op, .. } => *op == UnOp::Not,
        Expr::Binary { op, .. } => !op.is_arithmetic(),
        _ => false,
    }
}

impl<'p> Resolver<'p> {
    /// Resolve every function. Returns them in program order, the index
    /// of the entry function and the global store's size. When `main`
    /// declares parameters, the entry is an extra copy of it resolved with
    /// them unbound: the top-level call passes no arguments.
    fn resolve(prog: &'p Program, main: usize) -> (Vec<Func<'p>>, usize, usize) {
        let mut cells = 0;
        let bases = prog
            .globals
            .iter()
            .map(|g| {
                let base = cells;
                cells += g.len();
                base
            })
            .collect();
        let mut r = Resolver { prog, bases, scopes: Vec::new(), slots: 0 };
        let mut funcs: Vec<Func<'p>> = prog.functions.iter().map(|f| r.function(f, true)).collect();
        let mut entry = main;
        if !prog.functions[main].params.is_empty() {
            entry = funcs.len();
            funcs.push(r.function(&prog.functions[main], false));
        }
        (funcs, entry, cells)
    }

    fn function(&mut self, f: &'p Function, bind_params: bool) -> Func<'p> {
        let mut params = Scope::default();
        if bind_params {
            params.bound = f.params.iter().zip(0..).map(|(p, i)| (p.as_str(), i)).collect();
        }
        self.slots = params.bound.len() as u32;
        self.scopes = vec![params];
        let body = self.block(&f.body);
        Func { name: &f.name, line: f.line, slots: self.slots, body }
    }

    fn new_slot(&mut self) -> u32 {
        self.slots += 1;
        self.slots - 1
    }

    /// Bind `name` in the innermost scope, reusing its slot if the scope
    /// already binds it or handed one out ahead of this `let`.
    fn declare(&mut self, name: &'p str) -> u32 {
        let top = self.scopes.len() - 1;
        let scope = &mut self.scopes[top];
        if let Some(&(_, slot)) = scope.bound.iter().rev().find(|(n, _)| *n == name) {
            return slot;
        }
        let slot = match scope.ahead.iter().find(|(n, _)| *n == name) {
            Some(&(_, slot)) => slot,
            None => self.new_slot(),
        };
        self.scopes[top].bound.push((name, slot));
        slot
    }

    /// Resolve a use of `name` against the scopes below `top`.
    fn var(&mut self, name: &'p str, top: usize) -> Var<'p> {
        for j in (0..top).rev() {
            let scope = &self.scopes[j];
            if let Some(&(_, slot)) = scope.bound.iter().rev().find(|(n, _)| *n == name) {
                return Var::Slot(slot);
            }
            if scope.loop_lets.contains(&name) {
                let slot = match scope.ahead.iter().find(|(n, _)| *n == name) {
                    Some(&(_, slot)) => slot,
                    None => {
                        let slot = self.new_slot();
                        self.scopes[j].ahead.push((name, slot));
                        slot
                    }
                };
                let flag = match self.scopes[j].flag {
                    Some(flag) => flag,
                    None => {
                        let flag = self.new_slot();
                        self.scopes[j].flag = Some(flag);
                        flag
                    }
                };
                let outer = Box::new(self.var(name, j));
                return Var::Later { flag, slot, outer };
            }
        }
        Var::Unbound(name)
    }

    fn block(&mut self, b: &'p Block) -> Vec<Cmd<'p>> {
        self.scopes.push(Scope::default());
        let body = self.cmds(&b.stmts);
        self.scopes.pop();
        body
    }

    fn cmds(&mut self, stmts: &'p [Stmt]) -> Vec<Cmd<'p>> {
        stmts.iter().map(|s| self.cmd(s)).collect()
    }

    fn cmd(&mut self, s: &'p Stmt) -> Cmd<'p> {
        let line = s.line();
        let op = match s {
            Stmt::Let { name, init, .. } => {
                let init = self.num(init, line);
                CmdOp::Let(self.declare(name), init)
            }
            Stmt::Assign { target: LValue::Var(name), op, value, .. } => {
                CmdOp::SetVar(self.var(name, self.scopes.len()), *op, self.num(value, line))
            }
            Stmt::Assign { target: LValue::Index { array, indices }, op, value, .. } => {
                let target = self.elem(array, indices, line).map(Box::new);
                CmdOp::SetElem(target, *op, self.num(value, line))
            }
            Stmt::For { var, start, end, body, .. } => {
                let start = self.num(start, line);
                let end = self.num(end, line);
                let loop_lets = body
                    .stmts
                    .iter()
                    .filter_map(|s| match s {
                        Stmt::Let { name, .. } => Some(name.as_str()),
                        _ => None,
                    })
                    .collect();
                self.scopes.push(Scope { loop_lets, ..Scope::default() });
                let var = self.declare(var);
                let body = self.cmds(&body.stmts);
                let flag = self.scopes.pop().and_then(|s| s.flag);
                CmdOp::For(Box::new(ForLoop { var, flag, start, end, body }))
            }
            Stmt::While { cond, body, .. } => {
                CmdOp::While(self.boolean(cond, line), self.block(body))
            }
            Stmt::If { cond, then_block, else_block, .. } => {
                let cond = self.boolean(cond, line);
                let then = self.block(then_block);
                let els = else_block.as_ref().map(|b| self.block(b)).unwrap_or_default();
                CmdOp::If(cond, then, els)
            }
            Stmt::Expr { expr, .. } => CmdOp::Eval(if is_bool(expr) {
                Err(self.bool_node(expr))
            } else {
                Ok(self.num_node(expr))
            }),
            Stmt::Return { value, .. } => CmdOp::Return(value.as_ref().map(|e| self.num(e, line))),
            Stmt::Break { .. } => CmdOp::Break,
        };
        Cmd { line, op }
    }

    /// `e` consumed as a number by a construct on line `at`.
    fn num(&mut self, e: &'p Expr, at: u32) -> Num<'p> {
        if is_bool(e) {
            Num { line: at, op: NumOp::NotNum(Box::new(self.bool_node(e))) }
        } else {
            self.num_node(e)
        }
    }

    /// `e` consumed as a boolean by a construct on line `at`.
    fn boolean(&mut self, e: &'p Expr, at: u32) -> Bool<'p> {
        if is_bool(e) {
            self.bool_node(e)
        } else {
            Bool { line: at, op: BoolOp::NotBool(Box::new(self.num_node(e))) }
        }
    }

    fn pair(&mut self, lhs: &'p Expr, rhs: &'p Expr, at: u32) -> Box<[Num<'p>; 2]> {
        let l = self.num(lhs, at);
        Box::new([l, self.num(rhs, at)])
    }

    fn num_node(&mut self, e: &'p Expr) -> Num<'p> {
        let line = e.line();
        let op = match e {
            Expr::Number { value, .. } => NumOp::Const(*value),
            Expr::Var { name, .. } => match self.var(name, self.scopes.len()) {
                Var::Slot(slot) => NumOp::Local(slot),
                v => NumOp::Var(Box::new(v)),
            },
            Expr::Index { array, indices, .. } => match self.elem(array, indices, line) {
                Ok(elem) => NumOp::Elem(Box::new(elem)),
                Err(message) => NumOp::Fault(Box::new((Box::new([]), message))),
            },
            Expr::Call { callee, args, .. } => {
                let args: Box<[Num<'p>]> = args.iter().map(|a| self.num(a, line)).collect();
                self.call(callee, args)
            }
            Expr::Unary { operand, .. } => NumOp::Neg(Box::new(self.num(operand, line))),
            Expr::Binary { op, lhs, rhs, .. } => {
                let op = match op {
                    BinOp::Add => Arith::Add,
                    BinOp::Sub => Arith::Sub,
                    BinOp::Mul => Arith::Mul,
                    BinOp::Div => Arith::Div,
                    _ => Arith::Rem,
                };
                NumOp::Arith(op, self.pair(lhs, rhs, line))
            }
            Expr::Bool { .. } => unreachable!("booleans resolve through `bool_node`"),
        };
        Num { line, op }
    }

    fn bool_node(&mut self, e: &'p Expr) -> Bool<'p> {
        let line = e.line();
        let op = match e {
            Expr::Bool { value, .. } => BoolOp::Const(*value),
            Expr::Unary { operand, .. } => BoolOp::Not(Box::new(self.boolean(operand, line))),
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), lhs, rhs, .. } => {
                let l = self.boolean(lhs, line);
                let both = Box::new([l, self.boolean(rhs, line)]);
                if *op == BinOp::And {
                    BoolOp::And(both)
                } else {
                    BoolOp::Or(both)
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let cmp = match op {
                    BinOp::Eq => Cmp::Eq,
                    BinOp::Ne => Cmp::Ne,
                    BinOp::Lt => Cmp::Lt,
                    BinOp::Le => Cmp::Le,
                    BinOp::Gt => Cmp::Gt,
                    _ => Cmp::Ge,
                };
                BoolOp::Cmp(cmp, self.pair(lhs, rhs, line))
            }
            _ => unreachable!("numbers resolve through `num_node`"),
        };
        Bool { line, op }
    }

    fn call(&mut self, callee: &str, args: Box<[Num<'p>]>) -> NumOp<'p> {
        let fault = |args, message| NumOp::Fault(Box::new((args, message)));
        if is_builtin(callee) {
            let (b, arity) = match callee {
                "sqrt" => (Builtin::Sqrt, 1),
                "abs" => (Builtin::Abs, 1),
                "min" => (Builtin::Min, 2),
                "max" => (Builtin::Max, 2),
                _ => (Builtin::Floor, 1),
            };
            return if args.len() == arity {
                NumOp::Builtin(b, args)
            } else {
                let n = args.len();
                fault(args, format!("`{callee}` expects {arity} argument(s), got {n}"))
            };
        }
        let Some(fi) = self.prog.functions.iter().position(|f| f.name == callee) else {
            return fault(args, format!("unknown function `{callee}`"));
        };
        let arity = self.prog.functions[fi].params.len();
        if args.len() != arity {
            let n = args.len();
            return fault(args, format!("`{callee}` expects {arity} argument(s), got {n}"));
        }
        NumOp::Call(fi as u32, args)
    }

    fn elem(&mut self, array: &str, indices: &'p [Expr], line: u32) -> Result<Elem<'p>, String> {
        let ai = self
            .prog
            .globals
            .iter()
            .position(|g| g.name == array)
            .ok_or_else(|| format!("unknown array `{array}`"))?;
        let g = &self.prog.globals[ai];
        if indices.len() != g.dims.len() {
            return Err(format!(
                "array `{array}` has {} dimension(s) but {} index(es) were given",
                g.dims.len(),
                indices.len()
            ));
        }
        let array = Array { base: self.bases[ai], dims: &g.dims, name: &g.name };
        Ok(Elem { array, indices: indices.iter().map(|ix| self.num(ix, line)).collect() })
    }
}

// ---- run ----------------------------------------------------------------

/// Evaluation stopped; the error is in [`Machine::error`]. Keeping the
/// error out of the hot `Result`s keeps them two words wide.
struct Halt;

type Run<T> = Result<T, Halt>;

enum Flow {
    Normal,
    Break,
    Return(f64),
}

struct Machine<'r, 'p> {
    funcs: &'r [Func<'p>],
    /// Every global array, flattened in declaration order.
    globals: Vec<f64>,
    /// Frame slots of every live activation.
    stack: Vec<f64>,
    /// First slot of the running activation.
    base: usize,
    steps: u64,
    depth: usize,
    limits: EvalLimits,
    error: Option<EvalError>,
}

impl<'r, 'p> Machine<'r, 'p> {
    #[cold]
    fn stop(&mut self, e: EvalError) -> Halt {
        self.error = Some(e);
        Halt
    }

    #[cold]
    fn fault(&mut self, line: u32, message: String) -> Halt {
        self.stop(EvalError::fault(line, message))
    }

    #[inline]
    fn step(&mut self, line: u32) -> Run<()> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            let message = format!("step limit of {} exceeded", self.limits.max_steps);
            return Err(self.stop(EvalError::budget(line, message)));
        }
        Ok(())
    }

    /// Run `f` with its frame starting at stack slot `frame`, where the
    /// caller has pushed the arguments.
    fn call(&mut self, f: &'r Func<'p>, frame: usize) -> Run<f64> {
        if self.depth >= self.limits.max_call_depth {
            let message = format!(
                "call depth limit of {} exceeded entering `{}`",
                self.limits.max_call_depth, f.name
            );
            return Err(self.stop(EvalError::budget(f.line, message)));
        }
        self.depth += 1;
        let caller = std::mem::replace(&mut self.base, frame);
        self.stack.resize(frame + f.slots as usize, 0.0);
        let flow = self.run(&f.body)?;
        self.stack.truncate(frame);
        self.base = caller;
        self.depth -= 1;
        Ok(match flow {
            Flow::Return(v) => v,
            _ => 0.0,
        })
    }

    /// Stack position of `v`'s binding at this point, if it is bound.
    fn lookup(&self, v: &Var<'p>) -> Option<usize> {
        match v {
            Var::Slot(slot) => Some(self.base + *slot as usize),
            Var::Later { flag, slot, outer } => {
                if self.stack[self.base + *flag as usize] != 0.0 {
                    Some(self.base + *slot as usize)
                } else {
                    self.lookup(outer)
                }
            }
            Var::Unbound(_) => None,
        }
    }

    fn run(&mut self, body: &'r [Cmd<'p>]) -> Run<Flow> {
        for c in body {
            match self.exec(c)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, c: &'r Cmd<'p>) -> Run<Flow> {
        let line = c.line;
        self.step(line)?;
        match &c.op {
            CmdOp::Let(slot, init) => {
                let v = self.num(init)?;
                self.stack[self.base + *slot as usize] = v;
            }
            CmdOp::SetVar(var, op, value) => {
                let old = if *op == AssignOp::Set {
                    0.0
                } else {
                    match self.lookup(var) {
                        Some(at) => self.stack[at],
                        None => {
                            let message = format!("undeclared variable `{}`", var.name());
                            return Err(self.fault(line, message));
                        }
                    }
                };
                let rhs = self.num(value)?;
                let v = self.assign(*op, old, rhs, line)?;
                match self.lookup(var) {
                    Some(at) => self.stack[at] = v,
                    None => {
                        let message = format!("assignment to undeclared variable `{}`", var.name());
                        return Err(self.fault(line, message));
                    }
                }
            }
            CmdOp::SetElem(target, op, value) => {
                let elem = match target {
                    Ok(elem) => elem,
                    Err(message) => return Err(self.fault(line, message.clone())),
                };
                let at = self.elem(elem, line)?;
                let old = if *op == AssignOp::Set {
                    0.0
                } else {
                    let reload = self.elem(elem, line)?;
                    self.globals[reload]
                };
                let rhs = self.num(value)?;
                self.globals[at] = self.assign(*op, old, rhs, line)?;
            }
            CmdOp::For(f) => {
                let start = self.num(&f.start)?;
                let end = self.num(&f.end)?;
                let var = self.base + f.var as usize;
                let flag = f.flag.map(|flag| self.base + flag as usize);
                self.stack[var] = start;
                if let Some(flag) = flag {
                    self.stack[flag] = 0.0;
                }
                let mut i = start;
                while i < end {
                    self.step(line)?;
                    self.stack[var] = i;
                    match self.run(&f.body)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        ret => return Ok(ret),
                    }
                    if let Some(flag) = flag {
                        self.stack[flag] = 1.0;
                    }
                    i += 1.0;
                }
            }
            CmdOp::While(cond, body) => loop {
                let c = self.boolean(cond)?;
                self.step(line)?;
                if !c {
                    break;
                }
                match self.run(body)? {
                    Flow::Normal => {}
                    Flow::Break => break,
                    ret => return Ok(ret),
                }
            },
            CmdOp::If(cond, then, els) => {
                let c = self.boolean(cond)?;
                return self.run(if c { then } else { els });
            }
            CmdOp::Eval(Ok(e)) => {
                self.num(e)?;
            }
            CmdOp::Eval(Err(e)) => {
                self.boolean(e)?;
            }
            CmdOp::Return(value) => {
                let v = match value {
                    Some(e) => self.num(e)?,
                    None => 0.0,
                };
                return Ok(Flow::Return(v));
            }
            CmdOp::Break => return Ok(Flow::Break),
        }
        Ok(Flow::Normal)
    }

    fn assign(&mut self, op: AssignOp, old: f64, rhs: f64, line: u32) -> Run<f64> {
        Ok(match op {
            AssignOp::Set => rhs,
            AssignOp::Add => old + rhs,
            AssignOp::Sub => old - rhs,
            AssignOp::Mul => old * rhs,
            AssignOp::Div => self.div(old, rhs, line)?,
        })
    }

    fn div(&mut self, l: f64, r: f64, line: u32) -> Run<f64> {
        if r == 0.0 {
            return Err(self.fault(line, "division by zero".into()));
        }
        Ok(l / r)
    }

    /// Flat global-store position of `elem` (row-major), evaluating and
    /// bounds-checking its indices in order.
    fn elem(&mut self, elem: &'r Elem<'p>, line: u32) -> Run<usize> {
        let mut offset = 0;
        for (k, (ix, &dim)) in elem.indices.iter().zip(elem.array.dims).enumerate() {
            let idx = self.num(ix)?.trunc();
            if idx < 0.0 || idx as usize >= dim || idx.is_nan() {
                let name = elem.array.name;
                let message =
                    format!("index {idx} out of bounds for dimension {k} of `{name}` (size {dim})");
                return Err(self.fault(line, message));
            }
            offset = offset * dim + idx as usize;
        }
        Ok(elem.array.base + offset)
    }

    fn num(&mut self, e: &'r Num<'p>) -> Run<f64> {
        let op = match &e.op {
            NumOp::NotNum(b) => {
                self.boolean(b)?;
                return Err(self.fault(e.line, "expected a number".into()));
            }
            op => op,
        };
        self.step(e.line)?;
        Ok(match op {
            NumOp::Const(v) => *v,
            NumOp::Local(slot) => self.stack[self.base + *slot as usize],
            NumOp::Var(var) => match self.lookup(var) {
                Some(at) => self.stack[at],
                None => {
                    let message = format!("undeclared variable `{}`", var.name());
                    return Err(self.fault(e.line, message));
                }
            },
            NumOp::Elem(elem) => {
                let at = self.elem(elem, e.line)?;
                self.globals[at]
            }
            NumOp::Call(fi, args) => {
                let frame = self.stack.len();
                for a in args.iter() {
                    let v = self.num(a)?;
                    self.stack.push(v);
                }
                let funcs = self.funcs;
                self.call(&funcs[*fi as usize], frame)?
            }
            NumOp::Builtin(b, args) => {
                let x = self.num(&args[0])?;
                match b {
                    Builtin::Sqrt => x.sqrt(),
                    Builtin::Abs => x.abs(),
                    Builtin::Floor => x.floor(),
                    Builtin::Min => x.min(self.num(&args[1])?),
                    Builtin::Max => x.max(self.num(&args[1])?),
                }
            }
            NumOp::Neg(x) => -self.num(x)?,
            NumOp::Arith(op, lr) => {
                let l = self.num(&lr[0])?;
                let r = self.num(&lr[1])?;
                match op {
                    Arith::Add => l + r,
                    Arith::Sub => l - r,
                    Arith::Mul => l * r,
                    Arith::Div => self.div(l, r, e.line)?,
                    Arith::Rem => {
                        if r == 0.0 {
                            return Err(self.fault(e.line, "modulo by zero".into()));
                        }
                        l.rem_euclid(r)
                    }
                }
            }
            NumOp::Fault(f) => {
                let (args, message) = &**f;
                for a in args.iter() {
                    self.num(a)?;
                }
                return Err(self.fault(e.line, message.clone()));
            }
            NumOp::NotNum(_) => unreachable!("handled above"),
        })
    }

    fn boolean(&mut self, e: &'r Bool<'p>) -> Run<bool> {
        let op = match &e.op {
            BoolOp::NotBool(n) => {
                self.num(n)?;
                return Err(self.fault(e.line, "expected a boolean".into()));
            }
            op => op,
        };
        self.step(e.line)?;
        Ok(match op {
            BoolOp::Const(b) => *b,
            BoolOp::Cmp(cmp, lr) => {
                let l = self.num(&lr[0])?;
                let r = self.num(&lr[1])?;
                match cmp {
                    Cmp::Eq => l == r,
                    Cmp::Ne => l != r,
                    Cmp::Lt => l < r,
                    Cmp::Le => l <= r,
                    Cmp::Gt => l > r,
                    Cmp::Ge => l >= r,
                }
            }
            BoolOp::Not(x) => !self.boolean(x)?,
            BoolOp::And(lr) => self.boolean(&lr[0])? && self.boolean(&lr[1])?,
            BoolOp::Or(lr) => self.boolean(&lr[0])? || self.boolean(&lr[1])?,
            BoolOp::NotBool(_) => unreachable!("handled above"),
        })
    }
}
#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::parse_checked;

    fn eval_src(src: &str) -> EvalOutcome {
        evaluate(&parse_checked(src).unwrap()).unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        assert_eq!(eval_src("fn main() { return (1 + 2) * 3 - 4 / 2; }").return_value, 7.0);
        assert_eq!(
            eval_src("fn main() { let s = 0; for i in 0..10 { s += i; } return s; }").return_value,
            45.0
        );
        assert_eq!(
            eval_src(
                "fn main() { let i = 0; while true { i += 1; if i >= 5 { break; } } return i; }"
            )
            .return_value,
            5.0
        );
    }

    #[test]
    fn recursion_and_builtins() {
        let fib = "fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }
fn main() { return fib(10); }";
        assert_eq!(eval_src(fib).return_value, 55.0);
        assert_eq!(
            eval_src("fn main() { return sqrt(16) + min(2, 1) + max(2, 1) + floor(1.9); }")
                .return_value,
            8.0
        );
    }

    #[test]
    fn globals_flatten_in_declaration_order() {
        let out = eval_src(
            "global a[3]; global m[2][2];
fn main() { a[1] = 5; m[1][0] = 7; return 0; }",
        );
        assert_eq!(out.globals, vec![0.0, 5.0, 0.0, 0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn faults_match_the_interpreter_contract() {
        let p = parse_checked("fn main() { return 1 / 0; }").unwrap();
        let err = evaluate(&p).unwrap_err();
        assert!(err.message.contains("division by zero"));
        assert!(!err.is_budget());

        let p = parse_checked("global a[2]; fn main() { a[5] = 1; }").unwrap();
        let err = evaluate(&p).unwrap_err();
        assert!(err.message.contains("out of bounds"));

        let p = parse_checked("fn main() { return 1 % (2 - 2); }").unwrap();
        assert!(evaluate(&p).unwrap_err().message.contains("modulo by zero"));
    }

    #[test]
    fn budgets_are_distinguishable_from_faults() {
        let p = parse_checked("fn main() { while true { let x = 1; } }").unwrap();
        let err = evaluate_with_limits(&p, EvalLimits { max_steps: 1_000, ..Default::default() })
            .unwrap_err();
        assert!(err.is_budget(), "{err}");

        let p = parse_checked("fn r(n) { return r(n + 1); } fn main() { return r(0); }").unwrap();
        let err = evaluate(&p).unwrap_err();
        assert!(err.is_budget(), "{err}");
        assert!(err.message.contains("call depth"));
    }

    #[test]
    fn interpreter_budgets_map_to_four_steps_per_instruction() {
        let l = EvalLimits::for_interpreter(1_000, 7);
        assert_eq!((l.max_steps, l.max_call_depth), (4_000, 7));
        assert_eq!(EvalLimits::for_interpreter(u64::MAX, 1).max_steps, u64::MAX);
    }

    #[test]
    fn a_for_body_let_is_seen_from_the_second_iteration_on() {
        let src = "fn main() {
            let x = 100;
            let s = 0;
            for i in 0..3 { s += x; let x = i; }
            return s;
        }";
        // 100 on the first iteration, then the body's x from iterations 0 and 1.
        assert_eq!(eval_src(src).return_value, 101.0);
    }

    #[test]
    fn rem_follows_euclid() {
        assert_eq!(eval_src("fn main() { return 7 % 3; }").return_value, 1.0);
        assert_eq!(eval_src("fn main() { return (0 - 7) % 3; }").return_value, 2.0);
    }

    #[test]
    fn compound_array_assignment_loads_then_stores() {
        let out = eval_src("global a[2]; fn main() { a[0] = 3; a[0] += 4; return a[0]; }");
        assert_eq!(out.return_value, 7.0);
    }

    #[test]
    fn divergence_reports_return_value_first() {
        let p = parse_checked("fn main() { return 2; }").unwrap();
        let oracle = evaluate(&p).unwrap();
        assert_eq!(divergence(&p, &oracle, 2.0, &[]), None);
        let d = divergence(&p, &oracle, 3.0, &[]).unwrap();
        assert!(d.contains("return value diverges"), "{d}");
    }

    #[test]
    fn divergence_names_the_first_bad_cell() {
        let p = parse_checked("global a[2]; global m[2][3]; fn main() { }").unwrap();
        let oracle = evaluate(&p).unwrap();
        let mut bad = oracle.globals.clone();
        bad[2 + 4] = 9.0; // m[1][1]
        let d = divergence(&p, &oracle, 0.0, &bad).unwrap();
        assert!(d.contains("m[1][1]"), "{d}");
        let mut bad = oracle.globals.clone();
        bad[1] = 9.0;
        let d = divergence(&p, &oracle, 0.0, &bad).unwrap();
        assert!(d.contains("a[1]"), "{d}");
    }

    #[test]
    fn nan_agreement_is_not_divergence() {
        let p = parse_checked("global a[1]; fn main() { }").unwrap();
        let oracle = EvalOutcome { return_value: f64::NAN, globals: vec![f64::NAN], steps: 1 };
        assert_eq!(divergence(&p, &oracle, f64::NAN, &[f64::NAN]), None);
        assert!(divergence(&p, &oracle, 0.0, &[f64::NAN]).is_some());
    }
}
