//! The reference evaluator, kept for differential testing.
//!
//! This is the straightforward AST walker the resolved evaluator in
//! [`crate::eval`] replaced: locals live in a stack of `HashMap` scopes,
//! every `let` allocates its name, and arrays and callees are found by
//! name on every use. It is compiled only for tests and under the
//! `reference` feature, and serves as the oracle the resolved evaluator
//! must match exactly: the same `Result<EvalOutcome, EvalError>`, step
//! count and fault line included.

use std::collections::HashMap;

use crate::ast::*;
use crate::eval::{EvalError, EvalLimits, EvalOutcome};

/// A runtime value; the same two-type discipline the interpreter enforces.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Num(f64),
    Bool(bool),
}

impl Value {
    fn num(self, line: u32) -> Result<f64, EvalError> {
        match self {
            Value::Num(n) => Ok(n),
            Value::Bool(_) => Err(EvalError::fault(line, "expected a number".into())),
        }
    }

    fn boolean(self, line: u32) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(b),
            Value::Num(_) => Err(EvalError::fault(line, "expected a boolean".into())),
        }
    }
}

enum Flow {
    Normal,
    Break,
    Return(f64),
}

/// Lexical scopes of one activation: a stack of name → value maps.
struct Frame {
    scopes: Vec<HashMap<String, f64>>,
}

impl Frame {
    fn get(&self, name: &str) -> Option<f64> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn set(&mut self, name: &str, v: f64) -> bool {
        for s in self.scopes.iter_mut().rev() {
            if let Some(slot) = s.get_mut(name) {
                *slot = v;
                return true;
            }
        }
        false
    }

    fn declare(&mut self, name: &str, v: f64) {
        if let Some(s) = self.scopes.last_mut() {
            s.insert(name.to_owned(), v);
        }
    }
}

/// The reference AST walker. [`ReferenceEvaluator::evaluate`] has the
/// contract of [`crate::evaluate_with_limits`].
pub struct ReferenceEvaluator<'p> {
    prog: &'p Program,
    /// One backing vector per global array, in declaration order.
    arrays: Vec<Vec<f64>>,
    steps: u64,
    depth: usize,
    limits: EvalLimits,
}

impl<'p> ReferenceEvaluator<'p> {
    /// Evaluate a checked program's `main` under explicit limits.
    pub fn evaluate(prog: &'p Program, limits: EvalLimits) -> Result<EvalOutcome, EvalError> {
        let main = prog
            .function("main")
            .ok_or_else(|| EvalError::fault(0, "program has no `main` function".into()))?;
        let mut arrays = Vec::with_capacity(prog.globals.len());
        for g in &prog.globals {
            arrays.push(vec![0.0f64; g.len()]);
        }
        let mut ev = ReferenceEvaluator { prog, arrays, steps: 0, depth: 0, limits };
        let ret = ev.call(main, &[])?;
        let mut globals = Vec::new();
        for a in &ev.arrays {
            globals.extend_from_slice(a);
        }
        Ok(EvalOutcome { return_value: ret, globals, steps: ev.steps })
    }

    fn step(&mut self, line: u32) -> Result<(), EvalError> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(EvalError::budget(
                line,
                format!("step limit of {} exceeded", self.limits.max_steps),
            ));
        }
        Ok(())
    }

    fn call(&mut self, f: &Function, args: &[f64]) -> Result<f64, EvalError> {
        if self.depth >= self.limits.max_call_depth {
            return Err(EvalError::budget(
                f.line,
                format!(
                    "call depth limit of {} exceeded entering `{}`",
                    self.limits.max_call_depth, f.name
                ),
            ));
        }
        self.depth += 1;
        let mut scope = HashMap::new();
        for (p, &v) in f.params.iter().zip(args) {
            scope.insert(p.clone(), v);
        }
        let mut frame = Frame { scopes: vec![scope] };
        let flow = self.block(&f.body, &mut frame)?;
        self.depth -= 1;
        Ok(match flow {
            Flow::Return(v) => v,
            _ => 0.0,
        })
    }

    fn block(&mut self, b: &Block, frame: &mut Frame) -> Result<Flow, EvalError> {
        frame.scopes.push(HashMap::new());
        let mut out = Flow::Normal;
        for s in &b.stmts {
            match self.stmt(s, frame)? {
                Flow::Normal => {}
                other => {
                    out = other;
                    break;
                }
            }
        }
        frame.scopes.pop();
        Ok(out)
    }

    fn stmt(&mut self, s: &Stmt, frame: &mut Frame) -> Result<Flow, EvalError> {
        self.step(s.line())?;
        match s {
            Stmt::Let { name, init, line } => {
                let v = self.expr(init, frame)?.num(*line)?;
                frame.declare(name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value, line } => {
                self.assign(target, *op, value, *line, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::For { var, start, end, body, line } => {
                let start = self.expr(start, frame)?.num(*line)?;
                let end = self.expr(end, frame)?.num(*line)?;
                frame.scopes.push(HashMap::new());
                frame.declare(var, start);
                let mut i = start;
                let mut out = Flow::Normal;
                'iters: while i < end {
                    self.step(*line)?;
                    frame.set(var, i);
                    for s in &body.stmts {
                        match self.stmt(s, frame)? {
                            Flow::Normal => {}
                            Flow::Break => break 'iters,
                            ret => {
                                out = ret;
                                break 'iters;
                            }
                        }
                    }
                    i += 1.0;
                }
                frame.scopes.pop();
                Ok(out)
            }
            Stmt::While { cond, body, line } => {
                let mut out = Flow::Normal;
                'iters: loop {
                    let c = self.expr(cond, frame)?.boolean(*line)?;
                    self.step(*line)?;
                    if !c {
                        break;
                    }
                    frame.scopes.push(HashMap::new());
                    for s in &body.stmts {
                        match self.stmt(s, frame)? {
                            Flow::Normal => {}
                            Flow::Break => {
                                frame.scopes.pop();
                                break 'iters;
                            }
                            ret => {
                                out = ret;
                                frame.scopes.pop();
                                break 'iters;
                            }
                        }
                    }
                    frame.scopes.pop();
                }
                Ok(out)
            }
            Stmt::If { cond, then_block, else_block, line } => {
                let c = self.expr(cond, frame)?.boolean(*line)?;
                if c {
                    self.block(then_block, frame)
                } else if let Some(e) = else_block {
                    self.block(e, frame)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Expr { expr, .. } => {
                self.expr(expr, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Return { value, line } => {
                let v = match value {
                    Some(e) => self.expr(e, frame)?.num(*line)?,
                    None => 0.0,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
        }
    }

    fn assign(
        &mut self,
        target: &LValue,
        op: AssignOp,
        value: &Expr,
        line: u32,
        frame: &mut Frame,
    ) -> Result<(), EvalError> {
        match target {
            LValue::Var(name) => {
                let old = if op == AssignOp::Set {
                    0.0
                } else {
                    frame.get(name).ok_or_else(|| {
                        EvalError::fault(line, format!("undeclared variable `{name}`"))
                    })?
                };
                let rhs = self.expr(value, frame)?.num(line)?;
                let v = apply_assign(op, old, rhs, line)?;
                if !frame.set(name, v) {
                    return Err(EvalError::fault(
                        line,
                        format!("assignment to undeclared variable `{name}`"),
                    ));
                }
                Ok(())
            }
            LValue::Index { array, indices } => {
                // Mirror the lowering's evaluation order: store indices
                // first, then (compound only) the reload indices and old
                // value, then the right-hand side.
                let (ai, store_at) = self.element(array, indices, line, frame)?;
                let old = if op == AssignOp::Set {
                    0.0
                } else {
                    let (_, reload_at) = self.element(array, indices, line, frame)?;
                    self.arrays[ai][reload_at]
                };
                let rhs = self.expr(value, frame)?.num(line)?;
                let v = apply_assign(op, old, rhs, line)?;
                self.arrays[ai][store_at] = v;
                Ok(())
            }
        }
    }

    /// Resolve `array[indices]` to (array number, flat element offset).
    fn element(
        &mut self,
        array: &str,
        indices: &[Expr],
        line: u32,
        frame: &mut Frame,
    ) -> Result<(usize, usize), EvalError> {
        let (ai, g) = self
            .prog
            .globals
            .iter()
            .enumerate()
            .find(|(_, g)| g.name == array)
            .ok_or_else(|| EvalError::fault(line, format!("unknown array `{array}`")))?;
        if indices.len() != g.dims.len() {
            return Err(EvalError::fault(
                line,
                format!(
                    "array `{array}` has {} dimension(s) but {} index(es) were given",
                    g.dims.len(),
                    indices.len()
                ),
            ));
        }
        let dims = g.dims.clone();
        let name = g.name.clone();
        let mut resolved = [0usize; 2];
        for (k, ix) in indices.iter().enumerate() {
            let v = self.expr(ix, frame)?.num(line)?;
            let idx = v.trunc();
            let dim = dims[k];
            if idx < 0.0 || idx as usize >= dim || idx.is_nan() {
                return Err(EvalError::fault(
                    line,
                    format!("index {idx} out of bounds for dimension {k} of `{name}` (size {dim})"),
                ));
            }
            resolved[k] = idx as usize;
        }
        let row = if dims.len() == 2 { dims[1] } else { 1 };
        Ok((ai, resolved[0] * row + if indices.len() == 2 { resolved[1] } else { 0 }))
    }

    fn expr(&mut self, e: &Expr, frame: &mut Frame) -> Result<Value, EvalError> {
        self.step(e.line())?;
        match e {
            Expr::Number { value, .. } => Ok(Value::Num(*value)),
            Expr::Bool { value, .. } => Ok(Value::Bool(*value)),
            Expr::Var { name, line } => match frame.get(name) {
                Some(v) => Ok(Value::Num(v)),
                None => Err(EvalError::fault(*line, format!("undeclared variable `{name}`"))),
            },
            Expr::Index { array, indices, line } => {
                let (ai, at) = self.element(array, indices, *line, frame)?;
                Ok(Value::Num(self.arrays[ai][at]))
            }
            Expr::Call { callee, args, line } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a, frame)?.num(*line)?);
                }
                if is_builtin(callee) {
                    return Ok(Value::Num(builtin(callee, &vals, *line)?));
                }
                let f = self.prog.function(callee).ok_or_else(|| {
                    EvalError::fault(*line, format!("unknown function `{callee}`"))
                })?;
                if vals.len() != f.params.len() {
                    return Err(EvalError::fault(
                        *line,
                        format!(
                            "`{callee}` expects {} argument(s), got {}",
                            f.params.len(),
                            vals.len()
                        ),
                    ));
                }
                Ok(Value::Num(self.call(f, &vals)?))
            }
            Expr::Unary { op, operand, line } => {
                let v = self.expr(operand, frame)?;
                match op {
                    UnOp::Neg => Ok(Value::Num(-v.num(*line)?)),
                    UnOp::Not => Ok(Value::Bool(!v.boolean(*line)?)),
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                if op.is_logical() {
                    let l = self.expr(lhs, frame)?.boolean(*line)?;
                    let take_rhs = match op {
                        BinOp::And => l,
                        _ => !l,
                    };
                    let out = if take_rhs { self.expr(rhs, frame)?.boolean(*line)? } else { l };
                    return Ok(Value::Bool(out));
                }
                let l = self.expr(lhs, frame)?.num(*line)?;
                let r = self.expr(rhs, frame)?.num(*line)?;
                Ok(match op {
                    BinOp::Add => Value::Num(l + r),
                    BinOp::Sub => Value::Num(l - r),
                    BinOp::Mul => Value::Num(l * r),
                    BinOp::Div => Value::Num(arith_div(l, r, *line)?),
                    BinOp::Rem => Value::Num(arith_rem(l, r, *line)?),
                    BinOp::Eq => Value::Bool(l == r),
                    BinOp::Ne => Value::Bool(l != r),
                    BinOp::Lt => Value::Bool(l < r),
                    BinOp::Le => Value::Bool(l <= r),
                    BinOp::Gt => Value::Bool(l > r),
                    BinOp::Ge => Value::Bool(l >= r),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                })
            }
        }
    }
}

fn apply_assign(op: AssignOp, old: f64, rhs: f64, line: u32) -> Result<f64, EvalError> {
    Ok(match op {
        AssignOp::Set => rhs,
        AssignOp::Add => old + rhs,
        AssignOp::Sub => old - rhs,
        AssignOp::Mul => old * rhs,
        AssignOp::Div => arith_div(old, rhs, line)?,
    })
}

fn arith_div(l: f64, r: f64, line: u32) -> Result<f64, EvalError> {
    if r == 0.0 {
        return Err(EvalError::fault(line, "division by zero".into()));
    }
    Ok(l / r)
}

fn arith_rem(l: f64, r: f64, line: u32) -> Result<f64, EvalError> {
    if r == 0.0 {
        return Err(EvalError::fault(line, "modulo by zero".into()));
    }
    Ok(l.rem_euclid(r))
}

fn builtin(name: &str, args: &[f64], line: u32) -> Result<f64, EvalError> {
    let arity = match name {
        "min" | "max" => 2,
        _ => 1,
    };
    if args.len() != arity {
        return Err(EvalError::fault(
            line,
            format!("`{name}` expects {arity} argument(s), got {}", args.len()),
        ));
    }
    Ok(match name {
        "sqrt" => args[0].sqrt(),
        "abs" => args[0].abs(),
        "min" => args[0].min(args[1]),
        "max" => args[0].max(args[1]),
        "floor" => args[0].floor(),
        _ => return Err(EvalError::fault(line, format!("unknown builtin `{name}`"))),
    })
}
