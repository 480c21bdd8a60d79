//! Randomized tests for the MiniLang front end: pretty-print/parse round
//! trips over generated ASTs, lexer totality, and sema stability.
//!
//! ASTs are generated with a seeded xorshift PRNG (std-only) so the family
//! is deterministic across runs.

use parpat_minilang::ast::*;
use parpat_minilang::genprog::xorshift64;
use parpat_minilang::lexer::lex;
use parpat_minilang::parser::parse;
use parpat_minilang::pretty::print_program;
use parpat_minilang::sema::check;

/// Seeded PRNG stepping the workspace's xorshift64*.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        xorshift64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Strip line/column info by printing (lines are layout-derived on reparse).
fn normalize(p: &Program) -> String {
    print_program(p)
}

/// Generated identifiers that cannot collide with keywords or builtins.
fn gen_ident(rng: &mut Rng) -> String {
    let len = rng.range(1, 6) as usize;
    let tail: String = (0..len)
        .map(|_| {
            let c = rng.below(36);
            if c < 26 {
                (b'a' + c as u8) as char
            } else {
                (b'0' + (c - 26) as u8) as char
            }
        })
        .collect();
    format!("v_{tail}")
}

fn gen_expr(rng: &mut Rng, vars: &[String], depth: u32) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        // Leaf.
        return match rng.below(3) {
            0 => Expr::Number { value: rng.below(1000) as f64, line: 1 },
            1 => Expr::Var { name: rng.pick(vars).clone(), line: 1 },
            _ => Expr::Index {
                array: "g".to_owned(),
                indices: vec![Expr::Number { value: rng.below(8) as f64, line: 1 }],
                line: 1,
            },
        };
    }
    match rng.below(3) {
        0 => Expr::Binary {
            op: *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]),
            lhs: Box::new(gen_expr(rng, vars, depth - 1)),
            rhs: Box::new(gen_expr(rng, vars, depth - 1)),
            line: 1,
        },
        1 => Expr::Unary {
            op: UnOp::Neg,
            operand: Box::new(gen_expr(rng, vars, depth - 1)),
            line: 1,
        },
        _ => Expr::Call {
            callee: "min".to_owned(),
            args: vec![gen_expr(rng, vars, depth - 1), gen_expr(rng, vars, depth - 1)],
            line: 1,
        },
    }
}

fn gen_stmt(rng: &mut Rng, vars: &[String]) -> Stmt {
    match rng.below(3) {
        // Assignment to an existing scalar.
        0 => Stmt::Assign {
            target: LValue::Var(rng.pick(vars).clone()),
            op: *rng.pick(&[AssignOp::Set, AssignOp::Add, AssignOp::Mul]),
            value: gen_expr(rng, vars, 2),
            line: 1,
        },
        // Array store.
        1 => Stmt::Assign {
            target: LValue::Index {
                array: "g".to_owned(),
                indices: vec![Expr::Number { value: rng.below(8) as f64, line: 1 }],
            },
            op: AssignOp::Set,
            value: gen_expr(rng, vars, 2),
            line: 1,
        },
        // If with a comparison condition.
        _ => Stmt::If {
            cond: Expr::Binary {
                op: BinOp::Lt,
                lhs: Box::new(gen_expr(rng, vars, 1)),
                rhs: Box::new(gen_expr(rng, vars, 1)),
                line: 1,
            },
            then_block: Block {
                stmts: vec![Stmt::Assign {
                    target: LValue::Index {
                        array: "g".to_owned(),
                        indices: vec![Expr::Number { value: 0.0, line: 1 }],
                    },
                    op: AssignOp::Set,
                    value: gen_expr(rng, vars, 2),
                    line: 1,
                }],
            },
            else_block: None,
            line: 1,
        },
    }
}

fn gen_stmts(rng: &mut Rng, vars: &[String]) -> Vec<Stmt> {
    let mut base: Vec<Stmt> = (0..rng.below(5)).map(|_| gen_stmt(rng, vars)).collect();
    // Optionally wrap the second half of the statements in a for loop.
    if rng.below(3) > 0 && !base.is_empty() {
        let body = base.split_off(base.len() / 2);
        if !body.is_empty() {
            base.push(Stmt::For {
                var: "idx".to_owned(),
                start: Expr::Number { value: 0.0, line: 1 },
                end: Expr::Binary {
                    op: BinOp::Add,
                    lhs: Box::new(Expr::Unary {
                        op: UnOp::Neg,
                        operand: Box::new(gen_expr(rng, vars, 1)),
                        line: 1,
                    }),
                    rhs: Box::new(Expr::Number { value: 4.0, line: 1 }),
                    line: 1,
                },
                body: Block { stmts: body },
                line: 1,
            });
        }
    }
    base
}

fn gen_program(rng: &mut Rng) -> Program {
    let mut names: Vec<String> = (0..rng.range(1, 4)).map(|_| gen_ident(rng)).collect();
    names.sort();
    names.dedup();
    let mut body: Vec<Stmt> = names
        .iter()
        .map(|n| Stmt::Let { name: n.clone(), init: Expr::Number { value: 1.0, line: 1 }, line: 1 })
        .collect();
    body.extend(gen_stmts(rng, &names));
    Program {
        globals: vec![GlobalArray { name: "g".to_owned(), dims: vec![8], line: 1 }],
        functions: vec![Function {
            name: "main".to_owned(),
            params: vec![],
            body: Block { stmts: body },
            line: 1,
        }],
    }
}

/// print → parse → print is a fixpoint over generated ASTs.
#[test]
fn print_parse_fixpoint() {
    let mut rng = Rng::new(0x5EED_0001);
    for _ in 0..96 {
        let p = gen_program(&mut rng);
        let text1 = normalize(&p);
        let reparsed = parse(&text1).expect("printed program parses");
        let text2 = normalize(&reparsed);
        assert_eq!(text1, text2);
    }
}

/// Generated programs pass semantic checking (the generator only emits
/// well-scoped programs).
#[test]
fn generated_programs_check() {
    let mut rng = Rng::new(0x5EED_0002);
    for _ in 0..96 {
        let p = gen_program(&mut rng);
        check(&p, true).expect("well-formed by construction");
    }
}

/// The lexer never panics on arbitrary input (it may error).
#[test]
fn lexer_is_total() {
    let mut rng = Rng::new(0x5EED_0003);
    for _ in 0..96 {
        let len = rng.below(200) as usize;
        let s: String =
            (0..len).map(|_| char::from_u32(rng.below(0xD7FF) as u32 + 1).unwrap_or('x')).collect();
        let _ = lex(&s);
    }
}

/// The parser never panics on arbitrary token-ish input.
#[test]
fn parser_is_total() {
    const ALPHABET: &[u8] = b"abcxyz0123456789+-*/%(){}[];=<>!&|., \n";
    let mut rng = Rng::new(0x5EED_0004);
    for _ in 0..96 {
        let len = rng.below(200) as usize;
        let s: String =
            (0..len).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char).collect();
        let _ = parse(&s);
    }
}
