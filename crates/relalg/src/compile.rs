//! Bytecode compilation of column constraints: the solver's hot path.
//!
//! Tree-walking [`BoundExpr::eval_bool`] dominates incremental table
//! generation — every candidate row pays a recursive descent with a
//! `Value` (16-byte enum) compare at each leaf. This module lowers a
//! bound expression once into a flat register [`Program`] over interned
//! **value ids** ([`Value::vid`]): column loads, single-word compares,
//! bitset membership tests and short-circuit jumps. Evaluation is then
//! a tight non-recursive loop over a reusable register file — no
//! allocation, no recursion, no 16-byte moves per candidate.
//!
//! The semantics are *exactly* those of the interpreter (the property
//! suite in `tests/bytecode.rs` asserts `Program::eval_row ==
//! BoundExpr::eval_bool` on random expressions × rows, errors
//! included):
//!
//! * `=`/`!=` compare value ids; interning is injective so this is
//!   value equality, including `NULL = NULL` being true;
//! * `and`/`or` short-circuit left-to-right via conditional jumps that
//!   error on non-boolean conditions, and the surviving operand is
//!   checked by `AssertBool`, mirroring the interpreter's `eval_bool`
//!   on both operands;
//! * `in (…)` tests a bitset indexed by value id, precomputed at
//!   compile time from the literal set;
//! * named-set calls go through the same [`EvalContext`] at runtime
//!   (a context is an opaque membership oracle — it cannot be compiled
//!   to a bitset without enumerating it).
//!
//! [`compile_constraint`] is the solver's entry point: it folds
//! `resolve_idents` + `reduce` (constant folding, including calls over
//! literals) before binding and lowering, so an unconstrained or
//! constant-guarded column compiles to a single `LoadConst` the solver
//! can skip entirely ([`Program::const_result`]).
//!
//! ## Masked evaluation
//!
//! A program runs one way: as a masked pass. An extension step tries
//! every value of the column it adds against each row, and a pass
//! evaluates a program once per row for the whole domain of that
//! column (at most 64 values, one bit each): loads of the row's other
//! columns, and everything computed from them, stay one value id; a
//! load of the new column, and the compares, set tests and calls over
//! it, give a bitmask over the domain. A jump on a mask splits the live
//! values, so each value follows exactly its own path: a guard chain
//! that never reads the new column walks once per row instead of once
//! per value, and the worst case costs what one pass per value costs.
//! A pass over a one-value domain is the scalar evaluation
//! ([`Program::eval_row`]). A pass returns the first non-boolean value
//! or named-set error it meets, which need not be the first value's, so
//! the solver reruns a failing row as one-value passes in value order
//! to report the first error.

use crate::error::{Error, Result};
use crate::expr::{BoundExpr, EvalContext, Expr};
use crate::schema::Schema;
use crate::symbol::Sym;
use crate::value::{Value, FALSE_VID, NULL_VID, TRUE_VID};

/// One bytecode instruction. Registers hold value ids; `dst`/`src`/
/// `a`/`b` index the register file, `col` a row column, `set` the
/// program's bitset table, `to` an instruction index.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `regs[dst] = row[col]`.
    LoadCol { dst: u32, col: u32 },
    /// `regs[dst] = id` (an interned constant).
    LoadConst { dst: u32, id: u32 },
    /// `regs[dst] = bool_id(regs[a] == regs[b])`.
    Eq { dst: u32, a: u32, b: u32 },
    /// `regs[dst] = bool_id(regs[a] != regs[b])`.
    Ne { dst: u32, a: u32, b: u32 },
    /// `regs[dst] = bool_id(sets[set].contains(regs[src]))`.
    InSet { dst: u32, src: u32, set: u32 },
    /// Boolean negation; errors on a non-boolean operand.
    Not { dst: u32, src: u32 },
    /// Errors unless `regs[src]` is a boolean id (the `and`/`or` tail
    /// check the interpreter performs via `eval_bool`).
    AssertBool { src: u32 },
    /// Unconditional jump (joins the arms of a recognised ternary).
    Jump { to: u32 },
    /// Jump to `to` when `regs[cond]` is false; fall through on true;
    /// error otherwise (short-circuit `and`).
    JumpIfFalse { cond: u32, to: u32 },
    /// Jump to `to` when `regs[cond]` is true (short-circuit `or`).
    JumpIfTrue { cond: u32, to: u32 },
    /// `regs[dst] = bool_id(ctx.set_contains(name, decode(regs[src])))`.
    CallSet { dst: u32, src: u32, name: Sym },
}

/// A bitset over value ids (the compiled form of an `in (…)` literal
/// set). Ids past the end are absent — a candidate value interned after
/// compilation simply isn't a member.
#[derive(Clone, Debug, Default)]
struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    fn insert(&mut self, id: u32) {
        let w = (id / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (id % 64);
    }

    #[inline]
    fn contains(&self, id: u32) -> bool {
        let w = (id / 64) as usize;
        w < self.words.len() && self.words[w] & (1u64 << (id % 64)) != 0
    }
}

/// A compiled constraint: flat ops over a small register file. The
/// result lands in register 0; registers are allocated stack-style
/// (operand at depth d lives in register d), so `num_regs` is the
/// expression's operand depth — a handful in practice.
#[derive(Clone, Debug)]
pub struct Program {
    ops: Vec<Op>,
    sets: Vec<IdSet>,
    num_regs: usize,
}

// Out of line: inlined, the formatting slows the masked pass's hot
// loop by about a quarter.
#[cold]
#[inline(never)]
fn not_boolean(id: u32) -> Error {
    Error::NotBoolean(format!("{:?}", Value::from_vid(id)))
}

fn bool_id(b: bool) -> u32 {
    if b {
        TRUE_VID
    } else {
        FALSE_VID
    }
}

/// The values of the column an extension step adds, as the bits of a
/// `u64`: value `j` is bit `j`, so a domain holds at most
/// [`Domain::MAX`] values.
pub(crate) struct Domain<'a> {
    ids: &'a [u32],
    /// The values that are booleans.
    bools: u64,
}

impl<'a> Domain<'a> {
    /// The most values a domain can hold.
    pub(crate) const MAX: usize = 64;

    /// The domain of a column's value ids, at most [`Domain::MAX`].
    pub(crate) fn new(ids: &'a [u32]) -> Domain<'a> {
        debug_assert!(ids.len() <= Domain::MAX);
        let mut d = Domain { ids, bools: 0 };
        d.bools = d.eq(TRUE_VID) | d.eq(FALSE_VID);
        d
    }

    /// Every value of the domain.
    pub(crate) fn all(&self) -> u64 {
        match self.ids.len() {
            Domain::MAX => u64::MAX,
            n => (1 << n) - 1,
        }
    }

    /// The values whose id is `id`.
    #[inline]
    fn eq(&self, id: u32) -> u64 {
        self.ids
            .iter()
            .enumerate()
            .fold(0, |m, (j, &x)| m | u64::from(x == id) << j)
    }
}

/// One register of a masked evaluation: what it holds for each live
/// value of the new column.
#[derive(Clone, Copy, Debug)]
enum Lane {
    /// The same value id for every value.
    Id(u32),
    /// The new column itself: value `j` holds `ids[j]`.
    New,
    /// A boolean per value: bit `j` is value `j`'s truth.
    Mask(u64),
}

impl Lane {
    /// The id value `j` holds.
    fn id_at(self, j: u32, d: &Domain) -> u32 {
        match self {
            Lane::Id(id) => id,
            Lane::New => d.ids[j as usize],
            Lane::Mask(m) => bool_id(m >> j & 1 != 0),
        }
    }

    /// The live values that hold true; an error naming the first live
    /// value that holds a non-boolean.
    #[inline]
    fn truth(self, live: u64, d: &Domain) -> Result<u64> {
        match self {
            Lane::Id(TRUE_VID) => Ok(live),
            Lane::Id(FALSE_VID) => Ok(0),
            Lane::Id(id) => Err(not_boolean(id)),
            Lane::Mask(m) => Ok(live & m),
            Lane::New => match live & !d.bools {
                0 => Ok(live & d.eq(TRUE_VID)),
                bad => Err(not_boolean(d.ids[bad.trailing_zeros() as usize])),
            },
        }
    }

    /// Boolean negation; an error when a live value is non-boolean.
    fn negate(self, live: u64, d: &Domain) -> Result<Lane> {
        match self {
            Lane::Id(TRUE_VID) => Ok(Lane::Id(FALSE_VID)),
            Lane::Id(FALSE_VID) => Ok(Lane::Id(TRUE_VID)),
            Lane::Mask(m) => Ok(Lane::Mask(!m)),
            l => l.truth(live, d).map(|t| Lane::Mask(!t)),
        }
    }

    /// Per-value equality.
    fn equals(self, other: Lane, live: u64, d: &Domain) -> Lane {
        match (self, other) {
            (Lane::Id(a), Lane::Id(b)) => Lane::Id(bool_id(a == b)),
            (Lane::New, Lane::Id(id)) | (Lane::Id(id), Lane::New) => Lane::Mask(d.eq(id)),
            (Lane::New, Lane::New) => Lane::Id(TRUE_VID),
            (a, b) => Lane::Mask(select(live, |j| a.id_at(j, d) == b.id_at(j, d))),
        }
    }
}

/// The live values `f` holds for.
fn select(live: u64, mut f: impl FnMut(u32) -> bool) -> u64 {
    bits(live).filter(|&j| f(j)).fold(0, |m, j| m | 1 << j)
}

/// The positions of the set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros();
            mask &= mask - 1;
            j
        })
    })
}

/// Reusable scratch for [`Program::eval_masked`]: the register file,
/// and the split-off paths still to run with their saved registers.
#[derive(Default)]
pub(crate) struct MaskScratch {
    regs: Vec<Lane>,
    forks: Vec<(u32, u64)>,
    saved: Vec<Lane>,
}

impl Program {
    /// Lower a bound expression. Never fails: every `BoundExpr` node
    /// has a direct op sequence.
    pub fn compile(e: &BoundExpr) -> Program {
        let mut p = Program {
            ops: Vec::new(),
            sets: Vec::new(),
            num_regs: 1,
        };
        p.emit(e, 0);
        p
    }

    /// Registers an evaluation needs.
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// `Some(b)` iff the program is a single boolean constant — the
    /// solver skips always-true constraints without touching any row.
    pub fn const_result(&self) -> Option<bool> {
        match self.ops.as_slice() {
            [Op::LoadConst { id: TRUE_VID, .. }] => Some(true),
            [Op::LoadConst { id: FALSE_VID, .. }] => Some(false),
            _ => None,
        }
    }

    fn emit(&mut self, e: &BoundExpr, dst: u32) {
        self.num_regs = self.num_regs.max(dst as usize + 1);
        match e {
            BoundExpr::Col(i) => self.ops.push(Op::LoadCol {
                dst,
                col: *i as u32,
            }),
            BoundExpr::Lit(v) => self.ops.push(Op::LoadConst { dst, id: v.vid() }),
            BoundExpr::True => self.ops.push(Op::LoadConst { dst, id: TRUE_VID }),
            BoundExpr::False => self.ops.push(Op::LoadConst { dst, id: FALSE_VID }),
            BoundExpr::Eq(a, b) => {
                self.emit(a, dst);
                self.emit(b, dst + 1);
                self.ops.push(Op::Eq {
                    dst,
                    a: dst,
                    b: dst + 1,
                });
            }
            BoundExpr::Ne(a, b) => {
                self.emit(a, dst);
                self.emit(b, dst + 1);
                self.ops.push(Op::Ne {
                    dst,
                    a: dst,
                    b: dst + 1,
                });
            }
            BoundExpr::In(e, vs) => {
                self.emit(e, dst);
                let mut set = IdSet::default();
                for v in vs {
                    set.insert(v.vid());
                }
                let si = self.sets.len() as u32;
                self.sets.push(set);
                self.ops.push(Op::InSet {
                    dst,
                    src: dst,
                    set: si,
                });
            }
            BoundExpr::Not(e) => {
                self.emit(e, dst);
                self.ops.push(Op::Not { dst, src: dst });
            }
            BoundExpr::And(a, b) => {
                self.emit(a, dst);
                let jump_at = self.ops.len();
                self.ops.push(Op::JumpIfFalse { cond: dst, to: 0 });
                self.emit(b, dst);
                self.ops.push(Op::AssertBool { src: dst });
                let end = self.ops.len() as u32;
                if let Op::JumpIfFalse { to, .. } = &mut self.ops[jump_at] {
                    *to = end;
                }
            }
            BoundExpr::Or(a, b) => {
                // `c ? t : f` binds to `(c and t) or (not c and f)`;
                // recognising that shape branches on the guard once
                // instead of re-evaluating a failed guard through the
                // `not` — the dominant cost in the protocol's long rule
                // chains, where a candidate falls through many guards
                // before one matches. Result and errors are identical:
                // the guard is pure, so its second evaluation in the
                // desugared form can neither fail anew nor disagree.
                if let (BoundExpr::And(c, t), BoundExpr::And(n, f)) = (&**a, &**b) {
                    if matches!(&**n, BoundExpr::Not(c2) if c2 == c) {
                        self.emit(c, dst);
                        let else_jump = self.ops.len();
                        self.ops.push(Op::JumpIfFalse { cond: dst, to: 0 });
                        self.emit(t, dst);
                        self.ops.push(Op::AssertBool { src: dst });
                        let end_jump = self.ops.len();
                        self.ops.push(Op::Jump { to: 0 });
                        let else_at = self.ops.len() as u32;
                        if let Op::JumpIfFalse { to, .. } = &mut self.ops[else_jump] {
                            *to = else_at;
                        }
                        self.emit(f, dst);
                        self.ops.push(Op::AssertBool { src: dst });
                        let end = self.ops.len() as u32;
                        if let Op::Jump { to } = &mut self.ops[end_jump] {
                            *to = end;
                        }
                        return;
                    }
                }
                self.emit(a, dst);
                let jump_at = self.ops.len();
                self.ops.push(Op::JumpIfTrue { cond: dst, to: 0 });
                self.emit(b, dst);
                self.ops.push(Op::AssertBool { src: dst });
                let end = self.ops.len() as u32;
                if let Op::JumpIfTrue { to, .. } = &mut self.ops[jump_at] {
                    *to = end;
                }
            }
            BoundExpr::Call(name, e) => {
                self.emit(e, dst);
                self.ops.push(Op::CallSet {
                    dst,
                    src: dst,
                    name: *name,
                });
            }
        }
    }

    /// Specialise named-set calls against `ctx`: any call whose set the
    /// context can enumerate ([`EvalContext::set_members`]) becomes a
    /// precomputed bitset membership test, removing the per-candidate
    /// id decode and hash probe. Interning is injective, so the bitset
    /// decides exactly what `set_contains` would; enumerable sets never
    /// error. Calls on sets the context cannot enumerate keep the
    /// runtime oracle — and its `NoSuchSet` error.
    fn specialize_sets(&mut self, ctx: &dyn EvalContext) {
        for i in 0..self.ops.len() {
            if let Op::CallSet { dst, src, name } = self.ops[i] {
                if let Some(members) = ctx.set_members(name) {
                    let mut set = IdSet::default();
                    for v in members {
                        set.insert(v.vid());
                    }
                    let si = self.sets.len() as u32;
                    self.sets.push(set);
                    self.ops[i] = Op::InSet { dst, src, set: si };
                }
            }
        }
    }

    /// Evaluate the program for every `live` value of `d`, the domain
    /// of column `new`, at once, with the row's other cells supplied by
    /// `col`; return the live values it accepts. A jump on a condition
    /// that differs between values splits the live set, so every value
    /// takes exactly its own path. The error is the first non-boolean
    /// value or named-set error the pass meets: over one value it is
    /// that value's, over more it may be a later value's.
    pub(crate) fn eval_masked(
        &self,
        col: impl Fn(usize) -> u32,
        new: usize,
        d: &Domain,
        live: u64,
        ctx: &dyn EvalContext,
        scratch: &mut MaskScratch,
    ) -> Result<u64> {
        let n = self.num_regs;
        let MaskScratch { regs, forks, saved } = scratch;
        if regs.len() < n {
            regs.resize(n, Lane::Id(FALSE_VID));
        }
        forks.clear();
        saved.clear();
        let ops = &self.ops;
        let (mut pc, mut live, mut pass) = (0usize, live, 0u64);
        loop {
            while pc < ops.len() {
                // A jump's target and the live values that take it.
                let branch = match ops[pc] {
                    Op::LoadCol { dst, col: c } => {
                        regs[dst as usize] = if c as usize == new {
                            Lane::New
                        } else {
                            Lane::Id(col(c as usize))
                        };
                        None
                    }
                    Op::LoadConst { dst, id } => {
                        regs[dst as usize] = Lane::Id(id);
                        None
                    }
                    Op::Eq { dst, a, b } => {
                        regs[dst as usize] = regs[a as usize].equals(regs[b as usize], live, d);
                        None
                    }
                    Op::Ne { dst, a, b } => {
                        let eq = regs[a as usize].equals(regs[b as usize], live, d);
                        regs[dst as usize] = eq.negate(live, d)?;
                        None
                    }
                    Op::InSet { dst, src, set } => {
                        let set = &self.sets[set as usize];
                        regs[dst as usize] = match regs[src as usize] {
                            Lane::Id(id) => Lane::Id(bool_id(set.contains(id))),
                            l => Lane::Mask(select(live, |j| set.contains(l.id_at(j, d)))),
                        };
                        None
                    }
                    Op::Not { dst, src } => {
                        regs[dst as usize] = regs[src as usize].negate(live, d)?;
                        None
                    }
                    Op::AssertBool { src } => {
                        regs[src as usize].truth(live, d)?;
                        None
                    }
                    Op::CallSet { dst, src, name } => {
                        let call = |id: u32| ctx.set_contains(name, Value::from_vid(id));
                        regs[dst as usize] = match regs[src as usize] {
                            Lane::Id(id) => Lane::Id(bool_id(call(id)?)),
                            l => {
                                let mut m = 0;
                                for j in bits(live) {
                                    if call(l.id_at(j, d))? {
                                        m |= 1 << j;
                                    }
                                }
                                Lane::Mask(m)
                            }
                        };
                        None
                    }
                    Op::Jump { to } => Some((to, live)),
                    Op::JumpIfFalse { cond, to } => {
                        Some((to, live & !regs[cond as usize].truth(live, d)?))
                    }
                    Op::JumpIfTrue { cond, to } => Some((to, regs[cond as usize].truth(live, d)?)),
                };
                match branch {
                    Some((to, away)) if away == live => pc = to as usize,
                    Some((to, away)) if away != 0 => {
                        // Split: run the rest here, the jumpers later.
                        saved.extend_from_slice(&regs[..n]);
                        forks.push((to, away));
                        live &= !away;
                        pc += 1;
                    }
                    _ => pc += 1,
                }
            }
            pass |= regs[0].truth(live, d)?;
            let Some((to, rest)) = forks.pop() else {
                return Ok(pass);
            };
            let base = saved.len() - n;
            regs[..n].copy_from_slice(&saved[base..]);
            saved.truncate(base);
            (pc, live) = (to as usize, rest);
        }
    }

    /// Evaluate over a row of [`Value`]s, interning each referenced
    /// cell — the convenience form for tests and cold paths: a
    /// one-value pass whose new column is the row's last cell.
    pub fn eval_row(&self, row: &[Value], ctx: &dyn EvalContext) -> Result<bool> {
        let new = row.len().saturating_sub(1);
        let id = [row.get(new).map_or(NULL_VID, |v| v.vid())];
        let mut scratch = MaskScratch::default();
        let live = self.eval_masked(
            |c| row[c].vid(),
            new,
            &Domain::new(&id),
            1,
            ctx,
            &mut scratch,
        )?;
        Ok(live != 0)
    }
}

/// Compile one column constraint against `schema`: resolve identifiers
/// (schema membership), constant-fold with [`Expr::reduce`] (no fixed
/// columns, so only constant subexpressions — including named-set calls
/// over literals — fold), bind, lower. This is the solver's
/// compile-once-per-generate entry point.
pub fn compile_constraint(e: &Expr, schema: &Schema, ctx: &dyn EvalContext) -> Result<Program> {
    let folded = e
        .resolve_idents(&|s| schema.index_of(s).is_some())
        .reduce(&|_| None, ctx);
    let mut p = Program::compile(&folded.bind(schema)?);
    p.specialize_sets(ctx);
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{NoContext, SetContext};
    use crate::parser::parse_expr;

    fn schema() -> Schema {
        Schema::new(["inmsg", "dirst", "dirpv"]).unwrap()
    }

    fn row(a: &str, b: &str, c: &str) -> Vec<Value> {
        vec![Value::sym(a), Value::sym(b), Value::sym(c)]
    }

    fn run(src: &str, r: &[Value]) -> Result<bool> {
        let s = schema();
        let e = parse_expr(src).unwrap();
        let p = compile_constraint(&e, &s, &NoContext).unwrap();
        p.eval_row(r, &NoContext)
    }

    #[test]
    fn compiled_matches_interpreter_on_basics() {
        assert!(run("inmsg = readex", &row("readex", "I", "zero")).unwrap());
        assert!(!run("inmsg = readex", &row("data", "I", "zero")).unwrap());
        assert!(run("dirst != I", &row("x", "SI", "zero")).unwrap());
        assert!(run("dirst in (I, SI)", &row("x", "SI", "zero")).unwrap());
        assert!(!run("dirst in (I, SI)", &row("x", "MESI", "zero")).unwrap());
        assert!(run(
            "inmsg = readex ? dirst = I : dirst = SI",
            &row("readex", "I", "zero")
        )
        .unwrap());
        assert!(!run(
            "inmsg = readex ? dirst = I : dirst = SI",
            &row("readex", "SI", "zero")
        )
        .unwrap());
    }

    #[test]
    fn null_id_equality_matches_marker_semantics() {
        let s = Schema::new(["a"]).unwrap();
        let e = parse_expr("a = NULL").unwrap();
        let p = compile_constraint(&e, &s, &NoContext).unwrap();
        assert!(p.eval_row(&[Value::Null], &NoContext).unwrap());
        assert!(!p.eval_row(&[Value::sym("x")], &NoContext).unwrap());
    }

    #[test]
    fn short_circuit_skips_rhs_errors_like_the_interpreter() {
        // `false and inmsg` — the interpreter never evaluates the
        // non-boolean right side; neither may the program.
        let s = schema();
        let e = Expr::False.and(Expr::col("inmsg"));
        let p = Program::compile(&e.bind(&s).unwrap());
        assert_eq!(p.eval_row(&row("x", "y", "z"), &NoContext), Ok(false));
        // But a reached non-boolean tail errors, same as eval_bool.
        let e = Expr::True.and(Expr::col("inmsg"));
        let p = Program::compile(&e.bind(&s).unwrap());
        assert!(p.eval_row(&row("x", "y", "z"), &NoContext).is_err());
    }

    #[test]
    fn named_sets_resolve_through_the_context() {
        let s = schema();
        let mut ctx = SetContext::new();
        ctx.define("isrequest", [Value::sym("readex")]);
        let e = parse_expr("isrequest(inmsg)").unwrap();
        let p = compile_constraint(&e, &s, &ctx).unwrap();
        assert!(p.eval_row(&row("readex", "I", "zero"), &ctx).unwrap());
        assert!(!p.eval_row(&row("data", "I", "zero"), &ctx).unwrap());
        // An enumerable set is specialised to a bitset at compile time,
        // so evaluation no longer consults the context at all.
        assert!(p.eval_row(&row("readex", "I", "zero"), &NoContext).unwrap());
        // Compiled against a context that cannot enumerate, the call
        // stays a runtime oracle — and errors when the set is missing.
        let p = compile_constraint(&e, &s, &NoContext).unwrap();
        assert!(p.eval_row(&row("readex", "I", "zero"), &ctx).unwrap());
        assert!(p.eval_row(&row("readex", "I", "zero"), &NoContext).is_err());
    }

    #[test]
    fn constant_folding_collapses_to_a_single_load() {
        let s = schema();
        let e = parse_expr("zero = zero").unwrap();
        let p = compile_constraint(&e, &s, &NoContext).unwrap();
        assert_eq!(p.const_result(), Some(true));
        let e = parse_expr("zero = one").unwrap();
        let p = compile_constraint(&e, &s, &NoContext).unwrap();
        assert_eq!(p.const_result(), Some(false));
        let e = parse_expr("inmsg = readex").unwrap();
        let p = compile_constraint(&e, &s, &NoContext).unwrap();
        assert_eq!(p.const_result(), None);
    }

    #[test]
    fn register_depth_tracks_nesting() {
        let s = schema();
        let e = parse_expr("inmsg = readex and (dirst = I or dirpv = zero)").unwrap();
        let p = compile_constraint(&e, &s, &NoContext).unwrap();
        // Eq needs two registers; and/or reuse their destination.
        assert_eq!(p.num_regs(), 2);
    }
}
