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
//! BoundExpr::eval_bool` on random expressions and long rule chains ×
//! rows, errors included):
//!
//! * `=`/`!=` compare value ids; interning is injective so this is
//!   value equality, including `NULL = NULL` being true;
//! * `and`/`or` short-circuit left-to-right via conditional jumps that
//!   error on non-boolean conditions, and the surviving operand is
//!   checked by `AssertBool`, mirroring the interpreter's `eval_bool`
//!   on both operands;
//! * `in (…)` tests a bitset indexed by value id, precomputed at
//!   compile time from the literal list;
//! * named-set calls go through the same [`EvalContext`] at runtime,
//!   unless the context can enumerate the set: [`BoundExpr::fold`] then
//!   turns the call into a literal list, which compiles to a bitset.
//!
//! A ternary `c ? t : f` branches on its condition once. A rule chain,
//! `g1 ? r1 : g2 ? r2 : …` or `g1 or g2 or …`, in which enough guards
//! test one column first is lowered through a switch on that column
//! (see *Rule chains* below).
//!
//! [`compile_constraint`] is the solver's entry point: bind, fold,
//! lower. It binds the constraint once, folds the bound tree in place
//! ([`BoundExpr::fold`]: constant sub-expressions, calls over literals,
//! and calls on enumerable sets, which become literal lists), and
//! lowers it, so an unconstrained or constant-guarded column compiles to
//! a single `LoadConst` the solver can skip entirely
//! ([`Program::const_result`]).
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
//!
//! ## Rule chains
//!
//! A chain is a spine of ternaries down their else branches, or the
//! operands of nested `or`s; its arms are tried in order, and an `or`
//! chain's else is `false`. An arm's *key* is the leftmost conjunct of
//! its guard (the left operand of `and`, followed down) when that is
//! `col = lit`, `lit = col` or `col in (lits)`. When at least
//! [`MIN_KEYED_ARMS`] arms key on one column, the *dispatch column*
//! (the one most keys test), the chain is lowered to a `Switch` on it
//! and one *bucket* of arms per value a key names: the arms whose key
//! holds that value and the arms with no key on the dispatch column, in
//! chain order, then the else.
//! Values no key names take the bucket of unkeyed arms, which every
//! other bucket ends in, and buckets with the same arms share code.
//! With the dispatch column bound, a switch is one table lookup and one
//! jump; over the new column it splits the live values by bucket, as a
//! jump on a mask does. The arms a bucket leaves out cannot change a
//! result: their key compares the dispatch column with values it does
//! not hold, which is false and cannot fail, and `and` stops there.

use crate::error::{Error, Result};
use crate::expr::{BoundExpr, EvalContext, Expr};
use crate::schema::Schema;
use crate::symbol::Sym;
use crate::value::{Value, FALSE_VID, NULL_VID, TRUE_VID};
use std::collections::HashMap;

/// The arms keyed on one column that a rule chain needs to be lowered
/// through a switch on that column.
pub const MIN_KEYED_ARMS: usize = 8;

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
    /// Unconditional jump (to the end of a chain, or from a bucket into
    /// the unkeyed arms it ends in).
    Jump { to: u32 },
    /// Jump to `to` when `regs[cond]` is false; fall through on true;
    /// error otherwise (short-circuit `and`).
    JumpIfFalse { cond: u32, to: u32 },
    /// Jump to `to` when `regs[cond]` is true (short-circuit `or`).
    JumpIfTrue { cond: u32, to: u32 },
    /// `regs[dst] = bool_id(ctx.set_contains(name, decode(regs[src])))`.
    CallSet { dst: u32, src: u32, name: Sym },
    /// Jump to the bucket `tables[table]` gives for `row[col]`; over the
    /// new column, each live value to its own bucket.
    Switch { col: u32, table: u32 },
}

/// The buckets of a switch: where the code of the bucket each value id
/// selects starts, dense over the ids its keys name (from `base`); any
/// other id selects `default`.
#[derive(Clone, Debug, Default)]
struct JumpTable {
    base: u32,
    targets: Vec<u32>,
    default: u32,
}

impl JumpTable {
    #[inline]
    fn target(&self, id: u32) -> u32 {
        self.targets
            .get(id.wrapping_sub(self.base) as usize)
            .copied()
            .unwrap_or(self.default)
    }
}

/// One arm of a rule chain: its guard, and what the chain gives when
/// that guard is the first to hold (`None` in an `or` chain: true).
type Arm<'e> = (&'e BoundExpr, Option<&'e BoundExpr>);

/// The arms of the chain `e` heads, in order, and what it gives when no
/// guard holds (`None` for an `or` chain: false).
fn chain(e: &BoundExpr) -> (Vec<Arm<'_>>, Option<&BoundExpr>) {
    fn operands<'e>(e: &'e BoundExpr, arms: &mut Vec<Arm<'e>>) {
        match e {
            BoundExpr::Or(a, b) => {
                operands(a, arms);
                operands(b, arms);
            }
            g => arms.push((g, None)),
        }
    }
    let mut arms = Vec::new();
    if let BoundExpr::Or(..) = e {
        operands(e, &mut arms);
        return (arms, None);
    }
    let mut e = e;
    while let BoundExpr::Ternary(g, t, f) = e {
        arms.push((g, Some(t)));
        e = f;
    }
    (arms, Some(e))
}

/// An arm's key: the column its guard tests first and the value ids
/// that pass that test (at least one).
fn key(guard: &BoundExpr) -> Option<(usize, Vec<u32>)> {
    let mut g = guard;
    while let BoundExpr::And(a, _) = g {
        g = a;
    }
    match g {
        BoundExpr::Eq(a, b) => match (&**a, &**b) {
            (BoundExpr::Col(c), BoundExpr::Lit(v)) | (BoundExpr::Lit(v), BoundExpr::Col(c)) => {
                Some((*c, vec![v.vid()]))
            }
            _ => None,
        },
        BoundExpr::In(e, vs) => match &**e {
            BoundExpr::Col(c) if !vs.is_empty() => Some((*c, vs.iter().map(|v| v.vid()).collect())),
            _ => None,
        },
        _ => None,
    }
}

/// The dispatch column of a chain with these keys, when enough arms key
/// on it: the column most keys test, the first tested on a tie.
fn dispatch(keys: &[Option<(usize, Vec<u32>)>]) -> Option<usize> {
    let mut counts: Vec<(usize, usize)> = Vec::new();
    for (c, _) in keys.iter().flatten() {
        match counts.iter_mut().find(|(k, _)| k == c) {
            Some((_, n)) => *n += 1,
            None => counts.push((*c, 1)),
        }
    }
    let (col, keyed) = counts.into_iter().rev().max_by_key(|&(_, n)| n)?;
    (keyed >= MIN_KEYED_ARMS).then_some(col)
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
    tables: Vec<JumpTable>,
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
            tables: Vec::new(),
            num_regs: 1,
        };
        p.emit(e, 0);
        p
    }

    /// Registers an evaluation needs.
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// The switches in the program: one per rule chain lowered through a
    /// switch on its dispatch column, and one per further copy of such a
    /// chain when it sits in an arm that several buckets repeat.
    pub fn indexed(&self) -> usize {
        self.tables.len()
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
                let skip = self.jump(Op::JumpIfFalse { cond: dst, to: 0 });
                self.emit(b, dst);
                self.ops.push(Op::AssertBool { src: dst });
                self.land(skip);
            }
            BoundExpr::Or(..) | BoundExpr::Ternary(..) => self.emit_chain(e, dst),
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

    /// Push a jump whose target [`Program::land`] sets later.
    fn jump(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Point the jump at `at` to the next op.
    fn land(&mut self, at: usize) {
        let here = self.ops.len() as u32;
        match &mut self.ops[at] {
            Op::Jump { to } | Op::JumpIfFalse { to, .. } | Op::JumpIfTrue { to, .. } => *to = here,
            op => unreachable!("{op:?} is not a jump"),
        }
    }

    /// Lower a rule chain into `dst`: through a switch when enough arms
    /// key on one column, arm by arm otherwise.
    fn emit_chain(&mut self, e: &BoundExpr, dst: u32) {
        let (arms, last) = chain(e);
        let mut ends = Vec::new();
        let keys: Vec<_> = if arms.len() >= MIN_KEYED_ARMS {
            arms.iter().map(|&(g, _)| key(g)).collect()
        } else {
            Vec::new()
        };
        match dispatch(&keys) {
            Some(col) => self.emit_switch(&arms, &keys, col, last, dst, &mut ends),
            None => {
                // An `or` chain's last operand is its else: its value,
                // once it is checked to be a boolean, is the chain's.
                let (arms, last) = match (last, arms.split_last()) {
                    (None, Some((&(g, None), init))) => (init, Some(g)),
                    _ => (&arms[..], last),
                };
                for &arm in arms {
                    self.emit_arm(arm, dst, &mut ends);
                }
                self.emit_else(last, dst);
            }
        }
        for at in ends {
            self.land(at);
        }
    }

    /// Lower one arm: its guard, falling through when it is false; when
    /// it is true, the arm's result and a jump to the chain's end, whose
    /// address `ends` collects.
    fn emit_arm(&mut self, (guard, result): Arm, dst: u32, ends: &mut Vec<usize>) {
        self.emit(guard, dst);
        match result {
            Some(r) => {
                let skip = self.jump(Op::JumpIfFalse { cond: dst, to: 0 });
                self.emit(r, dst);
                self.ops.push(Op::AssertBool { src: dst });
                ends.push(self.jump(Op::Jump { to: 0 }));
                self.land(skip);
            }
            None => ends.push(self.jump(Op::JumpIfTrue { cond: dst, to: 0 })),
        }
    }

    /// Lower what a chain gives when no guard holds.
    fn emit_else(&mut self, last: Option<&BoundExpr>, dst: u32) {
        match last {
            Some(f) => {
                self.emit(f, dst);
                self.ops.push(Op::AssertBool { src: dst });
            }
            None => self.ops.push(Op::LoadConst { dst, id: FALSE_VID }),
        }
    }

    /// Lower a chain through a switch on column `col`: first the bucket
    /// of values no key names (the unkeyed arms, then the else), then
    /// one bucket per distinct list of arms keyed on a value, which
    /// jumps into the first one after its last keyed arm.
    fn emit_switch(
        &mut self,
        arms: &[Arm],
        keys: &[Option<(usize, Vec<u32>)>],
        col: usize,
        last: Option<&BoundExpr>,
        dst: u32,
        ends: &mut Vec<usize>,
    ) {
        // The table's slot is taken before the arms are lowered: a
        // switched chain inside them takes the next one.
        let table = self.tables.len();
        self.tables.push(JumpTable::default());
        self.ops.push(Op::Switch {
            col: col as u32,
            table: table as u32,
        });
        let keyed = |i: usize| match &keys[i] {
            Some((c, ids)) if *c == col => Some(ids),
            _ => None,
        };
        let default = self.ops.len() as u32;
        // The unkeyed arms, each with where its code starts.
        let mut unkeyed = Vec::new();
        for (i, &arm) in arms.iter().enumerate() {
            if keyed(i).is_none() {
                unkeyed.push((i, self.ops.len() as u32));
                self.emit_arm(arm, dst, ends);
            }
        }
        let else_at = self.ops.len() as u32;
        self.emit_else(last, dst);
        ends.push(self.jump(Op::Jump { to: 0 }));

        // Every (value, arm keyed on it), by value, then in chain order.
        let mut named: Vec<(u32, u32)> = Vec::new();
        for i in 0..arms.len() {
            if let Some(ids) = keyed(i) {
                named.extend(ids.iter().map(|&id| (id, i as u32)));
            }
        }
        named.sort_unstable();
        named.dedup();
        let keyed_arms: Vec<u32> = named.iter().map(|&(_, i)| i).collect();
        let mut code: HashMap<&[u32], u32> = HashMap::new();
        let (base, top) = (named[0].0, named[named.len() - 1].0);
        let mut targets = vec![default; (top - base) as usize + 1];
        let mut from = 0;
        for value in named.chunk_by(|a, b| a.0 == b.0) {
            let bucket = &keyed_arms[from..from + value.len()];
            from += value.len();
            targets[(value[0].0 - base) as usize] = *code.entry(bucket).or_insert_with(|| {
                let at = self.ops.len() as u32;
                let mut u = 0;
                for &k in bucket {
                    while unkeyed.get(u).is_some_and(|&(i, _)| i < k as usize) {
                        self.emit_arm(arms[unkeyed[u].0], dst, ends);
                        u += 1;
                    }
                    self.emit_arm(arms[k as usize], dst, ends);
                }
                let rest = unkeyed.get(u).map_or(else_at, |&(_, at)| at);
                self.ops.push(Op::Jump { to: rest });
                at
            });
        }
        self.tables[table] = JumpTable {
            base,
            targets,
            default,
        };
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
                    Op::Switch { col: c, table } => {
                        let t = &self.tables[table as usize];
                        if c as usize != new {
                            Some((t.target(col(c as usize)), live))
                        } else {
                            // Every bucket's values but the last one's
                            // split off; the last one's go on here.
                            loop {
                                let to = t.target(d.ids[live.trailing_zeros() as usize]);
                                let away = select(live, |j| t.target(d.ids[j as usize]) == to);
                                if away == live {
                                    break Some((to, live));
                                }
                                saved.extend_from_slice(&regs[..n]);
                                forks.push((to, away));
                                live &= !away;
                            }
                        }
                    }
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

/// Compile one column constraint against `schema`: bind it, fold it in
/// place under `ctx` ([`BoundExpr::fold`]) and lower it; the folded
/// tree is dropped once it is lowered. The solver's entry point.
pub fn compile_constraint(e: &Expr, schema: &Schema, ctx: &dyn EvalContext) -> Result<Program> {
    Ok(Program::compile(&e.bind(schema)?.fold(ctx)))
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
    fn a_long_chain_switches_on_the_column_its_guards_test_first() {
        // Eight arms key on `inmsg`, one on `dirst`; the arm for `m1`
        // and `m2` is one bucket, shared by both values.
        let mut src = String::from("inmsg in (m1, m2) ? dirpv = one : dirst = I ? dirpv = gone : ");
        for i in 3..10 {
            src += &format!("inmsg = m{i} and dirst = SI ? dirpv = p{i} : ");
        }
        src += "dirpv = zero";
        let s = schema();
        let e = parse_expr(&src).unwrap();
        let p = compile_constraint(&e, &s, &NoContext).unwrap();
        assert_eq!(p.indexed(), 1);
        let bound = e.bind(&s).unwrap();
        for m in ["m1", "m2", "m5", "m9", "unnamed"] {
            for st in ["I", "SI"] {
                for pv in ["one", "gone", "p5", "p9", "zero"] {
                    let r = row(m, st, pv);
                    let want = bound.eval_bool(&r, &NoContext);
                    assert_eq!(p.eval_row(&r, &NoContext), want, "{r:?}");
                }
            }
        }
        assert!(p.eval_row(&row("m2", "SI", "one"), &NoContext).unwrap());
        assert!(p.eval_row(&row("m5", "SI", "p5"), &NoContext).unwrap());
        assert!(p
            .eval_row(&row("unnamed", "I", "gone"), &NoContext)
            .unwrap());
        assert!(p
            .eval_row(&row("unnamed", "SI", "zero"), &NoContext)
            .unwrap());
        // One arm fewer on `inmsg` is under the threshold.
        let e = parse_expr(&src.replacen("inmsg = m9", "dirst = m9", 1)).unwrap();
        let p = compile_constraint(&e, &s, &NoContext).unwrap();
        assert_eq!(p.indexed(), 0);
        // Eight keyed arms are enough however many others there are:
        // here eight on `dirst` among 17 arms.
        let sparse = Expr::any((0..2 * MIN_KEYED_ARMS + 1).map(|i| match i % 2 {
            0 => Expr::col_eq("dirst", &format!("v{i}")),
            _ => Expr::True,
        }));
        let indexed = |e: Expr| Program::compile(&e.bind(&s).unwrap()).indexed();
        assert_eq!(indexed(sparse), 1);
        // `inmsg in ()` holds for no value, so it is no key.
        let none = || Expr::In(Box::new(Expr::col("inmsg")), Vec::new());
        let e = Expr::any((0..MIN_KEYED_ARMS).map(|_| none()));
        let p = Program::compile(&e.bind(&s).unwrap());
        assert_eq!(p.indexed(), 0);
        assert_eq!(p.eval_row(&row("m1", "I", "one"), &NoContext), Ok(false));
    }

    #[test]
    fn a_switched_chain_inside_another_keeps_its_own_table() {
        // A ternary chain on `inmsg` whose else is an `or` chain on
        // `dirst`: the inner switch is lowered while the outer one's
        // buckets are, and each must read its own table.
        let inner = Expr::any((0..MIN_KEYED_ARMS).map(|j| Expr::col_eq("dirst", &format!("s{j}"))));
        let e = (0..MIN_KEYED_ARMS).rev().fold(inner, |chain, i| {
            Expr::col_eq("inmsg", &format!("m{i}"))
                .ternary(Expr::col_eq("dirpv", &format!("p{i}")), chain)
        });
        let s = schema();
        let bound = e.bind(&s).unwrap();
        let p = Program::compile(&bound);
        assert_eq!(p.indexed(), 2);
        for m in ["m1", "m7", "x"] {
            for st in ["s3", "x"] {
                for pv in ["p0", "p1", "x"] {
                    let r = row(m, st, pv);
                    assert_eq!(p.eval_row(&r, &NoContext), bound.eval_bool(&r, &NoContext));
                }
            }
        }
        assert_eq!(p.eval_row(&row("m1", "x", "p1"), &NoContext), Ok(true));
        assert_eq!(p.eval_row(&row("m1", "s3", "p0"), &NoContext), Ok(false));
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
