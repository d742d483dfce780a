//! The finite-domain constraint solver: column tables + column
//! constraints → controller table.
//!
//! This reproduces the generation procedure of section 3 of the paper:
//!
//! * every column of a controller table has a **column table** — the set
//!   of values legal in that column (always including `NULL`, the
//!   don't-care/noop marker, unless the spec says otherwise);
//! * every column has a **column constraint**, a boolean (often ternary)
//!   expression over the columns of the table (`true` for unconstrained
//!   columns);
//! * the controller table is the set of all assignments in the cross
//!   product of the column tables satisfying the conjunction of all
//!   column constraints.
//!
//! Two strategies are provided, mirroring the paper's measurement that
//! incremental generation takes minutes while solving the whole
//! conjunction takes ~6 hours:
//!
//! * [`GenMode::Monolithic`] walks the full cross product of **all**
//!   column tables and filters by the full conjunction (streaming; never
//!   materialises the product, but still exponential time);
//! * [`GenMode::Incremental`] adds one column at a time — in spec order —
//!   and after each addition applies every constraint whose referenced
//!   columns are all present, pruning the intermediate table early. This
//!   is the paper's "inputs first, then one output column at a time"
//!   procedure generalised to prune as early as possible.
//!
//! ## One step loop
//!
//! Incremental generation keeps the intermediate table columnar, as
//! interned value ids ([`ColumnarRelation`]), and decodes it to a
//! row-major [`Relation`] once at the end. Each column constraint is
//! bound once per `generate` call, a bind that also validates it: by
//! default the bound tree is folded in place and lowered to a bytecode
//! [`Program`] (see [`crate::compile`]) before the next one is bound;
//! under [`GenOptions::interpreted`] (CLI `--no-compile`), the
//! differential oracle, it is kept as an unfolded [`BoundExpr`]. The
//! two share the step loop — seeding,
//! readiness, the row budget, the `solve/<column>` spans and
//! [`GenStats`] — and differ only in how a step tests its candidates:
//!
//! * **compiled**, a step is solved set-at-a-time: its ready programs
//!   run once per row for the whole table of the column being added, as
//!   a bitmask over its values, so a guard that does not read that
//!   column is evaluated once per row instead of once per value. A row
//!   whose masked pass meets an error is rerun as one-value passes in
//!   value order, and a column with more than 64 values runs one
//!   one-value pass per candidate;
//! * **interpreted**, each candidate is tested with
//!   [`BoundExpr::eval_bool`] over every ready constraint.
//!
//! Four properties keep the two byte-identical:
//!
//! * **compile-once-per-generate** — every intermediate schema is a
//!   *prefix* of the full schema, so column indices bound against the
//!   full schema are valid in every step, and readiness gating (a
//!   constraint runs only once all its referenced columns exist)
//!   guarantees a program never loads a column past the current arity;
//! * **identical filter semantics** — programs evaluate exactly like
//!   [`BoundExpr::eval_bool`] (property-tested in `tests/bytecode.rs`),
//!   and filters only ever *remove* candidates from the fixed
//!   cross-product order, so the rows and their order are the same;
//! * **identical short-circuits** — in a masked pass every value takes
//!   its own path through each program, and each program sees only the
//!   values the previous ones kept; the one-value rerun of a failing
//!   row reports the first error in (row, value) order;
//! * **identical accounting** — readiness is computed from the
//!   *original* constraints, so `candidates`, `per_column` and `steps`
//!   match too. Only [`GenStep::evals`] differs: one per row on the
//!   masked path, one per candidate otherwise.
//!
//! ## One row budget
//!
//! Every incremental solve obeys [`ROW_BUDGET`]: an extension step whose
//! candidate count (intermediate rows × column values) exceeds it fails
//! with [`Error::RowBudget`] instead of materialising the product. The
//! compiled and interpreted tests share the step loop that checks it,
//! so the oracle still matches. Monolithic generation, a test-only
//! oracle, is unbudgeted.
//!
//! [`TableSpec::generate_with_legal_inputs`] is the search behind the
//! coverage lints: one compiled pass, inputs first, that also hands back
//! the legal inputs — the intermediate table once every input column is
//! in.

use crate::columnar::ColumnarRelation;
use crate::compile::{bits, compile_constraint, Domain, MaskScratch, Program};
use crate::error::{Error, Result};
use crate::expr::{BoundExpr, EvalContext, Expr, SetContext};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::symbol::Sym;
use crate::value::{vid_decode_table, Value};
use std::time::{Duration, Instant};

/// The most candidate rows one incremental extension step may evaluate.
pub const ROW_BUDGET: u64 = 500_000;

/// Whether a column is an input or an output of the controller state
/// machine. (Outputs with value `NULL` mean "no operation".)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnRole {
    /// Input column (incoming message, current state, lookup result, …).
    Input,
    /// Output column (outgoing messages, next state, …).
    Output,
}

/// One column of a table specification.
#[derive(Clone, Debug)]
pub struct ColumnDef {
    /// Column name.
    pub name: Sym,
    /// Legal values (the paper's *column table*).
    pub values: Vec<Value>,
    /// Input or output.
    pub role: ColumnRole,
    /// The column constraint (`Expr::True` when unconstrained).
    pub constraint: Expr,
}

impl ColumnDef {
    /// Input column with the given legal values and constraint.
    pub fn input(name: &str, values: Vec<Value>, constraint: Expr) -> ColumnDef {
        ColumnDef {
            name: Sym::intern(name),
            values,
            role: ColumnRole::Input,
            constraint,
        }
    }

    /// Output column with the given legal values and constraint.
    pub fn output(name: &str, values: Vec<Value>, constraint: Expr) -> ColumnDef {
        ColumnDef {
            name: Sym::intern(name),
            values,
            role: ColumnRole::Output,
            constraint,
        }
    }
}

/// A full table specification: the database input of the paper's
/// push-button flow (table schema + column tables + column constraints).
#[derive(Clone, Debug)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Columns in generation order (inputs conventionally first).
    pub columns: Vec<ColumnDef>,
}

/// Generation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenMode {
    /// Full cross product filtered by the whole conjunction (streaming).
    Monolithic,
    /// Column-at-a-time with early constraint application.
    Incremental,
}

/// Generation options: the strategy plus whether incremental generation
/// tests candidates compiled (bytecode over value ids, the default) or
/// interpreted (tree-walking `BoundExpr` over decoded `Value` rows — the
/// differential oracle). Monolithic generation is always interpreted; it
/// exists as a correctness baseline, not a fast path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenOptions {
    /// Generation strategy.
    pub mode: GenMode,
    /// Lower constraints to bytecode (default); off, the interpreter
    /// tests each candidate.
    pub compile: bool,
}

impl From<GenMode> for GenOptions {
    fn from(mode: GenMode) -> GenOptions {
        GenOptions {
            mode,
            compile: true,
        }
    }
}

impl GenOptions {
    /// The given mode with compilation disabled (the oracle path).
    pub fn interpreted(mode: GenMode) -> GenOptions {
        GenOptions {
            mode,
            compile: false,
        }
    }
}

/// Statistics from one generation run.
#[derive(Clone, Debug)]
pub struct GenStats {
    /// Candidate rows evaluated (sum over all extension steps).
    pub candidates: u64,
    /// Constraint evaluations (sum over all extension steps; see
    /// [`GenStep::evals`]).
    pub evals: u64,
    /// Switches on a rule chain's dispatch column ([`Program::indexed`],
    /// summed over the compiled constraints; zero when interpreted).
    pub indexed: usize,
    /// Rows in the final table.
    pub rows: usize,
    /// Columns in the final table.
    pub columns: usize,
    /// Per-column intermediate sizes: (column, rows after adding it).
    pub per_column: Vec<(Sym, usize)>,
    /// Per-step detail (candidates evaluated, rows kept, elapsed) —
    /// one entry per incremental extension step, a single entry for
    /// monolithic generation.
    pub steps: Vec<GenStep>,
    /// Time spent lowering constraints to bytecode (zero when
    /// interpreted).
    pub compile: Duration,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// One extension step of incremental generation (one column added).
#[derive(Clone, Debug)]
pub struct GenStep {
    /// The column added in this step.
    pub column: Sym,
    /// Candidate rows evaluated (|intermediate| × |column table|).
    pub candidates: u64,
    /// Evaluations of the step's constraints. Compiled: one per
    /// intermediate row when a masked pass covers the row's whole
    /// column table at once, one per candidate otherwise, none on a
    /// step with nothing to check. Interpreted: one per candidate.
    pub evals: u64,
    /// Rows surviving the constraints applied at this step.
    pub rows: usize,
    /// Wall-clock time of the step.
    pub elapsed: Duration,
}

impl TableSpec {
    /// New spec.
    pub fn new(name: &str) -> TableSpec {
        TableSpec {
            name: name.to_string(),
            columns: Vec::new(),
        }
    }

    /// Append a column.
    pub fn push(&mut self, col: ColumnDef) -> &mut Self {
        self.columns.push(col);
        self
    }

    /// Names of all columns in order.
    pub fn column_names(&self) -> Vec<Sym> {
        self.columns.iter().map(|c| c.name).collect()
    }

    /// Names of input columns.
    pub fn input_names(&self) -> Vec<Sym> {
        self.columns
            .iter()
            .filter(|c| c.role == ColumnRole::Input)
            .map(|c| c.name)
            .collect()
    }

    /// Names of output columns.
    pub fn output_names(&self) -> Vec<Sym> {
        self.columns
            .iter()
            .filter(|c| c.role == ColumnRole::Output)
            .map(|c| c.name)
            .collect()
    }

    /// Validate the spec: nonempty column tables, unique names, and
    /// constraints referencing only known columns.
    pub fn validate(&self) -> Result<()> {
        let schema = self.schema()?;
        self.prepare(|e| e.bind(&schema).map(drop))?;
        Ok(())
    }

    /// The schema of the spec's columns; an error when it has none or
    /// names one twice.
    fn schema(&self) -> Result<Schema> {
        if self.columns.is_empty() {
            return Err(Error::BadSpec(format!("{}: no columns", self.name)));
        }
        Schema::from_syms(&self.column_names())
    }

    /// Prepare each column's constraint with `prep`, in column order,
    /// once its column table is checked nonempty. Every solve path binds
    /// a constraint only here, so that bind is also the validation: it
    /// rejects an unknown explicit column (an `Ident` that is no column
    /// binds as a symbolic literal).
    fn prepare<T>(&self, mut prep: impl FnMut(&Expr) -> Result<T>) -> Result<Vec<T>> {
        self.columns
            .iter()
            .map(|c| {
                if c.values.is_empty() {
                    return Err(Error::BadSpec(format!(
                        "{}: column {} has an empty column table",
                        self.name, c.name
                    )));
                }
                prep(&c.constraint)
            })
            .collect()
    }

    /// Generate the table. See [`GenMode`]; compiled evaluation is on.
    pub fn generate<C: EvalContext>(&self, mode: GenMode, ctx: &C) -> Result<(Relation, GenStats)> {
        self.generate_with(mode.into(), ctx)
    }

    /// Generate the table with explicit [`GenOptions`].
    pub fn generate_with<C: EvalContext>(
        &self,
        opts: GenOptions,
        ctx: &C,
    ) -> Result<(Relation, GenStats)> {
        self.solve(opts, ctx, 0).map(|(rel, stats, _)| (rel, stats))
    }

    /// Solve compiled and incrementally, inputs first, and return the
    /// legal inputs — the intermediate table once every input column is
    /// in — together with the solved table, both from the one pass. A
    /// spec that declares an output before an input is solved under a
    /// stable inputs-first reorder, so both relations list the input
    /// columns first. The legal inputs are `None` when the spec has no
    /// input or no output column.
    pub fn generate_with_legal_inputs(
        &self,
        ctx: &dyn EvalContext,
    ) -> Result<(Option<Relation>, Relation)> {
        let is_input = |c: &ColumnDef| c.role == ColumnRole::Input;
        let inputs = self.columns.iter().filter(|c| is_input(c)).count();
        let reordered;
        let spec = if self.columns[..inputs].iter().all(is_input) {
            self
        } else {
            let (mut columns, outputs): (Vec<ColumnDef>, Vec<ColumnDef>) =
                self.columns.iter().cloned().partition(is_input);
            columns.extend(outputs);
            reordered = TableSpec {
                name: self.name.clone(),
                columns,
            };
            &reordered
        };
        let (table, _, legal) = spec.solve(GenMode::Incremental.into(), ctx, inputs)?;
        Ok((legal, table))
    }

    /// Validate and solve under `opts` inside the `solve/<table>` span.
    /// The incremental path also returns the intermediate table once the
    /// first `keep` columns are in, when `0 < keep < arity`.
    fn solve(
        &self,
        opts: GenOptions,
        ctx: &dyn EvalContext,
        keep: usize,
    ) -> Result<(Relation, GenStats, Option<Relation>)> {
        let schema = self.schema()?;
        let start = Instant::now();
        let fspan = ccsql_obs::flight::span("solve", &self.name);
        let result = match opts.mode {
            GenMode::Monolithic => self
                .generate_monolithic(&schema, ctx)
                .map(|(rel, stats)| (rel, stats, None)),
            GenMode::Incremental => self.generate_incremental(&schema, ctx, opts.compile, keep),
        };
        result.map(|(rel, mut stats, kept)| {
            stats.elapsed = start.elapsed();
            stats.rows = rel.len();
            stats.columns = rel.arity();
            fspan.arg("rows", stats.rows);
            fspan.arg("columns", stats.columns);
            fspan.arg("candidates", stats.candidates);
            fspan.arg("evals", stats.evals);
            fspan.arg("indexed", stats.indexed);
            (rel, stats, kept)
        })
    }

    /// Fail the step that adds column `k` when its `candidates` exceed
    /// [`ROW_BUDGET`].
    fn check_budget(&self, k: usize, candidates: u64) -> Result<()> {
        if candidates > ROW_BUDGET {
            return Err(Error::RowBudget {
                table: self.name.clone(),
                column: self.columns[k].name.to_string(),
                candidates,
            });
        }
        Ok(())
    }

    /// Convenience: incremental generation with a default context.
    pub fn generate_default(&self) -> Result<(Relation, GenStats)> {
        self.generate(GenMode::Incremental, &SetContext::new())
    }

    fn generate_monolithic(
        &self,
        schema: &Schema,
        ctx: &dyn EvalContext,
    ) -> Result<(Relation, GenStats)> {
        // Conjunction of all constraints, each bound once against the
        // full schema: `((c0 and c1) and c2) …`, as `Expr::all` builds it.
        let bound = self
            .prepare(|e| e.bind(schema))?
            .into_iter()
            .reduce(|all, e| BoundExpr::And(Box::new(all), Box::new(e)))
            .unwrap_or(BoundExpr::True);

        let mut out = Relation::new(schema.clone());
        let n = self.columns.len();
        let mut idx = vec![0usize; n];
        let mut row: Vec<Value> = self.columns.iter().map(|c| c.values[0]).collect();
        let mut candidates: u64 = 0;
        // Odometer over the cross product; streams, never materialises.
        'outer: loop {
            candidates += 1;
            if bound.eval_bool(&row, ctx)? {
                out.push_row_unchecked(&row);
            }
            let mut k = n;
            loop {
                if k == 0 {
                    break 'outer;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < self.columns[k].values.len() {
                    row[k] = self.columns[k].values[idx[k]];
                    break;
                }
                idx[k] = 0;
                row[k] = self.columns[k].values[0];
            }
        }
        let stats = GenStats {
            candidates,
            evals: candidates,
            indexed: 0,
            rows: 0,
            columns: 0,
            per_column: vec![(self.columns[n - 1].name, out.len())],
            steps: vec![GenStep {
                column: self.columns[n - 1].name,
                candidates,
                evals: candidates,
                rows: out.len(),
                elapsed: Duration::ZERO,
            }],
            compile: Duration::ZERO,
            elapsed: Duration::ZERO,
        };
        Ok((out, stats))
    }

    /// Referenced-column indices per constraint, computed from the
    /// *original* expressions, so readiness — and therefore candidate
    /// accounting — does not depend on how the constraints are tested.
    fn constraint_deps(&self, full_schema: &Schema) -> Vec<Vec<usize>> {
        self.columns
            .iter()
            .map(|c| {
                c.constraint
                    .columns()
                    .into_iter()
                    .filter_map(|n| full_schema.index_of(n))
                    .collect()
            })
            .collect()
    }

    /// The incremental path: one column added per step to a columnar
    /// table of value ids, decoded to a row-major [`Relation`] once at
    /// the end. The constraints are compiled (or, with `compile` off,
    /// bound) once against the full schema, valid at every step because
    /// intermediate schemas are prefixes. The intermediate table once the
    /// first `keep` columns are in is decoded too, when a later step
    /// extends it.
    fn generate_incremental(
        &self,
        full_schema: &Schema,
        ctx: &dyn EvalContext,
        compile: bool,
        keep: usize,
    ) -> Result<(Relation, GenStats, Option<Relation>)> {
        let n = self.columns.len();
        let all_names = self.column_names();
        let deps = self.constraint_deps(full_schema);
        let ids: Vec<Vec<u32>> = self
            .columns
            .iter()
            .map(|c| c.values.iter().map(|v| v.vid()).collect())
            .collect();

        let compile_start = Instant::now();
        let tests = if compile {
            let _cspan = ccsql_obs::flight::span("solve", "compile");
            Tests::Compiled(self.prepare(|e| compile_constraint(e, full_schema, ctx))?)
        } else {
            Tests::Interpreted(self.prepare(|e| e.bind(full_schema))?, vid_decode_table())
        };
        let compile_time = if compile {
            compile_start.elapsed()
        } else {
            Duration::ZERO
        };

        let mut applied = vec![false; n];
        let mut per_column = Vec::with_capacity(n);
        let mut steps = Vec::with_capacity(n);
        let (mut candidates, mut evals) = (0u64, 0u64);
        let mut cur = ColumnarRelation::new(Schema::from_syms(&[])?);
        let mut kept = None;
        for k in 0..n {
            let step_start = Instant::now();
            // The first step extends the one empty row, without a span.
            let col_span =
                (k > 0).then(|| ccsql_obs::flight::span("solve", self.columns[k].name.as_str()));
            let rows = if k == 0 { 1 } else { cur.len() };
            // Constraints that become checkable once column k exists.
            let ready: Vec<usize> = (0..n)
                .filter(|&ci| !applied[ci] && deps[ci].iter().all(|&d| d <= k))
                .collect();
            for &ci in &ready {
                applied[ci] = true;
            }

            let step_cands = rows as u64 * ids[k].len() as u64;
            self.check_budget(k, step_cands)?;
            candidates += step_cands;
            if k > 0 && k == keep {
                kept = Some(cur.to_relation());
            }
            let mut filter = StepFilter::new(&tests, &ready, &ids[k], k);
            let out_schema = Schema::from_syms(&all_names[..=k])?;
            cur = filter.extend(&cur, rows, out_schema, ctx)?;
            evals += filter.evals;
            if let Some(col_span) = &col_span {
                col_span.arg("candidates", step_cands);
                col_span.arg("evals", filter.evals);
                col_span.arg("rows", cur.len());
            }
            per_column.push((self.columns[k].name, cur.len()));
            steps.push(GenStep {
                column: self.columns[k].name,
                candidates: step_cands,
                evals: filter.evals,
                rows: cur.len(),
                elapsed: step_start.elapsed(),
            });
        }

        let indexed = match &tests {
            Tests::Compiled(programs) => programs.iter().map(Program::indexed).sum(),
            Tests::Interpreted(..) => 0,
        };
        let stats = GenStats {
            candidates,
            evals,
            indexed,
            rows: 0,
            columns: 0,
            per_column,
            steps,
            compile: compile_time,
            elapsed: Duration::ZERO,
        };
        Ok((cur.to_relation(), stats, kept))
    }
}

/// Every column constraint, prepared once per solve.
enum Tests {
    /// Bytecode programs.
    Compiled(Vec<Program>),
    /// Bound expressions (the oracle), with the value-id decode table.
    Interpreted(Vec<BoundExpr>, Vec<Value>),
}

/// How one extension step tests its candidates.
enum Checks<'a> {
    /// The ready programs that are not constant true, in column order;
    /// the column's domain when it fits a mask.
    Compiled {
        progs: Vec<&'a Program>,
        domain: Option<Domain<'a>>,
        masks: MaskScratch,
    },
    /// The ready constraints in column order, and a candidate row.
    Interpreted {
        preds: Vec<&'a BoundExpr>,
        decode: &'a [Value],
        cand: Vec<Value>,
    },
}

/// The filter of one extension step: its ready constraints, run on one
/// row at a time for every value of the column the step adds (`new`).
struct StepFilter<'a> {
    checks: Checks<'a>,
    ext_ids: &'a [u32],
    new: usize,
    /// Evaluations so far (see [`GenStep::evals`]).
    evals: u64,
}

impl<'a> StepFilter<'a> {
    fn new(tests: &'a Tests, ready: &[usize], ext_ids: &'a [u32], new: usize) -> StepFilter<'a> {
        let checks = match tests {
            // Constant-true programs (unconstrained columns after
            // folding) filter nothing; skipping them lets fully
            // unconstrained steps take a bulk cross-product path with no
            // evaluation at all.
            Tests::Compiled(programs) => Checks::Compiled {
                progs: ready
                    .iter()
                    .map(|&ci| &programs[ci])
                    .filter(|p| p.const_result() != Some(true))
                    .collect(),
                domain: (ext_ids.len() <= Domain::MAX).then(|| Domain::new(ext_ids)),
                masks: MaskScratch::default(),
            },
            Tests::Interpreted(bound, decode) => Checks::Interpreted {
                preds: ready.iter().map(|&ci| &bound[ci]).collect(),
                decode,
                cand: vec![Value::Null; new + 1],
            },
        };
        StepFilter {
            checks,
            ext_ids,
            new,
            evals: 0,
        }
    }

    /// Extend each of the first `rows` rows of `cur` (one empty row
    /// when `cur` has no column) with every value of the new column,
    /// keeping the candidates that pass. Two-phase: one pass records the
    /// surviving `(row, value)` pairs, then the new columns are gathered
    /// column-at-a-time — sequential reads and writes, no per-candidate
    /// row materialisation. With nothing to check the result is the pure
    /// cross product, built by bulk repetition.
    fn extend(
        &mut self,
        cur: &ColumnarRelation,
        rows: usize,
        out_schema: Schema,
        ctx: &dyn EvalContext,
    ) -> Result<ColumnarRelation> {
        let (arity, m) = (cur.arity(), self.ext_ids.len());
        let mut out = ColumnarRelation::new(out_schema);
        if matches!(&self.checks, Checks::Compiled { progs, .. } if progs.is_empty()) {
            for c in 0..arity {
                let dst = out.col_mut(c);
                dst.reserve(rows * m);
                for &id in cur.col(c) {
                    dst.extend(std::iter::repeat_n(id, m));
                }
            }
            let dst = out.col_mut(arity);
            dst.reserve(rows * m);
            for _ in 0..rows {
                dst.extend_from_slice(self.ext_ids);
            }
            return Ok(out);
        }
        let mut survivors: Vec<(u32, u32)> = Vec::new();
        for i in 0..rows {
            self.row(|c| cur.col(c)[i], ctx, |v| survivors.push((i as u32, v)))?;
        }
        for c in 0..arity {
            let src = cur.col(c);
            out.col_mut(c)
                .extend(survivors.iter().map(|&(r, _)| src[r as usize]));
        }
        out.col_mut(arity).extend(survivors.iter().map(|&(_, v)| v));
        Ok(out)
    }

    /// Call `keep` with every value of the new column that passes next
    /// to the row whose other cells `col` gives, in value order, or
    /// return the first error in value order.
    fn row(
        &mut self,
        col: impl Fn(usize) -> u32 + Copy,
        ctx: &dyn EvalContext,
        mut keep: impl FnMut(u32),
    ) -> Result<()> {
        let (ext_ids, new) = (self.ext_ids, self.new);
        match &mut self.checks {
            Checks::Interpreted {
                preds,
                decode,
                cand,
            } => {
                self.evals += ext_ids.len() as u64;
                for (c, cell) in cand[..new].iter_mut().enumerate() {
                    *cell = decode[col(c) as usize];
                }
                for &v in ext_ids {
                    cand[new] = decode[v as usize];
                    let mut results = preds.iter().map(|p| p.eval_bool(cand, ctx));
                    if results.find(|r| r != &Ok(true)).unwrap_or(Ok(true))? {
                        keep(v);
                    }
                }
            }
            Checks::Compiled {
                progs,
                domain,
                masks,
            } => {
                if let Some(d) = domain {
                    if let Ok(live) = masked(progs, col, new, d, d.all(), ctx, masks) {
                        self.evals += 1;
                        bits(live).for_each(|j| keep(ext_ids[j as usize]));
                        return Ok(());
                    }
                }
                // A column past the mask width, or a row whose pass met
                // an error (perhaps a later value's): one one-value pass
                // per candidate, in value order.
                self.evals += ext_ids.len() as u64;
                for j in 0..ext_ids.len() {
                    let one = Domain::new(&ext_ids[j..=j]);
                    if masked(progs, col, new, &one, 1, ctx, masks)? != 0 {
                        keep(ext_ids[j]);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Run `progs` in order on the `live` values of `d`, each on the values
/// the previous ones kept: the conjunction's short-circuit.
fn masked(
    progs: &[&Program],
    col: impl Fn(usize) -> u32 + Copy,
    new: usize,
    d: &Domain,
    mut live: u64,
    ctx: &dyn EvalContext,
    masks: &mut MaskScratch,
) -> Result<u64> {
    for p in progs {
        if live == 0 {
            break;
        }
        live = p.eval_masked(col, new, d, live, ctx, masks)?;
    }
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::SetContext;

    fn vals(names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| Value::sym(n)).collect()
    }

    /// The paper's Figure-3 miniature: readex transaction at D with 3
    /// inputs and 2 of the outputs.
    fn mini_spec() -> TableSpec {
        let mut spec = TableSpec::new("Dmini");
        spec.push(ColumnDef::input(
            "inmsg",
            vals(&["readex", "data", "idone"]),
            Expr::True,
        ));
        spec.push(ColumnDef::input(
            "dirst",
            vals(&["I", "SI", "Busy-sd", "Busy-s", "Busy-d"]),
            // Legal input combinations only.
            crate::parser::parse_expr(
                "inmsg = readex ? dirst in (I, SI) : \
                 (inmsg = data ? dirst in (\"Busy-sd\", \"Busy-d\") : dirst in (\"Busy-sd\", \"Busy-s\"))",
            )
            .unwrap(),
        ));
        spec.push(ColumnDef::input(
            "dirpv",
            vals(&["zero", "one", "gone"]),
            crate::parser::parse_expr(
                "dirst = I ? dirpv = zero : (dirst = SI ? dirpv in (one, gone) : dirpv in (zero, one, gone))",
            )
            .unwrap(),
        ));
        spec.push(ColumnDef::output(
            "remmsg",
            {
                let mut v = vals(&["sinv"]);
                v.push(Value::Null);
                v
            },
            crate::parser::parse_expr(
                "inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL",
            )
            .unwrap(),
        ));
        spec.push(ColumnDef::output(
            "nxtdirst",
            vals(&["MESI", "Busy-sd", "Busy-s", "Busy-d", "I"]),
            crate::parser::parse_expr(
                "inmsg = readex ? (dirst = SI ? nxtdirst = \"Busy-sd\" : nxtdirst = \"Busy-d\") : \
                 (inmsg = data ? (dirst = \"Busy-sd\" ? nxtdirst = \"Busy-s\" : nxtdirst = MESI) : \
                 (dirst = \"Busy-sd\" ? nxtdirst = \"Busy-d\" : nxtdirst = MESI))",
            )
            .unwrap(),
        ));
        spec
    }

    #[test]
    fn incremental_generates_expected_rows() {
        let (rel, stats) = mini_spec().generate_default().unwrap();
        // Input combos: readex×(I:zero | SI:one | SI:gone)=3, data×(Busy-sd,Busy-d)×3pv=6,
        // idone×(Busy-sd,Busy-s)×3pv=6 → 15 rows; outputs are functional.
        assert_eq!(rel.len(), 15);
        assert_eq!(rel.arity(), 5);
        assert_eq!(stats.per_column.len(), 5);
        // readex+SI rows must emit sinv.
        for r in rel.rows() {
            let is_rx_si = r[0] == Value::sym("readex") && r[1] == Value::sym("SI");
            assert_eq!(r[3] == Value::sym("sinv"), is_rx_si);
        }
    }

    #[test]
    fn monolithic_equals_incremental() {
        let spec = mini_spec();
        let ctx = SetContext::new();
        let (mono, mstats) = spec.generate(GenMode::Monolithic, &ctx).unwrap();
        let (inc, istats) = spec.generate(GenMode::Incremental, &ctx).unwrap();
        assert!(mono.set_eq(&inc), "monolithic and incremental differ");
        // The monolithic walk inspects the full cross product.
        assert_eq!(mstats.candidates, (3 * 5 * 3 * 2 * 5) as u64);
        // Incremental inspects far fewer candidates.
        assert!(istats.candidates < mstats.candidates);
    }

    #[test]
    fn compiled_equals_interpreted_byte_for_byte() {
        let spec = mini_spec();
        let ctx = SetContext::new();
        let (compiled, cs) = spec.generate(GenMode::Incremental, &ctx).unwrap();
        let (interp, is) = spec
            .generate_with(GenOptions::interpreted(GenMode::Incremental), &ctx)
            .unwrap();
        assert_eq!(compiled.len(), interp.len());
        for (a, b) in compiled.rows().zip(interp.rows()) {
            assert_eq!(a, b, "row mismatch");
        }
        // Accounting must match too: readiness is computed from the
        // original constraints on both paths.
        assert_eq!(cs.candidates, is.candidates);
        assert_eq!(cs.per_column, is.per_column);
        assert_eq!(is.compile, Duration::ZERO);
    }

    #[test]
    fn inconsistent_constraints_give_zero_rows() {
        // The paper: "an inconsistent set of column constraints results
        // in D having zero rows".
        let mut spec = TableSpec::new("bad");
        spec.push(ColumnDef::input("a", vals(&["x"]), Expr::True));
        spec.push(ColumnDef::input(
            "b",
            vals(&["y"]),
            crate::parser::parse_expr("a = x and not a = x").unwrap(),
        ));
        let (rel, _) = spec.generate_default().unwrap();
        assert_eq!(rel.len(), 0);
    }

    #[test]
    fn empty_column_table_rejected() {
        let mut spec = TableSpec::new("bad");
        spec.push(ColumnDef::input("a", vec![], Expr::True));
        assert!(spec.generate_default().is_err());
    }

    #[test]
    fn no_columns_rejected() {
        let spec = TableSpec::new("empty");
        assert!(spec.generate_default().is_err());
    }

    #[test]
    fn named_sets_usable_in_constraints() {
        let mut ctx = SetContext::new();
        ctx.define("isrequest", [Value::sym("readex")]);
        let mut spec = TableSpec::new("t");
        spec.push(ColumnDef::input(
            "m",
            vals(&["readex", "data"]),
            crate::parser::parse_expr("isrequest(m)").unwrap(),
        ));
        let (rel, _) = spec.generate(GenMode::Incremental, &ctx).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0)[0], Value::sym("readex"));
    }

    #[test]
    fn unknown_column_in_constraint_fails_validation() {
        let mut spec = TableSpec::new("t");
        spec.push(ColumnDef::input(
            "a",
            vals(&["x"]),
            Expr::Col(Sym::intern("nonexistent")).ternary(Expr::True, Expr::True),
        ));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn stats_track_shrinking_intermediates() {
        let (_, stats) = mini_spec().generate_default().unwrap();
        // After dirst constraint is applied the intermediate must be
        // smaller than the unconstrained 3×5 product.
        let after_dirst = stats.per_column[1].1;
        assert!(after_dirst < 15, "early pruning failed: {after_dirst}");
        assert!(stats.rows == 15);
        assert!(stats.columns == 5);
    }
}
