//! Push-button table generation: run the constraint solver over every
//! controller specification and load the results into a central
//! database, exactly the paper's flow ("controller tables are modeled as
//! database tables in a central database; the table entries are
//! automatically generated from a compact set of SQL constraints").

use ccsql_protocol::{ControllerSpec, ProtocolSpec};
use ccsql_relalg::expr::SetContext;
use ccsql_relalg::{Database, GenMode, GenOptions, GenStats, Relation};
use std::collections::HashMap;

/// The generated protocol: all controller tables plus generation
/// statistics, loaded into one [`Database`].
pub struct GeneratedProtocol {
    /// The protocol specification the tables were generated from.
    pub spec: ProtocolSpec,
    /// Central database holding one table per controller (named `D`,
    /// `M`, `N`, `R`, `C`, `IO`, `L`, `CFG`), with the protocol's named
    /// sets (`isrequest`, `isresponse`, `iscompletion`) defined.
    pub db: Database,
    /// Per-controller generation statistics.
    pub stats: HashMap<&'static str, GenStats>,
}

impl GeneratedProtocol {
    /// Generate every controller table with the given solver mode
    /// (compiled constraint evaluation, the default).
    pub fn generate(mode: GenMode) -> ccsql_relalg::Result<GeneratedProtocol> {
        GeneratedProtocol::generate_spec(ProtocolSpec::asura(), mode)
    }

    /// Generate every controller table with explicit [`GenOptions`]
    /// (e.g. the interpreted `--no-compile` oracle path).
    pub fn generate_with(opts: GenOptions) -> ccsql_relalg::Result<GeneratedProtocol> {
        GeneratedProtocol::generate_spec_with(ProtocolSpec::asura(), opts)
    }

    /// Generate a protocol *revision* (e.g. the direct owner-transfer
    /// directory design).
    pub fn generate_variant(
        transfer: ccsql_protocol::directory::OwnerTransfer,
        mode: GenMode,
    ) -> ccsql_relalg::Result<GeneratedProtocol> {
        GeneratedProtocol::generate_spec(ProtocolSpec::asura_with(transfer), mode)
    }

    /// Generate every controller table of `spec`.
    pub fn generate_spec(
        spec: ProtocolSpec,
        mode: GenMode,
    ) -> ccsql_relalg::Result<GeneratedProtocol> {
        GeneratedProtocol::generate_spec_with(spec, mode.into())
    }

    /// Generate every controller table of `spec` with explicit options.
    pub fn generate_spec_with(
        spec: ProtocolSpec,
        opts: GenOptions,
    ) -> ccsql_relalg::Result<GeneratedProtocol> {
        let ctx = ProtocolSpec::eval_context();
        let mut db = Database::with_sets(ctx.clone());
        let mut stats = HashMap::new();
        for c in &spec.controllers {
            let (rel, st) = c.spec.generate_with(opts, &ctx)?;
            db.put_table(c.name, rel);
            stats.insert(c.name, st);
        }
        Ok(GeneratedProtocol { spec, db, stats })
    }

    /// Generate with the default (incremental) mode.
    pub fn generate_default() -> ccsql_relalg::Result<GeneratedProtocol> {
        GeneratedProtocol::generate(GenMode::Incremental)
    }

    /// The generated table of controller `name`.
    pub fn table(&self, name: &str) -> ccsql_relalg::Result<&Relation> {
        self.db.table(name)
    }

    /// Controller spec by name.
    pub fn controller(&self, name: &str) -> Option<&ControllerSpec> {
        self.spec.controller(name)
    }

    /// The evaluation context used for generation (named sets).
    pub fn context() -> SetContext {
        ProtocolSpec::eval_context()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_eight_tables() {
        let g = GeneratedProtocol::generate_default().unwrap();
        for name in ["D", "M", "N", "R", "C", "IO", "L", "CFG"] {
            let t = g.table(name).unwrap();
            assert!(!t.is_empty(), "{name} empty");
            assert!(g.stats.contains_key(name));
        }
        assert_eq!(g.table("D").unwrap().arity(), 30);
    }

    #[test]
    fn all_eight_tables_identical_compiled_vs_interpreted() {
        let compiled = GeneratedProtocol::generate_default().unwrap();
        let interp =
            GeneratedProtocol::generate_with(GenOptions::interpreted(GenMode::Incremental))
                .unwrap();
        for name in ["D", "M", "N", "R", "C", "IO", "L", "CFG"] {
            let a = compiled.table(name).unwrap();
            let b = interp.table(name).unwrap();
            assert_eq!(a.len(), b.len(), "{name}: row count differs");
            assert!(a.rows().eq(b.rows()), "{name}: rows differ");
            // Same readiness accounting on both paths.
            assert_eq!(
                compiled.stats[name].candidates, interp.stats[name].candidates,
                "{name}: candidate count differs"
            );
        }
    }

    #[test]
    fn every_generated_row_satisfies_exactly_one_rule_guard() {
        use ccsql_relalg::solver::ColumnRole;
        use ccsql_relalg::Expr;
        // The operands of an `or` chain, in order.
        fn disjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
            match e {
                Expr::Or(a, b) => {
                    disjuncts(a, out);
                    disjuncts(b, out);
                }
                g => out.push(g),
            }
        }
        let g = GeneratedProtocol::generate_default().unwrap();
        let ctx = GeneratedProtocol::context();
        for c in &g.spec.controllers {
            let cols = &c.spec.columns;
            // The rules' guards in order: the ternary chain of the first
            // rule-driven output column.
            let first_output = cols.iter().find(|d| d.role == ColumnRole::Output).unwrap();
            let (mut chain, mut guards) = (&first_output.constraint, Vec::new());
            while let Expr::Ternary(guard, _, rest) = chain {
                guards.push(&**guard);
                chain = rest;
            }
            // They are the legality disjunction on the last input column.
            let last_input = cols.iter().rfind(|d| d.role == ColumnRole::Input).unwrap();
            let Expr::And(_, legality) = &last_input.constraint else {
                panic!("{}: no legality conjunct", c.name);
            };
            let mut legal = Vec::new();
            disjuncts(legality, &mut legal);
            assert_eq!(
                guards, legal,
                "{}: chain and legality guards differ",
                c.name
            );

            let table = g.table(c.name).unwrap();
            let bound: Vec<_> = guards
                .iter()
                .map(|e| e.bind(table.schema()).unwrap())
                .collect();
            assert!(!table.is_empty(), "{}", c.name);
            for row in table.rows() {
                let held = bound
                    .iter()
                    .filter(|e| e.eval_bool(row, &ctx).unwrap())
                    .count();
                assert_eq!(held, 1, "{}: {held} guards hold on {row:?}", c.name);
            }
        }
    }

    #[test]
    fn database_queries_work_on_generated_tables() {
        let mut g = GeneratedProtocol::generate_default().unwrap();
        let r =
            g.db.query("select distinct inmsg from D where isrequest(inmsg)")
                .unwrap();
        assert_eq!(r.len(), ccsql_protocol::directory::D_REQUESTS.len());
    }
}
