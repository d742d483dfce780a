//! Controller specifications: the bridge between protocol rules and the
//! relational constraint solver.
//!
//! A controller is described by
//!
//! * **input columns** with their column tables and light per-column
//!   constraints (e.g. "`dirlk` is `hit` iff `dirst ≠ I`"),
//! * **output columns** with their column tables and a default value
//!   (`NULL` = no-op for message columns),
//! * a list of **transition rules**: a guard over the input columns plus
//!   the output values the controller produces when the guard holds.
//!
//! [`ControllerBuilder::build`] compiles this into a [`TableSpec`]:
//! the guard disjunction becomes the *input legality* constraint (the
//! table is "specified only for the legal input combinations"), and each
//! output column gets a ternary-chain column constraint
//! `g1 ? col = v1 : (g2 ? col = v2 : … : col = default)` — exactly the
//! constraint shape of section 3 of the paper, where "a single column
//! constraint covers multiple protocol transactions".

use ccsql_relalg::solver::ColumnDef;
use ccsql_relalg::{Expr, TableSpec, Value};

/// A (message, source, destination) column triple of a controller table.
/// The deadlock analysis extends each triple with a virtual-channel
/// column (section 4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgTriple {
    /// Message column name.
    pub msg: &'static str,
    /// Source column name.
    pub src: &'static str,
    /// Destination column name.
    pub dest: &'static str,
}

impl MsgTriple {
    /// Construct a triple.
    pub const fn new(msg: &'static str, src: &'static str, dest: &'static str) -> MsgTriple {
        MsgTriple { msg, src, dest }
    }
}

/// One transition rule: when `guard` holds on the inputs, the controller
/// drives the outputs in `sets`; all other outputs take their defaults.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Diagnostic name (e.g. `"readex@SI"`).
    pub name: String,
    /// Input guard. Guards of different rules must be disjoint; the
    /// builder compiles them into a priority chain, so overlap would
    /// silently prefer earlier rules.
    pub guard: Expr,
    /// `(output column, value)` assignments.
    pub sets: Vec<(&'static str, Value)>,
}

impl Rule {
    /// Construct a rule.
    pub fn new(name: impl Into<String>, guard: Expr, sets: Vec<(&'static str, Value)>) -> Rule {
        Rule {
            name: name.into(),
            guard,
            sets,
        }
    }

    fn value_for(&self, col: &str) -> Option<Value> {
        self.sets.iter().find(|(c, _)| *c == col).map(|(_, v)| *v)
    }
}

/// An output column under rule control.
#[derive(Clone, Debug)]
struct RuleOutput {
    name: &'static str,
    values: Vec<Value>,
    default: Value,
}

/// An output column whose constraint is given directly (derived columns
/// such as `locmsgsrc`, which is `home` iff `locmsg ≠ NULL`).
#[derive(Clone, Debug)]
struct DerivedOutput {
    name: &'static str,
    values: Vec<Value>,
    constraint: Expr,
}

/// Builder for a controller table specification.
pub struct ControllerBuilder {
    name: &'static str,
    inputs: Vec<ColumnDef>,
    rule_outputs: Vec<RuleOutput>,
    derived_outputs: Vec<DerivedOutput>,
    rules: Vec<Rule>,
}

impl ControllerBuilder {
    /// Start a controller named `name`.
    pub fn new(name: &'static str) -> ControllerBuilder {
        ControllerBuilder {
            name,
            inputs: Vec::new(),
            rule_outputs: Vec::new(),
            derived_outputs: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// Add an input column with its column table and per-column
    /// constraint (use `Expr::True` when unconstrained).
    pub fn input(&mut self, name: &'static str, values: Vec<Value>, constraint: Expr) -> &mut Self {
        self.inputs.push(ColumnDef::input(name, values, constraint));
        self
    }

    /// Add a rule-driven output column. `default` is the value taken when
    /// no rule sets the column (it is added to the column table if
    /// missing).
    pub fn output(
        &mut self,
        name: &'static str,
        mut values: Vec<Value>,
        default: Value,
    ) -> &mut Self {
        if !values.contains(&default) {
            values.push(default);
        }
        self.rule_outputs.push(RuleOutput {
            name,
            values,
            default,
        });
        self
    }

    /// Add a derived output column with an explicit column constraint.
    pub fn derived(
        &mut self,
        name: &'static str,
        values: Vec<Value>,
        constraint: Expr,
    ) -> &mut Self {
        self.derived_outputs.push(DerivedOutput {
            name,
            values,
            constraint,
        });
        self
    }

    /// Add a transition rule.
    pub fn rule(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Compile into a [`TableSpec`].
    ///
    /// * The **legality** constraint — the disjunction of all rule guards
    ///   — is conjoined onto the last input column, so the generated
    ///   table contains exactly the input combinations some rule covers.
    /// * Every rule-driven output column receives the ternary chain
    ///   `g1 ? col = v1 : (… : col = default)`.
    pub fn build(&self) -> TableSpec {
        assert!(!self.inputs.is_empty(), "{}: no input columns", self.name);
        assert!(!self.rules.is_empty(), "{}: no rules", self.name);

        let mut spec = TableSpec::new(self.name);
        let legality = Expr::any(self.rules.iter().map(|r| r.guard.clone()));
        let last = self.inputs.len() - 1;
        for (i, col) in self.inputs.iter().enumerate() {
            let mut c = col.clone();
            if i == last {
                c.constraint = c.constraint.clone().and(legality.clone());
            }
            spec.push(c);
        }

        for out in &self.rule_outputs {
            // Build the chain from the last rule inwards so rule 0 ends
            // up outermost (highest priority).
            let mut chain = Expr::Eq(
                Box::new(Expr::Col(ccsql_relalg::Sym::intern(out.name))),
                Box::new(Expr::Lit(out.default)),
            );
            for rule in self.rules.iter().rev() {
                let v = rule.value_for(out.name).unwrap_or(out.default);
                assert!(
                    out.values.contains(&v),
                    "{}: rule `{}` sets {} = {}, which is not in the declared column table",
                    self.name,
                    rule.name,
                    out.name,
                    Expr::Lit(v),
                );
                let assign = Expr::Eq(
                    Box::new(Expr::Col(ccsql_relalg::Sym::intern(out.name))),
                    Box::new(Expr::Lit(v)),
                );
                chain = rule.guard.clone().ternary(assign, chain);
            }
            // The column table is derived from the rules: only values
            // some rule emits — plus the default, when a rule leaves the
            // column alone — can appear in the generated table, so
            // declaring anything wider is vestigial vocabulary (the
            // CCL006 lint). Declared order is preserved.
            let takes_default = self.rules.iter().any(|r| r.value_for(out.name).is_none());
            let values: Vec<Value> = out
                .values
                .iter()
                .filter(|v| {
                    (takes_default && **v == out.default)
                        || self
                            .rules
                            .iter()
                            .any(|r| r.value_for(out.name) == Some(**v))
                })
                .copied()
                .collect();
            spec.push(ColumnDef::output(out.name, values, chain));
        }

        for d in &self.derived_outputs {
            spec.push(ColumnDef::output(
                d.name,
                d.values.clone(),
                d.constraint.clone(),
            ));
        }
        spec
    }
}

/// A fully described controller: its table spec plus the message-column
/// triples the deadlock analysis needs.
pub struct ControllerSpec {
    /// Controller name (table name in the database).
    pub name: &'static str,
    /// The constraint specification generating its table.
    pub spec: TableSpec,
    /// Input (message, source, destination) triples.
    pub input_triples: Vec<MsgTriple>,
    /// Output (message, source, destination) triples.
    pub output_triples: Vec<MsgTriple>,
}

/// Helpers for building column tables.
pub mod cols {
    use ccsql_relalg::Value;

    /// Column table from string values.
    pub fn vals(names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| Value::sym(n)).collect()
    }

    /// Column table from string values plus `NULL`.
    pub fn vals_null(names: &[&str]) -> Vec<Value> {
        let mut v = vals(names);
        v.push(Value::Null);
        v
    }

    /// Single-value column table.
    pub fn only(name: &str) -> Vec<Value> {
        vec![Value::sym(name)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsql_relalg::expr::SetContext;
    use ccsql_relalg::GenMode;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn tiny_controller() -> ControllerBuilder {
        let mut b = ControllerBuilder::new("T");
        b.input("inmsg", cols::vals(&["ping", "poke"]), Expr::True);
        b.input("st", cols::vals(&["idle", "busy"]), Expr::True);
        b.output("outmsg", cols::vals_null(&["pong", "retry"]), Value::Null);
        b.output("nxtst", cols::vals_null(&["idle", "busy"]), Value::Null);
        b.derived(
            "outdest",
            cols::vals_null(&["peer"]),
            ccsql_relalg::parse_expr("outmsg = NULL ? outdest = NULL : outdest = peer").unwrap(),
        );
        b.rule(Rule::new(
            "ping@idle",
            Expr::col_eq("inmsg", "ping").and(Expr::col_eq("st", "idle")),
            vec![("outmsg", v("pong")), ("nxtst", v("busy"))],
        ));
        b.rule(Rule::new(
            "ping@busy",
            Expr::col_eq("inmsg", "ping").and(Expr::col_eq("st", "busy")),
            vec![("outmsg", v("retry"))],
        ));
        b.rule(Rule::new(
            "poke@busy",
            Expr::col_eq("inmsg", "poke").and(Expr::col_eq("st", "busy")),
            vec![("nxtst", v("idle"))],
        ));
        b
    }

    #[test]
    fn builder_generates_expected_rows() {
        let spec = tiny_controller().build();
        let (rel, _) = spec
            .generate(GenMode::Incremental, &SetContext::new())
            .unwrap();
        // poke@idle is not covered by any rule → excluded (sparse table).
        assert_eq!(rel.len(), 3);
        let find = |m: &str, s: &str| {
            rel.rows()
                .find(|r| r[0] == v(m) && r[1] == v(s))
                .map(|r| r.to_vec())
                .unwrap()
        };
        let r = find("ping", "idle");
        assert_eq!(r[2], v("pong"));
        assert_eq!(r[3], v("busy"));
        assert_eq!(r[4], v("peer")); // derived outdest
        let r = find("ping", "busy");
        assert_eq!(r[2], v("retry"));
        assert_eq!(r[3], Value::Null); // default nxtst
        let r = find("poke", "busy");
        assert_eq!(r[2], Value::Null);
        assert_eq!(r[3], v("idle"));
        assert_eq!(r[4], Value::Null); // derived NULL when no message
    }

    #[test]
    fn rule_priority_is_first_match() {
        let mut b = tiny_controller();
        // Overlapping rule added later must lose to the earlier one.
        b.rule(Rule::new(
            "ping@idle-shadowed",
            Expr::col_eq("inmsg", "ping").and(Expr::col_eq("st", "idle")),
            vec![("outmsg", v("retry"))],
        ));
        let spec = b.build();
        let (rel, _) = spec
            .generate(GenMode::Incremental, &SetContext::new())
            .unwrap();
        let r = rel
            .rows()
            .find(|r| r[0] == v("ping") && r[1] == v("idle"))
            .unwrap();
        assert_eq!(r[2], v("pong"), "earlier rule must take priority");
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn default_added_to_column_table() {
        let mut b = ControllerBuilder::new("T2");
        b.input("x", cols::vals(&["a"]), Expr::True);
        b.output("y", cols::vals(&["m"]), Value::Null); // NULL not listed
        b.rule(Rule::new("r", Expr::col_eq("x", "a"), vec![]));
        let spec = b.build();
        let (rel, _) = spec
            .generate(GenMode::Incremental, &SetContext::new())
            .unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0)[1], Value::Null);
    }

    #[test]
    #[should_panic]
    fn build_without_rules_panics() {
        let mut b = ControllerBuilder::new("T3");
        b.input("x", cols::vals(&["a"]), Expr::True);
        b.build();
    }
}
