//! Algorithm 2: converting Gamma reactions into dataflow graphs.
//!
//! The paper's Algorithm 2 builds one small dataflow graph per reaction
//! (replace-list entries → root nodes; by-conditions → comparison + steer
//! nodes; by-values → arithmetic nodes) and then — step 2, Fig. 4 — maps
//! the initial multiset onto *replicated instances* of those graphs. Two
//! parts the paper explicitly leaves open are implemented here as well:
//!
//! * **Node-kind recovery** (the paper's closing future-work item):
//!   recognising steer / inctag / comparison reactions "via the analysis of
//!   the behaviour of Gamma reactions". [`recover_shape`] classifies a
//!   reaction as [`Shape::IncTag`], [`Shape::Cmp`], [`Shape::Steer`] or
//!   generic by its syntactic shape, so converting the paper's Example-2
//!   reaction set reproduces Fig. 2's triangles and lozenges rather than a
//!   soup of generic operators.
//! * **Whole-program stitching** ([`gamma_to_dataflow`]): when every label
//!   has a unique consumer pattern (true of every Algorithm-1 image),
//!   per-reaction subgraphs can be wired producer-to-consumer into one
//!   graph, initial-multiset elements becoming constant roots and
//!   unconsumed labels becoming output sinks. This is the exact inverse of
//!   Algorithm 1, giving the round-trip tests their teeth.
//!
//! Known scope limits (shared with the paper):
//! `where` conditions, clause chains beyond `if`/`else`, and variable
//! output labels have no static-dataflow counterpart and are rejected; a
//! consumed-but-unused operand loses its synchronisation role (recorded in
//! [`SubgraphPorts::unused_inputs`]).

use gammaflow_dataflow::graph::{DataflowGraph, GraphBuilder, NodeId, OutPort};
use gammaflow_dataflow::node::{Imm, NodeKind};
use gammaflow_gamma::compiled::CompiledReaction;
use gammaflow_gamma::expr::Expr;
use gammaflow_gamma::spec::{
    ElementSpec, GammaProgram, Guard, LabelPat, LabelSpec, Pattern, ReactionSpec, TagSpec, ValuePat,
};
use gammaflow_multiset::value::{BinOp, CmpOp};
use gammaflow_multiset::{ElementBag, FxHashMap, Symbol, Value};
use std::fmt;

/// Errors from Algorithm 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Alg2Error {
    /// `where` conditions gate firing without consuming — dataflow has no
    /// counterpart (a node always fires on a full operand set).
    UnsupportedWhere(String),
    /// By-chains other than `Always` or `If`/`Else` pairs.
    UnsupportedClauses(String),
    /// Output labels must be literals to become static edges.
    VarOutputLabel(String),
    /// Output tags must be `v`, `v + 1`, or elided.
    UnsupportedTag(String),
    /// An expression uses a label/tag variable as a value.
    NonValueVar(String),
    /// Stitching: a label consumed by more than one pattern is inherently
    /// nondeterministic (any consumer may take it) — not expressible as a
    /// static edge.
    SharedLabelConsumer(Symbol),
    /// Stitching: two different clauses/reactions produce the same label.
    SharedLabelProducer(Symbol),
    /// Stitching: the initial multiset holds several elements (or a
    /// repeated element) for one label; use [`map_multiset`] instead.
    AmbiguousInitial(Symbol),
    /// Stitching: a consumed label has neither a producer nor an initial
    /// element.
    DanglingLabel(Symbol),
    /// The reaction failed spec validation or graph construction.
    Spec(String),
}

impl fmt::Display for Alg2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Alg2Error::UnsupportedWhere(r) => {
                write!(
                    f,
                    "reaction {r}: `where` conditions have no dataflow counterpart"
                )
            }
            Alg2Error::UnsupportedClauses(r) => {
                write!(
                    f,
                    "reaction {r}: only `Always` or `If`/`Else` clause chains convert"
                )
            }
            Alg2Error::VarOutputLabel(r) => {
                write!(
                    f,
                    "reaction {r}: variable output labels cannot become static edges"
                )
            }
            Alg2Error::UnsupportedTag(r) => {
                write!(
                    f,
                    "reaction {r}: output tags must be `v`, `v + 1`, or elided"
                )
            }
            Alg2Error::NonValueVar(v) => {
                write!(f, "expression uses non-value variable `{v}`")
            }
            Alg2Error::SharedLabelConsumer(l) => {
                write!(f, "label `{l}` has multiple consumer patterns")
            }
            Alg2Error::SharedLabelProducer(l) => {
                write!(f, "label `{l}` has multiple producers")
            }
            Alg2Error::AmbiguousInitial(l) => {
                write!(f, "label `{l}` is ambiguous in the initial multiset")
            }
            Alg2Error::DanglingLabel(l) => {
                write!(f, "label `{l}` is consumed but never produced or seeded")
            }
            Alg2Error::Spec(e) => write!(f, "{e}"),
        }
    }
}
impl std::error::Error for Alg2Error {}

/// Recovered node kind of a reaction (the paper's future-work analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Single input re-emitted with `tag + 1`: an inctag node.
    IncTag,
    /// `by 1-outputs if cond / by 0-outputs else`: a comparison node.
    Cmp,
    /// `by data-outputs if ctl / by data-outputs else`: a steer node.
    Steer,
    /// Anything else convertible: a tree of arithmetic/comparison nodes,
    /// possibly behind condition-driven steers.
    Generic,
}

/// Tag form of an output element relative to the reaction's tag variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagForm {
    Same,
    Inc,
}

fn tag_form(spec: &ElementSpec, tag_var: Option<Symbol>) -> Result<TagForm, ()> {
    match (&spec.tag, tag_var) {
        (TagSpec::Zero, _) => Ok(TagForm::Same),
        (TagSpec::Expr(Expr::Var(v)), Some(tv)) if *v == tv => Ok(TagForm::Same),
        (TagSpec::Expr(Expr::Bin(BinOp::Add, a, b)), Some(tv)) => match (a.as_ref(), b.as_ref()) {
            (Expr::Var(v), Expr::Lit(Value::Int(1))) if *v == tv => Ok(TagForm::Inc),
            (Expr::Lit(Value::Int(1)), Expr::Var(v)) if *v == tv => Ok(TagForm::Inc),
            _ => Err(()),
        },
        _ => Err(()),
    }
}

fn pattern_tag_var(p: &Pattern) -> Option<Symbol> {
    match &p.tag {
        gammaflow_gamma::spec::TagPat::Var(v) => Some(*v),
        _ => None,
    }
}

fn pattern_value_var(p: &Pattern) -> Option<Symbol> {
    match &p.value {
        ValuePat::Var(v) => Some(*v),
        _ => None,
    }
}

fn lit_label(spec: &ElementSpec) -> Option<Symbol> {
    match &spec.label {
        LabelSpec::Lit(l) => Some(*l),
        LabelSpec::Var(_) => None,
    }
}

/// Is `cond` a truth test on the control variable `cv`? Accepts the
/// paper's `id2 == 1` and its reduced examples' `id2 > 0`.
fn is_control_test(cond: &Expr, cv: Symbol) -> bool {
    match cond {
        Expr::Cmp(CmpOp::Eq, a, b) => {
            matches!((a.as_ref(), b.as_ref()),
                (Expr::Var(v), Expr::Lit(Value::Int(1))) | (Expr::Lit(Value::Int(1)), Expr::Var(v))
                    if *v == cv)
        }
        Expr::Cmp(CmpOp::Gt, a, b) => {
            matches!((a.as_ref(), b.as_ref()),
                (Expr::Var(v), Expr::Lit(Value::Int(0))) if *v == cv)
        }
        _ => false,
    }
}

/// Classify a reaction's shape (see [`Shape`]).
pub fn recover_shape(r: &ReactionSpec) -> Shape {
    let shared_tag = r.patterns.first().and_then(pattern_tag_var);

    // IncTag: one input, one Always clause, outputs re-emit the input value
    // at tag + 1.
    if r.patterns.len() == 1 && r.clauses.len() == 1 && r.where_cond.is_none() {
        if let (Guard::Always, Some(vv)) = (&r.clauses[0].guard, pattern_value_var(&r.patterns[0]))
        {
            let all_inc = !r.clauses[0].outputs.is_empty()
                && r.clauses[0].outputs.iter().all(|o| {
                    o.value == Expr::Var(vv)
                        && lit_label(o).is_some()
                        && tag_form(o, shared_tag) == Ok(TagForm::Inc)
                });
            if all_inc {
                return Shape::IncTag;
            }
        }
    }

    // Cmp / Steer: exactly If + Else.
    if r.clauses.len() == 2 && r.where_cond.is_none() {
        if let (Guard::If(cond), Guard::Else) = (&r.clauses[0].guard, &r.clauses[1].guard) {
            let (ifs, elses) = (&r.clauses[0].outputs, &r.clauses[1].outputs);
            let same_tags = ifs
                .iter()
                .chain(elses.iter())
                .all(|o| tag_form(o, shared_tag) == Ok(TagForm::Same));

            // Cmp: same label lists, if-branch all 1s, else-branch all 0s.
            if same_tags
                && !ifs.is_empty()
                && ifs.len() == elses.len()
                && ifs.iter().all(|o| o.value == Expr::int(1))
                && elses.iter().all(|o| o.value == Expr::int(0))
                && ifs
                    .iter()
                    .zip(elses.iter())
                    .all(|(a, b)| lit_label(a).is_some() && lit_label(a) == lit_label(b))
            {
                return Shape::Cmp;
            }

            // Steer: two inputs, condition is a truth test on one (the
            // control), both branches re-emit the other (the data).
            if same_tags && r.patterns.len() == 2 {
                let vals: Vec<Option<Symbol>> = r.patterns.iter().map(pattern_value_var).collect();
                if let (Some(v0), Some(v1)) = (vals[0], vals[1]) {
                    for (cv, dv) in [(v1, v0), (v0, v1)] {
                        if is_control_test(cond, cv)
                            && !ifs.is_empty()
                            && ifs
                                .iter()
                                .chain(elses.iter())
                                .all(|o| o.value == Expr::Var(dv) && lit_label(o).is_some())
                        {
                            return Shape::Steer;
                        }
                    }
                }
            }
        }
    }

    Shape::Generic
}

/// Where a subgraph expects a pattern's value, and what it offers per
/// produced label.
#[derive(Debug, Clone)]
pub struct SubgraphPorts {
    /// For each pattern index: the `(node, port)` pairs its value feeds.
    pub inputs: Vec<Vec<(NodeId, usize)>>,
    /// Produced labels with their source `(node, out-port)`.
    pub outputs: Vec<(Symbol, NodeId, OutPort)>,
    /// Pattern indices whose value gates firing in Gamma but has no
    /// dataflow consumer (a pure-synchronisation operand).
    pub unused_inputs: Vec<usize>,
    /// The recovered shape.
    pub shape: Shape,
}

impl SubgraphPorts {
    fn new(npatterns: usize, shape: Shape) -> SubgraphPorts {
        SubgraphPorts {
            inputs: vec![Vec::new(); npatterns],
            outputs: Vec::new(),
            unused_inputs: Vec::new(),
            shape,
        }
    }
}

/// Source of an operand during expression compilation: either a concrete
/// node output, or "pattern i's incoming value" (wired by the caller).
#[derive(Debug, Clone, Copy)]
enum Operand {
    Def(NodeId, OutPort),
    Input(usize),
}

struct ExprCompiler<'a> {
    b: &'a mut GraphBuilder,
    env: FxHashMap<Symbol, Operand>,
    raw_uses: &'a mut Vec<Vec<(NodeId, usize)>>,
    name: &'a str,
}

fn fold_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Lit(Value::Int(x)) => Some(*x),
        Expr::Un(gammaflow_multiset::value::UnOp::Neg, a) => fold_int(a).map(i64::wrapping_neg),
        _ => None,
    }
}

impl ExprCompiler<'_> {
    fn wire(&mut self, op: Operand, node: NodeId, port: usize) {
        match op {
            Operand::Def(n, p) => {
                self.b.connect_full(n, p, node, port, None);
            }
            Operand::Input(i) => self.raw_uses[i].push((node, port)),
        }
    }

    /// Force an operand into a concrete def, inserting an identity node
    /// (`x + 0`) only for bare pass-throughs of inputs.
    fn materialise(&mut self, op: Operand) -> (NodeId, OutPort) {
        match op {
            Operand::Def(n, p) => (n, p),
            Operand::Input(i) => {
                let id = self.b.add_named(
                    NodeKind::Arith(BinOp::Add, Some(Imm::right(0))),
                    format!("{}_pass{i}", self.name),
                );
                self.raw_uses[i].push((id, 0));
                (id, OutPort::True)
            }
        }
    }

    fn compile(&mut self, e: &Expr) -> Result<Operand, Alg2Error> {
        match e {
            Expr::Lit(v) => {
                let n = self.b.add(NodeKind::Const(v.clone()));
                Ok(Operand::Def(n, OutPort::True))
            }
            Expr::Var(v) => self
                .env
                .get(v)
                .copied()
                .ok_or_else(|| Alg2Error::NonValueVar(v.to_string())),
            Expr::Un(op, a) => {
                let ad = self.compile(a)?;
                let n = self.b.add(NodeKind::Un(*op));
                self.wire(ad, n, 0);
                Ok(Operand::Def(n, OutPort::True))
            }
            Expr::Bin(op, a, b) => {
                let op = *op;
                self.binary(move |imm| NodeKind::Arith(op, imm), a, b)
            }
            Expr::Cmp(op, a, b) => {
                let op = *op;
                self.binary(move |imm| NodeKind::Cmp(op, imm), a, b)
            }
        }
    }

    fn binary(
        &mut self,
        mk: impl Fn(Option<Imm>) -> NodeKind,
        a: &Expr,
        b: &Expr,
    ) -> Result<Operand, Alg2Error> {
        if let Some(bi) = fold_int(b) {
            let ad = self.compile(a)?;
            let n = self.b.add(mk(Some(Imm::right(bi))));
            self.wire(ad, n, 0);
            return Ok(Operand::Def(n, OutPort::True));
        }
        if let Some(ai) = fold_int(a) {
            let bd = self.compile(b)?;
            let n = self.b.add(mk(Some(Imm::left(ai))));
            self.wire(bd, n, 0);
            return Ok(Operand::Def(n, OutPort::True));
        }
        let ad = self.compile(a)?;
        let bd = self.compile(b)?;
        let n = self.b.add(mk(None));
        self.wire(ad, n, 0);
        self.wire(bd, n, 1);
        Ok(Operand::Def(n, OutPort::True))
    }
}

/// Build the operator subgraph of one reaction into `b`, leaving inputs
/// unwired (returned as port lists) — the shared machinery behind
/// [`reaction_to_graph`], [`gamma_to_dataflow`], and [`map_multiset`].
pub fn build_reaction_subgraph(
    b: &mut GraphBuilder,
    r: &ReactionSpec,
) -> Result<SubgraphPorts, Alg2Error> {
    r.validate().map_err(|e| Alg2Error::Spec(e.to_string()))?;
    if r.where_cond.is_some() {
        return Err(Alg2Error::UnsupportedWhere(r.name.clone()));
    }
    let shape = recover_shape(r);
    let shared_tag = r.patterns.first().and_then(pattern_tag_var);
    let mut ports = SubgraphPorts::new(r.patterns.len(), shape);

    match shape {
        Shape::IncTag => {
            let it = b.add_named(NodeKind::IncTag, format!("{}_inctag", r.name));
            ports.inputs[0].push((it, 0));
            for o in &r.clauses[0].outputs {
                let label = lit_label(o).expect("checked by recover_shape");
                ports.outputs.push((label, it, OutPort::True));
            }
        }
        Shape::Cmp => {
            let Guard::If(cond) = &r.clauses[0].guard else {
                unreachable!()
            };
            let Expr::Cmp(op, lhs, rhs) = cond else {
                // recover_shape accepted it, but only single comparisons
                // become a single node; other boolean shapes go generic.
                return build_generic_entry(b, r, shared_tag, ports);
            };
            let var_index = |side: &Expr| -> Option<usize> {
                let Expr::Var(v) = side else { return None };
                r.patterns
                    .iter()
                    .position(|p| pattern_value_var(p) == Some(*v))
            };
            let node = match (fold_int(lhs), fold_int(rhs)) {
                (None, Some(bi)) => {
                    let Some(idx) = var_index(lhs) else {
                        return build_generic_entry(b, r, shared_tag, ports);
                    };
                    let n = b.add_named(
                        NodeKind::Cmp(*op, Some(Imm::right(bi))),
                        format!("{}_cmp", r.name),
                    );
                    ports.inputs[idx].push((n, 0));
                    n
                }
                (Some(ai), None) => {
                    let Some(idx) = var_index(rhs) else {
                        return build_generic_entry(b, r, shared_tag, ports);
                    };
                    let n = b.add_named(
                        NodeKind::Cmp(*op, Some(Imm::left(ai))),
                        format!("{}_cmp", r.name),
                    );
                    ports.inputs[idx].push((n, 0));
                    n
                }
                (None, None) => {
                    let (Some(li), Some(ri)) = (var_index(lhs), var_index(rhs)) else {
                        return build_generic_entry(b, r, shared_tag, ports);
                    };
                    let n = b.add_named(NodeKind::Cmp(*op, None), format!("{}_cmp", r.name));
                    ports.inputs[li].push((n, 0));
                    ports.inputs[ri].push((n, 1));
                    n
                }
                (Some(_), Some(_)) => return Err(Alg2Error::UnsupportedClauses(r.name.clone())),
            };
            for o in &r.clauses[0].outputs {
                let label = lit_label(o).expect("checked by recover_shape");
                ports.outputs.push((label, node, OutPort::True));
            }
        }
        Shape::Steer => {
            let Guard::If(cond) = &r.clauses[0].guard else {
                unreachable!()
            };
            let vals: Vec<Symbol> = r
                .patterns
                .iter()
                .map(|p| pattern_value_var(p).expect("checked by recover_shape"))
                .collect();
            let (ctl_idx, data_idx) = if is_control_test(cond, vals[1]) {
                (1, 0)
            } else {
                (0, 1)
            };
            let st = b.add_named(NodeKind::Steer, format!("{}_steer", r.name));
            ports.inputs[data_idx].push((st, 0));
            ports.inputs[ctl_idx].push((st, 1));
            for o in &r.clauses[0].outputs {
                let label = lit_label(o).expect("checked by recover_shape");
                ports.outputs.push((label, st, OutPort::True));
            }
            for o in &r.clauses[1].outputs {
                let label = lit_label(o).expect("checked by recover_shape");
                ports.outputs.push((label, st, OutPort::False));
            }
        }
        Shape::Generic => {
            return build_generic_entry(b, r, shared_tag, ports);
        }
    }

    note_unused(&mut ports);
    Ok(ports)
}

fn note_unused(ports: &mut SubgraphPorts) {
    ports.unused_inputs = ports
        .inputs
        .iter()
        .enumerate()
        .filter(|(_, uses)| uses.is_empty())
        .map(|(i, _)| i)
        .collect();
}

fn build_generic_entry(
    b: &mut GraphBuilder,
    r: &ReactionSpec,
    shared_tag: Option<Symbol>,
    mut ports: SubgraphPorts,
) -> Result<SubgraphPorts, Alg2Error> {
    ports.shape = Shape::Generic;
    build_generic(b, r, shared_tag, &mut ports)?;
    note_unused(&mut ports);
    Ok(ports)
}

/// Generic conversion: Algorithm 2 lines 5–22. Pattern values flow
/// (through condition steers when a guard exists) into expression trees.
fn build_generic(
    b: &mut GraphBuilder,
    r: &ReactionSpec,
    shared_tag: Option<Symbol>,
    ports: &mut SubgraphPorts,
) -> Result<(), Alg2Error> {
    let (cond, else_outputs) = match r.clauses.as_slice() {
        [c] if matches!(c.guard, Guard::Always) => (None, None),
        [c] => match &c.guard {
            Guard::If(e) => (Some(e.clone()), None),
            _ => return Err(Alg2Error::UnsupportedClauses(r.name.clone())),
        },
        [c1, c2] => match (&c1.guard, &c2.guard) {
            (Guard::If(e), Guard::Else) => (Some(e.clone()), Some(&c2.outputs)),
            _ => return Err(Alg2Error::UnsupportedClauses(r.name.clone())),
        },
        _ => return Err(Alg2Error::UnsupportedClauses(r.name.clone())),
    };

    let vars: Vec<Option<Symbol>> = r.patterns.iter().map(pattern_value_var).collect();
    let mut raw_uses: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); r.patterns.len()];

    // Base environment: every pattern value is an Input operand.
    let base_env = |vars: &[Option<Symbol>]| -> FxHashMap<Symbol, Operand> {
        vars.iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (v, Operand::Input(i))))
            .collect()
    };

    // Condition subgraph (reads raw inputs).
    let ctl: Option<(NodeId, OutPort)> = match &cond {
        None => None,
        Some(c) => {
            let mut ec = ExprCompiler {
                b,
                env: base_env(&vars),
                raw_uses: &mut raw_uses,
                name: &r.name,
            };
            let op = ec.compile(c)?;
            Some(ec.materialise(op))
        }
    };

    // With a condition, pattern values used by clause outputs flow through
    // per-pattern steers (Algorithm 2 lines 10–11).
    let mut steer_of: Vec<Option<NodeId>> = vec![None; r.patterns.len()];
    if let Some((ctl_node, ctl_port)) = ctl {
        for (i, v) in vars.iter().enumerate() {
            let Some(v) = v else { continue };
            let used = r
                .clauses
                .iter()
                .any(|c| c.outputs.iter().any(|o| o.value.vars().contains(v)));
            if used {
                let st = b.add_named(NodeKind::Steer, format!("{}_steer{i}", r.name));
                raw_uses[i].push((st, 0));
                b.connect_full(ctl_node, ctl_port, st, 1, None);
                steer_of[i] = Some(st);
            }
        }
    }

    let compile_outputs = |b: &mut GraphBuilder,
                           outputs: &[ElementSpec],
                           branch: OutPort,
                           raw_uses: &mut Vec<Vec<(NodeId, usize)>>,
                           out: &mut Vec<(Symbol, NodeId, OutPort)>|
     -> Result<(), Alg2Error> {
        let mut env: FxHashMap<Symbol, Operand> = FxHashMap::default();
        for (i, v) in vars.iter().enumerate() {
            let Some(v) = v else { continue };
            match steer_of[i] {
                Some(st) => {
                    env.insert(*v, Operand::Def(st, branch));
                }
                None => {
                    env.insert(*v, Operand::Input(i));
                }
            }
        }
        for o in outputs {
            let label = lit_label(o).ok_or_else(|| Alg2Error::VarOutputLabel(r.name.clone()))?;
            let form =
                tag_form(o, shared_tag).map_err(|_| Alg2Error::UnsupportedTag(r.name.clone()))?;
            let mut ec = ExprCompiler {
                b,
                env: env.clone(),
                raw_uses,
                name: &r.name,
            };
            let operand = ec.compile(&o.value)?;
            let def = ec.materialise(operand);
            let final_def = match form {
                TagForm::Same => def,
                TagForm::Inc => {
                    let it = b.add_named(NodeKind::IncTag, format!("{}_inc", r.name));
                    b.connect_full(def.0, def.1, it, 0, None);
                    (it, OutPort::True)
                }
            };
            out.push((label, final_def.0, final_def.1));
        }
        Ok(())
    };

    compile_outputs(
        b,
        &r.clauses[0].outputs,
        OutPort::True,
        &mut raw_uses,
        &mut ports.outputs,
    )?;
    if let Some(outs) = else_outputs {
        compile_outputs(b, outs, OutPort::False, &mut raw_uses, &mut ports.outputs)?;
    }

    ports.inputs = raw_uses;
    Ok(())
}

/// Algorithm 2 step 1: a standalone dataflow graph for one reaction. Root
/// constants are placeholders (value 0) that [`map_multiset`] later binds
/// to actual elements; outputs go to sinks labelled by output label.
pub fn reaction_to_graph(r: &ReactionSpec) -> Result<DataflowGraph, Alg2Error> {
    let mut b = GraphBuilder::new();
    let ports = build_reaction_subgraph(&mut b, r)?;
    finish_standalone(&mut b, r, &ports, None, "");
    b.build().map_err(|es| {
        Alg2Error::Spec(
            es.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        )
    })
}

/// Wire const roots and output sinks around a subgraph. `values` provides
/// per-pattern root values (placeholder 0 when absent); `suffix`
/// disambiguates labels across instances.
fn finish_standalone(
    b: &mut GraphBuilder,
    r: &ReactionSpec,
    ports: &SubgraphPorts,
    values: Option<&[Value]>,
    suffix: &str,
) {
    for (i, uses) in ports.inputs.iter().enumerate() {
        let value = values.map(|vs| vs[i].clone()).unwrap_or(Value::Int(0));
        let root = b.add_named(
            NodeKind::Const(value),
            format!("{}_root{i}{suffix}", r.name),
        );
        for &(node, port) in uses {
            b.connect(root, node, port);
        }
    }
    let mut seen: FxHashMap<Symbol, usize> = FxHashMap::default();
    for (label, node, port) in &ports.outputs {
        let n = *seen.entry(*label).and_modify(|n| *n += 1).or_insert(0usize);
        let edge_label = if n == 0 && suffix.is_empty() {
            label.as_str().to_string()
        } else {
            format!("{label}{suffix}_{n}")
        };
        let sink = b.add_named(NodeKind::Output, format!("{label}{suffix}_sink{n}"));
        b.connect_full(*node, *port, sink, 0, Some(&edge_label));
    }
}

/// Whole-program stitching: the inverse of Algorithm 1. Requires every
/// label to have at most one consumer pattern and one producer, and the
/// initial multiset to hold at most one element per label.
pub fn gamma_to_dataflow(
    prog: &GammaProgram,
    initial: &ElementBag,
) -> Result<DataflowGraph, Alg2Error> {
    let mut b = GraphBuilder::new();
    let mut subs: Vec<SubgraphPorts> = Vec::with_capacity(prog.reactions.len());
    for r in &prog.reactions {
        let ports = build_reaction_subgraph(&mut b, r)?;
        subs.push(ports);
    }

    // label → (consumer reaction, pattern index); duplicate = error.
    let mut consumer: FxHashMap<Symbol, (usize, usize)> = FxHashMap::default();
    for (ri, r) in prog.reactions.iter().enumerate() {
        for (pi, p) in r.patterns.iter().enumerate() {
            let labels: Vec<Symbol> = match &p.label {
                LabelPat::Lit(l) => vec![*l],
                LabelPat::OneOf(ls, _) => ls.clone(),
                LabelPat::Var(_) => return Err(Alg2Error::UnsupportedClauses(r.name.clone())),
            };
            for l in labels {
                if consumer.insert(l, (ri, pi)).is_some() {
                    return Err(Alg2Error::SharedLabelConsumer(l));
                }
            }
        }
    }

    // label → producing (node, out-port).
    let mut producer: FxHashMap<Symbol, (NodeId, OutPort)> = FxHashMap::default();
    for ports in &subs {
        for (label, node, port) in &ports.outputs {
            if producer.insert(*label, (*node, *port)).is_some() {
                return Err(Alg2Error::SharedLabelProducer(*label));
            }
        }
    }

    // Initial multiset → constant roots (at most one element per label).
    let mut initial_of: FxHashMap<Symbol, Value> = FxHashMap::default();
    for (e, count) in initial.iter_counts() {
        if count > 1 || initial_of.insert(e.label, e.value.clone()).is_some() {
            return Err(Alg2Error::AmbiguousInitial(e.label));
        }
    }

    // Wire consumers.
    let mut consumed_initial: Vec<Symbol> = Vec::new();
    for (ri, r) in prog.reactions.iter().enumerate() {
        for (pi, p) in r.patterns.iter().enumerate() {
            let labels: Vec<Symbol> = match &p.label {
                LabelPat::Lit(l) => vec![*l],
                LabelPat::OneOf(ls, _) => ls.clone(),
                LabelPat::Var(_) => unreachable!("checked above"),
            };
            for l in labels {
                // Sources: a producer, an initial element, or both (a label
                // that is seeded and also regenerated).
                let mut sources: Vec<(NodeId, OutPort, String)> = Vec::new();
                if let Some(&(node, port)) = producer.get(&l) {
                    sources.push((node, port, l.as_str().to_string()));
                }
                if let Some(v) = initial_of.get(&l).cloned() {
                    let root = b.add_named(NodeKind::Const(v), format!("init_{l}"));
                    let suffix = if sources.is_empty() {
                        l.as_str().to_string()
                    } else {
                        format!("{l}__init")
                    };
                    sources.push((root, OutPort::True, suffix));
                    consumed_initial.push(l);
                }
                if sources.is_empty() {
                    return Err(Alg2Error::DanglingLabel(l));
                }
                let uses = subs[ri].inputs[pi].clone();
                for (src_node, src_port, base_label) in sources {
                    for (k, &(node, port)) in uses.iter().enumerate() {
                        let edge_label = if k == 0 {
                            base_label.clone()
                        } else {
                            format!("{base_label}__{k}")
                        };
                        b.connect_full(src_node, src_port, node, port, Some(&edge_label));
                    }
                }
            }
        }
    }
    for l in consumed_initial {
        initial_of.remove(&l);
    }

    // Unconsumed produced labels → output sinks; untouched initial
    // elements become observable constants.
    let mut produced: Vec<(Symbol, NodeId, OutPort)> =
        producer.iter().map(|(l, (n, p))| (*l, *n, *p)).collect();
    produced.sort_by_key(|(l, _, _)| *l);
    for (label, node, port) in produced {
        if !consumer.contains_key(&label) {
            let sink = b.add_named(NodeKind::Output, format!("{label}_sink"));
            b.connect_full(node, port, sink, 0, Some(label.as_str()));
        }
    }
    let mut leftovers: Vec<(Symbol, Value)> = initial_of.into_iter().collect();
    leftovers.sort_by_key(|(l, _)| *l);
    for (label, v) in leftovers {
        let root = b.add_named(NodeKind::Const(v), format!("init_{label}"));
        let sink = b.add_named(NodeKind::Output, format!("{label}_sink"));
        b.connect_full(root, OutPort::True, sink, 0, Some(label.as_str()));
    }

    b.build().map_err(|es| {
        Alg2Error::Spec(
            es.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        )
    })
}

/// Result of the Fig. 4 multiset mapping.
#[derive(Debug, Clone)]
pub struct MultisetMapping {
    /// One graph containing every instanced copy of the reaction subgraph.
    pub graph: DataflowGraph,
    /// Number of instances (Fig. 4 shows 3 for six elements, arity 2).
    pub instances: usize,
    /// Elements that fit no instance.
    pub leftover: ElementBag,
}

/// Algorithm 2 step 2 (Fig. 4): map the multiset onto replicated instances
/// of the reaction's graph. Greedy matching — each disjoint match of the
/// replace-list becomes one instance whose roots carry the matched values.
pub fn map_multiset(
    r: &ReactionSpec,
    m: &ElementBag,
    max_instances: usize,
) -> Result<MultisetMapping, Alg2Error> {
    let compiled = CompiledReaction::compile(r).map_err(|e| Alg2Error::Spec(e.to_string()))?;
    // `where` conditions are fine here (unlike full stitching): the matcher
    // enforces them when selecting tuples, so the instanced graphs — which
    // see only already-matched values — simply omit them.
    let subgraph_spec = {
        let mut s = r.clone();
        s.where_cond = None;
        s
    };
    let mut working = m.clone();
    let mut b = GraphBuilder::new();
    let mut instances = 0usize;

    while instances < max_instances {
        let found = compiled
            .find_match(0, &working, None)
            .map_err(|e| Alg2Error::Spec(e.to_string()))?;
        let Some(firing) = found else { break };
        let removed = working.remove_all(&firing.consumed);
        debug_assert!(removed);
        let ports = build_reaction_subgraph(&mut b, &subgraph_spec)?;
        let values: Vec<Value> = firing.consumed.iter().map(|e| e.value.clone()).collect();
        finish_standalone(
            &mut b,
            &subgraph_spec,
            &ports,
            Some(&values),
            &format!("_i{instances}"),
        );
        instances += 1;
    }

    let graph = b.build().map_err(|es| {
        Alg2Error::Spec(
            es.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        )
    })?;
    Ok(MultisetMapping {
        graph,
        instances,
        leftover: working,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_dataflow::engine::SeqEngine;
    use gammaflow_lang::parse_reaction;
    use gammaflow_multiset::Element;

    #[test]
    fn recovers_inctag_shape() {
        let r =
            parse_reaction("R11 = replace [id1,x,v] by [id1,'A12',v+1] if (x=='A1') or (x=='A11')")
                .unwrap();
        assert_eq!(recover_shape(&r), Shape::IncTag);
    }

    #[test]
    fn recovers_cmp_shape() {
        let r = parse_reaction(
            "R14 = replace [id1, 'B12', v]
             by [1,'B14',v], [1,'B15',v], [1,'B16',v] If id1 > 0
             by [0,'B14',v], [0,'B15',v], [0,'B16',v] else",
        )
        .unwrap();
        assert_eq!(recover_shape(&r), Shape::Cmp);
    }

    #[test]
    fn recovers_steer_shape() {
        let r = parse_reaction(
            "R16 = replace [id1,'B13',v], [id2,'B15',v]
             by [id1,'B17',v] If id2 == 1
             by 0 else",
        )
        .unwrap();
        assert_eq!(recover_shape(&r), Shape::Steer);
    }

    #[test]
    fn plain_arithmetic_is_generic() {
        let r = parse_reaction("R19 = replace [id1,'A13',v], [id2,'C13',v] by [id1+id2,'C11',v]")
            .unwrap();
        assert_eq!(recover_shape(&r), Shape::Generic);
    }

    #[test]
    fn reaction_to_graph_r1_shape() {
        // Paper's §III-A2 walk-through: R1 gives a vertex with two inputs
        // and one output.
        let r = parse_reaction("R1 = replace [id1,'A1'], [id2,'B1'] by [id1+id2,'B2']").unwrap();
        let g = reaction_to_graph(&r).unwrap();
        // 2 roots + 1 add + 1 sink.
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.roots().count(), 2);
        assert_eq!(g.outputs().count(), 1);
        let labels: Vec<&str> = g.output_labels().iter().map(|s| s.as_str()).collect();
        assert_eq!(labels, vec!["B2"]);
    }

    #[test]
    fn reaction_graph_executes_one_firing() {
        let r = parse_reaction("R = replace [a,'X'], [b,'Y'] by [a*b,'P']").unwrap();
        let mut b = GraphBuilder::new();
        let ports = build_reaction_subgraph(&mut b, &r).unwrap();
        finish_standalone(
            &mut b,
            &r,
            &ports,
            Some(&[Value::Int(6), Value::Int(7)]),
            "",
        );
        let g = b.build().unwrap();
        let out = SeqEngine::new(&g).run().unwrap();
        assert_eq!(out.outputs.sorted_elements(), vec![Element::pair(42, "P")]);
    }

    #[test]
    fn map_multiset_replicates_like_fig4() {
        // Fig. 4: a 2-ary reaction over six elements → 3 instances.
        let r = parse_reaction("R = replace [x,'n'], [y,'n'] by [x+y,'s']").unwrap();
        let m: ElementBag = (1..=6).map(|v| Element::pair(v, "n")).collect();
        let mapping = map_multiset(&r, &m, usize::MAX).unwrap();
        assert_eq!(mapping.instances, 3);
        assert!(mapping.leftover.is_empty());
        // Executing the instanced graph performs one Gamma "round": three
        // sums totalling 21.
        let out = SeqEngine::new(&mapping.graph).run().unwrap();
        let total: i64 = out.outputs.iter().map(|e| e.value.as_int().unwrap()).sum();
        assert_eq!(total, 21);
        assert_eq!(out.outputs.len(), 3);
    }

    #[test]
    fn map_multiset_leftover_when_odd() {
        let r = parse_reaction("R = replace [x,'n'], [y,'n'] by [x+y,'s']").unwrap();
        let m: ElementBag = (1..=7).map(|v| Element::pair(v, "n")).collect();
        let mapping = map_multiset(&r, &m, usize::MAX).unwrap();
        assert_eq!(mapping.instances, 3);
        assert_eq!(mapping.leftover.len(), 1);
    }

    #[test]
    fn map_multiset_respects_instance_cap() {
        let r = parse_reaction("R = replace [x,'n'] by [x,'out']").unwrap();
        let m: ElementBag = (1..=10).map(|v| Element::pair(v, "n")).collect();
        let mapping = map_multiset(&r, &m, 4).unwrap();
        assert_eq!(mapping.instances, 4);
        assert_eq!(mapping.leftover.len(), 6);
    }

    #[test]
    fn where_condition_rejected() {
        let r = parse_reaction("R = replace [x,'n'], [y,'n'] by [x,'n'] where x < y").unwrap();
        assert!(matches!(
            reaction_to_graph(&r),
            Err(Alg2Error::UnsupportedWhere(_))
        ));
    }

    #[test]
    fn stitching_example1_runs_like_gamma() {
        let prog = gammaflow_lang::parse_program(
            "R1 = replace [id1,'A1'], [id2,'B1'] by [id1+id2,'B2']
             R2 = replace [id1,'C1'], [id2,'D1'] by [id1*id2,'C2']
             R3 = replace [id1,'B2'], [id2,'C2'] by [id1-id2,'m']",
        )
        .unwrap();
        let initial: ElementBag = [
            Element::pair(1, "A1"),
            Element::pair(5, "B1"),
            Element::pair(3, "C1"),
            Element::pair(2, "D1"),
        ]
        .into_iter()
        .collect();
        let g = gamma_to_dataflow(&prog, &initial).unwrap();
        let out = SeqEngine::new(&g).run().unwrap();
        assert_eq!(out.outputs.sorted_elements(), vec![Element::pair(0, "m")]);
    }

    #[test]
    fn stitching_shared_consumer_rejected() {
        let prog = gammaflow_lang::parse_program(
            "R1 = replace [a,'n'] by [a,'x']
             R2 = replace [b,'n'] by [b,'y']",
        )
        .unwrap();
        let initial: ElementBag = [Element::pair(1, "n")].into_iter().collect();
        assert!(matches!(
            gamma_to_dataflow(&prog, &initial),
            Err(Alg2Error::SharedLabelConsumer(_))
        ));
    }

    #[test]
    fn stitching_dangling_label_rejected() {
        let prog = gammaflow_lang::parse_program("R1 = replace [a,'ghost'] by [a,'x']").unwrap();
        let initial = ElementBag::new();
        assert!(matches!(
            gamma_to_dataflow(&prog, &initial),
            Err(Alg2Error::DanglingLabel(_))
        ));
    }

    #[test]
    fn stitching_passes_through_unconsumed_initial() {
        let prog = gammaflow_lang::parse_program("R1 = replace [a,'in'] by [a+1,'out']").unwrap();
        let initial: ElementBag = [Element::pair(1, "in"), Element::pair(9, "spare")]
            .into_iter()
            .collect();
        let g = gamma_to_dataflow(&prog, &initial).unwrap();
        let out = SeqEngine::new(&g).run().unwrap();
        assert_eq!(
            out.outputs.sorted_elements(),
            vec![Element::pair(2, "out"), Element::pair(9, "spare")]
        );
    }
}
