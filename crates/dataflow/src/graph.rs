//! Dataflow graph representation and builder.
//!
//! A dynamic dataflow program is a directed graph `D(I, E)` (the paper's
//! notation): instructions `I` as nodes, data dependencies `E` as edges.
//! Every edge carries a unique **label** — the paper's `A1`, `B17`, … —
//! because Algorithm 1 turns edges into multiset-element labels; the
//! builder assigns fresh labels automatically and lets callers override
//! them to reproduce the paper's figures verbatim.
//!
//! Structural conventions:
//!
//! * a node has one *logical* output port (steer has two: true=0, false=1);
//!   fan-out is multiple edges from the same port, each with its own label;
//! * an input port may have **several** in-edges (a merge) — the loop-back
//!   pattern of Fig. 2, where an inctag's single input is fed by both the
//!   initial edge (`A1`) and the loop-back edge (`A11`).

use crate::node::NodeKind;
use gammaflow_multiset::{Symbol, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Node identifier (index into the graph's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Edge identifier (index into the graph's edge table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Output port of a node: `True` doubles as the single output port of
/// non-steer nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OutPort {
    /// Normal output / steer true-port.
    True,
    /// Steer false-port.
    False,
}

impl OutPort {
    /// Port index (0/1).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OutPort::True => 0,
            OutPort::False => 1,
        }
    }
}

/// A node: an instruction of the dataflow program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Identifier.
    pub id: NodeId,
    /// Operation.
    pub kind: NodeKind,
    /// Human-readable name (`R1`, `R16`, …); used in traces, graphviz, and
    /// as the generated reaction name by Algorithm 1.
    pub name: String,
}

/// An edge: a data dependency carrying tagged tokens.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Identifier.
    pub id: EdgeId,
    /// Producer node.
    pub src: NodeId,
    /// Producer output port.
    pub src_port: OutPort,
    /// Consumer node.
    pub dst: NodeId,
    /// Consumer input port index.
    pub dst_port: usize,
    /// Unique label (the paper's `A1`, `B2`, …).
    pub label: Symbol,
}

/// A complete dataflow graph.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataflowGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// `in_edges[node][port]` → edge ids feeding that port.
    in_edges: Vec<Vec<Vec<EdgeId>>>,
    /// `out_edges[node][outport]` → edge ids leaving that port.
    out_edges: Vec<[Vec<EdgeId>; 2]>,
}

impl DataflowGraph {
    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Edge by id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Edge ids feeding `(node, port)`.
    pub fn in_edges(&self, node: NodeId, port: usize) -> &[EdgeId] {
        &self.in_edges[node.index()][port]
    }

    /// Edge ids leaving `(node, out_port)`.
    pub fn out_edges(&self, node: NodeId, port: OutPort) -> &[EdgeId] {
        &self.out_edges[node.index()][port.index()]
    }

    /// All edges leaving `node` on any port.
    pub fn all_out_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> {
        self.out_edges[node.index()]
            .iter()
            .flatten()
            .map(|&e| self.edge(e))
    }

    /// Root (constant) nodes — the squares that seed execution.
    pub fn roots(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Const(_)))
    }

    /// Output sink nodes.
    pub fn outputs(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Output))
    }

    /// Labels of all edges entering output sinks — the program's observable
    /// result labels, used by the equivalence checker.
    pub fn output_labels(&self) -> Vec<Symbol> {
        let mut labels: Vec<Symbol> = self
            .edges
            .iter()
            .filter(|e| matches!(self.node(e.dst).kind, NodeKind::Output))
            .map(|e| e.label)
            .collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// Find an edge by label.
    pub fn edge_by_label(&self, label: Symbol) -> Option<&Edge> {
        self.edges.iter().find(|e| e.label == label)
    }

    /// Find a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Graphviz rendering with the paper's shape conventions (squares for
    /// constants, triangles for steers, lozenges for inctags).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "digraph dataflow {{");
        let _ = writeln!(s, "  rankdir=TB;");
        for n in &self.nodes {
            let _ = writeln!(
                s,
                "  n{} [label=\"{}\\n{}\", shape={}];",
                n.id.0,
                n.name,
                n.kind,
                n.kind.shape()
            );
        }
        for e in &self.edges {
            let style = if e.src_port == OutPort::False {
                ", style=dashed"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "  n{} -> n{} [label=\"{}\"{}];",
                e.src.0, e.dst.0, e.label, style
            );
        }
        let _ = writeln!(s, "}}");
        s
    }
}

/// Graph construction errors (reported by [`GraphBuilder::build`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An input port has no incoming edge.
    UnconnectedInput {
        /// The node.
        node: String,
        /// The port index.
        port: usize,
    },
    /// An edge targets a port beyond the node's arity.
    BadPort {
        /// The node.
        node: String,
        /// The offending port index.
        port: usize,
    },
    /// An edge leaves the false port of a non-steer node.
    BadOutPort {
        /// The node.
        node: String,
    },
    /// Two edges share a label.
    DuplicateLabel(Symbol),
    /// A constant node has an in-edge.
    ConstWithInput {
        /// The node.
        node: String,
    },
    /// A cycle contains no inctag node, so its iterations would collide on
    /// equal tags.
    UntaggedCycle {
        /// A node on the offending cycle.
        node: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnconnectedInput { node, port } => {
                write!(f, "node {node}: input port {port} is unconnected")
            }
            GraphError::BadPort { node, port } => {
                write!(f, "node {node}: port {port} out of range")
            }
            GraphError::BadOutPort { node } => {
                write!(f, "node {node}: false out-port on a non-steer node")
            }
            GraphError::DuplicateLabel(l) => write!(f, "duplicate edge label `{l}`"),
            GraphError::ConstWithInput { node } => {
                write!(f, "constant node {node} has an input edge")
            }
            GraphError::UntaggedCycle { node } => {
                write!(f, "cycle through {node} contains no inctag node")
            }
        }
    }
}
impl std::error::Error for GraphError {}

/// Incremental builder for [`DataflowGraph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    next_label: u32,
}

impl GraphBuilder {
    /// Fresh builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Add a node of `kind` with an autogenerated name.
    pub fn add(&mut self, kind: NodeKind) -> NodeId {
        let name = format!("n{}", self.nodes.len());
        self.add_named(kind, name)
    }

    /// Add a node with an explicit name.
    pub fn add_named(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            name: name.into(),
        });
        id
    }

    /// Add a constant (root) node.
    pub fn constant(&mut self, value: impl Into<Value>) -> NodeId {
        self.add(NodeKind::Const(value.into()))
    }

    /// Add a named constant.
    pub fn constant_named(&mut self, value: impl Into<Value>, name: &str) -> NodeId {
        self.add_named(NodeKind::Const(value.into()), name)
    }

    /// Add an output sink.
    pub fn output(&mut self, name: &str) -> NodeId {
        self.add_named(NodeKind::Output, name)
    }

    /// Connect `src`'s main output to `(dst, dst_port)` with a fresh label.
    pub fn connect(&mut self, src: NodeId, dst: NodeId, dst_port: usize) -> EdgeId {
        self.connect_full(src, OutPort::True, dst, dst_port, None)
    }

    /// Connect with an explicit label.
    pub fn connect_labelled(
        &mut self,
        src: NodeId,
        dst: NodeId,
        dst_port: usize,
        label: &str,
    ) -> EdgeId {
        self.connect_full(src, OutPort::True, dst, dst_port, Some(label))
    }

    /// Fully explicit connection.
    pub fn connect_full(
        &mut self,
        src: NodeId,
        src_port: OutPort,
        dst: NodeId,
        dst_port: usize,
        label: Option<&str>,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        let label = match label {
            Some(l) => Symbol::intern(l),
            None => {
                let l = Symbol::intern(&format!("e{}", self.next_label));
                self.next_label += 1;
                l
            }
        };
        self.edges.push(Edge {
            id,
            src,
            src_port,
            dst,
            dst_port,
            label,
        });
        id
    }

    /// Finish, validating structure (port arities, labels, tagged cycles).
    pub fn build(self) -> Result<DataflowGraph, Vec<GraphError>> {
        let mut errors = Vec::new();
        let n = self.nodes.len();
        let mut in_edges: Vec<Vec<Vec<EdgeId>>> = self
            .nodes
            .iter()
            .map(|node| vec![Vec::new(); node.kind.input_ports()])
            .collect();
        let mut out_edges: Vec<[Vec<EdgeId>; 2]> = vec![[Vec::new(), Vec::new()]; n];

        let mut seen_labels = gammaflow_multiset::FxHashSet::default();
        for e in &self.edges {
            if !seen_labels.insert(e.label) {
                errors.push(GraphError::DuplicateLabel(e.label));
            }
            let dst_node = &self.nodes[e.dst.index()];
            if matches!(dst_node.kind, NodeKind::Const(_)) {
                errors.push(GraphError::ConstWithInput {
                    node: dst_node.name.clone(),
                });
                continue;
            }
            if e.dst_port >= dst_node.kind.input_ports() {
                errors.push(GraphError::BadPort {
                    node: dst_node.name.clone(),
                    port: e.dst_port,
                });
                continue;
            }
            let src_node = &self.nodes[e.src.index()];
            if e.src_port == OutPort::False && !matches!(src_node.kind, NodeKind::Steer) {
                errors.push(GraphError::BadOutPort {
                    node: src_node.name.clone(),
                });
                continue;
            }
            in_edges[e.dst.index()][e.dst_port].push(e.id);
            out_edges[e.src.index()][e.src_port.index()].push(e.id);
        }

        for (i, node) in self.nodes.iter().enumerate() {
            for (port, feeds) in in_edges[i].iter().enumerate() {
                if feeds.is_empty() {
                    errors.push(GraphError::UnconnectedInput {
                        node: node.name.clone(),
                        port,
                    });
                }
            }
        }

        // Cycle check: every cycle must pass through an inctag, otherwise
        // iterations would collide on equal tags. DFS over the graph with
        // inctag nodes removed; a back edge there is an untagged cycle.
        if errors.is_empty() {
            if let Some(node_idx) = find_untagged_cycle(&self.nodes, &self.edges) {
                errors.push(GraphError::UntaggedCycle {
                    node: self.nodes[node_idx].name.clone(),
                });
            }
        }

        if errors.is_empty() {
            Ok(DataflowGraph {
                nodes: self.nodes,
                edges: self.edges,
                in_edges,
                out_edges,
            })
        } else {
            Err(errors)
        }
    }
}

/// Find a node on a cycle that avoids all inctag nodes, if any.
fn find_untagged_cycle(nodes: &[Node], edges: &[Edge]) -> Option<usize> {
    let n = nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        let (s, d) = (e.src.index(), e.dst.index());
        // Drop edges touching inctags: they break tag-cycles.
        if matches!(nodes[s].kind, NodeKind::IncTag) || matches!(nodes[d].kind, NodeKind::IncTag) {
            continue;
        }
        adj[s].push(d);
    }
    // Iterative three-colour DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::White; n];
    for start in 0..n {
        if colour[start] != Colour::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        colour[start] = Colour::Grey;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if *next < adj[u].len() {
                let v = adj[u][*next];
                *next += 1;
                match colour[v] {
                    Colour::White => {
                        colour[v] = Colour::Grey;
                        stack.push((v, 0));
                    }
                    Colour::Grey => return Some(v),
                    Colour::Black => {}
                }
            } else {
                colour[u] = Colour::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gammaflow_multiset::value::{BinOp, CmpOp};

    /// Build the paper's Fig. 1 graph: m = (x + y) - (k * j).
    pub fn fig1() -> DataflowGraph {
        let mut b = GraphBuilder::new();
        let x = b.constant_named(1, "x");
        let y = b.constant_named(5, "y");
        let k = b.constant_named(3, "k");
        let j = b.constant_named(2, "j");
        let r1 = b.add_named(NodeKind::Arith(BinOp::Add, None), "R1");
        let r2 = b.add_named(NodeKind::Arith(BinOp::Mul, None), "R2");
        let r3 = b.add_named(NodeKind::Arith(BinOp::Sub, None), "R3");
        let m = b.output("m_sink");
        b.connect_labelled(x, r1, 0, "A1");
        b.connect_labelled(y, r1, 1, "B1");
        b.connect_labelled(k, r2, 0, "C1");
        b.connect_labelled(j, r2, 1, "D1");
        b.connect_labelled(r1, r3, 0, "B2");
        b.connect_labelled(r2, r3, 1, "C2");
        b.connect_labelled(r3, m, 0, "m");
        b.build().unwrap()
    }

    #[test]
    fn fig1_structure() {
        let g = fig1();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.roots().count(), 4);
        assert_eq!(g.outputs().count(), 1);
        let labels: Vec<&str> = g.output_labels().iter().map(|s| s.as_str()).collect();
        assert_eq!(labels, vec!["m"]);
    }

    #[test]
    fn unconnected_input_rejected() {
        let mut b = GraphBuilder::new();
        let x = b.constant(1);
        let add = b.add(NodeKind::Arith(BinOp::Add, None));
        b.connect(x, add, 0);
        // Port 1 left dangling.
        let err = b.build().unwrap_err();
        assert!(matches!(
            err[0],
            GraphError::UnconnectedInput { port: 1, .. }
        ));
    }

    #[test]
    fn bad_port_rejected() {
        let mut b = GraphBuilder::new();
        let x = b.constant(1);
        let neg = b.add(NodeKind::Un(gammaflow_multiset::value::UnOp::Neg));
        b.connect(x, neg, 5);
        let err = b.build().unwrap_err();
        assert!(matches!(err[0], GraphError::BadPort { port: 5, .. }));
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut b = GraphBuilder::new();
        let x = b.constant(1);
        let y = b.constant(2);
        let add = b.add(NodeKind::Arith(BinOp::Add, None));
        b.connect_labelled(x, add, 0, "L");
        b.connect_labelled(y, add, 1, "L");
        let err = b.build().unwrap_err();
        assert!(matches!(err[0], GraphError::DuplicateLabel(_)));
    }

    #[test]
    fn false_port_requires_steer() {
        let mut b = GraphBuilder::new();
        let x = b.constant(1);
        let out = b.output("o");
        b.connect_full(x, OutPort::False, out, 0, None);
        let err = b.build().unwrap_err();
        assert!(matches!(err[0], GraphError::BadOutPort { .. }));
    }

    #[test]
    fn untagged_cycle_rejected() {
        // add -> add loop with no inctag.
        let mut b = GraphBuilder::new();
        let x = b.constant(1);
        let add = b.add(NodeKind::Arith(BinOp::Add, None));
        b.connect(x, add, 0);
        b.connect(add, add, 1);
        let err = b.build().unwrap_err();
        assert!(matches!(err[0], GraphError::UntaggedCycle { .. }));
    }

    #[test]
    fn tagged_cycle_accepted() {
        // Loop through an inctag is fine (structure-only test; semantics in
        // the engine tests).
        let mut b = GraphBuilder::new();
        let x = b.constant(10);
        let z = b.constant(1);
        let inc = b.add(NodeKind::IncTag);
        let cmp = b.add(NodeKind::Cmp(CmpOp::Gt, Some(crate::node::Imm::right(0))));
        let steer = b.add(NodeKind::Steer);
        let dec = b.add(NodeKind::Arith(
            BinOp::Sub,
            Some(crate::node::Imm::right(1)),
        ));
        let _unused = z;
        b.connect(x, inc, 0); // initial entry
        b.connect(inc, cmp, 0);
        b.connect(inc, steer, 0);
        b.connect(cmp, steer, 1);
        b.connect_full(steer, OutPort::True, dec, 0, None);
        b.connect(dec, inc, 0); // loop-back through inctag
        let g = b.build().unwrap();
        assert_eq!(g.in_edges(inc, 0).len(), 2, "merge port has two in-edges");
    }

    #[test]
    fn dot_export_mentions_shapes() {
        let g = fig1();
        let dot = g.to_dot();
        assert!(dot.contains("shape=square"));
        assert!(dot.contains("shape=circle"));
        assert!(dot.contains("label=\"A1\""));
    }

    #[test]
    fn lookup_helpers() {
        let g = fig1();
        assert!(g.node_by_name("R1").is_some());
        assert!(g.edge_by_label(Symbol::intern("B2")).is_some());
        let r3 = g.node_by_name("R3").unwrap().id;
        assert_eq!(g.in_edges(r3, 0).len(), 1);
        assert_eq!(g.out_edges(r3, OutPort::True).len(), 1);
    }
}
