//! The data-flow-graph type at the heart of the synthesis flow.
//!
//! A [`Dfg`] is a directed acyclic graph whose nodes are arithmetic
//! operations ([`OpKind`]) and whose edges are data dependencies: an edge
//! `a → b` means operation `b` consumes the result of operation `a`, i.e.
//! the paper's `e(o_a, o_b) = 1`. Operation inputs that are *primary inputs*
//! of the design (not produced by another operation) are tracked per node so
//! a simulator can feed concrete values.

use std::fmt;

use crate::op::OpKind;

/// Index of an operation node inside a [`Dfg`].
///
/// Node ids are dense (`0..dfg.len()`) and stable: the graph is append-only.
///
/// # Examples
///
/// ```
/// use troy_dfg::{Dfg, OpKind};
///
/// let mut g = Dfg::new("tiny");
/// let a = g.add_op(OpKind::Mul);
/// let b = g.add_op(OpKind::Add);
/// g.add_edge(a, b)?;
/// assert_eq!(a.index(), 0);
/// assert_eq!(b.index(), 1);
/// # Ok::<(), troy_dfg::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// The id is only meaningful against the [`Dfg`] it was minted for.
    #[must_use]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }

    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0 + 1) // match the paper's 1-based `o_i`
    }
}

/// One operation node: its kind, an optional label and its primary-input
/// arity (number of operands fed from outside the DFG rather than by edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpNode {
    kind: OpKind,
    label: Option<String>,
    primary_inputs: u8,
}

impl OpNode {
    /// The operation kind.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Optional human-readable label (e.g. `"t1"` in a benchmark listing).
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// How many of this node's operands are primary inputs.
    #[must_use]
    pub fn primary_inputs(&self) -> usize {
        usize::from(self.primary_inputs)
    }
}

/// Errors raised while constructing or validating a [`Dfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A referenced node id does not exist in this graph.
    UnknownNode(NodeId),
    /// An edge would duplicate an existing dependency.
    DuplicateEdge(NodeId, NodeId),
    /// A self-loop `a → a` was requested.
    SelfLoop(NodeId),
    /// Adding the edge would create a dependency cycle.
    WouldCycle(NodeId, NodeId),
    /// A binary operation ended up with more than two operands.
    TooManyOperands(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node {n}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::SelfLoop(n) => write!(f, "self loop on {n}"),
            GraphError::WouldCycle(a, b) => {
                write!(f, "edge {a} -> {b} would create a cycle")
            }
            GraphError::TooManyOperands(n) => {
                write!(f, "node {n} would have more than two operands")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A data-flow graph: the function-to-be-implemented (the paper's NC).
///
/// # Examples
///
/// Build `(x*x) + (a*x)`:
///
/// ```
/// use troy_dfg::{Dfg, OpKind};
///
/// let mut g = Dfg::new("poly-fragment");
/// let xx = g.add_op_with(OpKind::Mul, "xx", 2);
/// let ax = g.add_op_with(OpKind::Mul, "ax", 2);
/// let sum = g.add_op_with(OpKind::Add, "sum", 0);
/// g.add_edge(xx, sum)?;
/// g.add_edge(ax, sum)?;
///
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.critical_path_len(), 2);
/// assert_eq!(g.sinks().collect::<Vec<_>>(), vec![sum]);
/// # Ok::<(), troy_dfg::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Dfg {
    name: String,
    nodes: Vec<OpNode>,
    /// `succs[i]` = children of node i (consumers of its result).
    succs: Vec<Vec<NodeId>>,
    /// `preds[i]` = parents of node i (producers of its operands).
    preds: Vec<Vec<NodeId>>,
    /// Buffers of the cycle check in [`Dfg::add_edge`], reused across
    /// edges; not part of the graph's value.
    scratch: CycleScratch,
}

impl fmt::Debug for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dfg")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("succs", &self.succs)
            .field("preds", &self.preds)
            .finish_non_exhaustive()
    }
}

/// The depth-first search state of [`Dfg::add_edge`]'s cycle check: a
/// visit stamp per node (a node is seen when its stamp equals `stamp`,
/// so a new search costs no clearing) and the work stack. Clones start
/// empty and every pair of scratches compares equal, so the buffers never
/// show in a graph's value.
#[derive(Default)]
struct CycleScratch {
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<NodeId>,
}

impl Clone for CycleScratch {
    fn clone(&self) -> Self {
        CycleScratch::default()
    }
}

impl PartialEq for CycleScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for CycleScratch {}

impl Dfg {
    /// Creates an empty graph with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Dfg {
            name: name.into(),
            nodes: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            scratch: CycleScratch::default(),
        }
    }

    /// The graph's name (benchmark id).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operation nodes (the paper's `n`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends an operation with two primary inputs and no label.
    pub fn add_op(&mut self, kind: OpKind) -> NodeId {
        self.add_op_with_label(kind, None, 2)
    }

    /// Appends an operation with an explicit label and primary-input arity.
    ///
    /// `primary_inputs` is clamped when edges are added: a binary op with two
    /// incoming edges has zero remaining primary inputs.
    pub fn add_op_with(
        &mut self,
        kind: OpKind,
        label: impl Into<String>,
        primary_inputs: usize,
    ) -> NodeId {
        self.add_op_with_label(kind, Some(label.into()), primary_inputs)
    }

    fn add_op_with_label(
        &mut self,
        kind: OpKind,
        label: Option<String>,
        primary_inputs: usize,
    ) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(OpNode {
            kind,
            label,
            primary_inputs: primary_inputs.min(2) as u8,
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds the data dependency `from → to` (`to` consumes `from`'s result).
    ///
    /// The consumer's primary-input count is reduced by one: an edge replaces
    /// one external operand.
    ///
    /// # Errors
    ///
    /// Returns an error if either node is unknown, the edge already exists,
    /// it is a self-loop, the consumer already has two operands, or the edge
    /// would close a cycle.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if self.succs[from.index()].contains(&to) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        if self.preds[to.index()].len() >= 2 {
            return Err(GraphError::TooManyOperands(to));
        }
        if self.reaches(to, from) {
            return Err(GraphError::WouldCycle(from, to));
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        let node = &mut self.nodes[to.index()];
        node.primary_inputs = node.primary_inputs.saturating_sub(1);
        Ok(())
    }

    fn check_node(&self, n: NodeId) -> Result<(), GraphError> {
        if n.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownNode(n))
        }
    }

    /// Depth-first reachability query (`from` can reach `target`).
    ///
    /// A node without successors reaches only itself, which answers most
    /// edges of a graph built in topological order without a search.
    fn reaches(&mut self, from: NodeId, target: NodeId) -> bool {
        if self.succs[from.index()].is_empty() {
            return from == target;
        }
        let CycleScratch { seen, stamp, stack } = &mut self.scratch;
        *stamp = stamp.wrapping_add(1);
        if *stamp == 0 {
            seen.fill(0);
            *stamp = 1;
        }
        seen.resize(self.nodes.len(), 0);
        stack.clear();
        stack.push(from);
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if std::mem::replace(&mut seen[n.index()], *stamp) == *stamp {
                continue;
            }
            stack.extend(self.succs[n.index()].iter().copied());
        }
        false
    }

    /// The node payload for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &OpNode {
        &self.nodes[id.index()]
    }

    /// Operation kind of `id` (the paper's `ot(o_i)`).
    #[must_use]
    pub fn kind(&self, id: NodeId) -> OpKind {
        self.nodes[id.index()].kind
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Children of `id`: operations consuming its result.
    #[must_use]
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.index()]
    }

    /// Parents of `id`: operations producing its operands.
    #[must_use]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.index()]
    }

    /// All edges as `(producer, consumer)` pairs, in producer order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |a| self.succs(a).iter().map(move |&b| (a, b)))
    }

    /// Number of data-dependency edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Nodes with no predecessors (fed entirely by primary inputs).
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |n| self.preds(*n).is_empty())
    }

    /// Nodes with no successors (their results are primary outputs).
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |n| self.succs(*n).is_empty())
    }

    /// A topological order of all nodes (Kahn's algorithm).
    ///
    /// Construction guarantees acyclicity, so this always succeeds and
    /// returns every node exactly once.
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut ready: Vec<NodeId> = self.node_ids().filter(|n| indeg[n.index()] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(n) = ready.pop() {
            order.push(n);
            for &s in self.succs(n) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), self.len(), "graph must be acyclic");
        order
    }

    /// Length (in unit-latency cycles) of the longest dependency chain.
    ///
    /// This is the minimum feasible latency for scheduling the DFG, and 0 for
    /// an empty graph.
    #[must_use]
    pub fn critical_path_len(&self) -> usize {
        self.critical_path_len_in(&self.topo_order())
    }

    /// [`Dfg::critical_path_len`] along `order`, a topological order of
    /// this graph the caller already holds (see [`Dfg::topo_order`]).
    #[must_use]
    pub fn critical_path_len_in(&self, order: &[NodeId]) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut depth = vec![1usize; self.len()];
        for &n in order {
            for &s in self.succs(n) {
                depth[s.index()] = depth[s.index()].max(depth[n.index()] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Counts operations per [`OpKind`].
    #[must_use]
    pub fn op_histogram(&self) -> Vec<(OpKind, usize)> {
        let mut hist: Vec<(OpKind, usize)> = Vec::new();
        for kind in OpKind::all() {
            let count = self.nodes.iter().filter(|n| n.kind == kind).count();
            if count > 0 {
                hist.push((kind, count));
            }
        }
        hist
    }

    /// Sibling pairs: distinct `(a, b)` with `a < b` that feed the *same*
    /// child — the paper's Rule 2 "parents with the same child".
    #[must_use]
    pub fn sibling_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for n in self.node_ids() {
            let parents = self.preds(n);
            for (i, &a) in parents.iter().enumerate() {
                for &b in &parents[i + 1..] {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    if lo != hi {
                        out.push((lo, hi));
                    }
                }
            }
        }
        // Two children can share a parent pair.
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Disjoint union: appends every node and edge of `other` to `self`,
    /// returning the id offset applied to `other`'s nodes.
    ///
    /// Useful for building large scaling instances out of known kernels.
    ///
    /// # Examples
    ///
    /// ```
    /// use troy_dfg::benchmarks;
    ///
    /// let mut g = benchmarks::polynom();
    /// let offset = g.absorb(&benchmarks::diff2());
    /// assert_eq!(offset, 5);
    /// assert_eq!(g.len(), 16);
    /// ```
    pub fn absorb(&mut self, other: &Dfg) -> usize {
        let offset = self.len();
        for n in other.node_ids() {
            let node = other.node(n);
            // Reserve full arity; edges below consume slots as in `other`.
            let label = node.label().map_or_else(
                || format!("g{offset}n{}", n.index()),
                |l| format!("{l}_{offset}"),
            );
            let id = self.add_op_with(node.kind(), label, 2);
            debug_assert_eq!(id.index(), offset + n.index());
        }
        for (a, b) in other.edges() {
            self.add_edge(
                NodeId::new(offset + a.index()),
                NodeId::new(offset + b.index()),
            )
            .expect("disjoint copies of acyclic edges stay acyclic");
        }
        // Restore primary-input arities to match the source graph.
        for n in other.node_ids() {
            let want = other.node(n).primary_inputs();
            let id = offset + n.index();
            let have = self.nodes[id].primary_inputs();
            debug_assert!(have >= want || want <= 2);
            self.nodes[id].primary_inputs = want as u8;
        }
        offset
    }

    /// Checks internal invariants; meant for debug assertions and tests.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, if any.
    pub fn validate(&self) -> Result<(), GraphError> {
        for n in self.node_ids() {
            if self.preds(n).len() + self.node(n).primary_inputs() > 2 {
                return Err(GraphError::TooManyOperands(n));
            }
            for &s in self.succs(n) {
                self.check_node(s)?;
                if !self.preds(s).contains(&n) {
                    return Err(GraphError::UnknownNode(s));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Dfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dfg {} ({} ops, {} edges, depth {})",
            self.name,
            self.len(),
            self.edge_count(),
            self.critical_path_len()
        )?;
        for n in self.node_ids() {
            let node = self.node(n);
            write!(f, "  {n}: {}", node.kind())?;
            if let Some(l) = node.label() {
                write!(f, " [{l}]")?;
            }
            if !self.preds(n).is_empty() {
                write!(f, " <-")?;
                for p in self.preds(n) {
                    write!(f, " {p}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dfg, [NodeId; 4]) {
        // a   b
        //  \ / \
        //   c   d(sink of b only)... actually: c consumes a,b; d consumes c.
        let mut g = Dfg::new("diamond");
        let a = g.add_op(OpKind::Mul);
        let b = g.add_op(OpKind::Mul);
        let c = g.add_op(OpKind::Add);
        let d = g.add_op(OpKind::Add);
        g.add_edge(a, c).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.preds(c), &[a, b]);
        assert_eq!(g.succs(a), &[c]);
        assert_eq!(g.sources().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(g.sinks().collect::<Vec<_>>(), vec![d]);
        g.validate().unwrap();
    }

    #[test]
    fn critical_path_of_chain() {
        let mut g = Dfg::new("chain");
        let mut prev = g.add_op(OpKind::Add);
        for _ in 0..4 {
            let next = g.add_op(OpKind::Add);
            g.add_edge(prev, next).unwrap();
            prev = next;
        }
        assert_eq!(g.critical_path_len(), 5);
    }

    #[test]
    fn empty_graph_has_zero_depth() {
        let g = Dfg::new("empty");
        assert!(g.is_empty());
        assert_eq!(g.critical_path_len(), 0);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Dfg::new("g");
        let a = g.add_op(OpKind::Add);
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = Dfg::new("g");
        let a = g.add_op(OpKind::Add);
        let b = g.add_op(OpKind::Add);
        g.add_edge(a, b).unwrap();
        assert_eq!(g.add_edge(a, b), Err(GraphError::DuplicateEdge(a, b)));
    }

    #[test]
    fn cycle_rejected() {
        let mut g = Dfg::new("g");
        let a = g.add_op(OpKind::Add);
        let b = g.add_op(OpKind::Add);
        let c = g.add_op(OpKind::Add);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        assert_eq!(g.add_edge(c, a), Err(GraphError::WouldCycle(c, a)));
    }

    #[test]
    fn third_operand_rejected() {
        let mut g = Dfg::new("g");
        let a = g.add_op(OpKind::Add);
        let b = g.add_op(OpKind::Add);
        let c = g.add_op(OpKind::Add);
        let d = g.add_op(OpKind::Add);
        g.add_edge(a, d).unwrap();
        g.add_edge(b, d).unwrap();
        assert_eq!(g.add_edge(c, d), Err(GraphError::TooManyOperands(d)));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = Dfg::new("g");
        let a = g.add_op(OpKind::Add);
        let ghost = NodeId::new(7);
        assert_eq!(g.add_edge(a, ghost), Err(GraphError::UnknownNode(ghost)));
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topo_order();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for (a, b) in g.edges() {
            assert!(pos(a) < pos(b), "{a} must precede {b}");
        }
        assert_eq!(order.len(), g.len());
    }

    #[test]
    fn sibling_pairs_found() {
        let (g, [a, b, ..]) = diamond();
        assert_eq!(g.sibling_pairs(), vec![(a, b)]);
    }

    #[test]
    fn primary_inputs_decrease_with_edges() {
        let (g, [a, _, c, d]) = diamond();
        assert_eq!(g.node(a).primary_inputs(), 2);
        assert_eq!(g.node(c).primary_inputs(), 0);
        assert_eq!(g.node(d).primary_inputs(), 1);
    }

    #[test]
    fn display_mentions_name_and_ops() {
        let (g, _) = diamond();
        let s = g.to_string();
        assert!(s.contains("diamond"));
        assert!(s.contains("4 ops"));
    }

    #[test]
    fn op_histogram_counts() {
        let (g, _) = diamond();
        let hist = g.op_histogram();
        assert_eq!(hist, vec![(OpKind::Add, 2), (OpKind::Mul, 2)]);
    }

    #[test]
    fn absorb_concatenates_graphs() {
        let mut g = Dfg::new("combo");
        let a = g.add_op(OpKind::Mul);
        let b = g.add_op(OpKind::Add);
        g.add_edge(a, b).unwrap();
        let mut other = Dfg::new("other");
        let x = other.add_op(OpKind::Mul);
        let y = other.add_op(OpKind::Add);
        other.add_edge(x, y).unwrap();
        let off = g.absorb(&other);
        assert_eq!(off, 2);
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.succs(NodeId::new(2)), &[NodeId::new(3)]);
        // Primary-input arities mirror the source graph.
        assert_eq!(g.node(NodeId::new(3)).primary_inputs(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn node_id_display_is_one_based() {
        assert_eq!(NodeId::new(0).to_string(), "o1");
        assert_eq!(NodeId::new(10).to_string(), "o11");
    }
}
