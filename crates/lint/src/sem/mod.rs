//! The semantic analysis layer: item parsing, symbol resolution and the
//! workspace call graph the interprocedural privacy-taint rule runs on.
//!
//! The layer is built once per [`Workspace`] and cached (see
//! `Workspace::sem`).  Everything here stays within the
//! significant-token world of the hand-rolled lexer — no `syn`, no
//! dependencies — which bounds precision: resolution is name- and
//! path-based with receiver-type inference for simple cases, and the
//! rule is written to tolerate the resulting over-approximation
//! (method calls on untypeable receivers) without drowning in false
//! positives (candidates are limited to imported crates, constructors
//! and std calls resolve to nothing).

pub mod callgraph;
pub mod items;
pub mod symbols;

use crate::workspace::Workspace;
use callgraph::CallGraph;
use symbols::SymbolTable;

/// The built semantic model: symbols plus call graph.
#[derive(Debug)]
pub struct SemModel {
    /// Every analyzable function, with resolution indices.
    pub symbols: SymbolTable,
    /// Call sites and edges over `symbols`.
    pub graph: CallGraph,
}

impl SemModel {
    /// Builds the model for `ws`.
    pub fn build(ws: &Workspace) -> SemModel {
        let symbols = SymbolTable::build(ws);
        let graph = CallGraph::build(ws, &symbols);
        SemModel { symbols, graph }
    }
}
