//! Mini imperative (von Neumann) frontend.
//!
//! The paper derives its dataflow graphs from C-like source snippets
//! (§III-A1); this crate makes that derivation executable. [`compile`]
//! turns programs like
//!
//! ```text
//! int x = 1; int y = 5; int k = 3; int j = 2;
//! int m;
//! m = (x + y) - (k * j);
//! output m;
//! ```
//!
//! into [`DataflowGraph`]s — straight-line code by value numbering with
//! immediate fusion, `for` loops into the paper's Fig. 2 inctag/steer
//! pattern, `if`/`else` into the §II-A steer-and-merge pattern (branch
//! constants gated through the enclosing condition chain), with a static
//! *tag epoch* analysis that rejects programs whose tokens could never
//! tag-match at runtime (see [`codegen`] docs).
//!
//! Deliberate limits: a single `int` type, no
//! nested loops (those need TALM-style call tags, beyond the paper's node
//! set), and loop/if conditions must be comparisons.
//!
//! [`DataflowGraph`]: gammaflow_dataflow::graph::DataflowGraph

#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod parser;

pub use ast::{Expr, Program, Stmt};
pub use codegen::{compile, compile_program, CompileError};
pub use parser::{parse, FrontendError};
