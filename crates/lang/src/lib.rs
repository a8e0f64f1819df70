//! # smacs-lang — a Solidity-lite front end and the Fig. 4 adoption tool
//!
//! "To facilitate easy adoption we develop a tool that allows to transform
//! any legacy smart contract into an equivalent SMACS-enabled smart
//! contract" (§IV-B). This crate implements that tool over a Solidity
//! subset sufficient for the paper's example contracts:
//!
//! - [`lexer`] / [`parser`] / [`ast`] — the front end;
//! - [`printer`] — source renderer (parse ∘ print is the identity on the
//!   AST, property-tested);
//! - [`interp`] — an interpreter: Solidity-lite contracts run directly on
//!   the chain simulator (real selectors, gas-charged storage, message
//!   calls incl. the Fig. 7 low-level `.call.value()()` pattern);
//! - [`transform`] — the Fig. 4 rewrite: every `public`/`external` method
//!   gains a `token` parameter and an `assert(verify(token))` prologue;
//!   public methods that are *also called internally* are split into a
//!   verifying public wrapper and a private `_name` body, and internal
//!   call sites are rewired to the private half (so internal calls never
//!   re-verify, exactly as Fig. 4 shows).

#![forbid(unsafe_code)]

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod transform;

pub use ast::{ContractDef, Expr, Function, SourceUnit, Stmt, Visibility};
pub use interp::{InterpretedContract, Value};
pub use lexer::{tokenize, LexError, Token};
pub use parser::{parse, ParseError};
pub use printer::print_source;
pub use transform::smacs_enable;
