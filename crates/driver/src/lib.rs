//! # smacs-driver — the scenario subsystem
//!
//! Two layers over the contract corpus in `smacs-contracts`:
//!
//! 1. **[`scenario`]** — named, reproducible worlds (chain + shielded
//!    corpus contracts + funded wallets + Access Control Rules + issuance
//!    templates);
//! 2. **[`repl`]** — the `smacs-repl` interactive driver, the repo's
//!    first interactive surface.
//!
//! ## `smacs-repl` command reference
//!
//! Lines are tokenized with the Solidity-subset lexer from `smacs-lang`,
//! so `//` comments, quoted strings, and hex numbers follow Solidity
//! rules. One command per line; errors print as `error: …` and never end
//! the session (scripts keep going). Token types are `super`, `method`,
//! `argument`.
//!
//! | Command | Effect |
//! |---|---|
//! | `help` | command summary |
//! | `scenarios` | list corpus scenarios |
//! | `scenario <name>` | load a scenario: deploys its contracts, funds wallets `w0..wN`, installs its rules |
//! | `deploy <kind>` | deploy one corpus contract behind a shield (`amm`, `pool`, `oracle`, `game`, `airdrop`) |
//! | `wallet <name>` | create and fund a wallet |
//! | `wallets` / `contracts` / `tokens` | list session state |
//! | `rules permissive` \| `rules deny` | reset the TS rule book |
//! | `allow <type> sender <wallet>` | whitelist a wallet at type level |
//! | `allow <type> method "<sig>" <wallet>` | whitelist a wallet for one method |
//! | `allow <type> arg "<name>" "<value>"` | whitelist an argument value |
//! | `deny <type> arg "<name>" "<value>"` | blacklist an argument value |
//! | `mint <type> <wallet> <contract> ["<sig>"] [once]` | request a token from the TS (prints `token #N …`) |
//! | `call <wallet> <contract> "<sig>" (<args>) [value <n>] [using <ids>]` | fire a transaction; without `using`, auto-mints an argument token binding the exact calldata |
//! | `receipt` | dump the last receipt: status, gas, logs, call trace |
//! | `storage <contract> <slot>` | read a raw storage slot |
//! | `advance <secs>` / `time` | move or show chain + TS time |
//! | `quit` / `exit` | end the session |
//!
//! A fresh session starts with a **deny-all** rule book — the first
//! `mint` fails until rules are granted, which makes the TS's
//! deny-by-default posture visible interactively.

#![forbid(unsafe_code)]

pub mod repl;
pub mod scenario;

pub use repl::{parse, Command, Repl};
pub use scenario::{ScenarioWorld, SCENARIOS};
