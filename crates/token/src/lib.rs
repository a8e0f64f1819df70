//! SMACS token and token-request wire formats.
//!
//! The paper defines three artifacts this crate implements byte-for-byte:
//!
//! - the **86-byte token** (Fig. 3): `type (1) ‖ expire (4) ‖ index (16) ‖
//!   signature (65)` — see [`Token`];
//! - the **token request** (Fig. 2 / Tab. I): `type ‖ cAddr ‖ sAddr ‖
//!   methodId ‖ (argName, argValue)…`, with the tail fields present
//!   according to the requested type — see [`TokenRequest`];
//! - the **signing payload**: the byte string
//!   `type ‖ expire ‖ index ‖ reqPayload` the TS signs at issuance, which
//!   the contract later *reconstructs from its own transaction context*
//!   (Alg. 1) so the signature cryptographically binds the token to exactly
//!   one usage context — see [`payload`];
//! - the **call-chain token array** (§IV-D): `SC_A: tk_A ‖ SC_B: tk_B ‖ …`
//!   embedded in calldata so every contract on the chain can extract its
//!   own token — see [`array`](mod@array).

pub mod array;
pub mod payload;
pub mod request;
pub mod types;

pub use array::{append_tokens, split_tokens, TokenArray, TokenArrayError};
pub use payload::{signing_digest, signing_payload, PayloadContext};
pub use request::{ArgBinding, RequestError, TokenRequest};
pub use types::{Token, TokenCodecError, TokenType, NO_INDEX};
