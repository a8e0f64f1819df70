//! Call-chain token arrays (§IV-D) and their calldata embedding.
//!
//! A transaction that triggers a call chain `SC_A → SC_B → SC_C` must carry
//! one token per SMACS-enabled contract on the chain:
//!
//! ```text
//! SC_A: tk_A ‖ SC_B: tk_B ‖ SC_C: tk_C
//! ```
//!
//! Each entry is `address (20) ‖ token (86)` = 106 bytes. The array is
//! appended to the *payload calldata* (selector + ABI-encoded application
//! arguments) with a 4-byte length suffix:
//!
//! ```text
//! calldata = payload ‖ entries… ‖ entry_count (4, BE)
//! ```
//!
//! The trailing count lets a receiving contract split the original payload
//! from the token array without parsing the ABI — `extractToken(T)` in
//! Alg. 1 — and, crucially, lets argument-token signatures bind the
//! *payload* bytes (a signature cannot cover itself). When a contract calls
//! the next contract on the chain, it passes the same array along, and each
//! callee parses out its own token (Fig. 5's flow).

use smacs_primitives::Address;
use std::fmt;

use crate::types::{Token, TokenCodecError};

/// Size of one array entry: 20-byte address + 86-byte token.
pub const ENTRY_SIZE: usize = 20 + Token::SIZE;

/// Token-array parse failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenArrayError {
    /// Calldata too short to hold the announced array.
    Truncated,
    /// An embedded token failed to decode.
    BadToken(TokenCodecError),
    /// Entry count suffix missing.
    MissingCount,
}

impl fmt::Display for TokenArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenArrayError::Truncated => write!(f, "token array truncated"),
            TokenArrayError::BadToken(e) => write!(f, "bad token in array: {e}"),
            TokenArrayError::MissingCount => write!(f, "missing token-array count suffix"),
        }
    }
}

impl std::error::Error for TokenArrayError {}

/// An ordered list of `(contract, token)` pairs — one per SMACS-enabled
/// contract on the intended call chain.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TokenArray {
    entries: Vec<(Address, Token)>,
}

impl TokenArray {
    /// Empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a token for `contract`.
    pub fn push(&mut self, contract: Address, token: Token) {
        self.entries.push((contract, token));
    }

    /// Builder-style [`TokenArray::push`].
    pub fn with(mut self, contract: Address, token: Token) -> Self {
        self.push(contract, token);
        self
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in order.
    pub fn entries(&self) -> &[(Address, Token)] {
        &self.entries
    }

    /// Find the token addressed to `contract` — what each contract on the
    /// chain does on receipt ("it can extract the token associated with its
    /// address", §IV-D).
    pub fn token_for(&self, contract: Address) -> Option<&Token> {
        self.entries
            .iter()
            .find(|(addr, _)| *addr == contract)
            .map(|(_, tk)| tk)
    }

    /// Serialize entries (without the count suffix).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * ENTRY_SIZE);
        for (addr, token) in &self.entries {
            out.extend_from_slice(addr.as_bytes());
            out.extend_from_slice(&token.to_bytes());
        }
        out
    }

    /// Parse `count` entries from `bytes`.
    pub fn from_bytes(bytes: &[u8], count: usize) -> Result<TokenArray, TokenArrayError> {
        if bytes.len() != array_len(count)? {
            return Err(TokenArrayError::Truncated);
        }
        let mut entries = Vec::with_capacity(count);
        for chunk in bytes.chunks_exact(ENTRY_SIZE) {
            let addr = Address::from_slice(&chunk[..20]).expect("20 bytes");
            let token = Token::from_bytes(&chunk[20..]).map_err(TokenArrayError::BadToken)?;
            entries.push((addr, token));
        }
        Ok(TokenArray { entries })
    }
}

/// The byte length of `count` entries; a count no calldata could hold
/// (the product overflows) is `Truncated`.
fn array_len(count: usize) -> Result<usize, TokenArrayError> {
    count
        .checked_mul(ENTRY_SIZE)
        .ok_or(TokenArrayError::Truncated)
}

/// Embed a token array into calldata:
/// `payload ‖ entries ‖ count (4, BE)`.
pub fn append_tokens(payload: &[u8], tokens: &TokenArray) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + tokens.len() * ENTRY_SIZE + 4);
    out.extend_from_slice(payload);
    out.extend_from_slice(&tokens.to_bytes());
    out.extend_from_slice(&(tokens.len() as u32).to_be_bytes());
    out
}

/// Split embedded calldata back into `(payload, tokens)` — the contract's
/// `extractToken(T)` plus original-calldata recovery.
pub fn split_tokens(data: &[u8]) -> Result<(&[u8], TokenArray), TokenArrayError> {
    if data.len() < 4 {
        return Err(TokenArrayError::MissingCount);
    }
    let (rest, count_bytes) = data.split_at(data.len() - 4);
    let count = u32::from_be_bytes(count_bytes.try_into().expect("4 bytes")) as usize;
    let array_len = array_len(count)?;
    if rest.len() < array_len {
        return Err(TokenArrayError::Truncated);
    }
    let (payload, array_bytes) = rest.split_at(rest.len() - array_len);
    let tokens = TokenArray::from_bytes(array_bytes, count)?;
    Ok((payload, tokens))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{TokenType, NO_INDEX};
    use proptest::prelude::*;
    use smacs_crypto::Keypair;

    fn token(seed: u64, ttype: TokenType) -> Token {
        Token {
            ttype,
            expire: 2_000_000_000,
            index: NO_INDEX,
            signature: Keypair::from_seed(seed).sign_message(b"tk"),
        }
    }

    #[test]
    fn lookup_by_contract() {
        let a = Address::from_low_u64(1);
        let b = Address::from_low_u64(2);
        let array = TokenArray::new()
            .with(a, token(1, TokenType::Super))
            .with(b, token(2, TokenType::Method));
        assert_eq!(array.token_for(a).unwrap().ttype, TokenType::Super);
        assert_eq!(array.token_for(b).unwrap().ttype, TokenType::Method);
        assert!(array.token_for(Address::from_low_u64(3)).is_none());
    }

    #[test]
    fn embed_and_split() {
        let payload = vec![0xde, 0xad, 0xbe, 0xef, 1, 2, 3];
        let array = TokenArray::new()
            .with(Address::from_low_u64(1), token(1, TokenType::Super))
            .with(Address::from_low_u64(2), token(2, TokenType::Argument));
        let embedded = append_tokens(&payload, &array);
        assert_eq!(embedded.len(), payload.len() + 2 * ENTRY_SIZE + 4);
        let (got_payload, got_array) = split_tokens(&embedded).unwrap();
        assert_eq!(got_payload, &payload[..]);
        assert_eq!(got_array, array);
    }

    #[test]
    fn empty_array_embedding() {
        let payload = vec![1, 2, 3, 4];
        let embedded = append_tokens(&payload, &TokenArray::new());
        let (got_payload, got_array) = split_tokens(&embedded).unwrap();
        assert_eq!(got_payload, &payload[..]);
        assert!(got_array.is_empty());
    }

    #[test]
    fn split_rejects_garbage() {
        assert_eq!(split_tokens(&[1, 2]), Err(TokenArrayError::MissingCount));
        // Count says 1 entry but no bytes for it.
        let mut data = vec![0u8; 4];
        data[3] = 1;
        assert_eq!(split_tokens(&data), Err(TokenArrayError::Truncated));
        // Huge count must not overflow.
        let data = vec![0xff; 8];
        assert!(split_tokens(&data).is_err());
    }

    #[test]
    fn from_bytes_refuses_counts_whose_length_overflows() {
        for count in [1 << 63, usize::MAX] {
            assert_eq!(
                TokenArray::from_bytes(&[], count),
                Err(TokenArrayError::Truncated)
            );
        }
    }

    #[test]
    fn corrupt_token_in_array_detected() {
        let array = TokenArray::new().with(Address::from_low_u64(1), token(1, TokenType::Super));
        let mut embedded = append_tokens(b"pay", &array);
        // Clobber the token's type byte (payload is 3 bytes, then 20 addr).
        embedded[3 + 20] = 0xEE;
        assert!(matches!(
            split_tokens(&embedded),
            Err(TokenArrayError::BadToken(_))
        ));
    }

    proptest! {
        #[test]
        fn prop_embed_split_round_trip(
            payload in prop::collection::vec(any::<u8>(), 0..200),
            seeds in prop::collection::vec(1u64..1000, 0..5),
        ) {
            let mut array = TokenArray::new();
            for (i, seed) in seeds.iter().enumerate() {
                array.push(
                    Address::from_low_u64(i as u64 + 1),
                    token(*seed, TokenType::ALL[i % 3]),
                );
            }
            let embedded = append_tokens(&payload, &array);
            let (got_payload, got_array) = split_tokens(&embedded).unwrap();
            prop_assert_eq!(got_payload, &payload[..]);
            prop_assert_eq!(got_array, array);
        }

        #[test]
        fn prop_split_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = split_tokens(&data);
        }
    }
}
