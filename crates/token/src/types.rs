//! The token itself: types, the 86-byte wire image, and expiry/one-time
//! semantics.

use smacs_crypto::{Signature, SignatureError};
use std::fmt;

/// Sentinel `index` value for tokens *without* the one-time property. The
/// paper sets the one-time property iff `index` is non-negative (§IV-A),
/// and Alg. 1 checks `tk.index > −1`.
pub const NO_INDEX: i128 = -1;

/// The three token types of §IV-A, ordered by decreasing permission scope.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TokenType {
    /// Highest permission level: call all public methods with arbitrary
    /// arguments until expiry.
    Super,
    /// Call one specific method (identified by `msg.sig`) with arbitrary
    /// arguments until expiry.
    Method,
    /// Call one specific method with specific argument values only.
    Argument,
}

impl TokenType {
    /// Wire code (the 1-byte `type` field).
    pub fn code(self) -> u8 {
        match self {
            TokenType::Super => 1,
            TokenType::Method => 2,
            TokenType::Argument => 3,
        }
    }

    /// Parse a wire code.
    pub fn from_code(code: u8) -> Option<TokenType> {
        match code {
            1 => Some(TokenType::Super),
            2 => Some(TokenType::Method),
            3 => Some(TokenType::Argument),
            _ => None,
        }
    }

    /// All types, for sweeps in tests and benchmarks.
    pub const ALL: [TokenType; 3] = [TokenType::Super, TokenType::Method, TokenType::Argument];
}

impl fmt::Display for TokenType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenType::Super => write!(f, "super"),
            TokenType::Method => write!(f, "method"),
            TokenType::Argument => write!(f, "argument"),
        }
    }
}

impl smacs_primitives::json::ToJson for TokenType {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "\"{self}\"");
    }
}

impl smacs_primitives::json::FromJson<'_> for TokenType {
    fn from_json(
        json: &smacs_primitives::json::Json,
    ) -> Result<Self, smacs_primitives::json::JsonError> {
        match json.as_str() {
            Some("super") => Ok(TokenType::Super),
            Some("method") => Ok(TokenType::Method),
            Some("argument") => Ok(TokenType::Argument),
            other => Err(smacs_primitives::json::JsonError(format!(
                "unknown token type {other:?}"
            ))),
        }
    }
}

/// Token decode failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenCodecError {
    /// Wire image was not exactly 86 bytes.
    BadLength {
        /// The length encountered.
        got: usize,
    },
    /// Unknown `type` byte.
    BadType(u8),
    /// Signature bytes malformed.
    BadSignature(SignatureError),
}

impl fmt::Display for TokenCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenCodecError::BadLength { got } => {
                write!(f, "token must be {} bytes, got {got}", Token::SIZE)
            }
            TokenCodecError::BadType(code) => write!(f, "unknown token type code {code}"),
            TokenCodecError::BadSignature(e) => write!(f, "bad token signature field: {e}"),
        }
    }
}

impl std::error::Error for TokenCodecError {}

/// The 86-byte access token of Fig. 3.
///
/// ```text
/// type  expire  index  signature
///  1B     4B     16B      65B      = 86 bytes
/// ```
///
/// `signature = Sign_skTS(type ‖ expire ‖ index ‖ reqPayload)` — computed by
/// the Token Service at issuance over the request payload, reconstructed by
/// the contract from its own transaction context at verification (Alg. 1).
///
/// ```
/// use smacs_token::{Token, TokenType, NO_INDEX};
/// use smacs_crypto::Keypair;
///
/// let token = Token {
///     ttype: TokenType::Method,
///     expire: 1_600_000_000,
///     index: NO_INDEX,
///     signature: Keypair::from_seed(1).sign_message(b"demo"),
/// };
/// let wire = token.to_bytes();
/// assert_eq!(wire.len(), 86); // Fig. 3
/// assert_eq!(Token::from_bytes(&wire).unwrap(), token);
/// assert!(!token.is_one_time());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token {
    /// Token type.
    pub ttype: TokenType,
    /// Expiration time (Unix seconds, compared against `block.timestamp`).
    pub expire: u32,
    /// One-time index; [`NO_INDEX`] (−1) when the one-time property is not
    /// set. 16 bytes on the wire (two's-complement big-endian).
    pub index: i128,
    /// The TS signature binding the token to its usage context.
    pub signature: Signature,
}

impl Token {
    /// Wire size: 86 bytes (Fig. 3).
    pub const SIZE: usize = 1 + 4 + 16 + Signature::SIZE;

    /// Whether the one-time property is set (`index > −1`, as Alg. 1 puts
    /// it).
    pub fn is_one_time(&self) -> bool {
        self.index > -1
    }

    /// Whether the token has expired at time `now` (Alg. 1's first check:
    /// reject if `now() > tk.expire`).
    pub fn is_expired(&self, now: u64) -> bool {
        now > self.expire as u64
    }

    /// Serialize to the 86-byte wire image.
    pub fn to_bytes(&self) -> [u8; Token::SIZE] {
        let mut out = [0u8; Token::SIZE];
        out[0] = self.ttype.code();
        out[1..5].copy_from_slice(&self.expire.to_be_bytes());
        out[5..21].copy_from_slice(&self.index.to_be_bytes());
        out[21..].copy_from_slice(&self.signature.to_bytes());
        out
    }

    /// Parse from the 86-byte wire image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Token, TokenCodecError> {
        if bytes.len() != Token::SIZE {
            return Err(TokenCodecError::BadLength { got: bytes.len() });
        }
        let ttype = TokenType::from_code(bytes[0]).ok_or(TokenCodecError::BadType(bytes[0]))?;
        let expire = u32::from_be_bytes(bytes[1..5].try_into().expect("4 bytes"));
        let index = i128::from_be_bytes(bytes[5..21].try_into().expect("16 bytes"));
        let signature =
            Signature::from_bytes(&bytes[21..]).map_err(TokenCodecError::BadSignature)?;
        Ok(Token {
            ttype,
            expire,
            index,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_crypto::Keypair;

    fn sample_token(ttype: TokenType, index: i128) -> Token {
        let kp = Keypair::from_seed(42);
        Token {
            ttype,
            expire: 1_600_000_000,
            index,
            signature: kp.sign_message(b"sample"),
        }
    }

    #[test]
    fn wire_size_is_86_bytes() {
        assert_eq!(Token::SIZE, 86);
        let tk = sample_token(TokenType::Super, NO_INDEX);
        assert_eq!(tk.to_bytes().len(), 86);
    }

    #[test]
    fn round_trip_all_types() {
        for ttype in TokenType::ALL {
            for index in [NO_INDEX, 0, 1, i128::MAX] {
                let tk = sample_token(ttype, index);
                let back = Token::from_bytes(&tk.to_bytes()).unwrap();
                assert_eq!(back, tk);
            }
        }
    }

    #[test]
    fn one_time_property_follows_index_sign() {
        assert!(!sample_token(TokenType::Super, NO_INDEX).is_one_time());
        assert!(sample_token(TokenType::Super, 0).is_one_time());
        assert!(sample_token(TokenType::Super, 7).is_one_time());
        assert!(!sample_token(TokenType::Super, -5).is_one_time());
    }

    #[test]
    fn expiry_boundary() {
        let tk = sample_token(TokenType::Method, NO_INDEX);
        assert!(!tk.is_expired(tk.expire as u64)); // now == expire: still valid
        assert!(!tk.is_expired(tk.expire as u64 - 1));
        assert!(tk.is_expired(tk.expire as u64 + 1));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            Token::from_bytes(&[0u8; 85]),
            Err(TokenCodecError::BadLength { got: 85 })
        ));
        let mut bytes = sample_token(TokenType::Super, NO_INDEX).to_bytes();
        bytes[0] = 99;
        assert!(matches!(
            Token::from_bytes(&bytes),
            Err(TokenCodecError::BadType(99))
        ));
        let mut bytes = sample_token(TokenType::Super, NO_INDEX).to_bytes();
        bytes[85] = 77; // recovery id byte must be 27/28
        assert!(matches!(
            Token::from_bytes(&bytes),
            Err(TokenCodecError::BadSignature(_))
        ));
    }

    #[test]
    fn type_codes_round_trip() {
        for ttype in TokenType::ALL {
            assert_eq!(TokenType::from_code(ttype.code()), Some(ttype));
        }
        assert_eq!(TokenType::from_code(0), None);
        assert_eq!(TokenType::from_code(4), None);
    }
}
