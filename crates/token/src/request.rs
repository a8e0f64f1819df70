//! Token requests: what a client submits to the Token Service.
//!
//! Fig. 2 gives the request fields and Tab. I the per-type field matrix:
//!
//! | type     | cAddr | sAddr | methodId | argName/argValue |
//! |----------|-------|-------|----------|------------------|
//! | Super    |  ✓    |  ✓    |          |                  |
//! | Method   |  ✓    |  ✓    |  ✓       |                  |
//! | Argument |  ✓    |  ✓    |  ✓       |  ✓ (repeated)    |
//!
//! `methodId` is carried as the canonical Solidity signature string (e.g.
//! `"withdraw(uint256)"`). A method token binds the 4-byte selector derived
//! from it. An argument request also carries the exact calldata it binds,
//! and its token's selector is that calldata's first four bytes, so the
//! calldata must begin with `methodId`'s selector. The argument bindings
//! are the client's declaration of what that calldata decodes to. The TS
//! carries these fields as JSON and parses them with
//! [`TokenRequest::binding`].

use smacs_chain::abi::{selector, Selector};
use smacs_primitives::hexutil;
use smacs_primitives::json::{FromJson, Hex, Json, JsonError, ObjectWriter, ToJson};
use smacs_primitives::Address;
use std::borrow::Cow;
use std::fmt;

use crate::payload::Binding;
use crate::types::TokenType;

smacs_primitives::json_codec! {
    /// A named argument binding in an argument-token request.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ArgBinding {
        /// Argument name (`argName`).
        pub name: String,
        /// Argument value, rendered canonically (`argValue`).
        pub value: String,
    }
}

/// A client's token request (Fig. 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TokenRequest {
    /// Requested token type.
    pub ttype: TokenType,
    /// Target contract address (`cAddr`).
    pub contract: Address,
    /// Requesting client address (`sAddr`).
    pub sender: Address,
    /// Canonical method signature (`methodId`); required for method and
    /// argument tokens.
    pub method: Option<String>,
    /// Argument bindings; meaningful for argument tokens only.
    pub args: Vec<ArgBinding>,
    /// The exact payload calldata (selector + ABI-encoded arguments) the
    /// client will send; required for argument tokens so the TS can bind
    /// the signature to `msg.data` (and feed runtime-verification tools).
    pub calldata: Option<Vec<u8>>,
    /// Whether the client asks for the one-time property.
    pub one_time: bool,
}

/// Request validation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RequestError {
    /// Method/argument request without a `methodId`.
    MissingMethod,
    /// Argument request without calldata to bind.
    MissingCalldata,
    /// Super/method request carrying argument bindings.
    UnexpectedArgs,
    /// Argument request whose calldata does not begin with the selector
    /// of its `methodId` (or is shorter than a selector).
    SelectorMismatch,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::MissingMethod => write!(f, "request requires a methodId"),
            RequestError::MissingCalldata => {
                write!(f, "argument request requires bound calldata")
            }
            RequestError::UnexpectedArgs => {
                write!(f, "argument bindings only valid for argument tokens")
            }
            RequestError::SelectorMismatch => {
                write!(
                    f,
                    "argument calldata must begin with the methodId's selector"
                )
            }
        }
    }
}

impl std::error::Error for RequestError {}

impl TokenRequest {
    /// A well-formed super-token request.
    pub fn super_token(contract: Address, sender: Address) -> Self {
        TokenRequest {
            ttype: TokenType::Super,
            contract,
            sender,
            method: None,
            args: Vec::new(),
            calldata: None,
            one_time: false,
        }
    }

    /// A well-formed method-token request.
    pub fn method_token(contract: Address, sender: Address, method: impl Into<String>) -> Self {
        TokenRequest {
            ttype: TokenType::Method,
            contract,
            sender,
            method: Some(method.into()),
            args: Vec::new(),
            calldata: None,
            one_time: false,
        }
    }

    /// A well-formed argument-token request binding `calldata`.
    pub fn argument_token(
        contract: Address,
        sender: Address,
        method: impl Into<String>,
        args: Vec<ArgBinding>,
        calldata: Vec<u8>,
    ) -> Self {
        TokenRequest {
            ttype: TokenType::Argument,
            contract,
            sender,
            method: Some(method.into()),
            args,
            calldata: Some(calldata),
            one_time: false,
        }
    }

    /// Request the one-time property.
    pub fn one_time(mut self) -> Self {
        self.one_time = true;
        self
    }

    /// Parse the request into what its token binds, enforcing Tab. I's
    /// field matrix: a method or argument request names a `methodId`, an
    /// argument request carries calldata that begins with that method's
    /// selector, and only an argument request declares argument bindings.
    pub fn binding(&self) -> Result<Binding<'_>, RequestError> {
        match self.ttype {
            TokenType::Super if !self.args.is_empty() => Err(RequestError::UnexpectedArgs),
            TokenType::Super => Ok(Binding::Super),
            TokenType::Method => {
                let method = self.method.as_deref().ok_or(RequestError::MissingMethod)?;
                if !self.args.is_empty() {
                    return Err(RequestError::UnexpectedArgs);
                }
                Ok(Binding::Method(selector(method)))
            }
            TokenType::Argument => {
                let method = self.method.as_deref().ok_or(RequestError::MissingMethod)?;
                let calldata = self
                    .calldata
                    .as_deref()
                    .ok_or(RequestError::MissingCalldata)?;
                match Selector::from_calldata(calldata) {
                    Some(bound) if bound == selector(method) => Ok(Binding::Argument(calldata)),
                    _ => Err(RequestError::SelectorMismatch),
                }
            }
        }
    }

    /// The 4-byte selector derived from `methodId`, if present.
    pub fn selector(&self) -> Option<Selector> {
        self.method.as_deref().map(selector)
    }
}

// Hand-written rather than `json_codec!`: calldata crosses the wire as a
// hex string (`"0x…"`), not a JSON byte array, so the field needs a custom
// encoding the macro doesn't model.
impl ToJson for TokenRequest {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .member("ttype", &self.ttype)
            .member("contract", &self.contract)
            .member("sender", &self.sender)
            .member("method", &self.method)
            .member("args", &self.args)
            .member("calldata", &self.calldata.as_deref().map(Hex))
            .member("one_time", &self.one_time)
            .end();
    }
}

impl FromJson<'_> for TokenRequest {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        // Optional fields tolerate absence (not just explicit null), matching
        // the serde-derived codec this replaces: a super-token request may
        // simply omit "method", "args", "calldata", and "one_time".
        let calldata = Option::<Cow<str>>::from_json_field(json, "calldata")?
            .map(|s| {
                hexutil::decode_flexible(&s)
                    .ok_or_else(|| JsonError(format!("bad calldata hex {s:?}")))
            })
            .transpose()?;
        Ok(TokenRequest {
            ttype: FromJson::from_json_field(json, "ttype")?,
            contract: FromJson::from_json_field(json, "contract")?,
            sender: FromJson::from_json_field(json, "sender")?,
            method: FromJson::from_json_field(json, "method")?,
            args: Option::from_json_field(json, "args")?.unwrap_or_default(),
            calldata,
            one_time: Option::from_json_field(json, "one_time")?.unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn contract() -> Address {
        Address::from_low_u64(0xC0)
    }

    fn sender() -> Address {
        Address::from_low_u64(0x5E)
    }

    #[test]
    fn constructors_parse_into_their_bindings() {
        let req = TokenRequest::super_token(contract(), sender());
        assert_eq!(req.binding(), Ok(Binding::Super));
        let req = TokenRequest::method_token(contract(), sender(), "f()");
        assert_eq!(req.binding(), Ok(Binding::Method(selector("f()"))));
        let calldata = [&selector("f(uint256)").0[..], &[0xde, 0xad]].concat();
        let req = TokenRequest::argument_token(
            contract(),
            sender(),
            "f(uint256)",
            vec![ArgBinding {
                name: "x".into(),
                value: "1".into(),
            }],
            calldata.clone(),
        );
        assert_eq!(req.binding(), Ok(Binding::Argument(&calldata)));
    }

    #[test]
    fn tab1_field_matrix_enforced() {
        // Super with args: rejected.
        let mut req = TokenRequest::super_token(contract(), sender());
        req.args.push(ArgBinding {
            name: "x".into(),
            value: "1".into(),
        });
        assert_eq!(req.binding(), Err(RequestError::UnexpectedArgs));

        // Method without methodId: rejected.
        let mut req = TokenRequest::method_token(contract(), sender(), "f()");
        req.method = None;
        assert_eq!(req.binding(), Err(RequestError::MissingMethod));

        // Argument without calldata: rejected.
        let mut req = TokenRequest::argument_token(contract(), sender(), "f()", vec![], vec![1]);
        req.calldata = None;
        assert_eq!(req.binding(), Err(RequestError::MissingCalldata));
    }

    #[test]
    fn argument_calldata_must_begin_with_the_methods_selector() {
        let ping = selector("ping(uint256,uint256)").0;
        let request = |method: &str, calldata: &[u8]| {
            TokenRequest::argument_token(contract(), sender(), method, vec![], calldata.to_vec())
        };
        for calldata in [&ping[..], &[&ping[..], &[0; 68]].concat()] {
            let req = request("ping(uint256,uint256)", calldata);
            assert_eq!(req.binding(), Ok(Binding::Argument(calldata)));
        }
        for (method, calldata) in [
            ("total()", &ping[..]),
            ("ping(uint256,uint256)", &[0xAB; 68][..]),
            ("ping(uint256,uint256)", &ping[..3]),
            ("ping(uint256,uint256)", &[]),
        ] {
            let req = request(method, calldata);
            assert_eq!(
                req.binding(),
                Err(RequestError::SelectorMismatch),
                "{method}"
            );
        }
    }

    #[test]
    fn selector_derivation() {
        let req = TokenRequest::method_token(contract(), sender(), "transfer(address,uint256)");
        assert_eq!(req.selector().unwrap().to_hex(), "0xa9059cbb");
        assert_eq!(
            TokenRequest::super_token(contract(), sender()).selector(),
            None
        );
    }

    #[test]
    fn json_accepts_omitted_optional_fields() {
        // External clients may omit every non-required field, as the old
        // serde-derived codec allowed.
        let json = format!(
            r#"{{"ttype":"super","contract":"{}","sender":"{}"}}"#,
            contract().to_hex(),
            sender().to_hex()
        );
        let req: TokenRequest = smacs_primitives::json::from_str(&json).unwrap();
        assert_eq!(req, TokenRequest::super_token(contract(), sender()));
        assert_eq!(req.binding(), Ok(Binding::Super));
    }

    #[test]
    fn json_round_trip() {
        let req = TokenRequest::argument_token(
            contract(),
            sender(),
            "f(uint256)",
            vec![ArgBinding {
                name: "x".into(),
                value: "7".into(),
            }],
            vec![0xab],
        );
        let json = smacs_primitives::json::to_string(&req);
        let back: TokenRequest = smacs_primitives::json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    proptest! {
        #[test]
        fn prop_json_round_trip(
            type_idx in 0usize..3,
            addrs in any::<[[u8; 20]; 2]>(),
            method in prop::collection::vec(TRICKY, 0..2),
            args in prop::collection::vec((TRICKY, TRICKY), 0..4),
            calldata in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..2),
            one_time in any::<bool>(),
        ) {
            let req = TokenRequest {
                ttype: TokenType::ALL[type_idx],
                contract: Address(addrs[0]),
                sender: Address(addrs[1]),
                method: method.into_iter().next(),
                args: args.into_iter().map(|(name, value)| ArgBinding { name, value }).collect(),
                calldata: calldata.into_iter().next(),
                one_time,
            };
            let mut text = String::new();
            req.write_json(&mut text);
            prop_assert_eq!(smacs_primitives::json::from_str::<TokenRequest>(&text).unwrap(), req);
        }
    }

    /// Strings that need every kind of JSON escaping: quotes, backslashes,
    /// control characters, and non-ASCII up to the astral plane.
    const TRICKY: &str = "[a-z0-9 \"\\\\/\u{0}\u{1}\u{8}\u{c}\n\r\t\u{1f}\u{7f}é€😀]{0,12}";
}
