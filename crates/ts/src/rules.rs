//! Access Control Rules: the Fig. 6 white/blacklist structure.
//!
//! ```json
//! {
//!   "sender":   { "whitelist": ["0x366c…", "0xd488…"] },
//!   "method":   { "methodA": { "blacklist": ["0xBa7F…"] } },
//!   "argument": { "argA":    { "whitelist": ["0x3540…"] } }
//! }
//! ```
//!
//! Rules are organized per token type ("for every token type, there is a
//! set of rules associated with it", §IV-E): each type carries its own
//! sender policy, per-method sender policies, and per-argument value
//! policies, so "an address whitelisted for super tokens can be blacklisted
//! for argument tokens". All lists are dynamically updatable by the owner
//! — no contract change required.

use smacs_primitives::json::{FromJson, Json, JsonError, ObjectWriter, ToJson};
use smacs_primitives::Address;
use smacs_token::{ArgBinding, TokenRequest, TokenType};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A whitelist or blacklist over string-rendered subjects (addresses are
/// stored in their canonical `0x…` form; argument values verbatim, so
/// "it is possible to blacklist dangerous argument values", §IV-E).
///
/// ```
/// use smacs_ts::ListPolicy;
///
/// let mut employees = ListPolicy::deny_all(); // empty whitelist
/// employees.insert("0xaa..01");
/// assert!(employees.permits("0xaa..01"));
/// assert!(!employees.permits("0xbb..02"));
/// employees.remove("0xaa..01"); // dynamic update, no gas, no contract change
/// assert!(!employees.permits("0xaa..01"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListPolicy {
    /// Only listed subjects pass.
    Whitelist(BTreeSet<String>),
    /// Listed subjects are rejected; everyone else passes.
    Blacklist(BTreeSet<String>),
}

impl ListPolicy {
    /// Empty whitelist (denies everything).
    pub fn deny_all() -> Self {
        ListPolicy::Whitelist(BTreeSet::new())
    }

    /// Empty blacklist (allows everything).
    pub fn allow_all() -> Self {
        ListPolicy::Blacklist(BTreeSet::new())
    }

    /// Whether `subject` passes this policy.
    pub fn permits(&self, subject: &str) -> bool {
        match self {
            ListPolicy::Whitelist(set) => set.contains(subject),
            ListPolicy::Blacklist(set) => !set.contains(subject),
        }
    }

    /// Add a subject to the list (meaning depends on the polarity).
    pub fn insert(&mut self, subject: impl Into<String>) {
        match self {
            ListPolicy::Whitelist(set) | ListPolicy::Blacklist(set) => {
                set.insert(subject.into());
            }
        }
    }

    /// Remove a subject from the list.
    pub fn remove(&mut self, subject: &str) -> bool {
        match self {
            ListPolicy::Whitelist(set) | ListPolicy::Blacklist(set) => set.remove(subject),
        }
    }
}

/// Why a request violated the rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleViolation {
    /// The sender failed the type-level sender policy.
    SenderRejected(Address),
    /// The sender failed the per-method policy.
    MethodRejected {
        /// The method whose policy rejected the sender.
        method: String,
        /// The rejected sender.
        sender: Address,
    },
    /// An argument value failed its per-argument policy.
    ArgumentRejected {
        /// The argument name.
        name: String,
        /// The rejected value.
        value: String,
    },
    /// The request's type has no rules configured at all (deny by
    /// default: an unconfigured TS issues nothing).
    TypeNotConfigured(TokenType),
}

impl fmt::Display for RuleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleViolation::SenderRejected(addr) => write!(f, "sender {addr} rejected"),
            RuleViolation::MethodRejected { method, sender } => {
                write!(f, "sender {sender} rejected for method {method}")
            }
            RuleViolation::ArgumentRejected { name, value } => {
                write!(f, "argument {name}={value} rejected")
            }
            RuleViolation::TypeNotConfigured(ttype) => {
                write!(f, "no rules configured for {ttype} tokens")
            }
        }
    }
}

impl std::error::Error for RuleViolation {}

/// The Fig. 6 rule structure for one token type.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TypeRules {
    /// Sender policy (who may obtain tokens of this type).
    pub sender: Option<ListPolicy>,
    /// Per-method sender policies, keyed by canonical method signature.
    pub method: BTreeMap<String, ListPolicy>,
    /// Per-argument value policies, keyed `arg0`, `arg1`, … by parameter
    /// position. An argument token's policies are judged on the arguments
    /// decoded from the calldata the token binds, not on the bindings the
    /// client declares.
    pub argument: BTreeMap<String, ListPolicy>,
}

impl TypeRules {
    /// Rules that admit every request of the type.
    pub fn permissive() -> Self {
        TypeRules {
            sender: Some(ListPolicy::allow_all()),
            method: BTreeMap::new(),
            argument: BTreeMap::new(),
        }
    }

    /// Check `req` against these rules, with argument policies judging
    /// `args`.
    pub(crate) fn check(
        &self,
        req: &TokenRequest,
        args: &[ArgBinding],
    ) -> Result<(), RuleViolation> {
        let sender_hex = req.sender.to_hex();
        if let Some(policy) = &self.sender {
            if !policy.permits(&sender_hex) {
                return Err(RuleViolation::SenderRejected(req.sender));
            }
        }
        if let Some(method) = &req.method {
            if let Some(policy) = self.method.get(method) {
                if !policy.permits(&sender_hex) {
                    return Err(RuleViolation::MethodRejected {
                        method: method.clone(),
                        sender: req.sender,
                    });
                }
            }
        }
        for arg in args {
            if let Some(policy) = self.argument.get(&arg.name) {
                if !policy.permits(&arg.value) {
                    return Err(RuleViolation::ArgumentRejected {
                        name: arg.name.clone(),
                        value: arg.value.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// The complete, per-type rule book a TS enforces.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleBook {
    /// Rules for each token type. Absent type ⇒ requests of that type are
    /// denied ([`RuleViolation::TypeNotConfigured`]).
    pub types: BTreeMap<TokenType, TypeRules>,
}

impl RuleBook {
    /// Empty book: denies everything.
    pub fn deny_all() -> Self {
        RuleBook::default()
    }

    /// Book admitting every well-formed request of every type — the
    /// baseline for throughput benchmarks.
    pub fn permissive() -> Self {
        let mut types = BTreeMap::new();
        for ttype in TokenType::ALL {
            types.insert(ttype, TypeRules::permissive());
        }
        RuleBook { types }
    }

    /// Access the rules for one type, creating them if absent.
    pub fn rules_mut(&mut self, ttype: TokenType) -> &mut TypeRules {
        self.types.entry(ttype).or_default()
    }

    /// Check a request against the rules of its type, with argument
    /// policies judging the args it declares. The TS never judges those:
    /// `TokenService::mint` (behind `issue` and `issue_batch`) judges the
    /// args it decodes from the calldata the token binds.
    pub fn check(&self, req: &TokenRequest) -> Result<(), RuleViolation> {
        let rules = self
            .types
            .get(&req.ttype)
            .ok_or(RuleViolation::TypeNotConfigured(req.ttype))?;
        rules.check(req, &req.args)
    }
}

// Kept hand-written rather than `json_codec!`: ListPolicy is an enum
// (single-member tag objects), TypeRules uses the Fig. 6 omit-empty shape
// and reads sender lists as addresses, and RuleBook keys its map by token
// type — none of which the struct-shaped macro expresses.
impl ToJson for ListPolicy {
    fn write_json(&self, out: &mut String) {
        let (tag, subjects) = match self {
            ListPolicy::Whitelist(set) => ("whitelist", set),
            ListPolicy::Blacklist(set) => ("blacklist", set),
        };
        ObjectWriter::new(out).member(tag, subjects).end();
    }
}

/// How a list's entries are read off the wire: each entry costs the one
/// `String` its set stores.
type Subject = fn(&Json<'_>) -> Result<String, JsonError>;

impl ListPolicy {
    /// Decode `{"whitelist"|"blacklist": [subject, …]}`.
    fn decode(json: &Json, subject: Subject) -> Result<Self, JsonError> {
        let (list, policy): (_, fn(BTreeSet<String>) -> Self) =
            match (json.get("whitelist"), json.get("blacklist")) {
                (Some(list), _) => (list, ListPolicy::Whitelist),
                (None, Some(list)) => (list, ListPolicy::Blacklist),
                (None, None) => return Err(JsonError("expected whitelist or blacklist".into())),
            };
        let subjects = list
            .as_arr()
            .ok_or_else(|| JsonError("expected array".into()))?;
        Ok(policy(
            subjects.iter().map(subject).collect::<Result<_, _>>()?,
        ))
    }
}

/// A sender-list entry: any 20-byte hex address, stored in
/// [`Address::to_hex`] form because that is what [`TypeRules`] looks
/// senders up by. Anything else could never match a sender and is refused.
/// An entry already in that form (what every tool writes) is kept as is:
/// re-encoding a 4,096-sender book would triple its decode time.
fn sender_subject(json: &Json) -> Result<String, JsonError> {
    let lower_hex = |b| matches!(b, b'0'..=b'9' | b'a'..=b'f');
    match json.as_str() {
        Some(s) if s.len() == 42 && s.starts_with("0x") && s[2..].bytes().all(lower_hex) => {
            Ok(s.to_string())
        }
        _ => Address::from_json(json).map(|sender| sender.to_hex()),
    }
}

/// An argument-list entry: any string, kept verbatim.
fn argument_subject(json: &Json<'_>) -> Result<String, JsonError> {
    String::from_json(json)
}

impl ToJson for TypeRules {
    fn write_json(&self, out: &mut String) {
        // Fig. 6 shape: omit empty sections, as the serde version did.
        let mut object = ObjectWriter::new(out);
        if let Some(sender) = &self.sender {
            object.member("sender", sender);
        }
        if !self.method.is_empty() {
            object.member("method", &self.method);
        }
        if !self.argument.is_empty() {
            object.member("argument", &self.argument);
        }
        object.end();
    }
}

impl FromJson<'_> for TypeRules {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        // Per-method lists name senders; argument lists hold values, verbatim.
        let policies = |key, subject: Subject| match json.get(key) {
            None => Ok(BTreeMap::new()),
            Some(map) => (map
                .as_obj()
                .ok_or_else(|| JsonError("expected object".into()))?)
            .iter()
            .map(|(name, policy)| Ok((name.to_string(), ListPolicy::decode(policy, subject)?)))
            .collect::<Result<_, JsonError>>(),
        };
        Ok(TypeRules {
            sender: match json.get("sender") {
                None | Some(Json::Null) => None,
                Some(policy) => Some(ListPolicy::decode(policy, sender_subject)?),
            },
            method: policies("method", sender_subject)?,
            argument: policies("argument", argument_subject)?,
        })
    }
}

impl ToJson for RuleBook {
    fn write_json(&self, out: &mut String) {
        out.push_str(r#"{"types":"#);
        let mut types = ObjectWriter::new(out);
        for (ttype, rules) in &self.types {
            types.member(&ttype.to_string(), rules);
        }
        types.end();
        out.push('}');
    }
}

impl FromJson<'_> for RuleBook {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let mut types = BTreeMap::new();
        if let Some(map) = json.get("types") {
            for (key, rules) in map
                .as_obj()
                .ok_or_else(|| JsonError("expected object".into()))?
            {
                let ttype = TokenType::from_json(&Json::Str(key.clone()))?;
                types.insert(ttype, TypeRules::from_json(rules)?);
            }
        }
        Ok(RuleBook { types })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    fn whitelist(addrs: &[Address]) -> ListPolicy {
        ListPolicy::Whitelist(addrs.iter().map(|a| a.to_hex()).collect())
    }

    fn blacklist(addrs: &[Address]) -> ListPolicy {
        ListPolicy::Blacklist(addrs.iter().map(|a| a.to_hex()).collect())
    }

    #[test]
    fn policy_semantics() {
        let wl = whitelist(&[addr(1)]);
        assert!(wl.permits(&addr(1).to_hex()));
        assert!(!wl.permits(&addr(2).to_hex()));
        let bl = blacklist(&[addr(1)]);
        assert!(!bl.permits(&addr(1).to_hex()));
        assert!(bl.permits(&addr(2).to_hex()));
        assert!(!ListPolicy::deny_all().permits("x"));
        assert!(ListPolicy::allow_all().permits("x"));
    }

    #[test]
    fn policy_updates() {
        let mut wl = ListPolicy::deny_all();
        wl.insert(addr(5).to_hex());
        assert!(wl.permits(&addr(5).to_hex()));
        assert!(wl.remove(&addr(5).to_hex()));
        assert!(!wl.permits(&addr(5).to_hex()));
        assert_eq!(wl, ListPolicy::deny_all());
    }

    #[test]
    fn deny_all_book_rejects_everything() {
        let book = RuleBook::deny_all();
        let req = TokenRequest::super_token(addr(9), addr(1));
        assert_eq!(
            book.check(&req),
            Err(RuleViolation::TypeNotConfigured(TokenType::Super))
        );
    }

    #[test]
    fn example1_whitelist_of_employees() {
        // Paper Example 1: methods callable only by a dynamic set of
        // addresses.
        let mut book = RuleBook::deny_all();
        book.rules_mut(TokenType::Super).sender = Some(whitelist(&[addr(1), addr(2)]));
        assert!(book
            .check(&TokenRequest::super_token(addr(9), addr(1)))
            .is_ok());
        assert_eq!(
            book.check(&TokenRequest::super_token(addr(9), addr(3))),
            Err(RuleViolation::SenderRejected(addr(3)))
        );
        // Dynamic update: hire employee 3, fire employee 1.
        let senders = book.rules_mut(TokenType::Super).sender.as_mut().unwrap();
        senders.insert(addr(3).to_hex());
        senders.remove(&addr(1).to_hex());
        assert!(book
            .check(&TokenRequest::super_token(addr(9), addr(3)))
            .is_ok());
        assert!(book
            .check(&TokenRequest::super_token(addr(9), addr(1)))
            .is_err());
    }

    #[test]
    fn example2_blacklist() {
        // Paper Example 2: block a predefined set of addresses.
        let mut book = RuleBook::deny_all();
        book.rules_mut(TokenType::Super).sender = Some(blacklist(&[addr(13)]));
        assert!(book
            .check(&TokenRequest::super_token(addr(9), addr(1)))
            .is_ok());
        assert!(book
            .check(&TokenRequest::super_token(addr(9), addr(13)))
            .is_err());
    }

    #[test]
    fn example3_per_method_and_per_argument() {
        // Paper Example 3: only authorized parties may call a specific
        // method, optionally with specific arguments.
        let mut book = RuleBook::permissive();
        book.rules_mut(TokenType::Method)
            .method
            .insert("moveMoney(address)".into(), whitelist(&[addr(1)]));
        book.rules_mut(TokenType::Argument).argument.insert(
            "recipient".into(),
            ListPolicy::Blacklist(std::iter::once("0xEVIL".to_string()).collect()),
        );

        let ok = TokenRequest::method_token(addr(9), addr(1), "moveMoney(address)");
        assert!(book.check(&ok).is_ok());
        let bad_sender = TokenRequest::method_token(addr(9), addr(2), "moveMoney(address)");
        assert!(matches!(
            book.check(&bad_sender),
            Err(RuleViolation::MethodRejected { .. })
        ));

        let bad_arg = TokenRequest::argument_token(
            addr(9),
            addr(1),
            "moveMoney(address)",
            vec![ArgBinding {
                name: "recipient".into(),
                value: "0xEVIL".into(),
            }],
            vec![1, 2, 3],
        );
        assert!(matches!(
            book.check(&bad_arg),
            Err(RuleViolation::ArgumentRejected { .. })
        ));
    }

    #[test]
    fn per_type_independence() {
        // An address whitelisted for super tokens can be blacklisted for
        // argument tokens (§IV-E).
        let mut book = RuleBook::deny_all();
        book.rules_mut(TokenType::Super).sender = Some(whitelist(&[addr(1)]));
        book.rules_mut(TokenType::Argument).sender = Some(blacklist(&[addr(1)]));
        assert!(book
            .check(&TokenRequest::super_token(addr(9), addr(1)))
            .is_ok());
        let arg_req = TokenRequest::argument_token(addr(9), addr(1), "f()", vec![], vec![]);
        assert!(matches!(
            book.check(&arg_req),
            Err(RuleViolation::SenderRejected(_))
        ));
    }

    #[test]
    fn fig6_json_shape_round_trips() {
        let mut book = RuleBook::deny_all();
        book.rules_mut(TokenType::Super).sender = Some(whitelist(&[addr(0x366c), addr(0xd488)]));
        book.rules_mut(TokenType::Method)
            .method
            .insert("methodA()".into(), blacklist(&[addr(0xBA7F)]));
        book.rules_mut(TokenType::Argument)
            .argument
            .insert("argA".into(), whitelist(&[addr(0x3540)]));
        let json = smacs_primitives::json::to_string(&book);
        assert!(json.contains("whitelist"));
        assert!(json.contains("blacklist"));
        let back: RuleBook = smacs_primitives::json::from_str(&json).unwrap();
        assert_eq!(back, book);
    }

    #[test]
    fn sender_lists_decode_to_canonical_addresses_and_refuse_non_addresses() {
        let upper = format!("0x{}", addr(0x18EE_7ABD).to_hex()[2..].to_uppercase());
        let bare = addr(0xBA7F).to_hex()[2..].to_string();
        let text = format!(
            r#"{{"types":{{"method":{{"sender":{{"blacklist":["{upper}"]}},
               "method":{{"f()":{{"whitelist":["{bare}"]}}}},
               "argument":{{"to":{{"blacklist":["0xEVIL","{upper}"]}}}}}}}}}}"#
        );
        let book: RuleBook = smacs_primitives::json::from_str(&text).unwrap();
        let rules = &book.types[&TokenType::Method];
        assert_eq!(rules.sender, Some(blacklist(&[addr(0x18EE_7ABD)])));
        assert_eq!(rules.method["f()"], whitelist(&[addr(0xBA7F)]));
        // Argument values stay verbatim.
        let values = ListPolicy::Blacklist(["0xEVIL".to_string(), upper].into());
        assert_eq!(rules.argument["to"], values);

        for entry in ["alice", "0x1234", "0xEVIL", ""] {
            for section in [
                format!(r#""sender":{{"whitelist":["{entry}"]}}"#),
                format!(r#""method":{{"f()":{{"blacklist":["{entry}"]}}}}"#),
            ] {
                let text = format!(r#"{{"types":{{"super":{{{section}}}}}}}"#);
                let err = smacs_primitives::json::from_str::<RuleBook>(&text).unwrap_err();
                assert!(err.0.contains("bad address"), "{text}: {err}");
            }
        }
    }

    /// Strings that need every kind of JSON escaping.
    const TRICKY: &str = "[a-z0-9 \"\\\\/\u{0}\u{1}\u{8}\u{c}\n\r\t\u{1f}\u{7f}é€😀]{0,8}";

    fn policy(white: bool, subjects: Vec<String>) -> ListPolicy {
        let subjects = subjects.into_iter().collect();
        if white {
            ListPolicy::Whitelist(subjects)
        } else {
            ListPolicy::Blacklist(subjects)
        }
    }

    proptest! {
        #[test]
        fn prop_json_round_trip(
            present in any::<[bool; 3]>(),
            colours in any::<[bool; 9]>(),
            senders in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..4), 3..4),
            methods in prop::collection::vec((TRICKY, prop::collection::vec(any::<[u8; 20]>(), 0..3)), 0..3),
            arguments in prop::collection::vec((TRICKY, prop::collection::vec(TRICKY, 0..3)), 0..3),
        ) {
            let mut book = RuleBook::deny_all();
            for (i, ttype) in TokenType::ALL.into_iter().enumerate() {
                if !present[i] {
                    continue;
                }
                let rules = book.rules_mut(ttype);
                rules.sender = colours[3 * i + 2].then(|| {
                    policy(colours[3 * i], senders[i].iter().map(|&n| addr(n).to_hex()).collect())
                });
                for (name, list) in &methods {
                    let list = list.iter().map(|bytes| Address(*bytes).to_hex()).collect();
                    rules.method.insert(name.clone(), policy(colours[3 * i + 1], list));
                }
                for (name, values) in &arguments {
                    rules.argument.insert(name.clone(), policy(colours[3 * i], values.clone()));
                }
            }
            let mut text = String::new();
            book.write_json(&mut text);
            prop_assert_eq!(smacs_primitives::json::from_str::<RuleBook>(&text).unwrap(), book);
        }
    }
}
