//! Allocation counts that pin how the wire layer decodes, counted by a
//! global allocator in this test binary of its own:
//!
//! - parsing an escape-free 64-request `issue_batch` envelope allocates
//!   once per non-empty array or object of the tree and never for a key or
//!   a string, which stay slices of the message text;
//! - decoding an address or a token from its hex allocates nothing.
//!
//! Only fresh blocks count: a `Vec` that grows while its container is
//! parsed is still one allocation. Counters are per thread, so the test
//! harness's own threads do not disturb them.

use smacs_primitives::json::{self, FromJson, Json, ObjectWriter};
use smacs_primitives::Address;
use smacs_token::{Token, TokenRequest, TokenType, NO_INDEX};
use smacs_ts::api::{BatchRequestBody, TokenHex, PROTOCOL_VERSION};
use smacs_ts::front::{decode_token_hex, encode_token_hex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter beside it is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the blocks this thread allocated while it ran.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// Non-empty arrays and objects: the tree's `Vec`s.
fn containers(v: &Json) -> usize {
    match v {
        Json::Arr(items) => {
            usize::from(!items.is_empty()) + items.iter().map(containers).sum::<usize>()
        }
        Json::Obj(members) => {
            usize::from(!members.is_empty())
                + members.iter().map(|(_, v)| containers(v)).sum::<usize>()
        }
        _ => 0,
    }
}

fn keys_and_strings(v: &Json) -> usize {
    match v {
        Json::Str(_) => 1,
        Json::Arr(items) => items.iter().map(keys_and_strings).sum(),
        Json::Obj(members) => members.iter().map(|(_, v)| 1 + keys_and_strings(v)).sum(),
        _ => 0,
    }
}

fn token(seed: u64) -> Token {
    let signer = smacs_crypto::Keypair::from_seed(seed);
    Token {
        ttype: TokenType::Method,
        expire: 4_600,
        index: NO_INDEX,
        signature: signer.sign_digest(&smacs_crypto::keccak256(b"payload")),
    }
}

#[test]
fn an_escape_free_batch_envelope_allocates_once_per_container() {
    let requests: Vec<TokenRequest> = (0..64)
        .map(|i| {
            let sender = Address::from_low_u64(i);
            let contract = Address::from_low_u64(0xC0DE);
            match i % 3 {
                0 => TokenRequest::super_token(contract, sender),
                1 => TokenRequest::method_token(contract, sender, "transfer(address,uint256)"),
                _ => TokenRequest::argument_token(
                    contract,
                    sender,
                    "transfer(address,uint256)",
                    vec![smacs_token::request::ArgBinding {
                        name: "to".into(),
                        value: "0x0000000000000000000000000000000000000001".into(),
                    }],
                    vec![0xa9, 0x05, 0x9c, 0xbb],
                ),
            }
        })
        .collect();
    // The envelope exactly as a client writes it.
    let mut text = String::new();
    ObjectWriter::new(&mut text)
        .member("v", &PROTOCOL_VERSION)
        .member("op", "issue_batch")
        .member("body", &BatchRequestBody { requests })
        .end();
    assert!(!text.contains('\\'), "the envelope must be escape-free");

    let (tree, blocks) = allocations(|| Json::parse(&text).expect("own envelope"));
    let (containers, strings) = (containers(&tree), keys_and_strings(&tree));
    assert!(
        containers > 64 && strings > 64 * 7,
        "{containers} {strings}"
    );
    assert_eq!(
        blocks, containers,
        "one allocation per non-empty array or object, none for {strings} keys and strings"
    );
    drop(tree);
}

#[test]
fn address_and_token_hex_decode_without_allocating() {
    let address = Address::from_low_u64(0xC0FFEE);
    let hex = address.to_hex();
    let quoted = format!("\"{hex}\"");
    let tree = Json::parse(&quoted).unwrap();
    let (decoded, blocks) = allocations(|| {
        (
            Address::from_hex(&hex),
            Address::from_hex(&hex[2..]),
            Address::from_json(&tree),
        )
    });
    assert_eq!(decoded, (Some(address), Some(address), Ok(address)));
    assert_eq!(blocks, 0, "address hex decode allocated");

    let token = token(3);
    let hex = json::to_string(&encode_token_hex(&token));
    let tree = Json::parse(&hex).unwrap();
    let bare = tree.as_str().unwrap();
    let (decoded, blocks) = allocations(|| (decode_token_hex(bare), TokenHex::from_json(&tree)));
    assert_eq!(decoded, (Some(token), Ok(TokenHex(token))));
    assert_eq!(blocks, 0, "token hex decode allocated");
}
