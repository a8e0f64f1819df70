//! Client-side SDK: build token-bearing calldata and transactions.
//!
//! A SMACS client (§III-A) obtains tokens from the TS, then "constructs a
//! transaction with the token encoded into it". This module performs the
//! encoding: the application payload (selector + ABI args) with the token
//! array appended (see [`smacs_token::array`]), wrapped into a signed
//! transaction.

use smacs_chain::{Chain, ChainError, Receipt};
use smacs_crypto::Keypair;
use smacs_primitives::Address;
use smacs_token::{append_tokens, Token, TokenArray};
/// Build calldata carrying a single token for `contract`.
pub fn build_call_data(payload: &[u8], contract: Address, token: Token) -> Vec<u8> {
    let tokens = TokenArray::new().with(contract, token);
    append_tokens(payload, &tokens)
}

/// Build calldata carrying one token per contract of a call chain (§IV-D):
/// `SC_A: tk_A ‖ SC_B: tk_B ‖ …`.
pub fn build_chain_call_data(payload: &[u8], tokens: &[(Address, Token)]) -> Vec<u8> {
    let mut array = TokenArray::new();
    for (addr, tk) in tokens {
        array.push(*addr, *tk);
    }
    append_tokens(payload, &array)
}

/// A client wallet: a keypair plus convenience calls against a [`Chain`].
///
/// This models the paper's "client-side software (usually called a wallet)"
/// — the token attachment "can be easily integrated into mainstream
/// wallets, such that it is executed seamlessly for users prior to actual
/// transaction sending" (§IV-B).
pub struct ClientWallet {
    keypair: Keypair,
}

impl ClientWallet {
    /// Wrap a keypair.
    pub fn new(keypair: Keypair) -> Self {
        ClientWallet { keypair }
    }

    /// The wallet's address (`sAddr` in token requests; `tx.origin` on
    /// chain).
    pub fn address(&self) -> Address {
        self.keypair.address()
    }

    /// The underlying keypair (for TS request signing etc.).
    pub fn keypair(&self) -> &Keypair {
        &self.keypair
    }

    /// Call a SMACS-enabled contract with one token.
    pub fn call_with_token(
        &self,
        chain: &mut Chain,
        contract: Address,
        value: u128,
        payload: &[u8],
        token: Token,
    ) -> Result<Receipt, ChainError> {
        let data = build_call_data(payload, contract, token);
        self.send(chain, contract, value, data)
    }

    /// Call the first contract of a chain with a full token array.
    pub fn call_with_tokens(
        &self,
        chain: &mut Chain,
        first_contract: Address,
        value: u128,
        payload: &[u8],
        tokens: &[(Address, Token)],
    ) -> Result<Receipt, ChainError> {
        let data = build_chain_call_data(payload, tokens);
        self.send(chain, first_contract, value, data)
    }

    /// Send a raw (already token-bearing) call.
    pub fn send(
        &self,
        chain: &mut Chain,
        to: Address,
        value: u128,
        data: Vec<u8>,
    ) -> Result<Receipt, ChainError> {
        chain.call_contract(&self.keypair, to, value, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_crypto::Keypair;
    use smacs_token::{split_tokens, TokenType, NO_INDEX};

    fn token(ttype: TokenType) -> Token {
        Token {
            ttype,
            expire: 2_000_000_000,
            index: NO_INDEX,
            signature: Keypair::from_seed(5).sign_message(b"x"),
        }
    }

    #[test]
    fn single_token_calldata_round_trips() {
        let payload = vec![1, 2, 3, 4, 5, 6];
        let contract = Address::from_low_u64(9);
        let data = build_call_data(&payload, contract, token(TokenType::Super));
        let (got_payload, array) = split_tokens(&data).unwrap();
        assert_eq!(got_payload, &payload[..]);
        assert_eq!(array.len(), 1);
        assert!(array.token_for(contract).is_some());
    }

    #[test]
    fn chain_calldata_carries_all_tokens_in_order() {
        let payload = vec![0xaa; 4];
        let entries = vec![
            (Address::from_low_u64(1), token(TokenType::Method)),
            (Address::from_low_u64(2), token(TokenType::Argument)),
            (Address::from_low_u64(3), token(TokenType::Super)),
        ];
        let data = build_chain_call_data(&payload, &entries);
        let (_, array) = split_tokens(&data).unwrap();
        assert_eq!(array.len(), 3);
        for (addr, _) in &entries {
            assert!(array.token_for(*addr).is_some());
        }
    }

    #[test]
    fn wallet_exposes_keypair_address() {
        let kp = Keypair::from_seed(77);
        let addr = kp.address();
        let wallet = ClientWallet::new(kp);
        assert_eq!(wallet.address(), addr);
    }
}
