//! Client-side token acquisition with caching: the layer between a wallet
//! and a [`TsApi`] endpoint.
//!
//! A token is valid for its whole lifetime (1 hour in the paper's Table IV
//! analysis), but the naive client re-applies to the TS on every call —
//! paying a signing round trip each time. [`TokenFetcher`] caches issued
//! tokens keyed by `(contract, type, method)` — plus the requesting
//! sender, since the TS signature binds `sAddr` and a token cached for
//! one wallet must never be served to another — and transparently re-fetches
//! when a cached token is within the refresh margin of expiry, so a busy
//! client hits the TS once per token lifetime instead of once per
//! transaction.
//!
//! Two request shapes are deliberately **never cached**:
//!
//! - one-time tokens — single-use by construction (§IV-C);
//! - argument tokens — the signature binds the exact calldata, so a cached
//!   one would only ever match a byte-identical call (and those are
//!   usually one-time anyway).
//!
//! Both pass straight through to the API.
//!
//! The fetcher is endpoint-agnostic: wrap a `smacs_ts::FailoverClient`
//! (built from the replica directory in discovery metadata) and the cache
//! sits in front of a whole replica set — every replica signs with the
//! same `sk_TS`, so a token minted by any of them verifies identically and
//! caches safely regardless of which replica answered.

use parking_lot::Mutex;
use smacs_primitives::Address;
use smacs_token::{Token, TokenRequest, TokenType};
use smacs_ts::{ApiError, TsApi};
use std::collections::HashMap;
use std::sync::Arc;

type CacheKey = (Address, Address, TokenType, Option<String>);

/// A caching token source over any [`TsApi`] endpoint (in-process or
/// HTTP — the fetcher cannot tell, which is the point).
pub struct TokenFetcher {
    api: Arc<dyn TsApi>,
    cache: Mutex<HashMap<CacheKey, Token>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl TokenFetcher {
    /// The refresh margin: re-fetch inside the last minute of a
    /// token's life, so an in-flight transaction never carries a token
    /// that expires before it lands.
    pub const DEFAULT_REFRESH_MARGIN_SECS: u64 = 60;

    /// Wrap an API endpoint.
    pub fn new(api: Arc<dyn TsApi>) -> TokenFetcher {
        TokenFetcher {
            api,
            cache: Mutex::new(HashMap::new()),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The wrapped endpoint.
    pub fn api(&self) -> &Arc<dyn TsApi> {
        &self.api
    }

    /// `(cache hits, cache misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(std::sync::atomic::Ordering::Relaxed),
            self.misses.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    fn cacheable(request: &TokenRequest) -> bool {
        !request.one_time && request.ttype != TokenType::Argument
    }

    fn fresh(token: &Token, now: u64) -> bool {
        (token.expire as u64) > now.saturating_add(Self::DEFAULT_REFRESH_MARGIN_SECS)
    }

    /// Obtain a token for `request` at client-local time `now`: from cache
    /// when a fresh one is held, from the TS otherwise.
    pub fn fetch(&self, request: &TokenRequest, now: u64) -> Result<Token, ApiError> {
        if !Self::cacheable(request) {
            return self.api.issue(request);
        }
        let key = cache_key(request);
        if let Some(token) = self.cache.lock().get(&key) {
            if Self::fresh(token, now) {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Ok(*token);
            }
        }
        self.misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let token = self.api.issue(request)?;
        self.cache.lock().insert(key, token);
        Ok(token)
    }

    /// Drop every cached token (e.g. after the owner rotated rules and
    /// outstanding tokens should not be reused).
    pub fn clear(&self) {
        self.cache.lock().clear();
    }
}

fn cache_key(request: &TokenRequest) -> CacheKey {
    (
        request.contract,
        request.sender,
        request.ttype,
        request.method.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smacs_crypto::Keypair;
    use smacs_ts::{FrontEnd, RuleBook, TokenService, TokenServiceConfig};

    fn fetcher_at(now: u64) -> (TokenFetcher, Arc<FrontEnd>) {
        let api = Arc::new(FrontEnd::new(
            TokenService::new(
                Keypair::from_seed(7),
                RuleBook::permissive(),
                TokenServiceConfig::default(),
            ),
            "secret",
            now,
        ));
        (TokenFetcher::new(api.clone()), api)
    }

    fn contract() -> Address {
        Address::from_low_u64(0xC0)
    }

    fn sender() -> Address {
        Address::from_low_u64(0x5E)
    }

    #[test]
    fn caches_method_tokens_until_refresh_margin() {
        let (fetcher, api) = fetcher_at(1_000);
        let req = TokenRequest::method_token(contract(), sender(), "f()");
        let t1 = fetcher.fetch(&req, 1_000).unwrap();
        let t2 = fetcher.fetch(&req, 1_000).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(fetcher.stats(), (1, 1));

        // Client clock approaches expiry: the fetcher refreshes even
        // though the cached token is technically still valid.
        api.set_time(t1.expire as u64 - 30);
        let t3 = fetcher.fetch(&req, t1.expire as u64 - 30).unwrap();
        assert_ne!(t1.expire, t3.expire, "must have re-fetched");
        assert_eq!(fetcher.stats(), (1, 2));
    }

    #[test]
    fn distinct_keys_get_distinct_cache_slots() {
        let (fetcher, _api) = fetcher_at(0);
        let f = TokenRequest::method_token(contract(), sender(), "f()");
        let g = TokenRequest::method_token(contract(), sender(), "g()");
        let sup = TokenRequest::super_token(contract(), sender());
        fetcher.fetch(&f, 0).unwrap();
        fetcher.fetch(&g, 0).unwrap();
        fetcher.fetch(&sup, 0).unwrap();
        assert_eq!(fetcher.stats(), (0, 3));
        fetcher.fetch(&f, 0).unwrap();
        fetcher.fetch(&g, 0).unwrap();
        fetcher.fetch(&sup, 0).unwrap();
        assert_eq!(fetcher.stats(), (3, 3));
    }

    #[test]
    fn distinct_senders_never_share_a_cached_token() {
        // The TS signature binds the sender; a fetcher shared by two
        // wallets must not serve one wallet's token to the other.
        let (fetcher, _api) = fetcher_at(0);
        let a = TokenRequest::method_token(contract(), Address::from_low_u64(1), "f()");
        let b = TokenRequest::method_token(contract(), Address::from_low_u64(2), "f()");
        fetcher.fetch(&a, 0).unwrap();
        fetcher.fetch(&b, 0).unwrap();
        assert_eq!(fetcher.stats(), (0, 2), "second sender must miss");
    }

    #[test]
    fn one_time_and_argument_requests_bypass_the_cache() {
        let (fetcher, _api) = fetcher_at(0);
        let one_time = TokenRequest::method_token(contract(), sender(), "f()").one_time();
        let a = fetcher.fetch(&one_time, 0).unwrap();
        let b = fetcher.fetch(&one_time, 0).unwrap();
        assert_ne!(a.index, b.index, "one-time tokens must never be reused");

        let calldata = smacs_chain::abi::encode_call("f()", &[]);
        let arg = TokenRequest::argument_token(contract(), sender(), "f()", vec![], calldata);
        fetcher.fetch(&arg, 0).unwrap();
        fetcher.fetch(&arg, 0).unwrap();
        // Neither shape touched the cache counters' hit path.
        assert_eq!(fetcher.stats().0, 0);
    }

    #[test]
    fn clear_forces_refetch() {
        let (fetcher, _api) = fetcher_at(0);
        let req = TokenRequest::method_token(contract(), sender(), "f()");
        fetcher.fetch(&req, 0).unwrap();
        fetcher.clear();
        fetcher.fetch(&req, 0).unwrap();
        assert_eq!(fetcher.stats(), (0, 2));
    }
}
