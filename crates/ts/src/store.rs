//! Persistent TS state: the `node-localStorage` analog.
//!
//! The paper's prototype runs "Node.js … bundled with the
//! node-localStorage package for storing rules and signature key-pairs"
//! (§VI). This module persists the same two artifacts as JSON files in a
//! directory: the rule book and the TS signing key. Prototype-grade like
//! the original — the key is stored hex-encoded without hardware
//! protection; production deployments would use an HSM.

use smacs_crypto::Keypair;
use smacs_primitives::json::ToJson;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::RuleBook;

/// A directory-backed store for TS state.
pub struct RuleStore {
    dir: PathBuf,
}

impl RuleStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<RuleStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RuleStore { dir })
    }

    fn rules_path(&self) -> PathBuf {
        self.dir.join("rules.json")
    }

    fn key_path(&self) -> PathBuf {
        self.dir.join("sk_ts.hex")
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persist the rule book.
    pub fn save_rules(&self, rules: &RuleBook) -> io::Result<()> {
        let mut json = String::new();
        rules.write_json(&mut json);
        std::fs::write(self.rules_path(), json)
    }

    /// Load the rule book; `Ok(None)` if never saved.
    pub fn load_rules(&self) -> io::Result<Option<RuleBook>> {
        match std::fs::read_to_string(self.rules_path()) {
            Ok(json) => smacs_primitives::json::from_str(&json)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Persist the signing key (`sk_TS`).
    pub fn save_keypair(&self, keypair: &Keypair) -> io::Result<()> {
        // Round-trip through a seed is impossible; store the raw scalar.
        std::fs::write(self.key_path(), hex::encode(keypair.secret_bytes()))
    }

    /// Load the signing key; `Ok(None)` if never saved.
    pub fn load_keypair(&self) -> io::Result<Option<Keypair>> {
        match std::fs::read_to_string(self.key_path()) {
            Ok(hex_str) => {
                let bytes = decode_hex32(hex_str.trim())
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad key hex"))?;
                Keypair::from_secret_bytes(&bytes)
                    .map(Some)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "invalid scalar"))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Load the key or generate-and-save a fresh one — first-boot flow.
    pub fn load_or_init_keypair(&self, seed_for_fresh: u64) -> io::Result<Keypair> {
        if let Some(kp) = self.load_keypair()? {
            return Ok(kp);
        }
        let kp = Keypair::from_seed(seed_for_fresh);
        self.save_keypair(&kp)?;
        Ok(kp)
    }
}

fn decode_hex32(s: &str) -> Option<[u8; 32]> {
    hex::decode(s).ok()?.try_into().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ListPolicy;
    use smacs_token::TokenType;

    fn temp_store(tag: &str) -> RuleStore {
        let dir =
            std::env::temp_dir().join(format!("smacs-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RuleStore::open(dir).unwrap()
    }

    #[test]
    fn rules_round_trip() {
        let store = temp_store("rules");
        assert!(store.load_rules().unwrap().is_none());
        let mut book = RuleBook::deny_all();
        book.rules_mut(TokenType::Super).sender = Some(ListPolicy::allow_all());
        store.save_rules(&book).unwrap();
        assert_eq!(store.load_rules().unwrap(), Some(book));
    }

    #[test]
    fn keypair_round_trip() {
        let store = temp_store("key");
        assert!(store.load_keypair().unwrap().is_none());
        let kp = Keypair::from_seed(1234);
        store.save_keypair(&kp).unwrap();
        let loaded = store.load_keypair().unwrap().unwrap();
        assert_eq!(loaded.address(), kp.address());
        // The reloaded key signs identically.
        let digest = smacs_crypto::keccak256(b"persisted");
        assert_eq!(loaded.sign_digest(&digest), kp.sign_digest(&digest));
    }

    #[test]
    fn load_or_init_is_stable_across_boots() {
        let store = temp_store("boot");
        let first = store.load_or_init_keypair(1).unwrap();
        let second = store.load_or_init_keypair(2).unwrap(); // seed ignored: key exists
        assert_eq!(first.address(), second.address());
    }

    #[test]
    fn corrupted_key_is_an_error() {
        let store = temp_store("corrupt");
        let non_hex = format!("{}zz", "0".repeat(62));
        for key in ["zz", non_hex.as_str(), &"1".repeat(66)] {
            std::fs::write(store.dir().join("sk_ts.hex"), key).unwrap();
            assert!(store.load_keypair().is_err(), "{key:?} loaded");
        }
    }
}
