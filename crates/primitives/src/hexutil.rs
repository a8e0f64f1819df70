//! Small hex helpers shared by debugging and wire-format code.

/// Encode bytes as a `0x`-prefixed lowercase hex string: one allocation.
pub fn encode_prefixed(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(2 + 2 * bytes.len());
    out.push_str("0x");
    hex::encode_to(bytes, &mut out);
    out
}

/// Decode a hex string with optional `0x` prefix.
pub fn decode_flexible(s: &str) -> Option<Vec<u8>> {
    let s = s.strip_prefix("0x").unwrap_or(s);
    hex::decode(s).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data = vec![0x12, 0x34, 0xab];
        assert_eq!(decode_flexible(&encode_prefixed(&data)), Some(data.clone()));
        assert_eq!(decode_flexible("1234ab"), Some(data));
        assert_eq!(decode_flexible("xyz"), None);
    }
}
