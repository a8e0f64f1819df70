//! Minimal in-repo stand-in for the `hex` crate: lowercase encoding and
//! strict decoding, the only API surface the workspace uses. Besides the
//! allocating `encode`/`decode`, `encode_to` appends to a caller's `String`
//! and `decode_to_slice` fills a caller's buffer, so fixed-size values
//! cross hex text with no allocation of their own.

/// Decoding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FromHexError {
    /// A character outside `[0-9a-fA-F]`.
    InvalidHexCharacter {
        /// The offending character.
        c: char,
        /// Its byte index in the input.
        index: usize,
    },
    /// Input length was odd.
    OddLength,
    /// The decoded length differs from the output buffer's.
    InvalidStringLength,
}

impl std::fmt::Display for FromHexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FromHexError::InvalidHexCharacter { c, index } => {
                write!(f, "invalid hex character {c:?} at index {index}")
            }
            FromHexError::OddLength => write!(f, "odd number of hex digits"),
            FromHexError::InvalidStringLength => write!(f, "wrong number of hex digits"),
        }
    }
}

impl std::error::Error for FromHexError {}

/// Encode bytes as lowercase hex.
pub fn encode(data: impl AsRef<[u8]>) -> String {
    let data = data.as_ref();
    let mut out = String::with_capacity(data.len() * 2);
    encode_to(data, &mut out);
    out
}

/// Append the lowercase hex of `data` to `out`.
pub fn encode_to(data: impl AsRef<[u8]>, out: &mut String) {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let data = data.as_ref();
    out.reserve(data.len() * 2);
    for &b in data {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0x0f) as usize] as char);
    }
}

fn nibble(c: u8, index: usize) -> Result<u8, FromHexError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(FromHexError::InvalidHexCharacter {
            c: c as char,
            index,
        }),
    }
}

/// Decode a hex string (no `0x` prefix handling; both cases accepted).
pub fn decode(data: impl AsRef<[u8]>) -> Result<Vec<u8>, FromHexError> {
    let data = data.as_ref();
    if data.len() % 2 != 0 {
        return Err(FromHexError::OddLength);
    }
    let mut out = Vec::with_capacity(data.len() / 2);
    for (i, pair) in data.chunks_exact(2).enumerate() {
        out.push((nibble(pair[0], i * 2)? << 4) | nibble(pair[1], i * 2 + 1)?);
    }
    Ok(out)
}

/// Decode hex into `out`, which the input must fill exactly (both cases
/// accepted, no `0x` prefix handling).
pub fn decode_to_slice(data: impl AsRef<[u8]>, out: &mut [u8]) -> Result<(), FromHexError> {
    let data = data.as_ref();
    if data.len() % 2 != 0 {
        return Err(FromHexError::OddLength);
    }
    if data.len() / 2 != out.len() {
        return Err(FromHexError::InvalidStringLength);
    }
    for (i, (pair, byte)) in data.chunks_exact(2).zip(out).enumerate() {
        *byte = (nibble(pair[0], i * 2)? << 4) | nibble(pair[1], i * 2 + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        assert_eq!(encode([0xde, 0xad, 0xbe, 0xef]), "deadbeef");
        assert_eq!(decode("deadbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(decode("DEADBEEF").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        let mut out = String::from("0x");
        encode_to([0x01, 0xff], &mut out);
        assert_eq!(out, "0x01ff");
        let mut buf = [0u8; 4];
        decode_to_slice("DeadBeef", &mut buf).unwrap();
        assert_eq!(buf, [0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(decode("abc"), Err(FromHexError::OddLength));
        assert!(matches!(
            decode("zz"),
            Err(FromHexError::InvalidHexCharacter { c: 'z', index: 0 })
        ));
        let mut buf = [0u8; 2];
        assert_eq!(
            decode_to_slice("abcdef", &mut buf),
            Err(FromHexError::InvalidStringLength)
        );
        assert_eq!(
            decode_to_slice("abc", &mut buf),
            Err(FromHexError::OddLength)
        );
        assert!(decode_to_slice("abzz", &mut buf).is_err());
    }
}
