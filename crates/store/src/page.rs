//! Pages and page identifiers.

/// Size of a disk page in bytes (Oracle's default block size in the paper's
/// era was 8 KiB).
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within a [`crate::Pager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// Little-endian integer codecs of the heap-file page layout.
pub mod codec {
    /// Put u16.
    pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
        buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Get u16.
    pub fn get_u16(buf: &[u8], off: usize) -> u16 {
        u16::from_le_bytes(buf[off..off + 2].try_into().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::codec::*;

    #[test]
    fn codec_roundtrip() {
        let mut buf = vec![0u8; 64];
        put_u16(&mut buf, 0, 0xBEEF);
        put_u16(&mut buf, 7, 0x1234);
        assert_eq!(get_u16(&buf, 0), 0xBEEF);
        assert_eq!(get_u16(&buf, 7), 0x1234);
    }
}
