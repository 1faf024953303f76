//! SHA-1 (RFC 3174) implemented from scratch.
//!
//! The paper fingerprints 4 KiB memory pages with OpenSSL's SHA-1. We keep
//! the same algorithm for fidelity (collision behaviour, digest width,
//! throughput shape) without pulling a crypto dependency. SHA-1 is not
//! collision-resistant against adversaries anymore, but the paper's threat
//! model is accidental collisions between checkpoint pages, where 160 bits
//! remain far beyond birthday reach at any realistic chunk count.
//!
//! # Compression kernels
//!
//! Two block compressors produce identical digests:
//!
//! * a SHA-NI kernel (x86_64 only) on the CPU's SHA extensions
//!   (`sha1rnds4`, `sha1nexte`, `sha1msg1`, `sha1msg2`) — the instructions
//!   OpenSSL itself runs on such hosts, and about five times the scalar
//!   throughput;
//! * the portable scalar compressor, used on CPUs without SHA-NI and on
//!   every other target.
//!
//! Every `compress_blocks` call picks the kernel with
//! `is_x86_feature_detected!` (a cached bit test after the first call), and
//! [`Sha1::update`] hands it every whole 64-byte block of its input in one
//! call. There is no option, feature flag or environment variable: the CPU
//! chooses. The RFC 3174 / FIPS 180 vectors pin both kernels, and a
//! differential property test checks them against each other.
//!
//! There is still no crypto dependency because the intrinsics come from
//! `std::arch`: the build stays hermetic and offline, and the tree's only
//! non-test `unsafe` stays in this module — the call into the kernel once
//! its CPU features are detected, and the kernel's unaligned block loads.

/// A block compressor: folds a whole number of 64-byte blocks into the
/// chaining state.
type Kernel = fn(&mut [u32; 5], &[u8]);

/// Streaming SHA-1 hasher.
///
/// ```
/// use replidedup_hash::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha1::digest(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    /// Partially filled block.
    block: [u8; 64],
    block_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Initialization vector from RFC 3174 section 6.1.
    const IV: [u32; 5] = [
        0x6745_2301,
        0xefcd_ab89,
        0x98ba_dcfe,
        0x1032_5476,
        0xc3d2_e1f0,
    ];

    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: Self::IV,
            len: 0,
            block: [0; 64],
            block_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finish and produce the 160-bit digest.
    pub fn finalize(self) -> [u8; 20] {
        self.finalize_with(compress_blocks)
    }

    #[inline]
    fn update_with(&mut self, mut data: &[u8], compress: Kernel) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.block_len > 0 {
            let take = (64 - self.block_len).min(data.len());
            self.block[self.block_len..self.block_len + take].copy_from_slice(&data[..take]);
            self.block_len += take;
            data = &data[take..];
            if self.block_len < 64 {
                // Everything fit in the partial block — which must survive.
                return;
            }
            compress(&mut self.state, &self.block);
            self.block_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
        }
        let rem = &data[whole..];
        self.block[..rem.len()].copy_from_slice(rem);
        self.block_len = rem.len();
    }

    #[inline]
    fn finalize_with(mut self, compress: Kernel) -> [u8; 20] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length. It
        // fits behind the buffered bytes in one block unless fewer than
        // nine bytes are free, and then it spills into a second.
        let n = self.block_len;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.block[..n]);
        tail[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &tail[..end]);
        let mut out = [0u8; 20];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// Compress whole 64-byte `blocks` into `state` on the fastest kernel this
/// CPU supports.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if ni::detected() {
        // SAFETY: `ni::detected` has just confirmed the sha, sse2, ssse3
        // and sse4.1 features `ni::compress_blocks` is compiled for.
        unsafe { ni::compress_blocks(state, blocks) };
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// The portable compressor (RFC 3174 section 6.1), one block at a time.
fn compress_blocks_scalar(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5a82_7999),
                20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
                _ => (b ^ c ^ d, 0xca62_c1d6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel. It follows the round structure of Intel's SHA
/// extensions reference: four rounds per `sha1rnds4`, with the message
/// schedule computed four words at a time by `sha1msg1`/`sha1msg2` and E
/// recovered from the previous A by `sha1nexte`.
#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
        _mm_shuffle_epi8, _mm_xor_si128,
    };

    /// Does this CPU have every feature [`compress_blocks`] is compiled for?
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Message words `4 * i .. 4 * i + 4` of `block`, byte-swapped from
    /// big-endian, W0 of the four in the highest lane as the SHA
    /// instructions expect.
    #[inline]
    #[target_feature(enable = "sse2,ssse3")]
    fn load_words(block: &[u8], i: usize) -> __m128i {
        let bytes = &block[16 * i..16 * i + 16];
        let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        // SAFETY: `bytes` is 16 bytes long, so the unaligned load stays in
        // bounds; the sse2 and ssse3 features it and the shuffle need are
        // enabled here and detected with sha and sse4.1 before any call.
        let raw = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
        _mm_shuffle_epi8(raw, reverse)
    }

    /// Compress whole 64-byte `blocks` into `state`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
        // A in the highest lane, D in the lowest; E alone in the highest.
        let mut abcd = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[2] as i32,
            state[3] as i32,
        );
        let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        for block in blocks.chunks_exact(64) {
            let mut w0 = load_words(block, 0);
            let mut w1 = load_words(block, 1);
            let mut w2 = load_words(block, 2);
            let mut w3 = load_words(block, 3);
            let (abcd_in, e_in) = (abcd, e0);
            // Rounds 0-3: E enters unrotated, so it is added, not nexte'd.
            let mut prev = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e0, w0));
            // Four more rounds on the next four schedule words: E is the A
            // of four rounds ago, rotated, plus the words.
            macro_rules! rounds4 {
                ($w:expr, $f:literal) => {
                    let e = _mm_sha1nexte_epu32(prev, $w);
                    prev = abcd;
                    abcd = _mm_sha1rnds4_epu32::<$f>(abcd, e);
                };
            }
            // W[i..i+4] from the four previous groups, written over the
            // oldest: msg2(msg1(W[i-16..], W[i-12..]) ^ W[i-8..], W[i-4..]).
            macro_rules! schedule {
                ($a:ident, $b:ident, $c:ident, $d:ident) => {
                    $a = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($a, $b), $c), $d);
                };
            }
            rounds4!(w1, 0);
            rounds4!(w2, 0);
            rounds4!(w3, 0);
            schedule!(w0, w1, w2, w3);
            rounds4!(w0, 0);
            schedule!(w1, w2, w3, w0);
            rounds4!(w1, 1);
            schedule!(w2, w3, w0, w1);
            rounds4!(w2, 1);
            schedule!(w3, w0, w1, w2);
            rounds4!(w3, 1);
            schedule!(w0, w1, w2, w3);
            rounds4!(w0, 1);
            schedule!(w1, w2, w3, w0);
            rounds4!(w1, 1);
            schedule!(w2, w3, w0, w1);
            rounds4!(w2, 2);
            schedule!(w3, w0, w1, w2);
            rounds4!(w3, 2);
            schedule!(w0, w1, w2, w3);
            rounds4!(w0, 2);
            schedule!(w1, w2, w3, w0);
            rounds4!(w1, 2);
            schedule!(w2, w3, w0, w1);
            rounds4!(w2, 2);
            schedule!(w3, w0, w1, w2);
            rounds4!(w3, 3);
            schedule!(w0, w1, w2, w3);
            rounds4!(w0, 3);
            schedule!(w1, w2, w3, w0);
            rounds4!(w1, 3);
            schedule!(w2, w3, w0, w1);
            rounds4!(w2, 3);
            schedule!(w3, w0, w1, w2);
            rounds4!(w3, 3);
            // Feed-forward: E is the A that entered rounds 76-79, rotated,
            // plus E's input.
            e0 = _mm_sha1nexte_epu32(prev, e_in);
            abcd = _mm_add_epi32(abcd, abcd_in);
        }
        state[0] = _mm_extract_epi32::<3>(abcd) as u32;
        state[1] = _mm_extract_epi32::<2>(abcd) as u32;
        state[2] = _mm_extract_epi32::<1>(abcd) as u32;
        state[3] = _mm_extract_epi32::<0>(abcd) as u32;
        state[4] = _mm_extract_epi32::<3>(e0) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both paths a digest can take: the portable compressor, and whatever
    /// `compress_blocks` picks on this CPU (the SHA-NI kernel where it
    /// exists). Pinning both keeps the fallback tested on SHA-NI hosts.
    const KERNELS: [(&str, Kernel); 2] = [
        ("scalar", compress_blocks_scalar),
        ("dispatched", compress_blocks),
    ];

    fn digest_on(kernel: Kernel, data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update_with(data, kernel);
        h.finalize_with(kernel)
    }

    fn hex(d: [u8; 20]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn assert_vector(data: &[u8], expect: &str) {
        for (name, kernel) in KERNELS {
            assert_eq!(hex(digest_on(kernel, data)), expect, "{name} kernel");
        }
        assert_eq!(hex(Sha1::digest(data)), expect, "public API");
    }

    // RFC 3174 / FIPS 180 test vectors, on every kernel.
    #[test]
    fn vector_empty() {
        assert_vector(b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn vector_abc() {
        assert_vector(b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn vector_two_blocks() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        );
    }

    #[test]
    fn vector_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
        );
    }

    #[test]
    fn vector_quick_brown_fox() {
        assert_vector(
            b"The quick brown fox jumps over the lazy dog",
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 256) as u8).collect();
        let expect = Sha1::digest(&data);
        for split in 0..=data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data = vec![0xabu8; 300];
        let mut h = Sha1::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling the 55/56/63/64 padding boundaries, where the
        // padding fits one block or spills into a second.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; len];
            assert_eq!(
                digest_on(compress_blocks, &data),
                digest_on(compress_blocks_scalar, &data),
                "len {len}"
            );
        }
    }

    /// `len` pseudo-random bytes from `seed` (splitmix64).
    fn bytes_from(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (z >> 56) as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The scalar and dispatched kernels agree on every length up to
        /// 16 KiB, one-shot and streamed through random split points.
        #[test]
        fn prop_scalar_and_dispatched_kernels_agree(
            len in 0usize..16 * 1024 + 1,
            seed in any::<u64>(),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let data = bytes_from(seed, len);
            let expect = digest_on(compress_blocks_scalar, &data);
            prop_assert_eq!(Sha1::digest(&data), expect);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            for (name, kernel) in KERNELS {
                let mut h = Sha1::new();
                let mut at = 0;
                for &cut in &cuts {
                    h.update_with(&data[at..cut], kernel);
                    at = cut;
                }
                h.update_with(&data[at..], kernel);
                prop_assert_eq!(h.finalize_with(kernel), expect, "{} kernel, cuts {:?}", name, cuts);
            }
        }
    }
}
