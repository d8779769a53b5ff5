//! A std-only streaming gzip encoder (RFC 1951/1952), plus a strict
//! decoder for tests and benchmarks.
//!
//! The server negotiates `Accept-Encoding: gzip` for its streamed
//! responses (large edge lists render straight from cached artifacts),
//! so the encoder is a [`std::io::Write`] adapter. A `write` only copies
//! bytes into the pending 32 KiB block. Everything else runs once per
//! block: the CRC-32, LZ77 matching, Huffman construction and bit
//! packing, into an in-memory buffer that reaches the inner writer after
//! the encoder's clock stops (so [`GzipWriter::finish_timed`] reports
//! encoder time, never time blocked on the inner writer).
//!
//! Matching follows zlib's `deflate_fast`: greedy, over hash chains of
//! 3-byte hashes, at most 4 candidates deep, accepting a 64-byte match
//! at once, stepping over incompressible runs, and extending each
//! candidate 8 bytes at a time. A 32 KiB window carries across blocks,
//! so a match may reach into the previous block. There is one effort
//! level.
//!
//! Each block is emitted in whichever DEFLATE representation is smallest
//! for its actual symbol frequencies — **dynamic Huffman** (`BTYPE=10`,
//! the usual winner on JSON, whose digit-heavy literals cost ~4 bits
//! instead of fixed's 8), fixed Huffman (`BTYPE=01`), or stored
//! (`BTYPE=00`, incompressible input). Symbols and extra bits come from
//! compile-time tables, and each block's codes are bit-reversed once, so
//! emitting a symbol is one OR into a 64-bit bit buffer. Everything is
//! hand-rolled on `std` — the same vendoring philosophy as the in-tree
//! `rand`/`proptest`/`criterion` stand-ins.
//!
//! **Memory per stream** is at most [`STREAM_BUFFER_BYTES`] (352 KiB):
//! the window plus the pending block (64 KiB), the hash heads (32 KiB)
//! and chains (64 KiB), one block's tokens (128 KiB) and its compressed
//! bytes (64 KiB). Each grows with the input: when the whole input fits
//! one block, the hash tables are sized to it, so a 250-byte body fills
//! 1 KiB of them.
//!
//! Layering: `json → GzipWriter → http::ResponseWriter`, so compressed
//! bytes are chunk-framed (`Transfer-Encoding` over `Content-Encoding`).

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Uncompressed bytes per DEFLATE block: the unit of all encoding work.
const BLOCK_BYTES: usize = 32 * 1024;

/// The largest match distance DEFLATE allows, and the history the
/// encoder keeps across blocks.
const WINDOW: usize = 32 * 1024;

/// Upper bound on the heap bytes one [`GzipWriter`] holds (see the
/// module doc for the parts).
pub const STREAM_BUFFER_BYTES: usize =
    (WINDOW + BLOCK_BYTES) + 2 * (1 << HASH_BITS) + 2 * WINDOW + 4 * BLOCK_BYTES + 2 * BLOCK_BYTES;

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
/// log2 of the largest hash-head table.
const HASH_BITS: u32 = 14;
/// Smallest hash-head and chain table, for tiny inputs.
const MIN_TABLE: usize = 64;
/// Candidates a match search visits. On five captured edge-list and
/// component bodies, 4 in place of 16 changed output by −1.2% to +2.1%
/// and cut matching time by more than half.
const CHAIN_DEPTH: usize = 4;
/// A match at least this long is accepted without searching deeper.
const GOOD_LEN: usize = 64;
/// After this many consecutive literals, start stepping over input.
const SKIP_AFTER: usize = 64;

/// The encoder's one effort level. Kept only because the repository
/// benchmark (`hlbench/src/trace.rs`) calls
/// `compress_with(body, Effort::Fast)`; the next change to the benchmark
/// removes it, together with [`compress_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Greedy matching over short hash chains (see the module doc).
    Fast,
}

/// Literal/length alphabet size (symbols 286/287 are reserved).
const NUM_LITLEN: usize = 286;
/// Distance alphabet size.
const NUM_DIST: usize = 30;
/// Code-length alphabet size (for the dynamic-block header).
const NUM_CL: usize = 19;
/// Longest allowed litlen/dist code.
const MAX_CODE_BITS: usize = 15;
/// Longest allowed code-length code.
const MAX_CL_BITS: usize = 7;
/// Transmission order of code-length code lengths (RFC 1951 §3.2.7).
const CL_ORDER: [usize; NUM_CL] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// `(base length, extra bits)` for length codes 257..=285 (RFC 1951 §3.2.5).
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u32; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// `(base distance, extra bits)` for distance codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u32; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Length-code index (symbol `257 + index`) of every match length
/// `3..=MAX_MATCH`, built at compile time.
const LENGTH_INDEX: [u8; MAX_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH + 1];
    let mut code = 0;
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        while code + 1 < LENGTH_BASE.len() && LENGTH_BASE[code + 1] as usize <= len {
            code += 1;
        }
        table[len] = code as u8;
        len += 1;
    }
    table
};

/// Distance code of every distance, zlib's split table: entry `d` for
/// `d = dist - 1 < 256`, and entry `256 + (d >> 7)` above, where every
/// code's base is a multiple of 128 (plus one).
const DIST_INDEX: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut code = 0;
    let mut d = 0;
    while d < 256 {
        while code + 1 < DIST_BASE.len() && DIST_BASE[code + 1] as usize <= d + 1 {
            code += 1;
        }
        table[d] = code as u8;
        d += 1;
    }
    let mut high = 256 >> 7;
    while high < 256 {
        while code + 1 < DIST_BASE.len() && DIST_BASE[code + 1] as usize <= (high << 7) + 1 {
            code += 1;
        }
        table[256 + high] = code as u8;
        high += 1;
    }
    table
};

/// The litlen symbol, extra-bit value and extra-bit count of a match
/// length (`3..=MAX_MATCH`).
fn length_symbol(len: usize) -> (usize, u32, u32) {
    let li = usize::from(LENGTH_INDEX[len]);
    (
        257 + li,
        (len - usize::from(LENGTH_BASE[li])) as u32,
        LENGTH_EXTRA[li],
    )
}

/// The distance symbol, extra-bit value and extra-bit count of a match
/// distance (`1..=WINDOW`).
fn dist_symbol(dist: usize) -> (usize, u32, u32) {
    let d = dist - 1;
    let di = usize::from(if d < 256 {
        DIST_INDEX[d]
    } else {
        DIST_INDEX[256 + (d >> 7)]
    });
    (
        di,
        (dist - usize::from(DIST_BASE[di])) as u32,
        DIST_EXTRA[di],
    )
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup tables
/// for slicing by 8, built at compile time: `CRC_TABLES[0]` is the
/// byte-at-a-time table, and `CRC_TABLES[k][n]` is the CRC of byte `n`
/// followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
};

/// Continues a CRC-32 over `data`, eight bytes per step.
fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Bit-level output
// ---------------------------------------------------------------------

/// LSB-first bit packer into an in-memory byte buffer (DEFLATE packs
/// bits least-significant-first; Huffman codes go in bit-reversed).
/// At most 63 bits may be pending: the token loop flushes whenever 16 or
/// more are, and one match puts at most 48.
struct BitWriter {
    out: Vec<u8>,
    bits: u64,
    nbits: u32,
}

impl BitWriter {
    /// Appends `count` bits of `value`, LSB first.
    #[inline]
    fn put(&mut self, value: u32, count: u32) {
        debug_assert!(self.nbits + count < 64 && u64::from(value) < (1u64 << count));
        self.bits |= u64::from(value) << self.nbits;
        self.nbits += count;
    }

    /// Moves every whole pending byte to `out`: one 8-byte store, then
    /// the length is cut back to the bytes that were complete.
    #[inline]
    fn flush_bytes(&mut self) {
        let whole = self.nbits / 8;
        self.out.extend_from_slice(&self.bits.to_le_bytes());
        self.out.truncate(self.out.len() - 8 + whole as usize);
        self.bits >>= whole * 8;
        self.nbits -= whole * 8;
    }

    /// Appends a few header bits and flushes.
    fn write_bits(&mut self, value: u32, count: u32) {
        self.put(value, count);
        self.flush_bytes();
    }

    /// Pads the current byte with zero bits and flushes it.
    fn align_byte(&mut self) {
        self.write_bits(0, (8 - self.nbits % 8) % 8);
    }

    /// Appends raw bytes (the caller has aligned to a byte).
    fn write_bytes(&mut self, data: &[u8]) {
        debug_assert_eq!(self.nbits, 0);
        self.out.extend_from_slice(data);
    }
}

// ---------------------------------------------------------------------
// LZ77 tokenization
// ---------------------------------------------------------------------

/// One LZ77 token, packed: bit 23 set = match with `len - 3` in bits
/// 15..23 and `dist - 1` in bits 0..15; otherwise a literal byte.
type Token = u32;
const MATCH_FLAG: u32 = 1 << 23;

fn match_token(len: usize, dist: usize) -> Token {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len) && (1..=WINDOW).contains(&dist));
    MATCH_FLAG | (((len - MIN_MATCH) as u32) << 15) | ((dist - 1) as u32)
}

/// The `(length, distance)` of a match token.
fn match_of(token: Token) -> (usize, usize) {
    (
        ((token >> 15) & 0xff) as usize + MIN_MATCH,
        (token & 0x7fff) as usize + 1,
    )
}

/// Eight bytes of `bytes` at `at`, little-endian.
#[inline]
fn load_u64(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// How many leading bytes of `a` and `b` agree, up to `limit`: 8 bytes
/// at a time (the first differing byte is the lowest set byte of the
/// XOR), then byte by byte for the tail.
#[inline]
fn match_len(a: &[u8], b: &[u8], limit: usize) -> usize {
    let (a, b) = (&a[..limit], &b[..limit]);
    let mut len = 0;
    while len + 8 <= limit {
        let diff = load_u64(a, len) ^ load_u64(b, len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && a[len] == b[len] {
        len += 1;
    }
    len
}

/// Hash-chain match finder over the stream's window, kept for the whole
/// stream. Positions index the window; 0 doubles as "none", so position
/// 0 of a stream is never a match source.
struct Matcher {
    /// Latest position of each 3-byte hash.
    head: Vec<u16>,
    /// The previous position with the same hash, at `position & chain_mask`.
    chain: Vec<u16>,
    chain_mask: usize,
    hash_shift: u32,
}

impl Matcher {
    /// A matcher for a stream whose positions before the first slide
    /// span `span` bytes: the first block's length when it is also the
    /// last, else the whole window.
    fn new(span: usize) -> Self {
        let size = span.next_power_of_two().clamp(MIN_TABLE, WINDOW);
        let hash_bits = size.trailing_zeros().min(HASH_BITS);
        Matcher {
            head: vec![0; 1 << hash_bits],
            chain: vec![0; size],
            chain_mask: size - 1,
            hash_shift: 32 - hash_bits,
        }
    }

    /// Hash of the 3 bytes at `i`: one 4-byte load where it fits.
    #[inline]
    fn hash(&self, window: &[u8], i: usize) -> usize {
        let v = match window.get(i..i + 4) {
            Some(w) => u32::from_le_bytes([w[0], w[1], w[2], w[3]]) & 0xff_ffff,
            None => u32::from_le_bytes([window[i], window[i + 1], window[i + 2], 0]),
        };
        (v.wrapping_mul(0x9E37_79B1) >> self.hash_shift) as usize
    }

    /// Makes `i`, whose hash is `h`, the newest position of its chain.
    #[inline]
    fn insert_hashed(&mut self, i: usize, h: usize) {
        self.chain[i & self.chain_mask] = self.head[h];
        // Window positions are below WINDOW + BLOCK_BYTES = 2^16.
        self.head[h] = i as u16;
    }

    #[inline]
    fn insert(&mut self, window: &[u8], i: usize) {
        self.insert_hashed(i, self.hash(window, i));
    }

    /// Longest match for position `i` (whose hash is `h`) among the
    /// chain's candidates that lie within [`WINDOW`]. The chain only ever
    /// steps to older positions, so the first one out of reach ends the
    /// search.
    #[inline]
    fn find_match(&self, window: &[u8], i: usize, h: usize) -> (usize, usize) {
        let limit = (window.len() - i).min(MAX_MATCH);
        // The oldest position a match may start at (0 is "none").
        let oldest = i.saturating_sub(WINDOW).max(1);
        let here = &window[i..];
        let (mut best_len, mut best_dist) = (0, 0);
        let mut cand = usize::from(self.head[h]);
        for _ in 0..CHAIN_DEPTH {
            if cand < oldest {
                break;
            }
            // Only a candidate that agrees at `best_len` can beat it.
            if window[cand + best_len] == here[best_len] {
                let len = match_len(&window[cand..], here, limit);
                if len > best_len {
                    best_len = len;
                    best_dist = i - cand;
                    if len == limit || len >= GOOD_LEN {
                        break;
                    }
                }
            }
            cand = usize::from(self.chain[cand & self.chain_mask]);
        }
        (best_len, best_dist)
    }

    /// Greedy LZ77 over `window[start..]`, matching into the whole
    /// window. Positions are hashed as they are passed; the last two of
    /// the previous block are hashed here, now that their bytes exist.
    fn tokenize(&mut self, window: &[u8], start: usize, tokens: &mut Vec<Token>) {
        let end = window.len();
        // At most one token per byte.
        tokens.clear();
        tokens.reserve(end - start);
        // Positions with MIN_MATCH bytes left to hash end here (exclusive).
        let hashable = end.saturating_sub(MIN_MATCH - 1);
        for p in start.saturating_sub(MIN_MATCH - 1)..start.min(hashable) {
            self.insert(window, p);
        }
        let mut i = start;
        // Consecutive literals, which drive skip-ahead.
        let mut miss_run = 0usize;
        while i < end {
            if i < hashable {
                let h = self.hash(window, i);
                let (len, dist) = self.find_match(window, i, h);
                self.insert_hashed(i, h);
                if len >= MIN_MATCH {
                    miss_run = 0;
                    tokens.push(match_token(len, dist));
                    // Hash the match's body too: later matches can anchor
                    // inside it.
                    let next = i + len;
                    i += 1;
                    while i < next.min(hashable) {
                        self.insert(window, i);
                        i += 1;
                    }
                    i = next;
                    continue;
                }
            }
            // Incompressible run: after SKIP_AFTER literals, step over
            // input without match searches, emitting the skipped bytes as
            // literals. The step grows with the run (capped),
            // zlib/libdeflate-style.
            miss_run += 1;
            let skip = if miss_run >= SKIP_AFTER {
                ((miss_run - SKIP_AFTER) >> 5).min(7)
            } else {
                0
            };
            tokens.push(Token::from(window[i]));
            i += 1;
            for _ in 0..skip.min(end - i) {
                tokens.push(Token::from(window[i]));
                if i < hashable {
                    self.insert(window, i);
                }
                i += 1;
            }
        }
    }

    /// Moves every position down by [`WINDOW`] after the window slides;
    /// positions that leave it become "none".
    fn slide(&mut self) {
        for pos in self.head.iter_mut().chain(self.chain.iter_mut()) {
            *pos = pos.saturating_sub(WINDOW as u16);
        }
    }
}

// ---------------------------------------------------------------------
// Huffman code construction
// ---------------------------------------------------------------------

/// Computes length-limited Huffman code lengths for `freqs` (zlib's
/// `gen_bitlen` overflow redistribution keeps every length ≤ `max_bits`
/// while preserving a complete Kraft sum). A lone used symbol gets
/// length 1 — the one-code special case DEFLATE permits.
fn huffman_lengths(freqs: &[u32], max_bits: usize) -> Vec<u8> {
    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    let mut used: Vec<usize> = (0..n).filter(|&s| freqs[s] > 0).collect();
    match used.len() {
        0 => return lengths,
        1 => {
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    // Two-queue Huffman construction: with the leaves sorted by weight
    // (ties on symbol, for deterministic output), merged nodes are made
    // in nondecreasing weight order, so the two lightest nodes are
    // always at the fronts of the leaf run and the merged run. Nodes
    // 0..m are the leaves, m.. the merges; the root is made last.
    used.sort_unstable_by_key(|&s| (freqs[s], s));
    let m = used.len();
    let mut weight: Vec<u64> = used.iter().map(|&s| u64::from(freqs[s])).collect();
    let mut parent = vec![0usize; 2 * m - 1];
    let (mut leaf, mut merged) = (0, m);
    for node in m..2 * m - 1 {
        let mut sum = 0;
        for _ in 0..2 {
            let child = if leaf < m && (merged == node || weight[leaf] <= weight[merged]) {
                leaf += 1;
                leaf - 1
            } else {
                merged += 1;
                merged - 1
            };
            parent[child] = node;
            sum += weight[child];
        }
        weight.push(sum);
    }
    // Depths from the root down (a parent is made after its children);
    // the count array spans tree depths *and* the 1..=max_bits range the
    // redistribution and assignment loops index.
    let mut depth = vec![0usize; 2 * m - 1];
    let mut bl_count = vec![0usize; m.max(max_bits) + 1];
    for node in (0..2 * m - 2).rev() {
        depth[node] = depth[parent[node]] + 1;
        if node < m {
            bl_count[depth[node].min(max_bits)] += 1;
        }
    }
    // Clamping over-deep leaves to max_bits overfills the code: the
    // Kraft sum K = Σ count[bits]·2^(max_bits − bits) exceeds 2^max_bits
    // by an integer excess. Each redistribution step (zlib gen_bitlen)
    // splits a leaf above the limit into two children one level down and
    // adopts one max-length leaf as the sibling, which frees exactly one
    // unit — so driving the measured excess to zero restores a complete
    // code.
    let kraft: u64 = (1..=max_bits)
        .map(|bits| (bl_count[bits] as u64) << (max_bits - bits))
        .sum();
    let mut excess = kraft - (1u64 << max_bits);
    while excess > 0 {
        let mut bits = max_bits - 1;
        while bl_count[bits] == 0 {
            bits -= 1;
        }
        bl_count[bits] -= 1;
        bl_count[bits + 1] += 2;
        bl_count[max_bits] -= 1;
        excess -= 1;
    }
    // Reassign the length multiset: least frequent symbols (first in
    // `used`) get the longest codes.
    let mut slot = 0;
    for bits in (1..=max_bits).rev() {
        for _ in 0..bl_count[bits] {
            lengths[used[slot]] = bits as u8;
            slot += 1;
        }
    }
    debug_assert_eq!(slot, used.len());
    debug_assert_eq!(
        used.iter()
            .map(|&s| 1u64 << (max_bits - lengths[s] as usize))
            .sum::<u64>(),
        1u64 << max_bits,
        "code must be complete"
    );
    lengths
}

/// Canonical codes (MSB-first) for a length assignment.
fn canonical_codes(lengths: &[u8]) -> Vec<u16> {
    let mut bl_count = [0u16; MAX_CODE_BITS + 1];
    for &l in lengths {
        bl_count[usize::from(l)] += 1;
    }
    bl_count[0] = 0;
    let mut next_code = [0u16; MAX_CODE_BITS + 2];
    let mut code = 0u16;
    for bits in 1..=MAX_CODE_BITS {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[usize::from(l)];
                next_code[usize::from(l)] += 1;
                c
            }
        })
        .collect()
}

/// `(bit-reversed code, length)` per symbol, ready for LSB-first packing.
fn packed_codes(lengths: &[u8]) -> Vec<(u32, u32)> {
    canonical_codes(lengths)
        .iter()
        .zip(lengths)
        .map(|(&code, &len)| match len {
            0 => (0, 0),
            _ => (
                u32::from(code).reverse_bits() >> (32 - u32::from(len)),
                u32::from(len),
            ),
        })
        .collect()
}

/// The fixed litlen code lengths (RFC 1951 §3.2.6).
fn fixed_litlen_lengths() -> Vec<u8> {
    let mut lengths = vec![8u8; 288];
    lengths[144..256].fill(9);
    lengths[256..280].fill(7);
    lengths
}

// ---------------------------------------------------------------------
// Dynamic-block header (code-length RLE)
// ---------------------------------------------------------------------

/// One RLE item of the code-length stream: `(symbol, extra value,
/// extra bits)`.
type ClItem = (u8, u32, u32);

/// Run-length encodes one lengths array with the code-length alphabet
/// (16 = repeat previous 3–6, 17 = zeros 3–10, 18 = zeros 11–138),
/// accumulating symbol frequencies for the CL Huffman code.
fn rle_lengths(lengths: &[u8], items: &mut Vec<ClItem>, cl_freqs: &mut [u32; NUM_CL]) {
    let mut i = 0;
    while i < lengths.len() {
        let run_start = i;
        let value = lengths[i];
        while i < lengths.len() && lengths[i] == value {
            i += 1;
        }
        let mut run = i - run_start;
        if value == 0 {
            while run >= 11 {
                let take = run.min(138);
                items.push((18, (take - 11) as u32, 7));
                cl_freqs[18] += 1;
                run -= take;
            }
            if run >= 3 {
                items.push((17, (run - 3) as u32, 3));
                cl_freqs[17] += 1;
                run = 0;
            }
        } else {
            // First occurrence is always spelled out; repeats pack.
            items.push((value, 0, 0));
            cl_freqs[usize::from(value)] += 1;
            run -= 1;
            while run >= 3 {
                let take = run.min(6);
                items.push((16, (take - 3) as u32, 2));
                cl_freqs[16] += 1;
                run -= take;
            }
        }
        for _ in 0..run {
            items.push((value, 0, 0));
            cl_freqs[usize::from(value)] += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Block emission
// ---------------------------------------------------------------------

/// Cost in bits of emitting `freqs`-distributed symbols under `lengths`
/// (extra bits not included).
fn symbol_cost(freqs: &[u32], lengths: &[u8]) -> u64 {
    freqs
        .iter()
        .zip(lengths)
        .map(|(&f, &l)| u64::from(f) * u64::from(l))
        .sum()
}

/// Emits one block's tokens (over `block`, its uncompressed bytes) in
/// the smallest of the stored / fixed / dynamic representations.
fn deflate_block(bits: &mut BitWriter, block: &[u8], tokens: &[Token], last: bool) {
    // Symbol frequencies (extra bits counted separately since they are
    // representation-independent).
    let mut litlen_freqs = [0u32; NUM_LITLEN];
    let mut dist_freqs = [0u32; NUM_DIST];
    let mut extra_cost = 0u64;
    for &t in tokens {
        if t & MATCH_FLAG == 0 {
            litlen_freqs[t as usize] += 1;
        } else {
            let (len, dist) = match_of(t);
            let (ls, _, le) = length_symbol(len);
            let (ds, _, de) = dist_symbol(dist);
            litlen_freqs[ls] += 1;
            dist_freqs[ds] += 1;
            extra_cost += u64::from(le + de);
        }
    }
    litlen_freqs[256] += 1; // end-of-block

    // Dynamic code construction + header cost.
    let dyn_litlen = huffman_lengths(&litlen_freqs, MAX_CODE_BITS);
    let dyn_dist = huffman_lengths(&dist_freqs, MAX_CODE_BITS);
    let hlit = dyn_litlen
        .iter()
        .rposition(|&l| l > 0)
        .unwrap_or(0)
        .max(256)
        + 1;
    let hdist = dyn_dist.iter().rposition(|&l| l > 0).unwrap_or(0) + 1;
    let mut cl_items: Vec<ClItem> = Vec::new();
    let mut cl_freqs = [0u32; NUM_CL];
    rle_lengths(&dyn_litlen[..hlit], &mut cl_items, &mut cl_freqs);
    rle_lengths(&dyn_dist[..hdist], &mut cl_items, &mut cl_freqs);
    let cl_lengths = huffman_lengths(&cl_freqs, MAX_CL_BITS);
    let hclen = CL_ORDER
        .iter()
        .rposition(|&s| cl_lengths[s] > 0)
        .unwrap_or(3)
        .max(3)
        + 1;
    let header_cost = 5
        + 5
        + 4
        + 3 * hclen as u64
        + cl_items
            .iter()
            .map(|&(s, _, eb)| u64::from(cl_lengths[usize::from(s)]) + u64::from(eb))
            .sum::<u64>();
    let dynamic_cost =
        header_cost + symbol_cost(&litlen_freqs, &dyn_litlen) + symbol_cost(&dist_freqs, &dyn_dist);

    // Fixed + stored costs for comparison (all exclude the 3 header bits
    // common to every type; stored adds its byte-alignment padding).
    let fixed_litlen = fixed_litlen_lengths();
    let fixed_cost = symbol_cost(&litlen_freqs, &fixed_litlen)
        + dist_freqs.iter().map(|&f| u64::from(f) * 5).sum::<u64>();
    let stored_cost = 7 + 32 + 8 * block.len() as u64;

    bits.write_bits(u32::from(last), 1); // BFINAL
    if stored_cost < (dynamic_cost + extra_cost).min(fixed_cost + extra_cost) {
        bits.write_bits(0b00, 2);
        bits.align_byte();
        let len = block.len() as u16;
        bits.write_bytes(&len.to_le_bytes());
        bits.write_bytes(&(!len).to_le_bytes());
        bits.write_bytes(block);
        return;
    }

    let (litlen, dist) = if dynamic_cost < fixed_cost {
        bits.write_bits(0b10, 2);
        bits.write_bits((hlit - 257) as u32, 5);
        bits.write_bits((hdist - 1) as u32, 5);
        bits.write_bits((hclen - 4) as u32, 4);
        for &s in &CL_ORDER[..hclen] {
            bits.write_bits(u32::from(cl_lengths[s]), 3);
        }
        let cl_codes = packed_codes(&cl_lengths);
        for &(s, extra, extra_bits) in &cl_items {
            let (code, len) = cl_codes[usize::from(s)];
            bits.write_bits(code | (extra << len), len + extra_bits);
        }
        (packed_codes(&dyn_litlen), packed_codes(&dyn_dist))
    } else {
        bits.write_bits(0b01, 2);
        (packed_codes(&fixed_litlen), packed_codes(&[5u8; 32]))
    };
    for &t in tokens {
        // A match puts at most 15 + 5 + 15 + 13 = 48 bits.
        if bits.nbits >= 16 {
            bits.flush_bytes();
        }
        if t & MATCH_FLAG == 0 {
            let (code, len) = litlen[t as usize];
            bits.put(code, len);
        } else {
            let (len, d) = match_of(t);
            let (ls, extra, extra_bits) = length_symbol(len);
            let (code, code_bits) = litlen[ls];
            bits.put(code | (extra << code_bits), code_bits + extra_bits);
            let (ds, extra, extra_bits) = dist_symbol(d);
            let (code, code_bits) = dist[ds];
            bits.put(code | (extra << code_bits), code_bits + extra_bits);
        }
    }
    bits.flush_bytes();
    let (code, len) = litlen[256]; // end of block
    bits.write_bits(code, len);
}

// ---------------------------------------------------------------------
// The streaming encoder
// ---------------------------------------------------------------------

/// A streaming gzip encoder: a [`Write`] adapter that compresses into
/// its inner writer, one 32 KiB block at a time, holding at
/// most [`STREAM_BUFFER_BYTES`]. Call [`GzipWriter::finish`] to emit the
/// final block and trailer — dropping without finishing truncates the
/// stream.
pub struct GzipWriter<W: Write> {
    inner: W,
    /// The last (up to) [`WINDOW`] bytes already encoded, which matches
    /// may reach into, then the pending block from `block_start`.
    window: Vec<u8>,
    block_start: usize,
    /// Allocated by the first block, and sized by it.
    matcher: Option<Matcher>,
    /// The current block's tokens (reused across blocks).
    tokens: Vec<Token>,
    /// Compressed bytes not yet handed to `inner`.
    bits: BitWriter,
    crc: u32,
    total_in: u64,
    /// Wall time spent encoding blocks: CRC, LZ77, Huffman and bit
    /// packing, not the inner writes. Server metrics feed this into the
    /// `gzip_encode` histogram via [`GzipWriter::finish_timed`].
    spent: Duration,
}

impl<W: Write> GzipWriter<W> {
    /// Starts a gzip stream on `inner`. The 10-byte header goes out with
    /// the first block.
    pub fn new(inner: W) -> Self {
        // magic, CM=8 (deflate), FLG=0, MTIME=0 (deterministic output),
        // XFL=0, OS=255 (unknown).
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&[0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff]);
        Self {
            inner,
            window: Vec::new(),
            block_start: 0,
            matcher: None,
            tokens: Vec::new(),
            bits: BitWriter {
                out,
                bits: 0,
                nbits: 0,
            },
            crc: 0,
            total_in: 0,
            spent: Duration::ZERO,
        }
    }

    /// Compresses the final block (even when empty), writes the CRC32 +
    /// length trailer, flushes, and returns the inner writer.
    pub fn finish(self) -> io::Result<W> {
        self.finish_timed().map(|(inner, _)| inner)
    }

    /// Like [`GzipWriter::finish`], but also reports the total wall time
    /// spent encoding blocks (CRC, LZ77, Huffman and bit packing; not the
    /// copies into the block buffer and not the inner writes, which may
    /// block on a slow consumer). The server records it into its
    /// `gzip_encode` latency histogram.
    pub fn finish_timed(mut self) -> io::Result<(W, Duration)> {
        self.encode_block(true)?;
        self.inner.flush()?;
        Ok((self.inner, self.spent))
    }

    /// Encodes the pending block into `bits.out` (with the trailer when
    /// `last`), slides the window, and only then, with the clock
    /// stopped, hands the compressed bytes to the inner writer.
    fn encode_block(&mut self, last: bool) -> io::Result<()> {
        let started = Instant::now();
        let block = &self.window[self.block_start..];
        self.crc = crc32_update(self.crc, block);
        self.total_in += block.len() as u64;
        let span = if last { block.len() } else { WINDOW };
        let matcher = self.matcher.get_or_insert_with(|| Matcher::new(span));
        matcher.tokenize(&self.window, self.block_start, &mut self.tokens);
        deflate_block(
            &mut self.bits,
            &self.window[self.block_start..],
            &self.tokens,
            last,
        );
        if last {
            self.bits.align_byte();
            self.bits.write_bytes(&self.crc.to_le_bytes());
            self.bits.write_bytes(&(self.total_in as u32).to_le_bytes());
        } else if self.window.len() > WINDOW {
            // Blocks are full until the last, so the window holds exactly
            // one window of history plus one block here.
            debug_assert_eq!(self.window.len(), WINDOW + BLOCK_BYTES);
            self.window.copy_within(BLOCK_BYTES.., 0);
            self.window.truncate(WINDOW);
            matcher.slide();
        }
        self.block_start = self.window.len();
        self.spent += started.elapsed();
        self.inner.write_all(&self.bits.out)?;
        self.bits.out.clear();
        Ok(())
    }
}

impl<W: Write> Write for GzipWriter<W> {
    /// Copies `data` into the pending block; a full block is encoded
    /// when more input arrives, so the final block is never empty unless
    /// the whole stream is.
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        loop {
            let take = (self.block_start + BLOCK_BYTES - self.window.len()).min(rest.len());
            let want = self.window.len() + take;
            if want > self.window.capacity() {
                // Double from 1 KiB, never past the window plus one block.
                let cap = want.next_power_of_two().clamp(1024, WINDOW + BLOCK_BYTES);
                self.window.reserve_exact(cap - self.window.len());
            }
            self.window.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if rest.is_empty() {
                return Ok(data.len());
            }
            self.encode_block(false)?;
        }
    }

    /// Pending block bytes cannot be emitted without ending a block, so
    /// this forwards only what is already compressed (the header, before
    /// the first block).
    fn flush(&mut self) -> io::Result<()> {
        self.inner.write_all(&self.bits.out)?;
        self.bits.out.clear();
        self.inner.flush()
    }
}

/// Compresses `data` to a complete in-memory gzip stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut gz = GzipWriter::new(Vec::new());
    gz.write_all(data).expect("Vec write cannot fail");
    gz.finish().expect("Vec write cannot fail")
}

/// [`compress`] under its former signature, for the repository
/// benchmark only (see [`Effort`]); the next change to the benchmark
/// removes it.
pub fn compress_with(data: &[u8], _effort: Effort) -> Vec<u8> {
    compress(data)
}

// ---------------------------------------------------------------------
// The decoder (tests + benchmarks)
// ---------------------------------------------------------------------

/// LSB-first bit reader over a byte slice (the decoder half).
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    bitbuf: u32,
    nbits: u32,
}

impl BitReader<'_> {
    fn bit(&mut self) -> Result<u32, String> {
        if self.nbits == 0 {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "truncated DEFLATE stream".to_string())?;
            self.pos += 1;
            self.bitbuf = u32::from(b);
            self.nbits = 8;
        }
        let bit = self.bitbuf & 1;
        self.bitbuf >>= 1;
        self.nbits -= 1;
        Ok(bit)
    }

    fn bits(&mut self, count: u32) -> Result<u32, String> {
        let mut v = 0;
        for k in 0..count {
            v |= self.bit()? << k;
        }
        Ok(v)
    }

    fn align_byte(&mut self) {
        self.bitbuf = 0;
        self.nbits = 0;
    }
}

/// A canonical Huffman decode table: per-length symbol counts plus the
/// symbols sorted by (length, symbol) — the bit-by-bit decode of
/// Deutsch's `puff`.
struct DecodeTable {
    count: [u16; MAX_CODE_BITS + 1],
    symbols: Vec<u16>,
}

impl DecodeTable {
    fn build(lengths: &[u8]) -> Result<DecodeTable, String> {
        let mut count = [0u16; MAX_CODE_BITS + 1];
        for &l in lengths {
            count[usize::from(l)] += 1;
        }
        count[0] = 0;
        let mut symbols = Vec::with_capacity(lengths.len());
        for bits in 1..=MAX_CODE_BITS as u8 {
            for (sym, &l) in lengths.iter().enumerate() {
                if l == bits {
                    symbols.push(sym as u16);
                }
            }
        }
        Ok(DecodeTable { count, symbols })
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, String> {
        let (mut code, mut first, mut index) = (0u32, 0u32, 0u32);
        for bits in 1..=MAX_CODE_BITS {
            code |= r.bit()?;
            let count = u32::from(self.count[bits]);
            if code < first + count {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err("invalid Huffman code".to_string())
    }
}

/// Reads a dynamic block's header into litlen + dist decode tables.
fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(DecodeTable, DecodeTable), String> {
    let hlit = r.bits(5)? as usize + 257;
    let hdist = r.bits(5)? as usize + 1;
    let hclen = r.bits(4)? as usize + 4;
    let mut cl_lengths = [0u8; NUM_CL];
    for &s in &CL_ORDER[..hclen] {
        cl_lengths[s] = r.bits(3)? as u8;
    }
    let cl_table = DecodeTable::build(&cl_lengths)?;
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        match cl_table.decode(r)? {
            s @ 0..=15 => lengths.push(s as u8),
            16 => {
                let &last = lengths.last().ok_or("repeat with no previous length")?;
                let run = 3 + r.bits(2)? as usize;
                lengths.resize(lengths.len() + run, last);
            }
            17 => {
                let run = 3 + r.bits(3)? as usize;
                lengths.resize(lengths.len() + run, 0);
            }
            18 => {
                let run = 11 + r.bits(7)? as usize;
                lengths.resize(lengths.len() + run, 0);
            }
            other => return Err(format!("invalid code-length symbol {other}")),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err("code-length repeat overran the header".to_string());
    }
    Ok((
        DecodeTable::build(&lengths[..hlit])?,
        DecodeTable::build(&lengths[hlit..])?,
    ))
}

/// Inflates one Huffman-coded block into `out`.
fn inflate_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    litlen: &DecodeTable,
    dist: &DecodeTable,
) -> Result<(), String> {
    loop {
        let sym = litlen.decode(r)?;
        match usize::from(sym) {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            s => {
                let li = s - 257;
                if li >= LENGTH_BASE.len() {
                    return Err(format!("invalid length code {s}"));
                }
                let len = usize::from(LENGTH_BASE[li]) + r.bits(LENGTH_EXTRA[li])? as usize;
                let di = usize::from(dist.decode(r)?);
                if di >= DIST_BASE.len() {
                    return Err(format!("invalid distance code {di}"));
                }
                let d = usize::from(DIST_BASE[di]) + r.bits(DIST_EXTRA[di])? as usize;
                if d > out.len() {
                    return Err("distance past start of output".to_string());
                }
                for _ in 0..len {
                    out.push(out[out.len() - d]);
                }
            }
        }
    }
}

/// Decompresses a complete gzip stream (header + DEFLATE + trailer),
/// verifying the CRC32 and length trailer. Supports stored, fixed- and
/// dynamic-Huffman blocks. Used by the integration tests and the
/// `server_smoke` benchmark to byte-compare compressed bodies against
/// their buffered renderings.
pub fn decode(stream: &[u8]) -> Result<Vec<u8>, String> {
    if stream.len() < 18 || stream[0] != 0x1f || stream[1] != 0x8b || stream[2] != 8 {
        return Err("not a gzip stream".to_string());
    }
    let flags = stream[3];
    let mut pos = 10;
    if flags & 0x04 != 0 {
        // FEXTRA
        let lo = *stream.get(pos).ok_or("truncated header")?;
        let hi = *stream.get(pos + 1).ok_or("truncated header")?;
        pos += 2 + (usize::from(lo) | (usize::from(hi) << 8));
    }
    for mask in [0x08u8, 0x10] {
        // FNAME, FCOMMENT: zero-terminated strings.
        if flags & mask != 0 {
            while *stream.get(pos).ok_or("truncated header")? != 0 {
                pos += 1;
            }
            pos += 1;
        }
    }
    if flags & 0x02 != 0 {
        pos += 2; // FHCRC
    }
    let mut r = BitReader {
        bytes: stream,
        pos,
        bitbuf: 0,
        nbits: 0,
    };
    let mut out = Vec::new();
    loop {
        let last = r.bits(1)?;
        match r.bits(2)? {
            0b00 => {
                r.align_byte();
                let header = stream
                    .get(r.pos..r.pos + 4)
                    .ok_or("truncated stored block header")?;
                let len = usize::from(header[0]) | (usize::from(header[1]) << 8);
                let nlen = usize::from(header[2]) | (usize::from(header[3]) << 8);
                if len != !nlen & 0xffff {
                    return Err("stored block LEN/NLEN mismatch".to_string());
                }
                r.pos += 4;
                out.extend_from_slice(
                    stream
                        .get(r.pos..r.pos + len)
                        .ok_or("truncated stored block")?,
                );
                r.pos += len;
            }
            0b01 => {
                let litlen = DecodeTable::build(&fixed_litlen_lengths())?;
                let dist = DecodeTable::build(&[5u8; 32])?;
                inflate_block(&mut r, &mut out, &litlen, &dist)?;
            }
            0b10 => {
                let (litlen, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &mut out, &litlen, &dist)?;
            }
            _ => return Err("invalid block type".to_string()),
        }
        if last == 1 {
            break;
        }
    }
    r.align_byte();
    let trailer = stream
        .get(r.pos..r.pos + 8)
        .ok_or("truncated gzip trailer")?;
    let crc = u32::from_le_bytes(trailer[..4].try_into().unwrap());
    let isize_ = u32::from_le_bytes(trailer[4..].try_into().unwrap());
    if crc32_update(0, &out) != crc {
        return Err("CRC32 mismatch".to_string());
    }
    if out.len() as u32 != isize_ {
        return Err("length trailer mismatch".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        decode(&compress(data)).expect("decode compressed stream")
    }

    /// Deterministic xorshift bytes: incompressible on their own.
    fn random_bytes(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xff) as u8
            })
            .collect()
    }

    /// A sorted-source JSON edge list with irregular targets, harder than
    /// real s-line-graph output.
    fn synthetic_edge_list(rows: u32) -> Vec<u8> {
        let mut body = String::from("[");
        let mut x = 1u64;
        for i in 0..rows {
            // Cheap xorshift so coordinates are irregular, like real data.
            x ^= x << 13;
            x %= 1 << 20;
            x ^= x >> 7;
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("[{},{}]", i / 7, x % 100_000));
        }
        body.push(']');
        body.into_bytes()
    }

    /// A JSON edge list rendered from `(source, target)` pairs.
    fn edge_list_json(ids: &[u32]) -> Vec<u8> {
        let rows: Vec<String> = ids
            .chunks_exact(2)
            .map(|p| format!("[{},{}]", p[0], p[1]))
            .collect();
        format!("[{}]", rows.join(",")).into_bytes()
    }

    /// Encodes `data` block by block, replaying each block's tokens
    /// against the input before it: every match must copy the right
    /// bytes from within [`WINDOW`]. Returns the longest distance used.
    fn replay_tokens(data: &[u8]) -> usize {
        let mut gz = GzipWriter::new(Vec::new());
        let mut longest = 0;
        let mut fed = 0;
        let mut start = 0;
        loop {
            let end = (start + BLOCK_BYTES).min(data.len());
            // A full block is encoded when the byte after it arrives.
            if end < data.len() {
                gz.write_all(&data[fed..=end]).unwrap();
                fed = end + 1;
            } else {
                gz.write_all(&data[fed..]).unwrap();
                gz.encode_block(true).unwrap();
            }
            let mut out = data[..start].to_vec();
            for &t in &gz.tokens {
                if t & MATCH_FLAG == 0 {
                    out.push(t as u8);
                    continue;
                }
                let (len, dist) = match_of(t);
                assert!(dist <= WINDOW && dist <= out.len(), "distance {dist}");
                longest = longest.max(dist);
                for _ in 0..len {
                    out.push(out[out.len() - dist]);
                }
            }
            assert_eq!(out, &data[..end], "block at {start} replays wrong");
            if end == data.len() {
                return longest;
            }
            start = end;
        }
    }

    /// Heap bytes the encoder holds: what [`STREAM_BUFFER_BYTES`] bounds.
    fn buffer_bytes<W: Write>(gz: &GzipWriter<W>) -> usize {
        let tables = gz
            .matcher
            .as_ref()
            .map_or(0, |m| 2 * (m.head.capacity() + m.chain.capacity()));
        gz.window.capacity() + tables + 4 * gz.tokens.capacity() + gz.bits.out.capacity()
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        assert_eq!(roundtrip(b""), b"");
        assert_eq!(roundtrip(b"a"), b"a");
        assert_eq!(roundtrip(b"ab"), b"ab");
        assert_eq!(roundtrip(b"hello, world"), b"hello, world");
    }

    #[test]
    fn repetitive_input_roundtrips_and_compresses() {
        let data: Vec<u8> = b"[[12,345],[12,346],[13,7],"
            .iter()
            .copied()
            .cycle()
            .take(200_000)
            .collect();
        let compressed = compress(&data);
        assert_eq!(decode(&compressed).unwrap(), data);
        assert!(
            compressed.len() * 10 < data.len(),
            "repetitive JSON should compress >10x, got {} -> {}",
            data.len(),
            compressed.len()
        );
    }

    #[test]
    fn json_edge_list_compresses_well() {
        // The acceptance-criterion shape: a sorted JSON edge list. The
        // integration tests assert the same bound on genomics data over
        // the wire.
        let body = synthetic_edge_list(40_000);
        let compressed = compress(&body);
        assert_eq!(decode(&compressed).unwrap(), body);
        assert!(
            compressed.len() * 5 <= body.len() * 2,
            "edge-list JSON must compress >=2.5x, got {} -> {}",
            body.len(),
            compressed.len()
        );
    }

    #[test]
    fn json_edge_list_output_stays_under_the_greedy_per_block_size() {
        // 189,520 bytes is what the encoder this one replaced produced on
        // this body at its fast level (greedy matching, independent
        // blocks). The window across blocks may only shrink it.
        let body = synthetic_edge_list(40_000);
        assert_eq!(body.len(), 507_606);
        let compressed = compress(&body);
        assert!(
            compressed.len() <= 189_520,
            "output grew: {} bytes",
            compressed.len()
        );
    }

    #[test]
    fn incompressible_input_roundtrips_via_stored_blocks() {
        // Pseudo-random bytes defeat both Huffman codes; block-type
        // selection must fall back to stored blocks, bounding expansion
        // to the ~5 bytes of framing per 32 KiB block.
        let data = random_bytes(100_000, 0x9E37_79B9_7F4A_7C15);
        let compressed = compress(&data);
        assert_eq!(decode(&compressed).unwrap(), data);
        assert!(
            compressed.len() < data.len() + 100,
            "stored fallback must bound expansion: {} -> {}",
            data.len(),
            compressed.len()
        );
    }

    #[test]
    fn block_boundaries_roundtrip() {
        let random = random_bytes(BLOCK_BYTES, 0x2545_F491_4F6C_DD1D);
        let mut inputs: Vec<(String, Vec<u8>)> = [
            BLOCK_BYTES - 1,
            BLOCK_BYTES,
            BLOCK_BYTES + 1,
            2 * BLOCK_BYTES,
            2 * BLOCK_BYTES + 17,
        ]
        .iter()
        .map(|&len| {
            (
                format!("mod-251 {len}"),
                (0..len).map(|i| (i % 251) as u8).collect(),
            )
        })
        .collect();
        // Repeats that exist only in the previous block: each block's
        // bytes are incompressible on their own.
        let mut twice = random.clone();
        twice.extend_from_slice(&random);
        inputs.push(("previous block only".into(), twice.clone()));
        let mut shifted = random.clone();
        shifted.extend_from_slice(&random[5..]);
        shifted.extend_from_slice(&random[..300]);
        inputs.push(("previous block, shifted".into(), shifted));
        // A repeat at distance exactly WINDOW.
        let mut at_window = random.clone();
        at_window.extend_from_slice(&random[..300]);
        inputs.push(("distance 32768".into(), at_window.clone()));
        // A repeat one byte out of reach.
        let mut past_window = random_bytes(WINDOW + 1, 3);
        past_window.extend_from_within(..300);
        inputs.push(("distance 32769".into(), past_window));
        // One byte over three blocks: distance 1, length 258 throughout.
        inputs.push(("one byte".into(), vec![b'x'; 3 * BLOCK_BYTES + 5]));
        for (name, data) in &inputs {
            assert_eq!(&roundtrip(data), data, "{name}");
            let longest = replay_tokens(data);
            assert!(longest <= WINDOW, "{name}: distance {longest}");
        }
        // The window is what compresses the second copy.
        assert_eq!(replay_tokens(&twice), WINDOW);
        let one = compress(&random).len();
        let two = compress(&twice).len();
        assert!(two < one + one / 8, "second copy cost {} bytes", two - one);
        assert_eq!(replay_tokens(&at_window), WINDOW);
    }

    #[test]
    fn all_byte_values_roundtrip() {
        let data: Vec<u8> = (0u16..=255).map(|b| b as u8).cycle().take(4096).collect();
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrips_fixed_shapes() {
        let repetitive: Vec<u8> = b"[[12,345],[12,346],[13,7],"
            .iter()
            .copied()
            .cycle()
            .take(150_000)
            .collect();
        let structured: Vec<u8> = (0..70_000u32).flat_map(|i| i.to_le_bytes()).collect();
        for (name, data) in [
            ("empty", Vec::new()),
            ("tiny", b"hello".to_vec()),
            ("repetitive", repetitive),
            ("random", random_bytes(100_000, 0x9E37_79B9_7F4A_7C15)),
            ("structured", structured),
        ] {
            assert_eq!(roundtrip(&data), data, "{name}");
            replay_tokens(&data);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn roundtrips_random_low_entropy_and_json(
            len in 0usize..=3 * BLOCK_BYTES + 100,
            seed in 1u64..u64::MAX,
            ids in vec(0u32..5_000, 0..24_000),
        ) {
            let random = random_bytes(len, seed);
            let low_entropy: Vec<u8> = random.iter().map(|b| b"[],7"[usize::from(b & 3)]).collect();
            for data in [random, low_entropy, edge_list_json(&ids)] {
                prop_assert_eq!(roundtrip(&data), data);
            }
        }

        #[test]
        fn any_split_into_writes_matches_one_write(
            ids in vec(0u32..5_000, 0..24_000),
            ones in 0usize..300,
            sizes in vec(1usize..=2 * BLOCK_BYTES + 3, 1..12),
        ) {
            // 1-byte writes first, then writes of the drawn sizes (some
            // spanning blocks), cycled, each followed by an empty write.
            let data = edge_list_json(&ids);
            let mut gz = GzipWriter::new(Vec::new());
            let mut at = 0;
            for _ in 0..ones.min(data.len()) {
                gz.write_all(&data[at..=at]).unwrap();
                at += 1;
            }
            for &size in sizes.iter().cycle() {
                if at == data.len() {
                    break;
                }
                let end = (at + size).min(data.len());
                gz.write_all(&data[at..end]).unwrap();
                gz.write_all(&[]).unwrap();
                at = end;
            }
            let streamed = gz.finish().unwrap();
            prop_assert_eq!(&streamed, &compress(&data));
            prop_assert_eq!(decode(&streamed).unwrap(), data);
        }
    }

    #[test]
    fn symbol_tables_match_a_scan_of_the_bases() {
        // The reference: the last base at or below the value.
        fn scan(bases: &[u16], extra: &[u32], value: usize) -> (usize, u32, u32) {
            let i = bases
                .iter()
                .rposition(|&b| usize::from(b) <= value)
                .unwrap();
            (i, (value - usize::from(bases[i])) as u32, extra[i])
        }
        for len in MIN_MATCH..=MAX_MATCH {
            let (i, extra, bits) = scan(&LENGTH_BASE, &LENGTH_EXTRA, len);
            assert_eq!(length_symbol(len), (257 + i, extra, bits), "length {len}");
        }
        for dist in 1..=WINDOW {
            let expected = scan(&DIST_BASE, &DIST_EXTRA, dist);
            assert_eq!(dist_symbol(dist), expected, "distance {dist}");
        }
    }

    #[test]
    fn stream_buffers_stay_within_the_stated_bound() {
        let json = synthetic_edge_list(40_000);
        for data in [
            random_bytes(5 * BLOCK_BYTES, 7),
            vec![0u8; 5 * BLOCK_BYTES],
            json,
        ] {
            let mut gz = GzipWriter::new(Vec::new());
            for chunk in data.chunks(1000) {
                gz.write_all(chunk).unwrap();
                assert!(buffer_bytes(&gz) <= STREAM_BUFFER_BYTES);
            }
            gz.encode_block(true).unwrap();
            assert!(buffer_bytes(&gz) <= STREAM_BUFFER_BYTES);
        }
        // A small body sizes its hash tables to itself.
        let mut gz = GzipWriter::new(Vec::new());
        gz.write_all(&synthetic_edge_list(30)[..250]).unwrap();
        gz.encode_block(true).unwrap();
        let m = gz.matcher.as_ref().unwrap();
        assert!(2 * (m.head.len() + m.chain.len()) <= 1024);
    }

    #[test]
    fn corrupted_streams_are_rejected() {
        let mut stream = compress(b"some payload worth checking, long enough to matter");
        let mid = stream.len() / 2;
        stream[mid] ^= 0x40;
        assert!(decode(&stream).is_err(), "corruption must not pass the CRC");
        assert!(decode(b"\x1f\x8b").is_err());
        assert!(decode(b"not gzip at all").is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32_update(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_update(0, b""), 0);
        // Incremental updates equal one-shot.
        let once = crc32_update(0, b"hello world");
        let split = crc32_update(crc32_update(0, b"hello "), b"world");
        assert_eq!(once, split);
        // Slicing by 8 agrees with the bitwise definition at every length
        // and alignment of the tail.
        let bitwise = |data: &[u8]| {
            let mut c = !0u32;
            for &b in data {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        };
        let data = random_bytes(100, 11);
        for len in 0..data.len() {
            assert_eq!(
                crc32_update(0, &data[..len]),
                bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn huffman_lengths_respect_the_limit_and_kraft() {
        // Fibonacci-ish frequencies force deep unlimited trees; the
        // limiter must clamp to max_bits with a complete Kraft sum.
        let mut freqs = vec![0u32; 40];
        let (mut a, mut b) = (1u32, 1u32);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a.saturating_add(b);
            a = b;
            b = next;
        }
        for max_bits in [7, 15] {
            let lengths = huffman_lengths(&freqs, max_bits);
            assert!(lengths.iter().all(|&l| usize::from(l) <= max_bits));
            let kraft: u64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 1u64 << (max_bits - usize::from(l)))
                .sum();
            assert_eq!(kraft, 1u64 << max_bits, "max_bits {max_bits}");
        }
        // Where the limit does not bind, the cost is a Huffman code's:
        // the sum of every merge in the textbook heap construction.
        let mut x = 5u64;
        for used in 2..60 {
            let freqs: Vec<u32> = (0..used)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 1000) as u32 + 1
                })
                .collect();
            let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u64>> = freqs
                .iter()
                .map(|&f| std::cmp::Reverse(u64::from(f)))
                .collect();
            let mut optimal = 0;
            while heap.len() > 1 {
                let std::cmp::Reverse(a) = heap.pop().unwrap();
                let std::cmp::Reverse(b) = heap.pop().unwrap();
                optimal += a + b;
                heap.push(std::cmp::Reverse(a + b));
            }
            let lengths = huffman_lengths(&freqs, 15);
            assert_eq!(symbol_cost(&freqs, &lengths), optimal, "{used} symbols");
        }
        // Degenerate cases.
        assert!(huffman_lengths(&[0, 0, 0], 15).iter().all(|&l| l == 0));
        assert_eq!(huffman_lengths(&[0, 7, 0], 15), vec![0, 1, 0]);
    }
}
