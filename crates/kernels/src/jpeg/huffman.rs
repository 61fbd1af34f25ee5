//! Canonical Huffman entropy coding of the run-length symbol stream —
//! the stage that turns [`codec`](crate::dct::codec)'s `(run, level)`
//! symbols into an actual bitstream, so the codec's bitrate is measured
//! in real bits instead of the first-order entropy estimate.
//!
//! The design follows JPEG's entropy layer: each
//! [`Symbol`] maps to a `(zero_run, size)`
//! **symbol id** (size = magnitude category of the level), the ids get
//! canonical Huffman codes built from the image's own symbol
//! statistics, and each `Run` code is followed by `size` raw
//! **amplitude bits** in JPEG's ones'-complement convention. Tables are
//! serialized as `(id, code length)` pairs; canonical code assignment
//! makes the codes themselves redundant, so decoder and encoder agree
//! bit-for-bit by construction.
//!
//! Everything here is deterministic: tie-breaks in the Huffman build
//! are by node creation order, so the same symbol statistics always
//! produce the same table and the same bitstream.

use crate::dct::codec::Symbol;
use std::collections::BTreeMap;

/// Symbol id of the end-of-block marker (outside the `(run << 6 | size)`
/// range of `Run` ids).
pub const EOB_ID: u16 = 0x8000;

/// Magnitude category of a nonzero level: the number of bits of
/// `|level|` (JPEG's "size"). `level == 0` never reaches the entropy
/// coder (zeros live in the run lengths).
pub fn level_size(level: i32) -> u8 {
    debug_assert!(level != 0, "zero levels are run-length encoded");
    (32 - level.unsigned_abs().leading_zeros()) as u8
}

/// Maps a run-length symbol to its entropy-coder id:
/// `zero_run << 6 | size` for `Run`, [`EOB_ID`] for `EndOfBlock`.
pub fn symbol_id(s: &Symbol) -> u16 {
    match *s {
        Symbol::Run { zero_run, level } => ((zero_run as u16) << 6) | level_size(level) as u16,
        Symbol::EndOfBlock => EOB_ID,
    }
}

/// JPEG amplitude encoding: positive levels verbatim, negative levels
/// in ones' complement of their magnitude (`level + 2^size − 1`), so
/// the top amplitude bit doubles as the sign.
pub fn amplitude_bits(level: i32, size: u8) -> u64 {
    if level > 0 {
        level as u64
    } else {
        (level as i64 + (1i64 << size) - 1) as u64
    }
}

/// Inverse of [`amplitude_bits`].
pub fn amplitude_decode(bits: u64, size: u8) -> i32 {
    if bits >> (size - 1) != 0 {
        bits as i32
    } else {
        (bits as i64 - (1i64 << size) + 1) as i32
    }
}

/// MSB-first bit writer.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    cur: u8,
    filled: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Appends the low `n` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn put_bits(&mut self, value: u64, n: u8) {
        assert!(n <= 64, "at most 64 bits per put");
        for i in (0..n).rev() {
            self.cur = (self.cur << 1) | ((value >> i) & 1) as u8;
            self.filled += 1;
            if self.filled == 8 {
                self.out.push(self.cur);
                self.cur = 0;
                self.filled = 0;
            }
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.filled as u64
    }

    /// Flushes (zero-padding the final partial byte) and returns the
    /// byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.out.push(self.cur << (8 - self.filled));
        }
        self.out
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// Next bit, or `None` at end of stream.
    pub fn get_bit(&mut self) -> Option<u64> {
        let byte = *self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Some(bit as u64)
    }

    /// Next `n` bits, MSB first.
    pub fn get_bits(&mut self, n: u8) -> Option<u64> {
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | self.get_bit()?;
        }
        Some(v)
    }
}

/// A canonical Huffman table over symbol ids.
///
/// Stored as `(id, code length)` pairs in canonical order (length,
/// then id); codes are assigned by the canonical rule, so the table
/// round-trips through its serialized form exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanTable {
    /// `(symbol id, code length)` in canonical order.
    entries: Vec<(u16, u8)>,
    /// id → (code, length) for encoding.
    codes: BTreeMap<u16, (u64, u8)>,
}

impl HuffmanTable {
    /// Builds a table from a symbol stream's statistics.
    ///
    /// # Panics
    ///
    /// Panics if `symbols` is empty — an empty alphabet has no code.
    pub fn from_symbols(symbols: &[Symbol]) -> HuffmanTable {
        let mut counts: BTreeMap<u16, u64> = BTreeMap::new();
        for s in symbols {
            *counts.entry(symbol_id(s)).or_insert(0) += 1;
        }
        HuffmanTable::from_counts(&counts)
    }

    /// Builds a table from explicit id counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    pub fn from_counts(counts: &BTreeMap<u16, u64>) -> HuffmanTable {
        assert!(!counts.is_empty(), "empty symbol alphabet");
        // A single-symbol alphabet still needs one bit on the wire so
        // the decoder can count occurrences.
        if counts.len() == 1 {
            let (&id, _) = counts.iter().next().unwrap();
            return HuffmanTable::from_lengths(vec![(id, 1)]);
        }

        // Huffman build with deterministic tie-breaking: ties in weight
        // resolve by node creation order (leaves in ascending id order
        // first, merged nodes after, in merge order).
        struct Node {
            weight: u64,
            children: Option<(usize, usize)>,
            id: u16,
        }
        let mut nodes: Vec<Node> = counts
            .iter()
            .map(|(&id, &weight)| Node {
                weight,
                children: None,
                id,
            })
            .collect();
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..nodes.len())
            .map(|i| Reverse((nodes[i].weight, i)))
            .collect();
        while heap.len() > 1 {
            let Reverse((wa, a)) = heap.pop().unwrap();
            let Reverse((wb, b)) = heap.pop().unwrap();
            let idx = nodes.len();
            nodes.push(Node {
                weight: wa + wb,
                children: Some((a, b)),
                id: 0,
            });
            heap.push(Reverse((wa + wb, idx)));
        }
        let root = heap.pop().unwrap().0 .1;

        // Depth-first length assignment.
        let mut lengths: Vec<(u16, u8)> = Vec::with_capacity(counts.len());
        let mut stack = vec![(root, 0u8)];
        while let Some((idx, depth)) = stack.pop() {
            match nodes[idx].children {
                Some((a, b)) => {
                    stack.push((a, depth + 1));
                    stack.push((b, depth + 1));
                }
                None => lengths.push((nodes[idx].id, depth)),
            }
        }
        HuffmanTable::from_lengths(lengths)
    }

    /// Builds the canonical table from `(id, length)` pairs (the
    /// serialized form).
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty or contains a zero length.
    pub fn from_lengths(mut lengths: Vec<(u16, u8)>) -> HuffmanTable {
        assert!(!lengths.is_empty(), "empty code-length list");
        assert!(
            lengths.iter().all(|&(_, l)| l > 0),
            "zero-length Huffman code"
        );
        lengths.sort_by_key(|&(id, len)| (len, id));
        let mut codes = BTreeMap::new();
        let mut code = 0u64;
        let mut prev_len = lengths[0].1;
        for (i, &(id, len)) in lengths.iter().enumerate() {
            if i > 0 {
                code = (code + 1) << (len - prev_len);
                prev_len = len;
            }
            codes.insert(id, (code, len));
        }
        HuffmanTable {
            entries: lengths,
            codes,
        }
    }

    /// `(code, length)` of a symbol id, if present in the alphabet.
    pub fn code_of(&self, id: u16) -> Option<(u64, u8)> {
        self.codes.get(&id).copied()
    }

    /// The canonical `(id, length)` entries.
    pub fn entries(&self) -> &[(u16, u8)] {
        &self.entries
    }

    /// Serializes the table: `u16` entry count, then `(u16 id, u8 len)`
    /// per entry, little-endian, canonical order.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        for &(id, len) in &self.entries {
            out.extend_from_slice(&id.to_le_bytes());
            out.push(len);
        }
    }

    /// Parses a table serialized by [`HuffmanTable::serialize_into`],
    /// returning the table and the number of bytes consumed.
    pub fn parse(bytes: &[u8]) -> Result<(HuffmanTable, usize), String> {
        if bytes.len() < 2 {
            return Err("truncated Huffman table header".into());
        }
        let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        if n == 0 {
            return Err("empty Huffman table".into());
        }
        let need = 2 + n * 3;
        if bytes.len() < need {
            return Err(format!(
                "truncated Huffman table: need {need} bytes, have {}",
                bytes.len()
            ));
        }
        let mut lengths = Vec::with_capacity(n);
        for i in 0..n {
            let at = 2 + i * 3;
            let id = u16::from_le_bytes([bytes[at], bytes[at + 1]]);
            let len = bytes[at + 2];
            if len == 0 {
                return Err("zero code length in Huffman table".into());
            }
            lengths.push((id, len));
        }
        // Reject non-canonical order and duplicate ids so a table
        // re-serializes to the exact input bytes.
        for w in lengths.windows(2) {
            if (w[1].1, w[1].0) <= (w[0].1, w[0].0) {
                return Err("Huffman table not in canonical order".into());
            }
        }
        // Kraft inequality: the canonical assignment must not overflow.
        let mut kraft = 0.0f64;
        for &(_, len) in &lengths {
            kraft += (0.5f64).powi(len as i32);
        }
        if kraft > 1.0 + 1e-12 {
            return Err("Huffman table violates the Kraft inequality".into());
        }
        Ok((HuffmanTable::from_lengths(lengths), need))
    }

    /// Builds the canonical decoder for this table.
    pub fn decoder(&self) -> HuffmanDecoder {
        // Per length: (length, first code, one-past-last code, base
        // index into the canonical entry list).
        let mut levels: Vec<(u8, u64, u64, usize)> = Vec::new();
        for (i, &(_, len)) in self.entries.iter().enumerate() {
            let (code, _) = self.codes[&self.entries[i].0];
            match levels.last_mut() {
                Some(l) if l.0 == len => l.2 = code + 1,
                _ => levels.push((len, code, code + 1, i)),
            }
        }
        HuffmanDecoder {
            entries: self.entries.clone(),
            levels,
        }
    }
}

/// Canonical Huffman decoder (bit-serial; the symbol streams here are
/// thousands of symbols, not billions).
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    entries: Vec<(u16, u8)>,
    levels: Vec<(u8, u64, u64, usize)>,
}

impl HuffmanDecoder {
    /// Decodes one symbol id, or `None` on truncated input / a code
    /// outside the table.
    pub fn decode_id(&self, reader: &mut BitReader<'_>) -> Option<u16> {
        let mut code = 0u64;
        let mut len = 0u8;
        let max_len = self.levels.last().map(|l| l.0)?;
        while len < max_len {
            code = (code << 1) | reader.get_bit()?;
            len += 1;
            if let Some(&(_, first, end, base)) =
                self.levels.iter().find(|l| l.0 == len)
            {
                if code >= first && code < end {
                    return Some(self.entries[base + (code - first) as usize].0);
                }
            }
        }
        None
    }
}

/// Entropy-encodes one block's symbols (codes + amplitude bits).
///
/// # Panics
///
/// Panics if a symbol is missing from `table` — tables must be built
/// from the same stream they encode.
pub fn encode_block_bits(symbols: &[Symbol], table: &HuffmanTable, w: &mut BitWriter) {
    for s in symbols {
        let id = symbol_id(s);
        let (code, len) = table
            .code_of(id)
            .unwrap_or_else(|| panic!("symbol id {id:#x} missing from Huffman table"));
        w.put_bits(code, len);
        if let Symbol::Run { level, .. } = *s {
            let size = level_size(level);
            w.put_bits(amplitude_bits(level, size), size);
        }
    }
}

/// Decodes one block's symbols: stops after the end-of-block marker or
/// once 64 coefficient positions are accounted for. Returns `None` on
/// truncated or malformed input.
pub fn decode_block_symbols(
    reader: &mut BitReader<'_>,
    decoder: &HuffmanDecoder,
) -> Option<Vec<Symbol>> {
    let mut symbols = Vec::new();
    let mut k = 0usize;
    while k < 64 {
        let id = decoder.decode_id(reader)?;
        if id == EOB_ID {
            symbols.push(Symbol::EndOfBlock);
            return Some(symbols);
        }
        let zero_run = (id >> 6) as u8;
        let size = (id & 0x3f) as u8;
        if size == 0 || size > 31 {
            return None;
        }
        let level = amplitude_decode(reader.get_bits(size)?, size);
        if level == 0 || level_size(level) != size {
            return None;
        }
        symbols.push(Symbol::Run { zero_run, level });
        k += zero_run as usize + 1;
    }
    Some(symbols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplitude_round_trip_edges() {
        for level in [
            1, -1, 2, -2, 3, -3, 7, -7, 8, -8, 255, -255, 256, -256, 1023, -1024, 65535, -65536,
            i32::MAX, -i32::MAX,
        ] {
            let size = level_size(level);
            let bits = amplitude_bits(level, size);
            assert!(bits < (1u64 << size), "amplitude overflows size: {level}");
            assert_eq!(amplitude_decode(bits, size), level, "level {level}");
        }
    }

    #[test]
    fn level_size_matches_bit_count() {
        assert_eq!(level_size(1), 1);
        assert_eq!(level_size(-1), 1);
        assert_eq!(level_size(2), 2);
        assert_eq!(level_size(3), 2);
        assert_eq!(level_size(4), 3);
        assert_eq!(level_size(-1024), 11);
    }

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0, 1);
        w.put_bits(0xdead_beef, 32);
        w.put_bits(1, 13);
        assert_eq!(w.bit_len(), 49);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3), Some(0b101));
        assert_eq!(r.get_bits(1), Some(0));
        assert_eq!(r.get_bits(32), Some(0xdead_beef));
        assert_eq!(r.get_bits(13), Some(1));
    }

    #[test]
    fn reader_reports_exhaustion() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.get_bits(8), Some(0xff));
        assert_eq!(r.get_bit(), None);
    }

    #[test]
    fn canonical_codes_are_prefix_free_and_ordered() {
        let mut counts = BTreeMap::new();
        counts.insert(1u16, 50u64);
        counts.insert(2, 20);
        counts.insert(3, 20);
        counts.insert(4, 5);
        counts.insert(5, 5);
        let table = HuffmanTable::from_counts(&counts);
        let codes: Vec<(u64, u8)> = (1..=5).map(|id| table.code_of(id).unwrap()).collect();
        // Prefix freedom: no code is a prefix of another.
        for (i, &(ca, la)) in codes.iter().enumerate() {
            for (j, &(cb, lb)) in codes.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (short, slen, long, llen) = if la <= lb {
                    (ca, la, cb, lb)
                } else {
                    (cb, lb, ca, la)
                };
                assert_ne!(long >> (llen - slen), short, "prefix collision");
            }
        }
        // The most frequent symbol has the shortest code.
        assert!(codes[0].1 <= codes[1].1);
    }

    #[test]
    fn single_symbol_alphabet_gets_one_bit() {
        let mut counts = BTreeMap::new();
        counts.insert(EOB_ID, 7u64);
        let table = HuffmanTable::from_counts(&counts);
        assert_eq!(table.code_of(EOB_ID), Some((0, 1)));
    }

    #[test]
    fn table_serialization_round_trips() {
        let mut counts = BTreeMap::new();
        for (id, c) in [(3u16, 10u64), (64, 4), (EOB_ID, 30), (130, 1), (7, 1)] {
            counts.insert(id, c);
        }
        let table = HuffmanTable::from_counts(&counts);
        let mut bytes = Vec::new();
        table.serialize_into(&mut bytes);
        let (parsed, used) = HuffmanTable::parse(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed, table);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(HuffmanTable::parse(&[]).is_err());
        assert!(HuffmanTable::parse(&[1, 0]).is_err()); // truncated entries
        // Duplicate id (non-canonical order).
        let mut bytes = Vec::new();
        HuffmanTable::from_lengths(vec![(1, 1), (2, 2), (3, 2)]).serialize_into(&mut bytes);
        let mut dup = bytes.clone();
        dup[5..7].copy_from_slice(&1u16.to_le_bytes()); // wait: entry layout is (id lo, id hi, len)
        let _ = HuffmanTable::parse(&dup); // must not panic, may err
        // Kraft violation: three codes of length 1.
        let mut kraft = Vec::new();
        kraft.extend_from_slice(&3u16.to_le_bytes());
        for id in [1u16, 2, 3] {
            kraft.extend_from_slice(&id.to_le_bytes());
            kraft.push(1);
        }
        assert!(HuffmanTable::parse(&kraft).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Any well-formed symbol stream survives symbols → bits →
        /// symbols bit-exactly, independent of content statistics.
        #[test]
        fn random_symbol_streams_round_trip(seed in 0u64..u64::MAX, n_blocks in 1usize..12) {
            // Deterministic stream from the drawn seed.
            let mut rng = scorpio_core::audit::SplitMix64::new(seed);
            let mut next = move || rng.next_u64();
            let mut blocks: Vec<Vec<Symbol>> = Vec::new();
            for _ in 0..n_blocks {
                let mut symbols = Vec::new();
                let mut k = 0usize;
                loop {
                    if k >= 64 || next() % 4 == 0 {
                        if k < 64 {
                            symbols.push(Symbol::EndOfBlock);
                        }
                        break;
                    }
                    let zero_run = (next() % (64 - k as u64).min(16)) as u8;
                    if k + zero_run as usize >= 64 {
                        symbols.push(Symbol::EndOfBlock);
                        break;
                    }
                    let magnitude = 1 + (next() % 2047) as i32;
                    let level = if next() % 2 == 0 { magnitude } else { -magnitude };
                    symbols.push(Symbol::Run { zero_run, level });
                    k += zero_run as usize + 1;
                }
                blocks.push(symbols);
            }
            let all: Vec<Symbol> = blocks.iter().flatten().copied().collect();
            let table = HuffmanTable::from_symbols(&all);
            let mut w = BitWriter::new();
            for b in &blocks {
                encode_block_bits(b, &table, &mut w);
            }
            let bytes = w.finish();
            let decoder = table.decoder();
            let mut r = BitReader::new(&bytes);
            for b in &blocks {
                let back = decode_block_symbols(&mut r, &decoder);
                proptest::prop_assert_eq!(back.as_deref(), Some(b.as_slice()));
            }
        }
    }

    #[test]
    fn stream_round_trip_is_bit_exact() {
        use crate::dct::codec::{encode_block, Symbol};
        use crate::dct::forward_block;
        // Build symbol streams from a mix of real coefficient blocks.
        let mut blocks = Vec::new();
        for seed in 0..6u64 {
            let mut block = [[0.0; 8]; 8];
            for (y, row) in block.iter_mut().enumerate() {
                for (x, p) in row.iter_mut().enumerate() {
                    let v = (seed * 37 + (y * 8 + x) as u64 * 101) % 256;
                    *p = v as f64 - 128.0;
                }
            }
            blocks.push(encode_block(&forward_block(&block)));
        }
        blocks.push(vec![Symbol::EndOfBlock]); // all-zero block
        let all: Vec<Symbol> = blocks.iter().flatten().copied().collect();
        let table = HuffmanTable::from_symbols(&all);
        let mut w = BitWriter::new();
        for b in &blocks {
            encode_block_bits(b, &table, &mut w);
        }
        let bytes = w.finish();
        let decoder = table.decoder();
        let mut r = BitReader::new(&bytes);
        for b in &blocks {
            let back = decode_block_symbols(&mut r, &decoder).expect("decode");
            assert_eq!(&back, b);
        }
    }
}
