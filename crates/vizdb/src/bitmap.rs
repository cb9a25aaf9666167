//! Roaring-style selection bitmaps.
//!
//! A [`SelectionBitmap`] represents a set of [`RecordId`]s as a sorted list of
//! 4096-bit *chunks* (record id `rid` lives in chunk `rid >> 12` at offset
//! `rid & 4095`). Each chunk picks the cheapest of three containers for its
//! population:
//!
//! - **Array** — a sorted `Vec<u16>` of offsets, for sparse chunks
//!   (< [`ARRAY_MAX`] set bits);
//! - **Bitset** — 64 `u64` words, for dense chunks;
//! - **Run** — inclusive `(start, end)` intervals, for chunks whose bits
//!   cluster into few runs (consecutive index ranges, full chunks).
//!
//! Container choice is a pure function of the chunk's bit set, so two bitmaps
//! holding the same ids are structurally equal regardless of how they were
//! built — `PartialEq` on [`SelectionBitmap`] is set equality.
//!
//! AND / OR / ANDNOT walk the chunk lists with a merge join (whole absent
//! chunks are skipped without touching a word) and combine matching chunks
//! word-wise. `rank` / `select` / iteration are supported on every container.
//! The executor's compiled engine evaluates residual predicates directly over
//! the 64-word chunk view ([`SelectionBitmap::for_each_chunk`] +
//! [`ChunkWriter`]), which is what makes multi-predicate index plans cheap:
//! selection never round-trips through a sorted id vector.

use crate::types::RecordId;

/// Bits per chunk.
pub const CHUNK_BITS: usize = 4096;
/// `u64` words per chunk.
pub const CHUNK_WORDS: usize = CHUNK_BITS / 64;
/// Shift from record id to chunk id.
const CHUNK_SHIFT: u32 = 12;
/// Mask from record id to in-chunk offset.
const OFFSET_MASK: u32 = (CHUNK_BITS as u32) - 1;
/// Cardinality below which a chunk uses the sorted-array container.
const ARRAY_MAX: usize = 256;

/// One chunk's physical representation. Constructed only through
/// [`canonical_from_words`] / [`canonical_from_offsets`], so representation is
/// a pure function of the bit set.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    /// Sorted in-chunk offsets.
    Array(Vec<u16>),
    /// 64 words of bits.
    Bitset(Box<[u64; CHUNK_WORDS]>),
    /// Inclusive `(start, end)` offset runs, sorted and non-adjacent.
    Run(Vec<(u16, u16)>),
}

impl Container {
    fn cardinality(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitset(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
            Container::Run(r) => r.iter().map(|&(s, e)| e as usize - s as usize + 1).sum(),
        }
    }

    /// ORs the container's bits into `words` (caller zeroes the buffer).
    fn write_words(&self, words: &mut [u64; CHUNK_WORDS]) {
        match self {
            Container::Array(v) => {
                for &off in v {
                    set_bit(words, off as usize);
                }
            }
            Container::Bitset(w) => {
                for (dst, src) in words.iter_mut().zip(w.iter()) {
                    *dst |= *src;
                }
            }
            Container::Run(r) => {
                for &(s, e) in r {
                    set_span(words, s as usize, e as usize);
                }
            }
        }
    }

    fn contains(&self, off: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&off).is_ok(),
            Container::Bitset(w) => {
                let off = off as usize & (CHUNK_BITS - 1);
                w[off >> 6] & (1u64 << (off & 63)) != 0
            }
            Container::Run(r) => r
                .binary_search_by(|&(s, e)| {
                    if e < off {
                        std::cmp::Ordering::Less
                    } else if s > off {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_ok(),
        }
    }

    /// Number of set offsets strictly below `off`.
    fn rank(&self, off: u16) -> usize {
        match self {
            Container::Array(v) => v.partition_point(|&o| o < off),
            Container::Bitset(w) => {
                let off = off as usize & (CHUNK_BITS - 1);
                let full = off >> 6;
                let mut n = 0usize;
                for word in w.iter().take(full) {
                    n += word.count_ones() as usize;
                }
                let partial = off & 63;
                if partial != 0 {
                    n += (w[full] & ((1u64 << partial) - 1)).count_ones() as usize;
                }
                n
            }
            Container::Run(r) => {
                let mut n = 0usize;
                for &(s, e) in r {
                    if s >= off {
                        break;
                    }
                    n += (e.min(off.saturating_sub(1)) as usize) - s as usize + 1;
                }
                n
            }
        }
    }

    /// The `k`-th smallest set offset (0-based), if `k < cardinality`.
    fn select(&self, mut k: usize) -> Option<u16> {
        match self {
            Container::Array(v) => v.get(k).copied(),
            Container::Bitset(w) => {
                for (wi, &word) in w.iter().enumerate() {
                    let pop = word.count_ones() as usize;
                    if k < pop {
                        let mut word = word;
                        for _ in 0..k {
                            word &= word - 1;
                        }
                        return Some(((wi << 6) + word.trailing_zeros() as usize) as u16);
                    }
                    k -= pop;
                }
                None
            }
            Container::Run(r) => {
                for &(s, e) in r {
                    let span = e as usize - s as usize + 1;
                    if k < span {
                        return Some(s + k as u16);
                    }
                    k -= span;
                }
                None
            }
        }
    }

    fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(v) => ContainerIter::Array(v.iter()),
            Container::Bitset(w) => ContainerIter::Bitset {
                words: w,
                wi: 0,
                cur: w[0],
            },
            Container::Run(r) => ContainerIter::Run {
                runs: r.iter(),
                cur: None,
            },
        }
    }
}

/// Sets one in-chunk offset in a 64-word chunk buffer.
pub(crate) fn set_bit(words: &mut [u64; CHUNK_WORDS], off: usize) {
    let off = off & (CHUNK_BITS - 1);
    words[off >> 6] |= 1u64 << (off & 63);
}

/// Sets offsets `lo..=hi` in `words` with word-wide fills.
pub(crate) fn set_span(words: &mut [u64; CHUNK_WORDS], lo: usize, hi: usize) {
    let (lo, hi) = (lo & (CHUNK_BITS - 1), hi & (CHUNK_BITS - 1));
    if lo > hi {
        return;
    }
    let (lw, hw) = (lo >> 6, hi >> 6);
    let lo_mask = !0u64 << (lo & 63);
    let hi_mask = !0u64 >> (63 - (hi & 63));
    if lw == hw {
        words[lw] |= lo_mask & hi_mask;
    } else {
        words[lw] |= lo_mask;
        for w in words.iter_mut().take(hw).skip(lw + 1) {
            *w = !0;
        }
        words[hw] |= hi_mask;
    }
}

/// First set offset `>= from`, if any.
fn next_set(words: &[u64; CHUNK_WORDS], from: usize) -> Option<usize> {
    let mut wi = from >> 6;
    if wi >= CHUNK_WORDS {
        return None;
    }
    let mut w = words[wi] & (!0u64 << (from & 63));
    loop {
        if w != 0 {
            return Some((wi << 6) + w.trailing_zeros() as usize);
        }
        wi += 1;
        if wi >= CHUNK_WORDS {
            return None;
        }
        w = words[wi];
    }
}

/// First clear offset `>= from` (may be `CHUNK_BITS`).
fn next_clear(words: &[u64; CHUNK_WORDS], from: usize) -> usize {
    let mut wi = from >> 6;
    if wi >= CHUNK_WORDS {
        return CHUNK_BITS;
    }
    let mut w = !words[wi] & (!0u64 << (from & 63));
    loop {
        if w != 0 {
            return (wi << 6) + w.trailing_zeros() as usize;
        }
        wi += 1;
        if wi >= CHUNK_WORDS {
            return CHUNK_BITS;
        }
        w = !words[wi];
    }
}

/// Canonical container for the bit set in `words` (`None` when empty): runs
/// when the run encoding is smaller than both alternatives, a sorted array
/// when sparse, the bitset otherwise. Returns the cardinality alongside.
fn canonical_from_words(words: &[u64; CHUNK_WORDS]) -> Option<(Container, usize)> {
    let card: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    if card == 0 {
        return None;
    }
    // Count runs as 0→1 transitions across the 4096-bit string.
    let mut runs = 0usize;
    let mut carry = 0u64; // bit 63 of the previous word
    for &w in words.iter() {
        runs += (w & !((w << 1) | carry)).count_ones() as usize;
        carry = w >> 63;
    }
    let container = if runs * 4 < (card * 2).min(CHUNK_WORDS * 8) {
        let mut out = Vec::with_capacity(runs);
        let mut pos = 0usize;
        while let Some(start) = next_set(words, pos) {
            let end = next_clear(words, start);
            out.push((start as u16, (end - 1) as u16));
            pos = end;
        }
        Container::Run(out)
    } else if card < ARRAY_MAX {
        let mut out = Vec::with_capacity(card);
        for (wi, &w) in words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                out.push(((wi << 6) + w.trailing_zeros() as usize) as u16);
                w &= w - 1;
            }
        }
        Container::Array(out)
    } else {
        Container::Bitset(Box::new(*words))
    };
    Some((container, card))
}

/// Canonical container from sorted, deduplicated in-chunk offsets.
fn canonical_from_offsets(offs: &[u16]) -> Option<(Container, usize)> {
    let card = offs.len();
    if card == 0 {
        return None;
    }
    let mut runs = 1usize;
    for pair in offs.windows(2) {
        if pair[1] != pair[0] + 1 {
            runs += 1;
        }
    }
    let container = if runs * 4 < (card * 2).min(CHUNK_WORDS * 8) {
        let mut out = Vec::with_capacity(runs);
        let mut start = offs[0];
        let mut prev = offs[0];
        for &o in &offs[1..] {
            if o != prev + 1 {
                out.push((start, prev));
                start = o;
            }
            prev = o;
        }
        out.push((start, prev));
        Container::Run(out)
    } else if card < ARRAY_MAX {
        Container::Array(offs.to_vec())
    } else {
        let mut words = [0u64; CHUNK_WORDS];
        for &o in offs {
            set_bit(&mut words, o as usize);
        }
        Container::Bitset(Box::new(words))
    };
    Some((container, card))
}

/// A compressed set of record ids: the unified selection representation used
/// by index scans, candidate intersection, residual filtering and output
/// shaping. See the module docs for the container model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectionBitmap {
    /// `(chunk id, container)` sorted by chunk id; no empty containers.
    chunks: Vec<(u32, Container)>,
    /// Total number of set bits.
    len: usize,
}

impl SelectionBitmap {
    /// The empty set.
    pub const fn new() -> Self {
        Self {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Builds from a sorted (ascending, possibly duplicated) id slice.
    pub fn from_sorted(ids: &[RecordId]) -> Self {
        let mut set = Self::new();
        let mut offs: Vec<u16> = Vec::new();
        for ids in ids.chunk_by(|a, b| a >> CHUNK_SHIFT == b >> CHUNK_SHIFT) {
            offs.clear();
            offs.extend(ids.iter().map(|&id| (id & OFFSET_MASK) as u16));
            offs.dedup();
            set.push_offsets(ids[0] >> CHUNK_SHIFT, &offs);
        }
        set
    }

    /// The set `{0, 1, .., n-1}`.
    pub fn full(n: usize) -> Self {
        let mut writer = ChunkWriter::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + CHUNK_BITS).min(n);
            let mut words = [0u64; CHUNK_WORDS];
            set_span(&mut words, 0, end - start - 1);
            writer.push_words((start >> CHUNK_SHIFT) as u32, &words);
            start = end;
        }
        writer.finish()
    }

    /// Membership test.
    pub fn contains(&self, rid: RecordId) -> bool {
        let chunk = rid >> CHUNK_SHIFT;
        match self.chunks.binary_search_by_key(&chunk, |&(c, _)| c) {
            Ok(i) => self.chunks[i].1.contains((rid & OFFSET_MASK) as u16),
            Err(_) => false,
        }
    }

    /// Number of set ids strictly below `rid`.
    pub fn rank(&self, rid: RecordId) -> usize {
        let chunk = rid >> CHUNK_SHIFT;
        let mut total = 0usize;
        for (cid, c) in &self.chunks {
            if *cid < chunk {
                total += c.cardinality();
            } else if *cid == chunk {
                total += c.rank((rid & OFFSET_MASK) as u16);
                break;
            } else {
                break;
            }
        }
        total
    }

    /// The `k`-th smallest id (0-based), if `k < len`.
    pub fn select(&self, mut k: usize) -> Option<RecordId> {
        for (cid, c) in &self.chunks {
            let card = c.cardinality();
            if k < card {
                return c.select(k).map(|off| (cid << CHUNK_SHIFT) | off as u32);
            }
            k -= card;
        }
        None
    }

    /// Ascending iterator over the set ids.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter {
            chunks: self.chunks.iter(),
            cur: None,
        }
    }

    /// Materialises the set as a sorted id vector.
    pub fn to_vec(&self) -> Vec<RecordId> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter());
        out
    }

    /// Set intersection. Chunks present on only one side are skipped without
    /// touching a word; matching chunks combine per container pair (array
    /// probes when one side is sparse, word-wise AND otherwise).
    pub fn and(&self, other: &Self) -> Self {
        let mut chunks = Vec::with_capacity(self.chunks.len().min(other.chunks.len()));
        let mut len = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ca, a) = &self.chunks[i];
            let (cb, b) = &other.chunks[j];
            match ca.cmp(cb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if let Some((c, card)) = and_containers(a, b) {
                        len += card;
                        chunks.push((*ca, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        SelectionBitmap { chunks, len }
    }

    /// Set union.
    pub fn or(&self, other: &Self) -> Self {
        let mut chunks = Vec::with_capacity(self.chunks.len().max(other.chunks.len()));
        let mut len = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.chunks.len() || j < other.chunks.len() {
            let ca = self.chunks.get(i).map(|&(c, _)| c);
            let cb = other.chunks.get(j).map(|&(c, _)| c);
            match (ca, cb) {
                (Some(a), Some(b)) if a == b => {
                    let mut words = [0u64; CHUNK_WORDS];
                    self.chunks[i].1.write_words(&mut words);
                    other.chunks[j].1.write_words(&mut words);
                    if let Some((c, card)) = canonical_from_words(&words) {
                        len += card;
                        chunks.push((a, c));
                    }
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    len += self.chunks[i].1.cardinality();
                    chunks.push((a, self.chunks[i].1.clone()));
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    len += other.chunks[j].1.cardinality();
                    chunks.push((b, other.chunks[j].1.clone()));
                    j += 1;
                }
                (Some(a), None) => {
                    len += self.chunks[i].1.cardinality();
                    chunks.push((a, self.chunks[i].1.clone()));
                    i += 1;
                }
                (None, Some(b)) => {
                    len += other.chunks[j].1.cardinality();
                    chunks.push((b, other.chunks[j].1.clone()));
                    j += 1;
                }
                (None, None) => break,
            }
        }
        SelectionBitmap { chunks, len }
    }

    /// Set difference `self \ other`.
    pub fn andnot(&self, other: &Self) -> Self {
        let mut chunks = Vec::with_capacity(self.chunks.len());
        let mut len = 0usize;
        let mut j = 0usize;
        for (cid, c) in &self.chunks {
            while j < other.chunks.len() && other.chunks[j].0 < *cid {
                j += 1;
            }
            if j < other.chunks.len() && other.chunks[j].0 == *cid {
                let mut words = [0u64; CHUNK_WORDS];
                let mut sub = [0u64; CHUNK_WORDS];
                c.write_words(&mut words);
                other.chunks[j].1.write_words(&mut sub);
                for (w, s) in words.iter_mut().zip(sub.iter()) {
                    *w &= !*s;
                }
                if let Some((c2, card)) = canonical_from_words(&words) {
                    len += card;
                    chunks.push((*cid, c2));
                }
            } else {
                len += c.cardinality();
                chunks.push((*cid, c.clone()));
            }
        }
        SelectionBitmap { chunks, len }
    }

    /// Drops the ids failing `keep`, re-canonicalising each touched chunk.
    pub fn retain(&mut self, mut keep: impl FnMut(RecordId) -> bool) {
        let mut chunks = Vec::with_capacity(self.chunks.len());
        let mut len = 0usize;
        for (cid, c) in &self.chunks {
            let mut words = [0u64; CHUNK_WORDS];
            c.write_words(&mut words);
            let base = cid << CHUNK_SHIFT;
            for (wi, word) in words.iter_mut().enumerate() {
                let mut w = *word;
                while w != 0 {
                    let bit = w.trailing_zeros();
                    if !keep(base | ((wi as u32) << 6) | bit) {
                        *word &= !(1u64 << bit);
                    }
                    w &= w - 1;
                }
            }
            if let Some((c2, card)) = canonical_from_words(&words) {
                len += card;
                chunks.push((*cid, c2));
            }
        }
        self.chunks = chunks;
        self.len = len;
    }

    /// Visits every non-empty chunk as a mutable 64-word scratch view (a copy —
    /// mutations are *not* written back; pair with a [`ChunkWriter`] to build
    /// the refined bitmap). This is the compiled engine's residual-filter hook.
    pub fn for_each_chunk(&self, mut f: impl FnMut(u32, &mut [u64; CHUNK_WORDS])) {
        for (cid, c) in &self.chunks {
            let mut words = [0u64; CHUNK_WORDS];
            c.write_words(&mut words);
            f(*cid, &mut words);
        }
    }

    /// ANDs this set's chunk `chunk_id` into `words`, clearing them when the
    /// chunk is absent: the compiled engine's keyword refinement against a
    /// token's stored postings.
    pub(crate) fn and_chunk_into(&self, chunk_id: u32, words: &mut [u64; CHUNK_WORDS]) {
        let mut mask = [0u64; CHUNK_WORDS];
        if let Ok(i) = self.chunks.binary_search_by_key(&chunk_id, |&(c, _)| c) {
            self.chunks[i].1.write_words(&mut mask);
        }
        for (w, m) in words.iter_mut().zip(mask.iter()) {
            *w &= *m;
        }
    }

    /// Appends a chunk given its ascending, deduplicated in-chunk offsets;
    /// `chunk_id` must exceed every chunk id already held.
    pub(crate) fn push_offsets(&mut self, chunk_id: u32, offsets: &[u16]) {
        debug_assert!(self.chunks.last().is_none_or(|&(last, _)| last < chunk_id));
        if let Some((c, card)) = canonical_from_offsets(offsets) {
            self.len += card;
            self.chunks.push((chunk_id, c));
        }
    }

    /// Heap bytes held by the set's chunks.
    pub(crate) fn memory_bytes(&self) -> usize {
        let payload: usize = self
            .chunks
            .iter()
            .map(|(_, c)| match c {
                Container::Array(v) => v.len() * 2,
                Container::Bitset(_) => CHUNK_WORDS * 8,
                Container::Run(r) => r.len() * 4,
            })
            .sum();
        payload + self.chunks.len() * std::mem::size_of::<(u32, Container)>()
    }

    /// Number of non-empty chunks — the unit the parallel executor partitions
    /// bitmap-candidate work by.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// [`Self::for_each_chunk`] restricted to the chunk *positions* `pos` (a
    /// subrange of `0..chunk_count()`): one parallel morsel's view of the set.
    pub(crate) fn for_each_chunk_in(
        &self,
        pos: std::ops::Range<usize>,
        mut f: impl FnMut(u32, &mut [u64; CHUNK_WORDS]),
    ) {
        for (cid, c) in &self.chunks[pos] {
            let mut words = [0u64; CHUNK_WORDS];
            c.write_words(&mut words);
            f(*cid, &mut words);
        }
    }

    /// Ascending iterator over the ids held by the chunk positions `pos`.
    pub(crate) fn iter_chunks(&self, pos: std::ops::Range<usize>) -> BitmapIter<'_> {
        BitmapIter {
            chunks: self.chunks[pos].iter(),
            cur: None,
        }
    }

    /// Appends `other`, whose chunk ids must all be strictly greater than
    /// `self`'s last. This is the deterministic morsel-merge step: morsels
    /// cover disjoint ascending chunk ranges, so partial bitmaps concatenate
    /// in O(chunks) without re-canonicalising a single container.
    pub(crate) fn append_disjoint(&mut self, other: SelectionBitmap) {
        debug_assert!(
            match (self.chunks.last(), other.chunks.first()) {
                (Some(&(a, _)), Some(&(b, _))) => a < b,
                _ => true,
            },
            "append_disjoint: overlapping or out-of-order chunk ranges"
        );
        self.len += other.len;
        self.chunks.extend(other.chunks);
    }
}

impl<'a> IntoIterator for &'a SelectionBitmap {
    type Item = RecordId;
    type IntoIter = BitmapIter<'a>;
    fn into_iter(self) -> BitmapIter<'a> {
        self.iter()
    }
}

/// Intersection of two containers in the same chunk.
fn and_containers(a: &Container, b: &Container) -> Option<(Container, usize)> {
    match (a, b) {
        (Container::Array(va), _) => {
            let out: Vec<u16> = va.iter().copied().filter(|&o| b.contains(o)).collect();
            canonical_from_offsets(&out)
        }
        (_, Container::Array(vb)) => {
            let out: Vec<u16> = vb.iter().copied().filter(|&o| a.contains(o)).collect();
            canonical_from_offsets(&out)
        }
        _ => {
            let mut wa = [0u64; CHUNK_WORDS];
            let mut wb = [0u64; CHUNK_WORDS];
            a.write_words(&mut wa);
            b.write_words(&mut wb);
            for (x, y) in wa.iter_mut().zip(wb.iter()) {
                *x &= *y;
            }
            canonical_from_words(&wa)
        }
    }
}

/// Builds a [`SelectionBitmap`] from inserts in *any* order (index scans emit
/// ids in key / space order, not id order). Bits accumulate in one dense word
/// array — record ids are row indices, so the array is bounded by the table's
/// row count — and canonicalise at [`BitmapBuilder::finish`]. This keeps
/// `insert` to a couple of arithmetic ops, which matters because tree scans
/// call it once per matching row.
#[derive(Default)]
pub struct BitmapBuilder {
    words: Vec<u64>,
}

impl BitmapBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder pre-sized for ids in `0..universe` (no growth on
    /// insert while ids stay below `universe`).
    pub fn with_universe(universe: usize) -> Self {
        Self {
            words: vec![0u64; universe.div_ceil(64)],
        }
    }

    #[inline]
    fn grow_to(&mut self, word: usize) {
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
    }

    /// Adds one id (duplicates are fine).
    #[inline]
    pub fn insert(&mut self, rid: RecordId) {
        let word = (rid >> 6) as usize;
        self.grow_to(word);
        self.words[word] |= 1u64 << (rid & 63);
    }

    /// Adds the inclusive id range `lo..=hi` using word-wide fills.
    pub fn insert_span(&mut self, lo: RecordId, hi: RecordId) {
        if lo > hi {
            return;
        }
        let lo_word = (lo >> 6) as usize;
        let hi_word = (hi >> 6) as usize;
        self.grow_to(hi_word);
        let lo_mask = !0u64 << (lo & 63);
        let hi_mask = !0u64 >> (63 - (hi & 63));
        if lo_word == hi_word {
            self.words[lo_word] |= lo_mask & hi_mask;
        } else {
            self.words[lo_word] |= lo_mask;
            for w in &mut self.words[lo_word + 1..hi_word] {
                *w = !0;
            }
            self.words[hi_word] |= hi_mask;
        }
    }

    /// Canonicalises into a [`SelectionBitmap`].
    pub fn finish(self) -> SelectionBitmap {
        let mut chunks = Vec::new();
        let mut len = 0usize;
        for (cid, group) in self.words.chunks(CHUNK_WORDS).enumerate() {
            if group.iter().all(|&w| w == 0) {
                continue;
            }
            let mut buf = [0u64; CHUNK_WORDS];
            buf[..group.len()].copy_from_slice(group);
            if let Some((c, card)) = canonical_from_words(&buf) {
                len += card;
                chunks.push((cid as u32, c));
            }
        }
        SelectionBitmap { chunks, len }
    }
}

/// Streaming constructor for callers that produce chunks in ascending order
/// (the compiled engine's chunk-at-a-time residual filter). Out-of-order or
/// repeated chunk ids are merged correctly, they just lose the append fast
/// path.
#[derive(Default)]
pub struct ChunkWriter {
    chunks: Vec<(u32, Container)>,
    len: usize,
}

impl ChunkWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with room for `chunks` chunks up front (the executor
    /// pre-sizes from the planner's row estimate instead of re-growing the
    /// chunk vector from zero on every selection).
    pub fn with_capacity(chunks: usize) -> Self {
        Self {
            chunks: Vec::with_capacity(chunks),
            len: 0,
        }
    }

    /// Adds one chunk's words (all-zero chunks are skipped).
    pub fn push_words(&mut self, chunk_id: u32, words: &[u64; CHUNK_WORDS]) {
        match self.chunks.last() {
            Some(&(last, _)) if last >= chunk_id => {
                // Slow path: merge into the proper position.
                let mut merged = [0u64; CHUNK_WORDS];
                merged.copy_from_slice(words);
                match self.chunks.binary_search_by_key(&chunk_id, |&(c, _)| c) {
                    Ok(i) => {
                        self.chunks[i].1.write_words(&mut merged);
                        self.len -= self.chunks[i].1.cardinality();
                        match canonical_from_words(&merged) {
                            Some((c, card)) => {
                                self.len += card;
                                self.chunks[i].1 = c;
                            }
                            None => {
                                self.chunks.remove(i);
                            }
                        }
                    }
                    Err(i) => {
                        if let Some((c, card)) = canonical_from_words(&merged) {
                            self.len += card;
                            self.chunks.insert(i, (chunk_id, c));
                        }
                    }
                }
            }
            _ => {
                if let Some((c, card)) = canonical_from_words(words) {
                    self.len += card;
                    self.chunks.push((chunk_id, c));
                }
            }
        }
    }

    /// The finished bitmap.
    pub fn finish(self) -> SelectionBitmap {
        SelectionBitmap {
            chunks: self.chunks,
            len: self.len,
        }
    }
}

/// Ascending iterator over a container's offsets.
enum ContainerIter<'a> {
    Array(std::slice::Iter<'a, u16>),
    Bitset {
        words: &'a [u64; CHUNK_WORDS],
        wi: usize,
        cur: u64,
    },
    Run {
        runs: std::slice::Iter<'a, (u16, u16)>,
        /// `(next, end)` of the in-flight run, widened past u16 to step off
        /// a run ending at offset 4095 without overflow.
        cur: Option<(u32, u32)>,
    },
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Bitset { words, wi, cur } => loop {
                if *cur != 0 {
                    let off = ((*wi << 6) + cur.trailing_zeros() as usize) as u16;
                    *cur &= *cur - 1;
                    return Some(off);
                }
                *wi += 1;
                if *wi >= CHUNK_WORDS {
                    return None;
                }
                *cur = words[*wi];
            },
            ContainerIter::Run { runs, cur } => {
                if cur.is_none() {
                    *cur = runs.next().map(|&(s, e)| (s as u32, e as u32));
                }
                let (next, end) = (*cur)?;
                if next >= end {
                    *cur = None;
                } else {
                    *cur = Some((next + 1, end));
                }
                Some(next as u16)
            }
        }
    }
}

/// Ascending iterator over a [`SelectionBitmap`]'s record ids.
pub struct BitmapIter<'a> {
    chunks: std::slice::Iter<'a, (u32, Container)>,
    cur: Option<(u32, ContainerIter<'a>)>,
}

impl Iterator for BitmapIter<'_> {
    type Item = RecordId;

    fn next(&mut self) -> Option<RecordId> {
        loop {
            if let Some((base, it)) = &mut self.cur {
                if let Some(off) = it.next() {
                    return Some(*base | off as u32);
                }
            }
            let (cid, c) = self.chunks.next()?;
            self.cur = Some((cid << CHUNK_SHIFT, c.iter()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(bm: &SelectionBitmap) -> Vec<RecordId> {
        bm.to_vec()
    }

    #[test]
    fn from_sorted_roundtrips() {
        let v = vec![0, 1, 2, 4095, 4096, 4097, 9000, 100_000];
        let bm = SelectionBitmap::from_sorted(&v);
        assert_eq!(bm.len(), v.len());
        assert_eq!(ids(&bm), v);
        for &rid in &v {
            assert!(bm.contains(rid));
        }
        assert!(!bm.contains(3));
        assert!(!bm.contains(4098));
    }

    #[test]
    fn duplicates_collapse() {
        let bm = SelectionBitmap::from_sorted(&[5, 5, 5, 6]);
        assert_eq!(bm.len(), 2);
        assert_eq!(ids(&bm), vec![5, 6]);
    }

    #[test]
    fn builder_handles_unordered_inserts() {
        let mut b = BitmapBuilder::new();
        for rid in [9000u32, 3, 4096, 3, 12_288, 4095] {
            b.insert(rid);
        }
        let bm = b.finish();
        assert_eq!(ids(&bm), vec![3, 4095, 4096, 9000, 12_288]);
    }

    #[test]
    fn insert_span_crosses_chunks() {
        let mut b = BitmapBuilder::new();
        b.insert_span(4000, 8200);
        let bm = b.finish();
        assert_eq!(bm.len(), 4201);
        assert!(bm.contains(4000) && bm.contains(4095) && bm.contains(4096));
        assert!(bm.contains(8191) && bm.contains(8200));
        assert!(!bm.contains(3999) && !bm.contains(8201));
    }

    #[test]
    fn full_is_dense_prefix() {
        let bm = SelectionBitmap::full(5000);
        assert_eq!(bm.len(), 5000);
        assert!(bm.contains(0) && bm.contains(4999));
        assert!(!bm.contains(5000));
        assert_eq!(bm.rank(5000), 5000);
    }

    #[test]
    fn representation_is_canonical() {
        // Same set built three ways must be structurally equal.
        let v: Vec<u32> = (100..5000).step_by(3).collect();
        let a = SelectionBitmap::from_sorted(&v);
        let mut b = BitmapBuilder::new();
        for &rid in v.iter().rev() {
            b.insert(rid);
        }
        let b = b.finish();
        let c = a.and(&SelectionBitmap::full(1 << 20));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn and_or_andnot_match_set_ops() {
        let a: Vec<u32> = (0..10_000).filter(|x| x % 3 == 0).collect();
        let b: Vec<u32> = (0..10_000).filter(|x| x % 5 == 0).collect();
        let ba = SelectionBitmap::from_sorted(&a);
        let bb = SelectionBitmap::from_sorted(&b);
        let expect_and: Vec<u32> = (0..10_000).filter(|x| x % 15 == 0).collect();
        let expect_or: Vec<u32> = (0..10_000).filter(|x| x % 3 == 0 || x % 5 == 0).collect();
        let expect_not: Vec<u32> = (0..10_000).filter(|x| x % 3 == 0 && x % 5 != 0).collect();
        assert_eq!(ids(&ba.and(&bb)), expect_and);
        assert_eq!(ids(&ba.or(&bb)), expect_or);
        assert_eq!(ids(&ba.andnot(&bb)), expect_not);
        assert_eq!(ba.and(&bb).len(), expect_and.len());
        assert_eq!(ba.or(&bb).len(), expect_or.len());
        assert_eq!(ba.andnot(&bb).len(), expect_not.len());
    }

    #[test]
    fn rank_select_are_inverse() {
        let v: Vec<u32> = vec![1, 7, 4095, 4096, 5000, 20_000];
        let bm = SelectionBitmap::from_sorted(&v);
        for (k, &rid) in v.iter().enumerate() {
            assert_eq!(bm.select(k), Some(rid));
            assert_eq!(bm.rank(rid), k);
            assert_eq!(bm.rank(rid + 1), k + 1);
        }
        assert_eq!(bm.select(v.len()), None);
        assert_eq!(bm.rank(0), 0);
    }

    #[test]
    fn retain_filters_and_recanonicalises() {
        let mut bm = SelectionBitmap::full(10_000);
        bm.retain(|rid| rid % 7 == 0);
        let expect: Vec<u32> = (0..10_000).filter(|x| x % 7 == 0).collect();
        assert_eq!(ids(&bm), expect);
        assert_eq!(bm, SelectionBitmap::from_sorted(&expect));
    }

    /// The chunk-AND kernel against per-row membership, on a set holding an
    /// array, a bitset and run chunks, for chunks it holds and chunks it lacks.
    #[test]
    fn and_chunk_into_matches_per_row_membership() {
        let v: Vec<u32> = (0..4096)
            .step_by(97)
            .chain((4096..8192).filter(|r| r % 3 != 0))
            .chain(8292..11_192)
            .chain(4 * 4096..5 * 4096)
            .collect();
        let set = SelectionBitmap::from_sorted(&v);
        let kinds: Vec<(u32, &str)> = set
            .chunks
            .iter()
            .map(|(cid, c)| match c {
                Container::Array(_) => (*cid, "array"),
                Container::Bitset(_) => (*cid, "bitset"),
                Container::Run(_) => (*cid, "run"),
            })
            .collect();
        assert_eq!(kinds, [(0, "array"), (1, "bitset"), (2, "run"), (4, "run")]);
        for chunk in 0..6u32 {
            let mut words = [0u64; CHUNK_WORDS];
            for off in (0..CHUNK_BITS).filter(|o| o % 2 == 0 || o % 5 == 0) {
                set_bit(&mut words, off);
            }
            let before = words;
            set.and_chunk_into(chunk, &mut words);
            for off in 0..CHUNK_BITS {
                let bit = |w: &[u64; CHUNK_WORDS]| w[off >> 6] >> (off & 63) & 1 == 1;
                let rid = (chunk << CHUNK_SHIFT) | off as u32;
                assert_eq!(
                    bit(&words),
                    bit(&before) && set.contains(rid),
                    "chunk {chunk} offset {off}"
                );
            }
        }
    }

    #[test]
    fn chunk_writer_merges_out_of_order_pushes() {
        let mut w = ChunkWriter::new();
        let mut words = [0u64; CHUNK_WORDS];
        set_bit(&mut words, 1);
        w.push_words(2, &words);
        let mut earlier = [0u64; CHUNK_WORDS];
        set_bit(&mut earlier, 5);
        w.push_words(0, &earlier);
        let mut again = [0u64; CHUNK_WORDS];
        set_bit(&mut again, 9);
        w.push_words(2, &again);
        let bm = w.finish();
        assert_eq!(ids(&bm), vec![5, 2 * 4096 + 1, 2 * 4096 + 9]);
    }

    #[test]
    fn for_each_chunk_roundtrips_through_writer() {
        let v: Vec<u32> = (0..30_000).filter(|x| x % 11 == 0).collect();
        let bm = SelectionBitmap::from_sorted(&v);
        let mut w = ChunkWriter::new();
        bm.for_each_chunk(|cid, words| w.push_words(cid, words));
        assert_eq!(w.finish(), bm);
    }
}
