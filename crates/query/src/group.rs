//! Group tables and cached grouped results for the vectorized executor.
//!
//! The expensive part of every paper-shaped query is the scan: filter the
//! base table, assign each surviving row a group id, and accumulate the
//! aggregates. Everything after that — `HAVING`, `ORDER BY`, `LIMIT` — is
//! `O(groups)`. [`GroupTable`] performs the group-id assignment over
//! encoded key batches; [`GroupedResult`] is the finished group phase,
//! from which [`GroupedResult::apply`] derives the answer relation for any
//! output spec without touching the base table again. An interactive
//! threshold slider re-applies against one cached `GroupedResult` instead
//! of re-executing the query.

use crate::ast::{AggFunc, CmpOp, OrderDir};
use crate::exec::{QueryOutput, QueryRow};
use crate::plan::{BoundAgg, GroupSpec, OutputSpec};
use qagview_common::{FxHashMap, QagError, Result, Symbol};
use qagview_lattice::AnswerSet;
use qagview_storage::sumlane::{from_fixed, pow2, to_fixed};
use qagview_storage::{Column, SumLane, Table};
use std::cmp::Ordering;

/// Encode an `i64` group-key part so that `u64` comparison preserves the
/// signed order (flip the sign bit).
#[inline]
pub(crate) fn encode_i64(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

#[inline]
fn decode_i64(e: u64) -> i64 {
    (e ^ (1 << 63)) as i64
}

/// Fold one encoded key lane into a running hash (FxHash-style
/// rotate–xor–multiply). The scan pipeline folds lanes column by column
/// while encoding, so hashing costs no extra pass over the keys.
#[inline]
pub(crate) fn fold_hash(h: u64, lane: u64) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    (h.rotate_left(5) ^ lane).wrapping_mul(K)
}

/// Final high-bit fold so the low bits used for slot indexing depend on
/// every lane.
#[inline]
pub(crate) fn finish_hash(h: u64) -> u64 {
    h ^ (h >> 32)
}

/// Map a float to a `u64` whose unsigned order matches the float's total
/// order (negatives below positives, `-0.0` canonicalized to `+0.0` so
/// the two zeros tie exactly as `f64` comparison says they do). Both
/// engines sort `ORDER BY val` through this mapping, which also gives
/// NaN aggregates a single well-defined position (above `+∞`, below
/// `-∞` for negative NaNs) instead of comparator-dependent garbage.
#[inline]
pub(crate) fn f64_sort_bits(v: f64) -> u64 {
    total_key(if v == 0.0 { 0.0 } else { v })
}

/// Assigns dense group ids to rows from their encoded group keys.
///
/// Keys are fixed-width slices of `u64` (one lane per group column, each
/// lane encoded order-preservingly), so hashing and equality run over
/// plain machine words regardless of the underlying column types. The
/// table is a flat open-addressing map whose probes compare directly into
/// the contiguous key arena — no per-group heap box, no pointer chase.
/// It is reusable: [`GroupTable::clear`] resets it for another query
/// while keeping its allocations.
#[derive(Debug, Default)]
pub struct GroupTable {
    width: usize,
    /// Open-addressing slots: `(key hash, gid + 1)`; gid `0` marks empty.
    /// Keeping the hash inline means a probe usually resolves from this
    /// one array — the key arena is only touched to confirm a hash match.
    slots: Vec<(u64, u32)>,
    mask: usize,
    /// Encoded keys in group-id order, `width` lanes per group.
    keys: Vec<u64>,
    num_groups: u32,
}

impl GroupTable {
    const MIN_SLOTS: usize = 1024;

    /// A table for keys of `width` lanes (one per group column).
    pub fn new(width: usize) -> Self {
        GroupTable {
            width,
            ..Default::default()
        }
    }

    /// Number of distinct groups seen so far.
    pub fn num_groups(&self) -> usize {
        self.num_groups as usize
    }

    /// The encoded key of group `gid`.
    pub fn key(&self, gid: usize) -> &[u64] {
        &self.keys[gid * self.width..(gid + 1) * self.width]
    }

    /// Reset for a new query with keys of `width` lanes, keeping the
    /// allocations of the slot array and key arena.
    pub fn clear(&mut self, width: usize) {
        self.slots.iter_mut().for_each(|s| *s = (0, 0));
        self.keys.clear();
        self.num_groups = 0;
        self.width = width;
    }

    /// Double the slot array and re-seat every group from its stored hash.
    #[cold]
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old: Vec<(u64, u32)> = std::mem::take(&mut self.slots)
            .into_iter()
            .filter(|&(_, g)| g != 0)
            .collect();
        self.slots.resize(new_len, (0, 0));
        self.mask = new_len - 1;
        for (h, g) in old {
            let mut idx = (h as usize) & self.mask;
            while self.slots[idx].1 != 0 {
                idx = (idx + 1) & self.mask;
            }
            self.slots[idx] = (h, g);
        }
    }

    /// Assign a group id to each of the `count` encoded keys in `batch`
    /// (row-major, `width` lanes per row, with `hashes[i]` the folded hash
    /// of row `i` as produced by the pipeline's incremental lane-hash fold),
    /// appending new groups in
    /// first-encounter order. Ids are written to `gids` (cleared first).
    pub fn assign(&mut self, batch: &[u64], hashes: &[u64], count: usize, gids: &mut Vec<u32>) {
        gids.clear();
        if self.width == 0 {
            // No GROUP BY columns: every row lands in the single group.
            if count > 0 {
                self.num_groups = 1;
            }
            gids.resize(count, 0);
            return;
        }
        debug_assert_eq!(batch.len(), count * self.width);
        debug_assert_eq!(hashes.len(), count);
        let width = self.width;
        for (key, &raw_h) in batch.chunks_exact(width).zip(hashes) {
            // Keep the load factor below 3/4 so probe chains stay short.
            if (self.num_groups as usize + 1) * 4 > self.slots.len() * 3 {
                self.grow();
            }
            let h = finish_hash(raw_h);
            let mut idx = (h as usize) & self.mask;
            let gid = loop {
                let (slot_h, slot_g) = self.slots[idx];
                if slot_g == 0 {
                    let g = self.num_groups;
                    self.slots[idx] = (h, g + 1);
                    self.keys.extend_from_slice(key);
                    self.num_groups += 1;
                    break g;
                }
                if slot_h == h {
                    let g = (slot_g - 1) as usize;
                    if &self.keys[g * width..(g + 1) * width] == key {
                        break slot_g - 1;
                    }
                }
                idx = (idx + 1) & self.mask;
            };
            gids.push(gid);
        }
    }

    /// Assign group ids to `count` whole keys (`keys` row-major, `width`
    /// lanes each), hashing them here; ids go to `gids` (cleared first),
    /// new groups numbered in call order. The morsel-parallel merge inserts
    /// every worker's groups through this in order of their first row,
    /// which reproduces the sequential scan's first-encounter order.
    pub(crate) fn assign_keys(&mut self, keys: &[u64], count: usize, gids: &mut Vec<u32>) {
        let hashes: Vec<u64> = if self.width == 0 {
            vec![0; count]
        } else {
            keys.chunks_exact(self.width)
                .map(|key| key.iter().fold(0u64, |h, &lane| fold_hash(h, lane)))
                .collect()
        };
        self.assign(keys, &hashes, count, gids);
    }
}

/// Adds a [`Superaccs`] absorbs between carry passes. Each add moves a
/// digit by less than `2^32`, so digits stay far inside `i64`.
const SUPERACC_CARRY_EVERY: u64 = 1 << 30;

/// Most digits a [`Superaccs`] group can need: finite values span bits
/// `2^-1074 ..= 2^1023`, plus 64 bits of row-count headroom, in base
/// `2^32`, plus the three digits one add may touch.
const SUPERACC_MAX_WIDTH: usize = (1023 + 1 + 1074 + 64) / 32 + 3;

/// Non-finite input flags of a [`Superaccs`] group.
const FLAG_NAN: u8 = 1;
const FLAG_POS_INF: u8 = 2;
const FLAG_NEG_INF: u8 = 4;

/// `2^e` for any `e` in `[-1074, 1023]`, subnormal powers included.
fn exp2i(e: i32) -> f64 {
    if e >= -1022 {
        pow2(e)
    } else {
        f64::from_bits(1 << (e + 1074))
    }
}

/// Propagate carries so every digit but the top one lies in `[0, 2^32)`;
/// the top digit carries the sign.
fn carry(digits: &mut [i64]) {
    for i in 0..digits.len() - 1 {
        let c = digits[i] >> 32;
        digits[i] -= c << 32;
        digits[i + 1] += c;
    }
}

/// The general exact lane: per group, the exact sum of any floats as a
/// fixed-point superaccumulator with deferred carries, plus flags for
/// non-finite inputs. Adding is order-free and two groups merge digit by
/// digit. Digit `i` of a group weighs `2^(32·i + low)`, and a group has
/// only the digits its column's finite range needs (see
/// [`SumLane::General`]): three for small integers with one NaN, at most
/// [`SUPERACC_MAX_WIDTH`] for a column spanning the whole `f64` range. It
/// serves only columns outside the fixed lane, so it trades speed for
/// simplicity.
#[derive(Debug)]
struct Superaccs {
    low: i32,
    /// Digits per group.
    width: usize,
    /// `width` digits per group, group-major.
    digits: Vec<i64>,
    /// Per group: `FLAG_*` bits of the non-finite inputs seen.
    flags: Vec<u8>,
    /// Adds (or merged adds) since the last carry pass, over all groups:
    /// a bound on any one group's.
    pending: u64,
}

impl Superaccs {
    fn new(low: i32, bits: i32) -> Self {
        // A sum needs `bits` magnitude bits above 2^low; an add touches
        // three digits from the one holding its lowest set bit, which lies
        // at most `bits − 1` places above 2^low.
        let width = bits as usize / 32 + 3;
        debug_assert!(width <= SUPERACC_MAX_WIDTH);
        Superaccs {
            low,
            width,
            digits: Vec::new(),
            flags: Vec::new(),
            pending: 0,
        }
    }

    fn grow(&mut self, num_groups: usize) {
        grow(&mut self.digits, num_groups * self.width, 0);
        grow(&mut self.flags, num_groups, 0);
    }

    /// Count `adds` more adds, first carrying every group if they could
    /// push a digit out of range.
    fn reserve_adds(&mut self, adds: u64) {
        if self.pending + adds > SUPERACC_CARRY_EVERY {
            self.digits.chunks_exact_mut(self.width).for_each(carry);
            // Carried digits are worth at most one add each.
            self.pending = 1;
        }
        self.pending += adds;
    }

    fn add(&mut self, gids: &[u32], vals: &[f64], num_groups: usize) {
        self.grow(num_groups);
        let width = self.width;
        for (gids, vals) in gids.chunks(1 << 20).zip(vals.chunks(1 << 20)) {
            self.reserve_adds(gids.len() as u64);
            for (&g, &x) in gids.iter().zip(vals) {
                let g = g as usize;
                let bits = x.to_bits();
                let field = ((bits >> 52) & 0x7ff) as i32;
                let frac = bits & ((1 << 52) - 1);
                if field == 0x7ff {
                    self.flags[g] |= if frac != 0 {
                        FLAG_NAN
                    } else if x > 0.0 {
                        FLAG_POS_INF
                    } else {
                        FLAG_NEG_INF
                    };
                    continue;
                }
                // x = ±m · 2^e, then m made odd; subnormals have no
                // implicit bit and e = -1074.
                let m = frac | (u64::from(field != 0) << 52);
                if m == 0 {
                    continue;
                }
                let tz = m.trailing_zeros();
                let offset = (field.max(1) - 1075 + tz as i32 - self.low) as u32;
                let v = u128::from(m >> tz) << (offset % 32);
                let at = g * width + (offset / 32) as usize;
                let d = &mut self.digits[at..at + 3];
                for (j, digit) in d.iter_mut().enumerate() {
                    let part = ((v >> (32 * j)) & 0xffff_ffff) as i64;
                    if x < 0.0 {
                        *digit -= part;
                    } else {
                        *digit += part;
                    }
                }
            }
        }
    }

    /// Add partition sums `part` (local group `i` is group `remap[i]`).
    fn merge(&mut self, part: &Superaccs, remap: &[u32], num_groups: usize) {
        debug_assert_eq!((self.low, self.width), (part.low, part.width));
        self.grow(num_groups);
        self.reserve_adds(part.pending);
        let width = self.width;
        for ((&g, local), &flags) in remap
            .iter()
            .zip(part.digits.chunks_exact(width))
            .zip(&part.flags)
        {
            let g = g as usize;
            for (a, b) in self.digits[g * width..(g + 1) * width]
                .iter_mut()
                .zip(local)
            {
                *a += b;
            }
            self.flags[g] |= flags;
        }
    }

    /// Group `gid`'s exact sum rounded once to the nearest `f64` (ties to
    /// even; `±∞` past the largest float; an exact zero is `+0.0`). NaN if
    /// any input was NaN or both infinities occurred.
    fn finish(&self, gid: usize) -> f64 {
        match self.flags[gid] {
            0 => {}
            FLAG_POS_INF => return f64::INFINITY,
            FLAG_NEG_INF => return f64::NEG_INFINITY,
            _ => return f64::NAN,
        }
        let mut buf = [0i64; SUPERACC_MAX_WIDTH];
        let digits = &mut buf[..self.width];
        digits.copy_from_slice(&self.digits[gid * self.width..(gid + 1) * self.width]);
        carry(digits);
        let neg = digits[self.width - 1] < 0;
        if neg {
            digits.iter_mut().for_each(|l| *l = -*l);
            carry(digits);
        }
        let Some(top) = digits.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        // The top three digits hold at least 65 significant bits; every
        // lower digit folds into one sticky bit below the rounding point,
        // so the u128 → f64 conversion is the one rounding.
        let base = top.saturating_sub(2);
        let mut m = digits[base..=top]
            .iter()
            .rev()
            .fold(0u128, |m, &l| (m << 32) | l as u128);
        if digits[..base].iter().any(|&l| l != 0) {
            m |= 1;
        }
        // Exact scaling: a subnormal result is below 2^52 units of
        // 2^low ≥ 2^-1074, so it fits the bottom two digits and its m
        // converted without rounding.
        let mag = m as f64 * exp2i(32 * base as i32 + self.low);
        if neg {
            -mag
        } else {
            mag
        }
    }
}

/// Per-group exact sums of one aggregate input. `SUM`/`AVG` are the
/// correctly rounded exact sum, so the partial sums of a group's rows from
/// any partition of them merge, in any order, into the same bits.
#[derive(Debug)]
enum ExactSum {
    /// A [`SumLane::Fixed`] column: `i128` sums in units of
    /// `unit = 2^shift` (`inv_unit = 2^-shift`).
    Fixed {
        inv_unit: f64,
        unit: f64,
        sums: Vec<i128>,
    },
    /// The general lane.
    General(Superaccs),
}

/// Grow per-group state to `n` entries, filling with `empty`.
fn grow<T: Clone>(v: &mut Vec<T>, n: usize, empty: T) {
    if v.len() < n {
        v.resize(n, empty);
    }
}

/// Add partition sums `local` (local group `i` is group `remap[i]`).
fn add_remapped<T: Copy + Default + std::ops::AddAssign>(
    sums: &mut Vec<T>,
    local: &[T],
    remap: &[u32],
    num_groups: usize,
) {
    grow(sums, num_groups, T::default());
    for (&g, &s) in remap.iter().zip(local) {
        sums[g as usize] += s;
    }
}

impl ExactSum {
    fn new(lane: SumLane) -> Self {
        match lane {
            SumLane::Fixed { shift } => ExactSum::Fixed {
                inv_unit: pow2(-shift),
                unit: pow2(shift),
                sums: Vec::new(),
            },
            SumLane::General { low, bits } => ExactSum::General(Superaccs::new(low, bits)),
        }
    }

    fn add(&mut self, gids: &[u32], vals: &[f64], num_groups: usize) {
        match self {
            ExactSum::Fixed { inv_unit, sums, .. } => {
                grow(sums, num_groups, 0);
                for (&g, &x) in gids.iter().zip(vals) {
                    sums[g as usize] += to_fixed(x, *inv_unit);
                }
            }
            ExactSum::General(accs) => accs.add(gids, vals, num_groups),
        }
    }

    /// Add partition sums `part` (local group `i` is group `remap[i]`).
    fn merge(&mut self, part: &ExactSum, remap: &[u32], num_groups: usize) {
        match (self, part) {
            (ExactSum::Fixed { sums, .. }, ExactSum::Fixed { sums: local, .. }) => {
                add_remapped(sums, local, remap, num_groups)
            }
            (ExactSum::General(accs), ExactSum::General(local)) => {
                accs.merge(local, remap, num_groups)
            }
            _ => unreachable!("partitions of one column share its sum lane"),
        }
    }

    fn finish(&self, gid: usize) -> f64 {
        match self {
            ExactSum::Fixed { unit, sums, .. } => from_fixed(sums[gid], *unit),
            ExactSum::General(accs) => accs.finish(gid),
        }
    }
}

/// IEEE 754 `totalOrder` key of a float: unsigned order on the keys is the
/// float order with `−0.0 < +0.0` (NaNs land beyond `±∞`).
#[inline]
fn total_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

#[inline]
fn from_total_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Key of "no non-NaN input yet": above every non-NaN key (and their
/// complements), so `u64::min` never picks it over a real input.
const NO_EXTREME: u64 = u64::MAX;

/// `MIN` or `MAX` state: per group, the least key of its non-NaN inputs
/// so far, or [`NO_EXTREME`] before one is seen. A key is the
/// `totalOrder` key XOR `flip`: `0` for `MIN`, all ones for `MAX`, whose
/// complemented keys make the greatest input the least key.
#[derive(Debug)]
struct Extremes {
    keys: Vec<u64>,
    flip: u64,
}

impl Extremes {
    fn min() -> Self {
        Extremes {
            keys: Vec::new(),
            flip: 0,
        }
    }

    fn max() -> Self {
        Extremes {
            keys: Vec::new(),
            flip: u64::MAX,
        }
    }

    fn add(&mut self, gids: &[u32], vals: &[f64], num_groups: usize) {
        grow(&mut self.keys, num_groups, NO_EXTREME);
        for (&g, &x) in gids.iter().zip(vals) {
            let k = if x.is_nan() {
                NO_EXTREME
            } else {
                total_key(x) ^ self.flip
            };
            let slot = &mut self.keys[g as usize];
            *slot = (*slot).min(k);
        }
    }

    /// Merge partition extremes `part` (local group `i` is group `remap[i]`).
    fn merge(&mut self, part: &Extremes, remap: &[u32], num_groups: usize) {
        grow(&mut self.keys, num_groups, NO_EXTREME);
        for (&g, &k) in remap.iter().zip(&part.keys) {
            let slot = &mut self.keys[g as usize];
            *slot = (*slot).min(k);
        }
    }

    /// NaN when the group had no non-NaN input.
    fn finish(&self, gid: usize) -> f64 {
        match self.keys[gid] {
            NO_EXTREME => f64::NAN,
            key => from_total_key(key ^ self.flip),
        }
    }
}

/// Running state of one aggregate over group ids.
#[derive(Debug)]
enum AggState {
    /// `COUNT` finishes from the shared row counts.
    Count,
    /// `SUM` and `AVG`.
    Sum(ExactSum),
    /// `MIN` and `MAX`.
    Extreme(Extremes),
}

/// The aggregate state of a group phase, or of one partition of it: the
/// shared per-group row counts plus one state per aggregate. Every state
/// is a mergeable partial — counts and exact sums add, extremes compare —
/// so the partitions of a scan merge into the bits a single pass yields,
/// in any order.
#[derive(Debug)]
pub(crate) struct Accumulators {
    /// Per aggregate: its function, the distinct input column it reads
    /// (`None` for `COUNT`), and its state.
    aggs: Vec<(AggFunc, Option<usize>, AggState)>,
    /// Rows per group, shared by every aggregate: columns are non-nullable,
    /// so `COUNT(*)`, `COUNT(col)`, and every `AVG`'s denominator all count
    /// exactly the selected rows.
    counts: Vec<u64>,
}

impl Accumulators {
    /// Empty state for `aggs`, where `agg_input[i]` is the distinct input
    /// column aggregate `i` reads and `lanes[k]` the sum lane of distinct
    /// input `k`.
    pub(crate) fn new(aggs: &[BoundAgg], agg_input: &[Option<usize>], lanes: &[SumLane]) -> Self {
        Accumulators {
            aggs: aggs
                .iter()
                .zip(agg_input)
                .map(|(agg, &k)| {
                    let state = match (agg.func, k) {
                        (AggFunc::Sum | AggFunc::Avg, Some(k)) => {
                            AggState::Sum(ExactSum::new(lanes[k]))
                        }
                        (AggFunc::Min, Some(_)) => AggState::Extreme(Extremes::min()),
                        (AggFunc::Max, Some(_)) => AggState::Extreme(Extremes::max()),
                        _ => AggState::Count,
                    };
                    (agg.func, k, state)
                })
                .collect(),
            counts: Vec::new(),
        }
    }

    /// Fold rows into their groups: `gids[i]` is the group of row `i` and
    /// `input(k)` the rows' values of distinct input column `k`, in the
    /// same order.
    pub(crate) fn add<'v>(
        &mut self,
        gids: &[u32],
        num_groups: usize,
        input: impl Fn(usize) -> &'v [f64],
    ) {
        grow(&mut self.counts, num_groups, 0);
        for &g in gids {
            self.counts[g as usize] += 1;
        }
        for (_, k, state) in &mut self.aggs {
            let Some(k) = *k else { continue };
            match state {
                AggState::Count => {}
                AggState::Sum(sum) => sum.add(gids, input(k), num_groups),
                AggState::Extreme(ext) => ext.add(gids, input(k), num_groups),
            }
        }
    }

    /// Merge a partition's state `part`, whose local group `i` is group
    /// `remap[i]` of this state's `num_groups`.
    pub(crate) fn merge(&mut self, part: &Accumulators, remap: &[u32], num_groups: usize) {
        add_remapped(&mut self.counts, &part.counts, remap, num_groups);
        for ((_, _, state), (_, _, local)) in self.aggs.iter_mut().zip(&part.aggs) {
            match (state, local) {
                (AggState::Count, AggState::Count) => {}
                (AggState::Sum(sum), AggState::Sum(local)) => sum.merge(local, remap, num_groups),
                (AggState::Extreme(ext), AggState::Extreme(local)) => {
                    ext.merge(local, remap, num_groups)
                }
                _ => unreachable!("partitions of one query share its aggregates"),
            }
        }
    }

    /// The finished value of aggregate `i` for group `gid`.
    fn finish(&self, i: usize, gid: usize) -> f64 {
        let (func, _, state) = &self.aggs[i];
        let count = self.counts[gid];
        match (func, state) {
            (AggFunc::Avg, AggState::Sum(sum)) => {
                debug_assert!(count > 0, "groups are never empty");
                sum.finish(gid) / count as f64
            }
            (_, AggState::Sum(sum)) => sum.finish(gid),
            (_, AggState::Extreme(ext)) => ext.finish(gid),
            (_, AggState::Count) => count as f64,
        }
    }
}

pub(crate) fn cmp_holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Neq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// The finished group phase of one query: every aggregate finished per
/// group, display attributes rendered, and both sort permutations
/// precomputed. Any `HAVING` threshold, `ORDER BY` direction, and `LIMIT`
/// is derived from this in `O(groups)` via [`GroupedResult::apply`].
#[derive(Debug, Clone)]
pub struct GroupedResult {
    attr_names: Vec<String>,
    width: usize,
    num_groups: usize,
    /// Distinct rendered display strings per key lane (group keys draw
    /// from small categorical domains, so each value renders once).
    attr_pool: Vec<Vec<String>>,
    /// Per-group pool indices, row-major `width` per group: the display
    /// attributes of group `g` are `attr_pool[j][attr_codes[g*width + j]]`.
    attr_codes: Vec<u32>,
    /// Finished aggregate values, `[agg_idx][gid]`.
    finished: Vec<Vec<f64>>,
    /// Group ids sorted by (val asc, key asc) / (val desc, key asc).
    order_asc: Vec<u32>,
    order_desc: Vec<u32>,
}

impl GroupedResult {
    /// Finish a group phase: render keys, finalize aggregates, precompute
    /// the sort permutations.
    pub(crate) fn finish(
        table: &Table,
        spec: &GroupSpec,
        gt: &GroupTable,
        acc: &Accumulators,
    ) -> Result<Self> {
        let n = gt.num_groups();
        let finished: Vec<Vec<f64>> = (0..acc.aggs.len())
            .map(|i| (0..n).map(|gid| acc.finish(i, gid)).collect())
            .collect();
        let group_cols = &spec.group_cols;
        let width = group_cols.len();

        // Render each *distinct* encoded value per lane once into a pool
        // and store per-group pool codes; output rows clone from the pool
        // on demand in `apply`. Lane-major passes keep each lane's lookup
        // structure hot.
        let mut attr_pool: Vec<Vec<String>> = vec![Vec::new(); width];
        let mut attr_codes: Vec<u32> = vec![0; n * width];
        for (j, &c) in group_cols.iter().enumerate() {
            let pool = &mut attr_pool[j];
            match table.column(c) {
                // Symbols are dense interner indices: a direct-index table
                // beats a hash map.
                Column::Str(_) => {
                    let interner = table.interner();
                    let mut by_symbol: Vec<u32> = vec![u32::MAX; interner.len()];
                    for gid in 0..n {
                        let enc = gt.keys[gid * width + j];
                        let s = enc as usize;
                        if by_symbol[s] == u32::MAX {
                            by_symbol[s] = pool.len() as u32;
                            pool.push(interner.resolve(Symbol(enc as u32)).to_string());
                        }
                        attr_codes[gid * width + j] = by_symbol[s];
                    }
                }
                Column::Int(_) | Column::Bool(_) => {
                    let mut by_enc: FxHashMap<u64, u32> = FxHashMap::default();
                    for gid in 0..n {
                        let enc = gt.keys[gid * width + j];
                        let code = match by_enc.get(&enc) {
                            Some(&code) => code,
                            None => {
                                let code = pool.len() as u32;
                                by_enc.insert(enc, code);
                                pool.push(render_part(table, c, enc)?);
                                code
                            }
                        };
                        attr_codes[gid * width + j] = code;
                    }
                }
                Column::Float(_) => {
                    return Err(QagError::internal(
                        "float group keys are rejected at bind time".to_string(),
                    ))
                }
            }
        }

        // Sort (value-bits, gid) pairs — a branchless integer sort — then
        // re-order each equal-value run by encoded key, matching the
        // reference engine's (val, key) comparator. Runs of exactly equal
        // scores are rare and short, so the fix-up pass is cheap.
        let key_of = |g: u32| &gt.keys[g as usize * width..(g as usize + 1) * width];
        static NO_VALS: [f64; 0] = [];
        let vals: &[f64] = finished.first().map_or(&NO_VALS, |v| v.as_slice());
        let val_of = |g: u32| {
            if vals.is_empty() {
                0.0
            } else {
                vals[g as usize]
            }
        };
        let mut tagged: Vec<(u64, u32)> = (0..n as u32)
            .map(|g| (f64_sort_bits(val_of(g)), g))
            .collect();
        tagged.sort_unstable();
        let mut order_asc: Vec<u32> = tagged.iter().map(|&(_, g)| g).collect();
        let mut lo = 0;
        while lo < n {
            let mut hi = lo + 1;
            while hi < n && tagged[hi].0 == tagged[lo].0 {
                hi += 1;
            }
            if hi - lo > 1 {
                order_asc[lo..hi].sort_unstable_by(|&a, &b| key_of(a).cmp(key_of(b)));
            }
            lo = hi;
        }
        // Descending order keeps the *ascending* key tie-break, so it is
        // the reverse of `order_asc` with each equal-value run restored to
        // its original direction — no second sort needed.
        let mut order_desc: Vec<u32> = Vec::with_capacity(n);
        let mut hi = n;
        while hi > 0 {
            let mut lo = hi - 1;
            while lo > 0
                && f64_sort_bits(val_of(order_asc[lo - 1]))
                    == f64_sort_bits(val_of(order_asc[hi - 1]))
            {
                lo -= 1;
            }
            order_desc.extend_from_slice(&order_asc[lo..hi]);
            hi = lo;
        }

        Ok(GroupedResult {
            attr_names: spec.group_names.clone(),
            width,
            num_groups: n,
            attr_pool,
            attr_codes,
            finished,
            order_asc,
            order_desc,
        })
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// A structural fingerprint over every field of the finished group
    /// phase, with floats hashed by *bit pattern* (NaNs and signed zeros
    /// included). Two `GroupedResult`s with equal fingerprints agree on
    /// group order, rendered attributes, every aggregate's exact f64 bits,
    /// and both sort permutations — the identity contract the
    /// morsel-parallel scan is held to against the sequential engine, and
    /// what the N-scaling bench asserts before timing anything.
    pub fn result_fingerprint(&self) -> u64 {
        let mut h = fold_hash(0, self.num_groups as u64);
        h = fold_hash(h, self.width as u64);
        for name in &self.attr_names {
            h = fold_hash(h, name.len() as u64);
            for b in name.as_bytes() {
                h = fold_hash(h, u64::from(*b));
            }
        }
        for pool in &self.attr_pool {
            h = fold_hash(h, pool.len() as u64);
            for s in pool {
                h = fold_hash(h, s.len() as u64);
                for b in s.as_bytes() {
                    h = fold_hash(h, u64::from(*b));
                }
            }
        }
        for &code in &self.attr_codes {
            h = fold_hash(h, u64::from(code));
        }
        for col in &self.finished {
            h = fold_hash(h, col.len() as u64);
            for v in col {
                h = fold_hash(h, v.to_bits());
            }
        }
        for ord in [&self.order_asc, &self.order_desc] {
            for &g in ord.iter() {
                h = fold_hash(h, u64::from(g));
            }
        }
        finish_hash(h)
    }

    /// Every group's rendered attributes mapped to the bits of each of its
    /// finished aggregates — the group phase with group order factored out,
    /// which is what a permutation of the table's rows must preserve.
    #[cfg(test)]
    pub(crate) fn group_values(&self) -> std::collections::BTreeMap<Vec<String>, Vec<u64>> {
        (0..self.num_groups)
            .map(|g| {
                let attrs = self.attr_codes[g * self.width..(g + 1) * self.width]
                    .iter()
                    .enumerate()
                    .map(|(j, &code)| self.attr_pool[j][code as usize].clone())
                    .collect();
                let vals = self.finished.iter().map(|col| col[g].to_bits()).collect();
                (attrs, vals)
            })
            .collect()
    }

    /// Number of aggregates finished per group.
    pub fn num_aggs(&self) -> usize {
        self.finished.len()
    }

    /// Evaluate every `HAVING` conjunct for every group — conjuncts
    /// short-circuit per group exactly like the reference engine, so a
    /// NaN aggregate reached by the conjunct chain errors here even when
    /// `LIMIT` would have cut the output walk short of that group.
    fn having_passes(&self, spec: &OutputSpec) -> Result<Vec<bool>> {
        for h in &spec.having {
            if h.agg_idx >= self.finished.len() {
                return Err(QagError::internal(format!(
                    "HAVING references aggregate {} but the grouped result has {}",
                    h.agg_idx,
                    self.finished.len()
                )));
            }
        }
        let mut passes = vec![true; self.num_groups];
        'group: for (gid, pass) in passes.iter_mut().enumerate() {
            for h in &spec.having {
                let v = self.finished[h.agg_idx][gid];
                let ord = v.partial_cmp(&h.value).ok_or_else(|| {
                    QagError::Execution("NaN aggregate in HAVING comparison".to_string())
                })?;
                if !cmp_holds(h.op, ord) {
                    *pass = false;
                    continue 'group;
                }
            }
        }
        Ok(passes)
    }

    /// Derive the answer relation for one output spec in `O(groups)`:
    /// evaluate `HAVING` over every group, then walk the precomputed
    /// permutation (or insertion order), stopping the expensive rendering
    /// walk at `LIMIT`.
    pub fn apply(&self, spec: &OutputSpec) -> Result<QueryOutput> {
        let passes = self.having_passes(spec)?;
        let mut rows = Vec::new();
        match spec.order {
            None => self.emit_rows(spec, 0..self.num_groups, &passes, &mut rows),
            Some(OrderDir::Asc) => self.emit_rows(
                spec,
                self.order_asc.iter().map(|&g| g as usize),
                &passes,
                &mut rows,
            ),
            Some(OrderDir::Desc) => self.emit_rows(
                spec,
                self.order_desc.iter().map(|&g| g as usize),
                &passes,
                &mut rows,
            ),
        }
        Ok(QueryOutput {
            attr_names: self.attr_names.clone(),
            val_name: spec.agg_alias.clone(),
            rows,
        })
    }

    /// Derive the answer relation for one output spec directly as a
    /// dense-coded [`AnswerSet`], skipping the display-string round trip of
    /// [`GroupedResult::apply`] + re-interning: group attributes are
    /// re-coded straight from the interned pool codes, and each pool string
    /// is cloned at most once (when it first enters a domain) instead of
    /// once per row.
    ///
    /// Byte-for-byte identical to feeding [`GroupedResult::apply`]'s rows
    /// through `qagview_lattice::AnswerSetBuilder`: domain codes are
    /// assigned in the same first-occurrence-in-output order, and the final
    /// ordering/uniqueness rules are shared via [`AnswerSet::from_rows`].
    pub fn apply_answers(&self, spec: &OutputSpec) -> Result<AnswerSet> {
        let passes = self.having_passes(spec)?;
        let limit = spec.limit.unwrap_or(usize::MAX);
        let picked: Vec<usize> = match spec.order {
            None => collect_passing(0..self.num_groups, &passes, limit),
            Some(OrderDir::Asc) => {
                collect_passing(self.order_asc.iter().map(|&g| g as usize), &passes, limit)
            }
            Some(OrderDir::Desc) => {
                collect_passing(self.order_desc.iter().map(|&g| g as usize), &passes, limit)
            }
        };
        // Re-code each lane's pool indices densely in first-occurrence
        // order over the emitted groups — the same order in which the
        // string path would have interned the rendered values.
        let mut domains: Vec<Vec<String>> = vec![Vec::new(); self.width];
        let mut remap: Vec<Vec<u32>> = self
            .attr_pool
            .iter()
            .map(|pool| vec![u32::MAX; pool.len()])
            .collect();
        let vals: &[f64] = self.finished.first().map_or(&[], |v| v.as_slice());
        let mut rows: Vec<(Vec<u32>, f64)> = Vec::with_capacity(picked.len());
        for &gid in &picked {
            let mut codes = Vec::with_capacity(self.width);
            for (j, &pool_code) in self.attr_codes[gid * self.width..(gid + 1) * self.width]
                .iter()
                .enumerate()
            {
                let slot = &mut remap[j][pool_code as usize];
                if *slot == u32::MAX {
                    *slot = domains[j].len() as u32;
                    domains[j].push(self.attr_pool[j][pool_code as usize].clone());
                }
                codes.push(*slot);
            }
            rows.push((codes, if vals.is_empty() { 0.0 } else { vals[gid] }));
        }
        AnswerSet::from_rows(self.attr_names.clone(), domains, rows)
    }

    /// Walk `gids` in order, rendering the groups that passed `HAVING`,
    /// stopping at the limit.
    fn emit_rows(
        &self,
        spec: &OutputSpec,
        gids: impl Iterator<Item = usize>,
        passes: &[bool],
        rows: &mut Vec<QueryRow>,
    ) {
        let limit = spec.limit.unwrap_or(usize::MAX);
        for gid in gids {
            if rows.len() >= limit {
                break;
            }
            if !passes[gid] {
                continue;
            }
            let attrs = self.attr_codes[gid * self.width..(gid + 1) * self.width]
                .iter()
                .enumerate()
                .map(|(j, &code)| self.attr_pool[j][code as usize].clone())
                .collect();
            rows.push(QueryRow {
                attrs,
                val: self.finished.first().map_or(0.0, |v| v[gid]),
            });
        }
    }
}

/// Walk `gids` in order, collecting the groups that passed `HAVING` until
/// the limit is reached.
fn collect_passing(gids: impl Iterator<Item = usize>, passes: &[bool], limit: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for gid in gids {
        if out.len() >= limit {
            break;
        }
        if passes[gid] {
            out.push(gid);
        }
    }
    out
}

/// Render one encoded group-key lane back to display text, matching the
/// row-at-a-time path's rendering exactly.
fn render_part(table: &Table, col: usize, enc: u64) -> Result<String> {
    match table.column(col) {
        Column::Int(_) => Ok(decode_i64(enc).to_string()),
        Column::Str(_) => Ok(table.interner().resolve(Symbol(enc as u32)).to_string()),
        Column::Bool(_) => Ok((enc != 0).to_string()),
        Column::Float(_) => Err(QagError::internal(
            "float group keys are rejected at bind time".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold lane hashes the way the scan pipeline does.
    fn hashes_of(batch: &[u64], width: usize) -> Vec<u64> {
        batch
            .chunks_exact(width)
            .map(|key| key.iter().fold(0u64, |h, &w| fold_hash(h, w)))
            .collect()
    }

    #[test]
    fn i64_encoding_preserves_order_and_round_trips() {
        let xs = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        for w in xs.windows(2) {
            assert!(encode_i64(w[0]) < encode_i64(w[1]), "{} vs {}", w[0], w[1]);
        }
        for &x in &xs {
            assert_eq!(decode_i64(encode_i64(x)), x);
        }
    }

    #[test]
    fn group_table_assigns_dense_ids_in_first_encounter_order() {
        let mut gt = GroupTable::new(2);
        let batch = [1u64, 1, 2, 2, 1, 1, 3, 3];
        let mut gids = Vec::new();
        gt.assign(&batch, &hashes_of(&batch, 2), 4, &mut gids);
        assert_eq!(gids, vec![0, 1, 0, 2]);
        assert_eq!(gt.num_groups(), 3);
        assert_eq!(gt.key(1), &[2, 2]);
        // A second batch continues the same id space.
        let batch = [3u64, 3, 9, 9];
        gt.assign(&batch, &hashes_of(&batch, 2), 2, &mut gids);
        assert_eq!(gids, vec![2, 3]);
        assert_eq!(gt.num_groups(), 4);
    }

    #[test]
    fn group_table_survives_growth_past_the_initial_slot_count() {
        // More distinct keys than MIN_SLOTS * 3/4 forces several grows;
        // ids must stay stable and probes must still find every key.
        let mut gt = GroupTable::new(1);
        let mut gids = Vec::new();
        let keys: Vec<u64> = (0..5000u64).map(|i| i * 7 + 3).collect();
        gt.assign(&keys, &hashes_of(&keys, 1), keys.len(), &mut gids);
        assert_eq!(gt.num_groups(), 5000);
        let expected: Vec<u32> = (0..5000).collect();
        assert_eq!(gids, expected);
        // Replaying the same keys yields the same ids.
        gt.assign(&keys, &hashes_of(&keys, 1), keys.len(), &mut gids);
        assert_eq!(gids, expected);
    }

    #[test]
    fn group_table_clear_resets_but_reuses() {
        let mut gt = GroupTable::new(1);
        let mut gids = Vec::new();
        let batch = [7u64, 8, 7];
        gt.assign(&batch, &hashes_of(&batch, 1), 3, &mut gids);
        assert_eq!(gt.num_groups(), 2);
        gt.clear(1);
        assert_eq!(gt.num_groups(), 0);
        gt.assign(&[8], &hashes_of(&[8], 1), 1, &mut gids);
        assert_eq!(gids, vec![0], "ids restart after clear");
    }

    #[test]
    fn zero_width_keys_form_a_single_group() {
        let mut gt = GroupTable::new(0);
        let mut gids = Vec::new();
        gt.assign(&[], &[], 5, &mut gids);
        assert_eq!(gids, vec![0; 5]);
        assert_eq!(gt.num_groups(), 1);
        // No rows: no group.
        let mut gt = GroupTable::new(0);
        gt.assign(&[], &[], 0, &mut gids);
        assert_eq!(gt.num_groups(), 0);
    }

    fn accumulators(funcs: &[AggFunc], lane: SumLane) -> Accumulators {
        let aggs: Vec<BoundAgg> = funcs
            .iter()
            .map(|&func| BoundAgg { func, col: Some(0) })
            .collect();
        let input: Vec<Option<usize>> = funcs
            .iter()
            .map(|&f| (f != AggFunc::Count).then_some(0))
            .collect();
        Accumulators::new(&aggs, &input, &[lane])
    }

    const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];

    /// A general lane spanning `vals`' finite range (one NaN appended
    /// forces the general lane and adds a row of headroom).
    fn general_lane(vals: &[f64]) -> SumLane {
        let lane = SumLane::of_f64(&[vals, &[f64::NAN]].concat());
        assert!(matches!(lane, SumLane::General { .. }));
        lane
    }

    /// The general lane over the whole `f64` range and 2^64 rows.
    const FULL_RANGE: SumLane = SumLane::General {
        low: -1074,
        bits: 1023 + 1 + 1074 + 64,
    };

    #[test]
    fn agg_columns_match_scalar_semantics() {
        let gids = [0u32, 1, 0];
        let vals = [2.0, 10.0, 4.0];
        let fixed = SumLane::of_f64(&vals);
        assert_eq!(fixed, SumLane::Fixed { shift: 1 });
        for lane in [fixed, general_lane(&vals), FULL_RANGE] {
            let mut acc = accumulators(&ALL, lane);
            acc.add(&gids, 2, |_| &vals);
            let finished = |g: usize| -> Vec<f64> { (0..5).map(|i| acc.finish(i, g)).collect() };
            assert_eq!(finished(0), vec![2.0, 6.0, 3.0, 2.0, 4.0], "{lane:?}");
            assert_eq!(finished(1), vec![1.0, 10.0, 10.0, 10.0, 10.0], "{lane:?}");
        }
    }

    #[test]
    fn merged_partitions_equal_one_pass_in_either_order() {
        // Six rows of two groups, scanned whole and as two partitions.
        // Partition b meets group 1 first, so its local ids are swapped.
        let vals = [0.1, 1e-3, -0.0, 7.25, 1e10, 0.0];
        let bits = |acc: &Accumulators| -> Vec<u64> {
            (0..2)
                .flat_map(|g| (0..5).map(move |i| (i, g)))
                .map(|(i, g)| acc.finish(i, g).to_bits())
                .collect()
        };
        let fixed = SumLane::of_f64(&vals);
        assert!(matches!(fixed, SumLane::Fixed { .. }), "{fixed:?}");
        for lane in [fixed, general_lane(&vals), FULL_RANGE] {
            let mut whole = accumulators(&ALL, lane);
            whole.add(&[0, 1, 0, 1, 0, 1], 2, |_| &vals);
            let mut a = accumulators(&ALL, lane);
            a.add(&[0, 1, 0], 2, |_| &vals[..3]);
            let mut b = accumulators(&ALL, lane);
            b.add(&[0, 1, 0], 2, |_| &vals[3..]);
            let (remap_a, remap_b): (&[u32], &[u32]) = (&[0, 1], &[1, 0]);
            for parts in [
                [(&a, remap_a), (&b, remap_b)],
                [(&b, remap_b), (&a, remap_a)],
            ] {
                let mut merged = accumulators(&ALL, lane);
                for (part, remap) in parts {
                    merged.merge(part, remap, 2);
                }
                assert_eq!(bits(&merged), bits(&whole), "{lane:?}");
            }
        }
    }

    /// Sum `vals` as one group through the general lane, sized to their
    /// range; the full-range accumulator must give the same bits.
    fn general_sum(vals: &[f64]) -> f64 {
        let sum = |lane: SumLane| {
            let mut acc = accumulators(&[AggFunc::Sum], lane);
            acc.add(&vec![0; vals.len()], 1, |_| vals);
            acc.finish(0, 0)
        };
        let sized = sum(general_lane(vals));
        assert_eq!(sized.to_bits(), sum(FULL_RANGE).to_bits(), "{vals:?}");
        sized
    }

    #[test]
    fn general_lane_is_exact_where_float_chains_are_not() {
        assert_eq!(general_sum(&[1e300, 1.0, -1e300]), 1.0);
        // The float chain gives 0.6000000000000001.
        assert_eq!(general_sum(&[0.1, 0.2, 0.3]), 0.6);
        assert_eq!(general_sum(&[0.1; 10]), 1.0);
        // Overflow past MAX and back is exact; a final overflow is inf.
        assert_eq!(general_sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(general_sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(general_sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // Half an ulp above MAX ties to even: up, to inf. Just below the
        // tie (a sticky bit far down) it stays MAX.
        let half_ulp = pow2(970);
        assert_eq!(general_sum(&[f64::MAX, half_ulp]), f64::INFINITY);
        assert_eq!(
            general_sum(&[f64::MAX, half_ulp, -f64::from_bits(1)]),
            f64::MAX
        );
        // Ties to even in the middle of the range, decided by a sticky bit
        // 2000 binary places below.
        assert_eq!(general_sum(&[1.0, pow2(-53)]), 1.0);
        assert_eq!(
            general_sum(&[1.0, pow2(-53), f64::from_bits(1)]),
            1.0 + pow2(-52)
        );
        // The same ties with a range-sized accumulator whose digits do not
        // start at 2^-1074: the sticky bit sits below digit 0 of the top
        // three.
        assert_eq!(general_sum(&[pow2(120), pow2(67)]), pow2(120));
        assert_eq!(
            general_sum(&[pow2(120), pow2(67), 1.0]),
            pow2(120) + pow2(68)
        );
    }

    #[test]
    fn general_lane_rounds_once_at_the_subnormal_edge() {
        let tiny = f64::from_bits(1);
        assert_eq!(general_sum(&[tiny, tiny, tiny]), f64::from_bits(3));
        // Subnormals summing into the normal range, exactly.
        let big_sub = f64::from_bits((1 << 52) - 1);
        assert_eq!(general_sum(&[big_sub, tiny]), f64::MIN_POSITIVE);
        assert_eq!(
            general_sum(&[big_sub, big_sub]),
            f64::from_bits((1 << 53) - 2)
        );
        // Cancellation from the top of the range down to one subnormal.
        assert_eq!(general_sum(&[1e308, tiny, -1e308]), tiny);
        assert_eq!(general_sum(&[-tiny, 1e-300, -1e-300]), -tiny);
        // A range starting above 2^-1074 that cancels into the subnormals.
        let sub = f64::from_bits(1 << 40);
        assert_eq!(
            general_sum(&[f64::MIN_POSITIVE, sub, -f64::MIN_POSITIVE]),
            sub
        );
    }

    #[test]
    fn general_lane_specials_and_zero_signs() {
        assert!(general_sum(&[1.0, f64::NAN]).is_nan());
        assert!(general_sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(general_sum(&[f64::NAN, f64::INFINITY]).is_nan());
        assert_eq!(general_sum(&[f64::INFINITY, -1e308]), f64::INFINITY);
        assert_eq!(general_sum(&[f64::NEG_INFINITY, 5.0]), f64::NEG_INFINITY);
        // An exact zero is +0.0, whatever the signs of the zeros summed.
        assert_eq!(general_sum(&[-0.0]).to_bits(), 0);
        assert_eq!(general_sum(&[-0.0, -0.0]).to_bits(), 0);
        assert_eq!(general_sum(&[]).to_bits(), 0);
        assert_eq!(general_sum(&[2.5, -2.5]).to_bits(), 0);
    }

    #[test]
    fn general_lane_survives_many_carry_passes() {
        // Force carries often by merging accumulators near the bound.
        let vals = [-0.75, -0.75, -0.75, -0.75, -0.75, 4.0];
        let SumLane::General { low, bits } = general_lane(&vals) else {
            unreachable!()
        };
        let mut s = Superaccs::new(low, bits);
        s.pending = SUPERACC_CARRY_EVERY - 2;
        for &x in &vals[..5] {
            s.add(&[0], &[x], 1);
        }
        let mut t = Superaccs::new(low, bits);
        t.add(&[0], &[4.0], 1);
        t.pending = SUPERACC_CARRY_EVERY - 1;
        s.merge(&t, &[0], 1);
        assert_eq!(s.finish(0), 0.25);
    }

    #[test]
    fn general_lane_state_is_sized_by_the_columns_range() {
        // Many rows of ratings 1..5 with one NaN: 3 value bits plus
        // bit_length(rows) fit one 32-bit digit, so a group costs three
        // digits (24 bytes) and a flag byte, not a full-range accumulator.
        let mut vals: Vec<f64> = (0..1_000_000).map(|i| (i % 5 + 1) as f64).collect();
        vals[7] = f64::NAN;
        let SumLane::General { low, bits } = SumLane::of_f64(&vals) else {
            panic!("a NaN forces the general lane")
        };
        assert_eq!(Superaccs::new(low, bits).width, 3);
        let SumLane::General { low, bits } = FULL_RANGE else {
            unreachable!()
        };
        assert_eq!(Superaccs::new(low, bits).width, SUPERACC_MAX_WIDTH);
        // 200k groups of five rows each: per-group sums stay exact.
        let gids: Vec<u32> = (0..vals.len() as u32).map(|i| i / 5).collect();
        let mut acc = accumulators(&[AggFunc::Sum], SumLane::of_f64(&vals));
        acc.add(&gids, 200_000, |_| &vals);
        assert!(acc.finish(0, 1).is_nan(), "group 1 holds the NaN");
        for g in [0, 2, 199_999] {
            assert_eq!(acc.finish(0, g), 15.0);
        }
    }

    #[test]
    fn extremes_follow_total_order_and_ignore_nan() {
        let orders = [
            [0.0, -0.0, f64::NAN],
            [0.0, f64::NAN, -0.0],
            [-0.0, 0.0, f64::NAN],
            [-0.0, f64::NAN, 0.0],
            [f64::NAN, 0.0, -0.0],
            [f64::NAN, -0.0, 0.0],
        ];
        for zeros in orders {
            let mut acc = accumulators(&[AggFunc::Min, AggFunc::Max], FULL_RANGE);
            acc.add(&[0, 0, 0], 1, |_| &zeros);
            assert_eq!(acc.finish(0, 0).to_bits(), (-0.0f64).to_bits(), "{zeros:?}");
            assert_eq!(acc.finish(1, 0).to_bits(), 0.0f64.to_bits(), "{zeros:?}");
        }
        let mut acc = accumulators(&[AggFunc::Min, AggFunc::Max], FULL_RANGE);
        acc.add(&[0, 0, 0, 1, 1], 2, |_| {
            &[f64::NAN, 3.0, -2.0, f64::NAN, f64::NAN]
        });
        assert_eq!((acc.finish(0, 0), acc.finish(1, 0)), (-2.0, 3.0));
        // A group of only NaNs has no extreme: NaN.
        assert!(acc.finish(0, 1).is_nan() && acc.finish(1, 1).is_nan());
        let mut inf = accumulators(&[AggFunc::Min, AggFunc::Max], FULL_RANGE);
        inf.add(&[0, 0], 1, |_| &[f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(
            (inf.finish(0, 0), inf.finish(1, 0)),
            (f64::NEG_INFINITY, f64::INFINITY)
        );
    }
}
