//! The reference the benchmark checks the warehouse against.
//!
//! It shares no code with the program: base relations are kept as plain
//! hash maps of `(a, b)` pairs, every view is evaluated with the
//! benchmark's own hash joins, and the update stream is generated here.
//! Two evaluations are kept apart from each other as well: a per-update
//! delta join over hash indexes keeps each reference view current, and
//! [`RefSource::eval_from_scratch`] rebuilds a view from the flat base
//! copy alone, so a fault in the incremental path cannot hide itself.

use std::collections::{HashMap, VecDeque};

use eca_relational::SignedBag;

/// A two-column integer tuple: `r1(W,X)`, `r2(X,Y)`, `r3(Y,Z)`, `V(W,Z)`.
pub type Pair = (i64, i64);
/// A bag of pairs with positive multiplicities.
pub type Counts = HashMap<Pair, i64>;

type Index = HashMap<i64, HashMap<i64, i64>>;

/// The selection of an Example 6 view: `W > Z` (the paper's view) or
/// its mirror `W < Z`, which has the same size and the same join work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sel {
    /// `σ_{W>Z}`.
    Gt,
    /// `σ_{W<Z}`.
    Lt,
}

impl Sel {
    fn keeps(self, w: i64, z: i64) -> bool {
        match self {
            Sel::Gt => w > z,
            Sel::Lt => w < z,
        }
    }
}

/// Deterministic 64-bit generator (SplitMix64); the benchmark's only
/// source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The insert/delete churn of `UpdateMix::Mixed`, generated one update
/// at a time so a run can last as long as its clock says: each update
/// picks a relation uniformly, deletes a live tuple or inserts one on
/// existing join values, so each insert derives about `σJ²` view tuples.
/// Where `Mixed` flips a coin, this churn holds each relation within one
/// tuple of its initial size (delete above it, insert below it, a coin
/// flip at it): a coin flip is a random walk, which over the 10⁴–10⁵
/// updates of a run moves `C` — and with it the view size and every
/// per-update cost — by a different amount for every seed.
pub struct Churn {
    rng: Rng,
    live: [Vec<Pair>; 3],
    sizes: [usize; 3],
    groups: i64,
}

/// One generated update: relation index (0..3), tuple, insert or delete.
#[derive(Clone, Copy, Debug)]
pub struct Change {
    /// `0 → r1`, `1 → r2`, `2 → r3`.
    pub rel: usize,
    /// The tuple inserted or deleted.
    pub tuple: Pair,
    /// Insert (`true`) or delete.
    pub insert: bool,
}

/// Range of the `W`/`Z` selection attributes, as in Example 6.
const SEL_RANGE: u64 = 1000;

impl Churn {
    /// A churn over the given initial relations, with `groups = C/J`
    /// distinct join values.
    pub fn new(rng: Rng, live: [Vec<Pair>; 3], groups: i64) -> Churn {
        let sizes = [live[0].len(), live[1].len(), live[2].len()];
        Churn {
            rng,
            live,
            sizes,
            groups,
        }
    }

    /// The next update.
    pub fn next_change(&mut self) -> Change {
        let rel = self.rng.below(3) as usize;
        let coin = self.rng.below(2) == 0;
        let len = self.live[rel].len();
        let delete = len > 0 && (len > self.sizes[rel] || (len == self.sizes[rel] && coin));
        if delete {
            let idx = self.rng.below(self.live[rel].len() as u64) as usize;
            let tuple = self.live[rel].swap_remove(idx);
            return Change {
                rel,
                tuple,
                insert: false,
            };
        }
        let group = self.rng.below(self.groups as u64) as i64;
        let tuple = match rel {
            0 => (self.rng.below(SEL_RANGE) as i64, group),
            1 => (self.rng.below(self.groups as u64) as i64, group),
            _ => (group, self.rng.below(SEL_RANGE) as i64),
        };
        self.live[rel].push(tuple);
        Change {
            rel,
            tuple,
            insert: true,
        }
    }
}

/// One reference view: current rows plus, while reads are checked, the
/// per-update deltas that let a past state be reconstructed.
struct RefView {
    sel: Sel,
    rows: Counts,
    /// `deltas[i]` is the view delta of update `delta_base + i + 1`.
    deltas: VecDeque<Vec<(Pair, i64)>>,
    delta_base: u64,
}

/// The reference copy of one source: base relations and the views over
/// them.
pub struct RefSource {
    /// Flat copies of `r1`, `r2`, `r3`.
    rels: [Counts; 3],
    r1_by_x: Index,
    r2_by_x: Index,
    r2_by_y: Index,
    r3_by_y: Index,
    views: Vec<RefView>,
    /// Updates applied so far.
    applied: u64,
    keep_deltas: bool,
}

fn bump(map: &mut Counts, key: Pair, by: i64) {
    let slot = map.entry(key).or_insert(0);
    *slot += by;
    if *slot == 0 {
        map.remove(&key);
    }
}

fn bump_index(index: &mut Index, key: i64, other: i64, by: i64) {
    let inner = index.entry(key).or_default();
    let slot = inner.entry(other).or_insert(0);
    *slot += by;
    if *slot == 0 {
        inner.remove(&other);
        if inner.is_empty() {
            index.remove(&key);
        }
    }
}

impl RefSource {
    /// A reference over the initial relations, hosting one view per
    /// entry of `sels`.
    pub fn new(initial: &[Vec<Pair>; 3], sels: &[Sel]) -> RefSource {
        let mut src = RefSource {
            rels: Default::default(),
            r1_by_x: Index::new(),
            r2_by_x: Index::new(),
            r2_by_y: Index::new(),
            r3_by_y: Index::new(),
            views: Vec::new(),
            applied: 0,
            keep_deltas: false,
        };
        for (rel, tuples) in initial.iter().enumerate() {
            for &t in tuples {
                src.index(rel, t, 1);
            }
        }
        src.views = sels
            .iter()
            .map(|&sel| RefView {
                sel,
                rows: src.eval_from_scratch(sel),
                deltas: VecDeque::new(),
                delta_base: 0,
            })
            .collect();
        src
    }

    /// Keep per-update view deltas (needed to check reads of past
    /// epochs).
    pub fn keep_deltas(&mut self, on: bool) {
        self.keep_deltas = on;
        for v in &mut self.views {
            v.deltas.clear();
            v.delta_base = self.applied;
        }
    }

    /// Updates applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Current rows of view `v`.
    #[cfg(test)]
    pub fn rows(&self, v: usize) -> &Counts {
        &self.views[v].rows
    }

    fn index(&mut self, rel: usize, (a, b): Pair, by: i64) {
        bump(&mut self.rels[rel], (a, b), by);
        match rel {
            0 => bump_index(&mut self.r1_by_x, b, a, by),
            1 => {
                bump_index(&mut self.r2_by_x, a, b, by);
                bump_index(&mut self.r2_by_y, b, a, by);
            }
            _ => bump_index(&mut self.r3_by_y, a, b, by),
        }
    }

    /// Apply one update. Returns `false` for a delete of an absent tuple
    /// (which the churn never generates).
    pub fn apply(&mut self, change: Change) -> bool {
        let sign = if change.insert { 1 } else { -1 };
        let (a, b) = change.tuple;
        if !change.insert && !self.rels[change.rel].contains_key(&(a, b)) {
            return false;
        }
        // The delta joins the changed tuple with the two unchanged
        // relations, so it is computed before the indexes move.
        let empty = HashMap::new();
        let mut joined: Vec<(i64, i64, i64)> = Vec::new(); // (w, z, multiplicity)
        match change.rel {
            0 => {
                for (&y, &c2) in self.r2_by_x.get(&b).unwrap_or(&empty) {
                    for (&z, &c3) in self.r3_by_y.get(&y).unwrap_or(&empty) {
                        joined.push((a, z, c2 * c3));
                    }
                }
            }
            1 => {
                for (&w, &c1) in self.r1_by_x.get(&a).unwrap_or(&empty) {
                    for (&z, &c3) in self.r3_by_y.get(&b).unwrap_or(&empty) {
                        joined.push((w, z, c1 * c3));
                    }
                }
            }
            _ => {
                for (&x, &c2) in self.r2_by_y.get(&a).unwrap_or(&empty) {
                    for (&w, &c1) in self.r1_by_x.get(&x).unwrap_or(&empty) {
                        joined.push((w, b, c1 * c2));
                    }
                }
            }
        }
        self.index(change.rel, (a, b), sign);
        self.applied += 1;
        for view in &mut self.views {
            let mut delta = Vec::new();
            for &(w, z, m) in &joined {
                if view.sel.keeps(w, z) {
                    bump(&mut view.rows, (w, z), sign * m);
                    delta.push(((w, z), sign * m));
                }
            }
            if self.keep_deltas {
                view.deltas.push_back(delta);
            }
        }
        true
    }

    /// Forget deltas of updates up to and including `seq`.
    pub fn trim_deltas(&mut self, seq: u64) {
        for v in &mut self.views {
            while v.delta_base < seq && !v.deltas.is_empty() {
                v.deltas.pop_front();
                v.delta_base += 1;
            }
        }
    }

    /// Evaluate a view from the flat base copy alone, with hash joins
    /// built here and nowhere else.
    pub fn eval_from_scratch(&self, sel: Sel) -> Counts {
        let mut r2: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
        for (&(x, y), &c) in &self.rels[1] {
            r2.entry(x).or_default().push((y, c));
        }
        let mut r3: HashMap<i64, Vec<(i64, i64)>> = HashMap::new();
        for (&(y, z), &c) in &self.rels[2] {
            r3.entry(y).or_default().push((z, c));
        }
        let mut out = Counts::new();
        for (&(w, x), &c1) in &self.rels[0] {
            for &(y, c2) in r2.get(&x).map(Vec::as_slice).unwrap_or(&[]) {
                for &(z, c3) in r3.get(&y).map(Vec::as_slice).unwrap_or(&[]) {
                    if sel.keeps(w, z) {
                        *out.entry((w, z)).or_insert(0) += c1 * c2 * c3;
                    }
                }
            }
        }
        out
    }

    /// Whether every incrementally maintained view equals its
    /// from-scratch evaluation.
    pub fn self_check(&self) -> Result<(), String> {
        for (v, view) in self.views.iter().enumerate() {
            if view.rows != self.eval_from_scratch(view.sel) {
                return Err(format!("reference view {v}: incremental ≠ from scratch"));
            }
        }
        Ok(())
    }

    /// Compare `bag` with view `v` as it stood after the first `n`
    /// updates (`n ≤ applied`), rolling back the logged deltas of the
    /// later ones.
    pub fn check_at(&self, v: usize, n: u64, bag: &SignedBag) -> Result<(), String> {
        let view = &self.views[v];
        if n == self.applied {
            return compare(bag, &view.rows, &Counts::new());
        }
        if !self.keep_deltas
            || n < view.delta_base
            || self.applied > view.delta_base + view.deltas.len() as u64
        {
            return Err(format!("no deltas kept to rebuild view {v} at update {n}"));
        }
        let mut undo = Counts::new();
        let skip = (n - view.delta_base) as usize;
        for delta in view.deltas.iter().skip(skip) {
            for &(k, d) in delta {
                *undo.entry(k).or_insert(0) += d;
            }
        }
        compare(bag, &view.rows, &undo)
    }
}

/// Compare a materialized bag with `rows − undo`.
fn compare(bag: &SignedBag, rows: &Counts, undo: &Counts) -> Result<(), String> {
    let expected = |k: &Pair| rows.get(k).copied().unwrap_or(0) - undo.get(k).copied().unwrap_or(0);
    let mut distinct = rows.len() as i64;
    for (k, &d) in undo {
        if d != 0 {
            distinct += i64::from(expected(k) > 0) - i64::from(rows.contains_key(k));
        }
    }
    if bag.distinct_len() as i64 != distinct {
        return Err(format!(
            "view has {} distinct rows, reference {distinct}",
            bag.distinct_len()
        ));
    }
    for (t, c) in bag.iter() {
        let key = match (
            t.get(0).and_then(|v| v.as_int()),
            t.get(1).and_then(|v| v.as_int()),
        ) {
            (Some(w), Some(z)) if t.arity() == 2 => (w, z),
            _ => return Err(format!("row {t:?} is not a (W, Z) pair")),
        };
        let want = expected(&key);
        if c != want {
            return Err(format!("row {key:?}: view count {c}, reference {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::Tuple;

    fn small() -> [Vec<Pair>; 3] {
        [
            vec![(5, 1), (2, 1), (9, 2)],
            vec![(1, 7), (2, 7), (1, 8)],
            vec![(7, 3), (8, 1), (7, 6)],
        ]
    }

    #[test]
    fn incremental_matches_from_scratch_under_churn() {
        let init = small();
        let mut src = RefSource::new(&init, &[Sel::Gt, Sel::Lt]);
        let mut churn = Churn::new(Rng::new(3, 1), init, 3);
        for _ in 0..500 {
            assert!(src.apply(churn.next_change()));
        }
        src.self_check().unwrap();
    }

    fn bag(rows: &Counts) -> SignedBag {
        let mut bag = SignedBag::new();
        for (&(w, z), &c) in rows {
            bag.add(Tuple::ints([w, z]), c);
        }
        bag
    }

    #[test]
    fn past_states_are_rebuilt_from_deltas() {
        let init = small();
        let mut src = RefSource::new(&init, &[Sel::Gt]);
        src.keep_deltas(true);
        let before = bag(src.rows(0));
        let mut churn = Churn::new(Rng::new(9, 1), init, 3);
        for _ in 0..50 {
            assert!(src.apply(churn.next_change()));
        }
        src.check_at(0, 0, &before).unwrap();
        src.check_at(0, 50, &bag(src.rows(0))).unwrap();
        src.trim_deltas(10);
        assert!(
            src.check_at(0, 0, &before).is_err(),
            "trimmed deltas cannot rebuild"
        );
    }

    #[test]
    fn a_wrong_count_is_caught() {
        let src = RefSource::new(&small(), &[Sel::Gt, Sel::Lt]);
        let mut wrong = bag(src.rows(1));
        let (&key, _) = src.rows(1).iter().next().expect("non-empty view");
        wrong.add(Tuple::ints([key.0, key.1]), 1);
        assert!(src.check_at(1, 0, &wrong).is_err());
        assert!(src.check_at(1, 0, &bag(src.rows(1))).is_ok());
    }
}
