//! Sparse user–item ratings matrix.
//!
//! Storage is row-major (per-user) with a mirrored per-item inverted
//! index, both kept sorted by id, so that user-based *and* item-based
//! collaborative filtering get cache-friendly, binary-searchable access.
//! The matrix is incrementally updatable: conversational interaction
//! (survey Section 5.3) re-rates items mid-session and expects models to
//! observe the change.

use std::sync::Arc;

use exrec_types::{Error, ItemId, Rating, RatingScale, Result, UserId};

/// A sparse ratings matrix over dense user and item id spaces.
///
/// ```
/// use exrec_data::RatingsMatrix;
/// use exrec_types::{ItemId, RatingScale, UserId};
///
/// let mut m = RatingsMatrix::new(2, 3, RatingScale::FIVE_STAR);
/// m.rate(UserId(0), ItemId(1), 4.0)?;
/// assert_eq!(m.rating(UserId(0), ItemId(1)), Some(4.0));
/// assert_eq!(m.user_mean(UserId(0)), Some(4.0));
/// m.unrate(UserId(0), ItemId(1))?;
/// assert_eq!(m.n_ratings(), 0);
/// # Ok::<(), exrec_types::Error>(())
/// ```
///
/// The ratings sit behind one [`Arc`], so cloning is `O(1)`: the clone
/// shares them until either side writes, and that first write copies
/// them (`O(ratings)`). A matrix nobody else holds is written in place.
#[derive(Debug, Clone)]
pub struct RatingsMatrix {
    scale: RatingScale,
    store: Arc<Store>,
    /// Bumped on every mutation; lets derived state (the candidate
    /// index, fitted models) detect that the matrix has changed
    /// underneath them.
    revision: u64,
}

/// The ratings a [`RatingsMatrix`] shares between its clones.
#[derive(Debug, Clone, PartialEq)]
struct Store {
    /// `by_user[u]` = sorted `(item, value)` pairs.
    by_user: Vec<Vec<(ItemId, f64)>>,
    /// `by_item[i]` = sorted `(user, value)` pairs.
    by_item: Vec<Vec<(UserId, f64)>>,
    n_ratings: usize,
    sum: f64,
}

/// Equality compares *content* (scale and ratings), not the revision
/// counter: a decoded snapshot equals the matrix it encoded even though
/// their mutation histories differ.
impl PartialEq for RatingsMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.scale == other.scale && self.store == other.store
    }
}

impl RatingsMatrix {
    /// Creates an empty matrix with capacity for `n_users` users and
    /// `n_items` items, rated on `scale`.
    pub fn new(n_users: usize, n_items: usize, scale: RatingScale) -> Self {
        Self {
            scale,
            store: Arc::new(Store {
                by_user: vec![Vec::new(); n_users],
                by_item: vec![Vec::new(); n_items],
                n_ratings: 0,
                sum: 0.0,
            }),
            revision: 0,
        }
    }

    /// The store, unshared first: copies it if another handle holds it.
    fn store_mut(&mut self) -> &mut Store {
        Arc::make_mut(&mut self.store)
    }

    /// Builds the matrix that `rate`-ing each row's ratings in order, user
    /// by user, into an empty matrix would leave: the same sum (added in
    /// that order), the same sorted rows and columns, and one revision per
    /// rating. Each row must hold distinct in-range items with on-scale
    /// values. Rows keep their capacity; columns get exactly theirs.
    pub(crate) fn from_rows(
        n_items: usize,
        scale: RatingScale,
        mut by_user: Vec<Vec<(ItemId, f64)>>,
    ) -> Self {
        let mut sum = 0.0;
        let mut counts = vec![0usize; n_items];
        for &(item, v) in by_user.iter().flatten() {
            sum += v;
            counts[item.index()] += 1;
        }
        let n_ratings = counts.iter().sum();
        let mut by_item: Vec<Vec<(UserId, f64)>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        for (u, row) in by_user.iter_mut().enumerate() {
            row.sort_unstable_by_key(|&(item, _)| item);
            debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "duplicate item");
            for &(item, v) in row.iter() {
                by_item[item.index()].push((UserId::new(u as u32), v));
            }
        }
        Self {
            scale,
            store: Arc::new(Store {
                by_user,
                by_item,
                n_ratings,
                sum,
            }),
            revision: n_ratings as u64,
        }
    }

    /// Monotone mutation counter: incremented by every call that changes
    /// stored ratings ([`RatingsMatrix::rate`] / [`RatingsMatrix::unrate`]).
    ///
    /// Consumers that derive state from the matrix — the scan engine's
    /// candidate index in `exrec-algo`, fitted item-item tables — record
    /// the revision they computed against and treat a mismatch as "the
    /// world moved, recompute". Cloning preserves the current value;
    /// revisions are comparable only within one matrix's lineage.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The rating scale.
    #[inline]
    pub fn scale(&self) -> &RatingScale {
        &self.scale
    }

    /// Number of users in the id space (rated or not).
    #[inline]
    pub fn n_users(&self) -> usize {
        self.store.by_user.len()
    }

    /// Number of items in the id space (rated or not).
    #[inline]
    pub fn n_items(&self) -> usize {
        self.store.by_item.len()
    }

    /// Total number of stored ratings.
    #[inline]
    pub fn n_ratings(&self) -> usize {
        self.store.n_ratings
    }

    /// Fraction of the user×item grid that is rated.
    pub fn density(&self) -> f64 {
        let cells = self.n_users() * self.n_items();
        if cells == 0 {
            0.0
        } else {
            self.n_ratings() as f64 / cells as f64
        }
    }

    /// Grows the user space to at least `n` users.
    pub fn ensure_users(&mut self, n: usize) {
        if n > self.n_users() {
            self.store_mut().by_user.resize_with(n, Vec::new);
        }
    }

    /// Grows the item space to at least `n` items.
    pub fn ensure_items(&mut self, n: usize) {
        if n > self.n_items() {
            self.store_mut().by_item.resize_with(n, Vec::new);
        }
    }

    fn check_user(&self, user: UserId) -> Result<()> {
        if user.index() < self.n_users() {
            Ok(())
        } else {
            Err(Error::UnknownUser { user })
        }
    }

    fn check_item(&self, item: ItemId) -> Result<()> {
        if item.index() < self.n_items() {
            Ok(())
        } else {
            Err(Error::UnknownItem { item })
        }
    }

    /// Inserts or replaces a rating. Returns the previous value if the
    /// pair was already rated.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownUser`] / [`Error::UnknownItem`] when ids are out
    ///   of range;
    /// * [`Error::InvalidRating`] when `value` is off-scale.
    pub fn rate(&mut self, user: UserId, item: ItemId, value: f64) -> Result<Option<f64>> {
        self.check_user(user)?;
        self.check_item(item)?;
        let rating = Rating::new(value, &self.scale)?;
        let v = rating.value();

        let store = self.store_mut();
        let row = &mut store.by_user[user.index()];
        let prev = match row.binary_search_by_key(&item, |&(i, _)| i) {
            Ok(pos) => {
                let old = row[pos].1;
                row[pos].1 = v;
                Some(old)
            }
            Err(pos) => {
                row.insert(pos, (item, v));
                None
            }
        };

        let col = &mut store.by_item[item.index()];
        match col.binary_search_by_key(&user, |&(u, _)| u) {
            Ok(pos) => col[pos].1 = v,
            Err(pos) => col.insert(pos, (user, v)),
        }

        match prev {
            Some(old) => {
                store.sum += v - old;
            }
            None => {
                store.n_ratings += 1;
                store.sum += v;
            }
        }
        self.revision += 1;
        Ok(prev)
    }

    /// Removes a rating, returning its value if present.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownUser`] / [`Error::UnknownItem`] for ids out
    /// of range.
    pub fn unrate(&mut self, user: UserId, item: ItemId) -> Result<Option<f64>> {
        self.check_user(user)?;
        self.check_item(item)?;
        let Ok(pos) = self
            .user_ratings(user)
            .binary_search_by_key(&item, |&(i, _)| i)
        else {
            return Ok(None);
        };
        let store = self.store_mut();
        let v = store.by_user[user.index()].remove(pos).1;
        let col = &mut store.by_item[item.index()];
        if let Ok(pos) = col.binary_search_by_key(&user, |&(u, _)| u) {
            col.remove(pos);
        }
        store.n_ratings -= 1;
        store.sum -= v;
        self.revision += 1;
        Ok(Some(v))
    }

    /// The rating a user gave an item, if any. Out-of-range ids yield
    /// `None` (lookup is a query, not a mutation — it should not fail).
    pub fn rating(&self, user: UserId, item: ItemId) -> Option<f64> {
        let row = self.user_ratings(user);
        row.binary_search_by_key(&item, |&(i, _)| i)
            .ok()
            .map(|pos| row[pos].1)
    }

    /// All ratings by `user`, sorted by item id. Empty for out-of-range
    /// users.
    pub fn user_ratings(&self, user: UserId) -> &[(ItemId, f64)] {
        self.store
            .by_user
            .get(user.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All ratings of `item`, sorted by user id. Empty for out-of-range
    /// items.
    pub fn item_ratings(&self, item: ItemId) -> &[(UserId, f64)] {
        self.store
            .by_item
            .get(item.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Mean of a user's ratings, or `None` if they have rated nothing.
    pub fn user_mean(&self, user: UserId) -> Option<f64> {
        let row = self.user_ratings(user);
        if row.is_empty() {
            None
        } else {
            Some(row.iter().map(|&(_, v)| v).sum::<f64>() / row.len() as f64)
        }
    }

    /// Mean of an item's ratings, or `None` if it has none.
    pub fn item_mean(&self, item: ItemId) -> Option<f64> {
        let col = self.item_ratings(item);
        if col.is_empty() {
            None
        } else {
            Some(col.iter().map(|&(_, v)| v).sum::<f64>() / col.len() as f64)
        }
    }

    /// Global mean rating, or the scale midpoint when empty.
    pub fn global_mean(&self) -> f64 {
        if self.store.n_ratings == 0 {
            self.scale.midpoint()
        } else {
            self.store.sum / self.store.n_ratings as f64
        }
    }

    /// Iterator over all user ids in the id space.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.n_users() as u32).map(UserId::new)
    }

    /// Iterator over all item ids in the id space.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.n_items() as u32).map(ItemId::new)
    }

    /// Iterator over every `(user, item, value)` triple, user-major.
    pub fn triples(&self) -> impl Iterator<Item = (UserId, ItemId, f64)> + '_ {
        self.store
            .by_user
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |&(i, v)| (UserId::new(u as u32), i, v)))
    }

    /// Items rated by both users, with both values:
    /// `(item, value_a, value_b)`. Linear merge over the two sorted rows.
    pub fn co_rated(&self, a: UserId, b: UserId) -> Vec<(ItemId, f64, f64)> {
        let ra = self.user_ratings(a);
        let rb = self.user_ratings(b);
        let mut out = Vec::with_capacity(ra.len().min(rb.len()));
        let (mut x, mut y) = (0, 0);
        while x < ra.len() && y < rb.len() {
            match ra[x].0.cmp(&rb[y].0) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    out.push((ra[x].0, ra[x].1, rb[y].1));
                    x += 1;
                    y += 1;
                }
            }
        }
        out
    }

    /// Users who rated both items, with both values:
    /// `(user, value_a, value_b)`.
    pub fn co_raters(&self, a: ItemId, b: ItemId) -> Vec<(UserId, f64, f64)> {
        let ca = self.item_ratings(a);
        let cb = self.item_ratings(b);
        let mut out = Vec::with_capacity(ca.len().min(cb.len()));
        let (mut x, mut y) = (0, 0);
        while x < ca.len() && y < cb.len() {
            match ca[x].0.cmp(&cb[y].0) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    out.push((ca[x].0, ca[x].1, cb[y].1));
                    x += 1;
                    y += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RatingsMatrix {
        let mut m = RatingsMatrix::new(3, 4, RatingScale::FIVE_STAR);
        m.rate(UserId(0), ItemId(0), 5.0).unwrap();
        m.rate(UserId(0), ItemId(1), 3.0).unwrap();
        m.rate(UserId(1), ItemId(1), 4.0).unwrap();
        m.rate(UserId(1), ItemId(2), 2.0).unwrap();
        m.rate(UserId(2), ItemId(0), 1.0).unwrap();
        m
    }

    #[test]
    fn insert_and_lookup() {
        let m = tiny();
        assert_eq!(m.rating(UserId(0), ItemId(0)), Some(5.0));
        assert_eq!(m.rating(UserId(0), ItemId(2)), None);
        assert_eq!(m.rating(UserId(9), ItemId(0)), None);
        assert_eq!(m.n_ratings(), 5);
    }

    #[test]
    fn replace_updates_both_indexes_and_sum() {
        let mut m = tiny();
        let prev = m.rate(UserId(0), ItemId(0), 2.0).unwrap();
        assert_eq!(prev, Some(5.0));
        assert_eq!(m.rating(UserId(0), ItemId(0)), Some(2.0));
        assert_eq!(
            m.item_ratings(ItemId(0)),
            &[(UserId(0), 2.0), (UserId(2), 1.0)]
        );
        assert_eq!(m.n_ratings(), 5);
        let expected_mean = (2.0 + 3.0 + 4.0 + 2.0 + 1.0) / 5.0;
        assert!((m.global_mean() - expected_mean).abs() < 1e-12);
    }

    #[test]
    fn unrate_removes_everywhere() {
        let mut m = tiny();
        assert_eq!(m.unrate(UserId(0), ItemId(1)).unwrap(), Some(3.0));
        assert_eq!(m.unrate(UserId(0), ItemId(1)).unwrap(), None);
        assert_eq!(m.rating(UserId(0), ItemId(1)), None);
        assert!(m
            .item_ratings(ItemId(1))
            .iter()
            .all(|&(u, _)| u != UserId(0)));
        assert_eq!(m.n_ratings(), 4);
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut m = tiny();
        assert!(matches!(
            m.rate(UserId(5), ItemId(0), 3.0),
            Err(Error::UnknownUser { .. })
        ));
        assert!(matches!(
            m.rate(UserId(0), ItemId(9), 3.0),
            Err(Error::UnknownItem { .. })
        ));
        assert!(matches!(
            m.rate(UserId(0), ItemId(0), 3.5),
            Err(Error::InvalidRating { .. })
        ));
    }

    #[test]
    fn means() {
        let m = tiny();
        assert_eq!(m.user_mean(UserId(0)), Some(4.0));
        assert_eq!(m.item_mean(ItemId(1)), Some(3.5));
        assert_eq!(m.user_mean(UserId(9)), None);
        assert!((m.global_mean() - 3.0).abs() < 1e-12);
        let empty = RatingsMatrix::new(2, 2, RatingScale::FIVE_STAR);
        assert_eq!(empty.global_mean(), 3.0, "midpoint when empty");
    }

    #[test]
    fn co_rated_merge() {
        let m = tiny();
        assert_eq!(
            m.co_rated(UserId(0), UserId(1)),
            vec![(ItemId(1), 3.0, 4.0)]
        );
        assert!(m.co_rated(UserId(0), UserId(2)).len() == 1);
        assert_eq!(
            m.co_raters(ItemId(0), ItemId(1)),
            vec![(UserId(0), 5.0, 3.0)]
        );
    }

    #[test]
    fn rows_stay_sorted() {
        let mut m = RatingsMatrix::new(1, 10, RatingScale::FIVE_STAR);
        for i in [7u32, 2, 9, 0, 4] {
            m.rate(UserId(0), ItemId(i), 3.0).unwrap();
        }
        let ids: Vec<u32> = m
            .user_ratings(UserId(0))
            .iter()
            .map(|&(i, _)| i.raw())
            .collect();
        assert_eq!(ids, vec![0, 2, 4, 7, 9]);
    }

    #[test]
    fn density_and_growth() {
        let mut m = tiny();
        assert!((m.density() - 5.0 / 12.0).abs() < 1e-12);
        m.ensure_users(10);
        m.ensure_items(10);
        assert_eq!(m.n_users(), 10);
        assert_eq!(m.n_items(), 10);
        assert!(m.rate(UserId(9), ItemId(9), 1.0).is_ok());
    }

    #[test]
    fn revision_tracks_mutations_but_not_equality() {
        let mut m = RatingsMatrix::new(2, 2, RatingScale::FIVE_STAR);
        assert_eq!(m.revision(), 0);
        m.rate(UserId(0), ItemId(0), 4.0).unwrap();
        let r1 = m.revision();
        assert!(r1 > 0);
        // Re-rating and unrating both advance the revision.
        m.rate(UserId(0), ItemId(0), 2.0).unwrap();
        assert!(m.revision() > r1);
        let r2 = m.revision();
        m.unrate(UserId(0), ItemId(0)).unwrap();
        assert!(m.revision() > r2);
        // Unrating an absent pair and failed mutations change nothing.
        let r3 = m.revision();
        m.unrate(UserId(0), ItemId(1)).unwrap();
        assert!(m.rate(UserId(0), ItemId(0), 3.5).is_err());
        assert_eq!(m.revision(), r3);
        // Equality is content-based: different histories, same ratings.
        let mut a = RatingsMatrix::new(1, 1, RatingScale::FIVE_STAR);
        a.rate(UserId(0), ItemId(0), 5.0).unwrap();
        let mut b = RatingsMatrix::new(1, 1, RatingScale::FIVE_STAR);
        b.rate(UserId(0), ItemId(0), 3.0).unwrap();
        b.rate(UserId(0), ItemId(0), 5.0).unwrap();
        assert_ne!(a.revision(), b.revision());
        assert_eq!(a, b);
    }

    #[test]
    fn triples_cover_everything() {
        let m = tiny();
        let triples: Vec<_> = m.triples().collect();
        assert_eq!(triples.len(), 5);
        assert!(triples.contains(&(UserId(1), ItemId(2), 2.0)));
    }
}
