//! Top-k selection of weighted neighbours.

/// Keeps the `k` entries with the largest key, in descending key order.
///
/// A simple partial sort: at the sizes the toolkit handles (thousands of
/// candidates) a full `sort_unstable_by` then truncate beats heap
/// management; the function exists to make intent explicit and keep the
/// tie-break rule (stable index order) in one place.
pub fn top_k_by<T, F>(mut items: Vec<T>, k: usize, mut key: F) -> Vec<T>
where
    F: FnMut(&T) -> f64,
{
    items.sort_by(|a, b| {
        key(b)
            .partial_cmp(&key(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    items.truncate(k);
    items
}

/// Streaming top-k with the same result contract as [`top_k_by`]:
/// the `k` entries with the largest (finite, non-NaN) key, descending,
/// ties broken by arrival order.
///
/// Where [`top_k_by`] sorts the whole candidate vector, this keeps a
/// bounded `k`-entry working set and replaces its worst entry on the
/// fly — `O(m · k)` worst case but `O(m + k log k)`-ish in practice
/// since replacements thin out fast — which is what the single-item
/// column gather wants when it ranks an item's thousands of raters at
/// `k ≈ 20`.
/// Verified equivalent to `top_k_by` (including tie order) by the
/// `streaming_matches_sort` test below.
pub fn top_k_stream<T, I, F>(items: I, k: usize, mut key: F) -> Vec<T>
where
    I: IntoIterator<Item = T>,
    F: FnMut(&T) -> f64,
{
    if k == 0 {
        return Vec::new();
    }
    // (key, arrival position, value); "better" = higher key, then
    // earlier arrival — exactly the order a stable descending sort
    // leaves equal keys in.
    let mut top: Vec<(f64, usize, T)> = Vec::with_capacity(k);
    let mut worst = 0usize;
    let find_worst = |top: &[(f64, usize, T)]| {
        let mut w = 0usize;
        for i in 1..top.len() {
            if top[i].0 < top[w].0 || (top[i].0 == top[w].0 && top[i].1 > top[w].1) {
                w = i;
            }
        }
        w
    };
    for (pos, item) in items.into_iter().enumerate() {
        let score = key(&item);
        if top.len() < k {
            top.push((score, pos, item));
            if top.len() == k {
                worst = find_worst(&top);
            }
        } else if score > top[worst].0 {
            top[worst] = (score, pos, item);
            worst = find_worst(&top);
        }
    }
    top.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    top.into_iter().map(|(_, _, item)| item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_largest() {
        let v = vec![1.0f64, 5.0, 3.0, 4.0, 2.0];
        let top = top_k_by(v, 2, |x| *x);
        assert_eq!(top, vec![5.0, 4.0]);
    }

    #[test]
    fn k_larger_than_input() {
        let v = vec![1.0f64, 2.0];
        assert_eq!(top_k_by(v, 10, |x| *x), vec![2.0, 1.0]);
    }

    #[test]
    fn k_zero() {
        let v = vec![1.0f64, 2.0];
        assert!(top_k_by(v, 0, |x| *x).is_empty());
    }

    #[test]
    fn nan_keys_do_not_panic() {
        let v = vec![1.0f64, f64::NAN, 2.0];
        let top = top_k_by(v, 3, |x| *x);
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn streaming_matches_sort() {
        // Deterministic pseudo-random keys with deliberate ties.
        let mut state = 0x9E3779B9u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 17) as f64 / 4.0
        };
        for n in [0usize, 1, 5, 20, 257] {
            let items: Vec<(usize, f64)> = (0..n).map(|i| (i, next())).collect();
            for k in [0usize, 1, 3, 20, 300] {
                let sorted = top_k_by(items.clone(), k, |&(_, s)| s);
                let streamed = top_k_stream(items.iter().copied(), k, |&(_, s)| s);
                assert_eq!(sorted, streamed, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn streaming_ties_keep_arrival_order() {
        let items = vec![(0, 1.0f64), (1, 2.0), (2, 2.0), (3, 2.0), (4, 0.5)];
        let top = top_k_stream(items, 2, |&(_, s)| s);
        assert_eq!(top, vec![(1, 2.0), (2, 2.0)]);
    }
}
