//! The bounded evict-oldest ring every windowed structure in this crate
//! keeps: time-series points, rolling quality means, the incident log
//! and the flight recorder.

use std::collections::VecDeque;

/// A bounded ring: pushing onto a full ring evicts its oldest entry.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Ring<T> {
    /// An empty ring of `capacity` (at least 1) entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Ring {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
        }
    }

    /// Appends `item`; when full, evicts the oldest entry and returns it.
    pub(crate) fn push(&mut self, item: T) -> Option<T> {
        let evicted = (self.items.len() == self.capacity)
            .then(|| self.items.pop_front())
            .flatten();
        self.items.push_back(item);
        evicted
    }

    /// Entries held, at most the capacity.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The most entries the ring holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// The entries, oldest first, for in-place updates.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut()
    }

    /// The entries, oldest first, cloned.
    pub(crate) fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.items.iter().cloned().collect()
    }
}
