//! Bounded ring buffer backing the trace recorders.

/// Fixed-capacity ring: pushes beyond capacity overwrite the oldest
/// entry (flight-recorder semantics), so recording cost stays O(1) and memory stays bounded no matter how
/// long tracing stays enabled. Storage grows lazily up to the cap.
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest entry once the buffer has wrapped.
    head: usize,
}

impl<T> Ring<T> {
    pub(crate) fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::new(),
            cap: cap.max(1),
            head: 0,
        }
    }

    pub(crate) fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// Iterate oldest → newest.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_dropping_oldest() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.buf.len(), 3);
        let got: Vec<i32> = r.iter().copied().collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn under_capacity_keeps_order() {
        let mut r = Ring::new(10);
        for i in 0..4 {
            r.push(i);
        }
        let got: Vec<i32> = r.iter().copied().collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = Ring::new(0);
        r.push(1);
        r.push(2);
        assert_eq!(r.buf.len(), 1);
        assert_eq!(r.iter().copied().collect::<Vec<i32>>(), vec![2]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = Ring::new(2);
        for i in 0..5 {
            r.push(i);
        }
        r.clear();
        assert!(r.buf.is_empty());
        r.push(9);
        assert_eq!(r.iter().copied().collect::<Vec<i32>>(), vec![9]);
    }
}
