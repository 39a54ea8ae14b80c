//! Min-combining of component event horizons for quiescence-aware
//! cycle skipping.
//!
//! Every stateful component exposes `next_event(now) -> Option<Cycle>`:
//! the earliest cycle at which stepping it *might* change observable
//! state, or `None` when it schedules no event of its own (it can only
//! be woken by another component acting first). The system-level skip
//! loop min-combines those answers with a [`Horizon`]; if the combined
//! horizon lies strictly in the future, every cycle before it is
//! provably dead and can be jumped over in one step.
//!
//! The contract is deliberately one-sided: a component may report an
//! event *earlier* than anything actually happens (the system then just
//! steps normally through a few quiet cycles, exactly as naive stepping
//! would), but it must never report one *later* — skipping over a real
//! state change is the only way to break the byte-identical-output
//! guarantee. See `docs/PERFORMANCE.md` for the full contract.
//!
//! # Examples
//!
//! ```
//! use pabst_simkit::horizon::Horizon;
//!
//! let mut h = Horizon::new();
//! h.add(120);
//! h.merge(None); // an idle component contributes nothing
//! h.merge(Some(80));
//! assert_eq!(h.get(), Some(80));
//! assert!(Horizon::new().get().is_none(), "no events at all");
//! ```

use crate::Cycle;

/// Accumulates the minimum over a set of optional event times.
///
/// `None` inputs (components with no self-scheduled event) are
/// ignored; an all-`None` combination yields `None`, meaning the
/// machine is fully quiescent until external input — the caller may
/// skip as far as its own bound (e.g. the next epoch boundary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Horizon(Option<Cycle>);

impl Horizon {
    /// An empty horizon: no events known yet.
    pub fn new() -> Self {
        Self(None)
    }

    /// Folds in a known event time.
    pub fn add(&mut self, at: Cycle) {
        self.0 = Some(match self.0 {
            Some(cur) => cur.min(at),
            None => at,
        });
    }

    /// Folds in an optional event time; `None` leaves the horizon as is.
    pub fn merge(&mut self, at: Option<Cycle>) {
        if let Some(at) = at {
            self.add(at);
        }
    }

    /// The earliest event folded in so far, or `None` when every input
    /// was `None`.
    pub fn get(&self) -> Option<Cycle> {
        self.0
    }

    /// Folds in an optional event time and reports whether it is already
    /// due (`at <= now`) — the short-circuit every system-level
    /// min-combine performs: a component with a due event forces a naive
    /// step this cycle, so there is no point folding further inputs.
    ///
    /// A due event is *not* folded into the horizon; the caller is
    /// expected to stop combining and step.
    pub fn merge_due(&mut self, at: Option<Cycle>, now: Cycle) -> bool {
        match at {
            Some(at) if at <= now => true,
            other => {
                self.merge(other);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_horizon_is_none() {
        assert_eq!(Horizon::new().get(), None);
        assert_eq!(Horizon::default().get(), None);
    }

    #[test]
    fn add_takes_minimum() {
        let mut h = Horizon::new();
        h.add(50);
        h.add(30);
        h.add(90);
        assert_eq!(h.get(), Some(30));
    }

    #[test]
    fn merge_ignores_none() {
        let mut h = Horizon::new();
        h.merge(None);
        assert_eq!(h.get(), None);
        h.merge(Some(7));
        h.merge(None);
        assert_eq!(h.get(), Some(7));
        h.merge(Some(3));
        assert_eq!(h.get(), Some(3));
    }

    #[test]
    fn merge_due_short_circuits_on_due_events() {
        let mut h = Horizon::new();
        assert!(!h.merge_due(None, 10), "no event is never due");
        assert!(!h.merge_due(Some(15), 10), "future events fold in");
        assert_eq!(h.get(), Some(15));
        assert!(h.merge_due(Some(10), 10), "an event at now is due");
        assert!(h.merge_due(Some(3), 10), "a past event is due");
        assert_eq!(h.get(), Some(15), "due events are not folded");
    }
}
