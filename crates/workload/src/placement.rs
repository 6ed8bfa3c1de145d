//! Arrival-order placement shared by the request and chain generators.

use crate::error::WorkloadError;
use crate::time::{Horizon, TimeSlot};

/// Builds one item per drawn record, in draw order, and writes each
/// straight into its place in arrival order; `build` receives the record
/// and that place, which the generators use as the item's id.
///
/// Arrival order is by slot, ties kept in draw order — the order a
/// stable sort by arrival would give, found by counting instead: the
/// records per slot are counted, their exclusive prefix sums are each
/// slot's first place, and each record takes its slot's next place. So
/// every place in `0..drawn.len()` is handed out exactly once, and
/// `filler` only holds a place until its item is written over it. It is
/// cloned once per place, so it should own no heap memory.
///
/// The returned `Vec`'s capacity equals its length; beside `drawn` and
/// the output, the placement keeps one word per slot.
pub(crate) fn place_by_arrival<D, T: Clone>(
    drawn: Vec<D>,
    arrival: impl Fn(&D) -> TimeSlot,
    horizon: Horizon,
    filler: T,
    mut build: impl FnMut(D, usize) -> Result<T, WorkloadError>,
) -> Result<Vec<T>, WorkloadError> {
    let mut next = vec![0usize; horizon.len()];
    for d in &drawn {
        next[arrival(d)] += 1;
    }
    let mut first = 0;
    for slot in &mut next {
        first += std::mem::replace(slot, first);
    }
    let mut placed = vec![filler; drawn.len()];
    for d in drawn {
        let cursor = &mut next[arrival(&d)];
        let place = *cursor;
        *cursor += 1;
        placed[place] = build(d, place)?;
    }
    Ok(placed)
}
